//! Property tests of the mapping strategies. Each property runs 96 cases
//! drawn from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_map::prelude::*;
use manytest_noc::Mesh2D;
use manytest_sim::SimRng;
use manytest_workload::TaskGraphGenerator;

fn random_context(mesh: Mesh2D, rng: &mut SimRng, occupancy: f64) -> MapContext {
    let n = mesh.node_count();
    let (mut free, mut utilization, mut criticality) = (vec![true; n], vec![0.0; n], vec![0.0; n]);
    for i in 0..n {
        free[i] = !rng.gen_bool(occupancy);
        utilization[i] = rng.next_f64();
        criticality[i] = rng.next_f64() * 4.0;
    }
    MapContext::from_parts(mesh, free, utilization, criticality)
}

#[test]
fn mappings_are_always_valid_or_absent() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let edge = 4 + rng.gen_range(8) as u16;
        let occupancy = rng.gen_f64_range(0.0, 0.9);
        let mesh = Mesh2D::new(edge, edge);
        let ctx = random_context(mesh, &mut rng, occupancy);
        let app = TaskGraphGenerator::default().generate(&mut rng, "prop");
        for mapper in [
            &ConaMapper::new() as &dyn Mapper,
            &TestAwareMapper::default(),
        ] {
            match mapper.map(&ctx, &app) {
                Some(m) => {
                    assert!(
                        m.is_valid_for(mesh, &app),
                        "seed {seed}: {} invalid",
                        mapper.name()
                    );
                    for &c in m.coords() {
                        assert!(
                            ctx.is_free(c),
                            "seed {seed}: {} used occupied {c}",
                            mapper.name()
                        );
                    }
                }
                None => assert!(
                    ctx.free_count() < app.task_count(),
                    "seed {seed}: {} refused although {} cores were free for {} tasks",
                    mapper.name(),
                    ctx.free_count(),
                    app.task_count()
                ),
            }
        }
    }
}

#[test]
fn mapping_is_deterministic() {
    let tum = TestAwareMapper::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let edge = 4 + rng.gen_range(6) as u16;
        let mesh = Mesh2D::new(edge, edge);
        let ctx = random_context(mesh, &mut rng, 0.3);
        let app = TaskGraphGenerator::default().generate(&mut rng, "prop");
        assert_eq!(tum.map(&ctx, &app), tum.map(&ctx, &app), "seed {seed}");
    }
}

#[test]
fn hop_cost_is_nonnegative_and_zero_only_for_trivial() {
    let ctx = MapContext::all_free(Mesh2D::new(10, 10));
    for seed in 0..96 {
        let app = TaskGraphGenerator::default().generate(&mut SimRng::seed_from(seed), "prop");
        let cost = ConaMapper::new()
            .map(&ctx, &app)
            .unwrap()
            .weighted_hop_cost(&app);
        assert!(cost >= 0.0, "seed {seed}: cost {cost}");
        if app.edges().is_empty() {
            assert_eq!(cost, 0.0, "seed {seed}");
        }
    }
}

#[test]
fn tum_penalty_never_picks_strictly_dominated_cores() {
    // One-task app, all free, uniform utilisation: the chosen core must
    // be among the minimum-criticality cores.
    let mesh = Mesh2D::new(6, 6);
    let mut g = manytest_workload::TaskGraph::new("solo");
    g.add_task(manytest_workload::Task {
        instructions: 1_000,
    });
    for seed in 0..96 {
        let mut ctx = MapContext::all_free(mesh);
        let mut rng = SimRng::seed_from(seed);
        let mut min_crit = f64::INFINITY;
        for c in mesh.coords() {
            let crit = (rng.gen_range(4) + 1) as f64;
            ctx.set_criticality(c, crit);
            min_crit = min_crit.min(crit);
        }
        let m = TestAwareMapper::new(0.0, 1.0).map(&ctx, &g).unwrap();
        let chosen = ctx.criticality(m.coords()[0]);
        assert!(
            (chosen - min_crit).abs() < 1e-9,
            "seed {seed}: picked criticality {chosen} but minimum was {min_crit}"
        );
    }
}

#[test]
fn bounding_box_contains_all_tasks() {
    let ctx = MapContext::all_free(Mesh2D::new(12, 12));
    for seed in 0..96 {
        let app = TaskGraphGenerator::default().generate(&mut SimRng::seed_from(seed), "prop");
        let m = TestAwareMapper::default().map(&ctx, &app).unwrap();
        let (lo, hi) = m.bounding_box().expect("non-empty mapping");
        let area = usize::from(hi.x - lo.x + 1) * usize::from(hi.y - lo.y + 1);
        assert!(area >= app.task_count(), "seed {seed}");
    }
}
