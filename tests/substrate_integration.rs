//! Cross-crate integration below the full system: mapper × workload × NoC,
//! scheduler × power × coverage, aging × criticality chains.

use manytest::aging::{AgingModel, CriticalityModel, StressTracker};
use manytest::map::{ConaMapper, MapContext, Mapper, TestAwareMapper};
use manytest::noc::{Coord, Mesh2D, TrafficMatrix};
use manytest::power::{PowerBudget, PowerModel, TechNode, VfLadder, VfLevel};
use manytest::sbst::{RoutineLibrary, TestCandidate, TestScheduler, TestSchedulerConfig};
use manytest::sim::SimRng;
use manytest::workload::{presets, TaskGraphGenerator, WorkloadMix};

#[test]
fn mappers_place_every_preset_without_core_sharing() {
    let mesh = Mesh2D::new(8, 8);
    let ctx = MapContext::all_free(mesh);
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(ConaMapper::new()),
        Box::new(TestAwareMapper::default()),
    ];
    for mapper in &mappers {
        for app in presets::all() {
            let m = mapper
                .map(&ctx, &app)
                .unwrap_or_else(|| panic!("{} failed on {}", mapper.name(), app.name()));
            assert!(m.is_valid_for(mesh, &app));
            // Charging the mapped traffic must stay inside the mesh
            // (`charge_route` panics on an endpoint outside it).
            let mut tm = TrafficMatrix::new(mesh);
            for e in app.edges() {
                tm.charge_route(m.coord_of(e.from), m.coord_of(e.to), e.bits);
            }
        }
    }
}

#[test]
fn sequential_mappings_never_overlap() {
    let mesh = Mesh2D::new(8, 8);
    let mut ctx = MapContext::all_free(mesh);
    let mapper = ConaMapper::new();
    let mut occupied: Vec<Coord> = Vec::new();
    // Admit presets until the mesh is too full.
    for app in [presets::vopd(), presets::mpeg4(), presets::mwd(), presets::pip()] {
        if let Some(m) = mapper.map(&ctx, &app) {
            for &c in m.coords() {
                assert!(!occupied.contains(&c), "double allocation at {c}");
                occupied.push(c);
                ctx.set_free(c, false);
            }
        }
    }
    assert!(occupied.len() >= 36, "at least three apps should have fit");
}

#[test]
fn random_workload_maps_and_respects_availability() {
    let mesh = Mesh2D::new(12, 12);
    let mut rng = SimRng::seed_from(77);
    let generator = TaskGraphGenerator::default();
    let mut ctx = MapContext::all_free(mesh);
    // Randomly occupy a third of the mesh.
    for c in mesh.coords() {
        if rng.gen_bool(0.33) {
            ctx.set_free(c, false);
        }
    }
    let mapper = TestAwareMapper::default();
    for i in 0..20 {
        let app = generator.generate(&mut rng, format!("it{i}"));
        if let Some(m) = mapper.map(&ctx, &app) {
            for &c in m.coords() {
                assert!(ctx.is_free(c), "mapped onto occupied {c}");
            }
        }
    }
}

#[test]
fn scheduler_budget_loop_never_over_reserves() {
    let node = TechNode::N16;
    let library = RoutineLibrary::standard();
    let config = TestSchedulerConfig::default();
    let mut scheduler = TestScheduler::with_library(config, node, library, node.core_count());
    let mut budget = PowerBudget::new(10.0);
    let candidates: Vec<TestCandidate> = (0..64)
        .map(|core| TestCandidate {
            core,
            criticality: 1.0 + core as f64 * 0.01,
        })
        .collect();
    // Plan against the ledger's headroom, then actually reserve: every
    // planned launch must fit.
    let (mut launches, mut denials) = (Vec::new(), Vec::new());
    let headroom = budget.headroom();
    scheduler.plan_with_retests_into(
        &[],
        &candidates,
        None,
        headroom,
        &mut launches,
        &mut denials,
    );
    assert!(!launches.is_empty());
    for launch in &launches {
        budget
            .reserve(launch.power)
            .expect("scheduler must not overcommit the headroom it was given");
    }
    assert!(budget.reserved() <= budget.cap() + 1e-9);
}

#[test]
fn aging_chain_prioritizes_the_stressed_core() {
    let aging = AgingModel::default();
    let crit = CriticalityModel::default();
    let mut stress = StressTracker::new(4);
    // Core 2 runs hot (1.5 W, busy) for 100 epochs of 1 ms; others idle.
    for _ in 0..100 {
        let mut energy = [0.0, 0.0, 1.5e-3, 0.0];
        let mut busy = [0.0, 0.0, 1e-3, 0.0];
        stress.record_epoch_all(&aging, &mut energy, &mut busy, 0.001);
    }
    // Two target periods in, every core is past the threshold, so the
    // ranking, not the threshold, puts the hot core first.
    let now = 0.2;
    let candidates: Vec<TestCandidate> = (0..4)
        .map(|core| TestCandidate {
            core,
            criticality: crit.criticality(stress.core(core), now),
        })
        .collect();
    let mut scheduler = TestScheduler::with_library(
        TestSchedulerConfig::default(),
        TechNode::N16,
        RoutineLibrary::standard(),
        4,
    );
    let (mut launches, mut denials) = (Vec::new(), Vec::new());
    scheduler.plan_with_retests_into(&[], &candidates, None, 100.0, &mut launches, &mut denials);
    assert_eq!(launches.len(), 4);
    assert_eq!(launches[0].core, 2, "hot core must be tested first");
}

#[test]
fn power_model_and_ladder_agree_across_nodes() {
    for node in TechNode::ALL {
        let model = PowerModel::for_node(node);
        let ladder = VfLadder::for_node(node, 5);
        // Monotone power over the ladder at fixed activity.
        let powers: Vec<f64> = ladder.iter().map(|op| model.core_power(op, 0.5)).collect();
        assert!(powers.windows(2).all(|w| w[1] > w[0]), "{node}: {powers:?}");
        // Testing at nominal draws more than the typical workload.
        let nominal = ladder.point(VfLevel(4));
        let test = model.core_power(nominal, PowerModel::TEST_ACTIVITY);
        assert!(test > model.core_power(nominal, 0.5));
    }
}

#[test]
fn workload_mix_feeds_mappable_apps() {
    let mesh = Mesh2D::new(16, 16);
    let ctx = MapContext::all_free(mesh);
    let mut mix = WorkloadMix::standard();
    let mut rng = SimRng::seed_from(31337);
    let mapper = ConaMapper::new();
    for _ in 0..50 {
        let app = mix.sample(&mut rng);
        assert!(app.validate().is_ok());
        assert!(
            mapper.map(&ctx, &app).is_some(),
            "every standard-mix app fits an empty 16x16 mesh"
        );
    }
}
