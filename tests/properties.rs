//! Property tests over the core data structures and invariants, spanning
//! crates through the facade. Each property runs 96 cases drawn from
//! `SimRng::seed_from(seed)`; a failure names its seed.

use manytest::noc::{xy_route, Coord, Mesh2D, Region, RegionSearch};
use manytest::power::{PowerBudget, PowerModel, TechNode, VfLadder, VfLevel};
use manytest::sim::{Duration, OnlineStats, SimRng, SimTime};
use manytest::workload::TaskGraphGenerator;

/// A draw from `lo..hi`.
fn draw_u16(rng: &mut SimRng, lo: u16, hi: u16) -> u16 {
    lo + rng.gen_range(u64::from(hi - lo)) as u16
}

// ---- NoC routing -----------------------------------------------------

#[test]
fn xy_routes_are_minimal_connected_and_inside() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let (w, h) = (draw_u16(&mut rng, 1, 20), draw_u16(&mut rng, 1, 20));
        let mesh = Mesh2D::new(w, h);
        let src = Coord::new(draw_u16(&mut rng, 0, 20) % w, draw_u16(&mut rng, 0, 20) % h);
        let dst = Coord::new(draw_u16(&mut rng, 0, 20) % w, draw_u16(&mut rng, 0, 20) % h);
        let mut at = src;
        let mut hops = 0;
        for hop in xy_route(src, dst) {
            assert_eq!(hop.from, at, "seed {seed}");
            at = hop.to();
            assert!(mesh.contains(at), "seed {seed}: {at} off the mesh");
            hops += 1;
        }
        assert_eq!(at, dst, "seed {seed}");
        assert_eq!(hops, src.manhattan(dst), "seed {seed}");
    }
}

#[test]
fn manhattan_is_a_metric() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut coord = || Coord::new(draw_u16(&mut rng, 0, 32), draw_u16(&mut rng, 0, 32));
        let (a, b, c) = (coord(), coord(), coord());
        assert_eq!(a.manhattan(b), b.manhattan(a), "seed {seed}");
        assert_eq!(a.manhattan(a), 0, "seed {seed}");
        assert!(
            a.manhattan(c) <= a.manhattan(b) + b.manhattan(c),
            "seed {seed}"
        );
    }
}

// ---- Region search ---------------------------------------------------

#[test]
fn region_search_finds_enough_free_nodes() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mesh = Mesh2D::new(draw_u16(&mut rng, 2, 10), draw_u16(&mut rng, 2, 10));
        let required = 1 + rng.gen_range(19) as usize;
        let mask: Vec<bool> = (0..100).map(|_| rng.gen_bool(0.5)).collect();
        let is_free = |c: Coord| mask[mesh.node_id(c).index() % mask.len()];
        let total_free = mesh.coords().filter(|&c| is_free(c)).count();
        match RegionSearch::new(mesh).find(required, is_free, |_| 0.0) {
            Some(choice) => {
                assert!(
                    total_free >= required,
                    "seed {seed}: found a region in {total_free}"
                );
                let in_region = choice.region.iter(mesh).filter(|&c| is_free(c)).count();
                assert!(
                    in_region >= required,
                    "seed {seed}: {in_region} free in region"
                );
                assert_eq!(in_region, choice.available, "seed {seed}");
            }
            None => assert!(
                total_free < required,
                "seed {seed}: {total_free} free, none found"
            ),
        }
    }
}

#[test]
fn regions_clip_to_mesh() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let (w, h) = (draw_u16(&mut rng, 1, 12), draw_u16(&mut rng, 1, 12));
        let mesh = Mesh2D::new(w, h);
        let centre = Coord::new(draw_u16(&mut rng, 0, 12) % w, draw_u16(&mut rng, 0, 12) % h);
        let region = Region::new(centre, draw_u16(&mut rng, 0, 12));
        for c in region.iter(mesh) {
            assert!(mesh.contains(c), "seed {seed}: {c} off the mesh");
        }
        assert!(region.len(mesh) <= mesh.node_count(), "seed {seed}");
    }
}

// ---- Power budget ----------------------------------------------------

#[test]
fn budget_never_exceeds_cap_under_arbitrary_ops() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut budget = PowerBudget::new(rng.gen_f64_range(0.0, 200.0));
        let mut live = Vec::new();
        for _ in 0..1 + rng.gen_range(59) {
            let release = rng.gen_bool(0.5);
            let watts = rng.gen_f64_range(0.0, 50.0);
            if release && !live.is_empty() {
                budget.release(live.remove(0));
            } else if let Ok(r) = budget.reserve(watts) {
                live.push(r);
            }
            assert!(budget.reserved() <= budget.cap() + 1e-9, "seed {seed}");
            let manual: f64 = live.iter().map(|r| r.watts()).sum();
            assert!((budget.reserved() - manual).abs() < 1e-6, "seed {seed}");
        }
    }
}

// ---- Power model -----------------------------------------------------

#[test]
fn power_is_monotone_in_level_and_activity() {
    let model = PowerModel::for_node(TechNode::N16);
    let ladder = VfLadder::for_node(TechNode::N16, 5);
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let level_a = rng.gen_range(5) as u8;
        let level_b = rng.gen_range(5) as u8;
        let act_a = rng.gen_f64_range(0.0, 1.0);
        let act_b = rng.gen_f64_range(0.0, 1.0);
        let (lo, hi) = (level_a.min(level_b), level_a.max(level_b));
        let p_lo = model.core_power(ladder.point(VfLevel(lo)), 0.5);
        let p_hi = model.core_power(ladder.point(VfLevel(hi)), 0.5);
        assert!(p_lo <= p_hi, "seed {seed}: levels {lo} and {hi}");
        let (alo, ahi) = (act_a.min(act_b), act_a.max(act_b));
        let q_lo = model.core_power(ladder.max(), alo);
        let q_hi = model.core_power(ladder.max(), ahi);
        assert!(q_lo <= q_hi, "seed {seed}: activities {alo} and {ahi}");
    }
}

// ---- Task graph generator ---------------------------------------------

#[test]
fn generated_graphs_always_validate() {
    let generator = TaskGraphGenerator::default();
    for seed in 0..96 {
        let g = generator.generate(&mut SimRng::seed_from(seed), "prop");
        assert!(g.validate().is_ok(), "seed {seed}");
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), g.task_count(), "seed {seed}");
    }
}

// ---- RNG --------------------------------------------------------------

#[test]
fn rng_ranges_are_respected() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let bound = 1 + rng.gen_range(999_999);
        for _ in 0..100 {
            assert!(rng.gen_range(bound) < bound, "seed {seed}: bound {bound}");
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "seed {seed}: {f}");
        }
    }
}

#[test]
fn rng_derive_is_pure() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let len = 1 + rng.gen_range(12);
        let label: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(26) as u8))
            .collect();
        let mut a = rng.derive(&label);
        let mut b = rng.derive(&label);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}: label {label}");
        }
    }
}

// ---- Time arithmetic ---------------------------------------------------

#[test]
fn time_addition_is_consistent() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let t = SimTime::from_ns(rng.gen_range(1 << 40));
        let a = Duration::from_ns(rng.gen_range(1 << 20));
        let b = Duration::from_ns(rng.gen_range(1 << 20));
        assert_eq!((t + a) + b, (t + b) + a, "seed {seed}");
        assert_eq!((t + a) - t, a + Duration::ZERO, "seed {seed}");
        assert!((t + a).since(t) == a, "seed {seed}");
    }
}

// ---- Statistics ---------------------------------------------------------

#[test]
fn online_stats_match_naive_computation() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let xs: Vec<f64> = (0..1 + rng.gen_range(199))
            .map(|_| rng.gen_f64_range(-1e6, 1e6))
            .collect();
        let mut stats = OnlineStats::new();
        for &x in &xs {
            stats.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let (min, max) = xs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        assert!(
            (stats.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "seed {seed}"
        );
        assert!(
            (stats.variance() - var).abs() < 1e-4 * (1.0 + var),
            "seed {seed}"
        );
        assert_eq!(stats.min(), Some(min), "seed {seed}");
        assert_eq!(stats.max(), Some(max), "seed {seed}");
    }
}
