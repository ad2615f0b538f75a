//! Property tests of the power substrate. Each property runs 96 cases
//! drawn from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_power::prelude::*;
use manytest_sim::SimRng;

fn random_node(rng: &mut SimRng) -> TechNode {
    TechNode::ALL[rng.gen_range(TechNode::ALL.len() as u64) as usize]
}

#[test]
fn ladder_is_monotone_for_any_size() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let node = random_node(&mut rng);
        let levels = 2 + rng.gen_range(10) as usize;
        let ladder = VfLadder::for_node(node, levels);
        assert_eq!(ladder.len(), levels, "seed {seed}");
        let points: Vec<OperatingPoint> = ladder.iter().collect();
        for w in points.windows(2) {
            assert!(w[1].voltage > w[0].voltage, "seed {seed}: {w:?}");
            assert!(w[1].frequency > w[0].frequency, "seed {seed}: {w:?}");
        }
        let p = node.params();
        assert!(
            (ladder.max().voltage - p.v_nominal).abs() < 1e-12,
            "seed {seed}"
        );
        assert!(
            (ladder.min().voltage - p.v_min).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

#[test]
fn power_model_is_positive_and_bounded() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let node = random_node(&mut rng);
        let level = rng.gen_range(5) as u8;
        let activity = rng.gen_f64_range(0.0, 1.0);
        let model = PowerModel::for_node(node);
        let op = VfLadder::for_node(node, 5).point(VfLevel(level));
        let p = model.core_power(op, activity);
        assert!(
            p > 0.0,
            "seed {seed}: leakage keeps powered cores above zero"
        );
        // No single core can draw more than the chip's peak-per-core.
        let peak = node.peak_power_all_cores() / node.core_count() as f64;
        assert!(p <= peak * (1.0 + 1e-9), "seed {seed}: {p} W over {peak} W");
    }
}

#[test]
fn budget_reserve_release_is_conservative() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let cap = rng.gen_f64_range(1.0, 500.0);
        let mut budget = PowerBudget::new(cap);
        let mut granted = Vec::new();
        for _ in 0..1 + rng.gen_range(39) {
            match budget.reserve(rng.gen_f64_range(0.0, 100.0)) {
                Ok(r) => granted.push(r),
                Err(e) => assert!(e.requested > e.available - 1e-9, "seed {seed}: {e:?}"),
            }
            assert!(budget.reserved() <= cap + 1e-9, "seed {seed}");
        }
        let total: f64 = granted.iter().map(|r| r.watts()).sum();
        assert!((budget.reserved() - total).abs() < 1e-6, "seed {seed}");
        for r in granted {
            budget.release(r);
        }
        assert!(budget.reserved().abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn pid_cap_is_always_within_clamp() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let target = rng.gen_f64_range(1.0, 200.0);
        let mut pid = PidController::default_tuning();
        for _ in 0..1 + rng.gen_range(99) {
            let cap = pid.next_cap(target, rng.gen_f64_range(0.0, 400.0));
            assert!(
                (0.2 * target - 1e-9..=1.25 * target + 1e-9).contains(&cap),
                "seed {seed}: cap {cap} for target {target}"
            );
        }
    }
}

#[test]
fn naive_policy_caps_are_two_valued() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let target = rng.gen_f64_range(1.0, 200.0);
        let mut naive = NaiveTdpPolicy::new();
        for _ in 0..1 + rng.gen_range(99) {
            let cap = naive.next_cap(target, rng.gen_f64_range(0.0, 400.0));
            let is_full = (cap - target).abs() < 1e-9;
            let is_throttled = (cap - 0.5 * target).abs() < 1e-9;
            assert!(
                is_full || is_throttled,
                "seed {seed}: cap {cap} for target {target}"
            );
        }
    }
}

#[test]
fn meter_shares_always_sum_to_one_or_zero() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut meter = PowerMeter::new();
        for _ in 0..rng.gen_range(50) {
            let cat = PowerCategory::ALL[rng.gen_range(4) as usize];
            let watts = rng.gen_f64_range(0.0, 100.0);
            meter.add(cat, watts, rng.gen_f64_range(0.0, 1.0));
        }
        let sum: f64 = PowerCategory::ALL
            .iter()
            .map(|&c| meter.total_share(c))
            .sum();
        if meter.total_energy_all() > 0.0 {
            assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: shares sum to {sum}");
        } else {
            assert_eq!(sum, 0.0, "seed {seed}");
        }
    }
}

#[test]
fn highest_under_is_the_supremum() {
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let node = random_node(&mut rng);
        let cap_scale = rng.gen_f64_range(0.0, 2.0);
        let model = PowerModel::for_node(node);
        let ladder = VfLadder::for_node(node, 5);
        let power_of = |op: OperatingPoint| model.core_power(op, 0.5);
        let cap = power_of(ladder.max()) * cap_scale;
        match ladder.highest_under(cap, power_of) {
            Some(op) => {
                assert!(power_of(op) <= cap, "seed {seed}");
                // No higher level also fits.
                if let Some(up) = ladder.step_up(op.level) {
                    assert!(
                        power_of(ladder.point(up)) > cap,
                        "seed {seed}: {up:?} fits too"
                    );
                }
            }
            None => assert!(
                power_of(ladder.min()) > cap,
                "seed {seed}: the lowest level fits"
            ),
        }
    }
}

#[test]
fn dark_fraction_matches_peak_and_tdp() {
    for seed in 0..96 {
        let node = random_node(&mut SimRng::seed_from(seed));
        let p = node.params();
        let frac = node.dark_silicon_fraction();
        let peak = node.peak_power_all_cores();
        if peak <= p.tdp {
            assert_eq!(frac, 0.0, "seed {seed}");
        } else {
            assert!(
                (frac - (1.0 - p.tdp / peak)).abs() < 1e-12,
                "seed {seed}: {node:?}"
            );
        }
    }
}
