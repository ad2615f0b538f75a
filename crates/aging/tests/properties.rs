//! Property tests of the aging/criticality substrate. Each property runs
//! 96 cases drawn from `SimRng::seed_from(seed)`; a failure names its seed.

use manytest_aging::prelude::*;
use manytest_sim::SimRng;

#[test]
fn damage_is_additive_over_time() {
    let m = AgingModel::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let power = rng.gen_f64_range(0.0, 3.0);
        let t1 = rng.gen_f64_range(0.0, 10.0);
        let t2 = rng.gen_f64_range(0.0, 10.0);
        let split = m.damage(power, t1) + m.damage(power, t2);
        let joined = m.damage(power, t1 + t2);
        assert!(
            (split - joined).abs() < 1e-9 * (1.0 + joined),
            "seed {seed}: split {split} vs joined {joined}"
        );
    }
}

#[test]
fn wear_rate_is_monotone_in_power() {
    let m = AgingModel::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let p1 = rng.gen_f64_range(0.0, 5.0);
        let p2 = rng.gen_f64_range(0.0, 5.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(
            m.wear_rate(lo) <= m.wear_rate(hi),
            "seed {seed}: {lo} W vs {hi} W"
        );
    }
}

#[test]
fn criticality_is_monotone_in_both_pressures() {
    let model = CriticalityModel::default();
    let stress = |damage: f64| CoreStress {
        total_damage: damage,
        damage_since_test: damage,
        utilization: 0.5,
        last_test_time: 0.0,
    };
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let d1 = rng.gen_f64_range(0.0, 10.0);
        let d2 = rng.gen_f64_range(0.0, 10.0);
        let t1 = rng.gen_f64_range(0.0, 10.0);
        let t2 = rng.gen_f64_range(0.0, 10.0);
        let (d_lo, d_hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (t_lo, t_hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        assert!(
            model.criticality(&stress(d_lo), 1.0) <= model.criticality(&stress(d_hi), 1.0),
            "seed {seed}: damage {d_lo} vs {d_hi}"
        );
        assert!(
            model.criticality(&stress(1.0), t_lo) <= model.criticality(&stress(1.0), t_hi),
            "seed {seed}: time {t_lo} vs {t_hi}"
        );
    }
}

#[test]
fn tracker_utilization_stays_in_unit_interval() {
    let aging = AgingModel::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let epochs = 1 + rng.gen_range(199);
        let mut tracker = StressTracker::new(1);
        for _ in 0..epochs {
            let power = rng.gen_f64_range(0.0, 2.0);
            let busy = rng.gen_f64_range(0.0, 1.0);
            let dt = 0.001;
            tracker.record_epoch_all(&aging, &mut [power * dt], &mut [busy * dt], dt);
            let u = tracker.core(0).utilization;
            assert!((0.0..=1.0).contains(&u), "seed {seed}: utilization {u}");
        }
    }
}

#[test]
fn damage_since_test_never_exceeds_total() {
    let aging = AgingModel::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let mut tracker = StressTracker::new(1);
        let mut t = 0.0;
        for _ in 0..1 + rng.gen_range(99) {
            let power = rng.gen_f64_range(0.0, 2.0);
            tracker.record_epoch_all(&aging, &mut [power * 0.001], &mut [0.001], 0.001);
            t += 0.001;
            if rng.gen_bool(0.5) {
                tracker.note_test_complete(0, t);
            }
            let c = tracker.core(0);
            assert!(
                (0.0..=c.total_damage + 1e-12).contains(&c.damage_since_test),
                "seed {seed}: {} since test of {} total",
                c.damage_since_test,
                c.total_damage
            );
        }
    }
}

#[test]
fn test_completion_resets_criticality_pressure() {
    let model = CriticalityModel::default();
    let aging = AgingModel::default();
    for seed in 0..96 {
        let mut rng = SimRng::seed_from(seed);
        let damage = rng.gen_f64_range(0.1, 10.0);
        let now = rng.gen_f64_range(0.1, 10.0);
        let mut tracker = StressTracker::new(1);
        // Build up damage proportional to the drawn value: 1 W, busy
        // throughout, for `damage` seconds.
        tracker.record_epoch_all(&aging, &mut [damage], &mut [damage], damage);
        let before = model.criticality(tracker.core(0), now);
        tracker.note_test_complete(0, now);
        let after = model.criticality(tracker.core(0), now);
        assert!(
            after < before,
            "seed {seed}: {after} after vs {before} before"
        );
        assert!(
            after.abs() < 1e-9,
            "seed {seed}: fresh test means zero pressure"
        );
    }
}

#[test]
fn temperature_is_physical() {
    let m = AgingModel::default();
    for seed in 0..96 {
        let power = SimRng::seed_from(seed).gen_f64_range(0.0, 10.0);
        let t = m.temperature(power);
        assert!(
            t >= m.t_ambient && t.is_finite(),
            "seed {seed}: {t} K at {power} W"
        );
        assert!(m.acceleration_at(t) > 0.0, "seed {seed}: {t} K");
    }
}
