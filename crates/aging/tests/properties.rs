//! Property tests of the aging/criticality substrate.

use manytest_aging::prelude::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn damage_is_additive_over_time(power in 0.0f64..3.0, t1 in 0.0f64..10.0, t2 in 0.0f64..10.0) {
        let m = AgingModel::default();
        let split = m.damage(power, t1) + m.damage(power, t2);
        let joined = m.damage(power, t1 + t2);
        prop_assert!((split - joined).abs() < 1e-9 * (1.0 + joined));
    }

    #[test]
    fn wear_rate_is_monotone_in_power(p1 in 0.0f64..5.0, p2 in 0.0f64..5.0) {
        let m = AgingModel::default();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(m.wear_rate(lo) <= m.wear_rate(hi));
    }

    #[test]
    fn criticality_is_monotone_in_both_pressures(
        d1 in 0.0f64..10.0, d2 in 0.0f64..10.0,
        t1 in 0.0f64..10.0, t2 in 0.0f64..10.0,
    ) {
        let model = CriticalityModel::default();
        let (d_lo, d_hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (t_lo, t_hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let stress = |damage: f64| CoreStress {
            total_damage: damage,
            damage_since_test: damage,
            utilization: 0.5,
            last_test_time: 0.0,
            recoverable_damage: 0.0,
        };
        prop_assert!(
            model.criticality(&stress(d_lo), 1.0) <= model.criticality(&stress(d_hi), 1.0)
        );
        prop_assert!(
            model.criticality(&stress(1.0), t_lo) <= model.criticality(&stress(1.0), t_hi)
        );
    }

    #[test]
    fn tracker_utilization_stays_in_unit_interval(
        epochs in prop::collection::vec((0.0f64..2.0, 0.0f64..1.0), 1..200),
        alpha in 0.01f64..1.0,
    ) {
        let aging = AgingModel::default();
        let mut tracker = StressTracker::new(1, alpha);
        for &(power, busy) in &epochs {
            tracker.record_epoch(0, &aging, power, busy, 0.001);
            let u = tracker.core(0).utilization;
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn damage_since_test_never_exceeds_total(
        epochs in prop::collection::vec((0.0f64..2.0, any::<bool>()), 1..100),
    ) {
        let aging = AgingModel::default();
        let mut tracker = StressTracker::new(1, 0.2);
        let mut t = 0.0;
        for &(power, test_now) in &epochs {
            tracker.record_epoch(0, &aging, power, 1.0, 0.001);
            t += 0.001;
            if test_now {
                tracker.note_test_complete(0, t);
            }
            let c = tracker.core(0);
            prop_assert!(c.damage_since_test <= c.total_damage + 1e-12);
            prop_assert!(c.damage_since_test >= 0.0);
        }
    }

    #[test]
    fn test_completion_resets_criticality_pressure(
        damage in 0.1f64..10.0,
        now in 0.1f64..10.0,
    ) {
        let model = CriticalityModel::default();
        let mut tracker = StressTracker::new(1, 0.2);
        let aging = AgingModel::default();
        // Build up damage proportional to the drawn value.
        tracker.record_epoch(0, &aging, 1.0, 1.0, damage);
        let before = model.criticality(tracker.core(0), now);
        tracker.note_test_complete(0, now);
        let after = model.criticality(tracker.core(0), now);
        prop_assert!(after < before);
        prop_assert!(after.abs() < 1e-9, "fresh test means zero pressure");
    }

    #[test]
    fn temperature_is_physical(power in 0.0f64..10.0) {
        let m = AgingModel::default();
        let t = m.temperature(power);
        prop_assert!(t >= m.t_ambient);
        prop_assert!(t.is_finite());
        prop_assert!(m.acceleration_at(t) > 0.0);
    }
}
