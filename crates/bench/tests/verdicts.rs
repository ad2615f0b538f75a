//! The scheduler verdicts of EXPERIMENTS.md, asserted at quick scale.
//!
//! Each test checks the shape a verdict states, with a band wide enough
//! to survive model tuning but narrow enough to fail if the behaviour it
//! describes goes away.

use manytest_bench::{e4_test_interval_vs_load, e6_criticality_adaptation, Scale};

/// E4: test intervals degrade gracefully with load (≈ 1.6× from idle to
/// saturation) instead of collapsing, and every core keeps being tested
/// at every rate.
#[test]
fn e4_intervals_grow_gracefully_and_every_core_is_tested() {
    let rows = e4_test_interval_vs_load(Scale::Quick, 2);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    assert!(first.rate < last.rate);
    let growth = last.mean_interval / first.mean_interval;
    assert!(
        (1.2..=2.5).contains(&growth),
        "mean interval grew {growth:.2}x from {} to {} apps/s",
        first.rate,
        last.rate
    );
    for r in &rows {
        assert!(
            r.min_tests >= 1,
            "a core went untested at {} apps/s",
            r.rate
        );
    }
}

/// E6: the stress term steers test effort toward worn cores, so the
/// damage-quintile means rise strictly and tests correlate with damage.
#[test]
fn e6_tests_follow_stress() {
    let a = e6_criticality_adaptation(Scale::Quick, 1);
    let q = &a.tests_by_damage_quintile;
    assert_eq!(q.len(), 5);
    assert!(
        q.windows(2).all(|w| w[0] < w[1]),
        "quintile means not strictly increasing: {q:?}"
    );
    assert!(
        a.correlation > 0.3,
        "r(damage, tests) = {:.3}",
        a.correlation
    );
}
