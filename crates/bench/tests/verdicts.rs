//! The scheduler, mapping, dark-silicon, lifetime and fault-response
//! verdicts of EXPERIMENTS.md, asserted at quick scale.
//!
//! Each test checks the shape a verdict states, with a band wide enough
//! to survive model tuning but narrow enough to fail if the behaviour it
//! describes goes away.

use manytest_bench::{
    e10_lifetime, e11_fault_response, e12_core_lifecycle, e2_power_trace, e3_test_power_share,
    e4_test_interval_vs_load, e5_mapping_compare, e6_criticality_adaptation, e7_vf_coverage,
    e8_pid_vs_naive, e9_dark_silicon, Scale,
};
use manytest_core::{FaultResponsePolicy, GovernorKind, MapperKind};

/// E2: reservation-based admission keeps the chip under its TDP while
/// tests draw power: no epoch above the TDP, the peak at most the TDP,
/// and test power in at least one sample. Reservations are taken at
/// projected power, so the peak also keeps a margin below the TDP
/// (60.3 W of 80 W today); admitting without reservations at this load
/// leaves it at 78 W, still under the TDP itself.
#[test]
fn e2_power_stays_under_the_tdp() {
    let t = e2_power_trace(Scale::Quick, 1);
    assert_eq!(t.violations, 0, "epochs above the {} W TDP", t.tdp);
    assert!(
        t.peak <= t.tdp,
        "peak {} W above the {} W TDP",
        t.peak,
        t.tdp
    );
    assert!(
        t.peak <= 0.85 * t.tdp,
        "peak {} W leaves under 15 % of the {} W TDP",
        t.peak,
        t.tdp
    );
    assert!(
        t.samples.iter().any(|&(_, _, test_w, _, _)| test_w > 0.0),
        "no sample drew test power"
    );
}

/// E3: testing takes a small share of consumed energy at realistic load.
/// Every rate completes tests, the share falls from 250 to 2000 apps/s
/// (11.19 → 6.35 → 3.46 → 0.77 % today; 4000 apps/s reads 0.79 %), and
/// from 1000 apps/s up it sits in 0.5–4 %, a band that the full-scale
/// run (3.36 / 0.92 / 1.32 %) also meets.
#[test]
fn e3_test_share_falls_with_load_into_a_low_band() {
    let rows = e3_test_power_share(Scale::Quick, 1);
    let rates: Vec<f64> = rows.iter().map(|r| r.rate).collect();
    assert_eq!(rates, [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0]);
    for r in &rows {
        assert!(r.tests > 0, "no tests completed at {} apps/s", r.rate);
    }
    let shares: Vec<f64> = rows.iter().map(|r| r.test_share * 100.0).collect();
    assert!(
        shares[..4].windows(2).all(|w| w[1] < w[0]),
        "share does not fall from 250 to 2000 apps/s: {shares:?} %"
    );
    for r in rows.iter().filter(|r| r.rate >= 1_000.0) {
        assert!(
            (0.005..=0.04).contains(&r.test_share),
            "share {:.2} % at {} apps/s is outside 0.5-4 %",
            r.test_share * 100.0,
            r.rate
        );
    }
}

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

/// E5: contiguity (CoNA vs first-fit) cuts the hop cost by about 43 %
/// and leaves no core untested, and test awareness (TUM) bounds the
/// worst-case test interval best of the three mappers.
#[test]
fn e5_contiguity_cuts_hops_and_tum_bounds_staleness() {
    let sides = e5_mapping_compare(Scale::Quick, 2);
    let [first_fit, cona, tum] = &sides[..] else {
        panic!("expected three mappers, got {}", sides.len());
    };
    assert_eq!(
        [first_fit.mapper, cona.mapper, tum.mapper],
        [
            MapperKind::FirstFit,
            MapperKind::Baseline,
            MapperKind::TestAware
        ]
    );
    assert!(
        cona.hop_cost <= 0.75 * first_fit.hop_cost,
        "CoNA hop cost {:.3e} vs first-fit {:.3e}",
        cona.hop_cost,
        first_fit.hop_cost
    );
    for side in [cona, tum] {
        assert!(
            side.min_tests >= 1.0,
            "{:?} left a core untested ({} min tests)",
            side.mapper,
            side.min_tests
        );
    }
    assert!(
        tum.max_interval < cona.max_interval && tum.max_interval < first_fit.max_interval,
        "max test interval: TUM {:.1} ms, CoNA {:.1} ms, first-fit {:.1} ms",
        tum.max_interval * 1e3,
        cona.max_interval * 1e3,
        first_fit.max_interval * 1e3
    );
}

/// E7: the staggered least-tested-level rotation spreads tests evenly over
/// the DVFS ladder: every level is tested, and the per-level counts differ
/// by at most one (256/255/256/256/256 today). A pick that ignores the
/// counts, such as pinning each core to level `core % 5`, reads
/// 260/255/255/255/255 and fails.
#[test]
fn e7_tests_spread_evenly_over_levels() {
    let c = e7_vf_coverage(Scale::Quick, 1);
    let per_level = &c.tests_per_level;
    assert_eq!(per_level.len(), 5);
    let (Some(&least), Some(&most)) = (per_level.iter().min(), per_level.iter().max()) else {
        panic!("no levels");
    };
    assert!(least > 0, "an untested level: {per_level:?}");
    assert!(most - least <= 1, "uneven levels: {per_level:?}");
}

/// E8: under saturating demand the PID governor beats the naive
/// bang-bang policy on throughput (140,110 vs 126,069 MIPS) and on
/// completed tests (479 vs 248), and no governor breaks the TDP.
#[test]
fn e8_pid_beats_naive() {
    let rows = e8_pid_vs_naive(Scale::Quick, 2);
    assert_eq!(rows.len(), 3);
    let row = |g: GovernorKind| {
        rows.iter()
            .find(|r| r.governor == g)
            .unwrap_or_else(|| panic!("{g:?} runs"))
    };
    let (pid, naive) = (row(GovernorKind::Pid), row(GovernorKind::Naive));
    assert!(
        pid.mips > naive.mips,
        "PID {:.0} MIPS vs naive {:.0}",
        pid.mips,
        naive.mips
    );
    assert!(
        pid.tests > naive.tests,
        "PID {} tests vs naive {}",
        pid.tests,
        naive.tests
    );
    for r in &rows {
        assert_eq!(r.violations, 0, "{:?} broke the TDP", r.governor);
    }
}

/// E11: every quarantining policy isolates the faulty cores and cuts the
/// corruption exposure of `ignore` by at least 60 % for at most 6 % of
/// its throughput.
#[test]
fn e11_quarantine_cuts_exposure_at_small_throughput_cost() {
    let rows = e11_fault_response(Scale::Quick, 2);
    let ignore = rows
        .iter()
        .find(|r| r.policy == FaultResponsePolicy::Ignore)
        .expect("the ignore baseline runs");
    assert!(ignore.exposure > 0.0, "no exposure to cut: {ignore:?}");
    let quarantining: Vec<_> = rows.iter().filter(|r| r.policy != ignore.policy).collect();
    assert_eq!(quarantining.len(), 3);
    for r in quarantining {
        let cut = 1.0 - r.exposure / ignore.exposure;
        let cost = 1.0 - r.mips / ignore.mips;
        assert!(
            r.quarantined >= 1.0,
            "{} quarantined nothing",
            r.policy.as_str()
        );
        assert!(
            cut >= 0.60,
            "{} cut exposure by {:.1} %",
            r.policy.as_str(),
            cut * 100.0
        );
        assert!(
            cost <= 0.06,
            "{} cost {:.1} % throughput",
            r.policy.as_str(),
            cost * 100.0
        );
    }
}

/// E9: at fixed area and TDP the dark fraction rises with every node
/// (12.2 → 25.6 → 50.6 → 59.2 % today), peak demand exceeds the TDP at
/// every node, and the saturated chip's mean power stays under the TDP
/// (16.0–56.9 W of 80 W).
#[test]
fn e9_dark_fraction_rises_with_every_node() {
    let rows = e9_dark_silicon(Scale::Quick, 2);
    assert_eq!(rows.len(), 4);
    for pair in rows.windows(2) {
        assert!(
            pair[0].dark_fraction < pair[1].dark_fraction,
            "dark fraction {:.3} at {} vs {:.3} at {}",
            pair[0].dark_fraction,
            pair[0].node,
            pair[1].dark_fraction,
            pair[1].node
        );
    }
    for r in &rows {
        assert!(
            r.peak_demand > r.tdp,
            "{}: demand {} W fits the TDP",
            r.node,
            r.peak_demand
        );
        assert!(
            r.measured_mean > 0.0 && r.measured_mean < r.tdp,
            "{}: saturated mean {} W vs the {} W TDP",
            r.node,
            r.measured_mean,
            r.tdp
        );
    }
}

/// E10: TUM steers work away from recently busy cores and cores overdue
/// for a test, which levels wear: the most worn core ages more slowly than
/// under the baseline (0.6506 vs 0.6591 damage/s today, a +1.3 %
/// weakest-link lifetime gain) and the damage spread narrows (5.4 → 3.9 %).
#[test]
fn e10_tum_levels_wear_and_extends_weakest_link_life() {
    let l = e10_lifetime(Scale::Quick, 2);
    assert!(
        l.tum_worst_rate < l.baseline_worst_rate,
        "worst core wears at {:.4}/s under TUM vs {:.4}/s under the baseline",
        l.tum_worst_rate,
        l.baseline_worst_rate
    );
    assert!(
        l.tum_spread < l.baseline_spread,
        "damage spread {:.1} % under TUM vs {:.1} % under the baseline",
        l.tum_spread * 100.0,
        l.baseline_spread * 100.0
    );
}

/// E12: with every fault intermittent and cooling, the re-admission lane
/// restores all 144 cores at every checkpoint cadence and re-admits every
/// core it quarantined, while terminal quarantine ends below 144 (138–139
/// today). The 2-ms cadence checkpoints every running app each other
/// epoch, so its row also depends on the checkpoint walk's order.
#[test]
fn e12_lane_restores_every_core() {
    let rows = e12_core_lifecycle(Scale::Quick, 2);
    assert_eq!(rows.len(), 6);
    for r in &rows {
        match r.lane_us {
            Some(_) => {
                assert_eq!(
                    r.healthy_end, 144.0,
                    "lane on, checkpoint {} us: {r:?}",
                    r.checkpoint_us
                );
                assert_eq!(r.readmitted, r.quarantined, "lane on: {r:?}");
                assert!(r.quarantined > 0.0, "nothing to restore: {r:?}");
            }
            None => assert!(r.healthy_end < 144.0, "lane off restored every core: {r:?}"),
        }
    }
    assert!(rows
        .iter()
        .any(|r| r.checkpoint_us == 2_000 && r.checkpoints > 0.0));
}
