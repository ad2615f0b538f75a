//! Config-space fuzz: random `SystemBuilder` configurations either fail
//! to build with a `BuildError` or run to the horizon without panicking
//! and with a clean event audit.
//!
//! The draws cover mesh edges 0–24, invalid and extreme arrival rates,
//! fault counts up to 10,000, probe and checkpoint cadences up to
//! `u64::MAX` microseconds, DVFS ladders of 0–7 levels, and every
//! policy, governor and mapper, at millisecond horizons. Fault-heavy
//! draws quarantine, restart, migrate, checkpoint and re-admit, so the
//! fuzz also drives the running-app table, the power ledger and the
//! fault index through those lanes.

use manytest_core::prelude::*;
use manytest_sbst::TestSchedulerConfig;
use manytest_sim::SimRng;

/// One of a few edge values, else a uniform draw below `bound`.
fn edgy_u64(rng: &mut SimRng, edges: &[u64], bound: u64) -> u64 {
    if rng.gen_bool(0.3) {
        edges[rng.gen_range(edges.len() as u64) as usize]
    } else {
        rng.gen_range(bound)
    }
}

/// A fraction that is valid most of the time and sometimes out of range.
fn fraction(rng: &mut SimRng) -> f64 {
    match rng.gen_range(48) {
        0 => f64::NAN,
        1 => 1.5,
        2..=11 => 0.0,
        12..=15 => 1.0,
        _ => rng.next_f64(),
    }
}

fn arrival_rate(rng: &mut SimRng) -> f64 {
    match rng.gen_range(24) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => 1e-300,
        // Log-uniform over 10–100,000 apps/s.
        _ => 10f64.powf(rng.gen_f64_range(1.0, 5.0)),
    }
}

fn random_builder(rng: &mut SimRng) -> SystemBuilder {
    let node = TechNode::ALL[rng.gen_range(TechNode::ALL.len() as u64) as usize];
    let governor = [
        GovernorKind::Pid,
        GovernorKind::Naive,
        GovernorKind::FixedTdp,
    ][rng.gen_range(3) as usize];
    let mapper = [
        MapperKind::Baseline,
        MapperKind::TestAware,
        MapperKind::FirstFit,
    ][rng.gen_range(3) as usize];
    let policy = [
        FaultResponsePolicy::Ignore,
        FaultResponsePolicy::Abort,
        FaultResponsePolicy::RestartElsewhere,
        FaultResponsePolicy::MigrateRegion,
    ][rng.gen_range(4) as usize];
    let big_us = [
        0,
        1,
        1_000,
        u64::MAX / 1_000,
        u64::MAX / 1_000 + 1,
        u64::MAX,
    ];
    let mut b = SystemBuilder::new(node)
        .seed(rng.next_u64())
        .mesh_edge(rng.gen_range_inclusive(0, 24) as u16)
        .arrival_rate(arrival_rate(rng))
        .sim_time_ms(rng.gen_range_inclusive(0, 30))
        .testing(rng.gen_bool(0.85))
        .governor(governor)
        .mapper(mapper)
        .fault_response(policy)
        .injected_faults(edgy_u64(rng, &[0, 1, 10_000], 64) as usize)
        .vf_windowed_faults(fraction(rng))
        .intermittent_faults(fraction(rng))
        .intermittent_cooldown(fraction(rng))
        .test_false_positives(fraction(rng))
        .checkpoint_interval_us(edgy_u64(rng, &big_us, 3_000))
        .model_contention(rng.gen_bool(0.3))
        .transient_thermal(rng.gen_bool(0.2))
        .intrusive_testing(rng.gen_bool(0.1))
        .capture_events(1 << 20);
    if rng.gen_bool(0.5) {
        b = b.probe_cadence_us(edgy_u64(rng, &big_us, 3_000));
    }
    // A low threshold tests every idle core at once, so short runs reach
    // the detection, quarantine and re-admission lanes.
    let threshold = match rng.gen_range(24) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2..=11 => 0.5,
        _ => rng.gen_f64_range(-1.0, 0.1),
    };
    b.test_scheduler(TestSchedulerConfig {
        criticality_threshold: threshold,
        max_launches_per_epoch: edgy_u64(rng, &[0, 1, u64::MAX], 128) as usize,
        fixed_level: rng.gen_bool(0.2).then(|| rng.gen_range(6) as u8),
        ladder_levels: rng.gen_bool(0.2).then(|| rng.gen_range(8) as usize).unwrap_or(5),
        ..TestSchedulerConfig::default()
    })
}

#[test]
fn random_configs_build_or_run_with_a_clean_audit() {
    let mut rng = SimRng::seed_from(0xc0f1_65ac);
    let (mut built, mut rejected) = (0, 0);
    let mut lanes = [0u64; 5];
    for i in 0..200 {
        let builder = random_builder(&mut rng);
        let config = format!("config {i}: {:?}", builder.config());
        let system = match builder.build() {
            Ok(system) => system,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        built += 1;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| system.run()));
        let report = run.unwrap_or_else(|_| panic!("{config}\nrun panicked"));
        if let Err(violations) = validate_events(&report) {
            panic!("{config}\naudit failed:\n{violations}");
        }
        for (total, n) in lanes.iter_mut().zip([
            report.cores_quarantined,
            report.apps_restarted,
            report.apps_migrated,
            report.apps_checkpointed,
            report.cores_readmitted,
        ]) {
            *total += n;
        }
    }
    assert!(
        built >= 40 && rejected >= 20,
        "built {built}, rejected {rejected}"
    );
    assert!(
        lanes.iter().all(|&n| n > 0),
        "quarantines, restarts, migrations, checkpoints, re-admissions: {lanes:?}"
    );
}

/// A solid fault fails every probation round, and with a zero cadence a
/// quarantined core is re-probed at once, so in 400 ms one core fails
/// more than 64 rounds. The backoff exponent keeps counting past 64,
/// where a `u64` shift of the cadence multiplier would overflow, while
/// the multiplier itself saturates at the lane's backoff cap.
#[test]
fn backoff_past_64_failed_probation_rounds_runs_clean() {
    let report = SystemBuilder::new(TechNode::N16)
        .mesh_edge(2)
        .seed(3)
        .sim_time_ms(400)
        .arrival_rate(10.0)
        .injected_faults(4)
        .fault_response(FaultResponsePolicy::Abort)
        .probe_cadence_us(0)
        .capture_events(1 << 20)
        .test_scheduler(TestSchedulerConfig {
            criticality_threshold: -1.0,
            ..TestSchedulerConfig::default()
        })
        .build()
        .expect("valid config")
        .run();
    validate_events(&report).expect("run audits clean");
    let most_rounds = report
        .events
        .events()
        .iter()
        .filter_map(|r| match r.ev {
            SimEvent::CoreRequarantined { backoff, .. } => Some(backoff),
            _ => None,
        })
        .max();
    assert!(
        most_rounds > Some(64),
        "some core must fail more than 64 probation rounds, got {most_rounds:?}"
    );
}
