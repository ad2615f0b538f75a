//! End-to-end guarantees of the run-report pipeline: the HTML and
//! Prometheus files are byte-identical across reruns and worker counts,
//! the flight recording reconciles with the report aggregates, and the
//! wall-clock phase timer never leaks into the deterministic outputs.

use manytest_bench::report::{
    render_html, render_prometheus, report_builder, run_report_probe_timed, write_report_files,
    METRIC_KEYS, REPORT_SNAPSHOT_CAPACITY,
};
use manytest_bench::runner::run_system;
use manytest_bench::Scale;
use manytest_core::prelude::*;

/// Two independent report generations must produce the same bytes — the
/// renderer consumes only the deterministic report, and the report is
/// reproducible. CI additionally diffs the output of two `repro report`
/// reruns at the binary level.
#[test]
fn report_files_are_byte_identical_across_runs() {
    let dir = std::env::temp_dir().join(format!("manytest-report-{}", std::process::id()));
    let (a_dir, b_dir) = (dir.join("a"), dir.join("b"));
    let (a, _) = run_report_probe_timed("e11", Scale::Quick).expect("known id");
    let (b, _) = run_report_probe_timed("e11", Scale::Quick).expect("known id");
    write_report_files(&a_dir, "e11", &a).expect("first report");
    write_report_files(&b_dir, "e11", &b).expect("second report");
    for name in ["e11.html", "metrics.prom"] {
        let left = std::fs::read(a_dir.join(name)).expect("first file");
        let right = std::fs::read(b_dir.join(name)).expect("second file");
        assert!(!left.is_empty(), "{name} is empty");
        assert_eq!(left, right, "{name} differs between two identical runs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Installing the wall-clock phase timer must not change the simulation
/// or its rendered report by a single byte: wall time is observed, never
/// recorded.
#[test]
fn wall_phase_timer_does_not_perturb_the_report() {
    let plain = run_system(report_builder("e3", Scale::Quick).expect("known id"));
    let (timed, wall) = run_report_probe_timed("e3", Scale::Quick).expect("known id");
    assert_eq!(plain, timed, "the phase timer must be a pure observer");
    assert_eq!(render_html("e3", &plain), render_html("e3", &timed));
    assert_eq!(render_prometheus("e3", &plain), render_prometheus("e3", &timed));
    assert!(
        wall.iter().sum::<f64>() > 0.0,
        "the timer must have measured something"
    );
}

/// The flight recording carried on the report must reconcile with the
/// aggregates and respect its configured bound.
#[test]
fn flight_recording_reconciles_and_respects_its_bound() {
    let (report, _) = run_report_probe_timed("e11", Scale::Quick).expect("known id");
    validate_events(&report).expect("audit reconciles profile, state and events");
    assert!(!report.state.is_empty(), "report probes must record state");
    assert!(
        report.state.snapshots().len() <= REPORT_SNAPSHOT_CAPACITY,
        "recorder exceeded its ring capacity"
    );
    assert_eq!(
        report.state.seen(),
        report.profile.epochs,
        "one snapshot offered per epoch"
    );
    let last = report.state.last().expect("final snapshot retained");
    assert_eq!(u64::from(last.pending_apps), report.apps_pending);
    assert_eq!(u64::from(last.active_tests), report.tests_in_flight);
}

/// Every metric named in `METRIC_KEYS` is present in the exposition with
/// the probe label, and nothing undeclared sneaks in.
#[test]
fn prometheus_file_matches_the_declared_schema() {
    let (report, _) = run_report_probe_timed("e3", Scale::Quick).expect("known id");
    let text = render_prometheus("e3", &report);
    let mut sample_lines = 0;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        sample_lines += 1;
        let name = line.split('{').next().unwrap_or_default();
        assert!(METRIC_KEYS.contains(&name), "undeclared metric `{name}`");
        assert!(
            line.contains("{probe=\"e3\"}"),
            "sample is missing the probe label: {line}"
        );
    }
    assert_eq!(sample_lines, METRIC_KEYS.len(), "one sample per declared metric");
}
