//! End-to-end guarantees of the decision-telemetry pipeline: the JSONL
//! dumps are byte-identical for any worker count, the per-kind counts
//! reconcile exactly with the report aggregates, and `explain` renders a
//! usable timeline.

use manytest_bench::events::{capture_events, explain, run_probe, write_event_logs};
use manytest_bench::Scale;
use manytest_core::prelude::*;

/// Same seeds, different worker counts → byte-identical telemetry. This
/// is the observability extension of the suite's determinism contract:
/// parallelism must not reorder, drop or reformat a single event.
#[test]
fn event_logs_are_byte_identical_across_worker_counts() {
    let ids = ["e3", "e5", "e11"];
    let dir = std::env::temp_dir().join(format!("manytest-events-{}", std::process::id()));
    let serial_dir = dir.join("serial");
    let parallel_dir = dir.join("parallel");
    write_event_logs(&serial_dir, &ids, Scale::Quick, 1).expect("serial dump");
    write_event_logs(&parallel_dir, &ids, Scale::Quick, 4).expect("parallel dump");
    for id in ids {
        let serial = std::fs::read(serial_dir.join(format!("{id}.jsonl"))).expect("serial file");
        let parallel =
            std::fs::read(parallel_dir.join(format!("{id}.jsonl"))).expect("parallel file");
        assert!(!serial.is_empty(), "probe {id} produced no events");
        assert_eq!(
            serial, parallel,
            "probe {id}: JSONL differs between jobs=1 and jobs=4"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every probe's event counts must reconcile with its report, and the
/// JSONL text must round-trip to the same per-kind counts the in-memory
/// log carries.
#[test]
fn event_counts_reconcile_with_reports_and_jsonl() {
    for (id, report) in capture_events(&["e3", "e9", "e11"], Scale::Quick, 2) {
        validate_events(&report).unwrap_or_else(|e| panic!("probe {id}: {e}"));
        assert_eq!(report.events.dropped(), 0, "probe {id} overflowed its log");
        // The lifecycle invariant the scheduler lives by, stated directly.
        assert_eq!(
            report.events.count("TestLaunched"),
            report.tests_completed + report.tests_aborted + report.tests_in_flight,
            "probe {id}: launch accounting"
        );
        let mut jsonl = Vec::new();
        report.events.write_jsonl(&mut jsonl).expect("writing to a Vec cannot fail");
        let parsed = jsonl_kind_counts(&String::from_utf8(jsonl).expect("JSONL is UTF-8"));
        for (kind, count) in report.events.kind_counts() {
            assert_eq!(
                parsed.get(kind).copied().unwrap_or(0),
                count,
                "probe {id}: JSONL disagrees with the log for kind {kind}"
            );
        }
        let total: u64 = parsed.values().sum();
        assert_eq!(total, report.events.total(), "probe {id}: total events");
    }
}

/// The probe run itself must match an identically-configured direct run:
/// capture is an observer, never an actor.
#[test]
fn probes_do_not_perturb_the_simulation() {
    let a = run_probe("e3", Scale::Quick).expect("known id");
    let b = run_probe("e3", Scale::Quick).expect("known id");
    assert_eq!(a, b, "probe runs must be reproducible");
}

#[test]
fn explain_renders_a_decision_timeline() {
    let text = explain("e3", Scale::Quick).expect("known id");
    assert!(text.contains("decision timeline"), "missing header:\n{text}");
    assert!(text.contains("headroom"), "missing power headroom:\n{text}");
    assert!(text.contains("queue_wait_ms"), "missing queue-wait histogram:\n{text}");
    assert!(text.contains("test_interval_ms"), "missing interval histogram:\n{text}");
    assert!(text.contains("power cap:"), "missing cap summary:\n{text}");
    assert!(
        text.contains("TestLaunched = "),
        "missing counter block:\n{text}"
    );
}

/// The fault-response probe must engage the whole detect→respond loop
/// and `explain` must render its graceful-degradation summary.
#[test]
fn explain_e11_renders_the_degradation_block() {
    let text = explain("e11", Scale::Quick).expect("known id");
    assert!(text.contains("degradation:"), "missing degradation block:\n{text}");
    assert!(text.contains("healthy cores:"), "missing capacity line:\n{text}");
    assert!(text.contains("confirmation retests"), "missing retest count:\n{text}");
    assert!(text.contains("victim apps:"), "missing victim line:\n{text}");
    assert!(text.contains("corruption exposure:"), "missing exposure line:\n{text}");
}
