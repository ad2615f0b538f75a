//! Checks of the benchmark itself: its correctness check catches wrong
//! outcomes, and one smoke run prints every metric `BENCHMARK.json` names.

use manytest_benchmark::fingerprint::{fingerprint, parse_pins, EXPECTED_JSON, PINNED_SEED};
use manytest_benchmark::run::Runner;
use manytest_benchmark::workloads;
use manytest_core::prelude::*;
use std::path::Path;
use std::process::Command;

fn small(seed: u64) -> SystemBuilder {
    SystemBuilder::new(TechNode::N45)
        .seed(seed)
        .sim_time_ms(50)
        .arrival_rate(500.0)
}

#[test]
fn fingerprint_repeats_for_a_config_and_tracks_the_seed() {
    let run = |seed| fingerprint(&small(seed).build().expect("valid config").run());
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn corrupted_pin_counts_as_a_failed_op() {
    let w = workloads::find("sweep_native").expect("workload exists");
    let pins = parse_pins(EXPECTED_JSON).expect("committed pins parse")[w.name].clone();
    let configs = pins.len();

    let mut honest = Runner::new(w, 1, PINNED_SEED, Some(pins.clone()));
    honest.sample(None);
    assert_eq!(
        (honest.outcome.attempted, honest.outcome.failed),
        (configs as u64, 0)
    );

    let mut corrupted = pins;
    corrupted[3] ^= 1;
    let mut runner = Runner::new(w, 1, PINNED_SEED, Some(corrupted));
    runner.sample(None);
    assert_eq!(
        (runner.outcome.attempted, runner.outcome.failed),
        (configs as u64, 1)
    );
}

/// Every `"name"` in the metric tables of `BENCHMARK.json`.
fn declared_metrics() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let tables = &text[text.find("\"end_to_end\"").expect("end_to_end table")..];
    tables
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_metric_without_failures() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let (out, spans) = (dir.join("result.json"), dir.join("spans.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_manytest-benchmark"))
        .args([
            "--workload",
            "sweep_native",
            "--samples",
            "2",
            "--trace",
            "1",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--trace-out")
        .arg(&spans)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");

    let doc = std::fs::read_to_string(&out).expect("result document written");
    assert!(
        doc.contains("\"ok_rate\": {\"value\": 1, \"unit\": \"ratio\"}"),
        "{doc}"
    );
    let metrics = declared_metrics();
    assert!(metrics.len() > 50, "{metrics:?}");
    for name in metrics {
        assert!(
            doc.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
    }
    let trace = std::fs::read_to_string(&spans).expect("spans written");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"run\"") && trace.contains("\"name\":\"map\""));
}
