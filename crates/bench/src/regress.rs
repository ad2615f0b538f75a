//! `repro regress` — the cross-run regression watch.
//!
//! Re-runs a small deterministic probe set (plus one kernels grid) at
//! quick scale and compares the resulting aggregates against the
//! committed baseline `tests/baselines/regress.quick.json`, emitting a
//! thresholded drift table. Counters must match exactly; float
//! aggregates get a tiny relative tolerance that only forgives decimal
//! round-trip noise, never behavioural drift. CI runs this as a gate
//! (nonzero exit on drift); `MANYTEST_UPDATE_GOLDEN=1` regenerates the
//! baseline after a reviewed behavioural change.

use crate::events::run_probe;
use crate::kernels::{kernels_builder, KERNELS_SEED};
use crate::runner::{run_system, Batch};
use crate::Scale;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Probes the watch re-runs: a baseline-load run (e3), the
/// fault-response run (e11) and the core-lifecycle run (e12) — together
/// they exercise mapping, testing, quarantine and re-admission.
pub const REGRESS_PROBES: [&str; 3] = ["e3", "e11", "e12"];

/// Kernels grid edge the watch re-runs (8×8: quick, full coverage of
/// the scan counters).
pub const REGRESS_GRID: u16 = 8;

/// Relative tolerance for float aggregates: forgives only decimal
/// text round-trip noise (values are deterministic bit-for-bit).
pub const REL_TOL: f64 = 1e-9;

/// The committed baseline path.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/baselines/regress.quick.json")
}

/// Computes the watched aggregates at quick scale, in a fixed order.
pub fn current_values(jobs: usize) -> Vec<(String, f64)> {
    let mut batch = Batch::new();
    for &id in &REGRESS_PROBES {
        batch.push(format!("probe/{id}"), move || {
            run_probe(id, Scale::Quick).expect("regress probes are known ids")
        });
    }
    batch.push(format!("kernels/g{REGRESS_GRID}"), || {
        run_system(kernels_builder(REGRESS_GRID, Scale::Quick))
    });
    let mut reports = batch.run(jobs);
    let kernels = reports.pop().expect("kernels job present");
    let mut values = Vec::new();
    for (id, r) in REGRESS_PROBES.iter().zip(&reports) {
        values.push((format!("{id}.throughput_mips"), r.throughput_mips));
        values.push((format!("{id}.tests_completed"), r.tests_completed as f64));
        values.push((format!("{id}.faults_detected"), r.faults_detected as f64));
        values.push((format!("{id}.events_total"), r.events.total() as f64));
        values.push((format!("{id}.mean_power_watts"), r.mean_power));
    }
    let g = REGRESS_GRID;
    let p = &kernels.profile;
    values.push((format!("g{g}.epochs"), p.epochs as f64));
    values.push((format!("g{g}.candidates_scanned"), p.candidates_scanned as f64));
    values.push((format!("g{g}.heap_pops"), p.heap_pops as f64));
    values.push((format!("g{g}.apps_completed"), kernels.apps_completed as f64));
    values.push((format!("g{g}.tests_completed"), kernels.tests_completed as f64));
    values.push((format!("g{g}.seed"), KERNELS_SEED as f64));
    values
}

/// Renders the baseline file for `values` (flat JSON, shortest float
/// round-trip formatting so re-reading is exact).
pub fn render_baseline(values: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i + 1 == values.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {value}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Loads the committed baseline. `None` when missing or unparseable.
pub fn load_baseline() -> Option<Vec<(String, f64)>> {
    parse_baseline(&fs::read_to_string(baseline_path()).ok()?)
}

/// Parses a baseline: one flat JSON object of finite numbers
/// (`{"name": 1.5, ...}`, the shape [`render_baseline`] writes), sorted
/// by name. `None` on any malformation, including string or nested
/// values and names holding quotes, backslashes, commas or colons.
pub fn parse_baseline(text: &str) -> Option<Vec<(String, f64)>> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?.trim();
    let mut map = BTreeMap::new();
    if !body.is_empty() {
        for entry in body.split(',') {
            let (name, value) = entry.split_once(':')?;
            let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
            if name.contains(['"', '\\']) {
                return None;
            }
            let value = value.trim().parse::<f64>().ok().filter(|v| v.is_finite())?;
            map.insert(name.to_owned(), value);
        }
    }
    Some(map.into_iter().collect())
}

/// Whether `current` drifted from `baseline` beyond [`REL_TOL`].
pub fn drifted(baseline: f64, current: f64) -> bool {
    let diff = (current - baseline).abs();
    diff > REL_TOL * baseline.abs().max(1.0)
}

/// Runs the regression watch. Prints the drift table to stdout and
/// returns `true` when every aggregate is within tolerance (the CLI
/// exits nonzero otherwise).
///
/// `inject_drift` multiplies the first aggregate by 1.5 before the
/// comparison — a test-only hook CI uses to prove the gate can fail.
/// With `MANYTEST_UPDATE_GOLDEN=1` the baseline is rewritten from the
/// current values instead and the watch always passes.
pub fn run_regress(jobs: usize, inject_drift: bool) -> bool {
    let mut current = current_values(jobs);
    if std::env::var("MANYTEST_UPDATE_GOLDEN").map_or(false, |v| v == "1") {
        let path = baseline_path();
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        fs::write(&path, render_baseline(&current)).expect("write regress baseline");
        println!("## regress — baseline regenerated ({} aggregates)", current.len());
        println!("# wrote {}", path.display());
        return true;
    }
    if inject_drift {
        current[0].1 *= 1.5;
        println!("# drift injection: {} multiplied by 1.5", current[0].0);
    }
    let Some(baseline) = load_baseline() else {
        println!(
            "## regress — no baseline at {} (run with MANYTEST_UPDATE_GOLDEN=1 to create it)",
            baseline_path().display()
        );
        return false;
    };
    println!("## regress — {} aggregates vs committed baseline (quick scale)", current.len());
    println!("{:<26} {:>18} {:>18}  verdict", "metric", "baseline", "current");
    let mut drifts = 0usize;
    let mut missing = 0usize;
    for (name, value) in &current {
        match baseline.iter().find(|(k, _)| k == name) {
            Some((_, base)) => {
                let bad = drifted(*base, *value);
                if bad {
                    drifts += 1;
                }
                println!(
                    "{name:<26} {base:>18} {value:>18}  {}",
                    if bad { "DRIFT" } else { "ok" }
                );
            }
            None => {
                missing += 1;
                println!("{name:<26} {:>18} {value:>18}  NEW (not in baseline)", "-");
            }
        }
    }
    for (name, base) in &baseline {
        if !current.iter().any(|(k, _)| k == name) {
            missing += 1;
            println!("{name:<26} {base:>18} {:>18}  GONE (baseline only)", "-");
        }
    }
    let ok = drifts == 0 && missing == 0;
    if ok {
        println!("regress: OK — all aggregates within tolerance");
    } else {
        println!("regress: FAIL — {drifts} drifted, {missing} missing/new aggregate(s)");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rendering_round_trips() {
        let values = vec![
            ("e3.throughput_mips".to_owned(), 1234.567891011),
            ("g8.epochs".to_owned(), 250.0),
        ];
        let text = render_baseline(&values);
        let mut back = parse_baseline(&text).expect("baseline parses");
        back.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(back, sorted);
    }

    #[test]
    fn flat_json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": {\"nested\": 1}}",
            "{\"a\": \"text\"}",
            "{\"a\": 1,}",
            "{\"a\": NaN}",
            "not json at all",
        ] {
            assert!(parse_baseline(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn drift_detection_tolerates_only_roundtrip_noise() {
        assert!(!drifted(100.0, 100.0));
        assert!(!drifted(100.0, 100.0 + 1e-8));
        assert!(drifted(100.0, 100.1));
        assert!(drifted(0.0, 0.5));
        assert!(!drifted(0.0, 0.0));
        // Injected drift (×1.5) is always caught.
        assert!(drifted(42.0, 63.0));
    }
}
