//! `repro regress` — the golden store and its one gate.
//!
//! Every result the repository pins lives in one store under
//! `tests/golden/`. `quick.json` is a flat JSON object of numbers: the
//! quick-scale aggregates and per-kind event counts of the e3/e11/e12
//! probes, and the phase-profile scan counters of the 8×8/16×16/32×32
//! kernels runs. `e11.seed111.diff.txt` is the `repro diff e11 --seed2
//! 111` output. `repro regress` recomputes both, compares every number
//! with [`drifted`] and the diff byte for byte, prints a drift table,
//! and fails on any drift or on a missing, extra or unparseable key.
//! Counts must match exactly; float aggregates get a tiny relative
//! tolerance that only forgives decimal round-trip noise, never
//! behavioural drift. CI runs this as a gate (nonzero exit on drift);
//! `MANYTEST_UPDATE_GOLDEN=1 repro regress` is the only code that writes
//! the store, after a reviewed behavioural change.

use crate::diff::diff_reports;
use crate::events::{probe_builder, run_probe};
use crate::kernels::{kernels_builder, KERNELS_SEED};
use crate::runner::{run_system, Batch};
use crate::Scale;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Probes the store pins: a baseline-load run (e3), the fault-response
/// run (e11) and the core-lifecycle run (e12) — together they exercise
/// mapping, testing, quarantine and re-admission, and emit every event
/// kind.
pub const REGRESS_PROBES: [&str; 3] = ["e3", "e11", "e12"];

/// Kernels grid edges the store pins. Each step quadruples the core
/// count, so a scan counter that stops growing linearly shows up as
/// drift.
const REGRESS_GRIDS: [u16; 3] = [8, 16, 32];

/// The phase-profile counters pinned per kernels grid, read off
/// [`manytest_sim::PhaseProfile::entries`] names.
const GATED: [&str; 7] = [
    "epochs",
    "free_set_queries",
    "ctx_rebuilds",
    "ctx_delta_updates",
    "candidates_scanned",
    "heap_pops",
    "dirty_marks",
];

/// Seed of the reseeded e11 twin whose first-divergence diff is pinned
/// in [`DIFF_FILE`].
const DIFF_SEED2: u64 = 111;

/// The store's numbers.
const STORE_FILE: &str = "quick.json";

/// The store's pinned `repro diff e11 --seed2 111 --quick` output.
const DIFF_FILE: &str = "e11.seed111.diff.txt";

/// Relative tolerance for float aggregates: forgives only decimal
/// text round-trip noise (values are deterministic bit-for-bit). Every
/// count in the store is below 1e9, so counts still compare exactly.
pub const REL_TOL: f64 = 1e-9;

/// Path of one store file, `tests/golden/<name>`.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Everything the store pins, as computed by this build.
struct Golden {
    /// Named numbers, in drift-table order.
    values: Vec<(String, f64)>,
    /// The e11 first-divergence diff against its reseeded twin.
    diff: String,
}

/// Computes the store's contents at quick scale on up to `jobs` workers.
fn current(jobs: usize) -> Golden {
    let mut batch = Batch::new();
    for &id in &REGRESS_PROBES {
        batch.push(format!("probe/{id}"), move || {
            run_probe(id, Scale::Quick).expect("regress probes are known ids")
        });
    }
    for &grid in &REGRESS_GRIDS {
        batch.push(format!("kernels/g{grid}"), move || {
            run_system(kernels_builder(grid, Scale::Quick))
        });
    }
    batch.push(format!("probe/e11/seed{DIFF_SEED2}"), || {
        let twin = probe_builder("e11", Scale::Quick).expect("e11 is a known id");
        run_system(twin.seed(DIFF_SEED2))
    });
    let mut reports = batch.run(jobs);
    let twin = reports.pop().expect("twin job present");
    let (probes, kernels) = reports.split_at(REGRESS_PROBES.len());
    let mut values = Vec::new();
    for (id, r) in REGRESS_PROBES.iter().zip(probes) {
        values.push((format!("{id}.throughput_mips"), r.throughput_mips));
        values.push((format!("{id}.tests_completed"), r.tests_completed as f64));
        values.push((format!("{id}.faults_detected"), r.faults_detected as f64));
        values.push((format!("{id}.events_total"), r.events.total() as f64));
        values.push((format!("{id}.mean_power_watts"), r.mean_power));
        for (kind, count) in r.events.kind_counts() {
            values.push((format!("{id}.{kind}"), count as f64));
        }
    }
    for (grid, r) in REGRESS_GRIDS.iter().zip(kernels) {
        for (name, value) in r.profile.entries() {
            if GATED.contains(&name) {
                values.push((format!("g{grid}.{name}"), value as f64));
            }
        }
    }
    let (g, r) = (REGRESS_GRIDS[0], &kernels[0]);
    values.push((format!("g{g}.apps_completed"), r.apps_completed as f64));
    values.push((format!("g{g}.tests_completed"), r.tests_completed as f64));
    values.push((format!("g{g}.seed"), KERNELS_SEED as f64));
    // `probes[1]` is e11 (REGRESS_PROBES order).
    let twin_label = format!("e11 --seed2 {DIFF_SEED2}");
    let diff = diff_reports("e11", &probes[1], &twin_label, &twin);
    Golden { values, diff }
}

/// Renders the store's numbers (flat JSON, shortest float round-trip
/// formatting so re-reading is exact).
pub fn render_baseline(values: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i + 1 == values.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {value}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Parses the store's numbers: one flat JSON object of finite numbers
/// (`{"name": 1.5, ...}`, the shape [`render_baseline`] writes). `None`
/// on any malformation, including string or nested values, duplicate
/// names and names holding quotes, backslashes, commas or colons.
pub fn parse_baseline(text: &str) -> Option<BTreeMap<String, f64>> {
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
            if map.insert(name.to_owned(), value).is_some() {
                return None;
            }
        }
    }
    Some(map)
}

/// Whether `current` drifted from `baseline` beyond [`REL_TOL`]. A
/// non-finite `current` always counts as drift.
pub fn drifted(baseline: f64, current: f64) -> bool {
    let diff = (current - baseline).abs();
    !current.is_finite() || diff > REL_TOL * baseline.abs().max(1.0)
}

/// The `--inject-drift` perturbation: moves `value` by `max(|value|, 1)`,
/// which [`drifted`] flags for every finite value, zero included.
fn inject_drift(value: f64) -> f64 {
    value + value.abs().max(1.0)
}

/// Compares `current` against the committed store: `store` is the text
/// of [`STORE_FILE`] and `fixture` that of [`DIFF_FILE`] (a missing file
/// reads as empty). Returns the drift table and whether the gate passes:
/// the store parses, holds exactly the current keys, every number is
/// within tolerance, and the diff matches byte for byte.
fn compare(store: &str, fixture: &str, current: &Golden) -> (String, bool) {
    let mut out = String::new();
    let Some(baseline) = parse_baseline(store) else {
        let _ = writeln!(
            out,
            "## regress — {STORE_FILE} is missing or unparseable \
             (run with MANYTEST_UPDATE_GOLDEN=1 to regenerate it)"
        );
        return (out, false);
    };
    let _ = writeln!(
        out,
        "## regress — {} aggregates vs committed baseline (quick scale)",
        current.values.len()
    );
    let _ = writeln!(
        out,
        "{:<26} {:>18} {:>18}  verdict",
        "metric", "baseline", "current"
    );
    let mut drifts = 0usize;
    let mut missing = 0usize;
    for (name, value) in &current.values {
        match baseline.get(name) {
            Some(&base) => {
                let bad = drifted(base, *value);
                drifts += usize::from(bad);
                let verdict = if bad { "DRIFT" } else { "ok" };
                let _ = writeln!(out, "{name:<26} {base:>18} {value:>18}  {verdict}");
            }
            None => {
                missing += 1;
                let _ = writeln!(
                    out,
                    "{name:<26} {:>18} {value:>18}  NEW (not in baseline)",
                    "-"
                );
            }
        }
    }
    for (name, base) in &baseline {
        if !current.values.iter().any(|(k, _)| k == name) {
            missing += 1;
            let _ = writeln!(
                out,
                "{name:<26} {base:>18} {:>18}  GONE (baseline only)",
                "-"
            );
        }
    }
    let diff_ok = fixture == current.diff;
    drifts += usize::from(!diff_ok);
    let lines = |text: &str| format!("{} lines", text.lines().count());
    let _ = writeln!(
        out,
        "{DIFF_FILE:<26} {:>18} {:>18}  {}",
        lines(fixture),
        lines(&current.diff),
        if diff_ok { "ok" } else { "DRIFT" }
    );
    let ok = drifts == 0 && missing == 0;
    if ok {
        out.push_str("regress: OK — all aggregates within tolerance\n");
    } else {
        let _ = writeln!(
            out,
            "regress: FAIL — {drifts} drifted, {missing} missing/new aggregate(s)"
        );
    }
    (out, ok)
}

/// Runs the regression watch. Prints the drift table to stdout and
/// returns `true` when the gate passes (the CLI exits nonzero
/// otherwise).
///
/// `inject` moves the first aggregate by `max(|value|, 1)` before the
/// comparison — a test-only hook CI uses to prove the gate can fail.
/// With `MANYTEST_UPDATE_GOLDEN=1` the store is rewritten from the
/// current values instead and the watch always passes; any other value
/// of the variable compares.
pub fn run_regress(jobs: usize, inject: bool) -> bool {
    let mut current = current(jobs);
    if std::env::var("MANYTEST_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let (store, fixture) = (golden_path(STORE_FILE), golden_path(DIFF_FILE));
        fs::write(&store, render_baseline(&current.values)).expect("write golden store");
        fs::write(&fixture, &current.diff).expect("write diff fixture");
        println!(
            "## regress — golden store regenerated ({} aggregates)",
            current.values.len()
        );
        println!("# wrote {}", store.display());
        println!("# wrote {}", fixture.display());
        return true;
    }
    if inject {
        let (name, value) = &mut current.values[0];
        let was = *value;
        *value = inject_drift(was);
        println!("# drift injection: {name} moved from {was} to {value}");
    }
    let read = |name| fs::read_to_string(golden_path(name)).unwrap_or_default();
    let (table, ok) = compare(&read(STORE_FILE), &read(DIFF_FILE), &current);
    print!("{table}");
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rendering_round_trips() {
        let values = vec![
            ("g8.epochs".to_owned(), 250.0),
            ("e3.throughput_mips".to_owned(), 1234.567891011),
        ];
        let back = parse_baseline(&render_baseline(&values)).expect("baseline parses");
        assert_eq!(back, values.into_iter().collect());
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
            "{\"a\": 1, \"a\": 1}",
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
        assert!(drifted(42.0, 63.0));
    }

    #[test]
    fn non_finite_current_values_drift() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(drifted(100.0, bad), "{bad} passed");
            assert!(drifted(0.0, bad), "{bad} passed against zero");
        }
    }

    #[test]
    fn injected_drift_bites_zero_and_negative_values() {
        for value in [0.0, 1.0, -2.0, 1e-12, 89359.61635199994, -1e12] {
            assert!(
                drifted(value, inject_drift(value)),
                "injection missed {value}"
            );
        }
    }

    #[test]
    fn comparison_passes_only_on_an_exact_key_match() {
        let current = Golden {
            values: vec![
                ("e3.AppArrived".to_owned(), 273.0),
                ("e3.mean_power_watts".to_owned(), 38.416),
            ],
            diff: "## run diff\n".to_owned(),
        };
        let store = render_baseline(&current.values);
        let (table, ok) = compare(&store, &current.diff, &current);
        assert!(ok, "{table}");
        assert!(table.contains(&format!("{DIFF_FILE:<26}")), "{table}");

        // A key the store lacks fails as NEW.
        let (table, ok) = compare(
            &render_baseline(&current.values[..1]),
            &current.diff,
            &current,
        );
        assert!(!ok && table.contains("NEW (not in baseline)"), "{table}");

        // An extra key fails as GONE: a typo'd event kind, a kernels key
        // naming no profile counter or grid, and an unknown probe id are
        // all keys the current run does not produce.
        for extra in [
            "e3.AppArived",
            "g8.not_a_counter",
            "x8.epochs",
            "epochs",
            "e99.AppArrived",
        ] {
            let mut values = current.values.clone();
            values.push((extra.to_owned(), 1.0));
            let (table, ok) = compare(&render_baseline(&values), &current.diff, &current);
            assert!(
                !ok && table.contains("GONE (baseline only)"),
                "{extra}: {table}"
            );
        }

        // An unparseable or missing store fails.
        for bad in ["", "{ \"e3.AppArrived\": }", "{ \"e3.AppArrived\": 273, }"] {
            let (table, ok) = compare(bad, &current.diff, &current);
            assert!(
                !ok && table.contains("missing or unparseable"),
                "{bad:?}: {table}"
            );
        }

        // A drifted number or a changed diff byte fails as DRIFT.
        let mut drifted_values = current.values.clone();
        drifted_values[0].1 = inject_drift(drifted_values[0].1);
        let (table, ok) = compare(&render_baseline(&drifted_values), &current.diff, &current);
        assert!(!ok && table.contains("DRIFT"), "{table}");
        let (table, ok) = compare(&store, "## run diff \n", &current);
        assert!(!ok && table.contains("DRIFT"), "{table}");
    }

    #[test]
    fn every_count_in_the_committed_store_drifts_at_plus_minus_one() {
        let text = fs::read_to_string(golden_path(STORE_FILE)).expect("committed store");
        let store = parse_baseline(&text).expect("committed store parses");
        let counts: Vec<f64> = store
            .values()
            .copied()
            .filter(|v| v.fract() == 0.0)
            .collect();
        assert!(!counts.is_empty(), "no integer-valued keys");
        for v in counts {
            assert!(
                drifted(v, v + 1.0) && drifted(v, v - 1.0),
                "{v} tolerates ±1"
            );
        }
    }
}
