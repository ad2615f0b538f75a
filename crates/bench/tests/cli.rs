//! End-to-end tests driving the `repro` binary as CI does. Every run
//! starts in `CARGO_TARGET_TMPDIR`, so files `repro` writes into its
//! working directory (`BENCH_repro.json`, ...) never land in the source
//! tree.

use std::process::{Command, Output};

/// Runs the `repro` binary in the target tmpdir with a scrubbed
/// environment (no inherited jobs/golden variables).
fn repro(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
    for var in ["MANYTEST_JOBS", "MANYTEST_UPDATE_GOLDEN"] {
        cmd.env_remove(var);
    }
    cmd.output().expect("spawn repro")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn regress_gate_passes_clean_and_fails_on_injected_drift() {
    let clean = repro(&["regress", "--jobs", "4"]);
    assert!(
        clean.status.success(),
        "regress failed against the committed baseline:\n{}",
        stdout_of(&clean)
    );
    assert!(stdout_of(&clean).contains("regress: OK"));
    let drift = repro(&["regress", "--jobs", "4", "--inject-drift"]);
    assert_eq!(drift.status.code(), Some(1), "injected drift must exit 1");
    let text = stdout_of(&drift);
    assert!(text.contains("DRIFT"), "no DRIFT verdict:\n{text}");
    assert!(text.contains("regress: FAIL"), "no FAIL summary:\n{text}");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let out = repro(&["e3", "--quick", "--ledger"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown flag must exit 2: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'--ledger'"), "flag not named:\n{stderr}");
    assert!(out.stdout.is_empty(), "ran anyway:\n{}", stdout_of(&out));
}
