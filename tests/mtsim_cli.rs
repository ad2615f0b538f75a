//! End-to-end tests of the `mtsim` binary: one short run, one invalid
//! configuration and one malformed flag value. Every run starts in
//! `CARGO_TARGET_TMPDIR`, so nothing lands in the source tree.

use std::process::Output;

fn mtsim(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn mtsim")
}

#[test]
fn short_run_prints_the_report() {
    let out = mtsim(&["--node", "16", "--ms", "20"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# mtsim"), "no header:\n{stdout}");
}

#[test]
fn invalid_configs_and_flag_values_exit_1_naming_the_culprit() {
    for (args, culprit) in [
        (["--windowed-faults", "1.5"], "vf_windowed_fault_fraction"),
        (["--rate", "abc"], "--rate"),
    ] {
        let out = mtsim(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(culprit), "{args:?}: {culprit} not named:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
