//! End-to-end tests driving the `repro` binary as CI does. Every run
//! starts in `CARGO_TARGET_TMPDIR`, so files `repro` writes into its
//! working directory (`BENCH_repro.json`, ...) never land in the source
//! tree.

use std::path::Path;
use std::process::{Command, Output};

/// The `repro` binary in the target tmpdir with a scrubbed environment
/// (no inherited jobs/golden variables).
fn repro_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
    for var in ["MANYTEST_JOBS", "MANYTEST_UPDATE_GOLDEN"] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs [`repro_cmd`] to completion.
fn repro(args: &[&str]) -> Output {
    repro_cmd(args).output().expect("spawn repro")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn regress_gate_passes_clean_and_fails_on_injected_drift() {
    // Bytes and modification time of both golden store files: the gate
    // must compare, never write, unless MANYTEST_UPDATE_GOLDEN is `1`.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let stamp = || {
        ["quick.json", "e11.seed111.diff.txt"].map(|name| {
            let path = golden.join(name);
            let modified = path.metadata().and_then(|m| m.modified());
            (
                std::fs::read(&path).expect("golden file"),
                modified.expect("mtime"),
            )
        })
    };
    let before = stamp();
    let clean = repro_cmd(&["regress", "--jobs", "4"])
        .env("MANYTEST_UPDATE_GOLDEN", "0")
        .output()
        .expect("spawn repro");
    assert!(
        clean.status.success(),
        "regress failed against the committed golden store:\n{}",
        stdout_of(&clean)
    );
    assert!(stdout_of(&clean).contains("regress: OK"));
    assert!(
        before == stamp(),
        "MANYTEST_UPDATE_GOLDEN=0 rewrote the golden store"
    );

    let drift = repro(&["regress", "--jobs", "4", "--inject-drift"]);
    assert_eq!(drift.status.code(), Some(1), "injected drift must exit 1");
    let text = stdout_of(&drift);
    assert!(text.contains("DRIFT"), "no DRIFT verdict:\n{text}");
    assert!(text.contains("regress: FAIL"), "no FAIL summary:\n{text}");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    for flag in ["--ledger", "--progress"] {
        let out = repro(&["e3", "--quick", flag]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "unknown flag {flag} must exit 2: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("'{flag}'")),
            "flag not named:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "ran anyway:\n{}", stdout_of(&out));
    }
}

#[test]
fn malformed_and_missing_flag_values_are_rejected_by_name() {
    // Its own empty directory, so "wrote nothing" is checkable.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad_flag_values");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let cases: [(&[&str], &str); 6] = [
        (&["e3", "--quick", "--jobs", "abc"], "--jobs"),
        // The experiment id is not a worker count.
        (&["--jobs", "e3"], "--jobs"),
        // A trailing value flag has no value: no silent self-diff.
        (&["diff", "e11", "--quick", "--seed2"], "--seed2"),
        // Flags the table runs do not read, so their values would be
        // silently ignored.
        (&["e3", "--quick", "--seed2", "abc"], "--seed2"),
        (&["e3", "--quick", "--grids", "x"], "--grids"),
        (&["e3", "--quick", "--out", "somedir"], "--out"),
    ];
    for (args, flag) in cases {
        let out = repro_cmd(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{args:?}: {flag} not named:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran anyway:\n{}",
            stdout_of(&out)
        );
    }
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read test dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "wrote files: {left:?}");
}

#[test]
fn unknown_experiment_ids_are_rejected_by_name() {
    // Its own empty directory, so "wrote nothing" is checkable: other
    // tests leave `BENCH_repro.json` in the shared tmpdir.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown_experiment_id");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let out = repro_cmd(&["e99", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown id must exit 2: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'e99'"), "id not named:\n{stderr}");
    assert!(out.stdout.is_empty(), "ran anyway:\n{}", stdout_of(&out));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read test dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "wrote files: {left:?}");
}
