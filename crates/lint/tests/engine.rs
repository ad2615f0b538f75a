//! Engine-level integration tests: the incremental cache and the SARIF
//! artifact, exercised against on-disk synthetic workspaces.

use manytest_lint::cache::{lint_workspace_cached, CACHE_REL_PATH};
use manytest_lint::diag::{render_json, Finding};
use manytest_lint::json;
use manytest_lint::sarif::render_sarif;
use std::path::{Path, PathBuf};

/// A throwaway on-disk workspace under the test target dir; seeded with
/// one violating and one clean file.
fn scratch_workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Stale state from a previous run would defeat the cold-run half.
    std::fs::remove_dir_all(&root).ok();
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("tmpdir");
    std::fs::write(
        src.join("bad.rs"),
        "use std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
    )
    .expect("write");
    std::fs::write(src.join("good.rs"), "pub fn id(x: u32) -> u32 {\n    x\n}\n").expect("write");
    root
}

#[test]
fn warm_cache_replays_files_and_workspace() {
    let root = scratch_workspace("lint-cache-replay");
    let (cold, cold_stats) = lint_workspace_cached(&root).expect("cold run");
    assert_eq!(cold_stats.file_hits, 0);
    assert_eq!(cold_stats.file_misses, 2);
    assert!(root.join(CACHE_REL_PATH).is_file(), "cache file written");

    // The workspace pass re-runs on the warm run; with the file findings
    // replayed, the whole report matches the cold run.
    let (warm, warm_stats) = lint_workspace_cached(&root).expect("warm run");
    assert_eq!(warm_stats.file_hits, 2, "all files replayed");
    assert_eq!(warm_stats.file_misses, 0);
    assert_eq!(cold.findings, warm.findings);
}

#[test]
fn editing_one_file_invalidates_only_that_file() {
    let root = scratch_workspace("lint-cache-invalidate");
    lint_workspace_cached(&root).expect("cold run");
    std::fs::write(
        root.join("crates/core/src/good.rs"),
        "pub fn id2(x: u32) -> u32 {\n    x\n}\n",
    )
    .expect("rewrite");
    let (_, stats) = lint_workspace_cached(&root).expect("after edit");
    assert_eq!(stats.file_hits, 1, "the untouched file replays");
    assert_eq!(stats.file_misses, 1, "the edited file re-runs");
}

#[test]
fn warm_run_reports_a_doc_edit_made_between_runs() {
    // The workspace rules read inputs the per-file cache does not hash:
    // a README edit must surface on the next cached run.
    let root = scratch_workspace("lint-cache-doc-edit");
    std::fs::create_dir_all(root.join("crates/bench/src")).expect("tmpdir");
    std::fs::write(
        root.join("crates/bench/src/events.rs"),
        "pub const PROBE_IDS: [&str; 1] = [\"e3\"];\n",
    )
    .expect("write");
    let readme = root.join("README.md");
    std::fs::write(&readme, "Run `repro explain e3`.\n").expect("write");
    let is_doc_finding = |f: &Finding| f.rule == "golden-schema" && f.file == "README.md";
    let (cold, _) = lint_workspace_cached(&root).expect("cold run");
    assert!(!cold.findings.iter().any(is_doc_finding));

    let edited = "Run `repro explain e3`.\nRun `repro explain e99`.\n";
    std::fs::write(&readme, edited).expect("edit");
    let (warm, stats) = lint_workspace_cached(&root).expect("warm run");
    assert_eq!(stats.file_misses, 0, "no .rs file changed");
    let doc: Vec<_> = warm.findings.iter().filter(|f| is_doc_finding(f)).collect();
    assert_eq!(doc.len(), 1, "{doc:?}");
    assert!(doc[0].message.contains("`e99`"), "{doc:?}");
    assert_eq!(doc[0].line, 2);
}

#[test]
fn sarif_and_json_are_byte_identical_cold_vs_warm() {
    let root = scratch_workspace("lint-cache-bytes");
    let (cold, _) = lint_workspace_cached(&root).expect("cold run");
    let (warm, stats) = lint_workspace_cached(&root).expect("warm run");
    assert_eq!(stats.file_misses, 0, "warm run must replay");
    // Replayed findings round-trip losslessly: both renderings match to
    // the byte, so CI artifacts never churn on cache state.
    assert_eq!(render_sarif(&cold.findings), render_sarif(&warm.findings));
    assert_eq!(
        render_json(&cold.findings, cold.files_scanned),
        render_json(&warm.findings, warm.files_scanned)
    );
}

#[test]
fn written_sarif_validates_against_the_2_1_0_shape() {
    let root = scratch_workspace("lint-sarif-shape");
    let (report, _) = lint_workspace_cached(&root).expect("run");
    assert!(!report.findings.is_empty(), "fixture must produce findings");
    let doc = json::parse(&render_sarif(&report.findings)).expect("SARIF is valid JSON");
    assert_eq!(
        doc.get("$schema").and_then(|v| v.as_str()),
        Some("https://json.schemastore.org/sarif-2.1.0.json")
    );
    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let run = &doc.get("runs").and_then(|v| v.as_arr()).expect("runs array")[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(|v| v.as_str()), Some("manytest-lint"));
    let rules = driver.get("rules").and_then(|v| v.as_arr()).expect("rules");
    assert!(!rules.is_empty());
    for result in run.get("results").and_then(|v| v.as_arr()).expect("results") {
        // Every result points at a declared rule and a real location.
        let idx = result
            .get("ruleIndex")
            .and_then(|v| v.as_num())
            .expect("ruleIndex") as usize;
        assert_eq!(
            rules[idx].get("id").and_then(|v| v.as_str()),
            result.get("ruleId").and_then(|v| v.as_str())
        );
        let region = result.get("locations").and_then(|v| v.as_arr()).expect("locations")[0]
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .expect("region");
        assert!(region.get("startLine").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
        assert!(region.get("startColumn").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
    }
}
