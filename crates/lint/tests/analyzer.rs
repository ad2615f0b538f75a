//! Integration tests for `manytest-lint`: every rule against a
//! violating and a clean fixture, span accuracy, the allow audit,
//! synthetic workspaces for the cross-file rules, and the self-check
//! (the repository's own tree must be clean).

use manytest_lint::diag::render_human;
use manytest_lint::source::{SourceFile, Workspace};
use manytest_lint::{lint_files, lint_workspace, run, LintReport};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lints one fixture under a virtual path (the path selects which
/// crate-scoped rules apply).
fn lint_fixture(virtual_path: &str, name: &str) -> LintReport {
    lint_files(vec![SourceFile::from_source(virtual_path, fixture(name))])
}

fn rules_of(report: &LintReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ----- nondet-collections ----------------------------------------------

#[test]
fn nondet_collections_flags_hash_containers_with_exact_spans() {
    let report = lint_fixture("crates/core/src/x.rs", "nondet_violating.rs");
    assert_eq!(rules_of(&report), vec!["nondet-collections"; 3]);
    // Span accuracy: `use std::collections::HashMap;` — the ident
    // starts at column 23.
    let spans: Vec<(u32, u32)> = report.findings.iter().map(|f| (f.line, f.col)).collect();
    assert_eq!(spans, vec![(1, 23), (3, 19), (4, 5)]);
    assert_eq!(report.findings[0].file, "crates/core/src/x.rs");
}

#[test]
fn nondet_collections_accepts_btreemap_and_strings() {
    let report = lint_fixture("crates/core/src/x.rs", "nondet_clean.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

#[test]
fn nondet_collections_is_scoped_to_sim_crates() {
    // The same violating source outside the simulation crates is fine
    // (the analyzer itself uses whatever containers it likes).
    let report = lint_fixture("crates/lint/src/x.rs", "nondet_violating.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- wall-clock ------------------------------------------------------

#[test]
fn wall_clock_flags_instant_outside_bench() {
    for path in ["crates/core/src/x.rs", "crates/shims/serde/src/x.rs"] {
        let report = lint_fixture(path, "wall_clock_violating.rs");
        assert_eq!(rules_of(&report), vec!["wall-clock"; 2], "{path}");
        let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 4], "{path}");
        assert_eq!(report.findings[0].col, 16, "{path}"); // `use std::time::Instant;`
    }
}

#[test]
fn wall_clock_exempts_bench_and_accepts_sim_time() {
    let bench = lint_fixture("crates/bench/src/x.rs", "wall_clock_violating.rs");
    assert!(bench.is_clean(), "{}", render_human(&bench.findings, 1));
    let clean = lint_fixture("crates/core/src/x.rs", "wall_clock_clean.rs");
    assert!(clean.is_clean(), "{}", render_human(&clean.findings, 1));
}

// ----- hot-path-purity -------------------------------------------------

/// A synthetic workspace whose `system.rs` carries the fixture source
/// (workspace rules need the whole-tree pass, unlike file rules).
fn hot_path_report(name: &str) -> LintReport {
    let system = SourceFile::from_source("crates/core/src/system.rs", fixture(name));
    run(&Workspace::from_sources("/nonexistent", vec![system]))
}

#[test]
fn hot_path_purity_catches_a_three_deep_indirect_allocation() {
    // The `vec!` sits three calls below the `control` entry point
    // (control → probe_lane → launch_probe → stage_buffer); the finding
    // lands on the sink site and reports the full chain.
    let report = hot_path_report("hot_path_violating.rs");
    let hot: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "hot-path-purity")
        .collect();
    assert_eq!(hot.len(), 1, "{}", render_human(&report.findings, 1));
    assert!(
        hot[0]
            .message
            .contains("control → probe_lane → launch_probe → stage_buffer"),
        "chain missing: {}",
        hot[0].message
    );
    assert!(hot[0].message.contains("allocates"), "{}", hot[0].message);
    assert_eq!(hot[0].line, 16); // the `vec![0; n]` line
}

#[test]
fn hot_path_purity_accepts_site_allows_and_effect_annotations() {
    // The same allocation chain, audited two ways: a fn-level
    // `lint:effect(alloc)` cuts traversal at `launch_probe`, and a
    // direct sink in `control` carries a site allow.
    let report = hot_path_report("hot_path_clean.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

#[test]
fn hot_path_purity_is_anchored_to_system_rs_entry_points() {
    // The identical source under another basename defines no entry
    // points, so the rule stays silent (unit fixtures are exempt).
    let other = SourceFile::from_source("crates/core/src/other.rs", fixture("hot_path_violating.rs"));
    let report = run(&Workspace::from_sources("/nonexistent", vec![other]));
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- event-match-exhaustiveness --------------------------------------

#[test]
fn event_match_flags_a_wildcard_arm_over_sim_event() {
    let report = lint_fixture("crates/core/src/audit.rs", "event_match_violating.rs");
    assert_eq!(rules_of(&report), vec!["event-match-exhaustiveness"]);
    assert_eq!(report.findings[0].line, 5); // the `_ => 0` arm
    assert!(report.findings[0].message.contains("SimEvent"));
}

#[test]
fn event_match_accepts_exhaustive_audited_and_unguarded_matches() {
    let report = lint_fixture("crates/core/src/audit.rs", "event_match_clean.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

#[test]
fn event_match_only_guards_telemetry_consumer_files() {
    // The same wildcard in a non-consumer file is out of scope.
    let report = lint_fixture("crates/core/src/mapper.rs", "event_match_violating.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- unit-suffix-consistency -----------------------------------------

#[test]
fn unit_suffix_flags_unconverted_time_and_power_mixes() {
    let report = lint_fixture("crates/core/src/x.rs", "unit_suffix_violating.rs");
    assert_eq!(rules_of(&report), vec!["unit-suffix-consistency"; 2]);
    assert!(report.findings[0].message.contains("epoch_us"));
    assert!(report.findings[0].message.contains("timeout_ms"));
    assert!(report.findings[1].message.contains("power"));
}

#[test]
fn unit_suffix_accepts_consistent_converted_and_cross_group_arithmetic() {
    let report = lint_fixture("crates/core/src/x.rs", "unit_suffix_clean.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

#[test]
fn unit_suffix_is_scoped_to_sim_crates() {
    let report = lint_fixture("crates/lint/src/x.rs", "unit_suffix_violating.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- rng-escape ------------------------------------------------------

#[test]
fn rng_escape_flags_shared_storage() {
    let report = lint_fixture("crates/core/src/x.rs", "rng_escape_violating.rs");
    assert_eq!(rules_of(&report), vec!["rng-escape"]);
    assert!(report.findings[0].message.contains("`Mutex`"));
    assert_eq!((report.findings[0].line, report.findings[0].col), (4, 20));
}

#[test]
fn rng_escape_accepts_owned_handles_and_derivation() {
    let report = lint_fixture("crates/core/src/x.rs", "rng_escape_clean.rs");
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- allow audit -----------------------------------------------------

#[test]
fn moving_an_allow_away_from_its_violation_reports_unused_allow() {
    // The allow targets the next code line — an unrelated item — so the
    // violation below survives AND the allow is reported stale.
    let src = "// lint:allow(nondet-collections, reason = \"misplaced\")\nfn unrelated() {}\nuse std::collections::HashMap;\n";
    let report = lint_files(vec![SourceFile::from_source("crates/core/src/x.rs", src)]);
    let mut rules = rules_of(&report);
    rules.sort();
    assert_eq!(rules, vec!["nondet-collections", "unused-allow"]);
}

#[test]
fn allow_without_reason_is_malformed() {
    let src = "// lint:allow(nondet-collections)\nuse std::collections::HashMap;\n";
    let report = lint_files(vec![SourceFile::from_source("crates/core/src/x.rs", src)]);
    assert!(
        rules_of(&report).contains(&"malformed-allow"),
        "{}",
        render_human(&report.findings, 1)
    );
}

// ----- event-emission-coverage (synthetic workspace) -------------------

fn synthetic_events_workspace(emitter_body: &str, audit_body: &str) -> Workspace {
    let obs = SourceFile::from_source(
        "crates/sim/src/obs.rs",
        "pub enum SimEvent { Alpha, Beta { x: u32 }, Gamma }\n",
    );
    let emitter = SourceFile::from_source("crates/core/src/emitter.rs", emitter_body);
    let audit = SourceFile::from_source("crates/core/src/audit.rs", audit_body);
    Workspace::from_sources("/nonexistent", vec![obs, emitter, audit])
}

#[test]
fn event_coverage_reports_unconstructed_and_unaudited_variants() {
    let ws = synthetic_events_workspace(
        "pub fn emit() { observe(SimEvent::Alpha); observe(SimEvent::Beta { x: 1 }); }\n",
        "pub fn audit() { check(SimEvent::Alpha); check_count(\"Gamma\"); }\n",
    );
    let report = run(&ws);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "event-emission-coverage")
        .map(|f| f.message.as_str())
        .collect();
    // Gamma is audited but never constructed; Beta is constructed but
    // never reconciled.
    assert_eq!(messages.len(), 2, "{}", render_human(&report.findings, 3));
    assert!(messages.iter().any(|m| m.contains("Gamma") && m.contains("never constructed")));
    assert!(messages.iter().any(|m| m.contains("Beta") && m.contains("not reconciled")));
}

#[test]
fn deleting_an_audit_arm_fails_the_lint() {
    // Full coverage first: every variant constructed and audited.
    let emitter =
        "pub fn emit() { observe(SimEvent::Alpha); observe(SimEvent::Beta { x: 1 }); observe(SimEvent::Gamma); }\n";
    let full = synthetic_events_workspace(
        emitter,
        "pub fn audit() { check(SimEvent::Alpha); check(SimEvent::Beta); check_count(\"Gamma\"); }\n",
    );
    assert!(
        run(&full)
            .findings
            .iter()
            .all(|f| f.rule != "event-emission-coverage"),
        "baseline should cover all variants"
    );
    // Delete the Beta arm: the lint must start failing.
    let broken = synthetic_events_workspace(
        emitter,
        "pub fn audit() { check(SimEvent::Alpha); check_count(\"Gamma\"); }\n",
    );
    assert!(run(&broken)
        .findings
        .iter()
        .any(|f| f.rule == "event-emission-coverage" && f.message.contains("Beta")));
}

/// Like `synthetic_events_workspace`, but the obs file also carries a
/// `ROOT_KINDS` const and a `CauseKind::expected` table, opting the
/// workspace into the cause-link half of the rule.
fn cause_table_workspace(expected_body: &str) -> Workspace {
    let obs_src = format!(
        "pub enum SimEvent {{ Alpha, Beta {{ x: u32 }}, Gamma }}\n\
         impl SimEvent {{ pub const ROOT_KINDS: [&'static str; 1] = [\"Alpha\"]; }}\n\
         impl CauseKind {{\n    pub fn expected(self) -> (&'static [&'static str], &'static [&'static str]) {{\n        match self {{\n{expected_body}        }}\n    }}\n}}\n",
    );
    let obs = SourceFile::from_source("crates/sim/src/obs.rs", &obs_src);
    let emitter = SourceFile::from_source(
        "crates/core/src/emitter.rs",
        "pub fn emit() { observe(SimEvent::Alpha); observe(SimEvent::Beta { x: 1 }); observe(SimEvent::Gamma); }\n",
    );
    let audit = SourceFile::from_source(
        "crates/core/src/audit.rs",
        "pub fn audit() { check(SimEvent::Alpha); check(SimEvent::Beta); check_count(\"Gamma\"); }\n",
    );
    Workspace::from_sources("/nonexistent", vec![obs, emitter, audit])
}

#[test]
fn non_root_variant_missing_from_the_cause_table_is_flagged() {
    // Beta is a target; Gamma is neither a root nor a target, even
    // though it appears as a *source* — sources don't count.
    let ws = cause_table_workspace(
        "            CauseKind::A => (&[\"Alpha\"], &[\"Beta\"]),\n            CauseKind::B => (&[\"Gamma\"], &[\"Beta\"]),\n",
    );
    let report = run(&ws);
    assert!(
        report.findings.iter().any(|f| {
            f.rule == "event-emission-coverage"
                && f.message.contains("Gamma")
                && f.message.contains("cause-link table")
        }),
        "{}",
        render_human(&report.findings, 5)
    );
}

#[test]
fn cause_table_covering_every_non_root_variant_is_clean() {
    let ws = cause_table_workspace(
        "            CauseKind::A => (&[\"Alpha\"], &[\"Beta\", \"Gamma\"]),\n",
    );
    let report = run(&ws);
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule != "event-emission-coverage"),
        "{}",
        render_human(&report.findings, 5)
    );
}

// ----- event-emission-coverage: provenance emission sites --------------

fn system_workspace(body: &str) -> Workspace {
    let system = SourceFile::from_source("crates/core/src/system.rs", body);
    Workspace::from_sources("/nonexistent", vec![system])
}

#[test]
fn uncaused_emission_sites_require_an_audited_allow() {
    let bare = system_workspace(
        "impl System {\n    fn control(&mut self) {\n        self.observe(now, ev);\n    }\n}\n",
    );
    assert!(
        run(&bare).findings.iter().any(|f| {
            f.rule == "event-emission-coverage" && f.message.contains("provenance root")
        }),
        "bare observe() must be flagged"
    );
    let justified = system_workspace(
        "impl System {\n    fn control(&mut self) {\n        \
         // lint:allow(event-emission-coverage, reason = \"genuine root\")\n        \
         self.observe(now, ev);\n    }\n}\n",
    );
    let report = run(&justified);
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

#[test]
fn raw_on_event_and_emit_record_calls_are_flagged() {
    let report = run(&system_workspace(
        "fn f(log: &mut EventLog) {\n    log.push_record(rec);\n    log.push_caused(t, None, ev);\n    emit_record(Some(log), id, t, None, ev);\n}\n",
    ));
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "event-emission-coverage")
        .map(|f| f.message.as_str())
        .collect();
    for raw in ["push_record", "push_caused"] {
        assert!(
            messages.iter().any(|m| m.contains(raw)),
            "raw {raw}: {messages:?}"
        );
    }
    assert!(
        messages.iter().any(|m| m.contains("emit_record")),
        "raw emit_record: {messages:?}"
    );
}

#[test]
fn emitter_definitions_and_caused_emissions_need_no_allow() {
    // The `fn observe(` definition and `observe_linked`/`emit_caused`
    // call sites are not root-emission findings.
    let report = run(&system_workspace(
        "impl System {\n    pub fn observe(&mut self, now: f64, ev: SimEvent) -> EventId {\n        \
         self.observe_linked(now, None, ev)\n    }\n    \
         fn g(&mut self) {\n        self.observe_linked(now, Some(link), ev);\n        \
         self.emit_caused(now, kind, cause, ev);\n    }\n}\n",
    ));
    assert!(report.is_clean(), "{}", render_human(&report.findings, 1));
}

// ----- golden-schema (on-disk synthetic workspace) ---------------------

#[test]
fn golden_schema_catches_unknown_doc_probe_ids() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-doc-probe-fixture");
    std::fs::create_dir_all(&root).expect("tmpdir");
    std::fs::write(
        root.join("README.md"),
        "Run `repro explain e3` to inspect a probe.\nRun `repro explain e99` too.\n",
    )
    .expect("write");
    let events = SourceFile::from_source(
        "crates/bench/src/events.rs",
        "pub const PROBE_IDS: [&str; 2] = [\"e3\", \"e11\"];\n",
    );
    let ws = Workspace::from_sources(root, vec![events]);
    let report = run(&ws);
    let golden_findings: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "golden-schema")
        .map(|f| (f.file.as_str(), f.line, f.message.as_str()))
        .collect();
    // Only the unknown id is flagged, at its own README line;
    // `explain e3` names a real probe.
    assert_eq!(golden_findings.len(), 1, "{golden_findings:?}");
    let (file, line, message) = golden_findings[0];
    assert_eq!((file, line), ("README.md", 2), "{golden_findings:?}");
    assert!(message.contains("`e99`"), "{golden_findings:?}");
}

#[test]
fn golden_schema_validates_perfetto_traces_and_flow_pairing() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-trace-fixture");
    let report_dir = root.join("report");
    std::fs::create_dir_all(&report_dir).expect("tmpdir");
    // An unmatched flow start, an X slice without dur, and a bogus phase
    // letter; the well-formed entries draw no findings.
    std::fs::write(
        report_dir.join("e3.trace.json"),
        "[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\"}},\n\
         {\"name\":\"FaultActivated\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":100.000,\"pid\":1,\"tid\":103,\"args\":{\"core\":3}},\n\
         {\"name\":\"TestLaunched\",\"cat\":\"session\",\"ph\":\"X\",\"ts\":150.000,\"pid\":1,\"tid\":103},\n\
         {\"name\":\"activation\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":2,\"ts\":100.000,\"pid\":1,\"tid\":103},\n\
         {\"name\":\"oops\",\"ph\":\"q\",\"ts\":1.000,\"pid\":1,\"tid\":1}\n\
         ]\n",
    )
    .expect("write");
    let events = SourceFile::from_source(
        "crates/bench/src/events.rs",
        "pub const PROBE_IDS: [&str; 1] = [\"e3\"];\n",
    );
    let ws = Workspace::from_sources(root, vec![events]);
    let report = run(&ws);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "golden-schema")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("missing `dur`")),
        "X without dur: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("unknown trace phase letter `q`")),
        "bad phase: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("do not pair up")),
        "unmatched flow: {messages:?}"
    );
    // The valid metadata and instant entries drew no findings of their own.
    assert_eq!(messages.len(), 3, "{messages:?}");
}

#[test]
fn golden_schema_checks_trace_and_diff_doc_ids() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-traceid-fixture");
    std::fs::create_dir_all(&root).expect("tmpdir");
    std::fs::write(
        root.join("README.md"),
        "Run `repro trace e3` then `repro trace q9`.\n\
         Compare with `repro diff e3 e42` or `repro diff e11 --seed2 111`.\n",
    )
    .expect("write");
    let events = SourceFile::from_source(
        "crates/bench/src/events.rs",
        "pub const PROBE_IDS: [&str; 3] = [\"e3\", \"e11\", \"a1\"];\n",
    );
    let ws = Workspace::from_sources(root, vec![events]);
    let report = run(&ws);
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "golden-schema")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`q9`")),
        "unknown trace id: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`e42`")),
        "unknown second diff id: {messages:?}"
    );
    // e3, e11 and the --seed2 flag drew no findings.
    assert_eq!(messages.len(), 2, "{messages:?}");
}

#[test]
fn golden_schema_checks_doc_metric_names_against_metric_keys() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-metric-fixture");
    std::fs::create_dir_all(&root).expect("tmpdir");
    std::fs::write(
        root.join("README.md"),
        "Scrape `manytest_tests_completed_total` (and the stale \
         `manytest_bogus_metric`) from metrics.prom.\n\
         Rust paths like `manytest_sim::obs` and the crate name \
         `manytest_bench` are not metrics.\n",
    )
    .expect("write");
    let report_src = SourceFile::from_source(
        "crates/bench/src/report.rs",
        "pub const METRIC_KEYS: [&str; 1] = [\"manytest_tests_completed_total\"];\n",
    );
    let ws = Workspace::from_sources(root, vec![report_src]);
    let report = run(&ws);
    let metric_findings: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "golden-schema" && f.message.contains("metric"))
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(
        metric_findings.len(),
        1,
        "only the stale metric is flagged: {metric_findings:?}"
    );
    assert!(metric_findings[0].contains("`manytest_bogus_metric`"));
}

#[test]
fn golden_schema_requires_every_verdict_to_name_an_existing_test() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-verdict-fixture");
    std::fs::create_dir_all(&root).expect("tmpdir");
    std::fs::write(
        root.join("EXPERIMENTS.md"),
        "*Verdict:* reproduced; nothing asserts it.\n\n\
         *Verdict:* reproduced. `e1_gone` (`crates/bench/tests/verdicts.rs`)\n\
         asserts it.\n\n\
         *Verdict:* reproduced. `e2_holds`\n\
         (`crates/bench/tests/verdicts.rs`) asserts it.\n",
    )
    .expect("write");
    let verdicts = SourceFile::from_source(
        "crates/bench/tests/verdicts.rs",
        "#[test]\n#[ignore]\nfn e2_holds() {}\n\nfn e1_gone() {}\n",
    );
    let ws = Workspace::from_sources(root, vec![verdicts]);
    let report = run(&ws);
    let flagged: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "golden-schema" && f.message.contains("verdict"))
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // The verdict naming no test and the one naming a fn that is not a
    // test are flagged at their first lines; `e2_holds` is a real test.
    assert_eq!(
        flagged,
        [("EXPERIMENTS.md", 1), ("EXPERIMENTS.md", 3)],
        "{flagged:?}"
    );
}

// ----- acceptance: seeded violations fail, the real tree passes --------

#[test]
fn seeding_a_hashmap_into_core_fails_the_workspace_lint() {
    let seeded = SourceFile::from_source(
        "crates/core/src/seeded.rs",
        "use std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
    );
    let report = lint_files(vec![seeded]);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "nondet-collections" && f.file == "crates/core/src/seeded.rs"));
}

#[test]
fn self_check_repo_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace loads");
    assert!(
        report.is_clean(),
        "the repository must lint clean:\n{}",
        render_human(&report.findings, report.files_scanned)
    );
    // Sanity: the scan actually visited the tree.
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
}
