//! `golden-schema`: the docs must agree with the code.
//!
//! The docs must name real things: `repro explain e11`-style commands
//! quoted in README/EXPERIMENTS must name probes in `PROBE_IDS`
//! (`crates/bench/src/events.rs`), and any `manytest_*` metric name they
//! quote must be declared in `METRIC_KEYS` (`crates/bench/src/report.rs`)
//! — a documented Prometheus metric that the report renderer no longer
//! emits would silently break scrapes. Every `*Verdict:*` paragraph must
//! name, in backticks, a `#[test]` fn that exists in the workspace: a
//! verdict no test asserts can go stale without failing anything.
//!
//! The golden store (`crates/bench/tests/golden/quick.json`) needs no
//! lint: `repro regress` fails on a store that does not parse and on any
//! key that is missing from it or that the current run does not produce.
//! Nor do Perfetto exports: `crates/bench/src/trace.rs` checks the
//! trace-event schema on real probe exports in its unit tests.

use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::Workspace;
use std::collections::BTreeSet;

pub struct GoldenSchema;

const EVENTS_FILE: &str = "crates/bench/src/events.rs";
const REPORT_FILE: &str = "crates/bench/src/report.rs";
const DOC_FILES: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// Workspace crate names in path form — `manytest_sim::…` in a doc is a
/// Rust path, not a metric reference.
const CRATE_NAMES: [&str; 10] = [
    "manytest_sim",
    "manytest_core",
    "manytest_bench",
    "manytest_lint",
    "manytest_power",
    "manytest_noc",
    "manytest_aging",
    "manytest_map",
    "manytest_sbst",
    "manytest_workload",
];

impl Rule for GoldenSchema {
    fn id(&self) -> &'static str {
        "golden-schema"
    }

    fn description(&self) -> &'static str {
        "doc probe ids, metric names and verdict tests must exist"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        self.check_doc_probe_ids(ws, &string_array(ws, EVENTS_FILE, "PROBE_IDS"), out);
        self.check_doc_metric_keys(ws, &string_array(ws, REPORT_FILE, "METRIC_KEYS"), out);
        self.check_doc_verdict_tests(ws, out);
    }
}

impl GoldenSchema {
    /// `explain`/`report`/`trace`/`diff <id>` commands quoted in the
    /// docs must name real probes. `diff` takes up to two ids, so after
    /// a valid first id the following word is checked too.
    fn check_doc_probe_ids(
        &self,
        ws: &Workspace,
        probe_ids: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        const PROBE_COMMANDS: [&str; 4] = ["explain ", "report ", "trace ", "diff "];
        let Some(ids) = probe_ids else { return };
        for doc in DOC_FILES {
            let Ok(text) = std::fs::read_to_string(ws.root.join(doc)) else {
                continue;
            };
            for (line_no, line) in text.lines().enumerate() {
                for command in PROBE_COMMANDS {
                    let mut search_from = 0usize;
                    while let Some(pos) = line[search_from..].find(command) {
                        let mut word_start = search_from + pos + command.len();
                        // `diff <a> <b>`: keep consuming words while they
                        // look like probe ids, flagging each unknown one.
                        loop {
                            let word: String = line[word_start..]
                                .chars()
                                .take_while(|c| c.is_ascii_alphanumeric())
                                .collect();
                            if !looks_like_probe_id(&word) {
                                break;
                            }
                            if !ids.iter().any(|i| *i == word) {
                                out.push(Finding {
                                    rule: self.id(),
                                    file: doc.to_string(),
                                    line: (line_no + 1) as u32,
                                    col: (word_start + 1) as u32,
                                    message: format!(
                                        "doc references probe id `{word}` which is not in \
                                         PROBE_IDS ({EVENTS_FILE})"
                                    ),
                                    rationale: "a quoted `repro <subcommand> <id>` command must \
                                                keep working; update the doc or add the probe",
                                });
                            }
                            let after = word_start + word.len();
                            if command == "diff " && line[after..].starts_with(' ') {
                                word_start = after + 1;
                            } else {
                                break;
                            }
                        }
                        search_from = word_start;
                    }
                }
            }
        }
    }

    /// Any `manytest_*` metric name the docs quote must be declared in
    /// `METRIC_KEYS` — a scrape config copied from the README must keep
    /// matching what `metrics.prom` actually emits.
    fn check_doc_metric_keys(
        &self,
        ws: &Workspace,
        metric_keys: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        let Some(keys) = metric_keys else { return };
        for doc in DOC_FILES {
            let Ok(text) = std::fs::read_to_string(ws.root.join(doc)) else {
                continue;
            };
            for (line_no, line) in text.lines().enumerate() {
                let mut search_from = 0usize;
                while let Some(pos) = line[search_from..].find("manytest_") {
                    let start = search_from + pos;
                    let token: String = line[start..]
                        .chars()
                        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                        .collect();
                    search_from = start + token.len();
                    // Rust paths (`manytest_sim::obs`) and bare crate
                    // names are not metric references.
                    if line[search_from..].starts_with("::")
                        || CRATE_NAMES.iter().any(|c| *c == token)
                    {
                        continue;
                    }
                    if !keys.iter().any(|k| *k == token) {
                        out.push(Finding {
                            rule: self.id(),
                            file: doc.to_string(),
                            line: (line_no + 1) as u32,
                            col: (start + 1) as u32,
                            message: format!(
                                "doc references metric `{token}` which is not in METRIC_KEYS \
                                 ({REPORT_FILE})"
                            ),
                            rationale: "a documented Prometheus metric must exist in \
                                        metrics.prom; update the doc or add the metric",
                        });
                    }
                }
            }
        }
    }

    /// Every `*Verdict:*` paragraph (up to the next blank line) must name
    /// a workspace `#[test]` fn in backticks.
    fn check_doc_verdict_tests(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let tests = test_fn_names(ws);
        for doc in DOC_FILES {
            let Ok(text) = std::fs::read_to_string(ws.root.join(doc)) else {
                continue;
            };
            let lines: Vec<&str> = text.lines().collect();
            for (start, line) in lines.iter().enumerate() {
                if !line.starts_with("*Verdict:*") {
                    continue;
                }
                let len = lines[start..]
                    .iter()
                    .position(|l| l.trim().is_empty())
                    .unwrap_or(lines.len() - start);
                let paragraph = lines[start..start + len].join("\n");
                // Odd segments between backticks are code spans.
                let mut spans = paragraph.split('`').skip(1).step_by(2);
                if spans.any(|span| tests.contains(span)) {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    file: doc.to_string(),
                    line: (start + 1) as u32,
                    col: 1,
                    message: "verdict names no workspace `#[test]` fn in backticks".into(),
                    rationale: "a verdict must name, in backticks, the test that keeps it \
                                true; name the test or write one",
                });
            }
        }
    }
}

/// Names of every `#[test]` fn in the workspace (the first `fn` after a
/// `#[test]` attribute, skipping any attributes stacked between).
fn test_fn_names(ws: &Workspace) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for file in &ws.files {
        let code: Vec<_> = file.code_tokens().collect();
        for (i, window) in code.windows(4).enumerate() {
            let is_test_attr = window[0].is_punct('#')
                && window[1].is_punct('[')
                && window[2].is_ident("test")
                && window[3].is_punct(']');
            if !is_test_attr {
                continue;
            }
            let rest = &code[i + 4..];
            if let Some(at) = rest.iter().position(|t| t.is_ident("fn")) {
                if let Some(name) = rest.get(at + 1) {
                    names.insert(name.text.as_str());
                }
            }
        }
    }
    names
}

/// A probe id is a short letter+digits token (`e3`, `a6`, `e11`).
fn looks_like_probe_id(word: &str) -> bool {
    let mut chars = word.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
        && chars.clone().next().is_some()
        && chars.all(|c| c.is_ascii_digit())
}

/// Extracts a `const NAME: [&str; N] = ["…", …]` string-array literal
/// from `path`. `None` when the file or array is absent (synthetic
/// workspaces without that crate).
fn string_array(ws: &Workspace, path: &str, name: &str) -> Option<Vec<String>> {
    let file = ws.file(path)?;
    let code: Vec<_> = file.code_tokens().collect();
    let start = code.iter().position(|t| t.is_ident(name))?;
    // Skip the type annotation (`: [&str; 17]`): the literal starts at
    // the first `[` after the `=`.
    let eq = code[start..].iter().position(|t| t.is_punct('='))? + start;
    let open = code[eq..].iter().position(|t| t.is_punct('['))? + eq;
    let mut items = Vec::new();
    for tok in &code[open + 1..] {
        if tok.is_punct(']') {
            return Some(items);
        }
        if tok.kind == TokenKind::Str {
            items.push(tok.text.clone());
        }
    }
    None
}
