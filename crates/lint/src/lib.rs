//! `manytest-lint` — workspace determinism & panic-safety static
//! analyzer.
//!
//! Everything the reproduction claims rests on bit-level deterministic
//! replay; this crate enforces the source-level half of that property
//! *before* a nondeterminism bug can corrupt a golden file. It is an
//! offline, dependency-free analyzer: a lightweight Rust lexer
//! ([`lexer`]), a [`rules::Rule`] registry, per-finding diagnostics
//! (`file:line:col`), and audited inline suppressions
//! (`// lint:allow(<rule>, reason = "…")` — an allow that silences
//! nothing is itself an error).
//!
//! Run it with:
//!
//! ```sh
//! cargo run -p manytest-lint -- --workspace          # human output
//! cargo run -p manytest-lint -- --workspace --json   # CI artifact
//! ```
//!
//! See the README's "Static analysis" section for the rule table.

pub mod allow;
pub mod callgraph;
pub mod diag;
pub mod effects;
#[cfg(test)]
mod json;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod symbols;

use diag::Finding;
use rules::is_known_rule;
use source::{SourceFile, Workspace};
use std::path::Path;

/// The outcome of a lint run.
pub struct LintReport {
    /// Surviving findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints the workspace rooted at `root` (file rules, workspace rules,
/// allow audit).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let ws = Workspace::load(root)?;
    Ok(run(&ws))
}

/// Lints individual files (no workspace rules — cross-file facts need
/// the full tree).
pub fn lint_files(files: Vec<SourceFile>) -> LintReport {
    let ws = Workspace::from_sources(Path::new("/nonexistent"), files);
    run_inner(&ws, false)
}

/// Review-scoped lint (`--changed REF`): loads the whole workspace
/// (cross-file rules need the full tree to resolve calls and audits)
/// but only *reports* findings — and allow-audit complaints — for the
/// `changed` workspace-relative paths.
pub fn lint_workspace_changed(root: &Path, changed: &[String]) -> std::io::Result<LintReport> {
    let ws = Workspace::load(root)?;
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for file in &ws.files {
        if changed.iter().any(|p| p == &file.rel_path) {
            scanned += 1;
            findings.extend(run_file_rules(file));
        }
    }
    findings.extend(
        run_workspace_rules(&ws)
            .into_iter()
            .filter(|f| changed.iter().any(|p| p == &f.file)),
    );
    let findings = audit_allows(&ws, findings, Some(changed));
    Ok(LintReport {
        findings,
        files_scanned: scanned,
    })
}

/// Runs every registered rule plus the allow audit over a loaded
/// workspace.
pub fn run(ws: &Workspace) -> LintReport {
    run_inner(ws, true)
}

fn run_inner(ws: &Workspace, workspace_rules: bool) -> LintReport {
    let mut findings = Vec::new();
    for file in &ws.files {
        findings.extend(run_file_rules(file));
    }
    if workspace_rules {
        findings.extend(run_workspace_rules(ws));
    }
    let findings = audit_allows(ws, findings, None);
    LintReport {
        findings,
        files_scanned: ws.files.len(),
    }
}

/// The per-file pass: every file rule plus the `malformed-effect` meta
/// audit.
fn run_file_rules(file: &SourceFile) -> Vec<Finding> {
    let registry = rules::registry();
    let mut findings = Vec::new();
    for rule in &registry {
        rule.check_file(file, &mut findings);
    }
    let (fns, _) = symbols::extract_file(file, 0);
    for note in effects::notes_in(file, 0, &fns) {
        if let Some(why) = &note.malformed {
            findings.push(Finding {
                rule: "malformed-effect",
                file: file.rel_path.clone(),
                line: note.line,
                col: note.col,
                message: format!("unparseable lint:effect: {why}"),
                rationale: EFFECT_RATIONALE,
            });
        }
    }
    findings
}

/// The cross-file pass (call-graph rules, trace/doc coherence).
fn run_workspace_rules(ws: &Workspace) -> Vec<Finding> {
    let registry = rules::registry();
    let mut findings = Vec::new();
    for rule in &registry {
        rule.check_workspace(ws, &mut findings);
    }
    findings
}

/// Applies `lint:allow` suppressions, then reports the allows that are
/// malformed, name an unknown rule, or silenced nothing. When `scope`
/// is `Some`, allow-audit findings are only reported for files in the
/// scope (suppression still considers every file) — `--changed` mode
/// must not blame unchanged files for allows it did not re-evaluate.
fn audit_allows(ws: &Workspace, findings: Vec<Finding>, scope: Option<&[String]>) -> Vec<Finding> {
    // (file index, allow index) → times used.
    let mut used: Vec<Vec<u32>> = ws
        .files
        .iter()
        .map(|f| vec![0u32; f.allows.len()])
        .collect();
    let mut kept: Vec<Finding> = Vec::new();
    'findings: for finding in findings {
        if let Some(fi) = ws.files.iter().position(|f| f.rel_path == finding.file) {
            for (ai, allow) in ws.files[fi].allows.iter().enumerate() {
                if allow.malformed.is_none()
                    && allow.rule == finding.rule
                    && allow.target_line == finding.line
                {
                    used[fi][ai] += 1;
                    continue 'findings;
                }
            }
        }
        kept.push(finding);
    }
    for (fi, file) in ws.files.iter().enumerate() {
        if scope.is_some_and(|s| !s.iter().any(|p| p == &file.rel_path)) {
            continue;
        }
        for (ai, allow) in file.allows.iter().enumerate() {
            if let Some(why) = &allow.malformed {
                kept.push(Finding {
                    rule: "malformed-allow",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!("unparseable lint:allow: {why}"),
                    rationale: ALLOW_RATIONALE,
                });
            } else if !is_known_rule(&allow.rule) {
                kept.push(Finding {
                    rule: "malformed-allow",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!("lint:allow names unknown rule `{}`", allow.rule),
                    rationale: ALLOW_RATIONALE,
                });
            } else if used[fi][ai] == 0 {
                kept.push(Finding {
                    rule: "unused-allow",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!(
                        "lint:allow({}) suppresses nothing on line {}",
                        allow.rule, allow.target_line
                    ),
                    rationale: "stale allows hide future regressions; delete the comment or \
                                move it next to the violation it justifies",
                });
            }
        }
    }
    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    kept
}

const ALLOW_RATIONALE: &str =
    "the allow syntax is lint:allow(<rule>, reason = \"…\") — the reason is mandatory \
     because suppressions are audited in review";

const EFFECT_RATIONALE: &str =
    "the effect syntax is lint:effect(none|warmup|alloc|lock|io|panic[+…], reason = \"…\") \
     on the line above (or trailing) the fn it describes — the declared set replaces \
     inference for that fn, so the spec and reason are audited in review";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_matching_finding_and_is_counted_used() {
        let src = "use std::collections::HashMap; // lint:allow(nondet-collections, reason = \"doc example\")\n";
        let report = lint_files(vec![SourceFile::from_source("crates/core/src/x.rs", src)]);
        assert!(report.is_clean(), "findings: {:?}", report.findings);
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint:allow(nondet-collections, reason = \"nothing here\")\nfn f() {}\n";
        let report = lint_files(vec![SourceFile::from_source("crates/core/src/x.rs", src)]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_malformed() {
        let src = "// lint:allow(no-such-rule, reason = \"hm\")\nfn f() {}\n";
        let report = lint_files(vec![SourceFile::from_source("crates/core/src/x.rs", src)]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "malformed-allow");
    }

    #[test]
    fn findings_are_sorted_and_spanned() {
        let src = "use std::collections::{HashMap, HashSet};\n";
        let report = lint_files(vec![SourceFile::from_source("crates/sim/src/x.rs", src)]);
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings[0].col < report.findings[1].col);
        assert_eq!(report.findings[0].line, 1);
    }
}
