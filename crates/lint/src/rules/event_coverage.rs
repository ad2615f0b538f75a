//! `event-emission-coverage`: every `SimEvent` variant must be
//! constructed in non-test code *and* reconciled in the audit layer,
//! every non-root variant must have a cause-link table entry, and
//! every emission site in the control loop must participate in the
//! provenance DAG.
//!
//! The telemetry contract is double-entry: each decision is emitted as a
//! structured event and folded into a report aggregate, and
//! `crates/core/src/audit.rs` reconciles the two. A variant that exists
//! but is never emitted is dead telemetry; one that is emitted but not
//! audited is an invariant hole — deleting an audit arm must fail the
//! lint, not just the runtime tests.
//!
//! The schema is found by declaration, wherever it lives in a non-test
//! file under `crates/sim/src/`: the file that declares `enum SimEvent`
//! holds the variants (and is left out of the construction scan), and
//! `CauseKind::expected` and `const ROOT_KINDS` may sit in it or in a
//! sibling. A workspace with the audit layer but no `SimEvent` is a
//! finding, so moving or renaming the schema cannot silently turn the
//! rule off. Synthetic workspaces without an audit file opt out of the
//! variant halves.
//!
//! The cause-link half reads `CauseKind::expected`: every variant not
//! named in `ROOT_KINDS` must appear as a *target* (the second `&[…]`
//! group of an arm) somewhere in that table, otherwise the runtime
//! validator would reject every emission of the kind — the lint fails
//! closed at review time instead of at run time. Synthetic workspaces
//! without a `CauseKind::expected` opt out of this half.
//!
//! The provenance half guards every non-test line under
//! `crates/core/src/`, where the control loop lives (`system.rs` and
//! one module per phase under `system/`):
//!
//! * calling `EventLog::push_record` or `push_caused` directly is banned
//!   — a raw log write bypasses the run's [`EventId`] minting, so the
//!   record would fall outside the DAG the audit validates;
//! * each call site of the *uncaused* emitters (`observe`, raw
//!   `emit_record`) mints a potential DAG root and must carry an audited
//!   `// lint:allow(event-emission-coverage, reason = "…")` naming why
//!   the event legitimately has no cause. Linkable sites use
//!   `observe_linked`/`emit_caused`, which need no allow.

use super::Rule;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Workspace};
use crate::symbols::extract_file;

pub struct EventEmissionCoverage;

/// Where the event schema lives, in any of its non-test files.
const SIM_SRC: &str = "crates/sim/src/";
/// Where every variant must be reconciled.
const AUDIT_FILE: &str = "crates/core/src/audit.rs";
/// The enum under the coverage contract.
const ENUM_NAME: &str = "SimEvent";
/// The crate whose emission sites are under the provenance contract:
/// the control loop and everything it calls in `manytest-core`.
const CORE_SRC: &str = "crates/core/src/";
/// Emitters that mint root events (no cause link): call sites must
/// justify root status with an audited allow.
const ROOT_EMITTERS: [&str; 2] = ["observe", "emit_record"];
/// `EventLog` writes that skip the run's id counter: banned in the
/// control loop.
const RAW_LOG_WRITES: [&str; 2] = ["push_record", "push_caused"];

impl Rule for EventEmissionCoverage {
    fn id(&self) -> &'static str {
        "event-emission-coverage"
    }

    fn description(&self) -> &'static str {
        "every SimEvent variant must be emitted in non-test code and reconciled in audit.rs"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in ws.files.iter().filter(|f| f.rel_path.starts_with(CORE_SRC)) {
            check_emission_sites(self.id(), file, out);
        }
        let sim_files = || {
            ws.files
                .iter()
                .enumerate()
                .filter(|(_, f)| f.rel_path.starts_with(SIM_SRC) && !f.is_test_file())
        };
        let Some((_, schema)) = sim_files().find(|(_, f)| declares(f, "enum", ENUM_NAME)) else {
            // Fail closed on the real tree: the audit layer reconciles
            // a schema the rule can no longer find.
            if ws.file(AUDIT_FILE).is_some() {
                out.push(Finding {
                    rule: self.id(),
                    file: AUDIT_FILE.into(),
                    line: 1,
                    col: 1,
                    message: format!("no non-test file under {SIM_SRC} declares `enum {ENUM_NAME}`"),
                    rationale: "the rule finds the event schema by its declaration; a schema \
                                that was renamed or moved leaves every variant unchecked, so \
                                update ENUM_NAME or SIM_SRC with the code",
                });
            }
            return;
        };
        let variants = enum_variants(schema, ENUM_NAME);
        // Constructions anywhere outside the schema file and audit.rs,
        // in non-test code: `SimEvent` `::` `<Variant>`.
        let mut constructed: Vec<String> = Vec::new();
        for file in &ws.files {
            if file.rel_path == schema.rel_path
                || file.rel_path == AUDIT_FILE
                || file.is_test_file()
            {
                continue;
            }
            collect_variant_refs(file, true, &mut |name| constructed.push(name.to_string()));
        }
        // Reconciliations in audit.rs: a `SimEvent::X` path *or* the
        // variant's kind string (aggregate lookups like `count("X")`).
        let mut audited: Vec<String> = Vec::new();
        if let Some(audit) = ws.file(AUDIT_FILE) {
            collect_variant_refs(audit, true, &mut |name| audited.push(name.to_string()));
            for tok in audit.code_tokens() {
                if tok.kind == TokenKind::Str && !audit.is_test_line(tok.line) {
                    audited.push(tok.text.clone());
                }
            }
        }
        for v in &variants {
            if !constructed.iter().any(|c| *c == v.text) {
                out.push(Finding {
                    rule: self.id(),
                    file: schema.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} is never constructed in non-test code",
                        v.text
                    ),
                    rationale: "an event kind nothing emits is dead telemetry — wire it into \
                                the control loop or delete the variant",
                });
            }
            if !audited.iter().any(|a| a == &v.text) {
                out.push(Finding {
                    rule: self.id(),
                    file: schema.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} is not reconciled in {AUDIT_FILE}",
                        v.text
                    ),
                    rationale: "every event kind needs an audit arm (a count invariant or a \
                                sequence check) so emission bugs fail CI",
                });
            }
        }
        // Cause-link half: a non-root variant absent from the
        // `CauseKind::expected` target lists can never carry a typed
        // cause, so `validate_events` would reject every emission.
        let table = sim_files().find_map(|(i, f)| {
            let (fns, _) = extract_file(f, i);
            let expected = fns.into_iter().find(|s| {
                !s.is_test && s.owner.as_deref() == Some("CauseKind") && s.name == "expected"
            })?;
            Some((f, expected.body?))
        });
        if let Some((file, body)) = table {
            let targets = cause_link_targets(file, body);
            let roots: Vec<String> =
                sim_files().flat_map(|(_, f)| root_kind_strings(f)).collect();
            for v in &variants {
                if roots.iter().any(|r| r == &v.text)
                    || targets.iter().any(|t| t == &v.text)
                {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    file: schema.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} has no cause-link table entry in CauseKind::expected",
                        v.text
                    ),
                    rationale: "non-root events must be reachable through a typed cause \
                                edge; add a CauseKind arm targeting this kind or list it \
                                in ROOT_KINDS",
                });
            }
        }
    }
}

/// Enforces the provenance half on one control-loop file: no raw
/// event-log writes, and an audited allow on every root-emitter call
/// site. The findings this emits are the hooks the `lint:allow`
/// comments in the loop attach to — an uncaused emission without a
/// justification surfaces here, and a stale justification surfaces as
/// `unused-allow`.
fn check_emission_sites(rule_id: &'static str, file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Token> = file.code_tokens().collect();
    for i in 0..code.len() {
        let tok = code[i];
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        if RAW_LOG_WRITES.contains(&tok.text.as_str()) {
            out.push(Finding {
                rule: rule_id,
                file: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!("direct `{}` call bypasses event-id minting", tok.text),
                rationale: "records written outside observe/observe_linked/emit_caused/\
                            emit_record skip the run's EventId counter and fall outside the \
                            provenance DAG the audit validates",
            });
            continue;
        }
        // A call site of an uncaused emitter: `observe(` / `emit_record(`
        // that is not the `fn` definition itself.
        let is_call = ROOT_EMITTERS.contains(&tok.text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !(i > 0 && code[i - 1].is_ident("fn"));
        if is_call {
            out.push(Finding {
                rule: rule_id,
                file: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "uncaused emission site `{}(…)` mints a provenance root",
                    tok.text
                ),
                rationale: "root events start causal chains the run-diff and trace tools \
                            anchor to; justify each with lint:allow(event-emission-coverage, \
                            reason = \"…\") or thread a cause via observe_linked/emit_caused",
            });
        }
    }
}

/// Whether `file` declares `<keyword> <name>` (e.g. `enum SimEvent`)
/// outside its test modules.
fn declares(file: &SourceFile, keyword: &str, name: &str) -> bool {
    let code: Vec<&Token> = file.code_tokens().collect();
    code.windows(2).any(|w| {
        w[0].is_ident(keyword) && w[1].is_ident(name) && !file.is_test_line(w[0].line)
    })
}

/// Extracts the *target* kind names from the `CauseKind::expected`
/// table, whose body spans code tokens `start..=end` of `file`: the
/// string literals inside the second `&[…]` group of each
/// `(&[sources], &[targets])` arm.
fn cause_link_targets(file: &SourceFile, (start, end): (usize, usize)) -> Vec<String> {
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut bracket_group = 0u32; // ordinal of the current `[…]` in its tuple
    let mut in_bracket = false;
    let mut targets = Vec::new();
    for t in &code[start..=end] {
        if t.is_punct('(') {
            bracket_group = 0;
        } else if t.is_punct('[') {
            in_bracket = true;
            bracket_group += 1;
        } else if t.is_punct(']') {
            in_bracket = false;
        } else if in_bracket && bracket_group == 2 && t.kind == TokenKind::Str {
            targets.push(t.text.clone());
        }
    }
    targets
}

/// String literals of the `const ROOT_KINDS` initializer in `file`
/// (empty when the file does not declare it; with no declaration
/// anywhere every variant needs a table entry).
fn root_kind_strings(file: &SourceFile) -> Vec<String> {
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut i = 1;
    while i < code.len() && !(code[i - 1].is_ident("const") && code[i].is_ident("ROOT_KINDS")) {
        i += 1;
    }
    // Step over the type annotation (`[&'static str; N]` contains a
    // `;`) to the initializer.
    while i < code.len() && !code[i].is_punct('=') {
        i += 1;
    }
    let mut out = Vec::new();
    while i < code.len() && !code[i].is_punct(';') {
        if code[i].kind == TokenKind::Str {
            out.push(code[i].text.clone());
        }
        i += 1;
    }
    out
}

/// Collects `SimEvent::<Variant>` path references in `file`, skipping
/// test lines when `skip_test_lines` is set.
fn collect_variant_refs(
    file: &SourceFile,
    skip_test_lines: bool,
    sink: &mut dyn FnMut(&str),
) {
    let code: Vec<&Token> = file.code_tokens().collect();
    for i in 0..code.len().saturating_sub(3) {
        if code[i].is_ident(ENUM_NAME)
            && code[i + 1].is_punct(':')
            && code[i + 2].is_punct(':')
            && code[i + 3].kind == TokenKind::Ident
            && !(skip_test_lines && file.is_test_line(code[i].line))
        {
            sink(&code[i + 3].text);
        }
    }
}

/// Extracts the variant-name tokens of `enum <name> { … }` from a file.
///
/// Token-level walk: find `enum <name>`, then collect the identifier
/// that opens each variant at brace depth 1 (doc comments are skipped by
/// tokenization; attributes and field blocks are stepped over).
pub fn enum_variants(file: &SourceFile, name: &str) -> Vec<Token> {
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    // Find `enum <name> {`.
    while i + 2 < code.len() {
        if code[i].is_ident("enum") && code[i + 1].is_ident(name) {
            break;
        }
        i += 1;
    }
    if i + 2 >= code.len() {
        return variants;
    }
    i += 2;
    while i < code.len() && !code[i].is_punct('{') {
        i += 1; // skip generics/where clauses
    }
    if i >= code.len() {
        return variants;
    }
    i += 1; // into the enum body
    let mut depth = 1i32;
    let mut awaiting_variant = true;
    while i < code.len() && depth > 0 {
        let t = code[i];
        match () {
            _ if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => {
                depth += 1;
                i += 1;
            }
            _ if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => {
                depth -= 1;
                i += 1;
            }
            _ if depth == 1 && t.is_punct('#') => {
                // Skip a `#[…]` attribute group.
                i += 1;
                let mut attr_depth = 0i32;
                while i < code.len() {
                    if code[i].is_punct('[') {
                        attr_depth += 1;
                    } else if code[i].is_punct(']') {
                        attr_depth -= 1;
                        if attr_depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
            _ if depth == 1 && t.is_punct(',') => {
                awaiting_variant = true;
                i += 1;
            }
            _ if depth == 1 && awaiting_variant && t.kind == TokenKind::Ident => {
                variants.push((*t).clone());
                awaiting_variant = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    variants
}
