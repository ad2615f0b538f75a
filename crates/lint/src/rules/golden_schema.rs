//! `golden-schema`: the golden JSONs must parse, their kind keys must be
//! a subset of the `SimEvent` enum, the probe ids the docs reference
//! must exist in `crates/bench/src/events.rs`, and any `manytest_*`
//! metric name the docs quote must be declared in `METRIC_KEYS`
//! (`crates/bench/src/report.rs`).
//!
//! Perfetto exports (`*.trace.json`, in the golden dir or a generated
//! `report/` directory) speak the Chrome trace-event schema instead:
//! every entry needs `name`/`ph`/`pid`/`tid`, the phase letter must be
//! one of `M`/`X`/`i`/`s`/`f` with its letter-specific fields (`dur` on
//! slices, `id` on flows, `bp` on flow finishes), and every flow start
//! must pair with a finish — a half-arrow renders as nothing in the UI,
//! silently hiding a causal link.
//!
//! One golden file speaks a different schema: `kernels_baseline.json`
//! (the scaling gate) pins phase-profile counters per mesh edge, so its
//! keys must be `g<edge>.<counter>` with `<counter>` a real
//! `PhaseProfile` field — the same staleness protection, different
//! vocabulary.
//!
//! The golden per-kind count gate only protects the repo while the
//! golden files themselves are well-formed and speak the same schema as
//! the event enum — a typo'd kind key would silently never match
//! anything. The doc halves catch drift the other way: `repro explain
//! e11`-style commands quoted in README/EXPERIMENTS must name probes the
//! binary actually knows, and a documented Prometheus metric that the
//! report renderer no longer emits would silently break scrapes.

use super::event_coverage::enum_variants;
use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::Workspace;

pub struct GoldenSchema;

const OBS_FILE: &str = "crates/sim/src/obs.rs";
const EVENTS_FILE: &str = "crates/bench/src/events.rs";
const REPORT_FILE: &str = "crates/bench/src/report.rs";
const GOLDEN_DIR: &str = "crates/bench/tests/golden";
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
        "golden JSONs must parse with SimEvent kind keys; doc probe ids and metric names must exist"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let kinds: Vec<String> = ws
            .file(OBS_FILE)
            .map(|obs| {
                enum_variants(obs, "SimEvent")
                    .into_iter()
                    .map(|t| t.text)
                    .collect()
            })
            .unwrap_or_default();
        let counters: Vec<String> = ws
            .file(OBS_FILE)
            .map(|obs| struct_fields(obs, "PhaseProfile"))
            .unwrap_or_default();
        let probe_ids = string_array(ws, EVENTS_FILE, "PROBE_IDS");
        self.check_golden_files(ws, &kinds, &counters, &probe_ids, out);
        self.check_trace_files(ws, out);
        self.check_doc_probe_ids(ws, &probe_ids, out);
        self.check_doc_metric_keys(ws, &string_array(ws, REPORT_FILE, "METRIC_KEYS"), out);
    }
}

impl GoldenSchema {
    fn check_golden_files(
        &self,
        ws: &Workspace,
        kinds: &[String],
        counters: &[String],
        probe_ids: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        let dir = ws.root.join(GOLDEN_DIR);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return; // no golden gate in this tree
        };
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let file_name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if file_name.ends_with(".trace.json") {
                continue; // Perfetto schema; handled by check_trace_files
            }
            let rel = format!("{GOLDEN_DIR}/{file_name}");
            let Ok(text) = std::fs::read_to_string(&path) else {
                out.push(Finding {
                    rule: self.id(),
                    file: rel,
                    line: 1,
                    col: 1,
                    message: "golden file is unreadable".into(),
                    rationale: GOLDEN_RATIONALE,
                });
                continue;
            };
            match parse_flat_object(&text) {
                Err((line, col, msg)) => out.push(Finding {
                    rule: self.id(),
                    file: rel.clone(),
                    line,
                    col,
                    message: format!("golden file does not parse: {msg}"),
                    rationale: GOLDEN_RATIONALE,
                }),
                Ok(entries) => {
                    let is_kernels_baseline = file_name == "kernels_baseline.json";
                    for (key, line, col) in entries {
                        if is_kernels_baseline {
                            if !counters.is_empty() && !is_kernels_key(&key, counters) {
                                out.push(Finding {
                                    rule: self.id(),
                                    file: rel.clone(),
                                    line,
                                    col,
                                    message: format!(
                                        "scaling key `{key}` is not \
                                         `g<edge>.<PhaseProfile counter>`"
                                    ),
                                    rationale: GOLDEN_RATIONALE,
                                });
                            }
                        } else if !kinds.is_empty() && !kinds.contains(&key) {
                            out.push(Finding {
                                rule: self.id(),
                                file: rel.clone(),
                                line,
                                col,
                                message: format!(
                                    "kind key `{key}` is not a SimEvent variant"
                                ),
                                rationale: GOLDEN_RATIONALE,
                            });
                        }
                    }
                }
            }
            // `e3.quick.json` → probe id `e3` must be a known probe. The
            // kernels baseline is keyed by mesh edge, not probe id.
            if file_name == "kernels_baseline.json" {
                continue;
            }
            if let Some(ids) = probe_ids {
                let stem = file_name.split('.').next().unwrap_or_default();
                if !stem.is_empty() && !ids.iter().any(|i| i == stem) {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel,
                        line: 1,
                        col: 1,
                        message: format!(
                            "golden file is named for unknown probe id `{stem}`"
                        ),
                        rationale: GOLDEN_RATIONALE,
                    });
                }
            }
        }
    }

    /// Validates every Perfetto export (`*.trace.json`) found in the
    /// golden dir or a generated `report/` directory against the Chrome
    /// trace-event schema the `repro trace` writer promises.
    fn check_trace_files(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for dir in [GOLDEN_DIR, "report"] {
            let Ok(entries) = std::fs::read_dir(ws.root.join(dir)) else {
                continue;
            };
            let mut paths: Vec<_> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().ends_with(".trace.json"))
                })
                .collect();
            paths.sort();
            for path in paths {
                let file_name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let rel = format!("{dir}/{file_name}");
                let Ok(text) = std::fs::read_to_string(&path) else {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel,
                        line: 1,
                        col: 1,
                        message: "trace file is unreadable".into(),
                        rationale: TRACE_RATIONALE,
                    });
                    continue;
                };
                for (line, msg) in validate_perfetto(&text) {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel.clone(),
                        line,
                        col: 1,
                        message: msg,
                        rationale: TRACE_RATIONALE,
                    });
                }
            }
        }
    }

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
}

const GOLDEN_RATIONALE: &str =
    "the golden count gate only bites when its files parse and use real SimEvent kind \
     names; regenerate with MANYTEST_UPDATE_GOLDEN=1 rather than editing by hand";

const TRACE_RATIONALE: &str =
    "Perfetto silently drops malformed trace entries, so a schema slip hides telemetry \
     instead of failing; regenerate with `repro trace <id>` rather than editing by hand";

/// Minimal Chrome trace-event schema validation, exploiting the
/// writer's line-oriented layout (one entry per line inside `[` … `]`).
/// Returns `(line, message)` pairs.
fn validate_perfetto(text: &str) -> Vec<(u32, String)> {
    let mut errors = Vec::new();
    let mut flow_starts: Vec<String> = Vec::new();
    let mut flow_ends: Vec<String> = Vec::new();
    let trimmed = text.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return vec![(1, "trace is not a JSON array".into())];
    }
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let entry = raw.trim().trim_end_matches(',');
        if entry.is_empty() || entry == "[" || entry == "]" {
            continue;
        }
        if !entry.starts_with('{') || !entry.ends_with('}') {
            errors.push((line_no, "trace entry is not one object per line".into()));
            continue;
        }
        let field = |name: &str| -> Option<String> {
            let pat = format!("\"{name}\":");
            let start = entry.find(&pat)? + pat.len();
            let rest = &entry[start..];
            Some(if let Some(quoted) = rest.strip_prefix('"') {
                quoted.chars().take_while(|&c| c != '"').collect()
            } else {
                rest.chars()
                    .take_while(|&c| c != ',' && c != '}')
                    .collect()
            })
        };
        for required in ["name", "ph", "pid", "tid"] {
            if field(required).is_none() {
                errors.push((line_no, format!("trace entry is missing `{required}`")));
            }
        }
        let Some(ph) = field("ph") else { continue };
        match ph.as_str() {
            "M" => {}
            "X" => {
                if field("dur").is_none() {
                    errors.push((line_no, "duration slice (`ph`:`X`) is missing `dur`".into()));
                }
            }
            "i" => {} // instants only need the shared `ts` check below
            "s" | "f" => match field("id") {
                Some(id) => {
                    if ph == "s" {
                        flow_starts.push(id);
                    } else {
                        if field("bp") != Some("e".into()) {
                            errors.push((
                                line_no,
                                "flow finish (`ph`:`f`) is missing `\"bp\":\"e\"`".into(),
                            ));
                        }
                        flow_ends.push(id);
                    }
                }
                None => errors.push((line_no, format!("flow event (`ph`:`{ph}`) is missing `id`"))),
            },
            other => errors.push((line_no, format!("unknown trace phase letter `{other}`"))),
        }
        if ph != "M" && field("ts").is_none() {
            errors.push((line_no, format!("`ph`:`{ph}` entry is missing `ts`")));
        }
    }
    flow_starts.sort();
    flow_ends.sort();
    if flow_starts != flow_ends {
        errors.push((
            1,
            format!(
                "flow starts and finishes do not pair up ({} starts, {} finishes)",
                flow_starts.len(),
                flow_ends.len()
            ),
        ));
    }
    errors
}

/// A kernels-baseline key is `g<edge>.<counter>` with a numeric edge and
/// a counter that is a real `PhaseProfile` field.
fn is_kernels_key(key: &str, counters: &[String]) -> bool {
    let Some((grid, counter)) = key.split_once('.') else {
        return false;
    };
    let Some(edge) = grid.strip_prefix('g') else {
        return false;
    };
    !edge.is_empty()
        && edge.chars().all(|c| c.is_ascii_digit())
        && counters.iter().any(|c| c == counter)
}

/// Extracts the field names of `struct <name> { … }` from `file`: every
/// identifier directly followed by `:` inside the braces. Good enough
/// for flat counter structs (no nested braced types). Empty when the
/// struct is absent.
fn struct_fields(file: &crate::source::SourceFile, name: &str) -> Vec<String> {
    let code: Vec<_> = file.code_tokens().collect();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].is_ident("struct") && code[i + 1].is_ident(name) {
            break;
        }
        i += 1;
    }
    if i + 1 >= code.len() {
        return Vec::new();
    }
    while i < code.len() && !code[i].is_punct('{') {
        i += 1;
    }
    let mut fields = Vec::new();
    while i + 1 < code.len() && !code[i + 1].is_punct('}') {
        i += 1;
        if code[i].kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            fields.push(code[i].text.clone());
        }
    }
    fields
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

/// Parses a flat JSON object `{ "key": <unsigned int>, … }`, returning
/// each key with its 1-based position. Errors carry a position too.
#[allow(clippy::type_complexity)]
fn parse_flat_object(text: &str) -> Result<Vec<(String, u32, u32)>, (u32, u32, String)> {
    let mut p = JsonScanner::new(text);
    p.skip_ws();
    p.expect('{')?;
    let mut entries = Vec::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.next();
        return Ok(entries);
    }
    loop {
        p.skip_ws();
        let (line, col) = (p.line, p.col);
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        p.unsigned()?;
        entries.push((key, line, col));
        p.skip_ws();
        match p.next() {
            Some(',') => continue,
            Some('}') => break,
            other => {
                return Err((
                    p.line,
                    p.col,
                    format!("expected `,` or `}}`, found {other:?}"),
                ))
            }
        }
    }
    Ok(entries)
}

struct JsonScanner<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> JsonScanner<'a> {
    fn new(text: &'a str) -> Self {
        JsonScanner {
            chars: text.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), (u32, u32, String)> {
        let (line, col) = (self.line, self.col);
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err((line, col, format!("expected `{want}`, found {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, (u32, u32, String)> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            let (line, col) = (self.line, self.col);
            match self.next() {
                Some('"') => return Ok(s),
                Some('\\') => {
                    s.push(self.next().ok_or((line, col, "unterminated escape".to_string()))?);
                }
                Some(c) => s.push(c),
                None => return Err((line, col, "unterminated string".into())),
            }
        }
    }

    fn unsigned(&mut self) -> Result<u64, (u32, u32, String)> {
        let (line, col) = (self.line, self.col);
        let mut digits = String::new();
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            digits.push(self.next().unwrap_or('0'));
        }
        digits
            .parse()
            .map_err(|_| (line, col, "expected an unsigned integer count".into()))
    }
}
