//! Effect inference: classifies every workspace function as
//! allocating / locking / doing-I/O / possibly-panicking.
//!
//! Effects are seeded at call sites from three std sink tables (macro
//! name, `Owner::method` qualified path, bare method name) and
//! propagated to callers over the call graph to a fixed point. Dynamic
//! dispatch and deliberate effects are handled by audited annotations:
//!
//! ```text
//! // lint:effect(none,  reason = "dyn PhaseObserver impls are effect-free by contract")
//! // lint:effect(warmup, reason = "allocates once while building the mesh")
//! // lint:effect(alloc+panic, reason = "arrival lane owns the session Vec")
//! ```
//!
//! An annotation attaches to the next `fn` at or below it, *fixes* that
//! function's effect set to the declared one, and cuts traversal — the
//! body is neither sink-scanned nor descended into. `none` and `warmup`
//! both declare an empty hot-path effect set (`warmup` documents that
//! the fn allocates only on documented construction paths). Because a
//! reason is mandatory, every annotation is an audited review artifact,
//! mirroring the `lint:allow` contract; unparseable ones surface as the
//! `malformed-effect` meta rule.

use crate::callgraph::{CallGraph, Recv};
use crate::lexer::TokenKind;
use crate::source::Workspace;
use crate::symbols::SymbolTable;

/// A set of effect classes, as bitflags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(pub u8);

impl EffectSet {
    pub const NONE: EffectSet = EffectSet(0);
    pub const ALLOC: EffectSet = EffectSet(1);
    pub const LOCK: EffectSet = EffectSet(2);
    pub const IO: EffectSet = EffectSet(4);
    pub const PANIC: EffectSet = EffectSet(8);

    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    pub fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Masks to the classes hot-path-purity forbids (all of them).
    pub fn label(self) -> String {
        let mut parts = Vec::new();
        if self.contains(EffectSet::ALLOC) {
            parts.push("alloc");
        }
        if self.contains(EffectSet::LOCK) {
            parts.push("lock");
        }
        if self.contains(EffectSet::IO) {
            parts.push("io");
        }
        if self.contains(EffectSet::PANIC) {
            parts.push("panic");
        }
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join("+")
        }
    }
}

/// Macro-name sinks. `assert!`/`debug_assert!` are deliberately absent:
/// input-contract asserts are the codebase's endorsed invariant idiom
/// (cf. the old panic-in-hot-path rule, which never flagged them).
const MACRO_SINKS: [(&str, EffectSet); 12] = [
    ("format", EffectSet::ALLOC),
    ("vec", EffectSet::ALLOC),
    ("println", EffectSet::IO),
    ("print", EffectSet::IO),
    ("eprintln", EffectSet::IO),
    ("eprint", EffectSet::IO),
    ("write", EffectSet::IO),
    ("writeln", EffectSet::IO),
    ("panic", EffectSet::PANIC),
    ("unreachable", EffectSet::PANIC),
    ("todo", EffectSet::PANIC),
    ("unimplemented", EffectSet::PANIC),
];

/// `Owner::method` sinks (the owner is the path segment before the last
/// `::`). An empty method matches every method of that owner.
const QUALIFIED_SINKS: [(&str, &str, EffectSet); 12] = [
    ("Box", "new", EffectSet::ALLOC),
    ("Rc", "new", EffectSet::ALLOC),
    ("Arc", "new", EffectSet::ALLOC),
    ("Vec", "with_capacity", EffectSet::ALLOC),
    ("Vec", "from", EffectSet::ALLOC),
    ("String", "from", EffectSet::ALLOC),
    ("String", "with_capacity", EffectSet::ALLOC),
    ("File", "", EffectSet::IO),
    ("OpenOptions", "", EffectSet::IO),
    ("fs", "", EffectSet::IO),
    ("io", "", EffectSet::IO),
    ("Command", "", EffectSet::IO),
];

/// Bare method-name sinks, applied only when the call graph resolved no
/// workspace target for the site — a same-named workspace method wins,
/// and its body is analyzed instead (so a pure `Store::insert` does not
/// inherit `BTreeMap::insert`'s classification, at the cost of missing
/// the std method when both exist; the annotation escape hatch covers
/// that case).
const METHOD_SINKS_SHADOWED: [(&str, EffectSet); 15] = [
    ("push", EffectSet::ALLOC),
    ("push_str", EffectSet::ALLOC),
    ("push_back", EffectSet::ALLOC),
    ("push_front", EffectSet::ALLOC),
    ("insert", EffectSet::ALLOC),
    ("extend", EffectSet::ALLOC),
    ("append", EffectSet::ALLOC),
    ("reserve", EffectSet::ALLOC),
    ("to_vec", EffectSet::ALLOC),
    ("to_string", EffectSet::ALLOC),
    ("to_owned", EffectSet::ALLOC),
    ("collect", EffectSet::ALLOC),
    ("join", EffectSet::ALLOC),
    ("split_off", EffectSet::ALLOC),
    ("flush", EffectSet::IO),
];

/// Method sinks that fire even when a workspace method shares the name:
/// a `.lock()`/`.unwrap()`/`.expect()` must never be silenced by a
/// same-named helper somewhere in the tree.
const METHOD_SINKS_ALWAYS: [(&str, EffectSet); 3] = [
    ("lock", EffectSet::LOCK),
    ("unwrap", EffectSet::PANIC),
    ("expect", EffectSet::PANIC),
];

/// One parsed (or rejected) `lint:effect` annotation.
#[derive(Debug, Clone)]
pub struct EffectNote {
    /// Declared effect set (`none`/`warmup` → empty).
    pub declared: EffectSet,
    /// The spec as written (`warmup`, `alloc+panic`, …).
    pub spec: String,
    /// 1-based position of the comment.
    pub line: u32,
    pub col: u32,
    /// File index in the workspace.
    pub file: usize,
    /// The fn this note attached to, once resolved.
    pub target_fn: Option<usize>,
    /// Why parsing or attachment failed.
    pub malformed: Option<String>,
}

/// The result of the effect-inference pass.
pub struct Effects {
    /// Fixed-point effect set per fn (annotated fns hold the declared
    /// set).
    pub of_fn: Vec<EffectSet>,
    /// Per-fn sink sites: `(call-site index, effect)` for every
    /// *directly* effectful site in that fn's own body.
    pub sinks_of: Vec<Vec<(usize, EffectSet)>>,
    /// Declared annotation per fn (`None` = inferred).
    pub declared: Vec<Option<EffectSet>>,
    /// All annotations, including malformed ones, for the meta rule.
    pub notes: Vec<EffectNote>,
}

/// Classifies one call site against the sink tables.
pub fn site_effect(name: &str, recv: &Recv, resolved: bool) -> EffectSet {
    match recv {
        Recv::Macro => {
            // `debug_assert*` is the endorsed invariant idiom — it is
            // compiled out in release, so it is not a hot-path sink.
            if name.starts_with("debug_") {
                return EffectSet::NONE;
            }
            // `assert_eq`/`assert_ne` fold onto `assert`.
            let base = name.trim_end_matches("_eq").trim_end_matches("_ne");
            MACRO_SINKS
                .iter()
                .find(|(m, _)| *m == base)
                .map(|&(_, e)| e)
                .unwrap_or(EffectSet::NONE)
        }
        Recv::Qualified(owner) => QUALIFIED_SINKS
            .iter()
            .find(|(o, m, _)| o == owner && (m.is_empty() || m == &name))
            .map(|&(_, _, e)| e)
            .unwrap_or(EffectSet::NONE),
        Recv::Method | Recv::SelfMethod | Recv::Bare => {
            if matches!(recv, Recv::Method | Recv::SelfMethod) {
                if let Some(&(_, e)) = METHOD_SINKS_ALWAYS.iter().find(|(m, _)| *m == name) {
                    return e;
                }
            }
            if resolved || matches!(recv, Recv::Bare) {
                EffectSet::NONE
            } else {
                METHOD_SINKS_SHADOWED
                    .iter()
                    .find(|(m, _)| *m == name)
                    .map(|&(_, e)| e)
                    .unwrap_or(EffectSet::NONE)
            }
        }
    }
}

/// Runs the full pass: parse annotations, seed sinks, propagate.
pub fn analyze(ws: &Workspace, table: &SymbolTable, cg: &CallGraph) -> Effects {
    let notes = collect_notes(ws, table);
    let mut declared: Vec<Option<EffectSet>> = vec![None; table.fns.len()];
    for note in &notes {
        if note.malformed.is_none() {
            if let Some(fi) = note.target_fn {
                declared[fi] = Some(note.declared);
            }
        }
    }

    // Seed: direct sink sites per fn (annotated fns are opaque).
    let mut sinks_of: Vec<Vec<(usize, EffectSet)>> = vec![Vec::new(); table.fns.len()];
    for (fi, site_ids) in cg.sites_of.iter().enumerate() {
        if declared[fi].is_some() {
            continue;
        }
        for &si in site_ids {
            let site = &cg.sites[si];
            let eff = site_effect(&site.name, &site.recv, !site.targets.is_empty());
            if !eff.is_empty() {
                sinks_of[fi].push((si, eff));
            }
        }
    }

    // Propagate to a fixed point over the (cyclic-safe) call graph.
    let mut of_fn: Vec<EffectSet> = (0..table.fns.len())
        .map(|fi| {
            declared[fi].unwrap_or_else(|| {
                sinks_of[fi]
                    .iter()
                    .fold(EffectSet::NONE, |acc, &(_, e)| acc.union(e))
            })
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (fi, site_ids) in cg.sites_of.iter().enumerate() {
            if declared[fi].is_some() {
                continue;
            }
            let mut acc = of_fn[fi];
            for &si in site_ids {
                for &callee in &cg.sites[si].targets {
                    acc = acc.union(of_fn[callee]);
                }
            }
            if acc != of_fn[fi] {
                of_fn[fi] = acc;
                changed = true;
            }
        }
    }

    Effects {
        of_fn,
        sinks_of,
        declared,
        notes,
    }
}

/// Scans every file for `lint:effect` comments and attaches each to the
/// next fn at or below it. Public because the engine reports malformed
/// notes (`malformed-effect`) even when the purity rule is inactive.
pub fn collect_notes(ws: &Workspace, table: &SymbolTable) -> Vec<EffectNote> {
    let mut notes = Vec::new();
    for (file_idx, file) in ws.files.iter().enumerate() {
        notes.extend(notes_in(file, file_idx, &table.fns));
    }
    notes
}

/// The `lint:effect` notes of one file. `fns` may be the whole
/// workspace table or a single-file extraction — attachment filters on
/// `file_idx` either way.
pub fn notes_in(
    file: &crate::source::SourceFile,
    file_idx: usize,
    fns: &[crate::symbols::FnSym],
) -> Vec<EffectNote> {
    let mut notes = Vec::new();
    {
        for tok in &file.tokens {
            if tok.kind != TokenKind::Comment {
                continue;
            }
            let body = tok.text.trim();
            let Some(rest) = body.strip_prefix("lint:effect") else {
                continue;
            };
            let mut note = EffectNote {
                declared: EffectSet::NONE,
                spec: String::new(),
                line: tok.line,
                col: tok.col,
                file: file_idx,
                target_fn: None,
                malformed: None,
            };
            match parse_spec(rest) {
                Ok((spec, set)) => {
                    note.spec = spec;
                    note.declared = set;
                    // Attach to the nearest fn in this file starting at
                    // or below the comment line.
                    note.target_fn = fns
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| f.file == file_idx && f.line >= tok.line)
                        .min_by_key(|(_, f)| f.line)
                        .map(|(i, _)| i);
                    if note.target_fn.is_none() {
                        note.malformed = Some("no fn follows the annotation".into());
                    }
                }
                Err(msg) => note.malformed = Some(msg),
            }
            notes.push(note);
        }
    }
    notes
}

/// Parses `(<spec>, reason = "…")` where spec is `none`, `warmup`, or a
/// `+`-joined subset of `alloc`/`lock`/`io`/`panic`.
fn parse_spec(rest: &str) -> Result<(String, EffectSet), String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `lint:effect`".into());
    };
    let Some(close) = rest.rfind(')') else {
        return Err("missing closing `)`".into());
    };
    let inner = &rest[..close];
    let Some((spec, reason_part)) = inner.split_once(',') else {
        return Err("expected `lint:effect(<spec>, reason = \"…\")`".into());
    };
    let spec = spec.trim();
    let set = match spec {
        "none" | "warmup" => EffectSet::NONE,
        _ => {
            let mut set = EffectSet::NONE;
            for part in spec.split('+') {
                set = set.union(match part.trim() {
                    "alloc" => EffectSet::ALLOC,
                    "lock" => EffectSet::LOCK,
                    "io" => EffectSet::IO,
                    "panic" => EffectSet::PANIC,
                    other => return Err(format!("unknown effect `{other}`")),
                });
            }
            set
        }
    };
    let reason_part = reason_part.trim();
    let reason = reason_part
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "expected `reason = \"…\"`".to_string())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    Ok((spec.to_string(), set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn analyzed(src: &str) -> (SymbolTable, CallGraph, Effects) {
        let ws = Workspace::from_sources(
            Path::new("/x"),
            vec![SourceFile::from_source("crates/core/src/a.rs", src)],
        );
        let table = SymbolTable::build(&ws);
        let cg = CallGraph::build(&ws, &table);
        let eff = analyze(&ws, &table, &cg);
        (table, cg, eff)
    }

    fn effect_of(table: &SymbolTable, eff: &Effects, name: &str) -> EffectSet {
        let i = table.fns.iter().position(|f| f.name == name).unwrap();
        eff.of_fn[i]
    }

    #[test]
    fn sinks_seed_and_propagate_three_deep() {
        let (table, _, eff) = analyzed(
            "fn leaf() { let v = Box::new(1); }\n\
             fn mid() { leaf(); }\n\
             fn top() { mid(); }\n\
             fn clean() { let x = 1 + 2; }\n",
        );
        assert_eq!(effect_of(&table, &eff, "leaf"), EffectSet::ALLOC);
        assert_eq!(effect_of(&table, &eff, "mid"), EffectSet::ALLOC);
        assert_eq!(effect_of(&table, &eff, "top"), EffectSet::ALLOC);
        assert_eq!(effect_of(&table, &eff, "clean"), EffectSet::NONE);
    }

    #[test]
    fn effect_classes_union_across_the_graph() {
        let (table, _, eff) = analyzed(
            "fn a() { format!(\"x\"); }\n\
             fn b() { let g = guard.lock(); }\n\
             fn c(x: Option<u32>) { a(); b(); x.unwrap(); }\n",
        );
        let c = effect_of(&table, &eff, "c");
        assert!(c.contains(EffectSet::ALLOC));
        assert!(c.contains(EffectSet::LOCK));
        assert!(c.contains(EffectSet::PANIC));
        assert!(!c.contains(EffectSet::IO));
        assert_eq!(c.label(), "alloc+lock+panic");
    }

    #[test]
    fn annotations_fix_the_set_and_cut_traversal() {
        let (table, _, eff) = analyzed(
            "// lint:effect(warmup, reason = \"builds the mesh once\")\n\
             fn build() { let v = vec![1, 2, 3]; }\n\
             fn caller() { build(); }\n\
             // lint:effect(alloc, reason = \"owns the arrival Vec\")\n\
             fn lane() {}\n\
             fn above() { lane(); }\n",
        );
        assert_eq!(effect_of(&table, &eff, "build"), EffectSet::NONE);
        assert_eq!(effect_of(&table, &eff, "caller"), EffectSet::NONE);
        assert_eq!(effect_of(&table, &eff, "lane"), EffectSet::ALLOC);
        assert_eq!(effect_of(&table, &eff, "above"), EffectSet::ALLOC);
    }

    #[test]
    fn recursion_reaches_a_fixed_point() {
        let (table, _, eff) = analyzed(
            "fn ping(n: u32) { if n > 0 { pong(n - 1); } }\n\
             fn pong(n: u32) { out.push(n); ping(n); }\n",
        );
        assert_eq!(effect_of(&table, &eff, "ping"), EffectSet::ALLOC);
        assert_eq!(effect_of(&table, &eff, "pong"), EffectSet::ALLOC);
    }

    #[test]
    fn workspace_methods_shadow_std_method_sinks() {
        let (table, _, eff) = analyzed(
            "impl Store {\n    fn insert(&mut self, k: u32) { self.slots[k as usize] = 1; }\n}\n\
             fn user(s: &mut Store) { s.insert(3); }\n",
        );
        // `.insert(` resolved to Store::insert, whose body is pure — the
        // BTreeMap sink entry must not fire.
        let i = table.fns.iter().position(|f| f.name == "insert").unwrap();
        assert_eq!(eff.of_fn[i], EffectSet::NONE);
    }

    #[test]
    fn malformed_specs_are_reported_not_dropped() {
        let (_, _, eff) = analyzed(
            "// lint:effect(fast, reason = \"nope\")\nfn a() {}\n\
             // lint:effect(alloc)\nfn b() {}\n",
        );
        let bad: Vec<&str> = eff
            .notes
            .iter()
            .filter_map(|n| n.malformed.as_deref())
            .collect();
        assert_eq!(bad.len(), 2, "notes: {:?}", eff.notes);
        assert!(bad[0].contains("unknown effect"));
    }
}
