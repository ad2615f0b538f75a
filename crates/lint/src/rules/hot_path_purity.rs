//! `hot-path-purity`: no allocation, locking, I/O or panic site may be
//! *transitively reachable* from the six control-loop phase entry
//! points without an audit.
//!
//! The paper's per-epoch control loop (PID power capping → fault-aware
//! mapping → test scheduling → event drain → thermal close) only stays
//! power-aware at scale if each phase is allocation-, lock- and
//! I/O-free after warmup. The old `panic-in-hot-path` rule guarded a
//! file allowlist lexically; this rule supersedes it with call-graph
//! reachability: starting from the phase entry points it walks the
//! resolved call graph ([`crate::callgraph`]) and reports every
//! effectful sink site ([`crate::effects`]) it can reach, annotated
//! with the call chain that reaches it.
//!
//! Audits come in two layers:
//! * a site-level `// lint:allow(hot-path-purity, reason = "…")` on the
//!   offending line, for a single reviewed sink;
//! * a fn-level `// lint:effect(<spec>, reason = "…")` annotation,
//!   which fixes the function's effect set and cuts traversal — the
//!   escape hatch for dynamic dispatch, documented warmup constructors
//!   (`warmup`) and lanes that deliberately own an allocation
//!   (`alloc`), cf. the effect-annotation contract in CONTRIBUTING.md.
//!
//! The entry points are the `impl System` methods with those names in a
//! file named `system.rs` or in any file under a `system/` directory:
//! `crates/core/src/system.rs` holds `control`, and each later phase
//! lives in its own module under `crates/core/src/system/`. The anchor
//! fails closed: once the workspace defines `System::run` (the loop that
//! drives the phases), every entry point that does not resolve is a
//! finding, so renaming or moving a phase cannot silently drop its
//! subtree from the check. Workspaces without `System::run` (unit
//! fixtures) only get the entry points they define, and none at all
//! outside those files.

use super::Rule;
use crate::callgraph::CallGraph;
use crate::diag::Finding;
use crate::effects::{self, EffectSet};
use crate::source::Workspace;
use crate::symbols::{FnSym, SymbolTable};

pub struct HotPathPurity;

/// The six phase entry points: `System::<fn>` in a `system.rs` or a
/// file under `system/`.
pub const ENTRY_POINTS: [(&str, &str); 6] = [
    ("System", "control"),        // pid capping + fault activation
    ("System", "map_context"),    // mapping inputs snapshot
    ("System", "admit_pending"),  // fault-aware admission (map)
    ("System", "schedule_tests"), // power-aware test scheduling
    ("System", "handle"),         // event drain
    ("System", "close_epoch"),    // thermal + aging close
];

const RATIONALE: &str =
    "the per-epoch control loop must stay alloc/lock/IO-free after warmup or the \
     power-awareness claim degrades at mesh scale; refactor the sink out of the hot path, \
     or audit it with lint:allow(hot-path-purity, reason = \"…\") at the site or a \
     lint:effect(<spec>, reason = \"…\") on the owning fn";

impl Rule for HotPathPurity {
    fn id(&self) -> &'static str {
        "hot-path-purity"
    }

    fn description(&self) -> &'static str {
        "no unaudited alloc/lock/IO/panic site may be transitively reachable from the six \
         control-loop phase entry points"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let table = SymbolTable::build(ws);
        let defines = |f: &FnSym, (owner, name): (&str, &str)| {
            !f.is_test && f.owner.as_deref() == Some(owner) && f.name == name
        };
        let entries: Vec<usize> = (0..table.fns.len())
            .filter(|&i| {
                let f = &table.fns[i];
                is_anchor_file(&ws.files[f.file].rel_path)
                    && ENTRY_POINTS.iter().any(|&entry| defines(f, entry))
            })
            .collect();
        // Fail closed on the real loop: with `System::run` present, an
        // entry point that does not resolve is a finding.
        if let Some(run) = table.fns.iter().find(|f| defines(f, ("System", "run"))) {
            for (owner, name) in ENTRY_POINTS {
                if entries.iter().any(|&i| defines(&table.fns[i], (owner, name))) {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    file: ws.files[run.file].rel_path.clone(),
                    line: run.line,
                    col: run.col,
                    message: format!(
                        "phase entry point `{owner}::{name}` is not defined in a `system.rs` \
                         or under `system/`"
                    ),
                    rationale: "the rule walks the control loop from its six phase entry \
                                points, so an entry point that was renamed or moved drops \
                                its whole subtree from the check; update ENTRY_POINTS with \
                                the code",
                });
            }
        }
        if entries.is_empty() {
            return;
        }
        let cg = CallGraph::build(ws, &table);
        let eff = effects::analyze(ws, &table, &cg);

        // BFS over the call graph; parents reconstruct the call chain
        // shown in each finding. Annotated fns are audited cut points.
        let mut parent: Vec<Option<usize>> = vec![None; table.fns.len()];
        let mut seen = vec![false; table.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in &entries {
            if !seen[e] {
                seen[e] = true;
                queue.push_back(e);
            }
        }
        while let Some(fi) = queue.pop_front() {
            if eff.declared[fi].is_some() {
                continue; // audited: neither report nor descend
            }
            for &si in &cg.sites_of[fi] {
                let site = &cg.sites[si];
                for &callee in &site.targets {
                    // The offline harness (bench) and the linter itself
                    // are never called from the control loop — edges
                    // into them are name-collision artifacts of the
                    // union method resolution.
                    let callee_crate = ws.files[table.fns[callee].file].crate_name();
                    if matches!(callee_crate, "bench" | "lint" | "manytest") {
                        continue;
                    }
                    if !seen[callee] && !table.fns[callee].is_test {
                        seen[callee] = true;
                        parent[callee] = Some(fi);
                        queue.push_back(callee);
                    }
                }
            }
            for &(si, e) in &eff.sinks_of[fi] {
                let site = &cg.sites[si];
                let f = &table.fns[fi];
                out.push(Finding {
                    rule: self.id(),
                    file: ws.files[f.file].rel_path.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "hot path `{}`: `{}` {} ({})",
                        chain(&table, &parent, fi),
                        site.name,
                        verb(e),
                        e.label()
                    ),
                    rationale: RATIONALE,
                });
            }
        }
    }
}

/// Whether entry points may live in `rel_path`: a file named
/// `system.rs`, or any file under a `system/` directory.
fn is_anchor_file(rel_path: &str) -> bool {
    let mut segments = rel_path.rsplit('/');
    segments.next() == Some("system.rs") || segments.any(|dir| dir == "system")
}

/// `control → probe_lane → launch_probe`, reconstructed from BFS
/// parents.
fn chain(table: &SymbolTable, parent: &[Option<usize>], mut fi: usize) -> String {
    let mut names = vec![table.fns[fi].name.clone()];
    while let Some(p) = parent[fi] {
        names.push(table.fns[p].name.clone());
        fi = p;
    }
    names.reverse();
    names.join(" → ")
}

/// The dominant verb for a site's effect set, for readable messages.
fn verb(e: EffectSet) -> &'static str {
    if e.contains(EffectSet::ALLOC) {
        "allocates"
    } else if e.contains(EffectSet::LOCK) {
        "takes a lock"
    } else if e.contains(EffectSet::IO) {
        "does I/O"
    } else {
        "may panic"
    }
}
