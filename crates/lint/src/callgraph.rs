//! Intra-workspace call-graph construction over the symbol table.
//!
//! Resolution is name-based (no type inference), tiered to keep the
//! false-edge rate low:
//!
//! * `self.foo(…)` resolves to methods named `foo` on the *enclosing*
//!   `impl` type (across all of that type's impl blocks);
//! * `Type::foo(…)` resolves to `foo` methods of `Type`;
//! * bare `foo(…)` resolves to free functions named `foo`, preferring
//!   the same crate;
//! * `.foo(…)` on any other receiver resolves to the union of all
//!   same-named methods in the workspace — deliberately conservative,
//!   since an over-approximated edge at worst asks for an audited
//!   `lint:effect` annotation, while a missed edge silently breaks the
//!   hot-path guarantee.
//!
//! Call sites that resolve to nothing in the workspace are still
//! recorded: the effect pass classifies them against the std sink
//! tables (`Box::new`, `Mutex::lock`, `format!`, …).

use crate::lexer::{Token, TokenKind};
use crate::source::Workspace;
use crate::symbols::{FnSym, SymbolTable};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `foo(…)` — a free-function call.
    Bare,
    /// `self.foo(…)` — a method call on the enclosing type.
    SelfMethod,
    /// `expr.foo(…)` — a method call on some other receiver.
    Method,
    /// `Owner::foo(…)` — a qualified call; the path segment before the
    /// final `::`.
    Qualified(String),
    /// `foo!(…)` / `foo![…]` / `foo!{…}` — a macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling fn in the symbol table.
    pub caller: usize,
    /// Callee name (fn, method or macro name).
    pub name: String,
    pub recv: Recv,
    pub line: u32,
    pub col: u32,
    /// Workspace fns this site may dispatch to (empty for externals).
    pub targets: Vec<usize>,
}

/// The workspace call graph: all sites, plus a per-fn site index.
pub struct CallGraph {
    pub sites: Vec<CallSite>,
    /// `sites_of[fn_index]` → indices into `sites`.
    pub sites_of: Vec<Vec<usize>>,
}

impl CallGraph {
    pub fn build(ws: &Workspace, table: &SymbolTable) -> CallGraph {
        let mut sites = Vec::new();
        let mut sites_of = vec![Vec::new(); table.fns.len()];
        // The table lists fns file by file, so each file's code tokens
        // are collected once, not once per fn.
        let mut code: Vec<&Token> = Vec::new();
        let mut code_file = None;
        for (fi, f) in table.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if code_file != Some(f.file) {
                code = ws.files[f.file].code_tokens().collect();
                code_file = Some(f.file);
            }
            // Token ranges of *other* fns nested inside this body are
            // their own nodes — exclude them so a nested helper's sinks
            // are not double-attributed to the outer fn.
            let nested: Vec<(usize, usize)> = table
                .fns
                .iter()
                .filter(|g| g.file == f.file)
                .filter_map(|g| g.body)
                .filter(|&(s, e)| s > body_start && e <= body_end)
                .collect();
            let mut i = body_start;
            while i <= body_end.min(code.len().saturating_sub(1)) {
                if let Some(&(_, ne)) = nested.iter().find(|&&(ns, ne)| i >= ns && i <= ne) {
                    i = ne + 1;
                    continue;
                }
                if let Some(site) = call_at(&code, i, fi, table, f) {
                    let idx = sites.len();
                    sites_of[fi].push(idx);
                    sites.push(site);
                }
                i += 1;
            }
        }
        CallGraph { sites, sites_of }
    }
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "match", "while", "for", "loop", "return", "in", "as", "let", "else",
];

/// Recognises a call whose callee name sits at code-token `i`.
fn call_at(
    code: &[&Token],
    i: usize,
    caller: usize,
    table: &SymbolTable,
    caller_sym: &FnSym,
) -> Option<CallSite> {
    let t = code[i];
    if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // The ident right after `fn` is a definition, not a call.
    if i > 0 && code[i - 1].is_ident("fn") {
        return None;
    }
    let next = code.get(i + 1)?;
    // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
    if next.is_punct('!')
        && code
            .get(i + 2)
            .is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{'))
    {
        return Some(CallSite {
            caller,
            name: t.text.clone(),
            recv: Recv::Macro,
            line: t.line,
            col: t.col,
            targets: Vec::new(),
        });
    }
    // `name(` or turbofish `name::<T>(`.
    let opens_call = next.is_punct('(')
        || (next.is_punct(':')
            && code.get(i + 2).is_some_and(|c| c.is_punct(':'))
            && code.get(i + 3).is_some_and(|c| c.is_punct('<'))
            && turbofish_then_paren(code, i + 3));
    if !opens_call {
        return None;
    }
    let recv = receiver_of(code, i);
    let targets = resolve(&recv, &t.text, table, caller_sym);
    Some(CallSite {
        caller,
        name: t.text.clone(),
        recv,
        line: t.line,
        col: t.col,
        targets,
    })
}

/// Whether the `<` at `open` closes into a `(` (turbofish call).
fn turbofish_then_paren(code: &[&Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() && i < open + 64 {
        if code[i].is_punct('<') {
            depth += 1;
        } else if code[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return code.get(i + 1).is_some_and(|t| t.is_punct('('));
            }
        }
        i += 1;
    }
    false
}

/// Classifies the receiver of the call whose name is at `i`.
fn receiver_of(code: &[&Token], i: usize) -> Recv {
    if i == 0 {
        return Recv::Bare;
    }
    let prev = code[i - 1];
    if prev.is_punct('.') {
        if i >= 2 && code[i - 2].is_ident("self") {
            // Only a direct `self.foo(` — `self.field.foo(` is a call
            // on the field, not on Self.
            let self_is_base = i < 3 || !code[i - 3].is_punct('.');
            if self_is_base {
                return Recv::SelfMethod;
            }
        }
        return Recv::Method;
    }
    if prev.is_punct(':') && i >= 2 && code[i - 2].is_punct(':') {
        // Walk back over `::`-separated segments to the path head is
        // unnecessary — the sink tables and symbol owners key on the
        // segment immediately before the final `::`.
        if i >= 3 && code[i - 3].kind == TokenKind::Ident {
            return Recv::Qualified(code[i - 3].text.clone());
        }
        // `<T as Trait>::foo(` and `::foo(` fall back to Bare-like.
        return Recv::Qualified(String::new());
    }
    Recv::Bare
}

/// Resolves a site to candidate workspace fns (tiered, same-crate
/// preferred when ambiguous).
fn resolve(recv: &Recv, name: &str, table: &SymbolTable, caller_sym: &FnSym) -> Vec<usize> {
    let candidates: Vec<usize> = match recv {
        Recv::Macro => Vec::new(),
        Recv::SelfMethod => {
            let owned: Vec<usize> = caller_sym
                .owner
                .as_deref()
                .map(|o| table.methods_of(o, name).collect())
                .unwrap_or_default();
            if owned.is_empty() {
                // Trait default methods or impl blocks the heuristic
                // missed: fall back to any method of that name.
                table.methods_named(name).collect()
            } else {
                owned
            }
        }
        Recv::Qualified(owner) if owner == "Self" => {
            // `Self::helper(…)` — same resolution as `self.helper(…)`.
            let owned: Vec<usize> = caller_sym
                .owner
                .as_deref()
                .map(|o| table.methods_of(o, name).collect())
                .unwrap_or_default();
            if owned.is_empty() {
                table.methods_named(name).collect()
            } else {
                owned
            }
        }
        Recv::Qualified(owner) if !owner.is_empty() => {
            let owned: Vec<usize> = table.methods_of(owner, name).collect();
            if owned.is_empty() && owner.chars().next().is_some_and(char::is_lowercase) {
                // `module::free_fn(…)` — the segment was a module path,
                // not a type.
                table.free_fns_named(name).collect()
            } else {
                owned
            }
        }
        Recv::Qualified(_) => table.free_fns_named(name).collect(),
        Recv::Method => table.methods_named(name).collect(),
        Recv::Bare => table.free_fns_named(name).collect(),
    };
    // Never resolve into test code, and prefer same-crate candidates
    // when any exist (duplicate names across crates are common).
    let candidates: Vec<usize> = candidates
        .into_iter()
        .filter(|&c| !table.fns[c].is_test)
        .collect();
    let same_file_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| table.fns[c].file == caller_sym.file)
        .collect();
    if matches!(recv, Recv::Bare) && !same_file_crate.is_empty() {
        return same_file_crate;
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn graph(src: &str) -> (Workspace, SymbolTable, CallGraph) {
        let ws = Workspace::from_sources(
            Path::new("/x"),
            vec![SourceFile::from_source("crates/core/src/a.rs", src)],
        );
        let table = SymbolTable::build(&ws);
        let cg = CallGraph::build(&ws, &table);
        (ws, table, cg)
    }

    fn callee_names(table: &SymbolTable, site: &CallSite) -> Vec<String> {
        site.targets.iter().map(|&t| table.fns[t].name.clone()).collect()
    }

    #[test]
    fn self_calls_resolve_to_the_enclosing_type_across_impl_blocks() {
        let (_, table, cg) = graph(
            "impl Sys {\n    fn a(&self) { self.b(); }\n}\n\
             impl Sys {\n    fn b(&self) {}\n}\n\
             impl Other {\n    fn b(&self) {}\n}\n",
        );
        let site = &cg.sites[0];
        assert_eq!(site.recv, Recv::SelfMethod);
        assert_eq!(site.targets.len(), 1);
        assert_eq!(table.fns[site.targets[0]].owner.as_deref(), Some("Sys"));
    }

    #[test]
    fn field_method_calls_do_not_pretend_to_be_self_calls() {
        let (_, _, cg) = graph(
            "impl Sys {\n    fn a(&self) { self.store.push_back(1); }\n}\n",
        );
        assert_eq!(cg.sites[0].recv, Recv::Method);
        assert_eq!(cg.sites[0].name, "push_back");
    }

    #[test]
    fn qualified_bare_and_macro_sites_are_classified() {
        let (_, table, cg) = graph(
            "fn helper() {}\n\
             fn top() {\n    helper();\n    Box::new(1);\n    format!(\"x\");\n    Cfg::load();\n}\n\
             impl Cfg {\n    fn load() {}\n}\n",
        );
        let top = table.fns.iter().position(|f| f.name == "top").unwrap();
        let kinds: Vec<(String, Recv, Vec<String>)> = cg.sites_of[top]
            .iter()
            .map(|&s| {
                let site = &cg.sites[s];
                (site.name.clone(), site.recv.clone(), callee_names(&table, site))
            })
            .collect();
        assert_eq!(kinds[0], ("helper".into(), Recv::Bare, vec!["helper".into()]));
        assert_eq!(kinds[1].1, Recv::Qualified("Box".into()));
        assert!(kinds[1].2.is_empty(), "Box::new is external");
        assert_eq!(kinds[2].1, Recv::Macro);
        assert_eq!(kinds[3], (
            "load".into(),
            Recv::Qualified("Cfg".into()),
            vec!["load".into()]
        ));
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let (_, table, cg) = graph(
            "fn outer() {\n    fn inner() { Box::new(1); }\n    inner();\n}\n",
        );
        let outer = table.fns.iter().position(|f| f.name == "outer").unwrap();
        let inner = table.fns.iter().position(|f| f.name == "inner").unwrap();
        let outer_names: Vec<&str> = cg.sites_of[outer]
            .iter()
            .map(|&s| cg.sites[s].name.as_str())
            .collect();
        assert_eq!(outer_names, vec!["inner"], "outer sees only the call, not inner's body");
        assert_eq!(cg.sites_of[inner].len(), 1);
        assert_eq!(cg.sites[cg.sites_of[inner][0]].name, "new");
    }

    #[test]
    fn test_code_is_excluded_from_the_graph() {
        let (_, table, cg) = graph(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::prod(); }\n}\n",
        );
        let t = table.fns.iter().position(|f| f.name == "t").unwrap();
        assert!(cg.sites_of[t].is_empty());
    }
}
