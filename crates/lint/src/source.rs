//! Source files and the workspace model the rules run against.

use crate::allow::{parse_allows, Allow};
use crate::lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

/// One lexed source file plus the derived facts rules care about.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated (used in
    /// diagnostics and for crate scoping).
    pub rel_path: String,
    /// Raw text.
    pub text: String,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// Per-line flag: true when the line sits inside a `#[cfg(test)]`
    /// module (index 0 = line 1). Lines past the end are not test code.
    pub test_lines: Vec<bool>,
    /// Parsed `lint:allow` suppressions.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Builds a source file from in-memory text. `rel_path` may be
    /// virtual — fixtures use paths like `crates/core/src/x.rs` to opt
    /// into crate-scoped rules.
    pub fn from_source(rel_path: impl Into<String>, text: impl Into<String>) -> Self {
        let rel_path = rel_path.into().replace('\\', "/");
        let text = text.into();
        let tokens = lex(&text);
        let test_lines = mark_test_lines(&text, &tokens);
        let allows = parse_allows(&tokens);
        SourceFile {
            rel_path,
            text,
            tokens,
            test_lines,
            allows,
        }
    }

    /// The crate this file belongs to (`crates/<name>/…` → `<name>`);
    /// files outside `crates/` (root `src/`, `tests/`, `examples/`)
    /// report the root package name `manytest`.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        if parts.next() == Some("crates") {
            parts.next().unwrap_or("manytest")
        } else {
            "manytest"
        }
    }

    /// Whether the whole file is test/bench/example code by location.
    pub fn is_test_file(&self) -> bool {
        self.rel_path.split('/').any(|seg| {
            seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures"
        })
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` module.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Tokens with comments stripped — what most rules scan.
    pub fn code_tokens(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| t.kind != TokenKind::Comment)
    }
}

/// Marks the lines covered by `#[cfg(test)] mod … { … }` blocks.
///
/// Token-level scan: find the attribute sequence `#` `[` `cfg` `(`
/// `test` `)` `]`, skip any further attributes, expect `mod`, then
/// brace-match to the module's end.
fn mark_test_lines(text: &str, tokens: &[Token]) -> Vec<bool> {
    let line_count = text.lines().count();
    let mut mask = vec![false; line_count];
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = code[i].is_punct('#')
            && code[i + 1].is_punct('[')
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct('(')
            && code[i + 4].is_ident("test")
            && code[i + 5].is_punct(')')
            && code[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        let mut j = i + 7;
        // Skip stacked attributes between cfg(test) and the item.
        while j < code.len() && code[j].is_punct('#') {
            let mut depth = 0i32;
            j += 1;
            while j < code.len() {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Only `mod` blocks get the whole-region treatment; a
        // `#[cfg(test)]` fn/use is covered by its own item anyway.
        if j < code.len() && code[j].is_ident("mod") {
            // Find the opening brace, then its match.
            while j < code.len() && !code[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut end_line = start_line;
            while j < code.len() {
                if code[j].is_punct('{') {
                    depth += 1;
                } else if code[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = code[j].line;
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            if depth != 0 {
                end_line = line_count as u32; // unterminated: to EOF
            }
            for line in start_line..=end_line {
                if let Some(slot) = mask.get_mut(line.saturating_sub(1) as usize) {
                    *slot = true;
                }
            }
            i = j;
        } else {
            i += 7;
        }
    }
    mask
}

/// The lintable workspace: every source file plus the root for rules
/// that read non-Rust inputs (trace exports, docs).
pub struct Workspace {
    /// Absolute path of the workspace root.
    pub root: PathBuf,
    /// All lexed `.rs` files, sorted by `rel_path`.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `.rs` file under `root`, skipping build output,
    /// VCS metadata, the dependency shims and the analyzer's own
    /// violation fixtures.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = std::fs::read_dir(&dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for path in entries {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if is_skipped(&rel) {
                    continue;
                }
                if path.is_dir() {
                    stack.push(path);
                } else if rel.ends_with(".rs") {
                    let text = std::fs::read_to_string(&path)?;
                    files.push(SourceFile::from_source(rel, text));
                }
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Builds a workspace from in-memory sources (fixture tests).
    pub fn from_sources(root: impl Into<PathBuf>, sources: Vec<SourceFile>) -> Workspace {
        let mut files = sources;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace {
            root: root.into(),
            files,
        }
    }

    /// The file at `rel_path`, if loaded.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

/// Subtrees the workspace scan never descends into.
fn is_skipped(rel: &str) -> bool {
    rel == "target"
        || rel.starts_with("target/")
        || rel == ".git"
        || rel.starts_with(".git/")
        || rel == "crates/shims"
        || rel.starts_with("crates/shims/")
        || rel == "crates/lint/tests/fixtures"
        || rel.starts_with("crates/lint/tests/fixtures/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_name_from_path() {
        let f = SourceFile::from_source("crates/core/src/system.rs", "fn main() {}");
        assert_eq!(f.crate_name(), "core");
        let f = SourceFile::from_source("src/lib.rs", "fn main() {}");
        assert_eq!(f.crate_name(), "manytest");
    }

    #[test]
    fn cfg_test_module_lines_are_marked() {
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::from_source("crates/core/src/x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn test_file_locations() {
        assert!(SourceFile::from_source("crates/bench/tests/x.rs", "").is_test_file());
        assert!(SourceFile::from_source("examples/quickstart.rs", "").is_test_file());
        assert!(!SourceFile::from_source("crates/core/src/system.rs", "").is_test_file());
    }
}
