//! Incremental cache: `target/lint-cache.json`.
//!
//! Per-file rule results are pure in the file's content, so they are
//! keyed by FNV-1a content hashes and reused verbatim when the hash
//! matches. The workspace pass and the allow audit re-run every time:
//! the workspace rules also read inputs that are not `.rs` files (the
//! docs, trace exports), and both passes are cheap. Findings replayed
//! from the cache render byte-identically to a cold run.
//!
//! The cache is strictly best-effort: an unreadable, unparseable or
//! version-skewed file is treated as absent, and write failures are
//! swallowed (CI may run on a read-only checkout).

use crate::diag::{escape, Finding};
use crate::json::{self, Value};
use crate::source::Workspace;
use crate::LintReport;
use std::path::Path;

/// Cache location, relative to the workspace root. Lives under
/// `target/` so `cargo clean` clears it.
pub const CACHE_REL_PATH: &str = "target/lint-cache.json";

/// Bump when the cache schema or any rule semantics change in a way
/// the content hash cannot see.
const VERSION: u64 = 2;

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for a same-machine
/// content-equality check (this is not an integrity boundary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What the warm path reused, for `--verbose`-style reporting and the
/// cache tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Files whose per-file findings were replayed from the cache.
    pub file_hits: usize,
    /// Files that were re-analyzed.
    pub file_misses: usize,
}

/// Lints `root` through the cache: replays per-file findings whose
/// content hashes match, re-runs the rest, runs the workspace pass and
/// the allow audit unconditionally, and rewrites the cache.
pub fn lint_workspace_cached(root: &Path) -> std::io::Result<(LintReport, CacheStats)> {
    let ws = Workspace::load(root)?;
    let cache_path = root.join(CACHE_REL_PATH);
    let old = std::fs::read_to_string(&cache_path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| load(&doc));

    let mut stats = CacheStats::default();
    let mut per_file: Vec<(String, u64, Vec<Finding>)> = Vec::with_capacity(ws.files.len());
    for file in &ws.files {
        let hash = fnv1a64(file.text.as_bytes());
        let cached = old.as_ref().and_then(|files| {
            files
                .iter()
                .find(|(path, h, _)| *h == hash && path == &file.rel_path)
        });
        let findings = match cached {
            Some((_, _, findings)) => {
                stats.file_hits += 1;
                findings.clone()
            }
            None => {
                stats.file_misses += 1;
                crate::run_file_rules(file)
            }
        };
        per_file.push((file.rel_path.clone(), hash, findings));
    }
    let _ = write_cache(&cache_path, &per_file);

    let mut findings: Vec<Finding> =
        per_file.into_iter().flat_map(|(_, _, f)| f).collect();
    findings.extend(crate::run_workspace_rules(&ws));
    let findings = crate::audit_allows(&ws, findings, None);
    Ok((
        LintReport {
            findings,
            files_scanned: ws.files.len(),
        },
        stats,
    ))
}

fn write_cache(path: &Path, per_file: &[(String, u64, Vec<Finding>)]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {VERSION},\n"));
    out.push_str("  \"files\": [");
    for (i, (rel_path, hash, findings)) in per_file.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"hash\": \"{hash:016x}\", \"findings\": [",
            escape(rel_path)
        ));
        write_findings(&mut out, findings, "      ");
        out.push_str("]}");
    }
    out.push_str(if per_file.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn write_findings(out: &mut String, findings: &[Finding], indent: &str) {
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\", \"rationale\": \"{}\"}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message),
            escape(f.rationale)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
        out.push_str(&indent[..indent.len() - 2]);
    }
}

/// Loads the cached `(rel_path, content hash, findings)` per file.
fn load(doc: &Value) -> Option<Vec<(String, u64, Vec<Finding>)>> {
    if doc.get("version")?.as_num()? as u64 != VERSION {
        return None;
    }
    let mut files = Vec::new();
    for entry in doc.get("files")?.as_arr()? {
        files.push((
            entry.get("path")?.as_str()?.to_string(),
            u64::from_str_radix(entry.get("hash")?.as_str()?, 16).ok()?,
            load_findings(entry.get("findings")?)?,
        ));
    }
    Some(files)
}

fn load_findings(value: &Value) -> Option<Vec<Finding>> {
    let mut findings = Vec::new();
    for entry in value.as_arr()? {
        findings.push(Finding {
            // Rule ids and rationales are `&'static str` in a live run;
            // replayed ones leak their (small, deduplicated-per-run)
            // strings for the life of the process.
            rule: intern(entry.get("rule")?.as_str()?),
            file: entry.get("file")?.as_str()?.to_string(),
            line: entry.get("line")?.as_num()? as u32,
            col: entry.get("col")?.as_num()? as u32,
            message: entry.get("message")?.as_str()?.to_string(),
            rationale: intern(entry.get("rationale")?.as_str()?),
        });
    }
    Some(findings)
}

/// Leaks `s` as `&'static str`, deduplicating within the process so a
/// thousand replayed findings of one rule cost one allocation.
fn intern(s: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(hit) = pool.iter().find(|&&p| p == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }

    #[test]
    fn cache_round_trips_findings_bytewise() {
        let findings = vec![Finding {
            rule: "hot-path-purity",
            file: "crates/core/src/system.rs".into(),
            line: 7,
            col: 3,
            message: "hot path `control → probe`: `vec` allocates (alloc)".into(),
            rationale: "say \"why\"\nor refactor",
        }];
        let dir = std::env::temp_dir().join(format!(
            "manytest-lint-cache-{}-{:x}",
            std::process::id(),
            fnv1a64(b"round-trip")
        ));
        let path = dir.join("lint-cache.json");
        write_cache(&path, &[("a.rs".into(), 1, findings.clone())]).expect("write cache");
        let text = std::fs::read_to_string(&path).expect("read back");
        let files = load(&json::parse(&text).expect("parse")).expect("load");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].2, findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_discards_the_cache() {
        let doc = json::parse("{\"version\": 999, \"files\": []}").unwrap();
        assert!(load(&doc).is_none());
    }
}
