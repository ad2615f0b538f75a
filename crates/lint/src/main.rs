//! CLI driver for `manytest-lint`.
//!
//! ```sh
//! manytest-lint --workspace [--json] [--sarif FILE] [--root DIR]
//! manytest-lint --workspace --changed REF            # review scope
//! manytest-lint [--json] FILE...                     # lint single files
//! manytest-lint --rules                              # list rules
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use manytest_lint::diag::{render_human, render_json};
use manytest_lint::rules::{registry, META_RULES};
use manytest_lint::sarif::render_sarif;
use manytest_lint::source::SourceFile;
use manytest_lint::{lint_files, lint_workspace, lint_workspace_changed, LintReport};
use std::path::{Path, PathBuf};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let workspace = args.iter().any(|a| a == "--workspace");
    let list_rules = args.iter().any(|a| a == "--rules");
    let mut root_flag: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut changed_ref: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" | "--workspace" | "--rules" => {}
            "--root" => match it.next() {
                Some(v) => root_flag = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--sarif" => match it.next() {
                Some(v) => sarif_path = Some(PathBuf::from(v)),
                None => return usage("--sarif needs a file path"),
            },
            "--changed" => match it.next() {
                Some(v) => changed_ref = Some(v.clone()),
                None => return usage("--changed needs a git ref"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return 0;
            }
            a if a.starts_with("--root=") => {
                root_flag = Some(PathBuf::from(&a["--root=".len()..]));
            }
            a if a.starts_with("--sarif=") => {
                sarif_path = Some(PathBuf::from(&a["--sarif=".len()..]));
            }
            a if a.starts_with("--changed=") => {
                changed_ref = Some(a["--changed=".len()..].to_string());
            }
            a if a.starts_with("--") => return usage(&format!("unknown flag {a}")),
            a => paths.push(PathBuf::from(a)),
        }
    }

    if list_rules {
        for rule in registry() {
            println!("{:<26} {}", rule.id(), rule.description());
        }
        for meta in META_RULES {
            println!("{meta:<26} (allow audit; reported by the engine itself)");
        }
        return 0;
    }

    let report: LintReport = if workspace || changed_ref.is_some() {
        let root = match root_flag.or_else(discover_root) {
            Some(r) => r,
            None => return usage("could not find a workspace root; pass --root DIR"),
        };
        let run = if let Some(git_ref) = &changed_ref {
            match changed_files(&root, git_ref) {
                Ok(changed) => lint_workspace_changed(&root, &changed),
                Err(e) => {
                    eprintln!("manytest-lint: --changed {git_ref}: {e}");
                    return 2;
                }
            }
        } else {
            lint_workspace(&root)
        };
        match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("manytest-lint: error reading workspace: {e}");
                return 2;
            }
        }
    } else if paths.is_empty() {
        return usage("pass --workspace or one or more .rs files");
    } else {
        let mut files = Vec::new();
        for p in &paths {
            match std::fs::read_to_string(p) {
                Ok(text) => {
                    files.push(SourceFile::from_source(p.to_string_lossy(), text));
                }
                Err(e) => {
                    eprintln!("manytest-lint: cannot read {}: {e}", p.display());
                    return 2;
                }
            }
        }
        lint_files(files)
    };

    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, render_sarif(&report.findings)) {
            eprintln!("manytest-lint: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if json {
        print!("{}", render_json(&report.findings, report.files_scanned));
    } else {
        print!("{}", render_human(&report.findings, report.files_scanned));
    }
    if report.is_clean() {
        0
    } else {
        1
    }
}

/// The `.rs` files changed relative to `git_ref`, as workspace-relative
/// paths: committed changes (`git diff --name-only REF`) plus anything
/// dirty or untracked in the working tree.
fn changed_files(root: &Path, git_ref: &str) -> Result<Vec<String>, String> {
    let mut changed: Vec<String> = Vec::new();
    for args in [
        vec!["diff", "--name-only", git_ref],
        vec!["status", "--porcelain"],
    ] {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(&args)
            .output()
            .map_err(|e| format!("cannot run git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            // Porcelain lines are `XY <path>`; diff lines are bare paths.
            let path = if args[0] == "status" {
                line.get(3..).unwrap_or("")
            } else {
                line
            };
            let path = path.trim();
            if path.ends_with(".rs") && !changed.iter().any(|p| p == path) {
                changed.push(path.to_string());
            }
        }
    }
    changed.sort();
    Ok(changed)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`; falls back to the compile-time location of
/// this crate (two levels below the root).
fn discover_root() -> Option<PathBuf> {
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            if is_workspace_root(&dir) {
                return Some(dir);
            }
            if !dir.pop() {
                break;
            }
        }
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baked = baked.canonicalize().ok()?;
    is_workspace_root(&baked).then_some(baked)
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

fn usage(msg: &str) -> i32 {
    eprintln!("manytest-lint: {msg}");
    eprint!("{HELP}");
    2
}

const HELP: &str = "\
usage: manytest-lint --workspace [--json] [--sarif FILE] [--root DIR]
       manytest-lint --workspace --changed REF
       manytest-lint [--json] FILE...
       manytest-lint --rules

  --workspace    lint every .rs file in the workspace plus the trace
                 exports and the docs' probe ids and metric names
  --changed REF  review scope: analyze the full tree but only report
                 findings in .rs files changed vs the git ref (committed,
                 dirty or untracked)
  --json         machine-readable output to stdout (CI artifact)
  --sarif FILE   additionally write SARIF 2.1.0 to FILE (code scanning)
  --root DIR     workspace root (default: walk up from the current dir)
  --rules        list registered rules and exit

exit codes: 0 clean, 1 findings, 2 usage/io error
";
