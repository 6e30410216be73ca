//! `alert-lint` — the workspace invariant checker.
//!
//! The repo's guarantees (bit-identical parallel≡serial drains, frozen
//! scenario randomness, capture→replay identity, panic-free library
//! code, CPU-clock decision metering) were enforced by hand-audits in
//! past PRs; this crate makes them machine-checked. It scans every
//! `.rs` file in the workspace with a hand-rolled lexer
//! ([`lexer`] — no `syn`, nothing vendored), classifies each file's
//! context ([`context`]), runs the rule catalog on it ([`rules`]), and
//! emits a machine-readable `LINT.json` plus a human table ([`report`]).
//!
//! The binary exits nonzero on any unsuppressed violation, so CI gates
//! on it; the in-repo self-test (`tests/workspace_clean.rs`) asserts
//! the workspace is lint-clean on every `cargo test` run.
//!
//! See DESIGN.md §9 for the rule catalog, the
//! `// lint:allow(rule): reason` grammar, and how to add a rule.

pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;

use context::FileContext;
use report::{Report, Structure};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "results"];

/// Path suffixes excluded from scanning: the lint's own fixture corpus
/// contains deliberate violations.
const SKIP_SUFFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Scan failure (I/O only — lexing and rule evaluation are total).
#[derive(Debug)]
pub struct LintError {
    /// The path being visited when the error occurred.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for LintError {}

/// Scans the workspace rooted at `root` and returns the full report:
/// one pass per file (read, lex, classify, [`rules::check_file`]), with
/// the findings merged in path order.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = collect_rust_files(root)?;
    let files_scanned = files.len();
    let mut violations = Vec::new();
    let mut allowed = Vec::new();
    let mut structure = Structure::default();
    for (abs, rel) in files {
        let src = fs::read_to_string(&abs).map_err(|source| LintError {
            path: abs.clone(),
            source,
        })?;
        let tokens = lexer::lex(&src);
        let ctx = FileContext::build(&rel, &src, &tokens);
        let findings = rules::check_file(&ctx, &src, &tokens);
        violations.extend(findings.violations);
        allowed.extend(findings.allowed);
        structure.add(&findings.structure);
    }
    Ok(Report::new(files_scanned, violations, allowed, structure))
}

/// All `.rs` files under `root` as (absolute, workspace-relative with
/// `/` separators), sorted by relative path so reports are
/// byte-deterministic across filesystems.
fn collect_rust_files(root: &Path) -> Result<Vec<(PathBuf, String)>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|source| LintError {
            path: dir.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| LintError {
                path: dir.clone(),
                source,
            })?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if !SKIP_SUFFIXES.iter().any(|s| rel.starts_with(s)) {
                    out.push((path, rel));
                }
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_use_forward_slashes() {
        let root = Path::new("/w");
        let p = Path::new("/w/crates/core/src/alert.rs");
        assert_eq!(rel_path(root, p), "crates/core/src/alert.rs");
    }

    #[test]
    fn fixture_corpus_is_excluded() {
        assert!(SKIP_SUFFIXES
            .iter()
            .any(|s| "crates/lint/tests/fixtures/panics.rs".starts_with(s)));
    }
}
