//! Shared helpers for the experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` §4 for the index). They print human-readable tables
//! plus machine-readable CSV blocks, and write JSON result files under
//! `results/` at the workspace root.

use std::fs;
use std::path::PathBuf;

/// Prints a banner for one experiment.
pub fn banner(id: &str, caption: &str) {
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// Prints a CSV block header (marks machine-readable output).
pub fn csv_header(columns: &[&str]) {
    println!("csv:{}", columns.join(","));
}

/// Prints one CSV row.
pub fn csv_row(fields: &[String]) {
    println!("csv:{}", fields.join(","));
}

/// The `results/` directory at the workspace root, created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a serializable value as pretty JSON under `results/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    fs::write(&path, json).expect("write results file");
    println!("[results written to {}]", path.display());
}

/// Formats a float with fixed precision, aligning tables.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn format_helper() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(0.5, 3), "0.500");
    }
}
