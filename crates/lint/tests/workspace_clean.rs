//! The self-test that locks the workspace lint-clean: any reintroduced
//! violation in library code fails `cargo test`, not just CI's
//! dedicated lint job.

use alert_lint::lint_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_unsuppressed_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let report = lint_workspace(root).expect("workspace scan succeeds");

    // A real corpus was scanned, not an empty directory.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );

    // Zero unsuppressed violations anywhere.
    let listing: String = report
        .violations
        .iter()
        .map(|v| format!("  {}:{} [{}] {}\n", v.file, v.line, v.rule, v.snippet))
        .collect();
    assert!(
        report.is_clean(),
        "workspace is not lint-clean; run `cargo run -p alert-lint` for the report:\n{listing}"
    );

    // Every suppression carries a non-empty reason and suppressed at
    // least one real finding (the engine flags unused allows, but the
    // ledger must stay honest too).
    for a in &report.allowed {
        assert!(
            !a.reason.trim().is_empty(),
            "{}:{} allow has an empty reason",
            a.file,
            a.line
        );
        assert!(
            a.suppressed > 0,
            "{}:{} allow suppressed nothing",
            a.file,
            a.line
        );
    }

    // The full 12-rule catalog is in force, and nothing unexpected.
    let mut rules: Vec<&str> = report.rules.iter().map(|r| r.id).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "allow-needs-reason",
            "crate-layer-dag",
            "lock-order",
            "metric-name-discipline",
            "nan-unsafe-compare",
            "no-hash-iteration",
            "no-panic",
            "no-unseeded-rng",
            "no-wall-clock",
            "panic-reachability",
            "rng-provenance",
            "unused-allow",
        ]
    );

    // The structural rules actually saw the real corpus, and their
    // invariants hold raw (pre-suppression): no upward layer
    // references, no nested lock acquisitions, every RNG constructed in
    // the RNG module, every panic source accounted for.
    let s = &report.structure;
    assert!(
        s.panic_sources > 0 && s.rng_constructions > 0,
        "the scan saw no assert or RNG construction"
    );
    assert!(!s.layers.is_empty(), "layer table missing from the report");
    assert_eq!(s.layer_violations, 0, "upward layer reference crept in");
    assert_eq!(s.lock_nestings, 0, "nested lock acquisition crept in");
    assert_eq!(
        s.rng_traced, s.rng_constructions,
        "an RNG construction lost its seed provenance"
    );
    assert_eq!(
        s.panic_accounted, s.panic_sources,
        "an assert! site has no `# Panics` contract"
    );
}
