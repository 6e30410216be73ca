//! Fixture-driven structural-rule tests: each fixture is planted in a
//! synthetic on-disk workspace and run through the full public
//! pipeline (`lint_workspace`), pinning the exact (rule, file, line)
//! triples that fire. These are the acceptance self-tests: each one
//! reintroduces a class of violation the rules guard against and
//! asserts the report flips to non-clean — i.e. the binary would exit
//! 1.

use alert_lint::lint_workspace;
use alert_lint::report::Report;
use std::fs;
use std::path::{Path, PathBuf};

/// Writes `files` (workspace-relative path → contents) under a private
/// subdirectory of the test-scoped target tmpdir and returns the root.
fn synth(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("synth_ws")
        .join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("reset synth workspace");
    }
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("mkdir fixture dir");
        fs::write(&path, src).expect("write fixture file");
    }
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    root
}

fn scan(name: &str, files: &[(&str, &str)]) -> Report {
    lint_workspace(&synth(name, files)).expect("synthetic workspace scans")
}

/// Unsuppressed (rule, file, line) triples, sorted.
fn hits(report: &Report) -> Vec<(String, String, usize)> {
    let mut v: Vec<(String, String, usize)> = report
        .violations
        .iter()
        .map(|v| (v.rule.clone(), v.file.clone(), v.line))
        .collect();
    v.sort();
    v
}

/// A no-violation companion file so a synthetic workspace has more than
/// one file.
const CLEAN_LIB: &str = "pub fn add(a: u64, b: u64) -> u64 {\n    a.wrapping_add(b)\n}\n";

#[test]
fn clean_synthetic_workspace_is_clean() {
    let report = scan("clean", &[("crates/stats/src/util.rs", CLEAN_LIB)]);
    assert!(report.is_clean(), "{:?}", hits(&report));
}

#[test]
fn reintroduced_sched_to_bench_import_flips_red() {
    let report = scan(
        "layer_leak",
        &[
            (
                "crates/sched/src/leak.rs",
                include_str!("fixtures/layer_leak.rs"),
            ),
            ("crates/stats/src/util.rs", CLEAN_LIB),
        ],
    );
    assert_eq!(
        hits(&report),
        vec![(
            "crate-layer-dag".to_string(),
            "crates/sched/src/leak.rs".to_string(),
            4,
        )]
    );
    assert_eq!(report.structure.layer_violations, 1);
    assert!(!report.is_clean(), "upward import must exit 1");
}

#[test]
fn reintroduced_inverted_lock_pair_flips_red() {
    let report = scan(
        "lock_inversion",
        &[(
            "crates/sched/src/executor.rs",
            include_str!("fixtures/lock_inversion.rs"),
        )],
    );
    let got = hits(&report);
    assert!(
        got.iter()
            .all(|(r, f, _)| r == "lock-order" && f == "crates/sched/src/executor.rs"),
        "{got:?}"
    );
    // Each fn nests one acquisition in the other's held span: `done` on
    // line 13 under `queue`, `queue` on line 19 under `done`.
    let lines: Vec<usize> = got.iter().map(|(_, _, l)| *l).collect();
    assert_eq!(lines, vec![13, 19]);
    assert_eq!(report.structure.lock_nestings, 2);
    assert!(!report.is_clean(), "lock inversion must exit 1");
}

#[test]
fn reintroduced_entropy_seeded_rng_flips_red() {
    let report = scan(
        "rng_untraced",
        &[(
            "crates/workload/src/noise.rs",
            include_str!("fixtures/rng_untraced.rs"),
        )],
    );
    let got = hits(&report);
    assert!(
        !got.is_empty() && got.iter().all(|(r, _, l)| r == "rng-provenance" && *l == 6),
        "{got:?}"
    );
    assert!(report.structure.rng_constructions > report.structure.rng_traced);
    assert!(!report.is_clean(), "entropy-seeded RNG must exit 1");
}

#[test]
fn reintroduced_undocumented_reachable_assert_flips_red() {
    let report = scan(
        "panic_reach",
        &[(
            "crates/core/src/depths.rs",
            include_str!("fixtures/panic_reach.rs"),
        )],
    );
    assert_eq!(
        hits(&report),
        vec![(
            "panic-reachability".to_string(),
            "crates/core/src/depths.rs".to_string(),
            10,
        )]
    );
    // The violation names the fn whose doc lacks the `# Panics`
    // section, so the fix target is unambiguous.
    let msg = &report.violations[0].message;
    assert!(msg.contains("`internal`"), "{msg}");
    assert!(!report.is_clean(), "reachable assert must exit 1");
}

#[test]
fn semantic_violations_obey_the_allow_grammar() {
    // The same layer leak, but carrying a reasoned allow: the workspace
    // is clean, the ledger records the suppression, and the raw
    // structure count still reports the violation for CI's gate.
    let src = "use alert_bench::harness::Run; // lint:allow(crate-layer-dag): fixture — proves structural rules run through the ledger\n";
    let report = scan("layer_leak_allowed", &[("crates/sched/src/leak.rs", src)]);
    assert!(report.is_clean(), "{:?}", hits(&report));
    assert_eq!(report.counts.suppressed_sites, 1);
    assert_eq!(
        report.structure.layer_violations, 1,
        "structure counts are pre-suppression"
    );
}

#[test]
fn allow_naming_a_semantically_dead_rule_is_flagged() {
    // The allow suppresses the layer leak, but also names lock-order —
    // which never fires on that line. The per-rule ledger flags the
    // stale member even though the annotation as a whole was used.
    let src = "use alert_bench::harness::Run; // lint:allow(crate-layer-dag, lock-order): fixture — stale member must be flagged\n";
    let report = scan("stale_allow_member", &[("crates/sched/src/leak.rs", src)]);
    assert_eq!(
        hits(&report),
        vec![(
            "unused-allow".to_string(),
            "crates/sched/src/leak.rs".to_string(),
            1,
        )]
    );
    let msg = &report.violations[0].message;
    assert!(msg.contains("lock-order"), "{msg}");
}
