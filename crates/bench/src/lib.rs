//! Shared helpers for the experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` §4 for the index). They print human-readable tables
//! plus machine-readable CSV blocks, and write JSON result files under
//! `results/` at the workspace root. The scenario and trace matrices
//! run their rows through [`run_schemes`].

use alert_platform::Platform;
use alert_sched::env::EpisodeEnv;
use alert_sched::runtime::{Runtime, SessionSpec};
use alert_sched::{Episode, FamilyKind};
use alert_stats::units::{Seconds, Watts};
use alert_workload::{quality_span, Goal, InputStream, Scenario};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// The rows of the scheme matrices: every practical paper scheme plus
/// the two oracle references, resolved through the policy registry like
/// any serving deployment would.
pub const SCHEMES: [&str; 7] = [
    "ALERT",
    "ALERT-Any",
    "App-only",
    "Sys-only",
    "No-coord",
    "Oracle",
    "OracleStatic",
];

/// The goal every matrix cell runs under.
pub fn base_goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

/// Runs every scheme of [`SCHEMES`] on one shared frozen environment of
/// `scenario`, as sessions of one image-classification runtime on `node`
/// (device 0 first) under `shared_budget`, and returns each scheme's
/// episode in [`SCHEMES`] order.
///
/// Before each scheme runs, the environment is rebuilt from the same
/// recipe and asserted equal to the shared one — every device's
/// realization grid and cap timeline — which counts one identity check
/// in `identity_checks`. `check` runs on the shared environment and on
/// every rebuild.
pub fn run_schemes(
    node: &[Platform],
    shared_budget: Option<Watts>,
    scenario: &Scenario,
    stream: &InputStream,
    seed: u64,
    check: impl Fn(&EpisodeEnv),
    identity_checks: &mut usize,
) -> Vec<Episode> {
    let goal = base_goal();
    // Span-aware realization: the library's FloorRaise row expresses its
    // quality floor relative to the serving family's achievable range.
    let span = quality_span(&FamilyKind::Image.family(), &node[0]);
    let build = || {
        EpisodeEnv::build(node, scenario, stream, &goal, seed, Some(span))
            .expect("matrix scenarios validate")
    };
    let reference = Arc::new(build());
    check(&reference);
    let mut builder = Runtime::builder()
        .platform(node[0].id())
        .family(FamilyKind::Image)
        .seed(seed);
    for p in &node[1..] {
        builder = builder.extra_backend(p.id());
    }
    if let Some(budget) = shared_budget {
        builder = builder.shared_budget(budget);
    }
    let mut rt = builder.build().expect("builtin policy resolves");
    SCHEMES
        .iter()
        .map(|&scheme| {
            let rebuilt = build();
            assert!(
                rebuilt == *reference,
                "environment realization diverged for {scheme} on {}",
                scenario.name()
            );
            check(&rebuilt);
            *identity_checks += 1;

            let id = rt
                .session(SessionSpec::external(&reference))
                .policy(scheme)
                .on(stream.clone(), reference.clone())
                .open()
                .expect("registered policy builds");
            rt.run_to_completion(id).expect("episode runs");
            rt.close(id).expect("session open")
        })
        .collect()
}

/// Parses a bin's `[count] [seed]` arguments into `(count, seed)`:
/// `count` defaults to `default_count` and must be at least
/// `min_count`, `seed` defaults to 2020. `None` for an unparsable
/// value, a count below the minimum, or a third argument.
pub fn parse_args(args: &[String], default_count: usize, min_count: usize) -> Option<(usize, u64)> {
    let count = match args.first() {
        Some(s) => s.parse().ok().filter(|&n| n >= min_count)?,
        None => default_count,
    };
    let seed = match args.get(1) {
        Some(s) => s.parse().ok()?,
        None => 2020,
    };
    (args.len() <= 2).then_some((count, seed))
}

/// The bin's `(count, seed)` from its command line ([`parse_args`]).
/// `None`, after a usage line naming `bin` and `count` on stderr, when
/// the arguments are refused: the bin then exits non-zero, so a typo
/// never runs the default instead.
pub fn args_or_usage(
    bin: &str,
    count: &str,
    default_count: usize,
    min_count: usize,
) -> Option<(usize, u64)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args, default_count, min_count);
    if parsed.is_none() {
        eprintln!(
            "usage: {bin} [{count}] [seed]  (defaults {default_count}, 2020; {count} >= {min_count})"
        );
    }
    parsed
}

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

    fn parse(args: &[&str], default_count: usize, min_count: usize) -> Option<(usize, u64)> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args, default_count, min_count)
    }

    #[test]
    fn arguments_default_and_parse() {
        assert_eq!(parse(&[], 300, 1), Some((300, 2020)));
        assert_eq!(parse(&["60"], 300, 1), Some((60, 2020)));
        assert_eq!(parse(&["60", "7"], 300, 1), Some((60, 7)));
        assert_eq!(parse(&["60", "0"], 300, 1), Some((60, 0)));
        assert_eq!(parse(&[], 240, 50), Some((240, 2020)));
        assert_eq!(parse(&["50"], 240, 50), Some((50, 2020)));
    }

    #[test]
    fn short_unparsable_or_extra_arguments_are_rejected() {
        assert_eq!(parse(&["0"], 300, 1), None);
        assert_eq!(parse(&["0", "2020"], 300, 1), None);
        assert_eq!(parse(&["3OO"], 300, 1), None);
        assert_eq!(parse(&["-1"], 300, 1), None);
        assert_eq!(parse(&["300", "2O20"], 300, 1), None);
        assert_eq!(parse(&["300", "2020", "1"], 300, 1), None);
        // Below a bin's own minimum, or unparsable: refused, never
        // replaced by the default.
        assert_eq!(parse(&["10", "2020"], 300, 50), None);
        assert_eq!(parse(&["49"], 240, 50), None);
        assert_eq!(parse(&["abc", "2020"], 240, 50), None);
        assert_eq!(parse(&["19"], 120, 20), None);
    }

    #[test]
    fn format_helper() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(0.5, 3), "0.500");
    }
}
