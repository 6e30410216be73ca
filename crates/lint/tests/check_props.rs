//! Property test for the per-file rule engine: on *any* composition of
//! adversarial item fragments — unbalanced braces, generics with `->`
//! arrows in where-clauses, macro soup, unterminated literals, guards
//! held across calls — checking a file must be total (never panic) and
//! deterministic (same input, identical findings and counts), with
//! every finding on a line of the file.
//!
//! Mirrors `lexer_props.rs`: the vendored proptest shim has no string
//! strategies, so sources are composed by index-picking from a fragment
//! table.

use alert_lint::context::FileContext;
use alert_lint::lexer::lex;
use alert_lint::rules::{check_file, FileFindings};
use proptest::collection::vec;
use proptest::prelude::*;

/// Item-level fragments, including deliberately broken shapes the rules
/// must survive.
const FRAGMENTS: &[&str] = &[
    "pub fn api(n: u32) -> u32 { helper(n) }",
    "fn helper(n: u32) -> u32 { n + 1 }",
    "pub mod m { pub fn inner() { super_call(); } }",
    "impl Widget { pub fn spin(&self) -> u32 { self.helper() } fn helper(&self) -> u32 { 0 } }",
    "pub struct Widget { state: u32 }",
    "use alert_stats::rng::stream_rng;",
    "pub fn calls_import(seed: u64) { stream_rng(seed, \"x\"); }",
    "fn generic<F>(f: F) -> u32 where F: Fn(u32) -> u32 { f(1) }",
    "trait Step { fn step(&mut self) -> bool; }",
    "macro_rules! mk { () => { fn made() {} }; }",
    "pub fn shadowed() { shadowed(); }",
    "const LIMIT: usize = 8;",
    "fn unclosed() { if x {",
    "}",
    "}}",
    "pub fn",
    "impl {",
    "fn stray_arrow() -> ",
    "#[cfg(test)] mod tests { fn t() { api(0); } }",
    "// fn commented_out() { api(1); }",
    "\"fn in_a_string() { api(2); }\"",
    "let not_an_item = 3;",
    "pub fn deep(a: u32) { helper(helper(helper(a))); }",
    "pub struct Pool { slots: Mutex<u32>, log: RwLock<u32> }",
    "impl Pool { fn take(&self) { let g = self.slots.lock(); self.refill(); } \
     fn refill(&self) { *self.log.write() += 1; } }",
    "fn typed(x: [u8; 4]) -> [f64; 2] { assert!(x.len() == 4); [0.0; 2] }",
    "#[cfg(test)] fn t(x: [u8; 4]) -> u8 { x.first().copied().unwrap() }",
    "/// Halves.\n///\n/// # Panics\n/// If `n` is odd.\npub fn half(n: u32) -> u32 { assert_eq!(n % 2, 0); n / 2 }",
    "const _: () = assert!(LIMIT > 0);",
    "use alert_bench::harness::Run;",
    "fn reseed(r: &mut StdRng) -> StdRng { StdRng::seed_from_u64(r.next_u64()) }",
    "let s = rand::random();",
    "fn unchecked() { xs.get(0).unwrap(); } // lint:allow(no-panic): fragment",
];

/// Separators spliced between fragments.
const SEPS: &[&str] = &["", " ", "\n", "\n\n"];

/// Each composed file is checked as library code, as the RNG module,
/// and as an integration test.
const PATHS: &[&str] = &[
    "crates/core/src/fuzzed.rs",
    "crates/stats/src/rng.rs",
    "tests/fuzzed.rs",
];

/// Builds one source string from fragment/separator index picks.
fn compose(picks: &[(usize, usize)]) -> String {
    let mut s = String::new();
    for &(f, sep) in picks {
        s.push_str(FRAGMENTS[f % FRAGMENTS.len()]);
        s.push_str(SEPS[sep % SEPS.len()]);
    }
    s
}

fn check(path: &str, src: &str) -> FileFindings {
    let tokens = lex(src);
    let ctx = FileContext::build(path, src, &tokens);
    check_file(&ctx, src, &tokens)
}

/// A comparable fingerprint of everything the report consumes.
fn fingerprint(f: &FileFindings) -> String {
    format!("{:?}\n{:?}\n{:?}", f.violations, f.allowed, f.structure)
}

proptest! {
    #[test]
    fn checking_a_file_is_total_and_deterministic(
        picks in vec((0usize..FRAGMENTS.len(), 0usize..SEPS.len()), 0..12),
    ) {
        let src = compose(&picks);
        let last_line = src.lines().count().max(1);
        for path in PATHS {
            // Totality: checking never panics (reaching here proves it).
            let first = check(path, &src);
            for v in &first.violations {
                prop_assert!(
                    (1..=last_line).contains(&v.line),
                    "{path}: line {} outside {:?}", v.line, src
                );
            }
            let s = &first.structure;
            prop_assert!(s.panic_accounted <= s.panic_sources);
            prop_assert!(s.rng_traced <= s.rng_constructions);

            // Determinism: a second check is identical.
            let second = check(path, &src);
            prop_assert_eq!(fingerprint(&first), fingerprint(&second));
        }
    }
}
