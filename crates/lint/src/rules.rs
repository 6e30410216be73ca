//! The rule catalog and the context-aware rule engine.
//!
//! Every rule checks one file at a time through [`check_file`]. Rules
//! scan the **masked** source (comments and literals blanked by
//! [`crate::lexer::mask`]) so they can never fire on prose, and consult
//! the [`FileContext`] so the same textual pattern is a violation in
//! one place and sanctioned in another (wall-clock reads: fatal in a
//! decision path, the whole point of a bench bin). The four structural
//! rules (`crate-layer-dag`, `panic-reachability`, `lock-order`,
//! `rng-provenance`) also count what they see into a [`Structure`].
//!
//! Suppression is *only* via inline annotations:
//!
//! ```text
//! // lint:allow(rule-a, rule-b): reason the invariant holds here
//! ```
//!
//! A trailing annotation covers its own line; a standalone one covers
//! the next line that contains code. An annotation with an empty
//! reason, an unknown rule id, or one that suppresses nothing is
//! itself a violation (`allow-needs-reason` / `unused-allow`), so the
//! allow ledger cannot silently rot. See DESIGN.md §9 for the catalog
//! rationale and how to add a rule.

use crate::context::{item_head_end, match_brace, FileContext, FileKind};
use crate::lexer::{mask, TokKind, Token};
use crate::report::Structure;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Rule identifiers (the strings used in `lint:allow(...)`).
pub const NO_PANIC: &str = "no-panic";
/// See [`NO_PANIC`].
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// See [`NO_PANIC`].
pub const NO_UNSEEDED_RNG: &str = "no-unseeded-rng";
/// See [`NO_PANIC`].
pub const NO_HASH_ITERATION: &str = "no-hash-iteration";
/// See [`NO_PANIC`].
pub const NAN_UNSAFE_COMPARE: &str = "nan-unsafe-compare";
/// See [`NO_PANIC`].
pub const PANIC_REACHABILITY: &str = "panic-reachability";
/// See [`NO_PANIC`].
pub const CRATE_LAYER_DAG: &str = "crate-layer-dag";
/// See [`NO_PANIC`].
pub const LOCK_ORDER: &str = "lock-order";
/// See [`NO_PANIC`].
pub const RNG_PROVENANCE: &str = "rng-provenance";
/// See [`NO_PANIC`].
pub const METRIC_NAME_DISCIPLINE: &str = "metric-name-discipline";
/// See [`NO_PANIC`].
pub const ALLOW_NEEDS_REASON: &str = "allow-needs-reason";
/// See [`NO_PANIC`].
pub const UNUSED_ALLOW: &str = "unused-allow";

/// One catalog entry, for reports and allow validation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RuleInfo {
    /// The id used in `lint:allow(...)`.
    pub id: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The full catalog. Order is the severity-agnostic display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: NO_PANIC,
        summary: "library code must not contain panic-capable sites \
                  (unwrap/expect/panic!/unreachable!/todo!/unimplemented!/\
                  integer-literal indexing); return Result or justify the invariant",
    },
    RuleInfo {
        id: NO_WALL_CLOCK,
        summary: "no Instant/SystemTime outside bench bins and the metering module \
                  (crates/stats cputime); decision paths meter on alert-stats::cputime",
    },
    RuleInfo {
        id: NO_UNSEEDED_RNG,
        summary: "no thread_rng/from_entropy/OsRng anywhere — all randomness is \
                  frozen behind seeded streams for replay identity",
    },
    RuleInfo {
        id: NO_HASH_ITERATION,
        summary: "no HashMap/HashSet in decision/realization code — iteration \
                  order is nondeterministic; use BTreeMap/Vec or justify that \
                  the container is never iterated",
    },
    RuleInfo {
        id: NAN_UNSAFE_COMPARE,
        summary: "no partial_cmp().unwrap()/expect() and no ==/!= against float \
                  literals; use f64::total_cmp or \
                  alert-core::select::{lex2_better,lex3_better}",
    },
    RuleInfo {
        id: PANIC_REACHABILITY,
        summary: "assert!-family sites in protected library code must sit in a fn \
                  whose doc has a `# Panics` section or in a module-scope const, \
                  or carry a reasoned allow",
    },
    RuleInfo {
        id: CRATE_LAYER_DAG,
        summary: "cross-crate references must follow the layer DAG stats < platform \
                  < models < workload < core < sched < bench/lint — strictly \
                  downward, including use-level re-exports Cargo.toml cannot see",
    },
    RuleInfo {
        id: LOCK_ORDER,
        summary: "one lock at a time: no Mutex/RwLock acquisition, and no call to a \
                  same-file fn that acquires one, while another guard is held",
    },
    RuleInfo {
        id: RNG_PROVENANCE,
        summary: "RNGs are constructed only in crates/stats/src/rng.rs (stream_rng), \
                  never from another RNG's output; no rand::random anywhere",
    },
    RuleInfo {
        id: METRIC_NAME_DISCIPLINE,
        summary: "metric recording calls (counter_add/gauge_set/histogram_observe) \
                  must pass a 'static string-literal name; no format!/computed \
                  names on the recording path",
    },
    RuleInfo {
        id: ALLOW_NEEDS_REASON,
        summary: "every lint:allow must name known rules and carry a non-empty \
                  reason after a colon",
    },
    RuleInfo {
        id: UNUSED_ALLOW,
        summary: "a lint:allow that suppresses nothing is stale and must be removed",
    },
];

/// True iff `id` names a catalog rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Paths (workspace-relative prefixes or exact files) that constitute
/// decision/realization code, where hash-container nondeterminism can
/// change what the system *does* rather than just how logs are ordered.
const DECISION_PATHS: &[&str] = &[
    "crates/core/src/",          // estimators, selection, fast lane
    "crates/sched/src/alert.rs", // ALERT scheduler decisions
    "crates/sched/src/oracle.rs",
    "crates/sched/src/sys_only.rs",
    "crates/sched/src/no_coord.rs",
    "crates/sched/src/app_only.rs",
    "crates/sched/src/env.rs", // environment realization
    "crates/workload/src/script.rs",
    "crates/workload/src/scenario.rs",
];

/// The one module allowed to touch the wall clock outside bench code:
/// it *implements* the sanctioned meter (CPU clock with wall fallback).
const METERING_MODULE: &str = "crates/stats/src/cputime.rs";

/// The one module allowed to construct RNGs: it derives every random
/// stream from a seed and a label (`stream_rng`).
const RNG_MODULE: &str = "crates/stats/src/rng.rs";

/// The crate layer table: a crate may reference only strictly lower
/// layers. `bench` and `lint` share the top layer (neither may be
/// referenced by library code, and they must not reference each other);
/// the six crates below it are the protected library crates. The root
/// `alert` package re-exports everything and is exempt.
pub(crate) const LAYERS: &[(&str, u32)] = &[
    ("alert_stats", 0),
    ("alert_platform", 1),
    ("alert_models", 2),
    ("alert_workload", 3),
    ("alert_core", 4),
    ("alert_sched", 5),
    ("alert_bench", 6),
    ("alert_lint", 6),
];

/// The layer of the top crates (`bench`, `lint`).
const TOP_LAYER: u32 = 6;

/// One unsuppressed finding.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Catalog rule id.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The source line, trimmed.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// One `lint:allow` annotation that suppressed at least one finding.
#[derive(Debug, Clone, Serialize)]
pub struct AllowEntry {
    /// Rules the annotation names.
    pub rules: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: usize,
    /// The justification after the colon.
    pub reason: String,
    /// How many findings it suppressed.
    pub suppressed: usize,
}

/// Everything the engine found in one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Unsuppressed violations.
    pub violations: Vec<Violation>,
    /// The allow ledger (annotations that suppressed something).
    pub allowed: Vec<AllowEntry>,
    /// Raw (pre-suppression) counts of the structural rules; `layers`
    /// stays empty (the report adds the table once).
    pub structure: Structure,
}

/// Runs every rule over one lexed file, then resolves its `lint:allow`
/// annotations against the findings.
pub fn check_file(ctx: &FileContext, src: &str, tokens: &[Token]) -> FileFindings {
    let masked = mask(src, tokens);
    let lines = LineIndex::new(src);
    let mut raw = Vec::new();
    let mut structure = Structure::default();

    scan_identifiers(ctx, &masked, &mut raw);
    scan_literal_index(ctx, &masked, &mut raw);
    scan_float_eq(ctx, &masked, &mut raw);
    scan_metric_names(ctx, &masked, tokens, &mut raw);
    scan_layers(ctx, &masked, &mut raw, &mut structure);
    scan_rng(ctx, &masked, &mut raw, &mut structure);
    if ctx.kind == FileKind::Library {
        let fns = fn_bodies(&masked);
        scan_asserts(ctx, src, &masked, &lines, &fns, &mut raw, &mut structure);
        scan_locks(ctx, &masked, &fns, &mut raw, &mut structure);
    }

    let allows = parse_allows(src, tokens, &masked, &lines, &mut raw);
    let mut findings = resolve(ctx, raw, allows, &lines, src);
    let unaccounted = findings
        .violations
        .iter()
        .filter(|v| v.rule == PANIC_REACHABILITY)
        .count();
    structure.panic_accounted = structure.panic_sources - unaccounted;
    findings.structure = structure;
    findings
}

// ---------------------------------------------------------------- engine

struct LineIndex {
    /// Byte offset of the start of each line.
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(src: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number of a byte offset.
    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }

    /// Byte offset of the start of the line holding `offset`.
    fn line_start(&self, offset: usize) -> usize {
        self.starts[self.line_of(offset) - 1]
    }

    /// Byte range of a 1-based line (without the newline).
    fn span_of(&self, line: usize, total: usize) -> (usize, usize) {
        let start = self.starts[line - 1];
        let end = self
            .starts
            .get(line)
            .map_or(total, |&next| next.saturating_sub(1));
        (start, end)
    }
}

/// A rule hit before suppression.
struct RawViolation {
    rule: &'static str,
    offset: usize,
    message: String,
}

fn snippet(src: &str, lines: &LineIndex, line: usize) -> String {
    let (s, e) = lines.span_of(line, src.len());
    src[s..e].trim().to_string()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Next non-whitespace byte at or after `i`.
fn next_nonws(masked: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < masked.len() {
        if !masked[i].is_ascii_whitespace() {
            return Some((i, masked[i]));
        }
        i += 1;
    }
    None
}

/// Previous non-whitespace byte strictly before `i`.
fn prev_nonws(masked: &[u8], i: usize) -> Option<(usize, u8)> {
    (0..i)
        .rev()
        .map(|j| (j, masked[j]))
        .find(|&(_, b)| !b.is_ascii_whitespace())
}

/// Word occurrences in `masked` as (start, end) spans. Digit-led words
/// are numeric literals and are skipped.
fn words(masked: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < masked.len() {
            let start = i;
            while i < masked.len() && is_word(masked[i]) {
                i += 1;
            }
            if i == start {
                i += 1;
            } else if !masked[start].is_ascii_digit() {
                return Some((start, i));
            }
        }
        None
    })
}

/// The word whose last byte is the last non-whitespace byte before
/// `i`, with its start offset.
fn word_before(masked: &[u8], i: usize) -> Option<(usize, &[u8])> {
    let (end, b) = prev_nonws(masked, i)?;
    if !is_word(b) {
        return None;
    }
    let mut start = end;
    while start > 0 && is_word(masked[start - 1]) {
        start -= 1;
    }
    Some((start, &masked[start..=end]))
}

/// The word starting at `start` (empty when none does).
fn word_at(masked: &[u8], start: usize) -> &[u8] {
    let len = masked[start..].iter().take_while(|&&b| is_word(b)).count();
    &masked[start..start + len]
}

/// Is the next non-whitespace byte at or after `i` the one given?
fn next_is(masked: &[u8], i: usize, b: u8) -> bool {
    next_nonws(masked, i).is_some_and(|(_, c)| c == b)
}

/// Identifier-driven rules: panics, clocks, RNG, hash containers,
/// `partial_cmp(..).unwrap()`.
fn scan_identifiers(ctx: &FileContext, masked: &[u8], out: &mut Vec<RawViolation>) {
    for (start, i) in words(masked) {
        let word = &masked[start..i];
        let after = next_nonws(masked, i).map(|(_, b)| b);
        let dotted = prev_nonws(masked, start).map(|(_, b)| b) == Some(b'.');
        match word {
            b"unwrap" | b"expect"
                if after == Some(b'(') && dotted && rule_applies(NO_PANIC, ctx, start) =>
            {
                let w = String::from_utf8_lossy(word);
                out.push(RawViolation {
                    rule: NO_PANIC,
                    offset: start,
                    message: format!(
                        ".{w}() can panic; return a Result/Option or annotate the invariant"
                    ),
                });
            }
            b"panic" | b"unreachable" | b"todo" | b"unimplemented"
                if after == Some(b'!') && rule_applies(NO_PANIC, ctx, start) =>
            {
                let w = String::from_utf8_lossy(word);
                out.push(RawViolation {
                    rule: NO_PANIC,
                    offset: start,
                    message: format!("{w}! aborts the session; library code must not panic"),
                });
            }
            b"Instant" | b"SystemTime" if rule_applies(NO_WALL_CLOCK, ctx, start) => {
                let w = String::from_utf8_lossy(word);
                out.push(RawViolation {
                    rule: NO_WALL_CLOCK,
                    offset: start,
                    message: format!(
                        "{w} is ambient wall time; meter on alert_stats::cputime \
                         (DecisionStopwatch) or move the code to a bench bin"
                    ),
                });
            }
            b"thread_rng" | b"ThreadRng" | b"from_entropy" | b"from_os_rng" | b"OsRng"
                if rule_applies(NO_UNSEEDED_RNG, ctx, start) =>
            {
                let w = String::from_utf8_lossy(word);
                out.push(RawViolation {
                    rule: NO_UNSEEDED_RNG,
                    offset: start,
                    message: format!(
                        "{w} draws entropy outside the frozen seeded streams and \
                         breaks capture/replay identity"
                    ),
                });
            }
            b"HashMap" | b"HashSet" if rule_applies(NO_HASH_ITERATION, ctx, start) => {
                let w = String::from_utf8_lossy(word);
                out.push(RawViolation {
                    rule: NO_HASH_ITERATION,
                    offset: start,
                    message: format!(
                        "{w} in decision/realization code: iteration order is \
                         nondeterministic; use BTreeMap/Vec or justify that this \
                         container is never iterated"
                    ),
                });
            }
            b"partial_cmp"
                if after == Some(b'(')
                    && rule_applies(NAN_UNSAFE_COMPARE, ctx, start)
                    && partial_cmp_then_panic(masked, i) =>
            {
                out.push(RawViolation {
                    rule: NAN_UNSAFE_COMPARE,
                    offset: start,
                    message: "partial_cmp().unwrap()/expect() panics on NaN; use \
                              f64::total_cmp or the NaN-rejecting \
                              alert_core::select::{lex2_better, lex3_better}"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// After a `partial_cmp` identifier ending at `i`: does the call chain
/// continue with `.unwrap(` / `.expect(`? Follows the balanced argument
/// parens first.
fn partial_cmp_then_panic(masked: &[u8], i: usize) -> bool {
    let Some((open, b'(')) = next_nonws(masked, i) else {
        return false;
    };
    let close = open + 1 + arg_span(masked, open).len();
    if close >= masked.len() {
        return false;
    }
    let Some((dot, b'.')) = next_nonws(masked, close + 1) else {
        return false;
    };
    let Some((w, _)) = next_nonws(masked, dot + 1) else {
        return false;
    };
    let mut e = w;
    while e < masked.len() && is_word(masked[e]) {
        e += 1;
    }
    // Full-word match only: `.unwrap_or(Ordering::Equal)` is NaN-safe.
    matches!(&masked[w..e], b"unwrap" | b"expect")
}

/// `xs[0]`-style indexing with an integer literal: the classic
/// off-by-one panic site (`first()`/`get()` exist). Heuristic: a `[`
/// whose previous non-whitespace byte ends an expression (identifier,
/// `)`, or `]`) and whose content is exactly an integer literal.
///
/// Indexing into a SCREAMING_CASE receiver (`P[4]`) is skipped: those
/// are fixed-length `const` arrays, where rustc's deny-by-default
/// `unconditional_panic` lint already rejects an out-of-bounds literal
/// index at compile time. The rule targets slices and `Vec`s, whose
/// lengths rustc cannot see.
fn scan_literal_index(ctx: &FileContext, masked: &[u8], out: &mut Vec<RawViolation>) {
    for i in 0..masked.len() {
        if masked[i] != b'[' {
            continue;
        }
        let Some((p, prev)) = prev_nonws(masked, i) else {
            continue;
        };
        if !(is_word(prev) || prev == b')' || prev == b']') {
            continue;
        }
        if is_word(prev) && is_const_ident(masked, p) {
            continue;
        }
        let mut j = i + 1;
        let digits_start = j;
        while j < masked.len() && (masked[j].is_ascii_digit() || masked[j] == b'_') {
            j += 1;
        }
        if j == digits_start || j >= masked.len() || masked[j] != b']' {
            continue;
        }
        if rule_applies(NO_PANIC, ctx, i) {
            out.push(RawViolation {
                rule: NO_PANIC,
                offset: i,
                message: "integer-literal indexing panics out of bounds; use \
                          .get(n)/.first() or annotate why the length is guaranteed"
                    .to_string(),
            });
        }
    }
}

/// Is the identifier ending at byte `last` SCREAMING_CASE (uppercase,
/// digits, underscores — with at least one uppercase letter)?
fn is_const_ident(masked: &[u8], last: usize) -> bool {
    let mut start = last;
    while start > 0 && is_word(masked[start - 1]) {
        start -= 1;
    }
    let word = &masked[start..=last];
    word.iter().any(|b| b.is_ascii_uppercase())
        && word
            .iter()
            .all(|&b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// `x == 0.0` / `x != 1.5`: equality against a float literal is almost
/// always a NaN-unsafe or rounding-unsafe comparison. Tuple fields
/// (`a.0 == b.0`) are not float literals and do not match.
fn scan_float_eq(ctx: &FileContext, masked: &[u8], out: &mut Vec<RawViolation>) {
    let mut i = 0;
    while i + 1 < masked.len() {
        let op_is_eq = masked[i] == b'=' && masked[i + 1] == b'=';
        let op_is_ne = masked[i] == b'!' && masked[i + 1] == b'=';
        if !(op_is_eq || op_is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `==` scanned mid-token, and compound ops.
        if op_is_eq && i > 0 && matches!(masked[i - 1], b'<' | b'>' | b'!' | b'=') {
            i += 2;
            continue;
        }
        if masked.get(i + 2) == Some(&b'=') {
            i += 3;
            continue;
        }
        let rhs_float = rhs_is_float_literal(masked, i + 2);
        let lhs_float = lhs_is_float_literal(masked, i);
        if (rhs_float || lhs_float) && rule_applies(NAN_UNSAFE_COMPARE, ctx, i) {
            out.push(RawViolation {
                rule: NAN_UNSAFE_COMPARE,
                offset: i,
                message: "==/!= against a float literal is NaN/rounding-unsafe; \
                          compare with total_cmp, an epsilon, or annotate the \
                          exact-value invariant"
                    .to_string(),
            });
        }
        i += 2;
    }
}

/// Does a float literal (`12.5`, `1_000.0`, optionally `-`-signed)
/// start at or after `i`?
fn rhs_is_float_literal(masked: &[u8], i: usize) -> bool {
    let Some((mut j, b)) = next_nonws(masked, i) else {
        return false;
    };
    if b == b'-' {
        let Some((k, _)) = next_nonws(masked, j + 1) else {
            return false;
        };
        j = k;
    }
    let digits = |mut k: usize| {
        let s = k;
        while k < masked.len() && (masked[k].is_ascii_digit() || masked[k] == b'_') {
            k += 1;
        }
        (k > s).then_some(k)
    };
    let Some(dot) = digits(j) else { return false };
    if masked.get(dot) != Some(&b'.') {
        return false;
    }
    // `0..10` is a range, not a float.
    digits(dot + 1).is_some() && masked.get(dot + 1) != Some(&b'.')
}

/// Does a float literal end just before operator position `i`? Walks
/// backwards over `digits . digits` and requires the byte before the
/// leading digits not to extend an identifier or field access (so
/// `a.0 == …` is not a float).
fn lhs_is_float_literal(masked: &[u8], i: usize) -> bool {
    let Some((j, b)) = prev_nonws(masked, i) else {
        return false;
    };
    if !b.is_ascii_digit() {
        return false;
    }
    // Walk back over the fraction digits to what must be the dot.
    let mut k = j;
    while masked[k].is_ascii_digit() || masked[k] == b'_' {
        if k == 0 {
            return false; // bare integer at start of file
        }
        k -= 1;
    }
    if masked[k] != b'.' || k == 0 {
        return false;
    }
    // At least one integer digit before the dot (`a.0` has none:
    // that is a tuple-field access, not a float).
    let mut m = k - 1;
    if !masked[m].is_ascii_digit() {
        return false;
    }
    while masked[m].is_ascii_digit() || masked[m] == b'_' {
        if m == 0 {
            return true; // literal starts at offset 0
        }
        m -= 1;
    }
    // The byte before the literal must not extend an identifier or a
    // field chain (`x1.0`, `a.1.0`).
    !(is_word(masked[m]) || masked[m] == b'.')
}

/// The metric recording methods whose first argument is a metric name
/// (see `alert_stats::telemetry::MetricsRegistry`). The registry's
/// snapshot keys on these names, so a computed name both allocates on
/// the hot path and breaks snapshot byte-determinism.
const METRIC_FNS: &[&[u8]] = &[b"counter_add", b"gauge_set", b"histogram_observe"];

/// `metric-name-discipline`: every call to a [`METRIC_FNS`] method must
/// pass a string literal (plain or raw) as its first argument — the
/// `&'static str` contract means a `format!`ed or forwarded name had to
/// be leaked or computed on the recording path.
fn scan_metric_names(
    ctx: &FileContext,
    masked: &[u8],
    tokens: &[Token],
    out: &mut Vec<RawViolation>,
) {
    for (start, i) in words(masked) {
        let word = &masked[start..i];
        if !METRIC_FNS.contains(&word) {
            continue;
        }
        // Call sites only: a definition (`fn counter_add(...)`) states
        // the `&'static str` contract rather than recording anything.
        if preceded_by_fn(masked, start) {
            continue;
        }
        let Some((open, b'(')) = next_nonws(masked, i) else {
            continue;
        };
        if rule_applies(METRIC_NAME_DISCIPLINE, ctx, start)
            && !first_arg_is_str_literal(masked, tokens, open)
        {
            let w = String::from_utf8_lossy(word);
            out.push(RawViolation {
                rule: METRIC_NAME_DISCIPLINE,
                offset: start,
                message: format!(
                    "{w} must take a 'static string-literal metric name registered \
                     at construction; no format!/computed names on the recording path"
                ),
            });
        }
    }
}

/// Is the identifier starting at `start` preceded by the `fn` keyword?
fn preceded_by_fn(masked: &[u8], start: usize) -> bool {
    word_before(masked, start).is_some_and(|(_, w)| w == b"fn")
}

/// Does the argument list opening at `open` start with a string literal
/// (plain or raw)? Literal bytes are blanked in `masked`, so the check
/// consults the token tiling: walk forward from the paren skipping
/// whitespace (which also covers blanked comments); the first position
/// that starts a `Str`/`RawStr` token is a literal name, and any other
/// code byte means the name is computed.
fn first_arg_is_str_literal(masked: &[u8], tokens: &[Token], open: usize) -> bool {
    let mut j = open + 1;
    while j < masked.len() {
        if let Ok(k) = tokens.binary_search_by(|t| t.start.cmp(&j)) {
            if matches!(tokens[k].kind, TokKind::Str | TokKind::RawStr) {
                return true;
            }
        }
        if masked[j].is_ascii_whitespace() {
            j += 1;
        } else {
            return false;
        }
    }
    false
}

/// Which contexts each rule bites in.
fn rule_applies(rule: &str, ctx: &FileContext, offset: usize) -> bool {
    match rule {
        NO_PANIC => ctx.kind == FileKind::Library && !ctx.in_test(offset),
        NO_WALL_CLOCK => {
            ctx.kind != FileKind::Bench && ctx.path != METERING_MODULE && !ctx.in_test(offset)
        }
        // Frozen randomness is global policy: tests and benches too.
        NO_UNSEEDED_RNG | RNG_PROVENANCE => true,
        NO_HASH_ITERATION => {
            !ctx.in_test(offset)
                && DECISION_PATHS
                    .iter()
                    .any(|p| ctx.path == *p || (p.ends_with('/') && ctx.path.starts_with(p)))
        }
        NAN_UNSAFE_COMPARE => !ctx.in_test(offset),
        METRIC_NAME_DISCIPLINE | LOCK_ORDER => {
            ctx.kind == FileKind::Library && !ctx.in_test(offset)
        }
        PANIC_REACHABILITY => {
            ctx.kind == FileKind::Library
                && own_layer(ctx).is_some_and(|(_, l)| l < TOP_LAYER)
                && !ctx.in_test(offset)
        }
        // Tests and examples may depend on anything (dev-dependencies).
        CRATE_LAYER_DAG => {
            !matches!(ctx.kind, FileKind::IntegrationTest | FileKind::Example)
                && !ctx.in_test(offset)
        }
        _ => true,
    }
}

// ------------------------------------------------------ structural rules

/// The layer table entry of the file's own crate (`None` for the root
/// `alert`).
fn own_layer(ctx: &FileContext) -> Option<(&'static str, u32)> {
    let token = ctx.crate_name.replace('-', "_");
    LAYERS.iter().copied().find(|&(n, _)| n == token)
}

/// `crate-layer-dag`: every `alert_x::` path in non-test code names a
/// crate on a strictly lower layer than the file's own. Cargo already
/// rejects an upward `[dependencies]` edge among the chained library
/// crates as a cycle; this catches the `use`-level references it cannot
/// see, such as any reference to `alert_lint`.
fn scan_layers(
    ctx: &FileContext,
    masked: &[u8],
    out: &mut Vec<RawViolation>,
    structure: &mut Structure,
) {
    let Some((own_name, own)) = own_layer(ctx) else {
        return;
    };
    for (s, e) in words(masked) {
        let word = &masked[s..e];
        let Some(&(name, layer)) = LAYERS.iter().find(|(n, _)| n.as_bytes() == word) else {
            continue;
        };
        let path = next_nonws(masked, e)
            .is_some_and(|(i, b)| b == b':' && masked.get(i + 1) == Some(&b':'));
        if !path || name == own_name || layer < own || !rule_applies(CRATE_LAYER_DAG, ctx, s) {
            continue;
        }
        structure.layer_violations += 1;
        out.push(RawViolation {
            rule: CRATE_LAYER_DAG,
            offset: s,
            message: format!(
                "{own_name} (layer {own}) references {name} (layer {layer}); the crate \
                 DAG is stats < platform < models < workload < core < sched < bench/lint \
                 and references must point strictly downward"
            ),
        });
    }
}

/// One `fn` item with a body.
struct FnBody<'a> {
    /// The fn's name.
    name: &'a [u8],
    /// Offset of the `fn` keyword.
    keyword: usize,
    /// The body, `{` through the matching `}`.
    body: Range<usize>,
}

/// Every named fn with a body in the file. The body opens at the first
/// `{` after the name that lies outside `()` and `[]`; a `;` there first
/// means a bodiless declaration (a trait method, an extern fn).
fn fn_bodies(masked: &[u8]) -> Vec<FnBody<'_>> {
    let mut out = Vec::new();
    for (s, e) in words(masked) {
        if &masked[s..e] != b"fn" {
            continue;
        }
        // A `fn(u32) -> u32` pointer type has no name.
        let Some((at, _)) = next_nonws(masked, e) else {
            continue;
        };
        let name = word_at(masked, at);
        if name.is_empty() {
            continue;
        }
        if let Some((open, b'{')) = item_head_end(masked, at + name.len()) {
            out.push(FnBody {
                name,
                keyword: s,
                body: open..match_brace(masked, open),
            });
        }
    }
    out
}

/// The innermost fn whose body contains `offset`.
fn enclosing_fn<'f, 'a>(fns: &'f [FnBody<'a>], offset: usize) -> Option<&'f FnBody<'a>> {
    fns.iter()
        .filter(|f| f.body.contains(&offset))
        .min_by_key(|f| f.body.len())
}

/// `panic-reachability`: every `assert!`/`assert_eq!`/`assert_ne!` in
/// non-test library code of a protected crate sits in a fn whose doc
/// has a `# Panics` section, or in a module-scope `const` item, or
/// carries a reasoned allow (resolved like every other finding).
fn scan_asserts(
    ctx: &FileContext,
    src: &str,
    masked: &[u8],
    lines: &LineIndex,
    fns: &[FnBody<'_>],
    out: &mut Vec<RawViolation>,
    structure: &mut Structure,
) {
    for (s, e) in words(masked) {
        if !matches!(&masked[s..e], b"assert" | b"assert_eq" | b"assert_ne")
            || !next_is(masked, e, b'!')
            || !rule_applies(PANIC_REACHABILITY, ctx, s)
        {
            continue;
        }
        structure.panic_sources += 1;
        let message = match enclosing_fn(fns, s) {
            Some(f) if doc_has_panics(src, lines.line_start(f.keyword)) => continue,
            Some(f) => {
                let name = String::from_utf8_lossy(f.name);
                format!(
                    "assert! panics in `{name}`, whose doc has no `# Panics` section; \
                     document the precondition there, return an error, or annotate \
                     the invariant"
                )
            }
            None if in_const_item(masked, s) => continue,
            None => "assert! outside any fn and outside a module-scope `const`; move \
                     it into a const item or a documented fn"
                .to_string(),
        };
        out.push(RawViolation {
            rule: PANIC_REACHABILITY,
            offset: s,
            message,
        });
    }
}

/// Does the doc comment immediately above the item whose first line
/// starts at `item_line` contain a `# Panics` section? Walks backwards
/// over contiguous doc-comment, comment and attribute lines.
fn doc_has_panics(src: &str, item_line: usize) -> bool {
    let head = src.get(..item_line).unwrap_or("");
    for line in head.lines().rev() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with("///") || t.starts_with("//!") {
            if t.contains("# Panics") {
                return true;
            }
        } else if !(t.starts_with("#[") || t.starts_with("#![") || t.starts_with("//")) {
            return false;
        }
    }
    false
}

/// Is the statement holding `offset` a `const` item (`const _: () =
/// assert!(…);`)? Such an assert is checked at compile time.
fn in_const_item(masked: &[u8], offset: usize) -> bool {
    let start = statement_start(masked, offset);
    words(&masked[start..offset]).any(|(s, e)| &masked[start + s..start + e] == b"const")
}

/// One guard-returning call: `.lock()`, or `.read()`/`.write()` on a
/// receiver the file declares as a `Mutex`/`RwLock`.
struct Acquisition {
    offset: usize,
    /// The receiver's base name (`self.inner.lock()` → `inner`).
    lock: String,
    /// Where the guard is certainly dead.
    held_until: usize,
}

/// `lock-order`: one lock at a time. An acquisition inside another
/// guard's held span is a finding: the same lock deadlocks at once
/// (`parking_lot::Mutex` is not reentrant), and another one fixes an
/// order every other path must repeat. So is a `self.f(…)`,
/// `Self::f(…)` or bare `f(…)` call there to a same-file fn that
/// acquires a lock, directly or through such calls. Locks are
/// private to the file that acquires them, so no call from another
/// file can nest them.
fn scan_locks(
    ctx: &FileContext,
    masked: &[u8],
    fns: &[FnBody<'_>],
    out: &mut Vec<RawViolation>,
    structure: &mut Structure,
) {
    let acquisitions = acquisitions(ctx, masked);
    if acquisitions.is_empty() {
        return;
    }
    let locking = locking_fns(masked, fns, &acquisitions);
    for held in &acquisitions {
        let span = held.offset..held.held_until;
        for inner in acquisitions
            .iter()
            .filter(|a| a.offset != held.offset && span.contains(&a.offset))
        {
            structure.lock_nestings += 1;
            out.push(RawViolation {
                rule: LOCK_ORDER,
                offset: inner.offset,
                message: format!(
                    "acquiring `{}` while holding `{}`; take one lock at a time \
                     (drop the guard first)",
                    inner.lock, held.lock
                ),
            });
        }
        for (call, name) in local_calls(masked, span).filter(|(_, n)| locking.contains(n)) {
            structure.lock_nestings += 1;
            out.push(RawViolation {
                rule: LOCK_ORDER,
                offset: call,
                message: format!(
                    "calling `{}`, which acquires a lock, while holding `{}`; take \
                     one lock at a time (drop the guard first)",
                    String::from_utf8_lossy(name),
                    held.lock
                ),
            });
        }
    }
}

/// Every acquisition in the file's non-test code.
fn acquisitions(ctx: &FileContext, masked: &[u8]) -> Vec<Acquisition> {
    let mut declared = None;
    let mut out = Vec::new();
    for (s, e) in words(masked) {
        let word = &masked[s..e];
        let rw = matches!(word, b"read" | b"write");
        if !(rw || word == b"lock") || !rule_applies(LOCK_ORDER, ctx, s) {
            continue;
        }
        // A method call with no arguments, on a named receiver.
        let Some((open, b'(')) = next_nonws(masked, e) else {
            continue;
        };
        if !next_is(masked, open + 1, b')') {
            continue;
        }
        let Some(lock) = receiver_base(masked, s) else {
            continue;
        };
        // `.read()`/`.write()` count only on declared locks (io::Read
        // etc. otherwise).
        if rw
            && !declared
                .get_or_insert_with(|| declared_locks(masked))
                .contains(&lock)
        {
            continue;
        }
        out.push(Acquisition {
            offset: s,
            lock,
            held_until: held_until(masked, s),
        });
    }
    out
}

/// Names of the same-file fns whose body acquires a lock, directly or
/// through a local call to another such fn.
fn locking_fns<'a>(
    masked: &'a [u8],
    fns: &[FnBody<'a>],
    acquisitions: &[Acquisition],
) -> BTreeSet<&'a [u8]> {
    let mut locking: BTreeSet<&[u8]> = fns
        .iter()
        .filter(|f| acquisitions.iter().any(|a| f.body.contains(&a.offset)))
        .map(|f| f.name)
        .collect();
    loop {
        let before = locking.len();
        for f in fns {
            if local_calls(masked, f.body.clone()).any(|(_, n)| locking.contains(n)) {
                locking.insert(f.name);
            }
        }
        if locking.len() == before {
            return locking;
        }
    }
}

/// `self.f(…)`, `Self::f(…)` and bare `f(…)` calls whose name starts in
/// `span`, as (offset, name).
fn local_calls(masked: &[u8], span: Range<usize>) -> impl Iterator<Item = (usize, &[u8])> + '_ {
    let base = span.start;
    words(&masked[span]).filter_map(move |(s, e)| {
        let (s, e) = (base + s, base + e);
        if !next_is(masked, e, b'(') || preceded_by_fn(masked, s) {
            return None;
        }
        let local = match prev_nonws(masked, s) {
            Some((dot, b'.')) => word_before(masked, dot).is_some_and(|(_, w)| w == b"self"),
            Some((_, b':')) => path_head_is(masked, s, b"Self"),
            _ => true,
        };
        local.then_some((s, &masked[s..e]))
    })
}

/// Receiver base names of `Mutex<`/`RwLock<`/`Mutex::new`/`RwLock::new`
/// declarations in this file: the identifier bound (`let name = …`) or
/// the field name (`name: Arc<Mutex<…>>`).
fn declared_locks(masked: &[u8]) -> BTreeSet<String> {
    words(masked)
        .filter(|&(s, e)| {
            matches!(&masked[s..e], b"Mutex" | b"RwLock")
                && (next_is(masked, e, b'<') || next_is(masked, e, b':'))
        })
        .filter_map(|(s, _)| binding_name(masked, s))
        .collect()
}

/// Walks back from a type/ctor occurrence to the identifier it is bound
/// to: through type syntax (`Arc<`, `::`, parens, words) to a single
/// `:` (field or let type annotation) or `=` (plain `let name = …`),
/// then reads the identifier before it.
fn binding_name(masked: &[u8], mut i: usize) -> Option<String> {
    loop {
        let (j, b) = prev_nonws(masked, i)?;
        match b {
            b':' => {
                if j > 0 && masked[j - 1] == b':' {
                    // `::` path separator — keep walking.
                    i = j - 1;
                    continue;
                }
                return ident_ending_before(masked, j);
            }
            b'=' => {
                // `let name = Mutex::new(…)` / `name = …` (assignment).
                let name = ident_ending_before(masked, j)?;
                return if name == "let" { None } else { Some(name) };
            }
            b'>' | b'<' | b'(' | b',' => {
                i = j;
            }
            _ if is_word(b) => {
                i = j;
                // Skip the whole word.
                while i > 0 && is_word(masked[i - 1]) {
                    i -= 1;
                }
            }
            _ => return None,
        }
        if i == 0 {
            return None;
        }
    }
}

/// The identifier ending just before `i` (skipping whitespace), also
/// skipping a `mut` qualifier.
fn ident_ending_before(masked: &[u8], i: usize) -> Option<String> {
    let (start, word) = word_before(masked, i)?;
    if word == b"mut" {
        return ident_ending_before(masked, start);
    }
    Some(String::from_utf8_lossy(word).into_owned())
}

/// The receiver chain of a `.method(` at `method_start`, reduced to its
/// base name: `self.inner.lock()` → `inner`, `results.lock()` →
/// `results`, `guard().lock()` → None (computed receiver).
fn receiver_base(masked: &[u8], method_start: usize) -> Option<String> {
    let (dot, b'.') = prev_nonws(masked, method_start)? else {
        return None;
    };
    let (_, name) = word_before(masked, dot)?;
    // Bare `self.lock()` has no field to name.
    (name != b"self").then(|| String::from_utf8_lossy(name).into_owned())
}

/// How long the guard returned by the acquisition at `offset` is held:
/// a `let`-bound guard lives to the end of the enclosing block (or an
/// explicit `drop(name)`); a temporary dies at its statement's `;`.
fn held_until(masked: &[u8], offset: usize) -> usize {
    let guard = let_guard_name(masked, statement_start(masked, offset));
    let mut depth = 0i32;
    let mut i = offset;
    while i < masked.len() {
        match masked[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i; // enclosing block closes
                }
            }
            b';' if depth == 0 && guard.is_none() => return i,
            b'd' if guard.is_some_and(|g| is_drop_of(masked, i, g)) => return i,
            _ => {}
        }
        i += 1;
    }
    masked.len()
}

/// Start offset of the statement containing `offset`: just past the
/// previous `;`, `{`, or `}`.
fn statement_start(masked: &[u8], offset: usize) -> usize {
    (0..offset)
        .rev()
        .find(|&j| matches!(masked[j], b';' | b'{' | b'}'))
        .map_or(0, |j| j + 1)
}

/// If the statement starting at `stmt` is `let [mut] name …`, the bound
/// name. A `let _ = …` binding drops immediately and returns None.
fn let_guard_name(masked: &[u8], stmt: usize) -> Option<&[u8]> {
    let (at, _) = next_nonws(masked, stmt)?;
    if word_at(masked, at) != b"let" {
        return None;
    }
    let (at, _) = next_nonws(masked, at + 3)?;
    let mut name = word_at(masked, at);
    if name == b"mut" {
        let (at, _) = next_nonws(masked, at + 3)?;
        name = word_at(masked, at);
    }
    (!name.is_empty() && name != b"_").then_some(name)
}

/// Is `drop ( guard )` spelled at `i` (word-aligned)?
fn is_drop_of(masked: &[u8], i: usize, guard: &[u8]) -> bool {
    (i == 0 || !is_word(masked[i - 1]))
        && word_at(masked, i) == b"drop"
        && next_nonws(masked, i + 4).is_some_and(|(open, b)| {
            b == b'('
                && next_nonws(masked, open + 1).is_some_and(|(at, _)| word_at(masked, at) == guard)
        })
}

/// `rng-provenance`: RNGs are constructed (`seed_from_u64`,
/// `from_seed`, `from_rng`) only in [`RNG_MODULE`], and never from
/// another RNG's output there; `rand::random` is never called. Applies
/// to tests and benches too, matching `no-unseeded-rng`.
fn scan_rng(
    ctx: &FileContext,
    masked: &[u8],
    out: &mut Vec<RawViolation>,
    structure: &mut Structure,
) {
    for (s, e) in words(masked) {
        let word = &masked[s..e];
        let Some((open, b'(')) = next_nonws(masked, e) else {
            continue;
        };
        let ambient = word == b"random" && path_head_is(masked, s, b"rand");
        if !ambient && !matches!(word, b"seed_from_u64" | b"from_seed" | b"from_rng") {
            continue;
        }
        structure.rng_constructions += 1;
        let message = if ambient {
            "rand::random draws thread-local entropy; derive the value from a named \
             stream (alert_stats::rng::stream_rng)"
        } else if ctx.path != RNG_MODULE {
            "RNGs are constructed only in crates/stats/src/rng.rs; draw this one \
             from a named stream (stream_rng, or task_rng for a task)"
        } else if word == b"from_rng" || fed_by_rng(arg_span(masked, open)) {
            "RNG constructed from another RNG's output couples streams and breaks \
             replay identity; derive the seed with derive_seed(seed, label) instead"
        } else {
            structure.rng_traced += 1;
            continue;
        };
        out.push(RawViolation {
            rule: RNG_PROVENANCE,
            offset: s,
            message: message.to_string(),
        });
    }
}

/// Does an argument use another RNG's output (`gen*`, `next_u*`,
/// `random`)?
fn fed_by_rng(arg: &[u8]) -> bool {
    words(arg).any(|(s, e)| {
        let w = &arg[s..e];
        w.starts_with(b"gen") || w.starts_with(b"next_u") || w == b"random"
    })
}

/// Is the word at `start` path-prefixed by `head::` (e.g. `rand::random`)?
fn path_head_is(masked: &[u8], start: usize, head: &[u8]) -> bool {
    let Some((c2, b':')) = prev_nonws(masked, start) else {
        return false;
    };
    c2 > 0 && masked[c2 - 1] == b':' && word_before(masked, c2 - 1).is_some_and(|(_, w)| w == head)
}

/// The balanced-paren argument span starting at the `(` at `open`
/// (exclusive of the parens).
fn arg_span(masked: &[u8], open: usize) -> &[u8] {
    let mut depth = 0usize;
    for (i, &b) in masked.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return &masked[open + 1..i];
                }
            }
            _ => {}
        }
    }
    masked.get(open + 1..).unwrap_or(&[])
}

// ---------------------------------------------------------------- allows

struct Allow {
    rules: Vec<String>,
    line: usize,
    target_line: Option<usize>,
    reason: String,
    suppressed: usize,
    /// Per-rule suppression counts: a named rule that never fires on
    /// the covered line is flagged as a stale member (`unused-allow`),
    /// keeping multi-rule annotations honest as rules get smarter.
    suppressed_by: BTreeMap<String, usize>,
}

/// Parses `lint:allow` annotations out of line comments. Malformed ones
/// (bad grammar, unknown rule, empty reason) become `allow-needs-reason`
/// violations immediately.
fn parse_allows(
    src: &str,
    tokens: &[Token],
    masked: &[u8],
    lines: &LineIndex,
    raw: &mut Vec<RawViolation>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if t.kind != crate::lexer::TokKind::LineComment {
            continue;
        }
        // Comment content past `//` and any doc markers.
        let content = src[t.start + 2..t.end]
            .trim_start_matches(['/', '!'])
            .trim();
        let Some(rest) = content.strip_prefix("lint:allow") else {
            continue;
        };
        let line = lines.line_of(t.start);
        let bad = |msg: &str, raw: &mut Vec<RawViolation>| {
            raw.push(RawViolation {
                rule: ALLOW_NEEDS_REASON,
                offset: t.start,
                message: msg.to_string(),
            });
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            bad("lint:allow must be followed by (rule, ...): reason", raw);
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("lint:allow rule list is missing its closing paren", raw);
            continue;
        };
        let rule_list: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rule_list.is_empty() {
            bad("lint:allow names no rules", raw);
            continue;
        }
        if let Some(unknown) = rule_list.iter().find(|r| !known_rule(r)) {
            bad(&format!("lint:allow names unknown rule `{unknown}`"), raw);
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':').map(str::trim) else {
            bad("lint:allow needs `: reason` after the rule list", raw);
            continue;
        };
        if reason.is_empty() {
            bad("lint:allow reason must not be empty", raw);
            continue;
        }
        allows.push(Allow {
            rules: rule_list,
            line,
            target_line: allow_target(masked, lines, t.start, line),
            reason: reason.to_string(),
            suppressed: 0,
            suppressed_by: BTreeMap::new(),
        });
    }
    allows
}

/// Which line an annotation covers: its own if code precedes it on the
/// line, else the next line containing code.
fn allow_target(
    masked: &[u8],
    lines: &LineIndex,
    comment_start: usize,
    line: usize,
) -> Option<usize> {
    let (line_start, _) = lines.span_of(line, masked.len());
    let leading_code = masked[line_start..comment_start]
        .iter()
        .any(|b| !b.is_ascii_whitespace());
    if leading_code {
        return Some(line);
    }
    for l in line + 1..=lines.starts.len() {
        let (s, e) = lines.span_of(l, masked.len());
        if masked[s..e.min(masked.len())]
            .iter()
            .any(|b| !b.is_ascii_whitespace())
        {
            return Some(l);
        }
    }
    None
}

/// Applies suppression and produces the final findings.
fn resolve(
    ctx: &FileContext,
    raw: Vec<RawViolation>,
    mut allows: Vec<Allow>,
    lines: &LineIndex,
    src: &str,
) -> FileFindings {
    let mut out = FileFindings::default();
    for v in raw {
        let line = lines.line_of(v.offset);
        // Meta-rules cannot be suppressed: an allow for the allow
        // grammar would be turtles all the way down.
        let suppressible = v.rule != ALLOW_NEEDS_REASON && v.rule != UNUSED_ALLOW;
        let allow = suppressible
            .then(|| {
                allows
                    .iter_mut()
                    .find(|a| a.target_line == Some(line) && a.rules.iter().any(|r| r == v.rule))
            })
            .flatten();
        match allow {
            Some(a) => {
                a.suppressed += 1;
                *a.suppressed_by.entry(v.rule.to_string()).or_insert(0) += 1;
            }
            None => out.violations.push(Violation {
                rule: v.rule.to_string(),
                file: ctx.path.clone(),
                line,
                snippet: snippet(src, lines, line),
                message: v.message,
            }),
        }
    }
    for a in allows {
        if a.suppressed == 0 {
            out.violations.push(Violation {
                rule: UNUSED_ALLOW.to_string(),
                file: ctx.path.clone(),
                line: a.line,
                snippet: snippet(src, lines, a.line),
                message: format!(
                    "lint:allow({}) suppresses nothing; remove the stale annotation",
                    a.rules.join(", ")
                ),
            });
        } else {
            // Per-rule honesty: each named rule must have fired at
            // least once on the covered line, or it is a stale member.
            for dead in a.rules.iter().filter(|r| !a.suppressed_by.contains_key(*r)) {
                out.violations.push(Violation {
                    rule: UNUSED_ALLOW.to_string(),
                    file: ctx.path.clone(),
                    line: a.line,
                    snippet: snippet(src, lines, a.line),
                    message: format!(
                        "lint:allow names `{dead}` but no {dead} finding fires on \
                         the covered line; drop the stale rule from the list"
                    ),
                });
            }
            out.allowed.push(AllowEntry {
                rules: a.rules,
                file: ctx.path.clone(),
                line: a.line,
                reason: a.reason,
                suppressed: a.suppressed,
            });
        }
    }
    out.violations.sort_by(|a, b| {
        (a.line, a.rule.as_str(), a.snippet.as_str()).cmp(&(
            b.line,
            b.rule.as_str(),
            b.snippet.as_str(),
        ))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::context_for;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> FileFindings {
        let tokens = lex(src);
        let ctx = context_for(path, src);
        check_file(&ctx, src, &tokens)
    }

    fn rules_of(f: &FileFindings) -> Vec<&str> {
        f.violations.iter().map(|v| v.rule.as_str()).collect()
    }

    #[test]
    fn unwrap_in_library_fires() {
        let f = run("crates/core/src/x.rs", "fn f() { y.unwrap(); }");
        assert_eq!(rules_of(&f), vec![NO_PANIC]);
    }

    #[test]
    fn unwrap_or_is_fine() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { y.unwrap_or(0); y.unwrap_or_else(|| 1); y.unwrap_or_default(); }",
        );
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn unwrap_in_bench_or_test_is_fine() {
        for path in [
            "crates/bench/src/bin/fig3.rs",
            "tests/end_to_end.rs",
            "examples/quickstart.rs",
        ] {
            let f = run(path, "fn f() { y.unwrap(); panic!(); }");
            assert!(f.violations.is_empty(), "{path}: {:?}", f.violations);
        }
    }

    #[test]
    fn unwrap_in_cfg_test_is_fine() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn unwrap_in_comment_or_string_is_fine() {
        let src = "// call .unwrap() here\nfn f() { let s = \"x.unwrap()\"; let r = r#\"y.unwrap()\"#; }\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn panic_macros_fire() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { if a { panic!(\"x\") } else if b { unreachable!() } else { todo!() } }",
        );
        assert_eq!(rules_of(&f), vec![NO_PANIC, NO_PANIC, NO_PANIC]);
    }

    #[test]
    fn literal_index_fires_but_variable_index_does_not() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { let a = xs[0]; let b = xs[i]; let c = xs[1..]; }",
        );
        assert_eq!(rules_of(&f), vec![NO_PANIC]);
        assert!(f.violations[0].message.contains("indexing"));
    }

    #[test]
    fn const_array_literal_index_is_fine() {
        // Out-of-bounds literal indexing into a fixed-length const
        // array is a compile error (`unconditional_panic`), so the
        // heuristic skips SCREAMING_CASE receivers.
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { let y = P[4] * z + COEFFS[0]; let bad = xs[0]; }",
        );
        assert_eq!(rules_of(&f), vec![NO_PANIC]);
        assert!(f.violations[0].snippet.contains("xs[0]"));
    }

    #[test]
    fn array_type_and_attr_are_not_indexing() {
        let f = run(
            "crates/core/src/x.rs",
            "#[repr(align(8))]\nfn f(x: [u8; 4]) -> [f64; 2] { [0.0; 2] }",
        );
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn wall_clock_fires_outside_bench_and_metering() {
        let f = run("crates/sched/src/runtime.rs", "use std::time::Instant;\n");
        assert_eq!(rules_of(&f), vec![NO_WALL_CLOCK]);
        let f = run(
            "crates/bench/src/bin/runtime.rs",
            "use std::time::Instant;\n",
        );
        assert!(f.violations.is_empty());
        let f = run("crates/stats/src/cputime.rs", "use std::time::Instant;\n");
        assert!(f.violations.is_empty());
    }

    #[test]
    fn unseeded_rng_fires_even_in_tests() {
        let f = run("tests/end_to_end.rs", "let mut r = rand::thread_rng();\n");
        assert_eq!(rules_of(&f), vec![NO_UNSEEDED_RNG]);
    }

    #[test]
    fn hash_map_fires_only_on_decision_paths() {
        let src = "use std::collections::HashMap;\n";
        let f = run("crates/core/src/lane.rs", src);
        assert_eq!(rules_of(&f), vec![NO_HASH_ITERATION]);
        let f = run("crates/sched/src/registry.rs", src);
        assert!(f.violations.is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_fires() {
        let f = run(
            "crates/bench/src/bin/fig3.rs",
            "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert_eq!(rules_of(&f), vec![NAN_UNSAFE_COMPARE]);
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { let c = a.partial_cmp(&b).expect(\"finite\"); }",
        );
        // Fires both the NaN rule and no-panic (library code).
        assert!(rules_of(&f).contains(&NAN_UNSAFE_COMPARE));
        assert!(rules_of(&f).contains(&NO_PANIC));
    }

    #[test]
    fn partial_cmp_without_panic_is_fine() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { let c = a.partial_cmp(&b).map(|o| o.is_lt()); }",
        );
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn float_literal_eq_fires() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { if x == 0.0 { } if 1.5 != y { } }",
        );
        assert_eq!(rules_of(&f), vec![NAN_UNSAFE_COMPARE, NAN_UNSAFE_COMPARE]);
    }

    #[test]
    fn tuple_fields_ranges_and_ints_are_fine() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { if a.0 == b.0 { } if n == 3 { } for i in 0..10 { } if x <= 1.0 { } if x >= 0.0 { } }",
        );
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn metric_literal_names_are_fine() {
        let f = run(
            "crates/sched/src/telemetry.rs",
            "fn f(reg: &mut R) { reg.counter_add(\"decisions\", Scope::Global, 1); \
             reg.gauge_set(r#\"belief_mean\"#, Scope::Global, 1.0); }",
        );
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn metric_formatted_name_fires() {
        let f = run(
            "crates/sched/src/telemetry.rs",
            "fn f(reg: &mut R, id: u64) { \
             reg.counter_add(&format!(\"decisions_{id}\"), Scope::Global, 1); }",
        );
        assert_eq!(rules_of(&f), vec![METRIC_NAME_DISCIPLINE]);
    }

    #[test]
    fn metric_forwarded_name_fires() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f(reg: &mut R, name: &'static str) { \
             reg.histogram_observe(name, Scope::Global, 0.5); }",
        );
        assert_eq!(rules_of(&f), vec![METRIC_NAME_DISCIPLINE]);
    }

    #[test]
    fn metric_definition_sites_and_tests_are_exempt() {
        let src = "pub fn counter_add(&mut self, name: &'static str, n: u64) { \
                   self.raw_add(name, n); }\n\
                   #[cfg(test)]\nmod tests { fn t(reg: &mut R, n: &'static str) { \
                   reg.counter_add(n, Scope::Global, 1); } }\n";
        let f = run("crates/stats/src/telemetry.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
    }

    #[test]
    fn metric_rule_is_silent_outside_library_code() {
        let src = "fn f(reg: &mut R, n: &'static str) { reg.gauge_set(n, Scope::Global, 1.0); }";
        for path in ["crates/bench/src/bin/runtime.rs", "tests/telemetry.rs"] {
            let f = run(path, src);
            assert!(f.violations.is_empty(), "{path}: {:?}", f.violations);
        }
    }

    #[test]
    fn trailing_allow_suppresses_and_lands_in_ledger() {
        let src = "fn f() { y.unwrap(); } // lint:allow(no-panic): y was validated above\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.allowed.len(), 1);
        assert_eq!(f.allowed[0].reason, "y was validated above");
        assert_eq!(f.allowed[0].suppressed, 1);
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let src = "// lint:allow(no-panic): invariant: table is non-empty\n// (more prose)\nfn f() { y.unwrap(); }\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.allowed[0].suppressed, 1);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        for src in [
            "fn f() { y.unwrap(); } // lint:allow(no-panic)\n",
            "fn f() { y.unwrap(); } // lint:allow(no-panic):\n",
            "fn f() { y.unwrap(); } // lint:allow(no-panic):   \n",
        ] {
            let f = run("crates/core/src/x.rs", src);
            assert!(
                rules_of(&f).contains(&ALLOW_NEEDS_REASON),
                "{src:?} -> {:?}",
                f.violations
            );
            // The unwrap stays unsuppressed too.
            assert!(rules_of(&f).contains(&NO_PANIC));
        }
    }

    #[test]
    fn allow_with_unknown_rule_is_a_violation() {
        let f = run(
            "crates/core/src/x.rs",
            "fn f() { y.unwrap(); } // lint:allow(no-panics): typo in rule id\n",
        );
        assert!(rules_of(&f).contains(&ALLOW_NEEDS_REASON));
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let f = run(
            "crates/core/src/x.rs",
            "// lint:allow(no-panic): stale justification\nfn f() { let x = 1; }\n",
        );
        assert_eq!(rules_of(&f), vec![UNUSED_ALLOW]);
        assert!(f.allowed.is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_other_lines() {
        let src = "fn f() { y.unwrap(); } // lint:allow(no-panic): only this line\nfn g() { z.unwrap(); }\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![NO_PANIC]);
        assert_eq!(f.violations[0].line, 2);
    }

    #[test]
    fn allow_covers_multiple_hits_on_one_line() {
        let src = "fn f() { a.unwrap(); b.unwrap(); } // lint:allow(no-panic): both validated\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty());
        assert_eq!(f.allowed[0].suppressed, 2);
    }

    #[test]
    fn multi_rule_allow() {
        let src = "fn f() { t.partial_cmp(&u).unwrap(); } // lint:allow(no-panic, nan-unsafe-compare): inputs proven finite\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.allowed[0].suppressed, 2);
    }

    #[test]
    fn upward_layer_reference_fires() {
        let f = run("crates/sched/src/x.rs", "use alert_bench::harness::Run;\n");
        assert_eq!(rules_of(&f), vec![CRATE_LAYER_DAG]);
        assert_eq!(f.structure.layer_violations, 1);
    }

    #[test]
    fn downward_layer_reference_is_fine() {
        let f = run(
            "crates/sched/src/x.rs",
            "use alert_core::goal::Goal;\nuse alert_stats::units::Seconds;\n",
        );
        assert!(rules_of(&f).is_empty());
        assert_eq!(f.structure.layer_violations, 0);
    }

    #[test]
    fn undocumented_assert_in_pub_fn_fires() {
        let f = run(
            "crates/core/src/x.rs",
            "pub fn f(n: usize) { assert!(n > 0); }\n",
        );
        assert_eq!(rules_of(&f), vec![PANIC_REACHABILITY]);
        assert_eq!(f.structure.panic_sources, 1);
        assert_eq!(f.structure.panic_accounted, 0);
    }

    #[test]
    fn documented_assert_is_accounted() {
        let f = run(
            "crates/core/src/x.rs",
            "/// Does things.\n///\n/// # Panics\n/// If `n` is zero.\npub fn f(n: usize) { assert!(n > 0); }\n",
        );
        assert!(rules_of(&f).is_empty());
        assert_eq!(f.structure.panic_accounted, 1);
    }

    #[test]
    fn undocumented_assert_in_private_fn_fires() {
        // Reachability from the pub API no longer exempts an assert: a
        // private fn documents its `# Panics` contract too.
        let f = run(
            "crates/core/src/x.rs",
            "fn internal(n: usize) { assert!(n > 0); }\n",
        );
        assert_eq!(rules_of(&f), vec![PANIC_REACHABILITY]);
        assert_eq!(f.structure.panic_accounted, 0);
    }

    #[test]
    fn assert_reachable_through_pub_caller_fires() {
        let f = run(
            "crates/core/src/x.rs",
            "pub fn api(n: usize) { internal(n); }\nfn internal(n: usize) { assert!(n > 0); }\n",
        );
        assert_eq!(rules_of(&f), vec![PANIC_REACHABILITY]);
        let msg = &f.violations[0].message;
        assert!(msg.contains("`internal`"), "{msg}");
    }

    #[test]
    fn const_and_allowed_asserts_are_accounted() {
        let src = "const _: () = assert!(LIMIT > 0);\n\
                   fn f(n: usize) { assert!(n > 0); } // lint:allow(panic-reachability): n is a table length\n";
        let f = run("crates/core/src/x.rs", src);
        assert!(rules_of(&f).is_empty(), "{:?}", f.violations);
        assert_eq!(f.structure.panic_sources, 2);
        assert_eq!(f.structure.panic_accounted, 2);
    }

    #[test]
    fn inverted_lock_pair_fires() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn ab(&self) {
        let g1 = self.a.lock();
        let g2 = self.b.lock();
    }
    pub fn ba(&self) {
        let g2 = self.b.lock();
        let g1 = self.a.lock();
    }
}
";
        let f = run("crates/sched/src/executor.rs", src);
        assert!(rules_of(&f).contains(&LOCK_ORDER), "{:?}", f.violations);
        assert_eq!(f.structure.lock_nestings, 2);
    }

    #[test]
    fn consistent_nested_lock_pair_fires() {
        // One nested pair is enough: no cycle is needed.
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn ab(&self) {
        let g1 = self.a.lock();
        let g2 = self.b.lock();
    }
    pub fn ab2(&self) {
        let g1 = self.a.lock();
        let g2 = self.b.lock();
    }
}
";
        let f = run("crates/sched/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec![LOCK_ORDER, LOCK_ORDER]);
        assert_eq!(f.structure.lock_nestings, 2);
    }

    #[test]
    fn reacquiring_the_same_lock_fires() {
        let src = "\
pub struct S { a: Mutex<u32> }
impl S {
    pub fn twice(&self) {
        let g = self.a.lock();
        let h = self.a.lock();
    }
}
";
        let f = run("crates/sched/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec![LOCK_ORDER]);
        assert_eq!(f.violations[0].line, 5);
    }

    #[test]
    fn lock_held_across_a_locking_call_fires() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn outer(&self) {
        let g = self.a.lock();
        self.takes_b();
    }
    fn takes_b(&self) {
        let g = self.b.lock();
        let g2 = self.a.lock();
    }
}
";
        // outer holds a across a call to takes_b, which locks; takes_b
        // nests a inside b.
        let f = run("crates/sched/src/executor.rs", src);
        assert!(rules_of(&f).contains(&LOCK_ORDER));
        let lines: Vec<usize> = f.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![5, 9]);
    }

    #[test]
    fn call_to_a_transitively_locking_fn_fires() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn outer(&self) {
        let g = self.a.lock();
        Self::helper(&self.b);
    }
    fn helper(b: &Mutex<u32>) { bump(b); }
}
fn bump(b: &Mutex<u32>) { *b.lock() += 1; }
";
        let f = run("crates/sched/src/executor.rs", src);
        assert_eq!(rules_of(&f), vec![LOCK_ORDER]);
        assert!(f.violations[0].message.contains("`helper`"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "\
pub struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }
impl S {
    pub fn f(&self) {
        self.a.lock().push(1);
        let g = self.b.lock();
    }
}
";
        let f = run("crates/sched/src/executor.rs", src);
        assert_eq!(f.structure.lock_nestings, 0);
    }

    #[test]
    fn dropped_guard_ends_span() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    pub fn f(&self) {
        let g = self.a.lock();
        drop(g);
        let h = self.b.lock();
    }
    pub fn g(&self) {
        let h = self.b.lock();
        drop(h);
        let g = self.a.lock();
    }
}
";
        let f = run("crates/sched/src/executor.rs", src);
        assert_eq!(f.structure.lock_nestings, 0, "{:?}", f.violations);
    }

    #[test]
    fn rng_from_rand_random_fires() {
        let f = run(
            "crates/workload/src/x.rs",
            "pub fn f() { let s: u64 = rand::random(); let r = StdRng::seed_from_u64(s); }\n",
        );
        // rand::random itself + the construction outside the RNG module.
        assert!(rules_of(&f).contains(&RNG_PROVENANCE));
        assert!(f.structure.rng_constructions > f.structure.rng_traced);
    }

    #[test]
    fn rng_from_rng_output_fires() {
        let src = "pub fn f(rng: &mut StdRng) { let r = StdRng::seed_from_u64(rng.next_u64()); }\n";
        for path in ["crates/workload/src/x.rs", "crates/stats/src/rng.rs"] {
            let f = run(path, src);
            assert_eq!(rules_of(&f), vec![RNG_PROVENANCE], "{path}");
        }
        let f = run("crates/stats/src/rng.rs", src);
        assert!(f.violations[0].message.contains("another RNG"));
    }

    #[test]
    fn seeded_constructions_are_traced() {
        let f = run(
            "crates/stats/src/rng.rs",
            "pub fn derive_seed(seed: u64, label: &str) -> u64 { seed }\npub fn stream_rng(seed: u64, label: &str) -> StdRng { StdRng::seed_from_u64(derive_seed(seed, label)) }\n",
        );
        assert!(rules_of(&f).is_empty(), "{:?}", rules_of(&f));
        assert_eq!(f.structure.rng_constructions, 1);
        assert_eq!(f.structure.rng_traced, 1);
        // A seed-named or literal seed outside the RNG module is no
        // longer enough.
        let f = run(
            "crates/workload/src/x.rs",
            "pub fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); let t = StdRng::seed_from_u64(42); }\n",
        );
        assert_eq!(rules_of(&f), vec![RNG_PROVENANCE, RNG_PROVENANCE]);
        assert_eq!(f.structure.rng_constructions, 2);
        assert_eq!(f.structure.rng_traced, 0);
    }
}
