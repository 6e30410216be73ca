//! File context: which crate a file belongs to, what kind of code it
//! is, and which byte ranges are test-only.
//!
//! Rules are context-aware (a wall-clock read is fine in a bench bin,
//! fatal in a decision path), so every scanned file gets a
//! [`FileContext`] built from its workspace-relative path plus the
//! lexed token tiling:
//!
//! * [`FileKind`] — library / bench / bin / example / integration test,
//!   derived purely from the path;
//! * test spans — byte ranges covered by `#[cfg(test)]` items or
//!   `mod tests { … }` blocks, found by scanning the *masked* source
//!   (so an attribute spelled inside a string does not open a span)
//!   and brace-matching in code-only bytes.

use crate::lexer::{lex, mask, Token};

/// Path-derived classification of one `.rs` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` or the root `src/**` — library code, held
    /// to the strictest rules (no-panic applies here).
    Library,
    /// `crates/bench/**` — experiment drivers; may meter wall time and
    /// panic on malformed experiment setup.
    Bench,
    /// `src/bin/**` or `src/main.rs` of a non-bench crate — CLI entry
    /// points.
    Bin,
    /// `examples/**`.
    Example,
    /// `tests/**` — integration tests; the whole file is test code.
    IntegrationTest,
}

/// The context rules consult for one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate name (`alert-core`, …) or `"alert"` for the root crate.
    pub crate_name: String,
    /// Path-derived kind.
    pub kind: FileKind,
    /// Byte ranges that are test-only code.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileContext {
    /// Builds the context for `rel_path` (workspace-relative, `/`
    /// separators) from the already-lexed `tokens` of `src`.
    pub fn build(rel_path: &str, src: &str, tokens: &[Token]) -> FileContext {
        let (crate_name, kind) = classify(rel_path);
        let test_spans = if kind == FileKind::IntegrationTest {
            vec![(0, src.len())]
        } else {
            find_test_spans(&mask(src, tokens))
        };
        FileContext {
            path: rel_path.to_string(),
            crate_name,
            kind,
            test_spans,
        }
    }

    /// Whether the byte offset lies in test-only code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| (s..e).contains(&offset))
    }
}

/// Classifies a workspace-relative path. Returns (crate name, kind).
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, rest @ ..] => {
            let crate_name = format!("alert-{name}");
            let kind = if *name == "bench" {
                FileKind::Bench
            } else if rest.first() == Some(&"tests") {
                FileKind::IntegrationTest
            } else if rest.first() == Some(&"examples") {
                FileKind::Example
            } else if rest.get(1) == Some(&"bin") || rest == ["src", "main.rs"] {
                FileKind::Bin
            } else {
                FileKind::Library
            };
            (crate_name, kind)
        }
        ["tests", ..] => ("alert".to_string(), FileKind::IntegrationTest),
        ["examples", ..] => ("alert".to_string(), FileKind::Example),
        ["src", "bin", ..] | ["src", "main.rs"] => ("alert".to_string(), FileKind::Bin),
        _ => ("alert".to_string(), FileKind::Library),
    }
}

/// Scans masked source bytes for test-only spans: items annotated
/// `#[cfg(test)]` (attribute through the end of the item) and
/// `mod tests { … }` blocks.
fn find_test_spans(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < masked.len() {
        if let Some(after_attr) = match_cfg_test(masked, i) {
            let end = item_end(masked, after_attr);
            spans.push((i, end));
            i = end.max(i + 1);
        } else if let Some(body_start) = match_mod_tests(masked, i) {
            let end = item_end(masked, body_start);
            spans.push((i, end));
            i = end.max(i + 1);
        } else {
            i += 1;
        }
    }
    spans
}

/// Matches `#[cfg(test)]` (whitespace-tolerant) starting at `i`;
/// returns the offset just past `]`.
fn match_cfg_test(masked: &[u8], i: usize) -> Option<usize> {
    let mut p = Matcher { masked, at: i };
    p.byte(b'#')?;
    p.ws();
    p.byte(b'[')?;
    p.ws();
    p.word(b"cfg")?;
    p.ws();
    p.byte(b'(')?;
    p.ws();
    p.word(b"test")?;
    p.ws();
    p.byte(b')')?;
    p.ws();
    p.byte(b']')?;
    Some(p.at)
}

/// Matches `mod tests` followed by `{` starting at `i` (at a word
/// boundary); returns the offset of the `{`.
fn match_mod_tests(masked: &[u8], i: usize) -> Option<usize> {
    if i > 0 && is_word(masked[i - 1]) {
        return None;
    }
    let mut p = Matcher { masked, at: i };
    p.word(b"mod")?;
    p.ws_required()?;
    p.word(b"tests")?;
    p.ws();
    if p.peek() == Some(b'{') {
        Some(p.at)
    } else {
        None
    }
}

/// From `start` (just past an attribute, or at a `{`), finds the end of
/// the annotated item: skips further attributes, then runs to the `;`
/// of a braceless item or the matching `}` of the first brace block.
fn item_end(masked: &[u8], start: usize) -> usize {
    let mut i = start;
    // Skip any further attributes (`#[cfg(test)] #[derive(..)] struct S`).
    loop {
        while i < masked.len() && masked[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < masked.len() && masked[i] == b'#' {
            // Skip the bracketed attribute body.
            while i < masked.len() && masked[i] != b'[' {
                i += 1;
            }
            let mut depth = 0usize;
            while i < masked.len() {
                match masked[i] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            break;
        }
    }
    match item_head_end(masked, i) {
        Some((open, b'{')) => match_brace(masked, open),
        Some((semi, _)) => semi + 1,
        None => masked.len(),
    }
}

/// The first `{` or `;` at or after `i` that lies outside `()` and
/// `[]`: an item's body opens at the former, a braceless item (`use …;`,
/// `mod tests;`, a trait method) ends at the latter. The `;` of an
/// array type such as `[u8; 4]` in a signature is neither.
pub(crate) fn item_head_end(masked: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut depth = 0usize;
    for (at, &b) in masked.iter().enumerate().skip(i) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'{' | b';' if depth == 0 => return Some((at, b)),
            _ => {}
        }
    }
    None
}

/// Offset just past the `}` matching the `{` at `open`.
pub(crate) fn match_brace(masked: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < masked.len() {
        match masked[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    masked.len()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct Matcher<'a> {
    masked: &'a [u8],
    at: usize,
}

impl Matcher<'_> {
    fn peek(&self) -> Option<u8> {
        self.masked.get(self.at).copied()
    }

    fn byte(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.at += 1;
            Some(())
        } else {
            None
        }
    }

    fn word(&mut self, w: &[u8]) -> Option<()> {
        let end = self.at.checked_add(w.len())?;
        if self.masked.get(self.at..end)? == w && self.masked.get(end).is_none_or(|&b| !is_word(b))
        {
            self.at = end;
            Some(())
        } else {
            None
        }
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn ws_required(&mut self) -> Option<()> {
        if self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.ws();
            Some(())
        } else {
            None
        }
    }
}

/// Convenience used by tests: context straight from source.
pub fn context_for(rel_path: &str, src: &str) -> FileContext {
    let tokens = lex(src);
    FileContext::build(rel_path, src, &tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kinds() {
        let cases = [
            ("crates/core/src/alert.rs", "alert-core", FileKind::Library),
            (
                "crates/bench/src/bin/fig3.rs",
                "alert-bench",
                FileKind::Bench,
            ),
            ("crates/bench/src/lib.rs", "alert-bench", FileKind::Bench),
            ("crates/lint/src/main.rs", "alert-lint", FileKind::Bin),
            (
                "crates/core/tests/fast_lane.rs",
                "alert-core",
                FileKind::IntegrationTest,
            ),
            ("tests/end_to_end.rs", "alert", FileKind::IntegrationTest),
            ("examples/quickstart.rs", "alert", FileKind::Example),
            ("src/lib.rs", "alert", FileKind::Library),
        ];
        for (path, name, kind) in cases {
            let (n, k) = classify(path);
            assert_eq!((n.as_str(), k), (name, kind), "{path}");
        }
    }

    #[test]
    fn cfg_test_mod_span() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        let attr = src.find("#[cfg").unwrap();
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(ctx.in_test(unwrap_at));
        assert!(ctx.in_test(attr));
        assert!(!ctx.in_test(0));
    }

    #[test]
    fn cfg_test_on_use_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { }\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        assert!(ctx.in_test(src.find("use").unwrap()));
        assert!(!ctx.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct T { a: u8 }\nfn live() {}\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        assert!(ctx.in_test(src.find("struct").unwrap()));
        assert!(!ctx.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn bare_mod_tests_block() {
        let src = "fn live() {}\nmod tests { fn t() {} }\nfn also_live() {}\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        assert!(ctx.in_test(src.find("fn t").unwrap()));
        assert!(!ctx.in_test(src.find("also_live").unwrap()));
    }

    #[test]
    fn attribute_inside_string_is_ignored() {
        let src = "let s = \"#[cfg(test)] mod tests {\"; fn live() { }\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        assert!(ctx.test_spans.is_empty(), "{:?}", ctx.test_spans);
    }

    #[test]
    fn integration_tests_are_all_test() {
        let ctx = context_for("tests/end_to_end.rs", "fn x() { y.unwrap(); }");
        assert!(ctx.in_test(10));
    }

    #[test]
    fn array_typed_signature_keeps_its_test_span() {
        // The `;` of `[u8; 4]` does not end the item, in a parameter or
        // in the return type: the whole fn stays test-only.
        for src in [
            "#[cfg(test)]\nfn helper(x: [u8; 4]) -> u8 {\n    x.first().copied().unwrap()\n}\nfn live() {}\n",
            "#[cfg(test)]\nfn helper() -> [u8; 4] {\n    [0; 4].map(|x| x.max(1))\n}\nfn live() {}\n",
        ] {
            let ctx = context_for("crates/core/src/x.rs", src);
            let body_end = src.find("}\n").unwrap() + 1;
            assert_eq!(ctx.test_spans, vec![(0, body_end)], "{src:?}");
            assert!(!ctx.in_test(src.find("live").unwrap()));
        }
    }

    #[test]
    fn nested_braces_in_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n  fn a() { if x { y(); } }\n}\nfn live() {}\n";
        let ctx = context_for("crates/core/src/x.rs", src);
        assert!(!ctx.in_test(src.find("live").unwrap()));
    }
}
