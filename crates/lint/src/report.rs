//! Report assembly: the machine-readable `LINT.json` document and the
//! human-readable violation table.

use crate::rules::{AllowEntry, RuleInfo, Violation, LAYERS, RULES};
use serde::Serialize;

/// The complete result of one workspace scan — serialized verbatim as
/// `LINT.json` so CI can gate on `counts.violations == 0` and audit the
/// allow ledger without re-parsing the table.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Report producer, for provenance.
    pub tool: String,
    /// Format version; bump on breaking shape changes.
    pub version: u32,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The rule catalog in force during the scan.
    pub rules: Vec<RuleInfo>,
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Every `lint:allow` that suppressed something, with its reason —
    /// the audit ledger for "allowed with reason".
    pub allowed: Vec<AllowEntry>,
    /// Roll-up counts (duplicated for cheap gating).
    pub counts: Counts,
    /// The structural rules' roll-up: the layer table and raw
    /// (pre-suppression) counts, so CI can gate structural invariants
    /// (zero layer violations, zero lock nestings, complete RNG
    /// provenance) independently of the allow ledger.
    pub structure: Structure,
}

/// The `structure` section of `LINT.json`.
#[derive(Debug, Default, Serialize)]
pub struct Structure {
    /// The declarative crate layer table in force.
    pub layers: Vec<LayerEntry>,
    /// Upward cross-crate references.
    pub layer_violations: usize,
    /// Acquisitions, and calls to lock-acquiring fns, made while
    /// another guard is held.
    pub lock_nestings: usize,
    /// assert!-family sites in protected library code.
    pub panic_sources: usize,
    /// Of those: in a fn documenting `# Panics`, in a module-scope
    /// `const`, or suppressed by a reasoned allow.
    pub panic_accounted: usize,
    /// RNG construction sites (incl. `rand::random`).
    pub rng_constructions: usize,
    /// Of those: in `crates/stats/src/rng.rs` and not fed by another
    /// RNG.
    pub rng_traced: usize,
}

impl Structure {
    /// Adds one file's counts.
    pub fn add(&mut self, file: &Structure) {
        self.layer_violations += file.layer_violations;
        self.lock_nestings += file.lock_nestings;
        self.panic_sources += file.panic_sources;
        self.panic_accounted += file.panic_accounted;
        self.rng_constructions += file.rng_constructions;
        self.rng_traced += file.rng_traced;
    }
}

/// One crate layer assignment.
#[derive(Debug, Serialize)]
pub struct LayerEntry {
    /// Crate path token (`alert_core`, …).
    pub name: String,
    /// Layer number (references must point strictly downward).
    pub layer: u32,
}

/// Roll-up totals.
#[derive(Debug, Serialize)]
pub struct Counts {
    /// `violations.len()`.
    pub violations: usize,
    /// `allowed.len()` — number of annotations, not suppressed sites.
    pub allowed: usize,
    /// Total findings the ledger suppressed.
    pub suppressed_sites: usize,
}

impl Report {
    /// Assembles a report from per-file findings (already merged); the
    /// layer table is filled in here.
    pub fn new(
        files_scanned: usize,
        mut violations: Vec<Violation>,
        mut allowed: Vec<AllowEntry>,
        mut structure: Structure,
    ) -> Report {
        violations.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule.as_str(),
            ))
        });
        allowed.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
        let suppressed_sites = allowed.iter().map(|a| a.suppressed).sum();
        structure.layers = LAYERS
            .iter()
            .map(|&(name, layer)| LayerEntry {
                name: name.to_string(),
                layer,
            })
            .collect();
        Report {
            tool: "alert-lint".to_string(),
            version: 2,
            files_scanned,
            rules: RULES.to_vec(),
            counts: Counts {
                violations: violations.len(),
                allowed: allowed.len(),
                suppressed_sites,
            },
            violations,
            allowed,
            structure,
        }
    }

    /// Whether the scan is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Pretty JSON for `LINT.json`.
    pub fn to_json(&self) -> String {
        // The shim's pretty printer is deterministic (BTreeMap objects).
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// The human table: one row per violation, then the ledger, then a
    /// one-line summary.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        if !self.violations.is_empty() {
            let loc_w = self
                .violations
                .iter()
                .map(|v| v.file.len() + digits(v.line) + 1)
                .max()
                .unwrap_or(0);
            let rule_w = self
                .violations
                .iter()
                .map(|v| v.rule.len())
                .max()
                .unwrap_or(0);
            for v in &self.violations {
                let loc = format!("{}:{}", v.file, v.line);
                out.push_str(&format!(
                    "{loc:<loc_w$}  {rule:<rule_w$}  {snippet}\n",
                    rule = v.rule,
                    snippet = truncate(&v.snippet, 60),
                ));
                out.push_str(&format!("{:loc_w$}  {:rule_w$}  ^ {}\n", "", "", v.message));
            }
            out.push('\n');
        }
        if !self.allowed.is_empty() {
            out.push_str("allowed with reason:\n");
            for a in &self.allowed {
                out.push_str(&format!(
                    "  {}:{} [{}] x{} — {}\n",
                    a.file,
                    a.line,
                    a.rules.join(","),
                    a.suppressed,
                    a.reason
                ));
            }
            out.push('\n');
        }
        let s = &self.structure;
        out.push_str(&format!(
            "structure: {} layer violation(s), {} lock nesting(s), \
             {}/{} panic source(s) accounted, {}/{} RNG construction(s) traced\n",
            s.layer_violations,
            s.lock_nestings,
            s.panic_accounted,
            s.panic_sources,
            s.rng_traced,
            s.rng_constructions,
        ));
        out.push_str(&format!(
            "{} file(s) scanned: {} violation(s), {} allow annotation(s) covering {} site(s)\n",
            self.files_scanned,
            self.counts.violations,
            self.counts.allowed,
            self.counts.suppressed_sites,
        ));
        out
    }
}

fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max - 1).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: usize, rule: &str) -> Violation {
        Violation {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            snippet: "x.unwrap()".to_string(),
            message: "msg".to_string(),
        }
    }

    #[test]
    fn report_sorts_and_counts() {
        let r = Report::new(
            3,
            vec![v("b.rs", 2, "no-panic"), v("a.rs", 9, "no-wall-clock")],
            vec![AllowEntry {
                rules: vec!["no-panic".to_string()],
                file: "c.rs".to_string(),
                line: 1,
                reason: "why".to_string(),
                suppressed: 2,
            }],
            Structure::default(),
        );
        assert_eq!(r.violations[0].file, "a.rs");
        assert_eq!(r.counts.violations, 2);
        assert_eq!(r.counts.suppressed_sites, 2);
        assert!(!r.is_clean());
        let table = r.human_table();
        assert!(table.contains("a.rs:9"));
        assert!(table.contains("allowed with reason"));
    }

    #[test]
    fn json_round_trips_shape() {
        let r = Report::new(1, vec![], vec![], Structure::default());
        let json = r.to_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        let serde_json::Value::Object(o) = doc else {
            panic!("not an object")
        };
        for key in [
            "tool",
            "version",
            "violations",
            "allowed",
            "counts",
            "rules",
            "structure",
        ] {
            assert!(o.contains_key(key), "missing {key}");
        }
    }
}
