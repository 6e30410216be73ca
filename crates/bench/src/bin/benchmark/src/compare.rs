//! `--compare A B`: a before/after table over two sets of runs, one row
//! per workload × metric, with a verdict per gated row.
//!
//! Verdicts follow the choosing-metrics rules: *improved* when the after
//! side wins at least 9 of 10 paired runs and the medians differ by more
//! than the before side's own interquartile range; *unresolved* when
//! either side's relative spread is wider than the metric's bound (unless
//! every after run beats every before run); *regressed* when the after
//! median is worse by more than the bound; otherwise *within bound*.

use crate::metrics::{self, Better};
use crate::stats::{quartiles, relative_iqr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One invocation's saved result (`results/benchmark/run.json`, and one
/// line of `results/benchmark/runs.jsonl`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDoc {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `std::thread::available_parallelism` of the measuring machine.
    pub threads: u64,
    pub workloads: BTreeMap<String, WorkloadDoc>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDoc {
    pub correct: bool,
    pub checks: BTreeMap<String, bool>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricDoc>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDoc {
    pub value: f64,
    pub unit: String,
    /// Samples behind a percentile in one repetition (0: not a percentile).
    pub samples: u64,
    /// The per-repetition values the median was taken over.
    pub reps: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
    /// Per-layer rows carry no bound and get no verdict.
    Ungated,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Ungated => "-",
        }
    }
}

/// Judges `after` against `before` (one value per run, paired in run
/// order).
pub fn verdict(before: &[f64], after: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Ungated;
    };
    // Positive `worsening` means the after side is worse.
    let sign = match better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let [b1, bm, b3] = quartiles(before);
    let [_, am, _] = quartiles(after);
    let worsening = sign * (am - bm);
    let pairs = before.len().min(after.len());
    let wins = before
        .iter()
        .zip(after)
        .filter(|(b, a)| sign * (*a - *b) < 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worsening > b3 - b1 {
        return Verdict::Improved;
    }
    if relative_iqr(before).max(relative_iqr(after)) > bound {
        let dominates = after
            .iter()
            .all(|a| before.iter().all(|b| sign * (*a - *b) < 0.0));
        return if dominates {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound * bm.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub before: [f64; 3],
    pub after: [f64; 3],
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Rows for every workload × metric present on both sides: workloads by
/// name, metrics in catalog order.
pub fn rows(before: &[RunDoc], after: &[RunDoc]) -> Vec<Row> {
    let values = |docs: &[RunDoc], w: &str, m: &str| -> Vec<f64> {
        docs.iter()
            .filter_map(|d| d.workloads.get(w)?.metrics.get(m).map(|x| x.value))
            .collect()
    };
    let workloads: BTreeSet<&String> = before.iter().flat_map(|d| d.workloads.keys()).collect();
    let catalog = metrics::END_TO_END
        .iter()
        .chain(metrics::INFO)
        .chain(metrics::PER_LAYER);
    let mut out = Vec::new();
    for w in workloads {
        for def in catalog.clone() {
            let (b, a) = (values(before, w, def.name), values(after, w, def.name));
            if b.is_empty() || a.is_empty() {
                continue;
            }
            out.push(Row {
                workload: w.clone(),
                metric: def.name.to_string(),
                unit: def.unit.to_string(),
                before: quartiles(&b),
                after: quartiles(&a),
                bound: def.bound,
                verdict: verdict(&b, &a, def.better, def.bound),
            });
        }
    }
    out
}

/// Four significant digits.
fn num(v: f64) -> String {
    let magnitude = if v.is_finite() && v.abs() > 0.0 {
        v.abs().log10().floor() as i32
    } else {
        0
    };
    let decimals = (3 - magnitude).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// Renders the table, ending with a verdict count.
pub fn render(rows: &[Row], runs: (usize, usize)) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "before: {} run(s), after: {} run(s); values are q1 / median / q3 over runs",
        runs.0, runs.1
    );
    let _ = writeln!(
        s,
        "{:<9} {:<27} {:<6} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "before", "after", "change", "bound"
    );
    let quart = |q: &[f64; 3]| format!("{} / {} / {}", num(q[0]), num(q[1]), num(q[2]));
    for r in rows {
        let change = if r.before[1].abs() > 0.0 {
            format!("{:+.1}%", (r.after[1] / r.before[1] - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        let bound = r
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        let _ = writeln!(
            s,
            "{:<9} {:<27} {:<6} {:>32} {:>32} {:>8} {:>6}  {}",
            r.workload,
            r.metric,
            r.unit,
            quart(&r.before),
            quart(&r.after),
            change,
            bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        s,
        "{} improved, {} within bound, {} regressed, {} unresolved",
        count(Verdict::Improved),
        count(Verdict::WithinBound),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    s
}

/// Loads a set of runs: a single run document (`run.json`) or one
/// document per line (`runs.jsonl`).
pub fn load(path: &str) -> Result<Vec<RunDoc>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(run) = serde_json::from_str::<RunDoc>(&text) {
        return Ok(vec![run]);
    }
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn identical_runs_are_within_bound() {
        let v = [10.0, 10.2, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&v, &v, LOWER, Some(0.1)), Verdict::WithinBound);
    }

    #[test]
    fn clear_win_on_every_pair_is_improved() {
        let before = [100.0, 101.0, 99.0, 100.5, 100.0];
        let after = [90.0, 91.0, 89.5, 90.2, 90.0];
        assert_eq!(
            verdict(&before, &after, LOWER, Some(0.1)),
            Verdict::Improved
        );
        // The same numbers read as throughput are a regression.
        assert_eq!(
            verdict(&before, &after, HIGHER, Some(0.05)),
            Verdict::Regressed
        );
    }

    #[test]
    fn worsening_inside_the_bound_is_within_bound() {
        let before = [100.0, 100.0, 100.0];
        let after = [104.0, 104.0, 104.0];
        assert_eq!(
            verdict(&before, &after, LOWER, Some(0.05)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&before, &after, LOWER, Some(0.03)),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let before = [80.0, 120.0, 100.0, 70.0, 130.0];
        let after = [85.0, 125.0, 100.0, 75.0, 128.0];
        assert_eq!(
            verdict(&before, &after, LOWER, Some(0.1)),
            Verdict::Unresolved
        );
        // ... unless every after run beats every before run.
        let after = [60.0, 61.0, 62.0, 63.0, 64.0];
        assert_eq!(
            verdict(&before, &after, LOWER, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn per_layer_rows_are_ungated() {
        assert_eq!(verdict(&[1.0], &[2.0], LOWER, None), Verdict::Ungated);
    }

    fn doc(value: f64) -> RunDoc {
        let metric = MetricDoc {
            value,
            unit: "1/s".into(),
            samples: 0,
            reps: vec![value],
        };
        RunDoc {
            seed: 1,
            seconds: 1.0,
            trace: false,
            threads: 2,
            workloads: BTreeMap::from([(
                "steady".to_string(),
                WorkloadDoc {
                    correct: true,
                    checks: BTreeMap::new(),
                    attempted: 1,
                    failed: 0,
                    metrics: BTreeMap::from([("inputs_per_s".to_string(), metric)]),
                },
            )]),
        }
    }

    #[test]
    fn table_has_one_row_per_shared_workload_metric() {
        let before: Vec<RunDoc> = [100.0, 101.0, 99.0].map(doc).to_vec();
        let after: Vec<RunDoc> = [70.0, 71.0, 69.0].map(doc).to_vec();
        let rows = rows(&before, &after);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let table = render(&rows, (3, 3));
        assert!(table.contains("inputs_per_s"), "{table}");
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("0 improved, 0 within bound, 1 regressed, 0 unresolved"));
    }

    #[test]
    fn run_documents_round_trip_through_json() {
        let d = doc(12.5);
        let text = serde_json::to_string(&d).expect("serializes");
        let back: RunDoc = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, d);
    }
}
