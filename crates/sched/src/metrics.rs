//! Table 4 accounting: normalization, violation counting, aggregation.
//!
//! Every Table 4 cell averages a scheme's objective value over 35
//! constraint settings, *normalized to OracleStatic*, excluding settings
//! the scheme was disqualified on (>10% of inputs in violation) and
//! counting those as the cell's superscript. The bottom row aggregates
//! cells by harmonic mean.

use alert_models::QualityMetric;
use alert_stats::summary::harmonic_mean;
use alert_workload::{EpisodeSummary, Goal, Objective};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The reported objective value of an episode: joules for the
/// minimize-energy task, error units (error % / perplexity) for the
/// minimize-error task. Lower is better for both.
pub fn objective_report(summary: &EpisodeSummary, goal: &Goal, metric: QualityMetric) -> f64 {
    match goal.objective {
        Objective::MinimizeEnergy => summary.avg_energy.get(),
        Objective::MinimizeError => metric.report(summary.avg_quality),
    }
}

/// One Table 4 cell for one scheme, accumulated over constraint settings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellStat {
    /// Normalized objective ratios of qualified settings.
    ratios: Vec<f64>,
    /// Number of disqualified settings (the table superscript).
    pub violations: usize,
    /// Total settings seen.
    pub settings: usize,
}

impl CellStat {
    /// Adds one setting's outcome.
    ///
    /// `baseline` is OracleStatic's objective value for the same setting,
    /// whether or not OracleStatic met the constraints there. A
    /// disqualified setting counts toward the superscript only; a
    /// qualified one adds `objective_value / baseline` to the mean when
    /// the baseline is positive and the value finite.
    pub fn add(&mut self, summary: &EpisodeSummary, objective_value: f64, baseline: f64) {
        self.settings += 1;
        if summary.disqualified() {
            self.violations += 1;
            return;
        }
        if baseline > 0.0 && objective_value.is_finite() {
            self.ratios.push(objective_value / baseline);
        }
    }

    /// Mean normalized objective over qualified settings.
    pub fn mean_ratio(&self) -> Option<f64> {
        if self.ratios.is_empty() {
            None
        } else {
            Some(self.ratios.iter().sum::<f64>() / self.ratios.len() as f64)
        }
    }

    /// Number of qualified settings contributing to the mean.
    pub fn qualified(&self) -> usize {
        self.ratios.len()
    }
}

/// A full table: rows × schemes → cells.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultTable {
    /// `cells[row_label][scheme] = stat`.
    pub cells: BTreeMap<String, BTreeMap<String, CellStat>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to one cell, created on demand.
    pub fn cell(&mut self, row: &str, scheme: &str) -> &mut CellStat {
        self.cells
            .entry(row.to_string())
            .or_default()
            .entry(scheme.to_string())
            .or_default()
    }

    /// Harmonic mean of a scheme's cell means across rows (Table 4 bottom
    /// row). Returns `None` when no row has a qualified mean.
    pub fn harmonic_mean_for(&self, scheme: &str) -> Option<f64> {
        let means: Vec<f64> = self
            .cells
            .values()
            .filter_map(|row| row.get(scheme))
            .filter_map(|c| c.mean_ratio())
            .collect();
        if means.is_empty() {
            None
        } else {
            harmonic_mean(&means)
        }
    }

    /// All scheme names appearing in the table.
    pub fn schemes(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cells
            .values()
            .flat_map(|row| row.keys().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Renders the table as aligned text (one line per row label).
    pub fn render(&self) -> String {
        let schemes = self.schemes();
        let mut out = String::new();
        out.push_str(&format!("{:<38}", "row"));
        for s in &schemes {
            out.push_str(&format!("{s:>16}"));
        }
        out.push('\n');
        for (row, cells) in &self.cells {
            out.push_str(&format!("{row:<38}"));
            for s in &schemes {
                match cells.get(s) {
                    Some(c) => {
                        let txt = match c.mean_ratio() {
                            Some(m) if c.violations > 0 => {
                                format!("{m:.2}({})", c.violations)
                            }
                            Some(m) => format!("{m:.2}"),
                            None => format!("--({})", c.violations),
                        };
                        out.push_str(&format!("{txt:>16}"));
                    }
                    None => out.push_str(&format!("{:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<38}", "harmonic mean"));
        for s in &schemes {
            match self.harmonic_mean_for(s) {
                Some(h) => out.push_str(&format!("{h:>16.2}")),
                None => out.push_str(&format!("{:>16}", "-")),
            }
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::{Joules, Seconds};

    fn summary(violation_rate: f64, energy: f64, quality: f64) -> EpisodeSummary {
        EpisodeSummary {
            measured: 100,
            violations: (violation_rate * 100.0) as usize,
            avg_energy: Joules(energy),
            avg_quality: quality,
            avg_latency: Seconds(0.1),
            deadline_miss_rate: 0.0,
            quality_floor_met: true,
            overhead: Seconds::ZERO,
        }
    }

    #[test]
    fn objective_report_units() {
        let s = summary(0.0, 12.5, 0.93);
        let g_e = Goal::minimize_energy(Seconds(0.1), 0.9);
        assert_eq!(
            objective_report(&s, &g_e, QualityMetric::Top5Accuracy),
            12.5
        );
        let g_q = Goal::minimize_error(Seconds(0.1), Joules(5.0));
        let err = objective_report(&s, &g_q, QualityMetric::Top5Accuracy);
        assert!((err - 7.0).abs() < 1e-9);
        // Perplexity metric.
        let s = summary(0.0, 12.5, -120.0);
        assert_eq!(objective_report(&s, &g_q, QualityMetric::Perplexity), 120.0);
    }

    #[test]
    fn cellstat_accumulates_and_disqualifies() {
        let mut c = CellStat::default();
        c.add(&summary(0.0, 10.0, 0.9), 10.0, 20.0);
        c.add(&summary(0.0, 30.0, 0.9), 30.0, 20.0);
        c.add(&summary(0.5, 99.0, 0.9), 99.0, 20.0); // disqualified
        assert_eq!(c.settings, 3);
        assert_eq!(c.violations, 1);
        assert_eq!(c.qualified(), 2);
        assert!((c.mean_ratio().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_skips_ratio() {
        let mut c = CellStat::default();
        c.add(&summary(0.0, 10.0, 0.9), 10.0, 0.0);
        assert_eq!(c.settings, 1);
        assert_eq!(c.violations, 0);
        assert_eq!(c.qualified(), 0);
        assert!(c.mean_ratio().is_none());
    }

    #[test]
    fn table_harmonic_mean() {
        let mut t = ResultTable::new();
        t.cell("row1", "ALERT")
            .add(&summary(0.0, 1.0, 0.9), 5.0, 10.0); // ratio 0.5
        t.cell("row2", "ALERT")
            .add(&summary(0.0, 1.0, 0.9), 10.0, 10.0); // ratio 1.0
        let hm = t.harmonic_mean_for("ALERT").unwrap();
        assert!((hm - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_rows_and_schemes() {
        let mut t = ResultTable::new();
        t.cell("CPU1/img/Default", "ALERT")
            .add(&summary(0.0, 1.0, 0.9), 6.4, 10.0);
        t.cell("CPU1/img/Default", "Sys-only")
            .add(&summary(0.2, 1.0, 0.9), 6.4, 10.0);
        let txt = t.render();
        assert!(txt.contains("CPU1/img/Default"));
        assert!(txt.contains("ALERT"));
        assert!(txt.contains("Sys-only"));
        assert!(txt.contains("0.64"));
        assert!(txt.contains("--(1)"), "disqualified cell: {txt}");
        assert!(txt.contains("harmonic mean"));
    }
}
