//! Per-input records and episode summaries.
//!
//! The harness emits one [`InputRecord`] per processed input and folds the
//! post-warm-up records into an [`EpisodeSummary`]. The summary implements
//! the paper's Table 4 accounting:
//!
//! * a *violation* is an input whose goal constraints were not met
//!   (deadline overrun, quality below the floor, or energy over budget);
//! * a (scheme, setting) combination is *disqualified* when more than 10%
//!   of its inputs are violations — disqualified settings are excluded
//!   from the averages and counted in the table superscripts.

use crate::constraints::{Goal, Objective};
use alert_stats::units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Fraction of inputs allowed to violate before a setting is disqualified.
pub const VIOLATION_DISQUALIFY_FRACTION: f64 = 0.10;

/// One processed input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputRecord {
    /// Input index within the episode.
    pub index: usize,
    /// Device the input was placed on (`0` = the primary platform;
    /// defaulted so records captured before the device axis deserialize
    /// unchanged).
    #[serde(default)]
    pub device: usize,
    /// Name of the model the scheduler picked.
    pub model: String,
    /// Power setting the scheduler picked.
    pub cap: Watts,
    /// Latency of the answer actually delivered.
    pub latency: Seconds,
    /// The per-input deadline in force (after goal adjustment).
    pub deadline: Seconds,
    /// The *goal* deadline in force at dispatch (before shared-group
    /// budget adjustment) — what a trace capture reports as the
    /// requirement in force.
    pub goal_deadline: Seconds,
    /// Period until the next input arrived (the inter-arrival time /
    /// idle-accounting window): the arrival half of a trace capture.
    pub period: Seconds,
    /// Realized per-input latency scale (stream sample × scripted
    /// drift): the input-weight half of a trace capture.
    pub scale: f64,
    /// The quality floor in force at dispatch (scripted goal changes
    /// move it mid-stream); `None` when the effective goal has no floor.
    pub min_quality: Option<f64>,
    /// The per-period energy budget in force at dispatch; `None` when
    /// the effective goal has no budget.
    pub energy_budget: Option<Joules>,
    /// Quality score of the delivered answer.
    pub quality: f64,
    /// Period energy (run + idle).
    pub energy: Joules,
    /// Observed slowdown sample, if any work completed.
    pub slowdown: Option<f64>,
    /// `true` while the co-runner was active at dispatch time.
    pub contention_active: bool,
    /// `true` if this input is inside the warm-up prefix.
    pub warmup: bool,
}

impl InputRecord {
    /// Whether this input violates the goal's *per-input* constraints:
    /// the deadline (always) and the per-period energy budget
    /// (minimize-error task).
    ///
    /// The accuracy floor is deliberately **not** checked per input: the
    /// controller's Eq. 7 targets *expected* accuracy, and the paper
    /// frames its assurances as probabilistic ("arbitrarily many nines",
    /// §3.6) — a mix of anytime outputs averaging above the floor
    /// satisfies the goal even if individual outputs dip below it. The
    /// floor is enforced at episode level by
    /// [`EpisodeSummary::disqualified`].
    pub fn violates(&self, goal: &Goal) -> bool {
        // Latency is always a constraint (Eqs. 1–2).
        if self.latency.get() > self.deadline.get() * (1.0 + 1e-9) {
            return true;
        }
        match goal.objective {
            Objective::MinimizeEnergy => false,
            Objective::MinimizeError => {
                // The budget *in force at dispatch* wins: scripted goal
                // changes rescale it mid-stream. Records without one
                // (legacy) fall back to the episode goal's.
                let budget = self
                    .energy_budget
                    .or(goal.energy_budget)
                    // lint:allow(no-panic): Goal::validate requires energy_budget for MinimizeError goals
                    .expect("validated goal");
                self.energy.get() > budget.get() * (1.0 + 1e-9)
            }
        }
    }
}

/// Aggregated results of one (scheme, goal, scenario) episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeSummary {
    /// Number of measured (post-warm-up) inputs.
    pub measured: usize,
    /// Number of measured inputs in violation.
    pub violations: usize,
    /// Mean period energy over measured inputs.
    pub avg_energy: Joules,
    /// Mean quality score over measured inputs.
    pub avg_quality: f64,
    /// Mean delivered latency.
    pub avg_latency: Seconds,
    /// Fraction of measured inputs that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Whether the episode-average quality met the goal's floor (always
    /// `true` for goals without a floor).
    pub quality_floor_met: bool,
    /// Total scheduler overhead time attributed to the episode: the sum
    /// of the decision costs the scheduler charged, warm-up included.
    /// For ALERT that is thread-CPU time, metered on one decision in 32
    /// (on every decision under `OverheadPolicy::Measured`), each other
    /// decision charged the latest metered cost. Measured, so it differs
    /// bitwise between any two runs.
    pub overhead: Seconds,
}

impl EpisodeSummary {
    /// Folds records into a summary under a goal.
    pub fn from_records(records: &[InputRecord], goal: &Goal) -> Self {
        let measured: Vec<&InputRecord> = records.iter().filter(|r| !r.warmup).collect();
        let n = measured.len();
        let violations = measured.iter().filter(|r| r.violates(goal)).count();
        let misses = measured
            .iter()
            .filter(|r| r.latency.get() > r.deadline.get() * (1.0 + 1e-9))
            .count();
        let avg = |f: &dyn Fn(&InputRecord) -> f64| -> f64 {
            if n == 0 {
                0.0
            } else {
                measured.iter().map(|r| f(r)).sum::<f64>() / n as f64
            }
        };
        let avg_quality = avg(&|r| r.quality);
        // The accuracy floor is judged over *timely* deliveries: a
        // deadline miss is already a (latency) violation above, and its
        // collapsed fallback quality must not be double-counted against
        // the accuracy goal as well.
        let timely: Vec<&&InputRecord> = measured
            .iter()
            .filter(|r| r.latency.get() <= r.deadline.get() * (1.0 + 1e-9))
            .collect();
        // The floor in force may move mid-stream (scripted goal
        // changes): judge the average quality against the average of the
        // per-record floors, which degenerates to the classic constant
        // check when the floor never moves.
        let mut q_sum = 0.0;
        let mut floor_sum = 0.0;
        let mut floored = 0usize;
        for r in &timely {
            if let Some(floor) = r.min_quality.or(goal.min_quality) {
                q_sum += r.quality;
                floor_sum += floor;
                floored += 1;
            }
        }
        let quality_floor_met =
            floored == 0 || q_sum / floored as f64 >= floor_sum / floored as f64 - 1e-12;
        EpisodeSummary {
            measured: n,
            violations,
            avg_energy: Joules(avg(&|r| r.energy.get())),
            avg_quality,
            avg_latency: Seconds(avg(&|r| r.latency.get())),
            deadline_miss_rate: if n == 0 {
                0.0
            } else {
                misses as f64 / n as f64
            },
            quality_floor_met,
            overhead: Seconds::ZERO,
        }
    }

    /// Violation fraction among measured inputs.
    pub fn violation_rate(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            self.violations as f64 / self.measured as f64
        }
    }

    /// Whether this setting is disqualified per the Table 4 protocol:
    /// more than 10% of inputs violated a per-input constraint, or the
    /// episode-average quality fell below the accuracy floor.
    pub fn disqualified(&self) -> bool {
        self.violation_rate() > VIOLATION_DISQUALIFY_FRACTION || !self.quality_floor_met
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(latency: f64, deadline: f64, quality: f64, energy: f64) -> InputRecord {
        InputRecord {
            index: 0,
            device: 0,
            model: "m".into(),
            cap: Watts(50.0),
            latency: Seconds(latency),
            deadline: Seconds(deadline),
            goal_deadline: Seconds(deadline),
            period: Seconds(deadline),
            scale: 1.0,
            min_quality: None,
            energy_budget: None,
            quality,
            energy: Joules(energy),
            slowdown: Some(1.0),
            contention_active: false,
            warmup: false,
        }
    }

    #[test]
    fn violation_rules_min_energy() {
        let goal = Goal::minimize_energy(Seconds(0.1), 0.9);
        assert!(!record(0.09, 0.1, 0.95, 5.0).violates(&goal));
        // Deadline overrun.
        assert!(record(0.11, 0.1, 0.95, 5.0).violates(&goal));
        // Quality below floor is NOT a per-input violation (statistical
        // target, checked at episode level).
        assert!(!record(0.09, 0.1, 0.85, 5.0).violates(&goal));
        // Energy is unconstrained here.
        assert!(!record(0.09, 0.1, 0.95, 1e9).violates(&goal));
    }

    #[test]
    fn effective_budget_in_force_overrides_the_episode_goal() {
        // A scripted goal change halved the budget mid-stream: the
        // record carries the effective budget and is judged against it.
        let goal = Goal::minimize_error(Seconds(0.1), Joules(10.0));
        let mut r = record(0.09, 0.1, 0.9, 5.0);
        assert!(!r.violates(&goal));
        r.energy_budget = Some(Joules(4.0));
        assert!(r.violates(&goal), "the tightened budget must bind");
        r.energy_budget = Some(Joules(6.0));
        assert!(!r.violates(&goal));
    }

    #[test]
    fn moving_quality_floor_binds_in_the_summary() {
        // Floor raised to 0.95 for the second half: constant 0.91
        // quality passes the base 0.90 floor but not the average of the
        // floors in force.
        let goal = Goal::minimize_energy(Seconds(0.1), 0.90);
        let mk = |floor: f64| {
            let mut r = record(0.05, 0.1, 0.91, 5.0);
            r.min_quality = Some(floor);
            r
        };
        let steady: Vec<InputRecord> = (0..10).map(|_| mk(0.90)).collect();
        assert!(EpisodeSummary::from_records(&steady, &goal).quality_floor_met);
        let flipped: Vec<InputRecord> = (0..5)
            .map(|_| mk(0.90))
            .chain((0..5).map(|_| mk(0.95)))
            .collect();
        let summary = EpisodeSummary::from_records(&flipped, &goal);
        assert!(!summary.quality_floor_met, "raised floor must bind");
        assert!(summary.disqualified());
    }

    #[test]
    fn quality_floor_is_episode_average() {
        let goal = Goal::minimize_energy(Seconds(0.1), 0.9);
        // Mix of 0.95 and 0.85 averaging 0.90: floor met, not disqualified.
        let records: Vec<InputRecord> = (0..100)
            .map(|i| record(0.05, 0.1, if i % 2 == 0 { 0.95 } else { 0.85 }, 1.0))
            .collect();
        let s = EpisodeSummary::from_records(&records, &goal);
        assert!(s.quality_floor_met);
        assert!(!s.disqualified());
        // All at 0.85: floor failed → disqualified despite zero per-input
        // violations.
        let records: Vec<InputRecord> = (0..100).map(|_| record(0.05, 0.1, 0.85, 1.0)).collect();
        let s = EpisodeSummary::from_records(&records, &goal);
        assert_eq!(s.violations, 0);
        assert!(!s.quality_floor_met);
        assert!(s.disqualified());
    }

    #[test]
    fn violation_rules_min_error() {
        let goal = Goal::minimize_error(Seconds(0.1), Joules(5.0));
        assert!(!record(0.09, 0.1, 0.2, 4.9).violates(&goal));
        assert!(record(0.09, 0.1, 0.2, 5.1).violates(&goal));
        // Quality is unconstrained here.
        assert!(!record(0.09, 0.1, 0.0, 4.0).violates(&goal));
    }

    #[test]
    fn summary_excludes_warmup() {
        let goal = Goal::minimize_energy(Seconds(0.1), 0.9);
        let mut records = vec![record(0.2, 0.1, 0.95, 100.0); 3];
        for r in &mut records {
            r.warmup = true;
        }
        records.push(record(0.05, 0.1, 0.95, 2.0));
        let s = EpisodeSummary::from_records(&records, &goal);
        assert_eq!(s.measured, 1);
        assert_eq!(s.violations, 0);
        assert!((s.avg_energy.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disqualification_threshold() {
        let goal = Goal::minimize_energy(Seconds(0.1), 0.9);
        let mut records: Vec<InputRecord> =
            (0..100).map(|_| record(0.05, 0.1, 0.95, 1.0)).collect();
        for r in records.iter_mut().take(10) {
            r.latency = Seconds(0.2); // 10% violations: not disqualified
        }
        let s = EpisodeSummary::from_records(&records, &goal);
        assert!((s.violation_rate() - 0.10).abs() < 1e-12);
        assert!(!s.disqualified());
        records[10].latency = Seconds(0.2); // 11%: disqualified
        let s = EpisodeSummary::from_records(&records, &goal);
        assert!(s.disqualified());
    }

    #[test]
    fn empty_records_are_safe() {
        let goal = Goal::minimize_energy(Seconds(0.1), 0.9);
        let s = EpisodeSummary::from_records(&[], &goal);
        assert_eq!(s.measured, 0);
        assert!(!s.disqualified());
        assert_eq!(s.violation_rate(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let goal = Goal::minimize_error(Seconds(0.1), Joules(5.0));
        let s = EpisodeSummary::from_records(&[record(0.09, 0.1, 0.5, 4.0)], &goal);
        let json = serde_json::to_string(&s).unwrap();
        let back: EpisodeSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
