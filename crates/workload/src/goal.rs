//! Goals (user requirements) and dynamic goal adjustment.
//!
//! A [`Goal`] is the controller-facing statement of paper Eqs. 1–2:
//! optimize one dimension subject to constraints on the other two, with an
//! optional probability threshold (Eqs. 10–11).
//!
//! [`GoalAdjuster`] implements §3.2 step 2: for grouped inputs (the words
//! of a sentence in NLP1 share one sentence-wide deadline) the per-input
//! deadline is the remaining budget divided by the remaining members, so
//! "delays in previous input processing … shorten the available time for
//! the next input"; and the controller's own worst-case overhead is
//! subtracted "so that ALERT itself will not cause violations" (§3.2, §4).

use alert_stats::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// What to optimize; the other two dimensions become constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize energy s.t. deadline + quality floor (paper Eq. 2).
    MinimizeEnergy,
    /// Minimize error (maximize quality) s.t. deadline + energy budget
    /// (paper Eq. 1).
    MinimizeError,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::MinimizeEnergy => write!(f, "MinimizeEnergy"),
            Objective::MinimizeError => write!(f, "MinimizeError"),
        }
    }
}

/// One constraint setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Goal {
    /// The optimization objective.
    pub objective: Objective,
    /// Per-input (or per-group, for grouped tasks) deadline.
    pub deadline: Seconds,
    /// Quality-score floor (set for [`Objective::MinimizeEnergy`]).
    pub min_quality: Option<f64>,
    /// Per-period energy budget (set for [`Objective::MinimizeError`]).
    pub energy_budget: Option<Joules>,
    /// Optional probability threshold Pr_th (paper Eqs. 10–11); `None`
    /// uses the default full-expectation mode.
    pub prob_threshold: Option<f64>,
}

impl Goal {
    /// A minimize-energy goal.
    pub fn minimize_energy(deadline: Seconds, min_quality: f64) -> Self {
        Goal {
            objective: Objective::MinimizeEnergy,
            deadline,
            min_quality: Some(min_quality),
            energy_budget: None,
            prob_threshold: None,
        }
    }

    /// A minimize-error goal.
    pub fn minimize_error(deadline: Seconds, energy_budget: Joules) -> Self {
        Goal {
            objective: Objective::MinimizeError,
            deadline,
            min_quality: None,
            energy_budget: Some(energy_budget),
            prob_threshold: None,
        }
    }

    /// Returns a copy with a probability threshold set (Eqs. 10–11).
    ///
    /// # Panics
    ///
    /// Panics unless `pr` is in the open interval `(0, 1)`: the Eq. 12
    /// energy bound takes the standard-normal quantile of `pr`, which is
    /// unbounded at both ends.
    pub fn with_prob_threshold(mut self, pr: f64) -> Self {
        assert!(pr > 0.0 && pr < 1.0, "threshold must be in (0,1), got {pr}");
        self.prob_threshold = Some(pr);
        self
    }

    /// Returns a copy with the deadline replaced (used by goal
    /// adjustment).
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = deadline;
        self
    }

    /// Validates internal consistency: a positive finite deadline, the
    /// objective's constraint (a finite quality floor or a positive
    /// finite energy budget), a finite floor wherever one is set, and a
    /// probability threshold, if any, in the open interval `(0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.deadline.is_finite() && self.deadline.get() > 0.0) {
            return Err(format!("bad deadline {}", self.deadline));
        }
        if let Some(q) = self.min_quality {
            if !q.is_finite() {
                return Err(format!("bad quality floor {q}"));
            }
        }
        if let Some(pr) = self.prob_threshold {
            if !(pr > 0.0 && pr < 1.0) {
                return Err(format!("probability threshold must be in (0,1), got {pr}"));
            }
        }
        match self.objective {
            Objective::MinimizeEnergy => {
                if self.min_quality.is_none() {
                    return Err("minimize-energy goal needs a quality floor".into());
                }
            }
            Objective::MinimizeError => match self.energy_budget {
                None => return Err("minimize-error goal needs an energy budget".into()),
                Some(e) if !(e.is_finite() && e.get() > 0.0) => {
                    return Err(format!("bad energy budget {e}"));
                }
                _ => {}
            },
        }
        Ok(())
    }
}

/// Dynamic per-input deadline computation (paper §3.2 step 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoalAdjuster {
    /// Worst observed controller overhead, reserved out of every deadline.
    overhead_reserve: Seconds,
    /// Remaining budget of the current group, if inside one.
    group_remaining: Option<Seconds>,
    /// Members of the current group not yet dispatched.
    group_members_left: usize,
}

impl GoalAdjuster {
    /// Creates an adjuster with no overhead observed yet.
    pub fn new() -> Self {
        GoalAdjuster {
            overhead_reserve: Seconds::ZERO,
            group_remaining: None,
            group_members_left: 0,
        }
    }

    /// Records a measured controller overhead; the reserve keeps the
    /// worst case seen.
    pub fn record_overhead(&mut self, overhead: Seconds) {
        if overhead.is_finite() && overhead > self.overhead_reserve {
            self.overhead_reserve = overhead;
        }
    }

    /// The current overhead reserve.
    pub fn overhead_reserve(&self) -> Seconds {
        self.overhead_reserve
    }

    /// Begins a group (sentence) with `members` inputs sharing
    /// `group_deadline` of total budget.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0`.
    pub fn begin_group(&mut self, group_deadline: Seconds, members: usize) {
        assert!(members > 0, "a group needs at least one member");
        self.group_remaining = Some(group_deadline);
        self.group_members_left = members;
    }

    /// Computes the effective deadline for the next input and internally
    /// claims one group slot. For ungrouped inputs the effective deadline
    /// is the goal deadline minus the overhead reserve.
    ///
    /// The returned deadline is floored at a small positive epsilon so a
    /// blown group budget degrades (everything misses) rather than
    /// producing nonsensical non-positive deadlines.
    pub fn next_deadline(&mut self, goal_deadline: Seconds) -> Seconds {
        let raw = match (self.group_remaining, self.group_members_left) {
            (Some(remaining), left) if left > 0 => remaining / left as f64,
            _ => goal_deadline,
        };
        if self.group_members_left > 0 {
            self.group_members_left -= 1;
        }
        Seconds((raw - self.overhead_reserve).get().max(1e-6))
    }

    /// Records the latency actually consumed by the input just processed,
    /// shrinking the group budget.
    pub fn consume(&mut self, latency: Seconds) {
        if let Some(rem) = self.group_remaining.as_mut() {
            *rem = Seconds((rem.get() - latency.get()).max(0.0));
            if self.group_members_left == 0 {
                self.group_remaining = None;
            }
        }
    }

    /// Remaining budget of the current group, if any.
    pub fn group_remaining(&self) -> Option<Seconds> {
        self.group_remaining
    }
}

impl Default for GoalAdjuster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_validation() {
        assert!(Goal::minimize_energy(Seconds(0.1), 0.9).validate().is_ok());
        assert!(Goal::minimize_error(Seconds(0.1), Joules(5.0))
            .validate()
            .is_ok());
        let mut bad = Goal::minimize_energy(Seconds(0.1), 0.9);
        bad.deadline = Seconds(0.0);
        assert!(bad.validate().is_err());
        let mut bad = Goal::minimize_error(Seconds(0.1), Joules(5.0));
        bad.energy_budget = None;
        assert!(bad.validate().is_err());
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = Goal::minimize_energy(Seconds(0.1), q);
            assert!(bad.validate().is_err(), "floor {q}");
        }
        for pr in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let mut bad = Goal::minimize_energy(Seconds(0.1), 0.9);
            bad.prob_threshold = Some(pr);
            assert!(bad.validate().is_err(), "threshold {pr}");
        }
        let ok = Goal::minimize_energy(Seconds(0.1), 0.9).with_prob_threshold(0.95);
        assert!(ok.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0,1)")]
    fn zero_threshold_is_rejected_at_construction() {
        let _ = Goal::minimize_energy(Seconds(0.1), 0.9).with_prob_threshold(0.0);
    }

    #[test]
    fn ungrouped_deadline_subtracts_overhead() {
        let mut a = GoalAdjuster::new();
        assert_eq!(a.next_deadline(Seconds(0.1)), Seconds(0.1));
        a.record_overhead(Seconds(0.002));
        a.record_overhead(Seconds(0.001)); // smaller: reserve keeps max
        assert!((a.next_deadline(Seconds(0.1)).get() - 0.098).abs() < 1e-12);
        assert_eq!(a.overhead_reserve(), Seconds(0.002));
    }

    #[test]
    fn group_budget_divides_evenly_when_on_pace() {
        let mut a = GoalAdjuster::new();
        a.begin_group(Seconds(1.0), 4);
        let d1 = a.next_deadline(Seconds(9.9));
        assert!((d1.get() - 0.25).abs() < 1e-12);
        a.consume(Seconds(0.25));
        let d2 = a.next_deadline(Seconds(9.9));
        assert!((d2.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn slow_members_shrink_later_deadlines() {
        // Paper §3.2: "delays in previous input processing could greatly
        // shorten the available time for the next input".
        let mut a = GoalAdjuster::new();
        a.begin_group(Seconds(1.0), 4);
        let _ = a.next_deadline(Seconds(9.9));
        a.consume(Seconds(0.7)); // way over the fair share of 0.25
        let d2 = a.next_deadline(Seconds(9.9));
        assert!((d2.get() - 0.1).abs() < 1e-12, "d2 = {d2}");
    }

    #[test]
    fn fast_members_relax_later_deadlines() {
        let mut a = GoalAdjuster::new();
        a.begin_group(Seconds(1.0), 4);
        let _ = a.next_deadline(Seconds(9.9));
        a.consume(Seconds(0.1));
        let d2 = a.next_deadline(Seconds(9.9));
        assert!((d2.get() - 0.3).abs() < 1e-12, "d2 = {d2}");
    }

    #[test]
    fn blown_budget_floors_at_epsilon() {
        let mut a = GoalAdjuster::new();
        a.begin_group(Seconds(0.2), 2);
        let _ = a.next_deadline(Seconds(9.9));
        a.consume(Seconds(0.5)); // budget gone
        let d = a.next_deadline(Seconds(9.9));
        assert!(d.get() > 0.0 && d.get() <= 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_rejected() {
        GoalAdjuster::new().begin_group(Seconds(1.0), 0);
    }

    #[test]
    fn deadline_fully_consumed_by_earlier_members_floors_all_later_ones() {
        let mut a = GoalAdjuster::new();
        a.begin_group(Seconds(0.3), 3);
        let _ = a.next_deadline(Seconds(9.9));
        a.consume(Seconds(0.3)); // exactly the whole budget
        for _ in 0..2 {
            let d = a.next_deadline(Seconds(9.9));
            assert!(d.get() > 0.0 && d.get() <= 1e-6, "d = {d}");
            a.consume(Seconds(0.0));
        }
    }

    #[test]
    fn overhead_reserve_never_yields_negative_deadline() {
        // Reserve larger than the goal deadline: the effective deadline
        // clamps to the epsilon floor instead of going non-positive.
        let mut a = GoalAdjuster::new();
        a.record_overhead(Seconds(0.5));
        let d = a.next_deadline(Seconds(0.1));
        assert!(d.get() > 0.0 && d.get() <= 1e-6, "d = {d}");
        // Same inside a group whose fair share is below the reserve.
        a.begin_group(Seconds(0.4), 4);
        let d = a.next_deadline(Seconds(9.9));
        assert!(d.get() > 0.0 && d.get() <= 1e-6, "d = {d}");
    }

    #[test]
    fn non_finite_overhead_is_ignored() {
        let mut a = GoalAdjuster::new();
        a.record_overhead(Seconds(f64::NAN));
        a.record_overhead(Seconds(f64::INFINITY));
        assert_eq!(a.overhead_reserve(), Seconds::ZERO);
        assert_eq!(a.next_deadline(Seconds(0.1)), Seconds(0.1));
    }
}
