//! Goals (user requirements).
//!
//! A [`Goal`] is the controller-facing statement of paper Eqs. 1–2:
//! optimize one dimension subject to constraints on the other two, with an
//! optional probability threshold (Eqs. 10–11).
//!
//! §3.2 step 2 adjusts the goal's deadline per input in two places: the
//! harness's `BudgetTracker` (in `alert-sched`) splits a group's shared
//! deadline (the words of a sentence in NLP1) across its members for every
//! scheme, and ALERT's controller subtracts its own worst-case overhead
//! "so that ALERT itself will not cause violations" (§3.2, §4).

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

    /// Returns a copy with the deadline replaced (used by deadline
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
}
