//! The DNN-idle power ratio φ (paper Eq. 8).
//!
//! Between inference inputs the system is not necessarily quiet: co-located
//! jobs keep drawing power. ALERT "continually estimates the system power
//! when DNN inference is idle" as a *ratio* φ = p_idle / p_cap, filtered by
//! a fixed-gain Kalman schedule, and uses φ·p_cap as the idle-power term of
//! the energy estimate (Eq. 9).

use alert_stats::kalman::IdlePowerFilter;
use alert_stats::units::Watts;
use serde::{Deserialize, Serialize};

/// Estimator of the idle-power ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdleRatioEstimator {
    filter: IdlePowerFilter,
}

impl IdleRatioEstimator {
    /// Creates the estimator with an initial ratio guess.
    ///
    /// # Panics
    ///
    /// Panics if `phi0` is outside `[0, 1]`.
    pub fn new(phi0: f64) -> Self {
        IdleRatioEstimator {
            filter: IdlePowerFilter::new(phi0),
        }
    }

    /// Feeds one measurement of idle power under the cap that was active.
    ///
    /// Measurements with a non-positive cap are ignored.
    pub fn observe(&mut self, idle_power: Watts, cap: Watts) {
        if cap.get() <= 0.0 || !idle_power.is_finite() {
            return;
        }
        self.filter.update(idle_power / cap);
    }

    /// Current ratio estimate φ⁽ⁿ⁾.
    pub fn ratio(&self) -> f64 {
        self.filter.ratio()
    }

    /// Number of measurements consumed.
    pub fn observations(&self) -> u64 {
        self.filter.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_observed_ratio() {
        let mut e = IdleRatioEstimator::new(0.5);
        for _ in 0..200 {
            e.observe(Watts(18.0), Watts(90.0)); // ratio 0.2
        }
        assert!((e.ratio() - 0.2).abs() < 0.01);
    }

    #[test]
    fn tracks_contention_raising_idle_power() {
        let mut e = IdleRatioEstimator::new(0.2);
        // Co-runner starts: idle draw jumps from 18 W to 30 W under 90 W.
        for _ in 0..50 {
            e.observe(Watts(18.0), Watts(90.0));
        }
        let before = e.ratio();
        for _ in 0..50 {
            e.observe(Watts(30.0), Watts(90.0));
        }
        assert!(e.ratio() > before + 0.05);
    }

    #[test]
    fn ignores_bad_measurements() {
        let mut e = IdleRatioEstimator::new(0.5);
        e.observe(Watts(10.0), Watts(0.0));
        e.observe(Watts(f64::NAN), Watts(50.0));
        assert_eq!(e.observations(), 0);
        assert_eq!(e.ratio(), 0.5);
    }
}
