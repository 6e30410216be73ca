//! The global slowdown factor ξ (paper §3.3 Idea 1, §3.4 Eq. 5).
//!
//! ξ is "a random variable relating the current runtime environment to a
//! nominal profiling environment": after each input, the ratio of observed
//! latency to profiled latency — *whatever* model and power setting were
//! used — feeds one adaptive Kalman filter. The mean rescales the entire
//! profile table; the variance measures volatility. This single scalar is
//! what lets ALERT predict all |D|×|P| configurations from the history of
//! whichever few were recently run.

use alert_stats::kalman::{AdaptiveKalman, AdaptiveKalmanParams};
use alert_stats::normal::Normal;
use alert_stats::units::Seconds;
use serde::{Deserialize, Serialize};

/// Smoothing factor of the innovation-dispersion tracker.
const INNOVATION_EWMA_BETA: f64 = 0.85;

/// Initial innovation variance (σ = 10%): conservative until real
/// observations arrive.
const INNOVATION_VAR0: f64 = 0.01;

/// Estimator of the global slowdown factor.
///
/// The *mean* comes from the paper's adaptive Kalman filter (Eq. 5)
/// verbatim. For the *spread*, the filter's state variance alone
/// under-represents the per-input dispersion the probabilistic estimates
/// (Eqs. 6/7/12) must price — the filter smooths with gain `K < 1`, so
/// its re-estimated process noise scales with `(K·y)²`, not `y²`. We
/// therefore also track the raw innovation second moment with an EWMA and
/// use the *wider* of the two as σ — the same innovation-based adaptation
/// family as the paper's reference (Akhlaghi et al.), applied to the
/// predictive spread instead of the process noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowdownEstimator {
    filter: AdaptiveKalman,
    innovation_var: f64,
}

impl SlowdownEstimator {
    /// Creates the estimator with the paper's Kalman constants.
    pub fn new() -> Self {
        // lint:allow(no-panic): paper-default constants are compile-time fixed and covered by tests; failure is unreachable
        Self::with_params(AdaptiveKalmanParams::default()).expect("paper defaults are valid")
    }

    /// Creates the estimator with explicit filter parameters (paper §3.6
    /// suggests raising `Q⁽⁰⁾` for aberrant latency distributions).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter (the
    /// parameters usually come from user configuration).
    pub fn with_params(params: AdaptiveKalmanParams) -> Result<Self, String> {
        Ok(SlowdownEstimator {
            filter: AdaptiveKalman::new(params)?,
            innovation_var: INNOVATION_VAR0,
        })
    }

    /// Feeds one observation: the measured execution time of the work that
    /// ran, and the profiled time of that same work.
    ///
    /// Returns the slowdown sample, or `None` when the observation is
    /// degenerate (no work executed) and was ignored.
    pub fn observe(&mut self, measured: Seconds, profiled: Seconds) -> Option<f64> {
        if !(measured.is_finite() && profiled.is_finite()) || profiled.get() <= 0.0 {
            return None;
        }
        let ratio = measured / profiled;
        if !(ratio.is_finite() && ratio > 0.0) {
            return None;
        }
        let innovation = ratio - self.filter.mean();
        // Winsorize at 3σ before accumulating: a single tail event (the
        // fat-tailed latency outliers of paper Fig. 4) must not inflate
        // the dispersion estimate for the next dozen inputs. Genuine
        // regime shifts still grow σ geometrically — the clamp window
        // widens each step — so reaction stays within a few inputs.
        let sigma_now = self.std_dev().max(1e-3);
        let w = innovation.clamp(-3.0 * sigma_now, 3.0 * sigma_now);
        self.innovation_var =
            INNOVATION_EWMA_BETA * self.innovation_var + (1.0 - INNOVATION_EWMA_BETA) * w * w;
        // Feed the realized dispersion back as the measurement noise: in
        // quiet phases this equals the paper's R; in noisy phases it
        // keeps the gain from chasing per-input jitter while the Q
        // adaptation still snaps the mean onto genuine regime changes.
        let r = self.filter.params().r.max(self.innovation_var);
        self.filter.update_with_noise(ratio, r);
        Some(ratio)
    }

    /// Current mean μ⁽ⁿ⁾ of ξ.
    pub fn mean(&self) -> f64 {
        self.filter.mean()
    }

    /// Current predictive standard deviation of ξ — the volatility
    /// signal: the wider of the filter's state deviation and the realized
    /// innovation dispersion.
    pub fn std_dev(&self) -> f64 {
        self.filter.variance().max(self.innovation_var).sqrt()
    }

    /// The distribution ξ ~ N(μ⁽ⁿ⁾, σ²) consumed by Eqs. 6, 7, 12.
    pub fn distribution(&self) -> Normal {
        Normal::new(self.filter.mean(), self.std_dev())
    }

    /// Number of observations consumed.
    pub fn observations(&self) -> u64 {
        self.filter.steps()
    }

    /// Resets to the initial state (new episode).
    pub fn reset(&mut self) {
        self.filter.reset();
        self.innovation_var = INNOVATION_VAR0;
    }

    /// Read-only access to the underlying filter (diagnostics).
    pub fn filter(&self) -> &AdaptiveKalman {
        &self.filter
    }
}

impl Default for SlowdownEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_nominal() {
        let s = SlowdownEstimator::new();
        assert_eq!(s.mean(), 1.0);
        assert!(s.std_dev() > 0.0);
        assert_eq!(s.observations(), 0);
    }

    #[test]
    fn tracks_contention_slowdown() {
        let mut s = SlowdownEstimator::new();
        // Environment is 1.5x slower than profiling, observed through
        // different models (different absolute latencies, same ratio).
        for i in 0..100 {
            let t_prof = Seconds(0.02 + (i % 5) as f64 * 0.03);
            let measured = t_prof * 1.5;
            let r = s.observe(measured, t_prof).unwrap();
            assert!((r - 1.5).abs() < 1e-12);
        }
        assert!((s.mean() - 1.5).abs() < 0.01);
    }

    #[test]
    fn ignores_degenerate_observations() {
        let mut s = SlowdownEstimator::new();
        assert!(s.observe(Seconds(0.1), Seconds(0.0)).is_none());
        assert!(s.observe(Seconds(f64::NAN), Seconds(0.1)).is_none());
        assert!(s.observe(Seconds(0.0), Seconds(0.1)).is_none());
        assert_eq!(s.observations(), 0);
    }

    #[test]
    fn variance_rises_when_environment_oscillates() {
        let mut s = SlowdownEstimator::new();
        for _ in 0..50 {
            s.observe(Seconds(0.1), Seconds(0.1));
        }
        let calm = s.std_dev();
        for i in 0..50 {
            let f = if i % 2 == 0 { 0.08 } else { 0.19 };
            s.observe(Seconds(f), Seconds(0.1));
        }
        assert!(s.std_dev() > calm, "volatility must raise σ");
    }

    #[test]
    fn distribution_reflects_state() {
        let mut s = SlowdownEstimator::new();
        s.observe(Seconds(0.15), Seconds(0.1));
        let d = s.distribution();
        assert!((d.mean() - s.mean()).abs() < 1e-15);
        assert!((d.std_dev() - s.std_dev()).abs() < 1e-15);
    }

    #[test]
    fn reset_clears_history() {
        let mut s = SlowdownEstimator::new();
        s.observe(Seconds(0.3), Seconds(0.1));
        s.reset();
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.observations(), 0);
    }
}
