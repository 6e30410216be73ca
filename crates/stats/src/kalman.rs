//! Scalar Kalman filters used by the ALERT controller.
//!
//! Three filters live here:
//!
//! * [`AdaptiveKalman`] — the paper's Eq. 5: a scalar Kalman filter whose
//!   process-noise covariance `Q` is re-estimated online from the innovation
//!   sequence with a forgetting factor (after Akhlaghi, Zhou & Huang, 2017).
//!   ALERT uses it to track the *global slowdown factor* ξ and — novelly —
//!   consumes not just the mean but also the variance as a volatility
//!   signal.
//! * [`IdlePowerFilter`] — the paper's Eq. 8: a fixed-gain-schedule filter
//!   tracking the DNN-idle power ratio φ.
//! * [`ScalarKalman`] — the textbook constant-state filter, used by the
//!   `Sys-only` baseline (paper reference \[63\]) which predicts job latency
//!   directly rather than through a slowdown factor.
//!
//! All filters are purely scalar, allocation-free, and deterministic.

use crate::normal::Normal;
use serde::{Deserialize, Serialize};

/// Parameters of the adaptive filter, with the paper's defaults (§3.4).
///
/// The paper initializes `K⁽⁰⁾ = 0.5`, `R = 0.001`, `Q⁽⁰⁾ = 0.1`,
/// `μ⁽⁰⁾ = 1`, `(σ⁽⁰⁾)² = 0.1` and uses a forgetting factor `α = 0.3`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdaptiveKalmanParams {
    /// Forgetting factor α for the process-noise re-estimation.
    pub alpha: f64,
    /// Initial Kalman gain K⁽⁰⁾.
    pub k0: f64,
    /// Measurement noise R (constant).
    pub r: f64,
    /// Initial (and maximum) process noise Q⁽⁰⁾.
    ///
    /// Reproduction note: the paper's printed Eq. 5 reads `max{Q⁽⁰⁾, …}`,
    /// which would *floor* the re-estimated process noise at 0.1 and pin
    /// σ ≥ 0.316 forever — contradicting the surrounding prose ("process
    /// noise **capped** with Q⁽⁰⁾"), the §3.4 worked example (completion
    /// probabilities of 97–99.9% require a much tighter ξ), and the Fig. 9
    /// behaviour (ALERT picks the large traditional DNN in quiet phases,
    /// which only a small calm-phase variance permits). We therefore
    /// implement the cap (`min`): Q decays in calm phases and saturates at
    /// Q⁽⁰⁾ under volatility. §3.6 suggests raising Q⁽⁰⁾ to compensate for
    /// aberrant latency distributions.
    pub q0: f64,
    /// Lower bound on the re-estimated process noise.
    ///
    /// Keeps the gain from collapsing to zero after long perfectly-quiet
    /// stretches (with `Q → 0` the filter would freeze and the one-input
    /// reaction delay of §3.6 would stretch to many inputs). The default
    /// (`1e-6`) leaves the calm-phase σ under 1%, far below any real
    /// latency noise.
    pub q_min: f64,
    /// Initial state estimate μ⁽⁰⁾.
    pub mu0: f64,
    /// Initial variance (σ⁽⁰⁾)².
    pub var0: f64,
}

impl Default for AdaptiveKalmanParams {
    fn default() -> Self {
        AdaptiveKalmanParams {
            alpha: 0.3,
            k0: 0.5,
            r: 0.001,
            q0: 0.1,
            q_min: 1e-6,
            mu0: 1.0,
            var0: 0.1,
        }
    }
}

impl AdaptiveKalmanParams {
    /// Validates the parameter set.
    ///
    /// Returns a human-readable description of the first problem found, or
    /// `Ok(())`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if !(0.0..1.0).contains(&self.k0) {
            return Err(format!("k0 must be in [0,1), got {}", self.k0));
        }
        if !(self.r.is_finite() && self.r > 0.0) {
            return Err(format!("r must be finite and positive, got {}", self.r));
        }
        if !(self.q0.is_finite() && self.q0 > 0.0) {
            return Err(format!("q0 must be finite and positive, got {}", self.q0));
        }
        if !(self.q_min > 0.0 && self.q_min <= self.q0) {
            return Err(format!(
                "q_min must be in (0, q0], got {} with q0 = {}",
                self.q_min, self.q0
            ));
        }
        if !(self.var0.is_finite() && self.var0 >= 0.0) {
            return Err(format!(
                "var0 must be finite and non-negative, got {}",
                self.var0
            ));
        }
        if !self.mu0.is_finite() {
            return Err("mu0 must be finite".to_string());
        }
        Ok(())
    }
}

/// The adaptive-process-noise Kalman filter of paper Eq. 5.
///
/// Per observation `x⁽ⁿ⁻¹⁾` (for ALERT: the ratio of observed latency to
/// profiled latency) the update is, literally:
///
/// ```text
/// y⁽ⁿ⁾   = x⁽ⁿ⁻¹⁾ − μ⁽ⁿ⁻¹⁾
/// Q⁽ⁿ⁾   = min{ Q⁽⁰⁾, α·Q⁽ⁿ⁻¹⁾ + (1−α)·(K⁽ⁿ⁻¹⁾·y⁽ⁿ⁻¹⁾)² }
/// K⁽ⁿ⁾   = ((1−K⁽ⁿ⁻¹⁾)·σ²⁽ⁿ⁻¹⁾ + Q⁽ⁿ⁾) / ((1−K⁽ⁿ⁻¹⁾)·σ²⁽ⁿ⁻¹⁾ + Q⁽ⁿ⁾ + R)
/// μ⁽ⁿ⁾   = μ⁽ⁿ⁻¹⁾ + K⁽ⁿ⁾·y⁽ⁿ⁾
/// σ²⁽ⁿ⁾  = (1−K⁽ⁿ⁻¹⁾)·σ²⁽ⁿ⁻¹⁾ + Q⁽ⁿ⁾
/// ```
///
/// Note three deliberate quirks preserved from the paper: `Q⁽ⁿ⁾` uses the
/// *previous* innovation `y⁽ⁿ⁻¹⁾` (we seed `y⁽⁰⁾ = 0`), so the filter
/// reacts to a step change with exactly one input of delay (§3.6 "it
/// requires at least one input to react to sudden changes"); `σ²⁽ⁿ⁾` uses
/// the *previous* gain, which makes `σ²⁽ⁿ⁾` the prior variance appearing in
/// the numerator of `K⁽ⁿ⁾`; and Q is **capped** (not floored) at `Q⁽⁰⁾` —
/// see [`AdaptiveKalmanParams::q0`] for why the printed `max` must be a
/// typo for the prose's "capped".
///
/// # Examples
///
/// ```
/// use alert_stats::kalman::AdaptiveKalman;
///
/// let mut f = AdaptiveKalman::with_defaults();
/// for _ in 0..200 {
///     f.update(1.4); // environment is steadily 1.4x slower than profile
/// }
/// assert!((f.mean() - 1.4).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveKalman {
    params: AdaptiveKalmanParams,
    mu: f64,
    var: f64,
    gain: f64,
    q: f64,
    prev_innovation: f64,
    steps: u64,
}

impl AdaptiveKalman {
    /// Creates a filter from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns the first problem found by
    /// [`AdaptiveKalmanParams::validate`] — parameters typically arrive
    /// from user configuration (`RunSpec` files), so invalid values are a
    /// runtime condition, not a programming error.
    pub fn new(params: AdaptiveKalmanParams) -> Result<Self, String> {
        params
            .validate()
            .map_err(|e| format!("invalid AdaptiveKalmanParams: {e}"))?;
        Ok(AdaptiveKalman {
            params,
            mu: params.mu0,
            var: params.var0,
            gain: params.k0,
            q: params.q0,
            prev_innovation: 0.0,
            steps: 0,
        })
    }

    /// Creates a filter with the paper's default constants.
    pub fn with_defaults() -> Self {
        // lint:allow(no-panic): paper-default constants are compile-time fixed and covered by tests; failure is unreachable
        Self::new(AdaptiveKalmanParams::default()).expect("paper defaults are valid")
    }

    /// Feeds one observation and returns the updated mean.
    ///
    /// Non-finite observations are ignored (the filter state is unchanged);
    /// this mirrors ALERT dropping corrupted measurements rather than
    /// poisoning the estimate.
    pub fn update(&mut self, observation: f64) -> f64 {
        self.update_with_noise(observation, self.params.r)
    }

    /// [`AdaptiveKalman::update`] with an explicit measurement-noise
    /// variance for this step.
    ///
    /// The Akhlaghi method the paper builds on adapts *both* noise
    /// covariances; the paper's Eq. 5 spells out only the Q adaptation
    /// with a constant `R = 0.001` (σ ≈ 3%), which is calibrated for its
    /// quiet-environment measurement noise. Callers that track the
    /// realized observation dispersion (see `alert-core`'s
    /// `SlowdownEstimator`) can pass it here so the gain settles correctly
    /// when per-input noise is much larger than 3% (contended
    /// environments) instead of chasing every sample.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive.
    pub fn update_with_noise(&mut self, observation: f64, r: f64) -> f64 {
        assert!(r > 0.0, "measurement noise must be positive");
        if !observation.is_finite() {
            return self.mu;
        }
        let p = &self.params;
        let y = observation - self.mu;
        let q = (p.alpha * self.q + (1.0 - p.alpha) * (self.gain * self.prev_innovation).powi(2))
            .clamp(p.q_min, p.q0);
        let prior_var = (1.0 - self.gain) * self.var + q;
        let gain = prior_var / (prior_var + r);
        self.mu += gain * y;
        self.var = prior_var;
        self.q = q;
        self.gain = gain;
        self.prev_innovation = y;
        self.steps += 1;
        self.mu
    }

    /// Current state estimate μ⁽ⁿ⁾.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Current variance estimate σ²⁽ⁿ⁾.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Current standard deviation σ⁽ⁿ⁾.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Current Kalman gain K⁽ⁿ⁾.
    #[inline]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Current process noise estimate Q⁽ⁿ⁾.
    #[inline]
    pub fn process_noise(&self) -> f64 {
        self.q
    }

    /// Number of observations consumed.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The filter's state as a [`Normal`] distribution `N(μ, σ²)`.
    ///
    /// This is the random-variable view of ξ that ALERT's probabilistic
    /// estimators consume (Eqs. 6, 7, 12).
    pub fn distribution(&self) -> Normal {
        Normal::new(self.mu, self.var.sqrt())
    }

    /// The parameters this filter was built with.
    pub fn params(&self) -> &AdaptiveKalmanParams {
        &self.params
    }

    /// Resets the filter to its initial state.
    pub fn reset(&mut self) {
        // lint:allow(no-panic): params already passed new()'s validation when this filter was built
        *self = AdaptiveKalman::new(self.params).expect("params were validated at construction");
    }
}

/// The DNN-idle power ratio filter of paper Eq. 8.
///
/// Tracks φ, the ratio between system power while the inference pipeline is
/// idle (other co-located work may still be running) and the active power
/// cap. The gain schedule is deterministic:
///
/// ```text
/// W⁽ⁿ⁾ = (M⁽ⁿ⁻¹⁾ + S) / (M⁽ⁿ⁻¹⁾ + S + V)
/// M⁽ⁿ⁾ = (1 − W⁽ⁿ⁾)(M⁽ⁿ⁻¹⁾ + S)
/// φ⁽ⁿ⁾ = φ⁽ⁿ⁻¹⁾ + W⁽ⁿ⁾·(p_idle/p⁽ⁿ⁻¹⁾ − φ⁽ⁿ⁻¹⁾)
/// ```
///
/// with the paper's constants `M⁽⁰⁾ = 0.01`, `S = 0.0001`, `V = 0.001`.
/// `S` and `V` are constants, not state: a snapshot carries only φ, M
/// and the step count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdlePowerFilter {
    phi: f64,
    m: f64,
    steps: u64,
}

impl Default for IdlePowerFilter {
    fn default() -> Self {
        Self::new(0.5)
    }
}

impl IdlePowerFilter {
    /// Paper constant `M⁽⁰⁾`.
    pub const M0: f64 = 0.01;
    /// Paper constant `S` (process noise).
    pub const S: f64 = 0.0001;
    /// Paper constant `V` (measurement noise).
    pub const V: f64 = 0.001;

    /// Creates the filter with an initial ratio estimate `phi0`.
    ///
    /// # Panics
    ///
    /// Panics if `phi0` is not finite or not within `[0, 1]` — an idle power
    /// ratio outside that range is physically meaningless.
    pub fn new(phi0: f64) -> Self {
        assert!(
            phi0.is_finite() && (0.0..=1.0).contains(&phi0),
            "phi0 must be a ratio in [0,1], got {phi0}"
        );
        IdlePowerFilter {
            phi: phi0,
            m: Self::M0,
            steps: 0,
        }
    }

    /// Feeds one observed ratio `p_idle / p_cap` and returns the new φ.
    ///
    /// Observations are clamped into `[0, 1]`; non-finite observations are
    /// ignored.
    pub fn update(&mut self, observed_ratio: f64) -> f64 {
        if !observed_ratio.is_finite() {
            return self.phi;
        }
        let z = observed_ratio.clamp(0.0, 1.0);
        let w = (self.m + Self::S) / (self.m + Self::S + Self::V);
        self.m = (1.0 - w) * (self.m + Self::S);
        self.phi += w * (z - self.phi);
        self.steps += 1;
        self.phi
    }

    /// Current ratio estimate φ⁽ⁿ⁾.
    #[inline]
    pub fn ratio(&self) -> f64 {
        self.phi
    }

    /// Current error covariance M⁽ⁿ⁾.
    #[inline]
    pub fn covariance(&self) -> f64 {
        self.m
    }

    /// Number of observations consumed.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Checks that this state is one updates can reach: φ in `[0, 1]` and
    /// a finite, non-negative covariance. Any other state, restored from
    /// a checkpoint, can move the gain out of `[0, 1]` and φ with it.
    ///
    /// # Errors
    ///
    /// Describes the state when it is out of range.
    pub fn validate(&self) -> Result<(), String> {
        let reachable = (0.0..=1.0).contains(&self.phi) && self.m.is_finite() && self.m >= 0.0;
        if reachable {
            return Ok(());
        }
        Err(format!(
            "φ filter state (φ {}, M {}) is not reachable",
            self.phi, self.m
        ))
    }
}

/// A textbook scalar Kalman filter with a constant-state model.
///
/// Used by the `Sys-only` baseline (paper reference \[63\], POET/CALOREE
/// style) which filters raw job latency instead of a slowdown factor, and
/// handy as a comparison point in tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarKalman {
    x: f64,
    p: f64,
    q: f64,
    r: f64,
    steps: u64,
}

impl ScalarKalman {
    /// Creates a filter.
    ///
    /// * `x0` — initial state estimate,
    /// * `p0` — initial error covariance,
    /// * `q` — process noise (per step),
    /// * `r` — measurement noise.
    ///
    /// # Panics
    ///
    /// Panics if `p0`, `q` or `r` is negative, or `r == 0` (the update would
    /// divide by zero when `p` collapses).
    pub fn new(x0: f64, p0: f64, q: f64, r: f64) -> Self {
        assert!(p0 >= 0.0, "p0 must be non-negative");
        assert!(q >= 0.0, "q must be non-negative");
        assert!(r > 0.0, "r must be positive");
        ScalarKalman {
            x: x0,
            p: p0,
            q,
            r,
            steps: 0,
        }
    }

    /// Feeds one observation and returns the updated estimate.
    pub fn update(&mut self, z: f64) -> f64 {
        if !z.is_finite() {
            return self.x;
        }
        // Predict (constant-state model): x stays, covariance grows.
        let p_prior = self.p + self.q;
        // Update.
        let k = p_prior / (p_prior + self.r);
        self.x += k * (z - self.x);
        self.p = (1.0 - k) * p_prior;
        self.steps += 1;
        self.x
    }

    /// Current state estimate.
    #[inline]
    pub fn estimate(&self) -> f64 {
        self.x
    }

    /// Current error covariance.
    #[inline]
    pub fn covariance(&self) -> f64 {
        self.p
    }

    /// Number of observations consumed.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed first two steps with the paper's constants.
    #[test]
    fn adaptive_first_steps_match_hand_computation() {
        let mut f = AdaptiveKalman::with_defaults();
        // Step 1, observation 1.2:
        //   y1 = 1.2 - 1.0 = 0.2
        //   Q1 = min(0.1, 0.3*0.1 + 0.7*(0.5*0)^2) = min(0.1, 0.03) = 0.03
        //   prior = (1-0.5)*0.1 + 0.03 = 0.08
        //   K1 = 0.08/(0.08+0.001)
        //   mu1 = 1.0 + K1*0.2
        //   var1 = 0.08
        let q1 = 0.03_f64;
        let prior1 = 0.5 * 0.1 + q1;
        let k1 = prior1 / (prior1 + 0.001);
        let mu1 = 1.0 + k1 * 0.2;
        f.update(1.2);
        assert!((f.mean() - mu1).abs() < 1e-15);
        assert!((f.variance() - prior1).abs() < 1e-15);
        assert!((f.gain() - k1).abs() < 1e-15);
        assert!((f.process_noise() - q1).abs() < 1e-15);

        // Step 2, observation 1.3:
        //   y2 = 1.3 - mu1
        //   Q2 = min(0.1, 0.3*Q1 + 0.7*(K1*y1)^2)
        //   prior2 = (1-K1)*var1 + Q2
        //   K2 = prior2/(prior2+0.001)
        //   mu2 = mu1 + K2*y2
        let q2 = (0.3 * q1 + 0.7 * (k1 * 0.2) * (k1 * 0.2)).min(0.1);
        let prior2 = (1.0 - k1) * prior1 + q2;
        let k2 = prior2 / (prior2 + 0.001);
        let y2 = 1.3 - mu1;
        let mu2 = mu1 + k2 * y2;
        f.update(1.3);
        assert!(
            (f.mean() - mu2).abs() < 1e-15,
            "mean {} want {mu2}",
            f.mean()
        );
        assert!((f.variance() - prior2).abs() < 1e-15);
        assert!((f.process_noise() - q2).abs() < 1e-15);
    }

    #[test]
    fn adaptive_converges_on_constant_signal() {
        let mut f = AdaptiveKalman::with_defaults();
        for _ in 0..500 {
            f.update(1.4);
        }
        assert!((f.mean() - 1.4).abs() < 1e-6);
        // With zero innovations the process noise decays below its cap and
        // the variance collapses — the calm-environment behaviour that lets
        // ALERT run large traditional DNNs close to the deadline (Fig. 9).
        assert!(f.process_noise() < f.params().q0);
        assert!(f.variance() > 0.0);
        assert!(f.variance() < 0.01, "calm variance = {}", f.variance());
    }

    #[test]
    fn adaptive_variance_grows_under_volatility() {
        // Feed a calm stream, then an oscillating one; the re-estimated Q
        // (and hence σ²) must rise — this is the volatility signal ALERT
        // uses to become conservative (paper §3.4 example).
        let mut f = AdaptiveKalman::with_defaults();
        for _ in 0..100 {
            f.update(1.0);
        }
        let calm_var = f.variance();
        for i in 0..100 {
            f.update(if i % 2 == 0 { 0.6 } else { 1.8 });
        }
        let wild_var = f.variance();
        assert!(
            wild_var > calm_var * 1.5,
            "variance should grow: calm={calm_var} wild={wild_var}"
        );
    }

    #[test]
    fn adaptive_tracks_step_change_quickly() {
        let mut f = AdaptiveKalman::with_defaults();
        for _ in 0..100 {
            f.update(1.0);
        }
        // A sudden 1.8x slowdown (e.g. contention starts): the innovation
        // feeds Q with one input of delay (§3.6), after which the gain
        // self-amplifies; the mean must be close within a handful of
        // inputs (Fig. 9 shows recovery within a few inputs).
        for _ in 0..5 {
            f.update(1.8);
        }
        assert!(
            (f.mean() - 1.8).abs() < 0.15,
            "mean after 5 obs: {}",
            f.mean()
        );
    }

    #[test]
    fn adaptive_ignores_non_finite() {
        let mut f = AdaptiveKalman::with_defaults();
        f.update(1.5);
        let snapshot = f.clone();
        f.update(f64::NAN);
        f.update(f64::INFINITY);
        assert_eq!(f, snapshot);
    }

    #[test]
    fn adaptive_reset_restores_initial_state() {
        let mut f = AdaptiveKalman::with_defaults();
        for _ in 0..10 {
            f.update(2.0);
        }
        f.reset();
        assert_eq!(f.mean(), 1.0);
        assert_eq!(f.steps(), 0);
        assert_eq!(f.variance(), 0.1);
    }

    #[test]
    fn adaptive_distribution_matches_state() {
        let mut f = AdaptiveKalman::with_defaults();
        f.update(1.1);
        let d = f.distribution();
        assert_eq!(d.mean(), f.mean());
        assert!((d.variance() - f.variance()).abs() < 1e-15);
    }

    #[test]
    fn adaptive_rejects_bad_params() {
        let err = AdaptiveKalman::new(AdaptiveKalmanParams {
            r: -1.0,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("invalid AdaptiveKalmanParams"), "{err}");
        assert!(AdaptiveKalman::new(AdaptiveKalmanParams::default()).is_ok());
    }

    #[test]
    fn idle_filter_first_step_matches_hand_computation() {
        let mut f = IdlePowerFilter::new(0.5);
        // W1 = (0.01+0.0001)/(0.01+0.0001+0.001) = 0.0101/0.0111
        let w1 = 0.0101 / 0.0111;
        // phi1 = 0.5 + W1*(0.2-0.5)
        let phi1 = 0.5 + w1 * (0.2 - 0.5);
        f.update(0.2);
        assert!((f.ratio() - phi1).abs() < 1e-12);
        // M1 = (1-W1)*0.0101
        assert!((f.covariance() - (1.0 - w1) * 0.0101).abs() < 1e-12);
    }

    #[test]
    fn idle_filter_converges_to_constant_ratio() {
        let mut f = IdlePowerFilter::new(0.5);
        for _ in 0..300 {
            f.update(0.25);
        }
        assert!((f.ratio() - 0.25).abs() < 0.01);
    }

    #[test]
    fn idle_filter_clamps_out_of_range() {
        let mut f = IdlePowerFilter::new(0.5);
        for _ in 0..300 {
            f.update(7.0); // clamped to 1.0
        }
        assert!(f.ratio() <= 1.0);
        assert!((f.ratio() - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "phi0 must be a ratio")]
    fn idle_filter_rejects_bad_initial() {
        let _ = IdlePowerFilter::new(1.5);
    }

    #[test]
    fn scalar_kalman_converges_and_reduces_covariance() {
        let mut f = ScalarKalman::new(0.0, 1.0, 0.0001, 0.01);
        for _ in 0..200 {
            f.update(5.0);
        }
        assert!((f.estimate() - 5.0).abs() < 0.01);
        assert!(f.covariance() < 0.01);
    }

    #[test]
    fn scalar_kalman_gain_bounded() {
        let mut f = ScalarKalman::new(0.0, 1.0, 0.01, 0.1);
        for i in 0..100 {
            f.update(i as f64 % 3.0);
            assert!(f.covariance() > 0.0);
            assert!(f.covariance() < 1.1);
        }
    }

    #[test]
    #[should_panic(expected = "r must be positive")]
    fn scalar_kalman_rejects_zero_measurement_noise() {
        let _ = ScalarKalman::new(0.0, 1.0, 0.01, 0.0);
    }
}
