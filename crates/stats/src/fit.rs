//! Distribution fitting and goodness-of-fit.
//!
//! Paper Fig. 11 overlays the observed slowdown-factor samples with the
//! Gaussian that the Kalman filter assumes and notes that "no single
//! distribution fits all real-world scenarios and normal distribution is
//! the best fit we can find in practice" (§3.6). This module provides the
//! maximum-likelihood Gaussian fit and a Kolmogorov–Smirnov distance so the
//! reproduction can report *how* non-Gaussian each scenario is.

use crate::normal::Normal;
use serde::{Deserialize, Serialize};

/// A Gaussian fitted to samples by maximum likelihood.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianFit {
    /// Fitted mean.
    pub mu: f64,
    /// Fitted (population) standard deviation.
    pub sigma: f64,
    /// Number of samples used.
    pub n: usize,
}

impl GaussianFit {
    /// Fits a Gaussian to the finite values in `xs` by maximum likelihood
    /// (sample mean, population standard deviation).
    ///
    /// Returns `None` when fewer than two finite samples are available.
    pub fn fit(xs: &[f64]) -> Option<Self> {
        let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.len() < 2 {
            return None;
        }
        let n = finite.len() as f64;
        let mu = finite.iter().sum::<f64>() / n;
        let var = finite.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
        Some(GaussianFit {
            mu,
            sigma: var.sqrt(),
            n: finite.len(),
        })
    }

    /// The fitted distribution as a [`Normal`].
    pub fn distribution(&self) -> Normal {
        Normal::new(self.mu, self.sigma)
    }
}

/// The Kolmogorov–Smirnov statistic: the maximum absolute difference between
/// the empirical CDF of `xs` and a reference distribution's CDF.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KsStatistic {
    /// The KS distance `D = sup |F_emp − F_ref|` in `[0, 1]`.
    pub d: f64,
    /// Sample count.
    pub n: usize,
}

impl KsStatistic {
    /// Computes the KS distance between the samples and a normal
    /// distribution.
    ///
    /// Returns `None` when no finite samples exist.
    pub fn against_normal(xs: &[f64], dist: &Normal) -> Option<Self> {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut d: f64 = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            let f = dist.cdf(x);
            // Empirical CDF jumps from i/n to (i+1)/n at x; check both sides.
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((f - lo).abs()).max((f - hi).abs());
        }
        Some(KsStatistic { d, n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_parameters() {
        // Deterministic pseudo-Gaussian via inverse CDF of a uniform grid.
        let n = 10_000;
        let xs: Vec<f64> = (1..n)
            .map(|i| {
                let p = i as f64 / n as f64;
                3.0 + 0.5 * crate::normal::inv_phi(p)
            })
            .collect();
        let fit = GaussianFit::fit(&xs).unwrap();
        assert!((fit.mu - 3.0).abs() < 1e-3, "mu = {}", fit.mu);
        assert!((fit.sigma - 0.5).abs() < 1e-2, "sigma = {}", fit.sigma);
    }

    #[test]
    fn fit_requires_two_samples() {
        assert!(GaussianFit::fit(&[]).is_none());
        assert!(GaussianFit::fit(&[1.0]).is_none());
        assert!(GaussianFit::fit(&[1.0, f64::NAN]).is_none());
        assert!(GaussianFit::fit(&[1.0, 2.0]).is_some());
    }

    #[test]
    fn ks_small_for_matching_distribution() {
        let n = 2_000;
        let xs: Vec<f64> = (1..n)
            .map(|i| crate::normal::inv_phi(i as f64 / n as f64))
            .collect();
        let ks = KsStatistic::against_normal(&xs, &Normal::new(0.0, 1.0)).unwrap();
        assert!(ks.d < 0.01, "d = {}", ks.d);
    }

    #[test]
    fn ks_large_for_mismatched_distribution() {
        let xs: Vec<f64> = (0..1000).map(|i| 10.0 + i as f64 * 0.001).collect();
        let ks = KsStatistic::against_normal(&xs, &Normal::new(0.0, 1.0)).unwrap();
        assert!(ks.d > 0.9, "d = {}", ks.d);
    }

    #[test]
    fn ks_bounded() {
        let xs = [0.5, 1.5, -0.3, 0.0, 2.0];
        let ks = KsStatistic::against_normal(&xs, &Normal::new(0.0, 1.0)).unwrap();
        assert!(ks.d >= 0.0 && ks.d <= 1.0);
        assert_eq!(ks.n, 5);
    }
}
