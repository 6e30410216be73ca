//! Streaming and batch descriptive statistics.
//!
//! The evaluation harness summarizes thousands of per-input records into the
//! paper's tables and boxplot figures. This module provides:
//!
//! * [`Welford`] — numerically stable streaming mean/variance,
//! * [`percentile`] — linear-interpolation percentile of a sorted slice,
//! * [`five_number`] — the 10/25/50/75/90 summary used by the paper's
//!   whisker plots (Figs. 4, 5: boxes at 25–75, whiskers at 10–90),
//! * [`harmonic_mean`] — the aggregate used in the bottom row of Table 4.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean and variance (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use alert_stats::summary::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns `true` if no observation has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample mean, or `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The population variance (divides by `n`), or `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation, or `+∞` when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `−∞` when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile (0–100) of a slice with linear interpolation between ranks.
///
/// The slice does not need to be sorted; a sorted copy is made internally.
/// Returns `None` for an empty slice or a non-finite/out-of-range `p`.
///
/// # Examples
///
/// ```
/// use alert_stats::summary::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !p.is_finite() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice (ascending). See [`percentile`].
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let n = sorted.len();
    if n == 1 {
        return sorted[0]; // lint:allow(no-panic): guarded by the non-empty assert above; panicking here is the documented contract
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The five-number summary used by the paper's latency boxplots
/// (Figs. 4 and 5): whiskers at the 10th/90th percentiles, box at the
/// 25th/75th, line at the median.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveNumber {
    /// 10th percentile (lower whisker).
    pub p10: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 90th percentile (upper whisker).
    pub p90: f64,
}

/// Computes the [`FiveNumber`] summary of a slice.
///
/// Returns `None` when the slice has no finite values.
pub fn five_number(xs: &[f64]) -> Option<FiveNumber> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    Some(FiveNumber {
        p10: percentile_sorted(&sorted, 10.0),
        p25: percentile_sorted(&sorted, 25.0),
        p50: percentile_sorted(&sorted, 50.0),
        p75: percentile_sorted(&sorted, 75.0),
        p90: percentile_sorted(&sorted, 90.0),
    })
}

impl FiveNumber {
    /// Inter-quartile range (box height).
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// Harmonic mean of strictly positive values, the aggregate of the paper's
/// Table 4 bottom row.
///
/// Returns `None` if the input is empty or contains a non-positive or
/// non-finite value (the harmonic mean is undefined there).
///
/// # Examples
///
/// ```
/// use alert_stats::summary::harmonic_mean;
/// let hm = harmonic_mean(&[1.0, 4.0, 4.0]).unwrap();
/// assert!((hm - 2.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for &x in xs {
        if !(x.is_finite() && x > 0.0) {
            return None;
        }
        sum += 1.0 / x;
    }
    Some(xs.len() as f64 / sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basics() {
        let mut w = Welford::new();
        assert!(w.is_empty());
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 5);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((w.population_variance() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 5.0);
    }

    #[test]
    fn welford_ignores_non_finite() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        w.push(3.0);
        assert_eq!(w.count(), 2);
        assert!((w.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        let snapshot = a;
        a.merge(&b);
        assert_eq!(a, snapshot);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 10.0), Some(14.0));
        assert_eq!(percentile(&xs, 90.0), Some(46.0));
    }

    #[test]
    fn percentile_handles_unsorted_and_bad_input() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, -1.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
    }

    #[test]
    fn five_number_ordering_invariant() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let f = five_number(&xs).unwrap();
        assert!(f.p10 <= f.p25);
        assert!(f.p25 <= f.p50);
        assert!(f.p50 <= f.p75);
        assert!(f.p75 <= f.p90);
        assert!(f.iqr() >= 0.0);
    }

    #[test]
    fn harmonic_mean_cases() {
        assert!(harmonic_mean(&[]).is_none());
        assert!(harmonic_mean(&[1.0, 0.0]).is_none());
        assert!(harmonic_mean(&[1.0, -2.0]).is_none());
        let hm = harmonic_mean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((hm - 2.0).abs() < 1e-12);
        // Harmonic mean is dominated by small values (why the paper uses it:
        // a scheme that does very well somewhere cannot hide a bad case).
        let hm = harmonic_mean(&[0.1, 10.0]).unwrap();
        assert!(hm < 0.2);
    }

    #[test]
    fn single_element_percentiles() {
        let f = five_number(&[42.0]).unwrap();
        assert_eq!(f.p10, 42.0);
        assert_eq!(f.p90, 42.0);
    }
}
