//! Property-based tests for the statistics substrate.

use alert_stats::hull::{above_hull, lower_convex_hull, Point2};
use alert_stats::kalman::{AdaptiveKalman, IdlePowerFilter, ScalarKalman};
use alert_stats::normal::{erf, inv_phi, phi, Normal};
use alert_stats::summary::{five_number, harmonic_mean, percentile, Welford};
use alert_stats::Histogram;
use proptest::prelude::*;

proptest! {
    #[test]
    fn phi_is_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(phi(lo) <= phi(hi) + 1e-15);
    }

    #[test]
    fn phi_symmetry(x in -8.0f64..8.0) {
        prop_assert!((phi(x) + phi(-x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erf_odd(x in -5.0f64..5.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
    }

    #[test]
    fn inv_phi_roundtrips(p in 1e-9f64..=0.999_999_999) {
        let x = inv_phi(p);
        prop_assert!(x.is_finite());
        prop_assert!((phi(x) - p).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_inverts_cdf(mu in -100.0f64..100.0, sigma in 1e-6f64..100.0, p in 0.001f64..0.999) {
        let n = Normal::new(mu, sigma);
        let x = n.quantile(p);
        prop_assert!((n.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn normal_sf_complements(mu in -10.0f64..10.0, sigma in 1e-3f64..10.0, x in -50.0f64..50.0) {
        let n = Normal::new(mu, sigma);
        prop_assert!((n.sf(x) + n.cdf(x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn adaptive_kalman_stays_finite(obs in proptest::collection::vec(0.01f64..100.0, 1..200)) {
        let mut f = AdaptiveKalman::with_defaults();
        for &o in &obs {
            f.update(o);
            prop_assert!(f.mean().is_finite());
            prop_assert!(f.variance() > 0.0);
            prop_assert!(f.gain() > 0.0 && f.gain() < 1.0);
        }
    }

    #[test]
    fn adaptive_kalman_converges_to_constant(c in 0.1f64..10.0) {
        let mut f = AdaptiveKalman::with_defaults();
        for _ in 0..400 {
            f.update(c);
        }
        prop_assert!((f.mean() - c).abs() < 1e-3 * c.max(1.0));
    }

    #[test]
    fn scalar_kalman_estimate_between_extremes(obs in proptest::collection::vec(-5.0f64..5.0, 1..100)) {
        let mut f = ScalarKalman::new(0.0, 1.0, 0.001, 0.01);
        for &o in &obs {
            f.update(o);
        }
        let lo = obs.iter().cloned().fold(f64::INFINITY, f64::min).min(0.0);
        let hi = obs.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
        prop_assert!(f.estimate() >= lo - 1e-9 && f.estimate() <= hi + 1e-9);
    }

    #[test]
    fn idle_filter_stays_in_unit_interval(obs in proptest::collection::vec(0.0f64..2.0, 1..200)) {
        let mut f = IdlePowerFilter::new(0.5);
        for &o in &obs {
            f.update(o);
            prop_assert!((0.0..=1.0).contains(&f.ratio()));
        }
    }

    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e3f64..1e3, 2..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6);
        prop_assert!((w.population_variance() - var).abs() < 1e-4);
    }

    #[test]
    fn percentile_bounded_by_extremes(xs in proptest::collection::vec(-1e3f64..1e3, 1..100), p in 0.0f64..=100.0) {
        let v = percentile(&xs, p).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn five_number_is_sorted(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let f = five_number(&xs).unwrap();
        prop_assert!(f.p10 <= f.p25 && f.p25 <= f.p50 && f.p50 <= f.p75 && f.p75 <= f.p90);
    }

    #[test]
    fn harmonic_le_arithmetic(xs in proptest::collection::vec(0.01f64..1e3, 1..50)) {
        let hm = harmonic_mean(&xs).unwrap();
        let am = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!(hm <= am + 1e-9);
        prop_assert!(hm > 0.0);
    }

    #[test]
    fn hull_members_below_all_points(
        coords in proptest::collection::vec((0.01f64..10.0, 0.01f64..10.0), 3..60)
    ) {
        let pts: Vec<Point2> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point2::new(x, y, i))
            .collect();
        let hull = lower_convex_hull(&pts);
        prop_assert!(!hull.is_empty());
        for &p in &pts {
            prop_assert!(above_hull(&hull, p, 1e-7));
        }
        // Hull x must be strictly increasing.
        for w in hull.windows(2) {
            prop_assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn histogram_conserves_count(xs in proptest::collection::vec(-10.0f64..10.0, 0..300)) {
        let mut h = Histogram::new(-5.0, 5.0, 10).unwrap();
        for &x in &xs {
            h.add(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
    }
}
