//! Scalar newtypes for physical quantities.
//!
//! ALERT juggles three quantities with incompatible units — latency in
//! seconds, power in watts, energy in joules — and converts between them
//! constantly (energy = power × time; Eq. 9 of the paper multiplies a power
//! cap by a predicted latency). A silent swap of two `f64` arguments is the
//! classic bug in this kind of code, so the public APIs of every crate in
//! the workspace trade in these newtypes instead of bare floats.
//!
//! The types are deliberately thin: `Copy`, zero-cost, with only the
//! physically meaningful arithmetic implemented. Dimensionless math inside
//! estimator kernels can always drop to `f64` via [`Seconds::get`] and
//! friends.
//!
//! # Examples
//!
//! ```
//! use alert_stats::units::{Joules, Seconds, Watts};
//!
//! let cap = Watts(45.0);
//! let latency = Seconds(0.080);
//! let energy: Joules = cap * latency;
//! assert!((energy.get() - 3.6).abs() < 1e-12);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw `f64` value.
            #[inline]
            pub fn get(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

scalar_unit!(
    /// A duration or latency in seconds.
    Seconds,
    "s"
);
scalar_unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);
scalar_unit!(
    /// Energy in joules.
    Joules,
    "J"
);

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy = power × time.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    /// Energy = time × power.
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power = energy / time.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Time = energy / power.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Seconds {
    /// Constructs a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_power_times_time() {
        let e = Watts(10.0) * Seconds(2.5);
        assert_eq!(e, Joules(25.0));
        let e2 = Seconds(2.5) * Watts(10.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn energy_divides_back() {
        let e = Joules(25.0);
        assert_eq!(e / Seconds(2.5), Watts(10.0));
        assert_eq!(e / Watts(10.0), Seconds(2.5));
    }

    #[test]
    fn like_ratio_is_dimensionless() {
        let ratio: f64 = Seconds(3.0) / Seconds(1.5);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn ordering_and_clamp() {
        assert!(Watts(3.0) < Watts(4.0));
        assert_eq!(Watts(5.0).clamp(Watts(1.0), Watts(4.0)), Watts(4.0));
        assert_eq!(Watts(0.5).clamp(Watts(1.0), Watts(4.0)), Watts(1.0));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Seconds(1.0).clamp(Seconds(2.0), Seconds(1.0));
    }

    #[test]
    fn from_millis_scales_to_seconds() {
        let s = Seconds::from_millis(125.0);
        assert!((s.get() - 0.125).abs() < 1e-15);
    }

    #[test]
    fn sum_of_units() {
        let total: Joules = [Joules(1.0), Joules(2.0), Joules(3.5)].into_iter().sum();
        assert_eq!(total, Joules(6.5));
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Watts(12.3456)), "12.35 W");
        assert_eq!(format!("{:.1}", Seconds(0.05)), "0.1 s");
    }

    #[test]
    fn scalar_arithmetic() {
        assert_eq!(Watts(10.0) * 2.0, Watts(20.0));
        assert_eq!(2.0 * Watts(10.0), Watts(20.0));
        assert_eq!(Joules(10.0) / 4.0, Joules(2.5));
        let mut x = Seconds(1.0);
        x += Seconds(0.5);
        x -= Seconds(0.25);
        assert_eq!(x, Seconds(1.25));
        assert_eq!(-x, Seconds(-1.25));
        assert_eq!((-x).abs(), x);
    }
}
