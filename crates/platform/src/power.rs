//! Power-cap ranges and validated cap selection.
//!
//! The paper (§4) considers "a series of power settings within the feasible
//! range with 2.5 W interval on our test laptop and a 5 W interval on our
//! test CPU server and GPU platform. The number of power buckets is
//! configurable." [`CapRange`] is that series.

use crate::error::PowerError;
use alert_stats::units::Watts;
use serde::{Deserialize, Serialize};

/// An inclusive range of feasible power caps with a fixed step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapRange {
    min: Watts,
    max: Watts,
    step: Watts,
}

impl CapRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, inverted, or the step is not
    /// positive.
    pub fn new(min: Watts, max: Watts, step: Watts) -> Self {
        assert!(min.is_finite() && max.is_finite() && step.is_finite());
        assert!(min.get() > 0.0, "minimum cap must be positive");
        assert!(min <= max, "cap range inverted");
        assert!(step.get() > 0.0, "step must be positive");
        CapRange { min, max, step }
    }

    /// Lowest feasible cap.
    #[inline]
    pub fn min(&self) -> Watts {
        self.min
    }

    /// Highest feasible cap.
    #[inline]
    pub fn max(&self) -> Watts {
        self.max
    }

    /// Step between adjacent settings.
    #[inline]
    pub fn step(&self) -> Watts {
        self.step
    }

    /// Returns `true` if `cap` lies within the feasible range.
    pub fn contains(&self, cap: Watts) -> bool {
        cap >= self.min && cap <= self.max
    }

    /// Validates a cap, returning it unchanged if feasible.
    pub fn validate(&self, cap: Watts) -> Result<Watts, PowerError> {
        if !cap.is_finite() {
            return Err(PowerError::InvalidCap(cap.get()));
        }
        if !self.contains(cap) {
            return Err(PowerError::CapOutOfRange {
                requested: cap,
                min: self.min,
                max: self.max,
            });
        }
        Ok(cap)
    }

    /// Enumerates every setting from `min` to `max` inclusive.
    ///
    /// This is the candidate set P = {pⱼ} handed to the controller.
    ///
    /// # Examples
    ///
    /// ```
    /// use alert_platform::power::CapRange;
    /// use alert_stats::units::Watts;
    ///
    /// let r = CapRange::new(Watts(40.0), Watts(100.0), Watts(5.0));
    /// let settings = r.settings();
    /// assert_eq!(settings.len(), 13);
    /// assert_eq!(settings[0], Watts(40.0));
    /// assert_eq!(*settings.last().unwrap(), Watts(100.0));
    /// ```
    pub fn settings(&self) -> Vec<Watts> {
        let mut out = Vec::new();
        let mut k = 0u32;
        loop {
            let cap = self.min + self.step * f64::from(k);
            if cap > self.max + self.step * 1e-9 {
                break;
            }
            out.push(cap.min(self.max));
            k += 1;
            if k > 100_000 {
                // Defensive bound; a cap range with 100k buckets is a bug.
                break;
            }
        }
        // Ensure the max is present even when (max-min) is not a multiple
        // of step.
        if let Some(&last) = out.last() {
            if (self.max - last).get() > 1e-9 {
                out.push(self.max);
            }
        }
        out
    }

    /// Enumerates settings with an explicit step (the paper's Fig. 3 sweep
    /// uses 2 W over the same feasible range).
    pub fn settings_with_step(&self, step: Watts) -> Vec<Watts> {
        CapRange::new(self.min, self.max, step).settings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu1() -> CapRange {
        CapRange::new(Watts(10.0), Watts(45.0), Watts(2.5))
    }

    #[test]
    fn settings_enumeration_counts() {
        assert_eq!(cpu1().settings().len(), 15);
        let cpu2 = CapRange::new(Watts(40.0), Watts(100.0), Watts(5.0));
        assert_eq!(cpu2.settings().len(), 13);
        // Paper Fig. 3: 31 settings at 2 W over 40–100 W.
        assert_eq!(cpu2.settings_with_step(Watts(2.0)).len(), 31);
    }

    #[test]
    fn settings_cover_extremes() {
        let s = cpu1().settings();
        assert_eq!(s[0], Watts(10.0));
        assert_eq!(*s.last().unwrap(), Watts(45.0));
        for w in s.windows(2) {
            assert!((w[1] - w[0]).get() > 0.0);
        }
    }

    #[test]
    fn non_multiple_range_still_includes_max() {
        let r = CapRange::new(Watts(10.0), Watts(14.0), Watts(3.0));
        let s = r.settings();
        assert_eq!(s, vec![Watts(10.0), Watts(13.0), Watts(14.0)]);
    }

    #[test]
    fn validate_accepts_and_rejects() {
        let r = cpu1();
        assert!(r.validate(Watts(20.0)).is_ok());
        assert!(matches!(
            r.validate(Watts(9.0)),
            Err(PowerError::CapOutOfRange { .. })
        ));
        assert!(matches!(
            r.validate(Watts(f64::NAN)),
            Err(PowerError::InvalidCap(_))
        ));
    }

    #[test]
    #[should_panic(expected = "cap range inverted")]
    fn rejects_inverted_range() {
        let _ = CapRange::new(Watts(50.0), Watts(40.0), Watts(5.0));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rejects_zero_step() {
        let _ = CapRange::new(Watts(40.0), Watts(50.0), Watts(0.0));
    }
}
