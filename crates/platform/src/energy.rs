//! Per-period energy accounting.
//!
//! For a periodic inference workload the energy that matters is the whole
//! period's: the joules burned while the DNN runs *plus* the joules burned
//! idling until the next input arrives (paper §2.1, Fig. 3; Eq. 9 models
//! exactly this split). [`PeriodEnergy`] holds both components.

use alert_stats::units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Energy of one input period, split into run and idle components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodEnergy {
    /// Energy while the inference executed.
    pub run: Joules,
    /// Energy while waiting for the next input.
    pub idle: Joules,
}

impl PeriodEnergy {
    /// Computes the period energy from draws and durations.
    ///
    /// If the inference overruns the period (`t_run >= period`), the idle
    /// component is zero.
    pub fn from_draws(run_draw: Watts, t_run: Seconds, idle_draw: Watts, period: Seconds) -> Self {
        let idle_time = Seconds((period - t_run).get().max(0.0));
        PeriodEnergy {
            run: run_draw * t_run,
            idle: idle_draw * idle_time,
        }
    }

    /// Total energy of the period.
    pub fn total(&self) -> Joules {
        self.run + self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_split() {
        let p = PeriodEnergy::from_draws(Watts(40.0), Seconds(0.5), Watts(10.0), Seconds(1.0));
        assert_eq!(p.run, Joules(20.0));
        assert_eq!(p.idle, Joules(5.0));
        assert_eq!(p.total(), Joules(25.0));
    }

    #[test]
    fn overrun_has_no_idle() {
        let p = PeriodEnergy::from_draws(Watts(40.0), Seconds(1.5), Watts(10.0), Seconds(1.0));
        assert_eq!(p.run, Joules(60.0));
        assert_eq!(p.idle, Joules(0.0));
    }

    #[test]
    fn energy_is_non_negative() {
        let p = PeriodEnergy::from_draws(Watts(40.0), Seconds(0.0), Watts(10.0), Seconds(0.0));
        assert!(p.total().get() >= 0.0);
    }
}
