//! The App-only baseline (paper Table 3, §5.2).
//!
//! "Conducts adaptation only at the application level through an Anytime
//! DNN": the anytime network runs until the deadline at the *system
//! default* power setting (the maximum cap). Application-level adaptation
//! is implicit in the anytime staircase — whatever stage completes by the
//! deadline is delivered — but the system level never adapts, which is why
//! this scheme "consumes 73% more energy in energy-minimizing tasks" and
//! blows energy budgets under contention (§5.2).

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_models::inference::StopPolicy;
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_stats::units::Watts;

/// App-only: anytime DNN at the default (maximum) power setting.
pub struct AppOnly {
    model: usize,
    default_cap: Watts,
}

impl AppOnly {
    /// Creates the scheme around the family's first anytime model that
    /// fits `platform`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when no anytime model of the
    /// family fits the platform.
    pub fn new(family: &ModelFamily, platform: &Platform) -> Result<Self, String> {
        let model = family
            .models()
            .iter()
            .position(|m| m.is_anytime() && platform.supports_footprint(m.footprint_gb))
            .ok_or_else(|| {
                format!(
                    "App-only needs an anytime model of family {} that fits platform {}",
                    family.name(),
                    platform.id()
                )
            })?;
        Ok(AppOnly {
            model,
            default_cap: platform.default_cap(),
        })
    }
}

impl Scheduler for AppOnly {
    fn name(&self) -> &str {
        "App-only"
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        Decision {
            // App-level adaptation has no notion of the system's devices:
            // work stays on the primary platform, like the default cap
            // stays programmed.
            device: 0,
            model: self.model,
            cap: self.default_cap,
            // Keep refining until the deadline arrives (paper §3.5: "an
            // anytime DNN will keep running until the latency deadline
            // arrives and the last output will be delivered").
            stop: StopPolicy::AtTime(ctx.deadline),
        }
    }

    fn observe(&mut self, _feedback: &Feedback) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::Seconds;

    #[test]
    fn picks_anytime_at_max_cap() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let mut s = AppOnly::new(&family, &platform).unwrap();
        let d = s.decide(&InputContext {
            index: 0,
            deadline: Seconds(0.2),
            period: Seconds(0.2),
            group: None,
        });
        assert!(family.models()[d.model].is_anytime());
        assert_eq!(d.cap, Watts(45.0));
        assert_eq!(d.stop, StopPolicy::AtTime(Seconds(0.2)));
    }

    #[test]
    fn rejects_family_without_anytime() {
        let family = ModelFamily::image_classification()
            .restrict(alert_models::family::CandidateSet::TraditionalOnly);
        let err = AppOnly::new(&family, &Platform::cpu1()).err().unwrap();
        assert!(err.contains("needs an anytime model"), "{err}");
    }
}
