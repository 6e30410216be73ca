//! The No-coordination baseline (paper Table 3, §5.2).
//!
//! "Uses both the Anytime DNN for application-level adaptation and the
//! power-management scheme \[63\] to adapt power, but with these two working
//! independently." Each level keeps a private estimator and a private
//! world-model:
//!
//! * the **application** adapter picks the anytime *target stage* whose
//!   completion it predicts to fit the deadline — but its latency model
//!   assumes the *default power setting*, because it has no idea the
//!   system level exists;
//! * the **system** adapter picks the minimum-energy cap whose predicted
//!   latency fits the deadline — extrapolating from the *last observed
//!   latency*, with no idea which stage the application will target next.
//!   It is Sys-only's \[63\] power manager ([`crate::sys_only`]: the
//!   placement, cap grid, idle-power EWMA and cap search) with this
//!   predictor, falling back to the default cap when no cap qualifies.
//!
//! The two "can work at cross purposes; e.g., the application switches to
//! a faster DNN to save energy while the system makes more power
//! available" (§5.2) — the classic uncoordinated-controllers pathology
//! ALERT's joint selection exists to avoid.

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use crate::sys_only::PowerManager;
use alert_models::inference::StopPolicy;
use alert_models::{ModelFamily, ModelProfile};
use alert_platform::Platform;
use alert_stats::kalman::ScalarKalman;
use alert_workload::Goal;

/// No-coord: independent app-level and sys-level adaptation.
pub struct NoCoord {
    /// The sys level: Sys-only's \[63\] power manager.
    power: PowerManager,
    /// The pinned anytime model's profile (its stage table).
    profile: ModelProfile,
    /// App-level slowdown filter, *relative to the default-cap profile*.
    app_filter: ScalarKalman,
    /// Sys-level latency filter (absolute seconds of the last executions).
    sys_filter: ScalarKalman,
    /// Index of the default cap (the top setting) in the cap grid.
    default_idx: usize,
    /// Cap index chosen on the previous input (sys-level memory).
    last_cap_idx: usize,
    goal: Goal,
}

impl NoCoord {
    /// The family's first anytime model that fits `platform`, if any.
    fn pin(family: &ModelFamily, platform: &Platform) -> Option<(usize, ModelProfile)> {
        family
            .models()
            .iter()
            .enumerate()
            .find(|(_, m)| m.is_anytime() && platform.supports_footprint(m.footprint_gb))
            .map(|(i, m)| (i, m.clone()))
    }

    /// Creates the scheme on `node` (device 0 first): homes
    /// the family's first anytime model that fits on the device where its
    /// full run is fastest at that device's top cap (ties go to the lower
    /// device index). Like [`crate::sys_only::SysOnly::new`], the
    /// placement is static — neither uncoordinated level re-places work.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when no anytime model fits
    /// any of the platforms.
    pub fn new(family: &ModelFamily, node: &[Platform], goal: Goal) -> Result<Self, String> {
        let (power, profile) =
            PowerManager::place(node, |p| Self::pin(family, p))?.ok_or_else(|| {
                format!(
                    "No-coord needs an anytime model of family {} that fits the node",
                    family.name()
                )
            })?;
        let default_idx = power.caps.len() - 1;
        Ok(NoCoord {
            power,
            profile,
            app_filter: ScalarKalman::new(1.0, 0.1, 0.01, 0.01),
            sys_filter: ScalarKalman::new(0.0, 1.0, 0.01, 0.01),
            default_idx,
            last_cap_idx: default_idx,
            goal,
        })
    }

    /// The pinned device.
    pub fn device(&self) -> usize {
        self.power.device
    }
}

impl Scheduler for NoCoord {
    fn name(&self) -> &str {
        "No-coord"
    }

    fn sync_goal(&mut self, goal: &Goal) {
        // Both uncoordinated levels see the new requirement — their
        // pathology is coordination, not awareness.
        self.goal = *goal;
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let stages = self
            .profile
            .anytime
            .as_ref()
            // lint:allow(no-panic): new() selects an anytime member, so the profile always carries stages
            .expect("anytime model")
            .stages();
        let t_prof = &self.power.t_prof;

        // --- Application level: target the deepest stage whose completion
        // fits the deadline, predicted against the *default cap* profile.
        let app_ratio = self.app_filter.estimate().max(0.1);
        let t_full_default = t_prof[self.default_idx].get() * app_ratio;
        let mut target = 0usize;
        for (k, s) in stages.iter().enumerate() {
            if t_full_default * s.frac <= ctx.deadline.get() {
                target = k;
            }
        }

        // --- System level: pick the cheapest cap whose predicted latency
        // fits the deadline, extrapolating the last observed latency by
        // the profile's cap-to-cap ratios, with no knowledge of `target`.
        let last_t = self.sys_filter.estimate();
        let t_hat = |j: usize| {
            let scale = t_prof[j].get() / t_prof[self.last_cap_idx].get();
            if last_t > 0.0 {
                last_t * scale
            } else {
                t_prof[j].get()
            }
        };
        let j = self
            .power
            .min_energy_cap(ctx, &self.goal, t_hat)
            .unwrap_or(self.default_idx);
        self.last_cap_idx = j;
        self.power
            .decision(j, StopPolicy::AtTimeOrStage(ctx.deadline, target))
    }

    fn observe(&mut self, fb: &Feedback) {
        // App level: interprets latency relative to the *default-cap*
        // profile of the fraction it ran — cap effects masquerade as
        // environment slowdown (the miscoordination).
        if fb.result.profile_equivalent.get() > 0.0 {
            let t_prof = &self.power.t_prof;
            let frac_prof_default = t_prof[self.default_idx].get()
                * (fb.result.profile_equivalent.get() / t_prof[self.last_cap_idx].get());
            if frac_prof_default > 0.0 {
                self.app_filter
                    .update(fb.result.latency.get() / frac_prof_default);
            }
        }
        // Sys level: filters raw latency.
        self.sys_filter.update(fb.result.latency.get());
        self.power.observe_idle(fb.idle_power);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::{Joules, Seconds, Watts};

    fn ctx(deadline: f64) -> InputContext {
        InputContext {
            index: 0,
            deadline: Seconds(deadline),
            period: Seconds(deadline),
            group: None,
        }
    }

    #[test]
    fn uses_anytime_model() {
        let family = ModelFamily::image_classification();
        let goal = Goal::minimize_energy(Seconds(0.5), 0.9);
        let mut s = NoCoord::new(&family, &[Platform::cpu1()], goal).unwrap();
        let d = s.decide(&ctx(0.5));
        assert!(family.models()[d.model].is_anytime());
    }

    #[test]
    fn levels_fight_under_low_power() {
        // Once the sys level lowers the cap, execution slows; the app
        // level (blind to the cap) reads that as environmental slowdown
        // and cuts its stage target although time was available.
        let family = ModelFamily::image_classification();
        let node = [Platform::cpu1()];
        let goal = Goal::minimize_energy(Seconds(0.9), 0.9);
        let mut s = NoCoord::new(&family, &node, goal).unwrap();
        let mut stage_targets = Vec::new();
        let mut d = s.decide(&ctx(0.9));
        for i in 0..20 {
            let profile = &family.models()[d.model];
            // Environment at profile speed — any slowdown the app sees is
            // purely self-inflicted by the sys level's cap choice.
            let result =
                alert_models::inference::execute(profile, &node[0], d.cap, 1.0, d.stop).unwrap();
            if let StopPolicy::AtTimeOrStage(_, k) = d.stop {
                stage_targets.push(k);
            }
            s.observe(&Feedback {
                index: i,
                decision: d,
                quality: 0.9,
                energy: Joules(1.0),
                idle_power: Some(Watts(6.0)),
                deadline: Seconds(0.9),
                result,
            });
            d = s.decide(&ctx(0.9));
        }
        // The sys level dropped the cap below default at some point.
        // (Deadline 0.9 s is loose: plenty of room to save energy.)
        assert!(s.last_cap_idx < s.default_idx, "cap never dropped");
        // And the app level's perceived ratio drifted above 1 even though
        // the true environment factor was exactly 1.0 — the signature of
        // uncoordinated adaptation.
        assert!(
            s.app_filter.estimate() > 1.2,
            "app-level ratio: {}",
            s.app_filter.estimate()
        );
        let _ = stage_targets;
    }
}
