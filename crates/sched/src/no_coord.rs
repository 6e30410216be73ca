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
//!
//! The two "can work at cross purposes; e.g., the application switches to
//! a faster DNN to save energy while the system makes more power
//! available" (§5.2) — the classic uncoordinated-controllers pathology
//! ALERT's joint selection exists to avoid.

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_models::inference::{self, StopPolicy};
use alert_models::{ModelFamily, ModelProfile};
use alert_platform::Platform;
use alert_stats::kalman::ScalarKalman;
use alert_stats::units::{Seconds, Watts};
use alert_workload::{Goal, Objective};

/// No-coord: independent app-level and sys-level adaptation.
pub struct NoCoord {
    device: usize,
    model: usize,
    profile: ModelProfile,
    caps: Vec<Watts>,
    t_prof: Vec<Seconds>,
    p_run: Vec<Watts>,
    /// App-level slowdown filter, *relative to the default-cap profile*.
    app_filter: ScalarKalman,
    /// Sys-level latency filter (absolute seconds of the last executions).
    sys_filter: ScalarKalman,
    /// Index of the default cap in `caps`.
    default_idx: usize,
    /// Cap index chosen on the previous input (sys-level memory).
    last_cap_idx: usize,
    idle_est: Watts,
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

    /// Creates the scheme around the family's anytime model.
    ///
    /// # Panics
    ///
    /// Panics if the family has no anytime model that fits the platform.
    pub fn new(family: &ModelFamily, platform: &Platform, goal: Goal) -> Self {
        let (model, profile) = Self::pin(family, platform)
            // lint:allow(no-panic): documented panic contract — a baseline without its required model is a setup error
            .expect("No-coord needs an anytime model that fits the platform");
        Self::assemble(0, model, profile, platform, goal)
    }

    /// Creates the scheme on a heterogeneous node: homes the anytime
    /// model on the device where its full run is fastest at that device's
    /// top cap. Like [`crate::sys_only::SysOnly::new_placed`], the
    /// placement is static — neither uncoordinated level re-places work.
    ///
    /// # Panics
    ///
    /// Panics if `platforms` is empty or no anytime model fits any of
    /// them.
    pub fn new_placed(family: &ModelFamily, platforms: &[&Platform], goal: Goal) -> Self {
        let mut best: Option<(usize, usize, ModelProfile, Seconds)> = None;
        for (d, platform) in platforms.iter().enumerate() {
            let Some((model, profile)) = Self::pin(family, platform) else {
                continue;
            };
            let top = platform.cap_range().max();
            let t = inference::profile_latency(&profile, platform, top)
                // lint:allow(no-panic): the top of the platform's own cap range is always feasible
                .expect("top cap feasible");
            if best.as_ref().is_none_or(|&(_, _, _, bt)| t < bt) {
                best = Some((d, model, profile, t));
            }
        }
        let (device, model, profile, _) = best
            // lint:allow(no-panic): documented panic contract — a baseline without its required model is a setup error
            .expect("No-coord needs an anytime model that fits a platform");
        Self::assemble(device, model, profile, platforms[device], goal)
    }

    /// The pinned device.
    pub fn device(&self) -> usize {
        self.device
    }

    fn assemble(
        device: usize,
        model: usize,
        profile: ModelProfile,
        platform: &Platform,
        goal: Goal,
    ) -> Self {
        let caps = platform.power_settings();
        let t_prof: Vec<Seconds> = caps
            .iter()
            // lint:allow(no-panic): caps come from the platform's own setting table, so every cap is feasible
            .map(|&c| inference::profile_latency(&profile, platform, c).expect("feasible"))
            .collect();
        let p_run = caps
            .iter()
            .map(|&c| inference::run_power(&profile, platform, c))
            .collect();
        let default_idx = caps.len() - 1;
        NoCoord {
            device,
            model,
            profile,
            caps,
            t_prof,
            p_run,
            app_filter: ScalarKalman::new(1.0, 0.1, 0.01, 0.01),
            sys_filter: ScalarKalman::new(0.0, 1.0, 0.01, 0.01),
            default_idx,
            last_cap_idx: default_idx,
            idle_est: platform.idle_draw(platform.default_cap(), None),
            goal,
        }
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

        // --- Application level: target the deepest stage whose completion
        // fits the deadline, predicted against the *default cap* profile.
        let app_ratio = self.app_filter.estimate().max(0.1);
        let t_full_default = self.t_prof[self.default_idx].get() * app_ratio;
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
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.caps.len() {
            let scale = self.t_prof[j].get() / self.t_prof[self.last_cap_idx].get();
            let t_hat = if last_t > 0.0 {
                last_t * scale
            } else {
                self.t_prof[j].get()
            };
            if t_hat > ctx.deadline.get() {
                continue;
            }
            let idle = (ctx.period.get() - t_hat).max(0.0);
            let e =
                self.p_run[j].get() * t_hat + self.idle_est.get().min(self.caps[j].get()) * idle;
            if let Objective::MinimizeError = self.goal.objective {
                if let Some(budget) = self.goal.energy_budget {
                    if e > budget.get() {
                        continue;
                    }
                }
            }
            if best.is_none_or(|(_, cur)| e < cur) {
                best = Some((j, e));
            }
        }
        let j = best.map(|(j, _)| j).unwrap_or(self.default_idx);
        self.last_cap_idx = j;

        Decision {
            device: self.device,
            model: self.model,
            cap: self.caps[j],
            stop: StopPolicy::AtTimeOrStage(ctx.deadline, target),
        }
    }

    fn observe(&mut self, fb: &Feedback) {
        // App level: interprets latency relative to the *default-cap*
        // profile of the fraction it ran — cap effects masquerade as
        // environment slowdown (the miscoordination).
        if fb.result.profile_equivalent.get() > 0.0 {
            let frac_prof_default = self.t_prof[self.default_idx].get()
                * (fb.result.profile_equivalent.get() / self.t_prof[self.last_cap_idx].get());
            if frac_prof_default > 0.0 {
                self.app_filter
                    .update(fb.result.latency.get() / frac_prof_default);
            }
        }
        // Sys level: filters raw latency.
        self.sys_filter.update(fb.result.latency.get());
        if let Some(p) = fb.idle_power {
            self.idle_est = Watts(0.8 * self.idle_est.get() + 0.2 * p.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::Joules;

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
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(0.5), 0.9);
        let mut s = NoCoord::new(&family, &platform, goal);
        let d = s.decide(&ctx(0.5));
        assert!(family.models()[d.model].is_anytime());
    }

    #[test]
    fn levels_fight_under_low_power() {
        // Once the sys level lowers the cap, execution slows; the app
        // level (blind to the cap) reads that as environmental slowdown
        // and cuts its stage target although time was available.
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(0.9), 0.9);
        let mut s = NoCoord::new(&family, &platform, goal);
        let mut stage_targets = Vec::new();
        let mut d = s.decide(&ctx(0.9));
        for i in 0..20 {
            let profile = &family.models()[d.model];
            // Environment at profile speed — any slowdown the app sees is
            // purely self-inflicted by the sys level's cap choice.
            let result =
                alert_models::inference::execute(profile, &platform, d.cap, 1.0, d.stop).unwrap();
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
