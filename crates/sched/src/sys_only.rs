//! The Sys-only baseline (paper Table 3, §5.2; reference \[63\]).
//!
//! "Conducts adaptation only at the system level following an existing
//! resource-management system that minimizes energy under soft real-time
//! constraints \[63\] and uses the fastest candidate DNN to avoid latency
//! violations." The power controller is CALOREE/POET-style: a Kalman
//! filter tracks the ratio of the pinned model's observed latency to its
//! profile, predicted latencies select the minimum-energy cap that still
//! meets the deadline.
//!
//! Its failure mode is structural: pinned to the fastest (least accurate)
//! DNN, it cannot trade accuracy — it violates accuracy floors in the
//! minimize-energy task and leaves accuracy on the table in the
//! minimize-error task (§5.2: "introduces 34% more error").

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_models::inference::{self, StopPolicy};
use alert_models::{ModelFamily, ModelProfile};
use alert_platform::Platform;
use alert_stats::kalman::ScalarKalman;
use alert_stats::units::{Seconds, Watts};
use alert_workload::{Goal, Objective};

/// Sys-only: fastest traditional DNN + \[63\]-style power management.
pub struct SysOnly {
    device: usize,
    model: usize,
    profile: ModelProfile,
    caps: Vec<Watts>,
    /// Profiled latency per cap for the pinned model.
    t_prof: Vec<Seconds>,
    /// Measured run power per cap.
    p_run: Vec<Watts>,
    /// Latency-ratio filter (observed / profiled), per \[63\].
    filter: ScalarKalman,
    /// EWMA of measured idle power.
    idle_est: Watts,
    goal: Goal,
}

impl SysOnly {
    /// The fastest traditional model that fits `platform`, if any.
    fn pin(family: &ModelFamily, platform: &Platform) -> Option<(usize, ModelProfile)> {
        family
            .models()
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_anytime() && platform.supports_footprint(m.footprint_gb))
            .min_by(|(_, a), (_, b)| a.ref_latency_s.total_cmp(&b.ref_latency_s))
            .map(|(i, m)| (i, m.clone()))
    }

    fn assemble(
        device: usize,
        model: usize,
        profile: ModelProfile,
        platform: &Platform,
        goal: Goal,
    ) -> Self {
        let caps = platform.power_settings();
        let t_prof = caps
            .iter()
            // lint:allow(no-panic): caps come from the platform's own setting table, so every cap is feasible
            .map(|&c| inference::profile_latency(&profile, platform, c).expect("feasible"))
            .collect();
        let p_run = caps
            .iter()
            .map(|&c| inference::run_power(&profile, platform, c))
            .collect();
        SysOnly {
            device,
            model,
            profile,
            caps,
            t_prof,
            p_run,
            filter: ScalarKalman::new(1.0, 0.1, 0.01, 0.01),
            idle_est: platform.idle_draw(platform.default_cap(), None),
            goal,
        }
    }

    /// Creates the scheme on a node (`platforms[0]` is device 0): pins
    /// the (device, model) pair with the fastest profiled latency at each
    /// device's top cap — \[63\]'s "use the fastest candidate DNN" rule,
    /// over the traditional models that fit each device. Ties go to the
    /// lower device index. The placement is static; the \[63\]-style
    /// power controller then manages that one device's cap (system-level
    /// adaptation does not re-place work mid-stream).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when no traditional model
    /// fits any of the platforms.
    pub fn new(family: &ModelFamily, platforms: &[&Platform], goal: Goal) -> Result<Self, String> {
        let mut best: Option<(usize, usize, ModelProfile, Seconds)> = None;
        for (d, platform) in platforms.iter().enumerate() {
            let Some((model, profile)) = Self::pin(family, platform) else {
                continue;
            };
            let top = platform.cap_range().max();
            let t =
                inference::profile_latency(&profile, platform, top).map_err(|e| e.to_string())?;
            if best.as_ref().is_none_or(|&(_, _, _, bt)| t < bt) {
                best = Some((d, model, profile, t));
            }
        }
        let (device, model, profile, _) = best.ok_or_else(|| {
            format!(
                "Sys-only needs a traditional model of family {} that fits the node",
                family.name()
            )
        })?;
        Ok(Self::assemble(
            device,
            model,
            profile,
            platforms[device],
            goal,
        ))
    }

    /// The pinned model's family index.
    pub fn model(&self) -> usize {
        self.model
    }

    /// The pinned device.
    pub fn device(&self) -> usize {
        self.device
    }
}

impl Scheduler for SysOnly {
    fn name(&self) -> &str {
        "Sys-only"
    }

    fn sync_goal(&mut self, goal: &Goal) {
        // [63]-style controllers take requirement updates from the
        // runtime; the model stays pinned (that is the scheme's flaw).
        self.goal = *goal;
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let ratio = self.filter.estimate().max(0.1);
        let mut best: Option<(usize, f64)> = None; // (cap idx, energy)
        let mut fastest: usize = self.caps.len() - 1;
        let mut fastest_t = f64::INFINITY;
        for j in 0..self.caps.len() {
            let t_hat = self.t_prof[j].get() * ratio;
            if t_hat < fastest_t {
                fastest_t = t_hat;
                fastest = j;
            }
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
        let j = best.map(|(j, _)| j).unwrap_or(fastest);
        Decision {
            device: self.device,
            model: self.model,
            cap: self.caps[j],
            stop: StopPolicy::RunToCompletion,
        }
    }

    fn observe(&mut self, fb: &Feedback) {
        if let Some(r) = fb.result.observed_slowdown() {
            self.filter.update(r);
        }
        if let Some(p) = fb.idle_power {
            // Simple EWMA — [63] filters latency, not idle power.
            self.idle_est = Watts(0.8 * self.idle_est.get() + 0.2 * p.get());
        }
        let _ = &self.profile;
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
    fn pins_the_fastest_traditional_model() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(0.5), 0.9);
        let s = SysOnly::new(&family, &[&platform], goal).unwrap();
        assert_eq!(family.models()[s.model()].name, "sparse_resnet_8");
    }

    #[test]
    fn loose_deadline_lowers_power() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(2.0), 0.5);
        let mut s = SysOnly::new(&family, &[&platform], goal).unwrap();
        let relaxed = s.decide(&ctx(2.0));
        let mut s2 = SysOnly::new(&family, &[&platform], goal).unwrap();
        let tight = s2.decide(&ctx(0.05));
        assert!(
            relaxed.cap <= tight.cap,
            "loose deadline {} vs tight {}",
            relaxed.cap,
            tight.cap
        );
    }

    #[test]
    fn contention_pushes_power_up() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(0.08), 0.5);
        let mut s = SysOnly::new(&family, &[&platform], goal).unwrap();
        let before = s.decide(&ctx(0.08));
        // Feed slow observations: ratio 1.8.
        for _ in 0..20 {
            let result = inference::execute(
                &family.models()[s.model()],
                &platform,
                before.cap,
                1.8,
                StopPolicy::RunToCompletion,
            )
            .unwrap();
            s.observe(&Feedback {
                index: 0,
                decision: before,
                quality: 0.9,
                energy: Joules(1.0),
                idle_power: Some(Watts(5.0)),
                deadline: Seconds(0.08),
                result,
            });
        }
        let after = s.decide(&ctx(0.08));
        assert!(
            after.cap >= before.cap,
            "contention should not lower the cap: {} -> {}",
            before.cap,
            after.cap
        );
    }

    #[test]
    fn impossible_deadline_falls_back_to_fastest_cap() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = Goal::minimize_energy(Seconds(0.0001), 0.5);
        let mut s = SysOnly::new(&family, &[&platform], goal).unwrap();
        let d = s.decide(&ctx(0.0001));
        // Fastest profiled latency is at the max cap.
        assert_eq!(d.cap, Watts(45.0));
    }
}
