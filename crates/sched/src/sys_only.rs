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
//! No-coord's system level ([`crate::no_coord`]) shares that \[63\]
//! machinery, `PowerManager`; Sys-only adds its pin rule, its latency
//! predictor and its fallback (the fastest predicted cap).
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

/// The \[63\] power manager of Sys-only and of No-coord's system level:
/// it places one pinned model statically, profiles the device's cap
/// grid for it, tracks idle power, and picks the minimum-energy cap per
/// input. Each scheme brings its pin rule, latency predictor and
/// fallback cap.
pub(crate) struct PowerManager {
    /// The device the pinned model runs on.
    pub(crate) device: usize,
    /// The pinned model's family index.
    pub(crate) model: usize,
    /// The device's power settings, ascending.
    pub(crate) caps: Vec<Watts>,
    /// Profiled latency per cap for the pinned model.
    pub(crate) t_prof: Vec<Seconds>,
    /// Run power per cap for the pinned model.
    p_run: Vec<Watts>,
    /// EWMA of measured idle power.
    idle_est: Watts,
}

impl PowerManager {
    /// Asks `pin` for the model to pin on each device of `node` (device
    /// 0 first) and places it on the device where it profiles fastest
    /// at that device's top cap; ties go to the lower device index.
    /// Returns the manager and the pinned model's profile, or `None`
    /// when `pin` picks nothing on any device. The placement is static:
    /// system-level adaptation does not re-place work mid-stream.
    ///
    /// # Errors
    ///
    /// A description of the problem when a pinned model fails to
    /// profile at its device's top cap.
    pub(crate) fn place(
        node: &[Platform],
        pin: impl Fn(&Platform) -> Option<(usize, ModelProfile)>,
    ) -> Result<Option<(Self, ModelProfile)>, String> {
        let mut best: Option<(usize, usize, ModelProfile, Seconds)> = None;
        for (d, platform) in node.iter().enumerate() {
            let Some((model, profile)) = pin(platform) else {
                continue;
            };
            let top = platform.cap_range().max();
            let t =
                inference::profile_latency(&profile, platform, top).map_err(|e| e.to_string())?;
            if best.as_ref().is_none_or(|&(_, _, _, bt)| t < bt) {
                best = Some((d, model, profile, t));
            }
        }
        let Some((device, model, profile, _)) = best else {
            return Ok(None);
        };
        let platform = &node[device];
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
        let manager = PowerManager {
            device,
            model,
            caps,
            t_prof,
            p_run,
            idle_est: platform.idle_draw(platform.default_cap(), None),
        };
        Ok(Some((manager, profile)))
    }

    /// The index of the minimum-energy cap whose predicted latency
    /// `t_hat(j)` meets the deadline and, under a minimize-error goal
    /// with a budget, whose predicted period energy fits the budget. The
    /// first minimum wins. `None` when no cap qualifies: the scheme then
    /// applies its fallback.
    pub(crate) fn min_energy_cap(
        &self,
        ctx: &InputContext,
        goal: &Goal,
        t_hat: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None; // (cap idx, energy)
        for j in 0..self.caps.len() {
            let t_hat = t_hat(j);
            if t_hat > ctx.deadline.get() {
                continue;
            }
            let idle = (ctx.period.get() - t_hat).max(0.0);
            let e =
                self.p_run[j].get() * t_hat + self.idle_est.get().min(self.caps[j].get()) * idle;
            if let Objective::MinimizeError = goal.objective {
                if let Some(budget) = goal.energy_budget {
                    if e > budget.get() {
                        continue;
                    }
                }
            }
            if best.is_none_or(|(_, cur)| e < cur) {
                best = Some((j, e));
            }
        }
        best.map(|(j, _)| j)
    }

    /// Runs the pinned model on the pinned device at cap `j`.
    pub(crate) fn decision(&self, j: usize, stop: StopPolicy) -> Decision {
        Decision {
            device: self.device,
            model: self.model,
            cap: self.caps[j],
            stop,
        }
    }

    /// Folds an idle-power measurement into a simple EWMA — \[63\]
    /// filters latency, not idle power.
    pub(crate) fn observe_idle(&mut self, idle_power: Option<Watts>) {
        if let Some(p) = idle_power {
            self.idle_est = Watts(0.8 * self.idle_est.get() + 0.2 * p.get());
        }
    }
}

/// Sys-only: fastest traditional DNN + \[63\]-style power management.
pub struct SysOnly {
    power: PowerManager,
    /// Latency-ratio filter (observed / profiled), per \[63\].
    filter: ScalarKalman,
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

    /// Creates the scheme on `node` (device 0 first): pins
    /// the fastest traditional model that fits each device — \[63\]'s
    /// "use the fastest candidate DNN" rule — and places it where it
    /// runs fastest (`PowerManager::place`); the \[63\]-style power
    /// controller then manages that one device's cap.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when no traditional model
    /// fits any of the platforms.
    pub fn new(family: &ModelFamily, node: &[Platform], goal: Goal) -> Result<Self, String> {
        let (power, _) = PowerManager::place(node, |p| Self::pin(family, p))?.ok_or_else(|| {
            format!(
                "Sys-only needs a traditional model of family {} that fits the node",
                family.name()
            )
        })?;
        Ok(SysOnly {
            power,
            filter: ScalarKalman::new(1.0, 0.1, 0.01, 0.01),
            goal,
        })
    }

    /// The pinned model's family index.
    pub fn model(&self) -> usize {
        self.power.model
    }

    /// The pinned device.
    pub fn device(&self) -> usize {
        self.power.device
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
        let t_hat = |j: usize| self.power.t_prof[j].get() * ratio;
        let j = self
            .power
            .min_energy_cap(ctx, &self.goal, t_hat)
            .unwrap_or_else(|| {
                // No cap qualifies: run at the fastest predicted one.
                let mut fastest = self.power.caps.len() - 1;
                let mut fastest_t = f64::INFINITY;
                for j in 0..self.power.caps.len() {
                    let t = t_hat(j);
                    if t < fastest_t {
                        fastest_t = t;
                        fastest = j;
                    }
                }
                fastest
            });
        self.power.decision(j, StopPolicy::RunToCompletion)
    }

    fn observe(&mut self, fb: &Feedback) {
        if let Some(r) = fb.result.observed_slowdown() {
            self.filter.update(r);
        }
        self.power.observe_idle(fb.idle_power);
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
        let goal = Goal::minimize_energy(Seconds(0.5), 0.9);
        let s = SysOnly::new(&family, &[Platform::cpu1()], goal).unwrap();
        assert_eq!(family.models()[s.model()].name, "sparse_resnet_8");
    }

    #[test]
    fn loose_deadline_lowers_power() {
        let family = ModelFamily::image_classification();
        let goal = Goal::minimize_energy(Seconds(2.0), 0.5);
        let mut s = SysOnly::new(&family, &[Platform::cpu1()], goal).unwrap();
        let relaxed = s.decide(&ctx(2.0));
        let mut s2 = SysOnly::new(&family, &[Platform::cpu1()], goal).unwrap();
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
        let node = [Platform::cpu1()];
        let goal = Goal::minimize_energy(Seconds(0.08), 0.5);
        let mut s = SysOnly::new(&family, &node, goal).unwrap();
        let before = s.decide(&ctx(0.08));
        // Feed slow observations: ratio 1.8.
        for _ in 0..20 {
            let result = inference::execute(
                &family.models()[s.model()],
                &node[0],
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
        let goal = Goal::minimize_energy(Seconds(0.0001), 0.5);
        let mut s = SysOnly::new(&family, &[Platform::cpu1()], goal).unwrap();
        let d = s.decide(&ctx(0.0001));
        // Fastest profiled latency is at the max cap.
        assert_eq!(d.cap, Watts(45.0));
    }
}
