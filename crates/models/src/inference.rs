//! The per-input inference executor.
//!
//! Realizes one inference of a [`ModelProfile`] on a [`Platform`] at a
//! power cap, under an environment factor (the product of contention,
//! baseline noise, and input variability sampled by the harness). The
//! executor produces the realized latency, every anytime stage completion,
//! and the *profile-equivalent* time of the work performed — the
//! denominator of the slowdown observation ξ = t_observed / t_profile that
//! feeds ALERT's Kalman filter (paper Eq. 5).
//!
//! Stop policies model the paper's execution modes:
//!
//! * traditional DNNs run to completion (a missed deadline yields the
//!   random-guess fallback, Eq. 3, but the network still burns its time);
//! * anytime DNNs can be stopped at the deadline, taking the last
//!   completed output (App-only baseline, §3.5), or earlier, at a
//!   scheduler-chosen stage, which is how ALERT saves energy on anytime
//!   networks ("stopping the inference sometimes before the deadline",
//!   §3.5).

use crate::profile::ModelProfile;
use alert_platform::error::PowerError;
use alert_platform::platform::Platform;
use alert_stats::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// When to stop the inference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StopPolicy {
    /// Run the full network regardless of time.
    RunToCompletion,
    /// Hard-stop at an absolute time from inference start (anytime nets
    /// keep their last completed output; traditional nets lose everything).
    AtTime(Seconds),
    /// Stop once stage `k` (0-based) completes; later stages are skipped.
    AfterStage(usize),
    /// Stop at the earlier of the two: time bound or stage completion.
    AtTimeOrStage(Seconds, usize),
}

/// The outcome of one inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// Time actually spent executing (until completion or stop).
    pub latency: Seconds,
    /// What the full network would have taken in this environment.
    pub full_latency: Seconds,
    /// `(completion time, quality)` of every output produced before the
    /// stop, in order. Empty if nothing completed.
    pub stage_completions: Vec<(Seconds, f64)>,
    /// `true` if the final output was produced.
    pub ran_to_completion: bool,
    /// Profiled time of the work performed — pair with `latency` to form
    /// the slowdown observation ξ.
    pub profile_equivalent: Seconds,
}

impl InferenceResult {
    /// The observed global-slowdown sample `ξ = latency /
    /// profile_equivalent`, or `None` when no work was performed.
    pub fn observed_slowdown(&self) -> Option<f64> {
        if self.profile_equivalent.get() > 0.0 {
            Some(self.latency / self.profile_equivalent)
        } else {
            None
        }
    }

    /// Quality of the answer available at `deadline` (paper Eqs. 3/13):
    /// the best output completed by then, or `fail_quality`.
    pub fn quality_by(&self, deadline: Seconds, fail_quality: f64) -> f64 {
        let mut q = fail_quality;
        for &(t, stage_q) in &self.stage_completions {
            if t <= deadline {
                q = q.max(stage_q);
            } else {
                break;
            }
        }
        q
    }
}

/// Profiled latency of the full network on `platform` at `cap` — the
/// `t^prof_{i,j}` table entry (paper §3.3).
pub fn profile_latency(
    profile: &ModelProfile,
    platform: &Platform,
    cap: Watts,
) -> Result<Seconds, PowerError> {
    platform.profile_latency(
        Seconds(profile.ref_latency_s),
        profile.class,
        profile.rho,
        cap,
    )
}

/// The per-inference power actually drawn while running, as a fraction of
/// the platform's capped draw: small models do not saturate the package.
pub fn power_utilization(profile: &ModelProfile) -> f64 {
    0.65 + 0.35 * profile.rho
}

/// Power drawn while `profile` executes at `cap` on `platform` — the
/// `p_{i,j}` table entry.
pub fn run_power(profile: &ModelProfile, platform: &Platform, cap: Watts) -> Watts {
    platform.run_draw(cap) * power_utilization(profile)
}

/// Executes one inference.
///
/// `env_factor` multiplies every profiled duration; it bundles contention,
/// baseline noise, and input variability (all ≥ 0, sampled by the caller
/// so the executor stays deterministic).
///
/// # Panics
///
/// Panics if `env_factor` is not finite and positive, or if a stop policy
/// references an out-of-range stage.
pub fn execute(
    profile: &ModelProfile,
    platform: &Platform,
    cap: Watts,
    env_factor: f64,
    policy: StopPolicy,
) -> Result<InferenceResult, PowerError> {
    assert!(
        env_factor.is_finite() && env_factor > 0.0,
        "env_factor must be positive, got {env_factor}"
    );
    let t_prof_full = profile_latency(profile, platform, cap)?;
    let full = t_prof_full * env_factor;

    // Stage schedule: (realized completion time, quality).
    let schedule: Vec<(Seconds, f64)> = match &profile.anytime {
        None => vec![(full, profile.quality)],
        Some(spec) => spec
            .stages()
            .iter()
            .map(|s| (full * s.frac, s.quality))
            .collect(),
    };

    let stage_bound = |k: usize| -> Seconds {
        assert!(k < schedule.len(), "stop stage {k} out of range");
        schedule[k].0
    };
    let stop_at: Seconds = match policy {
        StopPolicy::RunToCompletion => full,
        StopPolicy::AtTime(t) => full.min(Seconds(t.get().max(0.0))),
        StopPolicy::AfterStage(k) => stage_bound(k),
        StopPolicy::AtTimeOrStage(t, k) => stage_bound(k).min(full.min(Seconds(t.get().max(0.0)))),
    };

    let stage_completions: Vec<(Seconds, f64)> = schedule
        .iter()
        .copied()
        .filter(|&(t, _)| t <= stop_at + Seconds(1e-15))
        .collect();
    let ran_to_completion = (stop_at - full).get().abs() < 1e-15 || stop_at >= full;

    // Profile-equivalent time of the executed fraction: timing the work we
    // actually did against its profiled cost, which is how a real harness
    // forms the slowdown sample even for early-stopped inferences.
    let executed_fraction = if full.get() > 0.0 {
        stop_at / full
    } else {
        0.0
    };
    let profile_equivalent = t_prof_full * executed_fraction;

    Ok(InferenceResult {
        latency: stop_at,
        full_latency: full,
        stage_completions,
        ran_to_completion,
        profile_equivalent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{depth_nest, sparse_resnet_family};
    use crate::zoo::resnet50;

    fn cpu2() -> Platform {
        Platform::cpu2()
    }

    #[test]
    fn traditional_run_to_completion() {
        let m = resnet50();
        let p = cpu2();
        let r = execute(&m, &p, Watts(100.0), 1.0, StopPolicy::RunToCompletion).unwrap();
        assert!(r.ran_to_completion);
        assert_eq!(r.stage_completions.len(), 1);
        assert!((r.latency.get() - m.ref_latency_s).abs() < 1e-12);
        assert!((r.observed_slowdown().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn env_factor_scales_latency_and_slowdown() {
        let m = resnet50();
        let p = cpu2();
        let r = execute(&m, &p, Watts(100.0), 1.37, StopPolicy::RunToCompletion).unwrap();
        assert!((r.latency.get() - m.ref_latency_s * 1.37).abs() < 1e-12);
        assert!((r.observed_slowdown().unwrap() - 1.37).abs() < 1e-12);
    }

    #[test]
    fn lower_cap_slows_execution() {
        let m = resnet50();
        let p = cpu2();
        let fast = execute(&m, &p, Watts(100.0), 1.0, StopPolicy::RunToCompletion).unwrap();
        let slow = execute(&m, &p, Watts(40.0), 1.0, StopPolicy::RunToCompletion).unwrap();
        assert!(slow.latency.get() > fast.latency.get() * 2.0);
        // Slowdown observation is still ~1: the cap is part of the profile.
        assert!((slow.observed_slowdown().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traditional_missing_deadline_fails() {
        let m = resnet50();
        let p = cpu2();
        let r = execute(&m, &p, Watts(100.0), 2.0, StopPolicy::RunToCompletion).unwrap();
        let deadline = Seconds(m.ref_latency_s * 1.5);
        assert_eq!(r.quality_by(deadline, m.fail_quality), m.fail_quality);
    }

    #[test]
    fn anytime_stops_at_deadline_with_partial_output() {
        let m = depth_nest();
        let p = cpu2();
        let full = profile_latency(&m, &p, Watts(100.0)).unwrap();
        // Stop at 70% of the full time: stages at 18%, 35%, 62% complete.
        let stop = full * 0.7;
        let r = execute(&m, &p, Watts(100.0), 1.0, StopPolicy::AtTime(stop)).unwrap();
        assert!(!r.ran_to_completion);
        assert_eq!(r.stage_completions.len(), 3);
        let q = r.quality_by(stop, m.fail_quality);
        assert!((q - 0.932).abs() < 1e-12);
        assert!((r.latency.get() - stop.get()).abs() < 1e-12);
    }

    #[test]
    fn anytime_stop_after_stage_skips_rest() {
        let m = depth_nest();
        let p = cpu2();
        let r = execute(&m, &p, Watts(100.0), 1.0, StopPolicy::AfterStage(1)).unwrap();
        assert_eq!(r.stage_completions.len(), 2);
        // Latency is the stage-1 completion time (35% of full).
        assert!((r.latency.get() - 0.35 * r.full_latency.get()).abs() < 1e-12);
        // Early stop keeps the slowdown observation unbiased.
        assert!((r.observed_slowdown().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn at_time_or_stage_takes_earlier() {
        let m = depth_nest();
        let p = cpu2();
        let full = profile_latency(&m, &p, Watts(100.0)).unwrap();
        // Time bound far beyond stage 1 completion: stage wins.
        let r = execute(
            &m,
            &p,
            Watts(100.0),
            1.0,
            StopPolicy::AtTimeOrStage(full, 1),
        )
        .unwrap();
        assert!((r.latency.get() - 0.35 * full.get()).abs() < 1e-12);
        // Time bound before stage 1: time wins.
        let r = execute(
            &m,
            &p,
            Watts(100.0),
            1.0,
            StopPolicy::AtTimeOrStage(full * 0.2, 1),
        )
        .unwrap();
        assert!((r.latency.get() - 0.2 * full.get()).abs() < 1e-12);
        assert_eq!(r.stage_completions.len(), 1);
    }

    #[test]
    fn stopping_traditional_early_loses_everything() {
        let m = resnet50();
        let p = cpu2();
        let r = execute(
            &m,
            &p,
            Watts(100.0),
            1.0,
            StopPolicy::AtTime(Seconds(m.ref_latency_s * 0.5)),
        )
        .unwrap();
        assert!(r.stage_completions.is_empty());
        // But the slowdown observation from partial work is still valid.
        assert!((r.observed_slowdown().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn family_profiles_are_monotone_in_cap() {
        let p = cpu2();
        for m in sparse_resnet_family() {
            let mut prev = f64::INFINITY;
            for cap in p.power_settings() {
                let t = profile_latency(&m, &p, cap).unwrap().get();
                assert!(t <= prev + 1e-12, "{}: latency rose with cap", m.name);
                prev = t;
            }
        }
    }

    #[test]
    fn run_power_scales_with_utilization() {
        let p = cpu2();
        let big = resnet50();
        let small = &sparse_resnet_family()[0];
        // Same rho here, so compare against a memory-bound model instead.
        let rnn = crate::zoo::rnn_ptb();
        let pw_big = run_power(&big, &p, Watts(80.0));
        let pw_rnn = run_power(&rnn, &p, Watts(80.0));
        assert!(pw_big > pw_rnn);
        assert!(pw_big <= Watts(80.0));
        let _ = small;
    }

    #[test]
    #[should_panic(expected = "env_factor must be positive")]
    fn rejects_bad_env_factor() {
        let _ = execute(
            &resnet50(),
            &cpu2(),
            Watts(100.0),
            0.0,
            StopPolicy::RunToCompletion,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_stop_stage() {
        let _ = execute(
            &depth_nest(),
            &cpu2(),
            Watts(100.0),
            1.0,
            StopPolicy::AfterStage(10),
        );
    }

    #[test]
    fn zero_time_stop_yields_no_slowdown_sample() {
        let r = execute(
            &resnet50(),
            &cpu2(),
            Watts(100.0),
            1.0,
            StopPolicy::AtTime(Seconds(0.0)),
        )
        .unwrap();
        assert!(r.observed_slowdown().is_none());
    }
}
