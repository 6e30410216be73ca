//! The episode harness: the per-input stepping engine and the one-shot
//! episode adapter.
//!
//! [`SessionEngine`] plays the role of the paper's runtime shell around
//! the scheduler for *one* stream: it computes effective deadlines
//! (shared sentence budgets), dispatches inputs, executes the chosen
//! configuration on the simulated platform, meters energy, measures idle
//! power, and accumulates the per-input records that the Table 4
//! accounting consumes. The engine is *resumable* — it advances one
//! input per [`SessionEngine::step`] call — which is what lets the
//! session runtime ([`crate::runtime`]) multiplex many concurrent
//! streams and checkpoint them mid-flight.
//!
//! [`run_episode`] is the original one-shot API, now a thin adapter:
//! drive a fresh engine to exhaustion and fold the records into an
//! [`Episode`]. Interleaved sessions and sequential episodes are
//! bit-identical by construction because both run exactly this code.
//! Both judge an episode against the goal its environment was realized
//! for ([`EpisodeEnv::goal`]) and take no goal of their own.

use crate::budget::BudgetTracker;
use crate::env::{EnvError, EpisodeEnv};
use crate::scheduler::{Feedback, InputContext, Scheduler};
use alert_models::ModelFamily;
use alert_stats::units::Seconds;
use alert_workload::{EpisodeSummary, InputRecord, InputStream};
use serde::{Deserialize, Serialize};

/// Errors surfaced by the stepping engine (the environment no-panic
/// path: a scheduler handing back a configuration the platform cannot
/// execute is reported, not unwrapped).
#[derive(Debug, Clone, PartialEq)]
pub enum StepError {
    /// The scheduler picked a model whose footprint the platform cannot
    /// host.
    ModelDoesNotFit {
        /// Scheme that made the decision.
        scheme: String,
        /// Model that does not fit.
        model: String,
        /// Platform it was dispatched to.
        platform: String,
    },
    /// The scheduler picked a model or device index the session does
    /// not have.
    OutOfRange {
        /// Scheme that made the decision.
        scheme: String,
        /// The decision's model index.
        model: usize,
        /// Models in the candidate family.
        models: usize,
        /// The decision's device index.
        device: usize,
        /// Devices in the episode's node.
        devices: usize,
    },
    /// The environment could not realize the decision (infeasible cap).
    Env(EnvError),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::ModelDoesNotFit {
                scheme,
                model,
                platform,
            } => write!(f, "{scheme}: model {model} does not fit {platform}"),
            StepError::OutOfRange {
                scheme,
                model,
                models,
                device,
                devices,
            } => write!(
                f,
                "{scheme}: decision (model {model}, device {device}) is outside the \
                 {models} models and {devices} device(s) of the session"
            ),
            StepError::Env(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StepError {}

impl From<EnvError> for StepError {
    fn from(e: EnvError) -> Self {
        StepError::Env(e)
    }
}

/// The outcome of one (scheduler, episode) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Episode {
    /// Scheme name.
    pub scheme: String,
    /// Per-input records, in order.
    pub records: Vec<InputRecord>,
    /// Aggregated summary (post-warm-up).
    pub summary: EpisodeSummary,
}

/// The resumable per-stream stepping engine: cursor, shared-deadline
/// budget, accumulated records and scheduler overhead.
///
/// All fields are serializable so a session can be checkpointed between
/// steps and resumed elsewhere (the scheduler's own state travels
/// separately, via [`Scheduler::controller_snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEngine {
    budget: BudgetTracker,
    records: Vec<InputRecord>,
    overhead: Seconds,
    cursor: usize,
}

impl SessionEngine {
    /// A fresh engine positioned before the first input.
    pub fn new() -> Self {
        SessionEngine {
            budget: BudgetTracker::new(),
            records: Vec::new(),
            overhead: Seconds::ZERO,
            cursor: 0,
        }
    }

    /// Index of the next input to dispatch.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// `true` once every input of `stream` has been processed.
    pub fn is_finished(&self, stream: &InputStream) -> bool {
        self.cursor >= stream.len()
    }

    /// The records accumulated so far.
    pub fn records(&self) -> &[InputRecord] {
        &self.records
    }

    /// Total scheduler overhead accumulated so far: the sum of the
    /// decision costs the scheduler charged (thread-CPU time, sampled
    /// outside `OverheadPolicy::Measured`; see
    /// [`Scheduler::last_decision_cost`]).
    pub fn overhead(&self) -> Seconds {
        self.overhead
    }

    /// The shared-deadline budget tracker (checkpoint validation: a
    /// session resumed mid-sentence must arrive with its group budget
    /// intact, see `Runtime::restore_session`).
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }

    /// Processes the next input of `stream` through `scheduler`: sync
    /// the scenario's effective goal → decide → execute on the frozen
    /// environment (with any scripted cap ceiling applied) → meter →
    /// observe. Returns a reference to the accumulated record (cloning
    /// is the caller's choice), or `Ok(None)` when the stream is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Fails when the scheduler picks a model or device index out of
    /// range, a model that does not fit the platform, or a cap the
    /// platform cannot program (scheduler bugs, reported instead of
    /// unwound). Such an error is **terminal for the session**: the
    /// scheduler was already consulted and the shared-deadline budget
    /// claimed for this input (only the cursor does not advance), so do
    /// not step the engine again — surface the error and close the
    /// session, as `Runtime::drain` does.
    pub fn step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        env: &EpisodeEnv,
        family: &ModelFamily,
        stream: &InputStream,
    ) -> Result<Option<&InputRecord>, StepError> {
        let i = self.cursor;
        let Some(input) = stream.inputs().get(i) else {
            return Ok(None);
        };

        // The requirement in force at this dispatch (base goal plus any
        // scripted goal changes) — synced every step so restored
        // checkpoints re-announce it deterministically.
        let goal = *env.goal_of(i);
        scheduler.sync_goal(&goal);

        let deadline = self.budget.next_deadline(goal.deadline, input.group);
        let ctx = InputContext {
            index: i,
            deadline,
            period: env.period(i),
            group: input.group,
        };
        let decision = scheduler.decide(&ctx);
        self.overhead += scheduler.last_decision_cost();

        // An open `Scheduler` may hand back any index: check both before
        // use instead of panicking on them.
        let (profile, device_platform) = family
            .models()
            .get(decision.model)
            .zip(env.node().get(decision.device))
            .ok_or_else(|| StepError::OutOfRange {
                scheme: scheduler.name().to_string(),
                model: decision.model,
                models: family.len(),
                device: decision.device,
                devices: env.node().len(),
            })?;
        if !device_platform.supports_footprint(profile.footprint_gb) {
            return Err(StepError::ModelDoesNotFit {
                scheme: scheduler.name().to_string(),
                model: profile.name.clone(),
                platform: device_platform.id().to_string(),
            });
        }
        // The environment silently clamps the cap to any scripted
        // ceiling; the scheduler keeps billing against the cap it
        // *requested* and experiences the throttle as slowdown (the
        // cap-change robustness axis, §5). Records likewise report the
        // programmed cap; energy metering uses the physical one. All
        // paths go through the decision's device (`0` for every
        // single-platform scheme, making this the historical code path).
        let result = env.realize_on(decision.device, i, profile, decision.cap, decision.stop)?;
        self.cursor += 1;
        let quality = result.quality_by(deadline, profile.fail_quality);
        let energy = env.period_energy_on(decision.device, i, profile, decision.cap, &result);
        let idle_power = if result.latency < env.period(i) {
            Some(env.idle_draw_on(decision.device, i, decision.cap))
        } else {
            None
        };

        self.records.push(InputRecord {
            index: i,
            device: decision.device,
            model: profile.name.clone(),
            cap: decision.cap,
            latency: result.latency,
            deadline,
            goal_deadline: goal.deadline,
            period: env.period(i),
            scale: env.realization(i).scale,
            min_quality: goal.min_quality,
            energy_budget: goal.energy_budget,
            quality,
            energy,
            slowdown: result.observed_slowdown(),
            contention_active: env.active(i),
            warmup: i < stream.warmup_len(),
        });

        let latency = result.latency;
        scheduler.observe(&Feedback {
            index: i,
            decision,
            quality,
            energy,
            idle_power,
            deadline,
            result,
        });
        self.budget.consume(latency);
        Ok(self.records.last())
    }

    /// Folds the accumulated records into an [`Episode`] judged against
    /// the goal `env` was realized for ([`EpisodeEnv::goal`]), consuming
    /// the engine (the records move, they are not cloned).
    pub fn finish(self, scheme: &str, env: &EpisodeEnv) -> Episode {
        let mut summary = EpisodeSummary::from_records(&self.records, env.goal());
        summary.overhead = self.overhead;
        Episode {
            scheme: scheme.to_string(),
            records: self.records,
            summary,
        }
    }
}

impl Default for SessionEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `scheduler` over the whole episode (the one-shot adapter over
/// [`SessionEngine`]) and judges it against `env`'s goal.
///
/// # Errors
///
/// Fails when the scheduler picks a model or cap the platform cannot
/// execute (see [`SessionEngine::step`]).
pub fn run_episode(
    scheduler: &mut dyn Scheduler,
    env: &EpisodeEnv,
    family: &ModelFamily,
    stream: &InputStream,
) -> Result<Episode, StepError> {
    let mut engine = SessionEngine::new();
    while engine.step(scheduler, env, family, stream)?.is_some() {}
    Ok(engine.finish(scheduler.name(), env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertScheduler;
    use crate::app_only::AppOnly;
    use crate::oracle::{Oracle, OracleStatic};
    use crate::sys_only::SysOnly;
    use alert_platform::Platform;
    use alert_stats::units::Joules;
    use alert_workload::{Goal, Scenario, TaskId};
    use std::sync::Arc;

    struct Fixture {
        env: Arc<EpisodeEnv>,
        family: ModelFamily,
        platform: Platform,
        stream: InputStream,
        goal: Goal,
    }

    fn fixture(goal: Goal, scenario: Scenario, n: usize) -> Fixture {
        let platform = Platform::cpu1();
        let family = ModelFamily::image_classification();
        let stream = InputStream::generate(TaskId::Img2, n, 5);
        let env = Arc::new(
            EpisodeEnv::build(
                std::slice::from_ref(&platform),
                &scenario,
                &stream,
                &goal,
                31,
                None,
            )
            .unwrap(),
        );
        Fixture {
            env,
            family,
            platform,
            stream,
            goal,
        }
    }

    #[test]
    fn alert_runs_clean_episode_default_env() {
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.90),
            Scenario::default_env(),
            200,
        );
        let mut s = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let ep = run_episode(&mut s, &f.env, &f.family, &f.stream).unwrap();
        assert_eq!(ep.records.len(), 200);
        assert_eq!(ep.summary.measured, 180);
        assert!(
            ep.summary.violation_rate() < 0.05,
            "violations: {}",
            ep.summary.violation_rate()
        );
        assert!(ep.summary.avg_quality >= 0.90 - 0.01);
    }

    #[test]
    fn alert_energy_between_oracle_and_app_only() {
        // The headline ordering of Fig. 7 on a single setting:
        // Oracle ≤ ALERT < App-only on energy.
        let f = fixture(
            Goal::minimize_energy(Seconds(0.4), 0.90),
            Scenario::default_env(),
            250,
        );
        let run = |s: &mut dyn Scheduler| {
            run_episode(s, &f.env, &f.family, &f.stream)
                .unwrap()
                .summary
                .avg_energy
                .get()
        };
        let mut alert = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let mut oracle = Oracle::new(f.env.clone(), f.family.clone()).unwrap();
        let mut app = AppOnly::new(&f.family, &f.platform).unwrap();
        let e_alert = run(&mut alert);
        let e_oracle = run(&mut oracle);
        let e_app = run(&mut app);
        assert!(
            e_oracle <= e_alert * 1.02,
            "oracle {e_oracle} vs alert {e_alert}"
        );
        assert!(
            e_app > e_alert * 1.2,
            "app-only {e_app} should waste energy vs alert {e_alert}"
        );
    }

    #[test]
    fn sys_only_violates_accuracy_floor() {
        // Accuracy floor above the fastest model's quality: Sys-only is
        // structurally unable to meet it.
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.93),
            Scenario::default_env(),
            150,
        );
        let mut sys = SysOnly::new(&f.family, std::slice::from_ref(&f.platform), f.goal).unwrap();
        let ep = run_episode(&mut sys, &f.env, &f.family, &f.stream).unwrap();
        assert!(
            ep.summary.disqualified(),
            "sys-only should violate the 0.93 floor with a 0.855 model"
        );
    }

    #[test]
    fn alert_tracks_contention_with_bounded_violations() {
        let f = fixture(
            Goal::minimize_error(Seconds(0.4), Joules(18.0)),
            Scenario::memory_env(9),
            300,
        );
        let mut s = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let ep = run_episode(&mut s, &f.env, &f.family, &f.stream).unwrap();
        assert!(
            ep.summary.violation_rate() <= 0.10,
            "violation rate {} too high under contention",
            ep.summary.violation_rate()
        );
    }

    #[test]
    fn oracle_static_is_a_valid_baseline() {
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.90),
            Scenario::default_env(),
            150,
        );
        let mut st = OracleStatic::new(f.env.clone(), f.family.clone(), &f.stream).unwrap();
        let ep = run_episode(&mut st, &f.env, &f.family, &f.stream).unwrap();
        assert!(!ep.summary.disqualified());
        // Static never changes its configuration.
        let first = (&ep.records[0].model, ep.records[0].cap);
        for r in &ep.records {
            assert_eq!((&r.model, r.cap), first);
        }
    }

    #[test]
    fn grouped_episode_respects_sentence_budgets() {
        let platform = Platform::cpu1();
        let family = ModelFamily::sentence_prediction();
        let stream = InputStream::generate(TaskId::Nlp1, 400, 5);
        let goal = Goal::minimize_error(Seconds(0.12), Joules(6.0));
        let env = Arc::new(
            EpisodeEnv::build(
                std::slice::from_ref(&platform),
                &Scenario::default_env(),
                &stream,
                &goal,
                31,
                None,
            )
            .unwrap(),
        );
        let mut s = AlertScheduler::standard(&family, &platform, goal).unwrap();
        let ep = run_episode(&mut s, &env, &family, &stream).unwrap();
        assert_eq!(ep.records.len(), 400);
        // Deadlines inside a sentence vary with consumption but stay
        // positive and bounded by a generous multiple of the base.
        for r in &ep.records {
            assert!(r.deadline.get() > 0.0);
            assert!(r.deadline.get() < 0.12 * 60.0);
        }
        assert!(
            ep.summary.violation_rate() < 0.10,
            "nlp violations: {}",
            ep.summary.violation_rate()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.90),
            Scenario::compute_env(17),
            120,
        );
        let run = || {
            let mut s = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
            run_episode(&mut s, &f.env, &f.family, &f.stream).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.model, y.model);
            assert_eq!(x.cap, y.cap);
            assert!((x.latency.get() - y.latency.get()).abs() < 1e-15);
            assert!((x.energy.get() - y.energy.get()).abs() < 1e-15);
        }
    }

    #[test]
    fn stepped_engine_matches_one_shot_run() {
        // The resumable engine and the one-shot adapter are the same code
        // path; spot-check the equivalence anyway.
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.90),
            Scenario::memory_env(4),
            100,
        );
        let mut one = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let ep = run_episode(&mut one, &f.env, &f.family, &f.stream).unwrap();

        let mut stepped = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let mut engine = SessionEngine::new();
        let mut n = 0;
        while let Some(r) = engine
            .step(&mut stepped, &f.env, &f.family, &f.stream)
            .unwrap()
        {
            assert_eq!(r.index, n);
            n += 1;
        }
        assert!(engine.is_finished(&f.stream));
        assert_eq!(n, 100);
        let ep2 = engine.finish(stepped.name(), &f.env);
        assert_eq!(ep.scheme, ep2.scheme);
        assert_eq!(ep.records, ep2.records);
        // The summaries agree on everything but the measured scheduler
        // overhead (which is nondeterministic by nature).
        assert_eq!(ep.summary.measured, ep2.summary.measured);
        assert_eq!(ep.summary.violations, ep2.summary.violations);
        assert_eq!(ep.summary.avg_energy, ep2.summary.avg_energy);
        assert_eq!(ep.summary.avg_quality, ep2.summary.avg_quality);
    }

    #[test]
    fn engine_step_past_end_is_none_and_stable() {
        let f = fixture(
            Goal::minimize_energy(Seconds(0.5), 0.90),
            Scenario::default_env(),
            10,
        );
        let mut s = AlertScheduler::standard(&f.family, &f.platform, f.goal).unwrap();
        let mut engine = SessionEngine::new();
        while engine
            .step(&mut s, &f.env, &f.family, &f.stream)
            .unwrap()
            .is_some()
        {}
        assert!(engine
            .step(&mut s, &f.env, &f.family, &f.stream)
            .unwrap()
            .is_none());
        assert_eq!(engine.cursor(), 10);
        assert_eq!(engine.records().len(), 10);
    }
}
