//! The Oracle and OracleStatic reference schemes (paper §5.1).
//!
//! Both are "impractical" by construction: they are built *with* the
//! frozen episode environment and therefore make perfect predictions for
//! every input under every DNN/power configuration.
//!
//! * [`Oracle`] re-optimizes per input — "allows DNN/power settings to
//!   change across inputs, representing the best possible results";
//! * [`OracleStatic`] exhaustively evaluates every configuration over the
//!   whole episode up front and pins the best one — "the best results
//!   without dynamic adaptation". It is the normalization baseline of
//!   Table 4.

use crate::budget::BudgetTracker;
use crate::env::{EnvError, EpisodeEnv};
use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_models::inference::StopPolicy;
use alert_models::{ModelFamily, ModelProfile};
use alert_stats::units::{Joules, Seconds, Watts};
use alert_workload::record::VIOLATION_DISQUALIFY_FRACTION;
use alert_workload::{Goal, InputStream, Objective};
use std::sync::Arc;

/// One executable configuration in oracle enumerations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleCandidate {
    /// Device the configuration runs on (episode device index).
    pub device: usize,
    /// Family model index.
    pub model: usize,
    /// Target stage for anytime models (`None` = traditional).
    pub stage: Option<usize>,
    /// Power cap.
    pub cap: Watts,
}

/// Enumerates every (device, model, stage, cap) configuration that fits
/// its device's platform. Device-major with device 0 first, so a
/// single-device episode enumerates in the historical order.
pub fn enumerate(family: &ModelFamily, env: &EpisodeEnv) -> Vec<OracleCandidate> {
    let mut out = Vec::new();
    for (device, platform) in env.node().iter().enumerate() {
        let caps = platform.power_settings();
        for (mi, m) in family.models().iter().enumerate() {
            if !platform.supports_footprint(m.footprint_gb) {
                continue;
            }
            let stages: Vec<Option<usize>> = match &m.anytime {
                None => vec![None],
                Some(spec) => (0..spec.len()).map(Some).collect(),
            };
            for stage in stages {
                for &cap in &caps {
                    out.push(OracleCandidate {
                        device,
                        model: mi,
                        stage,
                        cap,
                    });
                }
            }
        }
    }
    out
}

/// Realized outcome of one configuration on one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealizedOutcome {
    /// Delivered latency.
    pub latency: Seconds,
    /// Delivered quality at the deadline.
    pub quality: f64,
    /// Period energy.
    pub energy: Joules,
}

/// Evaluates one configuration on input `i` with the ground truth,
/// against the candidate's own device.
///
/// # Errors
///
/// Fails when the candidate's cap is infeasible for its device's
/// platform (never for candidates from [`enumerate`], whose caps are
/// that platform's own settings).
pub fn realize_candidate(
    env: &EpisodeEnv,
    profile: &ModelProfile,
    c: &OracleCandidate,
    i: usize,
    deadline: Seconds,
) -> Result<RealizedOutcome, EnvError> {
    let stop = match c.stage {
        None => StopPolicy::RunToCompletion,
        Some(k) => StopPolicy::AtTimeOrStage(deadline, k),
    };
    let result = env.realize_on(c.device, i, profile, c.cap, stop)?;
    let quality = result.quality_by(deadline, profile.fail_quality);
    let energy = env.period_energy_on(c.device, i, profile, c.cap, &result);
    Ok(RealizedOutcome {
        latency: result.latency,
        quality,
        energy,
    })
}

/// Whether an outcome satisfies the goal's constraints on this single
/// input. The per-input Oracle can (and does) enforce the quality floor
/// input-by-input since it has perfect foresight; the episode-level
/// accounting (matching [`alert_workload::EpisodeSummary`]) treats the
/// floor as an average target instead.
fn satisfies(o: &RealizedOutcome, goal: &Goal, deadline: Seconds) -> bool {
    if o.latency.get() > deadline.get() * (1.0 + 1e-9) {
        return false;
    }
    match goal.objective {
        // lint:allow(no-panic): Goal::validate requires the matching bound for this objective; schedulers only receive validated goals
        Objective::MinimizeEnergy => o.quality >= goal.min_quality.expect("validated") - 1e-12,
        // lint:allow(no-panic): Goal::validate requires the matching bound for this objective; schedulers only receive validated goals
        Objective::MinimizeError => o.energy <= goal.energy_budget.expect("validated"),
    }
}

/// Whether an outcome violates the *per-input* constraints (deadline,
/// energy budget) — the episode-accounting counterpart of [`satisfies`].
fn violates_per_input(o: &RealizedOutcome, goal: &Goal, deadline: Seconds) -> bool {
    if o.latency.get() > deadline.get() * (1.0 + 1e-9) {
        return true;
    }
    match goal.objective {
        Objective::MinimizeEnergy => false,
        // lint:allow(no-panic): Goal::validate requires the matching bound for this objective; schedulers only receive validated goals
        Objective::MinimizeError => o.energy > goal.energy_budget.expect("validated"),
    }
}

/// Objective scalar: smaller is better.
fn objective_key(o: &RealizedOutcome, goal: &Goal) -> f64 {
    match goal.objective {
        Objective::MinimizeEnergy => o.energy.get(),
        Objective::MinimizeError => -o.quality,
    }
}

/// The per-input perfect-knowledge oracle.
pub struct Oracle {
    env: Arc<EpisodeEnv>,
    family: ModelFamily,
    goal: Goal,
    candidates: Vec<OracleCandidate>,
}

/// The configurations of `family` that fit `env`'s devices, or a
/// description of the problem when none does.
fn candidates_on(family: &ModelFamily, env: &EpisodeEnv) -> Result<Vec<OracleCandidate>, String> {
    let candidates = enumerate(family, env);
    if candidates.is_empty() {
        return Err(format!(
            "no model of family {} fits the node's platforms",
            family.name()
        ));
    }
    Ok(candidates)
}

impl Oracle {
    /// Builds the oracle for one episode.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when no model of the family
    /// fits any of the episode's devices.
    pub fn new(env: Arc<EpisodeEnv>, family: ModelFamily, goal: Goal) -> Result<Self, String> {
        let candidates = candidates_on(&family, &env)?;
        Ok(Oracle {
            env,
            family,
            goal,
            candidates,
        })
    }

    fn pick(&self, i: usize, deadline: Seconds) -> (OracleCandidate, RealizedOutcome) {
        let mut best_valid: Option<(OracleCandidate, RealizedOutcome, f64)> = None;
        let mut best_deadline_only: Option<(OracleCandidate, RealizedOutcome)> = None;
        let mut best_any: Option<(OracleCandidate, RealizedOutcome)> = None;
        for &c in &self.candidates {
            let profile = &self.family.models()[c.model];
            // Enumerated caps are platform settings, so realization
            // cannot fail; skip defensively rather than panic.
            let Ok(o) = realize_candidate(&self.env, profile, &c, i, deadline) else {
                continue;
            };
            if satisfies(&o, &self.goal, deadline) {
                let key = objective_key(&o, &self.goal);
                if best_valid.as_ref().is_none_or(|&(_, _, k)| key < k) {
                    best_valid = Some((c, o, key));
                }
            }
            if o.latency.get() <= deadline.get() * (1.0 + 1e-9) {
                let better = best_deadline_only
                    .as_ref()
                    .is_none_or(|(_, cur)| o.quality > cur.quality);
                if better {
                    best_deadline_only = Some((c, o));
                }
            }
            let better = best_any
                .as_ref()
                .is_none_or(|(_, cur)| o.latency < cur.latency);
            if better {
                best_any = Some((c, o));
            }
        }
        if let Some((c, o, _)) = best_valid {
            (c, o)
        } else {
            best_deadline_only
                .or(best_any)
                // lint:allow(no-panic): new() refuses an empty candidate set, and enumerated caps are platform settings, so every candidate realizes and lands in best_any
                .expect("non-empty candidate set")
        }
    }
}

impl Scheduler for Oracle {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn sync_goal(&mut self, goal: &Goal) {
        // Perfect knowledge includes knowing the requirement in force.
        self.goal = *goal;
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let (c, _) = self.pick(ctx.index, ctx.deadline);
        let stop = match c.stage {
            None => StopPolicy::RunToCompletion,
            Some(k) => StopPolicy::AtTimeOrStage(ctx.deadline, k),
        };
        Decision {
            device: c.device,
            model: c.model,
            cap: c.cap,
            stop,
        }
    }

    fn observe(&mut self, _feedback: &Feedback) {
        // Perfect knowledge: nothing to learn.
    }
}

/// Episode-level score of one static configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticScore {
    /// Fraction of measured inputs violating the goal.
    pub violation_rate: f64,
    /// Mean objective key (smaller = better) over measured inputs.
    pub mean_objective: f64,
    /// Mean energy over measured inputs.
    pub mean_energy: Joules,
    /// Mean quality over measured inputs.
    pub mean_quality: f64,
}

/// Simulates one static configuration over the full episode.
pub fn score_static(
    env: &EpisodeEnv,
    family: &ModelFamily,
    stream: &InputStream,
    goal: &Goal,
    c: &OracleCandidate,
) -> StaticScore {
    let profile = &family.models()[c.model];
    let warmup = stream.warmup_len();
    let mut budget = BudgetTracker::new();
    let mut n = 0usize;
    let mut violations = 0usize;
    let mut sum_obj = 0.0;
    let mut sum_energy = 0.0;
    let mut sum_quality = 0.0;
    let mut floored_timely = 0usize;
    let mut sum_quality_floored = 0.0;
    let mut sum_floor = 0.0;
    for (i, input) in stream.inputs().iter().enumerate() {
        // Score under the requirement *in force at dispatch* — scripted
        // goal changes move deadlines/floors/budgets mid-stream, and the
        // harness run this selection is compared against uses exactly
        // these effective goals (`base` only covers unscripted inputs).
        let g = if i < env.len() { env.goal_of(i) } else { goal };
        let deadline = budget.next_deadline(g.deadline, input.group);
        // Enumerated caps are platform settings (see `Oracle::pick`).
        let Ok(o) = realize_candidate(env, profile, c, i, deadline) else {
            continue;
        };
        budget.consume(o.latency);
        if i < warmup {
            continue;
        }
        n += 1;
        if violates_per_input(&o, g, deadline) {
            violations += 1;
        }
        sum_obj += objective_key(&o, g);
        sum_energy += o.energy.get();
        sum_quality += o.quality;
        if o.latency.get() <= deadline.get() * (1.0 + 1e-9) {
            if let Some(floor) = g.min_quality {
                floored_timely += 1;
                sum_quality_floored += o.quality;
                sum_floor += floor;
            }
        }
    }
    let n_f = n.max(1) as f64;
    let mean_quality = sum_quality / n_f;
    let mut violation_rate = violations as f64 / n_f;
    // Accuracy floor over timely deliveries, against the average floor
    // in force (matches EpisodeSummary::disqualified): a failed floor
    // means full disqualification.
    if floored_timely > 0
        && sum_quality_floored / (floored_timely as f64)
            < sum_floor / (floored_timely as f64) - 1e-12
    {
        violation_rate = 1.0;
    }
    StaticScore {
        violation_rate,
        mean_objective: sum_obj / n_f,
        mean_energy: Joules(sum_energy / n_f),
        mean_quality,
    }
}

/// The best-static-configuration scheme (Table 4's normalization
/// baseline).
pub struct OracleStatic {
    choice: OracleCandidate,
    /// The winning configuration's episode score (diagnostics; for
    /// cell-level selection this is the score on the *first* setting;
    /// `None` when rebuilt from a bare choice).
    pub score: Option<StaticScore>,
}

impl OracleStatic {
    /// Exhaustively picks the best static configuration for one episode:
    /// the lowest mean objective among configurations within the 10%
    /// violation budget, else the lowest violation rate.
    ///
    /// # Errors
    ///
    /// See [`OracleStatic::for_cell`].
    pub fn new(
        env: Arc<EpisodeEnv>,
        family: ModelFamily,
        stream: &InputStream,
        goal: Goal,
    ) -> Result<Self, String> {
        Self::for_cell(&[(env, goal)], family, stream)
    }

    /// The paper's Table 4 baseline: "one fixed setting across inputs" —
    /// and across the cell's whole *requirement range*. One configuration
    /// is pinned for all 35 constraint settings of a cell; it can adapt
    /// neither to the environment nor to requirement changes, which is
    /// exactly what the dynamic schemes are credited for beating
    /// (§5.2: "ALERT outperforms OracleStatic because it adapts to
    /// dynamic variations").
    ///
    /// Selection: maximize the number of settings met (≤10% of inputs in
    /// violation), then minimize the mean objective across settings.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when `cell` is empty or no
    /// model of the family fits the node's platforms.
    pub fn for_cell(
        cell: &[(Arc<EpisodeEnv>, Goal)],
        family: ModelFamily,
        stream: &InputStream,
    ) -> Result<Self, String> {
        let (first_env, _) = cell
            .first()
            .ok_or_else(|| "cell needs at least one setting".to_string())?;
        let candidates = candidates_on(&family, first_env)?;
        let mut best: Option<(OracleCandidate, usize, f64, StaticScore)> = None;
        for c in candidates {
            let mut met = 0usize;
            let mut sum_obj = 0.0;
            let mut first_score: Option<StaticScore> = None;
            for (env, goal) in cell {
                let s = score_static(env, &family, stream, goal, &c);
                if s.violation_rate <= VIOLATION_DISQUALIFY_FRACTION {
                    met += 1;
                }
                sum_obj += s.mean_objective;
                if first_score.is_none() {
                    first_score = Some(s);
                }
            }
            let mean_obj = sum_obj / cell.len() as f64;
            let better = match &best {
                None => true,
                Some((_, best_met, best_obj, _)) => {
                    met > *best_met || (met == *best_met && mean_obj < *best_obj)
                }
            };
            if better {
                // lint:allow(no-panic): first_score is set on the first iteration over the non-empty cell
                best = Some((c, met, mean_obj, first_score.expect("non-empty cell")));
            }
        }
        // lint:allow(no-panic): candidates_on() refuses an empty candidate set, and the first candidate always lands in best
        let (choice, _, _, score) = best.expect("non-empty candidate set");
        Ok(OracleStatic {
            choice,
            score: Some(score),
        })
    }

    /// Rebuilds the scheme from a previously selected configuration
    /// (cheap; used to replay the cell-level choice on every setting).
    pub fn from_choice(choice: OracleCandidate) -> Self {
        OracleStatic {
            choice,
            score: None,
        }
    }

    /// The pinned configuration.
    pub fn choice(&self) -> OracleCandidate {
        self.choice
    }
}

impl Scheduler for OracleStatic {
    fn name(&self) -> &str {
        "OracleStatic"
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let stop = match self.choice.stage {
            None => StopPolicy::RunToCompletion,
            Some(k) => StopPolicy::AtTimeOrStage(ctx.deadline, k),
        };
        Decision {
            device: self.choice.device,
            model: self.choice.model,
            cap: self.choice.cap,
            stop,
        }
    }

    fn observe(&mut self, _feedback: &Feedback) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_platform::Platform;
    use alert_workload::{Scenario, TaskId};

    fn setup() -> (Arc<EpisodeEnv>, ModelFamily, InputStream, Goal) {
        let node = [Platform::cpu1()];
        let family = ModelFamily::image_classification();
        let stream = InputStream::generate(TaskId::Img2, 150, 11);
        let goal = Goal::minimize_energy(Seconds(0.5), 0.90);
        let env = Arc::new(
            EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 42, None).unwrap(),
        );
        (env, family, stream, goal)
    }

    #[test]
    fn enumeration_counts() {
        let (env, family, _, _) = setup();
        let cands = enumerate(&family, &env);
        // 5 traditional + 4 anytime stages = 9 rows × 15 caps.
        assert_eq!(cands.len(), 9 * 15);
    }

    #[test]
    fn oracle_meets_constraints_when_feasible() {
        let (env, family, _, goal) = setup();
        let mut oracle = Oracle::new(env.clone(), family.clone(), goal).unwrap();
        for i in 0..50 {
            let ctx = InputContext {
                index: i,
                deadline: goal.deadline,
                period: goal.deadline,
                group: None,
            };
            let d = oracle.decide(&ctx);
            let profile = &family.models()[d.model];
            let result = env.realize_on(d.device, i, profile, d.cap, d.stop).unwrap();
            let q = result.quality_by(ctx.deadline, profile.fail_quality);
            assert!(
                result.latency <= ctx.deadline && q >= 0.90 - 1e-12,
                "input {i}: lat {} q {q}",
                result.latency
            );
        }
    }

    #[test]
    fn oracle_beats_static_on_objective() {
        let (env, family, stream, goal) = setup();
        let static_o = OracleStatic::new(env.clone(), family.clone(), &stream, goal).unwrap();
        let static_score = static_o.score.expect("selection computes a score");
        let mut oracle = Oracle::new(env.clone(), family.clone(), goal).unwrap();
        // Average oracle energy over measured inputs must be ≤ static's.
        let warmup = stream.warmup_len();
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..stream.len() {
            let ctx = InputContext {
                index: i,
                deadline: goal.deadline,
                period: goal.deadline,
                group: None,
            };
            let d = oracle.decide(&ctx);
            let profile = &family.models()[d.model];
            let result = env.realize_on(d.device, i, profile, d.cap, d.stop).unwrap();
            if i >= warmup {
                sum += env
                    .period_energy_on(d.device, i, profile, d.cap, &result)
                    .get();
                n += 1;
            }
        }
        let oracle_mean = sum / n as f64;
        // The dynamic oracle satisfies the constraints on *every* input,
        // while the static baseline may trade up to 10% violations for
        // cheaper inputs — so allow a small margin rather than strict
        // dominance.
        assert!(
            oracle_mean <= static_score.mean_energy.get() * 1.02,
            "oracle {oracle_mean} vs static {}",
            static_score.mean_energy
        );
    }

    #[test]
    fn static_choice_is_feasible_when_possible() {
        let (env, family, stream, goal) = setup();
        let s = OracleStatic::new(env, family, &stream, goal).unwrap();
        let score = s.score.expect("selection computes a score");
        assert!(
            score.violation_rate <= VIOLATION_DISQUALIFY_FRACTION,
            "violation rate {}",
            score.violation_rate
        );
    }

    #[test]
    fn cell_level_choice_is_a_compromise() {
        // Across a whole cell (several deadlines × floors), the pinned
        // configuration must work for the *tight* settings, so it cannot
        // be the per-setting optimum of the loose ones — the headroom the
        // dynamic schemes get credited for (§5.2).
        let node = [Platform::cpu1()];
        let family = ModelFamily::image_classification();
        let stream = InputStream::generate(TaskId::Img2, 120, 11);
        let loose = Goal::minimize_energy(Seconds(0.8), 0.86);
        let tight = Goal::minimize_energy(Seconds(0.15), 0.86);
        let mk_env = |g: &Goal| {
            Arc::new(
                EpisodeEnv::build(&node, &Scenario::default_env(), &stream, g, 42, None).unwrap(),
            )
        };
        let cell = vec![(mk_env(&loose), loose), (mk_env(&tight), tight)];
        let cell_static = OracleStatic::for_cell(&cell, family.clone(), &stream).unwrap();
        let loose_static =
            OracleStatic::new(mk_env(&loose), family.clone(), &stream, loose).unwrap();
        // The per-setting optimum for the loose setting is cheaper than
        // the cell-level compromise evaluated on that same setting.
        let cell_on_loose =
            score_static(&cell[0].0, &family, &stream, &loose, &cell_static.choice());
        let loose_on_loose = loose_static.score.expect("score");
        assert!(
            loose_on_loose.mean_energy.get() <= cell_on_loose.mean_energy.get() + 1e-9,
            "loose-optimal {} should not exceed cell compromise {}",
            loose_on_loose.mean_energy,
            cell_on_loose.mean_energy
        );
    }

    #[test]
    fn oracle_places_tight_deadlines_on_the_gpu() {
        // A 50 ms deadline at a 0.90 floor is infeasible on cpu1 (the
        // cheapest qualifying CNN is 60 ms reference × 2.2 class speed)
        // but comfortable on the GPU (× 0.12) — so a perfect-knowledge
        // oracle over a CPU+GPU node must route every input to device 1.
        let node = [Platform::cpu1(), Platform::gpu()];
        let family = ModelFamily::image_classification();
        let stream = InputStream::generate(TaskId::Img2, 100, 11);
        let goal = Goal::minimize_energy(Seconds(0.05), 0.90);
        let env = Arc::new(
            EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 42, None).unwrap(),
        );
        // Device-major enumeration covers both platforms' cap tables.
        let cands = enumerate(&family, &env);
        assert!(cands.iter().any(|c| c.device == 0));
        assert!(cands.iter().any(|c| c.device == 1));

        let mut oracle = Oracle::new(env.clone(), family.clone(), goal).unwrap();
        for i in 0..50 {
            let ctx = InputContext {
                index: i,
                deadline: goal.deadline,
                period: goal.deadline,
                group: None,
            };
            let d = oracle.decide(&ctx);
            assert_eq!(d.device, 1, "input {i} must land on the GPU");
            let profile = &family.models()[d.model];
            let result = env.realize_on(d.device, i, profile, d.cap, d.stop).unwrap();
            let q = result.quality_by(ctx.deadline, profile.fail_quality);
            assert!(
                result.latency <= ctx.deadline && q >= 0.90 - 1e-12,
                "input {i}: lat {} q {q}",
                result.latency
            );
        }
    }

    #[test]
    fn impossible_goal_still_returns_something() {
        let (env, family, _, _) = setup();
        // 1 ms deadline: nothing completes.
        let goal = Goal::minimize_energy(Seconds(0.001), 0.99);
        let mut oracle = Oracle::new(env, family, goal).unwrap();
        let d = oracle.decide(&InputContext {
            index: 0,
            deadline: goal.deadline,
            period: goal.deadline,
            group: None,
        });
        // Fallback picked *some* configuration.
        let _ = d;
    }
}
