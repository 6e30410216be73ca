//! The ALERT feedback loop (paper §3.2).
//!
//! [`AlertController`] holds the candidate table (in an `Arc`-shared,
//! immutable [`DecisionTables`] bundle), owns the two online estimators
//! (ξ and φ), and exposes the per-input cycle:
//!
//! * [`AlertController::decide`] — steps 2–4: adjust the goal (reserve
//!   the controller's own overhead out of the deadline), estimate every
//!   configuration from the current belief, pick the best feasible one;
//! * [`AlertController::observe`] — step 1 for the *next* input: feed the
//!   measured latency (as a slowdown sample) and the idle power back into
//!   the estimators.
//!
//! A group's shared deadline (the words of a sentence) is split per
//! member before the controller sees it, by the harness in `alert-sched`;
//! the controller only ever decides against one input's deadline.
//!
//! The controller is deliberately platform- and model-agnostic: it sees
//! only the profile tables. `alert-sched` wires it to the simulator.

use crate::config::{Candidate, ConfigTable};
use crate::goal::Goal;
use crate::idle::IdleRatioEstimator;
use crate::lane::{CandidateLane, LaneScratch};
use crate::select::{Estimates, Selection, EMPTY_TABLE};
use crate::slowdown::SlowdownEstimator;
use alert_stats::cputime::SampledStopwatch;
use alert_stats::kalman::AdaptiveKalmanParams;
use alert_stats::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How estimates incorporate uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbabilityMode {
    /// The paper's design: full expectations over ξ's distribution.
    Full,
    /// The ALERT\* ablation (§5.3, Fig. 10): means only.
    MeanOnly,
}

/// How the controller reserves time for its own overhead (§3.2 step 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OverheadPolicy {
    /// No compensation.
    None,
    /// Reserve a fixed time out of every deadline (deterministic; the
    /// default for reproducible experiments).
    Fixed(Seconds),
    /// Measure the controller's own decision time and reserve the worst
    /// case observed (the paper's behaviour).
    ///
    /// Decisions are metered on the **thread-CPU clock**
    /// ([`alert_stats::cputime`]) where available, falling back to the
    /// wall clock elsewhere: the wall clock charges the controller for
    /// scheduler preemption and lock waits, which on an oversubscribed
    /// host inflated the measured "overhead" ~7× and fed that noise
    /// straight back into deadlines. Residual nondeterminism (cache
    /// state, frequency scaling) remains — see DESIGN.md §5.
    ///
    /// This is the only policy that meters **every** decision. The
    /// reserve is the worst case seen, and it tightens deadlines, so a
    /// sampled meter would under-reserve; under `None` and `Fixed` the
    /// cost is only reported and is metered one decision in
    /// [`alert_stats::cputime::SAMPLE_STRIDE`].
    Measured,
}

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AlertParams {
    /// Kalman constants for the slowdown filter (Eq. 5).
    pub kalman: AdaptiveKalmanParams,
    /// Probability handling ([`ProbabilityMode::Full`] = paper design).
    pub mode: ProbabilityMode,
    /// Initial idle-power ratio guess for φ (Eq. 8).
    pub initial_idle_ratio: f64,
    /// Overhead compensation policy.
    pub overhead: OverheadPolicy,
}

impl Default for AlertParams {
    fn default() -> Self {
        AlertParams {
            kalman: AdaptiveKalmanParams::default(),
            mode: ProbabilityMode::Full,
            initial_idle_ratio: 0.3,
            // 0.3 ms — roughly the measured decision cost envelope; keeps
            // experiments bit-deterministic (see `OverheadPolicy::Measured`
            // for the paper's adaptive variant).
            overhead: OverheadPolicy::Fixed(Seconds(0.0003)),
        }
    }
}

impl AlertParams {
    /// The ALERT\* ablation parameters (mean-only estimates).
    pub fn mean_only() -> Self {
        AlertParams {
            mode: ProbabilityMode::MeanOnly,
            ..Default::default()
        }
    }
}

/// Feedback from one processed input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Measured execution time of the work that ran.
    pub latency: Seconds,
    /// Profiled time of that same work (slowdown denominator).
    pub profile_equivalent: Seconds,
    /// Idle power measured while waiting for this input, if any idle
    /// period existed.
    pub idle_power: Option<Watts>,
    /// The cap that was active during the idle measurement.
    pub idle_cap: Watts,
}

/// A serializable checkpoint of an [`AlertController`]'s learned state:
/// the ξ slowdown belief (Kalman filter + innovation tracker), the φ
/// idle-power ratio, the overhead reserve, and the decision counters.
///
/// Snapshots exist so long-lived *sessions* can be checkpointed and
/// migrated between runtimes: a controller restored from a snapshot
/// continues the episode exactly where the original left off (the
/// candidate table and parameters are rebuilt from the policy, not
/// stored — they are configuration, not learned state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// The ξ estimator state (Eq. 5 filter + innovation dispersion).
    pub xi: SlowdownEstimator,
    /// The φ idle-power ratio estimator state (Eq. 8 filter).
    pub idle: IdleRatioEstimator,
    /// Time reserved out of every deadline for the controller's own
    /// overhead (§3.2 step 2): the fixed reserve, or the worst decision
    /// cost measured so far.
    pub overhead_reserve: Seconds,
    /// Decisions made so far.
    pub decisions: u64,
    /// Cost charged to the most recent decision (see
    /// [`AlertController::last_decision_cost`]). Kept for the snapshot
    /// format only: a restored controller meters its next decision
    /// afresh and never charges this value to it.
    pub last_decision_cost: Seconds,
}

impl ControllerSnapshot {
    /// Checks that this state is one a controller can reach: a valid ξ
    /// belief ([`SlowdownEstimator::validate`]), a valid φ filter
    /// ([`IdleRatioEstimator::validate`]), and a finite, non-negative
    /// overhead reserve and last decision cost.
    ///
    /// # Errors
    ///
    /// Describes the first value out of range.
    pub fn validate(&self) -> Result<(), String> {
        self.xi.validate()?;
        self.idle.validate()?;
        for (name, t) in [
            ("overhead reserve", self.overhead_reserve),
            ("last decision cost", self.last_decision_cost),
        ] {
            if !(t.is_finite() && t.get() >= 0.0) {
                return Err(format!("{name} must be finite and non-negative, got {t}"));
            }
        }
        Ok(())
    }
}

/// The full causal record of one decision, captured *after* the
/// selection is made (strictly off the value path: nothing downstream
/// of [`AlertController::decide_with_period`] reads it back).
///
/// This is what the telemetry layer's decision events and the flight
/// recorder are built from: the belief the controller held, the lane it
/// searched, what it picked and what it predicted. It is *not* learned
/// state — snapshots do not carry it, and restore/reset clear it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// Always `false`: every decision is a fresh lane search. The field
    /// stays so serialized decision events and flight-recorder dumps keep
    /// their shape, and so readers that tally it keep building.
    pub cache_hit: bool,
    /// ξ belief mean at decision time.
    pub belief_mean: f64,
    /// ξ belief standard deviation at decision time.
    pub belief_std: f64,
    /// φ idle-power ratio at decision time.
    pub idle_ratio: f64,
    /// The deadline actually decided against: the goal's deadline minus
    /// the overhead reserve, floored at 1 µs.
    pub effective_deadline: Seconds,
    /// Total execution targets in the candidate lane.
    pub candidates: usize,
    /// Targets this decision scored with Eq. 6/7/13 work; the rest were
    /// skipped as unable to win.
    pub live: usize,
    /// The chosen execution target.
    pub selected: Candidate,
    /// The winner's estimates at selection time (predicted latency,
    /// deadline probability, quality, energy).
    pub estimates: Estimates,
    /// `false` if the fallback hierarchy had to relax constraints.
    pub feasible: bool,
    /// Cost charged to this decision, as
    /// [`AlertController::last_decision_cost`] reports it: thread-CPU
    /// time, metered on this decision or held from the latest metered
    /// one.
    pub cost: Seconds,
}

/// The immutable decision tables one controller schedules over: the
/// profiled candidate table, the selection fast lane built from it, and
/// per-model-row facts the caller needs to act on a selection.
///
/// Nothing in here is learned or touched by a decision, so one bundle
/// is built per distinct (family, candidate set, node, budget) and
/// shared by `Arc` across every controller over that table
/// ([`AlertController::with_tables`]); each controller keeps its own
/// [`LaneScratch`] and estimators.
#[derive(Debug)]
pub struct DecisionTables {
    table: ConfigTable,
    lane: CandidateLane,
    /// Table model row → the caller's model index (e.g. the unrestricted
    /// family's).
    model_index: Vec<usize>,
    /// Whether each table model row is an anytime network.
    is_anytime: Vec<bool>,
}

impl DecisionTables {
    /// Builds the bundle: flattens `table` into its lane.
    /// `model_index[i]` is the caller's index of table model row `i`.
    ///
    /// # Errors
    ///
    /// Rejects a `model_index` that does not cover every model row.
    pub fn new(table: ConfigTable, model_index: Vec<usize>) -> Result<Self, String> {
        if model_index.len() != table.models().len() {
            return Err(format!(
                "model index covers {} rows, the table has {}",
                model_index.len(),
                table.models().len()
            ));
        }
        let lane = CandidateLane::build(&table);
        let is_anytime = table.models().iter().map(|m| m.is_anytime()).collect();
        Ok(DecisionTables {
            table,
            lane,
            model_index,
            is_anytime,
        })
    }

    /// The candidate table.
    pub fn table(&self) -> &ConfigTable {
        &self.table
    }

    /// The caller's model index of each table model row.
    pub fn model_index(&self) -> &[usize] {
        &self.model_index
    }

    /// Whether each table model row is an anytime network.
    pub fn is_anytime(&self) -> &[bool] {
        &self.is_anytime
    }
}

/// The ALERT runtime controller.
#[derive(Debug, Clone)]
pub struct AlertController {
    /// The shared, immutable table and fast lane.
    tables: Arc<DecisionTables>,
    /// Reusable per-decision scratch (probability memo, quality buffer,
    /// `Φ⁻¹` memo, seeded incumbent). Not learned state: restore/reset
    /// clear the seed.
    scratch: LaneScratch,
    params: AlertParams,
    xi: SlowdownEstimator,
    idle: IdleRatioEstimator,
    /// Worst controller overhead seen (or the fixed reserve), subtracted
    /// from every deadline.
    overhead_reserve: Seconds,
    decisions: u64,
    last_decision_cost: Seconds,
    /// Meters decision cost: every decision under
    /// [`OverheadPolicy::Measured`], one in
    /// [`alert_stats::cputime::SAMPLE_STRIDE`] otherwise.
    meter: SampledStopwatch,
    /// Causal record of the most recent decision. Pure observability —
    /// never read on the decision path; cleared by restore/reset.
    last_trace: Option<DecisionTrace>,
}

impl AlertController {
    /// Creates a controller over a candidate table of its own (model
    /// rows index themselves).
    ///
    /// # Errors
    ///
    /// See [`AlertController::with_tables`].
    pub fn new(table: ConfigTable, params: AlertParams) -> Result<Self, String> {
        let rows = table.models().len();
        Self::with_tables(
            Arc::new(DecisionTables::new(table, (0..rows).collect())?),
            params,
        )
    }

    /// Creates a controller over a shared decision-table bundle. Only the
    /// per-decision scratch, the estimators and the overhead reserve are
    /// this controller's own.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter — the Kalman
    /// constants (paper §3.4) and the initial idle ratio (Eq. 8) arrive
    /// from user configuration (`RunSpec` files), so bad values must
    /// surface to the caller instead of aborting the process.
    pub fn with_tables(tables: Arc<DecisionTables>, params: AlertParams) -> Result<Self, String> {
        if !(params.initial_idle_ratio.is_finite()
            && (0.0..=1.0).contains(&params.initial_idle_ratio))
        {
            return Err(format!(
                "initial_idle_ratio must be a ratio in [0,1], got {}",
                params.initial_idle_ratio
            ));
        }
        if let OverheadPolicy::Fixed(t) = params.overhead {
            if !(t.is_finite() && t.get() >= 0.0) {
                return Err(format!("fixed overhead reserve must be >= 0, got {t}"));
            }
        }
        let scratch = LaneScratch::for_lane(&tables.lane);
        let mut ctl = AlertController {
            tables,
            scratch,
            xi: SlowdownEstimator::with_params(params.kalman)?,
            idle: IdleRatioEstimator::new(params.initial_idle_ratio),
            overhead_reserve: Seconds::ZERO,
            params,
            decisions: 0,
            last_decision_cost: Seconds::ZERO,
            meter: SampledStopwatch::new(),
            last_trace: None,
        };
        ctl.reset_reserve();
        Ok(ctl)
    }

    /// Grows the overhead reserve to `cost` if `cost` is finite and
    /// larger: the reserve is the running maximum.
    fn reserve(&mut self, cost: Seconds) {
        if cost.is_finite() && cost > self.overhead_reserve {
            self.overhead_reserve = cost;
        }
    }

    /// Sets the reserve a new episode starts from: the
    /// [`OverheadPolicy::Fixed`] time, else nothing.
    fn reset_reserve(&mut self) {
        self.overhead_reserve = Seconds::ZERO;
        if let OverheadPolicy::Fixed(t) = self.params.overhead {
            self.reserve(t);
        }
    }

    /// Steps 2–4: picks the execution target for the next input, using the
    /// goal deadline as the idle-accounting period (ungrouped inputs).
    ///
    /// # Errors
    ///
    /// Returns the goal-validation failure message if `goal` is malformed.
    pub fn decide(&mut self, goal: &Goal) -> Result<Selection, String> {
        self.decide_with_period(goal, goal.deadline)
    }

    /// Steps 2–4 with an explicit input `period` — for grouped tasks the
    /// energy window (word period) differs from the dynamically adjusted
    /// deadline.
    ///
    /// # Errors
    ///
    /// Returns the goal-validation failure message if `goal` is malformed.
    pub fn decide_with_period(
        &mut self,
        goal: &Goal,
        period: Seconds,
    ) -> Result<Selection, String> {
        self.decide_in::<true>(goal, period)?
            .ok_or_else(|| EMPTY_TABLE.to_string())
    }

    /// [`AlertController::decide_with_period`]'s valid winner alone
    /// ([`CandidateLane::select_valid_with_period`]): `Some` of the same
    /// selection when it is `feasible`, `None` when no candidate is
    /// valid, without ranking the §4 fallbacks. It is a decision like any
    /// other for the overhead meter, the reserve and
    /// [`AlertController::decisions`]; one that finds nothing valid
    /// leaves no [`AlertController::last_trace`].
    ///
    /// # Errors
    ///
    /// Returns the goal-validation failure message if `goal` is malformed.
    pub fn decide_valid_with_period(
        &mut self,
        goal: &Goal,
        period: Seconds,
    ) -> Result<Option<Selection>, String> {
        self.decide_in::<false>(goal, period)
    }

    /// The body of both decisions; `RANK` as in
    /// [`CandidateLane::select`].
    fn decide_in<const RANK: bool>(
        &mut self,
        goal: &Goal,
        period: Seconds,
    ) -> Result<Option<Selection>, String> {
        let measured = matches!(self.params.overhead, OverheadPolicy::Measured);
        if measured {
            // The reserve feeds deadlines: meter every decision.
            self.meter.meter_next();
        }
        let started = self.meter.start();
        // Floored at 1 µs: a reserve above the deadline degrades to
        // "everything misses" instead of a non-positive deadline.
        let effective = Seconds((goal.deadline - self.overhead_reserve).get().max(1e-6));
        let adjusted = goal.with_deadline(effective);
        let xi = self.xi.distribution();
        let idle_ratio = self.idle.ratio();
        let sel = self.tables.lane.select::<RANK>(
            &mut self.scratch,
            &xi,
            idle_ratio,
            &adjusted,
            period,
            self.params.mode,
        )?;
        // Floored at 1 ns: a decision can finish between two ticks of a
        // coarse CPU clock, and downstream accounting treats a zero cost
        // as "no decision happened".
        let cost = Seconds(self.meter.charge(started).as_secs_f64().max(1e-9));
        self.last_decision_cost = cost;
        if measured {
            self.reserve(cost);
        }
        self.decisions += 1;
        // Recorded after the selection is final: the trace is pure
        // observability, nothing on the decision path reads it.
        self.last_trace = sel.map(|sel| DecisionTrace {
            cache_hit: false,
            belief_mean: xi.mean(),
            belief_std: xi.std_dev(),
            idle_ratio,
            effective_deadline: effective,
            candidates: self.tables.lane.candidate_count(),
            live: self.scratch.scored(),
            selected: sel.candidate,
            estimates: sel.estimates,
            feasible: sel.feasible,
            cost,
        });
        Ok(sel)
    }

    /// Step 1 (for the next input): feeds measurements back.
    pub fn observe(&mut self, obs: &Observation) {
        self.xi.observe(obs.latency, obs.profile_equivalent);
        if let Some(p) = obs.idle_power {
            self.idle.observe(p, obs.idle_cap);
        }
    }

    /// The candidate table.
    pub fn table(&self) -> &ConfigTable {
        &self.tables.table
    }

    /// The shared decision-table bundle this controller schedules over.
    pub fn tables(&self) -> &Arc<DecisionTables> {
        &self.tables
    }

    /// The slowdown estimator (diagnostics; Fig. 11 data).
    pub fn slowdown(&self) -> &SlowdownEstimator {
        &self.xi
    }

    /// Current idle-power ratio estimate φ.
    pub fn idle_ratio(&self) -> f64 {
        self.idle.ratio()
    }

    /// The selection fast lane (diagnostics: candidate count).
    pub fn lane(&self) -> &CandidateLane {
        &self.tables.lane
    }

    /// Cost charged to the most recent decision, in thread-CPU time
    /// where available (wall clock otherwise — see
    /// [`OverheadPolicy::Measured`]).
    ///
    /// Under [`OverheadPolicy::Measured`] every decision is metered. Under
    /// `None` and `Fixed` one decision in
    /// [`alert_stats::cputime::SAMPLE_STRIDE`] is metered and the ones in
    /// between are charged its cost ("sample and hold"). The first
    /// decision after construction, [`AlertController::reset`] or
    /// [`AlertController::restore`] is always metered.
    pub fn last_decision_cost(&self) -> Seconds {
        self.last_decision_cost
    }

    /// Total decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Causal record of the most recent decision, if one was made since
    /// construction/restore/reset and it selected a candidate (pure
    /// observability: see [`DecisionTrace`]).
    pub fn last_trace(&self) -> Option<DecisionTrace> {
        self.last_trace
    }

    /// The parameters in force.
    pub fn params(&self) -> &AlertParams {
        &self.params
    }

    /// Captures the full estimator state for checkpoint/migration.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            xi: self.xi.clone(),
            idle: self.idle.clone(),
            overhead_reserve: self.overhead_reserve,
            decisions: self.decisions,
            last_decision_cost: self.last_decision_cost,
        }
    }

    /// Restores estimator state from a snapshot. The candidate table and
    /// parameters are untouched: a snapshot only carries *learned* state,
    /// so it can be applied to a freshly built controller of the same
    /// policy (the migration path). The lane's seeded incumbent is not
    /// carried either, just dropped: it only orders the scoring, so no
    /// selection depends on it. The next decision is metered, so the
    /// snapshot's `last_decision_cost` is never charged to it.
    pub fn restore(&mut self, snapshot: &ControllerSnapshot) {
        self.xi = snapshot.xi.clone();
        self.idle = snapshot.idle.clone();
        self.overhead_reserve = snapshot.overhead_reserve;
        self.decisions = snapshot.decisions;
        self.last_decision_cost = snapshot.last_decision_cost;
        self.meter.meter_next();
        self.scratch.forget_seed();
        self.last_trace = None;
    }

    /// Resets estimators and the overhead reserve (new episode). The next
    /// decision is metered.
    pub fn reset(&mut self) {
        self.xi.reset();
        self.idle = IdleRatioEstimator::new(self.params.initial_idle_ratio);
        self.reset_reserve();
        self.decisions = 0;
        self.last_decision_cost = Seconds::ZERO;
        self.meter.meter_next();
        self.scratch.forget_seed();
        self.last_trace = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CandidateModel, StagePoint};
    use alert_stats::cputime::SAMPLE_STRIDE;
    use alert_stats::units::Joules;

    fn table() -> ConfigTable {
        let models = vec![
            CandidateModel::traditional("small", 0.86, 0.005),
            CandidateModel::traditional("big", 0.95, 0.005),
            CandidateModel::anytime(
                "any",
                vec![
                    StagePoint {
                        frac: 0.4,
                        quality: 0.84,
                    },
                    StagePoint {
                        frac: 1.0,
                        quality: 0.94,
                    },
                ],
                0.005,
            ),
        ];
        let powers = vec![Watts(20.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.040), Seconds(0.020)],
            vec![Seconds(0.200), Seconds(0.100)],
            vec![Seconds(0.240), Seconds(0.120)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(40.0)],
            vec![Watts(19.0), Watts(42.0)],
            vec![Watts(19.0), Watts(42.0)],
        ];
        ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
    }

    #[test]
    fn controller_reacts_to_contention_within_few_inputs() {
        let mut ctl = AlertController::new(table(), AlertParams::default()).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        // Quiescent phase: the big model fits the 120 ms deadline.
        let mut sel = ctl.decide(&goal).unwrap();
        for _ in 0..30 {
            let t_prof = ctl.table().t_prof_stage(sel.candidate);
            ctl.observe(&Observation {
                latency: t_prof, // environment at profile speed
                profile_equivalent: t_prof,
                idle_power: Some(Watts(6.0)),
                idle_cap: ctl
                    .table()
                    .cap_on(sel.candidate.device, sel.candidate.power),
            });
            sel = ctl.decide(&goal).unwrap();
        }
        assert_eq!(ctl.table().models()[sel.candidate.model].name, "big");
        // Contention: everything suddenly 1.8x slower.
        for _ in 0..4 {
            let t_prof = ctl.table().t_prof_stage(sel.candidate);
            ctl.observe(&Observation {
                latency: t_prof * 1.8,
                profile_equivalent: t_prof,
                idle_power: Some(Watts(12.0)),
                idle_cap: ctl
                    .table()
                    .cap_on(sel.candidate.device, sel.candidate.power),
            });
            sel = ctl.decide(&goal).unwrap();
        }
        // big@45W now means 180 ms >> 120 ms: must have switched away.
        assert_ne!(
            ctl.table().models()[sel.candidate.model].name,
            "big",
            "controller failed to react to the slowdown"
        );
        assert!(ctl.slowdown().mean() > 1.5);
    }

    #[test]
    fn fixed_overhead_is_reserved_from_deadlines() {
        let params = AlertParams {
            overhead: OverheadPolicy::Fixed(Seconds(0.01)),
            ..Default::default()
        };
        let mut ctl = AlertController::new(table(), params).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let sel = ctl.decide(&goal).unwrap();
        assert!((sel.deadline.get() - 0.11).abs() < 1e-12);
    }

    #[test]
    fn measured_overhead_grows_reserve() {
        let params = AlertParams {
            overhead: OverheadPolicy::Measured,
            ..Default::default()
        };
        let mut ctl = AlertController::new(table(), params).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let first = ctl.decide(&goal).unwrap();
        // First decision sees the full deadline (no overhead yet).
        assert_eq!(first.deadline, Seconds(0.12));
        let _second = ctl.decide(&goal).unwrap();
        assert!(ctl.last_decision_cost().get() > 0.0);
    }

    fn with_overhead(overhead: OverheadPolicy) -> AlertController {
        AlertController::new(
            table(),
            AlertParams {
                overhead,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Decides once; returns the cost charged, checked against the trace.
    fn charged(ctl: &mut AlertController, goal: &Goal) -> Seconds {
        ctl.decide(goal).unwrap();
        let cost = ctl.last_decision_cost();
        assert_eq!(
            ctl.last_trace().unwrap().cost.get().to_bits(),
            cost.get().to_bits()
        );
        cost
    }

    #[test]
    fn reported_costs_are_sampled_and_held_under_fixed_and_none() {
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        for overhead in [OverheadPolicy::Fixed(Seconds(0.0003)), OverheadPolicy::None] {
            let mut ctl = with_overhead(overhead);
            for _ in 0..2 {
                // The first call of each stride is metered; the rest
                // report its cost bit for bit.
                let metered = charged(&mut ctl, &goal);
                assert!(metered.get() > 0.0);
                for k in 1..SAMPLE_STRIDE {
                    let cost = charged(&mut ctl, &goal);
                    assert_eq!(
                        cost.get().to_bits(),
                        metered.get().to_bits(),
                        "{overhead:?} call {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_and_reset_meter_the_next_decision() {
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let sentinel = Seconds(7.0);
        for overhead in [
            OverheadPolicy::Fixed(Seconds(0.0003)),
            OverheadPolicy::Measured,
        ] {
            for via_reset in [false, true] {
                let mut ctl = with_overhead(overhead);
                // Mid-stride: the next decision would otherwise be
                // charged a held cost.
                for _ in 0..3 {
                    charged(&mut ctl, &goal);
                }
                if via_reset {
                    ctl.reset();
                } else {
                    let mut snap = ctl.snapshot();
                    snap.last_decision_cost = sentinel;
                    ctl.restore(&snap);
                    assert_eq!(ctl.last_decision_cost(), sentinel);
                }
                assert!(
                    ctl.meter.start().is_some(),
                    "{overhead:?}, reset {via_reset}: the next decision must be metered"
                );
                let cost = charged(&mut ctl, &goal);
                assert!(
                    0.0 < cost.get() && cost < sentinel,
                    "{overhead:?}, reset {via_reset}: charged {cost}"
                );
            }
        }
    }

    #[test]
    fn measured_reserve_is_the_running_maximum_of_every_reported_cost() {
        let mut ctl = with_overhead(OverheadPolicy::Measured);
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let mut worst = Seconds::ZERO;
        let mut costs = Vec::new();
        for i in 0..100 {
            let cost = charged(&mut ctl, &goal);
            let expected = Seconds((goal.deadline - worst).get().max(1e-6));
            let effective = ctl.last_trace().unwrap().effective_deadline;
            assert_eq!(
                effective.get().to_bits(),
                expected.get().to_bits(),
                "decision {i}"
            );
            worst = worst.max(cost);
            costs.push(cost.get().to_bits());
        }
        // Every decision is metered: a sampled meter could report at most
        // one distinct cost per stride.
        costs.sort_unstable();
        costs.dedup();
        assert!(
            costs.len() > 100 / SAMPLE_STRIDE as usize + 1,
            "only {} distinct costs in 100 metered decisions",
            costs.len()
        );
    }

    #[test]
    fn reset_restores_initial_belief() {
        let mut ctl = AlertController::new(table(), AlertParams::default()).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let _ = ctl.decide(&goal).unwrap();
        ctl.observe(&Observation {
            latency: Seconds(0.5),
            profile_equivalent: Seconds(0.1),
            idle_power: Some(Watts(20.0)),
            idle_cap: Watts(45.0),
        });
        assert!(ctl.slowdown().mean() > 2.0);
        ctl.reset();
        assert_eq!(ctl.slowdown().mean(), 1.0);
        assert_eq!(ctl.decisions(), 0);
        assert_eq!(ctl.idle_ratio(), 0.3);
    }

    #[test]
    fn mean_only_params_select_ablation_mode() {
        let p = AlertParams::mean_only();
        assert_eq!(p.mode, ProbabilityMode::MeanOnly);
    }

    #[test]
    fn fixed_overhead_exceeding_deadline_never_goes_negative() {
        let params = AlertParams {
            overhead: OverheadPolicy::Fixed(Seconds(0.5)),
            ..Default::default()
        };
        let mut ctl = AlertController::new(table(), params).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        for _ in 0..3 {
            // A reserve above the deadline clamps to the 1 µs floor.
            let sel = ctl.decide(&goal).unwrap();
            assert_eq!(sel.deadline, Seconds(1e-6));
        }
    }

    #[test]
    fn reserve_is_the_largest_finite_cost_and_comes_off_the_deadline() {
        let mut ctl = with_overhead(OverheadPolicy::None);
        let goal = Goal::minimize_error(Seconds(0.1), Joules(20.0));
        assert_eq!(ctl.decide(&goal).unwrap().deadline, Seconds(0.1));
        ctl.reserve(Seconds(0.002));
        ctl.reserve(Seconds(0.001)); // smaller: the reserve keeps the max
        ctl.reserve(Seconds(f64::NAN));
        ctl.reserve(Seconds(f64::INFINITY));
        assert_eq!(ctl.overhead_reserve, Seconds(0.002));
        let sel = ctl.decide(&goal).unwrap();
        assert!(
            (sel.deadline.get() - 0.098).abs() < 1e-12,
            "{}",
            sel.deadline
        );
    }

    #[test]
    fn measured_overhead_never_yields_negative_deadline() {
        // Even with an absurdly tight goal, the measured-overhead reserve
        // must clamp at the epsilon floor, not push deadlines negative.
        let params = AlertParams {
            overhead: OverheadPolicy::Measured,
            ..Default::default()
        };
        let mut ctl = AlertController::new(table(), params).unwrap();
        let goal = Goal::minimize_error(Seconds(1e-7), Joules(20.0));
        for _ in 0..20 {
            let sel = ctl.decide(&goal).unwrap();
            assert!(sel.deadline.get() > 0.0, "deadline {}", sel.deadline);
            let t_prof = ctl.table().t_prof_stage(sel.candidate);
            ctl.observe(&Observation {
                latency: t_prof,
                profile_equivalent: t_prof,
                idle_power: None,
                idle_cap: ctl
                    .table()
                    .cap_on(sel.candidate.device, sel.candidate.power),
            });
        }
    }

    #[test]
    fn snapshot_restore_roundtrips_learned_state() {
        let mut ctl = AlertController::new(table(), AlertParams::default()).unwrap();
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let mut sel = ctl.decide(&goal).unwrap();
        for _ in 0..25 {
            let t_prof = ctl.table().t_prof_stage(sel.candidate);
            ctl.observe(&Observation {
                latency: t_prof * 1.4,
                profile_equivalent: t_prof,
                idle_power: Some(Watts(9.0)),
                idle_cap: ctl
                    .table()
                    .cap_on(sel.candidate.device, sel.candidate.power),
            });
            sel = ctl.decide(&goal).unwrap();
        }
        let snap = ctl.snapshot();

        // A fresh controller restored from the snapshot behaves
        // identically from here on.
        let mut restored = AlertController::new(table(), AlertParams::default()).unwrap();
        restored.restore(&snap);
        assert_eq!(restored.slowdown().mean(), ctl.slowdown().mean());
        assert_eq!(restored.idle_ratio(), ctl.idle_ratio());
        assert_eq!(restored.decisions(), ctl.decisions());
        let a = ctl.decide(&goal).unwrap();
        let b = restored.decide(&goal).unwrap();
        assert_eq!(a.candidate, b.candidate);
        assert_eq!(a.deadline, b.deadline);
    }

    #[test]
    fn restored_controller_decides_against_the_measured_reserve() {
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let mut ctl = with_overhead(OverheadPolicy::Measured);
        for _ in 0..5 {
            charged(&mut ctl, &goal);
        }
        let snap = ctl.snapshot();
        assert!(snap.overhead_reserve > Seconds::ZERO);
        let mut restored = with_overhead(OverheadPolicy::Measured);
        restored.restore(&snap);
        // Both next decisions see the reserve the snapshot carries.
        let expected = goal.deadline - snap.overhead_reserve;
        for c in [&mut ctl, &mut restored] {
            c.decide(&goal).unwrap();
            let effective = c.last_trace().unwrap().effective_deadline;
            assert_eq!(effective.get().to_bits(), expected.get().to_bits());
        }
    }

    #[test]
    fn last_trace_records_the_decision_causally() {
        let mut ctl = AlertController::new(table(), AlertParams::default()).unwrap();
        assert!(ctl.last_trace().is_none(), "no decision yet, no trace");
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let sel = ctl.decide(&goal).unwrap();
        let trace = ctl.last_trace().expect("decision leaves a trace");
        assert!(!trace.cache_hit, "no decision is replayed");
        assert_eq!(trace.selected, sel.candidate);
        assert_eq!(trace.estimates, sel.estimates);
        assert_eq!(trace.feasible, sel.feasible);
        assert_eq!(trace.candidates, ctl.lane().candidate_count());
        // A minimize-error decision scores every candidate.
        assert_eq!(trace.live, trace.candidates);
        assert_eq!(trace.belief_mean, ctl.slowdown().mean());
        assert!(trace.cost.get() > 0.0);
        // A repeat under the same belief searches the lane again.
        let again = ctl.decide(&goal).unwrap();
        let trace2 = ctl.last_trace().unwrap();
        assert!(!trace2.cache_hit);
        assert_eq!(trace2.live, trace2.candidates);
        assert_eq!(again.candidate, sel.candidate);
        // A minimize-energy decision scores only the candidates that can
        // still win: "small" and the anytime stage 0 cannot reach 0.9.
        let _ = ctl
            .decide(&Goal::minimize_energy(Seconds(0.3), 0.9))
            .unwrap();
        let trace3 = ctl.last_trace().unwrap();
        assert!(
            0 < trace3.live && trace3.live < trace3.candidates,
            "scored {} of {}",
            trace3.live,
            trace3.candidates
        );
        // Reset and restore both clear the trace.
        ctl.reset();
        assert!(ctl.last_trace().is_none());
        let _ = ctl.decide(&goal).unwrap();
        let snap = ctl.snapshot();
        let mut other = AlertController::new(table(), AlertParams::default()).unwrap();
        let _ = other.decide(&goal).unwrap();
        other.restore(&snap);
        assert!(other.last_trace().is_none());
    }

    #[test]
    fn controllers_sharing_tables_decide_like_independent_ones() {
        // Two controllers over one bundle, fed diverging measurements and
        // interleaved decision by decision, must select exactly what two
        // controllers with their own tables select: nothing a decision
        // writes (scratch generation, probability memo, seed) may live
        // in the shared part.
        let shared = Arc::new(DecisionTables::new(table(), vec![0, 1, 2]).unwrap());
        let mean_only = AlertParams::mean_only();
        let mut shared_ctls = [
            AlertController::with_tables(shared.clone(), AlertParams::default()).unwrap(),
            AlertController::with_tables(shared.clone(), mean_only).unwrap(),
        ];
        let mut own_ctls = [
            AlertController::new(table(), AlertParams::default()).unwrap(),
            AlertController::new(table(), mean_only).unwrap(),
        ];
        let goals = [
            Goal::minimize_error(Seconds(0.12), Joules(20.0)),
            Goal::minimize_energy(Seconds(0.15), 0.9),
        ];
        for i in 0..120 {
            for (k, (s, o)) in shared_ctls.iter_mut().zip(own_ctls.iter_mut()).enumerate() {
                let goal = goals[(i + k) % 2];
                // A repeat under an unchanged belief starts from the
                // previous winner's seed.
                for _ in 0..2 {
                    let a = s.decide(&goal).unwrap();
                    let b = o.decide(&goal).unwrap();
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "input {i}, controller {k}"
                    );
                }
                let sel = s.last_trace().unwrap().selected;
                let t_prof = s.table().t_prof_stage(sel);
                // Controller 0 sees contention ramp up, controller 1
                // sees it fade: their beliefs move apart.
                let slow = if k == 0 {
                    1.0 + i as f64 / 60.0
                } else {
                    2.0 - i as f64 / 120.0
                };
                let obs = Observation {
                    latency: t_prof * slow,
                    profile_equivalent: t_prof,
                    idle_power: Some(Watts(5.0 + k as f64)),
                    idle_cap: s.table().cap_on(sel.device, sel.power),
                };
                s.observe(&obs);
                o.observe(&obs);
            }
        }
        assert!(Arc::ptr_eq(
            shared_ctls[0].tables(),
            shared_ctls[1].tables()
        ));
        let beliefs = shared_ctls.each_ref().map(|c| c.slowdown().mean());
        assert!(
            beliefs[0] > beliefs[1] + 0.5,
            "beliefs must diverge: {beliefs:?}"
        );
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let mut ctl = with_overhead(OverheadPolicy::Measured);
        let goal = Goal::minimize_error(Seconds(0.12), Joules(20.0));
        let _ = ctl.decide(&goal).unwrap();
        ctl.observe(&Observation {
            latency: Seconds(0.15),
            profile_equivalent: Seconds(0.1),
            idle_power: Some(Watts(7.0)),
            idle_cap: Watts(45.0),
        });
        let snap = ctl.snapshot();
        // The measured reserve is an arbitrary cost: it must survive the
        // text round trip exactly.
        assert!(snap.overhead_reserve > Seconds::ZERO);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ControllerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
