//! The selection fast lane: SoA candidate precomputation and an exact
//! early exit for minimize-energy goals.
//!
//! ALERT re-enumerates every `(device, model, stage, power)` execution
//! target per input (§3.2 step 4, with the device axis collapsing on
//! single-platform tables). Scoring those targets is most of a decision:
//! its cost is CDF evaluations plus table chasing per candidate. This
//! module cuts that cost with two mechanisms, each **provably
//! selection-identical** to the reference enumeration in
//! [`crate::select::select_with_period`]:
//!
//! 1. **Static precomputation** ([`CandidateLane`]) — per-candidate
//!    profile terms (`t^prof` stage latencies, run power, cap, staircase,
//!    quality guard, quality ceiling) are flattened at construction into
//!    a cache-friendly structure-of-arrays, so a decision does no
//!    nested-`Vec` chasing.
//!    Stage-completion probabilities are *memoized per decision* across
//!    sibling candidates (the stage-`k` target probability of `(i, k, j)`
//!    is the same number as stage `k` of `(i, k+1, j)`'s staircase), and
//!    the `Φ⁻¹(Pr_th)` of the Eq. 12 energy bound — constant across
//!    candidates — is hoisted out of the loop
//!    ([`crate::latency::percentile_latency_with_z`]). Every reused value
//!    is produced by the *same* floating-point expression as the
//!    reference path, so sharing cannot change a bit.
//! 2. **Scoring only candidates that can win** — under
//!    [`Objective::MinimizeEnergy`] a candidate gets no Eq. 6/7/13 work
//!    when it provably cannot be the reference's winner: its best
//!    reachable quality cannot clear the floor, it is traditional and its
//!    mean latency misses the deadline, or its Eq. 9 energy is strictly
//!    above a valid incumbent's. The previous decision's winner is scored
//!    first so the energy bound bites from the start, and incumbents are
//!    compared index-aware, so the earliest-enumerated minimum wins as in
//!    the reference. With no valid candidate the full loop runs, and the
//!    §4 fallbacks come out unchanged (see
//!    [`CandidateLane::select_with_period`] and DESIGN.md §6).
//!
//! `tests/fast_lane.rs` proves bit-identity of the whole lane against the
//! reference enumeration over randomized tables, beliefs, goals,
//! overhead reserves, and snapshot/restore cuts; the `runtime` benchmark
//! re-asserts lane-vs-enumerated equality on every run.

use crate::alert::ProbabilityMode;
use crate::config::{Candidate, ConfigTable, StagePoint};
use crate::goal::{Goal, Objective};
use crate::select::{
    better, energy_to_beat, latency_ok, other_ok, quality_threshold, Estimates,
    SelectionAccumulator, ENERGY_GUARD_PERCENTILE, QUALITY_GUARD_FRACTION,
};
use crate::Selection;
use alert_stats::normal::{inv_phi, Normal};
use alert_stats::units::{Seconds, Watts};

/// One flattened execution target.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    cand: Candidate,
    /// Profiled completion time of the target stage (`t^prof · frac_k`).
    t_stage: Seconds,
    p_run: Watts,
    cap: Watts,
    is_anytime: bool,
    fail_quality: f64,
    /// Precomputed [`QUALITY_GUARD_FRACTION`] span margin.
    guard: f64,
    /// Upper bound on every expected quality this target's estimate can
    /// compute ([`quality_ceiling`]).
    quality_ceiling: f64,
    /// First probability-memo slot of this candidate's `(model, power)`
    /// block; the block holds one slot per staircase stage.
    slot_base: u32,
}

/// The static fast-lane tables, built from a [`ConfigTable`] and
/// immutable afterwards, so one lane is shared by every controller over
/// that table ([`crate::alert::DecisionTables`]); per-decision mutable
/// state lives in each controller's [`LaneScratch`].
#[derive(Debug, Clone)]
pub struct CandidateLane {
    /// Every execution target, in exact table-enumeration order.
    entries: Vec<LaneEntry>,
    /// Stage-latency arena: per `(model, power)` block, the profiled
    /// completion time of every staircase stage (`t^prof_{i,j} · frac_s`,
    /// the exact product the reference path computes).
    stage_lat: Vec<Seconds>,
    /// Stage points aligned with `stage_lat`.
    stage_points: Vec<StagePoint>,
    /// Longest staircase (sizes the quality scratch buffer).
    max_stages: usize,
}

/// Reusable per-decision mutable state: the stage-probability memo, the
/// quality staging buffer, and the previous minimize-energy winner that
/// seeds the next decision's incumbent. Owned by the controller so
/// decisions allocate nothing.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    probs: Vec<f64>,
    stamp: Vec<u64>,
    generation: u64,
    quality_buf: Vec<f64>,
    /// Entry index of the most recent valid minimize-energy winner. A
    /// hint for scoring order only: any seed gives the same selection.
    seed: Option<u32>,
    /// Candidates the most recent decision scored.
    scored: usize,
}

impl LaneScratch {
    /// Scratch sized for `lane`.
    pub fn for_lane(lane: &CandidateLane) -> Self {
        LaneScratch {
            probs: vec![0.0; lane.stage_lat.len()],
            stamp: vec![0; lane.stage_lat.len()],
            generation: 0,
            quality_buf: vec![0.0; lane.max_stages],
            seed: None,
            scored: 0,
        }
    }

    /// Whether this scratch is sized for `lane`'s memo arena and quality
    /// staging.
    fn fits(&self, lane: &CandidateLane) -> bool {
        let slots = lane.stage_lat.len();
        self.probs.len() == slots
            && self.stamp.len() == slots
            && self.quality_buf.len() >= lane.max_stages
    }

    /// Candidates the most recent decision scored with Eq. 6/7/13 work
    /// (the rest were skipped as unable to win).
    pub(crate) fn scored(&self) -> usize {
        self.scored
    }

    /// Drops the seeded incumbent (episode reset, snapshot restore).
    pub(crate) fn forget_seed(&mut self) {
        self.seed = None;
    }
}

/// The inputs of one decision, shared by every candidate it scores.
#[derive(Clone, Copy)]
struct DecisionInputs<'a> {
    xi: &'a Normal,
    idle_ratio: f64,
    goal: &'a Goal,
    period: Seconds,
    mode: ProbabilityMode,
    /// The hoisted `Φ⁻¹` of the Eq. 12 bound; `None` when the bound is the
    /// mean energy.
    z_bound: Option<f64>,
}

impl CandidateLane {
    /// Flattens a candidate table.
    pub fn build(table: &ConfigTable) -> Self {
        let models = table.models();

        // Arena layout: (device, model, power)-major blocks of staircase
        // slots — device-major like the enumeration, so single-device
        // tables keep the historical layout bit-for-bit.
        let mut stage_lat = Vec::new();
        let mut stage_points = Vec::new();
        let mut slot_base: Vec<Vec<Vec<u32>>> = (0..table.device_count())
            .map(|d| vec![vec![0u32; table.powers_on(d).len()]; models.len()])
            .collect();
        for (d, per_model) in slot_base.iter_mut().enumerate() {
            for (i, m) in models.iter().enumerate() {
                for (j, base) in per_model[i].iter_mut().enumerate() {
                    *base = stage_lat.len() as u32;
                    let t_full = table.t_prof_on(d, i, j);
                    for s in &m.stages {
                        // The exact product `t_prof_stage` computes.
                        stage_lat.push(t_full * s.frac);
                        stage_points.push(*s);
                    }
                }
            }
        }

        // Entries in exact enumeration order (device → model → stage →
        // power).
        let mut entries = Vec::with_capacity(table.candidate_count());
        for c in table.candidates() {
            let m = &models[c.model];
            let base = slot_base[c.device][c.model][c.power];
            entries.push(LaneEntry {
                cand: c,
                t_stage: stage_lat[base as usize + c.stage],
                p_run: table.p_run_on(c.device, c.model, c.power),
                cap: table.cap_on(c.device, c.power),
                is_anytime: m.is_anytime(),
                fail_quality: m.fail_quality,
                guard: QUALITY_GUARD_FRACTION * (m.final_quality() - m.fail_quality),
                quality_ceiling: quality_ceiling(&m.stages[..=c.stage], m.fail_quality),
                slot_base: base,
            });
        }

        let max_stages = models.iter().map(|m| m.stages.len()).max().unwrap_or(1);
        CandidateLane {
            entries,
            stage_lat,
            stage_points,
            max_stages,
        }
    }

    /// Total execution targets.
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }

    /// Fast-lane counterpart of [`crate::select::select_with_period`]:
    /// same inputs, same output, bit for bit — enumeration runs over every
    /// entry with memoized stage probabilities and a hoisted `Φ⁻¹`, and a
    /// minimize-energy goal scores only the candidates that can still win
    /// (mechanism 2 of the module docs). A `scratch` sized for another
    /// lane is replaced by [`LaneScratch::for_lane`] first; a scratch is
    /// a memo and a scoring-order hint, so the selection is the same.
    ///
    /// # Errors
    ///
    /// Exactly the reference path's errors: goal-validation failure, or
    /// an empty candidate set.
    pub fn select_with_period(
        &self,
        scratch: &mut LaneScratch,
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
    ) -> Result<Selection, String> {
        goal.validate().map_err(|e| format!("invalid goal: {e}"))?;
        if !scratch.fits(self) {
            *scratch = LaneScratch::for_lane(self);
        }

        // Hoist the Eq. 12 standard-normal quantile: constant across
        // candidates within one decision.
        let z_bound = match mode {
            ProbabilityMode::Full if xi.std_dev() > 0.0 => Some(inv_phi(
                goal.prob_threshold.unwrap_or(ENERGY_GUARD_PERCENTILE),
            )),
            _ => None,
        };

        scratch.generation = scratch.generation.wrapping_add(1);
        let inputs = DecisionInputs {
            xi,
            idle_ratio,
            goal,
            period,
            mode,
            z_bound,
        };
        if let (Objective::MinimizeEnergy, Some(floor)) = (goal.objective, goal.min_quality) {
            if let Some((k, estimates)) = self.cheapest_valid(scratch, &inputs, floor) {
                scratch.seed = Some(k);
                return Ok(Selection {
                    candidate: self.entries[k as usize].cand,
                    estimates,
                    deadline: goal.deadline,
                    feasible: true,
                });
            }
            // Nothing is valid: the §4 fallbacks rank every candidate, so
            // run the full loop below. It shares this decision's memo
            // generation, so the probabilities already computed are
            // reused.
        }
        scratch.scored = self.entries.len();
        let mut acc = SelectionAccumulator::new();
        for e in &self.entries {
            let est = self.evaluate_entry(e, scratch, &inputs);
            acc.consider(e.cand, est, e.is_anytime, e.guard, goal);
        }
        acc.finish(goal)
    }

    /// The minimize-energy winner among the valid candidates (the
    /// reference's `best_valid`), scoring only the candidates that can
    /// still be it; `None` when no candidate is valid.
    ///
    /// Each skip is exact at the computed-f64 level (DESIGN.md §6,
    /// "Scoring only candidates that can win"):
    ///
    /// 1. *Quality ceiling* — an expected quality never exceeds the
    ///    entry's [`quality_ceiling`], so a ceiling below the floor plus
    ///    guard fails [`other_ok`].
    /// 2. *Mean latency* — a traditional target whose `t_stage · ξ̄` (the
    ///    same f64 expression as its estimate) exceeds the deadline fails
    ///    [`latency_ok`].
    /// 3. *Energy bound* — once a valid incumbent has a NaN-free key, a
    ///    candidate whose Eq. 9 energy (the same call
    ///    [`CandidateLane::evaluate_entry`] makes) is strictly above the
    ///    incumbent's loses to it in [`better`]
    ///    ([`energy_to_beat`]).
    ///
    /// The incumbent is seeded with the previous valid winner, scored
    /// first. An incumbent is replaced when the challenger is better, or
    /// when neither is better and the challenger enumerates earlier. That
    /// picks the earliest-enumerated minimum — the reference's rule, NaN
    /// keys included — whatever the scoring order.
    fn cheapest_valid(
        &self,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
        floor: f64,
    ) -> Option<(u32, Estimates)> {
        let DecisionInputs {
            xi,
            idle_ratio,
            goal,
            period,
            ..
        } = *inputs;
        let mut best: Option<(u32, Estimates)> = None;
        let mut to_beat: Option<f64> = None;
        let mut scored = 0;
        let n = self.entries.len() as u32;
        let seed = scratch.seed.filter(|&k| k < n);
        for k in seed.into_iter().chain((0..n).filter(|&k| Some(k) != seed)) {
            let e = &self.entries[k as usize];
            if e.quality_ceiling < quality_threshold(floor, e.guard) {
                continue;
            }
            if !e.is_anytime
                && crate::latency::predict_mean(xi, e.t_stage).get() > goal.deadline.get()
            {
                continue;
            }
            if let Some(limit) = to_beat {
                let energy = crate::energy::estimate_energy(
                    xi, e.t_stage, e.p_run, e.cap, idle_ratio, period,
                );
                if energy.get() > limit {
                    continue;
                }
            }
            scored += 1;
            let est = self.evaluate_entry(e, scratch, inputs);
            if !(latency_ok(e.is_anytime, e.cand.stage, &est, goal)
                && other_ok(e.guard, &est, goal))
            {
                continue;
            }
            let replace = match &best {
                None => true,
                Some((b, inc)) => better(goal, &est, inc) || (!better(goal, inc, &est) && k < *b),
            };
            if replace {
                to_beat = energy_to_beat(&est);
                best = Some((k, est));
            }
        }
        scratch.scored = scored;
        best
    }

    /// Per-candidate estimates, arithmetically identical to
    /// [`crate::select::evaluate`] (same leaf functions, same operand
    /// order), with stage probabilities memoized across candidates.
    fn evaluate_entry(
        &self,
        e: &LaneEntry,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
    ) -> Estimates {
        let DecisionInputs {
            xi,
            idle_ratio,
            goal,
            period,
            mode,
            z_bound,
        } = *inputs;
        let LaneScratch {
            probs,
            stamp,
            generation,
            quality_buf,
            ..
        } = scratch;
        let generation = *generation;
        let deadline = goal.deadline;
        let base = e.slot_base as usize;
        let n_stages = e.cand.stage + 1;

        let mean_latency = crate::latency::predict_mean(xi, e.t_stage);
        let pr_deadline = match mode {
            ProbabilityMode::Full => slot_prob(
                &self.stage_lat,
                probs,
                stamp,
                generation,
                base + e.cand.stage,
                xi,
                deadline,
            ),
            ProbabilityMode::MeanOnly => {
                if mean_latency.get() <= deadline.get() {
                    1.0
                } else {
                    0.0
                }
            }
        };
        let expected_quality = match mode {
            ProbabilityMode::Full => {
                for (s, q) in quality_buf.iter_mut().enumerate().take(n_stages) {
                    *q = slot_prob(
                        &self.stage_lat,
                        probs,
                        stamp,
                        generation,
                        base + s,
                        xi,
                        deadline,
                    );
                }
                crate::quality::expected_quality_from_probs(
                    &self.stage_points[base..base + n_stages],
                    e.fail_quality,
                    &mut quality_buf[..n_stages],
                )
            }
            ProbabilityMode::MeanOnly => crate::quality::mean_only_quality_over(
                self.stage_lat[base..base + n_stages]
                    .iter()
                    .zip(&self.stage_points[base..base + n_stages])
                    .map(|(&t, s)| (t, s.quality)),
                e.fail_quality,
                xi.mean(),
                deadline,
            ),
        };
        let energy =
            crate::energy::estimate_energy(xi, e.t_stage, e.p_run, e.cap, idle_ratio, period);
        let energy_bound = match z_bound {
            Some(z) => {
                let t_pct = crate::latency::percentile_latency_with_z(xi, e.t_stage, z);
                crate::energy::estimate_energy_at(t_pct, e.p_run, e.cap, idle_ratio, period)
            }
            None => energy,
        };
        Estimates {
            mean_latency,
            pr_deadline,
            expected_quality,
            energy,
            energy_bound,
        }
    }
}

/// An upper bound on every expected quality [`crate::quality`] computes
/// for a target running `stages` (its staircase up to the target stage)
/// with fallback `fail_quality`, in either probability mode.
///
/// Eqs. 7/13 mix these k+2 qualities (k = target stage) with weights
/// `p_s − p_{s+1}` and `1 − p_0`, where the `p_s` are CDF values in
/// [0, 1] clamped non-increasing, so the weights are non-negative and sum
/// to one and the exact mixture is at most the largest quality. Rounding
/// the k+2 weights, the k+2 products and the k+1 additions adds at most
/// (k+3)·u·max|q| with u = ε/2 (ε = [`f64::EPSILON`]), plus
/// second-order terms. The allowance (k+4)·ε·max|q| is over twice that,
/// which also covers the rounding of the sum returned here. It is a few
/// 1e-15 of a quality; quality gaps in the model zoo are ≥ 1e-3, so it
/// costs no skips. Mean-only estimates return one of the qualities
/// exactly. `f64::max` skips NaN qualities, which is safe: an estimate
/// a NaN enters is NaN and fails every floor, and any other estimate is
/// bounded by the remaining qualities.
fn quality_ceiling(stages: &[StagePoint], fail_quality: f64) -> f64 {
    let (max, max_abs) = stages
        .iter()
        .map(|s| s.quality)
        .chain([fail_quality])
        .fold((f64::NEG_INFINITY, 0.0f64), |(max, max_abs), q| {
            (max.max(q), max_abs.max(q.abs()))
        });
    max + (stages.len() + 3) as f64 * f64::EPSILON * max_abs
}

/// Lazily computed, per-decision-memoized stage-completion probability
/// (paper Eq. 6) for one arena slot.
fn slot_prob(
    stage_lat: &[Seconds],
    probs: &mut [f64],
    stamp: &mut [u64],
    generation: u64,
    slot: usize,
    xi: &Normal,
    deadline: Seconds,
) -> f64 {
    if stamp[slot] != generation {
        probs[slot] = crate::latency::deadline_probability(xi, stage_lat[slot], deadline);
        stamp[slot] = generation;
    }
    probs[slot]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidateModel;
    use crate::select::select_with_period;
    use alert_stats::units::Joules;

    /// A table with deliberate cap-response saturation: the two top caps
    /// share identical profiled latencies and run power, so their
    /// estimates tie in everything but the cap's idle energy.
    fn saturated_table() -> ConfigTable {
        let models = vec![
            CandidateModel::traditional("small", 0.86, 0.005),
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
        let powers = vec![Watts(20.0), Watts(40.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.040), Seconds(0.020), Seconds(0.020)],
            vec![Seconds(0.240), Seconds(0.120), Seconds(0.120)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(38.0), Watts(38.0)],
            vec![Watts(19.0), Watts(39.0), Watts(39.0)],
        ];
        ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
    }

    #[test]
    fn lane_matches_reference_on_saturated_table() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        let mut scratch = LaneScratch::for_lane(&lane);
        for (mean, std) in [(1.0, 0.02), (1.6, 0.3), (0.8, 0.0)] {
            let xi = Normal::new(mean, std);
            for goal in [
                Goal::minimize_energy(Seconds(0.15), 0.9),
                Goal::minimize_error(Seconds(0.15), Joules(2.0)),
                Goal::minimize_error(Seconds(0.01), Joules(1e-7)),
            ] {
                for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                    let fast = lane
                        .select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode)
                        .unwrap();
                    let full =
                        select_with_period(&t, &xi, 0.25, &goal, goal.deadline, mode).unwrap();
                    assert_eq!(fast, full, "mean={mean} std={std} {goal:?} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn thresholds_below_half_match_reference() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        let mut scratch = LaneScratch::for_lane(&lane);
        let xi = Normal::new(1.0, 0.2);
        // Pr_th below ½ gives a negative Eq. 12 quantile; the lane must
        // still match the reference bit for bit.
        let goal = Goal::minimize_error(Seconds(0.15), Joules(2.0)).with_prob_threshold(0.2);
        let fast = lane
            .select_with_period(
                &mut scratch,
                &xi,
                0.25,
                &goal,
                goal.deadline,
                ProbabilityMode::Full,
            )
            .unwrap();
        let full =
            select_with_period(&t, &xi, 0.25, &goal, goal.deadline, ProbabilityMode::Full).unwrap();
        assert_eq!(fast, full);
    }

    /// The saturated table extended with a GPU-like device whose grid
    /// *repeats the CPU numbers bit-for-bit*: every latency chain
    /// collides across devices, so each tie must go to the earlier
    /// device, as in the reference.
    fn two_device_table() -> ConfigTable {
        let mut t = saturated_table();
        let powers = vec![Watts(20.0), Watts(40.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.040), Seconds(0.020), Seconds(0.020)],
            vec![Seconds(0.240), Seconds(0.120), Seconds(0.120)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(38.0), Watts(38.0)],
            vec![Watts(19.0), Watts(39.0), Watts(39.0)],
        ];
        t.add_device("GPU", powers, t_prof, p_run)
            .expect("valid grid");
        t
    }

    #[test]
    fn two_device_lane_matches_reference() {
        let t = two_device_table();
        let lane = CandidateLane::build(&t);
        let mut scratch = LaneScratch::for_lane(&lane);
        for (mean, std) in [(1.0, 0.02), (1.6, 0.3), (0.8, 0.0)] {
            let xi = Normal::new(mean, std);
            for goal in [
                Goal::minimize_energy(Seconds(0.15), 0.9),
                Goal::minimize_error(Seconds(0.15), Joules(2.0)),
                Goal::minimize_error(Seconds(0.01), Joules(1e-7)),
            ] {
                for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                    let fast = lane
                        .select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode)
                        .unwrap();
                    let full =
                        select_with_period(&t, &xi, 0.25, &goal, goal.deadline, mode).unwrap();
                    assert_eq!(fast, full, "mean={mean} std={std} {goal:?} {mode:?}");
                }
            }
        }
    }
}
