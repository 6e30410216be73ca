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
//!    profile terms (`t^prof` stage latencies, run power, cap, run
//!    energy, staircase) are flattened at construction into a
//!    cache-friendly structure-of-arrays, so a decision does no
//!    nested-`Vec` chasing. The power settings of one
//!    `(device, model, stage)` *row* are contiguous in enumeration
//!    order and share their quality guard, quality ceiling, anytime flag
//!    and fallback quality, so the lane stores those once per row.
//!    Stage-completion probabilities are *memoized per decision* across
//!    sibling candidates (the stage-`k` target probability of `(i, k, j)`
//!    is the same number as stage `k` of `(i, k+1, j)`'s staircase), and
//!    the `Φ⁻¹(Pr_th)` of the Eq. 12 energy bound — constant across
//!    candidates — is computed once per threshold and kept in the
//!    [`LaneScratch`] across decisions
//!    ([`crate::latency::percentile_latency_with_z`]). Every reused value
//!    is produced by the *same* floating-point expression as the
//!    reference path, so sharing cannot change a bit.
//! 2. **Scoring only candidates that can win** — under
//!    [`Objective::MinimizeEnergy`] a decision skips every row whose best
//!    reachable quality cannot clear the floor, walks each other row in
//!    ascending profiled run energy, and stops the row once a rounding-safe
//!    lower bound on its Eq. 9 energy exceeds a valid incumbent's. A
//!    visited candidate gets no Eq. 6/7/13 work when it is traditional
//!    and its mean latency misses the deadline, or when its Eq. 9 energy
//!    is strictly above the incumbent's. The previous decision's
//!    winner is scored first so the energy bounds bite from the start,
//!    and incumbents are compared index-aware, so the earliest-enumerated
//!    minimum wins as in the reference, whatever the visiting order. With
//!    no valid candidate the full loop runs, and the §4 fallbacks come
//!    out unchanged (see [`CandidateLane::select_with_period`] and
//!    DESIGN.md §6).
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
use std::ops::{Range, RangeInclusive};

/// The operand range the run-energy stop's proof covers: a run power or
/// stage latency outside it keeps its entry out of the stop
/// ([`run_energy_key`]), and a belief mean `ξ̄` outside it turns the
/// stop off for the decision. Every product of up to three such factors
/// lies within [1e-90, 1e90], far inside f64's normal range, so each of
/// their roundings is relative ([`STOP_FACTOR`]).
const STOP_RANGE: RangeInclusive<f64> = 1e-30..=1e30;

/// `1 − 4ε` (ε = [`f64::EPSILON`]): the rounding allowance of the
/// run-energy stop in [`CandidateLane::cheapest_valid`].
///
/// Eq. 9 computes `fl(fl(p_run · fl(t_stage · ξ̄)) + idle)`. With a
/// non-negative cap and φ the idle term is non-negative, so the energy
/// is at least `fl(p_run · fl(t_stage · ξ̄))`, or NaN, which never beats
/// a NaN-free incumbent. With u = ε/2 and every operand in
/// [`STOP_RANGE`], that is at least `P·(1 − u)²` for the exact
/// `P = p_run · t_stage · ξ̄`, while the stop's bound
/// `fl(fl(r · ξ̄) · (1 − 8u))`, with `r = fl(p_run · t_stage)`, is at
/// most `P·(1 + u)³·(1 − 8u)`. Since `(1 − u)² / (1 + u)³ > 1 − 8u`,
/// the bound is strictly below the energy. Rounding is monotone, so the
/// bound never decreases along a row walked in ascending `r`.
const STOP_FACTOR: f64 = 1.0 - 4.0 * f64::EPSILON;

/// One flattened execution target.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    cand: Candidate,
    /// Profiled completion time of the target stage (`t^prof · frac_k`).
    t_stage: Seconds,
    p_run: Watts,
    cap: Watts,
    /// The key its row is walked in ([`run_energy_key`]).
    run_energy: f64,
    /// Index of the entry's row.
    row: u32,
    /// First probability-memo slot of this candidate's `(model, power)`
    /// block; the block holds one slot per staircase stage.
    slot_base: u32,
}

/// One `(device, model, stage)` row: the power settings of one target,
/// contiguous in enumeration order, and the model facts they share.
#[derive(Debug, Clone, Copy)]
struct LaneRow {
    /// First entry of the row.
    start: u32,
    /// One past its last entry.
    end: u32,
    is_anytime: bool,
    fail_quality: f64,
    /// Precomputed [`QUALITY_GUARD_FRACTION`] span margin.
    guard: f64,
    /// Upper bound on every expected quality the row's estimates can
    /// compute ([`quality_ceiling`]).
    quality_ceiling: f64,
}

impl LaneRow {
    /// The row's entry indices.
    fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// The static fast-lane tables, built from a [`ConfigTable`] and
/// immutable afterwards, so one lane is shared by every controller over
/// that table ([`crate::alert::DecisionTables`]); per-decision mutable
/// state lives in each controller's [`LaneScratch`].
#[derive(Debug, Clone)]
pub struct CandidateLane {
    /// Every execution target, in exact table-enumeration order.
    entries: Vec<LaneEntry>,
    /// The `(device, model, stage)` rows, in enumeration order.
    rows: Vec<LaneRow>,
    /// Over each row's index range, that row's entry indices in ascending
    /// run energy, ties in enumeration order.
    cheapest_first: Vec<u32>,
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
/// quality staging buffer, the `Φ⁻¹` of the latest Eq. 12 threshold, and
/// the previous minimize-energy winner that seeds the next decision's
/// incumbent. Owned by the controller so decisions allocate nothing.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    probs: Vec<f64>,
    stamp: Vec<u64>,
    generation: u64,
    quality_buf: Vec<f64>,
    /// `(threshold bits, Φ⁻¹(threshold))` of the latest Eq. 12 bound. A
    /// pure function of its key, so it never needs invalidating.
    z_memo: Option<(u64, f64)>,
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
            z_memo: None,
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

    /// `Φ⁻¹(pr)`, computed only when `pr` differs from the previous
    /// threshold.
    fn memo_inv_phi(&mut self, pr: f64) -> f64 {
        let key = pr.to_bits();
        match self.z_memo {
            Some((k, z)) if k == key => z,
            _ => {
                let z = inv_phi(pr);
                self.z_memo = Some((key, z));
                z
            }
        }
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
    /// The Eq. 12 `Φ⁻¹`; `None` when the bound is the mean energy.
    z_bound: Option<f64>,
}

/// The running winner of [`CandidateLane::cheapest_valid`].
#[derive(Default)]
struct Incumbent {
    best: Option<(u32, Estimates)>,
    /// The energy a challenger must not exceed ([`energy_to_beat`]).
    to_beat: Option<f64>,
    scored: usize,
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
        // power). Power is the innermost axis, so every power-0 target
        // opens the next row.
        let mut entries = Vec::with_capacity(table.candidate_count());
        let mut rows: Vec<LaneRow> = Vec::new();
        for c in table.candidates() {
            let m = &models[c.model];
            if c.power == 0 {
                let start = entries.len() as u32;
                rows.push(LaneRow {
                    start,
                    end: start,
                    is_anytime: m.is_anytime(),
                    fail_quality: m.fail_quality,
                    guard: QUALITY_GUARD_FRACTION * (m.final_quality() - m.fail_quality),
                    quality_ceiling: quality_ceiling(&m.stages[..=c.stage], m.fail_quality),
                });
            }
            let Some(row) = rows.last_mut() else {
                continue; // unreachable: the first target has power 0
            };
            row.end += 1;
            let base = slot_base[c.device][c.model][c.power];
            let t_stage = stage_lat[base as usize + c.stage];
            let p_run = table.p_run_on(c.device, c.model, c.power);
            let cap = table.cap_on(c.device, c.power);
            entries.push(LaneEntry {
                cand: c,
                t_stage,
                p_run,
                cap,
                run_energy: run_energy_key(t_stage, p_run, cap),
                row: rows.len() as u32 - 1,
                slot_base: base,
            });
        }

        let mut cheapest_first: Vec<u32> = (0..entries.len() as u32).collect();
        for row in &rows {
            // A stable sort, so equal keys keep enumeration order.
            cheapest_first[row.range()].sort_by(|&a, &b| {
                let key = |k: u32| entries[k as usize].run_energy;
                key(a).total_cmp(&key(b))
            });
        }

        let max_stages = models.iter().map(|m| m.stages.len()).max().unwrap_or(1);
        CandidateLane {
            entries,
            rows,
            cheapest_first,
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
    /// entry with memoized stage probabilities and a memoized `Φ⁻¹`, and a
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

        // The Eq. 12 standard-normal quantile: constant across
        // candidates, and across decisions at the same threshold.
        let z_bound = match mode {
            ProbabilityMode::Full if xi.std_dev() > 0.0 => {
                Some(scratch.memo_inv_phi(goal.prob_threshold.unwrap_or(ENERGY_GUARD_PERCENTILE)))
            }
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
        for row in &self.rows {
            for e in &self.entries[row.range()] {
                let est = self.evaluate_entry(e, row, scratch, &inputs);
                acc.consider(e.cand, est, row.is_anytime, row.guard, goal);
            }
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
    /// 1. *Row skip* — an expected quality never exceeds its row's
    ///    [`quality_ceiling`], so a row whose ceiling is below the floor
    ///    plus guard fails [`other_ok`] at every power setting.
    /// 2. *Mean latency* — a traditional target whose `t_stage · ξ̄` (the
    ///    same f64 expression as its estimate) exceeds the deadline fails
    ///    [`latency_ok`].
    /// 3. *Run-energy stop* — each row is walked in ascending
    ///    [`run_energy_key`] `r`. Once a valid incumbent has a NaN-free
    ///    key and energy `E*`, the walk leaves the row at the first entry
    ///    with `fl(fl(r · ξ̄) · (1 − 4ε)) > E*`: that entry's Eq. 9 energy
    ///    and every later one's are strictly above `E*` ([`STOP_FACTOR`]),
    ///    so they lose to the incumbent in [`better`] both ways round.
    /// 4. *Energy bound* — a candidate whose Eq. 9 energy (the same call
    ///    [`CandidateLane::evaluate_entry`] makes) is strictly above the
    ///    incumbent's loses to it likewise ([`energy_to_beat`]).
    ///
    /// The incumbent is seeded with the previous valid winner, scored
    /// first. An incumbent is replaced when the challenger is better, or
    /// when neither is better and the challenger enumerates earlier. That
    /// picks the earliest-enumerated minimum — the reference's rule, NaN
    /// keys included — whatever the visiting order.
    fn cheapest_valid(
        &self,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
        floor: f64,
    ) -> Option<(u32, Estimates)> {
        let xi_mean = inputs.xi.mean();
        // Rule 3's proof needs ξ̄ in range and φ ≥ 0.
        let stop = STOP_RANGE.contains(&xi_mean) && inputs.idle_ratio >= 0.0;
        let skip_row = |row: &LaneRow| row.quality_ceiling < quality_threshold(floor, row.guard);
        let mut inc = Incumbent::default();
        let seed = scratch.seed.filter(|&k| (k as usize) < self.entries.len());
        if let Some(k) = seed {
            let row = &self.rows[self.entries[k as usize].row as usize];
            if !skip_row(row) {
                self.offer(k, row, &mut inc, scratch, inputs);
            }
        }
        for row in self.rows.iter().filter(|row| !skip_row(row)) {
            for &k in &self.cheapest_first[row.range()] {
                if let (true, Some(limit)) = (stop, inc.to_beat) {
                    if self.entries[k as usize].run_energy * xi_mean * STOP_FACTOR > limit {
                        break;
                    }
                }
                if Some(k) != seed {
                    self.offer(k, row, &mut inc, scratch, inputs);
                }
            }
        }
        scratch.scored = inc.scored;
        inc.best
    }

    /// Entry `k` (of `row`) against the incumbent: skipped by rules 2 and
    /// 4 of [`CandidateLane::cheapest_valid`], otherwise scored, and kept
    /// when it is valid and wins.
    fn offer(
        &self,
        k: u32,
        row: &LaneRow,
        inc: &mut Incumbent,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
    ) {
        let DecisionInputs {
            xi,
            idle_ratio,
            goal,
            period,
            ..
        } = *inputs;
        let e = &self.entries[k as usize];
        if !row.is_anytime
            && crate::latency::predict_mean(xi, e.t_stage).get() > goal.deadline.get()
        {
            return;
        }
        if let Some(limit) = inc.to_beat {
            let energy =
                crate::energy::estimate_energy(xi, e.t_stage, e.p_run, e.cap, idle_ratio, period);
            if energy.get() > limit {
                return;
            }
        }
        inc.scored += 1;
        let est = self.evaluate_entry(e, row, scratch, inputs);
        if !(latency_ok(row.is_anytime, e.cand.stage, &est, goal)
            && other_ok(row.guard, &est, goal))
        {
            return;
        }
        let replace = match &inc.best {
            None => true,
            Some((b, cur)) => better(goal, &est, cur) || (!better(goal, cur, &est) && k < *b),
        };
        if replace {
            inc.to_beat = energy_to_beat(&est);
            inc.best = Some((k, est));
        }
    }

    /// Per-candidate estimates, arithmetically identical to
    /// [`crate::select::evaluate`] (same leaf functions, same operand
    /// order), with stage probabilities memoized across candidates.
    fn evaluate_entry(
        &self,
        e: &LaneEntry,
        row: &LaneRow,
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
                    row.fail_quality,
                    &mut quality_buf[..n_stages],
                )
            }
            ProbabilityMode::MeanOnly => crate::quality::mean_only_quality_over(
                self.stage_lat[base..base + n_stages]
                    .iter()
                    .zip(&self.stage_points[base..base + n_stages])
                    .map(|(&t, s)| (t, s.quality)),
                row.fail_quality,
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

/// The key a row is walked in: the entry's profiled run energy
/// `p_run · t_stage`, or `−∞` where the run-energy stop's proof does not
/// cover the entry ([`STOP_FACTOR`]) — a negative or NaN cap, whose idle
/// term could be negative, or a run power or stage latency outside
/// [`STOP_RANGE`]. A `−∞` key sorts first and its bound exceeds no
/// energy, so such an entry is always visited and never stops its row.
fn run_energy_key(t_stage: Seconds, p_run: Watts, cap: Watts) -> f64 {
    let covered = cap.get() >= 0.0
        && STOP_RANGE.contains(&p_run.get())
        && STOP_RANGE.contains(&t_stage.get());
    if covered {
        (p_run * t_stage).get()
    } else {
        f64::NEG_INFINITY
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
