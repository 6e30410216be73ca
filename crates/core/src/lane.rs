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
//!    lower bound on its Eq. 9 energy exceeds a valid incumbent's. The
//!    bound is the run term plus a floor on the idle term that holds for
//!    the whole row, so on a fast, high-cap device, where the idle term
//!    is most of the energy, a row that cannot win is left after one
//!    compare. A visited candidate gets no Eq. 6/7/13 work when it is
//!    traditional and its mean latency misses the deadline, or when its
//!    Eq. 9 energy is strictly above the incumbent's. The previous
//!    decision's
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
    SelectionAccumulator, EMPTY_TABLE, ENERGY_GUARD_PERCENTILE, QUALITY_GUARD_FRACTION,
};
use crate::Selection;
use alert_stats::normal::{inv_phi, Normal};
use alert_stats::units::{Seconds, Watts};
use std::ops::{Range, RangeInclusive};

/// The operand range the run-energy stop's proof covers: a run power or
/// stage latency outside it keeps its entry out of the stop
/// ([`run_energy_key`]), and a belief mean `ξ̄` outside it turns the
/// stop off for the decision. A cap outside it keeps its row's idle
/// floor at 0, and so does a φ or a period outside it for the decision
/// ([`LaneRow::idle_floor`]). Every product of up to three such factors
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
/// the bound is strictly below the energy, by more than `3u·P`. Rounding
/// is monotone, so the bound never decreases along a row walked in
/// ascending `r`.
const STOP_FACTOR: f64 = 1.0 - 4.0 * f64::EPSILON;

/// `8ε`: the rounding allowance of a row's idle floor
/// ([`LaneRow::idle_floor`]), as a share of `φ·(c_min·T + ξ̄·m_max)`.
///
/// Eq. 9's idle term for entry `k` is
/// `I_k = fl(fl(c_k · φ) · max(0, fl(T − fl(t_k · ξ̄))))`. With
/// `A = c_min·T` and `B = ξ̄·M`, `M` the exact largest `c_k·t_k` of the
/// row, every operand in [`STOP_RANGE`] and u = ε/2, each rounding of
/// `I_k` is relative except the last product's, which can underflow by
/// at most `η = 2⁻¹⁰⁷⁵`, so `I_k ≥ (1 − u)³·φ·(A − (1 + u)·B) − η`: for
/// `fl(T − fl(t_k · ξ̄)) > 0` since `c_k·T ≥ A` and `ξ̄·c_k·t_k ≤ B`, and
/// otherwise since `I_k = 0` and `A − (1 + u)·B ≤ 0`. The floor computes
/// `fl(φ · fl(fl(g − h) − fl(8ε · fl(g + h))))` from `g = fl(c_min·T)`
/// and `h = fl(ξ̄·m_max)`, where `m_max`, the largest computed `c_k·t_k`,
/// is within a factor `1 ± u` of `M`. The difference `g − h` can cancel,
/// so its error is bounded against `A + B`, not against `A − B`: where
/// the floor is positive it is at most
/// `(1 + u)²·φ·((1 + u)²·A − (1 − 3u − u² − u³)·B − K·(1 − u)³·(A + B)) + η`,
/// which is at most `(1 − u)³·φ·(A − (1 + u)·B) + η` once
/// `K ≥ ((1 + u)⁴ − (1 − u)³) / ((1 + u)²·(1 − u)³) ≈ 7u`. `K = 8ε = 16u`
/// is over twice that, so the floor is at most `I_k + 2η` for every entry
/// of the row. The run part of the stop's bound is below the computed run
/// energy by more than `3u·P ≥ 3u·10⁻⁹⁰` ([`STOP_FACTOR`]), which dwarfs
/// `2η`, so the bound's exact sum is below the energy's, and rounding is
/// monotone. A larger allowance only lowers the floor, so it can cost
/// skips, never a selection.
const IDLE_FLOOR_SLACK: f64 = 8.0 * f64::EPSILON;

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
    /// The smallest cap of the row, `c_min` of its idle floor, or 0 where
    /// the floor does not cover the row ([`LaneRow::idle_floor`]).
    cap_min: f64,
    /// The largest computed `cap · t_stage` of the row, `m_max` of its
    /// idle floor, or 0 where the floor does not cover the row.
    cap_time_max: f64,
}

impl LaneRow {
    /// The row's entry indices.
    fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// A lower bound on the Eq. 9 idle term `φ·c_k·max(0, T − ξ̄·t_k)` of
    /// every entry `k` of the row: `φ·max(0, c_min·T − ξ̄·m_max)`, since
    /// `c_k·T ≥ c_min·T` and `c_k·t_k ≤ m_max`, less the allowance
    /// [`IDLE_FLOOR_SLACK`] derives. It is constant along the row, so the
    /// stop's bound stays monotone. 0 where the proof does not cover the
    /// row (a `−∞` key or a cap outside [`STOP_RANGE`] leaves `c_min` and
    /// `m_max` at 0) or the decision (φ or `T` outside [`STOP_RANGE`]).
    fn idle_floor(&self, xi_mean: f64, idle_ratio: f64, period: Seconds) -> f64 {
        if !(STOP_RANGE.contains(&idle_ratio) && STOP_RANGE.contains(&period.get())) {
            return 0.0;
        }
        let g = self.cap_min * period.get();
        let h = xi_mean * self.cap_time_max;
        // `f64::max` maps a NaN (from an overflow) to 0.
        (idle_ratio * ((g - h) - IDLE_FLOOR_SLACK * (g + h))).max(0.0)
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
                    cap_min: 0.0,
                    cap_time_max: 0.0,
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

        for row in &mut rows {
            let members = &entries[row.range()];
            let covered = members
                .iter()
                .all(|e| e.run_energy > f64::NEG_INFINITY && STOP_RANGE.contains(&e.cap.get()));
            if covered {
                row.cap_min = members
                    .iter()
                    .map(|e| e.cap.get())
                    .fold(f64::INFINITY, f64::min);
                row.cap_time_max = members
                    .iter()
                    .map(|e| (e.cap * e.t_stage).get())
                    .fold(0.0, f64::max);
            }
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

    /// Each `(device, model, stage)` row's cheapest target in profiled
    /// run energy, with the minimize-energy pass's lower bound on the
    /// Eq. 9 energy of every target of the row at belief mean `xi_mean`,
    /// idle ratio `idle_ratio` and period `period`: the run-energy stop's
    /// bound at that target, the row's idle floor included (mechanism 2 of
    /// the module docs). Once a valid incumbent costs less, the pass
    /// leaves the row after one compare. `−∞` where the stop does not
    /// run. Diagnostics: a decision computes the same values.
    pub fn row_energy_bounds(
        &self,
        xi_mean: f64,
        idle_ratio: f64,
        period: Seconds,
    ) -> impl Iterator<Item = (Candidate, f64)> + '_ {
        let stop = stops(xi_mean, idle_ratio);
        self.rows.iter().map(move |row| {
            let cheapest = &self.entries[self.cheapest_first[row.start as usize] as usize];
            let bound = if stop {
                let floor = row.idle_floor(xi_mean, idle_ratio, period);
                stop_bound(cheapest.run_energy, xi_mean, floor)
            } else {
                f64::NEG_INFINITY
            };
            (cheapest.cand, bound)
        })
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
        self.select::<true>(scratch, xi, idle_ratio, goal, period, mode)?
            .ok_or_else(|| EMPTY_TABLE.to_string())
    }

    /// The valid winner alone: `Some` of exactly the selection
    /// [`CandidateLane::select_with_period`] returns when that selection
    /// is `feasible`, `None` when no candidate is valid. The §4 fallbacks
    /// are never ranked, so a minimize-energy decision with nothing valid
    /// ends after the pass that looks for the winner.
    ///
    /// # Errors
    ///
    /// Goal-validation failure.
    pub fn select_valid_with_period(
        &self,
        scratch: &mut LaneScratch,
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
    ) -> Result<Option<Selection>, String> {
        self.select::<false>(scratch, xi, idle_ratio, goal, period, mode)
    }

    /// The body of both selections. With no valid candidate, `RANK` ranks
    /// the §4 fallbacks and the decision returns their pick; `None` then
    /// means no candidate was offered at all. Without `RANK` it returns
    /// `None`.
    pub(crate) fn select<const RANK: bool>(
        &self,
        scratch: &mut LaneScratch,
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
    ) -> Result<Option<Selection>, String> {
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
                return Ok(Some(Selection {
                    candidate: self.entries[k as usize].cand,
                    estimates,
                    deadline: goal.deadline,
                    feasible: true,
                }));
            }
            if !RANK {
                return Ok(None);
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
        Ok(acc.finish(goal, RANK))
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
    ///    whose [`stop_bound`] `fl(fl(fl(r · ξ̄) · (1 − 4ε)) + F)` is above
    ///    `E*`, with `F` the row's [`LaneRow::idle_floor`], computed once
    ///    per row and decision: that entry's Eq. 9 energy and every later
    ///    one's are strictly above `E*` ([`STOP_FACTOR`],
    ///    [`IDLE_FLOOR_SLACK`]), so they lose to the incumbent in
    ///    [`better`] both ways round. A row whose first entry fails is
    ///    left after one compare.
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
        let DecisionInputs {
            xi,
            idle_ratio,
            period,
            ..
        } = *inputs;
        let xi_mean = xi.mean();
        let stop = stops(xi_mean, idle_ratio);
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
            let mut idle_floor = None;
            for &k in &self.cheapest_first[row.range()] {
                if let (true, Some(limit)) = (stop, inc.to_beat) {
                    let floor = *idle_floor
                        .get_or_insert_with(|| row.idle_floor(xi_mean, idle_ratio, period));
                    if stop_bound(self.entries[k as usize].run_energy, xi_mean, floor) > limit {
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

/// Whether a decision at belief mean `xi_mean` and idle ratio
/// `idle_ratio` runs the run-energy stop: its proof needs ξ̄ in
/// [`STOP_RANGE`] and φ ≥ 0.
fn stops(xi_mean: f64, idle_ratio: f64) -> bool {
    STOP_RANGE.contains(&xi_mean) && idle_ratio >= 0.0
}

/// Rule 3's lower bound on the Eq. 9 energy of an entry with run-energy
/// key `run_energy` in a row whose idle floor is `idle_floor`
/// ([`STOP_FACTOR`], [`IDLE_FLOOR_SLACK`]). Non-decreasing in
/// `run_energy`.
fn stop_bound(run_energy: f64, xi_mean: f64, idle_floor: f64) -> f64 {
    run_energy * xi_mean * STOP_FACTOR + idle_floor
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

    proptest::proptest! {
        /// Rule 3's bound, idle floor included, never exceeds the
        /// computed Eq. 9 energy of any entry of its row, and the floor
        /// alone never exceeds the entry's idle term. Rows, beliefs, φ
        /// (0 and 1 included) and periods are random; the periods run
        /// from 0 to three times the row's longest mean latency, and one
        /// equals an entry's mean latency, so its idle time cancels to 0.
        #[test]
        fn the_idle_floor_never_exceeds_an_entry_energy(
            raw in proptest::collection::vec(0.0f64..1.0, 48..64),
        ) {
            use crate::energy::estimate_energy;
            let mut draws = raw.iter().cycle().copied();
            let mut draw = |lo: f64, hi: f64| lo + draws.next().unwrap_or(0.5) * (hi - lo);
            let n_powers = 1 + (draw(0.0, 4.0) as usize).min(3);
            let n_models = 1 + (draw(0.0, 3.0) as usize).min(2);
            let mut cap = draw(1.0, 50.0);
            let caps: Vec<Watts> = (0..n_powers)
                .map(|_| {
                    let c = Watts(cap);
                    cap *= draw(1.05, 4.0);
                    c
                })
                .collect();
            let t_prof = (0..n_models)
                .map(|_| (0..n_powers).map(|_| Seconds(draw(1e-4, 2.0))).collect())
                .collect();
            let p_run = (0..n_models)
                .map(|_| caps.iter().map(|&c| c * draw(0.05, 1.0)).collect())
                .collect();
            let models = (0..n_models)
                .map(|m| CandidateModel::traditional(format!("m{m}"), 0.9, 0.0))
                .collect();
            let table = ConfigTable::new(models, caps, t_prof, p_run).expect("valid table");
            let lane = CandidateLane::build(&table);
            for _ in 0..8 {
                let xi = Normal::new(draw(0.05, 5.0), 0.1);
                let phi = match draw(0.0, 4.0) as usize {
                    0 => 0.0,
                    1 => 1.0,
                    _ => draw(0.0, 1.0),
                };
                for row in &lane.rows {
                    let entries = &lane.entries[row.range()];
                    let latency = |e: &LaneEntry| crate::latency::predict_mean(&xi, e.t_stage);
                    let longest = entries.iter().map(|e| latency(e).get()).fold(0.0, f64::max);
                    let pick = (draw(0.0, entries.len() as f64) as usize).min(entries.len() - 1);
                    for period in [Seconds(longest * draw(0.0, 3.0)), latency(&entries[pick])] {
                        let floor = row.idle_floor(xi.mean(), phi, period);
                        for e in entries {
                            let eq9 = |p| estimate_energy(&xi, e.t_stage, p, e.cap, phi, period);
                            // With no run power, Eq. 9 is the idle term alone.
                            let (energy, idle) = (eq9(e.p_run).get(), eq9(Watts(0.0)).get());
                            let bound = stop_bound(e.run_energy, xi.mean(), floor);
                            let at = format!("{e:?} ξ̄ {} φ {phi} T {period}", xi.mean());
                            proptest::prop_assert!(floor <= idle, "floor {floor} > {idle}: {at}");
                            proptest::prop_assert!(bound <= energy, "bound {bound} > {energy}: {at}");
                        }
                    }
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
