//! The selection fast lane: SoA candidate precomputation, dominated-
//! candidate pruning, an exact early exit for minimize-energy goals, and
//! the belief-banded decision cache.
//!
//! ALERT re-enumerates every `(device, model, stage, power)` execution
//! target per input (§3.2 step 4, with the device axis collapsing on
//! single-platform tables). Scoring those targets is most of a decision:
//! its cost is CDF evaluations plus table chasing per candidate. This
//! module cuts that cost with four mechanisms, each **provably
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
//! 2. **Dominated-candidate pruning** — at build, candidates that can
//!    never win *any* of the three §4 competitions under *any* belief ξ,
//!    idle ratio φ ∈ [0, 1], period, or goal of the active family are
//!    dropped: the **saturation duplicates** real profiling tables carry
//!    (discrete GPU clock levels, power-starved plateaus — extra cap
//!    that buys no latency). A candidate `c` is pruned only when an
//!    earlier-enumerated `d` has a *bit-identical* latency chain (same
//!    staircase with bit-equal full-network latency, or an identical
//!    traditional model with bit-equal stage latency) and weakly lower
//!    run power *and* cap. Every latency-driven estimate is then
//!    bit-equal between the two — ties resolve to the earlier `d` — and
//!    the energies are round-monotone in `(p_run, cap)`, so even the
//!    *computed* f64 estimates of `d` tie-or-beat `c` in all three
//!    competitions and the winner (and its recorded [`Estimates`]) is
//!    unchanged (see [`dominates`] and DESIGN.md §6 for why anything
//!    weaker is unsound at the bit level). The 2-D Pareto frontier from
//!    [`alert_stats::hull`] over (latency, run energy) shortlists the
//!    group members that can possibly be dominated. The filter is only
//!    *applied* when the decision inputs are inside the proven envelope
//!    (`ξ̄ ≥ 0`, `φ ∈ [0, 1]`, `Pr_th ≥ ½`, so every exec-time
//!    multiplier is non-negative); otherwise the lane quietly evaluates
//!    the full set.
//! 3. **Scoring only candidates that can win** — under
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
//! 4. **Belief-banded decision cache** ([`DecisionCache`]) — the decision
//!    inputs (ξ mean, ξ std, idle ratio, effective deadline, period,
//!    goal, mode) are quantized into a [`BeliefBand`]; while consecutive
//!    decisions stay inside the band that produced the last selection
//!    *and* the inputs revalidate exactly, enumeration is skipped and the
//!    cached [`Selection`] is returned. Selection is a pure function of
//!    those inputs, so an exact-revalidation hit **cannot** diverge from
//!    enumeration — the band is the invalidation granularity (band exit
//!    evicts), not a tolerance for reuse. Goal changes, `begin_group`,
//!    `restore`, and `reset` invalidate eagerly.
//!
//! `tests/fast_lane.rs` proves bit-identity of the whole lane against the
//! reference enumeration over randomized tables, beliefs, goals, group
//! boundaries, and snapshot/restore cuts; the `runtime` benchmark
//! re-asserts cached-vs-enumerated equality on every run.

use crate::alert::ProbabilityMode;
use crate::config::{Candidate, ConfigTable, StagePoint};
use crate::goal::{Goal, Objective};
use crate::select::{
    better, energy_to_beat, latency_ok, other_ok, quality_threshold, Estimates,
    SelectionAccumulator, ENERGY_GUARD_PERCENTILE, QUALITY_GUARD_FRACTION,
};
use crate::Selection;
use alert_stats::hull::{pareto_frontier, Point2};
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
    /// Final-output quality (dominance comparability check).
    top_quality: f64,
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
    /// Indices into `entries` that survived dominance pruning, ascending.
    live: Vec<u32>,
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
    /// Flattens and prunes a candidate table.
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
        let mut t_full_of = Vec::with_capacity(table.candidate_count());
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
                top_quality: m.final_quality(),
                guard: QUALITY_GUARD_FRACTION * (m.final_quality() - m.fail_quality),
                quality_ceiling: quality_ceiling(&m.stages[..=c.stage], m.fail_quality),
                slot_base: base,
            });
            t_full_of.push(table.t_prof_on(c.device, c.model, c.power));
        }

        let live = prune(&entries, &t_full_of);
        let max_stages = models.iter().map(|m| m.stages.len()).max().unwrap_or(1);
        CandidateLane {
            entries,
            live,
            stage_lat,
            stage_points,
            max_stages,
        }
    }

    /// Total execution targets (pruned or not).
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }

    /// Targets that survived dominance pruning.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Targets dropped as dominated.
    pub fn pruned_count(&self) -> usize {
        self.entries.len() - self.live.len()
    }

    /// Fast-lane counterpart of [`crate::select::select_with_period`]:
    /// same inputs, same output, bit for bit — enumeration runs over the
    /// pruned set (when the inputs are inside the pruning envelope) with
    /// memoized stage probabilities and a hoisted `Φ⁻¹`, and a
    /// minimize-energy goal scores only the candidates that can still win
    /// (mechanism 3 of the module docs).
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

        // The dominance argument assumes non-negative effective latency
        // multipliers (ξ̄ ≥ 0 and, for the Eq. 12 bound, Φ⁻¹(Pr_th) ≥ 0)
        // and a physical idle ratio/period. Outside that envelope —
        // never reached by the estimators, but reachable through
        // hand-built snapshots — fall back to the full set.
        let pruning_sound = xi.mean() >= 0.0
            && (0.0..=1.0).contains(&idle_ratio)
            && period.is_finite()
            && period.get() >= 0.0
            && (mode == ProbabilityMode::MeanOnly
                // lint:allow(nan-unsafe-compare): exact zero-variance sentinel; a NaN std_dev fails the comparison and falls through to the sound full-set path
                || xi.std_dev() == 0.0
                || goal.prob_threshold.is_none_or(|p| p >= 0.5));

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
        // The seed must come from the set this decision walks.
        if pruning_sound {
            let seed = scratch.seed.filter(|k| self.live.binary_search(k).is_ok());
            self.select_over(scratch, &inputs, self.live.iter().copied(), seed)
        } else {
            let seed = scratch.seed.filter(|&k| (k as usize) < self.entries.len());
            self.select_over(scratch, &inputs, 0..self.entries.len() as u32, seed)
        }
    }

    /// Selection over the entries `walk` lists, ascending; `seed` is one
    /// of them.
    fn select_over(
        &self,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
        walk: impl ExactSizeIterator<Item = u32> + Clone,
        seed: Option<u32>,
    ) -> Result<Selection, String> {
        let goal = inputs.goal;
        if let (Objective::MinimizeEnergy, Some(floor)) = (goal.objective, goal.min_quality) {
            if let Some((k, estimates)) =
                self.cheapest_valid(scratch, inputs, walk.clone(), seed, floor)
            {
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
        scratch.scored = walk.len();
        let mut acc = SelectionAccumulator::new();
        for k in walk {
            let e = &self.entries[k as usize];
            let est = self.evaluate_entry(e, scratch, inputs);
            acc.consider(e.cand, est, e.is_anytime, e.guard, goal);
        }
        acc.finish(goal)
    }

    /// The minimize-energy winner among the valid candidates of `walk`
    /// (the reference's `best_valid`), scoring only the candidates that
    /// can still be it; `None` when no candidate of `walk` is valid.
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
    /// The incumbent is seeded with `seed`, scored first. An incumbent is
    /// replaced when the challenger is better, or when neither is better
    /// and the challenger enumerates earlier. That picks the
    /// earliest-enumerated minimum — the reference's rule, NaN keys
    /// included — whatever the scoring order.
    fn cheapest_valid(
        &self,
        scratch: &mut LaneScratch,
        inputs: &DecisionInputs,
        walk: impl Iterator<Item = u32>,
        seed: Option<u32>,
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
        for k in seed.into_iter().chain(walk.filter(|&k| Some(k) != seed)) {
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

/// The dominance filter. Returns the surviving entry indices, ascending.
///
/// A candidate is checked only against earlier *survivors* (the dominance
/// relation is transitive, so this loses nothing), and the per-(model,
/// stage) 2-D Pareto frontier over `(t_stage, p_run·t_stage)` shortlists
/// the members that can possibly be group-dominated: frontier members
/// have no weak dominator in those two axes, which the full condition
/// requires.
fn prune(entries: &[LaneEntry], t_full_of: &[Seconds]) -> Vec<u32> {
    // Group candidates by (device, model, stage) and mark off-frontier
    // members. The device belongs in the key: dominance only compares
    // within one device's latency chain, so a GPU clock level can never
    // prune a CPU cap (their profiled latencies come from different
    // grids and the realized environments differ per device).
    let mut group_prunable = vec![false; entries.len()];
    let mut groups: std::collections::BTreeMap<(usize, usize, usize), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (idx, e) in entries.iter().enumerate() {
        groups
            .entry((e.cand.device, e.cand.model, e.cand.stage))
            .or_default()
            .push(idx);
    }
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let pts: Vec<Point2> = members
            .iter()
            .map(|&idx| {
                let e = &entries[idx];
                Point2::new(e.t_stage.get(), e.p_run.get() * e.t_stage.get(), idx)
            })
            .collect();
        let frontier: std::collections::BTreeSet<usize> =
            pareto_frontier(&pts).iter().map(|p| p.idx).collect();
        for &idx in members {
            if !frontier.contains(&idx) {
                group_prunable[idx] = true;
            }
        }
    }

    let mut live: Vec<u32> = Vec::with_capacity(entries.len());
    for (idx, c) in entries.iter().enumerate() {
        let dominated = live.iter().any(|&d_idx| {
            dominates(
                &entries[d_idx as usize],
                c,
                t_full_of[d_idx as usize],
                t_full_of[idx],
                group_prunable[idx],
            )
        });
        if !dominated {
            live.push(idx as u32);
        }
    }
    live
}

/// Whether earlier-enumerated `d` dominates `c` under every belief, idle
/// ratio, period, and goal of the supported envelope — at the level of
/// the **computed f64 estimates**, not just their real-number values.
///
/// The argument has two halves (DESIGN.md §6):
///
/// * The latency inputs of every estimate chain must be **bit-identical**
///   between `d` and `c` (same-staircase pair with bit-equal full-network
///   latency, or identical traditional models with bit-equal stage
///   latency). Then the mean latency, completion probabilities, expected
///   quality, and the percentile exec time are computed from identical
///   operands and are bit-equal — ties, which every competition resolves
///   toward the earlier candidate, i.e. `d`.
/// * The remaining estimates (Eq. 9/12 energies) are then round-monotone
///   in the only differing operands: `e = p_run·t_exec + (cap·φ)·idle`
///   with `t_exec ≥ 0`, `idle`, and `φ` identical, so `p_d ≤ p_c` and
///   `cap_d ≤ cap_c` order the *computed* sums (f64 rounding is a
///   monotone function; products and sums of ordered non-negative terms
///   stay ordered).
///
/// Anything weaker — e.g. strict real-number dominance with a safety
/// margin — is NOT sound at the bit level: the reference path factors
/// its arithmetic differently per candidate, and for zero-real-slack
/// ties (or tiny multipliers `m` against large idle terms) an ulp of
/// rounding could flip a comparison and let a pruned candidate win the
/// full enumeration. We therefore prune exact saturation duplicates
/// only.
fn dominates(
    d: &LaneEntry,
    c: &LaneEntry,
    d_t_full: Seconds,
    c_t_full: Seconds,
    c_group_prunable: bool,
) -> bool {
    // Placement is part of a candidate's identity: a dominator must live
    // on the same device, because the scheduler executes the winner there
    // and the realized latency/energy depend on the device even when the
    // profiled numbers coincide.
    if d.cand.device != c.cand.device {
        return false;
    }
    let same_group = d.cand.model == c.cand.model && d.cand.stage == c.cand.stage;
    if same_group {
        if !c_group_prunable {
            return false;
        }
        // Same staircase: bit-equal full-network latency makes every
        // per-stage product `t_full · frac_s` — and with it the whole
        // probability/quality chain — bit-equal.
        if d_t_full.get().to_bits() != c_t_full.get().to_bits() {
            return false;
        }
    } else {
        // Cross-model pruning is restricted to traditional models with
        // *identical* staircases (quality, fallback) and a bit-equal
        // stage latency: their estimates then agree everywhere except
        // the energy terms, which (p_run, cap) order below.
        if d.is_anytime
            || c.is_anytime
            || d.top_quality != c.top_quality
            || d.fail_quality != c.fail_quality
            || d.t_stage.get().to_bits() != c.t_stage.get().to_bits()
        {
            return false;
        }
    }
    // Identical latency chains established; energy is round-monotone in
    // the run power and the cap (the idle window and `t_exec` are
    // bit-equal, and non-negative under the pruning envelope).
    d.p_run.get() <= c.p_run.get() && d.cap.get() <= c.cap.get()
}

/// Quantized decision-input coordinates: the invalidation granularity of
/// the [`DecisionCache`]. Two decisions in different bands never share a
/// cache entry; two decisions in the same band still revalidate exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeliefBand {
    mean: i64,
    std: i64,
    idle: i64,
    deadline: i64,
}

/// Band widths: ξ mean/σ at 0.5 %, idle ratio at 1 %, deadline at 100 µs.
const MEAN_BAND: f64 = 0.005;
const STD_BAND: f64 = 0.005;
const IDLE_BAND: f64 = 0.01;
const DEADLINE_BAND: f64 = 1e-4;

impl BeliefBand {
    /// Quantizes the belief coordinates.
    pub fn quantize(xi_mean: f64, xi_std: f64, idle_ratio: f64, deadline: Seconds) -> Self {
        BeliefBand {
            mean: (xi_mean / MEAN_BAND).floor() as i64,
            std: (xi_std / STD_BAND).floor() as i64,
            idle: (idle_ratio / IDLE_BAND).floor() as i64,
            deadline: (deadline.get() / DEADLINE_BAND).floor() as i64,
        }
    }
}

/// The exact decision inputs, compared bit-for-bit on revalidation. A
/// hit therefore replays a pure function at identical inputs — the
/// mechanism by which cached selections *cannot* diverge from
/// enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionKey {
    xi_mean: u64,
    xi_std: u64,
    idle: u64,
    deadline: u64,
    period: u64,
    mode: ProbabilityMode,
    objective: Objective,
    min_quality: Option<u64>,
    energy_budget: Option<u64>,
    prob_threshold: Option<u64>,
}

impl DecisionKey {
    /// Captures the inputs of one decision. `goal` must already carry the
    /// *effective* (adjusted) deadline.
    pub fn capture(
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
    ) -> Self {
        DecisionKey {
            xi_mean: xi.mean().to_bits(),
            xi_std: xi.std_dev().to_bits(),
            idle: idle_ratio.to_bits(),
            deadline: goal.deadline.get().to_bits(),
            period: period.get().to_bits(),
            mode,
            objective: goal.objective,
            min_quality: goal.min_quality.map(f64::to_bits),
            energy_budget: goal.energy_budget.map(|e| e.get().to_bits()),
            prob_threshold: goal.prob_threshold.map(f64::to_bits),
        }
    }
}

/// Cache effectiveness counters (benchmark + diagnostics surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Decisions answered from the cache (exact revalidation inside the
    /// band).
    pub hits: u64,
    /// Decisions that fell through to enumeration.
    pub misses: u64,
    /// Misses caused by leaving the cached band (the band-exit
    /// invalidation event).
    pub band_exits: u64,
    /// Eager invalidations (`begin_group`, `restore`, `reset`).
    pub invalidations: u64,
}

#[derive(Debug, Clone, Copy)]
struct CachedDecision {
    band: BeliefBand,
    key: DecisionKey,
    selection: Selection,
}

/// Single-entry decision memo with band-based invalidation. See the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct DecisionCache {
    entry: Option<CachedDecision>,
    stats: CacheStats,
}

impl DecisionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached selection when `key` revalidates inside the
    /// cached band; records hit/miss/band-exit accounting.
    pub fn lookup(&mut self, band: BeliefBand, key: &DecisionKey) -> Option<Selection> {
        match &self.entry {
            Some(cached) if cached.band == band && cached.key == *key => {
                self.stats.hits += 1;
                Some(cached.selection)
            }
            // Same band, inputs moved within it: near miss, entry kept.
            Some(cached) if cached.band == band => {
                self.stats.misses += 1;
                None
            }
            // Band exit: evict, then miss.
            Some(_) => {
                self.stats.band_exits += 1;
                self.stats.misses += 1;
                self.entry = None;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs the selection produced for `key`.
    pub fn store(&mut self, band: BeliefBand, key: DecisionKey, selection: Selection) {
        self.entry = Some(CachedDecision {
            band,
            key,
            selection,
        });
    }

    /// Eagerly drops the entry (goal/group/restore/reset events).
    pub fn invalidate(&mut self) {
        if self.entry.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidateModel;
    use crate::select::select_with_period;
    use alert_stats::units::Joules;

    /// A table with deliberate cap-response saturation: the two top caps
    /// share identical profiled latencies, so the higher cap is dominated.
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
    fn saturation_duplicates_are_pruned() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        // 3 stage-rows × 3 powers = 9 candidates; the 45 W copy of each
        // stage row duplicates the 40 W one (same latency, same run
        // power, higher cap) and must be dropped.
        assert_eq!(lane.candidate_count(), 9);
        assert_eq!(lane.pruned_count(), 3, "one duplicate per stage row");
    }

    #[test]
    fn pruned_lane_matches_reference_on_saturated_table() {
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
    fn unsound_thresholds_bypass_pruning_not_correctness() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        let mut scratch = LaneScratch::for_lane(&lane);
        let xi = Normal::new(1.0, 0.2);
        // Pr_th below ½ gives a negative Eq. 12 quantile — outside the
        // pruning envelope; the lane must fall back to the full set and
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
    /// *repeats the CPU numbers bit-for-bit* — the worst case for
    /// cross-device pruning, since every latency chain collides.
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
    fn pruning_never_crosses_devices() {
        let t = two_device_table();
        let lane = CandidateLane::build(&t);
        assert_eq!(lane.candidate_count(), 18);
        // Each device prunes its own saturation duplicate per stage row
        // (3 each) and nothing else: identical grids on another device
        // must not shadow each other.
        assert_eq!(lane.pruned_count(), 6);
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

    #[test]
    fn cache_hits_only_on_exact_revalidation() {
        let mut cache = DecisionCache::new();
        let xi = Normal::new(1.0, 0.1);
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        let key = DecisionKey::capture(&xi, 0.3, &goal, Seconds(0.2), ProbabilityMode::Full);
        let band = BeliefBand::quantize(1.0, 0.1, 0.3, Seconds(0.2));
        let sel = Selection {
            candidate: Candidate {
                device: 0,
                model: 0,
                stage: 0,
                power: 0,
            },
            estimates: Estimates {
                mean_latency: Seconds(0.01),
                pr_deadline: 1.0,
                expected_quality: 0.9,
                energy: Joules(1.0),
                energy_bound: Joules(1.1),
            },
            deadline: Seconds(0.2),
            feasible: true,
        };
        assert!(cache.lookup(band, &key).is_none());
        cache.store(band, key, sel);
        assert_eq!(cache.lookup(band, &key), Some(sel));

        // Same band, different exact belief: near miss, not a hit.
        let xi2 = Normal::new(1.0 + 1e-9, 0.1);
        let key2 = DecisionKey::capture(&xi2, 0.3, &goal, Seconds(0.2), ProbabilityMode::Full);
        let band2 = BeliefBand::quantize(xi2.mean(), 0.1, 0.3, Seconds(0.2));
        assert_eq!(band, band2, "1e-9 must not cross a 0.5% band");
        assert!(cache.lookup(band2, &key2).is_none());

        // Band exit evicts.
        cache.store(band, key, sel);
        let far_band = BeliefBand::quantize(2.0, 0.1, 0.3, Seconds(0.2));
        assert!(cache.lookup(far_band, &key).is_none());
        assert!(
            cache.lookup(band, &key).is_none(),
            "band exit must evict the entry"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.band_exits, 1);
        assert!(stats.misses >= 3);
    }

    #[test]
    fn goal_fields_partition_the_cache_key() {
        let xi = Normal::new(1.0, 0.1);
        let a = DecisionKey::capture(
            &xi,
            0.3,
            &Goal::minimize_energy(Seconds(0.2), 0.9),
            Seconds(0.2),
            ProbabilityMode::Full,
        );
        let b = DecisionKey::capture(
            &xi,
            0.3,
            &Goal::minimize_energy(Seconds(0.2), 0.91),
            Seconds(0.2),
            ProbabilityMode::Full,
        );
        let c = DecisionKey::capture(
            &xi,
            0.3,
            &Goal::minimize_error(Seconds(0.2), Joules(5.0)),
            Seconds(0.2),
            ProbabilityMode::Full,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
