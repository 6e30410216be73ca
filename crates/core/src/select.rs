//! Configuration selection (paper Eqs. 1, 2, 10, 11 and §4 fallback).
//!
//! ALERT "feeds all the updated estimations of latency, accuracy, and
//! energy into Eqs. 1 and 2, and gets the desired DNN model and power-cap
//! setting" (§3.2 step 4). Selection enumerates every execution target
//! (device, model, stage, power — the device axis generalizes the paper's
//! per-platform runs to heterogeneous placement, and collapses for
//! single-device tables), computes its estimates from the current ξ and φ,
//! filters by the goal's constraints (plus the optional probability
//! threshold of Eqs. 10–11), and optimizes the objective.
//!
//! When nothing is feasible, the paper's priority hierarchy applies:
//! *latency highest, then accuracy, then power* (§4) — first the
//! non-latency constraint is dropped, then, if no configuration can even
//! meet the deadline, the one most likely to meet it is chosen.

use crate::alert::ProbabilityMode;
use crate::config::{Candidate, ConfigTable};
use crate::goal::{Goal, Objective};
use alert_stats::normal::Normal;
use alert_stats::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// The percentile used for the energy *constraint* check when the user
/// has not set an explicit `Pr_th`: two standard deviations
/// (Φ(2) ≈ 0.977).
///
/// The paper's default ranks configurations by the mean-energy estimate
/// (Eq. 9) but its probabilistic design makes ALERT "conservative in
/// volatile environments" (§1.2); checking a budget constraint against
/// the mean would let ~half of marginal inputs overshoot whenever
/// per-input noise is material (the optimizer rides the boundary by
/// construction). We therefore check constraints against the Eq. 12
/// percentile estimate at +2σ — exactly the paper's mechanism, with a
/// default threshold — while still *optimizing* the mean.
pub const ENERGY_GUARD_PERCENTILE: f64 = 0.977_249_868_051_820_8;

/// Per-candidate estimates under the current environment belief.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimates {
    /// Mean predicted latency of the execution target.
    pub mean_latency: Seconds,
    /// Probability the target completes by the deadline (Eq. 6).
    pub pr_deadline: f64,
    /// Expected delivered quality (Eqs. 7/13).
    pub expected_quality: f64,
    /// Estimated period energy (Eqs. 9/12) — the ranking value.
    pub energy: Joules,
    /// Conservative energy bound used for budget *constraint* checks
    /// (Eq. 12 at `Pr_th`, defaulting to [`ENERGY_GUARD_PERCENTILE`]).
    pub energy_bound: Joules,
}

/// The outcome of one selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen execution target.
    pub candidate: Candidate,
    /// Its estimates at selection time.
    pub estimates: Estimates,
    /// The effective deadline the selection was made against (after goal
    /// adjustment).
    pub deadline: Seconds,
    /// `false` if the fallback hierarchy had to relax constraints.
    pub feasible: bool,
}

/// Computes the estimates for one candidate.
///
/// `period` is the idle-accounting window of Eq. 9 — the input period,
/// which for grouped tasks differs from the (dynamically adjusted)
/// deadline the selection is judged against.
pub fn evaluate(
    table: &ConfigTable,
    c: Candidate,
    xi: &Normal,
    idle_ratio: f64,
    goal: &Goal,
    period: Seconds,
    mode: ProbabilityMode,
) -> Estimates {
    let t_full = table.t_prof_on(c.device, c.model, c.power);
    let t_stage = table.t_prof_stage(c);
    let model = &table.models()[c.model];
    let deadline = goal.deadline;

    let mean_latency = crate::latency::predict_mean(xi, t_stage);
    let pr_deadline = match mode {
        ProbabilityMode::Full => crate::latency::deadline_probability(xi, t_stage, deadline),
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
            crate::quality::expected_quality(xi, model, t_full, c.stage, deadline)
        }
        ProbabilityMode::MeanOnly => {
            crate::quality::mean_only_quality(xi, model, t_full, c.stage, deadline)
        }
    };
    let p_run = table.p_run_on(c.device, c.model, c.power);
    let cap = table.cap_on(c.device, c.power);
    let energy = crate::energy::estimate_energy(xi, t_stage, p_run, cap, idle_ratio, period);
    let energy_bound = match mode {
        ProbabilityMode::Full if xi.std_dev() > 0.0 => {
            let pr = goal.prob_threshold.unwrap_or(ENERGY_GUARD_PERCENTILE);
            crate::energy::estimate_energy_percentile(
                xi, t_stage, p_run, cap, idle_ratio, period, pr,
            )
        }
        _ => energy,
    };
    Estimates {
        mean_latency,
        pr_deadline,
        expected_quality,
        energy,
        energy_bound,
    }
}

/// Whether the candidate's *latency* constraint holds.
///
/// Anytime targets are stopped at the deadline by construction, so they
/// always deliver on time; traditional targets must be expected to finish
/// (and, with a threshold set, finish with probability ≥ Pr_th).
pub(crate) fn latency_ok(is_anytime: bool, stage: usize, e: &Estimates, goal: &Goal) -> bool {
    if is_anytime {
        if let Some(pr) = goal.prob_threshold {
            // Even an anytime target should probably reach its *first*
            // output; the threshold is applied to the chosen stage.
            return e.pr_deadline >= pr || stage == 0;
        }
        return true;
    }
    if e.mean_latency.get() > goal.deadline.get() {
        return false;
    }
    if let Some(pr) = goal.prob_threshold {
        return e.pr_deadline >= pr;
    }
    true
}

/// Safety margin on the quality floor, as a fraction of the candidate's
/// usable quality span (final quality − fallback quality).
///
/// Like the energy guard, this prevents boundary-riding: selecting a
/// configuration whose *expected* quality equals the floor exactly means
/// the realized episode average lands below the floor about half the
/// time. A 1.5% span margin keeps the realized average reliably above.
pub const QUALITY_GUARD_FRACTION: f64 = 0.015;

/// The expected quality a candidate must reach under a minimize-energy
/// goal: the floor plus the candidate model's `quality_guard`. The one
/// definition of that threshold — [`other_ok`] and the fast lane's
/// quality ceiling (`crate::lane`) both compute it here, so the two
/// cannot disagree on it.
pub(crate) fn quality_threshold(floor: f64, quality_guard: f64) -> f64 {
    floor + quality_guard
}

/// Whether the non-latency constraint holds. The energy budget is checked
/// against the conservative bound (Eq. 12); the quality floor is checked
/// with a small guard above the expectation (Eq. 7). `quality_guard` is
/// the precomputed [`QUALITY_GUARD_FRACTION`] span margin of the
/// candidate's model.
pub(crate) fn other_ok(quality_guard: f64, e: &Estimates, goal: &Goal) -> bool {
    match goal.objective {
        Objective::MinimizeEnergy => {
            // lint:allow(no-panic): Goal::validate requires min_quality for MinimizeEnergy; selection only runs on validated goals
            let floor = goal.min_quality.expect("validated goal");
            e.expected_quality >= quality_threshold(floor, quality_guard)
        }
        // lint:allow(no-panic): Goal::validate requires energy_budget for MinimizeError; selection only runs on validated goals
        Objective::MinimizeError => e.energy_bound <= goal.energy_budget.expect("validated goal"),
    }
}

/// Lexicographic `a < b` over two keys, with **explicit NaN rejection**:
/// a key containing NaN is never "better", and a NaN incumbent is always
/// displaced by a NaN-free challenger. Without this, a degenerate
/// estimate (e.g. a NaN expected quality from a malformed fallback
/// quality) that lands in the running best would silently pin selection
/// to an arbitrary earlier candidate — `partial_cmp` returns `None`
/// against NaN and the old `unwrap_or(false)` kept the incumbent.
/// For NaN-free keys this is exactly the old `partial_cmp` ordering.
fn lex2_better(a: (f64, f64), b: (f64, f64)) -> bool {
    let a_nan = a.0.is_nan() || a.1.is_nan();
    let b_nan = b.0.is_nan() || b.1.is_nan();
    match (a_nan, b_nan) {
        (true, _) => false,
        (false, true) => true,
        // NaN-free keys are totally ordered, so partial_cmp is Some here;
        // is_some_and keeps the comparison panic-free without changing the
        // ordering (unlike total_cmp, which splits -0.0 from +0.0 and
        // would perturb bit-identical tie-breaks on negated-quality keys).
        (false, false) => a.partial_cmp(&b).is_some_and(|o| o.is_lt()),
    }
}

/// Three-key variant of [`lex2_better`].
fn lex3_better(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    let a_nan = a.0.is_nan() || a.1.is_nan() || a.2.is_nan();
    let b_nan = b.0.is_nan() || b.1.is_nan() || b.2.is_nan();
    match (a_nan, b_nan) {
        (true, _) => false,
        (false, true) => true,
        (false, false) => a.partial_cmp(&b).is_some_and(|o| o.is_lt()),
    }
}

/// Lexicographic "better" for the objective, with tie-breaks.
pub(crate) fn better(goal: &Goal, a: &Estimates, b: &Estimates) -> bool {
    match goal.objective {
        Objective::MinimizeEnergy => lex3_better(
            (a.energy.get(), -a.expected_quality, a.mean_latency.get()),
            (b.energy.get(), -b.expected_quality, b.mean_latency.get()),
        ),
        Objective::MinimizeError => lex3_better(
            (-a.expected_quality, a.energy.get(), a.mean_latency.get()),
            (-b.expected_quality, b.energy.get(), b.mean_latency.get()),
        ),
    }
}

/// Under [`Objective::MinimizeEnergy`], the energy a candidate must not
/// exceed to have any chance against `incumbent`: [`better`] ranks
/// energy first and never prefers a NaN key, so a challenger whose
/// energy is strictly above the returned value is worse than the
/// incumbent both ways round. `None` when the incumbent's own key holds
/// a NaN, since a NaN key bounds nothing.
pub(crate) fn energy_to_beat(incumbent: &Estimates) -> Option<f64> {
    let energy = incumbent.energy.get();
    let nan = energy.is_nan()
        || incumbent.expected_quality.is_nan()
        || incumbent.mean_latency.get().is_nan();
    (!nan).then_some(energy)
}

/// The selection state machine shared by the reference enumeration
/// ([`select_with_period`]) and the fast lane
/// ([`crate::lane::CandidateLane`]): candidates are [`SelectionAccumulator::consider`]ed
/// in table-enumeration order, the three competitions of §4 (valid /
/// deadline-only / unconditional) advance in lockstep, and
/// [`SelectionAccumulator::finish`] applies the fallback hierarchy.
/// Sharing this one implementation is what makes "fast lane ≡ full
/// enumeration" a structural property instead of a testing aspiration —
/// the lane offers every candidate, in the same order, with estimates
/// from the same leaf functions.
/// The lane's minimize-energy early exit decides the valid competition
/// alone, with this module's [`better`], [`latency_ok`] and
/// [`other_ok`], and falls back to this accumulator when no candidate is
/// valid.
pub(crate) struct SelectionAccumulator {
    best_valid: Option<(Candidate, Estimates)>,
    best_latency_only: Option<(Candidate, Estimates)>,
    best_any: Option<(Candidate, Estimates)>,
}

impl SelectionAccumulator {
    pub(crate) fn new() -> Self {
        SelectionAccumulator {
            best_valid: None,
            best_latency_only: None,
            best_any: None,
        }
    }

    /// Offers one candidate with its estimates. `is_anytime` and
    /// `quality_guard` are the candidate's model facts (the caller looks
    /// them up or has them precomputed in the lane).
    pub(crate) fn consider(
        &mut self,
        c: Candidate,
        e: Estimates,
        is_anytime: bool,
        quality_guard: f64,
        goal: &Goal,
    ) {
        let l_ok = latency_ok(is_anytime, c.stage, &e, goal);
        let o_ok = other_ok(quality_guard, &e, goal);

        if l_ok && o_ok {
            let replace = match &self.best_valid {
                None => true,
                Some((_, cur)) => better(goal, &e, cur),
            };
            if replace {
                self.best_valid = Some((c, e));
            }
        }
        if l_ok {
            // Fallback 1 (constraints relaxed in priority order: the
            // non-latency constraint is dropped first; §4): maximize
            // quality among deadline-feasible targets, tie-break energy.
            let replace = match &self.best_latency_only {
                None => true,
                Some((_, cur)) => lex2_better(
                    (-e.expected_quality, e.energy.get()),
                    (-cur.expected_quality, cur.energy.get()),
                ),
            };
            if replace {
                self.best_latency_only = Some((c, e));
            }
        }
        // Fallback 2: nothing meets the deadline — chase the highest
        // completion probability, then the lowest latency.
        let replace = match &self.best_any {
            None => true,
            Some((_, cur)) => lex2_better(
                (-e.pr_deadline, e.mean_latency.get()),
                (-cur.pr_deadline, cur.mean_latency.get()),
            ),
        };
        if replace {
            self.best_any = Some((c, e));
        }
    }

    /// The selection: the valid winner, else, with `rank_fallbacks`, the
    /// pick of the §4 fallback hierarchy. `None` when nothing is valid
    /// and the fallbacks are not ranked, or when no candidate was ever
    /// offered ([`EMPTY_TABLE`]).
    pub(crate) fn finish(self, goal: &Goal, rank_fallbacks: bool) -> Option<Selection> {
        if let Some((candidate, estimates)) = self.best_valid {
            return Some(Selection {
                candidate,
                estimates,
                deadline: goal.deadline,
                feasible: true,
            });
        }
        if !rank_fallbacks {
            return None;
        }
        let (candidate, estimates) = self.best_latency_only.or(self.best_any)?;
        Some(Selection {
            candidate,
            estimates,
            deadline: goal.deadline,
            feasible: false,
        })
    }
}

/// The error of a selection over a table with no candidate (impossible
/// through [`ConfigTable::new`], but the selection layer does not panic
/// on it).
pub(crate) const EMPTY_TABLE: &str = "selection over an empty candidate table";

/// Selects the best execution target for `goal` under the belief (ξ, φ),
/// with `period` as the idle-accounting window.
///
/// # Errors
///
/// Returns the goal-validation failure message if `goal` is malformed
/// (goals are user input; an invalid one must surface to the caller
/// rather than abort the process), or an error for an empty candidate
/// table (unreachable through [`ConfigTable::new`]).
pub fn select_with_period(
    table: &ConfigTable,
    xi: &Normal,
    idle_ratio: f64,
    goal: &Goal,
    period: Seconds,
    mode: ProbabilityMode,
) -> Result<Selection, String> {
    goal.validate().map_err(|e| format!("invalid goal: {e}"))?;

    let mut acc = SelectionAccumulator::new();
    for c in table.candidates() {
        let e = evaluate(table, c, xi, idle_ratio, goal, period, mode);
        let model = &table.models()[c.model];
        let guard = QUALITY_GUARD_FRACTION * (model.final_quality() - model.fail_quality);
        acc.consider(c, e, model.is_anytime(), guard, goal);
    }
    acc.finish(goal, true)
        .ok_or_else(|| EMPTY_TABLE.to_string())
}

/// [`select_with_period`] with the period defaulting to the goal deadline
/// (correct for ungrouped periodic inputs).
///
/// # Errors
///
/// Returns the goal-validation failure message if `goal` is malformed.
pub fn select(
    table: &ConfigTable,
    xi: &Normal,
    idle_ratio: f64,
    goal: &Goal,
    mode: ProbabilityMode,
) -> Result<Selection, String> {
    select_with_period(table, xi, idle_ratio, goal, goal.deadline, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CandidateModel, StagePoint};
    use alert_stats::units::Watts;

    /// Two traditional models and one 2-stage anytime across two caps.
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
        // Low cap roughly doubles latency.
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

    fn calm() -> Normal {
        Normal::new(1.0, 0.02)
    }

    #[test]
    fn min_error_picks_most_accurate_that_fits() {
        let t = table();
        // Plenty of time and energy: the big traditional model at some cap.
        let goal = Goal::minimize_error(Seconds(0.3), Joules(20.0));
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(s.feasible);
        assert_eq!(t.models()[s.candidate.model].name, "big");
    }

    #[test]
    fn min_error_tight_deadline_prefers_feasible_model() {
        let t = table();
        // 50 ms deadline: big\@45W (100 ms) can't; small\@45W (20 ms) and
        // anytime stage-0 (48 ms \@45W) can. Quality: anytime stage0 0.84
        // risky vs small 0.86 sure.
        let goal = Goal::minimize_error(Seconds(0.05), Joules(20.0));
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(s.feasible);
        let name = &t.models()[s.candidate.model].name;
        assert!(name == "small" || name == "any", "picked {name}");
        assert!(s.estimates.expected_quality > 0.8);
    }

    #[test]
    fn min_error_energy_budget_forces_lower_power() {
        let t = table();
        // Budget ≈ cap 20 W × deadline: high-cap configs blow it.
        let deadline = Seconds(0.3);
        let goal = Goal::minimize_error(deadline, Watts(20.0) * deadline);
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(s.feasible);
        assert_eq!(s.candidate.power, 0, "must pick the low cap");
    }

    #[test]
    fn min_energy_meets_quality_floor_cheaply() {
        let t = table();
        let goal = Goal::minimize_energy(Seconds(0.3), 0.90);
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(s.feasible);
        assert!(s.estimates.expected_quality >= 0.90);
        // "small" (0.86) cannot satisfy the floor.
        assert_ne!(t.models()[s.candidate.model].name, "small");
    }

    #[test]
    fn min_energy_low_floor_picks_cheapest() {
        let t = table();
        let goal = Goal::minimize_energy(Seconds(0.3), 0.5);
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(s.feasible);
        // Small model at some cap: by far the least energy.
        assert_eq!(t.models()[s.candidate.model].name, "small");
    }

    #[test]
    fn volatility_shifts_choice_toward_safer_configs() {
        // The §3.4 worked example: rising variance must lower the expected
        // quality of long-latency targets more than short ones.
        let t = table();
        let goal = Goal::minimize_error(Seconds(0.11), Joules(20.0));
        let calm_sel = select(
            &t,
            &Normal::new(1.0, 0.01),
            0.2,
            &goal,
            ProbabilityMode::Full,
        )
        .unwrap();
        let wild_sel = select(
            &t,
            &Normal::new(1.0, 0.30),
            0.2,
            &goal,
            ProbabilityMode::Full,
        )
        .unwrap();
        // Calm: big (100 ms \@45 W) just fits and wins on quality.
        assert_eq!(t.models()[calm_sel.candidate.model].name, "big");
        // Wild: the anytime network (graceful staircase) takes over.
        assert_eq!(t.models()[wild_sel.candidate.model].name, "any");
    }

    #[test]
    fn fallback_drops_power_constraint_before_accuracy() {
        let t = table();
        // Impossible energy budget: nothing fits; latency is satisfiable.
        let goal = Goal::minimize_error(Seconds(0.3), Joules(1e-6));
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(!s.feasible);
        // Fallback maximizes quality under the deadline.
        assert_eq!(t.models()[s.candidate.model].name, "big");
    }

    #[test]
    fn fallback_chases_probability_when_deadline_impossible() {
        let models = vec![
            CandidateModel::traditional("slow_a", 0.9, 0.0),
            CandidateModel::traditional("slow_b", 0.8, 0.0),
        ];
        let powers = vec![Watts(45.0)];
        let t_prof = vec![vec![Seconds(0.5)], vec![Seconds(0.3)]];
        let p_run = vec![vec![Watts(40.0)], vec![Watts(40.0)]];
        let t = ConfigTable::new(models, powers, t_prof, p_run).expect("valid table");
        let goal = Goal::minimize_error(Seconds(0.01), Joules(100.0));
        let s = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert!(!s.feasible);
        // The faster of the two hopeless models.
        assert_eq!(t.models()[s.candidate.model].name, "slow_b");
    }

    #[test]
    fn prob_threshold_rejects_risky_configs() {
        let t = table();
        // big\@45W has mean 100 ms vs 110 ms deadline: under σ = 0.05 its
        // completion probability is Φ(2) ≈ 0.977 — good enough to win on
        // expected quality, but below a 0.99 threshold.
        let xi = Normal::new(1.0, 0.05);
        let goal = Goal::minimize_error(Seconds(0.11), Joules(20.0));
        let unconstrained = select(&t, &xi, 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert_eq!(t.models()[unconstrained.candidate.model].name, "big");
        let thresholded = select(
            &t,
            &xi,
            0.2,
            &goal.with_prob_threshold(0.99),
            ProbabilityMode::Full,
        )
        .unwrap();
        assert_ne!(t.models()[thresholded.candidate.model].name, "big");
    }

    #[test]
    fn mean_only_overestimates_risky_quality() {
        let t = table();
        let xi = Normal::new(1.0, 0.30);
        let goal = Goal::minimize_error(Seconds(0.105), Joules(20.0));
        let c = Candidate {
            device: 0,
            model: 1,
            stage: 0,
            power: 1,
        }; // big@45W, mean 100 ms
        let full = evaluate(&t, c, &xi, 0.2, &goal, goal.deadline, ProbabilityMode::Full);
        let naive = evaluate(
            &t,
            c,
            &xi,
            0.2,
            &goal,
            goal.deadline,
            ProbabilityMode::MeanOnly,
        );
        assert_eq!(naive.expected_quality, 0.95);
        assert!(
            full.expected_quality < 0.65,
            "full = {}",
            full.expected_quality
        );
        assert_eq!(naive.pr_deadline, 1.0);
    }

    #[test]
    fn selection_is_deterministic() {
        let t = table();
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        let a = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        let b = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nan_quality_estimate_cannot_pin_the_fallback() {
        // A model whose fallback quality is NaN slips through
        // `CandidateModel` validation (every comparison against NaN is
        // false) and yields a NaN expected quality — even under a
        // degenerate zero-variance ξ, where the mixture still multiplies
        // the NaN by a zero weight. The old tie-breaks compared with
        // `partial_cmp(..).unwrap_or(false)`, so once the NaN candidate
        // became the running fallback, no sane candidate could displace
        // it and selection silently returned garbage estimates.
        let models = vec![
            CandidateModel::traditional("poisoned", 0.9, f64::NAN),
            CandidateModel::traditional("sane", 0.8, 0.0),
        ];
        let powers = vec![Watts(45.0)];
        let t_prof = vec![vec![Seconds(0.040)], vec![Seconds(0.050)]];
        let p_run = vec![vec![Watts(40.0)], vec![Watts(40.0)]];
        let t = ConfigTable::new(models, powers, t_prof, p_run).expect("valid table");
        // A floor nobody can meet forces the latency-only fallback,
        // whose ranking key is the (possibly NaN) expected quality.
        let goal = Goal::minimize_energy(Seconds(0.3), 0.99);
        for xi in [Normal::new(1.0, 0.0), Normal::new(1.0, 0.05)] {
            let s = select(&t, &xi, 0.2, &goal, ProbabilityMode::Full).unwrap();
            assert!(!s.feasible);
            assert_eq!(
                t.models()[s.candidate.model].name,
                "sane",
                "NaN candidate must not win the fallback"
            );
            assert!(!s.estimates.expected_quality.is_nan());
        }
    }

    #[test]
    fn invalid_goal_is_rejected() {
        let t = table();
        let mut goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        goal.min_quality = None;
        let err = select(&t, &calm(), 0.2, &goal, ProbabilityMode::Full).unwrap_err();
        assert!(err.contains("invalid goal"), "{err}");
    }
}
