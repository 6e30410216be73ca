//! Soundness proofs-by-property for the selection fast lane: the
//! memoized, early-exiting decision path must be
//! **bit-identical** to the reference full enumeration for randomized
//! tables (one or two devices, an idle-dominated second device among
//! them, rows walked out of power order, exact run-energy ties),
//! beliefs, idle ratios (φ = 0 included), goals (floors on the lane's
//! quality-ceiling boundary included), probability modes, overhead
//! reserves, and snapshot/restore cuts.

use alert_core::alert::{AlertController, AlertParams, Observation, OverheadPolicy};
use alert_core::lane::{CandidateLane, LaneScratch};
use alert_core::select::{select_with_period, QUALITY_GUARD_FRACTION};
use alert_core::{CandidateModel, ConfigTable, Goal, ProbabilityMode, Selection, StagePoint};
use alert_stats::normal::Normal;
use alert_stats::units::{Joules, Seconds, Watts};
use proptest::prelude::*;

/// Deterministic value pool: every structural choice below is derived
/// from these uniform draws, so each proptest case is one table/belief
/// configuration.
struct Pool {
    vals: Vec<f64>,
    cursor: usize,
}

impl Pool {
    fn new(vals: Vec<f64>) -> Self {
        Pool { vals, cursor: 0 }
    }

    /// Next uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        let v = self.vals[self.cursor % self.vals.len()];
        self.cursor += 1;
        v
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn index(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// A randomized candidate table: 1–4 models (traditional and anytime) on
/// one device, sometimes two, so rows cross devices. Each device has 1–4
/// power settings and saturating cap responses with deliberate exact
/// latency ties and occasional near-ties, which the early exit's
/// index-aware tie rule must resolve as the reference does. A second
/// device is either drawn like the first or an idle-dominated one
/// ([`idle_heavy_grid`]).
fn random_table(pool: &mut Pool) -> ConfigTable {
    let n_models = 1 + pool.index(4);
    let models: Vec<CandidateModel> = (0..n_models).map(|m| random_model(pool, m)).collect();
    let grid = random_grid(pool, n_models);
    let second = if pool.chance(0.3) {
        Some(random_grid(pool, n_models))
    } else if pool.chance(0.3) {
        Some(idle_heavy_grid(pool, &grid))
    } else {
        None
    };
    let (caps, t_prof, p_run) = grid;
    let mut table =
        ConfigTable::new(models, caps, t_prof, p_run).expect("generated table is valid");
    if let Some((caps, t_prof, p_run)) = second {
        table
            .add_device("second", caps, t_prof, p_run)
            .expect("generated grid is valid");
    }
    table
}

fn random_model(pool: &mut Pool, m: usize) -> CandidateModel {
    let fail = pool.range(0.0, 0.2);
    if !pool.chance(0.4) {
        let q = fail + pool.range(0.1, 0.8);
        return CandidateModel::traditional(format!("trad{m}"), q, fail);
    }
    let n_stages = 2 + pool.index(3);
    let mut stages = Vec::new();
    let mut frac = pool.range(0.2, 0.5);
    let mut q = fail + pool.range(0.05, 0.3);
    for s in 0..n_stages {
        let last = s == n_stages - 1;
        stages.push(StagePoint {
            frac: if last { 1.0 } else { frac },
            quality: q,
        });
        frac += pool.range(0.05, 0.4 / n_stages as f64);
        q += pool.range(0.01, 0.1);
    }
    CandidateModel::anytime(format!("any{m}"), stages, fail)
}

/// One device's caps, `t_prof` rows and `p_run` rows.
type Grid = (Vec<Watts>, Vec<Vec<Seconds>>, Vec<Vec<Watts>>);

/// One device's grid: ascending caps, and per model a latency row and a
/// run-power row. Run power usually follows the cap, but some rows draw
/// it regardless of the cap, and a setting sometimes halves the previous
/// latency at twice its run power, an exact run-energy tie, so rows are
/// walked out of power order.
fn random_grid(pool: &mut Pool, n_models: usize) -> Grid {
    let n_powers = 1 + pool.index(4);
    let mut caps = Vec::new();
    let mut cap = pool.range(5.0, 20.0);
    for _ in 0..n_powers {
        caps.push(Watts(cap));
        cap += pool.range(2.0, 20.0);
    }
    let top = caps[n_powers - 1].get();
    let mut t_prof = Vec::new();
    let mut p_run = Vec::new();
    for _ in 0..n_models {
        // Latency row: decreasing in cap, but with a saturation point
        // after which extra cap buys *exactly* nothing (ties), and a
        // small chance of a near-tie, 1e-12 relative apart.
        let base = pool.range(0.01, 0.4);
        let saturate_from = pool.index(n_powers);
        let scrambled = pool.chance(0.3);
        let mut row_t: Vec<Seconds> = Vec::new();
        let mut row_p: Vec<Watts> = Vec::new();
        let mut t = base;
        for j in 0..n_powers {
            if j > saturate_from {
                if pool.chance(0.2) {
                    t *= 1.0 - 1e-12; // near-tie: the faster cap may win
                } // else exact tie: the earlier cap wins a full tie
            } else if j > 0 {
                t *= pool.range(0.5, 0.95);
            }
            // Run power near the cap, sometimes saturated as well, or
            // drawn regardless of the cap.
            let draw = if scrambled {
                pool.range(1.0, top)
            } else {
                caps[j].get().min(pool.range(0.6, 1.0) * top).max(1.0)
            };
            if j > 0 && pool.chance(0.15) {
                t = row_t[j - 1].get() * 0.5;
                row_p.push(row_p[j - 1] * 2.0);
            } else {
                row_p.push(Watts(draw));
            }
            row_t.push(Seconds(t));
        }
        t_prof.push(row_t);
        p_run.push(row_p);
    }
    (caps, t_prof, p_run)
}

/// A GPU-like grid over `base`'s shape: caps and run powers several
/// times `base`'s, latencies a fraction of them. Most of such a target's
/// Eq. 9 energy is the idle term, where the lane's idle floor bites;
/// grids drawn like `base` share its scale, so the floor rarely fires
/// there.
fn idle_heavy_grid(pool: &mut Pool, base: &Grid) -> Grid {
    let scale = pool.range(3.0, 10.0);
    let speedup = pool.range(0.05, 0.3);
    let (caps, t_prof, p_run) = base;
    (
        caps.iter().map(|&c| c * scale).collect(),
        t_prof
            .iter()
            .map(|row| row.iter().map(|&t| t * speedup).collect())
            .collect(),
        p_run
            .iter()
            .map(|row| row.iter().map(|&p| p * scale).collect())
            .collect(),
    )
}

/// A minimize-energy floor: usually uniform, sometimes exactly where one
/// of `table`'s stage qualities meets the floor plus its model's guard,
/// nudged 0 or ±1 ulp — the boundary the lane's quality ceiling must
/// never cut into.
fn random_floor(pool: &mut Pool, table: &ConfigTable) -> f64 {
    if !pool.chance(0.3) {
        return pool.range(0.1, 0.98);
    }
    let models = table.models();
    let m = &models[pool.index(models.len())];
    let q = m.stages[pool.index(m.stages.len())].quality;
    let floor = q - QUALITY_GUARD_FRACTION * (m.final_quality() - m.fail_quality);
    match pool.index(3) {
        0 => floor,
        1 => floor.next_up(),
        _ => floor.next_down(),
    }
}

fn random_goal(pool: &mut Pool, table: &ConfigTable) -> Goal {
    let deadline = Seconds(pool.range(0.005, 0.6));
    let mut goal = if pool.chance(0.5) {
        Goal::minimize_energy(deadline, random_floor(pool, table))
    } else {
        Goal::minimize_error(deadline, Joules(pool.range(1e-4, 30.0)))
    };
    if pool.chance(0.4) {
        // Include thresholds below ½ (a negative Eq. 12 quantile):
        // identity must hold there too.
        goal = goal.with_prob_threshold(pool.range(0.05, 0.999));
    }
    goal
}

fn random_belief(pool: &mut Pool) -> Normal {
    let mean = pool.range(0.2, 3.0);
    let sd = if pool.chance(0.2) {
        0.0 // degenerate zero-variance belief
    } else {
        pool.range(0.001, 0.6)
    };
    Normal::new(mean, sd)
}

/// An idle ratio φ, sometimes exactly 0 (no idle energy, so Eq. 9 is
/// the run energy alone and the run-energy stop is at its tightest).
fn random_idle(pool: &mut Pool) -> f64 {
    if pool.chance(0.15) {
        0.0
    } else {
        pool.range(0.0, 1.0)
    }
}

/// Bit-level equality of two selections (plain `==` would call NaN
/// mismatches unequal and ±0 equal; the claim here is *bit* identity).
fn assert_bits_equal(fast: &Selection, full: &Selection, label: &str) {
    assert_eq!(fast.candidate, full.candidate, "{label}: candidate");
    assert_eq!(fast.feasible, full.feasible, "{label}: feasible");
    let pairs = [
        (fast.deadline.get(), full.deadline.get(), "deadline"),
        (
            fast.estimates.mean_latency.get(),
            full.estimates.mean_latency.get(),
            "mean_latency",
        ),
        (
            fast.estimates.pr_deadline,
            full.estimates.pr_deadline,
            "pr_deadline",
        ),
        (
            fast.estimates.expected_quality,
            full.estimates.expected_quality,
            "expected_quality",
        ),
        (
            fast.estimates.energy.get(),
            full.estimates.energy.get(),
            "energy",
        ),
        (
            fast.estimates.energy_bound.get(),
            full.estimates.energy_bound.get(),
            "energy_bound",
        ),
    ];
    for (a, b, what) in pairs {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: {what} {a} vs {b}");
    }
}

proptest! {
    /// The lane (SoA, memo, early exit): for arbitrary tables and
    /// decision inputs, it selects bit-identically to the reference
    /// enumeration, and its valid-only query returns that selection
    /// exactly when it is feasible.
    #[test]
    fn lane_is_bit_identical_to_full_enumeration(
        raw in proptest::collection::vec(0.0f64..1.0, 64..96),
        n_queries in 4usize..10,
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let lane = CandidateLane::build(&table);
        let mut scratch = LaneScratch::for_lane(&lane);
        for q in 0..n_queries {
            let xi = random_belief(&mut pool);
            let idle = random_idle(&mut pool);
            let goal = random_goal(&mut pool, &table);
            let period = Seconds(pool.range(0.001, 1.0));
            let mode = if pool.chance(0.25) {
                ProbabilityMode::MeanOnly
            } else {
                ProbabilityMode::Full
            };
            let fast = lane
                .select_with_period(&mut scratch, &xi, idle, &goal, period, mode)
                .expect("valid goal");
            let full = select_with_period(&table, &xi, idle, &goal, period, mode)
                .expect("valid goal");
            assert_bits_equal(&fast, &full, &format!("query {q}"));
            let valid = lane
                .select_valid_with_period(&mut scratch, &xi, idle, &goal, period, mode)
                .expect("valid goal");
            assert_eq!(valid.is_some(), full.feasible, "query {q}: valid only");
            if let Some(sel) = valid {
                assert_bits_equal(&sel, &full, &format!("query {q} (valid only)"));
            }
        }
    }

    /// The full controller path — the overhead reserve *plus* the fast
    /// lane and its seeded incumbent — against the reference
    /// enumeration, across observation feedback, repeated decides, a
    /// fresh deadline every step, snapshot/restore migration, and
    /// resets. The emitted
    /// selection must always equal a fresh full enumeration at the
    /// controller's current belief and the decision's effective deadline.
    #[test]
    fn controller_decisions_replay_full_enumeration(
        raw in proptest::collection::vec(0.0f64..1.0, 96..128),
        n_steps in 20usize..40,
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let params = AlertParams {
            // Every effective deadline is the step's goal deadline minus
            // this reserve, floored at 1 µs when the reserve is larger.
            overhead: OverheadPolicy::Fixed(Seconds(pool.range(0.0, 0.05))),
            mode: if pool.chance(0.25) {
                ProbabilityMode::MeanOnly
            } else {
                ProbabilityMode::Full
            },
            ..Default::default()
        };
        let mut ctl = AlertController::new(table.clone(), params).expect("valid params");
        let base = random_goal(&mut pool, &table);
        let period = Seconds(pool.range(0.001, 1.0));

        for step in 0..n_steps {
            let goal = base.with_deadline(Seconds(pool.range(0.005, 0.6)));
            if pool.chance(0.1) {
                // Checkpoint, migrate to a fresh controller, continue.
                let snap = ctl.snapshot();
                let mut fresh = AlertController::new(table.clone(), params).expect("valid params");
                fresh.restore(&snap);
                ctl = fresh;
            }
            if pool.chance(0.05) {
                ctl.reset();
            }

            let sel = ctl.decide_with_period(&goal, period).expect("valid goal");
            // The Selection records the effective deadline the decision
            // was judged against; replaying the reference enumeration at
            // that deadline and the controller's current belief must
            // reproduce it bit for bit.
            let reference = select_with_period(
                &table,
                &ctl.slowdown().distribution(),
                ctl.idle_ratio(),
                &goal.with_deadline(sel.deadline),
                period,
                params.mode,
            )
            .expect("valid goal");
            assert_bits_equal(&sel, &reference, &format!("step {step}"));

            // Repeat the decision without feedback (the inputs are
            // unchanged, and the lane starts from the seed the first
            // decision left).
            if ctl.decisions() > 0 && pool.chance(0.5) {
                let again = ctl.decide_with_period(&goal, period).expect("valid goal");
                let reference2 = select_with_period(
                    &table,
                    &ctl.slowdown().distribution(),
                    ctl.idle_ratio(),
                    &goal.with_deadline(again.deadline),
                    period,
                    params.mode,
                )
                .expect("valid goal");
                assert_bits_equal(&again, &reference2, &format!("step {step} (repeat)"));
            }

            // Feed an observation so the belief moves.
            let profile = Seconds(pool.range(0.005, 0.3));
            ctl.observe(&Observation {
                latency: profile * pool.range(0.5, 2.5),
                profile_equivalent: profile,
                idle_power: pool.chance(0.7).then(|| Watts(pool.range(1.0, 10.0))),
                idle_cap: Watts(pool.range(10.0, 50.0)),
            });
        }
    }

    /// One belief per random table against a dense goal grid: deadlines
    /// from tight to loose, low and high floors, starved and ample
    /// budgets, one lane scratch carried across all of them.
    #[test]
    fn random_tables_survive_a_goal_grid(
        raw in proptest::collection::vec(0.0f64..1.0, 64..96),
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let lane = CandidateLane::build(&table);
        let mut scratch = LaneScratch::for_lane(&lane);
        let xi = random_belief(&mut pool);
        let idle = random_idle(&mut pool);
        for &deadline in &[0.004, 0.02, 0.08, 0.3] {
            for goal in [
                Goal::minimize_energy(Seconds(deadline), 0.5),
                Goal::minimize_energy(Seconds(deadline), 0.95),
                Goal::minimize_error(Seconds(deadline), Joules(1e-6)),
                Goal::minimize_error(Seconds(deadline), Joules(5.0)),
            ] {
                let fast = lane
                    .select_with_period(&mut scratch, &xi, idle, &goal, goal.deadline, ProbabilityMode::Full)
                    .expect("valid goal");
                let full = select_with_period(&table, &xi, idle, &goal, goal.deadline, ProbabilityMode::Full)
                    .expect("valid goal");
                assert_bits_equal(&fast, &full, &format!("deadline {deadline} {:?}", goal.objective));
            }
        }
    }
}

/// Lane and reference selections at one set of decision inputs, asserted
/// bit-identical; returns the lane's.
fn lane_matches_reference(
    lane: &CandidateLane,
    scratch: &mut LaneScratch,
    table: &ConfigTable,
    xi: &Normal,
    goal: &Goal,
    mode: ProbabilityMode,
    label: &str,
) -> Selection {
    let fast = lane
        .select_with_period(scratch, xi, 0.25, goal, goal.deadline, mode)
        .expect("valid goal");
    let full = select_with_period(table, xi, 0.25, goal, goal.deadline, mode).expect("valid goal");
    assert_bits_equal(&fast, &full, label);
    fast
}

/// Two traditional models that differ only in their fallback quality,
/// with the same latency and run power at each of two caps. Wherever
/// completion is certain their estimates are bit-identical. The high cap
/// halves the latency at a higher energy.
fn twin_table() -> ConfigTable {
    let models = vec![
        CandidateModel::traditional("early", 0.9, 0.0),
        CandidateModel::traditional("late", 0.9, 0.1),
    ];
    let t_prof = vec![vec![Seconds(0.1), Seconds(0.05)]; 2];
    let p_run = vec![vec![Watts(30.0), Watts(70.0)]; 2];
    ConfigTable::new(models, vec![Watts(40.0), Watts(80.0)], t_prof, p_run).expect("valid table")
}

#[test]
fn exact_tie_goes_to_the_earlier_candidate_even_when_the_later_is_seeded() {
    let table = twin_table();
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    // Uncertain completion: the higher fallback makes "late" strictly
    // better at equal energy, so it wins and seeds the next decision.
    let risky = Normal::new(1.0, 0.05);
    let seed_goal = Goal::minimize_energy(Seconds(0.11), 0.8);
    // Certain completion: the twins tie bit for bit, and the earlier one
    // must win although the later one is scored first. At 0.1 s the mean
    // latency lands exactly on the deadline, which still meets it.
    let certain = Normal::new(1.0, 0.0);
    for deadline in [0.11, 0.1] {
        let goal = seed_goal.with_deadline(Seconds(deadline));
        for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
            let seeded = lane_matches_reference(
                &lane,
                &mut scratch,
                &table,
                &risky,
                &seed_goal,
                ProbabilityMode::Full,
                "seed",
            );
            assert_eq!(
                (seeded.candidate.model, seeded.candidate.power),
                (1, 0),
                "the later twin must win first"
            );
            let sel =
                lane_matches_reference(&lane, &mut scratch, &table, &certain, &goal, mode, "tie");
            assert_eq!(
                (sel.candidate.model, sel.candidate.power),
                (0, 0),
                "{mode:?}: the earlier twin wins a tie"
            );
            assert!(sel.feasible, "{mode:?} at {deadline} s");
        }
    }
}

/// Two traditional models and one 2-stage anytime across two caps, the
/// expensive model first in enumeration order.
fn small_big_table() -> ConfigTable {
    let models = vec![
        CandidateModel::traditional("big", 0.95, 0.005),
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
    let powers = vec![Watts(20.0), Watts(45.0)];
    let t_prof = vec![
        vec![Seconds(0.200), Seconds(0.100)],
        vec![Seconds(0.040), Seconds(0.020)],
        vec![Seconds(0.240), Seconds(0.120)],
    ];
    let p_run = vec![
        vec![Watts(19.0), Watts(42.0)],
        vec![Watts(18.0), Watts(40.0)],
        vec![Watts(19.0), Watts(42.0)],
    ];
    ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
}

#[test]
fn goal_flips_that_invalidate_the_seed_still_match_the_reference() {
    let table = small_big_table();
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    let xi = Normal::new(1.1, 0.08);
    let low = Goal::minimize_energy(Seconds(0.3), 0.8);
    let high = Goal::minimize_energy(Seconds(0.3), 0.92);
    for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
        let cheap = lane_matches_reference(&lane, &mut scratch, &table, &xi, &low, mode, "low");
        assert_eq!(
            cheap.candidate.model, 1,
            "{mode:?}: the low floor admits small"
        );
        // The seed (small) cannot reach the raised floor.
        let raised = lane_matches_reference(&lane, &mut scratch, &table, &xi, &high, mode, "high");
        assert_ne!(
            raised.candidate.model, 1,
            "{mode:?}: small misses the raised floor"
        );
        assert!(raised.feasible);
        let back = lane_matches_reference(&lane, &mut scratch, &table, &xi, &low, mode, "back");
        assert_eq!(back.candidate, cheap.candidate);
    }
}

#[test]
fn floor_above_every_model_falls_back_like_the_reference() {
    let table = small_big_table();
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    for xi in [Normal::new(1.0, 0.05), Normal::new(1.3, 0.0)] {
        for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
            // Seed an incumbent first, then ask for the impossible.
            let ok = Goal::minimize_energy(Seconds(0.3), 0.8);
            let _ = lane_matches_reference(&lane, &mut scratch, &table, &xi, &ok, mode, "seed");
            for deadline in [0.3, 0.01] {
                let goal = Goal::minimize_energy(Seconds(deadline), 0.99);
                let sel =
                    lane_matches_reference(&lane, &mut scratch, &table, &xi, &goal, mode, "none");
                assert!(!sel.feasible, "{mode:?}: nothing reaches 0.99");
            }
        }
    }
}

#[test]
fn nan_fallback_quality_under_minimize_energy_matches_the_reference() {
    let models = vec![
        CandidateModel::traditional("poisoned", 0.9, f64::NAN),
        CandidateModel::traditional("sane", 0.8, 0.0),
    ];
    let t_prof = vec![vec![Seconds(0.040)], vec![Seconds(0.050)]];
    let p_run = vec![vec![Watts(30.0)], vec![Watts(40.0)]];
    let table = ConfigTable::new(models, vec![Watts(45.0)], t_prof, p_run).expect("valid table");
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    for xi in [Normal::new(1.0, 0.0), Normal::new(1.0, 0.05)] {
        for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
            for floor in [0.5, 0.85, 0.99] {
                let goal = Goal::minimize_energy(Seconds(0.3), floor);
                let label = format!("floor {floor} {mode:?} sd {}", xi.std_dev());
                let _ =
                    lane_matches_reference(&lane, &mut scratch, &table, &xi, &goal, mode, &label);
            }
        }
    }
}

#[test]
fn reset_and_restore_forget_the_seeded_incumbent() {
    let params = AlertParams {
        overhead: OverheadPolicy::None,
        ..Default::default()
    };
    // "big" enumerates first and is valid, "small" is cheaper and wins:
    // unseeded, both get scored.
    let goal = Goal::minimize_energy(Seconds(0.3), 0.8);
    let mut ctl = AlertController::new(small_big_table(), params).expect("valid params");
    let pristine = ctl.snapshot();
    let scored = |ctl: &AlertController| ctl.last_trace().expect("decided").live;

    let first = ctl.decide(&goal).expect("valid goal");
    let cold = scored(&ctl);
    // The same inputs decided again, now with a seed.
    assert_eq!(ctl.decide(&goal).expect("valid goal"), first);
    let warm = scored(&ctl);
    assert!(
        0 < warm && warm < cold,
        "the seed must save scoring here: {warm} vs {cold}"
    );

    ctl.reset();
    assert_eq!(ctl.decide(&goal).expect("valid goal"), first);
    assert_eq!(scored(&ctl), cold, "reset keeps a seed");

    let _ = ctl.decide(&goal).expect("valid goal");
    assert_eq!(scored(&ctl), warm);
    ctl.restore(&pristine);
    assert_eq!(ctl.decide(&goal).expect("valid goal"), first);
    assert_eq!(scored(&ctl), cold, "restore keeps a seed");
}

/// A scratch for a one-model lane with `powers` caps: `powers` memo slots
/// and a one-stage quality buffer.
fn one_model_scratch(powers: usize) -> LaneScratch {
    let table = ConfigTable::new(
        vec![CandidateModel::traditional("only", 0.9, 0.0)],
        (0..powers).map(|j| Watts(20.0 + j as f64)).collect(),
        vec![(0..powers)
            .map(|j| Seconds(0.1 - 0.001 * j as f64))
            .collect()],
        vec![(0..powers).map(|j| Watts(18.0 + j as f64)).collect()],
    )
    .expect("valid table");
    LaneScratch::for_lane(&CandidateLane::build(&table))
}

#[test]
fn a_scratch_sized_for_another_lane_decides_like_the_reference() {
    let table = small_big_table();
    let lane = CandidateLane::build(&table);
    let xi = Normal::new(1.1, 0.08);
    for goal in [
        Goal::minimize_energy(Seconds(0.3), 0.9),
        Goal::minimize_error(Seconds(0.3), Joules(14.0)),
    ] {
        for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
            // Too few memo slots for this lane's 8, then the right slot
            // count with a quality buffer too short for the anytime
            // staircase.
            for powers in [2, 8] {
                let mut scratch = one_model_scratch(powers);
                let label = format!("{:?} {mode:?} {powers}-slot scratch", goal.objective);
                let _ =
                    lane_matches_reference(&lane, &mut scratch, &table, &xi, &goal, mode, &label);
            }
        }
    }
}

#[test]
fn prob_thresholds_outside_the_open_unit_interval_are_errors_not_panics() {
    let table = small_big_table();
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    let mut ctl = AlertController::new(table.clone(), AlertParams::default()).expect("valid");
    let xi = Normal::new(1.0, 0.05);
    for pr in [0.0, 1.0, f64::NAN] {
        let mut goal = Goal::minimize_energy(Seconds(0.35), 0.9);
        goal.prob_threshold = Some(pr);
        let mode = ProbabilityMode::Full;
        let errors = [
            lane.select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode),
            select_with_period(&table, &xi, 0.25, &goal, goal.deadline, mode),
            ctl.decide(&goal),
        ]
        .map(|r| r.expect_err("out-of-range threshold"));
        for err in errors {
            assert!(err.starts_with("invalid goal: "), "threshold {pr}: {err}");
        }
    }
}

/// One traditional model at two caps. The first cap has the higher run
/// energy (5 J against 4 J), so the walk visits it second, but its lower
/// cap's idle energy makes up the difference exactly: at ξ̄ = 1, φ = 0.25
/// and a 0.375 s period both cost 8 J, with the same latency and quality.
fn idle_tie_table() -> ConfigTable {
    ConfigTable::new(
        vec![CandidateModel::traditional("only", 0.9, 0.0)],
        vec![Watts(48.0), Watts(64.0)],
        vec![vec![Seconds(0.125), Seconds(0.125)]],
        vec![vec![Watts(40.0), Watts(32.0)]],
    )
    .expect("valid table")
}

#[test]
fn an_exact_energy_tie_visited_after_the_incumbent_is_scored_and_wins() {
    let table = idle_tie_table();
    let lane = CandidateLane::build(&table);
    let goal = Goal::minimize_energy(Seconds(0.375), 0.5);
    let xi = Normal::new(1.0, 0.0);
    for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
        let mut scratch = LaneScratch::for_lane(&lane);
        let sel = lane_matches_reference(&lane, &mut scratch, &table, &xi, &goal, mode, "tie");
        assert_eq!(sel.estimates.energy, Joules(8.0), "{mode:?}");
        assert_eq!(
            sel.candidate.power, 0,
            "{mode:?}: the earlier-enumerated twin wins the tie"
        );
    }
}

/// One traditional model at two caps with the same run energy, 3 J: the
/// high cap halves the latency at twice the power, so it completes more
/// surely and, at φ = 0, ties the low cap in energy.
fn run_energy_tie_table() -> ConfigTable {
    ConfigTable::new(
        vec![CandidateModel::traditional("only", 0.9, 0.0)],
        vec![Watts(20.0), Watts(40.0)],
        vec![vec![Seconds(0.25), Seconds(0.125)]],
        vec![vec![Watts(12.0), Watts(24.0)]],
    )
    .expect("valid table")
}

#[test]
fn with_no_idle_energy_a_run_energy_tie_is_scored_and_the_surer_cap_wins() {
    let table = run_energy_tie_table();
    let lane = CandidateLane::build(&table);
    let goal = Goal::minimize_energy(Seconds(0.27), 0.5);
    let xi = Normal::new(1.0, 0.1);
    let mode = ProbabilityMode::Full;
    let mut scratch = LaneScratch::for_lane(&lane);
    let fast = lane
        .select_with_period(&mut scratch, &xi, 0.0, &goal, goal.deadline, mode)
        .expect("valid goal");
    let full =
        select_with_period(&table, &xi, 0.0, &goal, goal.deadline, mode).expect("valid goal");
    assert_bits_equal(&fast, &full, "phi = 0");
    assert_eq!(fast.estimates.energy, Joules(3.0));
    assert_eq!(fast.candidate.power, 1, "the surer cap wins the energy tie");
}

/// A negative cap makes the idle term negative, so Eq. 9 can fall below
/// the run energy: the walk must visit such an entry whatever its run
/// energy. Here the low-run-energy setting is valid first at 4 J, and
/// the negative-cap setting, at 5 J of run energy, costs −7.5 J at
/// φ = 0.25. `ConfigTable::new` refuses such caps, but a table read
/// from JSON is not validated, so the lane must stay exact on one.
#[test]
fn a_negative_cap_is_never_cut_by_the_run_energy_stop() {
    let table: ConfigTable = serde_json::from_str(
        r#"{
            "models": [{"name": "only", "stages": [{"frac": 1.0, "quality": 0.9}], "fail_quality": 0.0}],
            "devices": [{"powers": [-100.0, 0.0], "t_prof": [[0.5, 0.5]], "p_run": [[10.0, 8.0]]}]
        }"#,
    )
    .expect("table JSON parses");
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    let goal = Goal::minimize_energy(Seconds(1.0), 0.5);
    let xi = Normal::new(1.0, 0.0);
    for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
        let sel = lane_matches_reference(
            &lane,
            &mut scratch,
            &table,
            &xi,
            &goal,
            mode,
            "negative cap",
        );
        assert_eq!(sel.candidate.power, 0, "{mode:?}");
        assert_eq!(sel.estimates.energy, Joules(-7.5), "{mode:?}");
    }
}
