//! Integration tests of the scenario engine: script serde round-trips,
//! frozen-environment determinism across schemes (including through
//! cap/goal phase boundaries), scripted-condition end-to-end behavior,
//! and runtime sessions over scripted scenarios.

use alert::platform::Platform;
use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::{run_episode, AlertScheduler, EpisodeEnv, SysOnly};
use alert::stats::units::Seconds;
use alert::workload::{
    ArrivalProcess, GoalPatch, InputStream, Scenario, ScenarioScript, ScriptEvent, TaskId,
};
use alert::workload::{Goal, Objective};
use proptest::prelude::*;

/// A stressful compound script whose phases cover every event class.
fn compound_script(seed: u64) -> Scenario {
    Scenario::compound_stress(seed)
}

#[test]
fn scripted_scenario_survives_json_bit_exactly() {
    // A scripted scenario serialized, restored and re-serialized is
    // byte-identical — and realizes to a bit-identical environment.
    let scenario = compound_script(40);
    let json = serde_json::to_string_pretty(&scenario).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(scenario, back);
    assert_eq!(json, serde_json::to_string_pretty(&back).unwrap());

    let node = [Platform::cpu1()];
    let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
    let stream = InputStream::generate(TaskId::Img2, 150, 9);
    let a = EpisodeEnv::build(&node, &scenario, &stream, &goal, 9, None).unwrap();
    let b = EpisodeEnv::build(&node, &back, &stream, &goal, 9, None).unwrap();
    assert!(a == b);
}

#[test]
fn session_spec_with_scripted_scenario_roundtrips() {
    let spec = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::cap_storm(),
        n_inputs: 80,
        seed: Some(5),
        policy: Some("ALERT".into()),
    };
    let json = serde_json::to_string(&spec).unwrap();
    let back: SessionSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}

proptest! {
    /// Same seed ⇒ bit-identical `EnvRealization` sequence no matter
    /// which scheme consumes the environment — the realization is built
    /// once from (scenario, stream, goal, seed) and running a scheme
    /// over it mutates nothing, including through cap/goal phase
    /// boundaries (library scenarios 3..10 all script phase changes).
    #[test]
    fn frozen_env_is_scheme_independent(
        seed in 0i64..500,
        scenario_idx in 0usize..12,
        n in 60usize..140,
    ) {
        let seed = seed as u64;
        let scenario = &Scenario::library(7)[scenario_idx];
        let node = [Platform::cpu1()];
        let family = alert::models::ModelFamily::image_classification();
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, n, seed);
        // Span-aware build: the library's FloorRaise scenario expresses
        // its floor relative to the family's quality range.
        let span = alert::workload::quality_span(&family, &node[0]);

        let env_a =
            EpisodeEnv::build(&node, scenario, &stream, &goal, seed, Some(span))
                .unwrap();
        let mut alert = AlertScheduler::standard(&family, &node[0], goal).unwrap();
        let ep_alert = run_episode(&mut alert, &env_a, &family, &stream, &goal).unwrap();
        prop_assert_eq!(ep_alert.records.len(), n);

        let env_b =
            EpisodeEnv::build(&node, scenario, &stream, &goal, seed, Some(span))
                .unwrap();
        let mut sys = SysOnly::new(&family, &node, goal).unwrap();
        let _ = run_episode(&mut sys, &env_b, &family, &stream, &goal).unwrap();

        // Bit-identical conditions for both schemes, after both ran.
        prop_assert!(env_a == env_b);
    }
}

#[test]
fn alert_tracks_a_goal_flip_mid_stream() {
    // Under GoalFlip the deadline tightens to 0.24 s for the middle
    // third; ALERT must meet the tightened deadlines too (Sys-only's
    // pinned model also fits — the point here is the *adaptive* scheme
    // never blows the flipped phase).
    let node = [Platform::cpu1()];
    let family = alert::models::ModelFamily::image_classification();
    let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
    let stream = InputStream::generate(TaskId::Img2, 240, 11);
    let scenario = Scenario::goal_flip();
    let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 11, None).unwrap();
    let mut s = AlertScheduler::standard(&family, &node[0], goal).unwrap();
    let ep = run_episode(&mut s, &env, &family, &stream, &goal).unwrap();

    let flipped: Vec<_> = ep
        .records
        .iter()
        .filter(|r| (r.deadline.get() - 0.24).abs() < 1e-9)
        .collect();
    assert!(flipped.len() > 40, "flip phase: {} inputs", flipped.len());
    let misses = flipped
        .iter()
        .filter(|r| r.latency.get() > r.deadline.get() * (1.0 + 1e-9))
        .count();
    assert!(
        (misses as f64) < flipped.len() as f64 * 0.1,
        "{misses}/{} misses inside the tightened phase",
        flipped.len()
    );
}

#[test]
fn cap_ceiling_is_invisible_in_records_but_physical_in_energy() {
    // A scripted full-episode cap ceiling at the range minimum: records
    // keep reporting the caps the scheduler programmed, while the
    // realized latencies follow the clamped cap (observed slowdown ≫ 1
    // for a scheme predicting at high caps).
    let node = [Platform::cpu1()];
    let family = alert::models::ModelFamily::image_classification();
    let goal = Goal::minimize_energy(Seconds(0.8), 0.85);
    let stream = InputStream::generate(TaskId::Img2, 100, 3);
    let capped = Scenario::from_script(
        "FloorCap",
        ScenarioScript::new().with(ScriptEvent::CapStep { at: 0.0, frac: 0.0 }),
    );
    let env = EpisodeEnv::build(&node, &capped, &stream, &goal, 3, None).unwrap();
    let free = EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 3, None).unwrap();

    // App-only always requests the default (maximum) cap.
    let run = |env: &EpisodeEnv| {
        let mut s = alert::sched::AppOnly::new(&family, &node[0]).unwrap();
        run_episode(&mut s, env, &family, &stream, &goal).unwrap()
    };
    let ep_capped = run(&env);
    let ep_free = run(&free);
    let max_cap = node[0].default_cap();
    assert!(ep_capped.records.iter().all(|r| r.cap == max_cap));
    // Same programmed cap, but the physical clamp slows execution and
    // cuts the drawn power.
    assert!(
        ep_capped.summary.avg_latency.get() > ep_free.summary.avg_latency.get() * 1.5,
        "clamped {} vs free {}",
        ep_capped.summary.avg_latency,
        ep_free.summary.avg_latency
    );
    assert!(ep_capped.summary.avg_energy < ep_free.summary.avg_energy);
}

#[test]
fn runtime_sessions_replay_scripted_scenarios_deterministically() {
    // The runtime path (SessionSpec → open → drain) realizes scripted
    // scenarios exactly like the one-shot harness, including checkpoint
    // restore across a goal-change boundary.
    let spec = SessionSpec {
        goal: Goal::minimize_error(
            Seconds(0.4),
            alert::stats::units::Watts(25.0) * Seconds(0.4),
        ),
        scenario: compound_script(21),
        n_inputs: 90,
        seed: Some(77),
        policy: Some("ALERT".into()),
    };
    assert_eq!(spec.goal.objective, Objective::MinimizeError);

    let mut rt = Runtime::builder().build().unwrap();
    let id = rt.session(spec.clone()).open().unwrap();
    rt.run_to_completion(id).unwrap();
    let reference = rt.close(id).unwrap();

    // Stop halfway — inside the scripted phase sequence — snapshot,
    // migrate, finish: bit-identical to the uninterrupted run.
    let mut rt1 = Runtime::builder().build().unwrap();
    let id1 = rt1.session(spec).open().unwrap();
    for _ in 0..45 {
        rt1.submit(id1).unwrap();
    }
    let snap = rt1.snapshot_session(id1).unwrap();
    let mut rt2 = Runtime::builder().build().unwrap();
    let id2 = rt2.restore_session(&snap).unwrap();
    rt2.run_to_completion(id2).unwrap();
    let resumed = rt2.close(id2).unwrap();
    assert_eq!(reference.records, resumed.records);
}

#[test]
fn runtime_rejects_invalid_scripts_loudly() {
    let mut rt = Runtime::builder().build().unwrap();
    let bad = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::from_script(
            "Bad",
            ScenarioScript::new().with(ScriptEvent::GoalChange {
                at: 0.5,
                patch: GoalPatch::deadline(-1.0),
            }),
        ),
        n_inputs: 20,
        seed: Some(1),
        policy: None,
    };
    let err = rt.session(bad).open().unwrap_err();
    assert!(err.to_string().contains("deadline_scale"), "{err}");
}

#[test]
fn arrival_processes_keep_schemes_comparable() {
    // Arrival switches reshape the dispatch grid, but two builds of the
    // same scenario still agree bit-exactly (the Poisson draws come from
    // a dedicated frozen stream).
    let node = [Platform::cpu1()];
    let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
    let stream = InputStream::generate(TaskId::Img2, 120, 13);
    let scenario = Scenario::from_script(
        "SwitchingArrivals",
        ScenarioScript::new()
            .with_arrival(ArrivalProcess::Bursty {
                burst: 5,
                spread: 0.2,
            })
            .with(ScriptEvent::ArrivalChange {
                at: 0.5,
                process: ArrivalProcess::Poisson { rate_scale: 1.5 },
            }),
    );
    let a = EpisodeEnv::build(&node, &scenario, &stream, &goal, 13, None).unwrap();
    let b = EpisodeEnv::build(&node, &scenario, &stream, &goal, 13, None).unwrap();
    assert!(a == b);
    // Dispatch times are strictly non-decreasing across the switch.
    for i in 1..a.len() {
        assert!(a.realization(i).dispatch_time >= a.realization(i - 1).dispatch_time);
    }
}

#[test]
fn scripted_floor_raise_binds_in_episode_accounting() {
    // Sys-only pins the fastest traditional model (quality 0.855). With
    // a base floor of 0.85 it passes; when the script raises the floor
    // to 0.90 mid-stream, the records carry the effective floor and the
    // episode is disqualified — even though the base goal alone would
    // judge it compliant.
    let node = [Platform::cpu1()];
    let family = alert::models::ModelFamily::image_classification();
    let goal = Goal::minimize_energy(Seconds(0.5), 0.85);
    let stream = InputStream::generate(TaskId::Img2, 120, 5);
    let run = |scenario: &Scenario| {
        let env = EpisodeEnv::build(&node, scenario, &stream, &goal, 5, None).unwrap();
        let mut s = SysOnly::new(&family, &node, goal).unwrap();
        run_episode(&mut s, &env, &family, &stream, &goal).unwrap()
    };
    let steady = run(&Scenario::default_env());
    assert!(steady.summary.quality_floor_met);

    let raised = Scenario::from_script(
        "FloorRaise",
        ScenarioScript::new().with(ScriptEvent::GoalChange {
            at: 0.4,
            patch: GoalPatch {
                min_quality: Some(0.90),
                ..Default::default()
            },
        }),
    );
    let flipped = run(&raised);
    assert!(
        flipped.records.iter().any(|r| r.min_quality == Some(0.90)),
        "records must carry the raised floor"
    );
    assert!(
        !flipped.summary.quality_floor_met,
        "the scripted floor must bind in the summary"
    );
    assert!(flipped.summary.disqualified());
}

#[test]
fn relative_floor_raise_binds_for_the_image_family() {
    // The library's FloorRaise scenario expresses its floor as 85% of the
    // family's quality range. For the image family that lands around
    // 0.92 — above Sys-only's pinned 0.855 model, so the raise must
    // disqualify it even though the base 0.85 floor is satisfied.
    let node = [Platform::cpu1()];
    let family = alert::models::ModelFamily::image_classification();
    let span = alert::workload::quality_span(&family, &node[0]);
    let goal = Goal::minimize_energy(Seconds(0.5), 0.85);
    let stream = InputStream::generate(TaskId::Img2, 120, 5);
    let scenario = Scenario::floor_raise();
    let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 5, Some(span)).unwrap();
    assert_eq!(env.goal_of(0).min_quality, Some(0.85));
    let raised = env.goal_of(env.len() - 1).min_quality.unwrap();
    assert!((raised - span.floor_at(0.85)).abs() < 1e-12);
    assert!(raised > 0.9, "image floor raise lands at {raised}");

    let mut s = SysOnly::new(&family, &node, goal).unwrap();
    let ep = run_episode(&mut s, &env, &family, &stream, &goal).unwrap();
    assert!(
        !ep.summary.quality_floor_met,
        "the relative raise must bind"
    );
    assert!(ep.summary.disqualified());
}

#[test]
fn relative_floor_raise_binds_for_the_sentence_family() {
    // The SAME named scenario, realized for the sentence-prediction
    // family, resolves to a negative-perplexity floor inside that
    // family's range — no per-family retuning.
    let node = [Platform::cpu1()];
    let family = alert::models::ModelFamily::sentence_prediction();
    let span = alert::workload::quality_span(&family, &node[0]);
    assert!(span.hi < 0.0, "perplexity scores are negative");
    let goal = Goal::minimize_energy(Seconds(0.2), span.lo);
    let stream = InputStream::generate(TaskId::Nlp1, 200, 5);
    let scenario = Scenario::floor_raise();
    let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 5, Some(span)).unwrap();
    assert_eq!(env.goal_of(0).min_quality, Some(span.lo));
    let raised = env.goal_of(env.len() - 1).min_quality.unwrap();
    assert!((raised - span.floor_at(0.85)).abs() < 1e-12);
    assert!(
        span.lo < raised && raised <= span.hi,
        "raised NLP floor {raised} must sit inside [{}, {}]",
        span.lo,
        span.hi
    );
    // The raise binds against a scheme pinned to the weakest candidate.
    let mut s = SysOnly::new(&family, &node, goal).unwrap();
    let ep = run_episode(&mut s, &env, &family, &stream, &goal).unwrap();
    assert!(
        !ep.summary.quality_floor_met,
        "the raised perplexity floor must bind"
    );
}
