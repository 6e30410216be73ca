//! Integration tests of the trace subsystem: capture from the live
//! runtime (serial and sharded), file round trips, replay fit modes at
//! every horizon mismatch, typed errors for malformed files, and a
//! proptest that capture→replay is bit-identical across schemes.

use alert::platform::Platform;
use alert::sched::capture::TraceRecorder;
use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::{run_episode, AlertScheduler, EnvError, EpisodeEnv, SysOnly};
use alert::stats::units::Seconds;
use alert::workload::{
    quality_span, Goal, InputStream, Scenario, TaskId, TraceError, TraceFit, TraceSource,
    TraceStep, WorkloadTrace,
};
use proptest::prelude::*;
use std::io::Cursor;

fn base_goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

fn spec(scenario: Scenario, n: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        goal: base_goal(),
        scenario,
        n_inputs: n,
        seed: Some(seed),
        policy: Some("ALERT".into()),
    }
}

/// Captures `scenario` through a runtime sink; returns the trace and the
/// recorded session id.
fn capture(scenario: Scenario, n: usize, seed: u64) -> (WorkloadTrace, u64) {
    let recorder = TraceRecorder::new(scenario.name(), Some(seed));
    let mut rt = Runtime::builder()
        .seed(seed)
        .sink(recorder.clone())
        .build()
        .unwrap();
    let id = rt.session(spec(scenario, n, seed)).open().unwrap();
    rt.run_to_completion(id).unwrap();
    rt.close(id).unwrap();
    (recorder.snapshot(), id.0)
}

#[test]
fn capture_survives_the_file_format_bit_exactly() {
    let (trace, session) = capture(Scenario::compound_stress(17), 80, 17);
    assert_eq!(trace.len(), 80);
    let mut buf = Vec::new();
    trace.write_to(&mut buf).unwrap();
    let loaded = WorkloadTrace::read_from(Cursor::new(&buf)).unwrap();
    assert_eq!(trace, loaded);
    for (a, b) in trace.records().iter().zip(loaded.records()) {
        assert_eq!(
            a.inter_arrival.get().to_bits(),
            b.inter_arrival.get().to_bits()
        );
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    }
    assert_eq!(loaded.sessions(), vec![session]);
    assert_eq!(loaded.header().source, "CompoundStress");
    assert_eq!(loaded.header().seed, Some(17));
}

#[test]
fn multi_session_capture_preserves_per_session_order() {
    // Three interleaved sessions through one runtime: the capture keeps
    // each session's records in dispatch order, and each extracts into
    // its own replay source.
    let recorder = TraceRecorder::new("multi", Some(3));
    let mut rt = Runtime::builder()
        .seed(3)
        .sink(recorder.clone())
        .build()
        .unwrap();
    let ids: Vec<_> = (0..3u64)
        .map(|k| {
            rt.session(spec(
                Scenario::memory_env(3 + k),
                30 + 5 * k as usize,
                3 + k,
            ))
            .open()
            .unwrap()
        })
        .collect();
    rt.drain().unwrap();
    let trace = recorder.snapshot();
    assert_eq!(trace.len(), 30 + 35 + 40);
    for (k, id) in ids.iter().enumerate() {
        let seqs: Vec<usize> = trace.session_records(id.0).map(|r| r.seq).collect();
        assert_eq!(seqs, (0..30 + 5 * k).collect::<Vec<_>>(), "session {id}");
        let source = trace.replay_source(id.0).unwrap();
        assert_eq!(source.len(), 30 + 5 * k);
    }
}

#[test]
fn sharded_capture_matches_serial_capture() {
    // The same sessions captured through a 3-shard runtime produce the
    // same per-session traces as a one-shard runtime.
    let capture_on = |workers: usize| {
        let recorder = TraceRecorder::new("cap", Some(5));
        let mut rt = Runtime::builder()
            .seed(5)
            .sink(recorder.clone())
            .build_sharded(workers)
            .unwrap();
        for k in 0..4u64 {
            rt.session(spec(Scenario::churn(5 + k), 24, 5 + k))
                .open()
                .unwrap();
        }
        rt.drain().unwrap();
        recorder.snapshot()
    };
    let serial = capture_on(1);
    let sharded = capture_on(3);
    assert_eq!(serial.len(), sharded.len());
    for session in serial.sessions() {
        let a: Vec<_> = serial.session_records(session).collect();
        let b: Vec<_> = sharded.session_records(session).collect();
        assert_eq!(
            a, b,
            "session {session} capture diverged across shard counts"
        );
    }
}

#[test]
fn empty_and_missing_sessions_are_typed_errors() {
    let empty = WorkloadTrace::new("empty", None);
    assert!(matches!(empty.replay_source(0), Err(TraceError::Empty)));
    let (trace, session) = capture(Scenario::default_env(), 20, 9);
    assert!(trace.replay_source(session).is_ok());
    assert!(matches!(
        trace.replay_source(session + 1),
        Err(TraceError::Empty)
    ));
    // An empty trace still round-trips through the format (header only).
    let mut buf = Vec::new();
    empty.write_to(&mut buf).unwrap();
    let back = WorkloadTrace::read_from(Cursor::new(&buf)).unwrap();
    assert!(back.is_empty());
}

#[test]
fn malformed_files_return_typed_errors_not_panics() {
    for (text, expect_not_a_trace) in [
        ("", true),
        ("garbage\n", true),
        (
            "{\"format\":\"other\",\"version\":1,\"source\":\"x\",\"seed\":null}\n",
            true,
        ),
    ] {
        match WorkloadTrace::read_from(Cursor::new(text)) {
            Err(TraceError::NotATrace(_)) => assert!(expect_not_a_trace),
            other => panic!("expected NotATrace for {text:?}, got {other:?}"),
        }
    }
    let future = "{\"format\":\"alert-trace\",\"version\":7,\"source\":\"x\",\"seed\":null}\n";
    assert!(matches!(
        WorkloadTrace::read_from(Cursor::new(future)),
        Err(TraceError::Version { found: 7, .. })
    ));
    let (trace, _) = capture(Scenario::default_env(), 10, 2);
    let mut buf = Vec::new();
    trace.write_to(&mut buf).unwrap();
    let mut text = String::from_utf8(buf).unwrap();
    text.insert_str(text.find('\n').unwrap() + 1, "not json\n");
    assert!(matches!(
        WorkloadTrace::read_from(Cursor::new(text)),
        Err(TraceError::Malformed { line: 2, .. })
    ));
}

/// Builds a replay env of `source` over an `n`-input horizon.
fn replay_env(
    source: TraceSource,
    fit: TraceFit,
    n: usize,
    seed: u64,
) -> Result<EpisodeEnv, EnvError> {
    let node = [Platform::cpu1()];
    let stream = InputStream::generate(TaskId::Img2, n, seed);
    EpisodeEnv::build(
        &node,
        &Scenario::replay("Replay", source, fit),
        &stream,
        &base_goal(),
        seed,
        None,
    )
}

#[test]
fn single_step_trace_covers_any_horizon_under_loop_and_stretch() {
    let one = TraceSource::new(
        "one",
        vec![TraceStep {
            inter_arrival: Seconds(0.25),
            scale: 1.4,
        }],
    );
    let env = replay_env(one.clone(), TraceFit::Loop, 40, 1).unwrap();
    for i in 0..40 {
        assert_eq!(env.period(i), Seconds(0.25));
        assert_eq!(env.realization(i).scale, 1.4);
    }
    let env = replay_env(one.clone(), TraceFit::Stretch, 40, 1).unwrap();
    for i in 0..40 {
        // One step stretched over 40 inputs: 1/40th the inter-arrival.
        let expected: f64 = 0.25 * (1.0 / 40.0);
        assert_eq!(env.period(i).get().to_bits(), expected.to_bits());
    }
    // Truncate cannot cover 40 inputs with one step.
    assert!(matches!(
        replay_env(one, TraceFit::Truncate, 40, 1),
        Err(EnvError::Script(_))
    ));
}

#[test]
fn horizon_mismatch_matrix_behaves_per_mode() {
    let (trace, session) = capture(Scenario::burst_arrival(), 60, 21);
    let source = trace.replay_source(session).unwrap();
    let recorded: Vec<(u64, u64)> = trace
        .session_records(session)
        .map(|r| (r.inter_arrival.get().to_bits(), r.scale.to_bits()))
        .collect();

    // Shorter horizon (30 < 60): every mode replays the prefix.
    for fit in [TraceFit::Loop, TraceFit::Truncate] {
        let env = replay_env(source.clone(), fit, 30, 21).unwrap();
        for (i, rec) in recorded.iter().take(30).enumerate() {
            assert_eq!(env.period(i).get().to_bits(), rec.0, "{fit} {i}");
            assert_eq!(env.realization(i).scale.to_bits(), rec.1);
        }
    }
    // Stretch onto 30 inputs: every other step, at 2× inter-arrival.
    let env = replay_env(source.clone(), TraceFit::Stretch, 30, 21).unwrap();
    for i in 0..30 {
        let expected = f64::from_bits(recorded[2 * i].0) * 2.0;
        assert_eq!(env.period(i).get().to_bits(), expected.to_bits());
    }

    // Longer horizon (90 > 60): Loop wraps, Truncate refuses, Stretch
    // spreads each step over 1.5 inputs at 2/3 the inter-arrival.
    let env = replay_env(source.clone(), TraceFit::Loop, 90, 21).unwrap();
    for i in 0..90 {
        assert_eq!(env.period(i).get().to_bits(), recorded[i % 60].0);
        assert_eq!(env.realization(i).scale.to_bits(), recorded[i % 60].1);
    }
    assert!(matches!(
        replay_env(source.clone(), TraceFit::Truncate, 90, 21),
        Err(EnvError::Script(_))
    ));
    let env = replay_env(source, TraceFit::Stretch, 90, 21).unwrap();
    for i in 0..90 {
        let expected = f64::from_bits(recorded[(i * 60) / 90].0) * (60.0 / 90.0);
        assert_eq!(env.period(i).get().to_bits(), expected.to_bits());
    }
}

#[test]
fn exact_horizon_is_identity_for_every_mode() {
    let (trace, session) = capture(Scenario::poisson_arrival(), 50, 31);
    let source = trace.replay_source(session).unwrap();
    for fit in [TraceFit::Loop, TraceFit::Truncate, TraceFit::Stretch] {
        let env = replay_env(source.clone(), fit, 50, 31).unwrap();
        for (i, r) in trace.session_records(session).enumerate() {
            assert_eq!(
                env.period(i).get().to_bits(),
                r.inter_arrival.get().to_bits(),
                "{fit} input {i}"
            );
            assert_eq!(env.realization(i).scale.to_bits(), r.scale.to_bits());
        }
    }
}

proptest! {
    /// Capture → replay is bit-identical across schemes: a trace captured
    /// from any library scenario under ALERT, replayed via
    /// `ArrivalProcess::Trace`, reproduces the recorded per-input
    /// arrival/scale sequence exactly — and the replay environment two
    /// different schemes run over is itself bit-identical (the frozen
    /// guarantee extends to replayed traffic).
    #[test]
    fn capture_replay_is_bit_identical_across_schemes(
        seed in 0i64..200,
        scenario_idx in 0usize..12,
        n in 40usize..90,
    ) {
        let seed = seed as u64;
        let scenario = Scenario::library(11)[scenario_idx].clone();
        let (trace, session) = capture(scenario, n, seed);
        prop_assert_eq!(trace.len(), n);
        let source = trace.replay_source(session).unwrap();

        let node = [Platform::cpu1()];
        let family = alert::models::ModelFamily::image_classification();
        let span = quality_span(&family, &node[0]);
        let stream = InputStream::generate(TaskId::Img2, n, seed);
        let replay = Scenario::replay("Replay", source, TraceFit::Truncate);
        let goal = base_goal();
        let env_a =
            EpisodeEnv::build(&node, &replay, &stream, &goal, seed, Some(span)).unwrap();
        for (i, r) in trace.session_records(session).enumerate() {
            prop_assert_eq!(env_a.period(i).get().to_bits(), r.inter_arrival.get().to_bits());
            prop_assert_eq!(env_a.realization(i).scale.to_bits(), r.scale.to_bits());
        }

        // Two schemes over two independent builds: bit-identical replays.
        let mut alert_s = AlertScheduler::standard(&family, &node[0], goal).unwrap();
        let _ = run_episode(&mut alert_s, &env_a, &family, &stream).unwrap();
        let env_b =
            EpisodeEnv::build(&node, &replay, &stream, &goal, seed, Some(span)).unwrap();
        let mut sys = SysOnly::new(&family, &node, goal).unwrap();
        let _ = run_episode(&mut sys, &env_b, &family, &stream).unwrap();
        prop_assert!(env_a == env_b);
    }
}
