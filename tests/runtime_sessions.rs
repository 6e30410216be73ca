//! Integration tests of the session runtime: the interleaved-vs-
//! sequential determinism guarantee at scale, cross-runtime migration,
//! and `RunSpec` round-tripping — the acceptance criteria of the
//! session-API redesign.

use alert::models::inference::StopPolicy;
use alert::sched::runtime::{
    EpisodeEvent, FamilySpec, RunSpec, Runtime, RuntimeBuilder, SessionSpec,
};
use alert::sched::{
    run_episode, AlertScheduler, Decision, EpisodeEnv, Error, FamilyKind, Feedback, InputContext,
    PolicyRegistry, Scheduler, StepError,
};
use alert::stats::units::{Joules, Seconds};
use alert::workload::{Goal, InputStream, Scenario, SessionId, TaskId};

mod common;
use common::doctored;

fn session_spec(i: u64) -> SessionSpec {
    // Vary goal tightness, scenario, stream length and seed per session
    // so the 64 sessions genuinely differ.
    let deadline = 0.35 + 0.01 * (i % 8) as f64;
    let scenario = match i % 3 {
        0 => Scenario::default_env(),
        1 => Scenario::memory_env(100 + i),
        _ => Scenario::compute_env(200 + i),
    };
    SessionSpec {
        goal: Goal::minimize_energy(Seconds(deadline), 0.9),
        scenario,
        n_inputs: 40 + (i % 5) as usize * 10,
        seed: Some(1000 + i),
        policy: None,
    }
}

/// The headline guarantee: 64 sessions multiplexed through ONE runtime,
/// stepped round-robin, produce records bit-identical to 64 standalone
/// `run_episode` runs of the classic one-shot harness.
#[test]
fn sixty_four_interleaved_sessions_match_sequential_episodes() {
    const N: u64 = 64;

    // Reference: the classic one-shot path, one scheduler per stream.
    let node = [alert::platform::Platform::cpu1()];
    let family = FamilyKind::Image.family();
    let reference: Vec<_> = (0..N)
        .map(|i| {
            let spec = session_spec(i);
            let seed = spec.seed.expect("session_spec sets a seed");
            let stream = InputStream::generate(TaskId::Img2, spec.n_inputs, seed);
            let env =
                EpisodeEnv::build(&node, &spec.scenario, &stream, &spec.goal, seed, None).unwrap();
            let mut s = AlertScheduler::standard(&family, &node[0], spec.goal).unwrap();
            run_episode(&mut s, &env, &family, &stream).unwrap()
        })
        .collect();

    // Candidate: all 64 concurrently open in one runtime, drained
    // round-robin (every session interleaves with every other).
    let mut rt = Runtime::builder().build().unwrap();
    let ids: Vec<SessionId> = (0..N)
        .map(|i| rt.session(session_spec(i)).open().unwrap())
        .collect();
    assert_eq!(rt.session_count(), 64);
    let episodes = rt.drain().unwrap();

    assert_eq!(episodes.len(), reference.len());
    for ((id, ep), reference_ep) in episodes.iter().zip(&reference) {
        assert!(ids.contains(id));
        assert_eq!(ep.scheme, reference_ep.scheme);
        assert_eq!(
            ep.records, reference_ep.records,
            "session {id} diverged from its standalone episode"
        );
    }
}

/// Mid-stream checkpoint, migration to a different runtime, and resume:
/// the migrated session finishes with records identical to an
/// uninterrupted run.
#[test]
fn migration_across_runtimes_preserves_records() {
    let spec = session_spec(17);

    let mut reference_rt = Runtime::builder().build().unwrap();
    let rid = reference_rt.session(spec.clone()).open().unwrap();
    reference_rt.run_to_completion(rid).unwrap();
    let reference = reference_rt.close(rid).unwrap();

    let mut origin = Runtime::builder().build().unwrap();
    let id = origin.session(spec).open().unwrap();
    for _ in 0..25 {
        origin.submit(id).unwrap();
    }
    let snapshot = origin.snapshot_session(id).unwrap();
    drop(origin);

    let mut destination = Runtime::builder().build().unwrap();
    let id2 = destination.restore_session(&snapshot).unwrap();
    destination.run_to_completion(id2).unwrap();
    let resumed = destination.close(id2).unwrap();
    assert_eq!(reference.records, resumed.records);
}

/// A RunSpec serialized to JSON rebuilds an equivalent runtime, and the
/// rebuilt runtime reproduces the original's records.
#[test]
fn run_spec_file_rebuilds_equivalent_runtime() {
    let spec = RunSpec {
        platform: alert::platform::PlatformId::Cpu1,
        family: FamilySpec::Kind(FamilyKind::Image),
        policy: "ALERT-Any".to_string(),
        seed: 5,
        ..Default::default()
    };
    let json = serde_json::to_string_pretty(&spec).unwrap();

    let run = |spec: RunSpec| {
        let mut rt = RuntimeBuilder::from_spec(spec).build().unwrap();
        let id = rt.session(session_spec(3)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        rt.close(id).unwrap()
    };
    let a = run(spec);
    let b = run(serde_json::from_str(&json).unwrap());
    assert_eq!(a.scheme, "ALERT-Any");
    assert_eq!(a.records, b.records);
}

/// Event totals across many concurrent sessions: one Opened and one
/// Closed per session, one InputProcessed per input, interleaved or not.
#[test]
fn event_stream_accounts_for_every_input() {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut rt = Runtime::builder().sink(tx).build().unwrap();
    let mut expected_inputs = 0;
    for i in 0..8 {
        let spec = session_spec(i);
        expected_inputs += spec.n_inputs;
        rt.session(spec).open().unwrap();
    }
    rt.drain().unwrap();
    drop(rt);
    let mut opened = 0;
    let mut processed = 0;
    let mut closed = 0;
    for e in rx.iter() {
        match e {
            EpisodeEvent::SessionOpened { .. } => opened += 1,
            EpisodeEvent::InputProcessed { .. } => processed += 1,
            EpisodeEvent::SessionClosed { .. } => closed += 1,
            // Telemetry is off by default; none may appear here.
            EpisodeEvent::Telemetry { .. } => panic!("unexpected telemetry event"),
        }
    }
    assert_eq!(opened, 8);
    assert_eq!(closed, 8);
    assert_eq!(processed, expected_inputs);
}

/// A spec over the grouped NLP1 task (words share sentence deadlines,
/// paper §3.2 step 2).
fn grouped_spec(seed: u64, n_inputs: usize) -> SessionSpec {
    SessionSpec {
        goal: Goal::minimize_error(Seconds(0.12), Joules(6.0)),
        scenario: Scenario::memory_env(seed),
        n_inputs,
        seed: Some(seed),
        policy: None,
    }
}

fn sentence_runtime() -> Runtime {
    Runtime::builder()
        .family(FamilyKind::Sentence)
        .build()
        .unwrap()
}

/// Mid-sentence checkpoint/restore round-trip: a session snapshotted
/// while a sentence's shared budget is partially consumed (the next
/// input has `member_idx != 0`) must resume bit-identically to an
/// uninterrupted run — the `BudgetTracker` state travels inside
/// `SessionSnapshot` (through JSON) and survives migration to a fresh
/// runtime. A lost tracker would silently clamp every remaining word's
/// deadline to the 1 µs floor instead.
#[test]
fn mid_sentence_checkpoint_resumes_identically() {
    const N: usize = 120;
    let stream = InputStream::generate(TaskId::Nlp1, N, 77);

    let mut reference_rt = sentence_runtime();
    let rid = reference_rt.session(grouped_spec(77, N)).open().unwrap();
    reference_rt.run_to_completion(rid).unwrap();
    let reference = reference_rt.close(rid).unwrap();

    // Cut at every mid-sentence position of the first few sentences:
    // the divergence, were the tracker lost, depends on where within
    // the sentence the cut lands.
    let cuts: Vec<usize> = stream
        .inputs()
        .iter()
        .enumerate()
        .filter(|(i, inp)| {
            *i > 0 && *i < 40 && inp.group.map(|g| g.member_idx != 0).unwrap_or(false)
        })
        .map(|(i, _)| i)
        .collect();
    assert!(!cuts.is_empty(), "NLP1 streams have mid-sentence inputs");

    for cut in cuts {
        let mut origin = sentence_runtime();
        let id = origin.session(grouped_spec(77, N)).open().unwrap();
        for _ in 0..cut {
            origin.submit(id).unwrap();
        }
        let snap = origin.snapshot_session(id).unwrap();
        // The tracker must actually be mid-group in the snapshot...
        assert!(
            snap.engine.budget().in_group(),
            "cut {cut}: snapshot should carry live group state"
        );
        // ...and survive a JSON round-trip (the migration wire format).
        let json = serde_json::to_string(&snap).unwrap();
        let snap: alert::sched::runtime::SessionSnapshot = serde_json::from_str(&json).unwrap();
        drop(origin);

        let mut destination = sentence_runtime();
        let id2 = destination.restore_session(&snap).unwrap();
        destination.run_to_completion(id2).unwrap();
        let resumed = destination.close(id2).unwrap();
        assert_eq!(
            reference.records, resumed.records,
            "cut {cut}: mid-sentence resume diverged from the uninterrupted run"
        );
    }
}

/// A snapshot whose budget tracker was lost (reset to idle) while the
/// cursor sits mid-sentence describes exactly the silent-clamp failure
/// mode — restore must reject it loudly instead of resuming wrong.
#[test]
fn restore_rejects_mid_sentence_snapshot_with_reset_budget() {
    const N: usize = 80;
    let stream = InputStream::generate(TaskId::Nlp1, N, 31);
    let cut = stream
        .inputs()
        .iter()
        .enumerate()
        .position(|(i, inp)| i > 5 && inp.group.map(|g| g.member_idx != 0).unwrap_or(false))
        .expect("grouped stream has mid-sentence inputs");

    let mut origin = sentence_runtime();
    let id = origin.session(grouped_spec(31, N)).open().unwrap();
    for _ in 0..cut {
        origin.submit(id).unwrap();
    }
    let good = origin.snapshot_session(id).unwrap();

    // Simulate a snapshot that lost the tracker (e.g. produced by a
    // pre-carry-over serializer): splice an idle budget tracker into the
    // serialized engine state, keeping cursor and records intact.
    let json = serde_json::to_string(&good).unwrap();
    let start = json
        .find("\"budget\":{")
        .expect("engine serializes its budget tracker");
    let end = start + json[start..].find('}').expect("tracker object closes") + 1;
    let doctored_json = format!(
        "{}\"budget\":{{\"remaining\":0.0,\"members_left\":0,\"in_group\":false}}{}",
        &json[..start],
        &json[end..]
    );
    let doctored: alert::sched::runtime::SessionSnapshot =
        serde_json::from_str(&doctored_json).unwrap();
    assert!(!doctored.engine.budget().in_group(), "tracker was reset");

    let mut destination = sentence_runtime();
    let err = destination.restore_session(&doctored).unwrap_err();
    assert!(
        matches!(err, Error::InvalidSpec(_)),
        "expected InvalidSpec, got {err}"
    );
    assert!(
        err.to_string().contains("mid-sentence"),
        "error should explain the mid-sentence cut: {err}"
    );

    // The untouched snapshot still restores fine.
    assert!(destination.restore_session(&good).is_ok());
}

/// A goal whose probability threshold lies outside `(0, 1)` is rejected
/// when its session opens, instead of panicking in the first decision
/// (the Eq. 12 bound's `Φ⁻¹` is unbounded at both ends).
#[test]
fn out_of_range_prob_threshold_is_rejected_at_open() {
    let mut rt = Runtime::builder().build().unwrap();
    for pr in [0.0, 1.0, f64::NAN] {
        let mut spec = session_spec(0);
        spec.goal.prob_threshold = Some(pr);
        let err = rt.session(spec).open().unwrap_err();
        assert!(
            matches!(err, alert::sched::Error::InvalidSpec(_)),
            "threshold {pr}: expected InvalidSpec, got {err}"
        );
    }
}

/// A custom policy registered by name runs through the full session
/// lifecycle next to the built-ins.
#[test]
fn custom_policy_runs_as_session() {
    let mut registry = PolicyRegistry::builtin();
    registry.register_fn("MaxQuality", |ctx| {
        // The registry showcase policy: delegate to the ALERT-Trad
        // constructor but under a custom registry name.
        Ok(Box::new(AlertScheduler::traditional_only(
            ctx.family,
            &ctx.node[0],
            ctx.goal,
        )?) as Box<dyn alert::sched::Scheduler>)
    });
    let mut rt = Runtime::builder()
        .registry(registry)
        .policy("MaxQuality")
        .build()
        .unwrap();
    let id = rt.session(session_spec(9)).open().unwrap();
    rt.run_to_completion(id).unwrap();
    let ep = rt.close(id).unwrap();
    assert_eq!(ep.scheme, "ALERT-Trad");
    assert!(!ep.records.is_empty());
}

/// A custom scheduler whose every decision names one fixed model and
/// device, whether or not the session has them.
struct FixedPick {
    model: usize,
    device: usize,
    cap: alert::stats::units::Watts,
}

impl Scheduler for FixedPick {
    fn name(&self) -> &str {
        "FixedPick"
    }

    fn decide(&mut self, _ctx: &InputContext) -> Decision {
        Decision {
            device: self.device,
            model: self.model,
            cap: self.cap,
            stop: StopPolicy::RunToCompletion,
        }
    }

    fn observe(&mut self, _feedback: &Feedback) {}
}

/// The `Scheduler` trait is open, so a registered policy can name a
/// model or device the session does not have. `submit` and `drain`
/// report that as a step error instead of panicking, and the failed
/// drain leaves no session behind.
#[test]
fn out_of_range_decisions_are_step_errors() {
    // The image family has 6 models; CPU1 is a one-device node.
    for (model, device) in [(999, 0), (0, 3)] {
        let mut registry = PolicyRegistry::builtin();
        registry.register_fn("FixedPick", move |ctx| {
            let cap = ctx.node[0].default_cap();
            Ok(Box::new(FixedPick { model, device, cap }) as Box<dyn Scheduler>)
        });
        let fixed = SessionSpec {
            policy: Some("FixedPick".into()),
            ..session_spec(1)
        };
        let builder = || Runtime::builder().registry(registry.clone());

        let mut rt = builder().build().unwrap();
        let id = rt.session(fixed.clone()).open().unwrap();
        let err = rt.submit(id).unwrap_err();
        assert!(
            matches!(err, Error::Step(StepError::OutOfRange { .. })),
            "model {model}, device {device}: {err}"
        );

        // Healthy ALERT sessions share the drain with the faulty one.
        for workers in [1, 3] {
            let mut rt = builder().build_sharded(workers).unwrap();
            for i in 0..4 {
                rt.session(session_spec(i)).open().unwrap();
            }
            rt.session(fixed.clone()).open().unwrap();
            let err = rt.drain().unwrap_err();
            assert!(
                matches!(err, Error::Step(StepError::OutOfRange { .. })),
                "{workers} shard(s): {err}"
            );
            assert_eq!(rt.session_count(), 0, "{workers} shard(s)");
        }
    }
}

/// A step error ends its session in `serve` as in `submit`: the served
/// request's session is closed before the error returns, so the runtime
/// keeps no half-run session.
#[test]
fn serve_closes_a_session_whose_step_failed() {
    use alert::sched::prelude::{
        generate_storm, serve, AlwaysAdmit, ArrivalProcess, ServingConfig, StormSpec,
    };
    let mut registry = PolicyRegistry::builtin();
    registry.register_fn("FixedPick", |ctx| {
        let cap = ctx.node[0].default_cap();
        Ok(Box::new(FixedPick {
            model: 0,
            device: 3,
            cap,
        }) as Box<dyn Scheduler>)
    });
    let mut rt = Runtime::builder().registry(registry).build().unwrap();
    let config = ServingConfig {
        policy: "FixedPick".into(),
        ..ServingConfig::new(Goal::minimize_energy(Seconds(0.4), 0.9))
    };
    let storm = generate_storm(
        &StormSpec {
            arrival: ArrivalProcess::Periodic,
            n_requests: 3,
            mean_gap: Seconds(1.0),
            seed: 1,
        },
        None,
    )
    .unwrap();
    let err = serve(&mut rt, &config, &storm, &mut AlwaysAdmit).unwrap_err();
    assert!(
        matches!(err, Error::Step(StepError::OutOfRange { .. })),
        "{err}"
    );
    assert_eq!(rt.session_count(), 0);
}

/// A built-in scheme on a node where none of the models it needs fits
/// refuses to build: opening its session reports a policy build error,
/// never a panic. Every scheme that does open serves its first input.
#[test]
fn builtin_schemes_refuse_nodes_without_the_models_they_need() {
    use alert::models::family::rnn_family;
    use alert::models::zoo::resnet50;
    use alert::models::ModelFamily;
    use alert::platform::PlatformId;
    use alert::sched::RegistryError;

    let nodes = [
        // The embedded board hosts no anytime image network.
        (PlatformId::Embedded, FamilySpec::Kind(FamilyKind::Image)),
        // A traditional-only family has no anytime network at all.
        (
            PlatformId::Cpu1,
            FamilySpec::Custom {
                family: ModelFamily::new("rnn-traditional", rnn_family()),
                task: TaskId::Nlp1,
            },
        ),
        // ResNet50 does not fit the embedded board's memory.
        (
            PlatformId::Embedded,
            FamilySpec::Custom {
                family: ModelFamily::new("resnet50-only", vec![resnet50()]),
                task: TaskId::Img2,
            },
        ),
    ];
    for (platform, family) in nodes {
        let mut rt = RuntimeBuilder::from_spec(RunSpec {
            platform,
            family: family.clone(),
            ..RunSpec::default()
        })
        .build()
        .unwrap();
        for name in PolicyRegistry::builtin().names() {
            let spec = SessionSpec {
                goal: Goal::minimize_error(Seconds(1.0), Joules(50.0)),
                scenario: Scenario::default_env(),
                n_inputs: 8,
                seed: Some(3),
                policy: Some(name.clone()),
            };
            let label = format!("{name} on {platform} with {}", family.family().name());
            match rt.session(spec).open() {
                Ok(id) => {
                    let record = rt.submit(id).unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(record.is_some(), "{label}: no first input");
                }
                Err(Error::Policy(RegistryError::Build { .. })) => {}
                Err(e) => panic!("{label}: {e}"),
            }
        }
    }
}

/// A snapshot of a started session that carries no controller state
/// would resume on a fresh controller: the belief, idle ratio and
/// reserve it learned are gone, and the resumed records silently
/// diverge from an uninterrupted run. `snapshot_session` never writes
/// one, but a snapshot is JSON from outside the program, so restore
/// rejects it. At cursor 0 nothing is learned yet, and a snapshot
/// without controller state still restores.
#[test]
fn restore_rejects_a_started_snapshot_without_controller_state() {
    let spec = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::memory_env(7),
        n_inputs: 60,
        seed: Some(7),
        policy: None,
    };
    let mut rt = Runtime::builder().build().unwrap();
    let id = rt.session(spec.clone()).open().unwrap();
    rt.run_to_completion(id).unwrap();
    let reference = rt.close(id).unwrap();

    let id = rt.session(spec).open().unwrap();
    let mut fresh = rt.snapshot_session(id).unwrap();
    for _ in 0..30 {
        rt.submit(id).unwrap();
    }
    let mut started = rt.snapshot_session(id).unwrap();
    assert!(started.controller.is_some(), "ALERT exports its state");
    started.controller = None;
    let err = rt.restore_session(&started).unwrap_err();
    assert!(
        matches!(err, Error::InvalidSpec(_)),
        "expected InvalidSpec, got {err}"
    );

    fresh.controller = None;
    let id = rt.restore_session(&fresh).unwrap();
    rt.run_to_completion(id).unwrap();
    assert_eq!(rt.close(id).unwrap().records, reference.records);
}

/// Controller state arrives as JSON too, so restore rejects a belief no
/// controller can reach. Restored, a negative ξ variance panics the next
/// decision, φ above 1 trips the energy estimate's debug assertion, and
/// a negative overhead reserve plans every input against a deadline
/// longer than the goal's.
#[test]
fn restore_rejects_controller_state_no_controller_can_reach() {
    let spec = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::memory_env(7),
        n_inputs: 60,
        seed: Some(7),
        policy: None,
    };
    let mut rt = Runtime::builder().build().unwrap();
    let id = rt.session(spec).open().unwrap();
    for _ in 0..5 {
        rt.submit(id).unwrap();
    }
    let good = rt.snapshot_session(id).unwrap();
    let cases: [(&[&str], f64); 6] = [
        (&["controller", "xi", "filter", "mu"], -1.0),
        (&["controller", "xi", "filter", "var"], -1.0),
        (&["controller", "xi", "innovation_var"], -1.0),
        (&["controller", "idle", "filter", "phi"], 2.0),
        (&["controller", "overhead_reserve"], -5.0),
        (&["controller", "last_decision_cost"], -1.0),
    ];
    for (path, value) in cases {
        let err = rt
            .restore_session(&doctored(&good, path, value))
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidSpec(_)),
            "{path:?} = {value}: expected InvalidSpec, got {err}"
        );
    }

    // The untouched snapshot still restores and resumes.
    let id = rt.restore_session(&good).unwrap();
    assert!(rt.submit(id).unwrap().is_some());
}

/// A snapshot carries learned state, not configuration: restore rejects
/// one whose ξ filter embeds Kalman constants other than those the
/// runtime's policy builds with. Restored, `q_min` above `q0` panicked
/// the next submit in `f64::clamp`; valid but different constants would
/// silently run the resumed half under another filter.
#[test]
fn restore_rejects_a_snapshot_with_other_kalman_constants() {
    let spec = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::memory_env(7),
        n_inputs: 60,
        seed: Some(7),
        policy: None,
    };
    let mut rt = Runtime::builder().build().unwrap();
    let id = rt.session(spec).open().unwrap();
    for _ in 0..5 {
        rt.submit(id).unwrap();
    }
    let good = rt.snapshot_session(id).unwrap();
    let cases = [("q_min", 1e300), ("q0", 0.5), ("r", 0.01), ("alpha", 0.9)];
    for (field, value) in cases {
        let path = ["controller", "xi", "filter", "params", field];
        let err = rt
            .restore_session(&doctored(&good, &path, value))
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidSpec(_)),
            "{field} = {value}: expected InvalidSpec, got {err}"
        );
    }
    let id = rt.restore_session(&good).unwrap();
    assert_eq!(rt.run_to_completion(id).unwrap(), 55);
}

/// The scheme label names the scheme in a restored session's events and
/// closed episode, and a snapshot is JSON from outside the program:
/// restore refuses a label other than the scheme the snapshot's policy
/// builds, so no episode reports one scheme while another runs.
#[test]
fn restore_rejects_a_scheme_label_its_policy_does_not_build() {
    let spec = SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::memory_env(7),
        n_inputs: 60,
        seed: Some(7),
        policy: None,
    };
    let mut rt = Runtime::builder().build().unwrap();
    let id = rt.session(spec).open().unwrap();
    for _ in 0..5 {
        rt.submit(id).unwrap();
    }
    let good = rt.snapshot_session(id).unwrap();
    assert_eq!(good.scheme, "ALERT");
    let mut relabeled = good.clone();
    relabeled.scheme = "Oracle".into();
    let err = rt.restore_session(&relabeled).unwrap_err();
    assert!(
        matches!(err, Error::InvalidSpec(_)),
        "expected InvalidSpec, got {err}"
    );

    let id = rt.restore_session(&good).unwrap();
    rt.run_to_completion(id).unwrap();
    assert_eq!(rt.close(id).unwrap().scheme, "ALERT");
}
