//! Telemetry non-perturbation: the observability layer must be
//! invisible to every value the repository guarantees bit-identity for.
//!
//! * Scheme × scenario-library episodes are bit-identical with
//!   telemetry off, sampled, and full (property test over seeds).
//! * The round-robin reference ≡ sharded drain identity holds with full
//!   telemetry enabled, and the decision-telemetry streams themselves
//!   match per session between the two.
//! * A trace captured with telemetry enabled is byte-identical to one
//!   captured with telemetry off.
//! * Serving fingerprints are unchanged when the admission policy is
//!   wrapped in `AdmissionTelemetry`.
//! * A deliberate CapStorm deadline miss is explainable end-to-end from
//!   a flight-recorder dump: belief at decision time, candidates
//!   considered, the selected configuration, predicted vs realized
//!   latency.
//! * Flight-recorder stamps are the session's cumulative realized
//!   latency through each input, with decision telemetry sampled or
//!   full.

mod common;

use alert::sched::prelude::*;
use alert::sched::runtime::EpisodeEvent;
use alert::sched::telemetry::{AdmissionTelemetry, TelemetryEvent};
use alert::sched::{AlertAdmission, Episode, TraceRecorder};
use alert::stats::units::Seconds;
use alert::workload::{Scenario, SessionId};
use common::round_robin_reference;
use proptest::prelude::*;
use std::sync::mpsc;

/// The scheme names exercised against the scenario library. Oracle
/// schemes are included: they are spec-built through the registry like
/// everything else and must be exactly as indifferent to telemetry.
const SCHEMES: &[&str] = &[
    "ALERT",
    "ALERT-Any",
    "App-only",
    "Sys-only",
    "No-coord",
    "Oracle",
];

fn episode(
    policy: &str,
    scenario: &Scenario,
    telemetry: Option<TelemetryConfig>,
    seed: u64,
    n_inputs: usize,
) -> Episode {
    let mut builder = Runtime::builder().seed(seed).policy(policy);
    if let Some(cfg) = telemetry {
        // Enabled telemetry always has live sinks attached — a config
        // with no consumer would not exercise the recording path.
        builder = builder
            .telemetry(cfg)
            .sink(MetricsCollector::new())
            .sink(FlightRecorder::with_capacity(8));
    }
    let mut rt = builder.build().expect("builtin policy resolves");
    let id = rt
        .session(SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.4), 0.9),
            scenario: scenario.clone(),
            n_inputs,
            seed: Some(seed),
            policy: None,
        })
        .open()
        .expect("session opens");
    rt.run_to_completion(id).expect("session runs");
    rt.close(id).expect("session closes")
}

/// Asserts one scheme × scenario cell is bit-identical across
/// telemetry off, sampled 1-in-3, and full.
fn assert_cell_unperturbed(scheme: &str, scenario: &Scenario, seed: u64) {
    let off = episode(scheme, scenario, None, seed, 16);
    for cfg in [TelemetryConfig::Sampled(3), TelemetryConfig::Full] {
        let on = episode(scheme, scenario, Some(cfg), seed, 16);
        assert_eq!(
            off.records,
            on.records,
            "{} × {} diverged under {:?}",
            scheme,
            scenario.name(),
            cfg
        );
        // `overhead` is measured CPU time — metrology, not value-path
        // data — so it differs bitwise between ANY two runs, telemetry
        // or not. Everything else must match exactly.
        let mut off_summary = off.summary.clone();
        off_summary.overhead = Seconds(0.0);
        let mut on_summary = on.summary.clone();
        on_summary.overhead = Seconds(0.0);
        assert_eq!(
            off_summary,
            on_summary,
            "{} × {} summary diverged under {:?}",
            scheme,
            scenario.name(),
            cfg
        );
    }
}

/// Exhaustive: EVERY scheme × scenario-library cell is bit-identical
/// with telemetry off, sampled, and full.
#[test]
fn telemetry_never_perturbs_any_scheme_scenario_cell() {
    for scenario in Scenario::library(42) {
        for &scheme in SCHEMES {
            assert_cell_unperturbed(scheme, &scenario, 42);
        }
    }
}

proptest! {
    /// Property flavor of the exhaustive sweep: random seeds landing on
    /// random cells stay bit-identical too.
    #[test]
    fn telemetry_never_perturbs_random_cells(
        seed in 1usize..10_000,
        cell in (0usize..SCHEMES.len(), 0usize..12),
    ) {
        let seed = seed as u64;
        let scenarios = Scenario::library(seed);
        let scenario = &scenarios[cell.1 % scenarios.len()];
        assert_cell_unperturbed(SCHEMES[cell.0], scenario, seed);
    }
}

/// Collects the decision-telemetry stream per session from a drained
/// runtime's event channel. `trace.cost` is zeroed: it is the measured
/// CPU time of the decision itself, which — like `EpisodeSummary::
/// overhead` — legitimately differs bitwise between any two runs.
fn decision_streams(
    rx: mpsc::Receiver<EpisodeEvent>,
) -> std::collections::BTreeMap<SessionId, Vec<alert::sched::telemetry::DecisionEvent>> {
    let mut streams = std::collections::BTreeMap::new();
    for event in rx.iter() {
        if let EpisodeEvent::Telemetry {
            event: TelemetryEvent::Decision(mut d),
        } = event
        {
            d.trace.cost = Seconds(0.0);
            streams.entry(d.session).or_insert_with(Vec::new).push(d);
        }
    }
    streams
}

/// The round-robin ≡ sharded-drain bit-identity holds with full
/// telemetry on, for every shard count, and the telemetry streams
/// themselves agree per session.
#[test]
fn serial_parallel_identity_holds_with_full_telemetry() {
    let build = |tx: mpsc::Sender<EpisodeEvent>, workers: usize| {
        let mut rt = Runtime::builder()
            .seed(11)
            .telemetry(TelemetryConfig::Full)
            .sink(tx)
            .build_sharded(workers)
            .expect("builtin policy resolves");
        for i in 0..6u64 {
            rt.session(SessionSpec {
                goal: Goal::minimize_energy(Seconds(0.35 + 0.01 * (i % 3) as f64), 0.9),
                scenario: Scenario::memory_env(40 + i),
                n_inputs: 12 + (i as usize % 3) * 4,
                seed: Some(40 + i),
                policy: None,
            })
            .open()
            .expect("session opens");
        }
        rt
    };

    let (tx, rx) = mpsc::channel();
    let mut serial = build(tx, 1);
    let reference = round_robin_reference(&mut serial);
    drop(serial);
    let reference_streams = decision_streams(rx);
    assert_eq!(
        reference_streams.len(),
        6,
        "every session must emit decision telemetry under Full"
    );

    for workers in 1..9 {
        let (tx, rx) = mpsc::channel();
        let mut sharded = build(tx, workers);
        let episodes = sharded.drain().expect("sharded drain");
        drop(sharded);
        let drained_streams = decision_streams(rx);

        assert_eq!(reference.len(), episodes.len());
        for ((id, a), (rid, b)) in episodes.iter().zip(&reference) {
            assert_eq!(id, rid);
            assert_eq!(
                a.records, b.records,
                "{workers}-shard drain diverged on {id}"
            );
        }
        assert_eq!(
            drained_streams, reference_streams,
            "telemetry streams must be bit-identical at {workers} shards"
        );
    }
    for (id, stream) in &reference_streams {
        let indices: Vec<usize> = stream.iter().map(|d| d.index).collect();
        assert_eq!(
            indices,
            (0..stream.len()).collect::<Vec<_>>(),
            "{id}: decision telemetry must arrive in index order"
        );
    }
}

/// A trace captured with telemetry enabled is identical to one captured
/// with telemetry off: the recorder ignores telemetry events, so the
/// capture ≡ replay guarantee is untouched.
#[test]
fn captured_traces_are_identical_with_and_without_telemetry() {
    let capture = |cfg: Option<TelemetryConfig>| {
        let recorder = TraceRecorder::new("telemetry-test", Some(5));
        let mut builder = Runtime::builder().seed(5).sink(recorder.clone());
        if let Some(cfg) = cfg {
            builder = builder.telemetry(cfg).sink(MetricsCollector::new());
        }
        let mut rt = builder.build().expect("builtin policy resolves");
        for i in 0..3u64 {
            rt.session(SessionSpec {
                goal: Goal::minimize_energy(Seconds(0.4), 0.9),
                scenario: Scenario::compute_env(60 + i),
                n_inputs: 10,
                seed: Some(60 + i),
                policy: None,
            })
            .open()
            .expect("session opens");
        }
        rt.drain().expect("drain");
        recorder.snapshot()
    };
    let without = capture(None);
    let with = capture(Some(TelemetryConfig::Full));
    assert_eq!(without, with, "telemetry leaked into the captured trace");
    assert!(!with.records().is_empty());
}

/// Serving fingerprints are unchanged when the ALERT admission policy
/// is decorated with `AdmissionTelemetry`, and the decorator's verdict
/// counts agree with the report.
#[test]
fn serving_fingerprint_unchanged_under_admission_telemetry() {
    let storm = generate_storm(
        &StormSpec {
            arrival: ArrivalProcess::Periodic,
            n_requests: 24,
            mean_gap: Seconds(0.05),
            seed: 2020,
        },
        None,
    )
    .expect("valid storm");
    let cfg = ServingConfig::new(Goal::minimize_energy(Seconds(0.4), 0.9));

    let bare = {
        let mut rt = Runtime::builder().seed(7).build_sharded(2).expect("builds");
        let mut policy = admission_policy("ALERT", &rt).expect("known policy");
        serve(&mut rt, &cfg, &storm, &mut policy).expect("serving runs")
    };

    let (tx, rx) = mpsc::channel();
    let decorated = {
        let mut rt = Runtime::builder().seed(7).build_sharded(2).expect("builds");
        let inner = AlertAdmission::for_runtime(
            &rt,
            GoalPatch::floor_frac(alert::sched::serving::DEFAULT_DEGRADE_FRAC),
            alert::sched::serving::DEFAULT_MISS_THRESHOLD,
        )
        .expect("policy builds");
        let mut policy = AdmissionTelemetry::new(inner, tx);
        let report = serve(&mut rt, &cfg, &storm, &mut policy).expect("serving runs");
        let counts = policy.counts();
        // The report's `admitted()` spans full-quality AND degraded
        // service; the decorator tallies the two verdicts separately.
        assert_eq!(counts.admitted + counts.degraded, report.admitted() as u64);
        assert_eq!(counts.degraded, report.degraded() as u64);
        assert_eq!(counts.shed, report.shed() as u64);
        report
    };

    assert_eq!(
        bare.fingerprint(),
        decorated.fingerprint(),
        "AdmissionTelemetry perturbed the serving fingerprint"
    );
    assert_eq!(bare.outcomes, decorated.outcomes);

    // One admission event per request, each carrying the belief that
    // justified a non-admit verdict.
    let events: Vec<_> = rx
        .iter()
        .filter_map(|e| match e {
            EpisodeEvent::Telemetry {
                event: TelemetryEvent::Admission(a),
            } => Some(a),
            _ => None,
        })
        .collect();
    assert_eq!(events.len(), storm.len());
    for a in &events {
        assert!(
            a.belief_mean.is_some(),
            "ALERT admission telemetry must carry its belief"
        );
        if a.verdict != AdmissionVerdict::Admitted {
            assert!(
                a.constraint.is_some(),
                "non-admit verdicts must name the failing constraint"
            );
        }
    }
}

/// A deliberate CapStorm deadline miss is explainable end-to-end from a
/// flight-recorder dump: the retained entry carries the belief the
/// controller held at decision time, the candidate counts it weighed,
/// what it selected, what it predicted, and what actually happened.
#[test]
fn cap_storm_miss_is_explainable_from_the_flight_recorder() {
    let recorder = FlightRecorder::with_capacity(16);
    let mut rt = Runtime::builder()
        .seed(9)
        .policy("ALERT")
        .telemetry(TelemetryConfig::Full)
        .sink(recorder.clone())
        .build()
        .expect("builtin policy resolves");
    // A tight deadline under the CapStorm scenario: the scripted power
    // ceiling slams down mid-stream, so some in-flight decision's
    // realized latency lands past its deadline before the belief
    // catches up.
    let id = rt
        .session(SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.12), 0.85),
            scenario: Scenario::cap_storm(),
            n_inputs: 60,
            seed: Some(9),
            policy: None,
        })
        .open()
        .expect("session opens");
    rt.run_to_completion(id).expect("session runs");
    let episode = rt.close(id).expect("session closes");

    let missed: Vec<_> = episode
        .records
        .iter()
        .filter(|r| r.latency.get() > r.deadline.get())
        .collect();
    assert!(
        !missed.is_empty(),
        "this CapStorm cell must produce at least one deliberate miss"
    );

    let entry = recorder
        .last_miss(id)
        .expect("the recorder must retain the most recent miss");
    let record = missed
        .iter()
        .rev()
        .find(|r| r.index == entry.event.index)
        .expect("last_miss must point at a genuinely missed input");

    // The causal chain, end to end: belief at decision time...
    assert!(entry.event.trace.belief_mean > 0.0);
    assert!(entry.event.trace.belief_std >= 0.0);
    // ...candidates considered (and how many the decision scored)...
    assert!(entry.event.trace.candidates > 0);
    assert!(entry.event.trace.live <= entry.event.trace.candidates);
    // ...the selected configuration with its prediction...
    assert!(entry.event.trace.estimates.mean_latency.get() > 0.0);
    // ...and the realized outcome, bitwise equal to the episode record.
    assert_eq!(
        entry.event.realized_latency.get().to_bits(),
        record.latency.get().to_bits()
    );
    assert_eq!(
        entry.event.deadline.get().to_bits(),
        record.deadline.get().to_bits()
    );
    assert!(entry.event.missed);
    // The prediction undershot the realization — that is *why* the
    // deadline was missed rather than the input being shed up front.
    assert!(
        entry.event.trace.estimates.mean_latency.get() < entry.event.realized_latency.get(),
        "a missed deadline implies the realized latency overran the prediction"
    );

    // The dump holds the last N decisions in virtual-time order,
    // closing with the final decision of the stream.
    let dump = recorder.dump_session(id);
    assert_eq!(dump.len(), 16);
    assert!(dump.windows(2).all(|w| w[0].at <= w[1].at));
    assert_eq!(dump.last().expect("non-empty").event.index, 59);
}

/// Deterministic sampling yields exactly the `index % k == 0` subset of
/// the full decision stream.
#[test]
fn sampled_stream_is_the_modular_subset_of_full() {
    let run = |cfg: TelemetryConfig| {
        let (tx, rx) = mpsc::channel();
        let mut rt = Runtime::builder()
            .seed(3)
            .telemetry(cfg)
            .sink(tx)
            .build()
            .expect("builtin policy resolves");
        let id = rt
            .session(SessionSpec {
                goal: Goal::minimize_energy(Seconds(0.4), 0.9),
                scenario: Scenario::default_env(),
                n_inputs: 20,
                seed: Some(3),
                policy: None,
            })
            .open()
            .expect("session opens");
        rt.run_to_completion(id).expect("session runs");
        rt.close(id).expect("session closes");
        drop(rt);
        decision_streams(rx).remove(&id).unwrap_or_default()
    };
    let full = run(TelemetryConfig::Full);
    let sampled = run(TelemetryConfig::Sampled(4));
    assert_eq!(full.len(), 20);
    assert_eq!(sampled.len(), 5);
    let expected: Vec<_> = full.into_iter().filter(|d| d.index % 4 == 0).collect();
    assert_eq!(sampled, expected);
}

/// The flight recorder's virtual clock advances on every processed
/// input, not only on sampled decisions: each retained entry is stamped
/// with the session's cumulative realized latency through its input,
/// whether decision telemetry is sampled or full.
#[test]
fn flight_recorder_stamps_cumulative_latency_under_sampling() {
    for cfg in [TelemetryConfig::Sampled(4), TelemetryConfig::Full] {
        let recorder = FlightRecorder::with_capacity(64);
        let mut rt = Runtime::builder()
            .seed(3)
            .telemetry(cfg)
            .sink(recorder.clone())
            .build()
            .expect("builtin policy resolves");
        let id = rt
            .session(SessionSpec {
                goal: Goal::minimize_energy(Seconds(0.4), 0.9),
                scenario: Scenario::default_env(),
                n_inputs: 20,
                seed: Some(3),
                policy: None,
            })
            .open()
            .expect("session opens");
        rt.run_to_completion(id).expect("session runs");
        let records = rt.close(id).expect("session closes").records;

        let dump = recorder.dump_session(id);
        let expected_len = if cfg == TelemetryConfig::Full { 20 } else { 5 };
        assert_eq!(dump.len(), expected_len, "{cfg:?}");
        for entry in &dump {
            let index = entry.event.index;
            let through = records[..=index]
                .iter()
                .fold(Seconds::ZERO, |at, r| at + r.latency);
            assert_eq!(
                entry.at.get().to_bits(),
                through.get().to_bits(),
                "{cfg:?}: entry {index} stamped {} but the session's latency through it is {}",
                entry.at,
                through
            );
        }
        let last = dump.last().expect("non-empty");
        let flight = recorder.flight(id).expect("flight exists");
        assert_eq!(flight.clock, last.at, "{cfg:?}");
        assert_eq!(recorder.sessions(), vec![id]);
        assert!(recorder.recording_cost().get() > 0.0);
    }
}
