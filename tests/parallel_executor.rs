//! Property and integration tests of the sharded drain:
//! `build_sharded(w)` … `drain()` must be **bit-identical** to a
//! round-robin `submit` loop that closes in id order, for arbitrary shard
//! counts and session mixes, and sink consumers must see each session's
//! event stream exactly as that loop emits it.

mod common;

use alert::sched::runtime::{EpisodeEvent, Runtime, SessionSpec};
use alert::sched::{Episode, FamilyKind};
use alert::stats::units::{Joules, Seconds};
use alert::workload::{Goal, Scenario, SessionId};
use common::round_robin_reference;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// One deterministic session spec from a (scenario-kind, seed) pair.
fn session_spec(kind: usize, seed: u64) -> SessionSpec {
    let scenario = match kind % 3 {
        0 => Scenario::default_env(),
        1 => Scenario::memory_env(300 + seed),
        _ => Scenario::compute_env(600 + seed),
    };
    SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.35 + 0.01 * (seed % 6) as f64), 0.9),
        scenario,
        n_inputs: 8 + (seed % 3) as usize * 4,
        seed: Some(1000 + seed),
        // Exercise heterogeneous schemes across shards.
        policy: if seed.is_multiple_of(4) {
            Some("App-only".to_string())
        } else {
            None
        },
    }
}

/// Everything of a summary that is deterministic (the scheduler overhead
/// is wall-clock and may differ across runs and threads).
fn summary_modulo_overhead(ep: &Episode) -> (usize, usize, f64, f64) {
    (
        ep.summary.measured,
        ep.summary.violations,
        ep.summary.avg_energy.get(),
        ep.summary.avg_quality,
    )
}

fn assert_equivalent(
    drained: &[(SessionId, Episode)],
    reference: &[(SessionId, Episode)],
    label: &str,
) {
    assert_eq!(drained.len(), reference.len(), "{label}: episode counts");
    for ((id, ep), (rid, rep)) in drained.iter().zip(reference) {
        assert_eq!(id, rid, "{label}: id order");
        assert_eq!(ep.scheme, rep.scheme, "{label}: {id} scheme");
        assert_eq!(ep.records, rep.records, "{label}: {id} records diverged");
        assert_eq!(
            summary_modulo_overhead(ep),
            summary_modulo_overhead(rep),
            "{label}: {id} summary diverged"
        );
    }
}

/// The events of one run grouped by session, in arrival order, with the
/// measured decision overhead in `SessionClosed` summaries zeroed (it is
/// CPU time and differs run to run).
fn per_session(events: mpsc::Receiver<EpisodeEvent>) -> BTreeMap<SessionId, Vec<EpisodeEvent>> {
    let mut streams: BTreeMap<SessionId, Vec<EpisodeEvent>> = BTreeMap::new();
    for mut event in events {
        let session = match &mut event {
            EpisodeEvent::SessionOpened { session, .. }
            | EpisodeEvent::InputProcessed { session, .. } => *session,
            EpisodeEvent::SessionClosed {
                session, summary, ..
            } => {
                summary.overhead = Seconds(0.0);
                *session
            }
            // Telemetry is off by default; none may appear here.
            EpisodeEvent::Telemetry { .. } => {
                panic!("unexpected telemetry with TelemetryConfig::Off")
            }
        };
        streams.entry(session).or_default().push(event);
    }
    streams
}

proptest! {
    /// The headline invariant: for arbitrary shard counts and session
    /// mixes, the drain's episodes are bit-identical to the round-robin
    /// reference's.
    #[test]
    fn drain_is_bit_identical_to_round_robin(
        workers in 1usize..9,
        mix in proptest::collection::vec((0usize..3, 0i64..1000), 1..10),
    ) {
        let open_all = |rt: &mut Runtime| -> Vec<SessionId> {
            mix.iter()
                .map(|&(kind, seed)| {
                    rt.session(session_spec(kind, seed as u64)).open().unwrap()
                })
                .collect()
        };

        let mut serial = Runtime::builder().build().unwrap();
        open_all(&mut serial);
        let reference = round_robin_reference(&mut serial);

        let mut sharded = Runtime::builder().build_sharded(workers).unwrap();
        open_all(&mut sharded);
        let episodes = sharded.drain().unwrap();
        prop_assert_eq!(sharded.session_count(), 0);
        assert_equivalent(&episodes, &reference, &format!("workers={workers}"));
    }

    /// Sink consumers see each session's events exactly as the
    /// round-robin reference emits them: `SessionOpened`, then
    /// `InputProcessed` in index order carrying the very records of the
    /// episode, then one `SessionClosed`.
    #[test]
    fn parallel_sink_preserves_per_session_order(
        workers in 1usize..9,
        mix in proptest::collection::vec((0usize..3, 0i64..1000), 1..8),
    ) {
        let open_all = |rt: &mut Runtime| {
            for &(kind, seed) in &mix {
                rt.session(session_spec(kind, seed as u64)).open().unwrap();
            }
        };
        let (tx, rx) = mpsc::channel();
        let mut serial = Runtime::builder().sink(tx).build().unwrap();
        open_all(&mut serial);
        round_robin_reference(&mut serial);
        drop(serial); // drop the sender inside the runtime
        let reference = per_session(rx);

        let (tx, rx) = mpsc::channel();
        let mut sharded = Runtime::builder().sink(tx).build_sharded(workers).unwrap();
        open_all(&mut sharded);
        let episodes = sharded.drain().unwrap();
        drop(sharded);
        let streams = per_session(rx);

        prop_assert_eq!(streams.len(), mix.len());
        prop_assert_eq!(&streams, &reference, "workers={}", workers);
        for (id, episode) in &episodes {
            let stream = &streams[id];
            prop_assert!(matches!(stream[0], EpisodeEvent::SessionOpened { .. }));
            prop_assert!(matches!(stream[stream.len() - 1], EpisodeEvent::SessionClosed { .. }));
            let processed: Vec<_> = stream
                .iter()
                .filter_map(|e| match e {
                    EpisodeEvent::InputProcessed { record, .. } => Some(record.clone()),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(
                &processed,
                &episode.records,
                "sink records of {} must match the episode in order",
                id
            );
        }
    }
}

/// A CPU+GPU runtime under a shared 230 W node envelope (the placement
/// bench's heterogeneous node).
fn hetero_builder() -> alert::sched::runtime::RuntimeBuilder {
    Runtime::builder()
        .platform(alert::platform::PlatformId::Cpu1)
        .extra_backend(alert::platform::PlatformId::Gpu)
        .shared_budget(alert::stats::units::Watts(230.0))
}

/// A session mix for the heterogeneous node: scenarios include the
/// GPU-targeted HeteroServing script, and every built-in placement-aware
/// scheme appears.
fn hetero_spec(kind: usize, seed: u64) -> SessionSpec {
    let scenario = match kind % 3 {
        0 => Scenario::hetero_serving(300 + seed),
        1 => Scenario::memory_env(600 + seed),
        _ => Scenario::default_env(),
    };
    SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.2 + 0.01 * (seed % 6) as f64), 0.9),
        scenario,
        n_inputs: 8 + (seed % 3) as usize * 4,
        seed: Some(2000 + seed),
        policy: Some(["ALERT", "Sys-only", "No-coord"][(seed % 3) as usize].to_string()),
    }
}

proptest! {
    /// Cross-device determinism: for arbitrary shard counts and session
    /// mixes on a shared-budget CPU+GPU node, the drain's episodes —
    /// including every record's device placement — are bit-identical to
    /// the round-robin reference's.
    #[test]
    fn hetero_drain_is_bit_identical_to_round_robin(
        workers in 1usize..9,
        mix in proptest::collection::vec((0usize..3, 0i64..1000), 1..8),
    ) {
        let open_all = |rt: &mut Runtime| -> Vec<SessionId> {
            mix.iter()
                .map(|&(kind, seed)| {
                    rt.session(hetero_spec(kind, seed as u64)).open().unwrap()
                })
                .collect()
        };

        let mut serial = hetero_builder().build().unwrap();
        open_all(&mut serial);
        let reference = round_robin_reference(&mut serial);

        let mut sharded = hetero_builder().build_sharded(workers).unwrap();
        open_all(&mut sharded);
        let episodes = sharded.drain().unwrap();
        assert_equivalent(&episodes, &reference, &format!("hetero workers={workers}"));
        // assert_equivalent compares records wholesale, which covers the
        // device column; make the placement comparison explicit anyway.
        for ((_, ep), (_, rep)) in episodes.iter().zip(&reference) {
            let devices: Vec<usize> = ep.records.iter().map(|r| r.device).collect();
            let ref_devices: Vec<usize> = rep.records.iter().map(|r| r.device).collect();
            prop_assert_eq!(devices, ref_devices);
        }
    }

    /// Checkpoint/restore re-homes a session onto the same device
    /// topology: cut a heterogeneous session at an arbitrary point,
    /// restore the snapshot into a fresh CPU+GPU runtime, and the
    /// remaining inputs must land on the same devices with the same
    /// outcomes as an uninterrupted run.
    #[test]
    fn hetero_snapshot_restore_re_homes_devices(
        kind in 0usize..3,
        seed in 0i64..500,
        cut_frac in 0.1f64..0.9,
    ) {
        // Only ALERT exports controller state for checkpointing; the
        // device-topology re-homing under test is policy-independent.
        let spec = SessionSpec {
            policy: Some("ALERT".to_string()),
            ..hetero_spec(kind, seed as u64)
        };
        let n = spec.n_inputs;
        let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);

        let mut reference = hetero_builder().build().unwrap();
        let id = reference.session(spec.clone()).open().unwrap();
        reference.run_to_completion(id).unwrap();
        let reference = reference.close(id).unwrap();

        let mut rt = hetero_builder().build().unwrap();
        let id = rt.session(spec).open().unwrap();
        for _ in 0..cut {
            rt.submit(id).unwrap().unwrap();
        }
        let snap = rt.snapshot_session(id).unwrap();

        let mut resumed = hetero_builder().build().unwrap();
        let rid = resumed.restore_session(&snap).unwrap();
        resumed.run_to_completion(rid).unwrap();
        let resumed = resumed.close(rid).unwrap();

        prop_assert_eq!(&resumed.records, &reference.records,
            "resumed episode diverged (cut at {}/{})", cut, n);
        let devices: Vec<usize> = resumed.records.iter().map(|r| r.device).collect();
        let ref_devices: Vec<usize> = reference.records.iter().map(|r| r.device).collect();
        prop_assert_eq!(devices, ref_devices);
    }
}

/// Grouped (NLP1) streams carry per-session shared-deadline budgets; the
/// sharded drain must not perturb them either.
#[test]
fn drain_matches_serial_on_grouped_streams() {
    let spec = |seed: u64| SessionSpec {
        goal: Goal::minimize_error(Seconds(0.12), Joules(6.0)),
        scenario: Scenario::memory_env(seed),
        n_inputs: 60,
        seed: Some(seed),
        policy: None,
    };
    let build = |workers: usize| {
        let mut rt = Runtime::builder()
            .family(FamilyKind::Sentence)
            .build_sharded(workers)
            .unwrap();
        for s in 0..6u64 {
            rt.session(spec(70 + s)).open().unwrap();
        }
        rt
    };
    let reference = round_robin_reference(&mut build(1));

    for workers in 1..9 {
        let episodes = build(workers).drain().unwrap();
        assert_equivalent(&episodes, &reference, &format!("grouped workers={workers}"));
    }
}

/// A sharded runtime serves the same episodes as a one-shard runtime,
/// end to end: open routing, interleaved submits, the parallel drain,
/// and per-session event ordering through its sink.
#[test]
fn sharded_runtime_is_bit_identical_to_serial_runtime() {
    const N: u64 = 10;
    let mut serial = Runtime::builder().build().unwrap();
    let serial_ids: Vec<SessionId> = (0..N)
        .map(|i| serial.session(session_spec(i as usize, i)).open().unwrap())
        .collect();
    // Interleave some manual submits before draining the rest.
    for &id in &serial_ids {
        serial.submit(id).unwrap();
    }
    let reference = round_robin_reference(&mut serial);

    let (tx, rx) = mpsc::channel();
    let mut sharded = Runtime::builder().sink(tx).build_sharded(3).unwrap();
    let sharded_ids: Vec<SessionId> = (0..N)
        .map(|i| sharded.session(session_spec(i as usize, i)).open().unwrap())
        .collect();
    assert_eq!(serial_ids, sharded_ids, "dense id allocation");
    for &id in &sharded_ids {
        sharded.submit(id).unwrap();
    }
    let episodes = sharded.drain().unwrap();
    drop(sharded);
    assert_equivalent(&episodes, &reference, "sharded vs serial");

    // Per-session event ordering through the sharded sink.
    let streams = per_session(rx);
    for (id, episode) in &episodes {
        let stream = &streams[id];
        assert!(matches!(stream[0], EpisodeEvent::SessionOpened { .. }));
        let indices: Vec<usize> = stream
            .iter()
            .filter_map(|e| match e {
                EpisodeEvent::InputProcessed { record, .. } => Some(record.index),
                _ => None,
            })
            .collect();
        assert_eq!(
            indices,
            (0..episode.records.len()).collect::<Vec<_>>(),
            "{id}: InputProcessed must arrive in index order"
        );
        assert!(matches!(
            stream[stream.len() - 1],
            EpisodeEvent::SessionClosed { .. }
        ));
    }
}
