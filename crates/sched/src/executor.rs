//! The parallel drain behind
//! [`Runtime::drain`](crate::runtime::Runtime::drain).
//!
//! A runtime keeps its sessions in shards: shard `k` of `N` owns the ids
//! with `id.shard_of(N) == k` ([`SessionId::shard_of`]). The drain runs
//! each non-empty shard round-robin on its own scoped thread
//! (`std::thread::scope`, no new dependencies) while keeping the
//! repository's headline guarantee intact:
//!
//! * **Determinism** — a session owns all of its mutable state
//!   (scheduler, frozen environment handle, stream cursor, budget);
//!   workers share only the read-only candidate family. A session's step
//!   sequence is therefore independent of which thread runs it or what
//!   its neighbours do, so its episode is **bit-identical** for every
//!   shard count (`tests/parallel_executor.rs`).
//! * **Event ordering** — with sinks installed, workers send their
//!   events into one mpsc channel per drain, which the calling thread
//!   empties into the sinks. The channel preserves per-sender FIFO order
//!   and each session lives on exactly one worker, so every consumer
//!   sees each session's `InputProcessed` events in index order followed
//!   by its `SessionClosed`. Cross-session interleaving depends on
//!   thread scheduling. Without sinks there is no channel and no
//!   per-record clone.

use crate::harness::Episode;
use crate::runtime::{fan_out, EpisodeEvent, EventSink, Runtime, RuntimeError, Session};
use crate::telemetry::TelemetryConfig;
use alert_models::ModelFamily;
use alert_workload::SessionId;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// Drains the shards to completion, one scoped worker thread per
/// non-empty shard, and returns the episodes ascending by session id.
///
/// Sink events are forwarded through an mpsc channel and emitted on the
/// calling thread (the sinks are `&mut` — they never cross threads), in
/// per-session order.
pub(crate) fn drain_shards(
    shards: Vec<BTreeMap<SessionId, Session>>,
    family: &ModelFamily,
    sinks: &mut [Box<dyn EventSink>],
    telemetry: TelemetryConfig,
) -> Result<Vec<(SessionId, Episode)>, RuntimeError> {
    let (tx, rx) = if sinks.is_empty() {
        (None, None)
    } else {
        let (tx, rx) = mpsc::channel::<EpisodeEvent>();
        (Some(tx), Some(rx))
    };
    let mut episodes: Vec<(SessionId, Episode)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .filter(|shard| !shard.is_empty())
            .map(|shard| {
                let tx = tx.clone();
                scope.spawn(move || drain_shard(shard, family, tx, telemetry))
            })
            .collect();
        // The workers hold the only remaining senders: once they finish,
        // the channel disconnects and the loop below terminates.
        drop(tx);
        if let Some(rx) = rx {
            for event in rx {
                fan_out(sinks, &event);
            }
        }
        handles
            .into_iter()
            // lint:allow(no-panic): join() only errs if the worker panicked; re-raising that panic is the correct propagation
            .map(|h| h.join().expect("executor worker panicked"))
            .collect::<Result<Vec<_>, RuntimeError>>()
            .map(|per_shard| per_shard.into_iter().flatten().collect())
    })?;
    episodes.sort_by_key(|(id, _)| *id);
    Ok(episodes)
}

/// One worker: round-robin over the shard's sessions in id order (each
/// live session advances one input per round), then fold and close in
/// id order. A step error (scheduler bug) aborts the shard; the drain
/// propagates the first one.
fn drain_shard(
    shard: BTreeMap<SessionId, Session>,
    family: &ModelFamily,
    tx: Option<mpsc::Sender<EpisodeEvent>>,
    telemetry: TelemetryConfig,
) -> Result<Vec<(SessionId, Episode)>, RuntimeError> {
    let mut shard: Vec<(SessionId, Session)> = shard.into_iter().collect();
    let mut live: Vec<usize> = (0..shard.len()).collect();
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for k in live {
            let (id, session) = &mut shard[k];
            if let Some(record) = session.step(family)? {
                if let Some(tx) = &tx {
                    // Cloning first releases the step borrow so the
                    // scheduler's trace is readable; both events then
                    // ship in `submit`'s order — InputProcessed, then
                    // its Telemetry.
                    let record = record.clone();
                    let event = Runtime::decision_telemetry(
                        telemetry,
                        *id,
                        &record,
                        session.scheduler.as_ref(),
                    );
                    let _ = tx.send(EpisodeEvent::InputProcessed {
                        session: *id,
                        record,
                    });
                    if let Some(event) = event {
                        let _ = tx.send(event);
                    }
                }
                still.push(k);
            }
        }
        live = still;
    }
    Ok(shard
        .into_iter()
        .map(|(id, session)| {
            let scheme = session.scheme.clone();
            let episode = session.finish();
            if let Some(tx) = &tx {
                let _ = tx.send(EpisodeEvent::SessionClosed {
                    session: id,
                    scheme,
                    summary: episode.summary.clone(),
                });
            }
            (id, episode)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use crate::registry::PolicyRegistry;
    use crate::runtime::{Runtime, SessionSpec};
    use alert_stats::units::Seconds;
    use alert_workload::{Goal, Scenario, SessionId};
    use std::sync::Arc;

    fn spec(seed: u64, n_inputs: usize) -> SessionSpec {
        SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.4), 0.9),
            scenario: Scenario::memory_env(seed),
            n_inputs,
            seed: Some(seed),
            policy: None,
        }
    }

    #[test]
    fn sharded_runtime_serves_and_routes_by_id() {
        let mut sharded = Runtime::builder().build_sharded(3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        let ids: Vec<SessionId> = (0..5u64)
            .map(|i| sharded.session(spec(7 + i, 10)).open().unwrap())
            .collect();
        // Round-robin placement with stride allocation yields dense ids.
        assert_eq!(ids, (0..5).map(SessionId).collect::<Vec<_>>());
        assert_eq!(sharded.session_count(), 5);
        assert_eq!(sharded.shard_session_counts(), vec![2, 2, 1]);
        for &id in &ids {
            let record = sharded.submit(id).unwrap().expect("one record");
            assert_eq!(record.index, 0);
            assert_eq!(sharded.progress(id).unwrap(), 1);
        }
        let episodes = sharded.drain().unwrap();
        assert_eq!(episodes.len(), 5);
        assert_eq!(sharded.session_count(), 0);
        for (id, ep) in &episodes {
            assert_eq!(ep.records.len(), 10, "{id}");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut sharded = Runtime::builder().build_sharded(0).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        let id = sharded.session(spec(3, 5)).open().unwrap();
        sharded.run_to_completion(id).unwrap();
        assert!(sharded.is_finished(id).unwrap());
        let ep = sharded.close(id).unwrap();
        assert_eq!(ep.records.len(), 5);
    }

    #[test]
    fn restored_snapshot_is_rehomed_to_a_stride_matching_shard() {
        // A snapshot taken in a 2-worker runtime was owned by a session
        // id with stride-2 residue; restoring it into a 3-worker runtime
        // must RE-HOME it — mint a fresh id satisfying the target's
        // stride so `shard_of` routes every subsequent request to the
        // owning shard — never silently keep the foreign id and misroute.
        let mut origin = Runtime::builder().build_sharded(2).unwrap();
        let old_id = origin.session(spec(77, 24)).open().unwrap();
        for _ in 0..9 {
            origin.submit(old_id).unwrap();
        }
        let snap = origin.snapshot_session(old_id).unwrap();

        let mut target = Runtime::builder().build_sharded(3).unwrap();
        // Occupy shards 0 and 1 so the restore round-robins onto shard 2
        // — a residue the origin id (0 mod 2) does not satisfy mod 3.
        let a = target.session(spec(1, 5)).open().unwrap();
        let b = target.session(spec(2, 5)).open().unwrap();
        assert_eq!((a.shard_of(3), b.shard_of(3)), (0, 1));

        let new_id = target.restore_session(&snap).unwrap();
        assert_ne!(new_id, old_id, "foreign id must not be reused verbatim");
        assert_eq!(
            new_id.shard_of(3),
            2,
            "re-homed id must satisfy the owning shard's stride"
        );
        // Routing by the new id reaches the restored state...
        assert_eq!(target.progress(new_id).unwrap(), 9);
        assert_eq!(target.scheme(new_id).unwrap(), "ALERT");
        // ...and resuming from it reproduces an uninterrupted run.
        let mut reference = Runtime::builder().build().unwrap();
        let rid = reference.session(spec(77, 24)).open().unwrap();
        reference.run_to_completion(rid).unwrap();
        let reference_ep = reference.close(rid).unwrap();
        target.run_to_completion(new_id).unwrap();
        let resumed = target.close(new_id).unwrap();
        assert_eq!(reference_ep.records, resumed.records);
    }

    #[test]
    fn sharded_checkpoint_migration_roundtrip() {
        let mut reference = Runtime::builder().build().unwrap();
        let rid = reference.session(spec(21, 30)).open().unwrap();
        reference.run_to_completion(rid).unwrap();
        let reference_ep = reference.close(rid).unwrap();

        let mut sharded = Runtime::builder().build_sharded(2).unwrap();
        let id = sharded.session(spec(21, 30)).open().unwrap();
        for _ in 0..13 {
            sharded.submit(id).unwrap();
        }
        let snap = sharded.snapshot_session(id).unwrap();
        let _ = sharded.close(id).unwrap();

        let mut other = Runtime::builder().build_sharded(3).unwrap();
        let id2 = other.restore_session(&snap).unwrap();
        assert_eq!(other.progress(id2).unwrap(), 13);
        other.run_to_completion(id2).unwrap();
        let resumed = other.close(id2).unwrap();
        assert_eq!(reference_ep.records, resumed.records);
    }

    #[test]
    fn sessions_share_decision_tables_per_configuration() {
        use alert_platform::PlatformId;
        use alert_stats::units::Watts;
        let tables = |rt: &Runtime, id| rt.session_tables(id).expect("ALERT session");

        // Two sessions of one runtime share one allocation.
        let mut rt = Runtime::builder().build().unwrap();
        let a = rt.session(spec(1, 10)).open().unwrap();
        let b = rt.session(spec(2, 10)).open().unwrap();
        let own = rt.session_tables(a).unwrap();
        assert!(Arc::ptr_eq(&own, &rt.session_tables(b).unwrap()));

        // So do sessions on different shards and a restored session.
        let registry = PolicyRegistry::builtin();
        let mut sharded = Runtime::builder()
            .registry(registry.clone())
            .build_sharded(2)
            .unwrap();
        let s0 = sharded.session(spec(3, 10)).open().unwrap();
        let s1 = sharded.session(spec(4, 10)).open().unwrap();
        assert_ne!(s0.shard_of(2), s1.shard_of(2));
        let shared = tables(&sharded, s0);
        assert!(Arc::ptr_eq(&shared, &tables(&sharded, s1)));
        sharded.submit(s0).unwrap();
        let snap = sharded.snapshot_session(s0).unwrap();
        let restored = sharded.restore_session(&snap).unwrap();
        assert!(Arc::ptr_eq(&shared, &tables(&sharded, restored)));

        // The key is compared by value: another runtime over the same
        // registry and an equal configuration shares too, while a
        // separate registry builds its own, equal bundle.
        let mut twin = Runtime::builder()
            .registry(registry.clone())
            .build()
            .unwrap();
        let t = twin.session(spec(5, 10)).open().unwrap();
        assert!(Arc::ptr_eq(&shared, &twin.session_tables(t).unwrap()));
        assert!(!Arc::ptr_eq(&shared, &own));
        assert_eq!(shared.table(), own.table());

        // A different candidate set gets a distinct table.
        let any = SessionSpec {
            policy: Some("ALERT-Any".into()),
            ..spec(6, 10)
        };
        let any = sharded.session(any).open().unwrap();
        let any = tables(&sharded, any);
        assert!(!Arc::ptr_eq(&shared, &any));
        assert_ne!(shared.table(), any.table());

        // So do a different platform and a different budget.
        let node_tables = |extra: Option<PlatformId>, budget: Option<Watts>| {
            let mut b = Runtime::builder().registry(registry.clone());
            if let Some(p) = extra {
                b = b.extra_backend(p);
            }
            if let Some(w) = budget {
                b = b.shared_budget(w);
            }
            let mut rt = b.build().unwrap();
            let id = rt.session(spec(8, 10)).open().unwrap();
            rt.session_tables(id).unwrap()
        };
        let gpu = node_tables(Some(PlatformId::Gpu), None);
        let budgeted = node_tables(Some(PlatformId::Gpu), Some(Watts(230.0)));
        let cpu_budgeted = node_tables(None, Some(Watts(20.0)));
        assert_eq!(gpu.table().device_count(), 2);
        assert!(!Arc::ptr_eq(&shared, &gpu));
        assert!(!Arc::ptr_eq(&gpu, &budgeted));
        assert_ne!(gpu.table(), budgeted.table());
        assert!(!Arc::ptr_eq(&shared, &cpu_budgeted));
        assert_ne!(shared.table(), cpu_budgeted.table());
    }
}
