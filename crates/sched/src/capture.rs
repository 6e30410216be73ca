//! Trace capture: an [`EventSink`] that records live runtime traffic
//! into a [`WorkloadTrace`].
//!
//! A [`TraceRecorder`] plugs into any runtime sink slot
//! ([`crate::runtime::RuntimeBuilder::sink`]) — of a one-shard
//! [`Runtime`] or a many-shard one alike — and captures every processed
//! input as one
//! [`TraceRecord`]: session/stream
//! identity, the inter-arrival time and realized input scale (the
//! replayable half), the goal in force at dispatch, the device the
//! input was placed on (written only for off-primary placements, so
//! single-device captures keep the pre-device byte layout), and the
//! observed outcome (model, cap, latency, quality, energy).
//!
//! The runtime delivers each session's events in dispatch order for any
//! shard count (cross-session interleaving under [`Runtime::drain`] is
//! scheduling-dependent, which the trace format explicitly permits), so
//! the captured trace preserves
//! **per-session ordering** by construction and
//! [`WorkloadTrace::replay_source`] never needs to re-sort.
//!
//! The recorder is a cheap clonable handle over shared state: install
//! one clone as the runtime's sink and keep another to
//! [`TraceRecorder::snapshot`] or [`TraceRecorder::save`] the capture
//! afterwards.
//!
//! [`Runtime`]: crate::runtime::Runtime
//! [`Runtime::drain`]: crate::runtime::Runtime::drain
//! [`EventSink`]: crate::runtime::EventSink

use crate::runtime::{EpisodeEvent, EventSink};
use alert_workload::{TraceError, TraceOutcome, TraceRecord, WorkloadTrace};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

struct Inner {
    trace: WorkloadTrace,
    /// session id → stream id, learned from `SessionOpened`.
    streams: BTreeMap<u64, u64>,
}

/// Captures runtime events into a [`WorkloadTrace`]. See the module
/// docs.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<Mutex<Inner>>,
}

impl TraceRecorder {
    /// A fresh recorder; `source` and `seed` land in the trace header
    /// (provenance for later replays).
    pub fn new(source: impl Into<String>, seed: Option<u64>) -> Self {
        TraceRecorder {
            inner: Arc::new(Mutex::new(Inner {
                trace: WorkloadTrace::new(source, seed),
                streams: BTreeMap::new(),
            })),
        }
    }

    /// Records captured so far.
    pub fn len(&self) -> usize {
        self.inner.lock().trace.len()
    }

    /// `true` when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the capture so far.
    pub fn snapshot(&self) -> WorkloadTrace {
        self.inner.lock().trace.clone()
    }

    /// Writes the capture so far to a trace file (line-delimited format,
    /// see `alert_workload::trace`). Streams straight from the shared
    /// state — no per-record clone, so multi-million-input captures
    /// serialize at constant extra memory.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        self.inner.lock().trace.save(path)
    }
}

impl EventSink for TraceRecorder {
    fn emit(&mut self, event: &EpisodeEvent) {
        let mut inner = self.inner.lock();
        match event {
            EpisodeEvent::SessionOpened {
                session, stream, ..
            } => {
                inner.streams.insert(session.0, stream.0);
            }
            EpisodeEvent::InputProcessed { session, record } => {
                let stream = inner.streams.get(&session.0).copied().unwrap_or(0);
                inner.trace.push(TraceRecord {
                    session: session.0,
                    stream,
                    seq: record.index,
                    inter_arrival: record.period,
                    scale: record.scale,
                    // Written only for off-primary placements, so
                    // single-device captures keep the pre-device byte
                    // layout (`None` ⇒ device 0).
                    device: (record.device > 0).then_some(record.device as u64),
                    deadline: record.goal_deadline,
                    min_quality: record.min_quality,
                    energy_budget: record.energy_budget,
                    outcome: Some(TraceOutcome {
                        model: record.model.clone(),
                        cap: record.cap,
                        latency: record.latency,
                        quality: record.quality,
                        energy: record.energy,
                    }),
                });
            }
            // A close adds nothing to replay. Telemetry is observability,
            // not workload: a captured trace must replay identically
            // whether telemetry was on or off.
            EpisodeEvent::SessionClosed { .. } | EpisodeEvent::Telemetry { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, SessionSpec};
    use alert_stats::units::Seconds;
    use alert_workload::{Goal, Scenario, TraceFit};

    fn spec(seed: u64, n: usize) -> SessionSpec {
        SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.4), 0.9),
            scenario: Scenario::compound_stress(seed),
            n_inputs: n,
            seed: Some(seed),
            policy: Some("ALERT".into()),
        }
    }

    #[test]
    fn recorder_captures_a_session_in_dispatch_order() {
        let recorder = TraceRecorder::new("unit", Some(5));
        let mut rt = Runtime::builder()
            .sink(recorder.clone())
            .seed(5)
            .build()
            .unwrap();
        let id = rt.session(spec(5, 40)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        let episode = rt.close(id).unwrap();

        assert_eq!(recorder.len(), 40);
        let trace = recorder.snapshot();
        assert_eq!(trace.sessions(), vec![id.0]);
        for (k, (r, rec)) in trace
            .session_records(id.0)
            .zip(&episode.records)
            .enumerate()
        {
            assert_eq!(r.seq, k);
            assert_eq!(r.inter_arrival, rec.period);
            assert_eq!(r.scale.to_bits(), rec.scale.to_bits());
            assert_eq!(r.deadline, rec.goal_deadline);
            let outcome = r.outcome.as_ref().expect("capture records outcomes");
            assert_eq!(outcome.model, rec.model);
            assert_eq!(outcome.latency, rec.latency);
        }
    }

    #[test]
    fn capture_records_placements_and_stays_quiet_on_the_primary() {
        // Single-device capture: every trace record leaves `device`
        // unset (the pre-device byte layout).
        let recorder = TraceRecorder::new("cpu", Some(11));
        let mut rt = Runtime::builder()
            .sink(recorder.clone())
            .seed(11)
            .build()
            .unwrap();
        let id = rt.session(spec(11, 30)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        rt.close(id).unwrap();
        assert!(recorder
            .snapshot()
            .records()
            .iter()
            .all(|r| r.device.is_none()));

        // Heterogeneous capture: the trace mirrors each input record's
        // placement exactly (None encoding device 0).
        let recorder = TraceRecorder::new("hetero", Some(11));
        let mut rt = Runtime::builder()
            .extra_backend(alert_platform::PlatformId::Gpu)
            .sink(recorder.clone())
            .seed(11)
            .build()
            .unwrap();
        let id = rt.session(spec(11, 30)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        let episode = rt.close(id).unwrap();
        let trace = recorder.snapshot();
        for (t, r) in trace.session_records(id.0).zip(&episode.records) {
            assert_eq!(t.device.unwrap_or(0), r.device as u64);
        }
    }

    #[test]
    fn captured_trace_replays_bit_identically() {
        // The full loop in one test: capture a scripted run through the
        // runtime sink, extract the session's replay source, realize it,
        // and compare the arrival/scale sequence bit for bit.
        let recorder = TraceRecorder::new("roundtrip", Some(9));
        let mut rt = Runtime::builder()
            .sink(recorder.clone())
            .seed(9)
            .build()
            .unwrap();
        let id = rt.session(spec(9, 60)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        rt.close(id).unwrap();

        let trace = recorder.snapshot();
        let source = trace.replay_source(id.0).unwrap();
        let replay = Scenario::replay("Replay", source, TraceFit::Truncate);
        let mut rt2 = Runtime::builder().seed(9).build().unwrap();
        let rid = rt2
            .session(SessionSpec {
                scenario: replay,
                ..spec(9, 60)
            })
            .open()
            .unwrap();
        rt2.run_to_completion(rid).unwrap();
        let replayed = rt2.close(rid).unwrap();
        for (r, orig) in replayed.records.iter().zip(trace.session_records(id.0)) {
            assert_eq!(r.period.get().to_bits(), orig.inter_arrival.get().to_bits());
            assert_eq!(r.scale.to_bits(), orig.scale.to_bits());
        }
    }
}
