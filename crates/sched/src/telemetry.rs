//! The decision-path telemetry layer: typed events, metric collection,
//! and the miss-explanation flight recorder.
//!
//! Telemetry rides the existing [`EventSink`] fan-out as a new
//! [`EpisodeEvent::Telemetry`] variant, so every delivery guarantee the
//! runtime already makes for lifecycle events (per-session ordering,
//! serial ≡ parallel fan-out) extends to telemetry for free. The layer
//! is **provably non-perturbing** by construction:
//!
//! * events are *derived* from state the controller records anyway
//!   ([`alert_core::DecisionTrace`], written after each selection is
//!   final) — nothing on the decision's value path reads telemetry
//!   state back;
//! * emission happens strictly *after* a session steps, outside the
//!   CPU-metered decision window, so `EpisodeSummary::overhead` is
//!   comparable with telemetry on or off;
//! * recording is deterministic: no wall clocks (the flight recorder is
//!   virtual-time stamped — each decision advances its session's clock
//!   by the input's realized latency — and meters only its own cost,
//!   one ingest in [`alert_stats::cputime::SAMPLE_STRIDE`], via the
//!   sanctioned [`alert_stats::cputime`]) and no `HashMap` iteration
//!   (`BTreeMap` everywhere).
//!
//! Telemetry is all or nothing: under [`TelemetryConfig::Full`] every
//! input of a scheme that keeps a decision trace emits its decision
//! event, so a fold over the stream sees every decision. With
//! [`TelemetryConfig::Off`] (the default), the runtime emits no
//! telemetry events and sink-free hot paths skip event construction
//! entirely — the telemetry-off runtime is byte-for-byte the historical
//! one.

use crate::runtime::{EpisodeEvent, EventSink};
use alert_core::DecisionTrace;
use alert_stats::cputime::SampledStopwatch;
use alert_stats::telemetry::{MetricsRegistry, MetricsSnapshot, RingBuffer, Scope};
use alert_stats::units::Seconds;
use alert_workload::{on_time, AdmissionVerdict, SessionId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether the runtime emits decision telemetry: every decision or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No telemetry events (the historical runtime, byte-for-byte).
    #[default]
    Off,
    /// A decision event for every input.
    Full,
}

/// One scheduling decision, joined with its realized outcome — the
/// payload of [`TelemetryEvent::Decision`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// The session that decided.
    pub session: SessionId,
    /// Input index within the session's stream.
    pub index: usize,
    /// The controller's causal record: belief at decision time, lane
    /// counts, the selected target and its predictions.
    pub trace: DecisionTrace,
    /// ξ belief mean *after* observing this input's outcome (the
    /// posterior the next decision will use).
    pub post_mean: f64,
    /// ξ belief standard deviation after observing this input.
    pub post_std: f64,
    /// The deadline that was in force for this input.
    pub deadline: Seconds,
    /// Measured execution latency of the input.
    pub realized_latency: Seconds,
    /// `true` when the realized latency missed the deadline, by the rule
    /// Table 4 counts misses with ([`alert_workload::on_time`]).
    pub missed: bool,
}

/// The constraint that forced a non-admit verdict (see
/// [`crate::serving::AlertAdmission`]'s probe ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionConstraint {
    /// The shard's queue bound was reached before any belief probe.
    QueueFull,
    /// The predicted queue wait swallowed the whole deadline.
    NoSlack,
    /// The full-quality probe predicted a miss (request degraded).
    FullQualityInfeasible,
    /// Even the degraded-goal probe predicted a miss (request shed).
    DegradedInfeasible,
}

/// One admission verdict with the belief that justified it — the
/// payload of [`TelemetryEvent::Admission`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionEvent {
    /// Position of the request in the storm.
    pub request: usize,
    /// Shard the request was routed to.
    pub shard: usize,
    /// The three-way verdict.
    pub verdict: AdmissionVerdict,
    /// The failing constraint, for degrade/shed verdicts of
    /// constraint-aware policies.
    pub constraint: Option<AdmissionConstraint>,
    /// Predicted miss probability at decision time, if the policy holds
    /// a belief.
    pub predicted_miss: Option<f64>,
    /// ξ belief mean at decision time (belief-based policies only).
    pub belief_mean: Option<f64>,
    /// ξ belief standard deviation at decision time.
    pub belief_std: Option<f64>,
}

/// A typed telemetry event, carried by [`EpisodeEvent::Telemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A scheduling decision with its realized outcome.
    Decision(DecisionEvent),
    /// An admission verdict from the serving front-end.
    Admission(AdmissionEvent),
}

/// What a belief-based admission policy learned while judging its most
/// recent request (see `AdmissionPolicy::last_probe`): the failing
/// constraint, the predicted miss, and the belief that justified it.
/// Written off the verdict's value path — `assess` never reads it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionProbe {
    /// The constraint that forced a non-admit verdict, if any.
    pub constraint: Option<AdmissionConstraint>,
    /// Predicted miss probability under the goal finally judged.
    pub predicted_miss: Option<f64>,
    /// ξ belief `(mean, std_dev)` at decision time.
    pub belief: Option<(f64, f64)>,
}

/// A clonable-handle [`EventSink`] that folds every event into a
/// [`MetricsRegistry`] (the `TraceRecorder` idiom: install one clone as
/// the sink, keep another to snapshot).
///
/// Metric names are `'static` literals (lint-enforced); identity lands
/// in [`Scope`]s, so per-session belief gauges and global counters
/// coexist in one registry.
#[derive(Clone, Default)]
pub struct MetricsCollector {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsCollector {
    /// A collector over an empty registry.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// A copy of the registry as of now.
    pub fn registry(&self) -> MetricsRegistry {
        self.inner.lock().clone()
    }

    /// A deterministic snapshot of the registry as of now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().snapshot()
    }
}

impl EventSink for MetricsCollector {
    fn emit(&mut self, event: &EpisodeEvent) {
        let mut reg = self.inner.lock();
        match event {
            EpisodeEvent::SessionOpened { .. } => {
                reg.counter_add("sessions_opened", Scope::Global, 1);
            }
            EpisodeEvent::SessionClosed { .. } => {
                reg.counter_add("sessions_closed", Scope::Global, 1);
            }
            EpisodeEvent::InputProcessed { record, .. } => {
                reg.counter_add("inputs", Scope::Global, 1);
                reg.histogram_observe("latency_s", Scope::Global, record.latency.get());
                if !record.warmup && !on_time(record.latency, record.deadline) {
                    reg.counter_add("deadline_misses", Scope::Global, 1);
                }
            }
            EpisodeEvent::Telemetry {
                event: TelemetryEvent::Decision(d),
            } => {
                let scope = Scope::Session(d.session.0);
                reg.counter_add("decisions", Scope::Global, 1);
                if !d.trace.feasible {
                    reg.counter_add("infeasible_decisions", Scope::Global, 1);
                }
                reg.histogram_observe("decision_cost_s", Scope::Global, d.trace.cost.get());
                reg.gauge_set("belief_mean", scope, d.post_mean);
                reg.gauge_set("belief_std", scope, d.post_std);
                reg.gauge_set("idle_ratio", scope, d.trace.idle_ratio);
            }
            EpisodeEvent::Telemetry {
                event: TelemetryEvent::Admission(a),
            } => {
                let scope = Scope::Shard(a.shard as u64);
                match a.verdict {
                    AdmissionVerdict::Admitted => {
                        reg.counter_add("admitted", Scope::Global, 1);
                        reg.counter_add("admitted", scope, 1);
                    }
                    AdmissionVerdict::Degraded => {
                        reg.counter_add("degraded", Scope::Global, 1);
                        reg.counter_add("degraded", scope, 1);
                    }
                    AdmissionVerdict::Shed => {
                        reg.counter_add("shed", Scope::Global, 1);
                        reg.counter_add("shed", scope, 1);
                    }
                }
                if let Some(mean) = a.belief_mean {
                    reg.gauge_set("admission_belief_mean", Scope::Global, mean);
                }
            }
        }
    }
}

/// One retained decision inside the flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEntry {
    /// Virtual-time stamp: the session's cumulative realized latency
    /// through this decision's input (deterministic — no wall clock).
    pub at: Seconds,
    /// The decision with its outcome.
    pub event: DecisionEvent,
}

/// Per-session flight state: the virtual clock, the bounded window of
/// recent decisions, and the most recent deadline miss (tracked
/// separately so it survives ring wraparound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionFlight {
    /// The session's virtual time at its most recent ingested decision:
    /// the cumulative realized latency of every input through that
    /// decision's input.
    pub clock: Seconds,
    /// The last-N-decisions window.
    pub window: RingBuffer<FlightEntry>,
    /// The most recent missed-deadline decision, if any.
    pub last_miss: Option<FlightEntry>,
}

struct RecorderInner {
    capacity: usize,
    /// Sessions with at least one ingested decision.
    sessions: BTreeMap<u64, SessionFlight>,
    recording_cost: Seconds,
}

impl RecorderInner {
    /// Advances `d`'s session clock by its realized latency, stamps `d`
    /// with the new value and retains it.
    fn record(&mut self, d: &DecisionEvent) {
        let capacity = self.capacity;
        let flight = self
            .sessions
            .entry(d.session.0)
            .or_insert_with(|| SessionFlight {
                clock: Seconds::ZERO,
                window: RingBuffer::new(capacity),
                last_miss: None,
            });
        flight.clock += d.realized_latency;
        let entry = FlightEntry {
            at: flight.clock,
            event: d.clone(),
        };
        if d.missed {
            flight.last_miss = Some(entry.clone());
        }
        flight.window.push(entry);
    }
}

/// The miss-explanation flight recorder: a clonable-handle
/// [`EventSink`] retaining the last `N` decisions per session, each
/// virtual-time stamped, so any deadline miss can be dumped as a causal
/// trace — the belief the controller held, the candidates it weighed,
/// what it picked, what it predicted, and what actually happened.
///
/// A session's virtual clock advances by each decision event's
/// realized latency. Under [`TelemetryConfig::Full`] a scheme that
/// keeps a decision trace emits one decision event per input, so each
/// stamp is the session's cumulative realized latency through that
/// input. Every other event is ignored.
///
/// Ingest cost is metered on the sanctioned CPU clock
/// ([`alert_stats::cputime`]) and accumulated in
/// [`FlightRecorder::recording_cost`] — the recorder audits its own
/// overhead instead of hiding it. Each handle meters one ingest in
/// [`alert_stats::cputime::SAMPLE_STRIDE`], its first one included, and
/// charges the rest the latest metered cost.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
    meter: SampledStopwatch,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` decisions per session
    /// (capacity 0 retains nothing but still tracks `last_miss`).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                capacity,
                sessions: BTreeMap::new(),
                recording_cost: Seconds::ZERO,
            })),
            meter: SampledStopwatch::new(),
        }
    }

    /// The retained window of `session`, oldest first (empty when the
    /// session never emitted a decision).
    pub fn dump_session(&self, session: SessionId) -> Vec<FlightEntry> {
        self.inner
            .lock()
            .sessions
            .get(&session.0)
            .map(|s| s.window.to_vec())
            .unwrap_or_default()
    }

    /// The full flight state of `session`, if any decisions were seen.
    pub fn flight(&self, session: SessionId) -> Option<SessionFlight> {
        self.inner.lock().sessions.get(&session.0).cloned()
    }

    /// The most recent missed-deadline decision of `session`.
    pub fn last_miss(&self, session: SessionId) -> Option<FlightEntry> {
        self.inner
            .lock()
            .sessions
            .get(&session.0)
            .and_then(|s| s.last_miss.clone())
    }

    /// Sessions with at least one ingested decision, ascending.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.inner
            .lock()
            .sessions
            .keys()
            .map(|&k| SessionId(k))
            .collect()
    }

    /// Total CPU time charged to this recorder's ingests — self-metered
    /// on the sanctioned thread-CPU clock, one ingest in
    /// [`alert_stats::cputime::SAMPLE_STRIDE`], each unmetered ingest
    /// charged the latest metered cost.
    pub fn recording_cost(&self) -> Seconds {
        self.inner.lock().recording_cost
    }
}

impl EventSink for FlightRecorder {
    fn emit(&mut self, event: &EpisodeEvent) {
        if let EpisodeEvent::Telemetry {
            event: TelemetryEvent::Decision(d),
        } = event
        {
            let started = self.meter.start();
            let mut inner = self.inner.lock();
            inner.record(d);
            inner.recording_cost += Seconds(self.meter.charge(started).as_secs_f64());
        }
    }
}

/// An [`crate::serving::AdmissionPolicy`] decorator that delegates
/// every judgment verbatim to the wrapped policy and, off the verdict's
/// value path, emits [`AdmissionEvent`]s through a sink. Because
/// `assess`/`observe` pass through unchanged, a serving run under
/// `AdmissionTelemetry<P>` produces a report fingerprint identical to
/// `P` alone.
pub struct AdmissionTelemetry<P> {
    inner: P,
    sink: Box<dyn EventSink>,
}

impl<P> AdmissionTelemetry<P> {
    /// Wraps `policy`, emitting admission telemetry into `sink`.
    pub fn new(policy: P, sink: impl EventSink + 'static) -> Self {
        AdmissionTelemetry {
            inner: policy,
            sink: Box::new(sink),
        }
    }
}

impl<P: crate::serving::AdmissionPolicy> crate::serving::AdmissionPolicy for AdmissionTelemetry<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assess(
        &mut self,
        ctx: &crate::serving::RequestContext,
    ) -> crate::serving::AdmissionDecision {
        let decision = self.inner.assess(ctx);
        // Everything below is observation: the decision is already made
        // and is returned untouched.
        let (verdict, predicted_miss) = match &decision {
            crate::serving::AdmissionDecision::Admit { predicted_miss } => {
                (AdmissionVerdict::Admitted, *predicted_miss)
            }
            crate::serving::AdmissionDecision::Degrade { predicted_miss, .. } => {
                (AdmissionVerdict::Degraded, *predicted_miss)
            }
            crate::serving::AdmissionDecision::Shed { predicted_miss } => {
                (AdmissionVerdict::Shed, *predicted_miss)
            }
        };
        let probe = self.inner.last_probe();
        self.sink.emit(&EpisodeEvent::Telemetry {
            event: TelemetryEvent::Admission(AdmissionEvent {
                request: ctx.index,
                shard: ctx.shard,
                verdict,
                constraint: probe.and_then(|p| p.constraint),
                predicted_miss,
                belief_mean: probe.and_then(|p| p.belief).map(|(m, _)| m),
                belief_std: probe.and_then(|p| p.belief).map(|(_, s)| s),
            }),
        });
        decision
    }

    fn observe(&mut self, record: &alert_workload::InputRecord) {
        self.inner.observe(record);
    }

    fn last_probe(&self) -> Option<AdmissionProbe> {
        self.inner.last_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision_event(index: usize, missed: bool, latency: f64) -> DecisionEvent {
        use alert_core::config::Candidate;
        use alert_core::select::Estimates;
        use alert_stats::units::Joules;
        DecisionEvent {
            session: SessionId(3),
            index,
            trace: DecisionTrace {
                cache_hit: false,
                belief_mean: 1.0 + index as f64 * 0.01,
                belief_std: 0.1,
                idle_ratio: 0.3,
                effective_deadline: Seconds(0.4),
                candidates: 12,
                live: 9,
                selected: Candidate {
                    device: 0,
                    model: 1,
                    stage: 0,
                    power: 1,
                },
                estimates: Estimates {
                    mean_latency: Seconds(0.2),
                    pr_deadline: 0.97,
                    expected_quality: 0.93,
                    energy: Joules(4.0),
                    energy_bound: Joules(5.0),
                },
                feasible: true,
                cost: Seconds(1e-5),
            },
            post_mean: 1.0 + index as f64 * 0.01,
            post_std: 0.09,
            deadline: Seconds(0.4),
            realized_latency: Seconds(latency),
            missed,
        }
    }

    fn telemetry(index: usize, missed: bool, latency: f64) -> EpisodeEvent {
        EpisodeEvent::Telemetry {
            event: TelemetryEvent::Decision(decision_event(index, missed, latency)),
        }
    }

    #[test]
    fn metrics_collector_counts_decisions_and_tracks_beliefs() {
        let collector = MetricsCollector::new();
        let mut sink = collector.clone();
        for i in 0..6 {
            sink.emit(&telemetry(i, i == 4, 0.2));
        }
        let reg = collector.registry();
        assert_eq!(reg.counter("decisions", Scope::Global), 6);
        assert!(reg.gauge("belief_mean", Scope::Session(3)).is_some());
        let snap = collector.snapshot();
        assert_eq!(snap.counters["decisions"], 6);
    }

    #[test]
    fn flight_recorder_retains_last_n_and_the_miss() {
        let recorder = FlightRecorder::with_capacity(3);
        let mut sink = recorder.clone();
        for i in 0..8 {
            sink.emit(&telemetry(i, i == 2, 0.1));
        }
        let dump = recorder.dump_session(SessionId(3));
        assert_eq!(dump.len(), 3);
        let indices: Vec<usize> = dump.iter().map(|e| e.event.index).collect();
        assert_eq!(indices, vec![5, 6, 7]);
        // Virtual-time stamps accumulate realized latency.
        assert!((dump[0].at.get() - 0.6).abs() < 1e-12);
        assert!((dump[2].at.get() - 0.8).abs() < 1e-12);
        // The miss at index 2 wrapped out of the window but survives in
        // last_miss.
        let miss = recorder.last_miss(SessionId(3)).expect("miss retained");
        assert_eq!(miss.event.index, 2);
        assert!(miss.event.missed);
        assert!(recorder.recording_cost().get() > 0.0);
        assert_eq!(recorder.sessions(), vec![SessionId(3)]);
    }

    #[test]
    fn flight_recorder_capacity_zero_still_tracks_misses() {
        let recorder = FlightRecorder::with_capacity(0);
        let mut sink = recorder.clone();
        sink.emit(&telemetry(0, true, 0.5));
        assert!(recorder.dump_session(SessionId(3)).is_empty());
        assert_eq!(
            recorder.last_miss(SessionId(3)).map(|e| e.event.index),
            Some(0)
        );
    }

    #[test]
    fn flight_state_serde_round_trips() {
        let recorder = FlightRecorder::with_capacity(2);
        let mut sink = recorder.clone();
        for i in 0..4 {
            sink.emit(&telemetry(i, false, 0.1));
        }
        let flight = recorder.flight(SessionId(3)).expect("flight exists");
        let json = serde_json::to_string(&flight).expect("serializes");
        let back: SessionFlight = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, flight);
    }

    #[test]
    fn telemetry_event_serde_round_trips() {
        let e = EpisodeEvent::Telemetry {
            event: TelemetryEvent::Admission(AdmissionEvent {
                request: 7,
                shard: 1,
                verdict: AdmissionVerdict::Shed,
                constraint: Some(AdmissionConstraint::DegradedInfeasible),
                predicted_miss: Some(0.4),
                belief_mean: Some(1.2),
                belief_std: Some(0.2),
            }),
        };
        let json = serde_json::to_string(&e).expect("serializes");
        let back: EpisodeEvent = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, e);
    }
}
