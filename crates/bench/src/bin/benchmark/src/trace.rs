//! Timing decorators at the library's public extension points, and the
//! span analysis behind the per-layer metrics.
//!
//! Nothing here changes library code. The decorators wrap what the
//! library already lets a caller supply: a [`PolicyRegistry`] whose
//! `"ALERT"` entry is shadowed to time scheduler construction and wrap
//! every scheduler it builds ([`TimedScheduler`]), an
//! [`AdmissionPolicy`] ([`TimedAdmission`]) and an [`EventSink`]
//! ([`TimedSink`]). Each forwards every call verbatim and only reads the
//! clock around it, so a decorated run's records equal an undecorated
//! run's (the benchmark checks this through record fingerprints).
//!
//! Spans are kept in memory per component and handed to the shared
//! [`Collector`] when the component is dropped (sessions drop their
//! scheduler on close), so the hot path takes no lock.

use alert_core::ControllerSnapshot;
use alert_core::DecisionTrace;
use alert_sched::runtime::{EpisodeEvent, EventSink};
use alert_sched::serving::{AdmissionDecision, AdmissionPolicy, RequestContext};
use alert_sched::telemetry::{AdmissionConstraint, AdmissionProbe};
use alert_sched::{Decision, Feedback, InputContext, PolicyRegistry, Scheduler};
use alert_stats::units::Seconds;
use alert_workload::{Goal, InputRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the process's first clock read.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-process id for the calling thread.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// One timed call: `[start, end)` on `thread`, for request
/// `(session, index)` — the scheduler instance (or session id) and the
/// input index.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    pub session: u64,
    pub index: u64,
}

impl Span {
    /// A span from `start` to now on the calling thread.
    pub fn since(name: &'static str, start: u64, session: u64, index: u64) -> Span {
        Span {
            name,
            thread: thread_id(),
            start,
            end: now_ns(),
            session,
            index,
        }
    }

    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Counts read off each decision's [`DecisionTrace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionTally {
    pub decisions: u64,
    pub cache_hits: u64,
    pub live: u64,
    pub candidates: u64,
    /// Σ CPU-metered decision cost, seconds.
    pub cost_s: f64,
}

impl DecisionTally {
    fn add(&mut self, other: &DecisionTally) {
        self.decisions += other.decisions;
        self.cache_hits += other.cache_hits;
        self.live += other.live;
        self.candidates += other.candidates;
        self.cost_s += other.cost_s;
    }
}

/// Where decorators deliver what they measured.
#[derive(Default)]
pub struct Collector {
    /// `true`: full spans; `false`: only decide-entry stamps (the cheap
    /// per-input step clock the untraced `fanout` run needs).
    traced: bool,
    builds: AtomicU64,
    spans: Mutex<Vec<Span>>,
    stamps: Mutex<Vec<(u32, u64)>>,
    tally: Mutex<DecisionTally>,
    events: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned lock only means a decorator panicked mid-push; the data
    // is a plain append log, still valid to read.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Collector {
    pub fn new(traced: bool) -> Arc<Collector> {
        Arc::new(Collector {
            traced,
            ..Collector::default()
        })
    }

    fn push(&self, span: Span) {
        lock(&self.spans).push(span);
    }

    fn extend(&self, spans: &mut Vec<Span>) {
        if !spans.is_empty() {
            lock(&self.spans).append(spans);
        }
    }

    /// Schedulers built through the shadowed registry so far.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Sink events seen so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut lock(&self.spans))
    }

    pub fn take_stamps(&self) -> Vec<(u32, u64)> {
        std::mem::take(&mut lock(&self.stamps))
    }

    pub fn tally(&self) -> DecisionTally {
        *lock(&self.tally)
    }
}

/// The builtin registry with `"ALERT"` shadowed: construction is timed
/// as a `registry.build` span and every scheduler comes back wrapped in
/// a [`TimedScheduler`] reporting to `collector`.
pub fn shadowed_registry(collector: &Arc<Collector>) -> PolicyRegistry {
    let mut registry = PolicyRegistry::builtin();
    let alert = registry
        .resolve("ALERT")
        .expect("the builtin registry has ALERT");
    let collector = collector.clone();
    registry.register_fn("ALERT", move |ctx| {
        let start = now_ns();
        let inner = alert.build(ctx)?;
        let instance = collector.builds.fetch_add(1, Ordering::Relaxed);
        if collector.traced {
            collector.push(Span::since("registry.build", start, instance, 0));
        }
        Ok(Box::new(TimedScheduler {
            inner,
            instance,
            collector: collector.clone(),
            spans: Vec::new(),
            stamps: Vec::new(),
            tally: DecisionTally::default(),
        }) as Box<dyn Scheduler>)
    });
    registry
}

/// A forwarding [`Scheduler`] that times `sync_goal`, `decide` and
/// `observe` (traced), or only stamps each `decide` entry (untraced).
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    instance: u64,
    collector: Arc<Collector>,
    spans: Vec<Span>,
    stamps: Vec<(u32, u64)>,
    tally: DecisionTally,
}

impl TimedScheduler {
    fn span(&mut self, name: &'static str, start: u64, index: u64) {
        self.spans
            .push(Span::since(name, start, self.instance, index));
    }

    fn count(&mut self, trace: Option<DecisionTrace>) {
        self.tally.decisions += 1;
        if let Some(t) = trace {
            self.tally.cache_hits += u64::from(t.cache_hit);
            self.tally.live += t.live as u64;
            self.tally.candidates += t.candidates as u64;
        }
        self.tally.cost_s += self.inner.last_decision_cost().get();
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sync_goal(&mut self, goal: &Goal) {
        if !self.collector.traced {
            return self.inner.sync_goal(goal);
        }
        let start = now_ns();
        self.inner.sync_goal(goal);
        // `sync_goal` precedes the decision of the next input, whose
        // index is the number decided so far.
        let next = self.tally.decisions;
        self.span("core.sync_goal", start, next);
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let start = now_ns();
        let decision = self.inner.decide(ctx);
        if self.collector.traced {
            self.span("core.decide", start, ctx.index as u64);
            let trace = self.inner.decision_trace();
            self.count(trace);
        } else {
            self.stamps.push((thread_id(), start));
        }
        decision
    }

    fn observe(&mut self, feedback: &Feedback) {
        if !self.collector.traced {
            return self.inner.observe(feedback);
        }
        let start = now_ns();
        self.inner.observe(feedback);
        self.span("core.observe", start, feedback.index as u64);
    }

    fn last_decision_cost(&self) -> Seconds {
        self.inner.last_decision_cost()
    }

    fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        self.inner.controller_snapshot()
    }

    fn restore_controller(&mut self, snapshot: &ControllerSnapshot) {
        self.inner.restore_controller(snapshot);
    }

    fn decision_trace(&self) -> Option<DecisionTrace> {
        self.inner.decision_trace()
    }

    fn belief(&self) -> Option<(f64, f64)> {
        self.inner.belief()
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.collector.extend(&mut self.spans);
        if !self.stamps.is_empty() {
            lock(&self.collector.stamps).append(&mut self.stamps);
        }
        if self.tally.decisions > 0 {
            lock(&self.collector.tally).add(&self.tally);
        }
    }
}

/// Belief probes an [`AdmissionProbe`] says `assess` ran: none when the
/// queue bound or a zero slack decided, one for a full-quality admit,
/// two once the degraded goal was probed too.
fn probes(probe: Option<AdmissionProbe>) -> u64 {
    match probe.map(|p| p.constraint) {
        None => 0,
        Some(None) => 1,
        Some(Some(AdmissionConstraint::QueueFull | AdmissionConstraint::NoSlack)) => 0,
        Some(Some(_)) => 2,
    }
}

/// A forwarding [`AdmissionPolicy`] that stamps every `assess` entry
/// (request latency is measured from one entry to the next), times
/// `assess` itself when traced, and totals the outcomes of the inputs
/// fed back to it.
pub struct TimedAdmission<P> {
    inner: P,
    traced: bool,
    pub stamps: Vec<u64>,
    pub spans: Vec<Span>,
    pub probes: u64,
    pub observed: u64,
    pub energy_j: f64,
    pub quality: f64,
}

impl<P: AdmissionPolicy> TimedAdmission<P> {
    pub fn new(inner: P, traced: bool) -> Self {
        TimedAdmission {
            inner,
            traced,
            stamps: Vec::new(),
            spans: Vec::new(),
            probes: 0,
            observed: 0,
            energy_j: 0.0,
            quality: 0.0,
        }
    }
}

impl<P: AdmissionPolicy> AdmissionPolicy for TimedAdmission<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        let start = now_ns();
        self.stamps.push(start);
        let decision = self.inner.assess(ctx);
        if self.traced {
            self.spans
                .push(Span::since("serving.assess", start, ctx.index as u64, 0));
            self.probes += probes(self.inner.last_probe());
        }
        decision
    }

    fn observe(&mut self, record: &InputRecord) {
        self.observed += 1;
        self.energy_j += record.energy.get();
        self.quality += record.quality;
        self.inner.observe(record);
    }

    fn last_probe(&self) -> Option<AdmissionProbe> {
        self.inner.last_probe()
    }
}

/// A forwarding [`EventSink`] that times and counts every `emit`.
pub struct TimedSink {
    inner: Box<dyn EventSink>,
    collector: Arc<Collector>,
    spans: Vec<Span>,
    events: u64,
}

impl TimedSink {
    pub fn new(inner: impl EventSink + 'static, collector: &Arc<Collector>) -> Self {
        TimedSink {
            inner: Box::new(inner),
            collector: collector.clone(),
            spans: Vec::new(),
            events: 0,
        }
    }
}

impl EventSink for TimedSink {
    fn emit(&mut self, event: &EpisodeEvent) {
        let start = now_ns();
        self.inner.emit(event);
        self.spans
            .push(Span::since("telemetry.emit", start, 0, self.events));
        self.events += 1;
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        self.collector.extend(&mut self.spans);
        self.collector
            .events
            .fetch_add(self.events, Ordering::Relaxed);
    }
}

/// Spans of one decorated pass, reduced to what the per-layer metrics
/// need: durations and self times per span name, and each thread's
/// extent of scheduler work.
#[derive(Debug, Default)]
pub struct Layers {
    /// Span durations per name, µs.
    dur_us: BTreeMap<&'static str, Vec<f64>>,
    /// Span self times (duration minus the children it encloses) per
    /// name, µs.
    self_us: BTreeMap<&'static str, Vec<f64>>,
    /// Per thread: first scheduler-span start to last scheduler-span end,
    /// seconds.
    pub thread_span_s: Vec<f64>,
    /// Parent position (into the sorted span list) of each span, for the
    /// trace dump.
    pub parents: Vec<Option<usize>>,
}

impl Layers {
    pub fn total_us(&self, name: &str) -> f64 {
        self.dur_us.get(name).map_or(0.0, |v| v.iter().sum())
    }

    pub fn durations(&self, name: &str) -> &[f64] {
        self.dur_us.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn self_times(&self, name: &str) -> &[f64] {
        self.self_us.get(name).map_or(&[], Vec::as_slice)
    }
}

const SCHEDULER_SPANS: [&str; 3] = ["core.sync_goal", "core.decide", "core.observe"];

/// Sorts `spans` by (thread, start, longest first) and reduces them.
/// Parents are found by containment on the same thread: a span's parent
/// is the innermost earlier span that still encloses it.
pub fn analyze(spans: &mut [Span]) -> Layers {
    spans.sort_by_key(|s| (s.thread, s.start, std::cmp::Reverse(s.end)));
    let mut child_ns = vec![0u64; spans.len()];
    let mut parents = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut extents: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.thread == s.thread && t.end >= s.end {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            parents[i] = Some(top);
            child_ns[top] += s.dur();
        }
        stack.push(i);
        if SCHEDULER_SPANS.contains(&s.name) {
            let e = extents.entry(s.thread).or_insert((s.start, s.end));
            e.0 = e.0.min(s.start);
            e.1 = e.1.max(s.end);
        }
    }
    let mut layers = Layers {
        parents,
        ..Layers::default()
    };
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.dur();
        layers
            .dur_us
            .entry(s.name)
            .or_default()
            .push(dur as f64 / 1e3);
        layers
            .self_us
            .entry(s.name)
            .or_default()
            .push(dur.saturating_sub(*child) as f64 / 1e3);
    }
    layers.thread_span_s = extents
        .values()
        .map(|&(a, b)| b.saturating_sub(a) as f64 / 1e9)
        .collect();
    layers
}

/// Per-input step times, µs, from decide-entry stamps: per thread, the
/// time from one decision's start to the next one's.
pub fn step_times_us(mut stamps: Vec<(u32, u64)>) -> BTreeMap<u32, Vec<f64>> {
    stamps.sort_unstable();
    let mut steps: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for w in stamps.windows(2) {
        if let [(thread, a), (next, b)] = *w {
            if thread == next {
                steps
                    .entry(thread)
                    .or_default()
                    .push(b.saturating_sub(a) as f64 / 1e3);
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            thread,
            start,
            end,
            session: 0,
            index: 0,
        }
    }

    #[test]
    fn self_time_subtracts_enclosed_children_per_thread() {
        let mut spans = vec![
            span("core.decide", 0, 20, 50),
            span("runtime.submit", 0, 0, 100),
            span("core.observe", 0, 60, 70),
            // Same interval on another thread is not a child.
            span("core.decide", 1, 10, 90),
        ];
        let layers = analyze(&mut spans);
        assert_eq!(layers.self_us["runtime.submit"], vec![0.06]);
        assert_eq!(layers.durations("core.decide").len(), 2);
        let mut extents = layers.thread_span_s.clone();
        extents.sort_by(f64::total_cmp);
        assert_eq!(extents, vec![50e-9, 80e-9]);
    }

    #[test]
    fn step_times_stay_within_a_thread() {
        let steps = step_times_us(vec![(0, 1_000), (1, 1_500), (0, 3_000), (1, 2_000)]);
        assert_eq!(steps, BTreeMap::from([(0, vec![2.0]), (1, vec![0.5])]));
    }
}
