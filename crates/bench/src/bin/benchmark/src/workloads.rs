//! The five workloads and the repetition loop that measures them.
//!
//! Every input a workload feeds the library is generated here from the
//! `--seed`: session specs, scenario seeds and the request storm. One
//! repetition sets the system up (timed as `setup_s`), runs the timed
//! region once, then tears down and fingerprints every record outside
//! the clock, and is reduced to its metric values at once. A run repeats
//! until its time budget is spent and reports, per metric, the median
//! repetition, or for throughput and median latency the fastest one.
//! Repetitions are kept short (well under a second, except `storm`), so a
//! run holds many of them and interference from other tenants of a
//! shared machine, which comes in bursts of seconds, misses some.

use crate::metrics::{Better, MetricDef, END_TO_END, INFO, PER_LAYER};
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace::{
    analyze, now_ns, shadowed_registry, step_times_us, thread_id, Collector, Span, TimedAdmission,
    TimedSink,
};
use alert_platform::PlatformId;
use alert_sched::runtime::{Runtime, RuntimeBuilder, SessionSpec};
use alert_sched::serving::{serve, AlertAdmission, ServingConfig};
use alert_sched::serving::{DEFAULT_DEGRADE_FRAC, DEFAULT_MISS_THRESHOLD};
use alert_sched::telemetry::{FlightRecorder, MetricsCollector, TelemetryConfig};
use alert_sched::FamilyKind;
use alert_stats::rng::derive_seed;
use alert_stats::telemetry::Scope;
use alert_stats::units::{Seconds, Watts};
use alert_workload::{
    generate_storm, AdmissionVerdict, ArrivalProcess, Goal, GoalPatch, InputRecord, Scenario,
    SessionId, StormSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Volatile,
    Storm,
    Fanout,
    Observed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Steady,
        Workload::Volatile,
        Workload::Storm,
        Workload::Fanout,
        Workload::Observed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Volatile => "volatile",
            Workload::Storm => "storm",
            Workload::Fanout => "fanout",
            Workload::Observed => "observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sessions of the `steady` set (also driven by `fanout`, `observed`).
    pub sessions: usize,
    pub volatile_sessions: usize,
    /// Inputs per session.
    pub inputs: usize,
    pub storm_requests: usize,
}

impl Size {
    pub const FULL: Size = Size {
        sessions: 16,
        volatile_sessions: 10,
        inputs: 750,
        storm_requests: 30_000,
    };

    /// Seconds-scale sizes for the unit tests.
    #[cfg(test)]
    pub const TINY: Size = Size {
        sessions: 3,
        volatile_sessions: 5,
        inputs: 40,
        storm_requests: 60,
    };

    /// The untimed pass the outcome metrics come from: the same sessions
    /// with 8× the inputs, and twice the requests.
    fn outcome(&self) -> Size {
        Size {
            inputs: self.inputs * 8,
            storm_requests: self.storm_requests * 2,
            ..*self
        }
    }
}

/// Shards of the `storm` runtime and worker-thread cap of `fanout`.
const SHARDS: usize = 2;
/// `storm` offered load, as a multiple of the calibrated saturation.
const STORM_LOAD: f64 = 2.0;
/// Inputs of the unloaded episode that calibrates the saturation point.
const CALIBRATION_INPUTS: usize = 60;
/// Spans kept for `trace.json` per workload (the earliest by start).
const TRACE_DUMP_SPANS: usize = 20_000;
/// Repetitions a run never exceeds, whatever its budget.
const MAX_REPS: usize = 2_000;

/// Metric values of one repetition, with the sample count behind each
/// percentile (0 for other values).
type Values = BTreeMap<&'static str, (f64, usize)>;

/// A workload's record totals: an FNV-1a fingerprint over every field of
/// every record, in session order, and the outcome sums.
#[derive(Default)]
struct Fold {
    hash: u64,
    inputs: u64,
    energy_j: f64,
    quality: f64,
    timely: u64,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Fold::default()
        }
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn records(&mut self, session: u64, records: &[InputRecord]) {
        for r in records {
            let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
            self.eat(session);
            self.eat(r.index as u64);
            self.eat(r.device as u64);
            for b in r.model.bytes() {
                self.eat(u64::from(b));
            }
            for v in [
                r.cap.get(),
                r.latency.get(),
                r.deadline.get(),
                r.goal_deadline.get(),
                r.period.get(),
                r.scale,
                r.quality,
                r.energy.get(),
            ] {
                self.eat(v.to_bits());
            }
            self.eat(opt(r.min_quality));
            self.eat(opt(r.energy_budget.map(|j| j.get())));
            self.eat(opt(r.slowdown));
            self.eat(u64::from(r.contention_active) | u64::from(r.warmup) << 1);
            self.inputs += 1;
            self.energy_j += r.energy.get();
            self.quality += r.quality;
            self.timely += u64::from(r.latency.get() <= r.deadline.get() * (1.0 + 1e-9));
        }
    }

    fn mean(&self, total: f64) -> f64 {
        total / self.inputs.max(1) as f64
    }
}

/// `storm`'s serving-layer material for the per-layer metrics.
#[derive(Default)]
struct ServingLayer {
    probes: u64,
    /// Shares of offered requests: admitted at full quality, degraded,
    /// shed.
    shares: [f64; 3],
    waits_s: Vec<f64>,
    storm_gen_s: f64,
}

/// What one repetition measured, before reduction.
#[derive(Default)]
struct Raw {
    setup_s: f64,
    /// The timed region: the submit loop, the `drain`, or the `serve`.
    wall_s: f64,
    inputs: u64,
    requests: u64,
    /// Per-call latencies, µs: submit calls, admitted requests, or steps.
    latency_us: Vec<f64>,
    fingerprint: u64,
    energy_j: f64,
    error: f64,
    on_time: f64,
    miss_rate: f64,
    attempted: u64,
    failed: u64,
    /// Every generated input (or request) was accounted for.
    complete: bool,
    /// `observed` only: the sinks saw one input and one decision event
    /// per input.
    sinks_complete: bool,
    /// Spans recorded by the benchmark itself (decorator spans reach the
    /// collector).
    spans: Vec<Span>,
    serving: ServingLayer,
}

impl Raw {
    fn outcomes(&mut self, fold: &Fold) {
        self.inputs = fold.inputs;
        self.fingerprint = fold.hash;
        self.energy_j = fold.mean(fold.energy_j);
        self.error = 1.0 - fold.mean(fold.quality);
        self.on_time = fold.mean(fold.timely as f64);
        self.miss_rate = 1.0 - self.on_time;
    }
}

fn session_seed(seed: u64, label: &str, i: usize) -> u64 {
    derive_seed(seed, &format!("{label}-{i}"))
}

/// The `steady` session set: the Table-3 trio (Default, Memory,
/// Compute) round-robin, deadlines 0.35–0.40 s, 90% accuracy floor.
fn steady_specs(size: &Size, seed: u64) -> Vec<SessionSpec> {
    (0..size.sessions)
        .map(|i| SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.35 + 0.01 * (i % 6) as f64), 0.9),
            scenario: match i % 3 {
                0 => Scenario::default_env(),
                1 => Scenario::memory_env(session_seed(seed, "memory", i)),
                _ => Scenario::compute_env(session_seed(seed, "compute", i)),
            },
            n_inputs: size.inputs,
            seed: Some(session_seed(seed, "session", i)),
            policy: None,
        })
        .collect()
}

/// The `volatile` session set: the dynamic scenarios, cycled.
fn volatile_specs(size: &Size, seed: u64) -> Vec<SessionSpec> {
    (0..size.volatile_sessions)
        .map(|i| SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.3 + 0.02 * (i % 3) as f64), 0.9),
            scenario: match i % 5 {
                0 => Scenario::cap_storm(),
                1 => Scenario::drift_ramp(),
                2 => Scenario::goal_flip(),
                3 => Scenario::compound_stress(session_seed(seed, "compound", i)),
                _ => Scenario::hetero_serving(session_seed(seed, "hetero", i)),
            },
            n_inputs: size.inputs,
            seed: Some(session_seed(seed, "session", i)),
            policy: None,
        })
        .collect()
}

fn builder(seed: u64, tracer: Option<&Arc<Collector>>) -> RuntimeBuilder {
    let b = Runtime::builder()
        .platform(PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .policy("ALERT")
        .seed(seed);
    match tracer {
        Some(c) => b.registry(shadowed_registry(c)),
        None => b,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Opens every spec through `open`, counting calls and errors and, when
/// traced, timing each as a `runtime.open` span.
fn open_all(
    specs: Vec<SessionSpec>,
    raw: &mut Raw,
    traced: bool,
    mut open: impl FnMut(SessionSpec) -> Result<SessionId, alert_sched::Error>,
) -> Vec<SessionId> {
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        raw.attempted += 1;
        let start = now_ns();
        match open(spec) {
            Ok(id) => {
                if traced {
                    raw.spans.push(Span::since("runtime.open", start, id.0, 0));
                }
                ids.push(id);
            }
            Err(_) => raw.failed += 1,
        }
    }
    ids
}

/// `steady`, `volatile` and `observed`: open the session set, then
/// submit one input at a time, round-robin, timing each call.
fn closed_loop(workload: Workload, size: &Size, seed: u64, tracer: Option<&Arc<Collector>>) -> Raw {
    let mut raw = Raw::default();
    let setup_start = now_ns();
    let mut b = builder(seed, tracer);
    if workload == Workload::Volatile {
        b = b.extra_backend(PlatformId::Gpu).shared_budget(Watts(230.0));
    }
    let metrics = MetricsCollector::new();
    if workload == Workload::Observed {
        let recorder = FlightRecorder::with_capacity(32);
        b = b.telemetry(TelemetryConfig::Full);
        b = match tracer {
            Some(c) => b
                .sink(TimedSink::new(metrics.clone(), c))
                .sink(TimedSink::new(recorder, c)),
            None => b.sink(metrics.clone()).sink(recorder),
        };
    }
    let mut rt = b.build().expect("the builtin ALERT policy resolves");
    let specs = match workload {
        Workload::Volatile => volatile_specs(size, seed),
        _ => steady_specs(size, seed),
    };
    let expected = (specs.len() * size.inputs) as u64;
    let ids = open_all(specs, &mut raw, tracer.is_some(), |s| rt.session(s).open());
    raw.setup_s = secs(now_ns() - setup_start);

    raw.latency_us.reserve(expected as usize);
    let mut live = ids.clone();
    let loop_start = now_ns();
    while !live.is_empty() {
        live.retain(|&id| {
            let start = now_ns();
            let result = rt.submit(id);
            let end = now_ns();
            raw.attempted += 1;
            match result {
                Ok(Some(record)) => {
                    raw.latency_us.push((end - start) as f64 / 1e3);
                    if tracer.is_some() {
                        raw.spans.push(Span {
                            name: "runtime.submit",
                            thread: thread_id(),
                            start,
                            end,
                            session: id.0,
                            index: record.index as u64,
                        });
                    }
                    true
                }
                Ok(None) => false,
                Err(_) => {
                    raw.failed += 1;
                    false
                }
            }
        });
    }
    raw.wall_s = secs(now_ns() - loop_start);

    let mut fold = Fold::new();
    for id in ids {
        raw.attempted += 1;
        match rt.close(id) {
            Ok(episode) => fold.records(id.0, &episode.records),
            Err(_) => raw.failed += 1,
        }
    }
    drop(rt); // flushes the decorated sinks
    raw.outcomes(&fold);
    raw.complete = fold.inputs == expected;
    let registry = metrics.registry();
    raw.sinks_complete = registry.counter("inputs", Scope::Global) == fold.inputs
        && registry.counter("decisions", Scope::Global) == fold.inputs;
    raw
}

/// `fanout`: the `steady` set drained by the sharded executor, one
/// thread per shard. Per-input step times come from decide-entry stamps.
fn fanout(size: &Size, seed: u64, tracer: Option<&Arc<Collector>>) -> Raw {
    let mut raw = Raw::default();
    let setup_start = now_ns();
    // Untraced, the collector only takes decide-entry stamps.
    let collector = tracer.cloned().unwrap_or_else(|| Collector::new(false));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(SHARDS));
    let mut rt = builder(seed, Some(&collector))
        .build_sharded(workers)
        .expect("the builtin ALERT policy resolves");
    let specs = steady_specs(size, seed);
    let expected = (specs.len() * size.inputs) as u64;
    open_all(specs, &mut raw, tracer.is_some(), |s| rt.session(s).open());
    raw.setup_s = secs(now_ns() - setup_start);

    let drain_start = now_ns();
    let drained = rt.drain();
    raw.wall_s = secs(now_ns() - drain_start);
    raw.attempted += 1;
    let mut fold = Fold::new();
    match drained {
        Ok(episodes) => {
            for (id, episode) in &episodes {
                fold.records(id.0, &episode.records);
            }
        }
        Err(_) => raw.failed += 1,
    }
    drop(rt);
    raw.outcomes(&fold);
    raw.complete = fold.inputs == expected;
    // The fastest worker's steps: a worker whose core another tenant
    // slows would otherwise set the median alone.
    raw.latency_us = step_times_us(collector.take_stamps())
        .into_values()
        .min_by(|a, b| median(a).total_cmp(&median(b)))
        .unwrap_or_default();
    raw
}

fn storm_goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

/// Mean per-input latency of one unloaded episode under the serving
/// goal: the anchor of the saturation point.
fn calibrate(seed: u64) -> f64 {
    let mut rt = builder(seed, None)
        .build()
        .expect("the builtin ALERT policy resolves");
    let id = rt
        .session(SessionSpec {
            goal: storm_goal(),
            scenario: Scenario::default_env(),
            n_inputs: CALIBRATION_INPUTS,
            seed: Some(seed),
            policy: None,
        })
        .open()
        .expect("the calibration session opens");
    rt.run_to_completion(id)
        .expect("the calibration episode runs");
    let episode = rt.close(id).expect("the calibration session is open");
    let total: f64 = episode.records.iter().map(|r| r.latency.get()).sum();
    total / episode.records.len().max(1) as f64
}

/// `storm`: one `serve()` of a frozen Poisson storm at twice the
/// calibrated saturation, under ALERT admission on a 2-shard runtime.
fn storm(size: &Size, seed: u64, tracer: Option<&Arc<Collector>>) -> Raw {
    let mut raw = Raw::default();
    let setup_start = now_ns();
    let storm_seed = derive_seed(seed, "storm");
    let config = ServingConfig::new(storm_goal());
    let saturating_gap = config.inputs_per_request as f64 * calibrate(storm_seed) / SHARDS as f64;
    let storm = generate_storm(
        &StormSpec {
            arrival: ArrivalProcess::Poisson { rate_scale: 1.0 },
            n_requests: size.storm_requests,
            mean_gap: Seconds(saturating_gap / STORM_LOAD),
            seed: storm_seed,
        },
        None,
    )
    .expect("the storm spec is valid");
    raw.serving.storm_gen_s = secs(now_ns() - setup_start);
    let mut rt = builder(seed, tracer)
        .build_sharded(SHARDS)
        .expect("the builtin ALERT policy resolves");
    let inner = AlertAdmission::for_runtime(
        &rt,
        GoalPatch::floor_frac(DEFAULT_DEGRADE_FRAC),
        DEFAULT_MISS_THRESHOLD,
    )
    .expect("the admission belief table builds");
    let mut policy = TimedAdmission::new(inner, tracer.is_some());
    raw.setup_s = secs(now_ns() - setup_start);

    let serve_start = now_ns();
    let served = serve(&mut rt, &config, &storm, &mut policy);
    let serve_end = now_ns();
    drop(rt);
    raw.wall_s = secs(serve_end - serve_start);
    raw.requests = storm.len() as u64;
    raw.attempted = raw.requests;
    let Ok(report) = served else {
        raw.failed = raw.requests;
        return raw;
    };
    // A request runs from its assess entry to the next request's.
    let ends = policy.stamps.iter().skip(1).copied().chain([serve_end]);
    let admitted = |o: &&alert_workload::RequestOutcome| o.verdict != AdmissionVerdict::Shed;
    raw.latency_us = report
        .outcomes
        .iter()
        .zip(policy.stamps.iter().zip(ends))
        .filter(|(o, _)| admitted(o))
        .map(|(_, (&start, end))| (end - start) as f64 / 1e3)
        .collect();
    raw.inputs = report.outcomes.iter().map(|o| o.served_inputs as u64).sum();
    raw.fingerprint = report.fingerprint();
    let observed = policy.observed.max(1) as f64;
    raw.energy_j = policy.energy_j / observed;
    raw.error = 1.0 - policy.quality / observed;
    raw.on_time = report.goodput();
    raw.miss_rate = report.miss_rate_admitted();
    raw.complete = report.offered() == storm.len() && policy.stamps.len() == storm.len();
    if tracer.is_some() {
        let offered = raw.requests.max(1) as f64;
        let degraded = report.degraded() as f64;
        raw.serving.probes = policy.probes;
        raw.serving.shares = [
            (report.admitted() as f64 - degraded) / offered,
            degraded / offered,
            report.shed() as f64 / offered,
        ];
        raw.serving.waits_s = report
            .outcomes
            .iter()
            .filter(admitted)
            .map(|o| o.wait.get())
            .collect();
        raw.spans.append(&mut policy.spans);
        raw.spans.push(Span {
            name: "serving.serve",
            thread: thread_id(),
            start: serve_start,
            end: serve_end,
            session: 0,
            index: 0,
        });
    }
    raw
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn pct(values: &[f64], p: f64) -> (f64, usize) {
    (percentile_sorted(&sorted(values), p), values.len())
}

/// End-to-end values of one repetition.
fn e2e_values(r: &Raw) -> Values {
    let latency = sorted(&r.latency_us);
    let n = latency.len();
    let mut values = Values::from([
        ("setup_s", (r.setup_s, 0)),
        ("inputs_per_s", (ratio(r.inputs as f64, r.wall_s), 0)),
        ("latency_p50_us", (percentile_sorted(&latency, 0.5), n)),
        ("energy_j", (r.energy_j, 0)),
        ("error", (r.error, 0)),
        ("on_time_share", (r.on_time, 0)),
        ("latency_p99_us", (percentile_sorted(&latency, 0.99), n)),
        ("miss_rate", (r.miss_rate, 0)),
    ]);
    if r.requests > 0 {
        values.insert("requests_per_s", (ratio(r.requests as f64, r.wall_s), 0));
    }
    values
}

/// Per-layer values of one decorated repetition; `spans` are all its
/// spans, sorted and analyzed here.
fn layer_values(r: &Raw, c: &Collector, spans: &mut [Span]) -> (Values, Vec<Option<usize>>) {
    let l = analyze(spans);
    let p = |name: &str, q: f64| pct(l.durations(name), q);
    let extents = &l.thread_span_s;
    let busy_us: f64 = extents.iter().sum::<f64>() * 1e6;
    let max_span = extents.iter().copied().fold(0.0, f64::max);
    let min_span = extents.iter().copied().fold(f64::INFINITY, f64::min);
    let tally = c.tally();
    let decisions = tally.decisions as f64;
    let s = &r.serving;
    let one = |v: f64| (v, 0);
    let values = Values::from([
        ("runtime.submit_us.p99", p("runtime.submit", 0.99)),
        ("runtime.submit_us.p999", p("runtime.submit", 0.999)),
        ("runtime.open_us.p50", p("runtime.open", 0.5)),
        (
            "harness.self_us.p50",
            pct(l.self_times("runtime.submit"), 0.5),
        ),
        ("registry.build_us.p50", p("registry.build", 0.5)),
        ("registry.builds", one(c.builds() as f64)),
        ("core.decide_us.p50", p("core.decide", 0.5)),
        ("core.decide_us.p99", p("core.decide", 0.99)),
        (
            "core.decide_share",
            one(ratio(l.total_us("core.decide"), busy_us)),
        ),
        ("core.observe_us.p50", p("core.observe", 0.5)),
        ("core.sync_goal_us.p50", p("core.sync_goal", 0.5)),
        (
            "core.cache_hit_ratio",
            one(ratio(tally.cache_hits as f64, decisions)),
        ),
        (
            "core.live_share",
            one(ratio(tally.live as f64, tally.candidates as f64)),
        ),
        (
            "core.decision_overhead_us",
            one(ratio(tally.cost_s * 1e6, decisions)),
        ),
        ("serving.assess_us.p50", p("serving.assess", 0.5)),
        ("serving.assess_us.p99", p("serving.assess", 0.99)),
        (
            "serving.probes_per_request",
            one(ratio(s.probes as f64, r.requests as f64)),
        ),
        ("serving.admit_share", one(s.shares[0])),
        ("serving.degrade_share", one(s.shares[1])),
        ("serving.shed_share", one(s.shares[2])),
        ("serving.wait_s.p50", pct(&s.waits_s, 0.5)),
        (
            "serving.self_share",
            one(ratio(
                l.self_times("serving.serve").iter().sum(),
                l.total_us("serving.serve"),
            )),
        ),
        ("executor.shard_span_s.max", one(max_span)),
        ("executor.imbalance", one(ratio(max_span, min_span))),
        (
            "executor.efficiency",
            one(ratio(extents.iter().sum(), extents.len() as f64 * r.wall_s)),
        ),
        ("telemetry.events", one(c.events() as f64)),
        ("telemetry.emit_us.p50", p("telemetry.emit", 0.5)),
        (
            "telemetry.emit_share",
            one(ratio(
                l.total_us("telemetry.emit"),
                l.total_us("runtime.submit"),
            )),
        ),
        ("workload.storm_gen_s", one(s.storm_gen_s)),
    ]);
    (values, l.parents)
}

/// One repetition, reduced to its metric values.
struct Rep {
    values: Values,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    complete: bool,
    sinks_complete: bool,
    /// Decorated repetitions asked to keep them: the earliest spans.
    dump: Vec<(usize, Span, Option<usize>)>,
}

fn rep(workload: Workload, size: &Size, seed: u64, traced: bool, keep_dump: bool) -> Rep {
    // A fresh collector per repetition, so counts are per repetition.
    let collector = traced.then(|| Collector::new(true));
    let tracer = collector.as_ref();
    let mut raw = match workload {
        Workload::Storm => storm(size, seed, tracer),
        Workload::Fanout => fanout(size, seed, tracer),
        _ => closed_loop(workload, size, seed, tracer),
    };
    let mut values = e2e_values(&raw);
    let mut dump = Vec::new();
    if let Some(c) = tracer {
        let mut spans = c.take_spans();
        spans.append(&mut raw.spans);
        let (layers, parents) = layer_values(&raw, c, &mut spans);
        values.extend(layers);
        if keep_dump {
            dump = dump_spans(&spans, &parents);
        }
    }
    Rep {
        values,
        fingerprint: raw.fingerprint,
        attempted: raw.attempted,
        failed: raw.failed,
        complete: raw.complete,
        sinks_complete: raw.sinks_complete,
        dump,
    }
}

/// Repeats until `budget_s` of wall time is spent, at least `min` times.
fn repeat(
    workload: Workload,
    size: &Size,
    seed: u64,
    traced: bool,
    budget_s: f64,
    min: usize,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || (start.elapsed().as_secs_f64() < budget_s && reps.len() < MAX_REPS) {
        reps.push(rep(workload, size, seed, traced, traced && reps.is_empty()));
    }
    reps
}

/// One measured value with its repetitions and sample count.
#[derive(Debug, Clone)]
pub struct Reported {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile in one repetition (0: not a percentile).
    pub samples: usize,
    pub reps: Vec<f64>,
}

impl Reported {
    fn single(value: f64, unit: &'static str) -> Reported {
        Reported {
            value,
            unit,
            samples: 0,
            reps: Vec::new(),
        }
    }
}

/// Metrics computed in virtual time from the records: they repeat bit
/// for bit for a seed and are taken from the outcome pass.
const OUTCOMES: [&str; 4] = ["energy_j", "error", "on_time_share", "miss_rate"];

/// Wall-clock speed metrics taken from the fastest repetition: every
/// repetition does bit-identical work (`reps_identical` checks it), so a
/// slower one was slowed by interference, not by the code.
const FASTEST_REP: [&str; 3] = ["inputs_per_s", "latency_p50_us", "requests_per_s"];

/// The fastest repetition's value of a [`FASTEST_REP`] metric, else the
/// median over repetitions.
fn reduce(def: &MetricDef, values: &[f64]) -> f64 {
    let v = sorted(values);
    match (FASTEST_REP.contains(&def.name), def.better) {
        (true, Better::Higher) => v.last().copied().unwrap_or(0.0),
        (true, Better::Lower) => v.first().copied().unwrap_or(0.0),
        (false, _) => median(&v),
    }
}

/// Reduces each metric in `defs` over repetitions.
fn summarize(defs: &[MetricDef], reps: &[Rep], out: &mut BTreeMap<&'static str, Reported>) {
    for def in defs {
        let found: Vec<(f64, usize)> = reps
            .iter()
            .filter_map(|r| r.values.get(def.name).copied())
            .collect();
        if found.is_empty() {
            continue;
        }
        let values: Vec<f64> = found.iter().map(|v| v.0).collect();
        out.insert(
            def.name,
            Reported {
                value: reduce(def, &values),
                unit: def.unit,
                samples: found.iter().map(|v| v.1).min().unwrap_or(0),
                reps: values,
            },
        );
    }
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM so the next workload's peak is its own.
pub fn reset_peak_rss() {
    // Best effort: without it the next peak can only read high.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A workload's result.
pub struct Outcome {
    pub workload: Workload,
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Reported>,
    /// First decorated repetition's earliest spans as (position, span,
    /// parent position) in the analyzed order.
    pub dump: Vec<(usize, Span, Option<usize>)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Runs one workload for about `seconds` and reduces it to metrics and
/// checks. With `traced`, half the budget measures undecorated and half
/// decorated, and the metrics are the per-layer ones.
pub fn run(workload: Workload, size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (budget, min) = if traced {
        (seconds / 2.0, 2)
    } else {
        (seconds, 3)
    };
    // Untimed, first, from a fresh heap: the outcome pass, whose peak is
    // the peak memory reported.
    let outcome = (!traced).then(|| rep(workload, &size.outcome(), seed, false, false));
    let peak_rss = peak_rss_mb();
    let plain = repeat(workload, size, seed, false, budget, min);
    let decorated = if traced {
        repeat(workload, size, seed, true, budget, 2)
    } else {
        Vec::new()
    };

    let all: Vec<&Rep> = plain.iter().chain(&decorated).chain(&outcome).collect();
    let attempted = all.iter().map(|r| r.attempted).sum::<u64>();
    let failed = all.iter().map(|r| r.failed).sum::<u64>();
    let first = plain[0].fingerprint;
    let mut checks = vec![
        (
            "reps_identical",
            plain.iter().all(|r| r.fingerprint == first),
        ),
        ("complete", all.iter().all(|r| r.complete)),
    ];
    if traced {
        let same = decorated.iter().all(|r| r.fingerprint == first);
        checks.push(("traced_equals_untraced", same));
    }
    if matches!(workload, Workload::Fanout | Workload::Observed) {
        let reference = rep(Workload::Steady, size, seed, false, false);
        checks.push(("equals_steady", first == reference.fingerprint));
    }
    if workload == Workload::Observed {
        checks.push(("sinks_complete", all.iter().all(|r| r.sinks_complete)));
    }

    let mut metrics = BTreeMap::new();
    if let Some(outcome) = outcome {
        summarize(END_TO_END, &plain, &mut metrics);
        summarize(INFO, &plain, &mut metrics);
        // Outcomes vary between seeds, not between repetitions: they come
        // from the larger outcome pass.
        for name in OUTCOMES {
            if let (Some(m), Some(&(value, _))) = (metrics.get_mut(name), outcome.values.get(name))
            {
                *m = Reported::single(value, m.unit);
            }
        }
        metrics.insert("peak_rss_mb", Reported::single(peak_rss, "MB"));
        let failed_share = ratio(failed as f64, attempted as f64);
        metrics.insert("failed_share", Reported::single(failed_share, "ratio"));
    } else {
        summarize(PER_LAYER, &decorated, &mut metrics);
        let fastest = |reps: &[Rep]| {
            let rates: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.values.get("inputs_per_s"))
                .map(|v| v.0)
                .collect();
            sorted(&rates).last().copied().unwrap_or(0.0)
        };
        let overhead = ratio(fastest(&plain), fastest(&decorated));
        metrics.insert("trace.overhead", Reported::single(overhead, "ratio"));
    }
    let dump = decorated
        .into_iter()
        .next()
        .map(|r| r.dump)
        .unwrap_or_default();
    Outcome {
        workload,
        checks,
        attempted,
        failed,
        metrics,
        dump,
    }
}

/// The earliest spans by start time, with parents, for `trace.json`.
/// A parent starts no later than its child, so the kept set is closed
/// under parents.
fn dump_spans(spans: &[Span], parents: &[Option<usize>]) -> Vec<(usize, Span, Option<usize>)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start, i));
    order.truncate(TRACE_DUMP_SPANS);
    order.sort_unstable();
    order
        .into_iter()
        .map(|i| (i, spans[i], parents[i]))
        .collect()
}
