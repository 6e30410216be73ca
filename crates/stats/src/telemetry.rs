//! The metric substrate of the observability layer: a static-name
//! registry of counters, gauges and log-bucketed histograms, plus the
//! bounded ring buffer backing the flight recorder.
//!
//! Everything here is deterministic by construction — metric names are
//! `'static` string literals (enforced workspace-wide by the
//! `metric-name-discipline` lint rule), storage is `BTreeMap`-ordered,
//! and [`MetricsSnapshot::to_json`] emits byte-identical JSON for
//! semantically identical registries regardless of insertion order
//! (the same discipline as `LINT.json`: sorted keys,
//! shortest-round-trip floats).
//!
//! The registry lives in the stats crate (the leaf of the workspace
//! DAG) so any layer can record into it without new edges in the layer
//! graph. A parallel drain forwards its workers' events to the calling
//! thread's sinks, so one registry sees a whole runtime.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Where a metric sample is attributed: the whole process, one session,
/// or one executor shard.
///
/// `Ord` is derived (global first, then sessions by id, then shards by
/// id) so scoped metrics land in a stable order inside snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scope {
    /// Process-wide aggregate.
    Global,
    /// One runtime session, by session id.
    Session(u64),
    /// One executor shard, by shard index.
    Shard(u64),
}

impl Scope {
    /// The scope's snapshot-key suffix (empty for [`Scope::Global`]).
    fn suffix(&self) -> String {
        match self {
            Scope::Global => String::new(),
            Scope::Session(id) => format!("@session:{id}"),
            Scope::Shard(id) => format!("@shard:{id}"),
        }
    }
}

/// Registry key: a static metric name qualified by a [`Scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: &'static str,
    scope: Scope,
}

/// A histogram over `log2(x)` for positive `x`: fixed relative
/// resolution across decades, the right shape for latencies and costs.
///
/// Non-positive and non-finite observations are counted in a dedicated
/// bucket instead of being dropped silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    inner: Histogram,
    nonpositive: u64,
}

impl LogHistogram {
    /// A log-bucketed histogram covering `[min, max)` in value space
    /// (both must be positive and ordered), with `bins` equal bins in
    /// `log2` space. Returns `None` for an empty/invalid range.
    pub fn new(min: f64, max: f64, bins: usize) -> Option<Self> {
        if !(min.is_finite() && max.is_finite()) || min <= 0.0 || min >= max {
            return None;
        }
        Some(LogHistogram {
            inner: Histogram::new(min.log2(), max.log2(), bins)?,
            nonpositive: 0,
        })
    }

    /// The default range for time-like observations: 1 ns to 1000 s in
    /// 80 bins, about two per octave. The controller floors a decision's
    /// recorded cost at 1 ns, so no cost falls below the range. The
    /// range is statically valid, so this only returns `None` if
    /// [`LogHistogram::new`]'s contract changes.
    pub fn time_range() -> Option<Self> {
        LogHistogram::new(1e-9, 1000.0, 80)
    }

    /// Records one observation. Values that are not finite and positive
    /// go to the `nonpositive` bucket.
    pub fn observe(&mut self, x: f64) {
        if x.is_finite() && x > 0.0 {
            self.inner.add(x.log2());
        } else {
            self.nonpositive += 1;
        }
    }

    /// Total number of observations, including out-of-range and
    /// non-positive ones.
    pub fn total(&self) -> u64 {
        self.inner.total() + self.nonpositive
    }

    /// Per-bin raw counts (in `log2` space, ascending).
    pub fn counts(&self) -> &[u64] {
        self.inner.counts()
    }

    /// Count of non-positive / non-finite observations.
    pub fn nonpositive(&self) -> u64 {
        self.nonpositive
    }
}

/// Serializable view of one [`LogHistogram`] inside a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Lower edge of the covered range, in `log2` space.
    pub log2_lo: f64,
    /// Upper edge of the covered range, in `log2` space.
    pub log2_hi: f64,
    /// Per-bin counts, ascending.
    pub counts: Vec<u64>,
    /// Observations below the range.
    pub underflow: u64,
    /// Observations at/above the range.
    pub overflow: u64,
    /// Non-positive / non-finite observations.
    pub nonpositive: u64,
}

/// The registry: every metric the process records, keyed by static name
/// and scope.
///
/// Names must be `'static` string literals supplied at the call site —
/// no `format!` on the recording path (lint-enforced). Scoping is the
/// dynamic axis: the same name may be recorded under many sessions or
/// shards, and [`MetricsRegistry::snapshot`] renders each as
/// `name@session:k` / `name@shard:k`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to a counter (registering it on first touch).
    pub fn counter_add(&mut self, name: &'static str, scope: Scope, n: u64) {
        *self.counters.entry(MetricKey { name, scope }).or_insert(0) += n;
    }

    /// Sets a gauge to `value` (registering it on first touch).
    /// Non-finite values are ignored so snapshots stay serializable.
    pub fn gauge_set(&mut self, name: &'static str, scope: Scope, value: f64) {
        if value.is_finite() {
            self.gauges.insert(MetricKey { name, scope }, value);
        }
    }

    /// Records one observation into a histogram, creating it with the
    /// default time range ([`LogHistogram::time_range`]) on first touch.
    pub fn histogram_observe(&mut self, name: &'static str, scope: Scope, x: f64) {
        let key = MetricKey { name, scope };
        if let std::collections::btree_map::Entry::Vacant(e) = self.histograms.entry(key) {
            if let Some(h) = LogHistogram::time_range() {
                e.insert(h);
            }
        }
        if let Some(h) = self.histograms.get_mut(&key) {
            h.observe(x);
        }
    }

    /// Reads a counter back (0 if never touched).
    pub fn counter(&self, name: &'static str, scope: Scope) -> u64 {
        self.counters
            .get(&MetricKey { name, scope })
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge back, if it was ever set.
    pub fn gauge(&self, name: &'static str, scope: Scope) -> Option<f64> {
        self.gauges.get(&MetricKey { name, scope }).copied()
    }

    /// Reads a histogram back, if it was ever touched.
    pub fn histogram(&self, name: &'static str, scope: Scope) -> Option<&LogHistogram> {
        self.histograms.get(&MetricKey { name, scope })
    }

    /// A deterministic, serializable view of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (format!("{}{}", k.name, k.scope.suffix()), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (format!("{}{}", k.name, k.scope.suffix()), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        format!("{}{}", k.name, k.scope.suffix()),
                        HistogramSnapshot {
                            log2_lo: h.inner.lo(),
                            log2_hi: h.inner.hi(),
                            counts: h.inner.counts().to_vec(),
                            underflow: h.inner.underflow(),
                            overflow: h.inner.overflow(),
                            nonpositive: h.nonpositive,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// The serializable form of a [`MetricsRegistry`]: sorted string keys
/// (`name`, `name@session:k`, `name@shard:k`), ready for
/// byte-deterministic JSON.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point-in-time values (always finite).
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Pretty-printed JSON with sorted keys and shortest-round-trip
    /// floats: two semantically equal snapshots serialize to identical
    /// bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }
}

/// A bounded FIFO buffer that drops its *oldest* entry on overflow: the
/// storage discipline of the flight recorder (keep the last N
/// decisions, evict the least recent).
///
/// Capacity 0 is legal and degenerate — every push is immediately
/// evicted. Serialization preserves logical (oldest-first) order, so a
/// serde round trip reproduces [`RingBuffer::to_vec`] exactly. (The serde
/// impls are hand-written: the vendored serde shim's derive does not
/// handle generic types.)
#[derive(Debug, Clone, PartialEq)]
pub struct RingBuffer<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T: Serialize> Serialize for RingBuffer<T> {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert(
            "capacity".to_string(),
            serde::Value::U64(self.capacity as u64),
        );
        m.insert(
            "items".to_string(),
            serde::Value::Array(self.items.iter().map(Serialize::to_value).collect()),
        );
        serde::Value::Object(m)
    }
}

impl<T: Deserialize> Deserialize for RingBuffer<T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(m) = v else {
            return Err(serde::Error::new("expected object for RingBuffer"));
        };
        let capacity = m
            .get("capacity")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| serde::Error::new("expected capacity for RingBuffer"))?
            as usize;
        let items: VecDeque<T> = match m.get("items") {
            Some(serde::Value::Array(a)) => {
                a.iter().map(T::from_value).collect::<Result<_, _>>()?
            }
            _ => return Err(serde::Error::new("expected items array for RingBuffer")),
        };
        if items.len() > capacity {
            return Err(serde::Error::new("RingBuffer items exceed capacity"));
        }
        Ok(RingBuffer { capacity, items })
    }
}

impl<T> RingBuffer<T> {
    /// An empty buffer holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity,
            items: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Appends `item`, returning the evicted entry when the buffer was
    /// full (with capacity 0, the pushed item itself bounces back).
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.capacity == 0 {
            return Some(item);
        }
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }
}

impl<T: Clone> RingBuffer<T> {
    /// Retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_insertion_order_independent() {
        let mut a = MetricsRegistry::new();
        a.counter_add("decisions", Scope::Session(2), 5);
        a.counter_add("decisions", Scope::Session(1), 3);
        a.gauge_set("belief_mean", Scope::Global, 1.25);
        a.histogram_observe("latency_s", Scope::Shard(0), 0.01);

        let mut b = MetricsRegistry::new();
        b.histogram_observe("latency_s", Scope::Shard(0), 0.01);
        b.gauge_set("belief_mean", Scope::Global, 1.25);
        b.counter_add("decisions", Scope::Session(1), 3);
        b.counter_add("decisions", Scope::Session(2), 5);

        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    }

    #[test]
    fn scoped_keys_render_and_sort_deterministically() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hits", Scope::Shard(1), 1);
        r.counter_add("hits", Scope::Global, 2);
        r.counter_add("hits", Scope::Session(7), 3);
        let snap = r.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, vec!["hits", "hits@session:7", "hits@shard:1"]);
        assert_eq!(snap.counters["hits"], 2);
        assert_eq!(snap.counters["hits@session:7"], 3);
        assert_eq!(snap.counters["hits@shard:1"], 1);
    }

    #[test]
    fn time_range_spans_a_nanosecond_to_a_thousand_seconds() {
        let mut h = LogHistogram::time_range().unwrap();
        h.observe(1e-9);
        h.observe(999.0);
        let counts = h.counts();
        assert_eq!(counts.len(), 80);
        assert_eq!((counts[0], counts[79]), (1, 1));
        assert_eq!(counts.iter().sum::<u64>(), 2, "nothing under- or overflows");
    }

    #[test]
    fn nonfinite_gauge_writes_are_ignored() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("g", Scope::Global, f64::NAN);
        r.gauge_set("g", Scope::Global, f64::INFINITY);
        assert_eq!(r.gauge("g", Scope::Global), None);
        r.gauge_set("g", Scope::Global, 2.5);
        r.gauge_set("g", Scope::Global, f64::NAN);
        assert_eq!(r.gauge("g", Scope::Global), Some(2.5));
    }

    #[test]
    fn log_histogram_buckets_by_octave() {
        let mut h = LogHistogram::new(1.0, 16.0, 4).unwrap();
        for x in [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 15.9] {
            h.observe(x);
        }
        // Bins cover [1,2), [2,4), [4,8), [8,16) in value space.
        assert_eq!(h.counts(), &[2, 2, 1, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn log_histogram_rejects_nonpositive() {
        let mut h = LogHistogram::new(1e-6, 1.0, 8).unwrap();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(0.5);
        assert_eq!(h.nonpositive(), 3);
        assert_eq!(h.total(), 4);
        assert!(LogHistogram::new(0.0, 1.0, 8).is_none());
        assert!(LogHistogram::new(2.0, 1.0, 8).is_none());
    }

    #[test]
    fn ring_buffer_capacity_zero_bounces_everything() {
        let mut rb: RingBuffer<u32> = RingBuffer::new(0);
        assert_eq!(rb.push(1), Some(1));
        assert_eq!(rb.push(2), Some(2));
        assert!(rb.to_vec().is_empty());
    }

    #[test]
    fn ring_buffer_capacity_one_keeps_only_latest() {
        let mut rb = RingBuffer::new(1);
        assert_eq!(rb.push(1), None);
        assert_eq!(rb.push(2), Some(1));
        assert_eq!(rb.push(3), Some(2));
        assert_eq!(rb.to_vec(), vec![3]);
    }

    #[test]
    fn ring_buffer_wraparound_keeps_last_n_in_order() {
        let mut rb = RingBuffer::new(3);
        for i in 0..10 {
            rb.push(i);
        }
        assert_eq!(rb.to_vec(), vec![7, 8, 9]);
    }

    #[test]
    fn ring_buffer_serde_round_trip_preserves_order() {
        let mut rb = RingBuffer::new(4);
        for i in 0..7 {
            rb.push(i * 10);
        }
        let json = serde_json::to_string(&rb).unwrap();
        let back: RingBuffer<i32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rb);
        assert_eq!(back.to_vec(), vec![30, 40, 50, 60]);
        let mut back = back;
        assert_eq!(back.push(70), Some(30));
    }
}
