//! The metric catalog: every name the benchmark reports, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root mirrors these tables (a unit test holds the two equal), and
//! `--compare` judges rows by these bounds.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics,
    /// which explain end-to-end changes and are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off.
/// Wall-clock metrics get wider bounds than the outcome metrics, which
/// are computed in virtual time and only move when behaviour changes.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("inputs_per_s", "1/s", Higher, 0.20),
    gated("latency_p50_us", "us", Lower, 0.20),
    gated("peak_rss_mb", "MB", Lower, 0.15),
    gated("energy_j", "J", Lower, 0.05),
    gated("error", "ratio", Lower, 0.05),
    gated("on_time_share", "ratio", Higher, 0.05),
];

/// Per-layer metrics, reported by every workload with `--trace`. A layer
/// a workload does not pass through reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("runtime.submit_us.p99", "us", Lower),
    layer("runtime.submit_us.p999", "us", Lower),
    layer("runtime.open_us.p50", "us", Lower),
    layer("harness.self_us.p50", "us", Lower),
    layer("registry.build_us.p50", "us", Lower),
    layer("registry.builds", "count", Lower),
    layer("core.decide_us.p50", "us", Lower),
    layer("core.decide_us.p99", "us", Lower),
    layer("core.decide_share", "ratio", Lower),
    layer("core.observe_us.p50", "us", Lower),
    layer("core.sync_goal_us.p50", "us", Lower),
    layer("core.cache_hit_ratio", "ratio", Higher),
    layer("core.live_share", "ratio", Lower),
    layer("core.decision_overhead_us", "us", Lower),
    layer("serving.assess_us.p50", "us", Lower),
    layer("serving.assess_us.p99", "us", Lower),
    layer("serving.probes_per_request", "count", Lower),
    layer("serving.admit_share", "ratio", Higher),
    layer("serving.degrade_share", "ratio", Lower),
    layer("serving.shed_share", "ratio", Lower),
    layer("serving.wait_s.p50", "s", Lower),
    layer("serving.self_share", "ratio", Lower),
    layer("executor.shard_span_s.max", "s", Lower),
    layer("executor.imbalance", "ratio", Lower),
    layer("executor.efficiency", "ratio", Higher),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.emit_us.p50", "us", Lower),
    layer("telemetry.emit_share", "ratio", Lower),
    layer("workload.storm_gen_s", "s", Lower),
    layer("trace.overhead", "ratio", Lower),
];

/// Informational end-to-end numbers printed and saved next to the gated
/// ones but not gated: tail latency swings too much between repetitions
/// on a small shared machine, and the rest apply to one workload only.
pub const INFO: &[MetricDef] = &[
    layer("latency_p99_us", "us", Lower),
    layer("requests_per_s", "1/s", Higher),
    layer("miss_rate", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
];
