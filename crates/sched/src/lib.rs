//! Scheduler harness for the ALERT reproduction: the ALERT adapter, every
//! baseline scheme of paper Table 3, the session runtime, and the paper
//! sweep behind Tables 4 and 5 and Figs 7 and 8.
//!
//! * [`scheduler`] — the per-input [`Scheduler`]
//!   interface (decide → execute → observe) plus snapshot hooks.
//! * [`mod@env`] — frozen episode environments: identical conditions for every
//!   scheme, exact counterfactuals for the oracles.
//! * [`budget`] — shared (sentence) deadline budgets, applied uniformly to
//!   all schemes by the harness: the one place a group's deadline is
//!   split across its members (§3.2 step 2).
//! * [`alert`] — ALERT wired to the simulator (+ Any/Trad/\* variants).
//! * [`oracle`] — the per-input Oracle and the OracleStatic baseline.
//! * [`app_only`], [`sys_only`], [`no_coord`] — the state-of-the-art
//!   comparison points of §5.2.
//! * [`registry`] — the open [`Policy`] trait and the
//!   string-keyed [`PolicyRegistry`] (all nine
//!   paper schemes pre-registered; external crates add their own).
//! * [`runtime`] — the session runtime: one [`Runtime`]
//!   type multiplexing long-lived sessions over one or more shards
//!   (`session(spec).open()` / `submit` / `close` / `drain`), per-input
//!   [`EpisodeEvent`] emission,
//!   checkpoint/migration, serde [`RunSpec`].
//! * [`executor`] — the parallel drain behind
//!   [`Runtime::drain`](runtime::Runtime::drain): one thread per
//!   non-empty shard, bit-identical per session for every shard count.
//! * [`serving`] — the serving front-end: frozen offered-load storms
//!   replayed against the runtime's shards under an
//!   [`AdmissionPolicy`] (ALERT-native
//!   belief-driven admit/degrade/shed, plus always-admit and drop-tail
//!   baselines), emitting per-request
//!   [`ServingReport`](alert_workload::ServingReport)s for the
//!   saturation-curve bench.
//! * [`telemetry`] — the deterministic observability layer: typed
//!   [`TelemetryEvent`]s on the existing
//!   event fan-out, deterministic sampling by input index
//!   ([`TelemetryConfig`]), metric folding
//!   ([`MetricsCollector`] over
//!   `alert_stats::telemetry`), and the miss-explanation
//!   [`FlightRecorder`] — all strictly off
//!   the decision value path, so every bit-identity gate holds with
//!   telemetry enabled.
//! * [`capture`] — trace capture: the
//!   [`TraceRecorder`] event sink records live
//!   runtime traffic (one shard or many) into the versioned
//!   `alert-workload` trace format for later replay as a scenario.
//! * [`harness`] — the resumable per-stream
//!   [`SessionEngine`] and the one-shot
//!   [`run_episode`] adapter.
//! * [`metrics`] — Table 4 normalization, violation superscripts,
//!   harmonic means.
//! * [`experiment`] — the paper sweep ([`PaperSweep`]): every
//!   (objective, row, environment) cell run once, schemes addressed by
//!   registry name, a thin adapter over the runtime.

pub mod alert;
pub mod app_only;
pub mod budget;
pub mod capture;
pub mod env;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod harness;
pub mod metrics;
pub mod no_coord;
pub mod oracle;
pub mod registry;
pub mod runtime;
pub mod scheduler;
pub mod serving;
pub mod sys_only;
pub mod telemetry;

/// One-line import surface for serving-first users: the runtime
/// builders, the session options builder, the serving front-end, the
/// unified [`Error`], and the workload types those APIs speak.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::harness::Episode;
    pub use crate::runtime::{Runtime, RuntimeBuilder, SessionOptions, SessionSpec};
    pub use crate::serving::{
        admission_policy, serve, AdmissionDecision, AdmissionPolicy, AlertAdmission, AlwaysAdmit,
        DropTail, RequestContext, ServingConfig,
    };
    pub use crate::telemetry::{
        AdmissionTelemetry, FlightRecorder, MetricsCollector, TelemetryConfig,
    };
    pub use alert_workload::{
        generate_storm, AdmissionVerdict, ArrivalProcess, Goal, GoalPatch, RequestArrival,
        RequestOutcome, Scenario, ServingReport, StormSpec,
    };
}

pub use alert::AlertScheduler;
pub use app_only::AppOnly;
pub use budget::BudgetTracker;
pub use capture::TraceRecorder;
pub use env::{EnvError, EnvRealization, EpisodeEnv};
pub use error::Error;
pub use experiment::{ExperimentConfig, FamilyKind, PaperSweep};
pub use harness::{run_episode, Episode, SessionEngine, StepError};
pub use metrics::{objective_report, CellStat, ResultTable};
pub use no_coord::NoCoord;
pub use oracle::{Oracle, OracleStatic};
pub use registry::{FnPolicy, Policy, PolicyContext, PolicyRegistry, RegistryError, UnknownPolicy};
pub use runtime::{
    EpisodeEvent, EventSink, FamilySpec, RunSpec, Runtime, RuntimeBuilder, SessionOptions,
    SessionSnapshot, SessionSpec,
};
pub use scheduler::{Decision, Feedback, InputContext, Scheduler};
pub use serving::{
    admission_policy, serve, AdmissionDecision, AdmissionPolicy, AlertAdmission, AlwaysAdmit,
    DropTail, RequestContext, ServingConfig,
};
pub use sys_only::SysOnly;
pub use telemetry::{
    AdmissionConstraint, AdmissionEvent, AdmissionProbe, AdmissionTelemetry, DecisionEvent,
    FlightEntry, FlightRecorder, MetricsCollector, SessionFlight, TelemetryConfig, TelemetryEvent,
};
