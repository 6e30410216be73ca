//! Workload substrate for the ALERT reproduction: tasks, input streams,
//! constraint grids, environment scenarios, and per-input records.
//!
//! * [`task`] — the paper's four tasks (IMG1/IMG2/NLP1/NLP2, Table 2) and
//!   their per-input variability: images vary little, sentence prediction
//!   varies a lot with sentence length (paper Fig. 4).
//! * [`stream`] — input streams: periodic image feeds and word streams
//!   grouped into sentences that *share* a deadline (paper §3.2 step 2).
//! * [`constraints`] — goals (minimize energy / minimize error with the
//!   complementary constraints) and the 35-setting constraint grids used
//!   for every Table 4 cell (Table 3 ranges).
//! * [`script`] — the scenario-script DSL: declarative timelines of
//!   contention onset/offset, power-cap steps, goal changes, input drift,
//!   arrival-process switches, and session churn.
//! * [`scenario`] — named scenarios over the DSL: the paper's Default /
//!   Memory / Compute trio, the Fig. 9 scripted window, and the dynamic
//!   stress library (cap-storm, goal-flip, floor-raise, drift-ramp,
//!   burst/Poisson arrivals, churn, compound stress) plus trace-replay
//!   scenarios ([`Scenario::replay`], [`Scenario::replay_under`]).
//! * [`record`] — per-input records and episode summaries with the
//!   paper's violation accounting (>10% of inputs in violation disqualifies
//!   a setting).
//! * [`trace`] — the capture/replay subsystem: a versioned line-delimited
//!   trace format (per-input inter-arrival, scale, goal in force,
//!   observed outcome) with streaming reader/writer, and the
//!   [`TraceSource`] replay path that turns a recorded request log back
//!   into a first-class scenario (`ArrivalProcess::Trace`).
//! * [`admission`] — serving-side artifacts: frozen request storms
//!   (offered-load generation over the same [`ArrivalProcess`] shapes,
//!   one level up — requests instead of inputs) and per-request
//!   admission outcomes with the saturation-curve aggregates.

pub mod admission;
pub mod constraints;
pub mod goal;
pub mod record;
pub mod scenario;
pub mod script;
pub mod session;
pub mod stream;
pub mod task;
pub mod trace;

pub use admission::{
    generate_storm, AdmissionVerdict, RequestArrival, RequestOutcome, ServingReport, StormSpec,
};
pub use constraints::{constraint_grid, quality_span, Goal, Objective};
pub use record::{on_time, EpisodeSummary, InputRecord};
pub use scenario::Scenario;
pub use script::{
    ArrivalProcess, ArrivalSampler, GoalPatch, QualitySpan, ScenarioScript, ScriptEvent,
};
pub use session::{SessionId, StreamId};
pub use stream::{GroupPos, InputSpec, InputStream};
pub use task::TaskId;
pub use trace::{
    TraceError, TraceFit, TraceHeader, TraceOutcome, TraceRecord, TraceSource, TraceStep,
    WorkloadTrace,
};
