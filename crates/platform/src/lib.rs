//! Simulated hardware substrate for the ALERT reproduction.
//!
//! The paper evaluates on four physical platforms (an ARM embedded board,
//! a laptop CPU, a Xeon server, and an RTX 2080 GPU) with Intel RAPL power
//! capping and co-located contention benchmarks (STREAM, PARSEC Bodytrack,
//! Rodinia Backprop). None of that hardware is available here, so this
//! crate implements behavioural simulators that expose the same knobs and
//! the same *terrain* the controller must navigate:
//!
//! * [`freq`] — the cap→throughput response. A logistic curve with a
//!   memory-bound floor reproduces the paper's Fig. 3 shape: >2× latency
//!   span across the cap range and a *non-monotone* energy-vs-cap curve
//!   whose maximum sits mid-range.
//! * [`power`] — power-cap ranges and validated cap setting
//!   (2.5 W steps on the laptop, 5 W on server/GPU, per paper §4).
//! * [`gpu`] — the PyNVML analogue: a discrete frequency/power lookup
//!   table (paper §4 builds exactly such a table for the GPU).
//! * [`energy`] — per-period energy accounting (run + idle), the quantity
//!   plotted in paper Fig. 3 and optimized in Eqs. 2/9.
//! * [`contention`] — on/off co-runner processes that inflate latency with
//!   per-workload sensitivity and fat tails (paper Figs. 5, 11).
//! * [`platform`] — the four platform presets and the glue that turns
//!   (reference latency, workload class, cap, environment) into realized
//!   latency and power draw.
//! * [`backend`] — the shared-budget split rule for heterogeneous
//!   placement: one node budget divided across the node's platforms.

pub mod backend;
pub mod contention;
pub mod energy;
pub mod error;
pub mod freq;
pub mod gpu;
pub mod platform;
pub mod power;

pub use backend::split_budget;
pub use contention::{ContentionKind, ContentionModel, ContentionProcess, PhaseSchedule};
pub use energy::PeriodEnergy;
pub use error::PowerError;
pub use freq::ThroughputCurve;
pub use gpu::{GpuFreqTable, GpuLevel};
pub use platform::{NoiseParams, Platform, PlatformId, PlatformSpec, WorkloadClass};
pub use power::CapRange;
