//! Statistics and estimation substrate for the ALERT reproduction.
//!
//! This crate is the leaf of the workspace dependency graph. It hosts
//! everything that is "pure math" and shared by every other crate:
//!
//! * [`units`] — scalar newtypes ([`Seconds`](units::Seconds),
//!   [`Watts`](units::Watts), [`Joules`](units::Joules)) used at all API
//!   boundaries so that latency/power/energy cannot be mixed up silently.
//! * [`normal`] — the standard normal distribution: `erf`, CDF, inverse CDF
//!   (Acklam's algorithm refined with Halley steps), and a parameterized
//!   [`Normal`](normal::Normal) type. ALERT's deadline-meeting probability
//!   (paper Eq. 6) and percentile energy bound (Eq. 12) are built on these.
//! * [`kalman`] — scalar Kalman filters: the textbook filter, the
//!   adaptive-process-noise extension used for the global slowdown factor
//!   (paper Eq. 5, after Akhlaghi et al.), and the simpler idle-power filter
//!   (paper Eq. 8).
//! * [`summary`] — streaming descriptive statistics (Welford), percentiles,
//!   five-number summaries for the paper's boxplot figures, harmonic means
//!   for Table 4 aggregation.
//! * [`histogram`] — fixed-bin histograms with density normalization
//!   (paper Fig. 11).
//! * [`hull`] — lower convex hull of 2-D point sets (paper Fig. 2).
//! * [`fit`] — Gaussian maximum-likelihood fit plus a Kolmogorov–Smirnov
//!   distance (used to quantify how non-Gaussian observed slowdowns are,
//!   paper Fig. 11 and §3.6).
//! * [`rng`] — deterministic RNG stream derivation and a few samplers not
//!   worth pulling a dependency for.
//! * [`cputime`] — the per-thread CPU clock (raw `clock_gettime` syscall
//!   on Linux), so the controller can meter its own decision cost without
//!   charging itself for preemption and lock waits.
//! * [`telemetry`] — the metric substrate of the observability layer: a
//!   static-name registry (counters, gauges, log-bucketed histograms)
//!   with per-session/per-shard scopes and byte-deterministic JSON
//!   snapshots, plus the bounded ring buffer behind the flight recorder.
//!
//! Everything here is deterministic and allocation-light; the hot paths
//! (CDF evaluation, Kalman updates) are called once per candidate
//! configuration per input by the controller.

pub mod cputime;
pub mod fit;
pub mod histogram;
pub mod hull;
pub mod kalman;
pub mod normal;
pub mod rng;
pub mod summary;
pub mod telemetry;
pub mod units;

pub use fit::{GaussianFit, KsStatistic};
pub use histogram::Histogram;
pub use hull::{lower_convex_hull, Point2};
pub use kalman::{AdaptiveKalman, AdaptiveKalmanParams, IdlePowerFilter, ScalarKalman};
pub use normal::{inv_phi, phi, Normal};
pub use summary::{five_number, harmonic_mean, percentile, FiveNumber, Welford};
pub use telemetry::{LogHistogram, MetricsRegistry, MetricsSnapshot, RingBuffer, Scope};
pub use units::{Joules, Seconds, Watts};
