//! DNN model zoo and inference simulator for the ALERT reproduction.
//!
//! ALERT never looks inside a network: it consumes profiled
//! (latency, quality, power) tables and per-input feedback. This crate
//! therefore models DNNs as *profiles* — reference latency at the CPU2
//! profiling condition, output quality, frequency sensitivity, memory
//! intensity, footprint — plus an executor that realizes per-input latency
//! on a simulated platform. That preserves exactly the interface the
//! controller sees on real hardware while giving the oracle schemes the
//! ground truth they need.
//!
//! Modules:
//!
//! * [`profile`] — [`ModelProfile`] and the anytime
//!   staircase ([`AnytimeSpec`]); quality metrics
//!   (top-5 accuracy for images, perplexity for sentence prediction).
//! * [`zoo`] — the 42 ImageNet classification networks of paper Fig. 2 and
//!   the individual reference models (VGG16, ResNet50, RNN, BERT).
//! * [`family`] — candidate sets fed to schedulers: the Sparse-ResNet
//!   traditional family + Depth-Nest anytime (image classification), the
//!   RNN width family + Width-Nest anytime (sentence prediction).
//! * [`inference`] — the per-input executor: traditional and anytime
//!   execution, early stopping, stage completions, deadline quality.

pub mod family;
pub mod inference;
pub mod profile;
pub mod zoo;

pub use family::ModelFamily;
pub use inference::{execute, InferenceResult, StopPolicy};
pub use profile::{AnytimeSpec, AnytimeStage, ModelProfile, QualityMetric};
