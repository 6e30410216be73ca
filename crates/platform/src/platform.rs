//! The four evaluation platforms and the latency/power glue.
//!
//! Paper Table 1 lists the hardware: an ARM Cortex A-15 embedded board,
//! a Core i7 laptop (CPU1), a Xeon Gold 6126 server (CPU2), and an RTX
//! 2080 (GPU). [`Platform`] carries everything the simulator needs to
//! realize an inference on one of them:
//!
//! * the feasible power-cap series (paper §4),
//! * the cap→throughput response ([`ThroughputCurve`] for CPUs, the
//!   [`GpuFreqTable`] for the GPU),
//! * idle and maximum power draws,
//! * per-workload-class speed relative to the CPU2 reference (model
//!   profiles are stated at CPU2 @ max cap),
//! * memory capacity (the embedded board OOMs on everything except the
//!   small RNN — paper Fig. 4 footnote),
//! * baseline measurement noise and per-contention-kind models.

use crate::contention::{ContentionKind, ContentionModel};
use crate::error::PowerError;
use crate::freq::ThroughputCurve;
use crate::gpu::GpuFreqTable;
use crate::power::CapRange;
use alert_stats::units::{Seconds, Watts};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a kernel maps onto hardware; decides which cross-platform speed
/// factor and which frequency sensitivity applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Convolutional networks (image classification).
    Cnn,
    /// Recurrent networks (sentence prediction). Poorly suited to GPUs
    /// (paper §5.1 runs NLP on CPUs only, citing DeepCPU \[90\]).
    Rnn,
    /// Attention/transformer models (question answering).
    Transformer,
}

impl WorkloadClass {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            WorkloadClass::Cnn => 0,
            WorkloadClass::Rnn => 1,
            WorkloadClass::Transformer => 2,
        }
    }
}

/// Baseline (no-contention) latency noise: small lognormal jitter plus
/// rare outliers (paper §2.2: "outlier inputs exist but are rare").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// σ of the lognormal jitter.
    pub sigma: f64,
    /// Per-inference probability of an outlier.
    pub outlier_prob: f64,
    /// Outlier multiplier upper bound (uniform in `[1.3, max]`).
    pub outlier_scale_max: f64,
}

/// Pre-drawn random primitives of one inference's baseline noise (the
/// analogue of [`crate::contention::ContentionDraws`] for the
/// no-contention jitter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseDraws {
    /// Standard normal draw for the lognormal jitter.
    pub z: f64,
    /// Uniform draw in `[0, 1)` deciding whether this input is an outlier.
    pub outlier_u: f64,
    /// Uniform draw in `[0, 1)` positioning the outlier multiplier.
    pub outlier_v: f64,
}

impl NoiseDraws {
    /// Draws the primitives from an RNG.
    pub fn sample<R: Rng>(rng: &mut R) -> Self {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        NoiseDraws {
            z,
            outlier_u: rng.gen_range(0.0..1.0),
            outlier_v: rng.gen_range(0.0..1.0),
        }
    }
}

impl NoiseParams {
    /// Samples a multiplicative noise factor ≥ a small positive floor.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.factor_from_draws(&NoiseDraws::sample(rng))
    }

    /// Maps pre-drawn primitives to the noise factor (deterministic).
    pub fn factor_from_draws(&self, draws: &NoiseDraws) -> f64 {
        let mut f = (draws.z * self.sigma).exp();
        if self.outlier_prob > 0.0 && draws.outlier_u < self.outlier_prob {
            let hi = self.outlier_scale_max.max(1.3);
            f *= 1.3 + draws.outlier_v * (hi - 1.3);
        }
        f.max(0.5)
    }
}

/// Identifier of one of the paper's four platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformId {
    /// ARM Cortex A-15 @ 2.0 GHz, 2 GB DDR3.
    Embedded,
    /// Core i7 @ 2.2 GHz laptop, 16 GB DDR4.
    Cpu1,
    /// Xeon Gold 6126 @ 2.6 GHz server, 192 GB DDR4.
    Cpu2,
    /// RTX 2080 attached to the laptop-class host.
    Gpu,
}

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformId::Embedded => write!(f, "Embedded"),
            PlatformId::Cpu1 => write!(f, "CPU1"),
            PlatformId::Cpu2 => write!(f, "CPU2"),
            PlatformId::Gpu => write!(f, "GPU"),
        }
    }
}

/// The cap→throughput backend: a continuous curve for CPUs, a discrete
/// frequency table for the GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FreqResponse {
    /// Continuous floored-logistic response (CPU DVFS under RAPL).
    Curve(ThroughputCurve),
    /// Discrete clock levels (GPU); `floor` is the memory-bound throughput
    /// retained at the lowest clock.
    Table {
        /// The frequency/power lookup table.
        table: GpuFreqTable,
        /// Memory-bound throughput floor in `(0, 1]`.
        floor: f64,
    },
}

/// Static description + behaviour of one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Which platform this is.
    pub id: PlatformId,
    /// Human-readable name (Table 1 row).
    pub name: String,
    /// Feasible power-cap series.
    pub caps: CapRange,
    /// Cap→throughput response.
    pub response: FreqResponse,
    /// Maximum power the package can actually draw under this workload;
    /// caps above this buy nothing.
    pub max_draw: Watts,
    /// Power drawn when the inference pipeline idles and no co-runner is
    /// active.
    pub idle_base: Watts,
    /// Per-[`WorkloadClass`] latency multiplier relative to CPU2 @ max cap.
    pub class_speed: [f64; WorkloadClass::COUNT],
    /// Usable memory for model weights + activations, in GB.
    pub mem_capacity_gb: f64,
    /// Baseline latency noise.
    pub noise: NoiseParams,
    /// Contention behaviour when a memory-intensive co-runner is active.
    pub memory_contention: ContentionModel,
    /// Contention behaviour when a compute-intensive co-runner is active.
    pub compute_contention: ContentionModel,
}

/// A platform instance (today a thin wrapper over the spec; kept distinct
/// so mutable runtime state can be added without breaking the API).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    spec: PlatformSpec,
}

impl Platform {
    /// Wraps a spec.
    pub fn new(spec: PlatformSpec) -> Self {
        Platform { spec }
    }

    /// The ARM embedded board.
    pub fn embedded() -> Self {
        Platform::new(PlatformSpec {
            id: PlatformId::Embedded,
            name: "ARM Cortex A-15 @2.0GHz, 2GB DDR3".to_string(),
            caps: CapRange::new(Watts(3.0), Watts(7.0), Watts(0.5)),
            response: FreqResponse::Curve(ThroughputCurve::new(0.35, 4.8, 0.8, 7.0)),
            max_draw: Watts(6.5),
            idle_base: Watts(0.8),
            class_speed: [16.0, 11.0, 18.0],
            mem_capacity_gb: 0.4,
            noise: NoiseParams {
                sigma: 0.015,
                outlier_prob: 0.003,
                outlier_scale_max: 2.5,
            },
            memory_contention: ContentionModel {
                boost: 0.80,
                sigma: 0.15,
                tail_prob: 0.010,
                tail_range: (1.5, 3.0),
                idle_draw_extra: Watts(0.6),
            },
            compute_contention: ContentionModel {
                boost: 0.60,
                sigma: 0.10,
                tail_prob: 0.006,
                tail_range: (1.4, 2.2),
                idle_draw_extra: Watts(0.7),
            },
        })
    }

    /// The Core i7 laptop (CPU1).
    pub fn cpu1() -> Self {
        Platform::new(PlatformSpec {
            id: PlatformId::Cpu1,
            name: "Core i7 @2.2GHz, 16GB DDR4".to_string(),
            caps: CapRange::new(Watts(10.0), Watts(45.0), Watts(2.5)),
            response: FreqResponse::Curve(ThroughputCurve::new(0.32, 26.0, 5.5, 45.0)),
            max_draw: Watts(42.0),
            idle_base: Watts(4.0),
            class_speed: [2.2, 1.2, 2.0],
            mem_capacity_gb: 16.0,
            noise: NoiseParams {
                sigma: 0.012,
                outlier_prob: 0.002,
                outlier_scale_max: 2.5,
            },
            memory_contention: ContentionModel {
                boost: 0.85,
                sigma: 0.16,
                tail_prob: 0.010,
                tail_range: (1.5, 3.2),
                idle_draw_extra: Watts(5.0),
            },
            compute_contention: ContentionModel {
                boost: 0.55,
                sigma: 0.11,
                tail_prob: 0.006,
                tail_range: (1.4, 2.4),
                idle_draw_extra: Watts(6.0),
            },
        })
    }

    /// The Xeon Gold server (CPU2) — the profiling reference platform.
    pub fn cpu2() -> Self {
        Platform::new(PlatformSpec {
            id: PlatformId::Cpu2,
            name: "Xeon Gold 6126 @2.60GHz, 192GB DDR4".to_string(),
            caps: CapRange::new(Watts(40.0), Watts(100.0), Watts(5.0)),
            response: FreqResponse::Curve(ThroughputCurve::new(0.30, 78.0, 8.0, 100.0)),
            max_draw: Watts(95.0),
            idle_base: Watts(18.0),
            class_speed: [1.0, 1.0, 1.0],
            mem_capacity_gb: 192.0,
            noise: NoiseParams {
                sigma: 0.010,
                outlier_prob: 0.002,
                outlier_scale_max: 2.2,
            },
            memory_contention: ContentionModel {
                boost: 0.75,
                sigma: 0.14,
                tail_prob: 0.008,
                tail_range: (1.5, 3.0),
                idle_draw_extra: Watts(12.0),
            },
            compute_contention: ContentionModel {
                boost: 0.50,
                sigma: 0.10,
                tail_prob: 0.006,
                tail_range: (1.4, 2.2),
                idle_draw_extra: Watts(14.0),
            },
        })
    }

    /// The RTX 2080 GPU platform.
    pub fn gpu() -> Self {
        let table = GpuFreqTable::rtx2080();
        let caps = CapRange::new(table.min_power(), table.max_power(), Watts(5.0));
        Platform::new(PlatformSpec {
            id: PlatformId::Gpu,
            name: "RTX 2080 + Core i7 host".to_string(),
            caps,
            response: FreqResponse::Table { table, floor: 0.30 },
            max_draw: Watts(215.0),
            idle_base: Watts(52.0),
            class_speed: [0.12, 0.90, 0.15],
            mem_capacity_gb: 8.0,
            noise: NoiseParams {
                sigma: 0.006,
                outlier_prob: 0.001,
                outlier_scale_max: 1.8,
            },
            memory_contention: ContentionModel {
                boost: 0.30,
                sigma: 0.05,
                tail_prob: 0.004,
                tail_range: (1.2, 1.6),
                idle_draw_extra: Watts(25.0),
            },
            compute_contention: ContentionModel {
                boost: 0.35,
                sigma: 0.06,
                tail_prob: 0.005,
                tail_range: (1.2, 1.8),
                idle_draw_extra: Watts(30.0),
            },
        })
    }

    /// Every platform in Table 1 order.
    pub fn all() -> Vec<Platform> {
        vec![
            Platform::embedded(),
            Platform::cpu1(),
            Platform::cpu2(),
            Platform::gpu(),
        ]
    }

    /// Looks a platform up by id.
    pub fn by_id(id: PlatformId) -> Platform {
        match id {
            PlatformId::Embedded => Platform::embedded(),
            PlatformId::Cpu1 => Platform::cpu1(),
            PlatformId::Cpu2 => Platform::cpu2(),
            PlatformId::Gpu => Platform::gpu(),
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The platform id.
    pub fn id(&self) -> PlatformId {
        self.spec.id
    }

    /// The candidate power settings P = {pⱼ} handed to schedulers: the cap
    /// series for CPUs, the table levels for the GPU.
    pub fn power_settings(&self) -> Vec<Watts> {
        match &self.spec.response {
            FreqResponse::Curve(_) => self.spec.caps.settings(),
            FreqResponse::Table { table, .. } => table.power_settings(),
        }
    }

    /// The feasible cap range.
    pub fn cap_range(&self) -> CapRange {
        self.spec.caps
    }

    /// Normalized throughput σ(cap) ∈ (0, 1].
    pub fn throughput(&self, cap: Watts) -> Result<f64, PowerError> {
        match &self.spec.response {
            FreqResponse::Curve(c) => {
                self.spec.caps.validate(cap)?;
                Ok(c.throughput(cap.get()))
            }
            FreqResponse::Table { table, floor } => table.throughput(cap, *floor),
        }
    }

    /// Profiled inference latency of a kernel on this platform at `cap`:
    /// `t_ref(CPU2 @ max) × class_speed × (ρ/σ(cap) + 1 − ρ)`.
    ///
    /// This is the `t^prof_{i,j}` the controller's tables are built from.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1]` — the memory-intensity ratio
    /// is a profiled constant per workload class, so an out-of-range
    /// value is a caller bug, not a runtime condition.
    pub fn profile_latency(
        &self,
        ref_latency: Seconds,
        class: WorkloadClass,
        rho: f64,
        cap: Watts,
    ) -> Result<Seconds, PowerError> {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0,1]");
        let sigma = self.throughput(cap)?;
        let slowdown = rho / sigma + (1.0 - rho);
        Ok(ref_latency * self.spec.class_speed[class.index()] * slowdown)
    }

    /// Power drawn while the inference runs at `cap` (RAPL holds the
    /// package at the cap, but the package cannot draw more than
    /// `max_draw`).
    pub fn run_draw(&self, cap: Watts) -> Watts {
        cap.min(self.spec.max_draw)
    }

    /// Power drawn while the inference pipeline idles. A co-located job
    /// keeps burning power, which is why ALERT tracks the idle ratio
    /// online (Eq. 8).
    pub fn idle_draw(&self, cap: Watts, contention: Option<ContentionKind>) -> Watts {
        let base = match contention {
            None => self.spec.idle_base,
            Some(k) => self.spec.idle_base + self.contention_model(k).idle_draw_extra,
        };
        base.min(cap)
    }

    /// The contention model for a co-runner kind.
    pub fn contention_model(&self, kind: ContentionKind) -> &ContentionModel {
        match kind {
            ContentionKind::Memory => &self.spec.memory_contention,
            ContentionKind::Compute => &self.spec.compute_contention,
        }
    }

    /// Baseline noise parameters.
    pub fn noise(&self) -> &NoiseParams {
        &self.spec.noise
    }

    /// Whether a model with the given memory footprint fits.
    pub fn supports_footprint(&self, footprint_gb: f64) -> bool {
        footprint_gb <= self.spec.mem_capacity_gb
    }

    /// The default system setting (uncapped), used by the App-only
    /// baseline.
    pub fn default_cap(&self) -> Watts {
        self.spec.caps.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_bucket_counts() {
        // Paper §4: 2.5 W interval on the laptop, 5 W on server; GPU uses
        // the frequency table levels.
        assert_eq!(Platform::cpu1().power_settings().len(), 15);
        assert_eq!(Platform::cpu2().power_settings().len(), 13);
        assert_eq!(Platform::gpu().power_settings().len(), 26);
        assert_eq!(Platform::embedded().power_settings().len(), 9);
    }

    #[test]
    fn throughput_monotone_per_platform() {
        for p in Platform::all() {
            let mut prev = 0.0;
            for cap in p.power_settings() {
                let s = p.throughput(cap).unwrap();
                assert!(s >= prev, "{:?} throughput dipped at {cap}", p.id());
                assert!(s > 0.0 && s <= 1.0);
                prev = s;
            }
        }
    }

    #[test]
    fn profile_latency_at_max_cap_is_reference_on_cpu2() {
        let p = Platform::cpu2();
        let t = p
            .profile_latency(Seconds(0.1), WorkloadClass::Cnn, 0.85, Watts(100.0))
            .unwrap();
        assert!((t.get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gpu_is_faster_for_cnn_slower_for_rnn() {
        let gpu = Platform::gpu();
        let cpu2 = Platform::cpu2();
        let cnn_gpu = gpu
            .profile_latency(Seconds(0.1), WorkloadClass::Cnn, 0.85, gpu.default_cap())
            .unwrap();
        let cnn_cpu = cpu2
            .profile_latency(Seconds(0.1), WorkloadClass::Cnn, 0.85, cpu2.default_cap())
            .unwrap();
        assert!(cnn_gpu.get() < cnn_cpu.get() / 4.0);
        let rnn_gpu = gpu
            .profile_latency(Seconds(0.1), WorkloadClass::Rnn, 0.55, gpu.default_cap())
            .unwrap();
        // RNN barely benefits from the GPU.
        assert!(rnn_gpu.get() > cnn_gpu.get() * 2.0);
    }

    #[test]
    fn embedded_cannot_fit_large_models() {
        let e = Platform::embedded();
        assert!(e.supports_footprint(0.2)); // small RNN
        assert!(!e.supports_footprint(0.8)); // ResNet50
        assert!(!e.supports_footprint(1.6)); // VGG16
        assert!(Platform::cpu1().supports_footprint(1.6));
    }

    #[test]
    fn run_draw_saturates_at_max_draw() {
        let p = Platform::cpu2();
        assert_eq!(p.run_draw(Watts(60.0)), Watts(60.0));
        assert_eq!(p.run_draw(Watts(100.0)), Watts(95.0));
    }

    #[test]
    fn idle_draw_rises_under_contention_and_respects_cap() {
        let p = Platform::cpu2();
        let quiet = p.idle_draw(Watts(100.0), None);
        let noisy = p.idle_draw(Watts(100.0), Some(ContentionKind::Memory));
        assert!(noisy > quiet);
        // The cap bounds the idle draw too (the co-runner lives in the same
        // RAPL domain).
        let capped = p.idle_draw(Watts(20.0), Some(ContentionKind::Memory));
        assert!(capped <= Watts(20.0));
    }

    #[test]
    fn invalid_cap_is_rejected() {
        let p = Platform::cpu2();
        assert!(p.throughput(Watts(30.0)).is_err());
        assert!(p
            .profile_latency(Seconds(0.1), WorkloadClass::Cnn, 0.8, Watts(300.0))
            .is_err());
    }

    #[test]
    fn latency_span_exceeds_two_on_cpus() {
        // Paper §2.1: the fastest setting is more than 2x the slowest.
        for p in [Platform::cpu1(), Platform::cpu2()] {
            let caps = p.power_settings();
            let lo = p
                .profile_latency(Seconds(0.1), WorkloadClass::Cnn, 0.85, caps[0])
                .unwrap();
            let hi = p
                .profile_latency(
                    Seconds(0.1),
                    WorkloadClass::Cnn,
                    0.85,
                    *caps.last().unwrap(),
                )
                .unwrap();
            assert!(lo.get() / hi.get() > 2.0, "{:?} span too small", p.id());
        }
    }

    #[test]
    fn by_id_roundtrip() {
        for p in Platform::all() {
            assert_eq!(Platform::by_id(p.id()).id(), p.id());
        }
    }

    #[test]
    fn noise_factor_is_positive_and_near_one() {
        let p = Platform::cpu2();
        let mut rng = alert_stats::rng::stream_rng(9, "noise");
        let mut sum = 0.0;
        for _ in 0..5000 {
            let f = p.noise().sample(&mut rng);
            assert!(f > 0.0);
            sum += f;
        }
        let mean = sum / 5000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean noise = {mean}");
    }
}
