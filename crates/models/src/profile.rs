//! Model profiles: everything ALERT knows about a DNN offline.
//!
//! A profile captures the paper's offline profiling pass (§3.3): the mean
//! inference latency under the nominal environment (CPU2 at the maximum
//! power cap), the model's output quality, and the hardware-facing traits
//! that determine how latency responds to power caps, platforms and
//! contention.
//!
//! Quality is a single score where **higher is better**: top-5 accuracy in
//! `[0, 1]` for image classification, *negative* perplexity for sentence
//! prediction. Both of the paper's objectives (Eqs. 1–2, 7, 13) are affine
//! in quality, so any monotone affine scale yields the same decisions;
//! [`QualityMetric`] converts scores back to the paper's reporting units
//! (error-rate %, perplexity).

use alert_platform::platform::WorkloadClass;
use serde::{Deserialize, Serialize};

/// How to interpret (and report) a quality score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Score is top-5 accuracy in `[0, 1]`; reported as error-rate %.
    Top5Accuracy,
    /// Score is negative perplexity; reported as perplexity.
    Perplexity,
    /// Score is an F1 fraction in `[0, 1]` (question answering);
    /// reported as (1 − F1) %.
    F1,
}

impl QualityMetric {
    /// Converts a score to the paper's reporting unit
    /// (error-rate %, perplexity, or 1−F1 %). All are "lower is better".
    pub fn report(&self, score: f64) -> f64 {
        match self {
            QualityMetric::Top5Accuracy | QualityMetric::F1 => (1.0 - score) * 100.0,
            QualityMetric::Perplexity => -score,
        }
    }
}

/// One output point of an anytime DNN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnytimeStage {
    /// Cumulative latency of this output as a fraction of the full
    /// network's latency, in `(0, 1]`.
    pub frac: f64,
    /// Quality score of this output.
    pub quality: f64,
}

/// The staircase of outputs of an anytime DNN (paper §3.5, Eq. 13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnytimeSpec {
    stages: Vec<AnytimeStage>,
}

impl AnytimeSpec {
    /// Builds a staircase.
    ///
    /// # Panics
    ///
    /// Panics unless stages are non-empty, fractions are strictly
    /// increasing and end at 1.0, and qualities are strictly increasing
    /// (later outputs are more reliable, paper §3.5).
    pub fn new(stages: Vec<AnytimeStage>) -> Self {
        let (Some(first), Some(last)) = (stages.first(), stages.last()) else {
            // lint:allow(no-panic): documented panic contract for construction-time misuse
            panic!("anytime spec needs at least one stage");
        };
        for w in stages.windows(2) {
            let [lo, hi] = w else { continue };
            assert!(hi.frac > lo.frac, "stage fractions must strictly increase");
            assert!(
                hi.quality > lo.quality,
                "stage qualities must strictly increase"
            );
        }
        assert!(
            (last.frac - 1.0).abs() < 1e-9,
            "final stage must complete the network (frac = 1.0)"
        );
        assert!(first.frac > 0.0, "first stage fraction must be positive");
        AnytimeSpec { stages }
    }

    /// The stages, earliest first.
    pub fn stages(&self) -> &[AnytimeStage] {
        &self.stages
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if there are no stages (never true post-construction; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Offline profile of one DNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model name (e.g. `"resnet_v1_50"`).
    pub name: String,
    /// Hardware-mapping class.
    pub class: WorkloadClass,
    /// Quality metric for this task.
    pub metric: QualityMetric,
    /// Mean inference latency at the profiling condition
    /// (CPU2 @ maximum cap, no contention), in seconds.
    pub ref_latency_s: f64,
    /// Final-output quality score (higher better).
    pub quality: f64,
    /// Quality of the fallback when the deadline is missed with no output
    /// (random guess: 0.005 top-5 for 1000 classes; a large perplexity for
    /// language models).
    pub fail_quality: f64,
    /// Frequency-sensitive (compute-bound) fraction ρ ∈ [0, 1].
    pub rho: f64,
    /// Sensitivity to memory-bandwidth contention ∈ [0, 1].
    pub mem_intensity: f64,
    /// Weights + activation memory in GB (decides platform fit).
    pub footprint_gb: f64,
    /// `Some` for anytime DNNs.
    pub anytime: Option<AnytimeSpec>,
}

impl ModelProfile {
    /// `true` if this is an anytime DNN.
    pub fn is_anytime(&self) -> bool {
        self.anytime.is_some()
    }

    /// Quality staircase seen at a normalized completion fraction: the best
    /// output available once `frac` of the full latency has elapsed, or
    /// `fail_quality` when no output is ready yet.
    pub fn quality_at_fraction(&self, frac: f64) -> f64 {
        match &self.anytime {
            None => {
                if frac >= 1.0 {
                    self.quality
                } else {
                    self.fail_quality
                }
            }
            Some(spec) => {
                let mut q = self.fail_quality;
                for s in spec.stages() {
                    if frac + 1e-12 >= s.frac {
                        q = s.quality;
                    } else {
                        break;
                    }
                }
                q
            }
        }
    }

    /// Validates profile invariants; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("empty model name".into());
        }
        if !(self.ref_latency_s.is_finite() && self.ref_latency_s > 0.0) {
            return Err(format!("bad ref latency {}", self.ref_latency_s));
        }
        if !(0.0..=1.0).contains(&self.rho) {
            return Err(format!("rho out of range: {}", self.rho));
        }
        if !(0.0..=1.0).contains(&self.mem_intensity) {
            return Err(format!(
                "mem_intensity out of range: {}",
                self.mem_intensity
            ));
        }
        if self.fail_quality >= self.quality {
            return Err("fail_quality must be below final quality".into());
        }
        if self.metric == QualityMetric::Top5Accuracy && !(0.0..=1.0).contains(&self.quality) {
            return Err(format!("accuracy out of range: {}", self.quality));
        }
        if let Some(a) = &self.anytime {
            let (Some(first), Some(last)) = (a.stages().first(), a.stages().last()) else {
                return Err("anytime spec has no stages".into());
            };
            if (last.quality - self.quality).abs() > 1e-9 {
                return Err("final stage quality must equal profile quality".into());
            }
            if first.quality <= self.fail_quality {
                return Err("first stage must beat the fallback".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trad() -> ModelProfile {
        ModelProfile {
            name: "toy".into(),
            class: WorkloadClass::Cnn,
            metric: QualityMetric::Top5Accuracy,
            ref_latency_s: 0.1,
            quality: 0.95,
            fail_quality: 0.005,
            rho: 0.85,
            mem_intensity: 0.4,
            footprint_gb: 0.5,
            anytime: None,
        }
    }

    fn anytime() -> ModelProfile {
        ModelProfile {
            name: "toy_any".into(),
            anytime: Some(AnytimeSpec::new(vec![
                AnytimeStage {
                    frac: 0.3,
                    quality: 0.85,
                },
                AnytimeStage {
                    frac: 0.6,
                    quality: 0.91,
                },
                AnytimeStage {
                    frac: 1.0,
                    quality: 0.94,
                },
            ])),
            quality: 0.94,
            ..trad()
        }
    }

    #[test]
    fn metric_report_units() {
        let m = QualityMetric::Top5Accuracy;
        assert!((m.report(0.95) - 5.0).abs() < 1e-12);
        let p = QualityMetric::Perplexity;
        assert!((p.report(-120.0) - 120.0).abs() < 1e-12);
    }

    #[test]
    fn traditional_quality_is_step() {
        let t = trad();
        assert_eq!(t.quality_at_fraction(0.99), 0.005);
        assert_eq!(t.quality_at_fraction(1.0), 0.95);
        assert_eq!(t.quality_at_fraction(2.0), 0.95);
    }

    #[test]
    fn anytime_quality_is_staircase() {
        let a = anytime();
        assert_eq!(a.quality_at_fraction(0.1), 0.005);
        assert_eq!(a.quality_at_fraction(0.3), 0.85);
        assert_eq!(a.quality_at_fraction(0.45), 0.85);
        assert_eq!(a.quality_at_fraction(0.6), 0.91);
        assert_eq!(a.quality_at_fraction(1.0), 0.94);
    }

    #[test]
    fn validation_catches_problems() {
        assert!(trad().validate().is_ok());
        assert!(anytime().validate().is_ok());
        let mut bad = trad();
        bad.rho = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = trad();
        bad.fail_quality = 0.99;
        assert!(bad.validate().is_err());
        let mut bad = trad();
        bad.ref_latency_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = anytime();
        bad.quality = 0.99; // no longer equals final stage quality
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn anytime_spec_rejects_non_monotone_fracs() {
        let _ = AnytimeSpec::new(vec![
            AnytimeStage {
                frac: 0.5,
                quality: 0.8,
            },
            AnytimeStage {
                frac: 0.4,
                quality: 0.9,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "final stage must complete")]
    fn anytime_spec_requires_full_final_stage() {
        let _ = AnytimeSpec::new(vec![AnytimeStage {
            frac: 0.5,
            quality: 0.8,
        }]);
    }
}
