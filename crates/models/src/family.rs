//! Candidate model sets (DNN families) fed to schedulers.
//!
//! Paper Table 3 defines the evaluation candidates:
//!
//! * image classification — a *Sparse ResNet* traditional family plus a
//!   *Depth-Nest* anytime network,
//! * sentence prediction — an RNN width family plus a *Width-Nest* anytime
//!   network,
//!
//! and three scheduler variants that receive the traditional models only
//! (`ALERT-Trad`), the anytime network only (`ALERT-Any`), or both
//! (`ALERT`). Anytime networks trade a little final accuracy for their
//! flexibility (§3.5), which the profiles below encode: each anytime
//! staircase sits slightly below the traditional model of equal latency.

use crate::profile::{AnytimeSpec, AnytimeStage, ModelProfile, QualityMetric};
use crate::zoo::{IMAGENET_RANDOM_GUESS, PTB_FAIL_PERPLEXITY};
use alert_platform::platform::WorkloadClass;
use serde::{Deserialize, Serialize};

/// Which subset of a task's candidates a scheduler receives (Table 3/5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CandidateSet {
    /// Traditional models and the anytime network (the "Standard" set).
    Standard,
    /// The anytime network only.
    AnytimeOnly,
    /// Traditional models only.
    TraditionalOnly,
}

/// A named, validated set of candidate models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFamily {
    name: String,
    models: Vec<ModelProfile>,
}

impl ModelFamily {
    /// Builds a family, validating every member.
    ///
    /// # Panics
    ///
    /// Panics if the family is empty or a member profile is invalid —
    /// these are construction-time programming errors, not runtime
    /// conditions.
    pub fn new(name: impl Into<String>, models: Vec<ModelProfile>) -> Self {
        let name = name.into();
        assert!(!models.is_empty(), "family {name} has no models");
        for m in &models {
            if let Err(e) = m.validate() {
                // lint:allow(no-panic): documented panic contract — invalid members are construction-time programming errors
                panic!("family {name}: model {} invalid: {e}", m.name);
            }
        }
        ModelFamily { name, models }
    }

    /// Family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member profiles.
    pub fn models(&self) -> &[ModelProfile] {
        &self.models
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` if there are no members (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The member with the highest final quality.
    pub fn most_accurate(&self) -> &ModelProfile {
        self.models
            .iter()
            .max_by(|a, b| a.quality.total_cmp(&b.quality))
            // lint:allow(no-panic): new() asserts families are non-empty
            .expect("non-empty family")
    }

    /// The anytime members.
    pub fn anytime_members(&self) -> impl Iterator<Item = &ModelProfile> {
        self.models.iter().filter(|m| m.is_anytime())
    }

    /// Restricts the family to a [`CandidateSet`].
    pub fn restrict(&self, set: CandidateSet) -> ModelFamily {
        let models: Vec<ModelProfile> = match set {
            CandidateSet::Standard => self.models.clone(),
            CandidateSet::AnytimeOnly => self
                .models
                .iter()
                .filter(|m| m.is_anytime())
                .cloned()
                .collect(),
            CandidateSet::TraditionalOnly => self
                .models
                .iter()
                .filter(|m| !m.is_anytime())
                .cloned()
                .collect(),
        };
        ModelFamily::new(format!("{}/{:?}", self.name, set), models)
    }
}

/// The Sparse ResNet traditional family (image classification, Table 3).
pub fn sparse_resnet_family() -> Vec<ModelProfile> {
    let mk = |name: &str, lat_ms: f64, acc: f64, gb: f64| ModelProfile {
        name: name.to_string(),
        class: WorkloadClass::Cnn,
        metric: QualityMetric::Top5Accuracy,
        ref_latency_s: lat_ms / 1e3,
        quality: acc,
        fail_quality: IMAGENET_RANDOM_GUESS,
        rho: 0.84,
        mem_intensity: 0.50,
        footprint_gb: gb,
        anytime: None,
    };
    vec![
        mk("sparse_resnet_8", 20.0, 0.855, 0.15),
        mk("sparse_resnet_14", 35.0, 0.885, 0.22),
        mk("sparse_resnet_26", 60.0, 0.912, 0.34),
        mk("sparse_resnet_50", 105.0, 0.935, 0.55),
        mk("sparse_resnet_101", 170.0, 0.951, 0.90),
    ]
}

/// The Depth-Nest anytime network (image classification, Table 3; nested
/// design of paper reference \[5\]).
///
/// Its staircase sits just below the traditional model of equal latency —
/// e.g. the 0.62-fraction output (~108 ms) scores 0.932 vs Sparse
/// ResNet-50's 0.935 at 105 ms.
pub fn depth_nest() -> ModelProfile {
    ModelProfile {
        name: "depth_nest_anytime".to_string(),
        class: WorkloadClass::Cnn,
        metric: QualityMetric::Top5Accuracy,
        ref_latency_s: 0.175,
        quality: 0.948,
        fail_quality: IMAGENET_RANDOM_GUESS,
        rho: 0.84,
        mem_intensity: 0.52,
        footprint_gb: 0.95,
        anytime: Some(AnytimeSpec::new(vec![
            AnytimeStage {
                frac: 0.18,
                quality: 0.858,
            },
            AnytimeStage {
                frac: 0.35,
                quality: 0.904,
            },
            AnytimeStage {
                frac: 0.62,
                quality: 0.932,
            },
            AnytimeStage {
                frac: 1.00,
                quality: 0.948,
            },
        ])),
    }
}

/// The RNN width family (sentence prediction, Table 3). Latencies are per
/// word; quality is negative perplexity.
pub fn rnn_family() -> Vec<ModelProfile> {
    let mk = |name: &str, lat_ms: f64, ppl: f64, gb: f64| ModelProfile {
        name: name.to_string(),
        class: WorkloadClass::Rnn,
        metric: QualityMetric::Perplexity,
        ref_latency_s: lat_ms / 1e3,
        quality: -ppl,
        fail_quality: -PTB_FAIL_PERPLEXITY,
        rho: 0.55,
        mem_intensity: 0.70,
        footprint_gb: gb,
        anytime: None,
    };
    vec![
        mk("rnn_w128", 6.0, 160.0, 0.08),
        mk("rnn_w256", 10.0, 142.0, 0.12),
        mk("rnn_w512", 18.0, 128.0, 0.18),
        mk("rnn_w768", 28.0, 121.0, 0.26),
        mk("rnn_w1024", 40.0, 115.0, 0.35),
    ]
}

/// The Width-Nest anytime RNN (sentence prediction, Table 3).
///
/// Each stage sits ~2–3 perplexity points above (worse than) the
/// traditional RNN of equal latency — the §3.5 flexibility tax — with a
/// staircase fine enough that the anytime-only controller stays
/// competitive (paper Table 5 shows ALERT-Any ≈ ALERT).
pub fn width_nest() -> ModelProfile {
    ModelProfile {
        name: "width_nest_anytime".to_string(),
        class: WorkloadClass::Rnn,
        metric: QualityMetric::Perplexity,
        ref_latency_s: 0.042,
        quality: -117.0,
        fail_quality: -PTB_FAIL_PERPLEXITY,
        rho: 0.55,
        mem_intensity: 0.72,
        footprint_gb: 0.38,
        anytime: Some(AnytimeSpec::new(vec![
            AnytimeStage {
                frac: 0.15,
                quality: -163.0,
            },
            AnytimeStage {
                frac: 0.25,
                quality: -146.0,
            },
            AnytimeStage {
                frac: 0.45,
                quality: -131.0,
            },
            AnytimeStage {
                frac: 0.67,
                quality: -124.0,
            },
            AnytimeStage {
                frac: 1.00,
                quality: -117.0,
            },
        ])),
    }
}

impl ModelFamily {
    /// Image classification candidates: Sparse ResNet family + Depth-Nest
    /// anytime (the "Standard" set of Tables 3–5).
    pub fn image_classification() -> ModelFamily {
        let mut models = sparse_resnet_family();
        models.push(depth_nest());
        ModelFamily::new("image_classification", models)
    }

    /// Sentence prediction candidates: RNN widths + Width-Nest anytime.
    pub fn sentence_prediction() -> ModelFamily {
        let mut models = rnn_family();
        models.push(width_nest());
        ModelFamily::new("sentence_prediction", models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::imagenet42;

    #[test]
    fn families_are_valid() {
        let image = ModelFamily::image_classification();
        let sentence = ModelFamily::sentence_prediction();
        // The zoo behind Figs. 2 and 6 is a plain profile list.
        let zoo = imagenet42();
        for models in [image.models(), sentence.models(), &zoo] {
            assert!(!models.is_empty());
            for m in models {
                assert!(m.validate().is_ok(), "{}: {:?}", m.name, m.validate());
            }
        }
    }

    #[test]
    fn image_family_composition() {
        let f = ModelFamily::image_classification();
        assert_eq!(f.len(), 6);
        assert_eq!(f.anytime_members().count(), 1);
        assert_eq!(f.most_accurate().name, "sparse_resnet_101");
    }

    #[test]
    fn restrict_splits_candidates() {
        let f = ModelFamily::image_classification();
        assert_eq!(f.restrict(CandidateSet::TraditionalOnly).len(), 5);
        assert_eq!(f.restrict(CandidateSet::AnytimeOnly).len(), 1);
        assert_eq!(f.restrict(CandidateSet::Standard).len(), 6);
    }

    #[test]
    fn anytime_sacrifices_final_accuracy() {
        // Paper §3.5: anytime DNNs have slightly lower accuracy than a
        // traditional DNN of similar compute.
        let img = ModelFamily::image_classification();
        let trad_best = img
            .restrict(CandidateSet::TraditionalOnly)
            .most_accurate()
            .quality;
        let any_best = depth_nest().quality;
        assert!(any_best < trad_best);
        let nlp_trad = -115.0; // rnn_w1024 perplexity 115
        assert!(width_nest().quality < nlp_trad);
    }

    #[test]
    fn anytime_staircase_beats_fallback_early() {
        let d = depth_nest();
        // Even the first output is far better than a random guess.
        assert!(d.quality_at_fraction(0.2) > 0.8);
        assert!(d.quality_at_fraction(0.1) < 0.01);
    }

    #[test]
    fn rnn_family_quality_monotone_in_latency() {
        let f = rnn_family();
        for w in f.windows(2) {
            assert!(w[1].ref_latency_s > w[0].ref_latency_s);
            assert!(w[1].quality > w[0].quality);
        }
    }

    #[test]
    #[should_panic(expected = "has no models")]
    fn empty_family_rejected() {
        let _ = ModelFamily::new("empty", vec![]);
    }
}
