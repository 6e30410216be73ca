//! Candidate configuration tables.
//!
//! ALERT's inputs are "a set of DNN models D = {dᵢ} and a set of
//! system-resource settings expressed as different power caps P = {pⱼ}"
//! (paper §3.1), together with the offline profiles `t^prof_{i,j}` (mean
//! inference latency of model i under cap j in the nominal environment),
//! the models' qualities, and the measured run powers `p_{i,j}`.
//!
//! The controller is deliberately decoupled from how those tables are
//! produced: on real hardware they come from a profiling pass; in this
//! reproduction the simulator's deterministic latency model fills them in
//! (see `alert-sched`). Anytime DNNs additionally carry their output
//! staircase; the selection layer treats *each stage* of an anytime model
//! as a stoppable execution target.

use alert_stats::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One output point of a candidate model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePoint {
    /// Cumulative fraction of the full-network latency, in `(0, 1]`.
    pub frac: f64,
    /// Quality score of this output (higher is better).
    pub quality: f64,
}

/// A candidate DNN as the controller sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateModel {
    /// Model name, used for reporting and to map selections back to
    /// executable models.
    pub name: String,
    /// Output staircase: a single `{frac: 1.0, quality}` entry for a
    /// traditional DNN, several increasing entries for an anytime DNN.
    pub stages: Vec<StagePoint>,
    /// Quality delivered when no output is ready by the deadline.
    pub fail_quality: f64,
}

impl CandidateModel {
    /// Builds a traditional (single-output) candidate.
    pub fn traditional(name: impl Into<String>, quality: f64, fail_quality: f64) -> Self {
        CandidateModel {
            name: name.into(),
            stages: vec![StagePoint { frac: 1.0, quality }],
            fail_quality,
        }
    }

    /// Builds an anytime candidate from its staircase.
    pub fn anytime(name: impl Into<String>, stages: Vec<StagePoint>, fail_quality: f64) -> Self {
        CandidateModel {
            name: name.into(),
            stages,
            fail_quality,
        }
    }

    /// `true` if the model exposes more than one output.
    pub fn is_anytime(&self) -> bool {
        self.stages.len() > 1
    }

    /// Final-output quality.
    pub fn final_quality(&self) -> f64 {
        // lint:allow(no-panic): validate() rejects empty stage lists and every construction path validates
        self.stages.last().expect("validated: non-empty").quality
    }

    /// Validates staircase invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("empty candidate name".into());
        }
        let (Some(first), Some(last)) = (self.stages.first(), self.stages.last()) else {
            return Err(format!("{}: no stages", self.name));
        };
        for w in self.stages.windows(2) {
            let [lo, hi] = w else { continue };
            if hi.frac <= lo.frac || hi.quality <= lo.quality {
                return Err(format!("{}: staircase not increasing", self.name));
            }
        }
        if (last.frac - 1.0).abs() > 1e-9 {
            return Err(format!("{}: final stage frac must be 1.0", self.name));
        }
        if first.frac <= 0.0 {
            return Err(format!("{}: first stage frac must be positive", self.name));
        }
        if self.fail_quality >= first.quality {
            return Err(format!("{}: fallback beats first output", self.name));
        }
        Ok(())
    }
}

/// A selectable execution target: on device `d`, model `i`, stopping
/// after stage `k`, under that device's power setting `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Candidate {
    /// Device index into the table's device axis. Defaults to `0` (the
    /// single-CPU config space of the pre-placement format).
    #[serde(default)]
    pub device: usize,
    /// Model index into [`ConfigTable::models`].
    pub model: usize,
    /// Target stage (0-based; `stages.len() - 1` runs the full network).
    pub stage: usize,
    /// Power index into the device's power axis
    /// ([`ConfigTable::powers_on`]).
    pub power: usize,
}

/// One device's slice of the config space: its own power-setting axis
/// (RAPL caps on CPUs, clock-table levels on the GPU) and the per-model
/// profiled grids at those settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DeviceGrid {
    powers: Vec<Watts>,
    /// `t_prof[i][j]`: full-network profiled latency of model i at cap j.
    t_prof: Vec<Vec<Seconds>>,
    /// `p_run[i][j]`: measured power draw of model i running at cap j.
    p_run: Vec<Vec<Watts>>,
}

/// The full candidate table: device × model × power with profiled
/// latency and measured run power per device grid. A single-device
/// table (built by [`ConfigTable::new`]) is exactly the paper's
/// models × powers space; [`ConfigTable::add_device`] extends the same
/// model set onto further backends for heterogeneous placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigTable {
    models: Vec<CandidateModel>,
    devices: Vec<DeviceGrid>,
}

fn validate_grid(
    models: &[CandidateModel],
    powers: &[Watts],
    t_prof: &[Vec<Seconds>],
    p_run: &[Vec<Watts>],
) -> Result<(), String> {
    if powers.is_empty() {
        return Err("no power settings".into());
    }
    if t_prof.len() != models.len() {
        return Err(format!(
            "t_prof rows != models ({} vs {})",
            t_prof.len(),
            models.len()
        ));
    }
    if p_run.len() != models.len() {
        return Err(format!(
            "p_run rows != models ({} vs {})",
            p_run.len(),
            models.len()
        ));
    }
    for (i, row) in t_prof.iter().enumerate() {
        if row.len() != powers.len() {
            return Err(format!("t_prof[{i}] cols != powers"));
        }
        for (j, &t) in row.iter().enumerate() {
            if !(t.is_finite() && t.get() > 0.0) {
                return Err(format!("t_prof[{i}][{j}] must be positive, got {t}"));
            }
        }
    }
    for (i, row) in p_run.iter().enumerate() {
        if row.len() != powers.len() {
            return Err(format!("p_run[{i}] cols != powers"));
        }
        for (j, &p) in row.iter().enumerate() {
            if !(p.is_finite() && p.get() > 0.0) {
                return Err(format!("p_run[{i}][{j}] must be positive, got {p}"));
            }
        }
    }
    Ok(())
}

impl ConfigTable {
    /// Builds and validates a table.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found — dimension
    /// mismatches, invalid candidates, or non-positive profile entries.
    /// Candidate tables are user input (profiling passes, config files),
    /// so malformed tables are a runtime condition the caller must be
    /// able to surface, not a panic.
    pub fn new(
        models: Vec<CandidateModel>,
        powers: Vec<Watts>,
        t_prof: Vec<Vec<Seconds>>,
        p_run: Vec<Vec<Watts>>,
    ) -> Result<Self, String> {
        if models.is_empty() {
            return Err("no candidate models".into());
        }
        for m in &models {
            m.validate()
                .map_err(|e| format!("invalid candidate: {e}"))?;
        }
        validate_grid(&models, &powers, &t_prof, &p_run)?;
        Ok(ConfigTable {
            models,
            devices: vec![DeviceGrid {
                powers,
                t_prof,
                p_run,
            }],
        })
    }

    /// Extends the config space with another device's grid over the same
    /// model set, returning the new device index. `label` names the
    /// device in error messages.
    ///
    /// # Errors
    ///
    /// The same dimension/positivity problems [`ConfigTable::new`]
    /// rejects, prefixed with the device label.
    pub fn add_device(
        &mut self,
        label: impl Into<String>,
        powers: Vec<Watts>,
        t_prof: Vec<Vec<Seconds>>,
        p_run: Vec<Vec<Watts>>,
    ) -> Result<usize, String> {
        validate_grid(&self.models, &powers, &t_prof, &p_run)
            .map_err(|e| format!("device {}: {e}", label.into()))?;
        self.devices.push(DeviceGrid {
            powers,
            t_prof,
            p_run,
        });
        Ok(self.devices.len() - 1)
    }

    /// The candidate models.
    pub fn models(&self) -> &[CandidateModel] {
        &self.models
    }

    /// Number of devices in the config space.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The power settings of device `d`.
    pub fn powers_on(&self, d: usize) -> &[Watts] {
        &self.devices[d].powers
    }

    /// Full-network profiled latency of model `i` at power `j` on
    /// device `d`.
    pub fn t_prof_on(&self, d: usize, i: usize, j: usize) -> Seconds {
        self.devices[d].t_prof[i][j]
    }

    /// Profiled completion time of the candidate's target stage on its
    /// device.
    pub fn t_prof_stage(&self, c: Candidate) -> Seconds {
        let frac = self.models[c.model].stages[c.stage].frac;
        self.devices[c.device].t_prof[c.model][c.power] * frac
    }

    /// Measured run power of model `i` at power `j` on device `d`.
    pub fn p_run_on(&self, d: usize, i: usize, j: usize) -> Watts {
        self.devices[d].p_run[i][j]
    }

    /// The cap value of power index `j` on device `d`.
    pub fn cap_on(&self, d: usize, j: usize) -> Watts {
        self.devices[d].powers[j]
    }

    /// Enumerates every `(device, model, stage, power)` execution target,
    /// device-major; within one device the order is exactly the
    /// pre-placement model → stage → power enumeration, so single-device
    /// tables keep the historical candidate order bit-for-bit.
    pub fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.devices.iter().enumerate().flat_map(move |(d, dev)| {
            let n_powers = dev.powers.len();
            self.models.iter().enumerate().flat_map(move |(i, m)| {
                (0..m.stages.len()).flat_map(move |k| {
                    (0..n_powers).map(move |j| Candidate {
                        device: d,
                        model: i,
                        stage: k,
                        power: j,
                    })
                })
            })
        })
    }

    /// Total number of execution targets across all devices.
    pub fn candidate_count(&self) -> usize {
        let stages: usize = self.models.iter().map(|m| m.stages.len()).sum();
        self.devices
            .iter()
            .map(|dev| stages * dev.powers.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ConfigTable {
        let models = vec![
            CandidateModel::traditional("small", 0.85, 0.005),
            CandidateModel::traditional("big", 0.95, 0.005),
            CandidateModel::anytime(
                "any",
                vec![
                    StagePoint {
                        frac: 0.4,
                        quality: 0.8,
                    },
                    StagePoint {
                        frac: 1.0,
                        quality: 0.94,
                    },
                ],
                0.005,
            ),
        ];
        let powers = vec![Watts(20.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.05), Seconds(0.02)],
            vec![Seconds(0.25), Seconds(0.10)],
            vec![Seconds(0.30), Seconds(0.12)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(40.0)],
            vec![Watts(19.0), Watts(42.0)],
            vec![Watts(19.0), Watts(42.0)],
        ];
        ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
    }

    #[test]
    fn candidate_enumeration_counts_stages() {
        let t = table();
        // 1 + 1 + 2 stages, × 2 powers = 8.
        assert_eq!(t.candidate_count(), 8);
        assert_eq!(t.candidates().count(), 8);
    }

    #[test]
    fn stage_profile_scales_by_fraction() {
        let t = table();
        let c = Candidate {
            device: 0,
            model: 2,
            stage: 0,
            power: 1,
        };
        assert!((t.t_prof_stage(c).get() - 0.4 * 0.12).abs() < 1e-15);
        let c_full = Candidate {
            device: 0,
            model: 2,
            stage: 1,
            power: 1,
        };
        assert!((t.t_prof_stage(c_full).get() - 0.12).abs() < 1e-15);
    }

    #[test]
    fn traditional_candidate_shape() {
        let c = CandidateModel::traditional("m", 0.9, 0.0);
        assert!(!c.is_anytime());
        assert_eq!(c.final_quality(), 0.9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_staircases() {
        let c = CandidateModel::anytime(
            "bad",
            vec![
                StagePoint {
                    frac: 0.5,
                    quality: 0.9,
                },
                StagePoint {
                    frac: 1.0,
                    quality: 0.8,
                },
            ],
            0.0,
        );
        assert!(c.validate().is_err());
        let c = CandidateModel::anytime(
            "bad2",
            vec![StagePoint {
                frac: 0.5,
                quality: 0.9,
            }],
            0.0,
        );
        assert!(c.validate().is_err());
        let c = CandidateModel::traditional("bad3", 0.5, 0.9);
        assert!(c.validate().is_err());
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let err = ConfigTable::new(
            vec![CandidateModel::traditional("m", 0.9, 0.0)],
            vec![Watts(10.0)],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(err.contains("t_prof rows != models"), "{err}");
    }

    #[test]
    fn zero_latency_is_rejected() {
        let err = ConfigTable::new(
            vec![CandidateModel::traditional("m", 0.9, 0.0)],
            vec![Watts(10.0)],
            vec![vec![Seconds(0.0)]],
            vec![vec![Watts(9.0)]],
        )
        .unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
    }

    #[test]
    fn add_device_extends_the_candidate_space_device_major() {
        let mut t = table();
        assert_eq!(t.device_count(), 1);
        let cpu_candidates: Vec<Candidate> = t.candidates().collect();
        let gpu = t
            .add_device(
                "GPU",
                vec![Watts(100.0), Watts(160.0), Watts(215.0)],
                vec![
                    vec![Seconds(0.006), Seconds(0.004), Seconds(0.003)],
                    vec![Seconds(0.030), Seconds(0.020), Seconds(0.015)],
                    vec![Seconds(0.036), Seconds(0.024), Seconds(0.018)],
                ],
                vec![
                    vec![Watts(95.0), Watts(150.0), Watts(200.0)],
                    vec![Watts(98.0), Watts(155.0), Watts(205.0)],
                    vec![Watts(98.0), Watts(155.0), Watts(205.0)],
                ],
            )
            .expect("valid grid");
        assert_eq!(gpu, 1);
        assert_eq!(t.device_count(), 2);
        // 4 stage-rows × (2 CPU + 3 GPU powers) = 20.
        assert_eq!(t.candidate_count(), 20);
        let all: Vec<Candidate> = t.candidates().collect();
        // Device-major: the CPU block is bit-identical to the
        // single-device enumeration, the GPU block follows.
        assert_eq!(&all[..cpu_candidates.len()], &cpu_candidates[..]);
        assert!(all[cpu_candidates.len()..].iter().all(|c| c.device == 1));
        // Per-device accessors hit the right grid.
        assert_eq!(t.cap_on(1, 2), Watts(215.0));
        assert_eq!(t.t_prof_on(1, 0, 0), Seconds(0.006));
        let c = Candidate {
            device: 1,
            model: 2,
            stage: 0,
            power: 2,
        };
        assert!((t.t_prof_stage(c).get() - 0.4 * 0.018).abs() < 1e-15);
    }

    #[test]
    fn add_device_rejects_mismatched_grids() {
        let mut t = table();
        let err = t
            .add_device("GPU", vec![Watts(100.0)], vec![], vec![])
            .unwrap_err();
        assert!(err.contains("device GPU"), "{err}");
        assert!(err.contains("t_prof rows != models"), "{err}");
        assert_eq!(t.device_count(), 1, "failed add must not mutate");
    }

    #[test]
    fn invalid_candidate_is_rejected() {
        let err = ConfigTable::new(
            vec![CandidateModel::traditional("bad", 0.5, 0.9)],
            vec![Watts(10.0)],
            vec![vec![Seconds(0.1)]],
            vec![vec![Watts(9.0)]],
        )
        .unwrap_err();
        assert!(err.contains("invalid candidate"), "{err}");
    }
}
