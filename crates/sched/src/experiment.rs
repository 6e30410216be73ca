//! The paper sweep: every scheme of Tables 4 and 5 on every platform ×
//! workload × environment × constraint setting, for both objectives, as
//! a thin adapter over the session runtime.
//!
//! One *cell* of the sweep is (objective × platform × family ×
//! environment): 35 constraint settings, each run under every scheme
//! and normalized to the cell's OracleStatic baseline. Settings are
//! embarrassingly parallel; the sweep fans them out over scoped
//! threads, one [`Runtime`] per worker, every scheme of a setting
//! running as a session on the *shared* frozen environment
//! (bit-identical conditions, paper §5.1). A scheme's episode therefore
//! does not depend on which other schemes share its cell, so
//! [`PaperSweep::run`] runs each cell once, with Table 4's schemes plus
//! ALERT-Trad, and keeps per-setting summaries from which Table 4,
//! Table 5 ([`PaperSweep::table`]), Fig 7 and Fig 8 are all folded.
//!
//! Schemes are addressed by their
//! [`PolicyRegistry`](crate::registry::PolicyRegistry) names, which are
//! the tables' column labels ([`TABLE4_SCHEMES`], [`TABLE5_SCHEMES`]).

use crate::env::EpisodeEnv;
use crate::harness::Episode;
use crate::metrics::{objective_report, ResultTable};
use crate::oracle::{self, OracleCandidate};
use crate::runtime::{Runtime, SessionSpec};
use alert_models::{ModelFamily, QualityMetric};
use alert_platform::{Platform, PlatformId};
use alert_workload::{
    constraint_grid, EpisodeSummary, Goal, InputStream, Objective, Scenario, TaskId,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Table 4's columns, by registry name.
pub const TABLE4_SCHEMES: [&str; 7] = [
    "ALERT",
    "ALERT-Any",
    "Sys-only",
    "App-only",
    "No-coord",
    "Oracle",
    "OracleStatic",
];

/// Table 5's columns: ALERT over its three candidate sets, and the
/// baseline.
pub const TABLE5_SCHEMES: [&str; 4] = ["ALERT", "ALERT-Any", "ALERT-Trad", "OracleStatic"];

/// The schemes [`PaperSweep::run`] runs: Table 4's plus ALERT-Trad, the
/// one Table 5 column Table 4 lacks.
const SWEEP_SCHEMES: [&str; 8] = [
    "ALERT",
    "ALERT-Any",
    "Sys-only",
    "App-only",
    "No-coord",
    "Oracle",
    "OracleStatic",
    "ALERT-Trad",
];

/// The Table 4 row grid: {CPU1, CPU2} × {image, RNN}, plus GPU × image
/// (RNN inference is CPU-only, §5.1); each row runs in the three
/// environments of [`Scenario::table3`].
const TABLE4_ROWS: [(PlatformId, FamilyKind); 5] = [
    (PlatformId::Cpu1, FamilyKind::Image),
    (PlatformId::Cpu1, FamilyKind::Sentence),
    (PlatformId::Cpu2, FamilyKind::Image),
    (PlatformId::Cpu2, FamilyKind::Sentence),
    (PlatformId::Gpu, FamilyKind::Image),
];

/// The two workloads of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FamilyKind {
    /// Sparse ResNet + Depth-Nest (image classification).
    Image,
    /// RNN widths + Width-Nest (sentence prediction).
    Sentence,
}

impl FamilyKind {
    /// The candidate family.
    pub fn family(&self) -> ModelFamily {
        match self {
            FamilyKind::Image => ModelFamily::image_classification(),
            FamilyKind::Sentence => ModelFamily::sentence_prediction(),
        }
    }

    /// The driving input stream's task.
    pub fn task(&self) -> TaskId {
        match self {
            FamilyKind::Image => TaskId::Img2,
            FamilyKind::Sentence => TaskId::Nlp1,
        }
    }

    /// Table row label fragment ("Sparse Resnet" / "RNN" in the paper).
    pub fn label(&self) -> &'static str {
        match self {
            FamilyKind::Image => "SparseResnet",
            FamilyKind::Sentence => "RNN",
        }
    }

    /// Reporting metric of the family.
    pub fn metric(&self) -> QualityMetric {
        match self {
            FamilyKind::Image => QualityMetric::Top5Accuracy,
            FamilyKind::Sentence => QualityMetric::Perplexity,
        }
    }
}

/// Experiment-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Inputs per episode (words for grouped tasks).
    pub n_inputs: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the setting sweep.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n_inputs: 300,
            seed: 2020,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// A single-worker [`Runtime`] over an explicit family/platform pair,
/// as the sweeps need it (the sweep owns streams and environments; the
/// runtime owns sessions).
fn sweep_runtime(family: &ModelFamily, platform: &Platform, task: TaskId) -> Runtime {
    Runtime::builder()
        .platform(platform.id())
        .family_custom(family.clone(), task)
        .build()
        // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
        .expect("builtin policy resolves")
}

/// All registry-scheme episodes of one constraint setting, plus the
/// cell-pinned static baseline's summary there.
struct SettingOutcome {
    goal: Goal,
    /// One episode per requested registry scheme, in request order; the
    /// `"OracleStatic"` column is `baseline`.
    episodes: Vec<Episode>,
    /// The cell-wide pinned configuration's summary on this setting.
    baseline: EpisodeSummary,
}

/// Runs one full cell: every scheme on every constraint setting, in
/// parallel over settings, and returns the pinned static configuration
/// with the per-setting outcomes.
///
/// The OracleStatic baseline is selected once per cell — "one fixed
/// setting across inputs" *and* across the requirement range. Each
/// setting's worker runs every static configuration
/// ([`oracle::run_static`]) next to the registry schemes; after the
/// parallel section [`oracle::select_static`] picks the cell's
/// configuration, and its scanned summary on each setting is that
/// setting's `baseline` (and its `"OracleStatic"` column).
fn run_cell(
    objective: Objective,
    family_kind: FamilyKind,
    platform: &Platform,
    scenario: &Scenario,
    schemes: &[&str],
    config: &ExperimentConfig,
) -> (OracleCandidate, Vec<SettingOutcome>) {
    let family = family_kind.family();
    let stream = InputStream::generate(family_kind.task(), config.n_inputs, config.seed);
    let settings = constraint_grid(objective, &family, platform);
    let node = std::slice::from_ref(platform);

    // Frozen environment per setting (period = deadline, so each setting
    // has its own realization, deterministically seeded).
    let cell: Vec<(Arc<EpisodeEnv>, Goal)> = settings
        .iter()
        .map(|&goal| {
            (
                Arc::new(
                    EpisodeEnv::build(node, scenario, &stream, &goal, config.seed, None)
                        // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
                        .expect("library scenarios validate"),
                ),
                goal,
            )
        })
        .collect();
    let statics = cell
        .first()
        .map(|(env, _)| oracle::enumerate(&family, env))
        .unwrap_or_default();

    // Per setting: its index, the registry schemes' episodes, and its
    // goal with every static configuration's summary.
    type Scanned = (usize, Vec<Episode>, (Goal, Vec<EpisodeSummary>));
    let results: Mutex<Vec<Scanned>> = Mutex::new(Vec::new());
    let next: Mutex<usize> = Mutex::new(0);
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| {
                // One runtime per worker; each setting's schemes run as
                // sessions on the setting's shared frozen environment.
                let mut rt = sweep_runtime(&family, platform, stream.task());
                loop {
                    let idx = {
                        let mut n = next.lock();
                        let i = *n;
                        *n += 1;
                        i
                    };
                    if idx >= cell.len() {
                        break;
                    }
                    let (env, goal) = &cell[idx];
                    let episodes: Vec<Episode> = schemes
                        .iter()
                        .filter(|&&name| name != "OracleStatic")
                        .map(|&name| {
                            let id = rt
                                .session(SessionSpec::external(*goal))
                                .policy(name)
                                .on(stream.clone(), env.clone())
                                .open()
                                // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
                                .expect("builtin policy resolves");
                            rt.run_to_completion(id).expect("session is open"); // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
                            rt.close(id).expect("session is open") // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
                        })
                        .collect();
                    // Every static configuration, through the same engine
                    // and the same accounting as the schemes above.
                    let scan: Vec<EpisodeSummary> = statics
                        .iter()
                        .map(|&c| {
                            oracle::run_static(env, &family, &stream, goal, c)
                                // lint:allow(no-panic): enumerated configurations are their platform's own caps and fitting models, so every one runs
                                .expect("enumerated configurations run")
                        })
                        .collect();
                    results.lock().push((idx, episodes, (*goal, scan)));
                }
            });
        }
    });

    let mut results = results.into_inner();
    results.sort_by_key(|(i, ..)| *i);
    let (episodes, scans): (Vec<_>, Vec<_>) = results
        .into_iter()
        .map(|(_, episodes, scan)| (episodes, scan))
        .unzip();
    let pick = oracle::select_static(&scans)
        // lint:allow(no-panic): experiment-harness wiring over the built-in registry and library scenarios; failure is a programming error, not a runtime condition
        .expect("paper families fit the paper platforms");
    let outcomes = episodes
        .into_iter()
        .zip(scans)
        .map(|(episodes, (goal, mut scan))| SettingOutcome {
            goal,
            episodes,
            baseline: scan.swap_remove(pick),
        })
        .collect();
    (statics[pick], outcomes)
}

/// One constraint setting of a sweep cell, folded to episode summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SettingSummary {
    /// The constraint setting.
    pub goal: Goal,
    /// `(scheme, summary)` for every swept scheme, in sweep order.
    pub schemes: Vec<(String, EpisodeSummary)>,
    /// The cell-pinned OracleStatic baseline on this setting.
    pub baseline: EpisodeSummary,
}

/// One (objective, platform, workload, environment) cell of the paper
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The task's objective.
    pub objective: Objective,
    /// Platform of the row.
    pub platform: PlatformId,
    /// Workload of the row.
    pub family: FamilyKind,
    /// Environment name ("Idle" in the paper is our "Default").
    pub scenario: String,
    /// The 35 constraint settings, in grid order.
    pub settings: Vec<SettingSummary>,
}

impl SweepCell {
    /// Runs `schemes` on every setting of one cell and keeps only the
    /// summaries, so a sweep holds one cell's records at a time.
    fn run(
        objective: Objective,
        (platform, family): (PlatformId, FamilyKind),
        scenario: &Scenario,
        schemes: &[&str],
        config: &ExperimentConfig,
    ) -> SweepCell {
        let (_, outcomes) = run_cell(
            objective,
            family,
            &Platform::by_id(platform),
            scenario,
            schemes,
            config,
        );
        let settings = outcomes
            .into_iter()
            .map(|o| {
                let mut registry = o.episodes.into_iter().map(|e| (e.scheme, e.summary));
                let schemes = schemes
                    .iter()
                    .filter_map(|&name| {
                        if name == "OracleStatic" {
                            Some((name.to_string(), o.baseline.clone()))
                        } else {
                            registry.next()
                        }
                    })
                    .collect();
                SettingSummary {
                    goal: o.goal,
                    schemes,
                    baseline: o.baseline,
                }
            })
            .collect();
        SweepCell {
            objective,
            platform,
            family,
            scenario: scenario.name().to_string(),
            settings,
        }
    }

    /// The table row label, `platform/workload/environment`.
    fn label(&self) -> String {
        let workload = self.family.label();
        format!("{}/{workload}/{}", self.platform, self.scenario)
    }
}

/// The paper's §5 evaluation grid, run once: both objectives × the 15
/// Table 4 rows × 35 constraint settings, every setting under Table 4's
/// schemes plus ALERT-Trad.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperSweep {
    /// Every cell, minimize-energy first, then in Table 4 row and
    /// environment order.
    pub cells: Vec<SweepCell>,
}

impl PaperSweep {
    /// Runs the whole grid, one cell at a time.
    pub fn run(config: &ExperimentConfig) -> PaperSweep {
        let mut cells = Vec::new();
        for objective in [Objective::MinimizeEnergy, Objective::MinimizeError] {
            for row in TABLE4_ROWS {
                for scenario in Scenario::table3(config.seed) {
                    cells.push(SweepCell::run(
                        objective,
                        row,
                        &scenario,
                        &SWEEP_SCHEMES,
                        config,
                    ));
                }
            }
        }
        PaperSweep { cells }
    }

    /// Folds one objective's cells into a [`ResultTable`] over `schemes`,
    /// normalizing every scheme to its cell's OracleStatic baseline.
    pub fn table(&self, objective: Objective, schemes: &[&str]) -> ResultTable {
        let mut table = ResultTable::new();
        for cell in self.cells.iter().filter(|c| c.objective == objective) {
            let label = cell.label();
            let metric = cell.family.metric();
            for setting in &cell.settings {
                // The static configuration's measured objective on this
                // setting normalizes every scheme whether or not it met
                // the constraints there (it is the reference
                // *performance*, not a feasibility certificate).
                let baseline = objective_report(&setting.baseline, &setting.goal, metric);
                for (scheme, summary) in &setting.schemes {
                    if schemes.contains(&scheme.as_str()) {
                        let value = objective_report(summary, &setting.goal, metric);
                        table.cell(&label, scheme).add(summary, value, baseline);
                    }
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleStatic;
    use crate::registry::PolicyRegistry;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            n_inputs: 80,
            seed: 7,
            threads: 4,
        }
    }

    #[test]
    fn cell_covers_all_settings_and_schemes() {
        // The single sweep rests on this: a scheme's records on a
        // setting do not depend on which schemes share the cell.
        let platform = Platform::cpu1();
        let config = small_config();
        let cell = |schemes: &[&str]| {
            run_cell(
                Objective::MinimizeEnergy,
                FamilyKind::Image,
                &platform,
                &Scenario::default_env(),
                schemes,
                &config,
            )
        };
        let (alone_choice, alone) = cell(&["ALERT"]);
        let (swept_choice, swept) = cell(&SWEEP_SCHEMES);
        assert_eq!(alone_choice, swept_choice);
        assert_eq!(alone.len(), 35);
        assert_eq!(swept.len(), 35);
        let registry: Vec<&str> = SWEEP_SCHEMES
            .into_iter()
            .filter(|&name| name != "OracleStatic")
            .collect();
        for (a, s) in alone.iter().zip(&swept) {
            assert_eq!(a.goal, s.goal);
            assert_eq!(a.episodes.len(), 1);
            let names: Vec<&str> = s.episodes.iter().map(|e| e.scheme.as_str()).collect();
            assert_eq!(names, registry);
            for ep in a.episodes.iter().chain(&s.episodes) {
                assert_eq!(ep.records.len(), config.n_inputs, "{}", ep.scheme);
            }
            // Records only: `summary.overhead` is sampled CPU time.
            assert_eq!(a.episodes[0].records, s.episodes[0].records);
            // OracleStatic charges no overhead, so its summaries compare.
            assert_eq!(a.baseline, s.baseline);
            assert_eq!(a.baseline.measured, config.n_inputs - config.n_inputs / 10);
        }
    }

    #[test]
    fn the_sweep_pins_what_the_public_constructor_picks() {
        let platform = Platform::cpu1();
        let config = small_config();
        let scenario = Scenario::default_env();
        let (choice, outcomes) = run_cell(
            Objective::MinimizeError,
            FamilyKind::Image,
            &platform,
            &scenario,
            &[],
            &config,
        );
        let family = FamilyKind::Image.family();
        let stream = InputStream::generate(FamilyKind::Image.task(), config.n_inputs, config.seed);
        let node = std::slice::from_ref(&platform);
        let cell: Vec<(Arc<EpisodeEnv>, Goal)> =
            constraint_grid(Objective::MinimizeError, &family, &platform)
                .into_iter()
                .map(|goal| {
                    let env = EpisodeEnv::build(node, &scenario, &stream, &goal, config.seed, None);
                    (Arc::new(env.unwrap()), goal)
                })
                .collect();
        let public = OracleStatic::for_cell(&cell, family.clone(), &stream).unwrap();
        assert_eq!(public.choice(), choice);
        // Each setting's baseline is that configuration's own episode.
        for ((env, goal), o) in cell.iter().zip(&outcomes) {
            assert_eq!(o.goal, *goal);
            assert!(o.episodes.is_empty());
            let summary = oracle::run_static(env, &family, &stream, goal, choice).unwrap();
            assert_eq!(o.baseline, summary);
        }
    }

    #[test]
    fn table_normalizes_to_the_cell_baseline() {
        let schemes = ["ALERT", "Oracle", "OracleStatic"];
        let cell = SweepCell::run(
            Objective::MinimizeEnergy,
            (PlatformId::Cpu1, FamilyKind::Image),
            &Scenario::default_env(),
            &schemes,
            &small_config(),
        );
        let sweep = PaperSweep { cells: vec![cell] };
        let error_table = sweep.table(Objective::MinimizeError, &schemes);
        assert!(error_table.cells.is_empty());
        let table = sweep.table(Objective::MinimizeEnergy, &schemes);
        let row = &table.cells["CPU1/SparseResnet/Default"];
        // OracleStatic normalizes to itself: mean ratio ≈ 1.
        let base = row["OracleStatic"].mean_ratio().unwrap();
        assert!((base - 1.0).abs() < 1e-9);
        // The dynamic oracle is at least as good as the static one.
        let oracle = row["Oracle"].mean_ratio().unwrap();
        assert!(oracle <= 1.0 + 1e-9, "oracle ratio {oracle}");
        // ALERT sits between oracle and ~static.
        let alert = row["ALERT"].mean_ratio().unwrap();
        assert!(alert <= 1.1, "alert ratio {alert}");
        assert!(
            alert >= oracle - 0.05,
            "alert ratio {alert} vs oracle {oracle}"
        );
        // A table shows only the schemes it asks for.
        let alert_only = sweep.table(Objective::MinimizeEnergy, &["ALERT"]);
        assert_eq!(alert_only.schemes(), ["ALERT"]);
        assert_eq!(
            alert_only.cells["CPU1/SparseResnet/Default"]["ALERT"],
            row["ALERT"]
        );
    }

    #[test]
    fn sweep_schemes_are_both_tables_registered_once() {
        let registry = PolicyRegistry::builtin();
        for (i, name) in SWEEP_SCHEMES.iter().enumerate() {
            assert!(registry.contains(name), "{name} is not registered");
            assert!(!SWEEP_SCHEMES[..i].contains(name), "{name} swept twice");
        }
        for name in TABLE4_SCHEMES.iter().chain(&TABLE5_SCHEMES) {
            assert!(SWEEP_SCHEMES.contains(name), "{name} is not swept");
        }
    }
}
