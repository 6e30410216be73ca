//! ALERT wired to the simulator: table construction and the
//! [`Scheduler`] adapter, including the paper's variants.
//!
//! * **ALERT** — the standard candidate set (traditional + anytime).
//! * **ALERT-Any** — anytime network only (the fair-comparison variant
//!   against App-only/Sys-only/No-coord, which share that candidate set).
//! * **ALERT-Trad** — traditional models only.
//! * **ALERT\*** — the mean-only ablation of §5.3 (Fig. 10).

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_core::alert::{AlertController, AlertParams, DecisionTables, Observation};
use alert_core::config::{CandidateModel, ConfigTable, StagePoint};
use alert_models::family::CandidateSet;
use alert_models::inference::{self, StopPolicy};
use alert_models::{ModelFamily, ModelProfile};
use alert_platform::{split_budget, Platform};
use alert_stats::units::{Seconds, Watts};
use std::sync::Arc;

/// The platform's power settings restricted to a shared-budget share;
/// without a share, the full setting table.
fn budgeted_settings(platform: &Platform, share: Option<Watts>) -> Vec<Watts> {
    let all = platform.power_settings();
    match share {
        None => all,
        Some(s) => {
            let kept: Vec<Watts> = all.iter().copied().filter(|p| *p <= s).collect();
            if kept.is_empty() {
                // split_budget floors each share at the backend's own
                // minimum power, so the lowest setting always qualifies;
                // keep it as a defensive floor regardless.
                all.into_iter().take(1).collect()
            } else {
                kept
            }
        }
    }
}

/// The controller's view of a family member: its output staircase.
fn candidate_model(m: &ModelProfile) -> CandidateModel {
    match &m.anytime {
        None => CandidateModel::traditional(m.name.clone(), m.quality, m.fail_quality),
        Some(spec) => CandidateModel::anytime(
            m.name.clone(),
            spec.stages()
                .iter()
                .map(|s| StagePoint {
                    frac: s.frac,
                    quality: s.quality,
                })
                .collect(),
            m.fail_quality,
        ),
    }
}

/// One device's slice of a candidate table: its power settings and the
/// `t_prof`/`p_run` grids of every table row at those settings.
type DeviceGrid = (Vec<Watts>, Vec<Vec<Seconds>>, Vec<Vec<Watts>>);

/// Profiles every table row's model on `platform` at the settings inside
/// `share` (all settings without one).
///
/// # Errors
///
/// Returns a description of the problem when a row's model does not fit
/// the platform.
fn profile_device(
    rows: &[&ModelProfile],
    platform: &Platform,
    share: Option<Watts>,
) -> Result<DeviceGrid, String> {
    let powers = budgeted_settings(platform, share);
    let mut t_prof = Vec::with_capacity(rows.len());
    let mut p_run = Vec::with_capacity(rows.len());
    for m in rows {
        if !platform.supports_footprint(m.footprint_gb) {
            return Err(format!(
                "model {} does not fit platform {}; restrict the family \
                 before building a heterogeneous table",
                m.name,
                platform.id()
            ));
        }
        t_prof.push(
            powers
                .iter()
                // lint:allow(no-panic): powers come from the platform's own setting table, so every cap is feasible
                .map(|&p| inference::profile_latency(m, platform, p).expect("feasible cap"))
                .collect(),
        );
        p_run.push(
            powers
                .iter()
                .map(|&p| inference::run_power(m, platform, p))
                .collect(),
        );
    }
    Ok((powers, t_prof, p_run))
}

/// Builds the controller's candidate table from a family on a node:
/// `node[0]` is device 0, each further platform joins as an extra
/// device with its own power settings and per-device `t_prof`/`p_run`
/// grids. Returns the table and each table model row's family index.
///
/// The table's model rows are the family members that fit device 0's
/// memory (the embedded board cannot host the big CNNs — paper Fig. 4
/// footnote). With a `shared_budget`, the node's power envelope is split
/// across the devices by [`split_budget`] (proportional to each
/// backend's maximum draw, floored at its minimum), and each device only
/// offers the settings inside its share.
///
/// # Errors
///
/// Returns a description of the problem when `node` is empty, when
/// no model of the family fits device 0, when a model row does not fit
/// one of the extra devices (restrict the family first — every row must
/// be placeable on every device), or when a profiled grid fails
/// validation — all configuration conditions (family × node come from
/// user specs).
pub fn build_table(
    family: &ModelFamily,
    node: &[Platform],
    shared_budget: Option<Watts>,
) -> Result<(ConfigTable, Vec<usize>), String> {
    let (primary, extras) = node
        .split_first()
        .ok_or_else(|| "a candidate table needs at least one platform".to_string())?;
    let shares = shared_budget.map(|total| split_budget(total, node));
    let share_of = |d: usize| shares.as_ref().map(|s| s[d]);
    let (index_map, rows): (Vec<usize>, Vec<&ModelProfile>) = family
        .models()
        .iter()
        .enumerate()
        .filter(|(_, m)| primary.supports_footprint(m.footprint_gb))
        .unzip();
    if rows.is_empty() {
        return Err(format!(
            "no model of family {} fits platform {}",
            family.name(),
            primary.id()
        ));
    }
    let models = rows.iter().map(|m| candidate_model(m)).collect();
    let (powers, t_prof, p_run) = profile_device(&rows, primary, share_of(0))?;
    let mut table = ConfigTable::new(models, powers, t_prof, p_run)?;
    for (k, platform) in extras.iter().enumerate() {
        let (powers, t_prof, p_run) = profile_device(&rows, platform, share_of(k + 1))?;
        table.add_device(platform.id().to_string(), powers, t_prof, p_run)?;
    }
    Ok((table, index_map))
}

/// Builds the decision-table bundle ALERT schedules over: `family`
/// restricted to `set`, profiled on every node device (`node[0]`
/// first, see [`build_table`]) under `shared_budget`, with each
/// table model row mapped back to its index in the unrestricted
/// `family`. This is the one table construction path of the ALERT
/// policies and of serving admission
/// ([`AlertAdmission::for_runtime`](crate::serving::AlertAdmission::for_runtime)).
///
/// # Errors
///
/// Returns a description of the problem when `family` has no member in
/// `set`; otherwise see [`build_table`].
pub fn decision_tables(
    family: &ModelFamily,
    set: CandidateSet,
    node: &[Platform],
    shared_budget: Option<Watts>,
) -> Result<Arc<DecisionTables>, String> {
    // `restrict` panics on an empty result (`ModelFamily::new`), so an
    // empty candidate set must be refused here.
    let anytime = family.anytime_members().count();
    let empty = match set {
        CandidateSet::Standard => false,
        CandidateSet::AnytimeOnly => anytime == 0,
        CandidateSet::TraditionalOnly => anytime == family.len(),
    };
    if empty {
        return Err(format!("family {} has no {set:?} candidate", family.name()));
    }
    let restricted = family.restrict(set);
    let (table, index_map) = build_table(&restricted, node, shared_budget)?;
    // Map restricted indices back to the *original* family indices.
    let family_map: Vec<usize> = index_map
        .iter()
        .map(|&ri| {
            let name = &restricted.models()[ri].name;
            family
                .models()
                .iter()
                .position(|m| &m.name == name)
                // lint:allow(no-panic): the restricted family is filtered out of this same family, so every member resolves
                .expect("restricted model exists in family")
        })
        .collect();
    Ok(Arc::new(DecisionTables::new(table, family_map)?))
}

/// ALERT as a [`Scheduler`].
pub struct AlertScheduler {
    name: String,
    controller: AlertController,
    base_goal: alert_core::Goal,
}

impl AlertScheduler {
    /// Creates an ALERT scheduler over a candidate subset on one
    /// platform. Multi-device nodes build their bundle with
    /// [`decision_tables`] and go through [`AlertScheduler::with_tables`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the goal fails
    /// validation, no model of the restricted family fits the platform,
    /// or the controller parameters are invalid — all user-configuration
    /// conditions.
    pub fn new(
        name: impl Into<String>,
        family: &ModelFamily,
        set: CandidateSet,
        platform: &Platform,
        goal: alert_core::Goal,
        params: AlertParams,
    ) -> Result<Self, String> {
        let tables = decision_tables(family, set, std::slice::from_ref(platform), None)?;
        Self::with_tables(name, tables, goal, params)
    }

    /// Creates an ALERT scheduler over an already built (typically
    /// shared) decision-table bundle from [`decision_tables`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the goal fails
    /// validation or the controller parameters are invalid.
    pub fn with_tables(
        name: impl Into<String>,
        tables: Arc<DecisionTables>,
        goal: alert_core::Goal,
        params: AlertParams,
    ) -> Result<Self, String> {
        goal.validate().map_err(|e| format!("invalid goal: {e}"))?;
        Ok(AlertScheduler {
            name: name.into(),
            controller: AlertController::with_tables(tables, params)?,
            base_goal: goal,
        })
    }

    /// The standard ALERT configuration (traditional + anytime).
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn standard(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT",
            family,
            CandidateSet::Standard,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT-Any: anytime candidates only.
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn anytime_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT-Any",
            family,
            CandidateSet::AnytimeOnly,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT-Trad: traditional candidates only.
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn traditional_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT-Trad",
            family,
            CandidateSet::TraditionalOnly,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT\*: the mean-only ablation (§5.3).
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn mean_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT*",
            family,
            CandidateSet::Standard,
            platform,
            goal,
            AlertParams::mean_only(),
        )
    }

    /// Read access to the controller (diagnostics: ξ, φ, overhead).
    pub fn controller(&self) -> &AlertController {
        &self.controller
    }
}

impl Scheduler for AlertScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn sync_goal(&mut self, goal: &alert_core::Goal) {
        // Scripted goal changes (§5): the controller retargets the new
        // requirement on the next decision, which reads the goal afresh,
        // so same-valued syncs are free.
        self.base_goal = *goal;
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let goal = self.base_goal.with_deadline(ctx.deadline);
        // `base_goal` was validated in `AlertScheduler::new` and the
        // harness guarantees positive effective deadlines, so the goal
        // handed to the controller is valid by construction.
        let sel = self
            .controller
            .decide_with_period(&goal, ctx.period)
            // lint:allow(no-panic): see comment above — base_goal is validated in new() and deadlines are positive
            .expect("goal validated at construction");
        let c = sel.candidate;
        let tables = self.controller.tables();
        let cap = tables.table().cap_on(c.device, c.power);
        let stop = if tables.is_anytime()[c.model] {
            // Run toward the chosen stage but never past the (overhead-
            // compensated) deadline — the §3.5 execution mode.
            StopPolicy::AtTimeOrStage(sel.deadline, c.stage)
        } else {
            StopPolicy::RunToCompletion
        };
        Decision {
            device: c.device,
            model: tables.model_index()[c.model],
            cap,
            stop,
        }
    }

    fn observe(&mut self, fb: &Feedback) {
        self.controller.observe(&Observation {
            latency: fb.result.latency,
            profile_equivalent: fb.result.profile_equivalent,
            idle_power: fb.idle_power,
            idle_cap: fb.decision.cap,
        });
    }

    fn last_decision_cost(&self) -> Seconds {
        self.controller.last_decision_cost()
    }

    fn controller_snapshot(&self) -> Option<alert_core::ControllerSnapshot> {
        Some(self.controller.snapshot())
    }

    fn restore_controller(&mut self, snapshot: &alert_core::ControllerSnapshot) {
        self.controller.restore(snapshot);
    }

    fn decision_trace(&self) -> Option<alert_core::DecisionTrace> {
        self.controller.last_trace()
    }

    fn belief(&self) -> Option<(f64, f64)> {
        let xi = self.controller.slowdown();
        Some((xi.mean(), xi.std_dev()))
    }

    fn decision_tables(&self) -> Option<&Arc<DecisionTables>> {
        Some(self.controller.tables())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::{Joules, Watts};

    #[test]
    fn table_covers_family_times_powers() {
        let family = ModelFamily::image_classification();
        let (table, map) = build_table(&family, &[Platform::cpu1()], None).unwrap();
        assert_eq!(table.models().len(), 6);
        assert_eq!(map.len(), 6);
        assert_eq!(table.powers_on(0).len(), 15);
        // Anytime model contributes 4 stages: 5×1 + 4 = 9 stage rows.
        assert_eq!(table.candidate_count(), 9 * 15);
    }

    /// Where the lane's idle floor fires. On the benchmark's CPU1 + GPU
    /// image table (230 W shared budget), at the default belief and
    /// φ = 0.3, the 0.3 s / 0.9 winner runs on CPU1, and every GPU row's
    /// energy bound is above its energy, so with that winner as the
    /// incumbent each GPU row is left after one compare. The run term
    /// alone (the bound at φ = 0, where the floor is 0) is below it on
    /// every GPU row: without the floor each would be walked.
    #[test]
    fn the_idle_floor_cuts_every_gpu_row_at_the_cpu_winner() {
        let node = [Platform::cpu1(), Platform::gpu()];
        let (table, _) = build_table(
            &ModelFamily::image_classification(),
            &node,
            Some(Watts(230.0)),
        )
        .unwrap();
        let lane = alert_core::lane::CandidateLane::build(&table);
        let xi = alert_core::SlowdownEstimator::new().distribution();
        let phi = alert_core::AlertParams::default().initial_idle_ratio;
        assert_eq!(phi, 0.3);
        let goal = alert_core::Goal::minimize_energy(Seconds(0.3), 0.9);
        let winner = alert_core::select::select_with_period(
            &table,
            &xi,
            phi,
            &goal,
            goal.deadline,
            alert_core::ProbabilityMode::Full,
        )
        .unwrap();
        assert!(winner.feasible);
        assert_eq!(winner.candidate.device, 0, "the winner runs on CPU1");
        let energy = winner.estimates.energy.get();
        let gpu_rows = |phi| {
            lane.row_energy_bounds(xi.mean(), phi, goal.deadline)
                .filter(|(c, _)| c.device == 1)
                .collect::<Vec<_>>()
        };
        let (with_floor, run_only) = (gpu_rows(phi), gpu_rows(0.0));
        assert_eq!(with_floor.len(), 9, "5 models and a 4-stage anytime one");
        for ((row, bound), (_, run)) in with_floor.into_iter().zip(run_only) {
            assert!(
                bound > energy,
                "{row:?}: bound {bound} J vs winner {energy} J"
            );
            assert!(
                run < energy,
                "{row:?}: run term {run} J vs winner {energy} J"
            );
        }
    }

    #[test]
    fn embedded_filters_oversized_models() {
        let family = ModelFamily::sentence_prediction();
        let node = [Platform::embedded()];
        let (table, _) = build_table(&family, &node, None).unwrap();
        // Only models ≤ 0.4 GB fit: rnn_w128..w1024 (0.35) and the
        // width-nest (0.38): all six fit.
        assert_eq!(table.models().len(), 6);
        let family = ModelFamily::image_classification();
        // No image model fits 0.4 GB except sparse_resnet_8 (0.15),
        // sparse_resnet_14 (0.22) and sparse_resnet_26 (0.34).
        let (table, _) = build_table(&family, &node, None).unwrap();
        assert_eq!(table.models().len(), 3);
    }

    #[test]
    fn alert_scheduler_runs_and_learns() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = alert_core::Goal::minimize_error(Seconds(0.5), Joules(25.0));
        let mut s = AlertScheduler::standard(&family, &platform, goal).unwrap();
        let ctx = InputContext {
            index: 0,
            deadline: Seconds(0.5),
            period: Seconds(0.5),
            group: None,
        };
        let d = s.decide(&ctx);
        assert!(d.model < family.len());
        assert!(platform.power_settings().contains(&d.cap));
        // Feed a slow observation; the slowdown estimate must move.
        let m = &family.models()[d.model];
        let result =
            alert_models::inference::execute(m, &platform, d.cap, 1.7, StopPolicy::RunToCompletion)
                .unwrap();
        let quality = result.quality_by(ctx.deadline, m.fail_quality);
        s.observe(&Feedback {
            index: 0,
            decision: d,
            result,
            quality,
            energy: Joules(1.0),
            idle_power: Some(Watts(5.0)),
            deadline: ctx.deadline,
        });
        assert!(s.controller().slowdown().mean() > 1.3);
    }

    #[test]
    fn variant_names() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = alert_core::Goal::minimize_energy(Seconds(0.5), 0.9);
        assert_eq!(
            AlertScheduler::standard(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT"
        );
        assert_eq!(
            AlertScheduler::anytime_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT-Any"
        );
        assert_eq!(
            AlertScheduler::traditional_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT-Trad"
        );
        assert_eq!(
            AlertScheduler::mean_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT*"
        );
    }
}
