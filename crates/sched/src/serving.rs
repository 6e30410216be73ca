//! The serving front-end: offered-load ingestion with ALERT-native
//! admission control over the runtime's shards.
//!
//! A *storm* ([`alert_workload::StormSpec`] →
//! [`alert_workload::generate_storm`]) is a frozen sequence of request
//! arrivals. [`serve`] replays a storm against a
//! [`Runtime`]: each request is routed round-robin to a shard
//! whose (virtual-time) server works off admitted requests in arrival
//! order, and an [`AdmissionPolicy`] decides per request whether to
//!
//! * **admit** it at full quality,
//! * **degrade** it — serve it under a [`GoalPatch`]-downgraded goal
//!   (quality-floor downgrade), which becomes the *effective* goal its
//!   records carry and are billed against, or
//! * **shed** it — reject without service.
//!
//! Three policies ship here:
//!
//! * [`AlwaysAdmit`] — admits everything; the queue is unbounded, so
//!   under overload waits grow without bound and goodput collapses.
//! * [`DropTail`] — naive FIFO bound: sheds exactly when the shard's
//!   system occupancy reaches the queue capacity, blind to deadlines.
//! * [`AlertAdmission`] — consults an [`AlertController`]'s belief: a
//!   request whose remaining slack (deadline − predicted queue wait)
//!   the controller predicts infeasible at full quality is first probed
//!   under the degrade patch, and shed only when even the degraded goal
//!   is predicted to miss — i.e. it sheds exactly the requests
//!   predicted to miss anyway.
//!
//! **Determinism.** The storm is generated once and replayed bit-
//! identically against every policy (one uniform per request in every
//! arrival mode; per-request seeds derived by label), the simulator is
//! virtual-time, and the controller's decision path is deterministic —
//! so two [`serve`] runs of the same storm under the same policy
//! produce [`ServingReport`]s with equal
//! [`fingerprint`](ServingReport::fingerprint)s, and differences
//! *across* policies are attributable to admission alone. The serving
//! bench asserts the replay identity per cell.

use crate::runtime::{Runtime, SessionSpec};
use crate::telemetry::{AdmissionConstraint, AdmissionProbe};
use alert_core::alert::{AlertController, Observation};
use alert_core::Selection;
use alert_models::family::CandidateSet;
use alert_stats::units::Seconds;
use alert_workload::{
    on_time, AdmissionVerdict, Goal, GoalPatch, InputRecord, QualitySpan, RequestArrival,
    RequestOutcome, Scenario, ServingReport,
};

/// Default fraction of the family quality span a degraded request's
/// floor drops to (see [`GoalPatch::floor_frac`]).
pub const DEFAULT_DEGRADE_FRAC: f64 = 0.25;

/// Default largest predicted miss probability [`AlertAdmission`]
/// accepts before degrading (and then shedding).
pub const DEFAULT_MISS_THRESHOLD: f64 = 0.1;

/// What the front-end tells a policy about the request it must judge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestContext {
    /// Position in the storm (admission order).
    pub index: usize,
    /// Virtual arrival time.
    pub arrival: Seconds,
    /// Shard the request would be served on.
    pub shard: usize,
    /// Requests currently in that shard's system (in service + queued).
    pub queue_depth: usize,
    /// Per-shard system bound ([`ServingConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Queue wait the request would suffer if admitted now (the shard's
    /// backlog at arrival).
    pub predicted_wait: Seconds,
    /// The full-quality goal the request asks for.
    pub goal: Goal,
    /// Inputs the request carries.
    pub inputs_per_request: usize,
}

/// A policy's three-way verdict, with the belief that justified it
/// (belief-based policies only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Serve at full quality.
    Admit {
        /// Predicted miss probability at decision time, if the policy
        /// holds a belief.
        predicted_miss: Option<f64>,
    },
    /// Serve under the patched (downgraded) goal.
    Degrade {
        /// The downgrade to apply to the request's goal before opening
        /// its session (validated; quality-floor form).
        patch: GoalPatch,
        /// Predicted miss probability *under the degraded goal*.
        predicted_miss: Option<f64>,
    },
    /// Reject without service.
    Shed {
        /// Predicted miss probability that justified the shed, if any.
        predicted_miss: Option<f64>,
    },
}

/// An admission policy: judges each arriving request and (optionally)
/// learns from completed service.
pub trait AdmissionPolicy {
    /// The policy's display name (lands in [`ServingReport::policy`]).
    fn name(&self) -> &str;

    /// Judges one arriving request.
    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision;

    /// Feedback from one completed input of an admitted request,
    /// delivered in completion order (virtual finish time, then storm
    /// index). Default: ignore.
    fn observe(&mut self, record: &InputRecord) {
        let _ = record;
    }

    /// What the most recent [`AdmissionPolicy::assess`] learned on the
    /// way to its verdict (failing constraint, predicted miss, belief),
    /// for telemetry. Purely observational — nothing reads it back into
    /// a later verdict. Default: none (belief-free policies).
    fn last_probe(&self) -> Option<AdmissionProbe> {
        None
    }
}

impl<P: AdmissionPolicy + ?Sized> AdmissionPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        (**self).assess(ctx)
    }

    fn observe(&mut self, record: &InputRecord) {
        (**self).observe(record);
    }

    fn last_probe(&self) -> Option<AdmissionProbe> {
        (**self).last_probe()
    }
}

/// Admits everything; ignores the queue bound (unbounded backlog).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn name(&self) -> &str {
        "Always-admit"
    }

    fn assess(&mut self, _ctx: &RequestContext) -> AdmissionDecision {
        AdmissionDecision::Admit {
            predicted_miss: None,
        }
    }
}

/// Naive FIFO bound: sheds exactly when the shard's system occupancy
/// has reached the queue capacity, blind to deadlines and belief.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropTail;

impl AdmissionPolicy for DropTail {
    fn name(&self) -> &str {
        "Drop-tail"
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        if ctx.queue_depth >= ctx.queue_capacity {
            AdmissionDecision::Shed {
                predicted_miss: None,
            }
        } else {
            AdmissionDecision::Admit {
                predicted_miss: None,
            }
        }
    }
}

/// ALERT-native admission: probes the controller's belief with the
/// request's *remaining slack* (deadline − predicted queue wait) and
/// admits, degrades, or sheds per the predicted miss probability.
///
/// The controller is fed every completed input's
/// (latency, profile-equivalent) pair, so its ξ slowdown belief tracks
/// the serving conditions exactly as an in-session ALERT scheduler's
/// would.
#[derive(Debug, Clone)]
pub struct AlertAdmission {
    controller: AlertController,
    span: QualitySpan,
    degrade: GoalPatch,
    miss_threshold: f64,
    /// What the latest `assess` learned, for telemetry. Write-only on
    /// the verdict path: every branch overwrites it and none reads it.
    last_probe: Option<AdmissionProbe>,
}

impl AlertAdmission {
    /// A policy over an explicit controller and quality span.
    ///
    /// # Errors
    ///
    /// Rejects a malformed degrade patch or a miss threshold outside
    /// the open interval `(0, 1)`.
    pub fn new(
        controller: AlertController,
        span: QualitySpan,
        degrade: GoalPatch,
        miss_threshold: f64,
    ) -> Result<Self, crate::Error> {
        degrade.validate().map_err(crate::Error::InvalidSpec)?;
        if !(miss_threshold.is_finite() && miss_threshold > 0.0 && miss_threshold < 1.0) {
            return Err(crate::Error::InvalidSpec(format!(
                "admission miss threshold must be in (0,1), got {miss_threshold}"
            )));
        }
        Ok(AlertAdmission {
            controller,
            span,
            degrade,
            miss_threshold,
            last_probe: None,
        })
    }

    /// A policy whose belief table is built from the runtime's own
    /// family over its whole node under its shared budget — the same
    /// candidates its (standard ALERT) sessions schedule over, built by
    /// the same [`decision_tables`](crate::alert::decision_tables) —
    /// and whose controller runs the runtime's own
    /// [`params`](crate::runtime::RunSpec::params).
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures (no candidate fits the
    /// platform) and [`AlertAdmission::new`] validation.
    pub fn for_runtime(
        rt: &Runtime,
        degrade: GoalPatch,
        miss_threshold: f64,
    ) -> Result<Self, crate::Error> {
        let tables = crate::alert::decision_tables(
            rt.family(),
            CandidateSet::Standard,
            rt.node(),
            rt.spec().shared_budget,
        )
        .map_err(crate::Error::InvalidSpec)?;
        let controller = AlertController::with_tables(tables, rt.spec().params)
            .map_err(crate::Error::InvalidSpec)?;
        AlertAdmission::new(controller, rt.span(), degrade, miss_threshold)
    }

    /// `goal` as a probe asks it, with `Pr_th = 1 − miss_threshold`: the
    /// paper's Eqs. 10–11 question. A selection's `feasible` flag then
    /// says whether *some* candidate meets the quality floor with a
    /// deadline-completion probability at the threshold — without it,
    /// the energy-optimal pick legitimately rides the deadline boundary
    /// (pr ≈ 0.5) and its own miss estimate says nothing about
    /// admissibility.
    fn probe_goal(&self, goal: &Goal) -> Goal {
        let mut probe_goal = *goal;
        probe_goal.prob_threshold = Some(1.0 - self.miss_threshold);
        probe_goal
    }

    /// Probes the controller with `goal` under the request's idle
    /// period: whether a valid candidate exists, and the predicted miss
    /// of the selection, the §4 fallbacks' pick when nothing is valid.
    fn probe(&mut self, goal: &Goal, period: Seconds) -> (bool, Option<f64>) {
        match self
            .controller
            .decide_with_period(&self.probe_goal(goal), period)
        {
            Ok(sel) => (sel.feasible, Some(predicted_miss(&sel))),
            Err(_) => (false, None),
        }
    }
}

/// A selection's predicted deadline-miss probability.
fn predicted_miss(sel: &Selection) -> f64 {
    (1.0 - sel.estimates.pr_deadline).clamp(0.0, 1.0)
}

impl AdmissionPolicy for AlertAdmission {
    fn name(&self) -> &str {
        "ALERT"
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        let xi = self.controller.slowdown();
        let belief = Some((xi.mean(), xi.std_dev()));
        // The queue bound binds regardless of belief: past it the wait
        // model no longer describes the system the request would join.
        if ctx.queue_depth >= ctx.queue_capacity {
            self.last_probe = Some(AdmissionProbe {
                constraint: Some(AdmissionConstraint::QueueFull),
                predicted_miss: None,
                belief,
            });
            return AdmissionDecision::Shed {
                predicted_miss: None,
            };
        }
        let slack = Seconds(ctx.goal.deadline.get() - ctx.predicted_wait.get());
        if slack.get() <= 0.0 {
            // The request would wait out its entire deadline in queue:
            // a guaranteed miss, no belief needed.
            self.last_probe = Some(AdmissionProbe {
                constraint: Some(AdmissionConstraint::NoSlack),
                predicted_miss: Some(1.0),
                belief,
            });
            return AdmissionDecision::Shed {
                predicted_miss: Some(1.0),
            };
        }
        // Probe full quality with the deadline shrunk by the predicted
        // wait — the compute budget actually left once service starts.
        // Only a valid winner admits here, so the probe never ranks the
        // §4 fallbacks.
        let probe_goal = ctx.goal.with_deadline(slack);
        let asked = self.probe_goal(&probe_goal);
        if let Ok(Some(sel)) = self
            .controller
            .decide_valid_with_period(&asked, ctx.goal.deadline)
        {
            let predicted_miss = Some(predicted_miss(&sel));
            self.last_probe = Some(AdmissionProbe {
                constraint: None,
                predicted_miss,
                belief,
            });
            return AdmissionDecision::Admit { predicted_miss };
        }
        // Full quality is predicted to miss: probe the degraded goal
        // (quality-floor downgrade opens faster candidates). Its
        // fallback pick's miss estimate is what a shed records.
        let mut degraded_goal = probe_goal;
        self.degrade.apply(&mut degraded_goal, Some(self.span));
        let (ok, degraded_miss) = self.probe(&degraded_goal, ctx.goal.deadline);
        if ok {
            self.last_probe = Some(AdmissionProbe {
                constraint: Some(AdmissionConstraint::FullQualityInfeasible),
                predicted_miss: degraded_miss,
                belief,
            });
            return AdmissionDecision::Degrade {
                patch: self.degrade,
                predicted_miss: degraded_miss,
            };
        }
        // Even degraded service is predicted to miss: shed exactly the
        // request that would have missed anyway. A degraded probe that
        // erred leaves full quality's estimate, fallback pick included.
        let predicted_miss = degraded_miss.or_else(|| self.probe(&probe_goal, ctx.goal.deadline).1);
        self.last_probe = Some(AdmissionProbe {
            constraint: Some(AdmissionConstraint::DegradedInfeasible),
            predicted_miss,
            belief,
        });
        AdmissionDecision::Shed { predicted_miss }
    }

    fn observe(&mut self, record: &InputRecord) {
        let slowdown = record.slowdown.unwrap_or(1.0);
        let profile_equivalent = if slowdown > 0.0 && slowdown.is_finite() {
            Seconds(record.latency.get() / slowdown)
        } else {
            record.latency
        };
        self.controller.observe(&Observation {
            latency: record.latency,
            profile_equivalent,
            idle_power: None,
            idle_cap: record.cap,
        });
    }

    fn last_probe(&self) -> Option<AdmissionProbe> {
        self.last_probe
    }
}

/// Builds one of the named admission policies over `rt`:
/// `"Always-admit"`, `"Drop-tail"`, or `"ALERT"` (with the default
/// degrade patch and miss threshold).
///
/// # Errors
///
/// Unknown names and [`AlertAdmission::for_runtime`] failures.
pub fn admission_policy(
    name: &str,
    rt: &Runtime,
) -> Result<Box<dyn AdmissionPolicy>, crate::Error> {
    match name {
        "Always-admit" => Ok(Box::new(AlwaysAdmit)),
        "Drop-tail" => Ok(Box::new(DropTail)),
        "ALERT" => Ok(Box::new(AlertAdmission::for_runtime(
            rt,
            GoalPatch::floor_frac(DEFAULT_DEGRADE_FRAC),
            DEFAULT_MISS_THRESHOLD,
        )?)),
        other => Err(crate::Error::InvalidSpec(format!(
            "unknown admission policy {other:?}; known: Always-admit, Drop-tail, ALERT"
        ))),
    }
}

/// Configuration of one serving run: what every request asks for and
/// how the shards queue them.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The full-quality per-request goal offered at admission.
    pub goal: Goal,
    /// Scenario realized per request (with the request's own seed).
    pub scenario: Scenario,
    /// In-session scheduling policy serving admitted requests — shared
    /// by every admission policy so the saturation curve isolates
    /// admission.
    pub policy: String,
    /// Inputs per request. Values below 10 keep the per-request
    /// warm-up prefix empty (`warmup_len = n/10`), so every record is
    /// measured.
    pub inputs_per_request: usize,
    /// Per-shard bound on requests in the system (in service + queued).
    /// [`AlwaysAdmit`] deliberately ignores it.
    pub queue_capacity: usize,
}

impl ServingConfig {
    /// A config with the workspace defaults: the `Default` scenario,
    /// the ALERT in-session policy, 6 inputs per request, capacity 8.
    pub fn new(goal: Goal) -> Self {
        ServingConfig {
            goal,
            scenario: Scenario::default_env(),
            policy: "ALERT".into(),
            inputs_per_request: 6,
            queue_capacity: 8,
        }
    }
}

/// One admitted request still occupying its shard's virtual server.
struct InFlight {
    index: usize,
    shard: usize,
    finish: Seconds,
    records: Vec<InputRecord>,
}

/// Replays a storm against the runtime under one admission policy,
/// producing the per-request outcome log.
///
/// The simulation is virtual-time and work-conserving: shard `k` serves
/// its admitted requests back to back in arrival order, a request's
/// service time is the sum of its inputs' compute latencies, and input
/// `i` of a request is *timely* iff `queue wait + latency_i` meets the
/// per-input deadline in force. Completed requests are fed back to
/// [`AdmissionPolicy::observe`] in completion order before each
/// admission decision.
///
/// # Errors
///
/// Rejects a config with zero inputs per request; propagates session
/// open/run failures. A request whose session fails a step is closed,
/// its partial episode dropped, before the error returns.
pub fn serve(
    rt: &mut Runtime,
    config: &ServingConfig,
    storm: &[RequestArrival],
    policy: &mut dyn AdmissionPolicy,
) -> Result<ServingReport, crate::Error> {
    if config.inputs_per_request == 0 {
        return Err(crate::Error::InvalidSpec(
            "serving config needs at least one input per request".into(),
        ));
    }
    config.goal.validate().map_err(crate::Error::InvalidSpec)?;
    let workers = rt.shard_count();
    let span = rt.span();
    let mut busy_until = vec![Seconds(0.0); workers];
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut outcomes = Vec::with_capacity(storm.len());
    for req in storm {
        let t = req.at;
        // Deliver completions (finish ≤ arrival) in completion order:
        // virtual finish time, storm index as the tiebreak.
        let mut completed = Vec::new();
        let mut k = 0;
        while k < in_flight.len() {
            if in_flight[k].finish.get() <= t.get() {
                completed.push(in_flight.swap_remove(k));
            } else {
                k += 1;
            }
        }
        completed.sort_by(|a, b| {
            a.finish
                .get()
                .total_cmp(&b.finish.get())
                .then(a.index.cmp(&b.index))
        });
        for f in &completed {
            for r in &f.records {
                policy.observe(r);
            }
        }

        let shard = req.index % workers;
        let queue_depth = in_flight.iter().filter(|f| f.shard == shard).count();
        let predicted_wait = Seconds((busy_until[shard].get() - t.get()).max(0.0));
        let ctx = RequestContext {
            index: req.index,
            arrival: t,
            shard,
            queue_depth,
            queue_capacity: config.queue_capacity,
            predicted_wait,
            goal: config.goal,
            inputs_per_request: config.inputs_per_request,
        };
        let (verdict, patch, predicted_miss) = match policy.assess(&ctx) {
            AdmissionDecision::Admit { predicted_miss } => {
                (AdmissionVerdict::Admitted, None, predicted_miss)
            }
            AdmissionDecision::Degrade {
                patch,
                predicted_miss,
            } => (AdmissionVerdict::Degraded, Some(patch), predicted_miss),
            AdmissionDecision::Shed { predicted_miss } => {
                outcomes.push(RequestOutcome {
                    index: req.index,
                    arrival: t,
                    shard,
                    verdict: AdmissionVerdict::Shed,
                    predicted_miss,
                    wait: Seconds(0.0),
                    effective_min_quality: None,
                    served_inputs: 0,
                    timely_inputs: 0,
                    quality_ok: false,
                });
                continue;
            }
        };

        // Degradation patches the goal *before* the session opens, so
        // the episode's records carry the degraded floor as their
        // effective goal and its summary bills against it.
        let mut goal = config.goal;
        if let Some(p) = &patch {
            p.validate().map_err(crate::Error::InvalidSpec)?;
            p.apply(&mut goal, Some(span));
        }
        let id = rt
            .session(SessionSpec {
                goal,
                scenario: config.scenario.clone(),
                n_inputs: config.inputs_per_request,
                seed: Some(req.seed),
                policy: Some(config.policy.clone()),
            })
            .open()?;
        // A step error ends the session: close it before returning the
        // error, so the runtime keeps no half-run request.
        let ran = rt.run_to_completion(id);
        let episode = rt.close(id)?;
        ran?;

        let service: f64 = episode.records.iter().map(|r| r.latency.get()).sum();
        let start = busy_until[shard].get().max(t.get());
        let wait = Seconds(start - t.get());
        let finish = Seconds(start + service);
        busy_until[shard] = finish;
        let timely = episode
            .records
            .iter()
            .filter(|r| on_time(wait + r.latency, r.deadline))
            .count();
        outcomes.push(RequestOutcome {
            index: req.index,
            arrival: t,
            shard,
            verdict,
            predicted_miss,
            wait,
            effective_min_quality: goal.min_quality,
            served_inputs: episode.records.len(),
            timely_inputs: timely,
            quality_ok: episode.summary.quality_floor_met,
        });
        in_flight.push(InFlight {
            index: req.index,
            shard,
            finish,
            records: episode.records,
        });
    }
    Ok(ServingReport {
        policy: policy.name().to_string(),
        inputs_per_request: config.inputs_per_request,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_workload::{generate_storm, ArrivalProcess, StormSpec};

    fn storm(n: usize, mean_gap: f64) -> Vec<RequestArrival> {
        generate_storm(
            &StormSpec {
                arrival: ArrivalProcess::Periodic,
                n_requests: n,
                mean_gap: Seconds(mean_gap),
                seed: 2020,
            },
            None,
        )
        .expect("valid storm")
    }

    fn runtime(workers: usize) -> Runtime {
        Runtime::builder()
            .seed(7)
            .build_sharded(workers)
            .expect("builtin policies resolve")
    }

    fn config() -> ServingConfig {
        ServingConfig::new(Goal::minimize_energy(Seconds(0.4), 0.9))
    }

    #[test]
    fn always_admit_serves_every_request() {
        let mut rt = runtime(2);
        let report =
            serve(&mut rt, &config(), &storm(12, 0.05), &mut AlwaysAdmit).expect("serving runs");
        assert_eq!(report.offered(), 12);
        assert_eq!(report.shed(), 0);
        assert_eq!(report.policy, "Always-admit");
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.served_inputs == report.inputs_per_request));
    }

    #[test]
    fn zero_capacity_drop_tail_sheds_everything() {
        let mut rt = runtime(2);
        let mut cfg = config();
        cfg.queue_capacity = 0;
        let report = serve(&mut rt, &cfg, &storm(8, 0.05), &mut DropTail).expect("serving runs");
        assert_eq!(report.shed(), 8);
        assert!((report.shed_rate() - 1.0).abs() < 1e-12);
        assert_eq!(report.goodput(), 0.0);
    }

    #[test]
    fn drop_tail_sheds_exactly_past_the_queue_bound() {
        // One shard, capacity 2, arrivals far faster than service:
        // requests 0 and 1 occupy the system, every later arrival that
        // still sees both in flight is shed.
        let mut rt = runtime(1);
        let mut cfg = config();
        cfg.queue_capacity = 2;
        let report = serve(&mut rt, &cfg, &storm(6, 1e-4), &mut DropTail).expect("serving runs");
        let verdicts: Vec<AdmissionVerdict> = report.outcomes.iter().map(|o| o.verdict).collect();
        assert_eq!(verdicts[0], AdmissionVerdict::Admitted);
        assert_eq!(verdicts[1], AdmissionVerdict::Admitted);
        assert!(
            verdicts[2..].iter().all(|v| *v == AdmissionVerdict::Shed),
            "arrivals past the bound must be shed in order: {verdicts:?}"
        );
    }

    #[test]
    fn unknown_admission_policy_is_rejected() {
        let rt = runtime(1);
        assert!(matches!(
            admission_policy("nope", &rt),
            Err(crate::Error::InvalidSpec(_))
        ));
    }

    #[test]
    fn alert_admission_sheds_guaranteed_misses() {
        // Single shard, huge backlog pressure: once the predicted wait
        // swallows the whole deadline ALERT must shed with certainty 1.
        let mut rt = runtime(1);
        let mut policy = AlertAdmission::for_runtime(
            &rt,
            GoalPatch::floor_frac(DEFAULT_DEGRADE_FRAC),
            DEFAULT_MISS_THRESHOLD,
        )
        .expect("table builds");
        let report =
            serve(&mut rt, &config(), &storm(20, 1e-4), &mut policy).expect("serving runs");
        assert!(report.shed() > 0, "overload must shed");
        let certain: Vec<&RequestOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.predicted_miss == Some(1.0))
            .collect();
        assert!(
            certain.iter().all(|o| o.verdict == AdmissionVerdict::Shed),
            "a guaranteed miss must never be admitted"
        );
    }

    /// Full quality has no valid candidate (a 0.999 floor), and the
    /// degrade patch overflows the deadline, so the degraded probe errs:
    /// the shed records full quality's miss estimate, the §4 fallback
    /// pick's, as a full decision at the same state gives it.
    #[test]
    fn a_degraded_probe_that_errs_sheds_with_full_qualitys_fallback_estimate() {
        let rt = runtime(1);
        let mut policy =
            AlertAdmission::for_runtime(&rt, GoalPatch::deadline(f64::MAX), DEFAULT_MISS_THRESHOLD)
                .expect("table builds");
        let ctx = RequestContext {
            index: 0,
            arrival: Seconds::ZERO,
            shard: 0,
            queue_depth: 0,
            queue_capacity: 4,
            predicted_wait: Seconds::ZERO,
            goal: Goal::minimize_energy(Seconds(2.0), 0.999),
            inputs_per_request: 10,
        };
        let mut reference = policy.controller.clone();
        let full = reference
            .decide_with_period(&policy.probe_goal(&ctx.goal), ctx.goal.deadline)
            .expect("valid goal");
        assert!(!full.feasible, "nothing reaches a 0.999 floor");
        let mut degraded = policy.probe_goal(&ctx.goal);
        policy.degrade.apply(&mut degraded, Some(policy.span));
        assert!(reference
            .decide_with_period(&degraded, ctx.goal.deadline)
            .is_err());
        let expected = Some(predicted_miss(&full));
        assert_eq!(
            policy.assess(&ctx),
            AdmissionDecision::Shed {
                predicted_miss: expected
            }
        );
        assert_eq!(
            policy.last_probe().map(|p| p.predicted_miss),
            Some(expected)
        );
    }

    #[test]
    fn admission_table_spans_the_node_and_equals_the_sessions_table() {
        let mut rt = Runtime::builder()
            .seed(7)
            .extra_backend(alert_platform::PlatformId::Gpu)
            .shared_budget(alert_stats::units::Watts(230.0))
            .build_sharded(2)
            .expect("builtin policies resolve");
        let policy = AlertAdmission::for_runtime(
            &rt,
            GoalPatch::floor_frac(DEFAULT_DEGRADE_FRAC),
            DEFAULT_MISS_THRESHOLD,
        )
        .expect("table builds");
        let id = rt
            .session(SessionSpec {
                goal: config().goal,
                scenario: Scenario::default_env(),
                n_inputs: 4,
                seed: Some(1),
                policy: None,
            })
            .open()
            .expect("session opens");
        let sessions = rt.session_tables(id).expect("ALERT session");
        assert_eq!(policy.controller.table().device_count(), 2);
        assert_eq!(policy.controller.table(), sessions.table());
    }
}
