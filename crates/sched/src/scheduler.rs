//! The scheduler interface every scheme implements.
//!
//! A scheduler sees exactly what a real runtime would see: the effective
//! deadline of the next input (after shared-budget adjustment) and, after
//! execution, the measured latency, delivered quality, idle power and
//! energy. Everything else — the environment, the other schemes, the
//! future — is hidden. The Oracle schemes are the deliberate exception:
//! they are constructed *with* the frozen environment (paper §5.1 calls
//! them impractical for exactly this reason).

use alert_core::{ControllerSnapshot, DecisionTables, DecisionTrace};
use alert_models::inference::{InferenceResult, StopPolicy};
use alert_stats::units::{Joules, Seconds, Watts};
use alert_workload::{Goal, GroupPos};
use std::sync::Arc;

/// What the scheduler knows before dispatching one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputContext {
    /// Input index within the episode.
    pub index: usize,
    /// Effective deadline for this input (shared-budget adjusted).
    pub deadline: Seconds,
    /// The idle-accounting period (equals the goal deadline).
    pub period: Seconds,
    /// Group (sentence) position, if the task is grouped.
    pub group: Option<GroupPos>,
}

/// What the scheduler decided for one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Device the input is placed on (index into the episode
    /// environment's backend list; `0` is the primary platform, so
    /// single-backend schemes can leave it defaulted).
    pub device: usize,
    /// Index of the model in the episode's family.
    pub model: usize,
    /// Power cap to program on the chosen device.
    pub cap: Watts,
    /// Execution stop policy.
    pub stop: StopPolicy,
}

/// What the scheduler learns after one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Input index.
    pub index: usize,
    /// The decision that was executed.
    pub decision: Decision,
    /// The execution outcome (latency, stages, slowdown denominator).
    pub result: InferenceResult,
    /// Quality score of the delivered answer.
    pub quality: f64,
    /// Measured period energy.
    pub energy: Joules,
    /// Idle power measured while waiting, if an idle interval existed.
    pub idle_power: Option<Watts>,
    /// The deadline that was in force.
    pub deadline: Seconds,
}

/// A per-input scheduling policy.
///
/// `Send` is a supertrait so sessions (which own their scheduler) can be
/// moved onto worker shards by the parallel executor
/// (`Runtime::drain_parallel`, `ShardedRuntime`); schedulers hold only
/// their own learned state plus `Arc`-shared read-only context, so this
/// costs implementations nothing.
pub trait Scheduler: Send {
    /// Scheme name for reporting (Table 3/4 row labels).
    fn name(&self) -> &str;

    /// Announces the requirement in force for the next input. The
    /// harness calls this before every [`Scheduler::decide`] with the
    /// scenario's effective goal — under scripted goal changes (paper §5:
    /// deadlines tighten, floors move, budgets shrink mid-stream) this is
    /// how a scheme learns the new target. Schemes that only consume the
    /// per-input deadline (already carried by [`InputContext`]) may
    /// ignore it; the default does.
    fn sync_goal(&mut self, _goal: &Goal) {}

    /// Picks the configuration for the next input.
    fn decide(&mut self, ctx: &InputContext) -> Decision;

    /// Consumes the measurements of the input just processed.
    fn observe(&mut self, feedback: &Feedback);

    /// Measured cost of the most recent decision, when the scheme tracks
    /// it (ALERT does, §4). Metered on the thread-CPU clock where the
    /// platform has one, so co-runner preemption and lock waits are not
    /// billed to the scheduler (see `alert_core::alert::OverheadPolicy`).
    fn last_decision_cost(&self) -> Seconds {
        Seconds::ZERO
    }

    /// Exports the scheme's learned state for session checkpointing, if
    /// the scheme supports it (the ALERT family does; stateless and
    /// oracle schemes return `None` and sessions running them cannot be
    /// migrated mid-stream).
    fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        None
    }

    /// Restores previously exported state into a freshly built scheme
    /// instance (the migration path). Schemes that do not support
    /// snapshots ignore the call.
    fn restore_controller(&mut self, _snapshot: &ControllerSnapshot) {}

    /// Causal record of the most recent decision, for schemes that keep
    /// one (the ALERT family does). Pure observability: the runtime
    /// reads it *after* stepping a session to build telemetry events;
    /// nothing on the decision path consumes it. Default: none.
    fn decision_trace(&self) -> Option<DecisionTrace> {
        None
    }

    /// The scheme's current environment belief as `(mean, std_dev)` of
    /// the global slowdown ξ — *after* the latest
    /// [`Scheduler::observe`], so readers see the posterior the next
    /// decision will use. Default: none (belief-free schemes).
    fn belief(&self) -> Option<(f64, f64)> {
        None
    }

    /// The decision-table bundle the scheme schedules over, for schemes
    /// built on one (the ALERT family). Diagnostics: sessions whose
    /// configurations match share one allocation. Default: none.
    fn decision_tables(&self) -> Option<&Arc<DecisionTables>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial scheduler used by harness tests: fixed model and cap.
    pub struct FixedScheduler {
        pub model: usize,
        pub cap: Watts,
        pub observed: usize,
    }

    impl Scheduler for FixedScheduler {
        fn name(&self) -> &str {
            "Fixed"
        }

        fn decide(&mut self, _ctx: &InputContext) -> Decision {
            Decision {
                device: 0,
                model: self.model,
                cap: self.cap,
                stop: StopPolicy::RunToCompletion,
            }
        }

        fn observe(&mut self, _feedback: &Feedback) {
            self.observed += 1;
        }
    }

    #[test]
    fn trait_object_works() {
        let mut s: Box<dyn Scheduler> = Box::new(FixedScheduler {
            model: 0,
            cap: Watts(50.0),
            observed: 0,
        });
        let d = s.decide(&InputContext {
            index: 0,
            deadline: Seconds(0.1),
            period: Seconds(0.1),
            group: None,
        });
        assert_eq!(d.model, 0);
        assert_eq!(s.name(), "Fixed");
        assert_eq!(s.last_decision_cost(), Seconds::ZERO);
    }
}
