//! Plugging a custom policy into the runtime — the `PolicyRegistry`
//! showcase.
//!
//! A policy is a *named constructor*: register it once, and everything
//! downstream — sessions, experiment sweeps, `RunSpec` files — addresses
//! it by name, exactly like the nine built-in paper schemes. No harness
//! code changes.
//!
//! The custom scheme here is a tiny "greedy race-to-idle" policy: always
//! the most accurate feasible model at full power. It looks sensible (it
//! never misses a feasible deadline) but ignores the idle-energy terrain
//! of Fig. 3, so ALERT beats it on energy at equal accuracy — a compact
//! demonstration of why the paper's Eq. 9 models the *whole period*, not
//! just the inference.
//!
//! Run with: `cargo run --release --example custom_policy`

use alert::models::inference;
use alert::models::inference::StopPolicy;
use alert::models::ModelFamily;
use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::{Decision, Feedback, InputContext, PolicyRegistry, Scheduler};
use alert::stats::kalman::ScalarKalman;
use alert::stats::units::{Seconds, Watts};
use alert::workload::{Goal, Scenario};

/// Most accurate model whose (filtered) latency fits the deadline, always
/// at the maximum cap.
struct GreedyRaceToIdle {
    family: ModelFamily,
    cap: Watts,
    /// Profiled latencies at the max cap.
    t_prof: Vec<Seconds>,
    /// Indices ordered best-quality-first.
    by_quality: Vec<usize>,
    filter: ScalarKalman,
}

impl GreedyRaceToIdle {
    fn new(family: &ModelFamily, platform: &alert::platform::Platform) -> Self {
        let cap = platform.default_cap();
        let t_prof = family
            .models()
            .iter()
            .map(|m| inference::profile_latency(m, platform, cap).expect("feasible"))
            .collect();
        let mut by_quality: Vec<usize> = (0..family.len()).collect();
        by_quality.sort_by(|&a, &b| {
            family.models()[b]
                .quality
                .total_cmp(&family.models()[a].quality)
        });
        GreedyRaceToIdle {
            family: family.clone(),
            cap,
            t_prof,
            by_quality,
            filter: ScalarKalman::new(1.0, 0.1, 0.01, 0.01),
        }
    }
}

impl Scheduler for GreedyRaceToIdle {
    fn name(&self) -> &str {
        "Greedy"
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let ratio = self.filter.estimate().max(0.1);
        let pick = self
            .by_quality
            .iter()
            .copied()
            .find(|&m| self.t_prof[m].get() * ratio <= ctx.deadline.get())
            .unwrap_or(*self.by_quality.last().expect("non-empty"));
        let stop = if self.family.models()[pick].is_anytime() {
            StopPolicy::AtTime(ctx.deadline)
        } else {
            StopPolicy::RunToCompletion
        };
        Decision {
            // Greedy is single-device: everything runs on the primary.
            device: 0,
            model: pick,
            cap: self.cap,
            stop,
        }
    }

    fn observe(&mut self, fb: &Feedback) {
        if let Some(r) = fb.result.observed_slowdown() {
            self.filter.update(r);
        }
    }
}

fn main() {
    // 1. Register the custom policy next to the nine built-ins. The
    //    closure receives the session's context (family, node, goal,
    //    params, frozen env for oracles) and returns a fresh scheduler.
    //    Greedy runs on device 0, the node's first platform.
    let mut registry = PolicyRegistry::builtin();
    registry.register_fn("Greedy", |ctx| {
        Ok(Box::new(GreedyRaceToIdle::new(ctx.family, &ctx.node[0])) as Box<dyn Scheduler>)
    });
    println!("registered policies: {}\n", registry.names().join(", "));

    // 2. Build a runtime carrying the extended registry.
    let mut rt = Runtime::builder()
        .platform(alert::platform::PlatformId::Cpu1)
        .registry(registry)
        .build()
        .expect("policy resolves");

    // 3. Open one session per scheme — same goal, same scenario, same
    //    seed, so both face bit-identical frozen conditions — addressing
    //    the custom scheme purely by name.
    let spec = |policy: &str| SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.35), 0.90),
        scenario: Scenario::memory_env(13),
        n_inputs: 500,
        seed: Some(77),
        policy: Some(policy.to_string()),
    };
    let alert_id = rt.session(spec("ALERT")).open().expect("open ALERT");
    let greedy_id = rt.session(spec("Greedy")).open().expect("open Greedy");

    // 4. Drain both sessions (one shard: round-robin interleaving).
    let episodes = rt.drain().expect("sessions drain");
    let by_id = |id| {
        episodes
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, ep)| ep)
            .expect("episode present")
    };
    let ep_alert = by_id(alert_id);
    let ep_greedy = by_id(greedy_id);

    println!("custom policy vs ALERT, minimize energy (deadline 350 ms, floor 90%):\n");
    for e in [ep_alert, ep_greedy] {
        println!(
            "{:<8} avg energy {:>6.2} J | acc {:>5.2}% | violations {:>4.1}%",
            e.scheme,
            e.summary.avg_energy.get(),
            e.summary.avg_quality * 100.0,
            e.summary.violation_rate() * 100.0,
        );
    }
    let saving =
        100.0 * (1.0 - ep_alert.summary.avg_energy.get() / ep_greedy.summary.avg_energy.get());
    println!("\nALERT saves {saving:.0}% energy vs the greedy race-to-idle policy");
    println!("because it coordinates model choice *and* power (paper §2.3).");
}
