//! Author a custom compound scenario with the scenario-script DSL.
//!
//! The named library (`Scenario::library`) covers the paper's three
//! environments plus seven dynamic-stress scenarios — but scenarios are
//! just data. This example scripts a bespoke "afternoon in production"
//! timeline: a memory-hungry batch job lands mid-episode, the datacenter
//! power-caps the box to 40% of its range, the product team tightens the
//! deadline, sentence lengths drift longer, and arrivals turn bursty —
//! then everything recovers. The same script runs through the session
//! runtime against two schemes on bit-identical frozen conditions, and
//! round-trips through JSON (so scenarios can live in config files).
//!
//! Run with: `cargo run --release --example scenario_script`

use alert::platform::contention::{ContentionKind, PhaseSchedule};
use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::FamilyKind;
use alert::stats::units::Seconds;
use alert::workload::{ArrivalProcess, Goal, GoalPatch, Scenario, ScenarioScript, ScriptEvent};

fn main() {
    // 1. Script the timeline. Contention schedules are wall-clock
    //    seconds; every other mark is a fraction of the episode horizon,
    //    so the same script fits any stream length or deadline.
    let script = ScenarioScript::new()
        // A batch job occupies the middle half of the afternoon.
        .with(ScriptEvent::Contention {
            kind: ContentionKind::Memory,
            schedule: PhaseSchedule::Windows(vec![(Seconds(30.0), Seconds(90.0))]),
        })
        // The rack is power-capped to 40% of the feasible range, then
        // restored (frac 1.0 lifts the ceiling).
        .with(ScriptEvent::CapStep {
            at: 0.35,
            frac: 0.4,
        })
        .with(ScriptEvent::CapStep {
            at: 0.70,
            frac: 1.0,
        })
        // Product tightens the deadline by 25% for the busy stretch.
        .with(ScriptEvent::GoalChange {
            at: 0.40,
            patch: GoalPatch::deadline(0.75),
        })
        .with(ScriptEvent::GoalChange {
            at: 0.80,
            patch: GoalPatch::deadline(1.0 / 0.75),
        })
        // Inputs grow 40% heavier over the middle of the episode.
        .with(ScriptEvent::DriftRamp {
            from: 0.30,
            to: 0.70,
            peak: 1.4,
        })
        // Arrivals turn bursty during the rush, then relax.
        .with(ScriptEvent::ArrivalChange {
            at: 0.45,
            process: ArrivalProcess::Bursty {
                burst: 4,
                spread: 0.3,
            },
        })
        .with(ScriptEvent::ArrivalChange {
            at: 0.85,
            process: ArrivalProcess::Periodic,
        });
    let scenario = Scenario::from_script("AfternoonInProduction", script);

    // 2. Scenarios are plain data: ship them in config files.
    let json = serde_json::to_string_pretty(&scenario).expect("serialize");
    let restored: Scenario = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(scenario, restored);
    println!(
        "scenario '{}' round-trips through {} bytes of JSON\n",
        restored.name(),
        json.len()
    );

    // 3. Serve it: two schemes, same spec, bit-identical frozen
    //    conditions (same seed ⇒ same realization).
    let mut rt = Runtime::builder()
        .platform(alert::platform::PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .build()
        .expect("builtin policy");
    let spec = |policy: &str| SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.300), 0.90),
        scenario: restored.clone(),
        n_inputs: 400,
        seed: Some(2026),
        policy: Some(policy.to_string()),
    };
    let alert_id = rt.session(spec("ALERT")).open().expect("open");
    let noco_id = rt.session(spec("No-coord")).open().expect("open");
    let episodes = rt.drain().expect("drain");

    for (id, ep) in &episodes {
        println!(
            "{:<10} avg energy {:>6.2} J | avg top-5 acc {:>5.2}% | deadline misses {:>4.1}%",
            ep.scheme,
            ep.summary.avg_energy.get(),
            ep.summary.avg_quality * 100.0,
            ep.summary.deadline_miss_rate * 100.0,
        );
        assert!(*id == alert_id || *id == noco_id);
    }
    println!("\n(Every phase change — contention, cap, goal, drift, arrivals — hit both");
    println!(" schemes at the same dispatch times: the environment is frozen per seed.)");
}
