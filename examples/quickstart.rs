//! Quickstart: run ALERT end to end in ~40 lines.
//!
//! Builds a session runtime on the simulated laptop platform with the
//! paper's image-classification candidate family (Sparse ResNets + a
//! Depth-Nest anytime network), asks ALERT to minimize energy under a
//! latency deadline and an accuracy floor, and prints what it achieved
//! against the App-only baseline — both schemes running as concurrent
//! sessions over identical frozen conditions.
//!
//! Run with: `cargo run --release --example quickstart`

use alert::sched::runtime::{Runtime, SessionSpec};
use alert::sched::FamilyKind;
use alert::stats::units::Seconds;
use alert::workload::{Goal, Scenario};

fn main() {
    // 1. A runtime: platform + candidate family + default policy.
    let mut rt = Runtime::builder()
        .platform(alert::platform::PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .policy("ALERT")
        .build()
        .expect("builtin policy");

    // 2. State the goal: minimize energy, hold 90% top-5 accuracy, meet a
    //    300 ms deadline per frame; 500 camera frames with a
    //    memory-hungry co-runner that starts and stops (the paper's
    //    "Memory" environment).
    let spec = |policy: Option<&str>| SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.300), 0.90),
        scenario: Scenario::memory_env(7),
        n_inputs: 500,
        seed: Some(42),
        policy: policy.map(String::from),
    };

    // 3. Two concurrent sessions on bit-identical conditions: ALERT (the
    //    runtime default) and the App-only baseline by name.
    let alert_id = rt.session(spec(None)).open().expect("open");
    let app_id = rt.session(spec(Some("App-only"))).open().expect("open");

    // 4. Drain and compare.
    let episodes = rt.drain().expect("drain");
    let ep = &episodes.iter().find(|(id, _)| *id == alert_id).unwrap().1;
    let ep_app = &episodes.iter().find(|(id, _)| *id == app_id).unwrap().1;
    for e in [ep, ep_app] {
        println!(
            "{:<10} avg energy {:>6.2} J | avg top-5 acc {:>5.2}% | deadline misses {:>4.1}% | violations {:>4.1}%",
            e.scheme,
            e.summary.avg_energy.get(),
            e.summary.avg_quality * 100.0,
            e.summary.deadline_miss_rate * 100.0,
            e.summary.violation_rate() * 100.0,
        );
    }
    let saved = 100.0 * (1.0 - ep.summary.avg_energy.get() / ep_app.summary.avg_energy.get());
    println!("\nALERT saved {saved:.0}% energy at the same accuracy floor.");
    println!("(One-shot episodes are still available via `alert::sched::run_episode`.)");
}
