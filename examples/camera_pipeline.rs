//! A motion-tracking camera pipeline (the paper's §1 motivating example).
//!
//! Frames arrive at a fixed rate; each must be classified before the next
//! one lands (deadline = camera period). The pipeline's accuracy
//! requirement changes at runtime — when the scene is flagged "critical"
//! the accuracy floor rises from 88% to 94% and the energy objective takes
//! the back seat (paper §1: "the power budget and the accuracy requirement
//! ... may switch among different settings depending on what type of
//! events are currently sensed").
//!
//! This example shows dynamic *goal* changes on top of environment
//! changes: a compute-hungry co-runner occupies the middle third of the
//! episode. When the goal flips, the runtime announces the new
//! requirement via `Scheduler::sync_goal` — the learned estimator state
//! (ξ slowdown belief, φ idle ratio) stays in place, so no re-learning
//! transient is paid at the phase boundary. (The session harness does
//! exactly this for scripted `GoalChange` events; driving the scheduler
//! manually here makes the mechanism visible.)
//!
//! Run with: `cargo run --release --example camera_pipeline`

use alert::models::ModelFamily;
use alert::platform::Platform;
use alert::sched::{AlertScheduler, EpisodeEnv, Feedback, InputContext, Scheduler};
use alert::stats::units::Seconds;
use alert::workload::{Goal, InputStream, Scenario, TaskId};

fn main() {
    let node = [Platform::cpu2()];
    let family = ModelFamily::image_classification();
    let n = 600;
    let fps_period = Seconds(0.250);

    let relaxed = Goal::minimize_energy(fps_period, 0.88);
    let critical = Goal::minimize_energy(fps_period, 0.94);

    let stream = InputStream::generate(TaskId::Img2, n, 1234);
    let scenario = Scenario::scripted_memory_window(fps_period * 200.0, fps_period * 400.0);
    let env = EpisodeEnv::build(&node, &scenario, &stream, &relaxed, 1234, None).expect("valid");

    // Drive the scheduler manually so the goal can flip mid-stream:
    // "critical" phase covers inputs 300..450 (overlapping the
    // contention window 200..400 — the hardest combination).
    let mut alert =
        AlertScheduler::standard(&family, &node[0], relaxed).expect("paper family fits");
    let mut switches = 0usize;
    let mut last_model = String::new();
    let mut phase_stats: Vec<(String, f64, f64, usize)> = Vec::new();
    let mut acc_sum = 0.0;
    let mut energy_sum = 0.0;
    let mut count = 0usize;
    let mut violations = 0usize;

    let phase_of = |i: usize| -> (&'static str, Goal) {
        if (300..450).contains(&i) {
            ("critical", critical)
        } else {
            ("relaxed", relaxed)
        }
    };

    let mut current_phase = "relaxed";
    for i in 0..n {
        let (phase, goal) = phase_of(i);
        if phase != current_phase {
            phase_stats.push((
                current_phase.to_string(),
                acc_sum / count.max(1) as f64,
                energy_sum / count.max(1) as f64,
                violations,
            ));
            acc_sum = 0.0;
            energy_sum = 0.0;
            count = 0;
            violations = 0;
            current_phase = phase;
        }
        // Announce the requirement in force (paper §3.1: "the required
        // constraints" may change dynamically). Same-valued syncs are
        // free; on a flip the controller simply retargets — the learned
        // estimators (ξ, φ, overhead reserve) carry over untouched.
        alert.sync_goal(&goal);
        let ctx = InputContext {
            index: i,
            deadline: goal.deadline,
            period: env.period(i),
            group: None,
        };

        let d = alert.decide(&ctx);
        let profile = &family.models()[d.model];
        let result = env
            .realize_on(d.device, i, profile, d.cap, d.stop)
            .expect("feasible cap");
        let quality = result.quality_by(ctx.deadline, profile.fail_quality);
        let energy = env.period_energy_on(d.device, i, profile, d.cap, &result);
        if profile.name != last_model {
            switches += 1;
            last_model = profile.name.clone();
        }
        let idle_power =
            (result.latency < env.period(i)).then(|| env.idle_draw_on(d.device, i, d.cap));
        alert.observe(&Feedback {
            index: i,
            decision: d,
            result: result.clone(),
            quality,
            energy,
            idle_power,
            deadline: ctx.deadline,
        });
        acc_sum += quality;
        energy_sum += energy.get();
        count += 1;
        if result.latency > ctx.deadline || quality < goal.min_quality.unwrap() {
            violations += 1;
        }
    }
    phase_stats.push((
        current_phase.to_string(),
        acc_sum / count.max(1) as f64,
        energy_sum / count.max(1) as f64,
        violations,
    ));

    println!("camera pipeline: {n} frames @ {fps_period} period, contention frames 200-400,");
    println!("accuracy floor 88% -> 94% (frames 300-450) -> 88%\n");
    println!(
        "{:<10} {:>12} {:>12} {:>11}",
        "phase", "avg acc %", "avg J/frame", "violations"
    );
    for (phase, acc, e, v) in &phase_stats {
        println!("{:<10} {:>12.2} {:>12.2} {:>11}", phase, acc * 100.0, e, v);
    }
    println!("\nmodel switches across the episode: {switches}");
    println!("(ALERT raises model size / power for the critical phase, then relaxes.)");
}
