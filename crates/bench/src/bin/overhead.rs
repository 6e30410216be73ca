//! §4 overhead measurement: ALERT's per-input scheduler cost relative to
//! inference time.
//!
//! The paper reports 0.6–1.7% of an input's inference time for scheduler
//! computation plus configuration switching. Here we measure the actual
//! wall-clock cost of `AlertController::decide` over the candidate tables
//! of each platform (the `observe` that feeds each next decision is not
//! timed) and compare it to the simulated mean inference latencies.
//!
//! The controller runs `OverheadPolicy::Measured`, the only policy that
//! meters every decision on the thread-CPU clock, so the timed cost
//! includes that meter. The bin asserts the paper's bound: every row's
//! `overhead_pct` is finite and below 1.7.

use alert_bench::{banner, csv_header, csv_row, f};
use alert_core::alert::{AlertParams, Observation, OverheadPolicy};
use alert_core::AlertController;
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_sched::alert::build_table;
use alert_stats::units::Watts;
use alert_workload::constraints::deadline_unit;
use alert_workload::Goal;
use std::time::Instant;

/// The paper's §4 upper bound on scheduler cost, in percent of an
/// input's inference time.
const PAPER_BOUND_PCT: f64 = 1.7;

fn main() {
    banner(
        "Section 4 overhead",
        "Scheduler cost per decision vs inference time (paper: 0.6-1.7%)",
    );
    csv_header(&[
        "platform",
        "family",
        "candidates",
        "mean_decide_us",
        "p99_decide_us",
        "mean_inference_ms",
        "overhead_pct",
    ]);
    for platform in [Platform::cpu1(), Platform::cpu2(), Platform::gpu()] {
        for family in [
            ModelFamily::image_classification(),
            ModelFamily::sentence_prediction(),
        ] {
            if platform.id() == alert_platform::PlatformId::Gpu
                && family.name() == "sentence_prediction"
            {
                continue; // RNN inference is CPU-only (§5.1).
            }
            let (table, _) = build_table(&family, &[&platform], None).expect("paper family fits");
            let candidates = table.candidate_count();
            let unit = deadline_unit(&family, &platform);
            let goal = Goal::minimize_error(unit, Watts(35.0) * unit);
            let params = AlertParams {
                overhead: OverheadPolicy::Measured,
                ..Default::default()
            };
            let mut ctl = AlertController::new(table, params).expect("valid params");

            let iterations = 2000;
            let mut costs = Vec::with_capacity(iterations);
            for i in 0..iterations {
                let start = Instant::now();
                let sel = ctl.decide(&goal).expect("valid goal");
                costs.push(start.elapsed().as_secs_f64());
                // Feed plausible feedback to keep the estimators moving.
                let t_prof = ctl.table().t_prof_stage(sel.candidate);
                let jitter = 1.0 + 0.05 * ((i % 7) as f64 - 3.0) / 3.0;
                ctl.observe(&Observation {
                    latency: t_prof * jitter,
                    profile_equivalent: t_prof,
                    idle_power: Some(Watts(6.0)),
                    idle_cap: ctl
                        .table()
                        .cap_on(sel.candidate.device, sel.candidate.power),
                });
            }
            costs.sort_by(f64::total_cmp);
            let mean = costs.iter().sum::<f64>() / costs.len() as f64;
            let p99 = costs[(costs.len() as f64 * 0.99) as usize];
            // Mean inference time at the default cap across candidates.
            let mean_inf = unit.get();
            let overhead_pct = 100.0 * mean / mean_inf;
            assert!(
                overhead_pct.is_finite() && overhead_pct < PAPER_BOUND_PCT,
                "{} {}: decide costs {overhead_pct}% of inference time \
                 (paper bound {PAPER_BOUND_PCT}%)",
                platform.id(),
                family.name()
            );
            csv_row(&[
                platform.id().to_string(),
                family.name().to_string(),
                candidates.to_string(),
                f(mean * 1e6, 1),
                f(p99 * 1e6, 1),
                f(mean_inf * 1e3, 2),
                f(overhead_pct, 3),
            ]);
        }
    }
    println!("\nnote: the controller overhead is measured on real wall-clock time while");
    println!("inference latencies are simulated; the paper's 0.6-1.7% bound includes");
    println!("DNN/power switching costs our simulator does not charge for.");
    println!("ALERT additionally reserves its worst-case measured overhead out of every");
    println!("deadline (OverheadPolicy::Measured), so the scheduler cannot cause misses.");
}
