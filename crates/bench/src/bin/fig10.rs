//! Figure 10 — the probabilistic-design ablation: ALERT vs ALERT\*
//! (mean-only estimates) on minimize-error sentence prediction @ CPU1,
//! under the Default and Memory environments, for the three candidate
//! sets (Standard / Traditional-only / Anytime-only).
//!
//! Paper shape: ALERT (full expectations) always at or below ALERT\*'s
//! perplexity; the gap is largest for the Standard set (where the
//! estimator must arbitrate between staircase and step-function quality
//! curves) and under memory contention.
//!
//! Usage: `fig10 [n_inputs] [seed]` (defaults 400 words, 2020).

use alert_bench::{args_or_usage, banner, csv_header, csv_row, f, write_json};
use alert_core::alert::AlertParams;
use alert_models::family::CandidateSet;
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_sched::env::EpisodeEnv;
use alert_sched::harness::run_episode;
use alert_sched::AlertScheduler;
use alert_workload::{constraint_grid, InputStream, Objective, Scenario, TaskId};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some((n_inputs, seed)) = args_or_usage("fig10", "n_inputs", 400, 1) else {
        return ExitCode::FAILURE;
    };

    banner(
        "Figure 10",
        "ALERT vs ALERT* (mean-only) perplexity, sentence prediction @ CPU1",
    );
    let node = [Platform::cpu1()];
    let family = ModelFamily::sentence_prediction();
    let stream = InputStream::generate(TaskId::Nlp1, n_inputs, seed);
    let grid = constraint_grid(Objective::MinimizeError, &family, &node[0]);

    let sets = [
        ("Standard", CandidateSet::Standard),
        ("TradOnly", CandidateSet::TraditionalOnly),
        ("AnyOnly", CandidateSet::AnytimeOnly),
    ];
    let envs = [Scenario::default_env(), Scenario::memory_env(seed)];

    csv_header(&[
        "env",
        "candidate_set",
        "scheme",
        "min_ppl",
        "mean_ppl",
        "max_ppl",
    ]);
    let mut out = BTreeMap::new();
    for scenario in &envs {
        for (set_label, set) in sets {
            for (scheme_label, mean_only) in [("ALERT", false), ("ALERT*", true)] {
                let mut ppls = Vec::new();
                for goal in &grid {
                    let env = EpisodeEnv::build(&node, scenario, &stream, goal, seed, None)
                        .expect("valid");
                    let params = if mean_only {
                        AlertParams::mean_only()
                    } else {
                        AlertParams::default()
                    };
                    let mut s =
                        AlertScheduler::new(scheme_label, &family, set, &node[0], *goal, params)
                            .expect("paper family fits");
                    let ep = run_episode(&mut s, &env, &family, &stream, goal).expect("episode");
                    // Perplexity = -quality score.
                    ppls.push(-ep.summary.avg_quality);
                }
                let min = ppls.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = ppls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mean = ppls.iter().sum::<f64>() / ppls.len() as f64;
                csv_row(&[
                    scenario.name().to_string(),
                    set_label.to_string(),
                    scheme_label.to_string(),
                    f(min, 1),
                    f(mean, 1),
                    f(max, 1),
                ]);
                out.insert(
                    format!("{}/{set_label}/{scheme_label}", scenario.name()),
                    serde_json::json!({"min": min, "mean": mean, "max": max}),
                );
            }
        }
    }
    write_json("fig10.json", &out);
    println!("\npaper shape: ALERT mean ≤ ALERT* mean in every column; largest gaps");
    println!("for the Standard candidate set and under Memory contention.");
    ExitCode::SUCCESS
}
