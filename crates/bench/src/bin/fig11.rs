//! Figure 11 — the distribution of the observed global slowdown factor ξ
//! for image classification on CPU1 under the three environments, overlaid
//! with the Gaussian the Kalman filter assumes.
//!
//! Paper observations to reproduce: the Default distribution is tight
//! (≈[0.99, 1.06]); Compute and Memory are shifted right and widened
//! (≈[1.1, 1.7] / [1.1, 1.9]); none is perfectly Gaussian, yet the
//! Gaussian fit is close enough for the controller (§3.6).

use alert_bench::{banner, csv_header, csv_row, f, write_json};
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_sched::env::EpisodeEnv;
use alert_sched::harness::run_episode;
use alert_sched::AlertScheduler;
use alert_stats::fit::{GaussianFit, KsStatistic};
use alert_stats::units::Seconds;
use alert_stats::Histogram;
use alert_workload::{Goal, InputStream, Scenario, TaskId};

fn main() {
    banner(
        "Figure 11",
        "Distribution of observed ξ for image classification on CPU1",
    );
    let node = [Platform::cpu1()];
    let family = ModelFamily::image_classification();
    let stream = InputStream::generate(TaskId::Img2, 1200, 3);
    let goal = Goal::minimize_energy(Seconds(0.5), 0.90);

    let mut out = serde_json::Map::new();
    for scenario in [
        Scenario::default_env(),
        Scenario::compute_env(11),
        Scenario::memory_env(12),
    ] {
        let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 77, None).expect("valid");
        let mut s = AlertScheduler::standard(&family, &node[0], goal).expect("paper family fits");
        let ep = run_episode(&mut s, &env, &family, &stream, &goal).expect("episode");
        // Contended scenarios: keep only the samples observed while the
        // co-runner was active (the paper plots the contended regime).
        let xs: Vec<f64> = ep
            .records
            .iter()
            .filter(|r| scenario.name() == "Default" || r.contention_active)
            .filter_map(|r| r.slowdown)
            .collect();

        let fit = GaussianFit::fit(&xs).expect("enough samples");
        let ks = KsStatistic::against_normal(&xs, &fit.distribution()).expect("samples");
        let hist = Histogram::covering(&xs, 24).expect("samples");

        println!("\n--- {} ({} samples) ---", scenario.name(), xs.len());
        println!(
            "  fitted Gaussian: mu = {}, sigma = {}; KS distance = {}",
            f(fit.mu, 4),
            f(fit.sigma, 4),
            f(ks.d, 4)
        );
        csv_header(&["env", "bin_center", "observed_density", "gaussian_density"]);
        let dens = hist.densities();
        for (b, d) in dens.iter().enumerate() {
            let x = hist.bin_center(b);
            csv_row(&[
                scenario.name().to_string(),
                f(x, 4),
                f(*d, 3),
                f(fit.distribution().pdf(x), 3),
            ]);
        }
        out.insert(
            scenario.name().to_string(),
            serde_json::json!({
                "mu": fit.mu, "sigma": fit.sigma, "ks": ks.d,
                "n": xs.len(),
                "lo": hist.lo(), "hi": hist.hi(),
            }),
        );
    }
    write_json("fig11.json", &serde_json::Value::Object(out));
    println!("\npaper shape: Default tight around 1.0; Compute/Memory shifted right");
    println!("and widened; Gaussian imperfect but close (ALERT is robust to this, §3.6).");
}
