//! Figure 9 — reaction trace: ALERT vs ALERT-Trad through a scripted
//! memory-contention window (minimize error under latency + energy
//! constraints @ CPU1).
//!
//! Paper behaviour to reproduce:
//! * in quiet phases both run the biggest traditional DNN,
//! * when contention hits, ALERT switches to the anytime network at a
//!   lower cap and keeps accuracy high; ALERT-Trad must retreat to small
//!   traditional models and loses more accuracy,
//! * both switch back after the window ends.
//!
//! Setup per the paper's caption: deadline = 1.25× mean latency of the
//! largest anytime DNN (default environment), power limit 35 W, memory
//! contention roughly between inputs 46 and 119.

use alert_bench::{banner, csv_header, csv_row, f, write_json};
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_sched::env::EpisodeEnv;
use alert_sched::harness::run_episode;
use alert_sched::AlertScheduler;
use alert_stats::units::Watts;
use alert_workload::constraints::deadline_unit;
use alert_workload::{Goal, InputStream, Scenario, TaskId};

fn main() {
    banner(
        "Figure 9",
        "Minimize error w/ latency+energy constraints @ CPU1, scripted memory window",
    );
    let node = [Platform::cpu1()];
    let family = ModelFamily::image_classification();
    let unit = deadline_unit(&family, &node[0]);
    let deadline = unit * 1.25;
    let budget = Watts(35.0) * deadline;
    let goal = Goal::minimize_error(deadline, budget);
    let n = 170;
    let stream = InputStream::generate(TaskId::Img2, n, 9);
    // Contention from input ~46 to ~119 on the fixed dispatch grid.
    let scenario = Scenario::scripted_memory_window(deadline * 46.0, deadline * 119.0);
    let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 2020, None).expect("valid");

    let mut alert = AlertScheduler::standard(&family, &node[0], goal).expect("paper family fits");
    let ep_alert = run_episode(&mut alert, &env, &family, &stream, &goal).expect("episode");
    let mut trad =
        AlertScheduler::traditional_only(&family, &node[0], goal).expect("paper family fits");
    let ep_trad = run_episode(&mut trad, &env, &family, &stream, &goal).expect("episode");

    csv_header(&[
        "input",
        "contention",
        "alert_model",
        "alert_cap_w",
        "alert_latency_s",
        "alert_acc_pct",
        "trad_model",
        "trad_cap_w",
        "trad_latency_s",
        "trad_acc_pct",
    ]);
    for i in 0..n {
        let a = &ep_alert.records[i];
        let t = &ep_trad.records[i];
        csv_row(&[
            i.to_string(),
            (if env.active(i) { "1" } else { "0" }).to_string(),
            a.model.clone(),
            f(a.cap.get(), 1),
            f(a.latency.get(), 4),
            f(a.quality * 100.0, 2),
            t.model.clone(),
            f(t.cap.get(), 1),
            f(t.latency.get(), 4),
            f(t.quality * 100.0, 2),
        ]);
    }

    // Phase analysis.
    let phase = |records: &[alert_workload::InputRecord], from: usize, to: usize| {
        let slice = &records[from..to];
        let anytime = slice.iter().filter(|r| r.model.contains("anytime")).count();
        let acc = slice.iter().map(|r| r.quality).sum::<f64>() / slice.len() as f64 * 100.0;
        let cap = slice.iter().map(|r| r.cap.get()).sum::<f64>() / slice.len() as f64;
        (anytime as f64 / slice.len() as f64, acc, cap)
    };
    println!("\nphase summary (fraction anytime, avg accuracy %, avg cap W):");
    for (label, lo, hi) in [
        ("quiet before (20..45)", 20, 45),
        ("contention  (50..115)", 50, 115),
        ("quiet after (125..165)", 125, 165),
    ] {
        let (fa, qa, ca) = phase(&ep_alert.records, lo, hi);
        let (ft, qt, ct) = phase(&ep_trad.records, lo, hi);
        println!(
            "  {label:<24} ALERT: any={} acc={} cap={} | ALERT-Trad: any={} acc={} cap={}",
            f(fa, 2),
            f(qa, 2),
            f(ca, 1),
            f(ft, 2),
            f(qt, 2),
            f(ct, 1)
        );
    }
    let (_, acc_alert, _) = phase(&ep_alert.records, 50, 115);
    let (_, acc_trad, _) = phase(&ep_trad.records, 50, 115);
    println!(
        "\nALERT accuracy under contention exceeds ALERT-Trad by {} points (paper: clearly higher)",
        f(acc_alert - acc_trad, 2)
    );

    write_json(
        "fig9.json",
        &serde_json::json!({
            "alert": ep_alert.records,
            "alert_trad": ep_trad.records,
        }),
    );
}
