//! Table 4, Table 5, Figure 7 and Figure 8 — the paper's §5 evaluation,
//! rendered from one sweep: every (objective, row, environment) cell
//! runs once with Table 4's schemes plus ALERT-Trad, and each artifact
//! is a view of it.
//!
//! * Table 4 — the headline evaluation: average energy (minimize-energy
//!   task) and error (minimize-error task) normalized to OracleStatic,
//!   for every scheme × platform × workload × environment. Superscripts
//!   count constraint settings with >10% violations (excluded from the
//!   average).
//! * Table 5 — ALERT candidate-set comparison: ALERT (traditional +
//!   anytime) vs ALERT-Any vs ALERT-Trad, normalized to OracleStatic.
//! * Figure 7 — the bar-chart view of Table 4: per-scheme harmonic mean
//!   of the normalized performance and the percentage of constraint
//!   settings violated (>10% of inputs), for both objectives.
//! * Figure 8 — ALERT vs Oracle vs OracleStatic on the minimize-energy
//!   task: whole-range whiskers (min / mean / max of average energy
//!   across the qualified constraint settings) for CPU1 and CPU2 × both
//!   workloads × all three environments.
//!
//! Shape checks against the paper:
//! * ALERT and ALERT-Any land close to the dynamic Oracle (93–99%),
//! * both beat OracleStatic clearly on both objectives,
//! * Sys-only piles up accuracy violations, App-only burns energy,
//!   No-coord combines the worst of both;
//! * all three ALERT variants work well (close to each other),
//! * ALERT-Trad accumulates more accuracy violations under contention
//!   (a traditional DNN loses everything when it misses a deadline),
//! * full ALERT edges out ALERT-Any thanks to the slightly more accurate
//!   traditional models in calm phases;
//! * ALERT's whole energy range tracks Oracle closely; OracleStatic has
//!   both the worst mean and the worst tail.
//!
//! Usage: `paper [n_inputs] [seed]` (defaults 300, 2020; `n_inputs` must
//! be positive). Writes `table4.json`, `table5.json`, `fig7.json` and
//! `fig8.json` under `results/`.

use alert_bench::{args_or_usage, banner, csv_header, csv_row, f, write_json};
use alert_platform::PlatformId;
use alert_sched::experiment::{TABLE4_SCHEMES, TABLE5_SCHEMES};
use alert_sched::{ExperimentConfig, PaperSweep, ResultTable};
use alert_workload::Objective;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some((n_inputs, seed)) = args_or_usage("paper", "n_inputs", 300, 1) else {
        return ExitCode::FAILURE;
    };
    let config = ExperimentConfig {
        n_inputs,
        seed,
        ..Default::default()
    };
    let sweep = PaperSweep::run(&config);
    let tables = |schemes: &[&str]| {
        [Objective::MinimizeEnergy, Objective::MinimizeError].map(|o| sweep.table(o, schemes))
    };
    let table4 = tables(&TABLE4_SCHEMES);

    banner(
        "Table 4",
        "Energy / error normalized to OracleStatic (smaller is better; (n) = violating settings)",
    );
    println!(
        "[{} inputs per episode, seed {}, {} threads]\n",
        config.n_inputs, config.seed, config.threads
    );
    let headings = [
        "--- Minimize Energy task: normalized average energy ---",
        "\n--- Minimize Error task: normalized average error ---",
    ];
    print_tables("table4.json", &config, headings, &table4);
    table4_shape_checks(&table4);

    banner(
        "Table 5",
        "ALERT vs ALERT-Any vs ALERT-Trad, normalized to OracleStatic",
    );
    let headings = [
        "--- Minimize Energy task ---",
        "\n--- Minimize Error task ---",
    ];
    print_tables("table5.json", &config, headings, &tables(&TABLE5_SCHEMES));

    figure_7(&table4);
    figure_8(&sweep);
    ExitCode::SUCCESS
}

/// Prints each objective's table under its heading, then writes
/// `{config, minimize_energy, minimize_error}` to `name`.
fn print_tables(
    name: &str,
    config: &ExperimentConfig,
    headings: [&str; 2],
    tables: &[ResultTable; 2],
) {
    for (heading, table) in headings.into_iter().zip(tables) {
        println!("{heading}");
        print!("{}", table.render());
    }
    let [energy, error] = tables;
    write_json(
        name,
        &serde_json::json!({
            "config": config,
            "minimize_energy": energy,
            "minimize_error": error,
        }),
    );
}

fn table4_shape_checks([energy, error]: &[ResultTable; 2]) {
    println!("\nshape checks vs paper:");
    for (name, table) in [("energy", energy), ("error", error)] {
        let alert = table.harmonic_mean_for("ALERT");
        let oracle = table.harmonic_mean_for("Oracle");
        if let (Some(a), Some(o)) = (alert, oracle) {
            println!(
                "  {name}: ALERT hm {:.2}, Oracle hm {:.2} -> ALERT within {:.0}% of Oracle (paper: 93-99%)",
                a,
                o,
                100.0 * o / a
            );
        }
        for scheme in ["ALERT-Any", "Sys-only", "App-only", "No-coord"] {
            if let Some(h) = table.harmonic_mean_for(scheme) {
                println!("  {name}: {scheme} harmonic mean {h:.2}");
            }
        }
    }
}

fn figure_7(table4: &[ResultTable; 2]) {
    banner(
        "Figure 7",
        "Summary: normalized performance + violation% per scheme (vs OracleStatic)",
    );
    let mut out = serde_json::Map::new();
    let labels = ["minimize_energy", "minimize_error"];
    for (label, table) in labels.into_iter().zip(table4) {
        println!("\n--- {label} ---");
        csv_header(&["scheme", "normalized_perf", "violation_pct"]);
        let mut section = serde_json::Map::new();
        for scheme in table.schemes() {
            let hm = table.harmonic_mean_for(&scheme);
            // Violation%: fraction of (row, setting) combinations the
            // scheme was disqualified on.
            let (viol, total): (usize, usize) = table
                .cells
                .values()
                .filter_map(|row| row.get(&scheme))
                .fold((0, 0), |(v, t), c| (v + c.violations, t + c.settings));
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * viol as f64 / total as f64
            };
            csv_row(&[
                scheme.clone(),
                hm.map_or("-".into(), |h| f(h, 2)),
                f(pct, 1),
            ]);
            section.insert(
                scheme,
                serde_json::json!({"harmonic_mean": hm, "violation_pct": pct}),
            );
        }
        out.insert(label.to_string(), serde_json::Value::Object(section));
    }
    write_json("fig7.json", &serde_json::Value::Object(out));

    println!("\npaper shape: ALERT/ALERT-Any lowest bars and near-zero violations;");
    println!("Sys-only violates accuracy heavily (min-energy task); App-only and");
    println!("No-coord carry both higher bars and more violations.");
}

fn figure_8(sweep: &PaperSweep) {
    banner(
        "Figure 8",
        "ALERT vs Oracle vs OracleStatic on minimize-energy (whisker: range over settings)",
    );
    csv_header(&[
        "platform", "workload", "env", "scheme", "min_j", "mean_j", "max_j",
    ]);
    let mut rows = Vec::new();
    let cpu_energy_cells = sweep.cells.iter().filter(|c| {
        c.objective == Objective::MinimizeEnergy
            && matches!(c.platform, PlatformId::Cpu1 | PlatformId::Cpu2)
    });
    for cell in cpu_energy_cells {
        for name in ["OracleStatic", "ALERT", "Oracle"] {
            let energies: Vec<f64> = cell
                .settings
                .iter()
                .flat_map(|s| &s.schemes)
                .filter(|(scheme, summary)| scheme == name && !summary.disqualified())
                .map(|(_, summary)| summary.avg_energy.get())
                .collect();
            if energies.is_empty() {
                continue;
            }
            let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = energies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = energies.iter().sum::<f64>() / energies.len() as f64;
            csv_row(&[
                cell.platform.to_string(),
                cell.family.label().to_string(),
                cell.scenario.clone(),
                name.to_string(),
                f(min, 2),
                f(mean, 2),
                f(max, 2),
            ]);
            rows.push(serde_json::json!({
                "platform": cell.platform.to_string(),
                "workload": cell.family.label(),
                "env": cell.scenario,
                "scheme": name,
                "min": min, "mean": mean, "max": max,
            }));
        }
    }
    write_json("fig8.json", &rows);
}
