//! The serving saturation curve: offered load vs goodput / miss-rate /
//! shed-rate per admission policy (Always-admit, Drop-tail, ALERT) over
//! the sharded runtime's serving front-end. Written to
//! `BENCH_serving.json` at the workspace root; CI runs it and gates on
//! the curve.
//!
//! Three guarantees are asserted *inside* the bench (it aborts on the
//! first violation):
//!
//! * **Deterministic replay** — every (policy, load) cell is served
//!   twice from scratch (fresh storm, fresh runtime, fresh policy); the
//!   two outcome-log fingerprints must be bit-equal.
//! * **Admission dominance under overload** — at every load at or past
//!   2× saturation, ALERT admission has strictly higher goodput *and*
//!   strictly lower miss-rate-among-admitted than both baselines.
//! * **Shed monotonicity** — each policy's shed rate is non-decreasing
//!   in offered load.
//!
//! Usage: `serving [n_requests] [seed]` (defaults 120, 2020).

use alert_bench::{args_or_usage, banner, csv_header, csv_row, f};
use alert_sched::runtime::{EpisodeEvent, Runtime, SessionSpec};
use alert_sched::serving::{
    admission_policy, serve, AlertAdmission, ServingConfig, DEFAULT_DEGRADE_FRAC,
    DEFAULT_MISS_THRESHOLD,
};
use alert_sched::telemetry::{AdmissionTelemetry, TelemetryEvent};
use alert_stats::units::Seconds;
use alert_workload::{
    generate_storm, AdmissionVerdict, ArrivalProcess, Goal, GoalPatch, Scenario, ServingReport,
    StormSpec,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

const WORKERS: usize = 2;
const POLICIES: [&str; 3] = ["Always-admit", "Drop-tail", "ALERT"];
/// Offered load as a multiple of the calibrated saturation point.
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Loads at or past this multiple must show strict ALERT dominance.
const OVERLOAD: f64 = 2.0;

fn goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

fn runtime(seed: u64) -> Runtime {
    Runtime::builder()
        .seed(seed)
        .build_sharded(WORKERS)
        .expect("builtin policies resolve")
}

/// Mean per-input service latency of an unloaded episode under the
/// serving goal — the calibration anchor for the saturation point.
fn calibrate_mean_latency(seed: u64) -> f64 {
    let mut rt = Runtime::builder().seed(seed).build().expect("builds");
    let id = rt
        .session(SessionSpec {
            goal: goal(),
            scenario: Scenario::default_env(),
            n_inputs: 60,
            seed: Some(seed),
            policy: None,
        })
        .open()
        .expect("session opens");
    rt.run_to_completion(id).expect("episode runs");
    let episode = rt.close(id).expect("session open");
    let n = episode.records.len().max(1);
    episode.records.iter().map(|r| r.latency.get()).sum::<f64>() / n as f64
}

struct Cell {
    policy: &'static str,
    load: f64,
    mean_gap_s: f64,
    report: ServingReport,
    fingerprint: u64,
}

fn run_cell(
    policy_name: &'static str,
    load: f64,
    mean_gap: f64,
    n_requests: usize,
    seed: u64,
) -> Cell {
    let spec = StormSpec {
        arrival: ArrivalProcess::Poisson { rate_scale: 1.0 },
        n_requests,
        mean_gap: Seconds(mean_gap),
        seed,
    };
    let run = || {
        let storm = generate_storm(&spec, None).expect("valid storm");
        let mut rt = runtime(seed);
        let mut policy = admission_policy(policy_name, &rt).expect("known policy");
        serve(&mut rt, &ServingConfig::new(goal()), &storm, &mut policy).expect("serving runs")
    };
    let report = run();
    let replay = run();
    assert_eq!(
        report.fingerprint(),
        replay.fingerprint(),
        "{policy_name} at load {load}: serving replay diverged — the \
         frozen-storm determinism guarantee is broken"
    );
    let fingerprint = report.fingerprint();
    Cell {
        policy: policy_name,
        load,
        mean_gap_s: mean_gap,
        report,
        fingerprint,
    }
}

/// One instrumented ALERT cell: the same storm re-served under an
/// `AdmissionTelemetry`-wrapped policy. The fingerprint must match the
/// bare cell's (telemetry is non-perturbing), and the verdicts its
/// admission events carry must add up to the report's counts.
struct TelemetryCell {
    load: f64,
    admitted: u64,
    degraded: u64,
    shed: u64,
    /// Failing-constraint histogram over non-admit verdicts.
    constraints: BTreeMap<String, u64>,
}

fn run_instrumented_alert(
    load: f64,
    mean_gap: f64,
    n_requests: usize,
    seed: u64,
    expected_fingerprint: u64,
) -> TelemetryCell {
    let spec = StormSpec {
        arrival: ArrivalProcess::Poisson { rate_scale: 1.0 },
        n_requests,
        mean_gap: Seconds(mean_gap),
        seed,
    };
    let storm = generate_storm(&spec, None).expect("valid storm");
    let mut rt = runtime(seed);
    let inner = AlertAdmission::for_runtime(
        &rt,
        GoalPatch::floor_frac(DEFAULT_DEGRADE_FRAC),
        DEFAULT_MISS_THRESHOLD,
    )
    .expect("policy builds");
    let (tx, rx) = std::sync::mpsc::channel();
    let mut policy = AdmissionTelemetry::new(inner, tx);
    let report =
        serve(&mut rt, &ServingConfig::new(goal()), &storm, &mut policy).expect("serving runs");
    assert_eq!(
        report.fingerprint(),
        expected_fingerprint,
        "admission telemetry perturbed the serving fingerprint at load {load}"
    );
    drop(policy); // releases the sender so the drain below terminates

    let mut cell = TelemetryCell {
        load,
        admitted: 0,
        degraded: 0,
        shed: 0,
        constraints: BTreeMap::new(),
    };
    let mut events = 0usize;
    for e in rx.iter() {
        if let EpisodeEvent::Telemetry {
            event: TelemetryEvent::Admission(a),
        } = e
        {
            events += 1;
            match a.verdict {
                AdmissionVerdict::Admitted => cell.admitted += 1,
                AdmissionVerdict::Degraded => cell.degraded += 1,
                AdmissionVerdict::Shed => cell.shed += 1,
            }
            if let Some(c) = a.constraint {
                *cell.constraints.entry(format!("{c:?}")).or_insert(0u64) += 1;
            }
        }
    }
    assert_eq!(events, n_requests, "one admission event per request");
    // The report's `admitted()` spans full-quality AND degraded service;
    // the events tell the two verdicts apart.
    assert_eq!((cell.admitted + cell.degraded) as usize, report.admitted());
    assert_eq!(cell.degraded as usize, report.degraded());
    assert_eq!(cell.shed as usize, report.shed());
    cell
}

fn main() -> ExitCode {
    let Some((n_requests, seed)) = args_or_usage("serving", "n_requests", 120, 20) else {
        return ExitCode::FAILURE;
    };

    banner(
        "Serving saturation curve",
        "Offered load vs goodput/miss/shed per admission policy over the sharded runtime",
    );
    let mean_latency = calibrate_mean_latency(seed);
    let inputs_per_request = ServingConfig::new(goal()).inputs_per_request;
    let saturating_gap = inputs_per_request as f64 * mean_latency / WORKERS as f64;
    println!(
        "[{n_requests} requests per cell, seed {seed}, {WORKERS} shards, \
         {inputs_per_request} inputs/request]\n\
         [calibrated mean input latency {mean_latency:.4} s → saturating gap {saturating_gap:.4} s]\n"
    );

    csv_header(&[
        "policy",
        "load",
        "offered",
        "admitted",
        "degraded",
        "shed_rate",
        "goodput",
        "miss_rate_admitted",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    for &load in &LOADS {
        for policy in POLICIES {
            let cell = run_cell(policy, load, saturating_gap / load, n_requests, seed);
            csv_row(&[
                policy.to_string(),
                f(load, 2),
                cell.report.offered().to_string(),
                cell.report.admitted().to_string(),
                cell.report.degraded().to_string(),
                f(cell.report.shed_rate(), 4),
                f(cell.report.goodput(), 4),
                f(cell.report.miss_rate_admitted(), 4),
            ]);
            cells.push(cell);
        }
    }

    // Admission dominance under overload: ALERT strictly beats both
    // baselines on goodput and miss-rate-among-admitted at every load
    // at or past 2× saturation.
    for &load in LOADS.iter().filter(|&&l| l >= OVERLOAD) {
        let at = |name: &str| {
            cells
                .iter()
                .find(|c| c.policy == name && c.load == load)
                .expect("cell grid is complete")
        };
        let alert = at("ALERT");
        for baseline in ["Always-admit", "Drop-tail"] {
            let base = at(baseline);
            assert!(
                alert.report.goodput() > base.report.goodput(),
                "at {load}x saturation ALERT goodput {:.4} must strictly exceed \
                 {baseline}'s {:.4}",
                alert.report.goodput(),
                base.report.goodput()
            );
            assert!(
                alert.report.miss_rate_admitted() < base.report.miss_rate_admitted(),
                "at {load}x saturation ALERT miss-rate-among-admitted {:.4} must be \
                 strictly below {baseline}'s {:.4}",
                alert.report.miss_rate_admitted(),
                base.report.miss_rate_admitted()
            );
        }
    }
    // Shed monotonicity: more offered load never sheds less.
    for policy in POLICIES {
        let rates: Vec<f64> = LOADS
            .iter()
            .map(|&l| {
                cells
                    .iter()
                    .find(|c| c.policy == policy && c.load == l)
                    .expect("cell grid is complete")
                    .report
                    .shed_rate()
            })
            .collect();
        for w in rates.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "{policy}: shed rate must be monotone in offered load, got {rates:?}"
            );
        }
    }
    println!("\n[replay identity asserted for all {} cells]", cells.len());

    // Instrumented ALERT re-runs per load: verdict counts and failing
    // constraints off the admission-telemetry stream, with the serving
    // fingerprint asserted unchanged (telemetry is non-perturbing).
    let telemetry_cells: Vec<TelemetryCell> = LOADS
        .iter()
        .map(|&load| {
            let bare = cells
                .iter()
                .find(|c| c.policy == "ALERT" && c.load == load)
                .expect("cell grid is complete");
            run_instrumented_alert(load, bare.mean_gap_s, n_requests, seed, bare.fingerprint)
        })
        .collect();
    println!(
        "[admission telemetry verified: fingerprints unchanged at all {} loads]",
        telemetry_cells.len()
    );

    let doc = serde_json::json!({
        "bench": "serving_saturation",
        "n_requests": n_requests,
        "seed": seed,
        "workers": WORKERS,
        "inputs_per_request": inputs_per_request,
        "goal": serde_json::json!({
            "objective": "MinimizeEnergy", "deadline_s": 0.4, "min_quality": 0.9,
        }),
        "calibration": serde_json::json!({
            "mean_input_latency_s": mean_latency,
            "saturating_gap_s": saturating_gap,
        }),
        "overload_threshold": OVERLOAD,
        "loads": LOADS,
        "policies": POLICIES,
        "cells": cells.iter().map(|c| serde_json::json!({
            "policy": c.policy,
            "load": c.load,
            "mean_gap_s": c.mean_gap_s,
            "offered": c.report.offered(),
            "admitted": c.report.admitted(),
            "degraded": c.report.degraded(),
            "shed": c.report.shed(),
            "shed_rate": c.report.shed_rate(),
            "goodput": c.report.goodput(),
            "miss_rate_admitted": c.report.miss_rate_admitted(),
            "fingerprint": format!("{:016x}", c.fingerprint),
            "replay_identical": true,
        })).collect::<Vec<_>>(),
        "telemetry": serde_json::json!({
            "policy": "ALERT",
            "cells": telemetry_cells.iter().map(|t| serde_json::json!({
                "load": t.load,
                "admitted": t.admitted,
                "degraded": t.degraded,
                "shed": t.shed,
                "constraints": t.constraints,
                "fingerprint_match": true,
            })).collect::<Vec<_>>(),
        }),
    });
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serving.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .expect("write BENCH_serving.json");
    println!("[curve written to {}]", path.display());
    ExitCode::SUCCESS
}
