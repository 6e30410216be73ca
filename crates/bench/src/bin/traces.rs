//! Trace capture → replay matrix: record every library scenario from a
//! live runtime into the versioned trace format, replay each trace
//! against all registered schemes, and gate the capture→replay loop on
//! **bit-exact** round-trip identity. Written to `BENCH_traces.json` at
//! the workspace root (trace files under `results/traces/`); CI runs a
//! short grid, validates the JSON, and uploads the artifacts.
//!
//! Four guarantees are asserted *inside* the bench (it aborts on the
//! first violation):
//!
//! * **File round-trip identity** — every captured trace, saved to its
//!   `.jsonl` file and loaded back, equals the in-memory capture record
//!   for record (floats compared by bit pattern).
//! * **Capture→replay identity** — replaying a trace recorded from
//!   scenario S via `ArrivalProcess::Trace` reproduces S's per-input
//!   inter-arrival/scale sequence bit-exactly, re-verified for the
//!   rebuilt environment of every scheme cell.
//! * **Counterfactual composability** — the same trace replayed under an
//!   overlay script (cap crash + goal tightening) keeps the recorded
//!   arrival/scale sequence bit-exactly while the overlaid conditions
//!   bind, and produces a full scheme×trace matrix of its own.
//! * **Matrix completeness** — one cell per scheme × trace, in both the
//!   plain-replay and counterfactual matrices.
//!
//! Usage: `traces [n_inputs_per_episode] [seed]` (defaults 240, 2020).

use alert_bench::{
    args_or_usage, banner, base_goal, csv_header, csv_row, f, results_dir, run_schemes, SCHEMES,
};
use alert_platform::{Platform, PlatformId};
use alert_sched::capture::TraceRecorder;
use alert_sched::env::EpisodeEnv;
use alert_sched::runtime::{Runtime, SessionSpec};
use alert_sched::FamilyKind;
use alert_workload::{
    GoalPatch, InputStream, Scenario, ScenarioScript, ScriptEvent, TraceFit, WorkloadTrace,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// Records one scenario through the live runtime's sink; returns the
/// capture and the recorded session id.
fn capture(scenario: &Scenario, n_inputs: usize, seed: u64) -> (WorkloadTrace, u64) {
    let recorder = TraceRecorder::new(scenario.name(), Some(seed));
    let mut rt = Runtime::builder()
        .platform(PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .seed(seed)
        .sink(recorder.clone())
        .build()
        .expect("builtin policy resolves");
    let id = rt
        .session(SessionSpec {
            goal: base_goal(),
            scenario: scenario.clone(),
            n_inputs,
            seed: Some(seed),
            policy: Some("ALERT".into()),
        })
        .open()
        .expect("library scenario opens");
    rt.run_to_completion(id).expect("episode runs");
    rt.close(id).expect("session open");
    (recorder.snapshot(), id.0)
}

/// Asserts that `env` replays `trace`'s session sequence bit-exactly.
fn assert_replay_identity(env: &EpisodeEnv, trace: &WorkloadTrace, session: u64, what: &str) {
    let records: Vec<_> = trace.session_records(session).collect();
    assert_eq!(env.len(), records.len(), "{what}: length mismatch");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(
            env.period(i).get().to_bits(),
            r.inter_arrival.get().to_bits(),
            "{what}: inter-arrival diverged at input {i}"
        );
        assert_eq!(
            env.realization(i).scale.to_bits(),
            r.scale.to_bits(),
            "{what}: scale diverged at input {i}"
        );
    }
}

struct Cell {
    scheme: &'static str,
    trace: String,
    counterfactual: bool,
    measured: usize,
    deadline_miss_rate: f64,
    violation_rate: f64,
    avg_energy_j: f64,
    avg_quality: f64,
    disqualified: bool,
}

/// Runs one scheme×trace matrix row on `scenario` (a replay scenario,
/// plain or counterfactual), asserting that the shared environment and
/// every cell's rebuild replay the trace bit-exactly.
fn run_row(
    scenario: &Scenario,
    trace: &WorkloadTrace,
    session: u64,
    stream: &InputStream,
    seed: u64,
    counterfactual: bool,
    identity_checks: &mut usize,
) -> Vec<Cell> {
    let episodes = run_schemes(
        &[Platform::cpu1()],
        None,
        scenario,
        stream,
        seed,
        |env| assert_replay_identity(env, trace, session, scenario.name()),
        identity_checks,
    );
    SCHEMES
        .iter()
        .zip(episodes)
        .map(|(&scheme, ep)| Cell {
            scheme,
            trace: trace.header().source.clone(),
            counterfactual,
            measured: ep.summary.measured,
            deadline_miss_rate: ep.summary.deadline_miss_rate,
            violation_rate: ep.summary.violation_rate(),
            avg_energy_j: ep.summary.avg_energy.get(),
            avg_quality: ep.summary.avg_quality,
            disqualified: ep.summary.disqualified(),
        })
        .collect()
}

/// The counterfactual overlay: a hidden cap crash plus a goal
/// tightening, landing mid-replay.
fn counterfactual_overlay() -> ScenarioScript {
    ScenarioScript::new()
        .with(ScriptEvent::CapStep {
            at: 0.35,
            frac: 0.30,
        })
        .with(ScriptEvent::GoalChange {
            at: 0.5,
            patch: GoalPatch::deadline(0.85),
        })
}

fn main() -> ExitCode {
    let Some((n_inputs, seed)) = args_or_usage("traces", "n_inputs_per_episode", 240, 50) else {
        return ExitCode::FAILURE;
    };

    banner(
        "Trace capture → replay",
        "Record the scenario library from the runtime, replay as scenarios, gate on bit-exact round trips",
    );
    println!("[{n_inputs} inputs per episode, seed {seed}]\n");

    let library = Scenario::library(seed);
    let stream = InputStream::generate(alert_workload::TaskId::Img2, n_inputs, seed);
    let trace_dir = results_dir().join("traces");
    std::fs::create_dir_all(&trace_dir).expect("create trace dir");

    let mut identity_checks = 0usize;
    let mut cells: Vec<Cell> = Vec::new();
    let mut counter_cells: Vec<Cell> = Vec::new();
    let mut round_trips = Vec::new();

    csv_header(&[
        "trace",
        "scheme",
        "counterfactual",
        "miss_rate",
        "violation_rate",
        "avg_energy_j",
        "avg_quality",
    ]);
    for scenario in &library {
        // 1. Capture the scenario from a live runtime into a trace file.
        let (captured, session) = capture(scenario, n_inputs, seed);
        assert_eq!(captured.len(), n_inputs, "capture covers every input");
        let path = trace_dir.join(format!("{}.jsonl", scenario.name()));
        captured.save(&path).expect("write trace file");

        // 2. Load it back: the disk round trip must be bit-identical.
        let loaded = WorkloadTrace::load(&path).expect("trace file loads");
        assert_eq!(
            captured,
            loaded,
            "disk round trip diverged for {}",
            scenario.name()
        );
        for (a, b) in captured.records().iter().zip(loaded.records()) {
            assert_eq!(
                a.inter_arrival.get().to_bits(),
                b.inter_arrival.get().to_bits()
            );
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        }

        // 3. Replay against every scheme; Truncate = exact horizon.
        let source = loaded.replay_source(session).expect("session captured");
        let replay = Scenario::replay(
            format!("Trace:{}", scenario.name()),
            source.clone(),
            TraceFit::Truncate,
        );
        let row = run_row(
            &replay,
            &loaded,
            session,
            &stream,
            seed,
            false,
            &mut identity_checks,
        );

        // 4. Counterfactual: the same traffic under a cap crash + goal
        //    tightening.
        let counter = Scenario::replay_under(
            format!("Trace:{}+Counterfactual", scenario.name()),
            source,
            TraceFit::Truncate,
            counterfactual_overlay(),
        );
        let counter_row = run_row(
            &counter,
            &loaded,
            session,
            &stream,
            seed,
            true,
            &mut identity_checks,
        );

        for cell in row.iter().chain(&counter_row) {
            csv_row(&[
                scenario.name().to_string(),
                cell.scheme.to_string(),
                cell.counterfactual.to_string(),
                f(cell.deadline_miss_rate, 4),
                f(cell.violation_rate, 4),
                f(cell.avg_energy_j, 3),
                f(cell.avg_quality, 4),
            ]);
        }
        round_trips.push(serde_json::json!({
            "trace": scenario.name(),
            "file": format!("results/traces/{}.jsonl", scenario.name()),
            "records": captured.len(),
            "session": session,
            "loaded_bit_identical": true,
            "replay_bit_identical": true,
            "counterfactual_bit_identical": true,
        }));
        cells.extend(row);
        counter_cells.extend(counter_row);
    }

    assert_eq!(
        cells.len(),
        SCHEMES.len() * library.len(),
        "replay matrix must be complete"
    );
    assert_eq!(
        counter_cells.len(),
        SCHEMES.len() * library.len(),
        "counterfactual matrix must be complete"
    );
    assert_eq!(identity_checks, cells.len() + counter_cells.len());
    println!(
        "\n[{} traces captured, {} replay cells + {} counterfactual cells, \
         {identity_checks} bit-identity checks]",
        library.len(),
        cells.len(),
        counter_cells.len()
    );

    let cell_json = |c: &Cell| {
        serde_json::json!({
            "scheme": c.scheme,
            "trace": c.trace,
            "counterfactual": c.counterfactual,
            "measured": c.measured,
            "deadline_miss_rate": c.deadline_miss_rate,
            "violation_rate": c.violation_rate,
            "avg_energy_j": c.avg_energy_j,
            "avg_quality": c.avg_quality,
            "disqualified": c.disqualified,
        })
    };
    let doc = serde_json::json!({
        "bench": "trace_replay",
        "n_inputs_per_episode": n_inputs,
        "seed": seed,
        "trace_format_version": alert_workload::trace::TRACE_VERSION,
        "schemes": SCHEMES,
        "traces": library.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
        "round_trip": round_trips,
        "replay_identity_checks": identity_checks,
        "cells": cells.iter().map(cell_json).collect::<Vec<_>>(),
        "counterfactual_cells": counter_cells.iter().map(cell_json).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_traces.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .expect("write BENCH_traces.json");
    println!("[matrix written to {}]", path.display());
    ExitCode::SUCCESS
}
