//! The scheme × scenario matrix: every registered paper scheme against
//! the full named-scenario library (`Scenario::library`) — the paper's
//! three environments plus cap-storm, goal-flip, floor-raise,
//! drift-ramp, burst/Poisson arrivals, session churn, and compound
//! stress. Written
//! to `BENCH_scenarios.json` at the workspace root; CI runs a short grid
//! and gates on it. Per-cell decision timing depends on the machine, so
//! it goes to `results/scenarios_timing.json` instead, and the committed
//! file reproduces byte for byte at its own arguments
//! (`scenarios 300 2020`).
//!
//! Three guarantees are asserted *inside* the bench (it aborts on the
//! first violation):
//!
//! * **Frozen-environment bit-identity** — for every cell, the
//!   environment is rebuilt from (scenario, stream, goal, seed) and its
//!   realizations compared wholesale against the shared reference env,
//!   so every scheme of a scenario row provably faced bit-identical
//!   conditions (including through cap/goal phase boundaries).
//! * **Cell completeness** — the matrix has one result per
//!   scheme × scenario pair.
//! * **Churn isolation** — for scenarios scripting session churn, the
//!   measured session is re-run on a 4-shard `Runtime` while background
//!   sessions open and close in the scripted waves; its records must be
//!   bit-identical to the undisturbed run.
//!
//! Usage: `scenarios [n_inputs_per_episode] [seed]` (defaults 300, 2020).

use alert_bench::{banner, csv_header, csv_row, f, write_json};
use alert_core::lane::{CandidateLane, LaneScratch};
use alert_core::select::select_with_period;
use alert_core::ProbabilityMode;
use alert_platform::Platform;
use alert_sched::alert::build_table;
use alert_sched::env::EpisodeEnv;
use alert_sched::runtime::{EpisodeEvent, Runtime, SessionSpec};
use alert_sched::telemetry::{TelemetryConfig, TelemetryEvent};
use alert_sched::FamilyKind;
use alert_stats::units::{Joules, Seconds, Watts};
use alert_stats::Normal;
use alert_workload::{Goal, InputStream, Scenario};
use std::sync::Arc;

/// The matrix rows: every practical paper scheme plus the two oracle
/// references (all resolved through the policy registry, like any
/// serving deployment would).
const SCHEMES: [&str; 7] = [
    "ALERT",
    "ALERT-Any",
    "App-only",
    "Sys-only",
    "No-coord",
    "Oracle",
    "OracleStatic",
];

struct Cell {
    scheme: &'static str,
    scenario: String,
    stress: bool,
    measured: usize,
    deadline_miss_rate: f64,
    violation_rate: f64,
    avg_energy_j: f64,
    avg_quality: f64,
    decision_overhead_us_mean: f64,
    disqualified: bool,
}

fn base_goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

fn matrix_runtime(seed: u64) -> Runtime {
    Runtime::builder()
        .platform(alert_platform::PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .seed(seed)
        .build()
        .expect("builtin policy resolves")
}

/// Runs one scenario row: every scheme on the *same* shared frozen
/// environment, with the per-scheme rebuild asserted bit-identical.
fn run_row(
    scenario: &Scenario,
    stream: &InputStream,
    seed: u64,
    identity_checks: &mut usize,
) -> Vec<Cell> {
    let goal = base_goal();
    let platform = alert_platform::Platform::cpu1();
    // Span-aware realization: the library's FloorRaise row expresses its
    // quality floor relative to the serving family's achievable range.
    let span = alert_workload::quality_span(&FamilyKind::Image.family(), &platform);
    let reference = Arc::new(
        EpisodeEnv::build_scoped(&platform, scenario, stream, &goal, seed, Some(span))
            .expect("library scenarios validate"),
    );
    let stress = scenario.name() != "Default";
    SCHEMES
        .iter()
        .map(|&scheme| {
            // The frozen-randomness guarantee, asserted per cell: a
            // rebuild from the same recipe is bit-identical to the env
            // every other scheme of this row runs on.
            let rebuilt =
                EpisodeEnv::build_scoped(&platform, scenario, stream, &goal, seed, Some(span))
                    .expect("library scenarios validate");
            assert_eq!(
                rebuilt.realizations(),
                reference.realizations(),
                "environment realization diverged for {scheme} on {}",
                scenario.name()
            );
            *identity_checks += 1;

            let mut rt = matrix_runtime(seed);
            let id = rt
                .session(SessionSpec::external(goal))
                .policy(scheme)
                .on(stream.clone(), reference.clone())
                .open()
                .expect("registered policy builds");
            rt.run_to_completion(id).expect("episode runs");
            let ep = rt.close(id).expect("session open");
            Cell {
                scheme,
                scenario: scenario.name().to_string(),
                stress,
                measured: ep.summary.measured,
                deadline_miss_rate: ep.summary.deadline_miss_rate,
                violation_rate: ep.summary.violation_rate(),
                avg_energy_j: ep.summary.avg_energy.get(),
                avg_quality: ep.summary.avg_quality,
                decision_overhead_us_mean: ep.summary.overhead.get()
                    / ep.records.len().max(1) as f64
                    * 1e6,
                disqualified: ep.summary.disqualified(),
            }
        })
        .collect()
}

/// One cell of the placement matrix (a node row × scheme × scenario).
struct PlacementCell {
    node: &'static str,
    scheme: &'static str,
    scenario: String,
    measured: usize,
    deadline_miss_rate: f64,
    violation_rate: f64,
    avg_energy_j: f64,
    avg_quality: f64,
    /// Fraction of inputs placed off device 0.
    off_primary_share: f64,
    disqualified: bool,
}

/// The placement node rows: a GPU-primary node and a CPU+GPU node under
/// one shared 230 W envelope (split proportional to max draw: ~192 W to
/// the GPU, ~38 W to the CPU — both keep a usable DVFS range).
fn placement_nodes() -> Vec<(&'static str, Vec<Platform>, Option<Watts>)> {
    vec![
        ("GPU", vec![Platform::gpu()], None),
        (
            "CPU+GPU",
            vec![Platform::cpu1(), Platform::gpu()],
            Some(Watts(230.0)),
        ),
    ]
}

/// The in-bench "lane ≡ reference enumeration" assertion over placement:
/// the SoA fast lane and the full reference enumeration must agree on
/// the selected (device, model, stage, power) for the node's actual
/// heterogeneous candidate table, across beliefs, goals, and probability
/// modes. Returns the number of agreement checks performed.
fn assert_lane_matches_reference(
    node: &str,
    platforms: &[Platform],
    shared_budget: Option<Watts>,
) -> usize {
    let family = FamilyKind::Image.family();
    let refs: Vec<&Platform> = platforms.iter().collect();
    let (table, _) = build_table(&family, &refs, shared_budget).expect("node table builds");
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    let mut checks = 0usize;
    for (mean, std) in [(1.0, 0.02), (1.6, 0.3), (0.8, 0.0)] {
        let xi = Normal::new(mean, std);
        for goal in [
            Goal::minimize_energy(Seconds(0.4), 0.9),
            Goal::minimize_energy(Seconds(0.05), 0.9),
            Goal::minimize_error(Seconds(0.4), Joules(8.0)),
        ] {
            for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                let fast = lane
                    .select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode)
                    .expect("valid goal");
                let full = select_with_period(&table, &xi, 0.25, &goal, goal.deadline, mode)
                    .expect("valid goal");
                assert_eq!(
                    fast, full,
                    "lane diverged from reference on {node} (mean={mean} std={std} {goal:?} {mode:?})"
                );
                checks += 1;
            }
        }
    }
    checks
}

/// Runs one placement row: every scheme on the same shared heterogeneous
/// frozen environment, with the per-scheme rebuild asserted bit-identical
/// across *every device's* realization grid and cap-ceiling timeline.
fn run_placement_row(
    node: &'static str,
    platforms: &[Platform],
    shared_budget: Option<Watts>,
    scenario: &Scenario,
    stream: &InputStream,
    seed: u64,
    identity_checks: &mut usize,
) -> Vec<PlacementCell> {
    let goal = base_goal();
    let primary = &platforms[0];
    let span = alert_workload::quality_span(&FamilyKind::Image.family(), primary);
    let build = || {
        EpisodeEnv::build_hetero(platforms, scenario, stream, &goal, seed, Some(span))
            .expect("library scenarios validate")
    };
    let reference = Arc::new(build());
    SCHEMES
        .iter()
        .map(|&scheme| {
            // The frozen-randomness guarantee, extended over placement:
            // a rebuild must match on device 0's realizations *and* on
            // every extra device's scripted cap-ceiling timeline.
            let rebuilt = build();
            assert_eq!(
                rebuilt.realizations(),
                reference.realizations(),
                "environment realization diverged for {scheme} on {node}/{}",
                scenario.name()
            );
            for d in 1..reference.device_count() {
                for i in 0..reference.len() {
                    assert_eq!(
                        rebuilt.cap_limit_on(d, i),
                        reference.cap_limit_on(d, i),
                        "device {d} cap timeline diverged for {scheme} on {node}/{}",
                        scenario.name()
                    );
                }
            }
            *identity_checks += 1;

            let mut builder = Runtime::builder()
                .platform(primary.id())
                .family(FamilyKind::Image)
                .seed(seed);
            for p in &platforms[1..] {
                builder = builder.extra_backend(p.id());
            }
            if let Some(b) = shared_budget {
                builder = builder.shared_budget(b);
            }
            let mut rt = builder.build().expect("builtin policy resolves");
            let id = rt
                .session(SessionSpec::external(goal))
                .policy(scheme)
                .on(stream.clone(), reference.clone())
                .open()
                .expect("registered policy builds");
            rt.run_to_completion(id).expect("episode runs");
            let ep = rt.close(id).expect("session open");
            let off_primary = ep.records.iter().filter(|r| r.device > 0).count();
            PlacementCell {
                node,
                scheme,
                scenario: scenario.name().to_string(),
                measured: ep.summary.measured,
                deadline_miss_rate: ep.summary.deadline_miss_rate,
                violation_rate: ep.summary.violation_rate(),
                avg_energy_j: ep.summary.avg_energy.get(),
                avg_quality: ep.summary.avg_quality,
                off_primary_share: off_primary as f64 / ep.records.len().max(1) as f64,
                disqualified: ep.summary.disqualified(),
            }
        })
        .collect()
}

/// Replays the scripted churn waves against a 4-shard `Runtime`: the
/// measured ALERT session steps input by input while background sessions
/// open and close at the scripted marks. Returns
/// (waves, opened, closed) and asserts the measured records are
/// bit-identical to an undisturbed serial run.
fn run_churn(scenario: &Scenario, n_inputs: usize, seed: u64) -> (usize, usize, usize) {
    let waves = scenario.script().churn_waves();
    assert!(!waves.is_empty(), "churn scenario must script waves");
    let spec = SessionSpec {
        goal: base_goal(),
        scenario: scenario.clone(),
        n_inputs,
        seed: Some(seed),
        policy: Some("ALERT".into()),
    };

    // Undisturbed reference.
    let mut rt = matrix_runtime(seed);
    let id = rt.session(spec.clone()).open().expect("spec valid");
    rt.run_to_completion(id).expect("episode runs");
    let reference = rt.close(id).expect("open").records;

    // Churned run: 4 shards, background sessions per scripted wave.
    let mut sharded = Runtime::builder()
        .platform(alert_platform::PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .seed(seed)
        .build_sharded(4)
        .expect("builtin policy resolves");
    let measured = sharded.session(spec.clone()).open().expect("spec valid");
    let mut background: Vec<alert_workload::SessionId> = Vec::new();
    let mut opened = 0usize;
    let mut closed = 0usize;
    let mut wave_iter = waves.iter().peekable();
    let mut records = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        while let Some(&&(at, open, close)) = wave_iter.peek() {
            if (at * n_inputs as f64) as usize > i {
                break;
            }
            wave_iter.next();
            for k in 0..open {
                let bg = sharded
                    .session(SessionSpec {
                        seed: Some(seed ^ (0x5bd1_e995 + (opened + k) as u64)),
                        ..spec.clone()
                    })
                    .open()
                    .expect("spec valid");
                // Give each background session some progress so closes
                // land on part-way sessions, like real churn.
                sharded.submit(bg).expect("open").expect("has inputs");
                background.push(bg);
            }
            opened += open;
            for _ in 0..close.min(background.len()) {
                let bg = background.remove(0);
                sharded.close(bg).expect("open");
                closed += 1;
            }
        }
        let r = sharded
            .submit(measured)
            .expect("open")
            .expect("stream not exhausted");
        records.push(r);
    }
    for bg in background {
        sharded.close(bg).expect("open");
    }
    let churned = sharded.close(measured).expect("open").records;
    assert_eq!(records, churned, "submit records must match the episode's");
    assert_eq!(
        churned, reference,
        "churn must not perturb the measured session (session isolation)"
    );
    (waves.len(), opened, closed)
}

/// Belief convergence under a scripted disturbance, read off the
/// decision-telemetry stream: how many inputs the slowdown posterior
/// takes to settle (the last decision whose posterior mean sits more
/// than 5% from the stream's final posterior), plus the excursion the
/// disturbance caused.
struct Convergence {
    scenario: String,
    decisions: usize,
    inputs_to_settle: usize,
    final_belief_mean: f64,
    peak_belief_mean: f64,
}

fn bench_convergence(scenario: &Scenario, n_inputs: usize, seed: u64) -> Convergence {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut rt = Runtime::builder()
        .platform(alert_platform::PlatformId::Cpu1)
        .family(FamilyKind::Image)
        .seed(seed)
        .telemetry(TelemetryConfig::Full)
        .sink(tx)
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
        .expect("spec valid");
    rt.run_to_completion(id).expect("episode runs");
    rt.close(id).expect("session open");
    drop(rt);
    let means: Vec<f64> = rx
        .iter()
        .filter_map(|e| match e {
            EpisodeEvent::Telemetry {
                event: TelemetryEvent::Decision(d),
            } => Some(d.post_mean),
            _ => None,
        })
        .collect();
    assert_eq!(
        means.len(),
        n_inputs,
        "{}: full telemetry must report every decision",
        scenario.name()
    );
    let final_mean = *means.last().expect("non-empty stream");
    let tol = 0.05 * final_mean.abs().max(1e-9);
    let inputs_to_settle = means
        .iter()
        .rposition(|m| (m - final_mean).abs() > tol)
        .map(|i| i + 1)
        .unwrap_or(0);
    Convergence {
        scenario: scenario.name().to_string(),
        decisions: means.len(),
        inputs_to_settle,
        final_belief_mean: final_mean,
        peak_belief_mean: means.iter().cloned().fold(f64::MIN, f64::max),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_inputs: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 50)
        .unwrap_or(300);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);

    banner(
        "Scenario matrix",
        "Scheme × scenario grid over the scripted dynamic-environment library",
    );
    println!("[{n_inputs} inputs per episode, seed {seed}]\n");

    let library = Scenario::library(seed);
    let stream = InputStream::generate(alert_workload::TaskId::Img2, n_inputs, seed);
    let mut identity_checks = 0usize;
    let mut cells: Vec<Cell> = Vec::new();

    csv_header(&[
        "scenario",
        "scheme",
        "miss_rate",
        "violation_rate",
        "avg_energy_j",
        "avg_quality",
        "overhead_us",
    ]);
    for scenario in &library {
        for cell in run_row(scenario, &stream, seed, &mut identity_checks) {
            csv_row(&[
                cell.scenario.clone(),
                cell.scheme.to_string(),
                f(cell.deadline_miss_rate, 4),
                f(cell.violation_rate, 4),
                f(cell.avg_energy_j, 3),
                f(cell.avg_quality, 4),
                f(cell.decision_overhead_us_mean, 2),
            ]);
            cells.push(cell);
        }
    }
    assert_eq!(
        cells.len(),
        SCHEMES.len() * library.len(),
        "matrix must be complete"
    );
    assert_eq!(identity_checks, cells.len());

    // Churn isolation, replayed on the sharded serving runtime.
    let churn_scenario = library
        .iter()
        .find(|s| s.name() == "Churn")
        .expect("library has Churn");
    let (waves, opened, closed) = run_churn(churn_scenario, n_inputs.min(120), seed);
    println!(
        "\n[churn isolation verified: {waves} waves, {opened} background sessions opened, \
         {closed} closed — measured session bit-identical]"
    );

    // Belief convergence on the disturbance scenarios, read off the
    // decision-telemetry stream.
    let mut convergence: Vec<Convergence> = Vec::new();
    for name in ["CapStorm", "GoalFlip"] {
        let scenario = library
            .iter()
            .find(|s| s.name() == name)
            .expect("library has disturbance scenario");
        let c = bench_convergence(scenario, n_inputs.min(150), seed);
        assert!(
            c.inputs_to_settle < c.decisions,
            "{name}: belief never settled ({} / {})",
            c.inputs_to_settle,
            c.decisions
        );
        println!(
            "\n[{name}: belief settles after {} / {} inputs (final ξ mean {:.3}, peak {:.3})]",
            c.inputs_to_settle, c.decisions, c.final_belief_mean, c.peak_belief_mean
        );
        convergence.push(c);
    }

    // Placement rows: the same scheme matrix on a GPU-primary node and a
    // shared-budget CPU+GPU node, over the quiescent scenario and the
    // heterogeneous serving scenario (GPU throttle + device-1 cap crash).
    let nodes = placement_nodes();
    let placement_scenarios: Vec<&Scenario> = library
        .iter()
        .filter(|s| s.name() == "Default" || s.name() == "HeteroServing")
        .collect();
    assert_eq!(placement_scenarios.len(), 2, "library names changed");
    let mut lane_checks = 0usize;
    let mut placement_identity_checks = 0usize;
    let mut placement_cells: Vec<PlacementCell> = Vec::new();
    println!("\n[placement matrix: GPU and CPU+GPU nodes]");
    csv_header(&[
        "node",
        "scenario",
        "scheme",
        "miss_rate",
        "violation_rate",
        "avg_energy_j",
        "avg_quality",
        "off_primary_share",
    ]);
    for (node, platforms, budget) in &nodes {
        lane_checks += assert_lane_matches_reference(node, platforms, *budget);
        for scenario in &placement_scenarios {
            for cell in run_placement_row(
                node,
                platforms,
                *budget,
                scenario,
                &stream,
                seed,
                &mut placement_identity_checks,
            ) {
                csv_row(&[
                    cell.node.to_string(),
                    cell.scenario.clone(),
                    cell.scheme.to_string(),
                    f(cell.deadline_miss_rate, 4),
                    f(cell.violation_rate, 4),
                    f(cell.avg_energy_j, 3),
                    f(cell.avg_quality, 4),
                    f(cell.off_primary_share, 3),
                ]);
                placement_cells.push(cell);
            }
        }
    }
    assert_eq!(
        placement_cells.len(),
        SCHEMES.len() * nodes.len() * placement_scenarios.len(),
        "placement matrix must be complete"
    );
    assert_eq!(placement_identity_checks, placement_cells.len());
    for c in placement_cells.iter().filter(|c| c.scheme == "Oracle") {
        // The perfect-knowledge oracle sees every device's scripted
        // future, so it never misses a deadline on any node.
        assert_eq!(
            c.deadline_miss_rate, 0.0,
            "Oracle missed deadlines on {}/{}",
            c.node, c.scenario
        );
    }
    println!(
        "\n[placement verified: {lane_checks} lane≡reference checks, \
         {placement_identity_checks} hetero env identity checks, Oracle 0% miss on all nodes]"
    );

    let doc = serde_json::json!({
        "bench": "scenario_matrix",
        "n_inputs_per_episode": n_inputs,
        "seed": seed,
        "goal": serde_json::json!({
            "objective": "MinimizeEnergy", "deadline_s": 0.4, "min_quality": 0.9,
        }),
        "schemes": SCHEMES,
        "scenarios": library.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
        "env_identity_checks": identity_checks,
        "telemetry": serde_json::json!({
            "belief_convergence": convergence.iter().map(|c| serde_json::json!({
                "scenario": c.scenario,
                "decisions": c.decisions,
                "inputs_to_settle": c.inputs_to_settle,
                "final_belief_mean": c.final_belief_mean,
                "peak_belief_mean": c.peak_belief_mean,
            })).collect::<Vec<_>>(),
        }),
        "churn": serde_json::json!({
            "waves": waves,
            "background_opened": opened,
            "background_closed": closed,
            "isolation_verified": true,
        }),
        "cells": cells.iter().map(|c| serde_json::json!({
            "scheme": c.scheme,
            "scenario": c.scenario,
            "stress": c.stress,
            "measured": c.measured,
            "deadline_miss_rate": c.deadline_miss_rate,
            "violation_rate": c.violation_rate,
            "avg_energy_j": c.avg_energy_j,
            "avg_quality": c.avg_quality,
            "disqualified": c.disqualified,
        })).collect::<Vec<_>>(),
        "placement": serde_json::json!({
            "nodes": nodes.iter().map(|(n, platforms, budget)| serde_json::json!({
                "node": n,
                "backends": platforms.iter().map(|p| p.id().to_string()).collect::<Vec<_>>(),
                "shared_budget_w": budget.map(|b| b.get()),
            })).collect::<Vec<_>>(),
            "scenarios": placement_scenarios.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
            "lane_identity_checks": lane_checks,
            "env_identity_checks": placement_identity_checks,
            "cells": placement_cells.iter().map(|c| serde_json::json!({
                "node": c.node,
                "scheme": c.scheme,
                "scenario": c.scenario,
                "measured": c.measured,
                "deadline_miss_rate": c.deadline_miss_rate,
                "violation_rate": c.violation_rate,
                "avg_energy_j": c.avg_energy_j,
                "avg_quality": c.avg_quality,
                "off_primary_share": c.off_primary_share,
                "disqualified": c.disqualified,
            })).collect::<Vec<_>>(),
        }),
    });
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scenarios.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .expect("write BENCH_scenarios.json");
    println!("[matrix written to {}]", path.display());

    // Decision timing depends on the machine, so it stays out of the
    // committed matrix, which must reproduce byte for byte.
    write_json(
        "scenarios_timing.json",
        &serde_json::json!({
            "bench": "scenario_matrix_timing",
            "n_inputs_per_episode": n_inputs,
            "seed": seed,
            "cells": cells.iter().map(|c| serde_json::json!({
                "scheme": c.scheme,
                "scenario": c.scenario,
                "decision_overhead_us_mean": c.decision_overhead_us_mean,
            })).collect::<Vec<_>>(),
        }),
    );
}
