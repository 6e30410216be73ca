//! The repository benchmark: five workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a decorated run with `--trace`,
//! in-benchmark correctness checks, and `--compare` for before/after
//! tables. See `README.md` next to this crate for the workloads, the
//! metric definitions and bounds, and the measured spread.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --compare BEFORE.json AFTER.json
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 when every check passed,
//! 1 when one failed, 2 on a usage error.

mod compare;
mod metrics;
mod stats;
mod trace;
mod workloads;

use compare::{MetricDoc, RunDoc, WorkloadDoc};
use metrics::{MetricDef, END_TO_END, INFO, PER_LAYER};
use serde_json::{json, Map, Value};
use std::io::Write as _;
use std::process::ExitCode;
use workloads::{Outcome, Size, Workload};

const USAGE: &str = "usage: benchmark [--workload steady|volatile|storm|fanout|observed] \
                     [--seed N] [--seconds S] [--trace [0|1]]\n       \
                     benchmark --compare BEFORE.json AFTER.json";

/// Where runs are saved, relative to the working directory.
const RESULTS_DIR: &str = "results/benchmark";

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workloads = Workload::ALL.to_vec();
    let (mut seed, mut seconds, mut trace) = (2020u64, 10.0f64, false);
    let mut it = args.iter().peekable();
    fn value(flag: &str, it: &mut impl Iterator<Item = impl ToString>) -> Result<String, String> {
        it.next()
            .map(|v| v.to_string())
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload", &mut it)?;
                workloads =
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => {
                seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                // `--trace` alone, or with an explicit 0/1.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some(flag @ ("0" | "1")) => {
                        let on = flag == "1";
                        it.next();
                        on
                    }
                    _ => true,
                };
            }
            "--compare" => {
                let before = value("--compare", &mut it)?;
                let after = value("--compare", &mut it)?;
                return Ok(Command::Compare(before, after));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn print_outcome(o: &Outcome, trace: bool) {
    let w = o.workload.name();
    let tables: &[&[MetricDef]] = if trace {
        &[PER_LAYER]
    } else {
        &[END_TO_END, INFO]
    };
    for def in tables.iter().copied().flatten() {
        let Some(m) = o.metrics.get(def.name) else {
            continue;
        };
        let mut line = format!("{w} {} {} {}", def.name, m.value, m.unit);
        if m.samples > 0 {
            line += &format!(" n={}", m.samples);
        }
        if !trace && def.bound.is_none() {
            line += " (not gated)";
        }
        println!("{line}");
    }
    for (name, ok) in &o.checks {
        println!("{w} check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("{w} attempted {} failed {}", o.attempted, o.failed);
}

fn run_doc(outcomes: &[Outcome], seed: u64, seconds: f64, trace: bool) -> RunDoc {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let doc = WorkloadDoc {
                correct: o.correct(),
                checks: o
                    .checks
                    .iter()
                    .map(|(n, ok)| (n.to_string(), *ok))
                    .collect(),
                attempted: o.attempted,
                failed: o.failed,
                metrics: o
                    .metrics
                    .iter()
                    .map(|(name, m)| {
                        let doc = MetricDoc {
                            value: m.value,
                            unit: m.unit.to_string(),
                            samples: m.samples as u64,
                            reps: m.reps.clone(),
                        };
                        (name.to_string(), doc)
                    })
                    .collect(),
            };
            (o.workload.name().to_string(), doc)
        })
        .collect();
    RunDoc {
        seed,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workloads,
    }
}

fn trace_doc(outcomes: &[Outcome]) -> Value {
    let mut by_workload = Map::new();
    for o in outcomes {
        let spans: Vec<Value> = o
            .dump
            .iter()
            .map(|(id, s, parent)| {
                json!({
                    "id": id,
                    "parent": parent,
                    "name": s.name,
                    "thread": s.thread,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "session": s.session,
                    "index": s.index,
                })
            })
            .collect();
        by_workload.insert(o.workload.name().to_string(), Value::Array(spans));
    }
    Value::Object(by_workload)
}

/// Saves `run.json`, appends to `runs.jsonl`, and writes `trace.json`
/// for traced runs. Failing to save does not fail the benchmark.
fn save(doc: &RunDoc, outcomes: &[Outcome]) -> std::io::Result<()> {
    let dir = std::path::Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let pretty = serde_json::to_string_pretty(doc).map_err(std::io::Error::other)?;
    std::fs::write(dir.join("run.json"), pretty)?;
    let line = serde_json::to_string(doc).map_err(std::io::Error::other)?;
    let mut runs = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(runs, "{line}")?;
    if doc.trace {
        let spans = serde_json::to_string(&trace_doc(outcomes)).map_err(std::io::Error::other)?;
        std::fs::write(dir.join("trace.json"), spans)?;
    }
    Ok(())
}

/// The last line of output: end-to-end (or, traced, per-layer) metrics.
/// With more than one workload, names are prefixed `workload/`.
fn result_line(outcomes: &[Outcome], trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Map::new();
    for o in outcomes {
        for def in defs {
            let value = o.metrics.get(def.name).map_or(0.0, |m| m.value);
            let key = if outcomes.len() == 1 {
                def.name.to_string()
            } else {
                format!("{}/{}", o.workload.name(), def.name)
            };
            metrics.insert(key, json!({"value": value, "unit": def.unit}));
        }
    }
    let line = json!({
        "correct": outcomes.iter().all(Outcome::correct),
        "attempted": outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        "failed": outcomes.iter().map(|o| o.failed).sum::<u64>(),
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).unwrap_or_default()
}

fn compare(before: &str, after: &str) -> ExitCode {
    let (before, after) = match (compare::load(before), compare::load(after)) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::rows(&before, &after);
    print!("{}", compare::render(&rows, (before.len(), after.len())));
    if rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed)
    {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (workloads, seed, seconds, trace) = match parse_args(&args) {
        Ok(Command::Run {
            workloads,
            seed,
            seconds,
            trace,
        }) => (workloads, seed, seconds, trace),
        Ok(Command::Compare(before, after)) => return compare(&before, &after),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for (i, &w) in workloads.iter().enumerate() {
        if i > 0 {
            workloads::reset_peak_rss();
        }
        let outcome = workloads::run(w, &Size::FULL, seed, seconds, trace);
        print_outcome(&outcome, trace);
        outcomes.push(outcome);
    }
    let doc = run_doc(&outcomes, seed, seconds, trace);
    if let Err(e) = save(&doc, &outcomes) {
        eprintln!("could not save results under {RESULTS_DIR}: {e}");
    }
    println!("{}", result_line(&outcomes, trace));
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_parse() {
        let cmd = parse_args(&args("--workload storm --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                workloads: vec![Workload::Storm],
                seed: 7,
                seconds: 10.0,
                trace: false
            }
        );
        let Command::Run {
            trace, workloads, ..
        } = parse_args(&args("--trace")).unwrap()
        else {
            panic!("a run");
        };
        assert!(trace);
        assert_eq!(workloads.len(), 5);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
        assert_eq!(
            parse_args(&args("--compare a.json b.json")).unwrap(),
            Command::Compare("a.json".into(), "b.json".into())
        );
    }

    /// The catalog in code and `BENCHMARK.json` at the repository root
    /// name the same metrics with the same units, directions and bounds.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Value::Object(doc) = doc else {
            panic!("BENCHMARK.json is an object");
        };
        let field = |m: &Map, k: &str| m.get(k).cloned().unwrap_or(Value::Null);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                let Value::Object(entry) = entry else {
                    panic!("{key} entries are objects");
                };
                assert_eq!(field(entry, "name"), Value::String(def.name.into()));
                assert_eq!(field(entry, "unit"), Value::String(def.unit.into()));
                assert_eq!(
                    field(entry, "better"),
                    Value::String(def.better.as_str().into())
                );
                if let Some(bound) = def.bound {
                    assert_eq!(field(entry, "bound").as_f64(), Some(bound), "{}", def.name);
                }
            }
        }
        let Some(Value::Array(listed)) = doc.get("workloads") else {
            panic!("workloads is a list");
        };
        let names: Vec<Value> = listed
            .iter()
            .map(|w| match w {
                Value::Object(w) => field(w, "name"),
                _ => Value::Null,
            })
            .collect();
        let expected: Vec<Value> = Workload::ALL
            .iter()
            .map(|w| Value::String(w.name().into()))
            .collect();
        assert_eq!(names, expected);
    }

    /// A tiny run of every workload reports every metric `BENCHMARK.json`
    /// names (end-to-end untraced, per-layer traced), all checks pass, and
    /// nothing fails.
    #[test]
    fn tiny_runs_emit_every_metric_and_pass_their_checks() {
        for w in Workload::ALL {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let o = workloads::run(w, &Size::TINY, 11, 0.0, trace);
                for def in table {
                    let m = o
                        .metrics
                        .get(def.name)
                        .unwrap_or_else(|| panic!("{} misses {}", w.name(), def.name));
                    assert!(m.value.is_finite(), "{} {}", w.name(), def.name);
                }
                assert!(o.correct(), "{} checks: {:?}", w.name(), o.checks);
                assert_eq!(o.failed, 0, "{}", w.name());
                assert!(o.attempted > 0);
                let line = result_line(std::slice::from_ref(&o), trace);
                assert!(line.starts_with("{\"attempted\":"), "{line}");
            }
        }
    }
}
