//! Serving front-end integration: queue-bound shed behavior, frozen
//! storm determinism across admission policies, trace-replayed storms,
//! and degraded-floor billing (an admission-time `GoalPatch` downgrade
//! becomes the *effective* goal the episode's records carry and are
//! judged against).

use alert::sched::prelude::*;
use alert::stats::units::Seconds;
use alert::workload::{quality_span, EpisodeSummary, TraceFit, TraceSource, TraceStep};
use proptest::prelude::*;

fn runtime(workers: usize) -> Runtime {
    Runtime::builder()
        .seed(7)
        .build_sharded(workers)
        .expect("builtin policies resolve")
}

fn config() -> ServingConfig {
    ServingConfig::new(Goal::minimize_energy(Seconds(0.4), 0.9))
}

fn periodic_storm(n: usize, gap: f64, seed: u64) -> Vec<RequestArrival> {
    generate_storm(
        &StormSpec {
            arrival: ArrivalProcess::Periodic,
            n_requests: n,
            mean_gap: Seconds(gap),
            seed,
        },
        None,
    )
    .expect("valid storm")
}

/// Queue-full shedding is ordered and per-shard: with two shards of
/// capacity 1 and arrivals far faster than service, each shard admits
/// exactly its first request and drop-tails every later arrival routed
/// to it while that request is still in flight.
#[test]
fn queue_full_sheds_later_arrivals_per_shard() {
    let mut rt = runtime(2);
    let mut cfg = config();
    cfg.queue_capacity = 1;
    let storm = periodic_storm(10, 1e-4, 2020);
    let report = serve(&mut rt, &cfg, &storm, &mut DropTail).expect("serving runs");
    for o in &report.outcomes {
        assert_eq!(o.shard, o.index % 2, "round-robin routing");
        let expected = if o.index < 2 {
            AdmissionVerdict::Admitted
        } else {
            AdmissionVerdict::Shed
        };
        assert_eq!(
            o.verdict, expected,
            "request {} on shard {}: first arrival per shard is admitted, \
             the rest are shed in order",
            o.index, o.shard
        );
    }
    assert_eq!(report.admitted(), 2);
    assert_eq!(report.shed(), 8);
}

/// A zero-capacity queue sheds everything under both bounded policies,
/// while always-admit (which deliberately ignores the bound) still
/// serves.
#[test]
fn zero_capacity_shard_sheds_under_bounded_policies() {
    let storm = periodic_storm(6, 0.05, 2020);
    let mut cfg = config();
    cfg.queue_capacity = 0;

    let mut rt = runtime(2);
    let report = serve(&mut rt, &cfg, &storm, &mut DropTail).expect("serving runs");
    assert_eq!(report.shed(), 6);
    assert_eq!(report.goodput(), 0.0);

    let mut rt = runtime(2);
    let mut alert_policy = admission_policy("ALERT", &rt).expect("known policy");
    let report = serve(&mut rt, &cfg, &storm, &mut alert_policy).expect("serving runs");
    assert_eq!(report.shed(), 6, "the queue bound binds before belief");

    let mut rt = runtime(2);
    let report = serve(&mut rt, &cfg, &storm, &mut AlwaysAdmit).expect("serving runs");
    assert_eq!(report.shed(), 0);
    assert!(report.goodput() > 0.0);
}

/// A storm generated from a recorded trace replays the recorded
/// inter-arrivals verbatim, and serving it twice (fresh runtime and
/// policy each time) is bit-identical.
#[test]
fn trace_replayed_storm_serves_bit_identically() {
    let steps: Vec<TraceStep> = (0..10)
        .map(|i| TraceStep {
            inter_arrival: Seconds(0.08 + 0.037 * (i % 4) as f64),
            scale: 1.0,
        })
        .collect();
    let src = TraceSource::new("serving-storm", steps.clone());
    let spec = StormSpec {
        arrival: ArrivalProcess::Trace {
            fit: TraceFit::Loop,
        },
        n_requests: 20,
        mean_gap: Seconds(0.1),
        seed: 2020,
    };

    let run = || {
        let storm = generate_storm(&spec, Some(&src)).expect("valid storm");
        // The storm replays the recorded gaps bit for bit (looped onto
        // the horizon).
        let mut t: f64 = 0.0;
        for r in &storm {
            assert_eq!(r.at.get().to_bits(), t.to_bits(), "request {}", r.index);
            t += steps[r.index % steps.len()].inter_arrival.get();
        }
        let mut rt = runtime(2);
        let mut policy = admission_policy("ALERT", &rt).expect("known policy");
        serve(&mut rt, &config(), &storm, &mut policy).expect("serving runs")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "trace storm replay diverged"
    );
    assert_eq!(a.outcomes, b.outcomes);
}

/// Degraded admission is billed against the degraded floor (the
/// satellite fix): the patch lands in the session's goal *before* it
/// opens, so every record carries the degraded floor as its effective
/// goal and the episode summary judges against it — not the original.
#[test]
fn degraded_requests_are_billed_against_the_degraded_floor() {
    // A goal whose full-quality form is infeasible outright (the floor
    // admits only slow candidates, the deadline is below their latency)
    // but whose degraded form is comfortably feasible: every admitted
    // request must come out Degraded.
    let mut rt = runtime(2);
    let span = quality_span(rt.family(), rt.platform());
    let goal = Goal::minimize_energy(Seconds(0.25), 0.93);
    let mut cfg = config();
    cfg.goal = goal;
    let mut policy = admission_policy("ALERT", &rt).expect("known policy");
    let storm = periodic_storm(8, 2.0, 2020);
    let report = serve(&mut rt, &cfg, &storm, &mut policy).expect("serving runs");

    let degraded_floor = span.floor_at(0.25);
    assert!(
        degraded_floor < 0.93,
        "degraded floor {degraded_floor} must sit below the original"
    );
    assert!(report.degraded() > 0, "this goal must force degradation");
    for o in report.outcomes.iter() {
        if o.verdict == AdmissionVerdict::Degraded {
            assert_eq!(
                o.effective_min_quality,
                Some(degraded_floor),
                "request {}: the effective floor is the degraded one",
                o.index
            );
        }
    }

    // The same mechanism, observed directly on the records: a patched
    // goal opens the session, its records carry the degraded floor, and
    // the summary — even when folded under the *original* goal — bills
    // against the floor in force at dispatch.
    let patch = GoalPatch::floor_frac(0.25);
    let mut degraded_goal = goal;
    patch.apply(&mut degraded_goal, Some(span));
    let mut rt = runtime(1);
    let id = rt
        .session(SessionSpec {
            goal: degraded_goal,
            scenario: Scenario::default_env(),
            n_inputs: 8,
            seed: Some(11),
            policy: None,
        })
        .open()
        .expect("session opens");
    rt.run_to_completion(id).expect("episode runs");
    let episode = rt.close(id).expect("session open");
    for r in &episode.records {
        assert_eq!(
            r.min_quality,
            Some(degraded_floor),
            "input {}: records carry the degraded floor as the effective goal",
            r.index
        );
    }
    let billed = EpisodeSummary::from_records(&episode.records, &goal);
    assert_eq!(
        billed.quality_floor_met, episode.summary.quality_floor_met,
        "billing against the original goal must still judge by the \
         per-record (degraded) floors in force"
    );
}

proptest! {
    /// Shed-vs-degrade determinism: the same seed produces the
    /// bit-identical storm for every admission policy (identical
    /// arrival times and per-request inputs), every policy's full
    /// outcome log replays bit-identically run over run, and the three
    /// policies face the identical request sequence. One of the three
    /// policies is double-run per case (the others are cross-checked on
    /// arrivals) to keep the vendored 96-case shim fast.
    #[test]
    fn same_seed_is_bit_identical_across_policies_and_runs(
        seed in 0i64..64,
        n in 8usize..14,
        gap_kind in 0usize..3,
        workers in 1usize..4,
        replayed in 0usize..3,
    ) {
        let gap = [0.05, 0.2, 0.6][gap_kind];
        let arrival = match gap_kind {
            0 => ArrivalProcess::Poisson { rate_scale: 1.0 },
            1 => ArrivalProcess::Bursty { burst: 3, spread: 0.2 },
            _ => ArrivalProcess::Periodic,
        };
        let spec = StormSpec {
            arrival,
            n_requests: n,
            mean_gap: Seconds(gap),
            seed: seed as u64,
        };
        let names = ["Always-admit", "Drop-tail", "ALERT"];
        let run = |name: &str| {
            let storm = generate_storm(&spec, None).expect("valid storm");
            let mut rt = runtime(workers);
            let mut policy = admission_policy(name, &rt).expect("known policy");
            serve(&mut rt, &config(), &storm, &mut policy).expect("serving runs")
        };
        let reports: Vec<ServingReport> = names.iter().map(|name| run(name)).collect();
        // Replay one policy end to end: storm generation, runtime, and
        // admission must reproduce the outcome log bit for bit.
        let again = run(names[replayed]);
        prop_assert_eq!(
            again.fingerprint(),
            reports[replayed].fingerprint(),
            "policy {} diverged across runs", names[replayed]
        );
        // Every policy faced the identical storm: same arrivals, same
        // shard routing, request by request.
        for r in &reports[1..] {
            prop_assert_eq!(r.offered(), reports[0].offered());
            for (x, y) in r.outcomes.iter().zip(&reports[0].outcomes) {
                prop_assert_eq!(x.index, y.index);
                prop_assert_eq!(x.arrival.get().to_bits(), y.arrival.get().to_bits());
                prop_assert_eq!(x.shard, y.shard);
            }
        }
    }
}

/// ALERT admission builds its controller from the runtime's own
/// params, so its belief tracks serving conditions exactly as an
/// in-session ALERT scheduler's would: after the same observed records,
/// its probe reports the belief of a controller built with those
/// params.
#[test]
fn admission_belief_follows_the_runtime_params() {
    use alert::core::alert::{AlertController, AlertParams};
    use alert::models::family::CandidateSet;
    use alert::stats::kalman::AdaptiveKalmanParams;

    let params = AlertParams {
        kalman: AdaptiveKalmanParams {
            mu0: 1.5,
            q0: 0.2,
            ..AdaptiveKalmanParams::default()
        },
        ..AlertParams::default()
    };
    let mut rt = Runtime::builder()
        .seed(7)
        .params(params)
        .build()
        .expect("builtin policies resolve");
    let degrade = GoalPatch::floor_frac(alert::sched::serving::DEFAULT_DEGRADE_FRAC);
    let threshold = alert::sched::serving::DEFAULT_MISS_THRESHOLD;
    let mut admission = AlertAdmission::for_runtime(&rt, degrade, threshold).unwrap();
    let node: Vec<&alert::platform::Platform> = rt.node().iter().collect();
    let tables = alert::sched::alert::decision_tables(
        rt.family(),
        CandidateSet::Standard,
        &node,
        rt.spec().shared_budget,
    )
    .unwrap();
    let mut reference = AlertAdmission::new(
        AlertController::with_tables(tables, params).unwrap(),
        quality_span(rt.family(), rt.platform()),
        degrade,
        threshold,
    )
    .unwrap();

    let id = rt
        .session(SessionSpec {
            goal: config().goal,
            scenario: Scenario::memory_env(7),
            n_inputs: 40,
            seed: Some(7),
            policy: None,
        })
        .open()
        .unwrap();
    rt.run_to_completion(id).unwrap();
    for record in &rt.close(id).unwrap().records {
        admission.observe(record);
        reference.observe(record);
    }
    let ctx = RequestContext {
        index: 0,
        arrival: Seconds(0.0),
        shard: 0,
        queue_depth: 0,
        queue_capacity: 4,
        predicted_wait: Seconds(0.0),
        goal: config().goal,
        inputs_per_request: 1,
    };
    admission.assess(&ctx);
    reference.assess(&ctx);
    let belief = |p: &AlertAdmission| p.last_probe().and_then(|probe| probe.belief);
    assert!(
        belief(&reference).is_some(),
        "ALERT admission keeps a belief"
    );
    assert_eq!(belief(&admission), belief(&reference));
}
