//! End-to-end integration tests: full episodes across all crates,
//! asserting the paper's qualitative findings hold on the reproduction.

use alert::models::ModelFamily;
use alert::platform::Platform;
use alert::sched::{
    run_episode, AlertScheduler, AppOnly, EpisodeEnv, NoCoord, Oracle, OracleStatic, Scheduler,
    SysOnly,
};
use alert::stats::units::{Seconds, Watts};
use alert::workload::{Goal, InputStream, Scenario, TaskId};
use std::sync::Arc;

struct World {
    node: [Platform; 1],
    family: ModelFamily,
    stream: InputStream,
    goal: Goal,
    env: Arc<EpisodeEnv>,
}

fn world(goal: Goal, scenario: Scenario, n: usize, seed: u64) -> World {
    let node = [Platform::cpu1()];
    let family = ModelFamily::image_classification();
    let stream = InputStream::generate(TaskId::Img2, n, seed);
    let env = Arc::new(EpisodeEnv::build(&node, &scenario, &stream, &goal, seed, None).unwrap());
    World {
        node,
        family,
        stream,
        goal,
        env,
    }
}

fn run(w: &World, s: &mut dyn Scheduler) -> alert::sched::Episode {
    run_episode(s, &w.env, &w.family, &w.stream, &w.goal).unwrap()
}

/// Paper §5.2 ordering on one representative minimize-energy setting:
/// Oracle ≤ ALERT ≪ App-only; ALERT honors the constraints.
#[test]
fn energy_ordering_holds_under_contention() {
    let w = world(
        Goal::minimize_energy(Seconds(0.4), 0.90),
        Scenario::memory_env(21),
        400,
        21,
    );
    let mut alert = AlertScheduler::standard(&w.family, &w.node[0], w.goal).unwrap();
    let mut oracle = Oracle::new(w.env.clone(), w.family.clone(), w.goal).unwrap();
    let mut app = AppOnly::new(&w.family, &w.node[0]).unwrap();

    let ep_alert = run(&w, &mut alert);
    let ep_oracle = run(&w, &mut oracle);
    let ep_app = run(&w, &mut app);

    assert!(
        ep_alert.summary.violation_rate() <= 0.10,
        "ALERT violations"
    );
    assert!(
        ep_oracle.summary.avg_energy.get() <= ep_alert.summary.avg_energy.get() * 1.05,
        "oracle {} vs alert {}",
        ep_oracle.summary.avg_energy,
        ep_alert.summary.avg_energy
    );
    assert!(
        ep_app.summary.avg_energy.get() > ep_alert.summary.avg_energy.get() * 1.25,
        "app-only must waste energy: {} vs {}",
        ep_app.summary.avg_energy,
        ep_alert.summary.avg_energy
    );
}

/// Sys-only cannot meet accuracy floors above its pinned fastest model.
#[test]
fn sys_only_structurally_violates_high_floors() {
    // Floor 0.90: comfortably above the fastest model (0.855), comfortably
    // below what Sparse ResNet-50 delivers (grid-realistic).
    let w = world(
        Goal::minimize_energy(Seconds(0.5), 0.90),
        Scenario::default_env(),
        200,
        3,
    );
    let mut sys = SysOnly::new(&w.family, &w.node, w.goal).unwrap();
    let ep = run(&w, &mut sys);
    assert!(ep.summary.disqualified());
    // ALERT meets the same floor.
    let mut alert = AlertScheduler::standard(&w.family, &w.node[0], w.goal).unwrap();
    let ep = run(&w, &mut alert);
    assert!(!ep.summary.disqualified());
}

/// No-coord is beaten by ALERT-Any with the identical candidate set
/// (paper §5.2: coordination is the difference, not the candidates).
#[test]
fn coordination_beats_no_coordination() {
    let w = world(
        Goal::minimize_error(Seconds(0.4), Watts(25.0) * Seconds(0.4)),
        Scenario::memory_env(5),
        400,
        5,
    );
    let mut alert_any = AlertScheduler::anytime_only(&w.family, &w.node[0], w.goal).unwrap();
    let mut nc = NoCoord::new(&w.family, &w.node, w.goal).unwrap();
    let ep_any = run(&w, &mut alert_any);
    let ep_nc = run(&w, &mut nc);
    // Table 4 semantics: disqualification first; among qualified episodes,
    // compare the objective (error = 1 − quality here).
    let score = |e: &alert::sched::Episode| (e.summary.disqualified(), 1.0 - e.summary.avg_quality);
    assert!(
        score(&ep_any) <= score(&ep_nc),
        "ALERT-Any {:?} must beat No-coord {:?}",
        score(&ep_any),
        score(&ep_nc)
    );
}

/// Episodes are bit-reproducible (same seed) and sensitive to the seed.
#[test]
fn determinism_and_seed_sensitivity() {
    let mk = |seed: u64| {
        let w = world(
            Goal::minimize_energy(Seconds(0.4), 0.90),
            Scenario::compute_env(seed),
            150,
            seed,
        );
        let mut alert = AlertScheduler::standard(&w.family, &w.node[0], w.goal).unwrap();
        run(&w, &mut alert)
    };
    let a = mk(9);
    let b = mk(9);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.model, y.model);
        assert_eq!(x.cap, y.cap);
        assert_eq!(x.latency, y.latency);
    }
    let c = mk(10);
    let same = a
        .records
        .iter()
        .zip(&c.records)
        .all(|(x, y)| x.latency == y.latency);
    assert!(!same, "different seeds must differ");
}

/// The paper's static baseline is pinned across the whole requirement
/// range (one configuration per cell): provisioned for the tight setting,
/// it must waste energy on the loose one, where ALERT downshifts.
#[test]
fn static_baseline_pays_for_rigidity() {
    let node = [Platform::cpu1()];
    let family = ModelFamily::image_classification();
    let stream = InputStream::generate(TaskId::Img2, 300, 33);
    // Conflicting demands: the tight setting needs an accurate model at
    // speed; the loose one is satisfiable by the cheapest candidates.
    let tight = Goal::minimize_energy(Seconds(0.35), 0.90);
    let loose = Goal::minimize_energy(Seconds(0.70), 0.80);
    let scenario = Scenario::memory_env(33);
    let mk_env =
        |g: &Goal| Arc::new(EpisodeEnv::build(&node, &scenario, &stream, g, 33, None).unwrap());
    let cell = vec![(mk_env(&tight), tight), (mk_env(&loose), loose)];
    let choice = OracleStatic::for_cell(&cell, family.clone(), &stream)
        .unwrap()
        .choice();

    // Replay the pinned configuration on the loose setting.
    let mut st = OracleStatic::from_choice(choice);
    let loose_env = mk_env(&loose);
    let ep_static = run_episode(&mut st, &loose_env, &family, &stream, &loose).unwrap();
    let mut alert = AlertScheduler::standard(&family, &node[0], loose).unwrap();
    let ep_alert = run_episode(&mut alert, &loose_env, &family, &stream, &loose).unwrap();
    assert!(
        ep_alert.summary.avg_energy.get() < ep_static.summary.avg_energy.get(),
        "ALERT ({:.2} J) must beat the cell-pinned static ({:.2} J) on the loose setting",
        ep_alert.summary.avg_energy.get(),
        ep_static.summary.avg_energy.get()
    );
}

/// NLP sentence budgets: ALERT on grouped streams meets sentence-shared
/// deadlines and beats Sys-only on perplexity.
#[test]
fn sentence_prediction_end_to_end() {
    let node = [Platform::cpu1()];
    let family = ModelFamily::sentence_prediction();
    let stream = InputStream::generate(TaskId::Nlp1, 600, 8);
    let goal = Goal::minimize_error(Seconds(0.08), Watts(30.0) * Seconds(0.08));
    let env = Arc::new(
        EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 8, None).unwrap(),
    );
    let mut alert = AlertScheduler::standard(&family, &node[0], goal).unwrap();
    let ep_alert = run_episode(&mut alert, &env, &family, &stream, &goal).unwrap();
    let mut sys = SysOnly::new(&family, &node, goal).unwrap();
    let ep_sys = run_episode(&mut sys, &env, &family, &stream, &goal).unwrap();
    assert!(ep_alert.summary.violation_rate() <= 0.10);
    // Perplexity = -quality; ALERT must be at least as good.
    assert!(
        -ep_alert.summary.avg_quality <= -ep_sys.summary.avg_quality + 1e-9,
        "alert ppl {} vs sys ppl {}",
        -ep_alert.summary.avg_quality,
        -ep_sys.summary.avg_quality
    );
}

/// Degenerate candidate set: a single traditional model still works (the
/// controller has no choice but still manages power).
#[test]
fn single_model_family_works() {
    use alert::models::family::sparse_resnet_family;
    let node = [Platform::cpu1()];
    let family = ModelFamily::new("single", vec![sparse_resnet_family()[2].clone()]);
    let stream = InputStream::generate(TaskId::Img2, 150, 4);
    let goal = Goal::minimize_energy(Seconds(0.5), 0.90);
    let env = Arc::new(
        EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 4, None).unwrap(),
    );
    let mut alert = AlertScheduler::standard(&family, &node[0], goal).unwrap();
    let ep = run_episode(&mut alert, &env, &family, &stream, &goal).unwrap();
    assert_eq!(ep.records.len(), 150);
    // All decisions use the single model; caps may vary.
    assert!(ep.records.iter().all(|r| r.model == "sparse_resnet_26"));
}

/// Infeasible goals degrade gracefully: the scheduler still dispatches
/// every input and the harness completes.
#[test]
fn impossible_deadline_degrades_gracefully() {
    let w = world(
        Goal::minimize_energy(Seconds(0.002), 0.90),
        Scenario::default_env(),
        80,
        6,
    );
    let mut alert = AlertScheduler::standard(&w.family, &w.node[0], w.goal).unwrap();
    let ep = run(&w, &mut alert);
    assert_eq!(ep.records.len(), 80);
    assert!(ep.summary.disqualified(), "everything misses, by design");
}
