//! Integration tests of the \[63\] power manager the two system-level
//! baselines share (paper Table 3, §5.2). Sys-only pins the fastest
//! traditional DNN, No-coord the first anytime DNN; both place the
//! pinned model on one node device and then pick, per input, the
//! minimum-energy cap whose predicted latency meets the deadline (and,
//! under minimize-error, whose predicted period energy fits the budget).
//!
//! Every expectation is recomputed here from the public profiling API,
//! not read back from the schemes.

use alert::models::inference;
use alert::models::ModelFamily;
use alert::platform::Platform;
use alert::sched::{Decision, InputContext, NoCoord, Scheduler, SysOnly};
use alert::stats::units::{Joules, Seconds, Watts};
use alert::workload::Goal;

fn ctx(deadline: Seconds) -> InputContext {
    InputContext {
        index: 0,
        deadline,
        period: deadline,
        group: None,
    }
}

/// The device a baseline should place on: the one where the model it
/// pins there profiles fastest at that device's top cap, ties to the
/// lower index. `pinned(d)` is the model the scheme pins on device `d`
/// alone.
fn fastest_device(
    family: &ModelFamily,
    node: &[Platform],
    pinned: impl Fn(&Platform) -> usize,
) -> usize {
    let mut best: Option<(usize, Seconds)> = None;
    for (d, platform) in node.iter().enumerate() {
        let profile = &family.models()[pinned(platform)];
        let t = inference::profile_latency(profile, platform, platform.cap_range().max()).unwrap();
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((d, t));
        }
    }
    best.unwrap().0
}

/// A fresh scheme's predicted period energy at `cap`: before any
/// feedback both baselines predict the pinned model's profiled latency,
/// run at the cap's run power and idle for the rest of the period at
/// the platform's default idle draw (capped by `cap`).
fn predicted_energy(
    family: &ModelFamily,
    platform: &Platform,
    model: usize,
    cap: Watts,
    period: Seconds,
) -> f64 {
    let profile = &family.models()[model];
    let t = inference::profile_latency(profile, platform, cap)
        .unwrap()
        .get();
    let idle_w = platform
        .idle_draw(platform.default_cap(), None)
        .get()
        .min(cap.get());
    inference::run_power(profile, platform, cap).get() * t + idle_w * (period.get() - t).max(0.0)
}

fn sys_only(node: &[Platform], goal: Goal) -> SysOnly {
    SysOnly::new(&ModelFamily::image_classification(), node, goal).unwrap()
}

fn no_coord(node: &[Platform], goal: Goal) -> NoCoord {
    NoCoord::new(&ModelFamily::image_classification(), node, goal).unwrap()
}

#[test]
fn both_baselines_place_where_their_model_profiles_fastest() {
    let family = ModelFamily::image_classification();
    let goal = Goal::minimize_energy(Seconds(0.5), 0.9);
    let (cpu, gpu) = (Platform::cpu1, Platform::gpu);
    let sys_pin = |p: &Platform| sys_only(std::slice::from_ref(p), goal).model();
    let no_coord_pin = |p: &Platform| {
        no_coord(std::slice::from_ref(p), goal)
            .decide(&ctx(Seconds(0.5)))
            .model
    };
    for node in [[cpu(), gpu()], [gpu(), cpu()], [cpu(), cpu()]] {
        let s = sys_only(&node, goal);
        assert_eq!(s.device(), fastest_device(&family, &node, sys_pin));
        let mut n = no_coord(&node, goal);
        assert_eq!(n.device(), fastest_device(&family, &node, no_coord_pin));
        // The placement is what every decision then runs on.
        assert_eq!(n.decide(&ctx(Seconds(0.5))).device, n.device());
    }
    // The GPU runs either pinned model fastest, whichever index it has.
    assert_eq!(sys_only(&[cpu(), gpu()], goal).device(), 1);
    assert_eq!(no_coord(&[gpu(), cpu()], goal).device(), 0);
    // Two identical devices tie at their top cap: the lower index wins.
    assert_eq!(sys_only(&[cpu(), cpu()], goal).device(), 0);
    assert_eq!(no_coord(&[cpu(), cpu()], goal).device(), 0);
}

/// The budget binds at the cheapest cap that meets the deadline: a
/// budget just above its predicted energy leaves it feasible, and the
/// scheme must pick a cap whose predicted energy fits the budget.
fn assert_pick_fits_budget(decide: impl Fn(Goal) -> Decision) {
    let family = ModelFamily::image_classification();
    let platform = Platform::cpu1();
    let deadline = Seconds(0.5);
    let model = decide(Goal::minimize_energy(deadline, 0.5)).model;
    let profile = &family.models()[model];
    let cheapest = platform
        .power_settings()
        .into_iter()
        .filter(|&cap| inference::profile_latency(profile, &platform, cap).unwrap() <= deadline)
        .map(|cap| predicted_energy(&family, &platform, model, cap, deadline))
        .fold(f64::INFINITY, f64::min);
    assert!(cheapest.is_finite(), "no cap meets the {deadline} deadline");
    let budget = cheapest * 1.05;
    let d = decide(Goal::minimize_error(deadline, Joules(budget)));
    let e = predicted_energy(&family, &platform, d.model, d.cap, deadline);
    assert!(
        e <= budget,
        "cap {} predicts {e} J over the {budget} J budget",
        d.cap
    );
}

#[test]
fn minimize_error_picks_a_cap_within_the_energy_budget() {
    let node = [Platform::cpu1()];
    assert_pick_fits_budget(|goal| sys_only(&node, goal).decide(&ctx(goal.deadline)));
    assert_pick_fits_budget(|goal| no_coord(&node, goal).decide(&ctx(goal.deadline)));
}

#[test]
fn a_budget_below_every_cap_falls_back_per_scheme() {
    let family = ModelFamily::image_classification();
    let platform = Platform::cpu1();
    let deadline = Seconds(2.0);
    let goal = Goal::minimize_error(deadline, Joules(1e-9));
    let caps = platform.power_settings();

    // Sys-only falls back to the cap with the fastest predicted
    // latency (first minimum).
    let mut s = sys_only(std::slice::from_ref(&platform), goal);
    let profile = &family.models()[s.model()];
    let mut fastest = (caps[0], f64::INFINITY);
    for &cap in &caps {
        assert!(predicted_energy(&family, &platform, s.model(), cap, deadline) > 1e-9);
        let t = inference::profile_latency(profile, &platform, cap)
            .unwrap()
            .get();
        if t < fastest.1 {
            fastest = (cap, t);
        }
    }
    assert_eq!(s.decide(&ctx(deadline)).cap, fastest.0);

    // No-coord falls back to its default cap, the top setting.
    let mut n = no_coord(std::slice::from_ref(&platform), goal);
    let d = n.decide(&ctx(deadline));
    assert!(caps
        .iter()
        .all(|&cap| predicted_energy(&family, &platform, d.model, cap, deadline) > 1e-9));
    assert_eq!(d.cap, *caps.last().unwrap());
    assert_eq!(d.cap, platform.default_cap());
}
