//! Controller parameters and state at the session boundary: `open`
//! refuses every parameter value that would break a session, and every
//! value it accepts decides without a panic, keeps its records finite,
//! and leaves a snapshot that restores; `restore_session` likewise
//! refuses every controller state that would break the resumed inputs.

use alert::core::alert::{AlertParams, OverheadPolicy};
use alert::sched::runtime::{Runtime, SessionSnapshot, SessionSpec};
use alert::sched::Error;
use alert::stats::kalman::AdaptiveKalmanParams;
use alert::stats::units::Seconds;
use alert::workload::{Goal, Scenario, SessionId};
use proptest::prelude::*;

mod common;
use common::{doctored, field};

/// 20 ALERT inputs under memory contention.
fn spec() -> SessionSpec {
    SessionSpec {
        goal: Goal::minimize_energy(Seconds(0.4), 0.9),
        scenario: Scenario::memory_env(3),
        n_inputs: 20,
        seed: Some(5),
        policy: Some("ALERT".into()),
    }
}

/// A runtime under `params` with one freshly opened session.
fn open(params: AlertParams) -> Result<(Runtime, SessionId), Error> {
    let mut rt = Runtime::builder().params(params).build()?;
    let id = rt.session(spec()).open()?;
    Ok((rt, id))
}

#[test]
fn kalman_params_that_break_a_session_are_rejected_at_open() {
    let k = AdaptiveKalmanParams::default();
    let bad = [
        // These opened, then panicked in the first submit.
        (
            "var0 = inf",
            AdaptiveKalmanParams {
                var0: f64::INFINITY,
                ..k
            },
        ),
        (
            "var0 = NaN",
            AdaptiveKalmanParams {
                var0: f64::NAN,
                ..k
            },
        ),
        (
            "q0 = inf",
            AdaptiveKalmanParams {
                q0: f64::INFINITY,
                ..k
            },
        ),
        // These ran, but their own cursor-0 snapshot did not restore.
        ("mu0 = -1", AdaptiveKalmanParams { mu0: -1.0, ..k }),
        ("mu0 = 0", AdaptiveKalmanParams { mu0: 0.0, ..k }),
        ("r = NaN", AdaptiveKalmanParams { r: f64::NAN, ..k }),
    ];
    for (what, kalman) in bad {
        let params = AlertParams {
            kalman,
            ..AlertParams::default()
        };
        let opened = open(params).map(|_| ());
        assert!(
            matches!(opened, Err(Error::Policy(_))),
            "{what}: {opened:?}"
        );
    }
}

/// The values every field is drawn from: its valid default first, then
/// the edges of `f64`.
const MENU: [f64; 7] = [
    0.0,
    -1.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e300,
    1e-300,
];
const FIELDS: usize = 9;

/// `AlertParams` with field `field` (the seven Kalman constants, the
/// initial idle ratio, the `Fixed` reserve) set to menu entry `value`;
/// entry `0` keeps the default.
fn with(mut params: AlertParams, (field, value): (usize, usize)) -> AlertParams {
    let Some(&v) = value.checked_sub(1).and_then(|i| MENU.get(i)) else {
        return params;
    };
    let k = &mut params.kalman;
    match field {
        0 => k.alpha = v,
        1 => k.k0 = v,
        2 => k.r = v,
        3 => k.q0 = v,
        4 => k.q_min = v,
        5 => k.mu0 = v,
        6 => k.var0 = v,
        7 => params.initial_idle_ratio = v,
        _ => params.overhead = OverheadPolicy::Fixed(Seconds(v)),
    }
    params
}

/// If `open` accepts `params`, the session's 20 inputs run, every
/// record is finite, and the session's cursor-0 snapshot restores.
fn assert_accepted_params_run_clean(params: AlertParams) {
    let Ok((mut rt, id)) = open(params) else {
        return;
    };
    let start = rt.snapshot_session(id).expect("a fresh session snapshots");
    rt.run_to_completion(id).expect("every input runs");
    let ep = rt.close(id).expect("session open");
    assert_eq!(ep.records.len(), 20);
    for r in &ep.records {
        assert!(
            r.latency.is_finite() && r.energy.is_finite() && r.quality.is_finite(),
            "{params:?}: non-finite record {r:?}"
        );
    }
    let restored = rt.restore_session(&start);
    assert!(restored.is_ok(), "{params:?}: {restored:?}");
}

proptest! {
    /// Each case draws two (field, menu entry) perturbations and checks
    /// each alone and both together.
    #[test]
    fn accepted_controller_params_never_panic(
        draws in (0usize..FIELDS * (MENU.len() + 1), 0usize..FIELDS * (MENU.len() + 1))
    ) {
        let split = |d: usize| (d / (MENU.len() + 1), d % (MENU.len() + 1));
        let (a, b) = (split(draws.0), split(draws.1));
        let default = AlertParams::default();
        for params in [with(default, a), with(default, b), with(with(default, a), b)] {
            assert_accepted_params_run_clean(params);
        }
    }
}

/// The controller state [`restored_state_never_panics`] perturbs: the ξ
/// filter's belief and its innovation tracker, the φ filter's state, the
/// overhead reserve and the last decision cost, as JSON paths.
const STATE: [&[&str]; 10] = [
    &["controller", "xi", "filter", "mu"],
    &["controller", "xi", "filter", "var"],
    &["controller", "xi", "filter", "gain"],
    &["controller", "xi", "filter", "q"],
    &["controller", "xi", "filter", "prev_innovation"],
    &["controller", "xi", "innovation_var"],
    &["controller", "idle", "filter", "phi"],
    &["controller", "idle", "filter", "m"],
    &["controller", "overhead_reserve"],
    &["controller", "last_decision_cost"],
];

/// The values a state field is drawn from (entry `0` of a draw keeps the
/// snapshot's own): the edges of `f64` that JSON can carry.
const JSON_MENU: [f64; 4] = [0.0, -1.0, 1e300, 1e-300];

/// A snapshot of the default session after 5 of its 20 inputs.
fn started_snapshot() -> (Runtime, SessionSnapshot) {
    let (mut rt, id) = open(AlertParams::default()).expect("defaults open");
    for _ in 0..5 {
        rt.submit(id).expect("input runs");
    }
    let snap = rt.snapshot_session(id).expect("ALERT snapshots");
    (rt, snap)
}

/// `snap` with state field `field` set to menu entry `value`; entry `0`
/// keeps the snapshot's own value.
fn with_state(snap: &SessionSnapshot, (field, value): (usize, usize)) -> SessionSnapshot {
    match value.checked_sub(1).and_then(|i| JSON_MENU.get(i)) {
        Some(&v) => doctored(snap, STATE[field], v),
        None => snap.clone(),
    }
}

/// If `restore_session` accepts `snap`, the session's remaining 15
/// inputs run and every record is finite.
fn assert_accepted_state_runs_clean(rt: &mut Runtime, snap: &SessionSnapshot) {
    let Ok(id) = rt.restore_session(snap) else {
        return;
    };
    assert_eq!(rt.run_to_completion(id).expect("every input runs"), 15);
    let ep = rt.close(id).expect("session open");
    for r in &ep.records {
        assert!(
            r.latency.is_finite() && r.energy.is_finite() && r.quality.is_finite(),
            "{:?}: non-finite record {r:?}",
            snap.controller
        );
    }
}

proptest! {
    /// Each case draws two (state field, menu entry) perturbations of a
    /// started session's snapshot and checks each alone and both
    /// together.
    #[test]
    fn restored_state_never_panics(
        draws in (0usize..STATE.len() * (JSON_MENU.len() + 1), 0usize..STATE.len() * (JSON_MENU.len() + 1))
    ) {
        let split = |d: usize| (d / (JSON_MENU.len() + 1), d % (JSON_MENU.len() + 1));
        let (a, b) = (split(draws.0), split(draws.1));
        let (mut rt, snap) = started_snapshot();
        for perturbed in [with_state(&snap, a), with_state(&snap, b), with_state(&with_state(&snap, a), b)] {
            assert_accepted_state_runs_clean(&mut rt, &perturbed);
        }
    }
}

/// A state the restore property turns up, which restores and then
/// panics a later input unless restore refuses it: ξ variance and gain
/// at 1e300 overflow the next update to a non-finite mean
/// (`Normal::new`).
#[test]
fn restore_rejects_the_states_the_property_found() {
    let xi = |name| ["controller", "xi", "filter", name];
    let (mut rt, snap) = started_snapshot();
    let state = doctored(&doctored(&snap, &xi("var"), 1e300), &xi("gain"), 1e300);
    let restored = rt.restore_session(&state);
    assert!(
        matches!(restored, Err(Error::InvalidSpec(_))),
        "{restored:?}"
    );
}

/// The φ filter's `S` and `V` are the paper's constants, not state, so a
/// snapshot no longer carries them. One written when it did still
/// restores, whatever values the keys hold: they are ignored, and the
/// session resumes exactly as from an untouched snapshot.
#[test]
fn legacy_phi_constants_in_a_snapshot_are_ignored() {
    let (mut rt, snap) = started_snapshot();
    let mut json = serde_json::to_value(&snap);
    let serde_json::Value::Object(filter) = field(&mut json, &["controller", "idle", "filter"])
    else {
        panic!("the φ filter serializes as a map");
    };
    filter.insert("s".into(), serde_json::Value::F64(0.0));
    filter.insert("v".into(), serde_json::Value::F64(-1.0));
    let legacy: SessionSnapshot =
        serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
    let resume = |rt: &mut Runtime, snap: &SessionSnapshot| {
        let id = rt.restore_session(snap).expect("the snapshot restores");
        assert_eq!(rt.run_to_completion(id).expect("every input runs"), 15);
        rt.close(id).expect("session open").records
    };
    let records = resume(&mut rt, &legacy);
    for r in &records {
        assert!(
            r.latency.is_finite() && r.energy.is_finite() && r.quality.is_finite(),
            "non-finite record {r:?}"
        );
    }
    assert_eq!(records, resume(&mut rt, &snap));
}
