//! Helpers shared by the integration tests. Each test crate uses a
//! subset of them.
#![allow(dead_code)]

use alert::sched::runtime::{Runtime, SessionSnapshot};
use alert::sched::Episode;
use alert::workload::SessionId;

/// The reference every drain is held to, built without `drain()`: submit
/// one input to each open session, round-robin in id order, until every
/// stream has ended; then close the sessions in id order.
pub fn round_robin_reference(rt: &mut Runtime) -> Vec<(SessionId, Episode)> {
    let ids = rt.open_sessions();
    let mut live = ids.clone();
    while !live.is_empty() {
        live.retain(|&id| rt.submit(id).expect("session is open").is_some());
    }
    ids.into_iter()
        .map(|id| (id, rt.close(id).expect("session is open")))
        .collect()
}

/// `snap` with the number at `path` in its JSON replaced by `value`.
pub fn doctored(snap: &SessionSnapshot, path: &[&str], value: f64) -> SessionSnapshot {
    let mut json = serde_json::to_value(snap);
    let mut node = &mut json;
    for key in path {
        node = match node {
            serde_json::Value::Object(map) => map.get_mut(*key).expect("snapshot field exists"),
            other => panic!("{key}: not an object: {other:?}"),
        };
    }
    *node = serde_json::Value::F64(value);
    serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap()
}
