//! Helpers shared by the integration tests.

use alert::sched::runtime::Runtime;
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
