//! Session and stream identities for the multi-stream runtime.
//!
//! A *stream* is a reproducible input sequence (task + seed); a *session*
//! is one live traversal of a stream by one scheduler inside a runtime.
//! Two sessions may traverse the same stream (e.g. two schemes compared
//! on frozen conditions), so the identities are distinct types: stream
//! ids are *content-derived* and stable across processes, session ids
//! are runtime-local handles.

use serde::{Deserialize, Serialize};

/// Runtime-local handle of one live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The shard this session falls in when a runtime's drain splits its
    /// sessions `shards` ways: plain modulo, so the dense ids a runtime
    /// hands out (0, 1, 2, …) spread evenly over the shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (a partition needs at least one shard
    /// — a construction-time programming error, not a runtime
    /// condition).
    pub fn shard_of(&self, shards: usize) -> usize {
        assert!(shards > 0, "a partition needs at least one shard");
        (self.0 % shards as u64) as usize
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Content-derived identity of an input stream: equal streams (same task,
/// same seed, same length) get equal ids in every process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(pub u64);

impl StreamId {
    /// Derives the id from the stream's generating parameters, through
    /// the workspace's canonical stream-derivation hash
    /// ([`alert_stats::rng::derive_seed`]).
    pub fn derive(task_tag: u8, seed: u64, len: usize) -> Self {
        let label = format!("stream/{task_tag}/{len}");
        StreamId(alert_stats::rng::derive_seed(seed, &label))
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream-{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_stable_and_distinct() {
        let a = StreamId::derive(1, 42, 300);
        let b = StreamId::derive(1, 42, 300);
        let c = StreamId::derive(1, 43, 300);
        let d = StreamId::derive(2, 42, 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SessionId(3).to_string(), "session-3");
        assert!(StreamId::derive(0, 0, 1).to_string().starts_with("stream-"));
    }

    #[test]
    fn shard_routing_is_modular() {
        assert_eq!(SessionId(0).shard_of(4), 0);
        assert_eq!(SessionId(7).shard_of(4), 3);
        assert_eq!(SessionId(8).shard_of(4), 0);
        // Ids `k, k + 5, k + 10` fall in shard `k` of five.
        for shard in 0..5u64 {
            for round in 0..3u64 {
                let id = SessionId(shard + round * 5);
                assert_eq!(id.shard_of(5), shard as usize);
            }
        }
        // A single shard owns everything.
        assert_eq!(SessionId(u64::MAX).shard_of(1), 0);
    }
}
