//! Shared-deadline budget tracking (harness-side goal adjustment).
//!
//! For grouped tasks (NLP1: the words of a sentence share one sentence
//! deadline, paper §3.2 step 2) every scheme — not just ALERT — must know
//! the effective per-input deadline: the remaining group budget divided by
//! the remaining members. The harness owns this computation so all schemes
//! are treated identically; ALERT additionally reserves its own overhead
//! internally.

use alert_stats::units::Seconds;
use alert_workload::GroupPos;
use serde::{Deserialize, Serialize};

/// Tracks the remaining budget of the current group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetTracker {
    remaining: Seconds,
    members_left: usize,
    in_group: bool,
}

impl BudgetTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        BudgetTracker {
            remaining: Seconds::ZERO,
            members_left: 0,
            in_group: false,
        }
    }

    /// Computes the effective deadline of the next input and claims its
    /// slot. `per_input_deadline` is the goal's deadline (per input); a
    /// group's total budget is `per_input_deadline × group_len`, granted
    /// when its first member arrives.
    pub fn next_deadline(
        &mut self,
        per_input_deadline: Seconds,
        group: Option<GroupPos>,
    ) -> Seconds {
        match group {
            None => per_input_deadline,
            Some(g) => {
                if g.member_idx == 0 {
                    self.remaining = per_input_deadline * g.group_len as f64;
                    self.members_left = g.group_len;
                    self.in_group = true;
                }
                let left = self.members_left.max(1);
                let d = self.remaining / left as f64;
                self.members_left = self.members_left.saturating_sub(1);
                Seconds(d.get().max(1e-6))
            }
        }
    }

    /// Records the latency the dispatched input actually consumed.
    pub fn consume(&mut self, latency: Seconds) {
        if self.in_group {
            self.remaining = Seconds((self.remaining - latency).get().max(0.0));
            if self.members_left == 0 {
                self.in_group = false;
            }
        }
    }

    /// `true` while a group's budget is being consumed — i.e. at least
    /// one member's deadline has been claimed and members remain.
    ///
    /// Invariant: after claiming member `k` of an `n`-member group, the
    /// tracker is in-group iff `k < n - 1`. Checkpoint restore relies on
    /// this to detect snapshots whose tracker state was lost (a reset
    /// tracker mid-sentence would silently clamp every remaining deadline
    /// of the group to the 1 µs floor).
    pub fn in_group(&self) -> bool {
        self.in_group
    }

    /// Members of the active group still to be claimed (zero outside
    /// groups).
    pub fn members_left(&self) -> usize {
        self.members_left
    }
}

impl Default for BudgetTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(member: usize, len: usize) -> Option<GroupPos> {
        Some(GroupPos {
            group_idx: 0,
            member_idx: member,
            group_len: len,
        })
    }

    #[test]
    fn ungrouped_passthrough() {
        let mut b = BudgetTracker::new();
        assert_eq!(b.next_deadline(Seconds(0.1), None), Seconds(0.1));
        b.consume(Seconds(5.0));
        assert_eq!(b.next_deadline(Seconds(0.1), None), Seconds(0.1));
    }

    #[test]
    fn group_budget_shrinks_with_slow_members() {
        let mut b = BudgetTracker::new();
        // 4 members × 0.1 s = 0.4 s of budget.
        let d0 = b.next_deadline(Seconds(0.1), pos(0, 4));
        assert!((d0.get() - 0.1).abs() < 1e-12);
        b.consume(Seconds(0.25)); // overrun
        let d1 = b.next_deadline(Seconds(0.1), pos(1, 4));
        assert!((d1.get() - 0.05).abs() < 1e-12, "d1 = {d1}");
        b.consume(Seconds(0.05));
        let d2 = b.next_deadline(Seconds(0.1), pos(2, 4));
        assert!((d2.get() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fast_members_grow_budget() {
        let mut b = BudgetTracker::new();
        let _ = b.next_deadline(Seconds(0.1), pos(0, 2));
        b.consume(Seconds(0.02));
        let d1 = b.next_deadline(Seconds(0.1), pos(1, 2));
        assert!((d1.get() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn new_group_resets_budget() {
        let mut b = BudgetTracker::new();
        let _ = b.next_deadline(Seconds(0.1), pos(0, 2));
        b.consume(Seconds(1.0)); // blow everything
        let _ = b.next_deadline(Seconds(0.1), pos(1, 2));
        b.consume(Seconds(1.0));
        // Next sentence starts fresh.
        let d = b.next_deadline(Seconds(0.1), pos(0, 3));
        assert!((d.get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn blown_budget_floors_at_epsilon() {
        let mut b = BudgetTracker::new();
        let _ = b.next_deadline(Seconds(0.1), pos(0, 3));
        b.consume(Seconds(10.0));
        let d = b.next_deadline(Seconds(0.1), pos(1, 3));
        assert!(d.get() > 0.0 && d.get() <= 1e-6);
    }

    #[test]
    fn zero_length_group_degrades_to_floor() {
        // A malformed stream could announce a zero-member group; the
        // tracker must stay positive and leave no sticky group state.
        let mut b = BudgetTracker::new();
        let d = b.next_deadline(Seconds(0.1), pos(0, 0));
        assert!(d.get() > 0.0 && d.get() <= 1e-6, "d = {d}");
        b.consume(Seconds(0.05));
        // Next, a normal ungrouped input is unaffected.
        assert_eq!(b.next_deadline(Seconds(0.1), None), Seconds(0.1));
        // And a fresh, well-formed group starts with its full budget.
        let d = b.next_deadline(Seconds(0.1), pos(0, 2));
        assert!((d.get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deadline_fully_consumed_by_earlier_members() {
        // Earlier members consume *exactly* the whole group budget: later
        // members get the epsilon floor, never zero or negative.
        let mut b = BudgetTracker::new();
        let _ = b.next_deadline(Seconds(0.1), pos(0, 4)); // budget 0.4
        b.consume(Seconds(0.4));
        for member in 1..4 {
            let d = b.next_deadline(Seconds(0.1), pos(member, 4));
            assert!(d.get() > 0.0, "member {member} got non-positive {d}");
            assert!(d.get() <= 1e-6, "member {member} got slack {d}");
            b.consume(Seconds(0.0));
        }
    }

    #[test]
    fn serde_roundtrip_preserves_mid_group_state() {
        let mut b = BudgetTracker::new();
        let _ = b.next_deadline(Seconds(0.1), pos(0, 3));
        b.consume(Seconds(0.05));
        let json = serde_json::to_string(&b).unwrap();
        let back: BudgetTracker = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        // The restored tracker continues the group identically.
        let mut b2 = back;
        assert_eq!(
            b.next_deadline(Seconds(0.1), pos(1, 3)),
            b2.next_deadline(Seconds(0.1), pos(1, 3))
        );
    }
}
