//! The shared-budget rule behind heterogeneous placement.
//!
//! Paper Table 3 evaluates ALERT on CPU *and* GPU setups; a fleet node
//! serves both at once. [`split_budget`] divides one node-level `Watts`
//! budget across the node's [`Platform`]s proportionally to each
//! device's maximum useful draw, floored at its minimum feasible level
//! so no device is starved below its slowest operating point.

use crate::platform::Platform;
use alert_stats::units::Watts;

/// Splits one node-level budget across devices proportionally to each
/// device's maximum useful draw (the top of its cap range), then floors
/// every share at that device's minimum feasible level (the bottom).
///
/// The proportional rule keeps a single-device split equal to the whole
/// budget (CPU-only configurations are bit-compatible with the
/// pre-placement code path), and the floor guarantees every device can
/// at least run its slowest level — the same "never pick an infeasible
/// setting" discipline the §4 fallback hierarchy applies to caps.
pub fn split_budget(total: Watts, node: &[Platform]) -> Vec<Watts> {
    let sum_max: f64 = node.iter().map(|p| p.cap_range().max().get()).sum();
    node.iter()
        .map(|p| {
            let share = if sum_max > 0.0 {
                Watts(total.get() * p.cap_range().max().get() / sum_max)
            } else {
                total
            };
            share.max(p.cap_range().min())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_backend_split_is_the_whole_budget() {
        let shares = split_budget(Watts(45.0), &[Platform::cpu1()]);
        assert_eq!(shares, vec![Watts(45.0)]);
    }

    #[test]
    fn split_is_proportional_to_max_power() {
        // CPU1 draws at most 45 W, the GPU 215 W.
        let total = Watts(195.0);
        let shares = split_budget(total, &[Platform::cpu1(), Platform::gpu()]);
        assert_eq!(shares.len(), 2);
        let expected_cpu = 195.0 * 45.0 / (45.0 + 215.0);
        assert!((shares[0].get() - expected_cpu).abs() < 1e-9);
        // Proportionality: shares sum to the total when no floor binds.
        assert!((shares[0].get() + shares[1].get() - 195.0).abs() < 1e-9);
    }

    #[test]
    fn split_floors_at_min_power() {
        // CPU1 draws at least 10 W, the GPU 100 W. A tight budget would
        // give the GPU less than its slowest level; the floor lifts it
        // back so the device stays operable.
        let node = [Platform::cpu1(), Platform::gpu()];
        let shares = split_budget(Watts(60.0), &node);
        assert!(shares[0] >= node[0].cap_range().min());
        assert!(shares[1] >= node[1].cap_range().min());
    }
}
