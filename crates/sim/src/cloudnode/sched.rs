//! The deterministic scheduler: weighted round-robin over tenant
//! trace streams in fixed quanta, plus the churn victim selector.
//!
//! Determinism is the whole point — the interleaving is a pure
//! function of the config, so two runs with the same seed produce
//! bit-identical per-tenant and node statistics, and the telemetry /
//! oracle hooks can never perturb who runs when.

/// Weighted round-robin turn planner. A turn is `(tenant, accesses)`;
/// a weight-`w` tenant gets `w * quantum` accesses per turn and
/// exhausted tenants are skipped.
#[derive(Debug)]
pub(crate) struct Scheduler {
    quantum: usize,
    weights: Vec<u32>,
    cursor: usize,
}

impl Scheduler {
    pub(crate) fn new(quantum: usize, weights: Vec<u32>) -> Scheduler {
        Scheduler {
            quantum,
            weights,
            cursor: 0,
        }
    }

    /// The next turn given each tenant's remaining trace length, or
    /// `None` when every stream is drained.
    pub(crate) fn next_turn(&mut self, remaining: &[usize]) -> Option<(usize, usize)> {
        let n = self.weights.len();
        for _ in 0..n {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            if remaining[i] > 0 {
                let len = (self.quantum * self.weights[i] as usize).min(remaining[i]);
                return Some((i, len));
            }
        }
        None
    }
}

/// A tiny xorshift PRNG for churn victim selection — deterministic,
/// seedable, and independent of the workload generators' `SmallRng`
/// streams.
#[derive(Debug)]
pub(crate) struct VictimPicker {
    state: u64,
}

impl VictimPicker {
    pub(crate) fn new(seed: u64) -> VictimPicker {
        // A zero state would be a fixed point; mix in a constant.
        VictimPicker {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next victim index in `0..n`.
    pub(crate) fn pick(&mut self, n: usize) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        (x % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_respects_weights_and_skips_drained() {
        let mut s = Scheduler::new(10, vec![1, 2, 1]);
        let mut remaining = vec![25usize, 25, 0];
        let mut turns = Vec::new();
        while let Some((i, len)) = s.next_turn(&remaining) {
            remaining[i] -= len;
            turns.push((i, len));
        }
        // Tenant 2 never runs; tenant 1 gets double quanta.
        assert_eq!(turns, vec![(0, 10), (1, 20), (0, 10), (1, 5), (0, 5)]);
    }

    #[test]
    fn victim_picker_is_deterministic() {
        let a: Vec<usize> = {
            let mut p = VictimPicker::new(7);
            (0..8).map(|_| p.pick(5)).collect()
        };
        let b: Vec<usize> = {
            let mut p = VictimPicker::new(7);
            (0..8).map(|_| p.pick(5)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v != a[0]), "picker must actually vary");
    }
}
