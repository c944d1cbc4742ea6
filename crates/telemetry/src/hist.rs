//! Fixed-size log2-bucket histogram for cycle counts and reference
//! counts.
//!
//! Bucket 0 holds exactly the value 0; bucket `i` (1..=64) holds the
//! half-open power-of-two range `[2^(i-1), 2^i)`. Every `u64` value
//! lands in exactly one bucket, so `merge` (element-wise addition) is
//! *exact*: merging per-shard histograms yields bit-identical state to
//! recording every sample into a single histogram, in any merge order.
//! That property is what lets parallel sweep shards combine
//! deterministically, and it is pinned by the property tests in
//! `tests/props.rs`.

use crate::ratio;

/// Number of buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// Log2-bucketed histogram with exact scalar summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// Valid only when `count > 0`.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS);
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket counts, zero buckets included.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 for an empty histogram. Bucketed, so an
    /// upper bound on the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Element-wise merge; exact and order-independent.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn record_and_summaries() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        for v in [0, 1, 2, 3, 4, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 210);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(200));
        assert_eq!(h.mean(), 35.0);
        let got: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(
            got,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 1), (128, 255, 1)]
        );
    }

    #[test]
    fn quantile_upper_bounds() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) >= 50);
        assert_eq!(h.quantile(1.0), 100); // clamped to observed max
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let samples = [0u64, 1, 5, 9, 1024, 77, 77, u64::MAX, 3];
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let (a, b) = samples.split_at(4);
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in a {
            ha.record(v);
        }
        for &v in b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        assert_eq!(merged, whole);
        // Commutes.
        let mut merged2 = hb;
        merged2.merge(&ha);
        assert_eq!(merged2, whole);
    }
}
