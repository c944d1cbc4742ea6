//! Periodic time-series of memory-health samples.
//!
//! The engine snapshots fragmentation index and RSS every N measured
//! accesses; a sweep shard carries its own series and `merge` stitches
//! shards back together ordered by sample time, so parallel and serial
//! sweeps export identical series.

/// One periodic snapshot, stamped with the measured-access count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Measured accesses completed when the sample was taken.
    pub at: u64,
    /// `fragmentation_index` at the huge-page order (Linux extfrag analog).
    pub frag_index: f64,
    /// Resident data frames (4 KiB units), small + huge.
    pub rss_frames: u64,
}

/// Append-only series of [`Sample`]s, kept sorted by `at` on merge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, s: Sample) {
        self.samples.push(s);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Concatenate and re-sort by sample time (stable, so equal-time
    /// samples keep a deterministic order regardless of shard order
    /// only when times differ — runs sample at distinct `at` values).
    pub fn merge(&mut self, other: &TimeSeries) {
        self.samples.extend_from_slice(&other.samples);
        self.samples.sort_by_key(|s| s.at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at: u64) -> Sample {
        Sample {
            at,
            frag_index: 0.5,
            rss_frames: at * 2,
        }
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = TimeSeries::new();
        a.push(s(10));
        a.push(s(30));
        let mut b = TimeSeries::new();
        b.push(s(20));
        a.merge(&b);
        let ats: Vec<_> = a.samples().iter().map(|x| x.at).collect();
        assert_eq!(ats, vec![10, 20, 30]);
    }

    #[test]
    fn merge_order_independent_for_distinct_times() {
        let mut a = TimeSeries::new();
        a.push(s(1));
        let mut b = TimeSeries::new();
        b.push(s(2));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}
