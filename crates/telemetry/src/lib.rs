//! dmt-telemetry: zero-cost-when-disabled observability for the DMT
//! simulator.
//!
//! `RunStats` aggregates totals; the paper's evaluation (Figs. 6-10,
//! Table 6) needs *distributions* — per-walk latency, PTE references
//! per walk, per-level TLB/PWC hit rates, fragmentation over time.
//! This crate provides the measurement substrate:
//!
//! - [`Histogram`]: fixed 65-slot log2-bucket histogram with an exact,
//!   order-independent `merge`, so parallel sweep shards combine to
//!   bit-identical state.
//! - [`Counter`]/[`Counters`]: a flat registry of per-component event
//!   counters with stable export names.
//! - [`TimeSeries`]: periodic fragmentation-index / RSS samples.
//! - [`Probe`]: the hook trait the engine is generic over. The no-op
//!   impl ([`NoopProbe`], `ACTIVE = false`) compiles away; the live
//!   recorder ([`Telemetry`]) captures everything.
//!
//! Opt-in mirrors the oracle: `DMT_TELEMETRY=1` makes the experiment
//! runners route through the probed engine and attach a [`Telemetry`]
//! block to each sweep row's JSON. The probe is read-only with respect
//! to the simulation — a telemetry-on run produces bit-identical
//! `RunStats` to a telemetry-off run (pinned by `tests/determinism.rs`).

mod counters;
mod hist;
mod probe;
mod series;

pub use counters::{Counter, Counters, NUM_COUNTERS};
pub use hist::{bucket_bounds, bucket_of, Histogram, BUCKETS};
pub use probe::{ComponentCounters, MemLevel, NodeEvent, NoopProbe, Probe, TlbPath};
pub use series::{Sample, TimeSeries};

/// `num / den` as `f64`, with the division-by-zero guard in one place.
///
/// Shared by `RunStats::avg_*` (which used to duplicate the
/// `walks == 0` check) and [`Histogram::mean`].
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The live recorder: a [`Probe`] with `ACTIVE = true` that captures
/// histograms, counters and the periodic time-series for one run.
///
/// Shard recorders from a parallel sweep combine with [`Telemetry::merge`];
/// every piece merges exactly, so merge order never changes the result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// Cycles per completed page walk.
    pub walk_latency: Histogram,
    /// Memory references per walk.
    pub walk_refs: Histogram,
    /// Cycles per data access.
    pub data_latency: Histogram,
    /// Per-component event counters.
    pub counters: Counters,
    /// Periodic fragmentation/RSS samples.
    pub series: TimeSeries,
    sample_every: u64,
}

impl Telemetry {
    /// Recorder with periodic sampling disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder sampling fragmentation/RSS every `n` measured
    /// accesses (`n = 0` disables sampling).
    pub fn with_interval(n: u64) -> Self {
        Telemetry {
            sample_every: n,
            ..Self::default()
        }
    }

    /// Merge another recorder's state into this one. Exact: any merge
    /// order over any sharding of the samples yields identical state.
    pub fn merge(&mut self, other: &Telemetry) {
        self.walk_latency.merge(&other.walk_latency);
        self.walk_refs.merge(&other.walk_refs);
        self.data_latency.merge(&other.data_latency);
        self.counters.merge(&other.counters);
        self.series.merge(&other.series);
    }
}

impl Probe for Telemetry {
    const ACTIVE: bool = true;

    fn tlb_lookup(&mut self, path: TlbPath) {
        self.counters.inc(match path {
            TlbPath::L1 => Counter::TlbL1Hits,
            TlbPath::Stlb => Counter::TlbStlbHits,
            TlbPath::Miss => Counter::TlbMisses,
        });
    }

    fn walk(&mut self, cycles: u64, refs: u64, fallback: bool) {
        self.walk_latency.record(cycles);
        self.walk_refs.record(refs);
        self.counters.inc(Counter::Walks);
        if fallback {
            self.counters.inc(Counter::WalkFallbacks);
        }
    }

    fn pte_fetches(&mut self, level: MemLevel, n: u64) {
        self.counters.add(
            match level {
                MemLevel::L1 => Counter::CachePteL1,
                MemLevel::L2 => Counter::CachePteL2,
                MemLevel::Llc => Counter::CachePteLlc,
                MemLevel::Dram => Counter::CachePteDram,
            },
            n,
        );
    }

    fn data_access(&mut self, level: MemLevel, cycles: u64) {
        self.data_latency.record(cycles);
        self.counters.inc(match level {
            MemLevel::L1 => Counter::CacheDataL1,
            MemLevel::L2 => Counter::CacheDataL2,
            MemLevel::Llc => Counter::CacheDataLlc,
            MemLevel::Dram => Counter::CacheDataDram,
        });
    }

    fn sample_interval(&self) -> Option<u64> {
        (self.sample_every > 0).then_some(self.sample_every)
    }

    fn sample(&mut self, at: u64, frag_index: f64, rss_frames: u64) {
        self.series.push(Sample {
            at,
            frag_index,
            rss_frames,
        });
    }

    fn absorb_components(&mut self, c: ComponentCounters) {
        self.counters.add(Counter::PwcL2Hits, c.pwc_l2_hits);
        self.counters.add(Counter::PwcL3Hits, c.pwc_l3_hits);
        self.counters.add(Counter::PwcL4Hits, c.pwc_l4_hits);
        self.counters.add(Counter::PwcMisses, c.pwc_misses);
        self.counters.add(Counter::AllocSplits, c.alloc_splits);
        self.counters.add(Counter::AllocMerges, c.alloc_merges);
        self.counters.add(Counter::Compactions, c.compactions);
        self.counters.add(Counter::TeaMigrations, c.tea_migrations);
        self.counters.add(Counter::Shootdowns, c.shootdowns);
    }

    fn node_event(&mut self, ev: NodeEvent, n: u64) {
        self.counters.add(
            match ev {
                NodeEvent::ContextSwitch => Counter::ContextSwitches,
                NodeEvent::TaggedFlush => Counter::TaggedFlushes,
                NodeEvent::CrossTenantShootdown => Counter::CrossTenantShootdowns,
            },
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(10, 0), 0.0);
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(10, 4), 2.5);
    }

    #[test]
    fn probe_routes_events() {
        let mut t = Telemetry::with_interval(100);
        t.tlb_lookup(TlbPath::Miss);
        t.walk(54, 3, false);
        t.walk(200, 4, true);
        t.pte_fetches(MemLevel::Dram, 2);
        t.data_access(MemLevel::L1, 4);
        t.sample(100, 0.25, 512);
        t.absorb_components(ComponentCounters {
            pwc_l3_hits: 7,
            ..Default::default()
        });

        assert_eq!(t.counters.get(Counter::TlbMisses), 1);
        assert_eq!(t.counters.get(Counter::Walks), 2);
        assert_eq!(t.counters.get(Counter::WalkFallbacks), 1);
        assert_eq!(t.counters.get(Counter::CachePteDram), 2);
        assert_eq!(t.counters.get(Counter::CacheDataL1), 1);
        assert_eq!(t.counters.get(Counter::PwcL3Hits), 7);
        assert_eq!(t.walk_latency.count(), 2);
        assert_eq!(t.walk_refs.sum(), 7);
        assert_eq!(t.data_latency.mean(), 4.0);
        assert_eq!(t.series.len(), 1);
        assert_eq!(t.sample_interval(), Some(100));
    }

    #[test]
    fn merge_combines_all_parts() {
        let mut a = Telemetry::new();
        a.walk(10, 1, false);
        a.sample(50, 0.1, 10);
        let mut b = Telemetry::new();
        b.walk(20, 2, false);
        b.sample(25, 0.2, 20);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.walk_latency.count(), 2);
        assert_eq!(m.counters.get(Counter::Walks), 2);
        assert_eq!(m.series.samples()[0].at, 25);
    }
}
