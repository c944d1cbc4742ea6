//! Per-component event counters behind one fixed registry.
//!
//! Every counter has a stable snake_case name (pinned by the golden
//! telemetry test) and a dense index, so the whole registry is a flat
//! `[u64; N]`: increments are one add, and shard `merge` is
//! element-wise addition — exact and order-independent.

/// Every event the telemetry layer counts, across all components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    // TLB (front-end) outcomes, one per measured access.
    TlbL1Hits,
    TlbStlbHits,
    TlbMisses,
    // Page-walk cache, per radix level reached.
    PwcL2Hits,
    PwcL3Hits,
    PwcL4Hits,
    PwcMisses,
    // Cache hierarchy hits for *data* accesses...
    CacheDataL1,
    CacheDataL2,
    CacheDataLlc,
    CacheDataDram,
    // ...and separately for PTE fetches issued by walks.
    CachePteL1,
    CachePteL2,
    CachePteLlc,
    CachePteDram,
    // Walk volume.
    Walks,
    WalkFallbacks,
    // Buddy allocator churn.
    AllocSplits,
    AllocMerges,
    Compactions,
    // OS mapping layer.
    TeaMigrations,
    Shootdowns,
    // Multi-tenant cloud node (sim::cloudnode).
    ContextSwitches,
    TaggedFlushes,
    CrossTenantShootdowns,
}

pub const NUM_COUNTERS: usize = 25;

impl Counter {
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::TlbL1Hits,
        Counter::TlbStlbHits,
        Counter::TlbMisses,
        Counter::PwcL2Hits,
        Counter::PwcL3Hits,
        Counter::PwcL4Hits,
        Counter::PwcMisses,
        Counter::CacheDataL1,
        Counter::CacheDataL2,
        Counter::CacheDataLlc,
        Counter::CacheDataDram,
        Counter::CachePteL1,
        Counter::CachePteL2,
        Counter::CachePteLlc,
        Counter::CachePteDram,
        Counter::Walks,
        Counter::WalkFallbacks,
        Counter::AllocSplits,
        Counter::AllocMerges,
        Counter::Compactions,
        Counter::TeaMigrations,
        Counter::Shootdowns,
        Counter::ContextSwitches,
        Counter::TaggedFlushes,
        Counter::CrossTenantShootdowns,
    ];

    /// Stable export name; changing one is a golden-file break.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TlbL1Hits => "tlb_l1_hits",
            Counter::TlbStlbHits => "tlb_stlb_hits",
            Counter::TlbMisses => "tlb_misses",
            Counter::PwcL2Hits => "pwc_l2_hits",
            Counter::PwcL3Hits => "pwc_l3_hits",
            Counter::PwcL4Hits => "pwc_l4_hits",
            Counter::PwcMisses => "pwc_misses",
            Counter::CacheDataL1 => "cache_data_l1_hits",
            Counter::CacheDataL2 => "cache_data_l2_hits",
            Counter::CacheDataLlc => "cache_data_llc_hits",
            Counter::CacheDataDram => "cache_data_dram",
            Counter::CachePteL1 => "cache_pte_l1_hits",
            Counter::CachePteL2 => "cache_pte_l2_hits",
            Counter::CachePteLlc => "cache_pte_llc_hits",
            Counter::CachePteDram => "cache_pte_dram",
            Counter::Walks => "walks",
            Counter::WalkFallbacks => "walk_fallbacks",
            Counter::AllocSplits => "alloc_splits",
            Counter::AllocMerges => "alloc_merges",
            Counter::Compactions => "compactions",
            Counter::TeaMigrations => "tea_migrations",
            Counter::Shootdowns => "shootdowns",
            Counter::ContextSwitches => "context_switches",
            Counter::TaggedFlushes => "tagged_flushes",
            Counter::CrossTenantShootdowns => "cross_tenant_shootdowns",
        }
    }
}

/// Flat counter registry; one slot per [`Counter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters([u64; NUM_COUNTERS]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; NUM_COUNTERS])
    }
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&mut self, c: Counter) {
        self.0[c as usize] += 1;
    }

    pub fn add(&mut self, c: Counter, n: u64) {
        self.0[c as usize] += n;
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Element-wise merge; exact and order-independent.
    pub fn merge(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// All `(counter, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.0[c as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_dense_and_named() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(
                *c as usize, i,
                "Counter::ALL must mirror discriminant order"
            );
            assert!(!c.name().is_empty());
        }
        // Names are unique.
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
    }

    #[test]
    fn inc_add_merge() {
        let mut a = Counters::new();
        a.inc(Counter::Walks);
        a.add(Counter::CachePteDram, 5);
        let mut b = Counters::new();
        b.add(Counter::Walks, 2);
        a.merge(&b);
        assert_eq!(a.get(Counter::Walks), 3);
        assert_eq!(a.get(Counter::CachePteDram), 5);
        assert_eq!(a.get(Counter::TlbMisses), 0);
    }
}
