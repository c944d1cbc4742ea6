//! ASAP — Margaritov et al., MICRO'19 ("Prefetched Address Translation").
//!
//! ASAP places the last two levels of page-table entries in per-VMA
//! contiguous arrays (the same layout idea DMT's TEAs use) and, on a TLB
//! miss, computes their addresses arithmetically and *prefetches* them
//! into the cache hierarchy. The walk itself is unchanged: still 4
//! sequential references natively and up to 24 virtualized (Table 6) —
//! they just tend to hit in L2. The model here gives ASAP perfectly
//! timely prefetches (inserted before the walk starts), which is
//! generous; DMT still wins because seriality remains.

use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_pgtable::walk::{StepSink, WalkDim, WalkStep};

/// A step sink that keeps what ASAP's timeliness adjustment needs: the
/// cycles of the walk's last step of dimension `leaf` and the sum of
/// every step before it — two sums, so the adjustment costs no
/// allocation on the translate hot path.
#[derive(Debug, Clone, Copy)]
pub struct LeafTiming {
    leaf: WalkDim,
    sum: u64,
    last: Option<(u64, u64)>,
}

impl LeafTiming {
    /// Track the last step of dimension `leaf` (`Native` for a native
    /// walk's leaf, `Guest` for the guest leaf of a 2D walk).
    pub fn new(leaf: WalkDim) -> Self {
        LeafTiming {
            leaf,
            sum: 0,
            last: None,
        }
    }

    /// Overlap an ASAP prefetch with the walk: the leaf step's cost
    /// becomes `min(measured, max(L2 latency, DRAM latency - prior
    /// steps))` — the prefetched line cannot arrive faster than one DRAM
    /// round trip issued at TLB-miss time (MICRO'19's timeliness
    /// constraint). `total` is returned as is when no leaf step was
    /// seen.
    pub fn adjusted_cycles(&self, total: u64, hier: &MemoryHierarchy) -> u64 {
        let Some((prior, last)) = self.last else {
            return total;
        };
        let l2 = hier.config().l2.latency;
        let dram = hier.config().dram_latency;
        total - last + last.min(l2.max(dram.saturating_sub(prior)))
    }
}

impl StepSink<WalkStep> for LeafTiming {
    fn step(&mut self, s: WalkStep) {
        if s.dim == self.leaf {
            self.last = Some((self.sum, s.cycles));
        }
        self.sum += s.cycles;
    }
}

/// The offset-based prefetcher: per-VMA contiguous PTE arrays for the
/// last one or two levels. [`VmaTeaMapping`] already encodes exactly the
/// "base + linear offset" arithmetic ASAP uses, so the prefetcher is a
/// set of them per level.
#[derive(Debug, Clone, Default)]
pub struct AsapPrefetcher {
    /// L1-entry arrays (4 KiB PTEs).
    pub l1_arrays: Vec<VmaTeaMapping>,
    /// L2-entry arrays (either 2 MiB leaf PTEs or L1-table pointers).
    pub l2_arrays: Vec<VmaTeaMapping>,
}

/// Prefetch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsapStats {
    /// Lines injected into L2.
    pub prefetches: u64,
    /// Misses with no covering array (no prefetch issued).
    pub uncovered: u64,
}

impl AsapStats {
    /// Count one TLB miss that predicted `n` PTE lines (an uncovered
    /// miss when `n` is 0).
    pub fn record(&mut self, n: u64) {
        if n == 0 {
            self.uncovered += 1;
        } else {
            self.prefetches += n;
        }
    }
}

impl AsapPrefetcher {
    /// Build from per-level arrays.
    pub fn new(l1_arrays: Vec<VmaTeaMapping>, l2_arrays: Vec<VmaTeaMapping>) -> Self {
        AsapPrefetcher {
            l1_arrays,
            l2_arrays,
        }
    }

    /// The PTE slots ASAP would compute for `va` (host-physical after
    /// applying `resolve`, which is the identity natively and the
    /// gPA→hPA software mapping in a VM).
    pub fn predicted_slots<'a>(
        &'a self,
        va: VirtAddr,
        resolve: impl Fn(PhysAddr) -> Option<PhysAddr> + 'a,
    ) -> impl Iterator<Item = PhysAddr> + 'a {
        self.l1_arrays
            .iter()
            .chain(self.l2_arrays.iter())
            .filter_map(move |m| m.pte_addr(va))
            .filter_map(resolve)
    }

    /// On a TLB miss for `va`: inject the predicted last-two-level PTE
    /// lines into L2 (latency-free; bandwidth effects show up as cache
    /// pollution because the inserted lines evict others).
    pub fn prefetch(
        &self,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        resolve: impl Fn(PhysAddr) -> Option<PhysAddr>,
        stats: &mut AsapStats,
    ) {
        let mut n = 0;
        for s in self.predicted_slots(va, resolve) {
            hier.prefetch_into_l2(s.raw());
            n += 1;
        }
        stats.record(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_cache::hierarchy::HitLevel;
    use dmt_mem::{PageSize, Pfn};

    fn prefetcher() -> AsapPrefetcher {
        let l1 = VmaTeaMapping::new(VirtAddr(0x4000_0000), 8 << 20, PageSize::Size4K, Pfn(100));
        let l2 = VmaTeaMapping::new(VirtAddr(0x4000_0000), 8 << 20, PageSize::Size2M, Pfn(200));
        AsapPrefetcher::new(vec![l1], vec![l2])
    }

    #[test]
    fn predicted_slots_cover_both_levels() {
        let p = prefetcher();
        let slots: Vec<_> = p.predicted_slots(VirtAddr(0x4000_5000), Some).collect();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0], PhysAddr((100 << 12) + 5 * 8));
    }

    #[test]
    fn prefetched_lines_hit_in_l2() {
        let p = prefetcher();
        let mut hier = MemoryHierarchy::default();
        let mut stats = AsapStats::default();
        let va = VirtAddr(0x4000_5000);
        p.prefetch(va, &mut hier, Some, &mut stats);
        assert_eq!(stats.prefetches, 2);
        // The L1-PTE line is now an L2 hit instead of DRAM.
        let (lvl, cyc) = hier.access((100u64 << 12) + 5 * 8);
        assert_eq!(lvl, HitLevel::L2);
        assert_eq!(cyc, 14);
    }

    #[test]
    fn uncovered_addresses_are_counted() {
        let p = prefetcher();
        let mut hier = MemoryHierarchy::default();
        let mut stats = AsapStats::default();
        p.prefetch(VirtAddr(0x9000_0000), &mut hier, Some, &mut stats);
        assert_eq!(stats.uncovered, 1);
        assert_eq!(stats.prefetches, 0);
    }

    fn timing(dims_cycles: &[(WalkDim, u64)], leaf: WalkDim) -> LeafTiming {
        let mut t = LeafTiming::new(leaf);
        for &(dim, cycles) in dims_cycles {
            t.step(WalkStep {
                dim,
                level: 1,
                pte_pa: PhysAddr(0),
                cycles,
            });
        }
        t
    }

    #[test]
    fn timeliness_caps_the_leaf_fetch() {
        let hier = MemoryHierarchy::default();
        let dram = hier.config().dram_latency;
        let l2 = hier.config().l2.latency;
        let n = WalkDim::Native;
        // Cold walk, all steps DRAM: the leaf overlaps the prefetch
        // issued at miss time, so it pays the remaining DRAM latency —
        // floored at L2 (the line has to be read from somewhere).
        let t = timing(&[(n, dram), (n, dram), (n, dram), (n, dram)], n);
        let expected = 4 * dram - dram + l2.max(dram.saturating_sub(3 * dram));
        assert_eq!(t.adjusted_cycles(4 * dram, &hier), expected);
        // A leaf already cheaper than the cap is left alone.
        let t = timing(&[(n, dram), (n, 4)], n);
        assert_eq!(t.adjusted_cycles(dram + 4, &hier), dram + 4);
        // No steps: nothing to adjust.
        assert_eq!(timing(&[], n).adjusted_cycles(123, &hier), 123);
        // A 2D walk adjusts its last guest step; later host steps count
        // neither as the leaf nor as its prior.
        let (g, h) = (WalkDim::Guest, WalkDim::Host);
        let t = timing(&[(h, 4), (g, dram), (h, 4), (g, dram), (h, dram)], g);
        let prior = 4 + dram + 4;
        let adjusted = dram.min(l2.max(dram.saturating_sub(prior)));
        let total = 3 * dram + 8;
        assert_eq!(t.adjusted_cycles(total, &hier), total - dram + adjusted);
    }

    #[test]
    fn resolve_failure_skips_quietly() {
        let p = prefetcher();
        let mut hier = MemoryHierarchy::default();
        let mut stats = AsapStats::default();
        p.prefetch(VirtAddr(0x4000_5000), &mut hier, |_| None, &mut stats);
        assert_eq!(stats.prefetches, 0);
    }
}
