//! Page-walk caches (PWC) and the nested PWC (Table 3).
//!
//! A PWC caches upper-level page-table entries so a radix walk can skip
//! straight to the deepest cached level instead of starting at the root.
//! Table 3's configuration is three per-level arrays of 2, 4 and 32
//! entries for the L4, L3 and L2 entries respectively, with a 1-cycle
//! round trip. The nested PWC is a second instance indexed by guest
//! physical addresses, caching host page-table entries during 2D walks.
//!
//! Last-level (L1) entries are never cached here — a cached leaf would be
//! a TLB entry, not a PWC entry.

use crate::set_assoc::SetAssoc;
use dmt_mem::addr::{LEVEL_BITS, PAGE_SHIFT};
use dmt_mem::{PhysAddr, VirtAddr};

/// PWC geometry: entries for the L4, L3 and L2 arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwcConfig {
    /// Entries caching L4 (root-level) PTEs.
    pub l4_entries: u64,
    /// Entries caching L3 PTEs.
    pub l3_entries: u64,
    /// Entries caching L2 PTEs.
    pub l2_entries: u64,
    /// Round-trip lookup latency in cycles.
    pub latency: u64,
}

impl PwcConfig {
    /// Table 3's configuration: 2-4-32 entries, 1-cycle round trip.
    pub fn xeon_gold_6138() -> Self {
        PwcConfig {
            l4_entries: 2,
            l3_entries: 4,
            l2_entries: 32,
            latency: 1,
        }
    }
}

impl Default for PwcConfig {
    fn default() -> Self {
        Self::xeon_gold_6138()
    }
}

/// PWC hit/miss counters, with hits attributed to the radix level of
/// the entry that served them (`hits == l2_hits + l3_hits + l4_hits`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PwcStats {
    /// Walks that skipped levels thanks to a PWC hit.
    pub hits: u64,
    /// Hits served by a cached L2 entry (deepest skip: walk resumes at L1).
    pub l2_hits: u64,
    /// Hits served by a cached L3 entry.
    pub l3_hits: u64,
    /// Hits served by a cached L4 (root-level) entry.
    pub l4_hits: u64,
    /// Walks that found nothing cached.
    pub misses: u64,
}

/// Untagged key bits: VA prefixes never reach bit 48, so the
/// address-space tag occupies the bits above them (the arrays are fully
/// associative, so tagging cannot change placement either).
const ASID_SHIFT: u32 = 48;
const KEY_MASK: u64 = (1 << ASID_SHIFT) - 1;

/// A page-walk cache over one radix page table.
///
/// Keys are virtual-address prefixes; payloads are the physical base
/// address of the *next*-level table, which is what the walker needs to
/// resume from the level below the cached entry. Each payload sits in
/// its way of the level's [`SetAssoc`], beside its key.
///
/// Like the [`Tlb`](crate::tlb::Tlb), entries carry the current
/// address-space tag: [`set_asid`](Self::set_asid) switches spaces
/// without a flush, [`flush_asid`](Self::flush_asid) evicts one tenant.
/// The default ASID 0 keeps single-address-space use bit-identical to
/// an untagged cache.
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    /// Index 0 → level 2 array, 1 → level 3, 2 → level 4; each way
    /// holds the cached entry's next-level table base.
    arrays: [SetAssoc<PhysAddr>; 3],
    latency: u64,
    stats: PwcStats,
    asid: u16,
}

impl PageWalkCache {
    /// Build a PWC from a configuration.
    pub fn new(config: PwcConfig) -> Self {
        // Small structures are fully associative.
        let arr = |entries: u64| SetAssoc::new(1, entries as usize);
        PageWalkCache {
            arrays: [
                arr(config.l2_entries),
                arr(config.l3_entries),
                arr(config.l4_entries),
            ],
            latency: config.latency,
            stats: PwcStats::default(),
            asid: 0,
        }
    }

    /// Lookup round-trip latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    #[inline]
    fn key(&self, va: VirtAddr, level: u8) -> u64 {
        (va.raw() >> (PAGE_SHIFT + LEVEL_BITS * (level as u32 - 1)))
            | ((self.asid as u64) << ASID_SHIFT)
    }

    /// Switch the cache to another address space; resident entries stay
    /// but only same-tag entries hit (tagged-hardware context switch).
    pub fn set_asid(&mut self, asid: u16) {
        self.asid = asid;
    }

    /// The address space lookups currently match against.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Evict every entry tagged `asid` (tenant departure or ASID
    /// recycling). Returns the number of entries invalidated. No
    /// lookup-stat effects.
    pub fn flush_asid(&mut self, asid: u16) -> u64 {
        let tag = (asid as u64) << ASID_SHIFT;
        self.arrays
            .iter_mut()
            .map(|a| a.retain(|key, _| key & !KEY_MASK != tag))
            .sum()
    }

    #[inline]
    fn slot(level: u8) -> usize {
        debug_assert!((2..=4).contains(&level));
        level as usize - 2
    }

    /// Find the deepest cached entry covering `va`.
    ///
    /// A hit at level `l` returns `(l, base)` where `base` is the physical
    /// base of the level-`l-1` table: the walk resumes by indexing that
    /// table. Checks level 2 first (deepest skip), then 3, then 4.
    pub fn lookup_deepest(&mut self, va: VirtAddr) -> Option<(u8, PhysAddr)> {
        for level in 2..=4u8 {
            let s = Self::slot(level);
            let key = self.key(va, level);
            if let Some(base) = self.arrays[s].lookup_value(key) {
                self.stats.hits += 1;
                match level {
                    2 => self.stats.l2_hits += 1,
                    3 => self.stats.l3_hits += 1,
                    _ => self.stats.l4_hits += 1,
                }
                return Some((level, base));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Install the entry for `va` at `level`, whose content points to the
    /// next-level table at `next_table`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not 2, 3 or 4.
    pub fn fill(&mut self, va: VirtAddr, level: u8, next_table: PhysAddr) {
        assert!(
            (2..=4).contains(&level),
            "PWC caches levels 2..=4, got {level}"
        );
        let key = self.key(va, level);
        self.arrays[Self::slot(level)].insert_value(key, next_table);
    }

    /// Drop all cached entries (e.g. on CR3 switch).
    pub fn flush(&mut self) {
        for a in &mut self.arrays {
            a.flush();
        }
    }

    /// Every resident entry as `(level, region base VA, next-table base)`.
    /// Read-only (no LRU or counter effects) — the oracle checks each
    /// payload still matches the live page table after shootdowns.
    pub fn entries(&self) -> Vec<(u8, VirtAddr, PhysAddr)> {
        let mut out = Vec::new();
        for level in 2..=4u8 {
            let shift = PAGE_SHIFT + LEVEL_BITS * (level as u32 - 1);
            for (key, next) in self.arrays[Self::slot(level)].entries() {
                out.push((level, VirtAddr((key & KEY_MASK) << shift), next));
            }
        }
        out
    }

    /// Counters.
    pub fn stats(&self) -> PwcStats {
        self.stats
    }

    /// Reset counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = PwcStats::default();
    }
}

impl Default for PageWalkCache {
    fn default() -> Self {
        Self::new(PwcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L3_SPAN: u64 = 1 << 30; // bytes mapped by one L3 entry
    const L2_SPAN: u64 = 2 << 20;

    #[test]
    fn empty_pwc_misses() {
        let mut pwc = PageWalkCache::default();
        assert_eq!(pwc.lookup_deepest(VirtAddr(0x1234_5000)), None);
        assert_eq!(pwc.stats().misses, 1);
    }

    #[test]
    fn deepest_level_wins() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 4, PhysAddr(0x1000));
        pwc.fill(va, 3, PhysAddr(0x2000));
        pwc.fill(va, 2, PhysAddr(0x3000));
        // The L2-entry hit provides the L1 table base directly.
        assert_eq!(pwc.lookup_deepest(va), Some((2, PhysAddr(0x3000))));
    }

    #[test]
    fn falls_back_to_shallower_levels() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 3, PhysAddr(0x2000));
        // A different 2 MiB region under the same L3 entry still hits L3.
        let sibling = VirtAddr(va.raw() + L2_SPAN);
        assert_eq!(pwc.lookup_deepest(sibling), Some((3, PhysAddr(0x2000))));
        // A different 1 GiB region misses entirely.
        let cousin = VirtAddr(va.raw() + L3_SPAN);
        assert_eq!(pwc.lookup_deepest(cousin), None);
    }

    #[test]
    fn capacity_evicts_lru_and_payload() {
        let mut pwc = PageWalkCache::new(PwcConfig {
            l4_entries: 2,
            l3_entries: 2,
            l2_entries: 2,
            latency: 1,
        });
        for i in 0..3u64 {
            pwc.fill(VirtAddr(i * L2_SPAN), 2, PhysAddr(i * 0x1000));
        }
        // Entry 0 evicted; 1 and 2 remain with the right payloads.
        assert_eq!(pwc.lookup_deepest(VirtAddr(0)), None);
        assert_eq!(
            pwc.lookup_deepest(VirtAddr(L2_SPAN)),
            Some((2, PhysAddr(0x1000)))
        );
        assert_eq!(
            pwc.lookup_deepest(VirtAddr(2 * L2_SPAN)),
            Some((2, PhysAddr(0x2000)))
        );
    }

    #[test]
    fn entries_round_trips_fills() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 3, PhysAddr(0x2000));
        pwc.fill(va, 2, PhysAddr(0x3000));
        let mut e = pwc.entries();
        e.sort();
        assert_eq!(
            e,
            vec![(2, va, PhysAddr(0x3000)), (3, va, PhysAddr(0x2000))]
        );
    }

    #[test]
    fn per_level_hits_sum_to_total() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 4, PhysAddr(0x1000));
        pwc.fill(va, 2, PhysAddr(0x3000));
        pwc.lookup_deepest(va); // L2 hit
        let cousin = VirtAddr(va.raw() + L3_SPAN);
        pwc.lookup_deepest(cousin); // same L4 slot covers it
        pwc.lookup_deepest(VirtAddr(0x7000_0000_0000)); // miss
        let s = pwc.stats();
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.l4_hits, 1);
        assert_eq!(s.l3_hits, 0);
        assert_eq!(s.hits, s.l2_hits + s.l3_hits + s.l4_hits);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn flush_empties_cache() {
        let mut pwc = PageWalkCache::default();
        pwc.fill(VirtAddr(0), 2, PhysAddr(0x1000));
        pwc.flush();
        assert_eq!(pwc.lookup_deepest(VirtAddr(0)), None);
    }

    #[test]
    #[should_panic(expected = "PWC caches levels")]
    fn filling_leaf_level_panics() {
        let mut pwc = PageWalkCache::default();
        pwc.fill(VirtAddr(0), 1, PhysAddr(0));
    }

    #[test]
    fn asids_isolate_walk_caches() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 2, PhysAddr(0x3000));
        pwc.set_asid(4);
        assert_eq!(pwc.lookup_deepest(va), None, "other space must miss");
        pwc.fill(va, 2, PhysAddr(0x9000));
        assert_eq!(pwc.lookup_deepest(va), Some((2, PhysAddr(0x9000))));
        pwc.set_asid(0);
        assert_eq!(pwc.lookup_deepest(va), Some((2, PhysAddr(0x3000))));
    }

    #[test]
    fn flush_asid_evicts_only_the_tag_and_payloads() {
        let mut pwc = PageWalkCache::default();
        let va = VirtAddr(0x40_0000_0000);
        pwc.fill(va, 2, PhysAddr(0x3000));
        pwc.set_asid(4);
        pwc.fill(va, 2, PhysAddr(0x9000));
        pwc.fill(va, 3, PhysAddr(0xa000));
        assert_eq!(pwc.flush_asid(4), 2);
        assert_eq!(pwc.lookup_deepest(va), None);
        pwc.set_asid(0);
        assert_eq!(pwc.lookup_deepest(va), Some((2, PhysAddr(0x3000))));
        // entries() masks tags away.
        assert_eq!(pwc.entries(), vec![(2, va, PhysAddr(0x3000))]);
    }
}
