//! The hardware page-table walker for one translation dimension.
//!
//! [`walk_dimension`] replays a radix walk the way the MMU would: consult
//! the page-walk cache, then fetch each remaining PTE through the cache
//! hierarchy, charging real cycles and recording a per-step trace (the raw
//! material for Figure 16). The same routine serves three roles:
//!
//! * the **native** walk of Figure 1 (up to 4 sequential references);
//! * the **guest dimension** of a 2D nested walk;
//! * the **host dimension** of a 2D nested walk, where the "virtual
//!   address" is a guest physical address and the PWC passed in is the
//!   nested PWC.

use crate::pte::Pte;
use crate::radix::RadixPageTable;
use crate::PtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_mem::addr::PTE_SIZE;
use dmt_mem::{MemoryOps, PageSize, PhysAddr, VirtAddr};

/// The deepest radix tree [`walk_dimension`] can descend in one
/// dimension: five levels (LA57). Fixed-size step-cycle buffers (e.g.
/// ASAP's timeliness adjustment) are sized by this — a single-dimension
/// walk never performs more PTE fetches.
pub const MAX_WALK_DEPTH: usize = 5;

/// Which translation dimension a walk step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkDim {
    /// A native (single-dimension) walk.
    Native,
    /// A guest-page-table step of a 2D walk (square boxes in Figure 2).
    Guest,
    /// A host-page-table step of a 2D walk (circles in Figure 2).
    Host,
}

/// One PTE fetch performed by a walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Dimension the fetched entry belongs to.
    pub dim: WalkDim,
    /// Radix level of the fetched entry (4 = root of a 4-level tree).
    pub level: u8,
    /// Host-physical address of the entry.
    pub pte_pa: PhysAddr,
    /// Cycles this fetch cost (where in the hierarchy it hit).
    pub cycles: u64,
}

/// The result of a completed hardware walk.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Page size of the final mapping.
    pub size: PageSize,
    /// Total cycles, including PWC lookup latency.
    pub cycles: u64,
    /// Every PTE fetch, in order.
    pub steps: Vec<WalkStep>,
}

impl WalkOutcome {
    /// Number of sequential memory references (PTE fetches).
    pub fn refs(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Walk one radix dimension for `va`, charging cycles against `hier`.
///
/// `pwc`, when provided, is consulted once (its latency is charged) and
/// filled as the walk descends. Accessed bits are set on the traversed
/// entries as real hardware does.
///
/// # Errors
///
/// Returns [`PtError::NotMapped`] if a non-present entry is reached.
pub fn walk_dimension<M: MemoryOps>(
    pt: &RadixPageTable,
    pm: &mut M,
    va: VirtAddr,
    dim: WalkDim,
    hier: &mut MemoryHierarchy,
    mut pwc: Option<&mut PageWalkCache>,
) -> Result<WalkOutcome, PtError> {
    let mut cycles = 0u64;
    let mut level = pt.levels();
    let mut table = PhysAddr::from_pfn(pt.root());

    if let Some(p) = pwc.as_deref_mut() {
        cycles += p.latency();
        if let Some((hit_level, next_table)) = p.lookup_deepest(va) {
            // The cached entry at `hit_level` already provides the base of
            // the table below it.
            level = hit_level - 1;
            table = next_table;
        }
    }

    let mut steps = Vec::with_capacity(level as usize);
    loop {
        let slot = table + va.level_index(level) * PTE_SIZE;
        let (_, cyc) = hier.access(slot.raw());
        cycles += cyc;
        let pte = Pte(pm.read_word(slot));
        steps.push(WalkStep {
            dim,
            level,
            pte_pa: slot,
            cycles: cyc,
        });
        if !pte.present() {
            return Err(PtError::NotMapped { va: va.raw() });
        }
        pm.write_word(slot, pte.with_accessed().raw());
        if pte.is_leaf_at(level) {
            let size = match level {
                1 => PageSize::Size4K,
                2 => PageSize::Size2M,
                3 => PageSize::Size1G,
                _ => return Err(PtError::NotMapped { va: va.raw() }),
            };
            let pa = PhysAddr(pte.phys_addr().raw() + va.offset_in(size));
            return Ok(WalkOutcome {
                pa,
                size,
                cycles,
                steps,
            });
        }
        // Fill the PWC with this upper-level entry (levels 4..=2 only).
        if let Some(p) = pwc.as_deref_mut() {
            if (2..=4).contains(&level) {
                p.fill(va, level, pte.phys_addr());
            }
        }
        table = pte.phys_addr();
        level -= 1;
    }
}

/// A memo of traversed PTE words (post-`accessed`) keyed by slot PA,
/// for [`walk_dimension_cached`]. Only valid while the page tables are
/// quiescent — replay never remaps — so owners must drop it on any
/// teardown or remap.
#[derive(Debug, Clone, Default)]
pub struct PteMemo {
    words: dmt_mem::FastMap<u64, u64>,
}

impl PteMemo {
    /// Forget every memoized entry (tables changed).
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

/// A completed walk without the per-step trace allocation —
/// [`walk_dimension_cached`]'s return shape.
#[derive(Debug, Clone, Copy)]
pub struct LeanWalk {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Page size of the final mapping.
    pub size: PageSize,
    /// Total cycles, including PWC lookup latency.
    pub cycles: u64,
    /// Sequential memory references (PTE fetches).
    pub refs: u64,
}

/// [`walk_dimension`] with the physical-memory word traffic memoized:
/// every *observable* operation — the PWC latency charge, lookup and
/// fills, and each per-slot `hier.access` — is issued exactly as the
/// uncached walker would, but a slot visited before skips the
/// `PhysMemory` word read and the (idempotent) accessed-bit write, and
/// no per-step `Vec` is allocated. The batched backends use this on
/// their fallback/vanilla walk paths; results are bit-identical to
/// [`walk_dimension`] by construction.
///
/// Non-present entries are *not* memoized (a later map could make them
/// present).
///
/// # Errors
///
/// Returns [`PtError::NotMapped`] if a non-present entry is reached.
pub fn walk_dimension_cached<M: MemoryOps>(
    pt: &RadixPageTable,
    pm: &mut M,
    va: VirtAddr,
    hier: &mut MemoryHierarchy,
    mut pwc: Option<&mut PageWalkCache>,
    memo: &mut PteMemo,
) -> Result<LeanWalk, PtError> {
    let mut cycles = 0u64;
    let mut level = pt.levels();
    let mut table = PhysAddr::from_pfn(pt.root());

    if let Some(p) = pwc.as_deref_mut() {
        cycles += p.latency();
        if let Some((hit_level, next_table)) = p.lookup_deepest(va) {
            level = hit_level - 1;
            table = next_table;
        }
    }

    let mut refs = 0u64;
    loop {
        let slot = table + va.level_index(level) * PTE_SIZE;
        let (_, cyc) = hier.access(slot.raw());
        cycles += cyc;
        refs += 1;
        let pte = if let Some(&word) = memo.words.get(&slot.raw()) {
            Pte(word)
        } else {
            let pte = Pte(pm.read_word(slot));
            if !pte.present() {
                return Err(PtError::NotMapped { va: va.raw() });
            }
            let pte = pte.with_accessed();
            pm.write_word(slot, pte.raw());
            // Memoize interior entries only: they are shared across
            // many VAs (high hit rate, bounded map), while leaves are
            // per-page — memoizing those would grow the map by one
            // entry per touched page for a near-zero hit rate on
            // big-footprint workloads.
            if !pte.is_leaf_at(level) {
                memo.words.insert(slot.raw(), pte.raw());
            }
            pte
        };
        if pte.is_leaf_at(level) {
            let size = match level {
                1 => PageSize::Size4K,
                2 => PageSize::Size2M,
                3 => PageSize::Size1G,
                _ => return Err(PtError::NotMapped { va: va.raw() }),
            };
            return Ok(LeanWalk {
                pa: PhysAddr(pte.phys_addr().raw() + va.offset_in(size)),
                size,
                cycles,
                refs,
            });
        }
        if let Some(p) = pwc.as_deref_mut() {
            if (2..=4).contains(&level) {
                p.fill(va, level, pte.phys_addr());
            }
        }
        table = pte.phys_addr();
        level -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use dmt_cache::hierarchy::HierarchyConfig;
    use dmt_cache::pwc::PwcConfig;
    use dmt_mem::PhysMemory;

    fn setup_4k() -> (PhysMemory, RadixPageTable, VirtAddr) {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
        let va = VirtAddr(0x7f12_3456_7000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x5000),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        (pm, pt, va)
    }

    #[test]
    fn cold_native_walk_takes_four_references() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_gold_6138());
        let out = walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None).unwrap();
        assert_eq!(out.refs(), 4);
        assert_eq!(out.pa, PhysAddr(0x5000));
        assert_eq!(out.size, PageSize::Size4K);
        // All four fetches missed to DRAM on a cold hierarchy.
        assert_eq!(out.cycles, 4 * 200);
        let levels: Vec<u8> = out.steps.iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![4, 3, 2, 1]);
    }

    #[test]
    fn pwc_hit_skips_upper_levels() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_gold_6138());
        let mut pwc = PageWalkCache::new(PwcConfig::xeon_gold_6138());
        // First walk warms the PWC (and caches).
        let first =
            walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, Some(&mut pwc)).unwrap();
        assert_eq!(first.refs(), 4);
        // Second walk: PWC hit on the L2 entry leaves only the L1 fetch.
        let second =
            walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, Some(&mut pwc)).unwrap();
        assert_eq!(second.refs(), 1);
        assert_eq!(second.steps[0].level, 1);
        // 1 cycle PWC + L1-cache hit for the leaf.
        assert_eq!(second.cycles, 1 + 4);
    }

    #[test]
    fn huge_page_walk_is_shorter() {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
        let va = VirtAddr(0x4000_0000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            PteFlags::default(),
        )
        .unwrap();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_gold_6138());
        let out =
            walk_dimension(&pt, &mut pm, va + 0x1234, WalkDim::Native, &mut hier, None).unwrap();
        assert_eq!(out.refs(), 3); // L4, L3, L2-leaf
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.pa, PhysAddr(0x20_1234));
    }

    #[test]
    fn five_level_walk_takes_five_references() {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let mut pt = RadixPageTable::new(&mut pm, 5).unwrap();
        let va = VirtAddr(0x00aa_0000_0000_0000 & ((1 << 57) - 1));
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x9000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_gold_6138());
        let out = walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None).unwrap();
        assert_eq!(out.refs(), 5);
    }

    #[test]
    fn walk_sets_accessed_bits() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::default();
        walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None).unwrap();
        let leaf = pt.entry(&pm, va, 1).unwrap();
        assert!(leaf.flags().contains(PteFlags::ACCESSED));
        let mid = pt.entry(&pm, va, 3).unwrap();
        assert!(mid.flags().contains(PteFlags::ACCESSED));
    }

    #[test]
    fn unmapped_address_errors() {
        let (mut pm, pt, _) = setup_4k();
        let mut hier = MemoryHierarchy::default();
        let err = walk_dimension(
            &pt,
            &mut pm,
            VirtAddr(0x1234_5000),
            WalkDim::Native,
            &mut hier,
            None,
        );
        assert!(matches!(err, Err(PtError::NotMapped { .. })));
    }

    #[test]
    fn cached_walk_is_bit_identical_to_the_uncached_walker() {
        // Two identical machines, interleaved mappings: every access
        // must produce the same (pa, size, cycles, refs) and leave the
        // PWC stats identical, memo warm or cold.
        let mk = || {
            let mut pm = PhysMemory::new_bytes(32 << 20);
            let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
            pt.map(
                &mut pm,
                VirtAddr(0x10_0000),
                PhysAddr(0x5000),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
            pt.map(
                &mut pm,
                VirtAddr(0x4000_0000),
                PhysAddr(0x20_0000),
                PageSize::Size2M,
                PteFlags::WRITABLE,
            )
            .unwrap();
            (pm, pt)
        };
        let (mut pm_a, pt_a) = mk();
        let (mut pm_b, pt_b) = mk();
        let mut hier_a = MemoryHierarchy::default();
        let mut hier_b = MemoryHierarchy::default();
        let mut pwc_a = PageWalkCache::new(PwcConfig::xeon_gold_6138());
        let mut pwc_b = PageWalkCache::new(PwcConfig::xeon_gold_6138());
        let mut memo = PteMemo::default();
        let vas = [
            VirtAddr(0x10_0000),
            VirtAddr(0x4000_1234),
            VirtAddr(0x10_0000), // memo-warm revisits
            VirtAddr(0x4000_9999),
        ];
        for va in vas {
            let a = walk_dimension(
                &pt_a,
                &mut pm_a,
                va,
                WalkDim::Native,
                &mut hier_a,
                Some(&mut pwc_a),
            )
            .unwrap();
            let b = walk_dimension_cached(
                &pt_b,
                &mut pm_b,
                va,
                &mut hier_b,
                Some(&mut pwc_b),
                &mut memo,
            )
            .unwrap();
            assert_eq!(
                (a.pa, a.size, a.cycles, a.refs()),
                (b.pa, b.size, b.cycles, b.refs),
                "{va:?}"
            );
        }
        assert_eq!(pwc_a.stats(), pwc_b.stats());
        assert_eq!(hier_a.stats(), hier_b.stats());
        // The cached walker still set the accessed bits on first visit.
        let leaf = pt_b.entry(&pm_b, VirtAddr(0x10_0000), 1).unwrap();
        assert!(leaf.flags().contains(PteFlags::ACCESSED));
        // And it refuses unmapped addresses without memoizing them.
        let err = walk_dimension_cached(
            &pt_b,
            &mut pm_b,
            VirtAddr(0x9999_0000),
            &mut hier_b,
            None,
            &mut memo,
        );
        assert!(matches!(err, Err(PtError::NotMapped { .. })));
    }

    #[test]
    fn warm_cache_walk_is_cheap_even_without_pwc() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::default();
        walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None).unwrap();
        let warm = walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None).unwrap();
        assert_eq!(warm.refs(), 4);
        assert_eq!(warm.cycles, 4 * 4); // four L1-cache hits
    }
}
