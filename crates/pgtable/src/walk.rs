//! The hardware page-table walker for one translation dimension.
//!
//! [`walk_dimension`] replays a radix walk the way the MMU would: consult
//! the page-walk cache, then fetch each remaining PTE through the cache
//! hierarchy, charging real cycles. It returns a `Copy` [`WalkOutcome`]
//! with the reference count kept inline and reports each fetch to a
//! [`StepSink`]: `()` drops the steps and compiles away, so the per-miss
//! path allocates nothing; a `Vec<WalkStep>` collects the per-step trace
//! (the raw material for Figure 16). The same routine serves three
//! roles:
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

/// Where a walker reports each memory reference it makes, in order.
///
/// `()` discards every step; its empty inline body lets the compiler
/// drop the step construction, so a walk with a `()` sink costs what a
/// walk with no trace would. A `Vec` collects the steps. Other sinks
/// fold them as they arrive (ASAP's timeliness adjustment keeps two
/// sums).
pub trait StepSink<S> {
    /// Record one step.
    fn step(&mut self, s: S);
}

impl<S> StepSink<S> for () {
    #[inline(always)]
    fn step(&mut self, _s: S) {}
}

impl<S> StepSink<S> for Vec<S> {
    fn step(&mut self, s: S) {
        self.push(s);
    }
}

/// The result of a completed translation: one shape for every walker
/// and fetcher (radix, 2D, DMT fetch chains, FPT, agile paging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Page size of the (innermost, application-visible) mapping.
    pub size: PageSize,
    /// Total cycles, including walk-cache lookup latency.
    pub cycles: u64,
    /// Sequential memory references (PTE fetches).
    pub refs: u64,
}

/// The page size of a leaf found at radix `level`, or `None` above L3.
pub fn leaf_size(level: u8) -> Option<PageSize> {
    match level {
        1 => Some(PageSize::Size4K),
        2 => Some(PageSize::Size2M),
        3 => Some(PageSize::Size1G),
        _ => None,
    }
}

/// Walk one radix dimension for `va`, charging cycles against `hier`
/// and reporting each PTE fetch, tagged `dim`, to `steps`.
///
/// `pwc`, when provided, is consulted once (its latency is charged) and
/// filled as the walk descends. Accessed bits are set on the traversed
/// entries as real hardware does.
///
/// # Errors
///
/// Returns [`PtError::NotMapped`] if a non-present entry is reached.
#[allow(clippy::too_many_arguments)] // the walker's inputs plus its step sink
pub fn walk_dimension<M: MemoryOps>(
    pt: &RadixPageTable,
    pm: &mut M,
    va: VirtAddr,
    dim: WalkDim,
    hier: &mut MemoryHierarchy,
    mut pwc: Option<&mut PageWalkCache>,
    steps: &mut impl StepSink<WalkStep>,
) -> Result<WalkOutcome, PtError> {
    let mut cycles = 0u64;
    let mut refs = 0u64;
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

    loop {
        let slot = table + va.level_index(level) * PTE_SIZE;
        let (_, cyc) = hier.access(slot.raw());
        cycles += cyc;
        refs += 1;
        steps.step(WalkStep {
            dim,
            level,
            pte_pa: slot,
            cycles: cyc,
        });
        // One fused lookup reads the entry and sets its accessed bit.
        let mut pte = Pte::EMPTY;
        pm.rmw_word(slot, |w| {
            pte = Pte(w);
            pte.present().then(|| pte.with_accessed().raw())
        });
        if !pte.present() {
            return Err(PtError::NotMapped { va: va.raw() });
        }
        if pte.is_leaf_at(level) {
            let size = leaf_size(level).ok_or(PtError::NotMapped { va: va.raw() })?;
            return Ok(WalkOutcome {
                pa: PhysAddr(pte.phys_addr().raw() + va.offset_in(size)),
                size,
                cycles,
                refs,
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
        let mut steps = Vec::new();
        let out = walk_dimension(
            &pt,
            &mut pm,
            va,
            WalkDim::Native,
            &mut hier,
            None,
            &mut steps,
        )
        .unwrap();
        assert_eq!(out.refs, 4);
        assert_eq!(out.pa, PhysAddr(0x5000));
        assert_eq!(out.size, PageSize::Size4K);
        // All four fetches missed to DRAM on a cold hierarchy.
        assert_eq!(out.cycles, 4 * 200);
        let levels: Vec<u8> = steps.iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![4, 3, 2, 1]);
    }

    #[test]
    fn pwc_hit_skips_upper_levels() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::xeon_gold_6138());
        let mut pwc = PageWalkCache::new(PwcConfig::xeon_gold_6138());
        // First walk warms the PWC (and caches).
        let first = walk_dimension(
            &pt,
            &mut pm,
            va,
            WalkDim::Native,
            &mut hier,
            Some(&mut pwc),
            &mut (),
        )
        .unwrap();
        assert_eq!(first.refs, 4);
        // Second walk: PWC hit on the L2 entry leaves only the L1 fetch.
        let mut steps = Vec::new();
        let second = walk_dimension(
            &pt,
            &mut pm,
            va,
            WalkDim::Native,
            &mut hier,
            Some(&mut pwc),
            &mut steps,
        )
        .unwrap();
        assert_eq!(second.refs, 1);
        assert_eq!(steps[0].level, 1);
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
        let out = walk_dimension(
            &pt,
            &mut pm,
            va + 0x1234,
            WalkDim::Native,
            &mut hier,
            None,
            &mut (),
        )
        .unwrap();
        assert_eq!(out.refs, 3); // L4, L3, L2-leaf
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
        let out =
            walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None, &mut ()).unwrap();
        assert_eq!(out.refs, 5);
    }

    #[test]
    fn walk_sets_accessed_bits() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::default();
        walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None, &mut ()).unwrap();
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
            &mut (),
        );
        assert!(matches!(err, Err(PtError::NotMapped { .. })));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// The `Vec` sink and the `()` sink drive the same walk: equal
        /// outcomes, hierarchy and PWC statistics and accessed bits on
        /// two identical machines, and the `Vec` holds one step per
        /// reference.
        #[test]
        fn vec_and_unit_sinks_walk_identically(
            pages in proptest::prop::collection::vec(0u64..4096, 1..48),
            probes in proptest::prop::collection::vec(0u64..4096, 1..96),
        ) {
            let mk = || {
                let mut pm = PhysMemory::new_bytes(64 << 20);
                let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
                for &p in &pages {
                    // Spread pages over many L1/L2 tables; 2 MiB leaves
                    // above page 3072 so both leaf levels are walked.
                    let (va, size) = if p >= 3072 {
                        (VirtAddr((1 << 40) | (p << 21)), PageSize::Size2M)
                    } else {
                        (VirtAddr(p << 27 | (p & 7) << 12), PageSize::Size4K)
                    };
                    let pa = PhysAddr((p + 1) << 21);
                    let _ = pt.map(&mut pm, va, pa, size, PteFlags::WRITABLE);
                }
                (pm, pt)
            };
            let (mut pm_a, pt_a) = mk();
            let (mut pm_b, pt_b) = mk();
            let mut hier_a = MemoryHierarchy::default();
            let mut hier_b = MemoryHierarchy::default();
            let mut pwc_a = PageWalkCache::new(PwcConfig::xeon_gold_6138());
            let mut pwc_b = PageWalkCache::new(PwcConfig::xeon_gold_6138());
            for &p in &probes {
                let va = if p >= 3072 {
                    VirtAddr((1 << 40) | (p << 21) | 0x1234)
                } else {
                    VirtAddr(p << 27 | (p & 7) << 12 | 0x21)
                };
                let mut steps = Vec::new();
                let a = walk_dimension(&pt_a, &mut pm_a, va, WalkDim::Native, &mut hier_a, Some(&mut pwc_a), &mut steps);
                let b = walk_dimension(&pt_b, &mut pm_b, va, WalkDim::Native, &mut hier_b, Some(&mut pwc_b), &mut ());
                proptest::prop_assert_eq!(a, b);
                if let Ok(out) = a {
                    proptest::prop_assert_eq!(out.refs, steps.len() as u64);
                    let pwc_latency = out.cycles - steps.iter().map(|s| s.cycles).sum::<u64>();
                    proptest::prop_assert_eq!(pwc_latency, pwc_a.latency());
                }
            }
            proptest::prop_assert_eq!(hier_a.stats(), hier_b.stats());
            proptest::prop_assert_eq!(pwc_a.stats(), pwc_b.stats());
            for &p in &probes {
                let va = VirtAddr(p << 27 | (p & 7) << 12);
                for level in 1..=4 {
                    proptest::prop_assert_eq!(pt_a.entry(&pm_a, va, level), pt_b.entry(&pm_b, va, level));
                }
            }
        }
    }

    #[test]
    fn warm_cache_walk_is_cheap_even_without_pwc() {
        let (mut pm, pt, va) = setup_4k();
        let mut hier = MemoryHierarchy::default();
        walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None, &mut ()).unwrap();
        let warm =
            walk_dimension(&pt, &mut pm, va, WalkDim::Native, &mut hier, None, &mut ()).unwrap();
        assert_eq!(warm.refs, 4);
        assert_eq!(warm.cycles, 4 * 4); // four L1-cache hits
    }
}
