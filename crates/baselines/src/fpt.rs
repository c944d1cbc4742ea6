//! Flattened Page Tables (FPT) — Park et al., ASPLOS'22 ("Every Walk's a
//! Hit").
//!
//! FPT merges adjacent radix levels: L4·L3 become one 18-bit-indexed
//! table and L2·L1 another, so a native walk is 2 sequential fetches and
//! a virtualized 2D walk is 8 (Table 6). Each flattened table is a 2 MiB
//! physically contiguous region — FPT shares DMT's contiguity appetite,
//! which is why the paper groups them.
//!
//! 2 MiB mappings are stored once per 2 MiB group in the flattened leaf
//! table, with the covering upper entry flagged "huge region" so the
//! walker indexes coarsely — the walk stays at 2 fetches for every page
//! size and the leaf array stays small (8 B per 2 MiB, not per 4 KiB).
//! Regions must be size-homogeneous per 1 GiB upper entry.

use crate::BaselineError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::set_assoc::SetAssoc;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{FastMap, MemoryOps, PageSize, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::pte::{Pte, PteFlags};
use dmt_pgtable::walk::WalkOutcome;

/// Entries per flattened table (18 index bits).
const FLAT_ENTRIES: u64 = 1 << 18;
/// Frames per flattened table (2 MiB).
const FLAT_FRAMES: u64 = FLAT_ENTRIES * 8 / 4096;

/// Index into the upper (L4·L3) table: VA\[47:30\].
fn upper_index(va: VirtAddr) -> u64 {
    (va.raw() >> 30) & (FLAT_ENTRIES - 1)
}

/// Index into the lower (L2·L1) table: VA\[29:12\].
fn lower_index(va: VirtAddr) -> u64 {
    (va.raw() >> 12) & (FLAT_ENTRIES - 1)
}

/// A two-level flattened page table, with a small upper-entry cache
/// standing in for the page-walk cache real FPT systems keep (a cached
/// upper entry turns the walk into a single lower fetch, which is how
/// "Every Walk's a Hit" gets its name).
#[derive(Debug, Clone)]
pub struct FlatPageTable {
    /// The upper (L4·L3) table's base.
    root: PhysAddr,
    /// Lower tables by upper index.
    lowers: FastMap<u64, PhysAddr>,
    /// Upper-entry cache (32 entries, like the L2-level PWC): upper
    /// index → the cached upper PTE, held in its way.
    upper_cache: SetAssoc<Pte>,
    /// Whether the upper-entry cache is consulted (disabled for
    /// worst-case Table 6 analysis).
    cache_enabled: bool,
}

impl FlatPageTable {
    /// Allocate the 2 MiB upper table.
    ///
    /// # Errors
    ///
    /// Propagates contiguous-allocation failure.
    pub fn new<M: MemoryOps>(
        pm: &mut M,
        alloc: &mut impl FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
    ) -> Result<Self, BaselineError> {
        let root = alloc(pm, FLAT_FRAMES)?;
        Ok(FlatPageTable {
            root: PhysAddr::from_pfn(root),
            lowers: FastMap::default(),
            upper_cache: SetAssoc::new(1, 32),
            cache_enabled: true,
        })
    }

    /// Convenience constructor over host physical memory.
    ///
    /// # Errors
    ///
    /// Propagates contiguous-allocation failure.
    pub fn new_host(pm: &mut PhysMemory) -> Result<Self, BaselineError> {
        let root = pm.alloc_contig(FLAT_FRAMES, FrameKind::PageTable)?;
        Ok(FlatPageTable {
            root: PhysAddr::from_pfn(root),
            lowers: FastMap::default(),
            upper_cache: SetAssoc::new(1, 32),
            cache_enabled: true,
        })
    }

    /// Flush the upper-entry cache, as a TLB-flush analog — the mapping
    /// itself is untouched. The sharded-replay epoch barrier relies on
    /// this to make warm-cache state a function of position in the trace
    /// (DESIGN.md §14).
    pub fn flush_upper_cache(&mut self) {
        self.upper_cache.flush();
    }

    /// Disable or enable the upper-entry cache (worst-case analysis).
    pub fn set_upper_cache(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.upper_cache.flush();
        }
    }

    /// Slot of the upper-table entry for `va`.
    pub fn upper_slot(&self, va: VirtAddr) -> PhysAddr {
        self.root + upper_index(va) * 8
    }

    /// Slot of the lower-table entry for `va`, given the lower base.
    pub fn lower_slot(base: PhysAddr, va: VirtAddr) -> PhysAddr {
        base + lower_index(va) * 8
    }

    /// Slot for a 2 MiB leaf in a huge-flagged region: coarse index
    /// VA\[29:21\] within the same table.
    pub fn lower_slot_huge(base: PhysAddr, va: VirtAddr) -> PhysAddr {
        base + ((va.raw() >> 21) & 0x1ff) * 8
    }

    /// Map a page (software).
    ///
    /// # Errors
    ///
    /// Propagates lower-table allocation failure.
    pub fn map<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        mut alloc: impl FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
    ) -> Result<(), BaselineError> {
        assert!(size != PageSize::Size1G, "FPT models 4K/2M leaves");
        let ui = upper_index(va);
        let lower = match self.lowers.get(&ui) {
            Some(b) => *b,
            None => {
                let base = PhysAddr::from_pfn(alloc(pm, FLAT_FRAMES)?);
                pm.write_word(self.upper_slot(va), Pte::table(base.pfn()).raw());
                self.lowers.insert(ui, base);
                base
            }
        };
        match size {
            PageSize::Size4K => {
                pm.write_word(
                    Self::lower_slot(lower, va),
                    Pte::leaf(pa.pfn(), PteFlags::WRITABLE).raw(),
                );
            }
            PageSize::Size2M => {
                // Flag the upper entry as a huge region and store one
                // leaf at the coarse index.
                let up = self.upper_slot(va);
                let upper = Pte(pm.read_word(up));
                pm.write_word(up, upper.raw() | PteFlags::HUGE.0);
                pm.write_word(
                    Self::lower_slot_huge(lower, va),
                    Pte::huge_leaf(pa.pfn(), PteFlags::WRITABLE).raw(),
                );
            }
            PageSize::Size1G => unreachable!(),
        }
        Ok(())
    }

    /// Native translation: exactly two sequential fetches.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::NotMapped`] for absent entries.
    pub fn translate<M: MemoryOps>(
        &mut self,
        pm: &M,
        hier: &mut MemoryHierarchy,
        va: VirtAddr,
    ) -> Result<WalkOutcome, BaselineError> {
        let ui = upper_index(va);
        // Upper-entry cache (the PWC analog): a hit costs one cycle and
        // skips the upper fetch. While disabled the cache stays empty.
        let cached = self.upper_cache.lookup_value(ui);
        let mut cycles = u64::from(cached.is_some());
        let mut refs = 0u64;
        let mut fetch = |slot: PhysAddr| {
            let (_, c) = hier.access(slot.raw());
            cycles += c;
            refs += 1;
            Pte(pm.read_word(slot))
        };
        let upper = match cached {
            Some(pte) => pte,
            None => {
                let pte = fetch(self.upper_slot(va));
                if self.cache_enabled && pte.present() {
                    self.upper_cache.insert_value(ui, pte);
                }
                pte
            }
        };
        if !upper.present() {
            return Err(BaselineError::NotMapped { va: va.raw() });
        }
        // Huge-flagged regions are probed at the coarse index first; a
        // miss there (mixed-size region, e.g. an unaligned VMA edge)
        // falls back to the fine index with a third fetch.
        let mut leaf = Pte::EMPTY;
        if upper.huge() {
            leaf = fetch(Self::lower_slot_huge(upper.phys_addr(), va));
        }
        if !(leaf.present() && leaf.huge()) {
            leaf = fetch(Self::lower_slot(upper.phys_addr(), va));
        }
        if !leaf.present() {
            return Err(BaselineError::NotMapped { va: va.raw() });
        }
        let size = if leaf.huge() {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        Ok(WalkOutcome {
            pa: PhysAddr(leaf.phys_addr().raw() + va.offset_in(size)),
            size,
            cycles,
            refs,
        })
    }
}

/// 2D FPT translation for a virtualized guest: 8 sequential fetches
/// (2 guest levels × (2 host + 1 guest) + 2 final host).
///
/// `gfpt` entries hold gPAs; `gpa_to_hpa` supplies the software
/// redirection for reading guest slots (their *lookup cost* is the host
/// FPT fetches, exactly as in the design).
///
/// # Errors
///
/// Returns [`BaselineError::NotMapped`] on a miss in either dimension.
pub fn nested_translate(
    gfpt: &mut FlatPageTable,
    hfpt: &mut FlatPageTable,
    pm: &PhysMemory,
    hier: &mut MemoryHierarchy,
    gva: VirtAddr,
    gpa_to_hpa: impl Fn(PhysAddr) -> Option<PhysAddr>,
) -> Result<WalkOutcome, BaselineError> {
    let mut cycles = 0u64;
    let mut refs = 0u64;
    // Host-resolve then fetch one guest slot.
    let mut fetch_guest_slot = |slot_gpa: PhysAddr, hier: &mut MemoryHierarchy| {
        let host = hfpt.translate(pm, hier, VirtAddr(slot_gpa.raw()))?;
        let slot_hpa =
            gpa_to_hpa(slot_gpa).ok_or(BaselineError::NotMapped { va: slot_gpa.raw() })?;
        let (_, cyc) = hier.access(slot_hpa.raw());
        cycles += host.cycles + cyc;
        refs += host.refs + 1;
        Ok::<Pte, BaselineError>(Pte(pm.read_word(slot_hpa)))
    };

    // Guest upper entry.
    let gupper = fetch_guest_slot(gfpt.upper_slot(gva), hier)?;
    if !gupper.present() {
        return Err(BaselineError::NotMapped { va: gva.raw() });
    }
    // Guest lower entry (coarse index in huge-flagged regions, falling
    // back to the fine index for mixed-size edges).
    let mut gleaf = Pte::EMPTY;
    if gupper.huge() {
        let coarse = FlatPageTable::lower_slot_huge(gupper.phys_addr(), gva);
        gleaf = fetch_guest_slot(coarse, hier)?;
    }
    if !(gleaf.present() && gleaf.huge()) {
        let fine = FlatPageTable::lower_slot(gupper.phys_addr(), gva);
        gleaf = fetch_guest_slot(fine, hier)?;
    }
    if !gleaf.present() {
        return Err(BaselineError::NotMapped { va: gva.raw() });
    }
    let gsize = if gleaf.huge() {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    };
    let data_gpa = PhysAddr(gleaf.phys_addr().raw() + gva.offset_in(gsize));

    // Final host translation of the data gPA.
    let host = hfpt.translate(pm, hier, VirtAddr(data_gpa.raw()))?;
    Ok(WalkOutcome {
        pa: host.pa,
        size: gsize,
        cycles: cycles + host.cycles,
        refs: refs + host.refs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::Pfn;

    fn host_alloc(pm: &mut PhysMemory, frames: u64) -> dmt_mem::Result<Pfn> {
        pm.alloc_contig(frames, FrameKind::PageTable)
    }

    #[test]
    fn native_walk_is_two_fetches() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut fpt = FlatPageTable::new_host(&mut pm).unwrap();
        let va = VirtAddr(0x7f12_3456_7000);
        fpt.map(&mut pm, va, PhysAddr(0x5000), PageSize::Size4K, host_alloc)
            .unwrap();
        let mut hier = MemoryHierarchy::default();
        let out = fpt.translate(&pm, &mut hier, va + 0x21).unwrap();
        assert_eq!(out.refs, 2, "Table 6: FPT native = 2");
        assert_eq!(out.pa, PhysAddr(0x5021));
    }

    #[test]
    fn huge_pages_stay_two_fetches() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut fpt = FlatPageTable::new_host(&mut pm).unwrap();
        let va = VirtAddr(0x4000_0000);
        fpt.map(
            &mut pm,
            va,
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            host_alloc,
        )
        .unwrap();
        let mut hier = MemoryHierarchy::default();
        let out = fpt.translate(&pm, &mut hier, va + 0x12_3456).unwrap();
        assert_eq!(out.refs, 2);
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.pa, PhysAddr(0x20_0000 + 0x12_3456));
    }

    #[test]
    fn upper_cache_hits_skip_the_upper_fetch_until_evicted_or_flushed() {
        const GIB: u64 = 1 << 30;
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut fpt = FlatPageTable::new_host(&mut pm).unwrap();
        let va = VirtAddr(0x7f00_0000_0000);
        // The first page plus one page under each of 32 other upper
        // indices: one more than the cache's 32 entries.
        for i in 0..=32u64 {
            let page = VirtAddr(va.raw() + i * GIB);
            fpt.map(
                &mut pm,
                page,
                PhysAddr(0x5000),
                PageSize::Size4K,
                host_alloc,
            )
            .unwrap();
        }
        let mut hier = MemoryHierarchy::default();
        assert_eq!(fpt.translate(&pm, &mut hier, va).unwrap().refs, 2);
        // Warm: the cached upper entry costs one cycle and no fetch, and
        // the lower entry's line is now an L1 hit (4 cycles).
        let warm = fpt.translate(&pm, &mut hier, va).unwrap();
        assert_eq!((warm.refs, warm.cycles), (1, 1 + 4));
        assert_eq!(warm.pa, PhysAddr(0x5000));
        // 32 other upper indices evict the first one's entry.
        for i in 1..=32u64 {
            let page = VirtAddr(va.raw() + i * GIB);
            assert_eq!(fpt.translate(&pm, &mut hier, page).unwrap().refs, 2);
        }
        assert_eq!(fpt.translate(&pm, &mut hier, va).unwrap().refs, 2);
        assert_eq!(fpt.translate(&pm, &mut hier, va).unwrap().refs, 1);
        // A flush empties the cache without touching the mapping.
        fpt.flush_upper_cache();
        let cold = fpt.translate(&pm, &mut hier, va).unwrap();
        assert_eq!((cold.refs, cold.pa), (2, PhysAddr(0x5000)));
    }

    #[test]
    fn missing_mapping_errors() {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let mut fpt = FlatPageTable::new_host(&mut pm).unwrap();
        let mut hier = MemoryHierarchy::default();
        assert!(fpt.translate(&pm, &mut hier, VirtAddr(0x1000)).is_err());
    }

    #[test]
    fn virtualized_walk_is_eight_fetches() {
        let mut pm = PhysMemory::new_bytes(256 << 20);
        const OFF: u64 = 128 << 20;
        // Host FPT: gPA x -> hPA x + OFF.
        let mut hfpt = FlatPageTable::new_host(&mut pm).unwrap();
        for g in 0..(16 << 20 >> 12) {
            hfpt.map(
                &mut pm,
                VirtAddr(g << 12),
                PhysAddr((g << 12) + OFF),
                PageSize::Size4K,
                host_alloc,
            )
            .unwrap();
        }
        // Guest FPT whose tables live in guest physical space: allocate
        // its regions from low "gPA" numbers and write entries at +OFF.
        let mut next_gframe = 0u64;
        let mut galloc = |_pm: &mut GuestShift, frames: u64| {
            let g = next_gframe;
            next_gframe += frames;
            Ok(Pfn(g))
        };
        struct GuestShift {
            pm: PhysMemory,
        }
        impl MemoryOps for GuestShift {
            fn read_word(&self, a: PhysAddr) -> u64 {
                self.pm.read_word(PhysAddr(a.raw() + OFF))
            }
            fn write_word(&mut self, a: PhysAddr, v: u64) {
                self.pm.write_word(PhysAddr(a.raw() + OFF), v);
            }
            fn alloc_zeroed_frame(&mut self, _k: FrameKind) -> dmt_mem::Result<Pfn> {
                unreachable!()
            }
            fn free_frame(&mut self, _p: Pfn) -> dmt_mem::Result<()> {
                unreachable!()
            }
            fn copy_frame(&mut self, _s: Pfn, _d: Pfn) {
                unreachable!()
            }
        }
        let mut gview = GuestShift { pm };
        let mut gfpt = FlatPageTable::new(&mut gview, &mut galloc).unwrap();
        let gva = VirtAddr(0x7f00_0000_0000);
        gfpt.map(
            &mut gview,
            gva,
            PhysAddr(0x50_0000),
            PageSize::Size4K,
            galloc,
        )
        .unwrap();
        let pm = gview.pm;
        let mut hier = MemoryHierarchy::default();
        // Worst case (Table 6) is measured with the upper caches off.
        gfpt.set_upper_cache(false);
        hfpt.set_upper_cache(false);
        let out = nested_translate(&mut gfpt, &mut hfpt, &pm, &mut hier, gva, |gpa| {
            Some(PhysAddr(gpa.raw() + OFF))
        })
        .unwrap();
        assert_eq!(out.refs, 8, "Table 6: FPT virtualized = 8");
        assert_eq!(out.pa, PhysAddr(0x50_0000 + OFF));
    }
}
