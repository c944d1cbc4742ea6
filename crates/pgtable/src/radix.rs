//! Radix (multi-level) page tables living in simulated physical memory.
//!
//! [`RadixPageTable`] is the software view used by the OS layer: it maps,
//! unmaps and translates without charging cycles. The hardware walkers
//! ([`crate::walk`], [`crate::nested`]) re-walk the same physical entries
//! through the cache hierarchy to measure latency.
//!
//! The table supports 4- and 5-level formats and 4 KiB / 2 MiB / 1 GiB
//! leaves. For DMT, the crucial extra capability is
//! [`install_table`](RadixPageTable::install_table): the OS can place a
//! *specific* physical frame as a table page (a TEA page), so the
//! last-level PTEs physically live inside the contiguous TEA while the
//! ordinary x86 walker still finds them through the tree — DMT keeps a
//! single copy of every PTE (paper §3).

use crate::pte::{Pte, PteFlags};
use crate::walk::leaf_size;
use crate::PtError;
use dmt_mem::addr::{ENTRIES_PER_TABLE, LEVEL_BITS, PAGE_SHIFT, PTE_SIZE};
use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemoryOps, PageSize, Pfn, PhysAddr, VirtAddr};

/// A radix page table rooted at a physical frame.
///
/// # Examples
///
/// ```
/// use dmt_pgtable::radix::RadixPageTable;
/// use dmt_pgtable::pte::PteFlags;
/// use dmt_mem::{PhysMemory, PageSize, PhysAddr, VirtAddr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pm = PhysMemory::new_bytes(16 << 20);
/// let mut pt = RadixPageTable::new(&mut pm, 4)?;
/// pt.map(&mut pm, VirtAddr(0x7000_0000), PhysAddr(0x1000), PageSize::Size4K, PteFlags::WRITABLE)?;
/// let (pa, size) = pt.translate(&pm, VirtAddr(0x7000_0123)).unwrap();
/// assert_eq!(pa, PhysAddr(0x1123));
/// assert_eq!(size, PageSize::Size4K);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RadixPageTable {
    root: Pfn,
    levels: u8,
}

impl RadixPageTable {
    /// Allocate an empty page table with the given number of levels (4 or
    /// 5).
    ///
    /// # Errors
    ///
    /// Propagates allocation failure.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not 4 or 5.
    pub fn new<M: MemoryOps>(pm: &mut M, levels: u8) -> Result<Self, PtError> {
        assert!(levels == 4 || levels == 5, "x86 trees have 4 or 5 levels");
        let root = pm.alloc_zeroed_frame(FrameKind::PageTable)?;
        Ok(RadixPageTable { root, levels })
    }

    /// Adopt an existing (already zeroed) frame as the root — used when
    /// the root must come from a specific allocator, e.g. a guest's
    /// physical space.
    pub fn from_root(root: Pfn, levels: u8) -> Self {
        assert!(levels == 4 || levels == 5, "x86 trees have 4 or 5 levels");
        RadixPageTable { root, levels }
    }

    /// The root table frame (the CR3 analog).
    #[inline]
    pub fn root(&self) -> Pfn {
        self.root
    }

    /// Number of levels (4 or 5).
    #[inline]
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Physical address of the entry for `va` at `level`, assuming the
    /// walk can reach it (all higher-level tables present and not huge).
    ///
    /// Performs a costless software walk from the root.
    pub fn entry_pa<M: MemoryOps>(&self, pm: &M, va: VirtAddr, level: u8) -> Option<PhysAddr> {
        let mut table = self.root;
        let mut l = self.levels;
        loop {
            let pa = PhysAddr::from_pfn(table) + va.level_index(l) * PTE_SIZE;
            if l == level {
                return Some(pa);
            }
            let pte = Pte(pm.read_word(pa));
            if !pte.present() || pte.is_leaf_at(l) {
                return None;
            }
            table = pte.pfn();
            l -= 1;
        }
    }

    /// Read the entry for `va` at `level` (software walk, no cycles).
    pub fn entry<M: MemoryOps>(&self, pm: &M, va: VirtAddr, level: u8) -> Option<Pte> {
        self.entry_pa(pm, va, level).map(|pa| Pte(pm.read_word(pa)))
    }

    /// Map `va` to `pa` with the given page size, allocating intermediate
    /// tables as needed.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::Unaligned`] if `va` or `pa` is not size-aligned,
    /// [`PtError::AlreadyMapped`] if a present leaf exists, or a memory
    /// error if table allocation fails.
    pub fn map<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        if !va.is_aligned(size) || !pa.is_aligned(size) {
            return Err(PtError::Unaligned { addr: va.raw() });
        }
        let leaf_level = size.leaf_level();
        let slot = self.walk_to_slot(pm, va, leaf_level, true)?;
        let existing = Pte(pm.read_word(slot));
        if existing.present() {
            return Err(PtError::AlreadyMapped { va: va.raw() });
        }
        let pte = if leaf_level == 1 {
            Pte::leaf(pa.pfn(), flags)
        } else {
            Pte::huge_leaf(pa.pfn(), flags)
        };
        pm.write_word(slot, pte.raw());
        Ok(())
    }

    /// [`map`](Self::map), except that a 2 MiB leaf replaces a present
    /// L1-table pointer in its L2 slot, the way the kernel replaces a PMD
    /// entry for THP. The L1 table it pointed to (a TEA-L1 page) stays
    /// allocated and owned by its TEA, ready for demotion.
    ///
    /// # Errors
    ///
    /// As [`map`](Self::map) wherever no table pointer is replaced.
    pub fn map_thp<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        if size == PageSize::Size2M {
            let table_ptr = self.entry_pa(pm, va, 2).filter(|&slot| {
                let pte = Pte(pm.read_word(slot));
                pte.present() && !pte.huge()
            });
            if let Some(slot) = table_ptr {
                pm.write_word(slot, Pte::huge_leaf(pa.pfn(), flags).raw());
                return Ok(());
            }
        }
        self.map(pm, va, pa, size, flags)
    }

    /// Remove the mapping of `va` at the given page size.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if no present leaf of that size
    /// exists.
    pub fn unmap<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        size: PageSize,
    ) -> Result<(), PtError> {
        let leaf_level = size.leaf_level();
        let slot = self
            .entry_pa(pm, va, leaf_level)
            .ok_or(PtError::NotMapped { va: va.raw() })?;
        let pte = Pte(pm.read_word(slot));
        if !pte.present() || !pte.is_leaf_at(leaf_level) {
            return Err(PtError::NotMapped { va: va.raw() });
        }
        pm.write_word(slot, Pte::EMPTY.raw());
        Ok(())
    }

    /// Clear every leaf that maps part of `[start, end)`, in address
    /// order, and call `on_leaf(va, pa, size)` for each, where `va` is the
    /// leaf's first address in the range and `pa` what
    /// [`translate`](Self::translate) gave for it. The walk reads each
    /// table once: an absent entry skips its whole span, and a table
    /// pointer is descended in place, so a TEA-backed L1 table's entries
    /// are scanned where they live. Table pages stay allocated, as with
    /// [`unmap`](Self::unmap).
    pub fn unmap_range<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        start: VirtAddr,
        end: VirtAddr,
        on_leaf: &mut impl FnMut(VirtAddr, PhysAddr, PageSize),
    ) {
        clear_leaves(pm, self.root, self.levels, start.raw(), end.raw(), on_leaf);
    }

    /// Software-translate `va` to a physical address and its mapping size.
    pub fn translate<M: MemoryOps>(&self, pm: &M, va: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        let mut table = self.root;
        let mut l = self.levels;
        loop {
            let pa = PhysAddr::from_pfn(table) + va.level_index(l) * PTE_SIZE;
            let pte = Pte(pm.read_word(pa));
            if !pte.present() {
                return None;
            }
            if pte.is_leaf_at(l) {
                let size = match l {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => return None, // PS at L4/L5 is not architectural
                };
                let base = pte.phys_addr();
                return Some((PhysAddr(base.raw() + va.offset_in(size)), size));
            }
            table = pte.pfn();
            l -= 1;
        }
    }

    /// Software-translate `va`, also returning the leaf PTE's flags —
    /// the reference walk used by the differential oracle, which checks
    /// permission bits as well as the physical address.
    pub fn translate_entry<M: MemoryOps>(
        &self,
        pm: &M,
        va: VirtAddr,
    ) -> Option<(PhysAddr, PageSize, PteFlags)> {
        let mut table = self.root;
        let mut l = self.levels;
        loop {
            let pa = PhysAddr::from_pfn(table) + va.level_index(l) * PTE_SIZE;
            let pte = Pte(pm.read_word(pa));
            if !pte.present() {
                return None;
            }
            if pte.is_leaf_at(l) {
                let size = match l {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => return None, // PS at L4/L5 is not architectural
                };
                let base = pte.phys_addr();
                return Some((PhysAddr(base.raw() + va.offset_in(size)), size, pte.flags()));
            }
            table = pte.pfn();
            l -= 1;
        }
    }

    /// Install `table_pfn` as the table page serving `va` at `level`
    /// (i.e. the entry at `level + 1` will point to it).
    ///
    /// If a table already exists there, its 512 entries are copied into
    /// the new page and the old frame is freed — this is exactly the PTE
    /// migration DMT-Linux performs when TEA pages take over from
    /// buddy-scattered page-table pages (§4.3).
    ///
    /// # Errors
    ///
    /// Returns [`PtError::HugeConflict`] if the covering entry is a
    /// huge-page leaf, or a memory error if intermediate allocation fails.
    pub fn install_table<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        level: u8,
        table_pfn: Pfn,
    ) -> Result<(), PtError> {
        assert!(
            level >= 1 && level < self.levels,
            "cannot install a table at the root level"
        );
        let slot = self.walk_to_slot(pm, va, level + 1, true)?;
        let existing = Pte(pm.read_word(slot));
        if existing.present() {
            if existing.huge() {
                return Err(PtError::HugeConflict { va: va.raw() });
            }
            let old = existing.pfn();
            if old == table_pfn {
                return Ok(());
            }
            pm.copy_frame(old, table_pfn);
            pm.write_word(slot, Pte::table(table_pfn).raw());
            pm.free_frame(old)?;
        } else {
            pm.write_word(slot, Pte::table(table_pfn).raw());
        }
        Ok(())
    }

    /// Install pages `frames` of a TEA based at `tea_base` as the leaf
    /// tables of the region from `base` mapped at `size`: TEA page `i`
    /// serves the `512 × size` span starting at `base + i` spans, through
    /// one [`install_table`](Self::install_table) per page, in order. A
    /// page already in place is left as it is.
    ///
    /// # Errors
    ///
    /// As [`install_table`](Self::install_table).
    pub fn install_tea<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        base: VirtAddr,
        size: PageSize,
        tea_base: Pfn,
        frames: core::ops::Range<u64>,
    ) -> Result<(), PtError> {
        let span = ENTRIES_PER_TABLE << size.shift();
        for i in frames {
            self.install_table(
                pm,
                VirtAddr(base.raw() + i * span),
                size.leaf_level(),
                Pfn(tea_base.0 + i),
            )?;
        }
        Ok(())
    }

    /// The frame of the table page serving `va` at `level`, if present.
    pub fn table_frame<M: MemoryOps>(&self, pm: &M, va: VirtAddr, level: u8) -> Option<Pfn> {
        if level == self.levels {
            return Some(self.root);
        }
        let pte = self.entry(pm, va, level + 1)?;
        if pte.present() && !pte.huge() {
            Some(pte.pfn())
        } else {
            None
        }
    }

    /// Point the covering entry of `va` at `level` away from its current
    /// table page to `new_pfn` **without copying** (caller already placed
    /// content there). Used by gradual TEA migration.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if no table exists at that position.
    pub fn retarget_table<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        level: u8,
        new_pfn: Pfn,
    ) -> Result<Pfn, PtError> {
        let slot = self
            .entry_pa(pm, va, level + 1)
            .ok_or(PtError::NotMapped { va: va.raw() })?;
        let existing = Pte(pm.read_word(slot));
        if !existing.present() || existing.huge() {
            return Err(PtError::NotMapped { va: va.raw() });
        }
        let old = existing.pfn();
        pm.write_word(slot, Pte::table(new_pfn).raw());
        Ok(old)
    }

    /// Count table pages reachable from the root (the page-table memory
    /// footprint used in §6.3), including the root itself.
    pub fn table_pages<M: MemoryOps>(&self, pm: &M) -> u64 {
        fn rec<M: MemoryOps>(pm: &M, table: Pfn, level: u8) -> u64 {
            let mut count = 1;
            if level == 1 {
                return count;
            }
            for i in 0..ENTRIES_PER_TABLE {
                let pte = Pte(pm.read_word(PhysAddr::from_pfn(table) + i * PTE_SIZE));
                if pte.present() && !pte.is_leaf_at(level) {
                    count += rec(pm, pte.pfn(), level - 1);
                }
            }
            count
        }
        rec(pm, self.root, self.levels)
    }

    /// Walk to the entry slot for `va` at `target_level`, optionally
    /// allocating intermediate tables.
    fn walk_to_slot<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        va: VirtAddr,
        target_level: u8,
        alloc: bool,
    ) -> Result<PhysAddr, PtError> {
        let mut table = self.root;
        let mut l = self.levels;
        loop {
            let slot = PhysAddr::from_pfn(table) + va.level_index(l) * PTE_SIZE;
            if l == target_level {
                return Ok(slot);
            }
            let pte = Pte(pm.read_word(slot));
            if pte.present() {
                if pte.huge() {
                    return Err(PtError::HugeConflict { va: va.raw() });
                }
                table = pte.pfn();
            } else if alloc {
                let fresh = pm.alloc_zeroed_frame(FrameKind::PageTable)?;
                pm.write_word(slot, Pte::table(fresh).raw());
                table = fresh;
            } else {
                return Err(PtError::NotMapped { va: va.raw() });
            }
            l -= 1;
        }
    }
}

/// [`RadixPageTable::unmap_range`] over `[va, end)` within `table` at
/// `level`.
fn clear_leaves<M: MemoryOps>(
    pm: &mut M,
    table: Pfn,
    level: u8,
    mut va: u64,
    end: u64,
    on_leaf: &mut impl FnMut(VirtAddr, PhysAddr, PageSize),
) {
    let span_mask = (1u64 << (PAGE_SHIFT + LEVEL_BITS * u32::from(level - 1))) - 1;
    while va < end {
        let slot = PhysAddr::from_pfn(table) + VirtAddr(va).level_index(level) * PTE_SIZE;
        let pte = Pte(pm.read_word(slot));
        let next = (va | span_mask).saturating_add(1);
        if pte.present() {
            if !pte.is_leaf_at(level) {
                clear_leaves(pm, pte.pfn(), level - 1, va, end.min(next), on_leaf);
            } else if let Some(size) = leaf_size(level) {
                let pa = PhysAddr(pte.phys_addr().raw() + VirtAddr(va).offset_in(size));
                on_leaf(VirtAddr(va), pa, size);
                pm.write_word(slot, Pte::EMPTY.raw());
            }
        }
        va = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::PhysMemory;

    fn setup() -> (PhysMemory, RadixPageTable) {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let pt = RadixPageTable::new(&mut pm, 4).unwrap();
        (pm, pt)
    }

    #[test]
    fn map_translate_unmap_4k() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x7fff_0000_1000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x5000),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        assert_eq!(
            pt.translate(&pm, va + 0x42),
            Some((PhysAddr(0x5042), PageSize::Size4K))
        );
        pt.unmap(&mut pm, va, PageSize::Size4K).unwrap();
        assert_eq!(pt.translate(&pm, va), None);
    }

    #[test]
    fn map_2m_huge_page() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x4000_0000);
        let pa = PhysAddr(0x80_0000);
        pt.map(&mut pm, va, pa, PageSize::Size2M, PteFlags::default())
            .unwrap();
        let (got, size) = pt.translate(&pm, va + 0x12_3456).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(got, PhysAddr(pa.raw() + 0x12_3456));
        // The leaf lives at L2: only root + L3 + L2 tables exist.
        assert_eq!(pt.table_pages(&pm), 3);
    }

    #[test]
    fn map_1g_huge_page() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x80_0000_0000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x4000_0000),
            PageSize::Size1G,
            PteFlags::default(),
        )
        .unwrap();
        let (got, size) = pt.translate(&pm, va + 0xabc_def0).unwrap();
        assert_eq!(size, PageSize::Size1G);
        assert_eq!(got.raw(), 0x4000_0000 + 0xabc_def0);
        assert_eq!(pt.table_pages(&pm), 2); // root + L4->L3 table
    }

    #[test]
    fn unaligned_map_rejected() {
        let (mut pm, mut pt) = setup();
        assert!(matches!(
            pt.map(
                &mut pm,
                VirtAddr(0x123),
                PhysAddr(0),
                PageSize::Size4K,
                PteFlags::default()
            ),
            Err(PtError::Unaligned { .. })
        ));
        assert!(matches!(
            pt.map(
                &mut pm,
                VirtAddr(0x1000),
                PhysAddr(0),
                PageSize::Size2M,
                PteFlags::default()
            ),
            Err(PtError::AlreadyMapped { .. }) | Err(PtError::Unaligned { .. })
        ));
    }

    #[test]
    fn double_map_rejected() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x1000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x2000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        assert!(matches!(
            pt.map(
                &mut pm,
                va,
                PhysAddr(0x3000),
                PageSize::Size4K,
                PteFlags::default()
            ),
            Err(PtError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn five_level_tree_works() {
        let mut pm = PhysMemory::new_bytes(32 << 20);
        let mut pt = RadixPageTable::new(&mut pm, 5).unwrap();
        // An address above the 4-level canonical range.
        let va = VirtAddr(0x00ff_8000_0000_0000 & ((1 << 57) - 1));
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x9000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        assert_eq!(
            pt.translate(&pm, va),
            Some((PhysAddr(0x9000), PageSize::Size4K))
        );
        // 5 tables: root(L5) + L4 + L3 + L2 + L1.
        assert_eq!(pt.table_pages(&pm), 5);
    }

    #[test]
    fn install_table_places_specific_frame() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x20_0000); // 2 MiB-aligned
        let tea_page = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        pt.install_table(&mut pm, va, 1, tea_page).unwrap();
        assert_eq!(pt.table_frame(&pm, va, 1), Some(tea_page));
        // Mapping through the tree writes into the installed TEA page.
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x7000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        let slot = PhysAddr::from_pfn(tea_page) + va.level_index(1) * PTE_SIZE;
        assert!(Pte(pm.read_word(slot)).present());
    }

    #[test]
    fn install_table_migrates_existing_entries() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x20_0000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x7000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        let old = pt.table_frame(&pm, va, 1).unwrap();
        let tea_page = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        pt.install_table(&mut pm, va, 1, tea_page).unwrap();
        assert_ne!(pt.table_frame(&pm, va, 1).unwrap(), old);
        // The translation survived the migration.
        assert_eq!(
            pt.translate(&pm, va),
            Some((PhysAddr(0x7000), PageSize::Size4K))
        );
    }

    #[test]
    fn install_table_conflicts_with_huge_leaf() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x20_0000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            PteFlags::default(),
        )
        .unwrap();
        let tea_page = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        assert!(matches!(
            pt.install_table(&mut pm, va, 1, tea_page),
            Err(PtError::HugeConflict { .. })
        ));
    }

    #[test]
    fn retarget_table_swaps_without_copy() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x20_0000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x7000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        let old = pt.table_frame(&pm, va, 1).unwrap();
        let fresh = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        pm.copy_frame(old, fresh);
        let returned = pt.retarget_table(&mut pm, va, 1, fresh).unwrap();
        assert_eq!(returned, old);
        assert_eq!(
            pt.translate(&pm, va),
            Some((PhysAddr(0x7000), PageSize::Size4K))
        );
    }

    #[test]
    fn entry_pa_exposes_slot_addresses() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x1000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x2000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        // Root entry slot is index 0 of the root frame for this VA.
        let root_slot = pt.entry_pa(&pm, va, 4).unwrap();
        assert_eq!(root_slot, PhysAddr::from_pfn(pt.root()) + 0);
        // The L1 slot's content translates the page.
        let l1_slot = pt.entry_pa(&pm, va, 1).unwrap();
        assert_eq!(Pte(pm.read_word(l1_slot)).phys_addr(), PhysAddr(0x2000));
    }

    #[test]
    fn translate_entry_reports_flags() {
        let (mut pm, mut pt) = setup();
        let va = VirtAddr(0x7fff_0000_1000);
        pt.map(
            &mut pm,
            va,
            PhysAddr(0x5000),
            PageSize::Size4K,
            PteFlags::WRITABLE | PteFlags::USER,
        )
        .unwrap();
        let (pa, size, flags) = pt.translate_entry(&pm, va + 0x42).unwrap();
        assert_eq!(pa, PhysAddr(0x5042));
        assert_eq!(size, PageSize::Size4K);
        assert!(flags.contains(PteFlags::PRESENT));
        assert!(flags.contains(PteFlags::WRITABLE));
        assert!(flags.contains(PteFlags::USER));
        assert_eq!(pt.translate_entry(&pm, VirtAddr(0xdead_0000)), None);
    }

    #[test]
    fn mixed_sizes_in_one_tree() {
        let (mut pm, mut pt) = setup();
        pt.map(
            &mut pm,
            VirtAddr(0x1000),
            PhysAddr(0x1000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        pt.map(
            &mut pm,
            VirtAddr(0x20_0000),
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            PteFlags::default(),
        )
        .unwrap();
        pt.map(
            &mut pm,
            VirtAddr(0x1_4000_0000),
            PhysAddr(0x4000_0000),
            PageSize::Size1G,
            PteFlags::default(),
        )
        .unwrap();
        assert_eq!(
            pt.translate(&pm, VirtAddr(0x1000)).unwrap().1,
            PageSize::Size4K
        );
        assert_eq!(
            pt.translate(&pm, VirtAddr(0x20_0000)).unwrap().1,
            PageSize::Size2M
        );
        assert_eq!(
            pt.translate(&pm, VirtAddr(0x1_4000_0000)).unwrap().1,
            PageSize::Size1G
        );
    }

    #[test]
    fn unmap_range_clears_exactly_the_leaves_it_overlaps() {
        let (mut pm, mut pt) = setup();
        let w = PteFlags::WRITABLE;
        // A 2 MiB leaf, then an L1 table with four 4 KiB pages, then
        // nothing up to a 1 GiB leaf.
        let x = 0x8000_0000u64;
        let t = x + (2 << 20);
        let giant = 0xc000_0000u64;
        pt.map(
            &mut pm,
            VirtAddr(x),
            PhysAddr(0x40_0000),
            PageSize::Size2M,
            w,
        )
        .unwrap();
        for (i, off) in [0x1000u64, 0x7000, 0x8000, 0x1f_f000]
            .into_iter()
            .enumerate()
        {
            let pa = PhysAddr(0x10_0000 + i as u64 * 0x1000);
            pt.map(&mut pm, VirtAddr(t + off), pa, PageSize::Size4K, w)
                .unwrap();
        }
        pt.map(
            &mut pm,
            VirtAddr(giant),
            PhysAddr(1 << 30),
            PageSize::Size1G,
            w,
        )
        .unwrap();
        type Seen = Vec<(VirtAddr, PhysAddr, PageSize)>;
        fn unmap(pt: &mut RadixPageTable, pm: &mut PhysMemory, start: u64, end: u64) -> Seen {
            let mut seen = Vec::new();
            pt.unmap_range(pm, VirtAddr(start), VirtAddr(end), &mut |va, pa, size| {
                seen.push((va, pa, size));
            });
            seen
        }
        let translated = |pt: &RadixPageTable, pm: &PhysMemory, va: u64| {
            let (pa, size) = pt.translate(pm, VirtAddr(va)).unwrap();
            (VirtAddr(va), pa, size)
        };
        // From inside the 2 MiB leaf to the page at `t + 0x8000`, which
        // the end excludes.
        let expect = vec![
            translated(&pt, &pm, x + 0x3000),
            translated(&pt, &pm, t + 0x1000),
            translated(&pt, &pm, t + 0x7000),
        ];
        assert_eq!(unmap(&mut pt, &mut pm, x + 0x3000, t + 0x8000), expect);
        assert!(pt.translate(&pm, VirtAddr(x)).is_none());
        // From the middle of the L1 table into the 1 GiB leaf: the page
        // below the start stays.
        let expect = vec![
            translated(&pt, &pm, t + 0x1f_f000),
            translated(&pt, &pm, giant),
        ];
        assert_eq!(
            unmap(&mut pt, &mut pm, t + 0x10_0000, giant + 0x5000),
            expect
        );
        assert!(pt.translate(&pm, VirtAddr(t + 0x8000)).is_some());
        assert!(pt.translate(&pm, VirtAddr(giant)).is_none());
        assert_eq!(unmap(&mut pt, &mut pm, x, giant + (1 << 30)).len(), 1);
    }
}
