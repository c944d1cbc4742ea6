//! The process abstraction tying DMT-Linux together: address space, radix
//! page table, VMA-to-TEA mappings, demand paging, THP, and register
//! loading on context switch (§4.6.2).

use crate::mapping::{MappingManager, MappingPolicy};
use crate::tea::TeaManager;
use crate::vma::{AddressSpace, Vma, VmaId, VmaKind};
use crate::OsError;
use dmt_core::regfile::DmtRegisterFile;
use dmt_mem::buddy::FrameKind;
use dmt_mem::compact::Migration;
use dmt_mem::{FastMap, PageSize, Pfn, PhysMemory, VirtAddr};
use dmt_pgtable::pte::{Pte, PteFlags};
use dmt_pgtable::radix::SpanCursor;
use dmt_pgtable::RadixPageTable;
use std::collections::HashMap;

/// Transparent Huge Page policy (Linux's `never`/`always`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThpMode {
    /// Only 4 KiB pages.
    Never,
    /// Back 2 MiB-aligned regions with 2 MiB pages on first touch.
    Always,
}

/// What one population batch carries from page to page: the page
/// table's span cursor and the last VMA a page fell in. It lives only
/// inside the batch call, while nothing else edits the table or the
/// VMAs.
#[derive(Default)]
struct Batch {
    cursor: SpanCursor,
    vma: Option<Vma>,
}

/// A process: one address space, one page table, one set of mappings.
///
/// # Examples
///
/// ```
/// use dmt_os::proc::{Process, ThpMode};
/// use dmt_os::vma::VmaKind;
/// use dmt_mem::{PhysMemory, VirtAddr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pm = PhysMemory::new_bytes(64 << 20);
/// let mut proc = Process::new(&mut pm, ThpMode::Never)?;
/// proc.mmap(&mut pm, VirtAddr(0x4000_0000), 8 << 20, VmaKind::Heap)?;
/// proc.populate(&mut pm, VirtAddr(0x4000_0000))?;
/// assert!(proc.page_table().translate(&pm, VirtAddr(0x4000_0000)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Process {
    aspace: AddressSpace,
    pt: RadixPageTable,
    mappings: MappingManager,
    teas: TeaManager,
    thp: ThpMode,
    /// Whether TEAs and VMA-to-TEA mappings are maintained (false for
    /// the vanilla baseline).
    dmt_enabled: bool,
    /// Reverse map of data frames -> (page base VA, size) for compaction
    /// fix-ups.
    reverse: FastMap<u64, (VirtAddr, PageSize)>,
    /// Page faults served (first-touch populations).
    faults: u64,
    /// Gradual TEA migration steps that moved a page (§4.3).
    tea_migrations: u64,
    /// TLB shootdowns: events that invalidated live translations
    /// (unmap, promote/demote, compaction PTE patches).
    shootdowns: u64,
}

impl Process {
    /// Create an empty process with the default mapping policy.
    ///
    /// # Errors
    ///
    /// Propagates page-table allocation failure.
    pub fn new(pm: &mut PhysMemory, thp: ThpMode) -> Result<Self, OsError> {
        Self::with_policy(pm, thp, MappingPolicy::default())
    }

    /// Create a process with a custom mapping policy (ablations).
    ///
    /// # Errors
    ///
    /// Propagates page-table allocation failure.
    pub fn with_policy(
        pm: &mut PhysMemory,
        thp: ThpMode,
        policy: MappingPolicy,
    ) -> Result<Self, OsError> {
        Self::custom(pm, thp, policy, true, 4)
    }

    /// Fully custom construction: mapping policy, DMT on/off, and the
    /// radix depth (4 or 5 levels — §2.1.1's 5-level extension).
    ///
    /// # Errors
    ///
    /// Propagates page-table allocation failure.
    pub fn custom(
        pm: &mut PhysMemory,
        thp: ThpMode,
        policy: MappingPolicy,
        dmt_enabled: bool,
        levels: u8,
    ) -> Result<Self, OsError> {
        Ok(Process {
            aspace: AddressSpace::new(),
            pt: RadixPageTable::new(pm, levels)?,
            mappings: MappingManager::new(policy),
            teas: TeaManager::new(),
            thp,
            dmt_enabled,
            reverse: FastMap::default(),
            faults: 0,
            tea_migrations: 0,
            shootdowns: 0,
        })
    }

    /// Create a vanilla-Linux process: no TEAs, page-table pages come
    /// scattered from the buddy allocator (the baseline configurations
    /// of §6).
    ///
    /// # Errors
    ///
    /// Propagates page-table allocation failure.
    pub fn new_vanilla(pm: &mut PhysMemory, thp: ThpMode) -> Result<Self, OsError> {
        let mut p = Self::new(pm, thp)?;
        p.dmt_enabled = false;
        Ok(p)
    }

    /// The process's VMAs.
    pub fn address_space(&self) -> &AddressSpace {
        &self.aspace
    }

    /// The radix page table (walked by the x86 walker).
    pub fn page_table(&self) -> &RadixPageTable {
        &self.pt
    }

    /// The mapping manager (register-visible VMA-to-TEA state).
    pub fn mappings(&self) -> &MappingManager {
        &self.mappings
    }

    /// TEA accounting.
    pub fn tea_manager(&self) -> &TeaManager {
        &self.teas
    }

    /// THP mode in force.
    pub fn thp_mode(&self) -> ThpMode {
        self.thp
    }

    /// Page faults (first-touch populations) served so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Gradual TEA migration steps that moved a page (telemetry).
    pub fn tea_migrations(&self) -> u64 {
        self.tea_migrations
    }

    /// TLB shootdowns issued: unmaps of present pages, huge-page
    /// promotions/demotions, and compaction PTE patches (telemetry).
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Create a VMA and its TEA mapping(s). With [`ThpMode::Always`] and a
    /// region of 2 MiB or more, both a 4 KiB and a 2 MiB TEA are created
    /// (Figure 12); otherwise only the 4 KiB TEA.
    ///
    /// # Errors
    ///
    /// Propagates VMA overlap and TEA allocation failures.
    pub fn mmap(
        &mut self,
        pm: &mut PhysMemory,
        base: VirtAddr,
        len: u64,
        kind: VmaKind,
    ) -> Result<VmaId, OsError> {
        let id = self.aspace.mmap(base, len, kind)?;
        if !self.dmt_enabled {
            return Ok(id);
        }
        let migs = self.mappings.add_region(
            pm,
            &mut self.teas,
            &mut self.pt,
            base,
            len,
            PageSize::Size4K,
        )?;
        self.apply_migrations(pm, &migs)?;
        if self.thp == ThpMode::Always && len >= PageSize::Size2M.bytes() {
            let migs = self.mappings.add_region(
                pm,
                &mut self.teas,
                &mut self.pt,
                base,
                len,
                PageSize::Size2M,
            )?;
            self.apply_migrations(pm, &migs)?;
        }
        Ok(id)
    }

    /// Remove a VMA, its page mappings and TEAs.
    ///
    /// # Errors
    ///
    /// Propagates unknown-VMA and free errors.
    pub fn munmap(&mut self, pm: &mut PhysMemory, id: VmaId) -> Result<(), OsError> {
        let vma = self.aspace.munmap(id)?;
        // Unmap any present pages (data frames are leaked to keep the
        // model simple; the simulated workloads never unmap hot VMAs).
        let (reverse, shootdowns) = (&mut self.reverse, &mut self.shootdowns);
        self.pt
            .unmap_range(pm, vma.base, vma.end(), &mut |_, pa, _| {
                reverse.remove(&pa.pfn().0);
                *shootdowns += 1;
            });
        self.mappings
            .remove_region(pm, &mut self.teas, vma.base, vma.len)?;
        Ok(())
    }

    /// Grow a VMA upward (§4.2.3), expanding its TEA coverage.
    ///
    /// # Errors
    ///
    /// Propagates overlap and allocation failures.
    pub fn grow(&mut self, pm: &mut PhysMemory, id: VmaId, delta: u64) -> Result<(), OsError> {
        let vma = self.aspace.grow(id, delta)?;
        if !self.dmt_enabled {
            return Ok(());
        }
        // Re-adding the grown tail merges into the existing mapping.
        let tail_base = VirtAddr(vma.end().raw() - delta);
        let migs = self.mappings.add_region(
            pm,
            &mut self.teas,
            &mut self.pt,
            tail_base,
            delta,
            PageSize::Size4K,
        )?;
        self.apply_migrations(pm, &migs)?;
        if self.thp == ThpMode::Always && vma.len >= PageSize::Size2M.bytes() {
            let migs = self.mappings.add_region(
                pm,
                &mut self.teas,
                &mut self.pt,
                tail_base,
                delta,
                PageSize::Size2M,
            )?;
            self.apply_migrations(pm, &migs)?;
        }
        Ok(())
    }

    /// Ensure the page containing `va` is present (demand paging): a
    /// batch of one [`populate_pages`](Self::populate_pages).
    /// Returns `true` if a fault was served, `false` if already present.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotInVma`] for addresses outside every VMA and
    /// propagates allocation failures.
    pub fn populate(&mut self, pm: &mut PhysMemory, va: VirtAddr) -> Result<bool, OsError> {
        Ok(self.populate_pages(pm, [va])? == 1)
    }

    /// Demand-page every page of `pages`, in order, and return the
    /// faults served. A page already present costs nothing; a new one
    /// gets a 4 KiB frame, or under [`ThpMode::Always`] a 2 MiB page
    /// where its whole aligned 2 MiB region lies inside its VMA. The
    /// batch shares one [`SpanCursor`], so of a sorted page list only
    /// the first page of each leaf table's span (2 MiB for 4 KiB leaves,
    /// 1 GiB for 2 MiB ones) descends from the root, and it remembers
    /// the last VMA a page fell in. Frames and missing tables are
    /// allocated exactly as page-at-a-time population would.
    ///
    /// # Errors
    ///
    /// Stops at the first page outside every VMA
    /// ([`OsError::NotInVma`]) or allocation failure; the pages before it
    /// stay populated.
    pub fn populate_pages(
        &mut self,
        pm: &mut PhysMemory,
        pages: impl IntoIterator<Item = VirtAddr>,
    ) -> Result<u64, OsError> {
        let mut batch = Batch::default();
        let mut faults = 0;
        for va in pages {
            faults += u64::from(self.populate_at(pm, va, &mut batch)?.0);
        }
        Ok(faults)
    }

    /// Populate every page in `[base, base+len)`, stepping by the size
    /// that maps each one.
    ///
    /// # Errors
    ///
    /// See [`populate_pages`](Self::populate_pages).
    pub fn populate_range(
        &mut self,
        pm: &mut PhysMemory,
        base: VirtAddr,
        len: u64,
    ) -> Result<u64, OsError> {
        let mut batch = Batch::default();
        let mut faults = 0;
        let mut va = base;
        while va.raw() < base.raw() + len {
            let (fault, size) = self.populate_at(pm, va, &mut batch)?;
            faults += u64::from(fault);
            va = VirtAddr(va.align_down(size).raw() + size.bytes());
        }
        Ok(faults)
    }

    /// One page of a population batch: whether a fault was served, and
    /// the size of the page that now maps `va`.
    fn populate_at(
        &mut self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        batch: &mut Batch,
    ) -> Result<(bool, PageSize), OsError> {
        let vma = match batch.vma.filter(|v| v.contains(va)) {
            Some(vma) => vma,
            None => *batch.vma.insert(
                *self
                    .aspace
                    .find(va)
                    .ok_or(OsError::NotInVma { va: va.raw() })?,
            ),
        };
        let hbase = va.align_down(PageSize::Size2M);
        let size = if self.thp == ThpMode::Always
            && hbase >= vma.base
            && hbase.raw() + PageSize::Size2M.bytes() <= vma.end().raw()
        {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let at = self.pt.slot(pm, va, size.leaf_level(), &mut batch.cursor);
        if let Some((_, mapped, _)) = at.translate(pm) {
            return Ok((false, mapped));
        }
        let frame = match size {
            // 2 MiB of naturally aligned frames (order 9).
            PageSize::Size2M => pm.buddy_mut().alloc_order(9, FrameKind::HugeData)?,
            _ => pm.alloc_frame(FrameKind::Data)?,
        };
        // A 2 MiB leaf replaces a pointer to an (empty) TEA-L1 table, as
        // the kernel replaces a PMD entry for THP.
        self.pt.fill(
            pm,
            at,
            Pte::page_leaf(frame, size, PteFlags::WRITABLE | PteFlags::USER),
            &mut batch.cursor,
        )?;
        self.reverse.insert(frame.0, (va.align_down(size), size));
        self.faults += 1;
        Ok((true, size))
    }

    /// Promote the 2 MiB region containing `va` to a huge page (THP
    /// promotion, §4.4): data moves into a contiguous 2 MiB block, the
    /// 512 L1 PTEs in the TEA are cleared, and the L2 slot (a TEA-L2
    /// entry) becomes a huge leaf. The VMA-to-TEA mappings are untouched,
    /// exactly as the paper promises.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotInVma`] / [`OsError::PromotionBlocked`] when
    /// the region is not fully populated with 4 KiB pages.
    pub fn promote(&mut self, pm: &mut PhysMemory, va: VirtAddr) -> Result<(), OsError> {
        let hbase = va.align_down(PageSize::Size2M);
        let vma = *self
            .aspace
            .find(hbase)
            .ok_or(OsError::NotInVma { va: va.raw() })?;
        if hbase.raw() + PageSize::Size2M.bytes() > vma.end().raw() {
            return Err(OsError::PromotionBlocked { va: va.raw() });
        }
        // All 512 constituent pages must be present 4 KiB mappings.
        let mut old_frames = Vec::with_capacity(512);
        for i in 0..512u64 {
            let page = VirtAddr(hbase.raw() + i * 4096);
            match self.pt.translate(pm, page) {
                Some((pa, PageSize::Size4K)) => old_frames.push(pa.pfn()),
                _ => return Err(OsError::PromotionBlocked { va: page.raw() }),
            }
        }
        // Ensure a 2 MiB TEA exists for this VMA.
        if self.mappings.lookup(hbase, PageSize::Size2M).is_none() {
            let migs = self.mappings.add_region(
                pm,
                &mut self.teas,
                &mut self.pt,
                vma.base,
                vma.len,
                PageSize::Size2M,
            )?;
            self.apply_migrations(pm, &migs)?;
        }
        let huge = pm.buddy_mut().alloc_order(9, FrameKind::HugeData)?;
        // Clear the 512 L1 PTEs (they live in the TEA-L1 page).
        for i in 0..512u64 {
            let page = VirtAddr(hbase.raw() + i * 4096);
            self.pt.unmap(pm, page, PageSize::Size4K)?;
        }
        // Overwrite the L2 slot (the pointer to the TEA-L1 page, which
        // stays allocated for demotion) with a huge leaf.
        let mut cursor = SpanCursor::default();
        let at = self.pt.slot(pm, hbase, 2, &mut cursor);
        self.pt.fill(
            pm,
            at,
            Pte::huge_leaf(huge, PteFlags::WRITABLE | PteFlags::USER),
            &mut cursor,
        )?;
        // Release the old 4 KiB frames.
        for f in old_frames {
            self.reverse.remove(&f.0);
            pm.free_frame(f)?;
        }
        self.reverse.insert(huge.0, (hbase, PageSize::Size2M));
        self.shootdowns += 1;
        Ok(())
    }

    /// Demote the 2 MiB huge page containing `va` back to 512 4 KiB PTEs
    /// in the TEA-L1 page. The data stays in place; only PTEs change.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::PromotionBlocked`] when no huge mapping exists.
    pub fn demote(&mut self, pm: &mut PhysMemory, va: VirtAddr) -> Result<(), OsError> {
        let hbase = va.align_down(PageSize::Size2M);
        let (pa, size) = self
            .pt
            .translate(pm, hbase)
            .ok_or(OsError::PromotionBlocked { va: va.raw() })?;
        if size != PageSize::Size2M {
            return Err(OsError::PromotionBlocked { va: va.raw() });
        }
        let head = pa.pfn();
        // The TEA-L1 page for this span must exist (it does if the VMA
        // was mapped with a 4 KiB TEA, which mmap always creates).
        let mm = *self
            .mappings
            .lookup(hbase, PageSize::Size4K)
            .ok_or(OsError::PromotionBlocked { va: va.raw() })?;
        let (tea_frame, _) = mm.mapping.table_page_for(hbase).expect("covered");
        // Restore the L2 slot to point at the TEA-L1 table page.
        let l2_slot = self
            .pt
            .entry_pa(pm, hbase, 2)
            .ok_or(OsError::PromotionBlocked { va: hbase.raw() })?;
        pm.write_word(l2_slot, Pte::table(tea_frame).raw());
        // Write the 512 leaves.
        for i in 0..512u64 {
            let page = VirtAddr(hbase.raw() + i * 4096);
            let slot = mm.mapping.pte_addr(page).expect("covered");
            pm.write_word(
                slot,
                Pte::leaf(Pfn(head.0 + i), PteFlags::WRITABLE | PteFlags::USER).raw(),
            );
        }
        self.reverse.remove(&head.0);
        for i in 0..512u64 {
            self.reverse.insert(
                head.0 + i,
                (VirtAddr(hbase.raw() + i * 4096), PageSize::Size4K),
            );
        }
        self.shootdowns += 1;
        Ok(())
    }

    /// Patch leaf PTEs after compaction moved data frames.
    ///
    /// # Errors
    ///
    /// Propagates page-table errors (indicates reverse-map corruption).
    pub fn apply_migrations(
        &mut self,
        pm: &mut PhysMemory,
        migrations: &[Migration],
    ) -> Result<(), OsError> {
        for m in migrations {
            if let Some((va, size)) = self.reverse.remove(&m.src.0) {
                let slot = self
                    .pt
                    .entry_pa(pm, va, size.leaf_level())
                    .ok_or(OsError::NotInVma { va: va.raw() })?;
                let old = Pte(pm.read_word(slot));
                let new = if size == PageSize::Size4K {
                    Pte::leaf(m.dst, old.flags())
                } else {
                    Pte::huge_leaf(m.dst, old.flags())
                };
                pm.write_word(slot, new.raw());
                self.reverse.insert(m.dst.0, (va, size));
                self.shootdowns += 1;
            }
        }
        Ok(())
    }

    /// Begin a gradual TEA migration for the mapping covering `va`
    /// (§4.3): the new TEA is allocated, the register's P bit goes clear
    /// (via [`load_registers`](Self::load_registers) exclusion), and
    /// [`migration_step`](Self::migration_step) moves one page per call.
    ///
    /// # Errors
    ///
    /// See [`MappingManager::begin_migration`].
    pub fn begin_tea_migration(
        &mut self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        new_frames: u64,
    ) -> Result<(), OsError> {
        self.mappings
            .begin_migration(pm, &mut self.teas, va, PageSize::Size4K, new_frames)
    }

    /// One background-worker migration step; returns `true` while pages
    /// remain.
    ///
    /// # Errors
    ///
    /// See [`MappingManager::migration_step`].
    pub fn migration_step(&mut self, pm: &mut PhysMemory) -> Result<bool, OsError> {
        let moved = self
            .mappings
            .migration_step(pm, &mut self.teas, &mut self.pt)?;
        if moved {
            self.tea_migrations += 1;
        }
        Ok(moved)
    }

    /// Load the largest-VMA mappings into a DMT register file — the
    /// context-switch path (`switch_mm` analog, §4.6.2).
    pub fn load_registers(&self, rf: &mut DmtRegisterFile) {
        rf.load(&self.mappings.select_registers());
    }

    /// Whether TEAs and VMA-to-TEA mappings are maintained.
    pub fn dmt_enabled(&self) -> bool {
        self.dmt_enabled
    }

    /// Audit every OS-level invariant the oracle relies on, returning a
    /// description of each violation (empty = healthy):
    ///
    /// - VMA tree: page-aligned, address-ordered, non-overlapping;
    /// - reverse map: every tracked data frame still translates back to
    ///   its page at the recorded size (compaction fix-ups applied);
    /// - TEA map (DMT only): each mapping's cached [`crate::tea::Tea`]
    ///   agrees with its register-visible base/length, every TEA frame is
    ///   allocated as [`FrameKind::Tea`] (physically contiguous by
    ///   construction, so this is the "no one freed it under us" check),
    ///   per page size no two mappings cover the same VA, and — outside
    ///   of gradual migrations — the radix table page serving each
    ///   covered span *is* the TEA page (the single-PTE-copy invariant of
    ///   paper §3).
    pub fn audit(&self, pm: &PhysMemory) -> Vec<String> {
        use dmt_mem::buddy::FrameState;
        let mut errs = Vec::new();
        let mut prev_end = 0u64;
        for vma in self.aspace.iter() {
            if vma.base.raw() % 4096 != 0 || vma.len % 4096 != 0 {
                errs.push(format!("VMA at {} not page-aligned", vma.base));
            }
            if vma.base.raw() < prev_end {
                errs.push(format!(
                    "VMA at {} overlaps previous VMA ending at {prev_end:#x}",
                    vma.base
                ));
            }
            prev_end = vma.end().raw();
        }
        for (&frame, &(va, size)) in &self.reverse {
            match self.pt.translate(pm, va) {
                Some((pa, got)) if got == size && pa.pfn() == Pfn(frame) => {}
                other => errs.push(format!(
                    "reverse map says frame {frame} backs {va} at {size:?}, page table says {other:?}"
                )),
            }
        }
        if !self.dmt_enabled {
            return errs;
        }
        let mut spans: HashMap<u8, Vec<(u64, u64)>> = HashMap::new();
        for m in self.mappings.iter() {
            let size = m.mapping.page_size();
            let base = m.mapping.base();
            // The owned TEA may be longer than the register view needs
            // (migrations over-allocate for growth headroom), never
            // shorter or elsewhere.
            if m.tea.base != m.mapping.tea_base() || m.tea.frames < m.mapping.tea_frames() {
                errs.push(format!(
                    "mapping at {base}: TEA {:?}+{} disagrees with register view {:?}+{}",
                    m.tea.base,
                    m.tea.frames,
                    m.mapping.tea_base(),
                    m.mapping.tea_frames()
                ));
            }
            for i in 0..m.tea.frames {
                let pfn = Pfn(m.tea.base.0 + i);
                if pm.buddy().frame_state(pfn) != FrameState::Allocated(FrameKind::Tea) {
                    errs.push(format!(
                        "mapping at {base}: TEA frame {pfn:?} is {:?}, not a Tea frame",
                        pm.buddy().frame_state(pfn)
                    ));
                    break;
                }
            }
            spans
                .entry(size.encode())
                .or_default()
                .push((base.raw(), base.raw() + m.mapping.covered_bytes()));
            // Single-PTE-copy: the table page the walker reaches for each
            // 512-entry span must be the TEA page the fetcher indexes.
            // Skipped mid-migration (the walker intentionally lags) and
            // where a huge leaf overrides the 4 KiB tree (THP promotion).
            if !self.mappings.is_migrating() {
                let level = size.leaf_level();
                let span = size.bytes() * 512;
                let mut va = base;
                while va.raw() < base.raw() + m.mapping.covered_bytes() {
                    if let (Some(walked), Some((tea_frame, _))) = (
                        self.pt.table_frame(pm, va, level),
                        m.mapping.table_page_for(va),
                    ) {
                        if walked != tea_frame {
                            errs.push(format!(
                                "mapping at {base}: span {va} walks to table {walked:?}, TEA page is {tea_frame:?}"
                            ));
                        }
                    }
                    va = VirtAddr(va.raw() + span);
                }
            }
        }
        for list in spans.values_mut() {
            list.sort_unstable();
            for w in list.windows(2) {
                if w[1].0 < w[0].1 {
                    errs.push(format!(
                        "two same-size mappings overlap: [{:#x},{:#x}) and [{:#x},{:#x})",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_core::fetcher;
    use dmt_mem::addr::{ENTRIES_PER_TABLE, PTE_SIZE};
    use dmt_mem::buddy::FrameState;
    use dmt_mem::PhysAddr;

    #[test]
    fn mmap_populate_translate() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 4 << 20, VmaKind::Heap).unwrap();
        assert!(p.populate(&mut pm, base + 0x3000).unwrap());
        assert!(
            !p.populate(&mut pm, base + 0x3000).unwrap(),
            "second touch: no fault"
        );
        assert_eq!(p.faults(), 1);
        let (pa, size) = p.page_table().translate(&pm, base + 0x3123).unwrap();
        assert_eq!(size, PageSize::Size4K);
        assert_eq!(pa.page_offset(), 0x123);
    }

    #[test]
    fn dmt_fetch_agrees_with_walker() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.populate_range(&mut pm, base, 64 * 4096).unwrap();
        let mut rf = DmtRegisterFile::new();
        p.load_registers(&mut rf);
        let mut hier = MemoryHierarchy::default();
        for i in (0..64u64).step_by(7) {
            let va = VirtAddr(base.raw() + i * 4096 + 17);
            let fetched = fetcher::fetch_native(&rf, &mut pm, &mut hier, va, &mut ()).unwrap();
            let walked = p.page_table().translate(&pm, va).unwrap().0;
            assert_eq!(fetched.pa, walked, "page {i}");
            assert_eq!(fetched.refs, 1);
        }
    }

    #[test]
    fn thp_always_populates_huge_pages() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Always).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.populate(&mut pm, base + 0x1234).unwrap();
        let (_, size) = p.page_table().translate(&pm, base).unwrap();
        assert_eq!(size, PageSize::Size2M);
        // The DMT fetcher resolves it through the 2 MiB TEA.
        let mut rf = DmtRegisterFile::new();
        p.load_registers(&mut rf);
        let mut hier = MemoryHierarchy::default();
        let out = fetcher::fetch_native(&rf, &mut pm, &mut hier, base + 0x1234, &mut ()).unwrap();
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.refs, 1);
    }

    #[test]
    fn promotion_and_demotion_roundtrip() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 4 << 20, VmaKind::Heap).unwrap();
        p.populate_range(&mut pm, base, 2 << 20).unwrap();
        p.promote(&mut pm, base).unwrap();
        let (pa_huge, size) = p.page_table().translate(&pm, base + 0x5678).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(pa_huge.offset_in(PageSize::Size2M), 0x5678);
        // Demote: same data frames, 4 KiB PTEs again.
        p.demote(&mut pm, base).unwrap();
        let (pa_small, size) = p.page_table().translate(&pm, base + 0x5678).unwrap();
        assert_eq!(size, PageSize::Size4K);
        assert_eq!(pa_small, pa_huge, "data did not move on demotion");
    }

    #[test]
    fn promotion_requires_full_population() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 4 << 20, VmaKind::Heap).unwrap();
        p.populate(&mut pm, base).unwrap(); // only one page
        assert!(matches!(
            p.promote(&mut pm, base),
            Err(OsError::PromotionBlocked { .. })
        ));
    }

    #[test]
    fn munmap_cleans_up() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        let id = p.mmap(&mut pm, base, 4 << 20, VmaKind::Mmap).unwrap();
        p.populate_range(&mut pm, base, 16 * 4096).unwrap();
        let tea_before = pm.bytes_of_kind(FrameKind::Tea);
        assert!(tea_before > 0);
        p.munmap(&mut pm, id).unwrap();
        assert_eq!(pm.bytes_of_kind(FrameKind::Tea), 0);
        assert!(p.page_table().translate(&pm, base).is_none());
    }

    /// `munmap` as it was before it walked the range table by table: one
    /// root-to-leaf translation per 4 KiB of the VMA.
    fn munmap_per_page(p: &mut Process, pm: &mut PhysMemory, id: VmaId) {
        let vma = p.aspace.munmap(id).unwrap();
        let mut va = vma.base;
        while va < vma.end() {
            if let Some((pa, size)) = p.pt.translate(pm, va) {
                let aligned = va.align_down(size);
                let _ = p.pt.unmap(pm, aligned, size);
                p.reverse.remove(&pa.pfn().0);
                p.shootdowns += 1;
                va = VirtAddr(aligned.raw() + size.bytes());
            } else {
                va += PageSize::Size4K.bytes();
            }
        }
        p.mappings
            .remove_region(pm, &mut p.teas, vma.base, vma.len)
            .unwrap();
    }

    /// Sparse VMAs: one populated every 37 pages, one 2 MiB-aligned run
    /// fully populated, one straddling a 1 GiB (L3) boundary at an
    /// address that is not 2 MiB-aligned, and one never touched.
    fn sparse_process(dmt: bool, thp: ThpMode) -> (PhysMemory, Process, Vec<VmaId>) {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = if dmt {
            Process::new(&mut pm, thp)
        } else {
            Process::new_vanilla(&mut pm, thp)
        }
        .unwrap();
        let mut ids = Vec::new();
        let base = VirtAddr(0x4000_0000);
        ids.push(p.mmap(&mut pm, base, 6 << 20, VmaKind::Heap).unwrap());
        for i in (0..6 << 8).step_by(37) {
            p.populate(&mut pm, base + i * 4096).unwrap();
        }
        let run = VirtAddr(0x10_0000_0000);
        ids.push(p.mmap(&mut pm, run, 4 << 20, VmaKind::Mmap).unwrap());
        p.populate_range(&mut pm, run + (2 << 20), 2 << 20).unwrap();
        let straddle = VirtAddr((3 << 30) - (3 << 20) + 0x5000);
        ids.push(p.mmap(&mut pm, straddle, 7 << 20, VmaKind::Mmap).unwrap());
        for off in [
            0, 0x1000, 0x20_0000, 0x2f_b000, 0x30_0000, 0x51_0000, 0x6f_f000,
        ] {
            p.populate(&mut pm, straddle + off).unwrap();
        }
        let idle = VirtAddr(0x7f00_0000_0000);
        ids.push(p.mmap(&mut pm, idle, 3 << 20, VmaKind::Stack).unwrap());
        (pm, p, ids)
    }

    #[test]
    fn munmap_range_walk_matches_the_per_page_loop() {
        for dmt in [false, true] {
            for thp in [ThpMode::Never, ThpMode::Always] {
                let (mut pm, mut p, ids) = sparse_process(dmt, thp);
                let (mut pm_ref, mut p_ref, _) = sparse_process(dmt, thp);
                let tables: Vec<u64> = (0..pm.buddy().total_frames())
                    .filter(|&f| {
                        matches!(
                            pm.buddy().frame_state(Pfn(f)),
                            FrameState::Allocated(FrameKind::PageTable | FrameKind::Tea)
                        )
                    })
                    .collect();
                for (k, id) in ids.into_iter().enumerate() {
                    let when = format!("dmt {dmt} thp {thp:?} VMA {k}");
                    let before = p.shootdowns();
                    p.munmap(&mut pm, id).unwrap();
                    munmap_per_page(&mut p_ref, &mut pm_ref, id);
                    assert_eq!(p.shootdowns(), p_ref.shootdowns(), "{when}");
                    assert_eq!(p.shootdowns() > before, k < 3, "{when}");
                    let mut reverse: Vec<_> = p.reverse.iter().collect();
                    let mut reverse_ref: Vec<_> = p_ref.reverse.iter().collect();
                    reverse.sort();
                    reverse_ref.sort();
                    assert_eq!(reverse, reverse_ref, "{when}: reverse map");
                    assert_eq!(
                        pm.buddy().state_hash(),
                        pm_ref.buddy().state_hash(),
                        "{when}"
                    );
                    for &f in &tables {
                        for i in 0..ENTRIES_PER_TABLE {
                            let pa = PhysAddr::from_pfn(Pfn(f)) + i * PTE_SIZE;
                            assert_eq!(pm.read_word(pa), pm_ref.read_word(pa), "{when}: {pa:?}");
                        }
                    }
                }
                assert!(p
                    .page_table()
                    .translate(&pm, VirtAddr(0x4000_0000))
                    .is_none());
            }
        }
    }

    #[test]
    fn grow_extends_coverage() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        let id = p.mmap(&mut pm, base, 4 << 20, VmaKind::Heap).unwrap();
        p.grow(&mut pm, id, 4 << 20).unwrap();
        let mut rf = DmtRegisterFile::new();
        p.load_registers(&mut rf);
        // An address in the grown tail is covered.
        assert!(rf.covers(VirtAddr(base.raw() + (6 << 20))));
        p.populate(&mut pm, VirtAddr(base.raw() + (6 << 20)))
            .unwrap();
        let mut hier = MemoryHierarchy::default();
        let out = fetcher::fetch_native(
            &rf,
            &mut pm,
            &mut hier,
            VirtAddr(base.raw() + (6 << 20)),
            &mut (),
        )
        .unwrap();
        assert_eq!(out.refs, 1);
    }

    #[test]
    fn gradual_migration_with_pbit_fallback() {
        use dmt_cache::hierarchy::MemoryHierarchy;
        use dmt_core::fetcher;
        use dmt_core::DmtError;
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.populate_range(&mut pm, base, 8 << 20).unwrap();

        p.begin_tea_migration(&mut pm, base, 16).unwrap();
        assert!(p.mappings().is_migrating());
        // Mid-migration the register set excludes the mapping: the DMT
        // fetcher falls back (P bit clear), but the x86 walker still
        // translates through the original TEA pages.
        let mut rf = DmtRegisterFile::new();
        p.load_registers(&mut rf);
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            fetcher::fetch_native(&rf, &mut pm, &mut hier, base, &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
        let before = p.page_table().translate(&pm, base).unwrap();

        // Drive the background worker to completion.
        let mut steps = 1;
        while p.migration_step(&mut pm).unwrap() {
            steps += 1;
            // Translations keep working at every point of the migration.
            assert_eq!(p.page_table().translate(&pm, base).unwrap(), before);
        }
        assert_eq!(steps, 4, "one step per original TEA page (8MiB/2MiB)");
        assert!(!p.mappings().is_migrating());

        // After hand-over the fetcher works again via the new TEA and
        // agrees with the walker.
        p.load_registers(&mut rf);
        let out = fetcher::fetch_native(&rf, &mut pm, &mut hier, base, &mut ()).unwrap();
        assert_eq!(out.pa, before.0);
        let mm = p.mappings().lookup(base, PageSize::Size4K).unwrap();
        assert_eq!(mm.tea.frames, 16, "the mapping now owns the bigger TEA");
    }

    #[test]
    fn concurrent_migrations_are_rejected() {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.begin_tea_migration(&mut pm, base, 8).unwrap();
        // One background worker: a second migration must be refused.
        assert!(p.begin_tea_migration(&mut pm, base, 16).is_err());
        // Unknown VA is refused too (after draining the first).
        while p.migration_step(&mut pm).unwrap() {}
        assert!(matches!(
            p.begin_tea_migration(&mut pm, VirtAddr(0x9999_0000_0000), 8),
            Err(OsError::NotInVma { .. })
        ));
    }

    #[test]
    fn audit_accepts_healthy_process_through_lifecycle() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        let id = p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        assert!(p.audit(&pm).is_empty());
        p.populate_range(&mut pm, base, 2 << 20).unwrap();
        p.promote(&mut pm, base).unwrap();
        assert!(p.audit(&pm).is_empty(), "{:?}", p.audit(&pm));
        p.demote(&mut pm, base).unwrap();
        p.munmap(&mut pm, id).unwrap();
        assert!(p.audit(&pm).is_empty(), "{:?}", p.audit(&pm));
        assert!(pm.buddy().audit().is_ok());
    }

    #[test]
    fn audit_survives_gradual_migration() {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.populate_range(&mut pm, base, 8 << 20).unwrap();
        p.begin_tea_migration(&mut pm, base, 16).unwrap();
        while p.migration_step(&mut pm).unwrap() {
            assert!(p.audit(&pm).is_empty(), "{:?}", p.audit(&pm));
        }
        assert!(p.audit(&pm).is_empty(), "{:?}", p.audit(&pm));
    }

    #[test]
    fn audit_catches_freed_tea_frame() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 4 << 20, VmaKind::Heap).unwrap();
        let tea_base = p
            .mappings()
            .lookup(base, PageSize::Size4K)
            .unwrap()
            .tea
            .base;
        // Free one TEA frame behind the OS's back.
        pm.buddy_mut().free_contig(tea_base, 1).unwrap();
        assert!(p.audit(&pm).iter().any(|e| e.contains("not a Tea frame")));
    }

    #[test]
    fn page_table_pages_live_in_teas() {
        // §6.3's memory accounting: with DMT, last-level table pages are
        // TEA frames; only upper-level tables remain PageTable frames.
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut p = Process::new(&mut pm, ThpMode::Never).unwrap();
        let base = VirtAddr(0x4000_0000);
        p.mmap(&mut pm, base, 8 << 20, VmaKind::Heap).unwrap();
        p.populate_range(&mut pm, base, 8 << 20).unwrap();
        let tea = pm.bytes_of_kind(FrameKind::Tea);
        let ptp = pm.bytes_of_kind(FrameKind::PageTable);
        assert_eq!(tea, 4 * 4096, "8 MiB / 2 MiB spans = 4 TEA pages");
        // Root + L3 + L2 = 3 upper-level pages.
        assert_eq!(ptp, 3 * 4096);
    }
}
