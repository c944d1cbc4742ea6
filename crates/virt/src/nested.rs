//! Nested virtualization: an L2 guest inside an L1 hypervisor on the L0
//! host (§2.1.3, §3.2, §4.5.3).
//!
//! Two translation regimes are modeled over identical state:
//!
//! * **Vanilla nested KVM** — the L1/L0 tables are compressed into one
//!   shadow table (sPT: L2PA → L0PA) maintained by L0 at VM-exit cost,
//!   and an L2 translation is a hardware 2D walk over L2PT × sPT
//!   (Figure 3).
//! * **Nested pvDMT** — TEAs at L2, L1 and L0 all live in L0-contiguous
//!   physical memory (hypercalls cascade L2→L1→L0), and a translation is
//!   three direct fetches (Figure 9).
//!
//! The L2 page table's leaf tables *are* the L2 TEA pages (cascade-mapped
//! into L2 physical space), so both regimes read the same PTE bytes.

use crate::guest_mem::{Backer, GuestMemory, GuestView, GuestViewRef, Lower};
use crate::vm::Vm;
use crate::VirtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::fetcher::{self, FetchStep};
use dmt_core::gtea::GteaTable;
use dmt_core::regfile::DmtRegisterFile;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_core::DmtError;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::nested::{nested_walk, NestedCaches};
use dmt_pgtable::pte::{Pte, PteFlags};
use dmt_pgtable::radix::SpanCursor;
use dmt_pgtable::shadow::ShadowPageTable;
use dmt_pgtable::walk::{StepSink, WalkOutcome, WalkStep};
use dmt_pgtable::RadixPageTable;

/// A three-level (L0/L1/L2) machine.
#[derive(Debug)]
pub struct NestedMachine {
    /// L0 (host) physical memory.
    pub pm: PhysMemory,
    /// L1's physical space backed in L0 (provides hpt1 = L1PA→L0PA and
    /// the L0 TEA).
    vm1: Vm,
    /// L2 physical memory; the level below it is L1's.
    l2: GuestMemory,
    /// L2's page table (L2VA → L2PA), tables addressed by L2PA.
    pub l2pt: RadixPageTable,
    /// Shadow table L2PA → L0PA (the vanilla baseline's "hPT").
    pub spt: ShadowPageTable,
    /// L1's VMA-to-TEA mapping (covers L2 physical space; PTEs map
    /// L2PA → L1PA), TEA in L0-contiguous memory.
    l1_mapping: VmaTeaMapping,
    /// gTEA tables (maintained one level down in each case).
    pub l1_gtea: GteaTable,
    /// gTEA table for L2's TEAs.
    pub l2_gtea: GteaTable,
    /// Register files per level.
    pub l2_regs: DmtRegisterFile,
    /// L1 registers.
    pub l1_regs: DmtRegisterFile,
    /// L0 (host) registers.
    pub l0_regs: DmtRegisterFile,
    /// MMU caches for the baseline 2D walk.
    pub nested_caches: NestedCaches,
    l2_mappings: Vec<VmaTeaMapping>,
    thp: bool,
    faults: u64,
}

/// The level below L2 physical memory: L1's, reached through L1's TEA
/// and mirrored by the sPT. A new L2 page is an L1 allocation whose L1
/// TEA PTE is written and whose L2PA → L0PA entry is synced into the
/// sPT; the lower→host step is L1's gPA → L0PA lookup.
///
/// The backing's sPT syncs share one [`SpanCursor`]: it lives as long as
/// the view, which holds the only mutable borrow of the sPT, so no other
/// write can move a table out from under it.
#[derive(Debug)]
pub struct L1Backing<'a> {
    vm1: &'a mut Vm,
    pm: &'a mut PhysMemory,
    mapping: VmaTeaMapping,
    gtea: &'a GteaTable,
    spt: &'a mut ShadowPageTable,
    spt_cursor: SpanCursor,
}

impl Lower for L1Backing<'_> {
    fn pm(&self) -> &PhysMemory {
        self.pm
    }
    fn to_host(&self, lower: PhysAddr) -> Option<PhysAddr> {
        self.vm1.gpa_to_hpa(lower)
    }
}

impl Backer for L1Backing<'_> {
    fn pm_mut(&mut self) -> &mut PhysMemory {
        self.pm
    }
    fn back(&mut self, gpa: PhysAddr, size: PageSize) -> Result<Pfn, VirtError> {
        let huge = size == PageSize::Size2M;
        let l1 = if huge {
            self.vm1.alloc_guest_huge(self.pm, FrameKind::HugeData)?
        } else {
            self.vm1.alloc_guest_frame(self.pm, FrameKind::Data)?
        };
        let l1_id = self.mapping.gtea_id().expect("L1 mapping is pv");
        let slot = self.gtea.resolve(
            l1_id,
            self.mapping
                .pte_offset(VirtAddr(gpa.raw()))
                .expect("within L2 space"),
        )?;
        let pte = Pte::page_leaf(l1, size, PteFlags::WRITABLE | PteFlags::USER);
        self.pm.write_word(slot, pte.raw());
        // sPT identity entry for the new page.
        let l0 = self
            .vm1
            .gpa_to_hpa(PhysAddr::from_pfn(l1))
            .ok_or(VirtError::Unbacked { gpa: l1.0 << 12 })?;
        self.spt.sync_mapping(
            self.pm,
            VirtAddr(gpa.raw()),
            l0,
            size,
            PteFlags::WRITABLE | PteFlags::USER,
            &mut self.spt_cursor,
        )?;
        Ok(l1)
    }
}

impl NestedMachine {
    /// Build the stack: `l0_bytes` of host memory, an L1 with `l1_bytes`,
    /// an L2 with `l2_bytes`. With `thp`, 2 MiB pages are used at every
    /// level.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures at any level.
    pub fn new(l0_bytes: u64, l1_bytes: u64, l2_bytes: u64, thp: bool) -> Result<Self, VirtError> {
        Self::new_with_pm(PhysMemory::new_bytes(l0_bytes), l1_bytes, l2_bytes, thp)
    }

    /// Build the stack inside an existing L0 physical memory — the
    /// multi-tenant cloud-node path, where several machines carve their
    /// backing out of one shared buddy allocator. The machine takes
    /// ownership of `pm`; a scheduler can lend it back and forth with
    /// `std::mem::swap` on context switches.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures at any level.
    pub fn new_with_pm(
        mut pm: PhysMemory,
        l1_bytes: u64,
        l2_bytes: u64,
        thp: bool,
    ) -> Result<Self, VirtError> {
        let size = crate::page_size(thp);
        let vm1 = Vm::new(&mut pm, l1_bytes, size)?;

        // L1's pv TEA: PTEs mapping L2PA -> L1PA, L0-contiguous.
        let l1_proto = VmaTeaMapping::new(VirtAddr(0), l2_bytes, size, Pfn(0));
        let l1_tea_host = pm.alloc_contig(l1_proto.tea_frames(), FrameKind::Tea)?;
        let mut l1_gtea = GteaTable::new();
        let l1_id = l1_gtea.register(l1_tea_host, l1_proto.tea_frames());
        let l1_mapping =
            VmaTeaMapping::new(VirtAddr(0), l2_bytes, size, l1_tea_host).with_gtea_id(l1_id);

        let spt = ShadowPageTable::new(&mut pm, 4)?;
        let mut machine = NestedMachine {
            pm,
            vm1,
            l2: GuestMemory::new(l2_bytes, size, 0x5eed_5678),
            // The root table is L2 memory: it is allocated below.
            l2pt: RadixPageTable::from_root(Pfn(0), 4),
            spt,
            l1_mapping,
            l1_gtea,
            l2_gtea: GteaTable::new(),
            l2_regs: DmtRegisterFile::new(),
            l1_regs: DmtRegisterFile::new(),
            l0_regs: DmtRegisterFile::new(),
            nested_caches: NestedCaches::xeon_gold_6138(),
            l2_mappings: Vec::new(),
            thp,
            faults: 0,
        };
        // L2 pages are backed on first allocation, the root table's
        // first. A one-frame run is the allocator's first free frame.
        let root = machine.l2_view().alloc_run(1, FrameKind::PageTable)?;
        machine.l2pt = RadixPageTable::from_root(root, 4);
        machine.spt.reset_sync_events();
        machine.l1_regs.load(&[machine.l1_mapping]);
        machine.l0_regs.load(&[machine.vm1.host_mapping()]);
        Ok(machine)
    }

    /// The L2 page table and a mutable view of L2 physical memory, split
    /// so the table can be edited through the view.
    fn l2pt_and_view(&mut self) -> (&mut RadixPageTable, GuestView<'_, L1Backing<'_>>) {
        let view = GuestView {
            mem: &mut self.l2,
            lower: L1Backing {
                vm1: &mut self.vm1,
                pm: &mut self.pm,
                mapping: self.l1_mapping,
                gtea: &self.l1_gtea,
                spt: &mut self.spt,
                spt_cursor: SpanCursor::default(),
            },
        };
        (&mut self.l2pt, view)
    }

    /// A mutable view of L2 physical memory: frames come from L2's
    /// allocator, and a new L2 page is backed as [`L1Backing`] says.
    pub fn l2_view(&mut self) -> GuestView<'_, L1Backing<'_>> {
        self.l2pt_and_view().1
    }

    /// A read-only view of L2 physical memory, sitting on L1's.
    pub fn l2_view_ref(&self) -> GuestViewRef<'_, GuestViewRef<'_, &PhysMemory>> {
        GuestViewRef {
            mem: &self.l2,
            lower: self.vm1.guest_view_ref(&self.pm),
        }
    }

    /// L2 faults served.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// L2 pages recorded for L2 RAM: one per backed L2 page.
    pub fn backed_l2_pages(&self) -> usize {
        self.l2.backed_pages()
    }

    /// The backed L2-physical chunks `(L2PA, L1PA, size)` in L2PA order,
    /// as [`Vm::backed_chunks`] lists a guest's.
    pub fn l2_backed_chunks(&self) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
        self.l2.chunks()
    }

    /// The state hash of L2's frame allocator.
    pub fn l2_state_hash(&self) -> u64 {
        self.l2.state_hash()
    }

    /// L1: its physical memory backed in L0, and the L1 page table
    /// (L1PA → L0PA).
    pub fn l1(&self) -> &Vm {
        &self.vm1
    }

    /// Translate L2PA → L0PA (software, no cycles).
    pub fn l2pa_to_l0pa(&self, l2pa: PhysAddr) -> Option<PhysAddr> {
        self.l2_view_ref().to_host(l2pa)
    }

    /// Software ground-truth translation L2VA → L0PA (no cycles): the
    /// L2 leaf decides the size and flags, the L2 → L0 cascade finishes
    /// the address.
    pub fn translate_software(&self, l2va: VirtAddr) -> Option<(PhysAddr, PageSize, PteFlags)> {
        let view = self.l2_view_ref();
        let (l2pa, size, flags) = self.l2pt.translate_entry(&view, l2va)?;
        Some((view.to_host(l2pa)?, size, flags))
    }

    /// Number of `l2_mmap` cascaded hypercalls issued so far (== number
    /// of L2 TEA mappings created).
    pub fn l2_mappings_count(&self) -> usize {
        self.l2_mappings.len()
    }

    /// The L2 process's VMA→TEA mappings (TEA bases are L2-physical
    /// frame numbers; the oracle resolves them through
    /// [`l2pa_to_l0pa`](Self::l2pa_to_l0pa) against the gTEA tables).
    pub fn l2_mappings(&self) -> &[VmaTeaMapping] {
        &self.l2_mappings
    }

    /// L2 `mmap`: cascaded hypercall allocates an L0-contiguous L2 TEA,
    /// maps it down the stack, and installs its pages as L2PT leaf
    /// tables.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn l2_mmap(&mut self, base: VirtAddr, len: u64) -> Result<(), VirtError> {
        for &s in crate::tea_sizes(self.thp) {
            self.l2_mmap_one(base, len, s)?;
        }
        self.l2_regs.load(&self.l2_mappings);
        Ok(())
    }

    fn l2_mmap_one(&mut self, base: VirtAddr, len: u64, size: PageSize) -> Result<(), VirtError> {
        let proto = VmaTeaMapping::new(base, len, size, Pfn(0));
        let frames = proto.tea_frames();
        // L0 allocates (cascade terminus).
        let host_base = self.pm.alloc_contig(frames, FrameKind::Tea)?;
        let id = self.l2_gtea.register(host_base, frames);
        // Cascade the pages up: L0 frames get L1PAs, then L2PAs.
        let l1_gpa = self
            .vm1
            .insert_host_pages(&mut self.pm, host_base, frames)?;
        let l2_base = self.l2.hot_add(l1_gpa.pfn(), frames);
        // The inserted TEA pages are new L2PAs: the vanilla baseline's
        // sPT must know them (its 2D walker fetches L2PT tables by L2PA).
        // Each one's L0PA is its own L0 TEA frame.
        let mut cursor = SpanCursor::default();
        for i in 0..frames {
            self.spt.sync_mapping(
                &mut self.pm,
                VirtAddr(l2_base.raw() + (i << 12)),
                PhysAddr::from_pfn(Pfn(host_base.0 + i)),
                PageSize::Size4K,
                PteFlags::WRITABLE | PteFlags::USER,
                &mut cursor,
            )?;
        }
        let mapping = VmaTeaMapping::new(proto.base(), proto.covered_bytes(), size, l2_base.pfn())
            .with_gtea_id(id);
        // Install the TEA pages (by L2PA) as L2PT leaf tables.
        let (l2pt, mut view) = self.l2pt_and_view();
        l2pt.install_tea(&mut view, mapping.base(), size, l2_base.pfn(), 0..frames)?;
        self.l2_mappings.push(mapping);
        Ok(())
    }

    /// L2 demand paging: make the page containing `l2va` present, a
    /// batch of one [`l2_populate_pages`](Self::l2_populate_pages).
    /// Returns `true` when a fault was served.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn l2_populate(&mut self, l2va: VirtAddr) -> Result<bool, VirtError> {
        Ok(self.l2_populate_pages([l2va])? == 1)
    }

    /// L2 demand paging of every page of `pages`, in order; returns the
    /// faults served. Each fault takes a fresh L2 page (2 MiB under THP)
    /// and maps it in the L2 table.
    ///
    /// A fault costs an sPT sync (one modeled VM exit in the vanilla
    /// regime) only when it backs new L2 memory: the sync happens where
    /// an L2 page is first backed by L1 memory ([`L1Backing`]), for the
    /// data page and for any L2 table the fault allocates. A fault whose
    /// page reuses an already-backed L2 page (one an earlier, since
    /// freed, L2 table occupied) charges no sync.
    ///
    /// The L2 table and the sPT each keep one [`SpanCursor`] for the
    /// batch, so of a sorted page list only the first page of each leaf
    /// table's span descends from the root. Frames and tables are
    /// allocated exactly as page-at-a-time population would.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures; the pages before the failing one
    /// stay populated.
    pub fn l2_populate_pages(
        &mut self,
        pages: impl IntoIterator<Item = VirtAddr>,
    ) -> Result<u64, VirtError> {
        let (order, kind) = if self.thp {
            (9, FrameKind::HugeData)
        } else {
            (0, FrameKind::Data)
        };
        let mut faults = 0;
        let done = {
            let (l2pt, mut view) = self.l2pt_and_view();
            let size = view.mem.page_size();
            let mut cursor = SpanCursor::default();
            pages.into_iter().try_for_each(|l2va| {
                let at = l2pt.slot(&view, l2va, size.leaf_level(), &mut cursor);
                if at.translate(&view).is_some() {
                    return Ok(());
                }
                // `frame` heads one whole L2 page, so this backs all of
                // it (syncing the sPT where the page is new), then zeroes
                // it: the block may hold a freed L2 table's old entries.
                let frame = view.alloc(order, kind)?;
                // A 2 MiB page replaces the pointer to the (empty) L1
                // table.
                l2pt.fill(
                    &mut view,
                    at,
                    Pte::page_leaf(frame, size, PteFlags::WRITABLE | PteFlags::USER),
                    &mut cursor,
                )?;
                faults += 1;
                Ok::<_, VirtError>(())
            })
        };
        self.faults += faults;
        done.map(|()| faults)
    }

    /// Populate a range of L2 virtual memory: one batch over its pages.
    ///
    /// # Errors
    ///
    /// See [`l2_populate_pages`](Self::l2_populate_pages).
    pub fn l2_populate_range(&mut self, base: VirtAddr, len: u64) -> Result<u64, VirtError> {
        self.l2_populate_pages(crate::range_pages(base, len, self.thp))
    }

    /// Vanilla nested KVM: 2D walk over L2PT × sPT.
    ///
    /// # Errors
    ///
    /// Propagates walk faults.
    pub fn translate_baseline(
        &mut self,
        l2va: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<WalkStep>,
    ) -> Result<WalkOutcome, VirtError> {
        Ok(nested_walk(
            &self.l2pt,
            self.spt.table(),
            &mut self.pm,
            l2va,
            hier,
            &mut self.nested_caches,
            steps,
        )?)
    }

    /// Nested pvDMT: three direct fetches (Figure 9).
    ///
    /// # Errors
    ///
    /// [`DmtError::NotCovered`] means fall back to the baseline walk.
    pub fn translate_pvdmt(
        &mut self,
        l2va: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<FetchStep>,
    ) -> Result<WalkOutcome, DmtError> {
        fetcher::fetch_nested_pv(
            &self.l2_regs,
            &self.l2_gtea,
            &self.l1_regs,
            &self.l1_gtea,
            &self.l0_regs,
            &mut self.pm,
            hier,
            l2va,
            steps,
        )
    }

    /// Number of sPT sync events (VM exits) since the last reset.
    pub fn sync_events(&self) -> u64 {
        self.spt.sync_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::MemoryOps;

    const L2BASE: VirtAddr = VirtAddr(0x7f00_0000_0000);

    fn machine(thp: bool) -> NestedMachine {
        let mut m = NestedMachine::new(512 << 20, 96 << 20, 32 << 20, thp).unwrap();
        m.l2_mmap(L2BASE, 8 << 20).unwrap();
        m.l2_populate_range(L2BASE, 8 << 20).unwrap();
        m
    }

    #[test]
    fn baseline_and_pvdmt_agree() {
        let mut m = machine(false);
        let mut hier = MemoryHierarchy::default();
        let va = VirtAddr(L2BASE.raw() + 3 * 4096 + 0x45);
        let base = m.translate_baseline(va, &mut hier, &mut ()).unwrap();
        let pv = m.translate_pvdmt(va, &mut hier, &mut ()).unwrap();
        assert_eq!(base.pa, pv.pa);
    }

    #[test]
    fn pvdmt_takes_three_references() {
        let mut m = machine(false);
        let mut hier = MemoryHierarchy::default();
        let out = m
            .translate_pvdmt(VirtAddr(L2BASE.raw() + 0x5000), &mut hier, &mut ())
            .unwrap();
        assert_eq!(out.refs, 3, "L2PTE + L1PTE + L0PTE");
    }

    #[test]
    fn baseline_2d_walk_over_spt_is_native_x_guest() {
        let mut m = machine(false);
        m.nested_caches = NestedCaches::none();
        let mut hier = MemoryHierarchy::default();
        let out = m
            .translate_baseline(VirtAddr(L2BASE.raw() + 0x5000), &mut hier, &mut ())
            .unwrap();
        assert_eq!(out.refs, 24, "L2PT x sPT behaves like a 2D walk");
    }

    #[test]
    fn every_populate_is_a_shadow_sync() {
        let m = machine(false);
        // mmap-time TEA inserts also sync the sPT, so events >= faults.
        assert!(m.sync_events() >= m.faults());
        assert_eq!(m.faults(), (8 << 20) / 4096);
    }

    #[test]
    fn thp_nested_works_at_all_levels() {
        let mut m = machine(true);
        let mut hier = MemoryHierarchy::default();
        let va = VirtAddr(L2BASE.raw() + (3 << 21) + 0x777);
        let pv = m.translate_pvdmt(va, &mut hier, &mut ()).unwrap();
        assert_eq!(pv.refs, 3);
        assert_eq!(pv.size, PageSize::Size2M);
        let base = m.translate_baseline(va, &mut hier, &mut ()).unwrap();
        assert_eq!(base.pa, pv.pa);
    }

    #[test]
    fn populated_l2_pages_read_zero() {
        // Under THP the 2 MiB TEA's install frees the PMD table the 4 KiB
        // TEA's pages hung from, and a later 2 MiB page can take that L2
        // frame with its old entries (one read 0x2000007 when populate
        // did not zero).
        let mut m = NestedMachine::new(512 << 20, 96 << 20, 32 << 20, true).unwrap();
        m.l2_mmap(L2BASE, 24 << 20).unwrap();
        let pages: Vec<VirtAddr> = (0..12)
            .map(|i| VirtAddr(L2BASE.raw() + (i << 21)))
            .collect();
        for &va in &pages {
            assert_eq!(m.l2_populate(va), Ok(true));
        }
        let view = m.l2_view_ref();
        for (i, &va) in pages.iter().enumerate() {
            let (l2pa, size) = m.l2pt.translate(&view, va).unwrap();
            for w in 0..size.bytes() / 8 {
                let word = view.read_word(l2pa + w * 8);
                assert_eq!(word, 0, "page {i}, frame {}, word {}", w / 512, w % 512);
            }
        }
    }

    #[test]
    fn uncovered_l2va_falls_back() {
        let mut m = machine(false);
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            m.translate_pvdmt(VirtAddr(0x1000), &mut hier, &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
    }
}
