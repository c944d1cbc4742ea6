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

use crate::vm::Vm;
use crate::VirtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::fetcher::{self, FetchStep};
use dmt_core::gtea::GteaTable;
use dmt_core::regfile::DmtRegisterFile;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_core::DmtError;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemoryOps, PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::nested::{nested_walk, NestedCaches};
use dmt_pgtable::pte::{Pte, PteFlags};
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
    /// L2 RAM backing, one entry per backed L2 page: chunk index
    /// (`l2frame >> chunk_shift`) → the chunk's head L1 frame.
    backing2: dmt_mem::FastMap<u64, u64>,
    /// L1 frames of the L2 TEA pages hot-added above L2 RAM by
    /// [`l2_mmap`](Self::l2_mmap): L2 frame `l2_ram_frames + i` is
    /// backed by `hot2[i]`.
    hot2: Vec<u64>,
    /// L2 physical-frame allocator.
    l2_buddy: dmt_mem::BuddyAllocator,
    /// L2 RAM in frames; hot-added L2 frames start here.
    l2_ram_frames: u64,
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
    /// LCG cursor for spread L2 allocation.
    spread: u64,
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
        let size = if thp {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let vm1 = Vm::new(&mut pm, l1_bytes, size)?;

        // L2 frames are backed lazily on first allocation (like `Vm`);
        // backing an L2 chunk allocates an L1 chunk, writes its L1 TEA
        // PTE, and syncs the sPT identity mapping.
        let l2_frames = l2_bytes >> 12;

        // L1's pv TEA: PTEs mapping L2PA -> L1PA, L0-contiguous.
        let l1_proto = VmaTeaMapping::new(VirtAddr(0), l2_bytes, size, Pfn(0));
        let l1_tea_host = pm.alloc_contig(l1_proto.tea_frames(), FrameKind::Tea)?;
        let mut l1_gtea = GteaTable::new();
        let l1_id = l1_gtea.register(l1_tea_host, l1_proto.tea_frames());
        let l1_mapping =
            VmaTeaMapping::new(VirtAddr(0), l2_bytes, size, l1_tea_host).with_gtea_id(l1_id);

        let spt = ShadowPageTable::new(&mut pm, 4)?;
        let mut l2_buddy = dmt_mem::BuddyAllocator::new(l2_frames);
        let root_g = l2_buddy.alloc_order(0, FrameKind::PageTable)?;

        let mut machine = NestedMachine {
            pm,
            vm1,
            backing2: dmt_mem::FastMap::default(),
            hot2: Vec::new(),
            l2_buddy,
            l2_ram_frames: l2_frames,
            l2pt: RadixPageTable::from_root(root_g, 4),
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
            spread: 0x5eed_5678,
        };
        machine.ensure_l2_backed(root_g.0)?;
        let root_l0 = machine
            .l2pa_to_l0pa(PhysAddr::from_pfn(root_g))
            .expect("just backed");
        machine.pm.zero_frame(root_l0.pfn());
        machine.spt.reset_sync_events();
        machine.l1_regs.load(&[machine.l1_mapping]);
        machine.l0_regs.load(&[machine.vm1.host_mapping()]);
        Ok(machine)
    }

    /// The L2 page size (2 MiB with THP) and log2 of its 4 KiB frames.
    fn l2_page(&self) -> (PageSize, u32) {
        if self.thp {
            (PageSize::Size2M, 9)
        } else {
            (PageSize::Size4K, 0)
        }
    }

    /// Back the chunk containing L2 RAM frame `gframe`: allocate the L1
    /// chunk, write the L1 TEA PTE, and sync the sPT identity mapping.
    fn ensure_l2_backed(&mut self, gframe: u64) -> Result<(), VirtError> {
        let (size, shift) = self.l2_page();
        let chunk = gframe >> shift;
        if self.backing2.contains_key(&chunk) {
            return Ok(());
        }
        let head = chunk << shift;
        let l1 = if self.thp {
            self.vm1
                .alloc_guest_huge(&mut self.pm, FrameKind::HugeData)?
        } else {
            self.vm1.alloc_guest_frame(&mut self.pm, FrameKind::Data)?
        };
        self.backing2.insert(chunk, l1.0);
        let l1_id = self.l1_mapping.gtea_id().expect("L1 mapping is pv");
        let slot = self
            .l1_gtea
            .resolve(
                l1_id,
                self.l1_mapping
                    .pte_offset(VirtAddr(head << 12))
                    .expect("within L2 space"),
            )
            .map_err(VirtError::Dmt)?;
        let pte = if self.thp {
            Pte::huge_leaf(l1, PteFlags::WRITABLE | PteFlags::USER)
        } else {
            Pte::leaf(l1, PteFlags::WRITABLE | PteFlags::USER)
        };
        self.pm.write_word(slot, pte.raw());
        // sPT identity entry for the new chunk.
        let l0 = self
            .vm1
            .gpa_to_hpa(PhysAddr(l1.0 << 12))
            .ok_or(VirtError::Unbacked { gpa: l1.0 << 12 })?;
        self.spt.sync_mapping(
            &mut self.pm,
            VirtAddr(head << 12),
            l0,
            size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        Ok(())
    }

    /// L2 faults served.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// L2 pages recorded for L2 RAM: one per backed L2 page.
    pub fn backed_l2_pages(&self) -> usize {
        self.backing2.len()
    }

    /// Translate L2PA → L0PA (software, no cycles).
    pub fn l2pa_to_l0pa(&self, l2pa: PhysAddr) -> Option<PhysAddr> {
        let g = l2pa.raw() >> 12;
        let l1f = match g.checked_sub(self.l2_ram_frames) {
            None => {
                let (size, shift) = self.l2_page();
                self.backing2.get(&(g >> shift))? + (g & (size.base_pages() - 1))
            }
            Some(i) => *self.hot2.get(usize::try_from(i).ok()?)?,
        };
        self.vm1
            .gpa_to_hpa(PhysAddr((l1f << 12) | l2pa.page_offset()))
    }

    fn l2_view(&mut self) -> L2View<'_> {
        L2View { m: self }
    }

    /// Software ground-truth translation L2VA → L0PA (no cycles).
    pub fn translate_software(&self, l2va: VirtAddr) -> Option<PhysAddr> {
        let view = L2ViewRef { m: self };
        let (l2pa, _) = self.l2pt.translate(&view, l2va)?;
        self.l2pa_to_l0pa(l2pa)
    }

    /// Software ground-truth translation with the L2 leaf's size and
    /// flags — the reference entry for the differential oracle.
    pub fn translate_software_entry(
        &self,
        l2va: VirtAddr,
    ) -> Option<(PhysAddr, PageSize, PteFlags)> {
        let view = L2ViewRef { m: self };
        let (l2pa, size, flags) = self.l2pt.translate_entry(&view, l2va)?;
        Some((self.l2pa_to_l0pa(l2pa)?, size, flags))
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
        let sizes: &[PageSize] = if self.thp {
            &[PageSize::Size4K, PageSize::Size2M]
        } else {
            &[PageSize::Size4K]
        };
        for &s in sizes {
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
        let l2_base_frame = self.l2_ram_frames + self.hot2.len() as u64;
        self.hot2
            .extend((0..frames).map(|i| (l1_gpa.raw() >> 12) + i));
        // The inserted TEA pages are new L2PAs: the vanilla baseline's
        // sPT must know them (its 2D walker fetches L2PT tables by L2PA).
        for i in 0..frames {
            let l2pa = PhysAddr((l2_base_frame + i) << 12);
            let l0 = self
                .l2pa_to_l0pa(l2pa)
                .ok_or(VirtError::Unbacked { gpa: l2pa.raw() })?;
            self.spt.sync_mapping(
                &mut self.pm,
                VirtAddr(l2pa.raw()),
                l0,
                PageSize::Size4K,
                PteFlags::WRITABLE | PteFlags::USER,
            )?;
        }
        let mapping = VmaTeaMapping::new(
            proto.base(),
            proto.covered_bytes(),
            size,
            Pfn(l2_base_frame),
        )
        .with_gtea_id(id);
        // Install the TEA pages (by L2PA) as L2PT leaf tables.
        let span = 512u64 << size.shift();
        let mut l2pt = self.l2pt.clone();
        {
            let mut view = self.l2_view();
            for i in 0..frames {
                let span_va = VirtAddr(mapping.base().raw() + i * span);
                l2pt.install_table(
                    &mut view,
                    span_va,
                    size.leaf_level(),
                    Pfn(l2_base_frame + i),
                )?;
            }
        }
        self.l2pt = l2pt;
        self.l2_mappings.push(mapping);
        Ok(())
    }

    /// L2 demand paging. Each fault costs one (modeled) VM exit for the
    /// sPT sync in the vanilla regime.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn l2_populate(&mut self, l2va: VirtAddr) -> Result<bool, VirtError> {
        {
            let view = L2ViewRef { m: self };
            if self.l2pt.translate(&view, l2va).is_some() {
                return Ok(false);
            }
        }
        let mut cur = self.spread;
        let (base, frame, size) = if self.thp {
            let f = self
                .l2_buddy
                .alloc_block_spread(9, FrameKind::HugeData, &mut cur)?;
            (l2va.align_down(PageSize::Size2M), f, PageSize::Size2M)
        } else {
            let f = self
                .l2_buddy
                .alloc_single_spread(FrameKind::Data, &mut cur)?;
            (l2va.align_down(PageSize::Size4K), f, PageSize::Size4K)
        };
        self.spread = cur;
        // `frame` is one whole L2 page, so this backs all of it.
        self.ensure_l2_backed(frame.0)?;
        // A 2 MiB page replaces the pointer to the (empty) L1 table.
        let mut l2pt = self.l2pt.clone();
        l2pt.map_thp(
            &mut self.l2_view(),
            base,
            PhysAddr::from_pfn(frame),
            size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        self.l2pt = l2pt;
        // The sPT sync for the new chunk happened in ensure_l2_backed
        // (one VM exit per fault in the cost model).
        self.faults += 1;
        Ok(true)
    }

    /// Populate a range of L2 virtual memory.
    ///
    /// # Errors
    ///
    /// See [`l2_populate`](Self::l2_populate).
    pub fn l2_populate_range(&mut self, base: VirtAddr, len: u64) -> Result<u64, VirtError> {
        let thp = self.thp;
        crate::populate_range(base, len, thp, |va| self.l2_populate(va))
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

/// Mutable L2-physical view (word accesses composed through both backing
/// maps; frames from the L2 buddy).
#[derive(Debug)]
struct L2View<'a> {
    m: &'a mut NestedMachine,
}

/// Read-only redirection used where only `&self` is available.
struct L2ViewRef<'a> {
    m: &'a NestedMachine,
}

fn redirect(m: &NestedMachine, addr: PhysAddr) -> PhysAddr {
    m.l2pa_to_l0pa(addr)
        .unwrap_or_else(|| panic!("unbacked L2 physical address {addr}"))
}

impl MemoryOps for L2View<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.m.pm.read_word(redirect(self.m, addr))
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let h = redirect(self.m, addr);
        self.m.pm.write_word(h, value);
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        let mut cur = self.m.spread;
        let g = self.m.l2_buddy.alloc_single_spread(kind, &mut cur)?;
        self.m.spread = cur;
        self.m
            .ensure_l2_backed(g.0)
            .map_err(|_| dmt_mem::MemError::OutOfMemory)?;
        let h = redirect(self.m, PhysAddr::from_pfn(g));
        self.m.pm.zero_frame(h.pfn());
        Ok(g)
    }
    fn free_frame(&mut self, pfn: Pfn) -> dmt_mem::Result<()> {
        self.m.l2_buddy.free_order(pfn, 0)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let s = redirect(self.m, PhysAddr::from_pfn(src)).pfn();
        let d = redirect(self.m, PhysAddr::from_pfn(dst)).pfn();
        self.m.pm.copy_frame(s, d);
    }
}

impl MemoryOps for L2ViewRef<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.m.pm.read_word(redirect(self.m, addr))
    }
    fn write_word(&mut self, _addr: PhysAddr, _value: u64) {
        unreachable!("read-only view")
    }
    fn alloc_zeroed_frame(&mut self, _kind: FrameKind) -> dmt_mem::Result<Pfn> {
        unreachable!("read-only view")
    }
    fn free_frame(&mut self, _pfn: Pfn) -> dmt_mem::Result<()> {
        unreachable!("read-only view")
    }
    fn copy_frame(&mut self, _src: Pfn, _dst: Pfn) {
        unreachable!("read-only view")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn uncovered_l2va_falls_back() {
        let mut m = machine(false);
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            m.translate_pvdmt(VirtAddr(0x1000), &mut hier, &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
    }
}
