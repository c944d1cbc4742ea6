//! A complete single-level virtualized machine: guest OS state, host
//! state, and every translation path the paper evaluates in §6.1.2.
//!
//! [`VirtMachine`] wires together the guest page table (built in guest
//! physical memory), the host page table with its hTEA, the guest and
//! host DMT register files, the gTEA table, an optional shadow page
//! table, and VM-exit accounting. The `translate_*` methods expose the
//! competing designs over identical state:
//!
//! * [`VirtMachine::translate_nested`] — hardware 2D walk (vanilla KVM);
//! * [`VirtMachine::translate_shadow`] — native-length sPT walk (the
//!   exits were paid at update time);
//! * [`VirtMachine::translate_pvdmt`] — 2 references via the gTEA table;
//! * [`VirtMachine::translate_dmt`] — 3 references without
//!   paravirtualization.
//!
//! Each takes a step sink (`()` to discard the per-step trace, a `Vec`
//! to keep it) and allocates nothing itself.

use crate::hypercall::{kvm_hc_alloc_tea, HypercallStats, TeaRequest};
use crate::vm::Vm;
use crate::VirtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_core::fetcher::{self, FetchStep};
use dmt_core::gtea::GteaTable;
use dmt_core::regfile::DmtRegisterFile;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_core::DmtError;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::nested::{nested_walk, NestedCaches};
use dmt_pgtable::pte::PteFlags;
use dmt_pgtable::shadow::ShadowPageTable;
use dmt_pgtable::walk::{walk_dimension, StepSink, WalkDim, WalkOutcome, WalkStep};
use dmt_pgtable::RadixPageTable;

/// How the guest's TEAs are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestTeaMode {
    /// pvDMT: host-allocated, host-contiguous, gTEA-table mediated.
    Pv,
    /// Plain DMT: guest-allocated, contiguous only in guest physical
    /// memory.
    Unpv,
    /// No TEAs at all — a vanilla guest whose page-table pages are
    /// ordinary guest frames (the baseline configurations).
    None,
}

/// A single-level virtualized machine under test.
#[derive(Debug)]
pub struct VirtMachine {
    /// Host physical memory.
    pub pm: PhysMemory,
    /// The guest's backing + host page table.
    pub vm: Vm,
    /// Guest page table (gVA → gPA), tables in guest physical memory.
    pub gpt: RadixPageTable,
    /// Guest DMT registers.
    pub guest_regs: DmtRegisterFile,
    /// Host DMT registers (the single guest-physical VMA mapping).
    pub host_regs: DmtRegisterFile,
    /// The per-VM gTEA table (pv mode).
    pub gtea_table: GteaTable,
    /// Shadow page table (gVA → hPA) with sync accounting.
    pub spt: ShadowPageTable,
    /// MMU caches for 2D walks.
    pub nested_caches: NestedCaches,
    /// PWC for shadow (native-style) walks.
    pub shadow_pwc: PageWalkCache,
    /// Hypercall accounting.
    pub hypercalls: HypercallStats,
    mode: GuestTeaMode,
    guest_thp: bool,
    guest_mappings: Vec<VmaTeaMapping>,
    faults: u64,
}

impl VirtMachine {
    /// Build a machine with `host_bytes` of host memory and `guest_bytes`
    /// of guest memory. `thp` applies to both dimensions (guest 2 MiB
    /// pages, host 2 MiB backing), matching the paper's THP runs.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn new(
        host_bytes: u64,
        guest_bytes: u64,
        mode: GuestTeaMode,
        thp: bool,
    ) -> Result<Self, VirtError> {
        Self::new_with_pm(PhysMemory::new_bytes(host_bytes), guest_bytes, mode, thp)
    }

    /// Build a machine inside an existing host physical memory — the
    /// multi-tenant cloud-node path, where several machines carve their
    /// backing out of one shared buddy allocator. The machine takes
    /// ownership of `pm`; a scheduler can lend it back and forth with
    /// `std::mem::swap` on context switches.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn new_with_pm(
        mut pm: PhysMemory,
        guest_bytes: u64,
        mode: GuestTeaMode,
        thp: bool,
    ) -> Result<Self, VirtError> {
        let host_size = if thp {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let mut vm = Vm::new(&mut pm, guest_bytes, host_size)?;
        let gpt = {
            let mut view = vm.guest_view(&mut pm);
            RadixPageTable::new(&mut view, 4)?
        };
        let spt = ShadowPageTable::new(&mut pm, 4)?;
        let mut host_regs = DmtRegisterFile::new();
        host_regs.load(&[vm.host_mapping()]);
        Ok(VirtMachine {
            pm,
            vm,
            gpt,
            guest_regs: DmtRegisterFile::new(),
            host_regs,
            gtea_table: GteaTable::new(),
            spt,
            nested_caches: NestedCaches::xeon_gold_6138(),
            shadow_pwc: PageWalkCache::default(),
            hypercalls: HypercallStats::default(),
            mode,
            guest_thp: thp,
            guest_mappings: Vec::new(),
            faults: 0,
        })
    }

    /// Whether the guest uses 2 MiB pages.
    pub fn guest_thp(&self) -> bool {
        self.guest_thp
    }

    /// Guest page faults served (populations; each one is a shadow-paging
    /// sync event in the sPT cost model).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// The guest-register-visible mappings.
    pub fn guest_mappings(&self) -> &[VmaTeaMapping] {
        &self.guest_mappings
    }

    /// Guest `mmap`: create a VMA's gTEA(s) and install them as guest
    /// table pages. In pv mode this issues one `KVM_HC_ALLOC_TEA`
    /// hypercall; in unpv mode the guest allocates from its own physical
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures in either address space.
    pub fn guest_mmap(&mut self, base: VirtAddr, len: u64) -> Result<(), VirtError> {
        let size = if self.guest_thp {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        // With THP the guest keeps a 4 KiB TEA too (edges/fallback), as in
        // Figure 12 — create it first so the 2 MiB TEA dominates probes.
        let sizes: &[PageSize] = if self.guest_thp {
            &[PageSize::Size4K, PageSize::Size2M]
        } else {
            &[PageSize::Size4K]
        };
        for &s in sizes {
            self.guest_mmap_one(base, len, s)?;
        }
        let _ = size;
        // Reload the guest registers (context-switch analog).
        self.guest_regs.load(&self.guest_mappings);
        Ok(())
    }

    fn guest_mmap_one(
        &mut self,
        base: VirtAddr,
        len: u64,
        size: PageSize,
    ) -> Result<(), VirtError> {
        match self.mode {
            GuestTeaMode::None => return Ok(()),
            GuestTeaMode::Pv => {
                let grants = kvm_hc_alloc_tea(
                    &mut self.pm,
                    &mut self.vm,
                    &mut self.gtea_table,
                    &[TeaRequest { base, len, size }],
                    &mut self.hypercalls,
                )?;
                for g in grants {
                    self.install_gtea(&g.mapping)?;
                    self.guest_mappings.push(g.mapping);
                }
            }
            GuestTeaMode::Unpv => {
                let proto = VmaTeaMapping::new(base, len, size, Pfn(0));
                let gframe =
                    self.vm
                        .alloc_guest_contig(&mut self.pm, proto.tea_frames(), FrameKind::Tea)?;
                let mapping = VmaTeaMapping::new(proto.base(), proto.covered_bytes(), size, gframe);
                self.install_gtea(&mapping)?;
                self.guest_mappings.push(mapping);
            }
        }
        Ok(())
    }

    /// Install a gTEA's pages (addressed by the gPA in `tea_base`) as the
    /// guest page table's leaf tables for the covered region.
    fn install_gtea(&mut self, mapping: &VmaTeaMapping) -> Result<(), VirtError> {
        let size = mapping.page_size();
        let span = 512u64 << size.shift();
        let mut view = self.vm.guest_view(&mut self.pm);
        for i in 0..mapping.tea_frames() {
            let span_va = VirtAddr(mapping.base().raw() + i * span);
            self.gpt.install_table(
                &mut view,
                span_va,
                size.leaf_level(),
                Pfn(mapping.tea_base().0 + i),
            )?;
        }
        Ok(())
    }

    /// Guest demand paging: make the page containing `gva` present,
    /// syncing the shadow table (one modeled VM exit per fault).
    /// Returns `true` when a fault was served.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn guest_populate(&mut self, gva: VirtAddr) -> Result<bool, VirtError> {
        {
            let view = self.vm.guest_view(&mut self.pm);
            if self.gpt.translate(&view, gva).is_some() {
                return Ok(false);
            }
        }
        let (gbase, gframe, size) = if self.guest_thp {
            let g = self
                .vm
                .alloc_guest_huge(&mut self.pm, FrameKind::HugeData)?;
            (gva.align_down(PageSize::Size2M), g, PageSize::Size2M)
        } else {
            let g = self.vm.alloc_guest_frame(&mut self.pm, FrameKind::Data)?;
            (gva.align_down(PageSize::Size4K), g, PageSize::Size4K)
        };
        {
            let mut view = self.vm.guest_view(&mut self.pm);
            let occupied_l2_slot = if size == PageSize::Size2M {
                self.gpt.entry_pa(&view, gbase, 2).filter(|slot| {
                    dmt_pgtable::pte::Pte(dmt_mem::MemoryOps::read_word(&view, *slot)).present()
                })
            } else {
                None
            };
            if let Some(slot) = occupied_l2_slot {
                // The L2 slot holds a pointer to the (empty) TEA-L1 table;
                // replace it with a huge leaf, as the kernel replaces a
                // PMD for THP.
                dmt_mem::MemoryOps::write_word(
                    &mut view,
                    slot,
                    dmt_pgtable::pte::Pte::huge_leaf(gframe, PteFlags::WRITABLE | PteFlags::USER)
                        .raw(),
                );
            } else {
                self.gpt.map(
                    &mut view,
                    gbase,
                    PhysAddr::from_pfn(gframe),
                    size,
                    PteFlags::WRITABLE | PteFlags::USER,
                )?;
            }
        }
        // Shadow sync: gVA -> hPA (one VM exit). With a 2 MiB guest page
        // over 2 MiB host backing the shadow entry is huge as well.
        let hpa = self
            .vm
            .gpa_to_hpa(PhysAddr::from_pfn(gframe))
            .expect("guest frame must be backed");
        self.spt.sync_mapping(
            &mut self.pm,
            gbase,
            hpa,
            size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        self.faults += 1;
        Ok(true)
    }

    /// Populate a whole range.
    ///
    /// # Errors
    ///
    /// See [`guest_populate`](Self::guest_populate).
    pub fn guest_populate_range(&mut self, base: VirtAddr, len: u64) -> Result<u64, VirtError> {
        let step = if self.guest_thp {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let mut faults = 0;
        let mut va = base;
        while va.raw() < base.raw() + len {
            if self.guest_populate(va)? {
                faults += 1;
            }
            // Advance chunk-aligned so unaligned regions' tails are
            // covered too.
            va = VirtAddr(va.align_down(step).raw() + step.bytes());
        }
        Ok(faults)
    }

    /// Software ground-truth translation gVA → hPA (no cycles charged).
    pub fn translate_software(&self, gva: VirtAddr) -> Option<PhysAddr> {
        let view = self.vm.guest_view_ref(&self.pm);
        let (gpa, _) = self.gpt.translate(&view, gva)?;
        self.vm.gpa_to_hpa(gpa)
    }

    /// Vanilla KVM: hardware 2D page walk (Figure 2).
    ///
    /// # Errors
    ///
    /// Propagates walk faults.
    pub fn translate_nested(
        &mut self,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<WalkStep>,
    ) -> Result<WalkOutcome, VirtError> {
        Ok(nested_walk(
            &self.gpt,
            self.vm.hpt(),
            &mut self.pm,
            gva,
            hier,
            &mut self.nested_caches,
            steps,
        )?)
    }

    /// Shadow paging: a native-length walk of the sPT.
    ///
    /// # Errors
    ///
    /// Propagates walk faults.
    pub fn translate_shadow(
        &mut self,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<WalkStep>,
    ) -> Result<WalkOutcome, VirtError> {
        Ok(walk_dimension(
            self.spt.table(),
            &mut self.pm,
            gva,
            WalkDim::Native,
            hier,
            Some(&mut self.shadow_pwc),
            steps,
        )?)
    }

    /// pvDMT: two memory references through the gTEA table.
    ///
    /// # Errors
    ///
    /// [`DmtError::NotCovered`] means fall back to
    /// [`translate_nested`](Self::translate_nested).
    pub fn translate_pvdmt(
        &mut self,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<FetchStep>,
    ) -> Result<WalkOutcome, DmtError> {
        fetcher::fetch_virt_pv(
            &self.guest_regs,
            &self.gtea_table,
            &self.host_regs,
            &mut self.pm,
            hier,
            gva,
            steps,
        )
    }

    /// Plain DMT (no paravirtualization): three memory references.
    ///
    /// # Errors
    ///
    /// [`DmtError::NotCovered`] means fall back to the 2D walk.
    pub fn translate_dmt(
        &mut self,
        gva: VirtAddr,
        hier: &mut MemoryHierarchy,
        steps: &mut impl StepSink<FetchStep>,
    ) -> Result<WalkOutcome, DmtError> {
        fetcher::fetch_virt_unpv(
            &self.guest_regs,
            &self.host_regs,
            &mut self.pm,
            hier,
            gva,
            steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(mode: GuestTeaMode, thp: bool) -> VirtMachine {
        let mut m = VirtMachine::new(256 << 20, 32 << 20, mode, thp).unwrap();
        let base = VirtAddr(0x7f00_0000_0000);
        m.guest_mmap(base, 8 << 20).unwrap();
        m.guest_populate_range(base, 8 << 20).unwrap();
        m
    }

    const GVA: VirtAddr = VirtAddr(0x7f00_0000_0000 + 5 * 4096 + 0x21);

    #[test]
    fn all_paths_agree_on_the_translation() {
        let mut m = machine(GuestTeaMode::Pv, false);
        let mut hier = MemoryHierarchy::default();
        let nested = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        let shadow = m.translate_shadow(GVA, &mut hier, &mut ()).unwrap();
        let pv = m.translate_pvdmt(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(nested.pa, shadow.pa);
        assert_eq!(nested.pa, pv.pa);
    }

    #[test]
    fn pvdmt_takes_two_references() {
        let mut m = machine(GuestTeaMode::Pv, false);
        let mut hier = MemoryHierarchy::default();
        let out = m.translate_pvdmt(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(out.refs, 2);
    }

    #[test]
    fn unpv_dmt_takes_three_references() {
        let mut m = machine(GuestTeaMode::Unpv, false);
        let mut hier = MemoryHierarchy::default();
        let out = m.translate_dmt(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(out.refs, 3);
        // And it agrees with the 2D walk.
        let nested = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(out.pa, nested.pa);
    }

    #[test]
    fn cold_2d_walk_is_24_refs_warm_is_short() {
        let mut m = machine(GuestTeaMode::Pv, false);
        m.nested_caches = NestedCaches::none();
        let mut hier = MemoryHierarchy::default();
        let cold = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(cold.refs, 24);
        m.nested_caches = NestedCaches::xeon_gold_6138();
        let _ = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        let warm = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert!(warm.refs <= 3);
    }

    #[test]
    fn shadow_walk_is_native_length_with_exit_accounting() {
        let mut m = machine(GuestTeaMode::Pv, false);
        let mut hier = MemoryHierarchy::default();
        let out = m.translate_shadow(GVA, &mut hier, &mut ()).unwrap();
        assert!(out.refs <= 4);
        // Every populate cost one sync (VM exit).
        assert_eq!(m.spt.sync_events(), m.faults());
        assert_eq!(m.faults(), 8 << 20 >> 12);
    }

    #[test]
    fn thp_guest_uses_2m_pages_everywhere() {
        let mut m = machine(GuestTeaMode::Pv, true);
        let mut hier = MemoryHierarchy::default();
        let pv = m.translate_pvdmt(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(pv.refs, 2);
        assert_eq!(pv.size, PageSize::Size2M);
        let nested = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(nested.pa, pv.pa);
        assert_eq!(nested.size, PageSize::Size2M);
    }

    #[test]
    fn vanilla_thp_cold_2d_walk_is_15_refs() {
        // Figure 16b: with 2 MiB pages in both dimensions the 2D walk is
        // 3 groups x (3 host + 1 guest) + 3 = 15 — measured on a vanilla
        // guest whose table pages are ordinary guest frames.
        let mut m = machine(GuestTeaMode::None, true);
        m.nested_caches = NestedCaches::none();
        let mut hier = MemoryHierarchy::default();
        let cold = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(cold.refs, 15);
    }

    #[test]
    fn vanilla_4k_cold_2d_walk_is_24_refs() {
        let mut m = machine(GuestTeaMode::None, false);
        m.nested_caches = NestedCaches::none();
        let mut hier = MemoryHierarchy::default();
        let cold = m.translate_nested(GVA, &mut hier, &mut ()).unwrap();
        assert_eq!(cold.refs, 24);
        // And with no TEAs, pvDMT has nothing to work with.
        assert!(matches!(
            m.translate_pvdmt(GVA, &mut hier, &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
    }

    #[test]
    fn pv_hypercalls_are_counted() {
        let m = machine(GuestTeaMode::Pv, false);
        assert_eq!(m.hypercalls.calls, 1);
        assert!(m.hypercalls.frames_granted >= 4);
        let m2 = machine(GuestTeaMode::Unpv, false);
        assert_eq!(m2.hypercalls.calls, 0, "unpv never exits for TEAs");
    }

    #[test]
    fn uncovered_gva_falls_back() {
        let mut m = machine(GuestTeaMode::Pv, false);
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            m.translate_pvdmt(VirtAddr(0x1000), &mut hier, &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
    }
}
