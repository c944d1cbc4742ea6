//! A single-level virtual machine: guest physical memory backed by host
//! frames, with a real host page table (the EPT/NPT analog) whose
//! last-level entries live in a host TEA.
//!
//! The hypervisor "typically creates one VMA to represent the guest
//! physical memory" (§4.5); [`Vm::new`] builds exactly that — one
//! hVMA-to-hTEA mapping covering the whole guest physical space, with the
//! hPT's leaf tables being the hTEA's pages. The same physical entries
//! therefore serve the hardware 2D walker (which walks the hPT) and the
//! DMT fetcher (which indexes the hTEA).

use crate::guest_mem::{Backer, GuestMemory, GuestView, GuestViewRef, Lower};
use crate::VirtError;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::pte::PteFlags;
use dmt_pgtable::RadixPageTable;

/// One guest: its physical memory, host page table, and host TEA.
#[derive(Debug)]
pub struct Vm {
    /// Host page table mapping gPA → hPA.
    hpt: RadixPageTable,
    /// The hVMA-to-hTEA mapping covering guest physical memory.
    host_mapping: VmaTeaMapping,
    /// Guest physical memory; the level below it is host memory.
    mem: GuestMemory,
}

/// The level below a [`Vm`]'s guest memory: host memory, with the hPT
/// mirroring the backing. A new page is a fresh host page mapped in the
/// hPT; the lower→host step is the identity.
#[derive(Debug)]
pub struct HostBacking<'a> {
    hpt: &'a mut RadixPageTable,
    pm: &'a mut PhysMemory,
}

impl Lower for HostBacking<'_> {
    fn pm(&self) -> &PhysMemory {
        self.pm
    }
}

impl Backer for HostBacking<'_> {
    fn pm_mut(&mut self) -> &mut PhysMemory {
        self.pm
    }
    fn back(&mut self, gpa: PhysAddr, size: PageSize) -> Result<Pfn, VirtError> {
        let hframe = match size {
            PageSize::Size4K => self.pm.alloc_frame(FrameKind::Data)?,
            _ => self.pm.buddy_mut().alloc_order(9, FrameKind::HugeData)?,
        };
        self.hpt.map(
            self.pm,
            VirtAddr(gpa.raw()),
            PhysAddr::from_pfn(hframe),
            size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        Ok(hframe)
    }
}

impl Vm {
    /// Create a guest with `guest_bytes` of physical memory, backed by
    /// host frames on first allocation and mapped in the hPT at
    /// `host_page_size` granularity (4 KiB normally, 2 MiB when the host
    /// runs THP).
    ///
    /// # Errors
    ///
    /// Propagates host allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `guest_bytes` is not a multiple of `host_page_size` or
    /// `host_page_size` is 1 GiB (not modeled for guest backing).
    pub fn new(
        pm: &mut PhysMemory,
        guest_bytes: u64,
        host_page_size: PageSize,
    ) -> Result<Self, VirtError> {
        assert!(
            guest_bytes.is_multiple_of(host_page_size.bytes()),
            "guest size must be host-page aligned"
        );
        assert!(
            host_page_size != PageSize::Size1G,
            "1 GiB guest backing not modeled"
        );
        let mut hpt = RadixPageTable::new(pm, 4)?;
        // One host TEA covering the whole guest physical space, its
        // pages installed as the hPT's leaf tables.
        let proto = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, Pfn(0));
        let htea = pm.alloc_contig(proto.tea_frames(), FrameKind::Tea)?;
        let host_mapping = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, htea);
        hpt.install_tea(
            pm,
            VirtAddr(0),
            host_page_size,
            htea,
            0..host_mapping.tea_frames(),
        )?;
        Ok(Vm {
            hpt,
            host_mapping,
            mem: GuestMemory::new(guest_bytes, host_page_size, 0x5eed_1234),
        })
    }

    /// The backed guest-physical chunks `(gPA, hPA, size)` in gPA order
    /// — what a host-side table builder must map. Guest RAM yields one
    /// chunk per backed host page. Hot-added frames yield one 4 KiB
    /// chunk each, as the hPT maps them ([`Vm::insert_host_pages`]),
    /// even under host THP and even where a run of them is 2 MiB-aligned
    /// in both spaces: consecutive hot-adds need not be host-contiguous.
    /// `tests/backing_model.rs` pins this output to a per-frame model.
    pub fn backed_chunks(&self) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
        self.mem.chunks()
    }

    /// Host pages recorded for guest RAM: one per backed host page.
    pub fn backed_host_pages(&self) -> usize {
        self.mem.backed_pages()
    }

    /// The state hash of the guest-frame allocator (what is allocated,
    /// as what kind, and what is free).
    pub fn guest_state_hash(&self) -> u64 {
        self.mem.state_hash()
    }

    /// The host page table (for hardware 2D walks).
    pub fn hpt(&self) -> &RadixPageTable {
        &self.hpt
    }

    /// The hVMA-to-hTEA mapping (for the host DMT registers).
    pub fn host_mapping(&self) -> VmaTeaMapping {
        self.host_mapping
    }

    /// Guest physical memory size in frames: RAM plus hot-added frames.
    pub fn guest_frames(&self) -> u64 {
        self.mem.frames()
    }

    /// Host page size backing the guest.
    pub fn host_page_size(&self) -> PageSize {
        self.mem.page_size()
    }

    /// Translate a guest physical address to host physical (software
    /// path, no cycles).
    pub fn gpa_to_hpa(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        self.mem.lookup(gpa)
    }

    /// Allocate a guest frame (guest-physical space). Fresh guest frames
    /// read as zero.
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub fn alloc_guest_frame(
        &mut self,
        pm: &mut PhysMemory,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        self.guest_view(pm).alloc(0, kind)
    }

    /// Allocate guest-physically contiguous frames (for non-pv gTEAs,
    /// which must be contiguous in *guest* physical memory).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator fragmentation failures.
    pub fn alloc_guest_contig(
        &mut self,
        pm: &mut PhysMemory,
        frames: u64,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        self.guest_view(pm).alloc_run(frames, kind)
    }

    /// Allocate a naturally aligned 2 MiB guest block (guest THP data).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub fn alloc_guest_huge(
        &mut self,
        pm: &mut PhysMemory,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        self.guest_view(pm).alloc(9, kind)
    }

    /// Map extra host frames into the guest physical space at fresh gPAs
    /// — the `vm_insert_pages` path pvDMT uses to expose host-allocated
    /// gTEAs to the guest (§4.6.2). Returns the base gPA.
    ///
    /// # Errors
    ///
    /// Fails if the guest has no room or the hPT mapping fails.
    pub fn insert_host_pages(
        &mut self,
        pm: &mut PhysMemory,
        host_base: Pfn,
        frames: u64,
    ) -> Result<PhysAddr, VirtError> {
        self.guest_view(pm).insert_host_pages(host_base, frames)
    }

    /// A [`dmt_mem::MemoryOps`] view of guest physical memory, for
    /// building guest page tables with the ordinary radix code.
    pub fn guest_view<'a>(&'a mut self, pm: &'a mut PhysMemory) -> GuestView<'a, HostBacking<'a>> {
        GuestView {
            mem: &mut self.mem,
            lower: HostBacking {
                hpt: &mut self.hpt,
                pm,
            },
        }
    }

    /// A read-only guest-physical view (software walks / translations).
    pub fn guest_view_ref<'a>(&'a self, pm: &'a PhysMemory) -> GuestViewRef<'a, &'a PhysMemory> {
        GuestViewRef {
            mem: &self.mem,
            lower: pm,
        }
    }
}

impl GuestView<'_, HostBacking<'_>> {
    /// Map host frames `[host_base, host_base + frames)` at 4 KiB above
    /// the guest's current top; see [`Vm::insert_host_pages`].
    ///
    /// # Errors
    ///
    /// Fails if the hPT mapping fails.
    pub(crate) fn insert_host_pages(
        &mut self,
        host_base: Pfn,
        frames: u64,
    ) -> Result<PhysAddr, VirtError> {
        let base = self.mem.frames();
        for i in 0..frames {
            self.lower.hpt.map(
                self.lower.pm,
                VirtAddr((base + i) << 12),
                PhysAddr::from_pfn(Pfn(host_base.0 + i)),
                PageSize::Size4K,
                PteFlags::WRITABLE | PteFlags::USER,
            )?;
        }
        Ok(self.mem.hot_add(host_base, frames))
    }

    /// Allocate guest-physically contiguous frames for a guest
    /// structure that outgrew the arena it was built in: a free run of
    /// the guest's own memory when one exists, else a fresh block of
    /// contiguous host frames hot-added above guest RAM (the
    /// `vm_insert_pages` path of [`Vm::insert_host_pages`]). The frames
    /// read as zero either way.
    ///
    /// # Errors
    ///
    /// [`dmt_mem::MemError::NoContiguousRun`] when neither the guest nor
    /// the host has a free run of `frames`.
    pub fn alloc_contig(&mut self, frames: u64, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        if let Ok(g) = self.alloc_run(frames, kind) {
            return Ok(g);
        }
        let host = self.lower.pm.alloc_contig(frames, kind)?;
        for i in 0..frames {
            self.lower.pm.zero_frame(Pfn(host.0 + i));
        }
        let gpa = self
            .insert_host_pages(host, frames)
            .map_err(|_| dmt_mem::MemError::NoContiguousRun { frames })?;
        Ok(gpa.pfn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::MemoryOps;

    #[test]
    fn alloc_contig_hot_adds_host_frames_when_the_guest_has_no_run() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let ram = vm.guest_frames();
        // More frames than the guest owns: only a hot-added block fits.
        let frames = ram + 16;
        let g = vm
            .guest_view(&mut pm)
            .alloc_contig(frames, FrameKind::PageTable)
            .unwrap();
        assert!(g.0 >= ram, "block must sit above guest RAM");
        let view = vm.guest_view_ref(&pm);
        for i in 0..frames {
            let gpa = PhysAddr::from_pfn(Pfn(g.0 + i));
            assert!(vm.gpa_to_hpa(gpa).is_some(), "unbacked hot-added frame");
            assert_eq!(view.read_word(gpa), 0);
        }
    }

    #[test]
    fn backing_is_lazy_but_consistent() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        // Untouched guest pages are unbacked (lazy).
        assert!(vm.gpa_to_hpa(PhysAddr(4 << 20)).is_none());
        // Allocation backs them and the hPT agrees with the map.
        let g = vm.alloc_guest_frame(&mut pm, FrameKind::Data).unwrap();
        let gpa = PhysAddr(g.0 << 12);
        let via_map = vm.gpa_to_hpa(gpa).unwrap();
        let via_pt = vm.hpt().translate(&pm, VirtAddr(gpa.raw())).unwrap().0;
        assert_eq!(via_map, via_pt);
        assert_eq!(vm.backed_chunks(), vec![(gpa, via_map, PageSize::Size4K)]);
    }

    #[test]
    fn host_tea_serves_as_hpt_leaf_tables() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let hm = vm.host_mapping();
        for i in 0..hm.tea_frames() {
            let gpa = VirtAddr(i * (2 << 20));
            assert_eq!(
                vm.hpt().table_frame(&pm, gpa, 1),
                Some(Pfn(hm.tea_base().0 + i))
            );
        }
    }

    #[test]
    fn huge_host_backing() {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut vm = Vm::new(&mut pm, 16 << 20, PageSize::Size2M).unwrap();
        // Touch something in the second 2 MiB chunk to back it.
        let g = vm.alloc_guest_huge(&mut pm, FrameKind::HugeData).unwrap();
        let probe = VirtAddr((g.0 << 12) + 0x1234);
        let (hpa, size) = vm.hpt().translate(&pm, probe).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(vm.gpa_to_hpa(PhysAddr(probe.raw())), Some(hpa));
    }

    #[test]
    fn guest_view_builds_guest_page_tables() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let gpt = {
            let mut view = vm.guest_view(&mut pm);
            let mut gpt = RadixPageTable::new(&mut view, 4).unwrap();
            gpt.map(
                &mut view,
                VirtAddr(0x7f00_0000_0000),
                PhysAddr(0x30_0000),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
            gpt
        };
        // Software translation through the view agrees.
        let view = vm.guest_view(&mut pm);
        assert_eq!(
            gpt.translate(&view, VirtAddr(0x7f00_0000_0000)),
            Some((PhysAddr(0x30_0000), PageSize::Size4K))
        );
    }

    #[test]
    fn guest_contig_is_contiguous_in_gpa_not_hpa() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let g = vm.alloc_guest_contig(&mut pm, 4, FrameKind::Tea).unwrap();
        // Contiguous in guest space by construction; host backing need
        // not be (it happens to be here because backing was allocated in
        // order — the property that matters is gPA contiguity).
        for i in 1..4u64 {
            assert!(vm.gpa_to_hpa(PhysAddr((g.0 + i) << 12)).is_some());
        }
    }

    #[test]
    fn insert_host_pages_extends_guest_space() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 4 << 20, PageSize::Size4K).unwrap();
        let host = pm.alloc_contig(4, FrameKind::Tea).unwrap();
        let gpa = vm.insert_host_pages(&mut pm, host, 4).unwrap();
        assert_eq!(gpa, PhysAddr(4 << 20), "appended above guest RAM");
        assert_eq!(
            vm.gpa_to_hpa(gpa + 4096),
            Some(PhysAddr((host.0 + 1) << 12))
        );
        // The hPT also knows the new range (hardware walks reach it).
        assert_eq!(
            vm.hpt().translate(&pm, VirtAddr(gpa.raw())).unwrap().0,
            PhysAddr(host.0 << 12)
        );
    }
}
