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

use crate::VirtError;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{FastMap, MemoryOps, PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::pte::PteFlags;
use dmt_pgtable::RadixPageTable;

/// One guest: its physical-memory backing, host page table, and host TEA.
#[derive(Debug)]
pub struct Vm {
    /// Host page table mapping gPA → hPA.
    hpt: RadixPageTable,
    /// The hVMA-to-hTEA mapping covering guest physical memory.
    host_mapping: VmaTeaMapping,
    /// gframe → hframe (4 KiB granularity), for the software view.
    backing: FastMap<u64, u64>,
    /// Guest-frame allocator (guest physical address space).
    guest_buddy: dmt_mem::BuddyAllocator,
    guest_frames: u64,
    host_page_size: PageSize,
    /// LCG cursor for spread allocation.
    spread: u64,
}

impl Vm {
    /// Create a guest with `guest_bytes` of physical memory, eagerly
    /// backed by host frames and mapped in the hPT at `host_page_size`
    /// granularity (4 KiB normally, 2 MiB when the host runs THP).
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
        // One host TEA covering the whole guest physical space.
        let proto = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, Pfn(0));
        let htea = pm.alloc_contig(proto.tea_frames(), FrameKind::Tea)?;
        let host_mapping = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, htea);
        // Install the hTEA pages as the hPT's leaf tables.
        let span = 512u64 << host_page_size.shift();
        for i in 0..host_mapping.tea_frames() {
            hpt.install_table(
                pm,
                VirtAddr(i * span),
                host_page_size.leaf_level(),
                Pfn(htea.0 + i),
            )?;
        }
        // Guest pages are backed lazily on first allocation: setup cost
        // scales with the pages a workload actually touches, letting the
        // simulated guests reach the paper's multi-GiB regime (where the
        // MMU caches stop covering the footprint) at negligible cost.
        Ok(Vm {
            hpt,
            host_mapping,
            backing: FastMap::default(),
            guest_buddy: dmt_mem::BuddyAllocator::new(guest_bytes >> 12),
            guest_frames: guest_bytes >> 12,
            host_page_size,
            spread: 0x5eed_1234,
        })
    }

    /// Ensure the host-page-sized chunk containing guest frame `gframe`
    /// is backed by host memory and mapped in the hPT.
    fn ensure_backed(&mut self, pm: &mut PhysMemory, gframe: u64) -> Result<(), VirtError> {
        let chunk = self.host_page_size.base_pages();
        let head = gframe / chunk * chunk;
        if self.backing.contains_key(&head) {
            return Ok(());
        }
        let gpa = VirtAddr(head << 12);
        let hframe = match self.host_page_size {
            PageSize::Size4K => pm.alloc_frame(FrameKind::Data)?,
            _ => pm.buddy_mut().alloc_order(9, FrameKind::HugeData)?,
        };
        self.hpt.map(
            pm,
            gpa,
            PhysAddr::from_pfn(hframe),
            self.host_page_size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        for k in 0..chunk {
            self.backing.insert(head + k, hframe.0 + k);
        }
        Ok(())
    }

    /// Guest frames currently backed (sorted) — what a host-side table
    /// builder must map.
    pub fn backed_gframes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.backing.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The host page table (for hardware 2D walks).
    pub fn hpt(&self) -> &RadixPageTable {
        &self.hpt
    }

    /// The hVMA-to-hTEA mapping (for the host DMT registers).
    pub fn host_mapping(&self) -> VmaTeaMapping {
        self.host_mapping
    }

    /// Guest physical memory size in frames.
    pub fn guest_frames(&self) -> u64 {
        self.guest_frames
    }

    /// Host page size backing the guest.
    pub fn host_page_size(&self) -> PageSize {
        self.host_page_size
    }

    /// Translate a guest physical address to host physical (software
    /// path, no cycles).
    pub fn gpa_to_hpa(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        let hframe = *self.backing.get(&(gpa.raw() >> 12))?;
        Some(PhysAddr((hframe << 12) | gpa.page_offset()))
    }

    /// Allocate a guest frame (guest-physical space).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub fn alloc_guest_frame(
        &mut self,
        pm: &mut PhysMemory,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        let mut cur = self.spread;
        let g = self.guest_buddy.alloc_single_spread(kind, &mut cur)?;
        self.spread = cur;
        self.ensure_backed(pm, g.0)?;
        // Fresh guest frames read as zero.
        if let Some(h) = self.backing.get(&g.0) {
            pm.zero_frame(Pfn(*h));
        }
        Ok(g)
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
        let g = self.guest_buddy.alloc_contig(frames, kind)?;
        for i in 0..frames {
            self.ensure_backed(pm, g.0 + i)?;
            if let Some(h) = self.backing.get(&(g.0 + i)) {
                pm.zero_frame(Pfn(*h));
            }
        }
        Ok(g)
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
        let mut cur = self.spread;
        let g = self.guest_buddy.alloc_block_spread(9, kind, &mut cur)?;
        self.spread = cur;
        for i in 0..512 {
            self.ensure_backed(pm, g.0 + i)?;
            if let Some(h) = self.backing.get(&(g.0 + i)) {
                pm.zero_frame(Pfn(*h));
            }
        }
        Ok(g)
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
        // Extend the guest physical space upward (fresh gPAs above RAM).
        let base_gframe = self.guest_frames;
        self.guest_frames += frames;
        for i in 0..frames {
            let gpa = VirtAddr((base_gframe + i) << 12);
            self.hpt.map(
                pm,
                gpa,
                PhysAddr::from_pfn(Pfn(host_base.0 + i)),
                PageSize::Size4K,
                PteFlags::WRITABLE | PteFlags::USER,
            )?;
            self.backing.insert(base_gframe + i, host_base.0 + i);
        }
        Ok(PhysAddr(base_gframe << 12))
    }

    /// A [`MemoryOps`] view of guest physical memory, for building guest
    /// page tables with the ordinary radix code.
    pub fn guest_view<'a>(&'a mut self, pm: &'a mut PhysMemory) -> GuestView<'a> {
        GuestView { vm: self, pm }
    }

    /// A read-only guest-physical view (software walks / translations).
    pub fn guest_view_ref<'a>(&'a self, pm: &'a PhysMemory) -> GuestViewRef<'a> {
        GuestViewRef { vm: self, pm }
    }
}

/// Read-only guest-physical view; write and allocation operations panic.
#[derive(Debug)]
pub struct GuestViewRef<'a> {
    vm: &'a Vm,
    pm: &'a PhysMemory,
}

impl MemoryOps for GuestViewRef<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        let h = self
            .vm
            .gpa_to_hpa(addr)
            .unwrap_or_else(|| panic!("unbacked guest physical address {addr}"));
        self.pm.read_word(h)
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

/// Guest-physical view of memory: word accesses are redirected through
/// the backing map; frame allocation draws from the guest's own buddy.
#[derive(Debug)]
pub struct GuestView<'a> {
    vm: &'a mut Vm,
    pm: &'a mut PhysMemory,
}

impl GuestView<'_> {
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
        if let Ok(g) = self.vm.alloc_guest_contig(self.pm, frames, kind) {
            return Ok(g);
        }
        let host = self.pm.alloc_contig(frames, kind)?;
        for i in 0..frames {
            self.pm.zero_frame(Pfn(host.0 + i));
        }
        let gpa = self
            .vm
            .insert_host_pages(self.pm, host, frames)
            .map_err(|_| dmt_mem::MemError::NoContiguousRun { frames })?;
        Ok(gpa.pfn())
    }

    fn redirect(&self, addr: PhysAddr) -> PhysAddr {
        self.vm
            .gpa_to_hpa(addr)
            .unwrap_or_else(|| panic!("unbacked guest physical address {addr}"))
    }
}

impl MemoryOps for GuestView<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.pm.read_word(self.redirect(addr))
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let h = self.redirect(addr);
        self.pm.write_word(h, value);
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        let mut cur = self.vm.spread;
        let g = self.vm.guest_buddy.alloc_single_spread(kind, &mut cur)?;
        self.vm.spread = cur;
        self.vm
            .ensure_backed(self.pm, g.0)
            .map_err(|_| dmt_mem::MemError::OutOfMemory)?;
        if let Some(h) = self.vm.backing.get(&g.0) {
            self.pm.zero_frame(Pfn(*h));
        }
        Ok(g)
    }
    fn free_frame(&mut self, pfn: Pfn) -> dmt_mem::Result<()> {
        self.vm.guest_buddy.free_order(pfn, 0)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let s = self.redirect(PhysAddr::from_pfn(src)).pfn();
        let d = self.redirect(PhysAddr::from_pfn(dst)).pfn();
        self.pm.copy_frame(s, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(vm.backed_gframes(), vec![g.0]);
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
