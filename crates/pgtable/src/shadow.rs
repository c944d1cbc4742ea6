//! Shadow page tables (§2.1.2/§2.1.3).
//!
//! A shadow page table (sPT) combines the guest page table (gVA→gPA) and
//! the host mapping (gPA→hPA) into one table mapping gVA→hPA directly, so
//! a translation costs only a *native* walk. The price is software
//! synchronization: every guest page-table update must be intercepted and
//! reflected into the sPT, causing a VM exit. This module maintains the
//! sPT and counts sync events; the VM-exit cycle cost model lives in
//! `dmt-virt`, which also uses these counters to estimate nested
//! virtualization's shadow overhead (§5: scaled by the VM-exit ratio).

use crate::pte::PteFlags;
use crate::radix::RadixPageTable;
use crate::PtError;
use dmt_mem::{MemoryOps, PageSize, PhysAddr, VirtAddr};

/// A shadow page table plus synchronization accounting.
#[derive(Debug, Clone)]
pub struct ShadowPageTable {
    spt: RadixPageTable,
    sync_events: u64,
}

impl ShadowPageTable {
    /// Create an empty shadow table in host physical memory.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure.
    pub fn new<M: MemoryOps>(pm: &mut M, levels: u8) -> Result<Self, PtError> {
        Ok(ShadowPageTable {
            spt: RadixPageTable::new(pm, levels)?,
            sync_events: 0,
        })
    }

    /// The underlying table (walked natively by the MMU).
    pub fn table(&self) -> &RadixPageTable {
        &self.spt
    }

    /// Reflect a guest mapping `gva -> hpa` into the shadow table.
    ///
    /// Each call models one intercepted guest page-table update (one VM
    /// exit); the event counter feeds the §5 shadow-overhead estimate.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn sync_mapping<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        gva: VirtAddr,
        hpa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        self.sync_events += 1;
        match self.spt.map(pm, gva, hpa, size, flags) {
            Ok(()) => Ok(()),
            Err(PtError::AlreadyMapped { .. }) => {
                // Guest remapped a page: invalidate then re-map.
                self.spt.unmap(pm, gva, size)?;
                self.spt.map(pm, gva, hpa, size, flags)
            }
            Err(e) => Err(e),
        }
    }

    /// Reflect a guest unmap into the shadow table.
    ///
    /// # Errors
    ///
    /// Propagates unmapping errors.
    pub fn sync_unmap<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        gva: VirtAddr,
        size: PageSize,
    ) -> Result<(), PtError> {
        self.sync_events += 1;
        self.spt.unmap(pm, gva, size)
    }

    /// Number of guest page-table updates intercepted so far (each one is
    /// a VM exit in the cost model).
    pub fn sync_events(&self) -> u64 {
        self.sync_events
    }

    /// Reset the sync counter (e.g. after warmup).
    pub fn reset_sync_events(&mut self) {
        self.sync_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{walk_dimension, WalkDim};
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_mem::PhysMemory;

    #[test]
    fn shadow_walk_is_native_length() {
        let mut pm = PhysMemory::new_bytes(16 << 20);
        let mut spt = ShadowPageTable::new(&mut pm, 4).unwrap();
        let gva = VirtAddr(0x7f00_0000_0000);
        spt.sync_mapping(
            &mut pm,
            gva,
            PhysAddr(0x8000),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        let mut hier = MemoryHierarchy::default();
        let out = walk_dimension(
            spt.table(),
            &mut pm,
            gva,
            WalkDim::Native,
            &mut hier,
            None,
            &mut (),
        )
        .unwrap();
        assert_eq!(out.refs, 4, "shadow paging walks like native");
        assert_eq!(out.pa, PhysAddr(0x8000));
    }

    #[test]
    fn every_sync_is_counted() {
        let mut pm = PhysMemory::new_bytes(16 << 20);
        let mut spt = ShadowPageTable::new(&mut pm, 4).unwrap();
        for i in 0..10u64 {
            spt.sync_mapping(
                &mut pm,
                VirtAddr(i << 12),
                PhysAddr((100 + i) << 12),
                PageSize::Size4K,
                PteFlags::default(),
            )
            .unwrap();
        }
        spt.sync_unmap(&mut pm, VirtAddr(0), PageSize::Size4K)
            .unwrap();
        assert_eq!(spt.sync_events(), 11);
        spt.reset_sync_events();
        assert_eq!(spt.sync_events(), 0);
    }

    #[test]
    fn remap_replaces_translation() {
        let mut pm = PhysMemory::new_bytes(16 << 20);
        let mut spt = ShadowPageTable::new(&mut pm, 4).unwrap();
        let gva = VirtAddr(0x1000);
        spt.sync_mapping(
            &mut pm,
            gva,
            PhysAddr(0x2000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        spt.sync_mapping(
            &mut pm,
            gva,
            PhysAddr(0x3000),
            PageSize::Size4K,
            PteFlags::default(),
        )
        .unwrap();
        assert_eq!(
            spt.table().translate(&pm, gva),
            Some((PhysAddr(0x3000), PageSize::Size4K))
        );
    }
}
