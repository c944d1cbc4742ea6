//! The gTEA table: pvDMT's isolation mechanism (§4.5.2, Figure 13).
//!
//! With paravirtualization, guest TEAs live directly in host physical
//! memory. To keep a malicious guest from pointing its DMT registers at
//! arbitrary host addresses (a timing side channel at minimum), the host
//! maintains a per-VM **gTEA table** listing the host-physical base and
//! size of every gTEA the VM owns. Guest registers carry only a gTEA
//! *ID*; the DMT fetcher resolves IDs through the table and faults on any
//! invalid ID or out-of-bounds offset — the mechanism the paper compares
//! to Intel EPTP switching. The table is read-only to the guest; all
//! modifications go through the `KVM_HC_ALLOC_TEA` hypercall (in
//! `dmt-virt`).

use crate::DmtError;
use dmt_mem::addr::PAGE_SHIFT;
use dmt_mem::{Pfn, PhysAddr};

/// One gTEA: a contiguous host-physical region owned by a guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GteaEntry {
    /// First host-physical frame of the gTEA.
    pub base: Pfn,
    /// Length in frames.
    pub frames: u64,
}

/// The per-VM table of gTEAs, maintained by the host.
///
/// # Examples
///
/// ```
/// use dmt_core::gtea::GteaTable;
/// use dmt_mem::Pfn;
/// let mut table = GteaTable::new();
/// let id = table.register(Pfn(0x100), 4);
/// assert!(table.resolve(id, 3 * 4096 + 8).is_ok());
/// assert!(table.resolve(id, 4 * 4096).is_err()); // out of bounds
/// ```
#[derive(Debug, Clone, Default)]
pub struct GteaTable {
    entries: Vec<Option<GteaEntry>>,
}

impl GteaTable {
    /// An empty table.
    pub fn new() -> Self {
        GteaTable::default()
    }

    /// Host-side: register a new gTEA, returning its ID.
    pub fn register(&mut self, base: Pfn, frames: u64) -> u16 {
        if let Some(slot) = self.entries.iter().position(Option::is_none) {
            self.entries[slot] = Some(GteaEntry { base, frames });
            slot as u16
        } else {
            self.entries.push(Some(GteaEntry { base, frames }));
            (self.entries.len() - 1) as u16
        }
    }

    /// Host-side: update an existing gTEA in place (expansion/migration).
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidGteaId`] for unknown IDs.
    pub fn update(&mut self, id: u16, base: Pfn, frames: u64) -> Result<(), DmtError> {
        match self.entries.get_mut(id as usize) {
            Some(slot @ Some(_)) => {
                *slot = Some(GteaEntry { base, frames });
                Ok(())
            }
            _ => Err(DmtError::InvalidGteaId { id }),
        }
    }

    /// Host-side: remove a gTEA (its ID becomes invalid).
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidGteaId`] for unknown IDs.
    pub fn remove(&mut self, id: u16) -> Result<GteaEntry, DmtError> {
        match self.entries.get_mut(id as usize) {
            Some(slot @ Some(_)) => Ok(slot.take().expect("checked Some")),
            _ => Err(DmtError::InvalidGteaId { id }),
        }
    }

    /// Look up an entry without bounds-checking an offset.
    pub fn entry(&self, id: u16) -> Option<GteaEntry> {
        self.entries.get(id as usize).copied().flatten()
    }

    /// Fetcher-side: resolve `(id, byte offset)` to a host-physical
    /// address, enforcing isolation.
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidGteaId`] for a stale or never-issued ID
    /// and [`DmtError::GteaOutOfBounds`] when the offset exceeds the
    /// gTEA — both surface as a page fault in the host (§4.5.2).
    pub fn resolve(&self, id: u16, offset: u64) -> Result<PhysAddr, DmtError> {
        let entry = self.entry(id).ok_or(DmtError::InvalidGteaId { id })?;
        if offset >= entry.frames << PAGE_SHIFT {
            return Err(DmtError::GteaOutOfBounds { id, offset });
        }
        Ok(PhysAddr::from_pfn(entry.base) + offset)
    }

    /// Number of live gTEAs.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether no gTEA is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_resolve_roundtrip() {
        let mut t = GteaTable::new();
        let id = t.register(Pfn(0x200), 10);
        assert_eq!(t.resolve(id, 0).unwrap(), PhysAddr(0x200 << 12));
        assert_eq!(
            t.resolve(id, 5 * 4096 + 16).unwrap(),
            PhysAddr((0x200 << 12) + 5 * 4096 + 16)
        );
    }

    #[test]
    fn out_of_bounds_offset_faults() {
        let mut t = GteaTable::new();
        let id = t.register(Pfn(0x200), 2);
        assert!(matches!(
            t.resolve(id, 2 * 4096),
            Err(DmtError::GteaOutOfBounds { .. })
        ));
        // The last valid byte-aligned word is fine.
        assert!(t.resolve(id, 2 * 4096 - 8).is_ok());
    }

    #[test]
    fn invalid_and_stale_ids_fault() {
        let mut t = GteaTable::new();
        assert!(matches!(
            t.resolve(0, 0),
            Err(DmtError::InvalidGteaId { id: 0 })
        ));
        let id = t.register(Pfn(1), 1);
        t.remove(id).unwrap();
        assert!(matches!(
            t.resolve(id, 0),
            Err(DmtError::InvalidGteaId { .. })
        ));
    }

    #[test]
    fn ids_are_recycled_after_removal() {
        let mut t = GteaTable::new();
        let a = t.register(Pfn(1), 1);
        let b = t.register(Pfn(2), 1);
        t.remove(a).unwrap();
        let c = t.register(Pfn(3), 1);
        assert_eq!(c, a, "freed slot is reused");
        assert_ne!(b, c);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn update_changes_base_and_size() {
        let mut t = GteaTable::new();
        let id = t.register(Pfn(1), 1);
        t.update(id, Pfn(50), 4).unwrap();
        assert_eq!(
            t.resolve(id, 3 * 4096).unwrap(),
            PhysAddr((50 << 12) + 3 * 4096)
        );
        assert!(t.update(99, Pfn(0), 1).is_err());
    }

    #[test]
    fn malicious_guest_cannot_reach_arbitrary_memory() {
        // A guest that forges IDs or offsets only ever gets faults; no
        // resolution outside registered regions is possible.
        let mut t = GteaTable::new();
        let id = t.register(Pfn(0x1000), 8);
        for forged in [id + 1, id + 100, u16::MAX] {
            assert!(t.resolve(forged, 0).is_err());
        }
        for oob in [8 * 4096, u64::MAX, 1 << 40] {
            assert!(t.resolve(id, oob).is_err());
        }
    }
}
