//! Virtual Memory Areas and the per-process address space (§2.3).
//!
//! A VMA is a contiguous region of process virtual address space with
//! uniform protection/purpose. DMT's whole design leans on two empirical
//! properties validated in the paper: processes have a handful of *large*
//! VMAs covering 99% of their working set, and VMAs rarely change after
//! creation. [`AddressSpace`] maintains the VMA set with the operations
//! the mapping manager hooks (`mmap_region`, `__vma_adjust`,
//! `__split_vma` analogs).

use crate::OsError;
use dmt_mem::{PageSize, VirtAddr};
use std::collections::BTreeMap;

/// What a VMA holds — the paper's "local data section" classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Program text.
    Code,
    /// Static data / BSS.
    Data,
    /// The heap (typically the dominant VMA).
    Heap,
    /// The stack.
    Stack,
    /// An anonymous or file-backed `mmap` region.
    Mmap,
    /// A shared library mapping (small, hot, rarely TLB-missed).
    Lib,
}

/// Identifier of a VMA within one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(pub u64);

/// One virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// Stable identifier.
    pub id: VmaId,
    /// First byte of the region (page-aligned).
    pub base: VirtAddr,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Purpose of the region.
    pub kind: VmaKind,
}

impl Vma {
    /// One past the last byte.
    pub fn end(&self) -> VirtAddr {
        VirtAddr(self.base.raw() + self.len)
    }

    /// Whether `va` falls inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va < self.end()
    }
}

/// A process's set of VMAs, keyed by base address.
///
/// # Examples
///
/// ```
/// use dmt_os::vma::{AddressSpace, VmaKind};
/// use dmt_mem::VirtAddr;
/// # fn main() -> Result<(), dmt_os::OsError> {
/// let mut aspace = AddressSpace::new();
/// let heap = aspace.mmap(VirtAddr(0x5000_0000), 64 << 20, VmaKind::Heap)?;
/// assert!(aspace.find(VirtAddr(0x5000_1234)).is_some());
/// aspace.grow(heap, 16 << 20)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    next_id: u64,
    /// Counts of structural changes, for the "VMAs rarely change" stats.
    change_events: u64,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Create a VMA at a fixed base.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::VmaOverlap`] if the region intersects an
    /// existing VMA, or [`OsError::BadRange`] for empty/unaligned ranges.
    pub fn mmap(&mut self, base: VirtAddr, len: u64, kind: VmaKind) -> Result<VmaId, OsError> {
        if len == 0 || !base.is_aligned(PageSize::Size4K) || !len.is_multiple_of(4096) {
            return Err(OsError::BadRange {
                base: base.raw(),
                len,
            });
        }
        let end = base.raw() + len;
        // Check the nearest VMAs on both sides.
        if let Some((_, prev)) = self.vmas.range(..=base.raw()).next_back() {
            if prev.end().raw() > base.raw() {
                return Err(OsError::VmaOverlap { base: base.raw() });
            }
        }
        if let Some((_, next)) = self.vmas.range(base.raw()..).next() {
            if next.base.raw() < end {
                return Err(OsError::VmaOverlap { base: base.raw() });
            }
        }
        let id = VmaId(self.next_id);
        self.next_id += 1;
        self.vmas.insert(
            base.raw(),
            Vma {
                id,
                base,
                len,
                kind,
            },
        );
        self.change_events += 1;
        Ok(id)
    }

    /// Remove a whole VMA.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchVma`] if the id is unknown.
    pub fn munmap(&mut self, id: VmaId) -> Result<Vma, OsError> {
        let base = self
            .vmas
            .values()
            .find(|v| v.id == id)
            .map(|v| v.base.raw())
            .ok_or(OsError::NoSuchVma { id: id.0 })?;
        self.change_events += 1;
        Ok(self.vmas.remove(&base).expect("just located"))
    }

    /// Grow a VMA upward by `delta` bytes (the `mmap`-grows-heap case,
    /// §4.2.3).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::VmaOverlap`] if growth would collide with the
    /// next VMA, [`OsError::NoSuchVma`] for unknown ids, or
    /// [`OsError::BadRange`] for unaligned deltas.
    pub fn grow(&mut self, id: VmaId, delta: u64) -> Result<Vma, OsError> {
        if delta == 0 || !delta.is_multiple_of(4096) {
            return Err(OsError::BadRange {
                base: 0,
                len: delta,
            });
        }
        let base = self
            .vmas
            .values()
            .find(|v| v.id == id)
            .map(|v| v.base.raw())
            .ok_or(OsError::NoSuchVma { id: id.0 })?;
        let new_end = {
            let v = &self.vmas[&base];
            v.end().raw() + delta
        };
        if let Some((_, next)) = self.vmas.range(base + 1..).next() {
            if next.base.raw() < new_end {
                return Err(OsError::VmaOverlap {
                    base: next.base.raw(),
                });
            }
        }
        let v = self.vmas.get_mut(&base).expect("located above");
        v.len += delta;
        self.change_events += 1;
        Ok(*v)
    }

    /// Shrink a VMA from the top by `delta` bytes (partial `munmap`).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::BadRange`] if `delta` is unaligned or not
    /// smaller than the VMA, or [`OsError::NoSuchVma`] for unknown ids.
    pub fn shrink(&mut self, id: VmaId, delta: u64) -> Result<Vma, OsError> {
        let base = self
            .vmas
            .values()
            .find(|v| v.id == id)
            .map(|v| v.base.raw())
            .ok_or(OsError::NoSuchVma { id: id.0 })?;
        let v = self.vmas.get_mut(&base).expect("located above");
        if delta == 0 || !delta.is_multiple_of(4096) || delta >= v.len {
            return Err(OsError::BadRange {
                base: v.base.raw(),
                len: delta,
            });
        }
        v.len -= delta;
        self.change_events += 1;
        Ok(*v)
    }

    /// The VMA containing `va`, if any.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }

    /// Look up by id.
    pub fn get(&self, id: VmaId) -> Option<&Vma> {
        self.vmas.values().find(|v| v.id == id)
    }

    /// All VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// Whether the address space is empty.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.vmas.values().map(|v| v.len).sum()
    }

    /// Number of structural changes since creation (create/destroy/resize)
    /// — the quantity DMT bets is small (§4.2.3).
    pub fn change_events(&self) -> u64 {
        self.change_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_and_find() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VirtAddr(0x1000), 0x4000, VmaKind::Heap).unwrap();
        assert_eq!(a.len(), 1);
        let v = a.find(VirtAddr(0x4fff)).unwrap();
        assert_eq!(v.id, id);
        assert!(a.find(VirtAddr(0x5000)).is_none());
        assert!(a.find(VirtAddr(0x0fff)).is_none());
    }

    #[test]
    fn overlap_rejected_on_both_sides() {
        let mut a = AddressSpace::new();
        a.mmap(VirtAddr(0x10_0000), 0x10_0000, VmaKind::Mmap)
            .unwrap();
        // Overlapping from below.
        assert!(matches!(
            a.mmap(VirtAddr(0x0f_0000), 0x2_0000, VmaKind::Mmap),
            Err(OsError::VmaOverlap { .. })
        ));
        // Overlapping from inside.
        assert!(matches!(
            a.mmap(VirtAddr(0x18_0000), 0x1000, VmaKind::Mmap),
            Err(OsError::VmaOverlap { .. })
        ));
        // Adjacent is fine.
        assert!(a.mmap(VirtAddr(0x20_0000), 0x1000, VmaKind::Mmap).is_ok());
    }

    #[test]
    fn unaligned_or_empty_rejected() {
        let mut a = AddressSpace::new();
        assert!(a.mmap(VirtAddr(0x123), 0x1000, VmaKind::Heap).is_err());
        assert!(a.mmap(VirtAddr(0x1000), 0x123, VmaKind::Heap).is_err());
        assert!(a.mmap(VirtAddr(0x1000), 0, VmaKind::Heap).is_err());
    }

    #[test]
    fn grow_respects_neighbors() {
        let mut a = AddressSpace::new();
        let low = a.mmap(VirtAddr(0x1000), 0x1000, VmaKind::Heap).unwrap();
        a.mmap(VirtAddr(0x4000), 0x1000, VmaKind::Mmap).unwrap();
        // Growing by one page fits the hole.
        a.grow(low, 0x1000).unwrap();
        // Growing further collides.
        assert!(matches!(
            a.grow(low, 0x2000),
            Err(OsError::VmaOverlap { .. })
        ));
        assert_eq!(a.get(low).unwrap().len, 0x2000);
    }

    #[test]
    fn shrink_keeps_base() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VirtAddr(0x1000), 0x4000, VmaKind::Heap).unwrap();
        a.shrink(id, 0x1000).unwrap();
        let v = a.get(id).unwrap();
        assert_eq!(v.base, VirtAddr(0x1000));
        assert_eq!(v.len, 0x3000);
        // Shrinking to zero is rejected.
        assert!(a.shrink(id, 0x3000).is_err());
    }

    #[test]
    fn munmap_removes() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VirtAddr(0x1000), 0x1000, VmaKind::Heap).unwrap();
        let v = a.munmap(id).unwrap();
        assert_eq!(v.id, id);
        assert!(a.is_empty());
        assert!(matches!(a.munmap(id), Err(OsError::NoSuchVma { .. })));
    }

    #[test]
    fn change_events_count_structural_ops() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VirtAddr(0x1000), 0x2000, VmaKind::Heap).unwrap();
        a.grow(id, 0x1000).unwrap();
        a.shrink(id, 0x1000).unwrap();
        a.munmap(id).unwrap();
        assert_eq!(a.change_events(), 4);
    }

    #[test]
    fn total_bytes_sums_vmas() {
        let mut a = AddressSpace::new();
        a.mmap(VirtAddr(0x1000), 0x2000, VmaKind::Heap).unwrap();
        a.mmap(VirtAddr(0x10_0000), 0x3000, VmaKind::Mmap).unwrap();
        assert_eq!(a.total_bytes(), 0x5000);
    }
}
