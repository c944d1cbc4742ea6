//! x86-64 page-table entry layout.
//!
//! Only the architectural bits the simulation depends on are modeled:
//! present, writable, user, accessed, dirty, the page-size (PS) bit that
//! turns an L2/L3 entry into a huge-page leaf, no-execute, and the
//! physical frame number. DMT deliberately reuses these PTEs unchanged
//! (paper §3: "DMT does not create additional copies of PTEs"), so access
//! and dirty bits behave identically under every translation design.

use core::fmt;
use dmt_mem::{PageSize, Pfn, PhysAddr};

/// Flag bits of a PTE (a subset of the x86-64 layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags(pub u64);

impl PteFlags {
    /// Entry is present.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Entry is writable.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// User-mode accessible.
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Accessed by hardware.
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// Dirtied by hardware.
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// Page-size bit: this entry is a huge-page leaf (valid at L2/L3).
    pub const HUGE: PteFlags = PteFlags(1 << 7);
    /// No-execute.
    pub const NX: PteFlags = PteFlags(1 << 63);

    /// Union of two flag sets.
    #[inline]
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Whether all bits of `other` are set in `self`.
    #[inline]
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for PteFlags {
    type Output = PteFlags;
    #[inline]
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

/// Mask of the physical-address bits in a PTE (bits 12..=51).
const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;
/// Mask of all modeled flag bits.
const FLAG_MASK: u64 = !ADDR_MASK;

/// A raw 64-bit page-table entry.
///
/// # Examples
///
/// ```
/// use dmt_pgtable::pte::{Pte, PteFlags};
/// use dmt_mem::Pfn;
/// let pte = Pte::leaf(Pfn(0x1234), PteFlags::WRITABLE | PteFlags::USER);
/// assert!(pte.present());
/// assert_eq!(pte.pfn(), Pfn(0x1234));
/// assert!(pte.flags().contains(PteFlags::WRITABLE));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Pte(pub u64);

impl Pte {
    /// The all-zero (non-present) entry.
    pub const EMPTY: Pte = Pte(0);

    /// A leaf entry mapping a page frame (present is implied).
    #[inline]
    pub const fn leaf(pfn: Pfn, flags: PteFlags) -> Pte {
        Pte((pfn.0 << 12) & ADDR_MASK | flags.0 | PteFlags::PRESENT.0)
    }

    /// A non-leaf entry pointing at a next-level table page.
    #[inline]
    pub const fn table(table_pfn: Pfn) -> Pte {
        Pte((table_pfn.0 << 12) & ADDR_MASK
            | PteFlags::PRESENT.0
            | PteFlags::WRITABLE.0
            | PteFlags::USER.0)
    }

    /// A huge-page leaf (sets the PS bit).
    #[inline]
    pub const fn huge_leaf(pfn: Pfn, flags: PteFlags) -> Pte {
        Pte(Pte::leaf(pfn, flags).0 | PteFlags::HUGE.0)
    }

    /// The leaf mapping a `size` page at `pfn`: [`Pte::leaf`] for a
    /// 4 KiB page, [`Pte::huge_leaf`] for a larger one.
    #[inline]
    pub const fn page_leaf(pfn: Pfn, size: PageSize, flags: PteFlags) -> Pte {
        match size {
            PageSize::Size4K => Pte::leaf(pfn, flags),
            _ => Pte::huge_leaf(pfn, flags),
        }
    }

    /// Raw bits.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether the entry is present.
    #[inline]
    pub const fn present(self) -> bool {
        self.0 & PteFlags::PRESENT.0 != 0
    }

    /// Whether the PS (huge) bit is set.
    #[inline]
    pub const fn huge(self) -> bool {
        self.0 & PteFlags::HUGE.0 != 0
    }

    /// Whether this entry terminates the walk at the given level
    /// (L1 entries are always leaves; L2/L3 entries are leaves when PS is
    /// set).
    #[inline]
    pub const fn is_leaf_at(self, level: u8) -> bool {
        level == 1 || self.huge()
    }

    /// The frame number the entry points at (page frame or table page).
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn((self.0 & ADDR_MASK) >> 12)
    }

    /// The physical address the entry points at.
    #[inline]
    pub const fn phys_addr(self) -> PhysAddr {
        PhysAddr(self.0 & ADDR_MASK)
    }

    /// The flag bits.
    #[inline]
    pub const fn flags(self) -> PteFlags {
        PteFlags(self.0 & FLAG_MASK)
    }

    /// Copy with the accessed bit set (hardware behaviour on a walk).
    #[inline]
    pub const fn with_accessed(self) -> Pte {
        Pte(self.0 | PteFlags::ACCESSED.0)
    }

    /// Copy with the dirty bit set (hardware behaviour on a write).
    #[inline]
    pub const fn with_dirty(self) -> Pte {
        Pte(self.0 | PteFlags::DIRTY.0)
    }
}

impl fmt::Debug for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.present() {
            return write!(f, "Pte(not-present, raw={:#x})", self.0);
        }
        write!(
            f,
            "Pte(pfn={:#x}{}{}{}{})",
            self.pfn().0,
            if self.huge() { ", huge" } else { "" },
            if self.flags().contains(PteFlags::WRITABLE) {
                ", w"
            } else {
                ""
            },
            if self.flags().contains(PteFlags::ACCESSED) {
                ", a"
            } else {
                ""
            },
            if self.flags().contains(PteFlags::DIRTY) {
                ", d"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_not_present() {
        assert!(!Pte::EMPTY.present());
        assert_eq!(Pte::EMPTY.raw(), 0);
    }

    #[test]
    fn leaf_roundtrips_pfn_and_flags() {
        let pte = Pte::leaf(Pfn(0xabcde), PteFlags::WRITABLE | PteFlags::NX);
        assert!(pte.present());
        assert_eq!(pte.pfn(), Pfn(0xabcde));
        assert_eq!(pte.phys_addr(), PhysAddr(0xabcde << 12));
        assert!(pte.flags().contains(PteFlags::WRITABLE));
        assert!(pte.flags().contains(PteFlags::NX));
        assert!(!pte.flags().contains(PteFlags::DIRTY));
    }

    #[test]
    fn huge_leaf_terminates_at_l2_l3() {
        let pte = Pte::huge_leaf(Pfn(0x200), PteFlags::default());
        assert!(pte.huge());
        assert!(pte.is_leaf_at(2));
        assert!(pte.is_leaf_at(3));
        let table = Pte::table(Pfn(0x300));
        assert!(!table.is_leaf_at(2));
        assert!(table.is_leaf_at(1));
    }

    #[test]
    fn accessed_dirty_bits() {
        let pte = Pte::leaf(Pfn(1), PteFlags::default());
        let pte = pte.with_accessed();
        assert!(pte.flags().contains(PteFlags::ACCESSED));
        assert!(!pte.flags().contains(PteFlags::DIRTY));
        let pte = pte.with_dirty();
        assert!(pte.flags().contains(PteFlags::DIRTY));
        // PFN is unaffected by flag updates.
        assert_eq!(pte.pfn(), Pfn(1));
    }

    #[test]
    fn address_mask_drops_high_and_low_bits() {
        // PFNs above bit 51-12 are truncated per the architectural mask.
        let pte = Pte::table(Pfn(u64::MAX >> 12));
        assert_eq!(pte.phys_addr().0 & !0x000f_ffff_ffff_f000, 0);
    }

    #[test]
    fn debug_formats_nonempty() {
        assert!(!format!("{:?}", Pte::EMPTY).is_empty());
        assert!(format!("{:?}", Pte::leaf(Pfn(3), PteFlags::WRITABLE)).contains("pfn"));
    }
}
