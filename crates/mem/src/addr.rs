//! Address and page-size primitives shared by every layer of the stack.
//!
//! The types here are deliberately thin `u64` newtypes ([`VirtAddr`],
//! [`PhysAddr`], [`Vpn`], [`Pfn`]) so that guest-virtual, guest-physical and
//! host-physical quantities can never be mixed up by accident once the
//! virtualization layers tag them (see `dmt-virt`). All radix-level index
//! math used by the x86-style walkers lives on [`VirtAddr`].

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Log2 of the base page size (4 KiB).
pub const PAGE_SHIFT: u32 = 12;
/// Base page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Number of page-table entries per 4 KiB table page (x86-64: 512).
pub const ENTRIES_PER_TABLE: u64 = 512;
/// Bytes per page-table entry on x86-64.
pub const PTE_SIZE: u64 = 8;
/// Bits of virtual address translated per radix level (x86-64: 9).
pub const LEVEL_BITS: u32 = 9;

/// Page sizes supported by the x86-64 architecture and by DMT's TEAs.
///
/// With huge pages the "last-level" PTE moves up the tree: a 2 MiB mapping
/// terminates at L2 and a 1 GiB mapping at L3 (paper §4.4, Figure 12).
///
/// # Examples
///
/// ```
/// use dmt_mem::addr::PageSize;
/// assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
/// assert_eq!(PageSize::Size2M.leaf_level(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// 4 KiB base page (leaf PTE at level 1).
    Size4K,
    /// 2 MiB huge page (leaf PTE at level 2).
    Size2M,
    /// 1 GiB huge page (leaf PTE at level 3).
    Size1G,
}

impl PageSize {
    /// All supported sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// Log2 of the page size.
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Radix level at which a leaf PTE of this size lives (L1 = 1).
    #[inline]
    pub const fn leaf_level(self) -> u8 {
        match self {
            PageSize::Size4K => 1,
            PageSize::Size2M => 2,
            PageSize::Size1G => 3,
        }
    }

    /// Number of 4 KiB base pages covered by one page of this size.
    #[inline]
    pub const fn base_pages(self) -> u64 {
        1 << (self.shift() - PAGE_SHIFT)
    }

    /// 2-bit encoding used in the `SZ` field of a DMT register (Figure 13).
    #[inline]
    pub const fn encode(self) -> u8 {
        match self {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }

    /// Decode the `SZ` field of a DMT register.
    ///
    /// Returns `None` for the reserved encoding `3`.
    #[inline]
    pub const fn decode(bits: u8) -> Option<PageSize> {
        match bits {
            0 => Some(PageSize::Size4K),
            1 => Some(PageSize::Size2M),
            2 => Some(PageSize::Size1G),
            _ => None,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4K"),
            PageSize::Size2M => write!(f, "2M"),
            PageSize::Size1G => write!(f, "1G"),
        }
    }
}

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero address.
            pub const ZERO: $name = $name(0);

            /// Raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Offset within the 4 KiB base page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Offset within a page of the given size.
            #[inline]
            pub const fn offset_in(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Round down to the containing page boundary of the given size.
            #[inline]
            pub const fn align_down(self, size: PageSize) -> $name {
                $name(self.0 & !(size.bytes() - 1))
            }

            /// Round up to the next page boundary of the given size.
            #[inline]
            pub const fn align_up(self, size: PageSize) -> $name {
                $name((self.0 + size.bytes() - 1) & !(size.bytes() - 1))
            }

            /// Whether the address is aligned to the given page size.
            #[inline]
            pub const fn is_aligned(self, size: PageSize) -> bool {
                self.0 & (size.bytes() - 1) == 0
            }

            /// Checked addition of a byte offset.
            #[inline]
            pub fn checked_add(self, rhs: u64) -> Option<$name> {
                self.0.checked_add(rhs).map($name)
            }
        }

        impl Add<u64> for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: u64) -> $name {
                $name(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            #[inline]
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(v: u64) -> $name {
                $name(v)
            }
        }

        impl From<$name> for u64 {
            #[inline]
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

addr_newtype!(
    /// A virtual address in some address space (guest or host; the owning
    /// layer decides which).
    VirtAddr
);
addr_newtype!(
    /// A physical address in some physical address space (guest-physical or
    /// host-physical; the owning layer decides which).
    PhysAddr
);

impl VirtAddr {
    /// Virtual page number (4 KiB granularity).
    #[inline]
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Virtual page number at the given page-size granularity.
    #[inline]
    pub const fn vpn_for(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// 9-bit radix index for the given page-table level.
    ///
    /// Level numbering follows the paper: L4 is the root of a 4-level tree
    /// (VA\[47:39\]), L1 holds the last-level PTEs (VA\[20:12\]). A 5-level
    /// tree adds L5 at VA\[56:48\].
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or greater than 5.
    #[inline]
    pub fn level_index(self, level: u8) -> u64 {
        assert!((1..=5).contains(&level), "radix level must be 1..=5");
        (self.0 >> (PAGE_SHIFT + LEVEL_BITS * (level as u32 - 1))) & (ENTRIES_PER_TABLE - 1)
    }

    /// Construct the canonical virtual address of a 4 KiB page number.
    #[inline]
    pub const fn from_vpn(vpn: Vpn) -> VirtAddr {
        VirtAddr(vpn.0 << PAGE_SHIFT)
    }
}

impl PhysAddr {
    /// Physical frame number (4 KiB granularity).
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// Construct the physical address of a 4 KiB frame number.
    #[inline]
    pub const fn from_pfn(pfn: Pfn) -> PhysAddr {
        PhysAddr(pfn.0 << PAGE_SHIFT)
    }
}

/// A variable-size translation unit: a contiguous virtual range mapped
/// as one entity by a translation design.
///
/// The paper's eight designs map fixed 4 KiB / 2 MiB / 1 GiB pages; a
/// [`PageSize`] fully describes such a unit. Beyond-the-paper designs
/// (VBI-style variable-size blocks, per-VMA segmentation) map reaches
/// that are neither power-of-two nor page-size-enumerable, so the cache
/// layer and outcome buffers carry an explicit `{ base, len }` instead.
/// `base` is 4 KiB-aligned and `len` is a positive multiple of 4 KiB by
/// contract (the constructors of the backends that emit units uphold
/// it); PA-contiguity over the reach is the emitting design's promise —
/// `pa(unit_base_pa, va) = unit_base_pa + (va - base)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransUnit {
    /// First virtual address covered (4 KiB aligned).
    pub base: VirtAddr,
    /// Length of the reach in bytes (positive multiple of 4 KiB).
    pub len: u64,
}

impl TransUnit {
    /// A unit covering exactly one page of the given size at `va`'s
    /// page boundary.
    #[inline]
    pub const fn of_page(va: VirtAddr, size: PageSize) -> TransUnit {
        TransUnit {
            base: va.align_down(size),
            len: size.bytes(),
        }
    }

    /// One-past-the-end virtual address of the reach.
    #[inline]
    pub const fn end(self) -> VirtAddr {
        VirtAddr(self.base.0 + self.len)
    }

    /// Whether `va` falls inside the reach.
    #[inline]
    pub const fn contains(self, va: VirtAddr) -> bool {
        va.0 >= self.base.0 && va.0 < self.base.0 + self.len
    }

    /// Whether this reach intersects `[base, base + len)`.
    #[inline]
    pub const fn overlaps_range(self, base: VirtAddr, len: u64) -> bool {
        self.base.0 < base.0 + len && base.0 < self.base.0 + self.len
    }

    /// Whether two reaches intersect.
    #[inline]
    pub const fn overlaps(self, other: TransUnit) -> bool {
        self.overlaps_range(other.base, other.len)
    }
}

addr_newtype!(
    /// A virtual page number (4 KiB granularity).
    Vpn
);
addr_newtype!(
    /// A physical frame number (4 KiB granularity).
    Pfn
);

impl Vpn {
    /// The base virtual address of this page.
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }
}

impl Pfn {
    /// The base physical address of this frame.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_basics() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 << 20);
        assert_eq!(PageSize::Size1G.bytes(), 1 << 30);
        assert_eq!(PageSize::Size4K.leaf_level(), 1);
        assert_eq!(PageSize::Size2M.leaf_level(), 2);
        assert_eq!(PageSize::Size1G.leaf_level(), 3);
        assert_eq!(PageSize::Size2M.base_pages(), 512);
        assert_eq!(PageSize::Size1G.base_pages(), 512 * 512);
    }

    #[test]
    fn page_size_register_encoding_roundtrips() {
        for s in PageSize::ALL {
            assert_eq!(PageSize::decode(s.encode()), Some(s));
        }
        assert_eq!(PageSize::decode(3), None);
    }

    #[test]
    fn level_index_matches_x86_layout() {
        // VA[47:39]=0x1ff, VA[38:30]=0x0aa, VA[29:21]=0x055, VA[20:12]=0x123
        let va = VirtAddr((0x1ffu64 << 39) | (0x0aa << 30) | (0x055 << 21) | (0x123 << 12) | 0xabc);
        assert_eq!(va.level_index(4), 0x1ff);
        assert_eq!(va.level_index(3), 0x0aa);
        assert_eq!(va.level_index(2), 0x055);
        assert_eq!(va.level_index(1), 0x123);
        assert_eq!(va.page_offset(), 0xabc);
    }

    #[test]
    fn level_index_supports_five_levels() {
        let va = VirtAddr(0x0eeu64 << 48);
        assert_eq!(va.level_index(5), 0x0ee);
    }

    #[test]
    #[should_panic(expected = "radix level")]
    fn level_index_rejects_level_zero() {
        VirtAddr(0).level_index(0);
    }

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr(0x2001234);
        assert_eq!(va.align_down(PageSize::Size4K), VirtAddr(0x2001000));
        assert_eq!(va.align_up(PageSize::Size4K), VirtAddr(0x2002000));
        assert_eq!(va.align_down(PageSize::Size2M), VirtAddr(0x2000000));
        assert!(VirtAddr(0x2000000).is_aligned(PageSize::Size2M));
        assert!(!va.is_aligned(PageSize::Size4K));
        assert_eq!(
            VirtAddr(0x2000000).align_up(PageSize::Size2M),
            VirtAddr(0x2000000)
        );
    }

    #[test]
    fn vpn_pfn_roundtrip() {
        let va = VirtAddr(0xdead_b000);
        assert_eq!(va.vpn(), Vpn(0xd_eadb));
        assert_eq!(VirtAddr::from_vpn(va.vpn()), VirtAddr(0xdead_b000));
        let pa = PhysAddr(0x1234_5000);
        assert_eq!(pa.pfn(), Pfn(0x1_2345));
        assert_eq!(PhysAddr::from_pfn(pa.pfn()), pa);
        assert_eq!(Pfn(5).base(), PhysAddr(5 * 4096));
        assert_eq!(Vpn(7).base(), VirtAddr(7 * 4096));
    }

    #[test]
    fn vpn_for_page_size() {
        let va = VirtAddr(6 * (2 << 20) + 12345);
        assert_eq!(va.vpn_for(PageSize::Size2M), 6);
        assert_eq!(va.offset_in(PageSize::Size2M), 12345);
    }

    #[test]
    fn trans_unit_geometry() {
        let u = TransUnit {
            base: VirtAddr(0x10_0000),
            len: 0x5000,
        };
        assert_eq!(u.end(), VirtAddr(0x10_5000));
        assert!(u.contains(VirtAddr(0x10_0000)));
        assert!(u.contains(VirtAddr(0x10_4fff)));
        assert!(!u.contains(VirtAddr(0x10_5000)));
        assert!(u.overlaps_range(VirtAddr(0x10_4000), 0x1000));
        assert!(!u.overlaps_range(VirtAddr(0x10_5000), 0x1000));
        assert!(!u.overlaps_range(VirtAddr(0x0f_f000), 0x1000));
        let v = TransUnit {
            base: VirtAddr(0x10_4000),
            len: 0x2000,
        };
        assert!(u.overlaps(v) && v.overlaps(u));
        let p = TransUnit::of_page(VirtAddr(0x2001234), PageSize::Size2M);
        assert_eq!(p.base, VirtAddr(0x2000000));
        assert_eq!(p.len, 2 << 20);
    }

    #[test]
    fn arithmetic_and_conversions() {
        let a = VirtAddr(100);
        assert_eq!(a + 28, VirtAddr(128));
        assert_eq!(VirtAddr(128) - a, 28);
        let mut b = PhysAddr(0);
        b += 4096;
        assert_eq!(b, PhysAddr(4096));
        assert_eq!(u64::from(b), 4096);
        assert_eq!(PhysAddr::from(4096u64), b);
        assert_eq!(VirtAddr(u64::MAX).checked_add(1), None);
        assert_eq!(format!("{:x}", PhysAddr(0xff)), "ff");
    }
}
