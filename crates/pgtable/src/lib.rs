//! x86-style radix page tables and hardware walkers for the DMT
//! reproduction.
//!
//! * [`pte`] — the 64-bit entry layout (present/accessed/dirty/PS bits).
//! * [`radix`] — 4- and 5-level tables in simulated physical memory, with
//!   the [`radix::RadixPageTable::install_table`] hook DMT-Linux uses to
//!   place last-level tables inside TEAs.
//! * [`walk`] — the single-dimension hardware walker (Figure 1), charging
//!   cycles through the cache hierarchy and PWC.
//! * [`nested`] — the 24-step two-dimensional walker (Figure 2) with
//!   guest-PWC and nested-PWC acceleration.
//! * [`shadow`] — shadow page tables with sync-event accounting
//!   (§2.1.2–2.1.3).
//!
//! # Example
//!
//! ```
//! use dmt_pgtable::{radix::RadixPageTable, pte::PteFlags, walk};
//! use dmt_cache::hierarchy::MemoryHierarchy;
//! use dmt_mem::{PhysMemory, PageSize, PhysAddr, VirtAddr};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pm = PhysMemory::new_bytes(16 << 20);
//! let mut pt = RadixPageTable::new(&mut pm, 4)?;
//! pt.map(&mut pm, VirtAddr(0x1000), PhysAddr(0x2000), PageSize::Size4K, PteFlags::WRITABLE)?;
//! let mut hier = MemoryHierarchy::default();
//! let out = walk::walk_dimension(&pt, &mut pm, VirtAddr(0x1000),
//!                                walk::WalkDim::Native, &mut hier, None, &mut ())?;
//! assert_eq!(out.refs, 4); // a cold native walk fetches 4 PTEs
//! # Ok(())
//! # }
//! ```

pub mod nested;
pub mod pte;
pub mod radix;
pub mod shadow;
pub mod walk;

pub use nested::{nested_walk, NestedCaches};
pub use pte::{Pte, PteFlags};
pub use radix::RadixPageTable;
pub use shadow::ShadowPageTable;
pub use walk::{walk_dimension, StepSink, WalkDim, WalkOutcome, WalkStep};

use core::fmt;
use dmt_mem::MemError;

/// Errors produced by page-table operations and walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PtError {
    /// Address not aligned to the requested page size.
    Unaligned {
        /// The offending address.
        addr: u64,
    },
    /// A present mapping already exists at the address.
    AlreadyMapped {
        /// The virtual address.
        va: u64,
    },
    /// No present mapping exists at the address.
    NotMapped {
        /// The virtual address.
        va: u64,
    },
    /// A huge-page leaf blocks the requested table operation.
    HugeConflict {
        /// The virtual address.
        va: u64,
    },
    /// Underlying physical-memory failure.
    Mem(MemError),
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::Unaligned { addr } => write!(f, "address {addr:#x} is not size-aligned"),
            PtError::AlreadyMapped { va } => write!(f, "virtual address {va:#x} already mapped"),
            PtError::NotMapped { va } => write!(f, "virtual address {va:#x} not mapped"),
            PtError::HugeConflict { va } => {
                write!(
                    f,
                    "huge-page leaf conflicts with table operation at {va:#x}"
                )
            }
            PtError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for PtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PtError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for PtError {
    fn from(e: MemError) -> Self {
        PtError::Mem(e)
    }
}

#[cfg(test)]
mod proptests {
    use crate::pte::PteFlags;
    use crate::radix::RadixPageTable;
    use dmt_mem::{PageSize, PhysAddr, PhysMemory, VirtAddr};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any set of disjoint 4 KiB mappings translates back exactly, and
        /// unmapping removes precisely the targeted pages.
        #[test]
        fn map_translate_agree(pages in prop::collection::btree_set(0u64..4096, 1..50)) {
            let mut pm = PhysMemory::new_bytes(64 << 20);
            let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
            for &p in &pages {
                let va = VirtAddr(p << 12);
                let pa = PhysAddr((p + 10_000) << 12);
                pt.map(&mut pm, va, pa, PageSize::Size4K, PteFlags::WRITABLE).unwrap();
            }
            for &p in &pages {
                let va = VirtAddr(p << 12);
                let (pa, size) = pt.translate(&pm, va).unwrap();
                prop_assert_eq!(size, PageSize::Size4K);
                prop_assert_eq!(pa.raw() >> 12, p + 10_000);
            }
            // Unmap half; the other half must survive.
            let all: Vec<u64> = pages.iter().copied().collect();
            for &p in all.iter().step_by(2) {
                pt.unmap(&mut pm, VirtAddr(p << 12), PageSize::Size4K).unwrap();
            }
            for (i, &p) in all.iter().enumerate() {
                let got = pt.translate(&pm, VirtAddr(p << 12));
                if i % 2 == 0 {
                    prop_assert!(got.is_none());
                } else {
                    prop_assert!(got.is_some());
                }
            }
        }

        /// Walk reference counts: cold 4-level walks fetch 4 entries for
        /// 4 KiB pages, 3 for 2 MiB, 2 for 1 GiB.
        #[test]
        fn walk_length_matches_leaf_level(idx in 0u64..512) {
            use crate::walk::{walk_dimension, WalkDim};
            use dmt_cache::hierarchy::MemoryHierarchy;
            let mut pm = PhysMemory::new_bytes(64 << 20);
            let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
            let mut hier = MemoryHierarchy::default();
            let va4k = VirtAddr(idx << 12);
            let va2m = VirtAddr((1 << 39) | (idx << 21));
            let va1g = VirtAddr((2 << 39) | (idx << 30));
            pt.map(&mut pm, va4k, PhysAddr(0x100_0000), PageSize::Size4K, PteFlags::default()).unwrap();
            pt.map(&mut pm, va2m, PhysAddr(0x20_0000), PageSize::Size2M, PteFlags::default()).unwrap();
            pt.map(&mut pm, va1g, PhysAddr(0x4000_0000), PageSize::Size1G, PteFlags::default()).unwrap();
            prop_assert_eq!(walk_dimension(&pt, &mut pm, va4k, WalkDim::Native, &mut hier, None, &mut ()).unwrap().refs, 4);
            prop_assert_eq!(walk_dimension(&pt, &mut pm, va2m, WalkDim::Native, &mut hier, None, &mut ()).unwrap().refs, 3);
            prop_assert_eq!(walk_dimension(&pt, &mut pm, va1g, WalkDim::Native, &mut hier, None, &mut ()).unwrap().refs, 2);
        }
    }
}
