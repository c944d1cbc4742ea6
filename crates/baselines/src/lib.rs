//! The four comparison translation designs the paper evaluates against
//! DMT (§6.2): Elastic Cuckoo Page Tables ([`ecpt`]), Flattened Page
//! Tables ([`fpt`]), Agile Paging ([`agile`]) and the ASAP PTE
//! prefetcher ([`asap`]). Each is implemented over the same physical
//! memory, cache hierarchy and page-size model as DMT itself, so
//! Figure 14/15's comparisons are apples-to-apples.

pub mod agile;
pub mod asap;
pub mod ecpt;
pub mod fpt;

pub use agile::{agile_sync_events, agile_walk, guest_entry_chain, GuestChain};
pub use asap::{AsapPrefetcher, AsapStats, LeafTiming};
pub use ecpt::{Ecpt, EcptOutcome, NestedEcpt};
pub use fpt::FlatPageTable;

use core::fmt;
use dmt_mem::MemError;
use dmt_pgtable::PtError;

/// Errors from the baseline designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BaselineError {
    /// No translation found.
    NotMapped {
        /// The address.
        va: u64,
    },
    /// A cuckoo table could not place an entry even after resizing.
    EcptFull,
    /// Underlying memory failure.
    Mem(MemError),
    /// Underlying page-table failure.
    Pt(PtError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::NotMapped { va } => write!(f, "address {va:#x} not mapped"),
            BaselineError::EcptFull => write!(f, "cuckoo table insertion failed after resize"),
            BaselineError::Mem(e) => write!(f, "memory error: {e}"),
            BaselineError::Pt(e) => write!(f, "page-table error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Mem(e) => Some(e),
            BaselineError::Pt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for BaselineError {
    fn from(e: MemError) -> Self {
        BaselineError::Mem(e)
    }
}

impl From<PtError> for BaselineError {
    fn from(e: PtError) -> Self {
        BaselineError::Pt(e)
    }
}

#[cfg(test)]
mod proptests {
    use crate::ecpt::Ecpt;
    use crate::fpt::FlatPageTable;
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_mem::buddy::FrameKind;
    use dmt_mem::{PageSize, PhysAddr, PhysMemory, VirtAddr};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// ECPT: any set of disjoint 4 KiB mappings — including ones that
        /// force kicks and elastic resizes — translates back exactly.
        #[test]
        fn ecpt_roundtrip(pages in prop::collection::btree_set(0u64..100_000, 1..400)) {
            let mut pm = PhysMemory::new_bytes(256 << 20);
            let mut ecpt = Ecpt::new(&mut pm, 64).unwrap(); // tiny: resizes
            let mut hier = MemoryHierarchy::default();
            for &p in &pages {
                ecpt.map(
                    &mut pm,
                    VirtAddr(p << 12),
                    PhysAddr((p + 1_000_000) << 12),
                    PageSize::Size4K,
                ).unwrap();
            }
            for &p in &pages {
                let out = ecpt
                    .translate(&pm, &mut hier, VirtAddr((p << 12) + 0x21))
                    .unwrap();
                prop_assert_eq!(out.pa, PhysAddr(((p + 1_000_000) << 12) + 0x21));
                prop_assert_eq!(out.refs, 1);
            }
        }

        /// FPT: mixed 4 KiB / 2 MiB mappings in separate 1 GiB regions
        /// translate back exactly in ≤ 3 fetches.
        #[test]
        fn fpt_roundtrip(
            small in prop::collection::btree_set(0u64..10_000, 1..100),
            huge in prop::collection::btree_set(0u64..64, 0..16),
        ) {
            let mut pm = PhysMemory::new_bytes(256 << 20);
            let mut fpt = FlatPageTable::new_host(&mut pm).unwrap();
            let mut hier = MemoryHierarchy::default();
            let alloc = |pm: &mut PhysMemory, f: u64| pm.alloc_contig(f, FrameKind::PageTable);
            // 4 KiB pages in region 0, 2 MiB pages in region 1.
            for &p in &small {
                fpt.map(&mut pm, VirtAddr(p << 12), PhysAddr((p + 50_000) << 12),
                        PageSize::Size4K, alloc).unwrap();
            }
            for &h in &huge {
                fpt.map(&mut pm, VirtAddr((1 << 30) + (h << 21)),
                        PhysAddr((h + 100) << 21), PageSize::Size2M, alloc).unwrap();
            }
            for &p in &small {
                let out = fpt.translate(&pm, &mut hier, VirtAddr((p << 12) + 5)).unwrap();
                prop_assert_eq!(out.pa, PhysAddr(((p + 50_000) << 12) + 5));
                prop_assert!(out.refs <= 2);
            }
            for &h in &huge {
                let va = VirtAddr((1 << 30) + (h << 21) + 0x1234);
                let out = fpt.translate(&pm, &mut hier, va).unwrap();
                prop_assert_eq!(out.pa, PhysAddr(((h + 100) << 21) + 0x1234));
                prop_assert_eq!(out.size, PageSize::Size2M);
                prop_assert!(out.refs <= 3);
            }
        }
    }
}
