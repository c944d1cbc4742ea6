//! Direct Memory Translation (DMT) — the hardware side of the paper's
//! contribution.
//!
//! DMT replaces sequential radix page-table walks with a *direct* fetch of
//! the last-level PTE: the OS stores each VMA's last-level PTEs in order
//! inside a contiguous Translation Entry Area (TEA), and 16 per-thread
//! registers hold the VMA-to-TEA mappings. Translation is then pure
//! arithmetic plus one memory reference per virtualization level — 1
//! native, 2 virtualized (pvDMT), 3 nested-virtualized.
//!
//! * [`vtmap`] — the VMA-to-TEA mapping value and its slot arithmetic
//!   (Figure 7), including the table-span alignment contract that lets TEA
//!   pages double as x86 table pages.
//! * [`register`] — the packed 192-bit register layout (Figure 13).
//! * [`regfile`] — the 16-register file and its comparators.
//! * [`gtea`] — the gTEA table, pvDMT's isolation mechanism (§4.5.2).
//! * [`fetcher`] — the fetch paths: native, pvDMT, plain virtualized DMT,
//!   and nested pvDMT (Figures 7–9).
//!
//! # Example
//!
//! ```
//! use dmt_core::{regfile::DmtRegisterFile, vtmap::VmaTeaMapping, fetcher};
//! use dmt_cache::hierarchy::MemoryHierarchy;
//! use dmt_mem::{buddy::FrameKind, PageSize, Pfn, PhysMemory, VirtAddr};
//! use dmt_pgtable::pte::{Pte, PteFlags};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pm = PhysMemory::new_bytes(16 << 20);
//! // One VMA, one TEA, one present PTE.
//! let proto = VmaTeaMapping::new(VirtAddr(0x20_0000), 4096, PageSize::Size4K, Pfn(0));
//! let tea = pm.alloc_contig(proto.tea_frames(), FrameKind::Tea)?;
//! let m = VmaTeaMapping::new(VirtAddr(0x20_0000), 4096, PageSize::Size4K, tea);
//! pm.write_word(m.pte_addr(VirtAddr(0x20_0000)).unwrap(),
//!               Pte::leaf(Pfn(42), PteFlags::WRITABLE).raw());
//! let mut regs = DmtRegisterFile::new();
//! regs.load(&[m]);
//! let mut hier = MemoryHierarchy::default();
//! let out = fetcher::fetch_native(&regs, &mut pm, &mut hier, VirtAddr(0x20_0007), &mut ())?;
//! assert_eq!(out.refs, 1); // one memory reference, as promised
//! # Ok(())
//! # }
//! ```

pub mod fetcher;
pub mod gtea;
pub mod regfile;
pub mod register;
pub mod vtmap;

pub use fetcher::{FetchStage, FetchStep};
pub use gtea::{GteaEntry, GteaTable};
pub use regfile::{DmtRegisterFile, DMT_REGISTER_COUNT};
pub use register::DmtRegister;
pub use vtmap::VmaTeaMapping;

use core::fmt;

/// Errors surfaced by the DMT fetcher and gTEA table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DmtError {
    /// No DMT register covers the address — fall back to the x86 walker.
    NotCovered {
        /// The uncovered (virtual or intermediate physical) address.
        addr: u64,
    },
    /// The TEA slot exists but holds a non-present PTE (page fault).
    PteNotPresent {
        /// The faulting address.
        addr: u64,
    },
    /// A guest presented a gTEA ID the host never issued (isolation
    /// fault, §4.5.2).
    InvalidGteaId {
        /// The offending ID.
        id: u16,
    },
    /// A guest requested an offset beyond its gTEA (isolation fault).
    GteaOutOfBounds {
        /// The gTEA ID.
        id: u16,
        /// The out-of-range byte offset.
        offset: u64,
    },
}

impl fmt::Display for DmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmtError::NotCovered { addr } => {
                write!(f, "no DMT register covers address {addr:#x}")
            }
            DmtError::PteNotPresent { addr } => {
                write!(f, "TEA slot for {addr:#x} holds a non-present PTE")
            }
            DmtError::InvalidGteaId { id } => write!(f, "invalid gTEA id {id}"),
            DmtError::GteaOutOfBounds { id, offset } => {
                write!(f, "offset {offset:#x} out of bounds for gTEA {id}")
            }
        }
    }
}

impl std::error::Error for DmtError {}

#[cfg(test)]
mod proptests {
    use crate::vtmap::VmaTeaMapping;
    use dmt_mem::{PageSize, Pfn, VirtAddr};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slot arithmetic is injective and in-bounds over the covered
        /// region for every page size.
        #[test]
        fn pte_slots_are_linear_and_bounded(
            base_mb in 0u64..1024,
            len_kb in 1u64..(64 * 1024),
            size_idx in 0usize..3,
            probe in 0u64..10_000,
        ) {
            let size = PageSize::ALL[size_idx];
            let base = VirtAddr(base_mb << 20);
            let m = VmaTeaMapping::new(base, len_kb << 10, size, Pfn(1000));
            let tea_bytes = m.tea_frames() * 4096;
            let pages = m.covered_bytes() >> size.shift();
            let p = probe % pages;
            let va = VirtAddr(m.base().raw() + (p << size.shift()));
            let slot = m.pte_addr(va).unwrap();
            let off = slot.raw() - (1000u64 << 12);
            prop_assert!(off < tea_bytes, "slot beyond TEA");
            prop_assert_eq!(off, p * 8);
            prop_assert_eq!(m.pte_offset(va), Some(p * 8));
        }

        /// Register pack/unpack is the identity on valid mappings.
        #[test]
        fn register_roundtrip(
            base_mb in 0u64..100_000,
            len_kb in 1u64..(1 << 20),
            size_idx in 0usize..3,
            tea in 0u64..(1u64 << 40),
            gtea in prop::option::of(0u16..u16::MAX),
        ) {
            use crate::register::DmtRegister;
            let size = PageSize::ALL[size_idx];
            let mut m = VmaTeaMapping::new(VirtAddr(base_mb << 20), len_kb << 10, size, Pfn(tea));
            if let Some(id) = gtea {
                m = m.with_gtea_id(id);
            }
            prop_assert_eq!(DmtRegister::pack(&m).unpack(), Some(m));
        }

        /// Splitting conserves coverage: the two halves partition the
        /// original region.
        #[test]
        fn split_partitions_coverage(len_mb in 4u64..256, probe in 0u64..(1 << 16)) {
            let m = VmaTeaMapping::new(VirtAddr(1 << 30), len_mb << 20, PageSize::Size4K, Pfn(0));
            if let Some((lo, hi)) = m.split(Pfn(1 << 20)) {
                prop_assert_eq!(lo.covered_bytes() + hi.covered_bytes(), m.covered_bytes());
                let pages = m.covered_bytes() >> 12;
                let p = probe % pages;
                let va = VirtAddr(m.base().raw() + (p << 12));
                let in_lo = lo.covers(va);
                let in_hi = hi.covers(va);
                prop_assert!(in_lo ^ in_hi, "exactly one half covers each page");
            }
        }
    }
}
