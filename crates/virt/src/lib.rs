//! Virtualization substrate for the DMT reproduction: guests, nested
//! paging, shadow paging, the `KVM_HC_ALLOC_TEA` hypercall, and the
//! single-level and nested machines the evaluation runs on.
//!
//! * [`guest_mem`] — `GuestMemory`, the one guest-physical address
//!   space every guest uses: the frame allocator, the lazy backing map,
//!   hot-added frames, the lookup and the two [`dmt_mem::MemoryOps`]
//!   views. Its owner supplies only how a new page gets backed
//!   ([`guest_mem::Backer`]) and the lower→host step
//!   ([`guest_mem::Lower`]).
//! * [`vm`] — one guest: its `GuestMemory` over host memory (a new page
//!   is a host page mapped in the host page table, the EPT/NPT analog)
//!   and the hTEA serving as that table's leaf tables.
//! * [`hypercall`] — `KVM_HC_ALLOC_TEA` (§4.5.1): batched gTEA requests,
//!   host-side splitting, gTEA-table registration, `vm_insert_pages`.
//! * [`machine`] — [`machine::VirtMachine`]: every single-level
//!   translation design (2D walk, shadow, DMT, pvDMT) over shared state.
//! * [`nested`] — [`nested::NestedMachine`]: the L0/L1/L2 stack with the
//!   shadow-paging baseline and nested pvDMT (§3.2, §4.5.3). L2 memory
//!   is a `GuestMemory` over L1's: a new L2 page is an L1 allocation,
//!   its L1 TEA PTE and an sPT sync.
//!
//! # Example
//!
//! ```
//! use dmt_virt::machine::{GuestTeaMode, VirtMachine};
//! use dmt_cache::hierarchy::MemoryHierarchy;
//! use dmt_mem::VirtAddr;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = VirtMachine::new(128 << 20, 16 << 20, GuestTeaMode::Pv, false)?;
//! let base = VirtAddr(0x7f00_0000_0000);
//! m.guest_mmap(base, 2 << 20)?;
//! m.guest_populate_range(base, 2 << 20)?;
//! let mut hier = MemoryHierarchy::default();
//! let pv = m.translate_pvdmt(base, &mut hier, &mut ())?;
//! assert_eq!(pv.refs, 2); // pvDMT: two references in a VM
//! # Ok(())
//! # }
//! ```

pub mod guest_mem;
pub mod hypercall;
pub mod machine;
pub mod nested;
pub mod vm;

pub use guest_mem::{GuestView, GuestViewRef};
pub use hypercall::{kvm_hc_alloc_tea, HypercallStats, TeaGrant, TeaRequest};
pub use machine::{GuestTeaMode, VirtMachine};
pub use nested::NestedMachine;
pub use vm::Vm;

use core::fmt;
use dmt_core::DmtError;
use dmt_mem::{MemError, PageSize, VirtAddr};
use dmt_pgtable::PtError;

/// The page size a guest maps and is backed at: 2 MiB under THP.
fn page_size(thp: bool) -> PageSize {
    if thp {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    }
}

/// The page sizes a guest keeps a TEA for: 4 KiB, plus 2 MiB under THP.
/// The 4 KiB TEA covers edges and fallback (Figure 12) and comes first,
/// so the 2 MiB TEA dominates probes.
fn tea_sizes(thp: bool) -> &'static [PageSize] {
    if thp {
        &[PageSize::Size4K, PageSize::Size2M]
    } else {
        &[PageSize::Size4K]
    }
}

/// The pages of `[base, base + len)` a guest maps, one address per
/// page, stepping by the page size the guest maps (2 MiB with THP) from
/// `base` and then page-aligned, so an unaligned region's tail is
/// covered too.
fn range_pages(base: VirtAddr, len: u64, thp: bool) -> impl Iterator<Item = VirtAddr> {
    let step = page_size(thp);
    let end = base.raw() + len;
    core::iter::successors(Some(base), move |va| {
        Some(VirtAddr(va.align_down(step).raw() + step.bytes()))
    })
    .take_while(move |va| va.raw() < end)
}

/// Errors from the virtualization layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VirtError {
    /// A guest physical address has no host backing.
    Unbacked {
        /// The guest physical address.
        gpa: u64,
    },
    /// Underlying memory failure.
    Mem(MemError),
    /// Underlying page-table failure.
    Pt(PtError),
    /// DMT fetch failure (isolation faults surface here).
    Dmt(DmtError),
}

impl fmt::Display for VirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtError::Unbacked { gpa } => {
                write!(f, "guest physical address {gpa:#x} has no host backing")
            }
            VirtError::Mem(e) => write!(f, "memory error: {e}"),
            VirtError::Pt(e) => write!(f, "page-table error: {e}"),
            VirtError::Dmt(e) => write!(f, "DMT error: {e}"),
        }
    }
}

impl std::error::Error for VirtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VirtError::Mem(e) => Some(e),
            VirtError::Pt(e) => Some(e),
            VirtError::Dmt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for VirtError {
    fn from(e: MemError) -> Self {
        VirtError::Mem(e)
    }
}

impl From<PtError> for VirtError {
    fn from(e: PtError) -> Self {
        VirtError::Pt(e)
    }
}

impl From<DmtError> for VirtError {
    fn from(e: DmtError) -> Self {
        VirtError::Dmt(e)
    }
}
