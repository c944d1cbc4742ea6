//! Virtualization substrate for the DMT reproduction: guests, nested
//! paging, shadow paging, the `KVM_HC_ALLOC_TEA` hypercall, and the
//! single-level and nested machines the evaluation runs on.
//!
//! * [`vm`] — one guest's physical-memory backing, host page table
//!   (EPT/NPT analog) with its hTEA, and a [`dmt_mem::MemoryOps`] view of
//!   guest physical memory.
//! * [`hypercall`] — `KVM_HC_ALLOC_TEA` (§4.5.1): batched gTEA requests,
//!   host-side splitting, gTEA-table registration, `vm_insert_pages`.
//! * [`machine`] — [`machine::VirtMachine`]: every single-level
//!   translation design (2D walk, shadow, DMT, pvDMT) over shared state.
//! * [`nested`] — [`nested::NestedMachine`]: the L0/L1/L2 stack with the
//!   shadow-paging baseline and nested pvDMT (§3.2, §4.5.3).
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

pub mod hypercall;
pub mod machine;
pub mod nested;
pub mod vm;

pub use hypercall::{kvm_hc_alloc_tea, HypercallStats, TeaGrant, TeaRequest};
pub use machine::{GuestTeaMode, VirtMachine};
pub use nested::NestedMachine;
pub use vm::{GuestView, GuestViewRef, Vm};

use core::fmt;
use dmt_core::DmtError;
use dmt_mem::MemError;
use dmt_pgtable::PtError;

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
