//! Differential translation oracle and invariant audit layer.
//!
//! Every rig in the evaluation harness owns a software ground truth —
//! the radix page table its OS maintains (plus the backing maps in the
//! virtualized environments). This crate replays each access through
//! that reference walk *and* the design under test, asserting that the
//! two agree on the physical address, the installed reach, the
//! permission template and the absence of faults; and it audits the
//! structural invariants the designs rely on: buddy-allocator
//! consistency, VMA-tree ordering, TEA physical contiguity, gTEA/vTMAP
//! agreement (§4.5.1), and TLB/PWC coherence after shootdowns.
//!
//! * [`checked`] — [`Checked`], the oracle wrapper any [`Rig`] plugs
//!   into (zero simulation-cost: checked runs produce bit-identical
//!   `RunStats`), and [`BitFlip`], the mutation rig the conformance
//!   suite uses to prove the oracle bites.
//! * [`divergence`] — structured [`Divergence`] records naming the
//!   exact access that diverged.
//! * [`audit`] — per-environment structural audits over live machines.
//! * [`coherence`] — TLB/PWC shootdown-coherence audits and the
//!   [`ShootdownHarness`] scenario driver.
//!
//! # Opting in
//!
//! The oracle is off by default. Tests wrap rigs explicitly; sweeps,
//! sharded replays, cloud nodes and experiment runners opt in through
//! the runner they are given:
//!
//! ```no_run
//! let runner = dmt_sim::Runner::builder()
//!     .rig_wrapper(dmt_oracle::wrapper())
//!     .build();
//! ```
//!
//! after which every rig that runner builds is wrapped in a panicking
//! [`Checked`] — any divergence aborts the run naming the access.

pub mod audit;
pub mod checked;
pub mod coherence;
pub mod divergence;

pub use audit::{audit_native, audit_nested, audit_virt};
pub use checked::{BitFlip, Checked};
pub use coherence::{audit_pwc, audit_tlb, ShootdownHarness};
pub use divergence::{Divergence, DivergenceKind};

use dmt_sim::Rig;

/// A panicking [`Checked`] around whatever rig the runner built.
fn checked_boxed(rig: Box<dyn Rig>) -> Box<dyn Rig> {
    Box::new(Checked::new(rig))
}

/// The oracle as a rig wrapper, for
/// `Runner::builder().rig_wrapper(dmt_oracle::wrapper())`.
pub fn wrapper() -> dmt_sim::experiments::RigWrapper {
    checked_boxed
}
