//! pvDMT: DMT with paravirtualized TEA placement — host-allocated,
//! host-contiguous arrays mediated by hypercalls. Native mode is
//! identical to plain DMT (the native `PvDmt` arm holds
//! [`NativeDmt`](super::dmt::NativeDmt) itself); the virtualized and
//! nested modes add the hypercall-based exit accounting. All three
//! serve misses through DMT's shared `FetchOrWalk` body.

use super::dmt::FetchOrWalk;
use super::{Arena, NestedSpec, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::nested::NestedMachine;

/// Host-contiguous guest-TEA fetch with 2D-walk fallback.
#[derive(Default)]
pub struct VirtPvDmt(FetchOrWalk);

impl VirtPvDmt {
    /// Guest TEAs placed by the host through hypercalls.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::Pv,
        arena_frames: None,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        _m: &mut VirtMachine,
        _setup: &Setup,
        _arena: Option<Arena>,
    ) -> Result<Self, SimError> {
        Ok(VirtPvDmt::default())
    }
}

impl Translator<VirtMachine> for VirtPvDmt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.0.fetch_or_walk(
            m,
            hier,
            |m, hier| m.translate_pvdmt(va, hier, &mut ()),
            |m, hier| m.translate_nested(va, hier, &mut ()).expect("populated"),
        )
    }

    fn exits(&self, m: &VirtMachine) -> u64 {
        m.hypercalls.calls
    }

    fn coverage(&self) -> f64 {
        self.0.coverage()
    }
}

/// Cascaded pvDMT through both hypervisor levels.
#[derive(Default)]
pub struct NestedPvDmt(FetchOrWalk);

impl NestedPvDmt {
    /// The workload VMAs are pre-announced to L2 (the paravirtualized
    /// TEA-creation path).
    pub const SPEC: NestedSpec = NestedSpec {
        pv_mmap: true,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(_m: &mut NestedMachine, _setup: &Setup) -> Result<Self, SimError> {
        Ok(NestedPvDmt::default())
    }
}

impl Translator<NestedMachine> for NestedPvDmt {
    fn translate(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.0.fetch_or_walk(
            m,
            hier,
            |m, hier| m.translate_pvdmt(va, hier, &mut ()),
            |m, hier| m.translate_baseline(va, hier, &mut ()).expect("populated"),
        )
    }

    fn exits(&self, m: &NestedMachine) -> u64 {
        // pvDMT exits only for the cascaded TEA hypercalls.
        m.l2_mappings_count() as u64
    }

    fn coverage(&self) -> f64 {
        self.0.coverage()
    }
}
