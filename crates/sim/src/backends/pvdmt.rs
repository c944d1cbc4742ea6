//! pvDMT: DMT with paravirtualized TEA placement — host-allocated,
//! host-contiguous arrays mediated by hypercalls. Native mode is
//! identical to plain DMT (the factory wraps the same
//! [`NativeDmt`](super::dmt::NativeDmt) state in the `PvDmt` variant);
//! the virtualized and nested modes add the hypercall-based exit
//! accounting. All three serve misses through DMT's shared
//! `FetchOrWalk` body.

use super::dmt::FetchOrWalk;
use super::{NativeBackend, NativeMachine, NestedBackend, Translator, VirtBackend};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, NestedSpec, Registration, TierSpec, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::nested::NestedMachine;

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::PvDmt,
    // Identical to DMT on bare metal (no hypervisor to paravirtualize).
    native: Some(NativeSpec {
        dmt_managed: true,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::Pv,
        arena_frames: None,
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: Some(NestedSpec {
        pv_mmap: true,
        pinned_exit_ratio: None,
        build: build_nested,
    }),
    tiers: Some(TierSpec {
        fast_bytes: 32 << 20,
        slow_latency: 350,
    }),
};

/// Natively pvDMT *is* DMT: same state, its own enum variant.
fn build_native(_m: &mut NativeMachine, _setup: &Setup) -> Result<NativeBackend, SimError> {
    Ok(NativeBackend::PvDmt(super::dmt::NativeDmt::default()))
}

fn build_virt(
    _m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<Arena>,
) -> Result<VirtBackend, SimError> {
    Ok(VirtBackend::PvDmt(VirtPvDmt::default()))
}

fn build_nested(_m: &mut NestedMachine, _setup: &Setup) -> Result<NestedBackend, SimError> {
    Ok(NestedBackend::PvDmt(NestedPvDmt::default()))
}

/// Host-contiguous guest-TEA fetch with 2D-walk fallback.
#[derive(Default)]
pub struct VirtPvDmt(FetchOrWalk);

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
