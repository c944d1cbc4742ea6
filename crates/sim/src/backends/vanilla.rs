//! Vanilla radix translation: the Linux / KVM nested-paging baseline in
//! all three environments (Figure 1's 4-step walk natively, Figure 2's
//! 24-step 2D walk virtualized, the 2D-cascade baseline nested).
//!
//! Each backend is one walker call with a `()` step sink, so a miss
//! allocates nothing, and the walk's own PA is the data PA the default
//! engine charges (DESIGN.md §13).

use super::{NativeBackend, NativeMachine, NestedBackend, Translator, VirtBackend};
use crate::registry::{NativeSpec, NestedSpec, Registration, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_pgtable::walk::{walk_dimension, WalkDim};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::nested::NestedMachine;

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::Vanilla,
    native: Some(NativeSpec {
        dmt_managed: false,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: None,
        // Exit-free nested paging: the virt normalization baseline.
        pinned_exit_ratio: Some(0.0),
        build: build_virt,
    }),
    nested: Some(NestedSpec {
        pv_mmap: false,
        // Full shadow synchronization cost: the nested baseline.
        pinned_exit_ratio: Some(1.0),
        build: build_nested,
    }),
    tiers: None,
};

fn build_native(
    _m: &mut NativeMachine,
    _setup: &Setup,
) -> Result<NativeBackend, crate::error::SimError> {
    Ok(NativeBackend::Vanilla(NativeVanilla))
}

fn build_virt(
    _m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<crate::registry::Arena>,
) -> Result<VirtBackend, crate::error::SimError> {
    Ok(VirtBackend::Vanilla(VirtVanilla))
}

fn build_nested(
    _m: &mut NestedMachine,
    _setup: &Setup,
) -> Result<NestedBackend, crate::error::SimError> {
    Ok(NestedBackend::Vanilla(NestedVanilla))
}

/// The hardware radix walk through the machine's PWC.
pub struct NativeVanilla;

impl Translator<NativeMachine> for NativeVanilla {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        walk_dimension(
            m.proc_.page_table(),
            &mut m.pm,
            va,
            WalkDim::Native,
            hier,
            Some(&mut m.pwc),
            &mut (),
        )
        .expect("populated")
        .into()
    }
}

/// The full 2D nested walk.
#[derive(Default)]
pub struct VirtVanilla;

impl Translator<VirtMachine> for VirtVanilla {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        m.translate_nested(va, hier, &mut ())
            .expect("populated")
            .into()
    }
}

/// The cascaded L2PT × sPT baseline walk.
pub struct NestedVanilla;

impl Translator<NestedMachine> for NestedVanilla {
    fn translate(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        m.translate_baseline(va, hier, &mut ())
            .expect("populated")
            .into()
    }

    fn exits(&self, m: &NestedMachine) -> u64 {
        // The baseline pays a shadow sync per L2 fault (plus the
        // cascaded L1 forwarding, which §5 captures via the exit
        // *ratio* between nested and single-level virtualization).
        m.faults()
    }
}
