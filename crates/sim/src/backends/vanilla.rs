//! Vanilla radix translation: the Linux / KVM nested-paging baseline in
//! all three environments (Figure 1's 4-step walk natively, Figure 2's
//! 24-step 2D walk virtualized, the 2D-cascade baseline nested).
//!
//! The native and virtualized backends override `translate_fast`, the
//! default engine's per-miss call, and return the walk's own PA as the
//! data PA instead of re-deriving it through the software walk. The
//! native one also walks with the memoized lean walker
//! ([`walk_dimension_cached`]): PTE *words* are cached per slot so
//! repeat walks skip the `PhysMemory` reads, while every PWC operation
//! and `hier.access` charge is still issued — the observable op
//! sequence is bit-identical to the scalar path (DESIGN.md §13).

use super::{
    NativeBackend, NativeMachine, NativeTranslator, NestedBackend, NestedTranslator, VirtBackend,
    VirtTranslator,
};
use crate::registry::{NativeSpec, NestedSpec, Registration, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_pgtable::walk::{walk_dimension, walk_dimension_cached, PteMemo, WalkDim};
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
    Ok(NativeBackend::Vanilla(NativeVanilla::default()))
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
#[derive(Default)]
pub struct NativeVanilla {
    memo: PteMemo,
}

impl NativeTranslator for NativeVanilla {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let out = walk_dimension(
            m.proc_.page_table(),
            &mut m.pm,
            va,
            WalkDim::Native,
            hier,
            Some(&mut m.pwc),
        )
        .expect("populated");
        Translation {
            pa: out.pa,
            size: out.size,
            cycles: out.cycles,
            refs: out.refs(),
            fallback: false,
            unit: None,
        }
    }

    fn translate_fast(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let w = walk_dimension_cached(
            m.proc_.page_table(),
            &mut m.pm,
            va,
            hier,
            Some(&mut m.pwc),
            &mut self.memo,
        )
        .expect("populated");
        let tr = Translation {
            pa: w.pa,
            size: w.size,
            cycles: w.cycles,
            refs: w.refs,
            fallback: false,
            unit: None,
        };
        (tr, tr.pa)
    }
}

/// The full 2D nested walk.
#[derive(Default)]
pub struct VirtVanilla;

impl VirtTranslator for VirtVanilla {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let out = m.translate_nested(va, hier).expect("populated");
        Translation {
            pa: out.pa,
            size: out.guest_size,
            cycles: out.cycles,
            refs: out.refs(),
            fallback: false,
            unit: None,
        }
    }

    fn translate_fast(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let tr = self.translate(m, va, hier);
        (tr, tr.pa)
    }
}

/// The cascaded L2PT × sPT baseline walk.
pub struct NestedVanilla;

impl NestedTranslator for NestedVanilla {
    fn translate(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let out = m.translate_baseline(va, hier).expect("populated");
        Translation {
            pa: out.pa,
            size: out.guest_size,
            cycles: out.cycles,
            refs: out.refs(),
            fallback: false,
            unit: None,
        }
    }

    fn exits(&self, m: &NestedMachine) -> u64 {
        // The baseline pays a shadow sync per L2 fault (plus the
        // cascaded L1 forwarding, which §5 captures via the exit
        // *ratio* between nested and single-level virtualization).
        m.faults()
    }
}
