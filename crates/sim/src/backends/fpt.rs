//! Flattened page tables (FPT): two radix levels merged into one
//! 512²-entry table, shrinking the walk to 2 steps natively and the 2D
//! grid to ~8 virtualized. The guest tables live in a contiguous arena
//! carved at boot (the registry's `arena_frames` hook).

use super::{collect_guest_mappings, NativeBackend, NativeMachine, Translator, VirtBackend};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, Registration, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_baselines::fpt::{nested_translate as fpt_nested, FlatPageTable};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemError, Pfn, VirtAddr};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::Fpt,
    native: Some(NativeSpec {
        dmt_managed: false,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: Some(arena_frames),
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: None,
    tiers: None,
};

/// 25 flattened tables' worth of contiguous guest frames.
fn arena_frames(_setup: &Setup) -> u64 {
    25 * 512
}

fn build_native(m: &mut NativeMachine, setup: &Setup) -> Result<NativeBackend, SimError> {
    let mut t = FlatPageTable::new_host(&mut m.pm).map_err(SimError::setup)?;
    for (va, pa, size) in m.collect_mappings(&setup.pages)? {
        t.map(&mut m.pm, va, pa, size, |pm, frames| {
            pm.alloc_contig(frames, FrameKind::PageTable)
        })
        .map_err(SimError::setup)?;
    }
    Ok(NativeBackend::Fpt(NativeFpt { fpt: t }))
}

fn build_virt(
    m: &mut VirtMachine,
    setup: &Setup,
    arena: Option<Arena>,
) -> Result<VirtBackend, SimError> {
    let arena = arena.expect("registry carves an FPT arena");
    let (gfpt, hfpt) = build_fpts(m, &setup.pages, arena.base, arena.frames)?;
    Ok(VirtBackend::Fpt(VirtFpt { gfpt, hfpt }))
}

/// Build the guest FPT (tables in guest physical memory, from a
/// pre-allocated contiguous arena) and the host FPT mapping the full
/// backing.
fn build_fpts(
    m: &mut VirtMachine,
    pages: &[VirtAddr],
    arena: Pfn,
    arena_frames: u64,
) -> Result<(FlatPageTable, FlatPageTable), SimError> {
    let mappings = collect_guest_mappings(m, pages)?;
    let mut bump = arena.0;
    let mut take = move |frames: u64| {
        if bump + frames > arena.0 + arena_frames {
            return Err(MemError::NoContiguousRun { frames });
        }
        bump += frames;
        Ok(Pfn(bump - frames))
    };
    let gfpt = {
        let mut view = m.vm.guest_view(&mut m.pm);
        let mut gfpt =
            FlatPageTable::new(&mut view, &mut |_v, f| take(f)).map_err(SimError::setup)?;
        for (va, gpa, size) in &mappings {
            gfpt.map(&mut view, *va, *gpa, *size, |_v, f| take(f))
                .map_err(SimError::setup)?;
        }
        gfpt
    };
    // Host FPT over the backed guest frames.
    let mut hfpt = FlatPageTable::new_host(&mut m.pm).map_err(SimError::setup)?;
    for (gpa, hpa, size) in m.vm.backed_chunks() {
        hfpt.map(&mut m.pm, VirtAddr(gpa.raw()), hpa, size, |pm, frames| {
            pm.alloc_contig(frames, FrameKind::PageTable)
        })
        .map_err(SimError::setup)?;
    }
    Ok((gfpt, hfpt))
}

/// Two-step flattened walk over the host table.
pub struct NativeFpt {
    fpt: FlatPageTable,
}

impl Translator<NativeMachine> for NativeFpt {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.fpt
            .translate(&m.pm, hier, va)
            .expect("populated")
            .into()
    }

    fn flush_caches(&mut self) {
        self.fpt.flush_upper_cache();
    }
}

/// Flattened 2D walk: guest FPT steps each resolved through the host
/// FPT.
pub struct VirtFpt {
    gfpt: FlatPageTable,
    hfpt: FlatPageTable,
}

impl Translator<VirtMachine> for VirtFpt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let vm = &m.vm;
        fpt_nested(&mut self.gfpt, &mut self.hfpt, &m.pm, hier, va, |gpa| {
            vm.gpa_to_hpa(gpa)
        })
        .expect("populated")
        .into()
    }

    fn flush_caches(&mut self) {
        self.gfpt.flush_upper_cache();
        self.hfpt.flush_upper_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arena_too_small_for_the_table_is_a_typed_error() {
        let (mut m, setup) = super::super::populated_virt_machine();
        let base =
            m.vm.alloc_guest_contig(&mut m.pm, 1, FrameKind::PageTable)
                .unwrap();
        let err = build_fpts(&mut m, &setup.pages, base, 1).err();
        assert!(matches!(err, Some(SimError::Setup(_))), "{err:?}");
    }
}
