//! Elastic cuckoo page tables (ECPT): hashed, parallelizable lookups in
//! place of the radix walk. Virtualized, guest and host each get an
//! ECPT; guest tables come from the boot-time contiguous arena.

use super::{collect_mappings, Arena, NativeMachine, NativeSpec, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_baselines::ecpt::{Ecpt, NestedEcpt};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemError, PageSize, Pfn, VirtAddr};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::vm::HostBacking;
use dmt_virt::GuestView;

/// Sized from the touched pages: 3 ways × 16-byte entries × 3× slack,
/// in frames, plus fixed headroom.
fn arena_frames(setup: &Setup) -> u64 {
    (((setup.pages.len() as u64) * 3 * 16 * 3) >> 12) + 1024
}

/// Build guest + host ECPTs.
fn build_ecpts(
    m: &mut VirtMachine,
    pages: &[VirtAddr],
    arena: Pfn,
    arena_frames: u64,
) -> Result<NestedEcpt, SimError> {
    let view = m.vm.guest_view_ref(&m.pm);
    let mappings = collect_mappings(pages, |va| m.gpt.translate(&view, va))?;
    let guest_pages = mappings.len() as u64;
    let mut bump = arena.0;
    let mut take = move |frames: u64| {
        if bump + frames > arena.0 + arena_frames {
            return Err(MemError::NoContiguousRun { frames });
        }
        bump += frames;
        Ok(Pfn(bump - frames))
    };
    // Size per page size: all mappings are one size per mode.
    let n2m = mappings
        .iter()
        .filter(|(_, _, s)| *s == PageSize::Size2M)
        .count() as u64;
    let n4k = guest_pages - n2m;
    let guest = {
        let mut view = m.vm.guest_view(&mut m.pm);
        let mut g = Ecpt::new_sized(
            &mut view,
            &mut |_v, f| take(f),
            (n4k * 3).max(64),
            (n2m * 3).max(8),
        )
        .map_err(SimError::setup)?;
        // The initial tables must fit the boot-time arena. An elastic
        // resize that no longer fits there (each one leaks the old ways
        // into the arena) takes a fresh contiguous run at run time, the
        // way a guest kernel would: free guest memory, else hot-added
        // host frames.
        let mut grow = |v: &mut GuestView<'_, HostBacking<'_>>, f| {
            take(f).or_else(|_| v.alloc_contig(f, FrameKind::PageTable))
        };
        for (va, gpa, size) in &mappings {
            g.map_in(&mut view, &mut grow, *va, *gpa, *size)
                .map_err(SimError::setup)?;
        }
        g
    };
    // Host ECPT over the backed guest frames.
    let chunks = m.vm.backed_chunks();
    let mut host = Ecpt::new(&mut m.pm, (chunks.len() as u64) * 2).map_err(SimError::setup)?;
    for (gpa, hpa, size) in chunks {
        host.map(&mut m.pm, VirtAddr(gpa.raw()), hpa, size)
            .map_err(SimError::setup)?;
    }
    Ok(NestedEcpt { guest, host })
}

/// Hashed lookup in the host ECPT.
pub struct NativeEcpt {
    ecpt: Ecpt,
}

impl NativeEcpt {
    /// A plain (non-TEA) process.
    pub const SPEC: NativeSpec = NativeSpec { dmt_managed: false };

    pub(crate) fn build(m: &mut NativeMachine, setup: &Setup) -> Result<Self, SimError> {
        let mappings =
            collect_mappings(&setup.pages, |va| m.proc_.page_table().translate(&m.pm, va))?;
        let n2m = mappings
            .iter()
            .filter(|(_, _, s)| *s == PageSize::Size2M)
            .count() as u64;
        let n4k = mappings.len() as u64 - n2m;
        let mut t = Ecpt::new_sized(
            &mut m.pm,
            &mut |pm, frames| pm.alloc_contig(frames, FrameKind::PageTable),
            (n4k * 3).max(64),
            (n2m * 3).max(8),
        )
        .map_err(SimError::setup)?;
        for (va, pa, size) in mappings {
            t.map(&mut m.pm, va, pa, size).map_err(SimError::setup)?;
        }
        Ok(NativeEcpt { ecpt: t })
    }
}

impl Translator<NativeMachine> for NativeEcpt {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let out = self.ecpt.translate(&m.pm, hier, va).expect("populated");
        Translation {
            pa: out.pa,
            size: out.size,
            cycles: out.cycles,
            refs: out.refs,
            fallback: false,
            unit: None,
        }
    }

    fn flush_caches(&mut self) {
        self.ecpt.flush_walk_cache();
    }
}

/// Guest ECPT lookup with each candidate resolved through the host
/// ECPT.
pub struct VirtEcpt {
    necpt: NestedEcpt,
}

impl VirtEcpt {
    /// A plain guest with a boot-time arena for the guest ECPT.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: Some(arena_frames),
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        m: &mut VirtMachine,
        setup: &Setup,
        arena: Option<Arena>,
    ) -> Result<Self, SimError> {
        let arena = arena.expect("the ECPT spec carves an arena");
        let necpt = build_ecpts(m, &setup.pages, arena.base, arena.frames)?;
        Ok(VirtEcpt { necpt })
    }
}

impl Translator<VirtMachine> for VirtEcpt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let vm = &m.vm;
        let out = self
            .necpt
            .translate(&m.pm, hier, va, |gpa| vm.gpa_to_hpa(gpa))
            .expect("populated");
        Translation {
            pa: out.pa,
            size: out.size,
            cycles: out.cycles,
            refs: out.refs,
            fallback: false,
            unit: None,
        }
    }

    fn flush_caches(&mut self) {
        self.necpt.guest.flush_walk_cache();
        self.necpt.host.flush_walk_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{scaled_benchmark, Scale};
    use crate::rig::Design;
    use crate::virt_rig::VirtRig;

    #[test]
    fn xsbench_guest_table_outgrows_its_arena_and_still_builds() {
        // XSBench's 4 KiB guest table resizes past the boot-time arena;
        // the overflow comes from `GuestView::alloc_contig`. This seed's
        // trace is known to push virt-ECPT's guest table past its arena,
        // so the test keeps exercising the overflow path.
        let scale = Scale::test();
        let w = scaled_benchmark(5, scale, false).expect("XSBench");
        let trace = w.trace(scale.total(), 0xD314);
        let setup = Setup::of_workload(w.as_ref(), &trace);
        if let Err(e) = VirtRig::with_setup(Design::Ecpt, false, &setup) {
            panic!("virt-ECPT XSBench: {e}");
        }
    }

    #[test]
    fn an_arena_too_small_for_the_table_is_a_typed_error() {
        let (mut m, setup) = super::super::populated_virt_machine();
        let base =
            m.vm.alloc_guest_contig(&mut m.pm, 1, FrameKind::PageTable)
                .unwrap();
        let err = build_ecpts(&mut m, &setup.pages, base, 1).err();
        assert!(matches!(err, Some(SimError::Setup(_))), "{err:?}");
    }
}
