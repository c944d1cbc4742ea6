//! The virtualized environment: the shared [`VirtMachine`] as a
//! [`Machine`], and [`VirtRig`], the generic shell over it, which
//! delegates every design-specific decision to the [`VirtBackend`] enum
//! (monomorphic dispatch).

use crate::backends::{Arena, Machine, VirtBackend};
use crate::error::SimError;
use crate::rig::{Design, Env, MachineRig, RefEntry, Setup};
use dmt_cache::PageWalkCache;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PhysMemory, VirtAddr};
use dmt_pgtable::nested::NestedCaches;
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;

/// A virtualized machine running one workload under one design.
pub type VirtRig = MachineRig<VirtMachine>;

impl Machine for VirtMachine {
    const ENV: Env = Env::Virt;
    type Backend = VirtBackend;

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (768 << 20)
    }

    /// Back the guest, map/populate the workload, and construct the
    /// design's structures.
    fn build(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, VirtBackend), SimError> {
        let spec = VirtBackend::spec(design)?;
        // Guest physical space spans the footprint (TEAs are eager) but
        // only touched pages get backed.
        let guest_bytes = setup.footprint() + (160 << 20);
        let mut m = VirtMachine::new_with_pm(pm, guest_bytes, spec.tea_mode, thp)
            .map_err(SimError::setup)?;
        // Guest table arenas (FPT/ECPT) are carved out at "boot", before
        // data allocations fragment guest physical memory (both designs
        // need contiguity, like TEAs).
        let arena = match spec.arena_frames {
            Some(frames_of) => {
                let frames = frames_of(setup);
                Some(Arena {
                    base: m
                        .vm
                        .alloc_guest_contig(&mut m.pm, frames, FrameKind::PageTable)
                        .map_err(SimError::setup)?,
                    frames,
                })
            }
            None => None,
        };
        // TEAs are created per VMA *cluster* (§4.2.1); only touched pages
        // are populated.
        for (base, len) in crate::rig::cluster_regions(&setup.regions, thp) {
            m.guest_mmap(base, len).map_err(SimError::setup)?;
        }
        m.guest_populate_pages(setup.pages.iter().copied())
            .map_err(SimError::setup)?;
        let backend = VirtBackend::build(design, &mut m, setup, arena)?;
        Ok((m, backend))
    }

    /// The 2D reference path: the guest leaf decides size and
    /// permissions, the host mapping finishes the PA.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        self.translate_software(va).map(RefEntry::from)
    }

    fn faults(&self) -> u64 {
        VirtMachine::faults(self)
    }

    fn component_counters(&self) -> ComponentCounters {
        // Host-side PWC population depends on the design: 2D walks use
        // the guest+nested pair, shadow paging its own instance. Sum
        // whatever exists — absent caches contribute nothing.
        let pwcs = [
            self.nested_caches.guest_pwc.as_ref(),
            self.nested_caches.nested_pwc.as_ref(),
            Some(&self.shadow_pwc),
        ];
        walk_cache_counters(pwcs, &self.pm)
    }

    fn flush_walk_caches(&mut self) {
        flush_2d(&mut self.nested_caches);
        self.shadow_pwc.flush();
    }

    fn phys(&self) -> &PhysMemory {
        &self.pm
    }

    fn phys_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }
}

/// PWC and allocator counters over a virtualized machine's walk caches
/// `pwcs` (absent ones contribute nothing) and its host memory `pm` —
/// shared with the nested environment.
pub(crate) fn walk_cache_counters<'a>(
    pwcs: impl IntoIterator<Item = Option<&'a PageWalkCache>>,
    pm: &PhysMemory,
) -> ComponentCounters {
    let mut c = ComponentCounters::default();
    for s in pwcs.into_iter().flatten().map(PageWalkCache::stats) {
        c.pwc_l2_hits += s.l2_hits;
        c.pwc_l3_hits += s.l3_hits;
        c.pwc_l4_hits += s.l4_hits;
        c.pwc_misses += s.misses;
    }
    let alloc = pm.buddy().alloc_counters();
    c.alloc_splits = alloc.splits;
    c.alloc_merges = alloc.merges;
    c.compactions = alloc.compactions;
    c
}

/// Flush both PWCs of a 2D walk — shared with the nested environment.
pub(crate) fn flush_2d(caches: &mut NestedCaches) {
    for p in [&mut caches.guest_pwc, &mut caches.nested_pwc] {
        if let Some(p) = p.as_mut() {
            p.flush();
        }
    }
}
