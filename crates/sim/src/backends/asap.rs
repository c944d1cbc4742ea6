//! ASAP (Margaritov et al., MICRO'19): offset-based PTE prefetching
//! over the unchanged radix walk, with the timeliness-limited overlap
//! applied to the leaf fetch.

use super::{NativeBackend, NativeMachine, NativeTranslator, VirtBackend, VirtTranslator};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, Registration, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_baselines::asap::{asap_adjusted_cycles, AsapPrefetcher, AsapStats};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PageSize, VirtAddr};
use dmt_pgtable::walk::{walk_dimension, WalkDim, MAX_WALK_DEPTH};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::Asap,
    // ASAP's per-VMA contiguous PTE arrays are the same layout contract
    // TEAs satisfy, so the DMT-managed process provides them.
    native: Some(NativeSpec {
        dmt_managed: true,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::Unpv,
        arena_frames: None,
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: None,
    tiers: None,
};

fn build_native(m: &mut NativeMachine, _setup: &Setup) -> Result<NativeBackend, SimError> {
    let l1: Vec<_> = m
        .proc_
        .mappings()
        .iter()
        .filter(|v| v.mapping.page_size() == PageSize::Size4K)
        .map(|v| v.mapping)
        .collect();
    let l2: Vec<_> = m
        .proc_
        .mappings()
        .iter()
        .filter(|v| v.mapping.page_size() == PageSize::Size2M)
        .map(|v| v.mapping)
        .collect();
    Ok(NativeBackend::Asap(NativeAsap {
        asap: AsapPrefetcher::new(l1, l2),
        stats: AsapStats::default(),
    }))
}

fn build_virt(
    m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<Arena>,
) -> Result<VirtBackend, SimError> {
    let l1: Vec<_> = m
        .guest_mappings()
        .iter()
        .filter(|g| g.page_size() == PageSize::Size4K)
        .copied()
        .collect();
    let l2: Vec<_> = m
        .guest_mappings()
        .iter()
        .filter(|g| g.page_size() == PageSize::Size2M)
        .copied()
        .collect();
    Ok(VirtBackend::Asap(VirtAsap {
        asap: AsapPrefetcher::new(l1, l2),
        stats: AsapStats::default(),
    }))
}

/// Radix walk with perfectly timely prefetches into L2.
pub struct NativeAsap {
    asap: AsapPrefetcher,
    stats: AsapStats,
}

impl NativeTranslator for NativeAsap {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        // The prefetch is issued at TLB-miss time and overlaps the
        // walk: the leaf fetch cannot complete before the prefetched
        // line lands (DRAM round trip), so its cost becomes
        // min(measured, max(L2, DRAM - prior-steps)). The predicted
        // slots are recorded for stats; the walk itself brings the
        // lines into the caches.
        let n = self.asap.predicted_slots(va, Some).len() as u64;
        if n == 0 {
            self.stats.uncovered += 1;
        } else {
            self.stats.prefetches += n;
        }
        let out = walk_dimension(
            m.proc_.page_table(),
            &mut m.pm,
            va,
            WalkDim::Native,
            hier,
            Some(&mut m.pwc),
        )
        .expect("populated");
        // A stack buffer instead of a per-translate Vec: one dimension
        // never walks deeper than MAX_WALK_DEPTH.
        let mut step_cycles = [0u64; MAX_WALK_DEPTH];
        for (slot, s) in step_cycles.iter_mut().zip(out.steps.iter()) {
            *slot = s.cycles;
        }
        let depth = out.steps.len().min(MAX_WALK_DEPTH);
        let cycles = asap_adjusted_cycles(out.cycles, &step_cycles[..depth], hier);
        Translation {
            pa: out.pa,
            size: out.size,
            cycles,
            refs: out.refs(),
            fallback: false,
            unit: None,
        }
    }
}

/// 2D walk with guest-dimension prefetches.
pub struct VirtAsap {
    asap: AsapPrefetcher,
    stats: AsapStats,
}

impl VirtTranslator for VirtAsap {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        {
            let vm = &m.vm;
            let n = self
                .asap
                .predicted_slots(va, |gpa| vm.gpa_to_hpa(gpa))
                .len() as u64;
            if n == 0 {
                self.stats.uncovered += 1;
            } else {
                self.stats.prefetches += n;
            }
        }
        let out = m.translate_nested(va, hier).expect("populated");
        // Timeliness-limited overlap on the final guest-leaf fetch (see
        // the native path).
        let cycles = if let Some(gi) = out
            .steps
            .iter()
            .rposition(|s| s.dim == dmt_pgtable::walk::WalkDim::Guest)
        {
            let prior: u64 = out.steps[..gi].iter().map(|s| s.cycles).sum();
            let last = out.steps[gi].cycles;
            let l2 = hier.config().l2.latency;
            let dram = hier.config().dram_latency;
            let adj = last.min(l2.max(dram.saturating_sub(prior)));
            out.cycles - last + adj
        } else {
            out.cycles
        };
        Translation {
            pa: out.pa,
            size: out.guest_size,
            cycles,
            refs: out.refs(),
            fallback: false,
            unit: None,
        }
    }
}
