//! ASAP (Margaritov et al., MICRO'19): offset-based PTE prefetching
//! over the unchanged radix walk, with the timeliness-limited overlap
//! applied to the leaf fetch.

use super::{Arena, NativeMachine, NativeSpec, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_baselines::asap::{AsapPrefetcher, AsapStats, LeafTiming};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PageSize, VirtAddr};
use dmt_pgtable::walk::{walk_dimension, WalkDim};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// Radix walk with perfectly timely prefetches into L2.
pub struct NativeAsap {
    asap: AsapPrefetcher,
    stats: AsapStats,
}

impl NativeAsap {
    /// ASAP's per-VMA contiguous PTE arrays are the same layout
    /// contract TEAs satisfy, so the DMT-managed process provides them.
    pub const SPEC: NativeSpec = NativeSpec { dmt_managed: true };

    pub(crate) fn build(m: &mut NativeMachine, _setup: &Setup) -> Result<Self, SimError> {
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
        Ok(NativeAsap {
            asap: AsapPrefetcher::new(l1, l2),
            stats: AsapStats::default(),
        })
    }
}

impl Translator<NativeMachine> for NativeAsap {
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
        let n = self.asap.predicted_slots(va, Some).count() as u64;
        self.stats.record(n);
        let mut timing = LeafTiming::new(WalkDim::Native);
        let out = walk_dimension(
            m.proc_.page_table(),
            &mut m.pm,
            va,
            WalkDim::Native,
            hier,
            Some(&mut m.pwc),
            &mut timing,
        )
        .expect("populated");
        Translation {
            cycles: timing.adjusted_cycles(out.cycles, hier),
            ..out.into()
        }
    }
}

/// 2D walk with guest-dimension prefetches.
pub struct VirtAsap {
    asap: AsapPrefetcher,
    stats: AsapStats,
}

impl VirtAsap {
    /// Guest TEAs provide the contiguous guest PTE arrays.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::Unpv,
        arena_frames: None,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        m: &mut VirtMachine,
        _setup: &Setup,
        _arena: Option<Arena>,
    ) -> Result<Self, SimError> {
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
        Ok(VirtAsap {
            asap: AsapPrefetcher::new(l1, l2),
            stats: AsapStats::default(),
        })
    }
}

impl Translator<VirtMachine> for VirtAsap {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let vm = &m.vm;
        let n = self
            .asap
            .predicted_slots(va, |gpa| vm.gpa_to_hpa(gpa))
            .count() as u64;
        self.stats.record(n);
        // Timeliness-limited overlap on the final guest-leaf fetch (see
        // the native path).
        let mut timing = LeafTiming::new(WalkDim::Guest);
        let out = m
            .translate_nested(va, hier, &mut timing)
            .expect("populated");
        Translation {
            cycles: timing.adjusted_cycles(out.cycles, hier),
            ..out.into()
        }
    }
}
