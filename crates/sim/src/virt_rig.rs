//! The virtualized-environment shell: owns the shared
//! [`VirtMachine`] and delegates every design-specific decision to the
//! registry-built [`VirtBackend`] enum (monomorphic dispatch).

use crate::backends::VirtBackend;
use crate::error::SimError;
use crate::registry::Arena;
use crate::rig::{Design, Env, RefEntry, Rig, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;
use dmt_workloads::gen::Workload;

/// A virtualized machine running one workload under one design.
pub struct VirtRig {
    m: VirtMachine,
    backend: VirtBackend,
    design: Design,
}

impl VirtRig {
    /// Build the machine: back the guest, map/populate the workload, and
    /// construct the design's structures.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no virt backend for
    /// `design`.
    pub fn new(
        design: Design,
        thp: bool,
        workload: &dyn Workload,
        trace: &[dmt_workloads::gen::Access],
    ) -> Result<Self, SimError> {
        Self::with_setup(design, thp, &Setup::of_workload(workload, trace))
    }

    /// Build the machine from a [`Setup`] — regions plus touched pages —
    /// with no workload generator in sight (the trace-replay path).
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no virt backend for
    /// `design`.
    pub fn with_setup(design: Design, thp: bool, setup: &Setup) -> Result<Self, SimError> {
        let pm = dmt_mem::PhysMemory::new_bytes(Self::host_bytes(thp, setup));
        Self::with_setup_in(pm, design, thp, setup)
    }

    /// Bytes of host physical memory [`with_setup`](Self::with_setup)
    /// provisions for this setup.
    pub fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (768 << 20)
    }

    /// Build the machine inside an existing host physical memory — the
    /// multi-tenant cloud-node path, where tenants carve their backing
    /// out of one shared buddy allocator. The rig takes ownership of
    /// `pm`; the node lends it back and forth with [`Rig::swap_phys`]
    /// on context switches.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no virt backend for
    /// `design`.
    pub fn with_setup_in(
        pm: dmt_mem::PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        let spec = crate::registry::virt_spec(design)?;
        let footprint = setup.footprint();
        let pages = &setup.pages;
        // Guest physical space spans the footprint (TEAs are eager) but
        // only touched pages get backed.
        let guest_bytes = footprint + (160 << 20);
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
        for &va in pages {
            m.guest_populate(va).map_err(SimError::setup)?;
        }

        let backend = (spec.build)(&mut m, setup, arena)?;
        Ok(VirtRig { m, backend, design })
    }

    /// DMT fetcher coverage ratio so far.
    pub fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    /// The underlying machine (experiment probes).
    pub fn machine(&self) -> &VirtMachine {
        &self.m
    }

    /// Mutable access for experiment-specific drives (e.g. Figure 16's
    /// step traces).
    pub fn machine_mut(&mut self) -> &mut VirtMachine {
        &mut self.m
    }
}

impl Rig for VirtRig {
    fn design(&self) -> Design {
        self.design
    }

    fn env(&self) -> Env {
        Env::Virt
    }

    fn thp(&self) -> bool {
        self.m.guest_thp()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        self.backend.translate(&mut self.m, va, hier)
    }

    fn translate_fast(
        &mut self,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        self.backend.translate_fast(&mut self.m, va, hier)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.m.translate_software(va).expect("populated")
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.backend.ref_translate(&self.m, va)
    }

    fn exits(&self) -> u64 {
        self.backend.exits(&self.m)
    }

    fn faults(&self) -> u64 {
        self.m.faults()
    }

    fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        let mut c = ComponentCounters::default();
        // Host-side PWC population depends on the design: 2D walks use
        // the guest+nested pair, shadow paging its own instance. Sum
        // whatever exists — absent caches contribute nothing.
        let pwcs = [
            self.m.nested_caches.guest_pwc.as_ref().map(|p| p.stats()),
            self.m.nested_caches.nested_pwc.as_ref().map(|p| p.stats()),
            Some(self.m.shadow_pwc.stats()),
        ];
        for s in pwcs.into_iter().flatten() {
            c.pwc_l2_hits += s.l2_hits;
            c.pwc_l3_hits += s.l3_hits;
            c.pwc_l4_hits += s.l4_hits;
            c.pwc_misses += s.misses;
        }
        let alloc = self.m.pm.buddy().alloc_counters();
        c.alloc_splits = alloc.splits;
        c.alloc_merges = alloc.merges;
        c.compactions = alloc.compactions;
        c
    }

    fn frag_sample(&self) -> Option<(f64, u64)> {
        let b = self.m.pm.buddy();
        let rss = b.allocated_of_kind(FrameKind::Data) + b.allocated_of_kind(FrameKind::HugeData);
        Some((dmt_mem::frag::fragmentation_index(b, 9), rss))
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) -> bool {
        std::mem::swap(&mut self.m.pm, pm);
        true
    }

    fn flush_translation_caches(&mut self) {
        if let Some(p) = self.m.nested_caches.guest_pwc.as_mut() {
            p.flush();
        }
        if let Some(p) = self.m.nested_caches.nested_pwc.as_mut() {
            p.flush();
        }
        self.m.shadow_pwc.flush();
        self.backend.flush_caches();
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        Some(self.m.pm.buddy().state_hash())
    }
}
