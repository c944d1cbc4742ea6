//! The nested-virtualization shell: owns the L0/L1/L2
//! [`NestedMachine`] stack and delegates every design-specific decision
//! to the registry-built [`NestedBackend`] enum (Figure 17).

use crate::backends::NestedBackend;
use crate::error::SimError;
use crate::rig::{Design, Env, RefEntry, Rig, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_telemetry::ComponentCounters;
use dmt_virt::nested::NestedMachine;
use dmt_workloads::gen::Workload;

/// A nested (L0/L1/L2) machine running one workload under one design.
pub struct NestedRig {
    m: NestedMachine,
    backend: NestedBackend,
    design: Design,
    thp: bool,
}

impl NestedRig {
    /// Build the three-level stack and populate the L2 workload.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no nested backend
    /// for `design`.
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
    /// [`SimError::Unavailable`] if the registry has no nested backend
    /// for `design`.
    pub fn with_setup(design: Design, thp: bool, setup: &Setup) -> Result<Self, SimError> {
        let pm = dmt_mem::PhysMemory::new_bytes(Self::host_bytes(thp, setup));
        Self::with_setup_in(pm, design, thp, setup)
    }

    /// Bytes of L0 (host) physical memory
    /// [`with_setup`](Self::with_setup) provisions for this setup.
    pub fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 3 + setup.footprint() / 128 + (768 << 20)
    }

    /// Build the stack inside an existing L0 physical memory — the
    /// multi-tenant cloud-node path, where tenants carve their backing
    /// out of one shared buddy allocator. The rig takes ownership of
    /// `pm`; the node lends it back and forth with [`Rig::swap_phys`]
    /// on context switches.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no nested backend
    /// for `design`.
    pub fn with_setup_in(
        pm: dmt_mem::PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        let spec = crate::registry::nested_spec(design)?;
        let footprint = setup.footprint();
        let pages = &setup.pages;
        let l2_bytes = footprint + (96 << 20);
        let l1_bytes = l2_bytes + (64 << 20);
        let mut m =
            NestedMachine::new_with_pm(pm, l1_bytes, l2_bytes, thp).map_err(SimError::setup)?;
        if spec.pv_mmap {
            for (base, len) in crate::rig::cluster_regions(&setup.regions, thp) {
                m.l2_mmap(base, len).map_err(SimError::setup)?;
            }
        }
        for &va in pages {
            m.l2_populate(va).map_err(SimError::setup)?;
        }
        let backend = (spec.build)(&mut m, setup)?;
        Ok(NestedRig {
            m,
            backend,
            design,
            thp,
        })
    }

    /// DMT fetcher coverage ratio so far.
    pub fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    /// The underlying machine.
    pub fn machine(&self) -> &NestedMachine {
        &self.m
    }
}

impl Rig for NestedRig {
    fn design(&self) -> Design {
        self.design
    }

    fn env(&self) -> Env {
        Env::Nested
    }

    fn thp(&self) -> bool {
        self.thp
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
        let pwcs = [
            self.m.nested_caches.guest_pwc.as_ref().map(|p| p.stats()),
            self.m.nested_caches.nested_pwc.as_ref().map(|p| p.stats()),
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
        self.backend.flush_caches();
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        Some(self.m.pm.buddy().state_hash())
    }
}
