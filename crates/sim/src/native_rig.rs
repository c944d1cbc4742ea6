//! The native-environment shell: owns a [`NativeMachine`] (physical
//! memory, process, register file, PWC) and delegates every
//! design-specific decision to the registry-built [`NativeBackend`]
//! enum (monomorphic dispatch).

use crate::backends::{NativeBackend, NativeMachine};
use crate::error::SimError;
use crate::rig::{Design, Env, RefEntry, Rig, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PhysAddr, PhysMemory, VirtAddr};
use dmt_os::proc::Process;
use dmt_telemetry::ComponentCounters;
use dmt_workloads::gen::Workload;

/// A native machine running one workload under one design.
pub struct NativeRig {
    m: NativeMachine,
    backend: NativeBackend,
    design: Design,
    thp: bool,
}

impl NativeRig {
    /// Build the machine: map and fully populate the workload's regions,
    /// then construct the design's translation structures over the same
    /// pages.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no native backend
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
    /// [`SimError::Unavailable`] if the registry has no native backend
    /// for `design`.
    pub fn with_setup(design: Design, thp: bool, setup: &Setup) -> Result<Self, SimError> {
        let pm = PhysMemory::new_bytes(Self::host_bytes(thp, setup));
        Self::with_setup_in(pm, design, thp, setup)
    }

    /// Build the machine inside an existing physical memory — the
    /// multi-tenant cloud-node path, where tenants carve their backing
    /// out of one shared buddy allocator. The rig takes ownership of
    /// `pm`; the node lends it back and forth with [`Rig::swap_phys`]
    /// on context switches.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no native backend
    /// for `design`.
    pub fn with_setup_in(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        Self::build(pm, design, thp, setup, 4)
    }

    /// Bytes of host physical memory [`with_setup`](Self::with_setup)
    /// provisions for this setup.
    pub fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        NativeMachine::host_bytes(thp, setup)
    }

    /// [`with_setup`](Self::with_setup) over a `levels`-deep radix
    /// table: the five-level extension replays the registry's own
    /// backends at depth 4 and 5.
    pub(crate) fn with_levels(design: Design, setup: &Setup, levels: u8) -> Result<Self, SimError> {
        let pm = PhysMemory::new_bytes(Self::host_bytes(false, setup));
        Self::build(pm, design, false, setup, levels)
    }

    fn build(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
        levels: u8,
    ) -> Result<Self, SimError> {
        let spec = crate::registry::native_spec(design)?;
        let mut m = NativeMachine::build_in(pm, spec.dmt_managed, thp, setup, levels)?;
        let backend = (spec.build)(&mut m, setup)?;
        Ok(NativeRig {
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

    /// The machine's physical memory (read-only; oracle audits).
    pub fn phys(&self) -> &PhysMemory {
        &self.m.pm
    }

    /// The machine's process (read-only; oracle audits).
    pub fn process(&self) -> &Process {
        &self.m.proc_
    }
}

impl Rig for NativeRig {
    fn design(&self) -> Design {
        self.design
    }

    fn env(&self) -> Env {
        Env::Native
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
        self.m.data_pa(va)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.backend.ref_translate(&self.m, va)
    }

    fn exits(&self) -> u64 {
        self.backend.exits(&self.m)
    }

    fn faults(&self) -> u64 {
        self.m.proc_.faults()
    }

    fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        self.m.component_counters()
    }

    fn frag_sample(&self) -> Option<(f64, u64)> {
        self.m.frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut PhysMemory) -> bool {
        std::mem::swap(&mut self.m.pm, pm);
        true
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        std::mem::swap(&mut self.m.pwc, pwc);
        true
    }

    fn release_memory(&mut self) -> u64 {
        let ids: Vec<_> = self.m.proc_.address_space().iter().map(|v| v.id).collect();
        let before = self.m.proc_.shootdowns();
        for id in ids {
            self.m
                .proc_
                .munmap(&mut self.m.pm, id)
                .expect("unmapping an enumerated VMA");
        }
        self.m.proc_.shootdowns() - before
    }

    fn flush_translation_caches(&mut self) {
        self.m.pwc.flush();
        self.backend.flush_caches();
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        Some(self.m.pm.buddy().state_hash())
    }
}
