//! The native environment: [`NativeMachine`] (physical memory,
//! process, register file, PWC) as a [`Machine`], and [`NativeRig`],
//! the generic shell over it, which delegates every design-specific
//! decision to the [`NativeBackend`] enum (monomorphic dispatch).

use crate::backends::{Machine, NativeBackend, NativeMachine};
use crate::error::SimError;
use crate::rig::{Design, Env, MachineRig, RefEntry, Setup};
use dmt_cache::PageWalkCache;
use dmt_core::regfile::DmtRegisterFile;
use dmt_mem::{PhysMemory, VirtAddr};
use dmt_os::mapping::MappingPolicy;
use dmt_os::proc::{Process, ThpMode};
use dmt_os::vma::VmaKind;
use dmt_telemetry::ComponentCounters;

/// A native machine running one workload under one design.
pub type NativeRig = MachineRig<NativeMachine>;

impl NativeRig {
    /// [`with_setup`](Self::with_setup) over a `levels`-deep radix
    /// table: the five-level extension replays the designs' own
    /// backends at depth 4 and 5.
    pub(crate) fn with_levels(design: Design, setup: &Setup, levels: u8) -> Result<Self, SimError> {
        let pm = PhysMemory::new_bytes(NativeMachine::host_bytes(false, setup));
        Ok(Self::from_parts(
            build(pm, design, false, setup, levels)?,
            design,
            false,
        ))
    }

    /// The machine's process (read-only; oracle audits).
    pub fn process(&self) -> &Process {
        &self.machine().proc_
    }
}

/// Map and fully populate the setup's regions over a `levels`-deep
/// radix table (4, or 5 for the §2.1.1 five-level extension), then
/// build `design`'s backend with its backend type's factory. The
/// spec's `dmt_managed` knob selects the TEA-aware process and loads
/// the register file.
fn build(
    mut pm: PhysMemory,
    design: Design,
    thp: bool,
    setup: &Setup,
    levels: u8,
) -> Result<(NativeMachine, NativeBackend), SimError> {
    let spec = NativeBackend::spec(design)?;
    let thp_mode = if thp { ThpMode::Always } else { ThpMode::Never };
    let mut proc_ = Process::custom(
        &mut pm,
        thp_mode,
        MappingPolicy::default(),
        spec.dmt_managed,
        levels,
    )
    .map_err(SimError::setup)?;
    for r in &setup.regions {
        proc_
            .mmap(&mut pm, r.base, r.len, VmaKind::Heap)
            .map_err(|e| SimError::Setup(format!("mmap {}: {e}", r.label)))?;
    }
    proc_
        .populate_pages(&mut pm, setup.pages.iter().copied())
        .map_err(|e| SimError::Setup(format!("populate: {e}")))?;
    let mut regs = DmtRegisterFile::new();
    if spec.dmt_managed {
        proc_.load_registers(&mut regs);
    }
    let mut m = NativeMachine {
        pm,
        proc_,
        regs,
        pwc: PageWalkCache::default(),
    };
    let backend = NativeBackend::build(design, &mut m, setup)?;
    Ok((m, backend))
}

impl Machine for NativeMachine {
    const ENV: Env = Env::Native;
    type Backend = NativeBackend;

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (512 << 20)
    }

    fn build(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, NativeBackend), SimError> {
        build(pm, design, thp, setup, 4)
    }

    /// The leaf entry of the ground-truth radix table.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        self.proc_
            .page_table()
            .translate_entry(&self.pm, va)
            .map(RefEntry::from)
    }

    fn faults(&self) -> u64 {
        self.proc_.faults()
    }

    fn component_counters(&self) -> ComponentCounters {
        let pwc = self.pwc.stats();
        let alloc = self.pm.buddy().alloc_counters();
        ComponentCounters {
            pwc_l2_hits: pwc.l2_hits,
            pwc_l3_hits: pwc.l3_hits,
            pwc_l4_hits: pwc.l4_hits,
            pwc_misses: pwc.misses,
            alloc_splits: alloc.splits,
            alloc_merges: alloc.merges,
            compactions: alloc.compactions,
            tea_migrations: self.proc_.tea_migrations(),
            shootdowns: self.proc_.shootdowns(),
        }
    }

    fn flush_walk_caches(&mut self) {
        self.pwc.flush();
    }

    fn phys(&self) -> &PhysMemory {
        &self.pm
    }

    fn phys_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }

    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool {
        std::mem::swap(&mut self.pwc, pwc);
        true
    }

    fn release_memory(&mut self) -> u64 {
        let ids: Vec<_> = self.proc_.address_space().iter().map(|v| v.id).collect();
        let before = self.proc_.shootdowns();
        for id in ids {
            self.proc_
                .munmap(&mut self.pm, id)
                .expect("unmapping an enumerated VMA");
        }
        self.proc_.shootdowns() - before
    }
}
