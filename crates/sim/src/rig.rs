//! Common vocabulary for the evaluation: environments, translation
//! designs, the [`Rig`] trait the engine drives, and [`MachineRig`],
//! the one rig shell every environment instantiates.

use crate::backends::{Machine, NativeMachine, Translator};
use crate::error::SimError;
use crate::native_rig::NativeRig;
use crate::nested_rig::NestedRig;
use crate::virt_rig::VirtRig;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::PageWalkCache;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, PhysAddr, PhysMemory, TransUnit, VirtAddr};
use dmt_pgtable::walk::WalkOutcome;
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;
use dmt_virt::nested::NestedMachine;
use dmt_workloads::gen::{Access, Region};

/// Deployment environment (the paper's three columns of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Env {
    /// Bare metal.
    Native,
    /// Single-level virtualization.
    Virt,
    /// Nested virtualization (L2 on L1 on L0).
    Nested,
}

impl Env {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Env::Native => "Native",
            Env::Virt => "Virtualized",
            Env::Nested => "NestedVirt",
        }
    }
}

/// Translation design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Radix walk (Linux / KVM nested paging).
    Vanilla,
    /// Shadow paging (virtualized only).
    Shadow,
    /// Flattened page tables.
    Fpt,
    /// Elastic cuckoo page tables.
    Ecpt,
    /// Agile paging (virtualized only).
    Agile,
    /// ASAP PTE prefetching over the radix walk.
    Asap,
    /// DMT without paravirtualization.
    Dmt,
    /// DMT with paravirtualization (pvDMT). In native mode identical to
    /// [`Design::Dmt`].
    PvDmt,
    /// Virtual Block Interface-style variable-size block table (beyond
    /// the paper; Hajinazar et al.).
    Vbi,
    /// Per-VMA base+bound segmentation with a small segment cache
    /// (beyond the paper; Teabe et al.).
    Seg,
}

impl Design {
    /// Every design, in the paper's comparison order — the canonical
    /// iteration set for whole-matrix sweeps (Tables 6 and 7).
    pub const ALL: [Design; 10] = [
        Design::Vanilla,
        Design::Shadow,
        Design::Fpt,
        Design::Ecpt,
        Design::Agile,
        Design::Asap,
        Design::Dmt,
        Design::PvDmt,
        Design::Vbi,
        Design::Seg,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Design::Vanilla => "Vanilla",
            Design::Shadow => "Shadow",
            Design::Fpt => "FPT",
            Design::Ecpt => "ECPT",
            Design::Agile => "Agile",
            Design::Asap => "ASAP",
            Design::Dmt => "DMT",
            Design::PvDmt => "pvDMT",
            Design::Vbi => "VBI",
            Design::Seg => "Seg",
        }
    }

    /// Whether the design exists in the given environment (Table 6's
    /// N/A cells) — a query against [`crate::registry`], so the answer
    /// is data (which specs a design registered), not a hand-maintained
    /// match.
    pub fn available_in(self, env: Env) -> bool {
        crate::registry::available(self, env)
    }
}

/// One completed translation, as the engine sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Final physical address.
    pub pa: PhysAddr,
    /// Page size installed in the TLB.
    pub size: PageSize,
    /// Cycles the translation cost.
    pub cycles: u64,
    /// Sequential memory references performed.
    pub refs: u64,
    /// Whether a DMT design fell back to the hardware walker.
    pub fallback: bool,
    /// Variable-size reach this translation covers (VBI blocks,
    /// segmentation VMAs). `None` for page-granular designs — the
    /// engine then fills the TLB at `size` granularity as before;
    /// `Some` routes the fill to [`dmt_cache::tlb::Tlb::fill_unit`].
    /// PA-contiguity over the reach is the emitting design's contract.
    pub unit: Option<TransUnit>,
}

impl From<WalkOutcome> for Translation {
    /// A page-granular, non-fallback translation from a walker's or
    /// fetcher's outcome.
    fn from(out: WalkOutcome) -> Self {
        Translation {
            pa: out.pa,
            size: out.size,
            cycles: out.cycles,
            refs: out.refs,
            fallback: false,
            unit: None,
        }
    }
}

/// Per-level PTE-fetch deltas between two hierarchy snapshots, in
/// `[L1, L2, LLC, DRAM]` order — the diff both engines take around a
/// translation.
pub fn pte_delta(
    before: dmt_cache::hierarchy::HierarchyStats,
    after: dmt_cache::hierarchy::HierarchyStats,
) -> [u64; 4] {
    [
        after.l1_hits - before.l1_hits,
        after.l2_hits - before.l2_hits,
        after.llc_hits - before.llc_hits,
        after.dram_accesses - before.dram_accesses,
    ]
}

/// The reference leaf entry a software radix walk produces for a VA —
/// what the oracle compares every design's [`Translation`] against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEntry {
    /// Ground-truth physical address (same space as [`Rig::data_pa`]).
    pub pa: PhysAddr,
    /// Leaf size in the reference tree.
    pub size: PageSize,
    /// Leaf is writable.
    pub writable: bool,
    /// Leaf is user-accessible.
    pub user: bool,
}

/// A design-under-test: owns all machine state and serves translations.
pub trait Rig {
    /// The design.
    fn design(&self) -> Design;

    /// The environment.
    fn env(&self) -> Env;

    /// Whether THP is active.
    fn thp(&self) -> bool;

    /// Serve a TLB miss for `va`, charging `hier` — the one miss call
    /// of both engines. The translation's `pa` is the physical address
    /// of `va`'s data and must equal [`data_pa`](Self::data_pa): the
    /// default engine charges the data access there (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics if `va` was never populated (the engine populates every
    /// region during setup).
    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation;

    /// Software ground-truth translation (for charging the data access
    /// itself without involving the translation machinery): the scalar
    /// reference engine's data PA and the oracle's truth.
    fn data_pa(&self, va: VirtAddr) -> PhysAddr;

    /// Full reference entry (PA + size + permissions) from the rig's own
    /// software ground truth, for the differential oracle. `None` means
    /// either the page is unmapped or the rig does not expose flags; the
    /// oracle then falls back to [`data_pa`](Self::data_pa) alone.
    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry>;

    /// VM exits attributable to this design during setup + run (shadow
    /// syncs, hypercalls); used by the §5 execution-time model.
    fn exits(&self) -> u64;

    /// Page faults served during setup (normalizes exit ratios).
    fn faults(&self) -> u64;

    /// DMT fetcher coverage ratio so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64;

    /// End-of-run component counters (PWC, allocator, OS layer) for the
    /// telemetry probe. Must be read-only: the engine calls this after
    /// the last access, and a telemetry-on run must stay bit-identical
    /// to a telemetry-off run.
    fn component_counters(&self) -> ComponentCounters;

    /// Read-only memory-health snapshot for the periodic sampler:
    /// `(fragmentation index at the 2 MiB order, resident data frames)`.
    fn frag_sample(&self) -> (f64, u64);

    /// Exchange the rig's machine-level physical memory with `pm`
    /// (`mem::swap`). The multi-tenant cloud node owns one shared
    /// `PhysMemory` and lends it to the tenant scheduled on the core;
    /// every tenant's tables and data coexist in that one allocator, so
    /// churn ages fragmentation node-wide.
    fn swap_phys(&mut self, pm: &mut PhysMemory);

    /// Exchange the rig's hardware page-walk cache with `pwc`
    /// (`mem::swap`) — the cloud node shares one ASID-tagged PWC across
    /// tenants the way one socket does. Returns `false` (leaving `pwc`
    /// untouched) when the rig's walk caches are not swappable (the
    /// virtualized rigs keep theirs machine-internal).
    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool;

    /// Tenant departure: release what the rig can give back to the
    /// shared allocator (`munmap` every VMA — page-table and TEA frames
    /// are freed, data frames follow the OS model's leak-on-unmap
    /// simplification). Returns the number of TLB shootdowns the
    /// teardown issued. Rigs without a reclaim path return 0.
    fn release_memory(&mut self) -> u64;

    /// Drop every machine-internal translation cache (PWCs the machine
    /// owns, shadow walk caches). The cloud node calls this on context
    /// switches for untagged hardware; rigs with no internal caches do
    /// nothing.
    fn flush_translation_caches(&mut self);

    /// Deterministic hash of the rig's physical-allocator state, or
    /// `None` when the rig exposes no allocator. Sharded replay asserts
    /// every shard's rig ends with the identical image (replay never
    /// mutates allocation state), and the shard-equivalence suite
    /// compares it against the serial reference.
    fn alloc_state_hash(&self) -> Option<u64>;
}

impl Rig for Box<dyn Rig> {
    fn design(&self) -> Design {
        (**self).design()
    }

    fn env(&self) -> Env {
        (**self).env()
    }

    fn thp(&self) -> bool {
        (**self).thp()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        (**self).translate(va, hier)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        (**self).data_pa(va)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        (**self).ref_translate(va)
    }

    fn exits(&self) -> u64 {
        (**self).exits()
    }

    fn faults(&self) -> u64 {
        (**self).faults()
    }

    fn coverage(&self) -> f64 {
        (**self).coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        (**self).component_counters()
    }

    fn frag_sample(&self) -> (f64, u64) {
        (**self).frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) {
        (**self).swap_phys(pm)
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        (**self).swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        (**self).release_memory()
    }

    fn flush_translation_caches(&mut self) {
        (**self).flush_translation_caches()
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        (**self).alloc_state_hash()
    }
}

/// The one rig shell: a [`Machine`] (the environment), its
/// registry-built backend enum (the design) and the cell's identity.
/// `NativeRig`, `VirtRig` and `NestedRig` are this type over
/// [`NativeMachine`], [`VirtMachine`] and [`NestedMachine`]; every
/// environment-level call is served by the machine and every
/// design-level call by the backend, so per-miss dispatch stays one
/// monomorphic enum match.
pub struct MachineRig<M: Machine> {
    m: M,
    backend: M::Backend,
    design: Design,
    thp: bool,
}

impl<M: Machine> MachineRig<M> {
    /// Build the machine: map and populate the workload's regions, then
    /// construct the design's translation structures over the same
    /// pages.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no backend for
    /// `design` in this environment.
    pub fn new(
        design: Design,
        thp: bool,
        workload: &dyn dmt_workloads::gen::Workload,
        trace: &[Access],
    ) -> Result<Self, SimError> {
        Self::with_setup(design, thp, &Setup::of_workload(workload, trace))
    }

    /// Build the machine from a [`Setup`] — regions plus touched pages —
    /// with no workload generator in sight (the trace-replay path), in a
    /// fresh memory of [`Machine::host_bytes`] bytes.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_setup(design: Design, thp: bool, setup: &Setup) -> Result<Self, SimError> {
        let pm = PhysMemory::new_bytes(M::host_bytes(thp, setup));
        Self::with_setup_in(pm, design, thp, setup)
    }

    /// Build the machine inside an existing (host) physical memory —
    /// the multi-tenant cloud-node path, where tenants carve their
    /// backing out of one shared buddy allocator. The rig takes
    /// ownership of `pm`; the node lends it back and forth with
    /// [`Rig::swap_phys`] on context switches.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_setup_in(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Self, SimError> {
        Ok(Self::from_parts(
            M::build(pm, design, thp, setup)?,
            design,
            thp,
        ))
    }

    pub(crate) fn from_parts((m, backend): (M, M::Backend), design: Design, thp: bool) -> Self {
        MachineRig {
            m,
            backend,
            design,
            thp,
        }
    }

    /// The underlying machine (experiment probes, oracle audits).
    pub fn machine(&self) -> &M {
        &self.m
    }

    /// Mutable access for experiment-specific drives (e.g. Figure 16's
    /// step traces).
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.m
    }

    /// The machine's (host) physical memory (read-only; oracle audits).
    pub fn phys(&self) -> &PhysMemory {
        self.m.phys()
    }
}

impl<M: Machine> Rig for MachineRig<M> {
    fn design(&self) -> Design {
        self.design
    }

    fn env(&self) -> Env {
        M::ENV
    }

    fn thp(&self) -> bool {
        self.thp
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        self.backend.translate(&mut self.m, va, hier)
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
        self.m.faults()
    }

    fn coverage(&self) -> f64 {
        self.backend.coverage()
    }

    fn component_counters(&self) -> ComponentCounters {
        self.m.component_counters()
    }

    fn frag_sample(&self) -> (f64, u64) {
        let b = self.m.phys().buddy();
        let rss = b.allocated_of_kind(FrameKind::Data) + b.allocated_of_kind(FrameKind::HugeData);
        (dmt_mem::frag::fragmentation_index(b, 9), rss)
    }

    fn swap_phys(&mut self, pm: &mut PhysMemory) {
        std::mem::swap(self.m.phys_mut(), pm);
    }

    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool {
        self.m.swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        self.m.release_memory()
    }

    fn flush_translation_caches(&mut self) {
        self.m.flush_walk_caches();
        self.backend.flush_caches();
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        Some(self.m.phys().buddy().state_hash())
    }
}

/// Bytes of host physical memory a standalone rig of `env` provisions
/// for this setup (a cloud node sizes its shared memory as their sum).
pub(crate) fn host_bytes(env: Env, thp: bool, setup: &Setup) -> u64 {
    match env {
        Env::Native => NativeMachine::host_bytes(thp, setup),
        Env::Virt => VirtMachine::host_bytes(thp, setup),
        Env::Nested => NestedMachine::host_bytes(thp, setup),
    }
}

/// Build the rig for an (env, design) cell inside `pm` — the one place
/// an [`Env`] picks a machine. Unwrapped; the runner applies its
/// wrapper.
pub(crate) fn build_rig_in(
    pm: PhysMemory,
    env: Env,
    design: Design,
    thp: bool,
    setup: &Setup,
) -> Result<Box<dyn Rig>, SimError> {
    Ok(match env {
        Env::Native => Box::new(NativeRig::with_setup_in(pm, design, thp, setup)?),
        Env::Virt => Box::new(VirtRig::with_setup_in(pm, design, thp, setup)?),
        Env::Nested => Box::new(NestedRig::with_setup_in(pm, design, thp, setup)?),
    })
}

/// Everything a rig needs to build its machine, decoupled from the
/// [`Workload`](dmt_workloads::gen::Workload) that generated the trace:
/// the VMAs to map and the pages the trace touches. Replay can build
/// one straight from a trace file's header, with no generator around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Setup {
    /// The VMAs to map before the trace runs.
    pub regions: Vec<Region>,
    /// Unique, sorted 4 KiB page bases the trace touches (see
    /// [`touched_pages`]).
    pub pages: Vec<VirtAddr>,
}

impl Setup {
    /// A setup from explicit regions and an access stream.
    pub fn new(regions: Vec<Region>, trace: &[Access]) -> Setup {
        Setup {
            regions,
            pages: touched_pages(trace),
        }
    }

    /// Capture a live workload's regions plus the trace's touched pages.
    pub fn of_workload(w: &dyn dmt_workloads::gen::Workload, trace: &[Access]) -> Setup {
        Setup::new(w.regions(), trace)
    }

    /// Total mapped bytes.
    pub fn footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }
}

/// Cluster a workload's regions for `mmap`-time TEA creation, the way
/// DMT-Linux clusters adjacent VMAs (§4.2.1): merge regions whose
/// table-span-rounded TEA coverages would overlap (mandatory — two
/// mappings must never own one table page) or whose bubbles stay within
/// the 2% budget.
pub fn cluster_regions(regions: &[Region], thp: bool) -> Vec<(VirtAddr, u64)> {
    // The coarsest table span in play decides rounding: 2 MiB spans for
    // 4 KiB TEAs, 1 GiB spans when THP adds 2 MiB TEAs.
    let span = if thp {
        512 * PageSize::Size2M.bytes()
    } else {
        512 * PageSize::Size4K.bytes()
    };
    let mut spans: Vec<(u64, u64)> = regions.iter().map(|r| (r.base.raw(), r.len)).collect();
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (base, len) in spans {
        match out.last_mut() {
            Some((cb, cl)) => {
                let cur_end_rounded = (*cb + *cl).div_ceil(span) * span;
                let new_start_rounded = base / span * span;
                let gap = base.saturating_sub(*cb + *cl);
                let overlap = new_start_rounded < cur_end_rounded;
                let small_bubble = gap as f64 / (base + len - *cb) as f64 <= 0.02;
                if overlap || small_bubble {
                    *cl = (base + len) - *cb;
                } else {
                    out.push((base, len));
                }
            }
            None => out.push((base, len)),
        }
    }
    out.into_iter().map(|(b, l)| (VirtAddr(b), l)).collect()
}

/// The unique 4 KiB page bases a trace touches, sorted. Population and
/// auxiliary-table construction are driven by this set, so setup cost
/// scales with the trace rather than the (multi-GiB) footprint.
pub fn touched_pages(trace: &[Access]) -> Vec<VirtAddr> {
    let mut pages: Vec<u64> = trace
        .iter()
        .map(|a| a.va.align_down(PageSize::Size4K).raw())
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages.into_iter().map(VirtAddr).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_workloads::gen::Access;

    fn region(base: u64, len: u64) -> Region {
        Region {
            base: VirtAddr(base),
            len,
            label: "r",
        }
    }

    #[test]
    fn touched_pages_dedups_and_sorts() {
        let trace = vec![
            Access::read(VirtAddr(0x5000)),
            Access::read(VirtAddr(0x1234)),
            Access::read(VirtAddr(0x5fff)),
            Access::write(VirtAddr(0x1000)),
        ];
        assert_eq!(
            touched_pages(&trace),
            vec![VirtAddr(0x1000), VirtAddr(0x5000)]
        );
        assert!(touched_pages(&[]).is_empty());
    }

    #[test]
    fn overlapping_rounded_coverage_forces_merge() {
        // Two regions 8 KiB apart: their 2 MiB-rounded TEA coverages
        // overlap, so they must merge regardless of bubble budget.
        let rs = [region(0, 4 << 20), region((4 << 20) + 8192, 4 << 20)];
        let c = cluster_regions(&rs, false);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, VirtAddr(0));
        assert_eq!(c[0].1, (8 << 20) + 8192);
    }

    #[test]
    fn distant_regions_stay_apart() {
        let rs = [region(0, 4 << 20), region(1 << 40, 4 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 2);
        // THP rounding (1 GiB spans) merges anything within a span.
        let rs = [region(0, 4 << 20), region(512 << 20, 4 << 20)];
        assert_eq!(cluster_regions(&rs, true).len(), 1);
        assert_eq!(cluster_regions(&rs, false).len(), 2);
    }

    #[test]
    fn small_bubbles_merge_per_paper_rule() {
        // 1 MiB gap over a ~104 MiB span: < 2% bubbles.
        let rs = [region(0, 100 << 20), region(101 << 20, 4 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 1);
        // 10 MiB gap over ~50 MiB: way past the budget (and rounded
        // coverages don't touch).
        let rs = [region(0, 20 << 20), region(30 << 20, 20 << 20)];
        assert_eq!(cluster_regions(&rs, false).len(), 2);
    }

    #[test]
    fn unsorted_regions_are_handled() {
        let rs = [region(1 << 40, 4 << 20), region(0, 4 << 20)];
        let c = cluster_regions(&rs, false);
        assert_eq!(c.len(), 2);
        assert!(c[0].0 < c[1].0, "output sorted by base");
    }
}
