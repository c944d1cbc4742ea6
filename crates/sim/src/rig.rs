//! Common vocabulary for the evaluation: environments, translation
//! designs, and the [`Rig`] trait every design-under-test implements.

use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PageSize, PhysAddr, TransUnit, VirtAddr};
use dmt_telemetry::ComponentCounters;
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

/// Everything the block engine needs back from one batched element:
/// the translation itself plus the data access and per-level PTE-fetch
/// attribution the scalar path would have derived inline. Produced by
/// [`Rig::translate_batch`], one row per element of a miss run; the
/// engine fills the TLB and charges statistics and telemetry from each
/// row in element order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The completed translation.
    pub tr: Translation,
    /// Where the subsequent data access hit.
    pub data_level: dmt_cache::hierarchy::HitLevel,
    /// Cycles the data access cost.
    pub data_cycles: u64,
    /// PTE fetches per memory level `[L1, L2, LLC, DRAM]` — the
    /// [`HierarchyStats`](dmt_cache::hierarchy::HierarchyStats) delta
    /// across the translation, in the same shape the scalar engine
    /// feeds `Probe::pte_fetch`.
    pub pte: [u64; 4],
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            tr: Translation {
                pa: PhysAddr(0),
                size: PageSize::Size4K,
                cycles: 0,
                refs: 0,
                fallback: false,
                unit: None,
            },
            data_level: dmt_cache::hierarchy::HitLevel::L1,
            data_cycles: 0,
            pte: [0; 4],
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

    /// Log2 of the largest reach one TLB fill from this rig can cover
    /// — what the batched engine keys its region-disjointness on: two
    /// pending misses whose VAs share `va >> fill_shift()` may resolve
    /// to one fill, so they must flush in separate runs. Fixed-page
    /// designs return the page shift of their largest fill (21 under
    /// THP, 12 otherwise); variable-reach designs (VBI, segmentation)
    /// return 63 — any two VAs may share a unit, so every miss run is a
    /// single element and batching degenerates to scalar order exactly.
    fn fill_shift(&self) -> u32;

    /// Serve a translation for `va`, charging `hier`.
    ///
    /// # Panics
    ///
    /// Panics if `va` was never populated (the engine populates every
    /// region during setup).
    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation;

    /// Software ground-truth translation (for charging the data access
    /// itself without involving the translation machinery).
    fn data_pa(&self, va: VirtAddr) -> PhysAddr;

    /// Translate a run of TLB-missing accesses in one call, charging
    /// `hier` for each element's walk *and* data access in scalar
    /// order, and assigning `out[i]` for `accesses[i]`.
    ///
    /// The contract is bit-identity with the scalar path: the sequence
    /// of memory-hierarchy and walk-cache operations must be exactly
    /// what per-element `translate` + data `hier.access` would issue
    /// (DESIGN.md §13). The default does literally that; backends
    /// override it to hoist lookup machinery once per run.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer rows than `accesses`, or (like
    /// [`translate`](Self::translate)) on unpopulated addresses.
    fn translate_batch(
        &mut self,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut [Outcome],
    ) {
        crate::backends::batch_each(accesses, hier, out, |va, hier| {
            (self.translate(va, hier), self.data_pa(va))
        });
    }

    /// Full reference entry (PA + size + permissions) from the rig's own
    /// software ground truth, for the differential oracle. `None` means
    /// either the page is unmapped or the rig does not expose flags; the
    /// oracle then falls back to [`data_pa`](Self::data_pa) alone.
    fn ref_translate(&self, _va: VirtAddr) -> Option<RefEntry> {
        None
    }

    /// VM exits attributable to this design during setup + run (shadow
    /// syncs, hypercalls); used by the §5 execution-time model.
    fn exits(&self) -> u64 {
        0
    }

    /// Page faults served during setup (normalizes exit ratios).
    fn faults(&self) -> u64 {
        0
    }

    /// DMT fetcher coverage ratio so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64 {
        1.0
    }

    /// End-of-run component counters (PWC, allocator, OS layer) for the
    /// telemetry probe. Must be read-only: the engine calls this after
    /// the last access, and a telemetry-on run must stay bit-identical
    /// to a telemetry-off run.
    fn component_counters(&self) -> ComponentCounters {
        ComponentCounters::default()
    }

    /// Read-only memory-health snapshot for the periodic sampler:
    /// `(fragmentation index at the 2 MiB order, resident data frames)`.
    /// `None` when the rig exposes no allocator.
    fn frag_sample(&self) -> Option<(f64, u64)> {
        None
    }

    /// Exchange the rig's machine-level physical memory with `pm`
    /// (`mem::swap`). The multi-tenant cloud node owns one shared
    /// `PhysMemory` and lends it to the tenant scheduled on the core;
    /// every tenant's tables and data coexist in that one allocator, so
    /// churn ages fragmentation node-wide. Returns `false` (and must
    /// not touch `pm`) when the rig has no host-level allocator to
    /// share.
    fn swap_phys(&mut self, _pm: &mut dmt_mem::PhysMemory) -> bool {
        false
    }

    /// Exchange the rig's hardware page-walk cache with `pwc`
    /// (`mem::swap`) — the cloud node shares one ASID-tagged PWC across
    /// tenants the way one socket does. Returns `false` (leaving `pwc`
    /// untouched) when the rig's walk caches are not swappable (the
    /// virtualized rigs keep theirs machine-internal).
    fn swap_pwc(&mut self, _pwc: &mut dmt_cache::PageWalkCache) -> bool {
        false
    }

    /// Tenant departure: release what the rig can give back to the
    /// shared allocator (`munmap` every VMA — page-table and TEA frames
    /// are freed, data frames follow the OS model's leak-on-unmap
    /// simplification). Returns the number of TLB shootdowns the
    /// teardown issued. Rigs without a reclaim path return 0.
    fn release_memory(&mut self) -> u64 {
        0
    }

    /// Drop every machine-internal translation cache (PWCs the machine
    /// owns, shadow walk caches). The cloud node calls this on context
    /// switches for untagged hardware; rigs with no internal caches do
    /// nothing.
    fn flush_translation_caches(&mut self) {}

    /// Deterministic hash of the rig's physical-allocator state, or
    /// `None` when the rig exposes no allocator. Sharded replay asserts
    /// every shard's rig ends with the identical image (replay never
    /// mutates allocation state), and the shard-equivalence suite
    /// compares it against the serial reference.
    fn alloc_state_hash(&self) -> Option<u64> {
        None
    }
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

    fn fill_shift(&self) -> u32 {
        (**self).fill_shift()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        (**self).translate(va, hier)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        (**self).data_pa(va)
    }

    fn translate_batch(
        &mut self,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut [Outcome],
    ) {
        (**self).translate_batch(accesses, hier, out)
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

    fn frag_sample(&self) -> Option<(f64, u64)> {
        (**self).frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) -> bool {
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
                let small_bubble =
                    gap as f64 / (base + len - *cb) as f64 <= 0.02;
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
