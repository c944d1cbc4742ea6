//! Segmentation-style translation: per-VMA base+bound descriptors with
//! a small segment cache (beyond-the-paper design, DESIGN.md §15).
//!
//! Setup merges the touched leaf mappings into PA-contiguous
//! `ContigRun`s — the segments — and writes them to a sorted
//! descriptor table in physical memory. A translation first probes an
//! 8-entry LRU segment cache (a segment-register file: hits are free
//! and charge nothing); on a miss it binary-searches the descriptor
//! table, paying one descriptor fetch per probe, then caches the
//! segment. The segment's whole reach is returned as
//! [`Translation::unit`] so the TLB covers it with one variable-reach
//! entry, and `flush_caches` drops the segment cache — the
//! epoch-barrier contract non-radix designs must honor.
//!
//! The segment's PA is the data PA the default engine charges
//! (DESIGN.md §13); a miss allocates nothing.

use super::{
    collect_mappings, merge_contiguous_runs, Arena, ContigRun, NativeMachine, NativeSpec,
    Translator, VirtSpec,
};
use crate::backends::vbi::{build_virt_tables, host_resolve, BlockTable};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// Segment-cache ways (a segment-register file's worth).
const SEG_CACHE_WAYS: usize = 8;

/// The sorted segment table plus its LRU cache of resolved segments.
struct SegTable {
    table: BlockTable,
    /// Cached run indices, most recently used last.
    cache: Vec<usize>,
}

impl SegTable {
    fn new(table: BlockTable) -> SegTable {
        SegTable {
            table,
            cache: Vec::with_capacity(SEG_CACHE_WAYS),
        }
    }

    /// Resolve `va`'s segment: free on a cache hit, a charged binary
    /// search over the descriptor table on a miss.
    fn resolve(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> (ContigRun, u64, u64) {
        let runs = self.table.runs();
        if let Some(pos) = self.cache.iter().position(|&i| runs[i].unit().contains(va)) {
            let i = self.cache.remove(pos);
            self.cache.push(i);
            return (runs[i], 0, 0);
        }
        let (mut lo, mut hi) = (0usize, runs.len());
        let (mut cycles, mut refs) = (0u64, 0u64);
        loop {
            assert!(lo < hi, "populated");
            let mid = (lo + hi) / 2;
            let (_, c) = hier.access(self.table.desc_pa(mid));
            cycles += c;
            refs += 1;
            let r = runs[mid];
            if va.raw() < r.base.raw() {
                hi = mid;
            } else if va.raw() >= r.base.raw() + r.len {
                lo = mid + 1;
            } else {
                if self.cache.len() == SEG_CACHE_WAYS {
                    self.cache.remove(0);
                }
                self.cache.push(mid);
                return (r, cycles, refs);
            }
        }
    }

    fn flush(&mut self) {
        self.cache.clear();
    }
}

/// Segment-cache probe, then a charged base+bound table search.
pub struct NativeSeg {
    seg: SegTable,
}

impl NativeSeg {
    /// A plain (non-TEA) process.
    pub const SPEC: NativeSpec = NativeSpec { dmt_managed: false };

    pub(crate) fn build(m: &mut NativeMachine, setup: &Setup) -> Result<Self, SimError> {
        let runs = merge_contiguous_runs(collect_mappings(&setup.pages, |va| {
            m.proc_.page_table().translate(&m.pm, va)
        })?);
        let table = BlockTable::new(&mut m.pm, runs)?;
        Ok(NativeSeg {
            seg: SegTable::new(table),
        })
    }
}

impl Translator<NativeMachine> for NativeSeg {
    fn translate(
        &mut self,
        _m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let (run, cycles, refs) = self.seg.resolve(va, hier);
        Translation {
            pa: run.pa_of(va),
            size: run.size,
            cycles,
            refs,
            fallback: false,
            unit: Some(run.unit()),
        }
    }

    fn flush_caches(&mut self) {
        self.seg.flush();
    }
}

/// Guest segment resolve, then one host block-descriptor fetch.
pub struct VirtSeg {
    seg: SegTable,
    host: BlockTable,
}

impl VirtSeg {
    /// A plain guest: segment tables need no TEAs and no arena.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: None,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        m: &mut VirtMachine,
        setup: &Setup,
        _arena: Option<Arena>,
    ) -> Result<Self, SimError> {
        let (guest, host) = build_virt_tables(m, setup)?;
        Ok(VirtSeg {
            seg: SegTable::new(guest),
            host,
        })
    }
}

impl Translator<VirtMachine> for VirtSeg {
    fn translate(
        &mut self,
        _m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let (grun, gcycles, grefs) = self.seg.resolve(va, hier);
        let (hpa, hcycles) = host_resolve(&self.host, grun.pa_of(va), hier);
        Translation {
            pa: hpa,
            size: grun.size,
            cycles: gcycles + hcycles,
            refs: grefs + 1,
            fallback: false,
            unit: Some(grun.unit()),
        }
    }

    fn flush_caches(&mut self) {
        self.seg.flush();
    }
}
