//! VBI-style block translation: variable-size translation units in
//! place of the radix walk (beyond-the-paper design, DESIGN.md §15).
//!
//! Setup merges the touched leaf mappings into maximal PA-contiguous
//! `ContigRun`s and writes one 16-byte block descriptor per run into
//! a flat table in physical memory. A translation locates its run's
//! descriptor associatively (by block ID, free in this model) and pays
//! exactly one descriptor fetch through the hierarchy — no radix walk,
//! no intermediate levels. The descriptor's answer is the radix ground
//! truth by construction (`pa = pa_base + (va - base)`), and the
//! returned [`Translation::unit`] lets the TLB cache the whole block
//! with a single variable-reach entry.
//!
//! The descriptors' PA is the data PA the default engine charges
//! (DESIGN.md §13); a miss allocates nothing.

use super::{
    collect_mappings, find_run, merge_contiguous_runs, Arena, ContigRun, NativeMachine, NativeSpec,
    Translator, VirtSpec,
};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PhysAddr, PhysMemory, VirtAddr};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// Bytes per block descriptor (base, bound, target — one line fetch).
const DESC_BYTES: u64 = 16;

/// A flat descriptor table living in host physical memory: one entry
/// per [`ContigRun`], fetched through the hierarchy per lookup.
pub(crate) struct BlockTable {
    runs: Vec<ContigRun>,
    base: PhysAddr,
}

impl BlockTable {
    /// Carve the table out of physical memory and fill it from `runs`.
    pub(crate) fn new(pm: &mut PhysMemory, runs: Vec<ContigRun>) -> Result<BlockTable, SimError> {
        let frames = ((runs.len() as u64 * DESC_BYTES) >> 12) + 1;
        let pfn = pm
            .alloc_contig(frames, FrameKind::PageTable)
            .map_err(SimError::setup)?;
        Ok(BlockTable {
            runs,
            base: PhysAddr(pfn.0 << 12),
        })
    }

    /// PA of descriptor `i` — where a lookup's fetch is charged.
    pub(crate) fn desc_pa(&self, i: usize) -> u64 {
        self.base.raw() + i as u64 * DESC_BYTES
    }

    /// The run covering `va`, with one descriptor fetch charged.
    pub(crate) fn fetch(&self, va: VirtAddr, hier: &mut MemoryHierarchy) -> (ContigRun, u64) {
        let i = find_run(&self.runs, va).expect("populated");
        let (_, cycles) = hier.access(self.desc_pa(i));
        (self.runs[i], cycles)
    }

    pub(crate) fn runs(&self) -> &[ContigRun] {
        &self.runs
    }
}

/// Guest-dimension (gVA→gPA) and host-dimension (gPA→hPA) block
/// tables for a virtualized machine — shared with the Seg backend's
/// host dimension.
pub(crate) fn build_virt_tables(
    m: &mut VirtMachine,
    setup: &Setup,
) -> Result<(BlockTable, BlockTable), SimError> {
    let view = m.vm.guest_view_ref(&m.pm);
    let guest_runs = merge_contiguous_runs(collect_mappings(&setup.pages, |va| {
        m.gpt.translate(&view, va)
    })?);
    let host_runs = merge_contiguous_runs(
        m.vm.backed_chunks()
            .into_iter()
            .map(|(gpa, hpa, size)| (VirtAddr(gpa.raw()), hpa, size))
            .collect(),
    );
    let guest = BlockTable::new(&mut m.pm, guest_runs)?;
    let host = BlockTable::new(&mut m.pm, host_runs)?;
    Ok((guest, host))
}

/// Resolve a guest-dimension answer through the host block table: one
/// more descriptor fetch, then the exact host PA inside the host run.
pub(crate) fn host_resolve(
    host: &BlockTable,
    gpa: PhysAddr,
    hier: &mut MemoryHierarchy,
) -> (PhysAddr, u64) {
    let (run, cycles) = host.fetch(VirtAddr(gpa.raw()), hier);
    (run.pa_of(VirtAddr(gpa.raw())), cycles)
}

/// Single block-descriptor fetch against the host table.
pub struct NativeVbi {
    table: BlockTable,
}

impl NativeVbi {
    /// A plain (non-TEA) process.
    pub const SPEC: NativeSpec = NativeSpec { dmt_managed: false };

    pub(crate) fn build(m: &mut NativeMachine, setup: &Setup) -> Result<Self, SimError> {
        let runs = merge_contiguous_runs(collect_mappings(&setup.pages, |va| {
            m.proc_.page_table().translate(&m.pm, va)
        })?);
        let table = BlockTable::new(&mut m.pm, runs)?;
        Ok(NativeVbi { table })
    }
}

impl Translator<NativeMachine> for NativeVbi {
    fn translate(
        &mut self,
        _m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let (run, cycles) = self.table.fetch(va, hier);
        Translation {
            pa: run.pa_of(va),
            size: run.size,
            cycles,
            refs: 1,
            fallback: false,
            unit: Some(run.unit()),
        }
    }
}

/// Guest block fetch, then host block fetch: two descriptor fetches
/// replace the 24-step 2D walk.
pub struct VirtVbi {
    guest: BlockTable,
    host: BlockTable,
}

impl VirtVbi {
    /// A plain guest: block tables need no TEAs and no arena.
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
        Ok(VirtVbi { guest, host })
    }
}

impl Translator<VirtMachine> for VirtVbi {
    fn translate(
        &mut self,
        _m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let (grun, gcycles) = self.guest.fetch(va, hier);
        let gpa = grun.pa_of(va);
        let (hpa, hcycles) = host_resolve(&self.host, gpa, hier);
        Translation {
            pa: hpa,
            size: grun.size,
            cycles: gcycles + hcycles,
            refs: 2,
            fallback: false,
            unit: Some(grun.unit()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::PageSize;

    fn run(base: u64, len: u64, pa: u64) -> ContigRun {
        ContigRun {
            base: VirtAddr(base),
            len,
            pa_base: PhysAddr(pa),
            size: PageSize::Size4K,
        }
    }

    #[test]
    fn runs_merge_only_when_va_and_pa_are_both_contiguous() {
        let k = PageSize::Size4K;
        let runs = merge_contiguous_runs(vec![
            (VirtAddr(0x1000), PhysAddr(0x8000), k),
            (VirtAddr(0x2000), PhysAddr(0x9000), k), // merges
            (VirtAddr(0x3000), PhysAddr(0xf000), k), // PA gap: new run
            (VirtAddr(0x9000), PhysAddr(0x10000), k), // VA gap: new run
        ]);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].len, 0x2000);
        assert_eq!(runs[0].pa_of(VirtAddr(0x2fff)), PhysAddr(0x9fff));
        assert_eq!(runs[1].len, 0x1000);
        assert_eq!(runs[2].base, VirtAddr(0x9000));
    }

    #[test]
    fn find_run_hits_interior_bytes_and_rejects_gaps() {
        let runs = vec![run(0x1000, 0x2000, 0x8000), run(0x9000, 0x1000, 0x20000)];
        assert_eq!(find_run(&runs, VirtAddr(0x1000)), Some(0));
        assert_eq!(find_run(&runs, VirtAddr(0x2fff)), Some(0));
        assert_eq!(find_run(&runs, VirtAddr(0x3000)), None);
        assert_eq!(find_run(&runs, VirtAddr(0x9abc)), Some(1));
        assert_eq!(find_run(&runs, VirtAddr(0xa000)), None);
        assert_eq!(find_run(&runs, VirtAddr(0)), None);
    }

    #[test]
    fn mixed_size_mappings_never_merge_across_sizes() {
        let runs = merge_contiguous_runs(vec![
            (VirtAddr(0x20_0000), PhysAddr(0x20_0000), PageSize::Size2M),
            (VirtAddr(0x40_0000), PhysAddr(0x40_0000), PageSize::Size4K),
        ]);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].size, PageSize::Size2M);
        assert_eq!(runs[0].len, 2 << 20);
    }
}
