//! The §6.3 overhead experiments: TEA-management time under heavy
//! fragmentation, hypercall latency vs TEA size, and page-table memory
//! overhead.

use dmt_core::gtea::GteaTable;
use dmt_mem::buddy::FrameKind;
use dmt_mem::frag::{fragmentation_index, Fragmenter};
use dmt_mem::{PageSize, PhysMemory, VirtAddr};
use dmt_os::proc::{Process, ThpMode};
use dmt_os::vma::VmaKind;
use dmt_virt::hypercall::{
    kvm_hc_alloc_tea, HypercallStats, TeaRequest, HYPERCALL_BASE_CYCLES,
    NESTED_HYPERCALL_BASE_CYCLES,
};
use dmt_virt::Vm;
use std::time::{Duration, Instant};

/// TEA-management cost on a heavily fragmented machine (the paper's
/// 0.99-FMFI run of Redis-style mmaps).
#[derive(Debug, Clone, Copy)]
pub struct MgmtOverhead {
    /// Fragmentation index reached before the run.
    pub frag_index: f64,
    /// Wall-clock time of all mapping-management work.
    pub mgmt_time: Duration,
    /// TEAs created / splits forced by fragmentation.
    pub teas_created: u64,
    /// Mapping manager ended with this many mappings (splits included).
    pub mappings: usize,
    /// Data pages moved by defragmentation on TEAs' behalf.
    pub defrag_moves: u64,
}

/// Run the management-overhead experiment: fragment memory to ~0.99
/// FMFI, then mmap `vma_mb` MiB worth of VMAs and measure the management
/// time (TEA allocation, compaction, splitting, table installs).
///
/// # Errors
///
/// Propagates setup failures.
pub fn management_overhead(vma_mb: u64) -> Result<MgmtOverhead, crate::error::SimError> {
    let mut pm = PhysMemory::new_bytes((vma_mb * 3).max(512) << 20);
    let mut frag = Fragmenter::new();
    frag.fragment(pm.buddy_mut(), 0.30)
        .map_err(|e| e.to_string())?;
    let idx = fragmentation_index(pm.buddy(), 9);

    let mut proc_ = Process::new(&mut pm, ThpMode::Never).map_err(|e| e.to_string())?;
    let start = Instant::now();
    // A handful of Redis-style VMAs.
    let n = 6u64;
    for i in 0..n {
        proc_
            .mmap(
                &mut pm,
                VirtAddr(0x10_0000_0000 + i * (64 << 30)),
                (vma_mb / n).max(2) << 20,
                VmaKind::Heap,
            )
            .map_err(|e| format!("mmap {i}: {e}"))?;
    }
    let mgmt_time = start.elapsed();
    let stats = proc_.tea_manager().stats();
    Ok(MgmtOverhead {
        frag_index: idx,
        mgmt_time,
        teas_created: stats.created,
        mappings: proc_.mappings().len(),
        defrag_moves: stats.defrag_page_moves,
    })
}

/// One hypercall-latency measurement (the paper's 50/100/200 MB TEAs).
#[derive(Debug, Clone, Copy)]
pub struct HypercallCost {
    /// Requested TEA size in MiB (of *covered VMA*; the TEA itself is
    /// 1/512 of it).
    pub tea_mb: u64,
    /// Wall-clock allocation time (the 13–55 ms figures of §6.3 were
    /// dominated by memory allocation; ours measures the same work in
    /// the simulator).
    pub alloc_time: Duration,
    /// Modeled fixed exit cost in cycles (1.88 µs single / 10.75 µs
    /// nested at 2 GHz).
    pub exit_cycles: u64,
    /// Grants returned.
    pub grants: usize,
}

/// Measure `KVM_HC_ALLOC_TEA` for TEAs covering the given VMA sizes.
///
/// # Errors
///
/// Propagates setup failures.
pub fn hypercall_overhead(
    tea_mbs: &[u64],
    nested: bool,
) -> Result<Vec<HypercallCost>, crate::error::SimError> {
    let mut out = Vec::new();
    for &mb in tea_mbs {
        // The TEA itself is VMA/512; size the machine accordingly.
        let tea_bytes = (mb << 20) / 512;
        let mut pm = PhysMemory::new_bytes(tea_bytes * 4 + (128 << 20));
        let mut vm = Vm::new(&mut pm, 32 << 20, PageSize::Size4K).map_err(|e| e.to_string())?;
        let mut table = GteaTable::new();
        let mut stats = HypercallStats::default();
        let start = Instant::now();
        let grants = kvm_hc_alloc_tea(
            &mut pm,
            &mut vm,
            &mut table,
            &[TeaRequest {
                base: VirtAddr(0x10_0000_0000),
                len: mb << 20,
                size: PageSize::Size4K,
            }],
            &mut stats,
        )
        .map_err(|e| e.to_string())?;
        out.push(HypercallCost {
            tea_mb: mb,
            alloc_time: start.elapsed(),
            exit_cycles: if nested {
                NESTED_HYPERCALL_BASE_CYCLES
            } else {
                HYPERCALL_BASE_CYCLES
            },
            grants: grants.len(),
        });
    }
    Ok(out)
}

/// Page-table memory comparison (the paper's 247.2 MB vs 241.3 MB).
#[derive(Debug, Clone, Copy)]
pub struct MemoryOverhead {
    /// Bytes of translation structures under DMT (TEAs + upper tables).
    pub dmt_bytes: u64,
    /// Bytes under vanilla Linux (scattered table pages).
    pub vanilla_bytes: u64,
}

impl MemoryOverhead {
    /// DMT's extra space as a fraction of vanilla (paper: < 2.5%).
    pub fn extra_fraction(&self) -> f64 {
        if self.vanilla_bytes == 0 {
            0.0
        } else {
            self.dmt_bytes as f64 / self.vanilla_bytes as f64 - 1.0
        }
    }
}

/// Measure translation-structure memory for a partially-populated VMA
/// (eager TEAs vs lazy table pages): `mapped_mb` of VMA with
/// `touched_percent` of its pages populated.
///
/// # Errors
///
/// Propagates setup failures.
pub fn memory_overhead(
    mapped_mb: u64,
    touched_percent: u64,
) -> Result<MemoryOverhead, crate::error::SimError> {
    let measure = |dmt: bool| -> Result<u64, crate::error::SimError> {
        let mut pm = PhysMemory::new_bytes((mapped_mb * 3) << 20);
        let mut proc_ = if dmt {
            Process::new(&mut pm, ThpMode::Never)
        } else {
            Process::new_vanilla(&mut pm, ThpMode::Never)
        }
        .map_err(|e| e.to_string())?;
        let base = VirtAddr(0x10_0000_0000);
        proc_
            .mmap(&mut pm, base, mapped_mb << 20, VmaKind::Heap)
            .map_err(|e| e.to_string())?;
        proc_
            .populate_range(&mut pm, base, (mapped_mb << 20) * touched_percent / 100)
            .map_err(|e| e.to_string())?;
        Ok(pm.bytes_of_kind(FrameKind::Tea) + pm.bytes_of_kind(FrameKind::PageTable))
    };
    Ok(MemoryOverhead {
        dmt_bytes: measure(true)?,
        vanilla_bytes: measure(false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn management_survives_heavy_fragmentation() {
        let o = management_overhead(64).unwrap();
        assert!(o.frag_index > 0.99, "index {}", o.frag_index);
        assert!(o.teas_created > 0);
        // Fragmentation forces compaction and/or splitting but mapping
        // creation still succeeds.
        assert!(o.mappings >= 6);
        assert!(o.defrag_moves > 0, "compaction had to move pages");
    }

    #[test]
    fn hypercall_alloc_scales_with_tea_size() {
        let costs = hypercall_overhead(&[50, 100, 200], false).unwrap();
        assert_eq!(costs.len(), 3);
        for c in &costs {
            assert!(c.grants >= 1);
            assert_eq!(c.exit_cycles, HYPERCALL_BASE_CYCLES);
        }
        // Nested exits are pricier.
        let nested = hypercall_overhead(&[50], true).unwrap();
        assert!(nested[0].exit_cycles > costs[0].exit_cycles);
    }

    #[test]
    fn fully_touched_memory_overhead_is_small() {
        let o = memory_overhead(256, 100).unwrap();
        // Paper: DMT's extra page-table space is < 2.5%.
        assert!(
            o.extra_fraction() < 0.025 && o.extra_fraction() > -0.025,
            "extra {:.4}",
            o.extra_fraction()
        );
    }

    #[test]
    fn sparse_touch_shows_eager_allocation_cost() {
        // mmap 256 MiB, touch 5%: eager TEAs pay for the whole VMA.
        let o = memory_overhead(256, 5).unwrap();
        assert!(
            o.dmt_bytes > o.vanilla_bytes,
            "eager {} !> lazy {}",
            o.dmt_bytes,
            o.vanilla_bytes
        );
    }
}
