//! Ablations of the design choices DESIGN.md calls out: register count,
//! clustering bubble threshold, register-selection policy, and eager TEA
//! allocation (covered in [`crate::overheads::memory_overhead`]).

use crate::error::SimError;
use crate::rig::{Design, Env, Setup};
use crate::runner::Runner;
use dmt_core::regfile::DMT_REGISTER_COUNT;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::{PageSize, Pfn, VirtAddr};
use dmt_os::mapping::cluster_spans;
use dmt_workloads::gen::Workload;
use dmt_workloads::vma_profile::VmaLayout;

/// Coverage of page-walk requests as a function of register count.
#[derive(Debug, Clone, Copy)]
pub struct RegisterCoverage {
    /// Registers available.
    pub registers: usize,
    /// Fraction of trace accesses covered by the loaded mappings.
    pub coverage: f64,
}

/// Sweep register counts for a workload: cluster its VMA spans (2%
/// bubbles), load the largest `n` clusters, and measure what fraction of
/// a trace the registers cover. This is the §2.3/§6.1 "99+% of requests
/// served by the DMT fetcher" claim as a function of the paper's
/// 16-register choice.
pub fn register_sweep(
    w: &dyn Workload,
    counts: &[usize],
    trace_len: usize,
) -> Vec<RegisterCoverage> {
    let mut spans: Vec<(u64, u64)> = w.regions().iter().map(|r| (r.base.raw(), r.len)).collect();
    spans.sort_unstable();
    let clusters = cluster_spans(&spans, 0.02);
    // Largest clusters first → mappings.
    let mut sized: Vec<_> = clusters.iter().collect();
    sized.sort_by_key(|c| std::cmp::Reverse(c.span));
    let mappings: Vec<VmaTeaMapping> = sized
        .iter()
        .map(|c| VmaTeaMapping::new(VirtAddr(c.base), c.span, PageSize::Size4K, Pfn(0)))
        .collect();
    let trace = w.trace(trace_len, 0xAB1A);
    counts
        .iter()
        .map(|&n| {
            let loaded = &mappings[..n.min(mappings.len())];
            let covered = trace
                .iter()
                .filter(|a| loaded.iter().any(|m| m.covers(a.va)))
                .count();
            RegisterCoverage {
                registers: n,
                coverage: covered as f64 / trace.len().max(1) as f64,
            }
        })
        .collect()
}

/// Clustering outcome at one bubble threshold.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdPoint {
    /// The threshold `t`.
    pub threshold: f64,
    /// Resulting cluster count.
    pub clusters: usize,
    /// Wasted TEA bytes from bubbles (8 bytes per bubbled 4 KiB page).
    pub wasted_tea_bytes: u64,
    /// Clusters needed in 16 registers to cover 99% of mapped bytes.
    pub registers_for_99: usize,
}

/// Sweep the bubble threshold over a VMA layout (the §4.2.1 `t = 2%`
/// choice): smaller `t` → more clusters (worse register coverage);
/// larger `t` → more TEA bytes wasted on bubbles.
pub fn threshold_sweep(layout: &VmaLayout, thresholds: &[f64]) -> Vec<ThresholdPoint> {
    let total: u64 = layout.spans.iter().map(|(_, l)| l).sum();
    thresholds
        .iter()
        .map(|&t| {
            let clusters = cluster_spans(&layout.spans, t);
            let wasted: u64 = clusters.iter().map(|c| (c.bubbles >> 12) * 8).sum();
            let mut sizes: Vec<u64> = clusters.iter().map(|c| c.span - c.bubbles).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let target = (total as f64 * 0.99).ceil() as u64;
            let mut covered = 0;
            let mut needed = sizes.len();
            for (i, s) in sizes.iter().enumerate() {
                covered += s;
                if covered >= target {
                    needed = i + 1;
                    break;
                }
            }
            ThresholdPoint {
                threshold: t,
                clusters: clusters.len(),
                wasted_tea_bytes: wasted,
                registers_for_99: needed,
            }
        })
        .collect()
}

/// Largest-first vs hottest-first register policy comparison (§4.2).
#[derive(Debug, Clone, Copy)]
pub struct PolicyComparison {
    /// Coverage of *TLB-missing* accesses with largest-VMA-first.
    pub largest_first: f64,
    /// Coverage with hottest-VMA-first (by access count).
    pub hottest_first: f64,
}

/// Compare the two policies on a workload with more VMAs than registers.
/// The paper argues large VMAs cause the misses while hot small VMAs
/// (libraries, stack) rarely miss — so ranking by heat wastes registers.
pub fn policy_comparison(w: &dyn Workload, trace_len: usize) -> PolicyComparison {
    use dmt_cache::tlb::Tlb;
    let spans: Vec<(u64, u64)> = w.regions().iter().map(|r| (r.base.raw(), r.len)).collect();
    let trace = w.trace(trace_len, 0x90_11C);
    // Heat is what a naive policy sees: raw access counts per VMA.
    let heat: Vec<u64> = spans
        .iter()
        .map(|(b, l)| {
            trace
                .iter()
                .filter(|a| a.va.raw() >= *b && a.va.raw() < b + l)
                .count() as u64
        })
        .collect();
    // Registers only matter on TLB misses: filter the trace through a
    // TLB and keep the missing addresses (the paper's point — hot small
    // VMAs rarely miss).
    let mut tlb = Tlb::default();
    let trace: Vec<dmt_workloads::gen::Access> = trace
        .into_iter()
        .filter(|a| {
            let miss = tlb.lookup_any(a.va).is_none();
            if miss {
                tlb.fill(a.va, PageSize::Size4K);
            }
            miss
        })
        .collect();
    let mapping = |idx: usize| {
        VmaTeaMapping::new(
            VirtAddr(spans[idx].0),
            spans[idx].1,
            PageSize::Size4K,
            Pfn(0),
        )
    };
    let coverage = |order: Vec<usize>| {
        let loaded: Vec<VmaTeaMapping> = order
            .into_iter()
            .take(DMT_REGISTER_COUNT)
            .map(mapping)
            .collect();
        trace
            .iter()
            .filter(|a| loaded.iter().any(|m| m.covers(a.va)))
            .count() as f64
            / trace.len().max(1) as f64
    };
    let mut by_size: Vec<usize> = (0..spans.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(spans[i].1));
    let mut by_heat: Vec<usize> = (0..spans.len()).collect();
    by_heat.sort_by_key(|&i| std::cmp::Reverse(heat[i]));
    PolicyComparison {
        largest_first: coverage(by_size),
        hottest_first: coverage(by_heat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_workloads::bench7::{Gups, Memcached};
    use dmt_workloads::vma_profile::benchmark_layouts;

    #[test]
    fn sixteen_registers_cover_everything_for_single_heap() {
        let w = Gups {
            table_bytes: 32 << 20,
        };
        let sweep = register_sweep(&w, &[1, 16], 5_000);
        assert!(sweep[0].coverage > 0.999);
        assert!(sweep[1].coverage > 0.999);
    }

    #[test]
    fn memcached_needs_clustering_but_16_suffice() {
        let w = Memcached::default();
        let sweep = register_sweep(&w, &[1, 2, 16], 10_000);
        // One cluster (the slab belt) covers most but not the hashtable.
        assert!(sweep[2].coverage > 0.99, "16: {}", sweep[2].coverage);
        assert!(sweep[0].coverage < sweep[2].coverage);
    }

    #[test]
    fn threshold_tradeoff_is_monotone() {
        let layout = benchmark_layouts()
            .into_iter()
            .find(|l| l.name == "Memcached")
            .unwrap();
        let pts = threshold_sweep(&layout, &[0.0, 0.005, 0.02, 0.10]);
        for w in pts.windows(2) {
            assert!(w[0].clusters >= w[1].clusters, "clusters shrink with t");
            assert!(
                w[0].wasted_tea_bytes <= w[1].wasted_tea_bytes,
                "waste grows with t"
            );
        }
        // At the paper's 2%, 16 registers are enough.
        assert!(pts[2].registers_for_99 <= 16);
        // At zero threshold they are not (778 slab VMAs).
        assert!(pts[0].registers_for_99 > 16);
    }

    /// A synthetic process with many hot-but-tiny VMAs (libraries) and a
    /// few big cold ones — the shape where the policies disagree.
    struct LibsAndHeaps;

    impl Workload for LibsAndHeaps {
        fn name(&self) -> &'static str {
            "libs-and-heaps"
        }
        fn regions(&self) -> Vec<dmt_workloads::gen::Region> {
            let mut v = Vec::new();
            for i in 0..4u64 {
                v.push(dmt_workloads::gen::Region {
                    base: VirtAddr(0x10_0000_0000 + i * (1 << 32)),
                    len: 32 << 20,
                    label: "heap",
                });
            }
            for i in 0..20u64 {
                // Staggered bases so lib pages spread across TLB sets
                // (1 GiB strides would alias pathologically).
                v.push(dmt_workloads::gen::Region {
                    base: VirtAddr(0x7f00_0000_0000 + i * (1 << 30) + i * 37 * 4096),
                    len: 64 << 10,
                    label: "lib",
                });
            }
            v
        }
        fn generate(
            &self,
            n: usize,
            rng: &mut rand::rngs::SmallRng,
            out: &mut Vec<dmt_workloads::gen::Access>,
        ) {
            use rand::Rng;
            for _ in 0..n {
                if rng.gen_bool(0.9) {
                    // Hot tiny libs: always TLB-resident.
                    let lib = rng.gen_range(0..20u64);
                    let off = rng.gen_range(0..16u64) * 4096;
                    out.push(dmt_workloads::gen::Access::read(VirtAddr(
                        0x7f00_0000_0000 + lib * (1 << 30) + lib * 37 * 4096 + off,
                    )));
                } else {
                    let heap = rng.gen_range(0..4u64);
                    let off = rng.gen_range(0..(32u64 << 20) / 8) * 8;
                    out.push(dmt_workloads::gen::Access::read(VirtAddr(
                        0x10_0000_0000 + heap * (1 << 32) + off,
                    )));
                }
            }
        }
    }

    #[test]
    fn largest_first_beats_hottest_first_on_miss_coverage() {
        let c = policy_comparison(&LibsAndHeaps, 30_000);
        assert!(
            c.largest_first > c.hottest_first,
            "largest {} !> hottest {}",
            c.largest_first,
            c.hottest_first
        );
        assert!(c.largest_first > 0.8, "large VMAs cause the misses");
    }

    #[test]
    fn policies_tie_when_registers_suffice() {
        let w = Memcached::default();
        let c = policy_comparison(&w, 10_000);
        // Memcached's slab VMAs all matter; both policies land close.
        assert!(
            (c.largest_first - c.hottest_first).abs() < 0.3,
            "largest {} vs hottest {}",
            c.largest_first,
            c.hottest_first
        );
    }
}

/// Vanilla walk latency as a function of PWC size — why direct fetching
/// matters: even generous page-walk caches cannot cover big footprints.
#[derive(Debug, Clone, Copy)]
pub struct PwcPoint {
    /// L2-entry PWC capacity.
    pub l2_entries: u64,
    /// Average native walk latency in cycles.
    pub avg_walk_cycles: f64,
}

/// Sweep the PWC's L2-entry capacity for a GUPS-style native workload:
/// one vanilla rig, replayed by `runner` once per size with a fresh
/// page-walk cache of that size swapped in (all accesses measured).
///
/// # Errors
///
/// Propagates setup failures.
pub fn pwc_sweep(
    runner: &Runner,
    footprint: u64,
    entries: &[u64],
    trace_len: usize,
) -> Result<Vec<PwcPoint>, SimError> {
    use dmt_cache::pwc::{PageWalkCache, PwcConfig};
    use dmt_workloads::bench7::Gups;

    let w = Gups {
        table_bytes: footprint,
    };
    let trace = w.trace(trace_len, 0x9c5);
    let setup = Setup::of_workload(&w, &trace);
    let mut rig = runner.build_rig(Env::Native, Design::Vanilla, false, &setup)?;
    entries
        .iter()
        .map(|&n| {
            let mut pwc = PageWalkCache::new(PwcConfig {
                l2_entries: n,
                ..PwcConfig::default()
            });
            rig.swap_pwc(&mut pwc);
            let (stats, _) = runner.replay(rig.as_mut(), &trace, 0);
            Ok(PwcPoint {
                l2_entries: n,
                avg_walk_cycles: stats.avg_walk_latency(),
            })
        })
        .collect()
}
