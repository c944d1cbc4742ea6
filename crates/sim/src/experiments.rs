//! One runner per table/figure of the paper's evaluation (§6).
//!
//! Each function builds the rigs, drives the engine, applies the §5
//! performance model, and returns structured rows; the examples
//! (`paper_figures` prints all of them) render them via
//! [`crate::report`].

use crate::engine::RunStats;
use crate::error::SimError;
use crate::perfmodel::{app_speedup, calib_for, exit_ratio, geomean};
use crate::rig::{Design, Env, Rig};
use crate::runner::Runner;
use crate::virt_rig::VirtRig;
use dmt_workloads::bench7::Redis;
use dmt_workloads::gen::Workload;

/// Workload scaling for the experiments: footprints are divided by
/// `div` (relative to the already-scaled defaults in `dmt-workloads`)
/// and traces truncated, so the full figure sweeps run in minutes while
/// footprints still dwarf TLB/PWC/LLC reach.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Footprint multiplier for 4 KiB runs over the ~256 MiB workload
    /// defaults. The paper's regime (MMU caches cover a sliver of the
    /// footprint) needs multi-GiB spreads; with lazy backing and sparse
    /// population only the trace's pages are materialized, so this is
    /// cheap.
    pub mult4k: u64,
    /// Footprint multiplier for THP runs: 2 MiB pages need multi-GiB
    /// footprints to exceed the 1536-entry STLB's 3 GiB reach.
    pub thp_mult: u64,
    /// Measured accesses per run.
    pub trace: usize,
    /// Warmup accesses per run.
    pub warmup: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            mult4k: 64,  // ~16 GiB
            thp_mult: 32, // ~8 GiB
            trace: 400_000,
            warmup: 100_000,
        }
    }
}

impl Scale {
    /// A smaller scale for integration tests.
    pub fn test() -> Self {
        Scale {
            mult4k: 32,
            thp_mult: 16,
            trace: 8_000,
            warmup: 2_000,
        }
    }

    /// Total trace length.
    pub fn total(&self) -> usize {
        self.trace + self.warmup
    }
}

/// Benchmark `i` (paper order) at the given scale and page-size mode,
/// constructed alone — sweep jobs use this instead of building all
/// seven workloads just to index one. `None` when `i` is out of range.
pub fn scaled_benchmark(i: usize, scale: Scale, thp: bool) -> Option<Box<dyn Workload>> {
    let f = if thp { scale.thp_mult } else { scale.mult4k };
    dmt_workloads::bench7::nth_benchmark(i, f)
}

/// The seven benchmarks at the given scale and page-size mode, in the
/// paper's order.
pub fn scaled_benchmarks(scale: Scale, thp: bool) -> Vec<Box<dyn Workload>> {
    (0..dmt_workloads::bench7::BENCH7_COUNT)
        .map(|i| scaled_benchmark(i, scale, thp).expect("suite indices are in range"))
        .collect()
}

/// One (workload, design) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Design.
    pub design: Design,
    /// Environment.
    pub env: Env,
    /// THP active.
    pub thp: bool,
    /// Engine statistics.
    pub stats: RunStats,
    /// DMT fetcher coverage (1.0 for non-DMT designs).
    pub coverage: f64,
    /// Telemetry recorded during the run (`DMT_TELEMETRY=1` or an
    /// explicit `RunnerBuilder::telemetry(true)`; `None` otherwise).
    pub telemetry: Option<dmt_telemetry::Telemetry>,
}

/// A function wrapping a boxed rig in another (e.g. the oracle's
/// `Checked` adapter).
pub type RigWrapper = fn(Box<dyn Rig>) -> Box<dyn Rig>;

/// Run one (env, design, thp, workload) configuration with the
/// environment-configured [`Runner`] — the figure runners' shorthand
/// for `Runner::from_env().run_one(...)`.
///
/// # Errors
///
/// Propagates rig construction failures.
pub(crate) fn run_one(
    env: Env,
    design: Design,
    thp: bool,
    w: &dyn Workload,
    scale: Scale,
) -> Result<Measurement, SimError> {
    Runner::from_env().run_one(env, design, thp, w, scale)
}

/// One speedup row of Figures 14/15/17.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Design.
    pub design: Design,
    /// Page-walk speedup over the environment's vanilla baseline.
    pub pw_speedup: f64,
    /// Application speedup (the §5 model).
    pub app_speedup: f64,
    /// DMT fetcher coverage.
    pub coverage: f64,
}

/// Compare a design measurement against the vanilla baseline of the same
/// (workload, env, thp), applying the exit model.
pub fn speedup_row(base: &Measurement, m: &Measurement) -> SpeedupRow {
    let calib = calib_for(&m.workload);
    let pw = if m.stats.avg_walk_latency() > 0.0 {
        base.stats.avg_walk_latency() / m.stats.avg_walk_latency()
    } else {
        1.0
    };
    let walk_ratio = if base.stats.walk_cycles > 0 {
        m.stats.walk_cycles as f64 / base.stats.walk_cycles as f64
    } else {
        1.0
    };
    let er = exit_ratio(m.design, m.stats.exits, m.stats.faults.max(1));
    // The environments' baselines pin their own ratio in the registry
    // (vanilla virt exit-free, vanilla nested full shadow cost).
    let er = crate::registry::pinned_exit_ratio(m.design, m.env).unwrap_or(er);
    SpeedupRow {
        workload: m.workload.clone(),
        design: m.design,
        pw_speedup: pw,
        app_speedup: app_speedup(&calib, m.env, walk_ratio, er),
        coverage: m.coverage,
    }
}

/// A full figure: per-THP-mode, per-workload, per-design speedups plus
/// geometric means.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure label ("Figure 14" etc).
    pub label: &'static str,
    /// Environment.
    pub env: Env,
    /// (thp, rows) per page-size mode.
    pub modes: Vec<(bool, Vec<SpeedupRow>)>,
}

impl FigureData {
    /// Geomean page-walk / app speedup of a design in a mode.
    pub fn geomeans(&self, thp: bool, design: Design) -> Option<(f64, f64)> {
        let rows: Vec<&SpeedupRow> = self
            .modes
            .iter()
            .find(|(t, _)| *t == thp)?
            .1
            .iter()
            .filter(|r| r.design == design)
            .collect();
        if rows.is_empty() {
            return None;
        }
        Some((
            geomean(&rows.iter().map(|r| r.pw_speedup).collect::<Vec<_>>()),
            geomean(&rows.iter().map(|r| r.app_speedup).collect::<Vec<_>>()),
        ))
    }
}

fn figure(
    label: &'static str,
    env: Env,
    designs: &[Design],
    scale: Scale,
) -> Result<FigureData, SimError> {
    let mut modes = Vec::new();
    for thp in [false, true] {
        let mut rows = Vec::new();
        for w in scaled_benchmarks(scale, thp) {
            let base = run_one(env, Design::Vanilla, thp, w.as_ref(), scale)?;
            for &d in designs {
                let m = run_one(env, d, thp, w.as_ref(), scale)?;
                rows.push(speedup_row(&base, &m));
            }
        }
        modes.push((thp, rows));
    }
    Ok(FigureData { label, env, modes })
}

/// Figure 14: native speedups of FPT / ECPT / ASAP / DMT over vanilla
/// Linux, 4 KiB and THP.
///
/// # Errors
///
/// Propagates rig failures.
pub fn fig14(scale: Scale) -> Result<FigureData, SimError> {
    figure(
        "Figure 14 (native)",
        Env::Native,
        &[Design::Fpt, Design::Ecpt, Design::Asap, Design::Dmt],
        scale,
    )
}

/// Figure 15: virtualized speedups of FPT / ECPT / Agile / ASAP / DMT /
/// pvDMT over vanilla KVM.
///
/// # Errors
///
/// Propagates rig failures.
pub fn fig15(scale: Scale) -> Result<FigureData, SimError> {
    figure(
        "Figure 15 (virtualized)",
        Env::Virt,
        &[
            Design::Fpt,
            Design::Ecpt,
            Design::Agile,
            Design::Asap,
            Design::Dmt,
            Design::PvDmt,
        ],
        scale,
    )
}

/// Figure 17: nested-virtualization speedups of pvDMT over the shadow
/// baseline.
///
/// # Errors
///
/// Propagates rig failures.
pub fn fig17(scale: Scale) -> Result<FigureData, SimError> {
    figure(
        "Figure 17 (nested virtualization)",
        Env::Nested,
        &[Design::PvDmt],
        scale,
    )
}

/// Figure 4: normalized execution time of the four environments, with
/// page-walk fractions. Native / virtualized / nested baselines derive
/// from the calibration (the "measured" side of §5); the shadow-paging
/// column combines the calibration with the simulated sPT/nPT walk
/// ratio.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: String,
    /// (normalized time, page-walk fraction) per environment:
    /// native, virt-nPT, virt-sPT, nested.
    pub native: (f64, f64),
    /// Virtualized with nested paging.
    pub virt_npt: (f64, f64),
    /// Virtualized with shadow paging.
    pub virt_spt: (f64, f64),
    /// Nested virtualization.
    pub nested: (f64, f64),
}

/// Compute Figure 4.
///
/// # Errors
///
/// Propagates rig failures.
pub fn fig4(scale: Scale) -> Result<Vec<Fig4Row>, SimError> {
    let mut rows = Vec::new();
    for w in scaled_benchmarks(scale, false) {
        let calib = calib_for(w.name());
        let base = run_one(Env::Virt, Design::Vanilla, false, w.as_ref(), scale)?;
        let spt = run_one(Env::Virt, Design::Shadow, false, w.as_ref(), scale)?;
        let spt_ratio = if base.stats.walk_cycles > 0 {
            spt.stats.walk_cycles as f64 / base.stats.walk_cycles as f64
        } else {
            1.0
        };
        let ideal = 1.0 - calib.pw_native;
        let t_virt = ideal / (1.0 - calib.pw_virt);
        let t_spt = t_virt
            * crate::perfmodel::normalized_time(&calib, Env::Virt, spt_ratio, 1.0);
        let t_nested = ideal / (1.0 - calib.pw_nested - calib.shadow_exit_nested);
        rows.push(Fig4Row {
            workload: w.name().to_string(),
            native: (1.0, calib.pw_native),
            virt_npt: (t_virt, calib.pw_virt),
            virt_spt: (
                t_spt,
                calib.pw_virt * spt_ratio * t_virt / t_spt,
            ),
            nested: (t_nested, calib.pw_nested),
        });
    }
    Ok(rows)
}

/// Figure 16: per-step breakdown of the 2D walk (vanilla) and the
/// two/three pvDMT fetches, for one workload.
#[derive(Debug, Clone)]
pub struct Fig16Step {
    /// "gL3", "hL2", "pv-gPTE", ...
    pub label: String,
    /// Average cycles for this step.
    pub avg_cycles: f64,
    /// Share of the design's average walk latency.
    pub share: f64,
}

/// Compute Figure 16 for Redis (and optionally any workload index).
///
/// # Errors
///
/// Propagates rig failures.
pub fn fig16(thp: bool, scale: Scale) -> Result<(Vec<Fig16Step>, Vec<Fig16Step>), SimError> {
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_cache::tlb::Tlb;
    let w = Redis {
        records: (1 << 20) * if thp { scale.thp_mult } else { scale.mult4k },
        ..Redis::default()
    };
    let trace = w.trace(scale.total(), 0xF16);

    // Vanilla 2D walk, step-by-step.
    let mut rig = VirtRig::new(Design::Vanilla, thp, &w, &trace)?;
    let mut tlb = Tlb::default();
    let mut hier = MemoryHierarchy::default();
    let mut acc: std::collections::BTreeMap<(u8, u8), (u64, u64)> = Default::default();
    for (i, a) in trace.iter().enumerate() {
        if tlb.lookup_any(a.va).is_none() {
            let out = rig
                .machine_mut()
                .translate_nested(a.va, &mut hier)
                .map_err(SimError::setup)?;
            tlb.fill(a.va, out.guest_size);
            if i >= scale.warmup {
                for (idx, st) in out.steps.iter().enumerate() {
                    let dimcode = match st.dim {
                        dmt_pgtable::walk::WalkDim::Guest => 0u8,
                        _ => 1u8,
                    };
                    // Key by position within the walk (stable labeling).
                    let e = acc.entry((idx as u8, dimcode * 8 + st.level)).or_default();
                    e.0 += st.cycles;
                    e.1 += 1;
                }
            }
        }
        let pa = rig.data_pa(a.va);
        hier.access(pa.raw());
    }
    let total: f64 = acc.values().map(|(c, _)| *c as f64).sum();
    let vanilla: Vec<Fig16Step> = acc
        .iter()
        .map(|((idx, code), (cyc, n))| {
            let dim = if code / 8 == 0 { "g" } else { "h" };
            Fig16Step {
                label: format!("{:02}:{dim}L{}", idx, code % 8),
                avg_cycles: *cyc as f64 / (*n).max(1) as f64,
                share: *cyc as f64 / total.max(1.0),
            }
        })
        .collect();

    // pvDMT: two fetches.
    let mut rig = VirtRig::new(Design::PvDmt, thp, &w, &trace)?;
    let mut tlb = Tlb::default();
    let mut hier = MemoryHierarchy::default();
    let mut pv: Vec<(u64, u64)> = vec![(0, 0); 2];
    for (i, a) in trace.iter().enumerate() {
        if tlb.lookup_any(a.va).is_none() {
            if let Ok(out) = rig.machine_mut().translate_pvdmt(a.va, &mut hier) {
                tlb.fill(a.va, out.size);
                if i >= scale.warmup {
                    for (k, st) in out.steps.iter().enumerate().take(2) {
                        pv[k].0 += st.cycles;
                        pv[k].1 += 1;
                    }
                }
            }
        }
        let pa = rig.data_pa(a.va);
        hier.access(pa.raw());
    }
    let pv_total: f64 = pv.iter().map(|(c, _)| *c as f64).sum();
    let pvdmt = vec![
        Fig16Step {
            label: "pv:gPTE".to_string(),
            avg_cycles: pv[0].0 as f64 / pv[0].1.max(1) as f64,
            share: pv[0].0 as f64 / pv_total.max(1.0),
        },
        Fig16Step {
            label: "pv:hPTE".to_string(),
            avg_cycles: pv[1].0 as f64 / pv[1].1.max(1) as f64,
            share: pv[1].0 as f64 / pv_total.max(1.0),
        },
    ];
    Ok((vanilla, pvdmt))
}

/// Table 5: geomean page-walk speedups of DMT/pvDMT over the other
/// designs, from already-computed figure data.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// "Native (4KB)" etc.
    pub setting: String,
    /// (design, DMT-or-pvDMT speedup over it).
    pub over: Vec<(Design, f64)>,
}

/// Derive Table 5 from Figures 14 and 15.
pub fn table5(fig14: &FigureData, fig15: &FigureData) -> Vec<Table5Row> {
    let mut rows = Vec::new();
    for (label, fig, our, others) in [
        (
            "Native (4KB)",
            fig14,
            Design::Dmt,
            vec![Design::Fpt, Design::Ecpt, Design::Asap],
        ),
        (
            "Native (THP)",
            fig14,
            Design::Dmt,
            vec![Design::Fpt, Design::Ecpt, Design::Asap],
        ),
        (
            "Virtualized (4KB)",
            fig15,
            Design::PvDmt,
            vec![Design::Fpt, Design::Ecpt, Design::Agile, Design::Asap],
        ),
        (
            "Virtualized (THP)",
            fig15,
            Design::PvDmt,
            vec![Design::Fpt, Design::Ecpt, Design::Agile, Design::Asap],
        ),
    ] {
        let thp = label.contains("THP");
        let (our_pw, _) = match fig.geomeans(thp, our) {
            Some(v) => v,
            None => continue,
        };
        let over = others
            .into_iter()
            .filter_map(|d| fig.geomeans(thp, d).map(|(pw, _)| (d, our_pw / pw)))
            .collect();
        rows.push(Table5Row {
            setting: label.to_string(),
            over,
        });
    }
    rows
}

/// One Table 6 row: design plus its reference count per environment
/// (`None` = the design does not exist there).
pub type Table6Row = (Design, Option<u64>, Option<u64>, Option<u64>);

/// Table 6: sequential memory references per design per environment
/// (analytic worst case, matching the paper's table). The N/A cells are
/// *derived* from the registry — a cell shows its analytic count iff
/// the design has a backend registered for that environment, so
/// registering a new environment for a design surfaces its column here
/// with no table edit.
pub fn table6() -> Vec<Table6Row> {
    // Analytic worst-case counts per design; cells the registry has no
    // backend for (e.g. Agile's native column) carry the count the
    // design *would* have, and stay hidden until someone registers one.
    // Row order is the registry's presentation order — a new design
    // lands here by adding its registry row plus one match arm.
    let counts = |d: Design| match d {
        Design::Vanilla => (4, 24, 24),
        Design::Shadow => (4, 4, 24),
        Design::Fpt => (2, 8, 26),
        Design::Ecpt => (1, 3, 9),
        Design::Agile => (4, 24, 24), // virt is 4–24; worst case listed
        Design::Asap => (4, 24, 24),
        Design::Dmt => (1, 3, 9),
        Design::PvDmt => (1, 2, 3),
        // Beyond-the-paper block designs: one descriptor fetch per
        // dimension in steady state (Seg's cold search is log-depth,
        // amortized away by its segment cache).
        Design::Vbi => (1, 2, 3),
        Design::Seg => (1, 2, 3),
    };
    crate::registry::designs()
        .map(|d| {
            let (native, virt, nested) = counts(d);
            (
                d,
                d.available_in(Env::Native).then_some(native),
                d.available_in(Env::Virt).then_some(virt),
                d.available_in(Env::Nested).then_some(nested),
            )
        })
        .collect()
}

/// One "Table 7" row: a translation design evaluated at *node*
/// granularity — N tenants interleaved over one shared physical
/// memory, TLB, and page-walk cache, with kill/restart churn aging the
/// shared buddy allocator.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Environment every tenant of the node ran in.
    pub env: Env,
    /// Design under test.
    pub design: Design,
    /// Number of tenants on the node.
    pub tenants: usize,
    /// Node-level engine statistics (sum over tenants).
    pub node: RunStats,
    /// Node-wide average page-walk latency in cycles.
    pub avg_walk_latency: f64,
    /// Node-level page-walk speedup over the same-environment vanilla
    /// node (1.0 for the vanilla rows themselves).
    pub pw_speedup: f64,
    /// Scheduler switches between distinct tenants.
    pub context_switches: u64,
    /// Per-ASID flushes of the shared TLB/PWC on tenant churn.
    pub tagged_flushes: u64,
    /// Shootdown IPIs received by tenants that did not cause them.
    pub cross_tenant_shootdowns: u64,
    /// Fragmentation index of the shared buddy at end of run.
    pub frag_final: f64,
    /// Mean DMT fetcher coverage across tenants.
    pub coverage: f64,
    /// Node-level telemetry, when the runner captures it.
    pub telemetry: Option<dmt_telemetry::Telemetry>,
}

/// Table 7: the multi-tenant cloud-node comparison. For each
/// environment, every registry-available design runs an `n`-tenant
/// node (tenants cycle through the bench7 suite with skewed weights,
/// tagged translation caches, mild kill/restart churn) and is compared
/// against the same environment's vanilla node.
///
/// Row order: environments in `Native, Virt, Nested` order, designs in
/// registry presentation order ([`crate::registry::designs`]) with
/// unavailable cells skipped — vanilla first in each environment, so
/// the baseline row precedes the rows it normalizes.
///
/// # Errors
///
/// Propagates rig construction failures and shared-buddy audit
/// failures.
pub fn table7(scale: Scale, n: usize) -> Result<Vec<Table7Row>, SimError> {
    table7_with(&Runner::from_env(), scale, n)
}

/// [`table7`] against an explicit runner (tests inject telemetry and
/// oracle wrappers this way; `table7` itself uses the env-configured
/// runner).
///
/// # Errors
///
/// Propagates rig construction failures and shared-buddy audit
/// failures.
pub fn table7_with(runner: &Runner, scale: Scale, n: usize) -> Result<Vec<Table7Row>, SimError> {
    use crate::cloudnode::NodeConfig;
    // Every node sees the same churn: one kill per bench7 lap of
    // tenants, capped so restarted-trace replay stays bounded.
    let kills = n.div_ceil(2).min(4);
    let cfg = |design, env| {
        NodeConfig::uniform(design, env, false, scale, n).churn(2 * n.max(2), kills)
    };
    let mut rows = Vec::new();
    for env in [Env::Native, Env::Virt, Env::Nested] {
        let (base, base_t) = runner.run_node(&cfg(Design::Vanilla, env))?;
        let base_lat = base.node.avg_walk_latency();
        let row = |stats: crate::cloudnode::NodeStats, telemetry| {
            let lat = stats.node.avg_walk_latency();
            Table7Row {
                env,
                design: stats.design,
                tenants: n,
                avg_walk_latency: lat,
                pw_speedup: if lat > 0.0 { base_lat / lat } else { 1.0 },
                context_switches: stats.context_switches,
                tagged_flushes: stats.tagged_flushes,
                cross_tenant_shootdowns: stats.cross_tenant_shootdowns,
                frag_final: stats.frag_final,
                coverage: stats.mean_coverage(),
                node: stats.node,
                telemetry,
            }
        };
        rows.push(row(base, base_t));
        for design in crate::registry::designs() {
            if design == Design::Vanilla || !design.available_in(env) {
                continue;
            }
            let (stats, t) = runner.run_node(&cfg(design, env))?;
            rows.push(row(stats, t));
        }
    }
    Ok(rows)
}

/// §2.1.1 extension: five-level page tables. Returns
/// `(vanilla_4lvl, vanilla_5lvl, dmt_5lvl)` average walk latencies for a
/// GUPS-style uniform workload — the radix baseline gets *slower* with
/// the fifth level while DMT's single fetch is depth-independent.
///
/// # Errors
///
/// Propagates setup failures.
pub fn ext_5level(scale: Scale) -> Result<(f64, f64, f64), SimError> {
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_cache::pwc::PageWalkCache;
    use dmt_cache::tlb::Tlb;
    use dmt_core::regfile::DmtRegisterFile;
    use dmt_mem::{PhysMemory, VirtAddr};
    use dmt_os::mapping::MappingPolicy;
    use dmt_os::proc::{Process, ThpMode};
    use dmt_os::vma::VmaKind;
    use dmt_pgtable::walk::{walk_dimension, WalkDim};
    use dmt_workloads::gen::{Access, Region};

    /// GUPS spread over eight 512 GiB-apart regions — the terabyte-scale
    /// sparse address spaces 5-level paging exists for. The spread
    /// thrashes the 2-entry L4 PWC, so radix walks regularly climb to
    /// the root and pay for the extra level.
    struct SparseGups {
        bytes_per_region: u64,
    }

    impl Workload for SparseGups {
        fn name(&self) -> &'static str {
            "SparseGUPS"
        }
        fn regions(&self) -> Vec<Region> {
            (0..8u64)
                .map(|i| Region {
                    base: VirtAddr((i + 1) << 39),
                    len: self.bytes_per_region,
                    label: "shard",
                })
                .collect()
        }
        fn generate(&self, n: usize, rng: &mut rand::rngs::SmallRng, out: &mut Vec<Access>) {
            use rand::Rng;
            for _ in 0..n {
                let r = rng.gen_range(0..8u64);
                let off = rng.gen_range(0..self.bytes_per_region / 8) * 8;
                out.push(Access::write(VirtAddr(((r + 1) << 39) + off)));
            }
        }
    }

    let w = SparseGups {
        bytes_per_region: (32 << 20) * scale.mult4k,
    };
    let trace = w.trace(scale.total(), 0x5135);
    let pages = crate::rig::touched_pages(&trace);

    let run = |levels: u8, dmt: bool| -> Result<f64, SimError> {
        let touched = (pages.len() as u64) << 12;
        let mut pm = PhysMemory::new_bytes(touched * 2 + (512 << 20));
        let mut proc_ = Process::custom(
            &mut pm,
            ThpMode::Never,
            MappingPolicy::default(),
            dmt,
            levels,
        )
        .map_err(SimError::setup)?;
        for r in w.regions() {
            proc_
                .mmap(&mut pm, r.base, r.len, VmaKind::Heap)
                .map_err(SimError::setup)?;
        }
        for &va in &pages {
            proc_.populate(&mut pm, va).map_err(SimError::setup)?;
        }
        let mut regs = DmtRegisterFile::new();
        if dmt {
            proc_.load_registers(&mut regs);
        }
        let mut tlb = Tlb::default();
        let mut hier = MemoryHierarchy::default();
        let mut pwc = PageWalkCache::default();
        let (mut walks, mut cycles) = (0u64, 0u64);
        for (i, a) in trace.iter().enumerate() {
            if tlb.lookup_any(a.va).is_none() {
                let (cyc, size) = if dmt {
                    let out =
                        dmt_core::fetcher::fetch_native(&regs, &mut pm, &mut hier, a.va)
                            .map_err(SimError::setup)?;
                    (out.cycles, out.size)
                } else {
                    let out = walk_dimension(
                        proc_.page_table(),
                        &mut pm,
                        a.va,
                        WalkDim::Native,
                        &mut hier,
                        Some(&mut pwc),
                    )
                    .map_err(SimError::setup)?;
                    (out.cycles, out.size)
                };
                tlb.fill(a.va, size);
                if i >= scale.warmup {
                    walks += 1;
                    cycles += cyc;
                }
            }
            let pa = proc_
                .page_table()
                .translate(&pm, a.va)
                .expect("populated")
                .0;
            hier.access(pa.raw());
        }
        Ok(cycles as f64 / walks.max(1) as f64)
    };

    Ok((run(4, false)?, run(5, false)?, run(5, true)?))
}

/// Extension: frequent context switches. Two processes alternate every
/// `quantum` accesses; each switch reloads the DMT registers (§4.1's
/// task-state reload) and flushes the TLB. Returns
/// `(vanilla_walk_cycles, dmt_walk_cycles, dmt_coverage)` — DMT's
/// register reload is pure state, so its advantage survives switching.
///
/// # Errors
///
/// Propagates setup failures.
pub fn ext_context_switch(
    scale: Scale,
    quantum: usize,
) -> Result<(u64, u64, f64), SimError> {
    use dmt_cache::hierarchy::MemoryHierarchy;
    use dmt_cache::pwc::PageWalkCache;
    use dmt_cache::tlb::Tlb;
    use dmt_core::regfile::DmtRegisterFile;
    use dmt_core::DmtError;
    use dmt_mem::{PhysMemory, VirtAddr};
    use dmt_os::proc::{Process, ThpMode};
    use dmt_os::vma::VmaKind;
    use dmt_pgtable::walk::{walk_dimension, WalkDim};
    use dmt_workloads::bench7::Gups;

    // Two GUPS processes over disjoint address ranges, one physical
    // machine.
    let w = Gups {
        table_bytes: (64 << 20) * scale.mult4k,
    };
    let t0 = w.trace(scale.total(), 0xC0);
    let t1: Vec<dmt_workloads::gen::Access> = w
        .trace(scale.total(), 0xC1)
        .into_iter()
        .map(|a| dmt_workloads::gen::Access {
            va: VirtAddr(a.va.raw() + (1 << 42)),
            write: a.write,
        })
        .collect();
    let pages0 = crate::rig::touched_pages(&t0);
    let pages1 = crate::rig::touched_pages(&t1);
    let touched = ((pages0.len() + pages1.len()) as u64) << 12;
    let mut pm = PhysMemory::new_bytes(touched * 2 + (512 << 20));

    let mut build = |pages: &[VirtAddr], base: u64| -> Result<Process, SimError> {
        let mut p = Process::new(&mut pm, ThpMode::Never).map_err(SimError::setup)?;
        for r in w.regions() {
            p.mmap(&mut pm, VirtAddr(r.base.raw() + base), r.len, VmaKind::Heap)
                .map_err(SimError::setup)?;
        }
        for &va in pages {
            p.populate(&mut pm, va).map_err(SimError::setup)?;
        }
        Ok(p)
    };
    let procs = [build(&pages0, 0)?, build(&pages1, 1 << 42)?];
    let traces = [&t0, &t1];

    #[allow(clippy::needless_range_loop)] // `i` drives both the quantum and per-process trace indexing
    let mut run = |dmt: bool| -> Result<(u64, f64), SimError> {
        let mut tlb = Tlb::default();
        let mut hier = MemoryHierarchy::default();
        let mut pwc = PageWalkCache::default();
        let mut regs = DmtRegisterFile::new();
        let (mut cycles, mut hits, mut falls) = (0u64, 0u64, 0u64);
        let mut cur = 0usize;
        procs[cur].load_registers(&mut regs);
        for i in 0..scale.total() {
            if i % quantum == 0 && i > 0 {
                // Context switch: register reload + TLB flush (+ PWC
                // flush: it is virtually tagged).
                cur ^= 1;
                procs[cur].load_registers(&mut regs);
                tlb.flush();
                pwc.flush();
            }
            let a = &traces[cur][i];
            if tlb.lookup_any(a.va).is_none() {
                let (cyc, size) = if dmt {
                    match dmt_core::fetcher::fetch_native(&regs, &mut pm, &mut hier, a.va) {
                        Ok(out) => {
                            hits += 1;
                            (out.cycles, out.size)
                        }
                        Err(DmtError::NotCovered { .. }) => {
                            falls += 1;
                            let out = walk_dimension(
                                procs[cur].page_table(),
                                &mut pm,
                                a.va,
                                WalkDim::Native,
                                &mut hier,
                                Some(&mut pwc),
                            )
                            .map_err(SimError::setup)?;
                            (out.cycles, out.size)
                        }
                        Err(e) => return Err(SimError::setup(e)),
                    }
                } else {
                    let out = walk_dimension(
                        procs[cur].page_table(),
                        &mut pm,
                        a.va,
                        WalkDim::Native,
                        &mut hier,
                        Some(&mut pwc),
                    )
                    .map_err(SimError::setup)?;
                    (out.cycles, out.size)
                };
                tlb.fill(a.va, size);
                if i >= scale.warmup {
                    cycles += cyc;
                }
            }
            let pa = procs[cur]
                .page_table()
                .translate(&pm, a.va)
                .expect("populated")
                .0;
            hier.access(pa.raw());
        }
        let cov = if hits + falls == 0 {
            1.0
        } else {
            hits as f64 / (hits + falls) as f64
        };
        Ok((cycles, cov))
    };
    let (vanilla, _) = run(false)?;
    let (dmt, cov) = run(true)?;
    Ok((vanilla, dmt, cov))
}
