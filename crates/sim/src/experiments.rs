//! One runner per table/figure of the paper's evaluation (§6).
//!
//! Each function takes the [`Runner`] it replays through (so its
//! wrapper, telemetry, engine and tiering reach every cell), applies
//! the §5 performance model, and returns structured rows; the examples
//! (`paper_figures` prints all of them) render them via
//! [`crate::report`]. Figures 4, 14, 15 and 17 are one
//! [`Runner::sweep`] each: every design row is paired with the vanilla
//! row of the same (benchmark, THP), which replayed the same trace.

use crate::backends::{NestedBackend, VirtBackend};
use crate::cloudnode::{NodeConfig, NodeStats};
use crate::error::SimError;
use crate::native_rig::NativeRig;
use crate::perfmodel::{app_speedup, calib_for, exit_ratio, geomean};
use crate::rig::{Design, Env, Rig, Setup};
use crate::runner::Runner;
use crate::sweep::{run_ordered, worker_count, SweepConfig, SweepReport, SweepRow};
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
            mult4k: 64,   // ~16 GiB
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

/// Compare a design's sweep row against the vanilla row of the same
/// (workload, env, thp) — the same trace — applying the exit model.
pub fn speedup_row(base: &SweepRow, m: &SweepRow) -> SpeedupRow {
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
    // The environments' baselines pin their own ratio in their backend
    // spec (vanilla virt exit-free, vanilla nested full shadow cost).
    let pinned = match m.env {
        Env::Native => None,
        Env::Virt => VirtBackend::spec(m.design)
            .ok()
            .and_then(|s| s.pinned_exit_ratio),
        Env::Nested => NestedBackend::spec(m.design)
            .ok()
            .and_then(|s| s.pinned_exit_ratio),
    };
    let er = pinned.unwrap_or(er);
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

/// Every design row of `report` paired with the vanilla row of its
/// (env, THP, workload), in matrix order. Both replayed one trace.
fn vanilla_pairs(report: &SweepReport) -> impl Iterator<Item = (&SweepRow, &SweepRow)> {
    let rows = &report.rows;
    rows.iter()
        .filter(|m| m.design != Design::Vanilla)
        .map(move |m| {
            let cell = (m.env, m.thp, &m.workload);
            let base = rows
                .iter()
                .find(|b| b.design == Design::Vanilla && (b.env, b.thp, &b.workload) == cell)
                .expect("every figure sweep includes vanilla");
            (base, m)
        })
}

/// The sweep behind a figure: vanilla plus `designs` in `env`, all
/// seven benchmarks, the given THP modes, on every core.
fn figure_sweep(env: Env, designs: &[Design], thp: &[bool], scale: Scale) -> SweepConfig {
    SweepConfig {
        envs: vec![env],
        designs: std::iter::once(Design::Vanilla)
            .chain(designs.iter().copied())
            .collect(),
        thp: thp.to_vec(),
        benchmarks: (0..dmt_workloads::bench7::BENCH7_COUNT).collect(),
        scale,
        threads: 0,
    }
}

/// A speedup figure of §6: the designs it compares against vanilla in
/// one environment, over both page-size modes.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure label ("Figure 14 (native)" etc).
    pub label: &'static str,
    /// Environment.
    pub env: Env,
    /// Designs compared against the environment's vanilla baseline.
    pub designs: &'static [Design],
}

/// Figure 14: native speedups of FPT / ECPT / ASAP / DMT over vanilla
/// Linux, 4 KiB and THP.
pub const FIG14: Figure = Figure {
    label: "Figure 14 (native)",
    env: Env::Native,
    designs: &[Design::Fpt, Design::Ecpt, Design::Asap, Design::Dmt],
};

/// Figure 15: virtualized speedups of FPT / ECPT / Agile / ASAP / DMT /
/// pvDMT over vanilla KVM.
pub const FIG15: Figure = Figure {
    label: "Figure 15 (virtualized)",
    env: Env::Virt,
    designs: &[
        Design::Fpt,
        Design::Ecpt,
        Design::Agile,
        Design::Asap,
        Design::Dmt,
        Design::PvDmt,
    ],
};

/// Figure 17: nested-virtualization speedups of pvDMT over the shadow
/// baseline.
pub const FIG17: Figure = Figure {
    label: "Figure 17 (nested virtualization)",
    env: Env::Nested,
    designs: &[Design::PvDmt],
};

impl Figure {
    /// The figure's sweep: vanilla plus its designs, all seven
    /// benchmarks, 4 KiB and THP.
    pub fn sweep_config(&self, scale: Scale) -> SweepConfig {
        figure_sweep(self.env, self.designs, &[false, true], scale)
    }

    /// The figure from a completed sweep of
    /// [`Figure::sweep_config`].
    pub fn data(&self, report: &SweepReport) -> FigureData {
        let mode = |thp: bool| {
            let pairs = vanilla_pairs(report).filter(|(_, m)| m.thp == thp);
            (thp, pairs.map(|(base, m)| speedup_row(base, m)).collect())
        };
        FigureData {
            label: self.label,
            env: self.env,
            modes: vec![mode(false), mode(true)],
        }
    }
}

/// Compute [`FIG14`] through one sweep on `runner`.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn fig14(runner: &Runner, scale: Scale) -> Result<FigureData, SimError> {
    Ok(FIG14.data(&runner.sweep(&FIG14.sweep_config(scale))?))
}

/// Compute [`FIG15`] through one sweep on `runner`.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn fig15(runner: &Runner, scale: Scale) -> Result<FigureData, SimError> {
    Ok(FIG15.data(&runner.sweep(&FIG15.sweep_config(scale))?))
}

/// Compute [`FIG17`] through one sweep on `runner`.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn fig17(runner: &Runner, scale: Scale) -> Result<FigureData, SimError> {
    Ok(FIG17.data(&runner.sweep(&FIG17.sweep_config(scale))?))
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

/// Compute Figure 4 from one sweep of virtualized vanilla and shadow
/// paging at 4 KiB.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn fig4(runner: &Runner, scale: Scale) -> Result<Vec<Fig4Row>, SimError> {
    let report = runner.sweep(&figure_sweep(Env::Virt, &[Design::Shadow], &[false], scale))?;
    let rows = vanilla_pairs(&report)
        .map(|(base, spt)| {
            let calib = calib_for(&spt.workload);
            let spt_ratio = if base.stats.walk_cycles > 0 {
                spt.stats.walk_cycles as f64 / base.stats.walk_cycles as f64
            } else {
                1.0
            };
            let ideal = 1.0 - calib.pw_native;
            let t_virt = ideal / (1.0 - calib.pw_virt);
            let t_spt =
                t_virt * crate::perfmodel::normalized_time(&calib, Env::Virt, spt_ratio, 1.0);
            let t_nested = ideal / (1.0 - calib.pw_nested - calib.shadow_exit_nested);
            Fig4Row {
                workload: spt.workload.clone(),
                native: (1.0, calib.pw_native),
                virt_npt: (t_virt, calib.pw_virt),
                virt_spt: (t_spt, calib.pw_virt * spt_ratio * t_virt / t_spt),
                nested: (t_nested, calib.pw_nested),
            }
        })
        .collect();
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
    let mut steps = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if tlb.lookup_any(a.va).is_none() {
            steps.clear();
            let out = rig
                .machine_mut()
                .translate_nested(a.va, &mut hier, &mut steps)
                .map_err(SimError::setup)?;
            tlb.fill(a.va, out.size);
            if i >= scale.warmup {
                for (idx, st) in steps.iter().enumerate() {
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
    let mut steps = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if tlb.lookup_any(a.va).is_none() {
            steps.clear();
            if let Ok(out) = rig
                .machine_mut()
                .translate_pvdmt(a.va, &mut hier, &mut steps)
            {
                tlb.fill(a.va, out.size);
                if i >= scale.warmup {
                    for (k, st) in steps.iter().enumerate().take(2) {
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
/// *derived* from the backend enums — a cell shows its analytic count
/// iff the design has an arm in that environment's enum, so giving a
/// design a new environment's arm surfaces its column here with no
/// table edit.
pub fn table6() -> Vec<Table6Row> {
    // Analytic worst-case counts per design; cells without an enum arm
    // (e.g. Agile's native column) carry the count the design *would*
    // have, and stay hidden until someone adds the arm. Row order is
    // `Design::ALL` — a new design lands here by its variant plus one
    // match arm.
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
    Design::ALL
        .into_iter()
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
    /// The node's outcome: design, summed engine statistics, the
    /// multi-tenant event counters and the shared buddy's end state.
    pub stats: NodeStats,
    /// Node-level page-walk speedup over the same-environment vanilla
    /// node (1.0 for the vanilla rows themselves).
    pub pw_speedup: f64,
    /// Node-level telemetry, when the runner captures it.
    pub telemetry: Option<dmt_telemetry::Telemetry>,
}

/// The nodes Table 7 runs, in row order: environments in `Native,
/// Virt, Nested` order, designs in [`Design::ALL`] order with
/// unavailable cells skipped —
/// vanilla first in each environment, so the baseline row precedes the
/// rows it normalizes. Every node is `n` tenants cycling through the
/// bench7 suite with skewed weights, tagged translation caches and mild
/// kill/restart churn.
pub fn table7_nodes(scale: Scale, n: usize) -> Vec<NodeConfig> {
    // Every node sees the same churn: one kill per bench7 lap of
    // tenants, capped so restarted-trace replay stays bounded.
    let kills = n.div_ceil(2).min(4);
    let mut nodes = Vec::new();
    for env in [Env::Native, Env::Virt, Env::Nested] {
        for design in Design::ALL.into_iter().filter(|d| d.available_in(env)) {
            nodes
                .push(NodeConfig::uniform(design, env, false, scale, n).churn(2 * n.max(2), kills));
        }
    }
    nodes
}

/// Table 7: the multi-tenant cloud-node comparison. Runs every node of
/// [`table7_nodes`] — independent nodes in parallel on every core —
/// and compares each against the same environment's vanilla node.
///
/// # Errors
///
/// Propagates rig construction failures and shared-buddy audit
/// failures (the first by row order).
pub fn table7(runner: &Runner, scale: Scale, n: usize) -> Result<Vec<Table7Row>, SimError> {
    let nodes = table7_nodes(scale, n);
    let runs = run_ordered(&nodes, worker_count(0, nodes.len()), |cfg| {
        runner.run_node(cfg)
    })?;
    let mut rows = Vec::with_capacity(nodes.len());
    let mut base_lat = 0.0;
    for (cfg, (stats, telemetry)) in nodes.iter().zip(runs) {
        let lat = stats.node.avg_walk_latency();
        if stats.design == Design::Vanilla {
            base_lat = lat;
        }
        rows.push(Table7Row {
            env: cfg.tenants[0].env,
            pw_speedup: if lat > 0.0 { base_lat / lat } else { 1.0 },
            stats,
            telemetry,
        });
    }
    Ok(rows)
}

/// §2.1.1 extension: five-level page tables. Returns
/// `(vanilla_4lvl, vanilla_5lvl, dmt_5lvl)` average walk latencies for a
/// GUPS-style uniform workload — the radix baseline gets *slower* with
/// the fifth level while DMT's single fetch is depth-independent. Each
/// cell is an ordinary native rig built at the given radix depth and
/// replayed by `runner` (its wrapper, telemetry and engine apply).
///
/// # Errors
///
/// Propagates setup failures.
pub fn ext_5level(runner: &Runner, scale: Scale) -> Result<(f64, f64, f64), SimError> {
    use dmt_mem::VirtAddr;
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
    let setup = Setup::of_workload(&w, &trace);
    let run = |design: Design, levels: u8| -> Result<f64, SimError> {
        let rig = NativeRig::with_levels(design, &setup, levels)?;
        let mut rig = runner.wrap(Box::new(rig));
        let (stats, _) = runner.replay(rig.as_mut(), &trace, scale.warmup);
        Ok(stats.avg_walk_latency())
    };
    Ok((
        run(Design::Vanilla, 4)?,
        run(Design::Vanilla, 5)?,
        run(Design::Dmt, 5)?,
    ))
}

/// Extension: frequent context switches. Two native GUPS tenants share
/// one node on untagged hardware, alternating every `quantum` accesses;
/// each switch flushes the TLB and page-walk cache and reloads the
/// incoming tenant's DMT registers (§4.1's task-state reload). Returns
/// `(vanilla_walk_cycles, dmt_walk_cycles, dmt_coverage)` — DMT's
/// register reload is pure state, so its advantage survives switching.
///
/// # Errors
///
/// Propagates setup failures.
pub fn ext_context_switch(
    runner: &Runner,
    scale: Scale,
    quantum: usize,
) -> Result<(u64, u64, f64), SimError> {
    use crate::cloudnode::{Tagging, TenantSpec};
    /// GUPS's index in the bench7 suite.
    const GUPS: usize = 2;
    let gups = TenantSpec {
        bench: GUPS,
        env: Env::Native,
        weight: 1,
    };
    let node = |design| {
        NodeConfig::new(design, false, scale, vec![gups; 2])
            .quantum(quantum)
            .tagging(Tagging::Untagged)
    };
    let (vanilla, _) = runner.run_node(&node(Design::Vanilla))?;
    let (dmt, _) = runner.run_node(&node(Design::Dmt))?;
    Ok((
        vanilla.node.walk_cycles,
        dmt.node.walk_cycles,
        dmt.mean_coverage(),
    ))
}
