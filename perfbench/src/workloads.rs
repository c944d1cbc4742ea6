//! The four workloads and their end-to-end measurement.
//!
//! Every pass starts from freshly generated inputs and freshly built
//! rigs, so all passes replay identical simulated work; the run asserts
//! that they report identical statistics. Every timed phase is measured
//! against the calibration kernel run beside it (see
//! [`Calibration`](crate::measure::Calibration)), and a host time is the
//! median over the passes of that phase's calibrated time, in seconds of
//! the reference host. Replay time is the sum of each cell's, set-up
//! time the sum of each set-up phase's. Output checks run after the
//! timed window and are never timed.

use crate::alloc;
use crate::measure::{
    buffers, fastest, median, ratio, sum_median, Calibrated, Calibration, Checks, Clock, Metrics,
    Window, REFERENCE_KERNEL_S,
};
use dmt_sim::rig::Rig;
use dmt_sim::{
    Design, Engine, Env, NodeConfig, NodeStats, RunStats, Runner, Setup, ShardSource, SimError,
    TenantSpec,
};
use dmt_trace::{TraceFile, TraceMeta, TraceWriter};
use dmt_workloads::gen::{Access, Workload};
use std::path::Path;

/// One (environment, design) pair replayed over a workload's trace.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub env: Env,
    pub design: Design,
}

impl Cell {
    const fn new(env: Env, design: Design) -> Cell {
        Cell { env, design }
    }

    /// Metric-name suffix, e.g. `native-dmt`.
    pub fn key(&self) -> String {
        let env = match self.env {
            Env::Native => "native",
            Env::Virt => "virt",
            Env::Nested => "nested",
        };
        format!("{env}-{}", self.design.name().to_lowercase())
    }
}

/// The cells whose layers the traced run breaks down, on every workload.
pub const LAYER_CELLS: [Cell; 5] = [
    Cell::new(Env::Native, Design::Vanilla),
    Cell::new(Env::Native, Design::Dmt),
    Cell::new(Env::Native, Design::Seg),
    Cell::new(Env::Virt, Design::Vanilla),
    Cell::new(Env::Virt, Design::PvDmt),
];

const HIT_CELLS: [Cell; 3] = [
    Cell::new(Env::Native, Design::Vanilla),
    Cell::new(Env::Native, Design::Dmt),
    Cell::new(Env::Virt, Design::PvDmt),
];

/// The cells the sharded replay runs (and the traced run's shard survey).
pub const SHARD_CELLS: [Cell; 2] = [
    Cell::new(Env::Native, Design::Vanilla),
    Cell::new(Env::Native, Design::Dmt),
];

/// Accesses per chunk of the spilled trace file.
pub const CHUNK_LEN: u64 = 4_096;
/// Epoch length of the sharded replay's barrier schedule.
pub const EPOCH_LEN: usize = 32_768;
/// Accesses the oracle-wrapped prefix replay checks per cell.
const ORACLE_PREFIX: usize = 16_384;

/// One bench7 trace and the cells that replay it.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// bench7 index in paper order (0 Redis, 2 GUPS, 6 Graph500).
    pub bench: usize,
    pub thp: bool,
    /// Footprint multiplier over the workload's default size.
    pub mult: u64,
    /// Trace length, warmup included.
    pub accesses: usize,
    /// Leading accesses replayed but not measured.
    pub warmup: usize,
    pub cells: &'static [Cell],
}

impl TraceSpec {
    pub fn workload(&self) -> Box<dyn Workload> {
        dmt_workloads::bench7::nth_benchmark(self.bench, self.mult)
            .expect("bench7 indices used here are in range")
    }
}

/// The cloud node: 16 tenants (12 native, 4 virtualized) cycling through
/// bench7, a tagged TLB/PWC, and kill/restart churn.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    pub tenants: usize,
    pub mult: u64,
    /// Per-tenant trace length and warmup.
    pub accesses: usize,
    pub warmup: usize,
    pub churn_period: usize,
    pub churn_kills: usize,
    pub designs: [Design; 2],
}

impl NodeSpec {
    fn scale(&self, accesses: usize, warmup: usize) -> dmt_sim::Scale {
        dmt_sim::Scale {
            mult4k: self.mult,
            thp_mult: self.mult,
            trace: accesses - warmup,
            warmup,
        }
    }

    /// The node config for `design`: `accesses` per tenant, churn on or off.
    pub fn config(&self, design: Design, seed: u64, accesses: usize, churn: bool) -> NodeConfig {
        let tenants = (0..self.tenants)
            .map(|i| TenantSpec {
                bench: i % dmt_workloads::bench7::BENCH7_COUNT,
                env: if i % 4 == 3 { Env::Virt } else { Env::Native },
                weight: 1 + (i as u32 % 2),
            })
            .collect();
        let warmup = self.warmup.min(accesses);
        let cfg = NodeConfig::new(design, false, self.scale(accesses, warmup), tenants).seed(seed);
        if churn {
            cfg.churn(self.churn_period, self.churn_kills)
        } else {
            cfg
        }
    }
}

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Single-threaded replay of each cell from a fresh rig.
    Replay(TraceSpec),
    /// The trace spilled to a chunked file and replayed by K shard workers.
    Sharded(TraceSpec),
    /// Multi-tenant cloud nodes run to completion.
    Node(NodeSpec),
}

/// The named workloads, in `BENCHMARK.json` order.
pub fn lookup(name: &str) -> Option<Kind> {
    Some(match name {
        "walk-bound" => Kind::Replay(TraceSpec {
            bench: 2,
            thp: false,
            mult: 2,
            accesses: 30_000,
            warmup: 5_000,
            cells: &LAYER_CELLS,
        }),
        "hit-bound" => Kind::Replay(TraceSpec {
            bench: 6,
            thp: true,
            mult: 32,
            accesses: 200_000,
            warmup: 25_000,
            cells: &HIT_CELLS,
        }),
        "churn-node" => Kind::Node(NodeSpec {
            tenants: 16,
            mult: 2,
            accesses: 8_000,
            warmup: 1_000,
            churn_period: 2,
            churn_kills: 6,
            designs: [Design::Vanilla, Design::Dmt],
        }),
        "sharded-file" => Kind::Sharded(TraceSpec {
            bench: 0,
            thp: false,
            mult: 16,
            accesses: 8 * EPOCH_LEN,
            warmup: 16_384,
            cells: &SHARD_CELLS,
        }),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = ["walk-bound", "hit-bound", "churn-node", "sharded-file"];

/// FNV-1a over a trace: passes compare regenerated inputs by digest.
pub fn trace_digest(trace: &[Access]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in trace {
        h ^= a.va.raw() ^ u64::from(a.write) << 63;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sizes and settings the manifest records.
pub type Shape = Vec<(&'static str, String)>;

/// What a run hands back besides its checks.
pub struct Report {
    pub metrics: Metrics,
    pub passes: usize,
    pub shape: Shape,
    /// Traced runs only: the per-layer span summary, rendered JSON.
    pub layers: Option<String>,
}

fn sim_cycles(stats: &[RunStats]) -> f64 {
    let cycles: u64 = stats.iter().map(|s| s.walk_cycles + s.data_cycles).sum();
    let accesses: u64 = stats.iter().map(|s| s.accesses).sum();
    ratio(cycles as f64, accesses as f64)
}

/// Print each phase's calibrated pass times in reference seconds: the
/// median is reported, the extremes show how much interference the
/// kernel did not cancel.
fn log_passes(names: &[String], times: &[Vec<f64>]) {
    for (name, t) in names.iter().zip(times) {
        let slowest = t.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "perfbench pass times {name:<24} fastest {:.6} s  median {:.6} s  slowest {:.6} s  ({} passes)",
            fastest(t) * REFERENCE_KERNEL_S,
            median(t) * REFERENCE_KERNEL_S,
            slowest * REFERENCE_KERNEL_S,
            t.len()
        );
    }
}

/// The manifest's record of the kernel times a run saw.
fn kernel_shape(clock: &Calibrated) -> (&'static str, String) {
    let k = &clock.kernel_s;
    let slowest = k.iter().copied().fold(0.0, f64::max);
    (
        "kernel_s",
        format!(
            "fastest {:.6} median {:.6} slowest {slowest:.6} reference {REFERENCE_KERNEL_S}",
            fastest(k),
            median(k)
        ),
    )
}

/// End-to-end metrics from calibrated replay and set-up pass times.
fn end_to_end(
    accesses: f64,
    replay: &[Vec<f64>],
    setup: &[Vec<f64>],
    peak: usize,
    stats: &[RunStats],
) -> Metrics {
    let mut metrics = Metrics::default();
    metrics.put(
        "maccess_s",
        accesses / (sum_median(replay) * REFERENCE_KERNEL_S) / 1e6,
        "Macc/s",
    );
    metrics.put("setup_s", sum_median(setup) * REFERENCE_KERNEL_S, "s");
    metrics.put("peak_heap_mib", peak as f64 / (1 << 20) as f64, "MiB");
    metrics.put("sim_cycles_per_access", sim_cycles(stats), "cycles");
    metrics
}

/// Fresh rig for `cell`.
pub fn build(
    runner: &Runner,
    cell: Cell,
    thp: bool,
    setup: &Setup,
) -> Result<Box<dyn Rig>, SimError> {
    runner.build_rig(cell.env, cell.design, thp, setup)
}

/// Replay a prefix under the collecting differential oracle: no
/// divergence, and statistics equal to the unwrapped replay's.
pub fn oracle_prefix(
    checks: &mut Checks,
    cell: Cell,
    thp: bool,
    setup: &Setup,
    trace: &[Access],
) -> Result<(), SimError> {
    let runner = Runner::builder().build();
    let prefix = &trace[..trace.len().min(ORACLE_PREFIX)];
    let warmup = prefix.len() / 4;
    let mut checked = dmt_oracle::Checked::collecting(build(&runner, cell, thp, setup)?);
    let (wrapped, _) = runner.replay(&mut checked, prefix, warmup);
    checks.check(checked.divergences().is_empty(), || {
        format!(
            "{}: oracle divergence {:?}",
            cell.key(),
            checked.divergences().first()
        )
    });
    drop(checked);
    let (plain, _) = runner.replay(build(&runner, cell, thp, setup)?.as_mut(), prefix, warmup);
    checks.check(wrapped == plain, || {
        format!("{}: oracle wrapper perturbed stats", cell.key())
    });
    Ok(())
}

/// Run one workload's timed passes, then its output checks.
pub fn run(
    kind: Kind,
    seed: u64,
    window: &Window,
    cal: &mut Calibration,
    work_dir: &Path,
    checks: &mut Checks,
) -> Result<Report, SimError> {
    alloc::reset_peak();
    match kind {
        Kind::Replay(spec) => run_replay(spec, seed, window, cal, checks),
        Kind::Sharded(spec) => run_sharded(spec, seed, window, cal, work_dir, checks),
        Kind::Node(spec) => run_node(spec, seed, window, cal, checks),
    }
}

fn trace_shape(spec: &TraceSpec, w: &dyn Workload, setup: &Setup) -> Shape {
    vec![
        ("bench", w.name().to_string()),
        ("thp", spec.thp.to_string()),
        ("footprint_bytes", setup.footprint().to_string()),
        ("accesses", spec.accesses.to_string()),
        ("warmup", spec.warmup.to_string()),
        ("touched_pages", setup.pages.len().to_string()),
        (
            "cells",
            spec.cells
                .iter()
                .map(Cell::key)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ]
}

fn run_replay(
    spec: TraceSpec,
    seed: u64,
    window: &Window,
    cal: &mut Calibration,
    checks: &mut Checks,
) -> Result<Report, SimError> {
    let runner = Runner::builder().build();
    let w = spec.workload();
    let n = spec.cells.len();
    let mut replay_s = buffers(n);
    // Set-up phases: the trace, `Setup`, then one rig build per cell.
    let mut setup_s = buffers(n + 2);
    let mut first: Vec<Option<RunStats>> = vec![None; n];
    let mut same = vec![true; n];
    let mut digest: Option<u64> = None;
    let mut same_trace = true;
    let mut passes = 0;
    let mut clock = Calibrated::new(cal, Clock::Thread);
    while window.open(passes) {
        let (trace, t_trace) = clock.time(|| w.trace(spec.accesses, seed));
        let (setup, t_setup) = clock.time(|| Setup::of_workload(w.as_ref(), &trace));
        let [t_trace, t_setup] = clock.units([t_trace, t_setup]);
        setup_s[0].push(t_trace);
        setup_s[1].push(t_setup);
        let d = trace_digest(&trace);
        same_trace &= *digest.get_or_insert(d) == d;
        for (c, cell) in spec.cells.iter().enumerate() {
            let (rig, t_build) = clock.time(|| build(&runner, *cell, spec.thp, &setup));
            let mut rig = rig?;
            let ((stats, _), t_replay) =
                clock.time(|| runner.replay(rig.as_mut(), &trace, spec.warmup));
            let [t_build, t_replay] = clock.units([t_build, t_replay]);
            setup_s[c + 2].push(t_build);
            replay_s[c].push(t_replay);
            same[c] &= *first[c].get_or_insert(stats) == stats;
        }
        passes += 1;
    }
    let peak = alloc::peak_bytes();
    let keys: Vec<String> = spec.cells.iter().map(Cell::key).collect();
    log_passes(&keys, &replay_s);
    let setup_names: Vec<String> = ["trace".to_string(), "Setup".to_string()]
        .into_iter()
        .chain(keys.iter().map(|k| format!("build {k}")))
        .collect();
    log_passes(&setup_names, &setup_s);

    // Untimed output checks.
    let trace = w.trace(spec.accesses, seed);
    let setup = Setup::of_workload(w.as_ref(), &trace);
    checks.check(same_trace, || {
        "regenerated traces differ between passes".into()
    });
    let scalar = Runner::builder().engine(Engine::Scalar).build();
    let mut stats = Vec::with_capacity(n);
    for (c, cell) in spec.cells.iter().enumerate() {
        let s = first[c].expect("at least one pass");
        checks.check(same[c], || {
            format!("{}: passes disagree on RunStats", cell.key())
        });
        let (reference, _) = scalar.replay(
            build(&scalar, *cell, spec.thp, &setup)?.as_mut(),
            &trace,
            spec.warmup,
        );
        checks.check(reference == s, || {
            format!("{}: batched {s:?} != scalar {reference:?}", cell.key())
        });
        oracle_prefix(checks, *cell, spec.thp, &setup, &trace)?;
        stats.push(s);
    }

    let mut shape = trace_shape(&spec, w.as_ref(), &setup);
    shape.push(kernel_shape(&clock));
    Ok(Report {
        metrics: end_to_end(
            (n * spec.accesses) as f64,
            &replay_s,
            &setup_s,
            peak,
            &stats,
        ),
        passes,
        shape,
        layers: None,
    })
}

/// Spill `trace` to a chunked trace file at `path` and open it.
pub fn spill(w: &dyn Workload, trace: &[Access], path: &Path) -> Result<TraceFile, SimError> {
    let meta = TraceMeta::of_workload(w).chunked(CHUNK_LEN);
    let mut tw = TraceWriter::create(path, &meta)?;
    tw.push_all(trace.iter().copied())?;
    tw.finish()?;
    Ok(TraceFile::open(path)?)
}

/// Host threads available to shard workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_sharded(
    spec: TraceSpec,
    seed: u64,
    window: &Window,
    cal: &mut Calibration,
    work_dir: &Path,
    checks: &mut Checks,
) -> Result<Report, SimError> {
    let k = nproc();
    let runner = Runner::builder().shards(k).epoch_len(EPOCH_LEN).build();
    let w = spec.workload();
    let n = spec.cells.len();
    std::fs::create_dir_all(work_dir)?;
    let path = work_dir.join(format!("sharded-file-{seed}.dmtt"));
    let mut replay_s = buffers(n);
    // Set-up phases: the trace, `Setup`, and the spill to a trace file.
    let mut setup_s = buffers(3);
    let mut first: Vec<Option<(RunStats, Option<u64>)>> = vec![None; n];
    let mut same = vec![true; n];
    let mut digest: Option<u64> = None;
    let mut same_trace = true;
    let mut passes = 0;
    let mut clock = Calibrated::new(cal, Clock::Process);
    while window.open(passes) {
        let (trace, t_trace) = clock.time(|| w.trace(spec.accesses, seed));
        let (setup, t_setup) = clock.time(|| Setup::of_workload(w.as_ref(), &trace));
        let d = trace_digest(&trace);
        same_trace &= *digest.get_or_insert(d) == d;
        let (file, t_spill) = clock.time(|| spill(w.as_ref(), &trace, &path));
        let file = file?;
        let [t_trace, t_setup, t_spill] = clock.units([t_trace, t_setup, t_spill]);
        setup_s[0].push(t_trace);
        setup_s[1].push(t_setup);
        setup_s[2].push(t_spill);
        drop(trace);
        for (c, cell) in spec.cells.iter().enumerate() {
            // Shard workers allocate concurrently, so the peak is
            // tracked only outside this call (see `alloc`).
            let (out, t) = alloc::pause_peak(|| {
                clock.time(|| {
                    runner.replay_sharded(
                        cell.env,
                        cell.design,
                        spec.thp,
                        &setup,
                        ShardSource::File(&file),
                        spec.warmup,
                        0,
                    )
                })
            });
            let out = out?;
            let [t] = clock.units([t]);
            replay_s[c].push(t);
            let got = (out.stats, out.alloc_hash);
            same[c] &= *first[c].get_or_insert(got) == got;
        }
        passes += 1;
    }
    log_passes(
        &spec.cells.iter().map(Cell::key).collect::<Vec<_>>(),
        &replay_s,
    );
    log_passes(
        &[
            "trace".to_string(),
            "Setup".to_string(),
            "spill".to_string(),
        ],
        &setup_s,
    );

    let trace = w.trace(spec.accesses, seed);
    let setup = Setup::of_workload(w.as_ref(), &trace);
    let file = TraceFile::open(&path)?;
    checks.check(same_trace, || {
        "regenerated traces differ between passes".into()
    });
    checks.check(file.read_all().ok().as_deref() == Some(&trace[..]), || {
        "spilled trace file does not decode to the generated trace".into()
    });
    // The single-rig serial reference stands in for the shard workers in
    // the peak: their concurrent allocations do not repeat exactly.
    for (c, cell) in spec.cells.iter().enumerate() {
        let (s, hash) = first[c].expect("at least one pass");
        checks.check(same[c], || {
            format!("{}: sharded passes disagree", cell.key())
        });
        let mut rig = build(&runner, *cell, spec.thp, &setup)?;
        let (serial, _) =
            runner.replay_epochs_serial(rig.as_mut(), ShardSource::File(&file), spec.warmup, 0)?;
        checks.check(serial == s, || {
            format!("{}: sharded {s:?} != serial epochs {serial:?}", cell.key())
        });
        checks.check(rig.alloc_state_hash() == hash, || {
            format!("{}: sharded alloc_hash differs from serial", cell.key())
        });
    }
    let peak = alloc::peak_bytes();

    let scalar = Runner::builder()
        .engine(Engine::Scalar)
        .epoch_len(EPOCH_LEN)
        .build();
    let mut stats = Vec::with_capacity(n);
    for (c, cell) in spec.cells.iter().enumerate() {
        let (s, _) = first[c].expect("at least one pass");
        let mut rig = build(&scalar, *cell, spec.thp, &setup)?;
        let (reference, _) =
            scalar.replay_epochs_serial(rig.as_mut(), ShardSource::File(&file), spec.warmup, 0)?;
        checks.check(reference == s, || {
            format!("{}: batched {s:?} != scalar {reference:?}", cell.key())
        });
        oracle_prefix(checks, *cell, spec.thp, &setup, &trace)?;
        stats.push(s);
    }
    drop(file);
    std::fs::remove_file(&path)?;

    let mut shape = trace_shape(&spec, w.as_ref(), &setup);
    shape.push(("chunk_len", CHUNK_LEN.to_string()));
    shape.push(kernel_shape(&clock));
    Ok(Report {
        metrics: end_to_end(
            (n * spec.accesses) as f64,
            &replay_s,
            &setup_s,
            peak,
            &stats,
        ),
        passes,
        shape,
        layers: None,
    })
}

fn run_node(
    spec: NodeSpec,
    seed: u64,
    window: &Window,
    cal: &mut Calibration,
    checks: &mut Checks,
) -> Result<Report, SimError> {
    let runner = Runner::builder().build();
    let cfgs: Vec<NodeConfig> = spec
        .designs
        .iter()
        .map(|&d| spec.config(d, seed, spec.accesses, true))
        .collect();
    // Set-up: the same tenants with empty traces. Churn stays off: with
    // nothing to replay it kills no one, but its restart headroom made
    // set-up time vary twofold from seed to seed.
    let empty: Vec<NodeConfig> = spec
        .designs
        .iter()
        .map(|&d| spec.config(d, seed, 0, false))
        .collect();
    let n = cfgs.len();
    let mut run_s = buffers(n);
    let mut setup_s = buffers(n);
    let mut first: Vec<Option<NodeStats>> = vec![None; n];
    let mut same = vec![true; n];
    let mut passes = 0;
    let mut clock = Calibrated::new(cal, Clock::Thread);
    while window.open(passes) {
        for (c, cfg) in cfgs.iter().enumerate() {
            let (r, t_setup) = clock.time(|| runner.run_node(&empty[c]));
            r?;
            let (r, t_run) = clock.time(|| runner.run_node(cfg));
            let (s, _) = r?;
            let [t_setup, t_run] = clock.units([t_setup, t_run]);
            setup_s[c].push(t_setup);
            run_s[c].push(t_run);
            same[c] &= *first[c].get_or_insert_with(|| s.clone()) == s;
        }
        passes += 1;
    }
    let peak = alloc::peak_bytes();
    let keys: Vec<String> = cfgs
        .iter()
        .map(|c| format!("node-{}", c.design.name().to_lowercase()))
        .collect();
    log_passes(&keys, &run_s);
    log_passes(
        &keys
            .iter()
            .map(|k| format!("empty {k}"))
            .collect::<Vec<_>>(),
        &setup_s,
    );

    let scalar = Runner::builder().engine(Engine::Scalar).build();
    let oracle = Runner::builder().rig_wrapper(dmt_oracle::wrapper()).build();
    let mut stats = Vec::with_capacity(n);
    for (c, cfg) in cfgs.iter().enumerate() {
        let s = first[c].clone().expect("at least one pass");
        let name = cfg.design.name();
        checks.check(same[c], || {
            format!("{name} node: passes disagree on NodeStats")
        });
        let (reference, _) = scalar.run_node(cfg)?;
        checks.check(reference == s, || {
            format!(
                "{name} node: batched {:?} != scalar {:?}",
                s.node, reference.node
            )
        });
        // The oracle-wrapped node panics on a divergence; a prefix keeps
        // the check short.
        let prefix = spec.config(cfg.design, seed, spec.accesses / 4, true);
        let wrapped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| oracle.run_node(&prefix)));
        let (plain, _) = runner.run_node(&prefix)?;
        let agrees = matches!(&wrapped, Ok(Ok((o, _))) if *o == plain);
        checks.check(agrees, || {
            format!("{name} node: oracle-wrapped prefix diverged")
        });
        stats.push(s);
    }

    let accesses: u64 = stats.iter().map(|s| s.node.accesses).sum();
    let node_stats: Vec<RunStats> = stats.iter().map(|s| s.node).collect();
    let metrics = end_to_end(accesses as f64, &run_s, &setup_s, peak, &node_stats);
    let shape = vec![
        ("tenants", spec.tenants.to_string()),
        ("tenant_mult4k", spec.mult.to_string()),
        ("tenant_accesses", spec.accesses.to_string()),
        ("tenant_warmup", spec.warmup.to_string()),
        ("churn_period", spec.churn_period.to_string()),
        ("churn_kills", spec.churn_kills.to_string()),
        (
            "designs",
            spec.designs
                .iter()
                .map(|d| d.name())
                .collect::<Vec<_>>()
                .join(","),
        ),
        kernel_shape(&clock),
    ];
    Ok(Report {
        metrics,
        passes,
        shape,
        layers: None,
    })
}
