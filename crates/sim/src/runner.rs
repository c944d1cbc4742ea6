//! The unified entry point for running simulations: one
//! builder-constructed [`Runner`] drives every replay, sweep, cloud
//! node and paper experiment, and the shared [`TraceSet`] it sweeps
//! over materializes each (benchmark, THP) trace exactly once.
//!
//! Environment coupling lives only here: [`env_config`] is the single
//! place in the workspace that reads `DMT_TELEMETRY` /
//! `DMT_RESULTS_DIR` (a grep test enforces this). Everything downstream
//! takes the resolved values as explicit inputs — [`Runner::from_env`]
//! is the edge where ambient configuration becomes constructor
//! arguments.
//!
//! The two-stage sweep pipeline:
//!
//! ```text
//!  stage 1: materialize          stage 2: replay (env × design fan-out)
//!  ┌───────────────────────┐     ┌──────────────────────────────┐
//!  │ (bench, THP) ──► trace│────►│ worker: claim job off cursor │
//!  │ + Setup, exactly once │     │ entry(bench, thp) — blocks   │
//!  │ (OnceLock per key;    │     │ only if *its* trace is still │
//!  │  optional disk spill) │     │ cooking; then build rig, run │
//!  └───────────────────────┘     └──────────────────────────────┘
//! ```
//!
//! There is no global barrier between the stages: the first worker to
//! need a trace generates it while other workers replay already-ready
//! keys; a materialization counter proves each key was generated once.

use crate::engine::{replay, RunStats};
use crate::error::SimError;
use crate::experiments::{scaled_benchmark, Scale};
use crate::rig::{Design, Env, Rig, Setup};
use dmt_cache::hierarchy::{DramTiers, HierarchyConfig, MemoryHierarchy};
use dmt_mem::PhysMemory;
use dmt_telemetry::{NoopProbe, Telemetry};
use dmt_trace::{TraceMeta, TraceWriter};
use dmt_workloads::gen::{Access, Workload};
use std::borrow::Borrow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Ambient configuration, resolved once per process.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// `DMT_TELEMETRY=1`: capture telemetry per run.
    pub telemetry: bool,
    /// `DMT_RESULTS_DIR` (default `results/`): where JSON reports land.
    pub results_dir: PathBuf,
}

/// The process-wide [`EnvConfig`], read from the environment on first
/// use. This is the **only** call site in the workspace that reads the
/// `DMT_TELEMETRY` / `DMT_RESULTS_DIR` variables;
/// `tests/env_read_sites.rs` and the CI lint enforce that.
pub fn env_config() -> &'static EnvConfig {
    static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let flag = |name: &str| std::env::var(name).map(|v| v == "1").unwrap_or(false);
        EnvConfig {
            telemetry: flag("DMT_TELEMETRY"),
            results_dir: match std::env::var_os("DMT_RESULTS_DIR") {
                Some(dir) if !dir.is_empty() => PathBuf::from(dir),
                _ => PathBuf::from("results"),
            },
        }
    })
}

/// A function wrapping a boxed rig in another (e.g. the oracle's
/// `Checked` adapter).
pub type RigWrapper = fn(Box<dyn Rig>) -> Box<dyn Rig>;

/// One simulation driver with all hooks resolved up front: how rigs are
/// wrapped (oracle), whether runs capture telemetry, where reports go,
/// and whether sweep traces spill to disk. Construct with
/// [`Runner::builder`] for explicit control or [`Runner::from_env`] for
/// the `DMT_*` defaults.
#[derive(Debug, Clone)]
pub struct Runner {
    pub(crate) wrapper: Option<RigWrapper>,
    pub(crate) telemetry: bool,
    pub(crate) results_dir: PathBuf,
    pub(crate) spill_dir: Option<PathBuf>,
    pub(crate) engine: Engine,
    pub(crate) tiered: bool,
    pub(crate) shards: usize,
    pub(crate) epoch_len: usize,
}

/// Default epoch length for the sharded replay's barrier schedule
/// (DESIGN.md §14). A multiple of [`SPILL_CHUNK_LEN`] so file-backed
/// sharding aligns out of the box.
pub const DEFAULT_EPOCH_LEN: usize = 65_536;

/// Chunk length (accesses) for traces the sweep spills to disk. Spilled
/// traces are v2 (seekable), so the sharded replay can decode chunks
/// straight out of the mapping.
pub const SPILL_CHUNK_LEN: u64 = 4_096;

/// Which replay engine a [`Runner`] drives.
///
/// Both are bit-identical by contract (DESIGN.md §13) — the choice is
/// purely about speed and what is being measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The scalar reference: a TLB miss calls [`Rig::translate`], then
    /// the ground truth [`Rig::data_pa`] for its data access. The
    /// baseline `perfbench` measures the default engine against.
    Scalar,
    /// The default fast path: a TLB miss makes the one call
    /// [`Rig::translate`] and charges its data access at the
    /// translation's own PA, skipping the software resolve. Everything
    /// else is the scalar loop.
    #[default]
    Batched,
}

/// Builder for [`Runner`]. Every knob has an explicit default: no
/// wrapper, no telemetry, `results/`, traces held in memory.
#[derive(Debug, Clone)]
pub struct RunnerBuilder {
    runner: Runner,
}

impl Default for RunnerBuilder {
    fn default() -> Self {
        RunnerBuilder {
            runner: Runner {
                wrapper: None,
                telemetry: false,
                results_dir: PathBuf::from("results"),
                spill_dir: None,
                engine: Engine::Batched,
                tiered: false,
                shards: 1,
                epoch_len: DEFAULT_EPOCH_LEN,
            },
        }
    }
}

impl RunnerBuilder {
    /// Wrap every rig the runner builds (e.g. the oracle's adapter,
    /// `dmt_oracle::wrapper()`) — the one way a wrapper reaches the
    /// drivers.
    pub fn rig_wrapper(mut self, wrapper: RigWrapper) -> Self {
        self.runner.wrapper = Some(wrapper);
        self
    }

    /// Capture telemetry (histograms, counters, time-series) per run.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.runner.telemetry = on;
        self
    }

    /// Where JSON reports are written.
    pub fn results_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.runner.results_dir = dir.into();
        self
    }

    /// Spill sweep traces to `.dmtt` files under `dir` after
    /// materialization and stream them back during replay, instead of
    /// holding every unique trace in memory for the whole sweep.
    pub fn spill_traces(mut self, dir: impl Into<PathBuf>) -> Self {
        self.runner.spill_dir = Some(dir.into());
        self
    }

    /// Select the replay engine: the scalar reference or the fast path
    /// (the default), which differ only in the call a TLB miss makes.
    /// Both are bit-identical by contract (DESIGN.md §13).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.runner.engine = engine;
        self
    }

    /// Run replays over tiered DRAM: designs whose registry row carries
    /// a [`TierSpec`](crate::registry::TierSpec) get a two-tier memory
    /// hierarchy (fast tier below `fast_bytes`, `slow_latency` above —
    /// where DMT's TEA migrations physically steer pages); rows without
    /// one, and the default `false`, run the flat hierarchy,
    /// bit-identically to a runner without this knob.
    pub fn tiered(mut self, on: bool) -> Self {
        self.runner.tiered = on;
        self
    }

    /// Replay traces across `k` shard workers
    /// ([`Runner::replay_sharded`]); sweeps route through the sharded
    /// path when `k > 1`. Bit-identical to serial replay under the
    /// epoch-barrier schedule (DESIGN.md §14). `0` is clamped to `1`.
    pub fn shards(mut self, k: usize) -> Self {
        self.runner.shards = k.max(1);
        self
    }

    /// Epoch length (accesses) of the barrier schedule shards are cut
    /// on. Serial epoch-barrier replay uses the same grid, so results
    /// do not depend on the shard count — only on this. Zero is stored
    /// as given; the epoch-barrier replays and sharded sweeps reject it
    /// with [`SimError::EpochLen`].
    pub fn epoch_len(mut self, n: usize) -> Self {
        self.runner.epoch_len = n;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Runner {
        self.runner
    }
}

impl Runner {
    /// A builder with explicit defaults (no wrapper, no telemetry,
    /// `results/`, in-memory traces).
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder::default()
    }

    /// The environment-configured runner: telemetry and results dir
    /// from [`env_config`], everything else at the builder defaults
    /// (no rig wrapper — the oracle enters through
    /// [`RunnerBuilder::rig_wrapper`] only).
    pub fn from_env() -> Runner {
        let cfg = env_config();
        Runner::builder()
            .telemetry(cfg.telemetry)
            .results_dir(&cfg.results_dir)
            .build()
    }

    /// How many shard workers sweeps replay each trace across.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The epoch length of the sharded-replay barrier schedule.
    pub fn epoch_length(&self) -> usize {
        self.epoch_len
    }

    /// The engine this runner drives.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Whether replays run over tiered DRAM for tier-registered
    /// designs.
    pub fn tiered_enabled(&self) -> bool {
        self.tiered
    }

    /// The memory hierarchy a replay of `design` runs over: tiered
    /// DRAM iff the runner opted in *and* the design's registry row
    /// carries a tier spec; the flat default otherwise. Every replay
    /// path — single-rig, sharded epochs, cloud-node quanta — takes its
    /// hierarchy from here.
    pub(crate) fn hierarchy_for(&self, design: Design) -> MemoryHierarchy {
        let spec = crate::registry::tier_spec(design).filter(|_| self.tiered);
        match spec {
            Some(t) => MemoryHierarchy::new(HierarchyConfig::default().with_tiers(DramTiers {
                fast_bytes: t.fast_bytes,
                slow_latency: t.slow_latency,
            })),
            None => MemoryHierarchy::default(),
        }
    }

    /// Where this runner writes JSON reports.
    pub fn results_dir(&self) -> &std::path::Path {
        &self.results_dir
    }

    /// Whether runs capture telemetry.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Build the rig for an (env, design) cell over a prepared
    /// [`Setup`], applying the configured wrapper.
    ///
    /// # Errors
    ///
    /// Propagates rig construction failures.
    pub fn build_rig(
        &self,
        env: Env,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<Box<dyn Rig>, SimError> {
        let pm = PhysMemory::new_bytes(crate::rig::host_bytes(env, thp, setup));
        Ok(self.wrap(crate::rig::build_rig_in(pm, env, design, thp, setup)?))
    }

    /// Apply the configured wrapper (the oracle's entry point) to a
    /// rig — the one place a wrapper is applied.
    pub(crate) fn wrap(&self, rig: Box<dyn Rig>) -> Box<dyn Rig> {
        match self.wrapper {
            Some(w) => w(rig),
            None => rig,
        }
    }

    /// Replay a trace through a rig: the engine loop, with telemetry
    /// captured iff the runner was configured for it (no periodic
    /// fragmentation sampling — use [`Runner::replay_sampled`] when the
    /// trace length is known). `RunStats` are bit-identical either way.
    pub fn replay<I>(
        &self,
        rig: &mut dyn Rig,
        trace: I,
        warmup: usize,
    ) -> (RunStats, Option<Telemetry>)
    where
        I: IntoIterator,
        I::Item: Borrow<Access>,
    {
        self.replay_sampled(rig, trace, warmup, 0)
    }

    /// [`Runner::replay`] with a fragmentation/RSS sampling interval
    /// (every `interval` measured accesses; `0` disables the series).
    pub fn replay_sampled<I>(
        &self,
        rig: &mut dyn Rig,
        trace: I,
        warmup: usize,
        interval: u64,
    ) -> (RunStats, Option<Telemetry>)
    where
        I: IntoIterator,
        I::Item: Borrow<Access>,
    {
        let hier = self.hierarchy_for(rig.design());
        if self.telemetry {
            let mut t = Telemetry::with_interval(interval);
            let stats = replay(self.engine, rig, trace, warmup, &mut t, hier);
            (stats, Some(t))
        } else {
            (
                replay(self.engine, rig, trace, warmup, &mut NoopProbe, hier),
                None,
            )
        }
    }
}

/// The seed of every bench7 trace: benchmark `bench` as replayed by
/// cloud-node tenant `tenant`. A sweep's traces are tenant 0's, so
/// every design of a (benchmark, THP) cell replays the same stream and
/// a one-tenant node replays exactly the sweep's trace.
pub(crate) fn trace_seed(bench: usize, tenant: usize) -> u64 {
    0xD317 ^ bench as u64 ^ ((tenant as u64) << 32)
}

/// A generated bench7 trace: the scaled workload, its rig `Setup`, and
/// the access stream (warmup included).
pub(crate) struct BenchTrace {
    pub workload: Box<dyn Workload>,
    pub setup: Setup,
    pub trace: Vec<Access>,
}

/// Generate benchmark `bench`'s trace for `tenant` (0 outside a cloud
/// node) at `scale`: the one materialization step the sweep and the
/// cloud node share.
///
/// # Errors
///
/// [`SimError::BenchIndex`] when `bench` is outside the suite.
pub(crate) fn bench_trace(
    bench: usize,
    tenant: usize,
    scale: Scale,
    thp: bool,
) -> Result<BenchTrace, SimError> {
    let workload = scaled_benchmark(bench, scale, thp).ok_or(SimError::BenchIndex {
        index: bench,
        count: dmt_workloads::bench7::BENCH7_COUNT,
    })?;
    let trace = workload.trace(scale.total(), trace_seed(bench, tenant));
    let setup = Setup::of_workload(workload.as_ref(), &trace);
    Ok(BenchTrace {
        workload,
        setup,
        trace,
    })
}

/// Key of one unique trace in a sweep: the (benchmark, THP) pair. Every
/// (env, design) job over the same key replays the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceKey {
    /// Benchmark index (paper order).
    pub bench: usize,
    /// THP mode (changes the workload's footprint, hence the trace).
    pub thp: bool,
}

/// Where a materialized trace lives.
#[derive(Debug)]
pub enum TraceStore {
    /// Held in memory for the lifetime of the sweep.
    Memory(Vec<Access>),
    /// Spilled to a `.dmtt` file; replays stream it back.
    Disk(PathBuf),
}

/// One materialized (benchmark, THP) trace with everything a replay
/// job needs: the workload's name, the precomputed [`Setup`] (region
/// clustering + touched pages), and the access stream itself.
#[derive(Debug)]
pub struct TraceEntry {
    /// Workload name ("GUPS", ...).
    pub workload: String,
    /// Precomputed rig setup, shared by every job over this trace.
    pub setup: Setup,
    /// The access stream.
    pub store: TraceStore,
}

/// The shared materialization stage of a sweep: one lazily-filled slot
/// per unique (benchmark, THP) key. The first worker to need a key
/// generates its trace and `Setup` inside the slot's `OnceLock`;
/// workers needing the *same* key block only on that slot — there is no
/// global barrier, and keys other workers need stay independent.
#[derive(Debug)]
pub struct TraceSet {
    scale: Scale,
    keys: Vec<TraceKey>,
    slots: Vec<OnceLock<Result<Arc<TraceEntry>, SimError>>>,
    materializations: AtomicU64,
    materialize_nanos: AtomicU64,
    spill_dir: Option<PathBuf>,
}

impl TraceSet {
    /// An empty set over `keys` (deduplicated, order-preserving).
    pub fn new(scale: Scale, keys: Vec<TraceKey>, spill_dir: Option<PathBuf>) -> TraceSet {
        let mut uniq: Vec<TraceKey> = Vec::new();
        for k in keys {
            if !uniq.contains(&k) {
                uniq.push(k);
            }
        }
        TraceSet {
            scale,
            slots: (0..uniq.len()).map(|_| OnceLock::new()).collect(),
            keys: uniq,
            materializations: AtomicU64::new(0),
            materialize_nanos: AtomicU64::new(0),
            spill_dir,
        }
    }

    /// Number of unique keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set has no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// How many traces have actually been generated so far. After a
    /// sweep this must equal [`TraceSet::len`] — each key exactly once;
    /// the sweep tests and the CI job assert it.
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Host nanoseconds spent generating traces (summed across keys).
    pub fn materialize_nanos(&self) -> u64 {
        self.materialize_nanos.load(Ordering::Relaxed)
    }

    /// The entry for a key, materializing it on first use. Blocks only
    /// while *this* key is being generated by another worker.
    ///
    /// # Errors
    ///
    /// [`SimError::BenchIndex`] for a key outside the set (the config
    /// builder validates earlier, so this is defensive); generation and
    /// spill failures are cached and returned to every job on the key.
    pub fn entry(&self, bench: usize, thp: bool) -> Result<Arc<TraceEntry>, SimError> {
        let key = TraceKey { bench, thp };
        let idx = self
            .keys
            .iter()
            .position(|k| *k == key)
            .ok_or(SimError::BenchIndex {
                index: bench,
                count: dmt_workloads::bench7::BENCH7_COUNT,
            })?;
        self.slots[idx]
            .get_or_init(|| self.materialize(key))
            .clone()
    }

    /// Generate one key's trace: workload → access stream → `Setup`,
    /// optionally spilled to disk through the `dmt-trace` codec.
    fn materialize(&self, key: TraceKey) -> Result<Arc<TraceEntry>, SimError> {
        let started = Instant::now();
        let BenchTrace {
            workload: w,
            setup,
            trace,
        } = bench_trace(key.bench, 0, self.scale, key.thp)?;
        let store = match &self.spill_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!(
                    "{}-{}.dmtt",
                    w.name().to_lowercase(),
                    if key.thp { "thp" } else { "4k" }
                ));
                let meta = TraceMeta::of_workload(w.as_ref()).chunked(SPILL_CHUNK_LEN);
                let mut tw = TraceWriter::create(&path, &meta)?;
                tw.push_all(trace.iter().copied())?;
                tw.finish()?;
                TraceStore::Disk(path)
            }
            None => TraceStore::Memory(trace),
        };
        self.materializations.fetch_add(1, Ordering::Relaxed);
        self.materialize_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(Arc::new(TraceEntry {
            workload: w.name().to_string(),
            setup,
            store,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_inert() {
        let r = Runner::builder().build();
        assert!(r.wrapper.is_none());
        assert!(!r.telemetry_enabled());
        assert_eq!(r.results_dir(), std::path::Path::new("results"));
        assert!(r.spill_dir.is_none());
    }

    #[test]
    fn trace_set_dedups_keys_and_counts_materializations() {
        let keys = vec![
            TraceKey {
                bench: 2,
                thp: false,
            },
            TraceKey {
                bench: 2,
                thp: false,
            }, // duplicate collapses
            TraceKey {
                bench: 3,
                thp: false,
            },
        ];
        let set = TraceSet::new(Scale::test(), keys, None);
        assert_eq!(set.len(), 2);
        assert_eq!(set.materializations(), 0, "lazy until first use");
        let a = set.entry(2, false).unwrap();
        let b = set.entry(2, false).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key → same entry");
        assert_eq!(set.materializations(), 1);
        set.entry(3, false).unwrap();
        assert_eq!(set.materializations(), 2);
        assert!(set.materialize_nanos() > 0);
        // An unknown key is a typed error, not a panic.
        assert!(matches!(
            set.entry(6, true),
            Err(SimError::BenchIndex { index: 6, .. })
        ));
    }

    #[test]
    fn spilled_entry_round_trips_through_the_codec() {
        let dir = std::env::temp_dir().join(format!("dmt-spill-selftest-{}", std::process::id()));
        let set = TraceSet::new(
            Scale::test(),
            vec![TraceKey {
                bench: 2,
                thp: false,
            }],
            Some(dir.clone()),
        );
        let entry = set.entry(2, false).unwrap();
        let TraceStore::Disk(path) = &entry.store else {
            panic!("spill dir set but trace kept in memory");
        };
        assert!(path.exists());
        let decoded = dmt_trace::TraceReader::open(path)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(decoded.len(), Scale::test().total());
        // The decoded stream is exactly what an in-memory set holds.
        let mem = TraceSet::new(
            Scale::test(),
            vec![TraceKey {
                bench: 2,
                thp: false,
            }],
            None,
        );
        let mem_entry = mem.entry(2, false).unwrap();
        let TraceStore::Memory(v) = &mem_entry.store else {
            panic!("no spill dir but trace went to disk");
        };
        assert_eq!(&decoded, v);
        std::fs::remove_dir_all(&dir).ok();
    }
}
