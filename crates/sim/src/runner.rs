//! The unified entry point for running simulations: one
//! builder-constructed [`Runner`] drives every replay, sweep, cloud
//! node and paper experiment.
//!
//! Environment coupling lives only here: [`env_config`] is the single
//! place in the workspace that reads `DMT_TELEMETRY` /
//! `DMT_RESULTS_DIR` (a grep test enforces this). Everything downstream
//! takes the resolved values as explicit inputs — [`Runner::from_env`]
//! is the edge where ambient configuration becomes constructor
//! arguments.

use crate::engine::{replay, RunStats};
use crate::error::SimError;
use crate::experiments::{scaled_benchmark, Scale};
use crate::rig::{Design, Env, Rig, Setup};
use dmt_cache::hierarchy::{DramTiers, HierarchyConfig, MemoryHierarchy};
use dmt_mem::PhysMemory;
use dmt_telemetry::{NoopProbe, Telemetry};
use dmt_workloads::gen::Access;
use std::borrow::Borrow;
use std::path::PathBuf;
use std::sync::OnceLock;

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
/// wrapped (oracle), whether runs capture telemetry, which engine and
/// hierarchy replays use, and how traces are sharded. Construct with
/// [`Runner::builder`] for explicit control or [`Runner::from_env`] for
/// the `DMT_*` defaults. Reports land under
/// [`report::results_dir`](crate::report::results_dir), which only
/// `DMT_RESULTS_DIR` sets.
#[derive(Debug, Clone)]
pub struct Runner {
    pub(crate) wrapper: Option<RigWrapper>,
    pub(crate) telemetry: bool,
    pub(crate) engine: Engine,
    pub(crate) tiered: bool,
    pub(crate) shards: usize,
    pub(crate) epoch_len: usize,
}

/// Default epoch length for the sharded replay's barrier schedule
/// (DESIGN.md §14). A power of two, so a file-backed source aligns out
/// of the box whenever its chunk length is a smaller power of two.
pub const DEFAULT_EPOCH_LEN: usize = 65_536;

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
/// wrapper, no telemetry, the default engine, flat DRAM, one shard,
/// [`DEFAULT_EPOCH_LEN`].
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

    /// Select the replay engine: the scalar reference or the fast path
    /// (the default), which differ only in the call a TLB miss makes.
    /// Both are bit-identical by contract (DESIGN.md §13).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.runner.engine = engine;
        self
    }

    /// Run replays over tiered DRAM: designs with a
    /// [`TierSpec`](crate::backends::dmt::TierSpec) (the DMT family)
    /// get a two-tier memory hierarchy (fast tier below `fast_bytes`,
    /// `slow_latency` above — where DMT's TEA migrations physically
    /// steer pages); designs without one, and the default `false`, run
    /// the flat hierarchy, bit-identically to a runner without this
    /// knob.
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
    /// A builder with explicit defaults (see [`RunnerBuilder`]).
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder::default()
    }

    /// The environment-configured runner: telemetry from
    /// [`env_config`], everything else at the builder defaults (no rig
    /// wrapper — the oracle enters through
    /// [`RunnerBuilder::rig_wrapper`] only).
    pub fn from_env() -> Runner {
        Runner::builder().telemetry(env_config().telemetry).build()
    }

    /// The engine this runner drives.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The memory hierarchy a replay of `design` runs over: tiered
    /// DRAM iff the runner opted in *and* the design has a tier spec;
    /// the flat default otherwise. Every replay
    /// path — single-rig, sharded epochs, cloud-node quanta — takes its
    /// hierarchy from here.
    pub(crate) fn hierarchy_for(&self, design: Design) -> MemoryHierarchy {
        let spec = crate::backends::dmt::tier_spec(design).filter(|_| self.tiered);
        match spec {
            Some(t) => MemoryHierarchy::new(HierarchyConfig::default().with_tiers(DramTiers {
                fast_bytes: t.fast_bytes,
                slow_latency: t.slow_latency,
            })),
            None => MemoryHierarchy::default(),
        }
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

/// A generated bench7 trace: the workload's name, its rig `Setup`,
/// and the access stream (warmup included).
#[derive(Debug)]
pub(crate) struct BenchTrace {
    pub workload: String,
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
        workload: workload.name().to_string(),
        setup,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_inert() {
        let r = Runner::builder().build();
        assert!(r.wrapper.is_none());
        assert!(!r.telemetry_enabled());
        assert_eq!(r.engine(), Engine::Batched);
        assert!(!r.tiered);
        assert_eq!((r.shards, r.epoch_len), (1, DEFAULT_EPOCH_LEN));
    }
}
