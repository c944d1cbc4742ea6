//! Parallel experiment sweeps over a shared trace pool: the
//! (environment × design × THP × benchmark) matrix fans out across
//! cores with `std::thread::scope` — no thread pool dependency — and
//! emits a machine-readable JSON report.
//!
//! Jobs share the materialization stage: every (benchmark, THP) trace
//! and its `Setup` are generated exactly once and replayed by all the
//! (env × design) jobs that need them — a full-matrix sweep used to
//! regenerate each trace ~20×.
//!
//! ```text
//!  stage 1: materialize          stage 2: replay (env × design fan-out)
//!  ┌───────────────────────┐     ┌──────────────────────────────┐
//!  │ (bench, THP) ──► trace│────►│ worker: claim job off cursor │
//!  │ + Setup, exactly once │     │ entry(bench, thp) — blocks   │
//!  │ (OnceLock per key)    │     │ only if *its* trace is still │
//!  │                       │     │ cooking; then build rig, run │
//!  └───────────────────────┘     └──────────────────────────────┘
//! ```
//!
//! There is no global barrier between the stages: the first worker to
//! need a trace generates it while other workers replay already-ready
//! keys. Determinism is a hard invariant: a sweep's [`RunStats`] do not
//! depend on its worker count (rigs share no mutable state across jobs,
//! and wall-clock timing lives in [`SweepRow`], never in [`RunStats`]).
//! The test suite enforces this, plus that the materialization counter
//! equals the unique-trace count.

use crate::engine::RunStats;
use crate::error::SimError;
use crate::experiments::Scale;
use crate::report::{telemetry_json, Json};
use crate::rig::{Design, Env};
use crate::runner::{bench_trace, BenchTrace, Runner};
use dmt_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What to sweep. The matrix is the cross product of the fields,
/// filtered by [`Design::available_in`] (Table 6's N/A cells).
///
/// Build one as a struct literal (`..SweepConfig::test()` or
/// `..SweepConfig::default()` fills the rest); [`Runner::sweep`]
/// calls [`SweepConfig::validate`] before any trace is generated.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Environments to cover.
    pub envs: Vec<Env>,
    /// Designs to cover (filtered per environment).
    pub designs: Vec<Design>,
    /// THP modes to cover.
    pub thp: Vec<bool>,
    /// Indices into the seven-benchmark suite (paper order).
    pub benchmarks: Vec<usize>,
    /// Workload scaling.
    pub scale: Scale,
    /// Worker threads; `0` means all available cores.
    pub threads: usize,
}

impl Default for SweepConfig {
    /// The full Table-6 matrix at the default scale.
    fn default() -> Self {
        SweepConfig {
            envs: vec![Env::Native, Env::Virt, Env::Nested],
            designs: vec![
                Design::Vanilla,
                Design::Shadow,
                Design::Fpt,
                Design::Ecpt,
                Design::Agile,
                Design::Asap,
                Design::Dmt,
                Design::PvDmt,
            ],
            thp: vec![false, true],
            benchmarks: (0..dmt_workloads::bench7::BENCH7_COUNT).collect(),
            scale: Scale::default(),
            threads: 0,
        }
    }
}

impl SweepConfig {
    /// A small matrix for integration tests: native GUPS + BTree under
    /// vanilla and DMT.
    pub fn test() -> Self {
        SweepConfig {
            envs: vec![Env::Native],
            designs: vec![Design::Vanilla, Design::Dmt],
            thp: vec![false],
            benchmarks: vec![2, 3], // GUPS, BTree
            scale: Scale::test(),
            threads: 0,
        }
    }

    /// Check the config: every benchmark index in bounds, and the
    /// expanded matrix non-empty.
    ///
    /// # Errors
    ///
    /// [`SimError::BenchIndex`] or [`SimError::EmptyMatrix`].
    pub fn validate(&self) -> Result<(), SimError> {
        let count = dmt_workloads::bench7::BENCH7_COUNT;
        for &b in &self.benchmarks {
            if b >= count {
                return Err(SimError::BenchIndex { index: b, count });
            }
        }
        if matrix(self).is_empty() {
            return Err(SimError::EmptyMatrix);
        }
        Ok(())
    }
}

/// One cell of the sweep matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// Environment.
    pub env: Env,
    /// Design.
    pub design: Design,
    /// THP mode.
    pub thp: bool,
    /// Benchmark index.
    pub bench: usize,
}

/// One completed job: the deterministic simulation outcome plus host
/// wall-clock counters. Timing is deliberately *not* part of
/// [`RunStats`] so outcome equality between parallel and serial sweeps
/// is exact.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload name.
    pub workload: String,
    /// Environment.
    pub env: Env,
    /// Design.
    pub design: Design,
    /// THP active.
    pub thp: bool,
    /// Engine statistics (deterministic).
    pub stats: RunStats,
    /// DMT fetcher coverage (1.0 for non-DMT designs; deterministic).
    pub coverage: f64,
    /// Host wall-clock time for this job (trace wait + rig setup + run).
    pub wall_nanos: u64,
    /// Measured accesses replayed per host second.
    pub accesses_per_sec: f64,
    /// Telemetry captured during the run (when the runner asked for
    /// it). Deterministic, but compared separately from
    /// [`outcome`](SweepRow::outcome) so the `RunStats` invariant stays
    /// telemetry-agnostic.
    pub telemetry: Option<Telemetry>,
}

impl SweepRow {
    /// The deterministic part of the row — everything but host timing.
    /// Two sweeps over the same matrix must agree on this exactly.
    pub fn outcome(&self) -> (&str, Env, Design, bool, RunStats, u64) {
        (
            &self.workload,
            self.env,
            self.design,
            self.thp,
            self.stats,
            self.coverage.to_bits(),
        )
    }
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per matrix cell, in matrix order.
    pub rows: Vec<SweepRow>,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time.
    pub total_wall_nanos: u64,
    /// Unique (benchmark, THP) traces in the matrix.
    pub unique_traces: u64,
    /// Traces actually generated — must equal `unique_traces` (each
    /// exactly once); the tests and the CI sweep job fail otherwise.
    pub trace_materializations: u64,
    /// Host nanoseconds spent generating traces (summed across keys).
    pub materialize_nanos: u64,
}

/// Expand a config into its job list (deterministic order: env, THP,
/// benchmark, design), dropping unavailable (env, design) pairs.
pub fn matrix(cfg: &SweepConfig) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &env in &cfg.envs {
        for &thp in &cfg.thp {
            for &bench in &cfg.benchmarks {
                for &design in &cfg.designs {
                    if design.available_in(env) {
                        jobs.push(SweepJob {
                            env,
                            design,
                            thp,
                            bench,
                        });
                    }
                }
            }
        }
    }
    jobs
}

/// Workers for `jobs` jobs: `requested` (`0` = every core), at most one per job.
pub(crate) fn worker_count(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    threads.min(jobs.max(1))
}

/// Run `f` over `jobs` on `threads` scoped workers that claim jobs off
/// one atomic cursor. Results come back in input order, and the error
/// returned is the first by input order, whichever a worker hit first.
pub(crate) fn run_ordered<J: Sync, T: Send>(
    jobs: &[J],
    threads: usize,
    f: impl Fn(&J) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, SimError>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let out = f(job);
                slots.lock().expect("no poisoned workers")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every job claimed"))
        .collect()
}

/// The shared materialization stage of a sweep: one lazily-filled slot
/// per unique (benchmark, THP) key. The first worker to need a key
/// generates its trace and `Setup` inside the slot's `OnceLock`;
/// workers needing the *same* key block only on that slot.
struct TraceSet {
    scale: Scale,
    keys: Vec<(usize, bool)>,
    slots: Vec<OnceLock<Result<Arc<BenchTrace>, SimError>>>,
    materializations: AtomicU64,
    materialize_nanos: AtomicU64,
}

impl TraceSet {
    /// An empty set over the (benchmark, THP) keys of `jobs`
    /// (deduplicated, order-preserving).
    fn new(scale: Scale, jobs: &[SweepJob]) -> TraceSet {
        let mut keys = Vec::new();
        for j in jobs {
            if !keys.contains(&(j.bench, j.thp)) {
                keys.push((j.bench, j.thp));
            }
        }
        TraceSet {
            scale,
            slots: keys.iter().map(|_| OnceLock::new()).collect(),
            keys,
            materializations: AtomicU64::new(0),
            materialize_nanos: AtomicU64::new(0),
        }
    }

    /// The trace for a key, generated on first use. Blocks only while
    /// *this* key is being generated by another worker; a generation
    /// failure is cached and returned to every job on the key.
    fn entry(&self, bench: usize, thp: bool) -> Result<Arc<BenchTrace>, SimError> {
        let idx = self
            .keys
            .iter()
            .position(|&k| k == (bench, thp))
            .expect("every job's key is in its sweep's trace set");
        self.slots[idx]
            .get_or_init(|| {
                let started = Instant::now();
                let trace = bench_trace(bench, 0, self.scale, thp)?;
                self.materializations.fetch_add(1, Ordering::Relaxed);
                self.materialize_nanos
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(Arc::new(trace))
            })
            .clone()
    }
}

impl Runner {
    /// One replay-stage job over the shared trace pool.
    fn run_shared_job(
        &self,
        job: SweepJob,
        traces: &TraceSet,
        scale: Scale,
    ) -> Result<SweepRow, SimError> {
        let started = Instant::now();
        let entry = traces.entry(job.bench, job.thp)?;
        let interval = (scale.total() as u64 / 32).max(1);
        let (stats, telemetry, coverage) = if self.shards > 1 {
            // Sharded intra-trace replay (DESIGN.md §14). Coverage is
            // derived from the merged walk stats — per-rig cumulative
            // coverage does not merge across shards.
            let out = self.replay_sharded(
                job.env,
                job.design,
                job.thp,
                &entry.setup,
                crate::shard::ShardSource::Memory(&entry.trace),
                scale.warmup,
                interval,
            )?;
            let coverage = out.derived_coverage();
            (out.stats, out.telemetry, coverage)
        } else {
            let mut rig = self.build_rig(job.env, job.design, job.thp, &entry.setup)?;
            let (stats, telemetry) =
                self.replay_sampled(rig.as_mut(), &entry.trace, scale.warmup, interval);
            (stats, telemetry, rig.coverage())
        };
        let wall_nanos = started.elapsed().as_nanos() as u64;
        let secs = wall_nanos as f64 / 1e9;
        Ok(SweepRow {
            workload: entry.workload.clone(),
            env: job.env,
            design: job.design,
            thp: job.thp,
            stats,
            coverage,
            telemetry,
            wall_nanos,
            accesses_per_sec: if secs > 0.0 {
                stats.accesses as f64 / secs
            } else {
                0.0
            },
        })
    }

    /// Run the sweep across worker threads over a shared trace pool.
    ///
    /// Workers claim jobs off an atomic cursor. The first worker to
    /// need a (benchmark, THP) trace materializes it; everyone else
    /// replays the shared copy, so each trace is generated exactly
    /// once (the report's counters prove it) and the rows do not
    /// depend on `cfg.threads` — `threads: 1` is the serial reference
    /// the determinism tests hold wider sweeps against.
    ///
    /// # Errors
    ///
    /// Config validation failures ([`SimError::EpochLen`] for a
    /// sharded runner with a zero epoch length), then the first job
    /// failure (by matrix order).
    pub fn sweep(&self, cfg: &SweepConfig) -> Result<SweepReport, SimError> {
        cfg.validate()?;
        if self.shards > 1 {
            crate::shard::check_epoch_len(self.epoch_len)?;
        }
        let jobs = matrix(cfg);
        let threads = worker_count(cfg.threads, jobs.len());
        let started = Instant::now();
        let traces = TraceSet::new(cfg.scale, &jobs);
        let rows = run_ordered(&jobs, threads, |&job| {
            self.run_shared_job(job, &traces, cfg.scale)
        })?;
        Ok(SweepReport {
            rows,
            threads,
            total_wall_nanos: started.elapsed().as_nanos() as u64,
            unique_traces: traces.keys.len() as u64,
            trace_materializations: traces.materializations.load(Ordering::Relaxed),
            materialize_nanos: traces.materialize_nanos.load(Ordering::Relaxed),
        })
    }
}

impl SweepReport {
    /// Render as a JSON document (schema `dmt-sweep-v1`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", Json::Str("dmt-sweep-v1".into()))
            .set("threads", Json::U64(self.threads as u64))
            .set("total_wall_nanos", Json::U64(self.total_wall_nanos))
            .set("unique_traces", Json::U64(self.unique_traces))
            .set(
                "trace_materializations",
                Json::U64(self.trace_materializations),
            )
            .set("materialize_nanos", Json::U64(self.materialize_nanos))
            .set(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let mut row = Json::obj()
                                .set("workload", Json::Str(r.workload.clone()))
                                .set("env", Json::Str(r.env.name().into()))
                                .set("design", Json::Str(r.design.name().into()))
                                .set("thp", Json::Bool(r.thp))
                                .set("accesses", Json::U64(r.stats.accesses))
                                .set("walks", Json::U64(r.stats.walks))
                                .set("walk_cycles", Json::U64(r.stats.walk_cycles))
                                .set("walk_refs", Json::U64(r.stats.walk_refs))
                                .set("data_cycles", Json::U64(r.stats.data_cycles))
                                .set("fallbacks", Json::U64(r.stats.fallbacks))
                                .set("exits", Json::U64(r.stats.exits))
                                .set("faults", Json::U64(r.stats.faults))
                                .set("avg_walk_latency", Json::F64(r.stats.avg_walk_latency()))
                                .set("miss_ratio", Json::F64(r.stats.miss_ratio()))
                                .set("coverage", Json::F64(r.coverage))
                                .set("wall_nanos", Json::U64(r.wall_nanos))
                                .set("accesses_per_sec", Json::F64(r.accesses_per_sec));
                            if let Some(t) = &r.telemetry {
                                row = row.set("telemetry", telemetry_json(t));
                            }
                            row
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_respects_availability() {
        let cfg = SweepConfig {
            envs: vec![Env::Native, Env::Virt, Env::Nested],
            designs: vec![Design::Vanilla, Design::Shadow, Design::PvDmt],
            benchmarks: vec![0],
            ..SweepConfig::test()
        };
        cfg.validate().unwrap();
        let jobs = matrix(&cfg);
        assert!(jobs.iter().all(|j| j.design.available_in(j.env)));
        // Native drops Shadow; Nested drops Shadow (keeps Vanilla+PvDmt).
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Native).count(), 2);
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Virt).count(), 3);
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Nested).count(), 2);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let cfg = SweepConfig {
            benchmarks: vec![9],
            ..SweepConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, SimError::BenchIndex { index: 9, count: 7 });
        assert!(err.to_string().contains("benchmark index 9 out of range"));

        let cfg = SweepConfig {
            envs: Vec::new(),
            ..SweepConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), SimError::EmptyMatrix);
        // Non-empty axes can still cross to nothing: Shadow never runs
        // natively.
        let cfg = SweepConfig {
            envs: vec![Env::Native],
            designs: vec![Design::Shadow],
            ..SweepConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), SimError::EmptyMatrix);
    }

    #[test]
    fn trace_set_dedups_keys_and_counts_materializations() {
        let cfg = SweepConfig {
            benchmarks: vec![2, 3],
            ..SweepConfig::test()
        };
        let jobs = matrix(&cfg);
        assert_eq!(jobs.len(), 4, "two designs per benchmark");
        let set = TraceSet::new(cfg.scale, &jobs);
        assert_eq!(set.keys.len(), 2);
        assert_eq!(
            set.materializations.load(Ordering::Relaxed),
            0,
            "lazy until first use"
        );
        let a = set.entry(2, false).unwrap();
        let b = set.entry(2, false).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key → same entry");
        assert_eq!(set.materializations.load(Ordering::Relaxed), 1);
        set.entry(3, false).unwrap();
        assert_eq!(set.materializations.load(Ordering::Relaxed), 2);
        assert!(set.materialize_nanos.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn report_json_carries_rows_and_trace_counts() {
        let mut cfg = SweepConfig::test();
        cfg.benchmarks = vec![2]; // GUPS only: keep the test quick.
        let report = Runner::from_env().sweep(&cfg).unwrap();
        let json = report.to_json().to_string();
        assert!(json.contains("\"schema\": \"dmt-sweep-v1\""));
        assert!(json.contains("\"workload\": \"GUPS\""));
        assert!(json.contains("\"design\": \"DMT\""));
        assert!(json.contains("\"avg_walk_latency\""));
        assert!(json.contains("\"unique_traces\": 1"));
        assert!(json.contains("\"trace_materializations\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
