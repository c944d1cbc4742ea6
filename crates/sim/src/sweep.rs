//! Parallel experiment sweeps over a shared trace pool: the
//! (environment × design × THP × benchmark) matrix fans out across
//! cores with `std::thread::scope` — no thread pool dependency — and
//! emits a machine-readable JSON report.
//!
//! Jobs share the materialization stage: every (benchmark, THP) trace
//! and its `Setup` are generated exactly once into a
//! [`TraceSet`] and replayed by all the
//! (env × design) jobs that need them — a full-matrix sweep used to
//! regenerate each trace ~20×. Workers claim jobs off a shared atomic
//! cursor; a job blocks only while *its* trace is still cooking (no
//! global barrier between the stages). Determinism is a hard invariant:
//! a parallel sweep's [`RunStats`] are bit-identical to the serial
//! path's (rigs share no mutable state across jobs, and wall-clock
//! timing lives in [`SweepRow`], never in [`RunStats`]). The test suite
//! enforces this, plus that the materialization counter equals the
//! unique-trace count.

use crate::engine::RunStats;
use crate::error::SimError;
use crate::experiments::Scale;
use crate::report::{telemetry_json, Json};
use crate::rig::{Design, Env};
use crate::runner::{Runner, TraceKey, TraceSet, TraceStore};
use dmt_telemetry::Telemetry;
use dmt_trace::TraceReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What to sweep. The matrix is the cross product of the fields,
/// filtered by [`Design::available_in`] (Table 6's N/A cells).
///
/// Construct with [`SweepConfig::builder`] to get construction-time
/// validation (benchmark bounds, non-empty matrix); the sweep drivers
/// re-validate direct struct literals.
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

    /// A builder starting from [`SweepConfig::default`] (the full
    /// matrix); `build()` validates.
    pub fn builder() -> SweepConfigBuilder {
        SweepConfigBuilder {
            cfg: SweepConfig::default(),
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

/// Builder for [`SweepConfig`]: set the axes, then
/// [`build`](SweepConfigBuilder::build) bounds-checks benchmark indices and
/// rejects configs whose matrix is empty — errors surface when the
/// config is constructed, not from deep inside a worker thread.
#[derive(Debug, Clone)]
pub struct SweepConfigBuilder {
    cfg: SweepConfig,
}

impl SweepConfigBuilder {
    /// Environments to cover.
    pub fn envs(mut self, envs: impl Into<Vec<Env>>) -> Self {
        self.cfg.envs = envs.into();
        self
    }

    /// Designs to cover.
    pub fn designs(mut self, designs: impl Into<Vec<Design>>) -> Self {
        self.cfg.designs = designs.into();
        self
    }

    /// THP modes to cover.
    pub fn thp(mut self, thp: impl Into<Vec<bool>>) -> Self {
        self.cfg.thp = thp.into();
        self
    }

    /// Benchmark indices to cover (paper order).
    pub fn benchmarks(mut self, benchmarks: impl Into<Vec<usize>>) -> Self {
        self.cfg.benchmarks = benchmarks.into();
        self
    }

    /// Workload scaling.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Worker threads (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Validate and finish.
    ///
    /// # Errors
    ///
    /// [`SimError::BenchIndex`] for an out-of-bounds benchmark,
    /// [`SimError::EmptyMatrix`] when the cross product (after
    /// availability filtering) has no jobs.
    pub fn build(self) -> Result<SweepConfig, SimError> {
        self.cfg.validate()?;
        Ok(self.cfg)
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
    /// Worker threads used (1 for the serial path).
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
            let out = match &entry.store {
                TraceStore::Memory(v) => self.replay_sharded(
                    job.env,
                    job.design,
                    job.thp,
                    &entry.setup,
                    crate::shard::ShardSource::Memory(v),
                    scale.warmup,
                    interval,
                )?,
                TraceStore::Disk(path) => {
                    let f = dmt_trace::TraceFile::open(path)?;
                    self.replay_sharded(
                        job.env,
                        job.design,
                        job.thp,
                        &entry.setup,
                        crate::shard::ShardSource::File(&f),
                        scale.warmup,
                        interval,
                    )?
                }
            };
            let coverage = out.derived_coverage();
            (out.stats, out.telemetry, coverage)
        } else {
            let mut rig = self.build_rig(job.env, job.design, job.thp, &entry.setup)?;
            let (stats, telemetry) = match &entry.store {
                TraceStore::Memory(v) => {
                    self.replay_sampled(rig.as_mut(), v.iter(), scale.warmup, interval)
                }
                TraceStore::Disk(path) => self.replay_sampled(
                    rig.as_mut(),
                    TraceReader::open(path)?.accesses(),
                    scale.warmup,
                    interval,
                ),
            };
            let coverage = rig.coverage();
            (stats, telemetry, coverage)
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

    /// Reject a config, or a sharded runner's epoch grid, before any
    /// trace is materialized.
    fn validate_sweep(&self, cfg: &SweepConfig) -> Result<(), SimError> {
        cfg.validate()?;
        if self.shards > 1 {
            crate::shard::check_epoch_len(self.epoch_len)?;
        }
        Ok(())
    }

    /// The shared trace pool for a job list: one lazy slot per unique
    /// (benchmark, THP) key.
    fn trace_set(&self, scale: Scale, jobs: &[SweepJob]) -> TraceSet {
        let keys = jobs
            .iter()
            .map(|j| TraceKey {
                bench: j.bench,
                thp: j.thp,
            })
            .collect();
        TraceSet::new(scale, keys, self.spill_dir.clone())
    }

    fn finish_report(
        rows: Vec<SweepRow>,
        threads: usize,
        traces: &TraceSet,
        started: Instant,
    ) -> SweepReport {
        SweepReport {
            rows,
            threads,
            total_wall_nanos: started.elapsed().as_nanos() as u64,
            unique_traces: traces.len() as u64,
            trace_materializations: traces.materializations(),
            materialize_nanos: traces.materialize_nanos(),
        }
    }

    /// Run the sweep across worker threads over a shared trace pool.
    ///
    /// Workers claim jobs off an atomic cursor. The first worker to
    /// need a (benchmark, THP) trace materializes it; everyone else
    /// replays the shared copy, so statistics are identical to
    /// [`Runner::sweep_serial`]'s and each trace is generated exactly
    /// once (the report's counters prove it).
    ///
    /// # Errors
    ///
    /// Config validation failures ([`SimError::EpochLen`] for a
    /// sharded runner with a zero epoch length), then the first job
    /// failure (by matrix order).
    pub fn sweep(&self, cfg: &SweepConfig) -> Result<SweepReport, SimError> {
        self.validate_sweep(cfg)?;
        let jobs = matrix(cfg);
        let threads = worker_count(cfg.threads, jobs.len());
        let started = Instant::now();
        let traces = self.trace_set(cfg.scale, &jobs);
        let rows = run_ordered(&jobs, threads, |&job| {
            self.run_shared_job(job, &traces, cfg.scale)
        })?;
        Ok(Self::finish_report(rows, threads, &traces, started))
    }

    /// Run the same matrix on the calling thread — the reference the
    /// determinism test holds [`Runner::sweep`] against. Shares the
    /// same materialize-once pipeline (with one worker, stage
    /// interleaving is just "generate on first need").
    ///
    /// # Errors
    ///
    /// Config validation failures, then the first job failure.
    pub fn sweep_serial(&self, cfg: &SweepConfig) -> Result<SweepReport, SimError> {
        self.validate_sweep(cfg)?;
        let started = Instant::now();
        let jobs = matrix(cfg);
        let traces = self.trace_set(cfg.scale, &jobs);
        let mut rows = Vec::new();
        for job in jobs {
            rows.push(self.run_shared_job(job, &traces, cfg.scale)?);
        }
        Ok(Self::finish_report(rows, 1, &traces, started))
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

    /// Write the JSON report to `<results_dir>/<name>.json` (see
    /// [`crate::report::results_dir`] — `$DMT_RESULTS_DIR` overrides the
    /// default `results/`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        self.to_json().write_json(name)
    }

    /// Write the JSON report to `<dir>/<name>.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json_in(
        &self,
        dir: &std::path::Path,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        self.to_json().write_json_in(dir, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_respects_availability() {
        let cfg = SweepConfig::builder()
            .envs(vec![Env::Native, Env::Virt, Env::Nested])
            .designs(vec![Design::Vanilla, Design::Shadow, Design::PvDmt])
            .thp(vec![false])
            .benchmarks(vec![0])
            .scale(Scale::test())
            .threads(1)
            .build()
            .unwrap();
        let jobs = matrix(&cfg);
        assert!(jobs.iter().all(|j| j.design.available_in(j.env)));
        // Native drops Shadow; Nested drops Shadow (keeps Vanilla+PvDmt).
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Native).count(), 2);
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Virt).count(), 3);
        assert_eq!(jobs.iter().filter(|j| j.env == Env::Nested).count(), 2);
    }

    #[test]
    fn builder_rejects_bad_configs_at_build_time() {
        let err = SweepConfig::builder()
            .benchmarks(vec![9])
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::BenchIndex { index: 9, count: 7 });
        assert!(err.to_string().contains("benchmark index 9 out of range"));

        let err = SweepConfig::builder().envs(Vec::new()).build().unwrap_err();
        assert_eq!(err, SimError::EmptyMatrix);
        // Non-empty axes can still cross to nothing: Shadow never runs
        // natively.
        let err = SweepConfig::builder()
            .envs(vec![Env::Native])
            .designs(vec![Design::Shadow])
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::EmptyMatrix);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let mut cfg = SweepConfig::test();
        cfg.threads = 4;
        let runner = Runner::from_env();
        let par = runner.sweep(&cfg).unwrap();
        let ser = runner.sweep_serial(&cfg).unwrap();
        assert_eq!(par.rows.len(), ser.rows.len());
        assert_eq!(par.rows.len(), matrix(&cfg).len());
        for (p, s) in par.rows.iter().zip(&ser.rows) {
            assert_eq!(p.outcome(), s.outcome());
        }
        // The runs did real work.
        assert!(par.rows.iter().all(|r| r.stats.accesses > 0));
        assert!(par.rows.iter().any(|r| r.stats.walks > 0));
        // Shared pipeline: 2 benchmarks × 1 THP mode = 2 unique traces,
        // each materialized exactly once despite 4 jobs needing them.
        for report in [&par, &ser] {
            assert_eq!(report.unique_traces, 2);
            assert_eq!(report.trace_materializations, 2);
        }
    }

    #[test]
    fn report_round_trips_to_results_dir() {
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

        // A unique temp dir, never the repo CWD's results/ — parallel
        // `cargo test` binaries must not race on a shared path.
        let dir = std::env::temp_dir().join(format!("dmt-sweep-selftest-{}", std::process::id()));
        let path = report.write_json_in(&dir, "sweep_selftest").unwrap();
        assert!(path.starts_with(&dir));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.trim_end(), json);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
