//! Sharded intra-trace parallel replay (DESIGN.md §14).
//!
//! One trace, K workers, bit-identical results. The trick is an
//! **epoch-barrier schedule** that makes hardware-cache state a
//! function of position in the trace rather than of replay history:
//!
//! * The trace is cut into fixed *epochs* of
//!   [`Runner::epoch_len`](crate::runner::RunnerBuilder::epoch_len)
//!   accesses. At every interior epoch boundary, **both** the serial
//!   reference ([`Runner::replay_epochs_serial`]) and every shard
//!   worker reset the TLB and cache hierarchy to their power-on state
//!   and flush the rig's internal translation caches.
//! * Shards are whole numbers of epochs. A shard starting at access
//!   `s > 0` builds a fresh rig from the shared [`Setup`] (identical,
//!   deterministic construction) and performs the barrier once before
//!   its first access — exactly the barrier the reference performs
//!   when it reaches `s`. Shard 0 skips that flush, like the
//!   reference's own start.
//! * Replay never mutates allocator / page-table / VMA state (setup
//!   maps everything up front; TEA migration is not driven from the
//!   replay path). [`Runner::replay_sharded`] asserts this by
//!   comparing every worker's [`Rig::alloc_state_hash`] and returns
//!   [`SimError::ShardDiverged`] on any mismatch.
//!
//! With those three properties, every access is replayed against the
//! same machine state on both paths, so per-shard [`RunStats`] sum —
//! field-wise, exactly — to the serial stats. Counters that a rig
//! accumulates from setup onward (exits, faults, component counters)
//! would be double-counted by K fresh rigs; workers for shards `> 0`
//! record a post-setup baseline and contribute only their replay
//! delta. Telemetry merges through the associative/commutative merge
//! algebra (histograms, counters) with the fragmentation series
//! stamped at global measured ordinals, so the merged recorder is the
//! serial recorder. `tests/shard_equivalence.rs` pins all of this for
//! every environment × design × THP × K.

use crate::engine::{ratio, run_span, sampler, Hw, OnMeasured, RunStats};
use crate::error::SimError;
use crate::rig::{Design, Env, Rig, Setup};
use crate::runner::Runner;
use dmt_telemetry::{ComponentCounters, NoopProbe, Probe, Telemetry};
use dmt_trace::TraceFile;
use dmt_workloads::gen::Access;

/// One shard's half-open access range `[start, end)`. Both bounds are
/// epoch-aligned (the end may be the trace length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Global ordinal of the first access.
    pub start: usize,
    /// Global ordinal one past the last access.
    pub end: usize,
}

impl ShardSpec {
    /// Accesses in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Where a shard worker reads its accesses from.
#[derive(Clone, Copy)]
pub enum ShardSource<'a> {
    /// An in-memory trace; shards replay subslices directly.
    Memory(&'a [Access]),
    /// A chunked trace file; shards decode their own chunks straight
    /// out of the mapping (zero-copy, no shared decode state).
    File(&'a TraceFile),
}

impl ShardSource<'_> {
    /// Total accesses available.
    pub fn len(&self) -> usize {
        match self {
            ShardSource::Memory(t) => t.len(),
            ShardSource::File(f) => f.len() as usize,
        }
    }

    /// Whether the source holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Split `n` accesses into at most `k` contiguous, epoch-aligned
/// shards. Epochs are distributed as evenly as possible (the first
/// `epochs % k` shards get one extra); shard counts above the epoch
/// count collapse. An empty trace yields one empty shard so the
/// setup-only counters (exits, faults) are still reported once.
///
/// # Errors
///
/// [`SimError::EpochLen`] if `epoch_len` is zero.
pub fn plan_shards(n: usize, epoch_len: usize, k: usize) -> Result<Vec<ShardSpec>, SimError> {
    check_epoch_len(epoch_len)?;
    if n == 0 {
        return Ok(vec![ShardSpec { start: 0, end: 0 }]);
    }
    let epochs = n.div_ceil(epoch_len);
    let k = k.clamp(1, epochs);
    let base = epochs / k;
    let extra = epochs % k;
    let mut plan = Vec::with_capacity(k);
    let mut epoch = 0usize;
    for i in 0..k {
        let take = base + usize::from(i < extra);
        plan.push(ShardSpec {
            start: epoch * epoch_len,
            end: ((epoch + take) * epoch_len).min(n),
        });
        epoch += take;
    }
    Ok(plan)
}

/// The merged result of a sharded replay.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Field-wise sum of per-shard stats — bit-identical to the serial
    /// epoch-barrier reference.
    pub stats: RunStats,
    /// Merged telemetry (when the runner captures it).
    pub telemetry: Option<Telemetry>,
    /// The allocator hash every shard agreed on (`None` when the rig
    /// exposes no allocator).
    pub alloc_hash: Option<u64>,
    /// Shards actually run (the plan may collapse below the requested
    /// K for short traces).
    pub shards: usize,
}

impl ShardedOutcome {
    /// Coverage derived from measured walk stats: the fraction of
    /// walks the design handled without falling back to the hardware
    /// walker. Sharded sweep rows report this instead of
    /// [`Rig::coverage`] (which is cumulative per-rig state and not
    /// mergeable across shards); it is 1.0 for non-DMT designs, which
    /// never set the fallback bit.
    pub fn derived_coverage(&self) -> f64 {
        1.0 - ratio(self.stats.fallbacks, self.stats.walks)
    }
}

/// The epoch grid needs a positive epoch length.
pub(crate) fn check_epoch_len(epoch_len: usize) -> Result<(), SimError> {
    if epoch_len == 0 {
        return Err(SimError::EpochLen);
    }
    Ok(())
}

/// Epoch gate for the barrier replays: a positive epoch length and,
/// for file-backed sharding, an epoch grid that lands on the chunk grid
/// (shard boundaries are epoch multiples and every worker decodes
/// whole chunks).
fn check_epochs(epoch_len: usize, src: &ShardSource<'_>) -> Result<(), SimError> {
    check_epoch_len(epoch_len)?;
    if let ShardSource::File(f) = src {
        if !(epoch_len as u64).is_multiple_of(f.chunk_len()) {
            return Err(SimError::ShardAlign {
                epoch_len,
                chunk_len: f.chunk_len(),
            });
        }
    }
    Ok(())
}

/// Replay a segment (one shard, or the whole trace for the serial
/// reference) under the epoch-barrier schedule: fresh TLB + hierarchy
/// per epoch, rig translation caches flushed at every interior epoch
/// boundary. The caller performs the boundary flush for `spec.start`
/// itself (shard 0 / the reference's own start performs none).
fn replay_segment<P: Probe>(
    runner: &Runner,
    rig: &mut dyn Rig,
    src: ShardSource<'_>,
    spec: ShardSpec,
    warmup: usize,
    stats: &mut RunStats,
    probe: &mut P,
) -> Result<(), SimError> {
    // Sampling is stamped at global measured ordinals.
    let mut sample = sampler(probe, spec.start.saturating_sub(warmup) as u64);
    let mut scratch: Vec<Access> = Vec::new();
    let mut e_start = spec.start;
    while e_start < spec.end {
        let e_end = (e_start + runner.epoch_len).min(spec.end);
        if e_start > spec.start {
            rig.flush_translation_caches();
        }
        // Power-on TLB and hierarchy; the tier split depends only on
        // the address, so a fresh tiered hierarchy keeps the contract.
        let mut hw = Hw::new(runner.hierarchy_for(rig.design()));
        let slice = match src {
            ShardSource::Memory(t) => &t[e_start..e_end],
            ShardSource::File(f) => {
                let cl = f.chunk_len() as usize;
                debug_assert_eq!(e_start % cl, 0, "epoch start off the chunk grid");
                scratch.clear();
                for c in e_start / cl..e_end.div_ceil(cl) {
                    f.decode_chunk(c, &mut scratch)?;
                }
                &scratch[..e_end - e_start]
            }
        };
        let hook = sample.as_mut().map(|f| f as OnMeasured<'_, P>);
        run_span(
            runner.engine,
            rig,
            slice,
            e_start,
            warmup,
            &mut hw,
            stats,
            probe,
            hook,
        );
        e_start = e_end;
    }
    Ok(())
}

/// One worker's merged contribution.
struct ShardRun {
    stats: RunStats,
    telemetry: Option<Telemetry>,
    alloc_hash: Option<u64>,
}

fn sub_components(a: ComponentCounters, b: ComponentCounters) -> ComponentCounters {
    ComponentCounters {
        pwc_l2_hits: a.pwc_l2_hits.saturating_sub(b.pwc_l2_hits),
        pwc_l3_hits: a.pwc_l3_hits.saturating_sub(b.pwc_l3_hits),
        pwc_l4_hits: a.pwc_l4_hits.saturating_sub(b.pwc_l4_hits),
        pwc_misses: a.pwc_misses.saturating_sub(b.pwc_misses),
        alloc_splits: a.alloc_splits.saturating_sub(b.alloc_splits),
        alloc_merges: a.alloc_merges.saturating_sub(b.alloc_merges),
        compactions: a.compactions.saturating_sub(b.compactions),
        tea_migrations: a.tea_migrations.saturating_sub(b.tea_migrations),
        shootdowns: a.shootdowns.saturating_sub(b.shootdowns),
    }
}

/// Run one shard: fresh rig, boundary flush for interior shards,
/// baseline subtraction for the setup-accumulated counters.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    runner: &Runner,
    env: Env,
    design: Design,
    thp: bool,
    setup: &Setup,
    src: ShardSource<'_>,
    spec: ShardSpec,
    warmup: usize,
    interval: u64,
) -> Result<ShardRun, SimError> {
    let mut rig = runner.build_rig(env, design, thp, setup)?;
    let interior = spec.start > 0;
    if interior {
        // The epoch barrier the serial reference performs when it
        // reaches this shard's start.
        rig.flush_translation_caches();
    }
    let (exits0, faults0, comp0) = if interior {
        (rig.exits(), rig.faults(), rig.component_counters())
    } else {
        (0, 0, ComponentCounters::default())
    };
    let mut stats = RunStats::default();
    let telemetry = if runner.telemetry {
        let mut t = Telemetry::with_interval(interval);
        replay_segment(runner, rig.as_mut(), src, spec, warmup, &mut stats, &mut t)?;
        t.absorb_components(sub_components(rig.component_counters(), comp0));
        Some(t)
    } else {
        replay_segment(
            runner,
            rig.as_mut(),
            src,
            spec,
            warmup,
            &mut stats,
            &mut NoopProbe,
        )?;
        None
    };
    stats.exits = rig.exits().saturating_sub(exits0);
    stats.faults = rig.faults().saturating_sub(faults0);
    Ok(ShardRun {
        stats,
        telemetry,
        alloc_hash: rig.alloc_state_hash(),
    })
}

impl Runner {
    /// The serial epoch-barrier reference: the whole trace on one rig,
    /// same barrier schedule as the shard workers, scalar or batched
    /// per the runner's engine flag. [`Runner::replay_sharded`] is
    /// bit-identical to this for every shard count — the contract
    /// `tests/shard_equivalence.rs` pins.
    ///
    /// # Errors
    ///
    /// [`SimError::EpochLen`] for a zero epoch length,
    /// [`SimError::ShardAlign`] for a file source whose chunk grid the
    /// epoch length misses; trace decode failures.
    pub fn replay_epochs_serial(
        &self,
        rig: &mut dyn Rig,
        src: ShardSource<'_>,
        warmup: usize,
        interval: u64,
    ) -> Result<(RunStats, Option<Telemetry>), SimError> {
        check_epochs(self.epoch_len, &src)?;
        let spec = ShardSpec {
            start: 0,
            end: src.len(),
        };
        let mut stats = RunStats::default();
        let telemetry = if self.telemetry {
            let mut t = Telemetry::with_interval(interval);
            replay_segment(self, rig, src, spec, warmup, &mut stats, &mut t)?;
            t.absorb_components(rig.component_counters());
            Some(t)
        } else {
            replay_segment(self, rig, src, spec, warmup, &mut stats, &mut NoopProbe)?;
            None
        };
        stats.exits = rig.exits();
        stats.faults = rig.faults();
        Ok((stats, telemetry))
    }

    /// Replay one trace across [`shards`](crate::runner::RunnerBuilder::shards)
    /// workers on scoped threads and merge the results. Bit-identical
    /// to [`Runner::replay_epochs_serial`] (the property suite's
    /// guarantee): same `RunStats`, same allocator hash, same
    /// telemetry.
    ///
    /// Each worker builds its own rig from `setup` — rig construction
    /// is deterministic, so all workers start from the same machine
    /// image; the final allocator-hash cross-check turns any violation
    /// of that assumption into [`SimError::ShardDiverged`] instead of
    /// silently wrong numbers.
    ///
    /// # Errors
    ///
    /// Rig construction failures, [`SimError::EpochLen`],
    /// [`SimError::ShardAlign`], [`SimError::ShardDiverged`], trace
    /// decode failures.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_sharded(
        &self,
        env: Env,
        design: Design,
        thp: bool,
        setup: &Setup,
        src: ShardSource<'_>,
        warmup: usize,
        interval: u64,
    ) -> Result<ShardedOutcome, SimError> {
        check_epochs(self.epoch_len, &src)?;
        let plan = plan_shards(src.len(), self.epoch_len, self.shards)?;
        let results: Vec<Result<ShardRun, SimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .map(|&spec| {
                    scope.spawn(move || {
                        run_shard(self, env, design, thp, setup, src, spec, warmup, interval)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut stats = RunStats::default();
        let mut telemetry = self.telemetry.then(|| Telemetry::with_interval(interval));
        let mut alloc_hash = None;
        for (i, r) in results.into_iter().enumerate() {
            let r = r?;
            stats += r.stats;
            if let (Some(t), Some(rt)) = (telemetry.as_mut(), r.telemetry.as_ref()) {
                t.merge(rt);
            }
            let first = *alloc_hash.get_or_insert(r.alloc_hash);
            if first != r.alloc_hash {
                return Err(SimError::ShardDiverged(format!(
                    "allocator state hash differs between shard 0 ({first:?}) and shard {i} ({:?})",
                    r.alloc_hash
                )));
            }
        }
        Ok(ShardedOutcome {
            stats,
            telemetry,
            alloc_hash: alloc_hash.expect("a shard plan is never empty"),
            shards: plan.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_workloads::bench7::Gups;
    use dmt_workloads::gen::Workload;

    #[test]
    fn plan_covers_the_trace_contiguously() {
        for (n, epoch, k) in [
            (10_000, 1_000, 4),
            (10_001, 1_000, 3),
            (999, 1_000, 7),
            (5_000, 256, 16),
            (1, 1, 5),
        ] {
            let plan = plan_shards(n, epoch, k).unwrap();
            assert!(!plan.is_empty());
            assert!(plan.len() <= k.max(1));
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, n);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap in {plan:?}");
            }
            for s in &plan {
                assert_eq!(s.start % epoch, 0, "unaligned start in {plan:?}");
                assert!(!s.is_empty(), "empty interior shard in {plan:?}");
            }
        }
    }

    #[test]
    fn plan_of_empty_trace_is_one_empty_shard() {
        let plan = plan_shards(0, 512, 8).unwrap();
        assert_eq!(plan, vec![ShardSpec { start: 0, end: 0 }]);
        assert!(plan[0].is_empty());
    }

    #[test]
    fn plan_balances_epochs() {
        // 10 epochs over 4 shards: 3,3,2,2.
        let plan = plan_shards(10_000, 1_000, 4).unwrap();
        let lens: Vec<usize> = plan.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![3_000, 3_000, 2_000, 2_000]);
    }

    #[test]
    fn sharded_replay_matches_the_serial_reference() {
        let w = Gups {
            table_bytes: 32 << 20,
        };
        let trace = w.trace(6_000, 42);
        let setup = Setup::of_workload(&w, &trace);
        let runner = crate::runner::Runner::builder().epoch_len(1_000).build();
        let mut rig = runner
            .build_rig(Env::Native, Design::Vanilla, false, &setup)
            .unwrap();
        let (serial, _) = runner
            .replay_epochs_serial(rig.as_mut(), ShardSource::Memory(&trace), 500, 0)
            .unwrap();
        for k in [1usize, 2, 3, 7] {
            let runner = crate::runner::Runner::builder()
                .epoch_len(1_000)
                .shards(k)
                .build();
            let out = runner
                .replay_sharded(
                    Env::Native,
                    Design::Vanilla,
                    false,
                    &setup,
                    ShardSource::Memory(&trace),
                    500,
                    0,
                )
                .unwrap();
            assert_eq!(out.stats, serial, "K={k}");
            assert_eq!(
                out.alloc_hash,
                rig.alloc_state_hash(),
                "allocator image K={k}"
            );
        }
    }

    #[test]
    fn file_sharding_requires_chunk_alignment() {
        let w = Gups {
            table_bytes: 4 << 20,
        };
        let mut bytes = Vec::new();
        dmt_trace::capture(&w, 2_000, 1, 300, &mut bytes).unwrap();
        let f = TraceFile::from_bytes(bytes).unwrap();
        let trace = w.trace(2_000, 1);
        let setup = Setup::of_workload(&w, &trace);
        let runner = crate::runner::Runner::builder()
            .epoch_len(1_000) // not a multiple of 300
            .shards(2)
            .build();
        let err = runner
            .replay_sharded(
                Env::Native,
                Design::Vanilla,
                false,
                &setup,
                ShardSource::File(&f),
                100,
                0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ShardAlign {
                epoch_len: 1_000,
                chunk_len: 300
            }
        ));
    }

    #[test]
    fn empty_trace_still_reports_setup_counters() {
        let w = Gups {
            table_bytes: 4 << 20,
        };
        let trace = w.trace(500, 3);
        let setup = Setup::of_workload(&w, &trace);
        let runner = crate::runner::Runner::builder().shards(4).build();
        let out = runner
            .replay_sharded(
                Env::Native,
                Design::Dmt,
                false,
                &setup,
                ShardSource::Memory(&[]),
                0,
                0,
            )
            .unwrap();
        assert_eq!(out.shards, 1);
        assert_eq!(out.stats.accesses, 0);
        // Setup-time faults are counted exactly once.
        let mut rig = runner
            .build_rig(Env::Native, Design::Dmt, false, &setup)
            .unwrap();
        assert_eq!(out.stats.faults, rig.as_mut().faults());
    }
}
