//! The trace-driven simulation loop (§5 methodology).
//!
//! For each access: probe the TLB; on a miss, invoke the rig's
//! translation path (which charges the cache hierarchy for each PTE
//! fetch) and refill the TLB; finally charge the data access itself
//! through the same hierarchy — the contention between data lines and
//! PTE lines is what makes last-level PTEs expensive for big-footprint
//! workloads.
//!
//! The loop is generic over a [`Probe`]: the no-op probe's
//! `ACTIVE = false` compiles every instrumentation branch away, so the
//! default path is byte-for-byte the uninstrumented engine, while a live
//! [`dmt_telemetry::Telemetry`] additionally captures per-walk
//! histograms, per-level counters and a periodic fragmentation
//! time-series. The probe only *observes* — simulation state transitions
//! are identical either way, which `tests/determinism.rs` pins by
//! comparing `RunStats` bit-for-bit.
//!
//! Both engines are driven through [`crate::runner::Runner`]; the
//! entry points here are crate-internal.

use crate::rig::{OutcomeBlock, Rig};
use dmt_cache::hierarchy::{HitLevel, MemoryHierarchy};
use dmt_cache::tlb::{Tlb, TlbHit};
use dmt_mem::{FastSet, TransUnit, VirtAddr};
use dmt_telemetry::{MemLevel, Probe, TlbPath};
use dmt_workloads::gen::Access;
use std::borrow::Borrow;

pub use dmt_telemetry::ratio;

/// Aggregated run statistics.
///
/// `Eq` is derived deliberately: the sweep driver's determinism test
/// compares parallel and serial runs field-for-field, so nothing
/// wall-clock-dependent may ever live here (timing belongs in
/// [`SweepRow`](crate::sweep::SweepRow)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Accesses measured (after warmup).
    pub accesses: u64,
    /// TLB misses → page walks.
    pub walks: u64,
    /// Total cycles spent translating.
    pub walk_cycles: u64,
    /// Total sequential PTE references.
    pub walk_refs: u64,
    /// Cycles spent on the data accesses themselves.
    pub data_cycles: u64,
    /// Translations that fell back to the hardware walker.
    pub fallbacks: u64,
    /// VM exits attributed to the design (from the rig).
    pub exits: u64,
    /// Page faults during setup (for exit-ratio normalization).
    pub faults: u64,
}

impl RunStats {
    /// Average page-walk latency in cycles (the paper's page-walk metric).
    pub fn avg_walk_latency(&self) -> f64 {
        ratio(self.walk_cycles, self.walks)
    }

    /// Average sequential references per walk.
    pub fn avg_refs(&self) -> f64 {
        ratio(self.walk_refs, self.walks)
    }

    /// TLB miss ratio over measured accesses.
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.walks, self.accesses)
    }

    /// Total translation overhead cycles (the `O_sim` of §5's model).
    pub fn overhead_cycles(&self) -> u64 {
        self.walk_cycles
    }
}

fn mem_level(l: HitLevel) -> MemLevel {
    match l {
        HitLevel::L1 => MemLevel::L1,
        HitLevel::L2 => MemLevel::L2,
        HitLevel::Llc => MemLevel::Llc,
        HitLevel::Dram => MemLevel::Dram,
    }
}

/// Accesses per engine block: the unit of the batched fast path.
///
/// Misses inside a block are accumulated into region-disjoint runs and
/// handed to [`Rig::translate_batch`] in one call, so backends can hoist
/// register-file and PWC lookup work across the run. 256 keeps the
/// per-block scratch (outcomes, records, pending-region set) inside L1
/// while amortizing the dispatch overhead; correctness never depends on
/// the exact value, which `tests/batch_equivalence.rs` pins by sweeping
/// traces whose length is not a multiple of it.
pub(crate) const BLOCK_SIZE: usize = 256;

/// What the block scan recorded for one element, in trace order.
///
/// The scan performs all *state* transitions (TLB probes/fills, cache
/// charges) immediately; accounting is deferred to one reconciliation
/// pass per block. Per-element data now lives column-wise in
/// `BlockState::outcomes`; the record only keeps what the columns do
/// not carry (hit path, hit/miss kind).
enum Rec {
    /// TLB hit: which TLB path hit (data level/cycles are in the
    /// outcome columns at the same index).
    Hit { path: TlbPath },
    /// TLB miss: the whole outcome lives in `BlockState::outcomes` at
    /// the same index.
    Miss,
}

/// Reusable per-block scratch for [`run_block`], held by the caller
/// (engine loop or a cloud-node tenant) so the allocations amortize
/// across blocks. Holds no cross-block simulation state.
#[derive(Default)]
pub(crate) struct BlockState {
    outcomes: OutcomeBlock,
    recs: Vec<Rec>,
    pending_regions: FastSet<u64>,
    /// Regions that received a TLB fill earlier in this block — the only
    /// places where the block-start residency hints can have gone stale
    /// in the absent→resident direction (a fill never exceeds the
    /// region granularity, see `region_shift`).
    filled_regions: FastSet<u64>,
    /// Block-start residency hints from [`Tlb::probe_block`], one per
    /// element.
    hints: Vec<bool>,
    /// The block's VAs, contiguous for the vectorized probe.
    vas: Vec<VirtAddr>,
    /// Indices of miss elements, for the column-wise reconcile pass.
    miss_idx: Vec<u32>,
}

/// The sampling callback [`run_block`] fires after a block's measured
/// accesses are reconciled — the shard/cloudnode periodic-series hook.
pub(crate) type OnMeasured<'a, P> = &'a mut dyn FnMut(&mut P, &dyn Rig, u64);

/// Flush a pending miss run: one `translate_batch` over the run's row
/// window, then the per-element TLB replay (miss charge + fill) in
/// element order — the same per-component op sequence the scalar loop
/// would have issued. When `first_pre_counted`, the run's first element
/// already took its miss charge through a failed `lookup_any` (a stale
/// block-probe hint), so only the fill remains for it.
#[allow(clippy::too_many_arguments)]
fn flush_run(
    rig: &mut dyn Rig,
    block: &[Access],
    range: std::ops::Range<usize>,
    first_pre_counted: bool,
    tlb: &mut Tlb,
    hier: &mut MemoryHierarchy,
    outcomes: &mut OutcomeBlock,
    filled_regions: &mut FastSet<u64>,
    region_shift: u32,
) {
    if range.is_empty() {
        return;
    }
    let (s, e) = (range.start, range.end);
    rig.translate_batch(&block[s..e], hier, &mut outcomes.rows(s..e));
    for (j, a) in block.iter().enumerate().take(e).skip(s) {
        let size = outcomes.size[j];
        let unit_len = outcomes.unit_len[j];
        // Whatever gets filled — a fixed page or a variable reach —
        // must stay inside one pending region, or the fill could
        // create a hit for a VA already scanned as a miss.
        debug_assert!(
            if unit_len == 0 {
                size.shift() <= region_shift
            } else {
                region_shift >= 63
                    || outcomes.unit_base[j] >> region_shift
                        == (outcomes.unit_base[j] + unit_len - 1) >> region_shift
            },
            "a fill exceeds the {region_shift}-bit pending-region granularity"
        );
        if !(first_pre_counted && j == s) {
            tlb.record_miss(a.va);
        }
        if unit_len != 0 {
            tlb.fill_unit(TransUnit {
                base: VirtAddr(outcomes.unit_base[j]),
                len: unit_len,
            });
        } else {
            tlb.fill(a.va, size);
        }
        filled_regions.insert(a.va.raw() >> region_shift);
    }
}

/// Run one block of accesses through the batched fast path.
///
/// Bit-identity contract (DESIGN.md §13): every state transition the
/// scalar [`step_access`] loop would perform happens here in the same
/// per-component order —
///
/// - the TLB residency of the whole block is probed up front with one
///   structure-major [`Tlb::probe_block`] pass (read-only, so the
///   hints observe exactly the block-entry state); a hint can go stale
///   during the block only (a) absent→resident via a fill, confined to
///   `filled_regions` and re-checked with an exact `probe_any`, or (b)
///   resident→absent via an eviction, caught because the stateful
///   `lookup_any` is the authority — when it misses, its failed probe
///   sequence IS the miss charge the scalar loop would take
///   (`record_miss`'s contract), and the element starts a new pending
///   run with the charge marked as already taken;
/// - misses accumulate into a *pending run* of region-disjoint VAs; a
///   TLB hit or a region conflict flushes the run first (so a fill
///   from an earlier miss can still produce the hit the scalar loop
///   would have seen), then re-probes exactly;
/// - hit elements do their data access immediately (cache charges stay
///   in trace order); miss elements' data accesses happen inside
///   `translate_batch`, interleaved per element with the PTE fetches;
/// - `measured`-gated accounting (RunStats + probe) is deferred to one
///   reconciliation pass per block over the outcome columns. With no
///   probe and no sampling hook the pass is column-wise (dense u64
///   sums over `data_cycles` plus a gather over the miss indices) —
///   bit-identical to the element-order replay because every RunStats
///   field is a commutative u64 sum. Otherwise the records replay in
///   element order with exactly the `measured`/`P::ACTIVE` gating of
///   [`step_access`], and `on_measured` fires after each measured
///   element with the running access count.
///
/// `measured_from` is the block-local index of the first measured
/// element (`warmup - block_base`, saturating).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block<P: Probe>(
    rig: &mut dyn Rig,
    block: &[Access],
    measured_from: usize,
    tlb: &mut Tlb,
    hier: &mut MemoryHierarchy,
    stats: &mut RunStats,
    probe: &mut P,
    st: &mut BlockState,
    mut on_measured: Option<OnMeasured<'_, P>>,
) {
    // Pending-region granularity must be at least the largest possible
    // TLB fill, or a fill could create a hit for a VA already scanned as
    // a miss. The rig knows its own reach (fixed-page designs: the page
    // shift, 21 under THP; variable-reach designs: 63, collapsing every
    // miss run to a single element); the flush asserts.
    let region_shift: u32 = rig.fill_shift();
    st.outcomes.reset(block.len());
    st.recs.clear();
    st.pending_regions.clear();
    st.filled_regions.clear();
    st.miss_idx.clear();
    st.vas.clear();
    st.vas.extend(block.iter().map(|a| a.va));
    st.hints.resize(block.len(), false);
    tlb.probe_block(&st.vas, &mut st.hints);
    // (run start, whether its first element's miss charge was already
    // taken by a failed lookup_any on a stale hint).
    let mut pending: Option<(usize, bool)> = None;

    for (i, a) in block.iter().enumerate() {
        let region = a.va.raw() >> region_shift;
        let mut hit =
            st.hints[i] || (st.filled_regions.contains(&region) && tlb.probe_any(a.va));
        if let Some((s, pre)) = pending {
            if hit || st.pending_regions.contains(&region) {
                flush_run(
                    rig,
                    block,
                    s..i,
                    pre,
                    tlb,
                    hier,
                    &mut st.outcomes,
                    &mut st.filled_regions,
                    region_shift,
                );
                st.pending_regions.clear();
                pending = None;
                hit = tlb.probe_any(a.va);
            }
        }
        if hit {
            match tlb.lookup_any(a.va) {
                Some((h, _)) => {
                    let path = match h {
                        TlbHit::L1 => TlbPath::L1,
                        _ => TlbPath::Stlb,
                    };
                    let pa = rig.data_pa(a.va);
                    let (level, cycles) = hier.access(pa.raw());
                    st.outcomes.data_level[i] = level;
                    st.outcomes.data_cycles[i] = cycles;
                    st.recs.push(Rec::Hit { path });
                }
                None => {
                    // Stale block-probe hint: the entry was evicted
                    // after the hints were taken. The failed lookup_any
                    // just charged the miss exactly as the deferred
                    // record_miss would have (same counters, recency
                    // order untouched) — start a new run with the
                    // charge marked taken. No flush intervened since
                    // the hint check, so this element necessarily
                    // *starts* its run.
                    pending = Some((i, true));
                    st.pending_regions.insert(region);
                    st.recs.push(Rec::Miss);
                    st.miss_idx.push(i as u32);
                }
            }
        } else {
            if pending.is_none() {
                pending = Some((i, false));
            }
            st.pending_regions.insert(region);
            st.recs.push(Rec::Miss);
            st.miss_idx.push(i as u32);
        }
    }
    if let Some((s, pre)) = pending {
        let e = block.len();
        flush_run(
            rig,
            block,
            s..e,
            pre,
            tlb,
            hier,
            &mut st.outcomes,
            &mut st.filled_regions,
            region_shift,
        );
        st.pending_regions.clear();
    }

    // Deferred accounting. Fast path: no probe, no sampling hook —
    // column-wise sums, same u64 additions in a different order.
    if !P::ACTIVE && on_measured.is_none() {
        if measured_from < block.len() {
            stats.accesses += (block.len() - measured_from) as u64;
            stats.data_cycles += st.outcomes.data_cycles[measured_from..]
                .iter()
                .sum::<u64>();
            for &j in &st.miss_idx {
                let j = j as usize;
                if j < measured_from {
                    continue;
                }
                stats.walks += 1;
                stats.walk_cycles += st.outcomes.cycles[j];
                stats.walk_refs += st.outcomes.refs[j];
                if st.outcomes.fault[j] {
                    stats.fallbacks += 1;
                }
            }
        }
        return;
    }

    // Slow path: replay the records in element order with the exact
    // measured/ACTIVE gating of step_access.
    for (j, rec) in st.recs.iter().enumerate() {
        if j < measured_from {
            continue;
        }
        let data_cycles = st.outcomes.data_cycles[j];
        match rec {
            Rec::Miss => {
                stats.walks += 1;
                stats.walk_cycles += st.outcomes.cycles[j];
                stats.walk_refs += st.outcomes.refs[j];
                if st.outcomes.fault[j] {
                    stats.fallbacks += 1;
                }
                if P::ACTIVE {
                    probe.tlb_lookup(TlbPath::Miss);
                    probe.walk(
                        st.outcomes.cycles[j],
                        st.outcomes.refs[j],
                        st.outcomes.fault[j],
                    );
                    for (level, n) in [
                        (MemLevel::L1, st.outcomes.pte[0][j]),
                        (MemLevel::L2, st.outcomes.pte[1][j]),
                        (MemLevel::Llc, st.outcomes.pte[2][j]),
                        (MemLevel::Dram, st.outcomes.pte[3][j]),
                    ] {
                        if n > 0 {
                            probe.pte_fetches(level, n);
                        }
                    }
                }
                stats.accesses += 1;
                stats.data_cycles += data_cycles;
                if P::ACTIVE {
                    probe.data_access(mem_level(st.outcomes.data_level[j]), data_cycles);
                }
            }
            Rec::Hit { path } => {
                if P::ACTIVE {
                    probe.tlb_lookup(*path);
                }
                stats.accesses += 1;
                stats.data_cycles += data_cycles;
                if P::ACTIVE {
                    probe.data_access(mem_level(st.outcomes.data_level[j]), data_cycles);
                }
            }
        }
        if let Some(cb) = on_measured.as_mut() {
            cb(probe, rig, stats.accesses);
        }
    }
}

/// The batched engine with an observation probe threaded through the
/// loop (driven via [`crate::runner::Runner::replay`] /
/// [`replay_sampled`](crate::runner::Runner::replay_sampled)).
///
/// Every probe call site is gated on `P::ACTIVE`, a const the compiler
/// folds, so `run_probed::<_, NoopProbe>` monomorphizes to exactly the
/// uninstrumented loop. With a live probe, per-walk latency/refs and
/// per-access data latency feed histograms, PTE fetches are attributed
/// to cache levels by the backend's per-element charge columns, and
/// every `sample_interval` measured accesses the rig's
/// fragmentation/RSS snapshot is appended to a time-series.
///
/// Accesses are fed to [`run_block`] in [`BLOCK_SIZE`] chunks, which
/// hands miss runs to [`Rig::translate_batch`] and defers accounting to
/// one reconciliation pass per block. It is bit-identical to
/// [`run_probed_scalar_in`] — the contract `tests/batch_equivalence.rs`
/// and the backend goldens pin.
///
/// The caller builds the hierarchy — how the runner's tiered-DRAM mode
/// injects a fast/slow split without disturbing the default (flat,
/// bit-identical) path.
pub(crate) fn run_probed_in<I, P>(
    rig: &mut dyn Rig,
    trace: I,
    warmup: usize,
    probe: &mut P,
    mut hier: MemoryHierarchy,
) -> RunStats
where
    I: IntoIterator,
    I::Item: Borrow<Access>,
    P: Probe,
{
    let mut tlb = Tlb::default();
    let mut stats = RunStats::default();
    let sample_every = if P::ACTIVE {
        probe.sample_interval().unwrap_or(0)
    } else {
        0
    };
    let mut on_measured = |p: &mut P, r: &dyn Rig, accesses: u64| {
        if sample_every > 0 && accesses.is_multiple_of(sample_every) {
            if let Some((frag, rss)) = r.frag_sample() {
                p.sample(accesses, frag, rss);
            }
        }
    };
    let mut st = BlockState::default();
    let mut buf: Vec<Access> = Vec::with_capacity(BLOCK_SIZE);
    let mut base = 0usize;
    for a in trace.into_iter() {
        buf.push(*a.borrow());
        if buf.len() == BLOCK_SIZE {
            let cb: Option<OnMeasured<'_, P>> = if sample_every > 0 {
                Some(&mut on_measured)
            } else {
                None
            };
            run_block(
                rig,
                &buf,
                warmup.saturating_sub(base),
                &mut tlb,
                &mut hier,
                &mut stats,
                probe,
                &mut st,
                cb,
            );
            base += BLOCK_SIZE;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        let cb: Option<OnMeasured<'_, P>> = if sample_every > 0 {
            Some(&mut on_measured)
        } else {
            None
        };
        run_block(
            rig,
            &buf,
            warmup.saturating_sub(base),
            &mut tlb,
            &mut hier,
            &mut stats,
            probe,
            &mut st,
            cb,
        );
    }
    stats.exits = rig.exits();
    stats.faults = rig.faults();
    if P::ACTIVE {
        probe.absorb_components(rig.component_counters());
    }
    stats
}

/// The pre-batching engine: one [`step_access`] per trace element, over
/// a caller-built hierarchy (the tiered-DRAM injection point, mirroring
/// [`run_probed_in`]).
///
/// Kept as the reference implementation the batched path is measured
/// and equivalence-tested against; select it with
/// [`RunnerBuilder::engine`](crate::runner::RunnerBuilder::engine)
/// (`Engine::Scalar`).
pub(crate) fn run_probed_scalar_in<I, P>(
    rig: &mut dyn Rig,
    trace: I,
    warmup: usize,
    probe: &mut P,
    mut hier: MemoryHierarchy,
) -> RunStats
where
    I: IntoIterator,
    I::Item: Borrow<Access>,
    P: Probe,
{
    let mut tlb = Tlb::default();
    let mut stats = RunStats::default();
    let sample_every = if P::ACTIVE {
        probe.sample_interval().unwrap_or(0)
    } else {
        0
    };
    for (i, a) in trace.into_iter().enumerate() {
        let a = a.borrow();
        let measured = i >= warmup;
        step_access(rig, a, measured, &mut tlb, &mut hier, &mut stats, probe);
        if P::ACTIVE && measured && sample_every > 0 && stats.accesses % sample_every == 0 {
            if let Some((frag, rss)) = rig.frag_sample() {
                probe.sample(stats.accesses, frag, rss);
            }
        }
    }
    stats.exits = rig.exits();
    stats.faults = rig.faults();
    if P::ACTIVE {
        probe.absorb_components(rig.component_counters());
    }
    stats
}

/// One access through the TLB → translate → data-access pipeline: the
/// loop body both [`run_probed_in`] and the cloud-node scheduler
/// ([`crate::cloudnode`]) execute, factored out so a one-tenant node is
/// bit-identical to the single-rig engine *by construction*.
///
/// Periodic fragmentation sampling stays with the caller: the single-rig
/// loop samples on `stats.accesses`, the node on its node-wide access
/// count, and sampling only reads rig state either way.
pub(crate) fn step_access<P: Probe>(
    rig: &mut dyn Rig,
    a: &Access,
    measured: bool,
    tlb: &mut Tlb,
    hier: &mut MemoryHierarchy,
    stats: &mut RunStats,
    probe: &mut P,
) {
    match tlb.lookup_any(a.va) {
        Some((hit, _)) => {
            if P::ACTIVE && measured {
                probe.tlb_lookup(match hit {
                    TlbHit::L1 => TlbPath::L1,
                    _ => TlbPath::Stlb,
                });
            }
        }
        None => {
            let before = if P::ACTIVE && measured {
                hier.stats()
            } else {
                Default::default()
            };
            let tr = rig.translate(a.va, hier);
            match tr.unit {
                Some(u) => tlb.fill_unit(u),
                None => tlb.fill(a.va, tr.size),
            }
            if measured {
                stats.walks += 1;
                stats.walk_cycles += tr.cycles;
                stats.walk_refs += tr.refs;
                if tr.fallback {
                    stats.fallbacks += 1;
                }
                if P::ACTIVE {
                    probe.tlb_lookup(TlbPath::Miss);
                    probe.walk(tr.cycles, tr.refs, tr.fallback);
                    let after = hier.stats();
                    for (level, n) in [
                        (MemLevel::L1, after.l1_hits - before.l1_hits),
                        (MemLevel::L2, after.l2_hits - before.l2_hits),
                        (MemLevel::Llc, after.llc_hits - before.llc_hits),
                        (MemLevel::Dram, after.dram_accesses - before.dram_accesses),
                    ] {
                        if n > 0 {
                            probe.pte_fetches(level, n);
                        }
                    }
                }
            }
        }
    }
    let pa = rig.data_pa(a.va);
    let (level, cyc) = hier.access(pa.raw());
    if measured {
        stats.accesses += 1;
        stats.data_cycles += cyc;
        if P::ACTIVE {
            probe.data_access(mem_level(level), cyc);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::native_rig::NativeRig;
    use crate::rig::{Design, Rig};
    use crate::runner::Runner;
    use dmt_telemetry::{Counter, Telemetry};
    use dmt_workloads::bench7::Gups;
    use dmt_workloads::gen::{Access, Workload};

    fn run(rig: &mut dyn Rig, trace: &[Access], warmup: usize) -> super::RunStats {
        Runner::builder().build().replay(rig, trace, warmup).0
    }

    fn tiny_gups() -> Gups {
        // Must exceed the PWC's 64 MiB reach (32 L2 entries x 2 MiB) or
        // vanilla walks degenerate to single fetches.
        Gups {
            table_bytes: 160 << 20,
        }
    }

    #[test]
    fn vanilla_native_walks_cost_more_than_dmt() {
        let w = tiny_gups();
        let trace = w.trace(6_000, 99);
        let mut vanilla = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        let sv = run(&mut vanilla, &trace, 1_000);
        let mut dmt = NativeRig::new(Design::Dmt, false, &w, &trace).unwrap();
        let sd = run(&mut dmt, &trace, 1_000);
        assert!(sv.walks > 1_000, "GUPS must thrash the TLB: {}", sv.walks);
        assert!(
            sd.avg_walk_latency() < sv.avg_walk_latency(),
            "DMT {} !< vanilla {}",
            sd.avg_walk_latency(),
            sv.avg_walk_latency()
        );
        assert!(sd.avg_refs() <= 1.01, "DMT native is one reference");
        assert!(sv.avg_refs() > 1.5);
        assert_eq!(sd.fallbacks, 0, "one-VMA GUPS is fully covered");
    }

    #[test]
    fn engine_counts_are_consistent() {
        let w = Gups { table_bytes: 32 << 20 };
        let trace = w.trace(3_000, 5);
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        let s = run(&mut rig, &trace, 500);
        assert_eq!(s.accesses, 2_500);
        assert!(s.walks <= s.accesses);
        assert!(s.data_cycles > 0);
        assert!(s.miss_ratio() > 0.0 && s.miss_ratio() <= 1.0);
    }

    #[test]
    fn thp_cuts_tlb_misses() {
        let w = Gups { table_bytes: 32 << 20 };
        let trace = w.trace(6_000, 7);
        let mut small = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        let s4 = run(&mut small, &trace, 1_000);
        let mut huge = NativeRig::new(Design::Vanilla, true, &w, &trace).unwrap();
        let s2 = run(&mut huge, &trace, 1_000);
        assert!(
            s2.miss_ratio() < s4.miss_ratio(),
            "THP {} !< 4K {}",
            s2.miss_ratio(),
            s4.miss_ratio()
        );
    }

    #[test]
    fn zero_walk_stats_are_finite() {
        // The shared ratio() helper guards every derived metric: a run
        // with no measured accesses/walks must report clean zeros, not
        // NaN (the old code duplicated this guard per method).
        let s = super::RunStats::default();
        assert_eq!(s.avg_walk_latency(), 0.0);
        assert_eq!(s.avg_refs(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(super::ratio(0, 0), 0.0);
        assert_eq!(super::ratio(7, 0), 0.0);
        assert_eq!(super::ratio(7, 2), 3.5);
    }

    #[test]
    fn probe_counts_reconcile_with_runstats() {
        let w = Gups { table_bytes: 32 << 20 };
        let trace = w.trace(3_000, 5);
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        let mut t = Telemetry::with_interval(500);
        let s = super::run_probed_in(
            &mut rig,
            &trace,
            500,
            &mut t,
            dmt_cache::hierarchy::MemoryHierarchy::default(),
        );
        // Telemetry sees exactly the measured events RunStats aggregates.
        assert_eq!(t.counters.get(Counter::Walks), s.walks);
        assert_eq!(t.walk_latency.count(), s.walks);
        assert_eq!(t.walk_latency.sum(), s.walk_cycles);
        assert_eq!(t.walk_refs.sum(), s.walk_refs);
        assert_eq!(t.data_latency.count(), s.accesses);
        assert_eq!(t.data_latency.sum(), s.data_cycles);
        assert_eq!(t.counters.get(Counter::TlbMisses), s.walks);
        let tlb_events = t.counters.get(Counter::TlbL1Hits)
            + t.counters.get(Counter::TlbStlbHits)
            + t.counters.get(Counter::TlbMisses);
        assert_eq!(tlb_events, s.accesses);
        let data_hits = t.counters.get(Counter::CacheDataL1)
            + t.counters.get(Counter::CacheDataL2)
            + t.counters.get(Counter::CacheDataLlc)
            + t.counters.get(Counter::CacheDataDram);
        assert_eq!(data_hits, s.accesses);
        // Vanilla walks fetch PTEs through the hierarchy.
        let pte = t.counters.get(Counter::CachePteL1)
            + t.counters.get(Counter::CachePteL2)
            + t.counters.get(Counter::CachePteLlc)
            + t.counters.get(Counter::CachePteDram);
        assert_eq!(pte, s.walk_refs);
        // Sampling fired every 500 measured accesses over 2500.
        assert_eq!(t.series.len(), 5);
    }
}
