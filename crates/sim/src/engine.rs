//! The trace-driven simulation loop (§5 methodology).
//!
//! For each access: probe the TLB; on a miss, invoke the rig's
//! translation path (which charges the cache hierarchy for each PTE
//! fetch) and refill the TLB with the walk's frame; finally charge the
//! data access itself through the same hierarchy — the contention
//! between data lines and PTE lines is what makes last-level PTEs
//! expensive for big-footprint workloads.
//!
//! A hit's data access goes to the frame the TLB entry carries, so hits
//! do no page walk at all: [`Rig::data_pa`], the software ground truth,
//! runs only on misses, and a `debug_assert_eq!` checks every hit's
//! frame against it.
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
//! Every replay in the crate — [`crate::runner::Runner::replay`], the
//! sharded epoch barrier and the cloud node's scheduler quanta — goes
//! through [`run_span`], the one place that picks between the scalar
//! reference and the batched fast path. Both engines charge `RunStats`
//! and the probe through the same two helpers, in trace order. The
//! entry points here are crate-internal.

use crate::rig::{pte_delta, Outcome, Rig, Translation};
use crate::runner::Engine;
use dmt_cache::hierarchy::{HitLevel, MemoryHierarchy};
use dmt_cache::tlb::{Tlb, TlbHit};
use dmt_mem::FastSet;
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

fn tlb_path(h: TlbHit) -> TlbPath {
    match h {
        TlbHit::L1 => TlbPath::L1,
        TlbHit::Stlb => TlbPath::Stlb,
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
/// engine's scratch (one run's outcomes, the pending-region set) inside
/// L1 while amortizing the dispatch overhead; correctness never depends
/// on the exact value, which `tests/batch_equivalence.rs` pins by
/// sweeping traces whose length is not a multiple of it.
pub(crate) const BLOCK_SIZE: usize = 256;

/// The sampling callback [`run_span`] fires after each measured access
/// with the running access count — the periodic-series hook.
pub(crate) type OnMeasured<'a, P> = &'a mut dyn FnMut(&mut P, &dyn Rig, u64);

/// Charge one measured page walk to `stats` and the probe; `pte` is the
/// walk's per-level PTE-fetch count (read only when the probe is live).
/// With [`account_data`], the only copy of the engine's accounting: both
/// engines call it.
fn account_walk<P: Probe>(stats: &mut RunStats, probe: &mut P, tr: &Translation, pte: [u64; 4]) {
    stats.walks += 1;
    stats.walk_cycles += tr.cycles;
    stats.walk_refs += tr.refs;
    if tr.fallback {
        stats.fallbacks += 1;
    }
    if P::ACTIVE {
        probe.tlb_lookup(TlbPath::Miss);
        probe.walk(tr.cycles, tr.refs, tr.fallback);
        let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Llc, MemLevel::Dram];
        for (level, n) in levels.into_iter().zip(pte) {
            if n > 0 {
                probe.pte_fetches(level, n);
            }
        }
    }
}

/// Charge one measured data access to `stats` and the probe.
fn account_data<P: Probe>(stats: &mut RunStats, probe: &mut P, level: HitLevel, cycles: u64) {
    stats.accesses += 1;
    stats.data_cycles += cycles;
    if P::ACTIVE {
        probe.data_access(mem_level(level), cycles);
    }
}

/// Flush a pending miss run: one `translate_batch` over the run, then,
/// per element in order, the TLB replay (miss charge + fill) and the
/// accounting — the same per-component op sequence the scalar loop
/// would have issued. The run's first element already took its miss
/// charge through the failed `lookup_pa` that started the run, so only
/// the fill remains for it. Empties the pending-region set, which is
/// therefore empty whenever no run is pending.
#[allow(clippy::too_many_arguments)]
fn flush_run<P: Probe>(
    rig: &mut dyn Rig,
    block: &[Access],
    range: std::ops::Range<usize>,
    measured_from: usize,
    hw: &mut Hw,
    region_shift: u32,
    stats: &mut RunStats,
    probe: &mut P,
    on_measured: &mut Option<OnMeasured<'_, P>>,
) {
    let run = &block[range.clone()];
    hw.outcomes.clear();
    hw.outcomes.resize(run.len(), Outcome::default());
    rig.translate_batch(run, &mut hw.hier, &mut hw.outcomes);
    hw.pending_regions.clear();
    for ((j, a), o) in range.clone().zip(run).zip(&hw.outcomes) {
        // Whatever gets filled — a fixed page or a variable reach —
        // must stay inside one pending region, or the fill could
        // create a hit for a VA already scanned as a miss.
        debug_assert!(
            match o.tr.unit {
                None => o.tr.size.shift() <= region_shift,
                Some(u) => {
                    region_shift >= 63
                        || u.base.raw() >> region_shift
                            == (u.base.raw() + u.len - 1) >> region_shift
                }
            },
            "a fill exceeds the {region_shift}-bit pending-region granularity"
        );
        if j != range.start {
            hw.tlb.record_miss(a.va);
        }
        match o.tr.unit {
            Some(u) => hw.tlb.fill_unit_pa(u, a.va, o.tr.pa),
            None => hw.tlb.fill_pa(a.va, o.tr.size, o.tr.pa),
        }
        if j >= measured_from {
            account_walk(stats, probe, &o.tr, o.pte);
            account_data(stats, probe, o.data_level, o.data_cycles);
            if let Some(cb) = on_measured.as_mut() {
                cb(probe, rig, stats.accesses);
            }
        }
    }
}

/// Run one block of accesses through the batched fast path.
///
/// Bit-identity contract (DESIGN.md §13): every state transition the
/// scalar [`step_access`] loop would perform happens here in the same
/// per-component order —
///
/// - with no miss run pending, an element takes its stateful
///   [`Tlb::lookup_pa`] exactly as the scalar loop does. A hit does its
///   data access at once, at the entry's frame (cache charges stay in
///   trace order); a miss has just taken its miss charge, and starts a
///   *pending run*;
/// - with a run pending, an exact read-only [`Tlb::probe_any`] decides:
///   an access that misses, in a region no pending element occupies,
///   joins the run with its lookup deferred (`record_miss` at flush
///   time charges exactly what the failed lookup would have, and a
///   fill never reaches past its region, so no fill of the run can
///   turn it into a hit). A hit or a region conflict flushes the run
///   first — so a fill from an earlier miss can still produce the hit
///   the scalar loop would have seen — and then takes the stateful
///   lookup as above;
/// - miss elements' data accesses happen inside `translate_batch`,
///   interleaved per element with the PTE fetches.
///
/// `measured`-gated accounting (RunStats + probe) and the `on_measured`
/// hook stay in element order too: a hit is charged when its lookup
/// returns, and each miss when its run flushes. A pending run is an
/// unbroken stretch of misses — anything else flushes it first — so no
/// element is ever charged ahead of an earlier one.
///
/// `measured_from` is the block-local index of the first measured
/// element (`warmup - block_base`, saturating).
#[allow(clippy::too_many_arguments)]
fn run_block<P: Probe>(
    rig: &mut dyn Rig,
    block: &[Access],
    measured_from: usize,
    hw: &mut Hw,
    stats: &mut RunStats,
    probe: &mut P,
    mut on_measured: Option<OnMeasured<'_, P>>,
) {
    // Pending-region granularity must be at least the largest possible
    // TLB fill, or a fill could create a hit for a VA already scanned as
    // a miss. The rig knows its own reach (fixed-page designs: the page
    // shift, 21 under THP; variable-reach designs: 63, collapsing every
    // miss run to a single element); the flush asserts.
    let region_shift: u32 = rig.fill_shift();
    // Start of the pending miss run, if any.
    let mut pending: Option<usize> = None;

    for (i, a) in block.iter().enumerate() {
        let region = a.va.raw() >> region_shift;
        if let Some(s) = pending {
            if !hw.pending_regions.contains(&region) && !hw.tlb.probe_any(a.va) {
                hw.pending_regions.insert(region);
                continue;
            }
            flush_run(
                rig,
                block,
                s..i,
                measured_from,
                hw,
                region_shift,
                stats,
                probe,
                &mut on_measured,
            );
            pending = None;
        }
        match hw.tlb.lookup_pa(a.va) {
            Some((h, pa)) => {
                debug_assert_eq!(pa, rig.data_pa(a.va), "TLB frame at {}", a.va);
                let (level, cycles) = hw.hier.access(pa.raw());
                if i >= measured_from {
                    if P::ACTIVE {
                        probe.tlb_lookup(tlb_path(h));
                    }
                    account_data(stats, probe, level, cycles);
                    if let Some(cb) = on_measured.as_mut() {
                        cb(probe, rig, stats.accesses);
                    }
                }
            }
            None => {
                pending = Some(i);
                hw.pending_regions.insert(region);
            }
        }
    }
    if let Some(s) = pending {
        flush_run(
            rig,
            block,
            s..block.len(),
            measured_from,
            hw,
            region_shift,
            stats,
            probe,
            &mut on_measured,
        );
    }
}

/// What a replay carries from one span to the next: the TLB, the cache
/// hierarchy, and the batched engine's scratch. The caller owns its
/// lifetime — the runner keeps one per replay, the shard barrier starts
/// a fresh one per epoch, and a cloud node shares one across all its
/// tenants.
pub(crate) struct Hw {
    pub(crate) tlb: Tlb,
    pub(crate) hier: MemoryHierarchy,
    /// One miss run's outcomes, reused across flushes. Holds no
    /// cross-flush simulation state.
    outcomes: Vec<Outcome>,
    /// Regions (`va >> fill_shift`) the pending miss run occupies.
    pending_regions: FastSet<u64>,
}

impl Hw {
    /// Power-on state over `hier` (flat or tiered, per
    /// [`Runner::hierarchy_for`](crate::runner::Runner)).
    pub(crate) fn new(hier: MemoryHierarchy) -> Hw {
        Hw {
            tlb: Tlb::default(),
            hier,
            outcomes: Vec::with_capacity(BLOCK_SIZE),
            pending_regions: FastSet::default(),
        }
    }
}

/// Replay `span` — the accesses at absolute trace positions
/// `base..base + span.len()` — under `engine`. The only place in the
/// crate that chooses between the two engines:
///
/// - [`Engine::Scalar`] runs [`step_access`] per element;
/// - [`Engine::Batched`] runs [`run_block`] per [`BLOCK_SIZE`] chunk,
///   cut at multiples of `BLOCK_SIZE` in *absolute* position, so a
///   trace replayed in one span, in epochs, or in scheduler quanta sees
///   the same block boundaries.
///
/// Positions below `warmup` are replayed but not measured. The
/// optional `on_measured` hook fires after every measured element with
/// the running `stats.accesses`, in both engines. The two engines are
/// bit-identical by contract (DESIGN.md §13).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_span<P: Probe>(
    engine: Engine,
    rig: &mut dyn Rig,
    span: &[Access],
    base: usize,
    warmup: usize,
    hw: &mut Hw,
    stats: &mut RunStats,
    probe: &mut P,
    mut on_measured: Option<OnMeasured<'_, P>>,
) {
    match engine {
        Engine::Scalar => {
            for (j, a) in span.iter().enumerate() {
                let measured = base + j >= warmup;
                step_access(rig, a, measured, &mut hw.tlb, &mut hw.hier, stats, probe);
                if let (true, Some(cb)) = (measured, on_measured.as_mut()) {
                    cb(probe, rig, stats.accesses);
                }
            }
        }
        Engine::Batched => {
            let mut done = 0;
            while done < span.len() {
                let pos = base + done;
                let len = (span.len() - done).min(BLOCK_SIZE - pos % BLOCK_SIZE);
                run_block(
                    rig,
                    &span[done..done + len],
                    warmup.saturating_sub(pos),
                    hw,
                    stats,
                    probe,
                    on_measured.as_mut().map(|f| &mut **f as OnMeasured<'_, P>),
                );
                done += len;
            }
        }
    }
}

/// The periodic fragmentation/RSS sampler for a probe: after every
/// measured access whose count (shifted by `offset`, the global
/// ordinal of the caller's first measured access) is a multiple of the
/// probe's interval, record the rig's snapshot. `None` when the probe
/// does not sample.
pub(crate) fn sampler<P: Probe>(
    probe: &P,
    offset: u64,
) -> Option<impl FnMut(&mut P, &dyn Rig, u64)> {
    let every = if P::ACTIVE {
        probe.sample_interval().unwrap_or(0)
    } else {
        0
    };
    (every > 0).then_some(move |p: &mut P, r: &dyn Rig, accesses: u64| {
        let at = accesses + offset;
        if at.is_multiple_of(every) {
            if let Some((frag, rss)) = r.frag_sample() {
                p.sample(at, frag, rss);
            }
        }
    })
}

/// Replay a whole trace through one rig over `hier`: the trace is
/// buffered into [`BLOCK_SIZE`] spans for [`run_span`], sampled every
/// `probe.sample_interval()` measured accesses, and the rig's
/// setup-accumulated counters (exits, faults, component counters) are
/// read once at the end.
pub(crate) fn replay<I, P>(
    engine: Engine,
    rig: &mut dyn Rig,
    trace: I,
    warmup: usize,
    probe: &mut P,
    hier: MemoryHierarchy,
) -> RunStats
where
    I: IntoIterator,
    I::Item: Borrow<Access>,
    P: Probe,
{
    let mut hw = Hw::new(hier);
    let mut stats = RunStats::default();
    let mut sample = sampler(probe, 0);
    let mut buf: Vec<Access> = Vec::with_capacity(BLOCK_SIZE);
    let mut base = 0usize;
    let mut trace = trace.into_iter();
    loop {
        buf.clear();
        buf.extend(trace.by_ref().take(BLOCK_SIZE).map(|a| *a.borrow()));
        if buf.is_empty() {
            break;
        }
        let hook = sample.as_mut().map(|f| f as OnMeasured<'_, P>);
        run_span(
            engine, rig, &buf, base, warmup, &mut hw, &mut stats, probe, hook,
        );
        base += buf.len();
    }
    stats.exits = rig.exits();
    stats.faults = rig.faults();
    if P::ACTIVE {
        probe.absorb_components(rig.component_counters());
    }
    stats
}

/// One access through the TLB → translate → data-access pipeline: the
/// scalar engine's loop body, and the pinned semantics the batched
/// [`run_block`] reproduces.
fn step_access<P: Probe>(
    rig: &mut dyn Rig,
    a: &Access,
    measured: bool,
    tlb: &mut Tlb,
    hier: &mut MemoryHierarchy,
    stats: &mut RunStats,
    probe: &mut P,
) {
    let pa = match tlb.lookup_pa(a.va) {
        Some((hit, pa)) => {
            debug_assert_eq!(pa, rig.data_pa(a.va), "TLB frame at {}", a.va);
            if P::ACTIVE && measured {
                probe.tlb_lookup(tlb_path(hit));
            }
            pa
        }
        None => {
            let before = if P::ACTIVE && measured {
                hier.stats()
            } else {
                Default::default()
            };
            let tr = rig.translate(a.va, hier);
            match tr.unit {
                Some(u) => tlb.fill_unit_pa(u, a.va, tr.pa),
                None => tlb.fill_pa(a.va, tr.size, tr.pa),
            }
            if measured {
                let pte = if P::ACTIVE {
                    pte_delta(before, hier.stats())
                } else {
                    [0; 4]
                };
                account_walk(stats, probe, &tr, pte);
            }
            rig.data_pa(a.va)
        }
    };
    let (level, cycles) = hier.access(pa.raw());
    if measured {
        account_data(stats, probe, level, cycles);
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
        let w = Gups {
            table_bytes: 32 << 20,
        };
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
        let w = Gups {
            table_bytes: 32 << 20,
        };
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
        let w = Gups {
            table_bytes: 32 << 20,
        };
        let trace = w.trace(3_000, 5);
        let mut rig = NativeRig::new(Design::Vanilla, false, &w, &trace).unwrap();
        let mut t = Telemetry::with_interval(500);
        let s = super::replay(
            crate::runner::Engine::Batched,
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
