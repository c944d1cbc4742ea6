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
//! through `run_span`, one access at a time through one loop body.
//! A TLB miss is one [`Rig::translate`] call on both engines; they
//! differ only in where the miss's data access is charged. The default
//! engine charges it at the translation's own PA; the scalar reference
//! charges it at the ground truth, [`Rig::data_pa`], and stays the
//! pinned semantics. The entry points here are crate-internal.

use crate::rig::{pte_delta, Rig, Translation};
use crate::runner::Engine;
use dmt_cache::hierarchy::{HitLevel, MemoryHierarchy};
use dmt_cache::tlb::{Tlb, TlbHit};
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
}

/// Field-wise sum: shard merges and the cloud node's tenant total.
impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, s: RunStats) {
        self.accesses += s.accesses;
        self.walks += s.walks;
        self.walk_cycles += s.walk_cycles;
        self.walk_refs += s.walk_refs;
        self.data_cycles += s.data_cycles;
        self.fallbacks += s.fallbacks;
        self.exits += s.exits;
        self.faults += s.faults;
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

/// Accesses [`replay`] buffers from a streamed trace per [`run_span`]
/// call. Only the buffer size: span boundaries never change a result.
const SPAN_LEN: usize = 256;

/// The sampling callback [`run_span`] fires after each measured access
/// with the running access count — the periodic-series hook.
pub(crate) type OnMeasured<'a, P> = &'a mut dyn FnMut(&mut P, &dyn Rig, u64);

/// Charge one measured page walk to `stats` and the probe; `pte` is the
/// walk's per-level PTE-fetch count (read only when the probe is live).
/// With [`account_data`], the only copy of the engine's accounting.
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

/// What a replay carries from one span to the next: the TLB and the
/// cache hierarchy. The caller owns its lifetime — the runner keeps one
/// per replay, the shard barrier starts a fresh one per epoch, and a
/// cloud node shares one across all its tenants.
pub(crate) struct Hw {
    pub(crate) tlb: Tlb,
    pub(crate) hier: MemoryHierarchy,
}

impl Hw {
    /// Power-on state over `hier` (flat or tiered, per
    /// [`Runner::hierarchy_for`](crate::runner::Runner)).
    pub(crate) fn new(hier: MemoryHierarchy) -> Hw {
        Hw {
            tlb: Tlb::default(),
            hier,
        }
    }
}

/// Replay `span` — the accesses at absolute trace positions
/// `base..base + span.len()` — under `engine`, one [`step_access`] per
/// element. Positions below `warmup` are replayed but not measured. The
/// optional `on_measured` hook fires after every measured element with
/// the running `stats.accesses`. The two engines are bit-identical by
/// contract (DESIGN.md §13).
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
    for (j, a) in span.iter().enumerate() {
        let measured = base + j >= warmup;
        step_access(engine, rig, a, measured, hw, stats, probe);
        if let (true, Some(cb)) = (measured, on_measured.as_mut()) {
            cb(probe, rig, stats.accesses);
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
            let (frag, rss) = r.frag_sample();
            p.sample(at, frag, rss);
        }
    })
}

/// Replay a whole trace through one rig over `hier`: the trace is
/// buffered into [`SPAN_LEN`] spans for [`run_span`], sampled every
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
    let mut buf: Vec<Access> = Vec::with_capacity(SPAN_LEN);
    let mut base = 0usize;
    let mut trace = trace.into_iter();
    loop {
        buf.clear();
        buf.extend(trace.by_ref().take(SPAN_LEN).map(|a| *a.borrow()));
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
/// loop body of both engines, which differ only in where a miss's data
/// access is charged.
fn step_access<P: Probe>(
    engine: Engine,
    rig: &mut dyn Rig,
    a: &Access,
    measured: bool,
    hw: &mut Hw,
    stats: &mut RunStats,
    probe: &mut P,
) {
    let hier = &mut hw.hier;
    let pa = match hw.tlb.lookup_pa(a.va) {
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
            let pa = match engine {
                Engine::Scalar => rig.data_pa(a.va),
                Engine::Batched => tr.pa,
            };
            match tr.unit {
                Some(u) => hw.tlb.fill_unit_pa(u, a.va, tr.pa),
                None => hw.tlb.fill_pa(a.va, tr.size, tr.pa),
            }
            if measured {
                let pte = if P::ACTIVE {
                    pte_delta(before, hier.stats())
                } else {
                    [0; 4]
                };
                account_walk(stats, probe, &tr, pte);
            }
            pa
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
