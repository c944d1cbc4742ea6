//! Outside-in tracing of the scalar replay pipeline.
//!
//! [`traced_replay`] drives one rig through the same public calls the
//! scalar engine makes, in the same order — `Tlb::lookup_any`, on a miss
//! `Rig::translate` then `Tlb::fill`/`fill_unit`, then `Rig::data_pa`
//! and `MemoryHierarchy::access` — plus a read-only `Tlb::probe_block`
//! per 256-access block, and wraps every call in a span. Its `RunStats`
//! must equal `Runner::replay`'s exactly, which shows it runs the same
//! program. Spans stay in memory until the run ends.

use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::tlb::{Tlb, TlbStats};
use dmt_mem::VirtAddr;
use dmt_sim::rig::Rig;
use dmt_sim::RunStats;
use dmt_workloads::gen::Access;
use std::time::Instant;

/// The layer boundaries the traced pipeline records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One 256-access block of the engine loop (parent of the rest).
    Block,
    ProbeBlock,
    Lookup,
    Translate,
    Fill,
    DataPa,
    HierAccess,
}

pub const LAYERS: [Layer; 7] = [
    Layer::Block,
    Layer::ProbeBlock,
    Layer::Lookup,
    Layer::Translate,
    Layer::Fill,
    Layer::DataPa,
    Layer::HierAccess,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Block => "sim.engine.block",
            Layer::ProbeBlock => "cache.tlb.probe_block",
            Layer::Lookup => "cache.tlb.lookup_any",
            Layer::Translate => "sim.backends.translate",
            Layer::Fill => "cache.tlb.fill",
            Layer::DataPa => "sim.rig.data_pa",
            Layer::HierAccess => "cache.hierarchy.access",
        }
    }
}

/// Per layer, in [`LAYERS`] order: (calls, total ns, self ns).
pub type Summary = [(u64, u64, u64); LAYERS.len()];

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub layer: Layer,
}

/// The spans of one traced replay; `run` identifies it in the report.
pub struct SpanLog {
    pub run: u32,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(run: u32, capacity: usize) -> SpanLog {
        SpanLog {
            run,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Empty the log for run `run`, keeping its capacity.
    pub fn restart(&mut self, run: u32) {
        self.run = run;
        self.origin = Instant::now();
        self.spans.clear();
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent,
            layer,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Wrap `f` in a span of `layer` under `parent`.
    fn span<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, parent);
        let v = f();
        self.close(id);
        v
    }

    /// Per layer: (calls, total duration ns, self time ns). A span's
    /// self time is its duration minus the time its children cover.
    pub fn summary(&self) -> Summary {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = [(0u64, 0u64, 0u64); LAYERS.len()];
        for (s, cov) in self.spans.iter().zip(&covered) {
            let e = &mut out[s.layer as usize];
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*cov);
        }
        out
    }
}

/// What the traced replay measured besides its spans.
pub struct Traced {
    pub stats: RunStats,
    pub tlb: TlbStats,
    /// PTE fetches of measured walks per level `[L1, L2, LLC, DRAM]`,
    /// from hierarchy-stat diffs around `Rig::translate`.
    pub pte: [u64; 4],
    /// Wall time of the whole traced loop, seconds.
    pub wall_s: f64,
}

/// Replay `trace` through `rig` call by call, recording spans into `log`.
pub fn traced_replay(
    rig: &mut dyn Rig,
    trace: &[Access],
    warmup: usize,
    log: &mut SpanLog,
) -> Traced {
    const BLOCK: usize = 256;
    let t0 = Instant::now();
    let mut tlb = Tlb::default();
    let mut hier = MemoryHierarchy::default();
    let mut stats = RunStats::default();
    let mut pte = [0u64; 4];
    let mut vas: Vec<VirtAddr> = Vec::with_capacity(BLOCK);
    let mut hints = vec![false; BLOCK];
    for (b, block) in trace.chunks(BLOCK).enumerate() {
        let bs = log.open(Layer::Block, ROOT);
        vas.clear();
        vas.extend(block.iter().map(|a| a.va));
        hints.resize(block.len(), false);
        log.span(Layer::ProbeBlock, bs, || tlb.probe_block(&vas, &mut hints));
        for (j, a) in block.iter().enumerate() {
            let measured = b * BLOCK + j >= warmup;
            let hit = log.span(Layer::Lookup, bs, || tlb.lookup_any(a.va));
            if hit.is_none() {
                let before = hier.stats();
                let tr = log.span(Layer::Translate, bs, || rig.translate(a.va, &mut hier));
                let after = hier.stats();
                log.span(Layer::Fill, bs, || match tr.unit {
                    Some(u) => tlb.fill_unit(u),
                    None => tlb.fill(a.va, tr.size),
                });
                if measured {
                    stats.walks += 1;
                    stats.walk_cycles += tr.cycles;
                    stats.walk_refs += tr.refs;
                    stats.fallbacks += u64::from(tr.fallback);
                    pte[0] += after.l1_hits - before.l1_hits;
                    pte[1] += after.l2_hits - before.l2_hits;
                    pte[2] += after.llc_hits - before.llc_hits;
                    pte[3] += after.dram_accesses - before.dram_accesses;
                }
            }
            let pa = log.span(Layer::DataPa, bs, || rig.data_pa(a.va));
            let (_, cycles) = log.span(Layer::HierAccess, bs, || hier.access(pa.raw()));
            if measured {
                stats.accesses += 1;
                stats.data_cycles += cycles;
            }
        }
        log.close(bs);
    }
    stats.exits = rig.exits();
    stats.faults = rig.faults();
    Traced {
        stats,
        tlb: tlb.stats(),
        pte,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}
