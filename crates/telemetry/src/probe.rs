//! The zero-cost observation hook.
//!
//! `engine::run_span` is generic over `P: Probe`. The default build
//! path goes through [`NoopProbe`], whose `ACTIVE = false` lets the
//! compiler constant-fold away every `if P::ACTIVE { ... }` block —
//! the instrumented engine monomorphizes to exactly the uninstrumented
//! one. The live recorder ([`crate::Telemetry`]) sets `ACTIVE = true`.
//!
//! The trait deliberately owns its event vocabulary ([`TlbPath`],
//! [`MemLevel`], [`ComponentCounters`]) instead of borrowing types
//! from the cache/mem crates: telemetry sits at the bottom of the
//! dependency graph so every layer can feed it.

/// Which level of the TLB front-end resolved (or missed) an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbPath {
    L1,
    Stlb,
    Miss,
}

/// Which level of the cache hierarchy serviced a memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    L1,
    L2,
    Llc,
    Dram,
}

/// A multi-tenant scheduling event on a cloud node (`sim::cloudnode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// The scheduler switched the node to another tenant.
    ContextSwitch,
    /// A per-ASID (tagged) flush of TLB/PWC entries on a switch.
    TaggedFlush,
    /// A TLB-shootdown IPI landed on a tenant that didn't cause it.
    CrossTenantShootdown,
}

/// End-of-run counters harvested from the rig's components (PWC,
/// buddy allocator, OS mapping layer). Plain data so rigs can fill it
/// without depending on the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentCounters {
    pub pwc_l2_hits: u64,
    pub pwc_l3_hits: u64,
    pub pwc_l4_hits: u64,
    pub pwc_misses: u64,
    pub alloc_splits: u64,
    pub alloc_merges: u64,
    pub compactions: u64,
    pub tea_migrations: u64,
    pub shootdowns: u64,
}

/// Observation hook threaded through the simulation engine.
///
/// Every method has a no-op default; implementations override what
/// they record. `ACTIVE` gates all call sites, so a `false` impl costs
/// nothing at runtime.
pub trait Probe {
    /// Call-site gate: `false` compiles the instrumentation away.
    const ACTIVE: bool;

    /// A measured access resolved (or missed) in the TLB front-end.
    fn tlb_lookup(&mut self, _path: TlbPath) {}

    /// A measured page walk completed.
    fn walk(&mut self, _cycles: u64, _refs: u64, _fallback: bool) {}

    /// `n` PTE fetches during a walk were serviced at `level`.
    fn pte_fetches(&mut self, _level: MemLevel, _n: u64) {}

    /// A measured data access was serviced at `level` in `cycles`.
    fn data_access(&mut self, _level: MemLevel, _cycles: u64) {}

    /// Sample fragmentation/RSS every this many measured accesses
    /// (`None` disables periodic sampling).
    fn sample_interval(&self) -> Option<u64> {
        None
    }

    /// Periodic memory-health snapshot (see `TimeSeries`).
    fn sample(&mut self, _at: u64, _frag_index: f64, _rss_frames: u64) {}

    /// End-of-run component counters from the rig.
    fn absorb_components(&mut self, _c: ComponentCounters) {}

    /// `n` multi-tenant scheduling events of kind `ev` occurred on the
    /// cloud node driving this rig.
    fn node_event(&mut self, _ev: NodeEvent, _n: u64) {}
}

/// The disabled probe: `ACTIVE = false`, every method inherits the
/// no-op default, and `run_span::<NoopProbe>` monomorphizes to
/// the uninstrumented engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ACTIVE: bool = false;
}
