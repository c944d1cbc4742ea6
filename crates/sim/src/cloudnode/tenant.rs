//! One tenant of the node: its materialized workload trace, the rig
//! for the current incarnation, and the build/rebuild paths that
//! thread the node's shared physical memory through construction.

use crate::cloudnode::config::TenantSpec;
use crate::engine::RunStats;
use crate::error::SimError;
use crate::experiments::Scale;
use crate::rig::{build_rig_in, Design, Rig, Setup};
use crate::runner::{bench_trace, Runner};
use dmt_mem::PhysMemory;
use dmt_telemetry::Probe;
use dmt_workloads::gen::Access;

/// A tenant's immutable ingredients, materialized before any physical
/// memory is provisioned (the shared pool is sized from these).
pub(crate) struct TenantSeed {
    pub spec: TenantSpec,
    pub workload: String,
    pub setup: Setup,
    pub trace: Vec<Access>,
}

impl TenantSeed {
    /// Generate tenant `index`'s trace and setup. The seed
    /// ([`trace_seed`](crate::runner::trace_seed)) folds the tenant
    /// index into the high bits, so tenant 0 replays exactly the trace
    /// a sweep row of the same (benchmark, THP) replays — the one-tenant
    /// equivalence the test suite pins.
    pub(crate) fn materialize(
        spec: TenantSpec,
        index: usize,
        thp: bool,
        scale: Scale,
    ) -> Result<TenantSeed, SimError> {
        let b = bench_trace(spec.bench, index, scale, thp)?;
        Ok(TenantSeed {
            spec,
            workload: b.workload,
            setup: b.setup,
            trace: b.trace,
        })
    }
}

/// One live tenant: the seed, the current incarnation's rig, and the
/// scheduler-visible run state (cumulative across churn rebuilds).
pub(crate) struct Tenant {
    pub spec: TenantSpec,
    pub workload: String,
    pub setup: Setup,
    pub trace: Vec<Access>,
    pub rig: Box<dyn Rig>,
    /// The tenant's translation-cache tag (always 0 on untagged nodes).
    pub asid: u16,
    /// Position in the trace for the current incarnation.
    pub pos: usize,
    /// Engine statistics, cumulative across incarnations.
    pub stats: RunStats,
    pub incarnations: u32,
    /// DMT fetcher coverage of the latest incarnation.
    pub coverage: f64,
    /// Whether the node's shared PWC is currently swapped into the rig.
    pub pwc_lent: bool,
}

impl Tenant {
    /// First incarnation: build the rig inside `pm` (the node threads
    /// the shared memory through and reclaims it via `swap_phys`).
    pub(crate) fn build(
        seed: TenantSeed,
        pm: PhysMemory,
        design: Design,
        thp: bool,
        runner: &Runner,
        asid: u16,
    ) -> Result<Tenant, SimError> {
        let rig = runner.wrap(build_rig_in(pm, seed.spec.env, design, thp, &seed.setup)?);
        Ok(Tenant {
            spec: seed.spec,
            workload: seed.workload,
            setup: seed.setup,
            trace: seed.trace,
            rig,
            asid,
            pos: 0,
            stats: RunStats::default(),
            incarnations: 1,
            coverage: 1.0,
            pwc_lent: false,
        })
    }

    /// Harvest the incarnation's end state, with the memory parked:
    /// its exits and faults join the cumulative stats, its coverage
    /// becomes the tenant's, and the probe absorbs its component
    /// counters. Run once per incarnation, at its churn kill or at the
    /// end of the node run.
    pub(crate) fn harvest<P: Probe>(&mut self, probe: &mut P) {
        self.stats.exits += self.rig.exits();
        self.stats.faults += self.rig.faults();
        self.coverage = self.rig.coverage();
        if P::ACTIVE {
            probe.absorb_components(self.rig.component_counters());
        }
    }

    /// Churn rebuild: a fresh rig over the same workload and trace,
    /// allocating from the (now aged) shared buddy, restarting the
    /// trace cold. Statistics keep accumulating across incarnations.
    pub(crate) fn rebuild(
        &mut self,
        pm: PhysMemory,
        design: Design,
        thp: bool,
        runner: &Runner,
        asid: u16,
    ) -> Result<(), SimError> {
        self.rig = runner.wrap(build_rig_in(pm, self.spec.env, design, thp, &self.setup)?);
        self.asid = asid;
        self.pos = 0;
        self.incarnations += 1;
        self.pwc_lent = false;
        Ok(())
    }
}
