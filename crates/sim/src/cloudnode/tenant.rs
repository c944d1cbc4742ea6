//! One tenant of the node: its materialized workload trace, the rig
//! for the current incarnation, and the build/rebuild paths that
//! thread the node's shared physical memory through construction.

use crate::cloudnode::config::TenantSpec;
use crate::engine::RunStats;
use crate::error::SimError;
use crate::experiments::Scale;
use crate::native_rig::NativeRig;
use crate::nested_rig::NestedRig;
use crate::rig::{Design, Env, Rig, Setup};
use crate::runner::{bench_trace, RigWrapper};
use crate::virt_rig::VirtRig;
use dmt_mem::PhysMemory;
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
            workload: b.workload.name().to_string(),
            setup: b.setup,
            trace: b.trace,
        })
    }

    /// Host (L0) bytes a standalone rig would provision for this
    /// tenant — the node's shared memory is sized as the sum of these.
    pub(crate) fn host_bytes(&self, thp: bool) -> u64 {
        host_bytes(self.spec.env, thp, &self.setup)
    }
}

/// Per-environment host sizing, matching the standalone constructors.
pub(crate) fn host_bytes(env: Env, thp: bool, setup: &Setup) -> u64 {
    match env {
        Env::Native => NativeRig::host_bytes(thp, setup),
        Env::Virt => VirtRig::host_bytes(thp, setup),
        Env::Nested => NestedRig::host_bytes(thp, setup),
    }
}

/// Build a rig of the tenant's environment inside `pm`, applying the
/// runner's wrapper (the oracle's entry point) if one is configured.
pub(crate) fn build_rig_in(
    pm: PhysMemory,
    env: Env,
    design: Design,
    thp: bool,
    setup: &Setup,
    wrapper: Option<RigWrapper>,
) -> Result<Box<dyn Rig>, SimError> {
    let rig: Box<dyn Rig> = match env {
        Env::Native => Box::new(NativeRig::with_setup_in(pm, design, thp, setup)?),
        Env::Virt => Box::new(VirtRig::with_setup_in(pm, design, thp, setup)?),
        Env::Nested => Box::new(NestedRig::with_setup_in(pm, design, thp, setup)?),
    };
    Ok(match wrapper {
        Some(w) => w(rig),
        None => rig,
    })
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
        wrapper: Option<RigWrapper>,
        asid: u16,
    ) -> Result<Tenant, SimError> {
        let rig = build_rig_in(pm, seed.spec.env, design, thp, &seed.setup, wrapper)?;
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

    /// Churn rebuild: a fresh rig over the same workload and trace,
    /// allocating from the (now aged) shared buddy, restarting the
    /// trace cold. Statistics keep accumulating across incarnations.
    pub(crate) fn rebuild(
        &mut self,
        pm: PhysMemory,
        design: Design,
        thp: bool,
        wrapper: Option<RigWrapper>,
        asid: u16,
    ) -> Result<(), SimError> {
        self.rig = build_rig_in(pm, self.spec.env, design, thp, &self.setup, wrapper)?;
        self.asid = asid;
        self.pos = 0;
        self.incarnations += 1;
        self.pwc_lent = false;
        Ok(())
    }
}
