//! Per-tenant and node-level results of a cloud-node run.

use crate::engine::RunStats;
use crate::rig::{Design, Env};

/// One tenant's outcome, cumulative across churn incarnations.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Benchmark index (paper order).
    pub bench: usize,
    /// Workload name.
    pub workload: String,
    /// Environment the tenant ran in.
    pub env: Env,
    /// The tenant's final ASID (churn rebuilds assign fresh tags).
    pub asid: u16,
    /// How many times the tenant was built (1 + kills it suffered).
    pub incarnations: u32,
    /// Engine statistics summed over incarnations.
    pub stats: RunStats,
    /// DMT fetcher coverage of the final incarnation.
    pub coverage: f64,
}

/// The node-level outcome: per-tenant statistics, their field-wise
/// sum, the multi-tenant event counters, and the end-of-run health of
/// the shared buddy allocator.
///
/// Everything here is a pure function of the [`NodeConfig`]
/// (`tests/cloudnode.rs` pins bit-identical repeats), so `PartialEq`
/// comparisons are exact.
///
/// [`NodeConfig`]: crate::cloudnode::NodeConfig
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The design every tenant ran.
    pub design: Design,
    /// THP mode.
    pub thp: bool,
    /// Per-tenant outcomes, in config order.
    pub tenants: Vec<TenantStats>,
    /// Field-wise sum of the tenant statistics.
    pub node: RunStats,
    /// Scheduler switches between distinct tenants.
    pub context_switches: u64,
    /// Per-tag flushes of the shared TLB/PWC (tagged hardware reclaims
    /// a churned tenant's ASID this way; always zero on untagged
    /// hardware, which pays full flushes on every switch instead).
    pub tagged_flushes: u64,
    /// Shootdown IPIs received by tenants that did not cause them
    /// (churn teardowns broadcast to every other tenant).
    pub cross_tenant_shootdowns: u64,
    /// Fragmentation index of the shared buddy at end of run.
    pub frag_final: f64,
    /// Free frames left in the shared buddy at end of run.
    pub free_frames: u64,
    /// Full state hash of the shared buddy (determinism pinning).
    pub buddy_hash: u64,
}

impl NodeStats {
    /// Mean DMT fetcher coverage across tenants.
    pub fn mean_coverage(&self) -> f64 {
        if self.tenants.is_empty() {
            return 1.0;
        }
        self.tenants.iter().map(|t| t.coverage).sum::<f64>() / self.tenants.len() as f64
    }
}
