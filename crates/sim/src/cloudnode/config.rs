//! Node configuration: which tenants run, how the scheduler slices
//! time, whether translation caches are ASID-tagged, and how much
//! kill/restart churn the node endures.

use crate::error::SimError;
use crate::experiments::Scale;
use crate::rig::{Design, Env};

/// One tenant of the node: a bench7 workload index, the environment it
/// runs in (a native process or a virtual machine), and its scheduler
/// weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Benchmark index into the paper's Table 6 suite (paper order).
    pub bench: usize,
    /// Native process, single-level VM, or nested VM.
    pub env: Env,
    /// Scheduler weight: the tenant runs `weight * quantum` accesses
    /// per turn. Must be ≥ 1.
    pub weight: u32,
}

/// Distinct 16-bit ASID/VMID tags: a tagged node gives every tenant and
/// every churn rebuild its own, so it may have at most this many.
pub const ASID_COUNT: usize = 1 << 16;

/// Whether the node's hardware tags TLB/PWC entries with an ASID/VMID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tagging {
    /// Entries carry the running tenant's tag; context switches keep
    /// the caches warm and isolation comes from tag mismatch. Stale
    /// tags are reclaimed with per-tag flushes on tenant churn.
    #[default]
    Tagged,
    /// Untagged hardware: every context switch must flush the shared
    /// TLB and page-walk caches outright.
    Untagged,
}

/// Kill/restart churn: every `period` scheduler turns a
/// deterministically-chosen tenant is torn down (its page-table and
/// TEA frames return to the shared buddy, its data frames leak — the
/// OS model's munmap semantics) and rebuilt from the aged allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Scheduler turns between kills.
    pub period: usize,
    /// Total kills over the run (bounds the extra replay work a
    /// restarted tenant adds).
    pub kills: usize,
}

/// A multi-tenant cloud node: one design evaluated node-wide, N
/// tenants interleaved by a deterministic weighted round-robin
/// scheduler over one shared physical memory, TLB, and page-walk
/// cache.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The translation design every tenant runs (Table 7 compares
    /// designs at node granularity).
    pub design: Design,
    /// Transparent huge pages for every tenant.
    pub thp: bool,
    /// Workload scaling shared by all tenants.
    pub scale: Scale,
    /// Accesses per scheduler quantum (a weight-1 tenant's turn).
    pub quantum: usize,
    /// ASID/VMID tagging of the shared translation caches.
    pub tagging: Tagging,
    /// Kill/restart churn; `None` keeps all tenants up for the run.
    pub churn: Option<ChurnConfig>,
    /// The tenants, scheduled in index order.
    pub tenants: Vec<TenantSpec>,
    /// Seed for the churn victim selector.
    pub seed: u64,
}

impl NodeConfig {
    /// A node with explicit tenants and the default policy knobs
    /// (tagged hardware, no churn, 512-access quanta).
    pub fn new(design: Design, thp: bool, scale: Scale, tenants: Vec<TenantSpec>) -> NodeConfig {
        NodeConfig {
            design,
            thp,
            scale,
            quantum: 512,
            tagging: Tagging::default(),
            churn: None,
            tenants,
            seed: 0xC10D,
        }
    }

    /// A homogeneous-environment node: `n` tenants in `env`, cycling
    /// through the bench7 suite with mildly skewed weights (1–2), the
    /// shape Table 7 sweeps per (env, design) cell.
    pub fn uniform(design: Design, env: Env, thp: bool, scale: Scale, n: usize) -> NodeConfig {
        let tenants = (0..n)
            .map(|i| TenantSpec {
                bench: i % dmt_workloads::bench7::BENCH7_COUNT,
                env,
                weight: 1 + (i as u32 % 2),
            })
            .collect();
        NodeConfig::new(design, thp, scale, tenants)
    }

    /// Set the scheduler quantum.
    pub fn quantum(mut self, accesses: usize) -> NodeConfig {
        self.quantum = accesses;
        self
    }

    /// Set the tagging mode.
    pub fn tagging(mut self, t: Tagging) -> NodeConfig {
        self.tagging = t;
        self
    }

    /// Enable kill/restart churn.
    pub fn churn(mut self, period: usize, kills: usize) -> NodeConfig {
        self.churn = Some(ChurnConfig { period, kills });
        self
    }

    /// Set the churn victim-selector seed.
    pub fn seed(mut self, seed: u64) -> NodeConfig {
        self.seed = seed;
        self
    }

    /// Validate the shape before any memory is provisioned.
    ///
    /// # Errors
    ///
    /// [`SimError::Setup`] for an empty node, a zero quantum/weight, a
    /// zero churn period, or a tagged node whose tenants plus churn
    /// kills exceed [`ASID_COUNT`] (two live tenants would then share a
    /// tag); [`SimError::BenchIndex`] for an
    /// out-of-range benchmark; [`SimError::Unavailable`] when the
    /// design has no backend for some tenant's environment.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.tenants.is_empty() {
            return Err(SimError::Setup("a node needs at least one tenant".into()));
        }
        if self.quantum == 0 {
            return Err(SimError::Setup(
                "quantum must be at least one access".into(),
            ));
        }
        if let Some(c) = self.churn {
            if c.period == 0 {
                return Err(SimError::Setup("churn period must be nonzero".into()));
            }
        }
        let asids = self
            .tenants
            .len()
            .saturating_add(self.churn.map_or(0, |c| c.kills));
        if self.tagging == Tagging::Tagged && asids > ASID_COUNT {
            return Err(SimError::Setup(format!(
                "{asids} tenants and churn rebuilds need distinct ASIDs; a tagged node has {ASID_COUNT}"
            )));
        }
        for t in &self.tenants {
            if t.bench >= dmt_workloads::bench7::BENCH7_COUNT {
                return Err(SimError::BenchIndex {
                    index: t.bench,
                    count: dmt_workloads::bench7::BENCH7_COUNT,
                });
            }
            if t.weight == 0 {
                return Err(SimError::Setup("tenant weight must be at least 1".into()));
            }
            if !self.design.available_in(t.env) {
                return Err(SimError::Unavailable {
                    design: self.design,
                    env: t.env,
                });
            }
        }
        Ok(())
    }
}
