//! The evaluation harness: rigs for every (environment × design) pair,
//! the trace-driven engine, the §5 execution-time model, and one runner
//! per table/figure of the paper.
//!
//! * [`rig`] — the [`rig::Rig`] trait, [`rig::Design`], [`rig::Env`]
//!   and [`rig::MachineRig`], the one rig shell: a machine plus its
//!   backend.
//! * [`backends`] — one module per design (its auxiliary-structure
//!   setup, factory, machine knobs and translate path) and the
//!   per-environment backend enums, whose arms are the (design ×
//!   environment) table: Table 6's N/A cells are the missing arms.
//! * [`native_rig`] / [`virt_rig`] / [`nested_rig`] — each
//!   environment's [`backends::Machine`] impl (machine build, host
//!   sizing, ground truth) and its alias of the shell.
//! * [`engine`] — TLB → translate → data-access loop with statistics;
//!   batched by default, with the scalar reference loop kept for
//!   equivalence testing and as the bench-harness baseline. Both are
//!   driven through [`runner::Runner::replay`].
//! * [`perfmodel`] — the calibrated execution-time model (see DESIGN.md
//!   for the substitution rationale).
//! * [`experiments`] — Figure 4/14/15/16/17 and Table 5/6/7 runners;
//!   Figures 4/14/15/17 are paired-row sweeps on a [`runner::Runner`].
//! * [`overheads`] — the §6.3 management/hypercall/memory overheads.
//! * [`ablation`] — design-choice sweeps (register count, bubble
//!   threshold, register policy, eager allocation).
//! * [`runner`] — the unified [`runner::Runner`] entry point and the
//!   workspace's single environment-read site ([`runner::env_config`]).
//! * [`shard`] — sharded intra-trace parallel replay: K epoch-aligned
//!   shards on scoped threads, bit-identical to the serial
//!   epoch-barrier reference (DESIGN.md §14).
//! * [`sweep`] — parallel (env × design × THP × benchmark) sweeps over
//!   the shared trace pool, with JSON reports.
//! * [`cloudnode`] — the multi-tenant cloud-node scenario engine:
//!   N tenants over one shared physical memory and ASID-tagged
//!   TLB/PWC, with kill/restart churn and Table 7's node-level sweep.
//! * [`error`] — the [`error::SimError`] taxonomy.
//! * [`report`] — ASCII tables and the hand-rolled JSON value.
//!
//! # Example
//!
//! ```no_run
//! use dmt_sim::experiments::{fig15, Scale};
//! use dmt_sim::Runner;
//! let data = fig15(&Runner::from_env(), Scale::test()).unwrap();
//! for (thp, rows) in &data.modes {
//!     for r in rows {
//!         println!("{} {:?} thp={} pw={:.2}x app={:.2}x",
//!                  r.workload, r.design, thp, r.pw_speedup, r.app_speedup);
//!     }
//! }
//! ```

pub mod ablation;
pub mod backends;
pub mod cloudnode;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod native_rig;
pub mod nested_rig;
pub mod overheads;
pub mod perfmodel;
pub mod report;
pub mod rig;
pub mod runner;
pub mod shard;
pub mod sweep;
pub mod virt_rig;

pub use cloudnode::{ChurnConfig, NodeConfig, NodeStats, Tagging, TenantSpec, TenantStats};
pub use engine::{ratio, RunStats};
pub use error::SimError;
pub use experiments::{fig14, fig15, fig16, fig17, table5, table6, table7, Scale, Table7Row};
pub use rig::{Design, Env, RefEntry, Rig, Setup, Translation};
pub use runner::{env_config, Engine, EnvConfig, Runner, RunnerBuilder, DEFAULT_EPOCH_LEN};
pub use shard::{plan_shards, ShardSource, ShardSpec, ShardedOutcome};
pub use sweep::{SweepConfig, SweepReport, SweepRow};
