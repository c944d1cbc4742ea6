//! `cloudnode`: the multi-tenant cloud-node scenario engine (Table 7).
//!
//! A virtualized cloud node runs many tenants — native processes and
//! VMs — over one physical machine. Translation state that the
//! single-rig experiments treat as private becomes *shared and
//! contended* here, which is exactly the regime the paper's
//! motivation (§2–§3) argues DMT is built for:
//!
//! - **One physical memory.** Every tenant's rig carves its frames out
//!   of a single shared buddy allocator, so tenant kill/restart churn
//!   ages fragmentation node-wide ([`ChurnConfig`]). The per-rig
//!   machinery is untouched: the node *lends* the shared
//!   [`PhysMemory`] to the running tenant via [`Rig::swap_phys`] and
//!   parks a placeholder in everyone else.
//! - **One TLB and one page-walk cache.** Entries are ASID/VMID-tagged
//!   ([`Tagging::Tagged`]): context switches keep the caches warm and
//!   isolation comes from tag mismatch, with per-tag flushes
//!   reclaiming a churned tenant's tag. The [`Tagging::Untagged`] knob
//!   models hardware without tags, which pays a full flush on every
//!   switch. The PWC is lent like the memory ([`Rig::swap_pwc`]);
//!   VM-private walk caches (the nested pair, shadow) stay per-tenant.
//! - **One deterministic scheduler.** A weighted round-robin
//!   interleaves tenant trace streams in fixed quanta. The
//!   interleaving is a pure function of the [`NodeConfig`] —
//!   telemetry and the oracle observe without perturbing, which
//!   `tests/cloudnode.rs` pins bit-for-bit.
//! - **Cross-tenant shootdown storms.** A churned tenant's teardown
//!   unmaps its address space; every shootdown it generates lands as
//!   an IPI on all *other* tenants and is counted
//!   ([`NodeStats::cross_tenant_shootdowns`]).
//!
//! Each scheduler quantum is one `engine::run_span` call — the
//! same span runner the single-rig engine uses, over the runner's
//! hierarchy (`Runner::hierarchy_for`) — and tenant 0 replays the
//! sweep's trace of its (benchmark, THP), so a one-tenant node is
//! bit-identical to the one-cell [`Runner::sweep`] row of its (env,
//! design, benchmark) by construction.
//!
//! [`Rig::swap_phys`]: crate::rig::Rig::swap_phys
//! [`Rig::swap_pwc`]: crate::rig::Rig::swap_pwc

mod config;
mod sched;
mod stats;
mod tenant;

pub use config::{ChurnConfig, NodeConfig, Tagging, TenantSpec};
pub use stats::{NodeStats, TenantStats};

use crate::engine::{run_span, sampler, Hw, OnMeasured};
use crate::error::SimError;
use crate::rig::Rig;
use crate::runner::Runner;
use dmt_cache::pwc::PageWalkCache;
use dmt_mem::PhysMemory;
use dmt_telemetry::{ComponentCounters, NodeEvent, NoopProbe, Probe, Telemetry};
use sched::{Scheduler, VictimPicker};
use tenant::{Tenant, TenantSeed};

/// The inert memory parked in inactive tenants while the node holds
/// the real shared pool. Nothing may allocate from it — tenants only
/// touch physical memory while scheduled.
fn placeholder() -> PhysMemory {
    PhysMemory::new_frames(8)
}

impl Runner {
    /// Run a multi-tenant cloud node to completion: every tenant's
    /// trace drained under the node's scheduler, with this runner's
    /// oracle wrapper applied to every tenant rig and telemetry
    /// captured iff the runner is configured for it (node-level: the
    /// shared caches, allocator counters, and a node-wide
    /// fragmentation time-series).
    ///
    /// # Errors
    ///
    /// Config validation errors, rig construction failures (including
    /// [`SimError::Unavailable`] cells), and a failed end-of-run audit
    /// of the shared buddy allocator.
    pub fn run_node(&self, cfg: &NodeConfig) -> Result<(NodeStats, Option<Telemetry>), SimError> {
        cfg.validate()?;
        if self.telemetry_enabled() {
            let total = cfg.scale.total() * cfg.tenants.len();
            let mut t = Telemetry::with_interval((total as u64 / 32).max(1));
            let stats = run_node_probed(self, cfg, &mut t)?;
            Ok((stats, Some(t)))
        } else {
            Ok((run_node_probed(self, cfg, &mut NoopProbe)?, None))
        }
    }
}

/// Park the shared memory (and PWC, if lent) back in the node.
fn deactivate(t: &mut Tenant, shared: &mut PhysMemory, pwc: &mut PageWalkCache) {
    if t.pwc_lent {
        t.rig.swap_pwc(pwc);
        t.pwc_lent = false;
    }
    t.rig.swap_phys(shared);
}

/// The node loop, generic over the observation probe exactly like the
/// single-rig engine: `NoopProbe` monomorphizes every instrumentation
/// branch away, so telemetry can never perturb the simulation.
fn run_node_probed<P: Probe>(
    runner: &Runner,
    cfg: &NodeConfig,
    probe: &mut P,
) -> Result<NodeStats, SimError> {
    let tagged = cfg.tagging == Tagging::Tagged;
    let audit_each_kill = runner.wrapper.is_some();

    // Materialize every tenant's trace first: the shared pool is sized
    // as the sum of what each standalone rig would provision, plus one
    // max-tenant's worth of headroom per churn kill (teardown leaks
    // data frames by design — the OS model's munmap semantics — so
    // rebuilt incarnations allocate from a genuinely aged buddy).
    let mut seeds = Vec::with_capacity(cfg.tenants.len());
    for (i, &spec) in cfg.tenants.iter().enumerate() {
        seeds.push(TenantSeed::materialize(spec, i, cfg.thp, cfg.scale)?);
    }
    let per_tenant: Vec<u64> = seeds
        .iter()
        .map(|s| crate::rig::host_bytes(s.spec.env, cfg.thp, &s.setup))
        .collect();
    let base: u64 = per_tenant.iter().sum();
    let headroom =
        cfg.churn.map_or(0, |c| c.kills as u64) * per_tenant.iter().copied().max().unwrap_or(0);
    let mut shared = PhysMemory::new_bytes(base + headroom);

    // Build each tenant inside the shared memory, then reclaim it:
    // the rig keeps a placeholder until it is scheduled.
    let mut tenants: Vec<Tenant> = Vec::with_capacity(seeds.len());
    for (i, seed) in seeds.into_iter().enumerate() {
        let asid = if tagged { i as u16 } else { 0 };
        let pm = std::mem::replace(&mut shared, placeholder());
        let mut t = Tenant::build(seed, pm, cfg.design, cfg.thp, runner, asid)?;
        t.rig.swap_phys(&mut shared);
        tenants.push(t);
    }
    let mut next_asid = tenants.len() as u16;

    // The node's shared translation hardware.
    let mut hw = Hw::new(runner.hierarchy_for(cfg.design));
    let mut pwc = PageWalkCache::default();

    let mut sched = Scheduler::new(cfg.quantum, cfg.tenants.iter().map(|t| t.weight).collect());
    let mut picker = VictimPicker::new(cfg.seed);
    let mut remaining: Vec<usize> = tenants.iter().map(|t| t.trace.len()).collect();

    // The node's series is stamped at a node-wide measured count, so
    // the sampler sees that count rather than the tenant's own.
    let mut node_accesses: u64 = 0;
    let mut sample = sampler(probe, 0).map(|mut f| {
        move |p: &mut P, r: &dyn Rig, _tenant_accesses: u64| {
            node_accesses += 1;
            f(p, r, node_accesses)
        }
    });
    let warmup = cfg.scale.warmup;
    let mut context_switches: u64 = 0;
    let mut tagged_flushes: u64 = 0;
    let mut cross_tenant_shootdowns: u64 = 0;
    let mut active: Option<usize> = None;
    let mut last_run: Option<usize> = None;
    let mut turns: usize = 0;
    let mut kills_done: usize = 0;

    while let Some((i, len)) = sched.next_turn(&remaining) {
        // Reclaim the shared caches from the outgoing tenant *first*:
        // while a tenant runs, the shared PWC lives inside its rig and
        // the node-local handle holds that rig's parked private cache —
        // tag updates or flushes before the swap-back would land on the
        // wrong object.
        if active != Some(i) {
            if let Some(j) = active {
                deactivate(&mut tenants[j], &mut shared, &mut pwc);
                active = None;
            }
        }

        // Context-switch accounting and the untagged flush penalty.
        if last_run != Some(i) {
            if last_run.is_some() {
                context_switches += 1;
                if P::ACTIVE {
                    probe.node_event(NodeEvent::ContextSwitch, 1);
                }
                if !tagged {
                    // No tags to hide behind: the shared caches and
                    // the incoming tenant's private walk caches (its
                    // vCPU last ran someone else's translations) are
                    // flushed outright.
                    hw.tlb.flush();
                    pwc.flush();
                    tenants[i].rig.flush_translation_caches();
                }
            }
            last_run = Some(i);
        }
        if tagged {
            hw.tlb.set_asid(tenants[i].asid);
            pwc.set_asid(tenants[i].asid);
        }

        // Lend the shared memory (and PWC, where the rig takes it).
        if active != Some(i) {
            let t = &mut tenants[i];
            t.rig.swap_phys(&mut shared);
            t.pwc_lent = t.rig.swap_pwc(&mut pwc);
            active = Some(i);
        }

        // Run the quantum through the shared span runner, one access at
        // a time as the single-rig engine does.
        let t = &mut tenants[i];
        let hook = sample.as_mut().map(|f| f as OnMeasured<'_, P>);
        let span = &t.trace[t.pos..t.pos + len];
        run_span(
            runner.engine,
            t.rig.as_mut(),
            span,
            t.pos,
            warmup,
            &mut hw,
            &mut t.stats,
            probe,
            hook,
        );
        t.pos += len;
        remaining[i] = t.trace.len() - t.pos;
        turns += 1;

        // Kill/restart churn on period boundaries.
        if let Some(churn) = cfg.churn {
            if kills_done < churn.kills && turns.is_multiple_of(churn.period) {
                let v = picker.pick(tenants.len());
                if let Some(j) = active {
                    deactivate(&mut tenants[j], &mut shared, &mut pwc);
                    active = None;
                }
                let n_others = (tenants.len() - 1) as u64;
                let t = &mut tenants[v];
                // Teardown runs with the real memory swapped in: page
                // table and TEA frames return to the shared buddy,
                // data frames leak (munmap semantics), and every
                // shootdown broadcast lands on all other tenants.
                t.rig.swap_phys(&mut shared);
                let shootdowns = t.rig.release_memory();
                t.rig.swap_phys(&mut shared);
                t.harvest(probe);
                let storm = shootdowns * n_others;
                cross_tenant_shootdowns += storm;
                if P::ACTIVE && storm > 0 {
                    probe.node_event(NodeEvent::CrossTenantShootdown, storm);
                }
                if audit_each_kill {
                    shared
                        .buddy()
                        .audit()
                        .map_err(|e| SimError::Setup(format!("post-churn buddy audit: {e}")))?;
                }
                // Reclaim the dead incarnation's translations.
                if tagged {
                    hw.tlb.flush_asid(t.asid);
                    pwc.flush_asid(t.asid);
                    tagged_flushes += 2;
                    if P::ACTIVE {
                        probe.node_event(NodeEvent::TaggedFlush, 2);
                    }
                } else {
                    hw.tlb.flush();
                    pwc.flush();
                }
                // Rebuild from the aged buddy under a fresh tag.
                let asid = if tagged {
                    let a = next_asid;
                    next_asid = next_asid.wrapping_add(1);
                    a
                } else {
                    0
                };
                let pm = std::mem::replace(&mut shared, placeholder());
                t.rebuild(pm, cfg.design, cfg.thp, runner, asid)?;
                t.rig.swap_phys(&mut shared);
                remaining[v] = t.trace.len();
                kills_done += 1;
            }
        }
    }

    // Finalize: park the memory, harvest per-tenant end-of-run state,
    // then absorb the *shared* components exactly once.
    if let Some(j) = active {
        deactivate(&mut tenants[j], &mut shared, &mut pwc);
    }
    let mut node = crate::engine::RunStats::default();
    let mut out = Vec::with_capacity(tenants.len());
    for t in &mut tenants {
        t.harvest(probe);
        node += t.stats;
        out.push(TenantStats {
            bench: t.spec.bench,
            workload: t.workload.clone(),
            env: t.spec.env,
            asid: t.asid,
            incarnations: t.incarnations,
            stats: t.stats,
            coverage: t.coverage,
        });
    }
    if P::ACTIVE {
        let s = pwc.stats();
        let alloc = shared.buddy().alloc_counters();
        probe.absorb_components(ComponentCounters {
            pwc_l2_hits: s.l2_hits,
            pwc_l3_hits: s.l3_hits,
            pwc_l4_hits: s.l4_hits,
            pwc_misses: s.misses,
            alloc_splits: alloc.splits,
            alloc_merges: alloc.merges,
            compactions: alloc.compactions,
            ..Default::default()
        });
    }
    shared
        .buddy()
        .audit()
        .map_err(|e| SimError::Setup(format!("end-of-run buddy audit: {e}")))?;

    Ok(NodeStats {
        design: cfg.design,
        thp: cfg.thp,
        tenants: out,
        node,
        context_switches,
        tagged_flushes,
        cross_tenant_shootdowns,
        frag_final: dmt_mem::frag::fragmentation_index(shared.buddy(), 9),
        free_frames: shared.buddy().free_frames(),
        buddy_hash: shared.buddy().state_hash(),
    })
}
