//! Where the TLB-frame saving lands: a TLB hit charges its data access
//! at the frame its entry carries, so the rig's software ground truth
//! (`Rig::data_pa`) runs once per TLB miss and never on a hit.
//!
//! A counting wrapper, installed through `rig_wrapper`, counts every
//! `data_pa` call of every rig a replay builds: single-rig replays
//! under both engines, sharded replay, and a cloud node whose churn
//! restarts tenants (a restarted tenant must never be charged at a
//! pre-restart frame). A miss is one `translate` on both engines; the
//! scalar reference then fetches the miss's data address through
//! `data_pa`, the default engine charges the translation's own PA. So
//! with warmup 0 the scalar engine makes exactly `RunStats::walks`
//! calls and the default engine none. Debug builds add the engine's
//! ground-truth check on every hit, one more call per hit. Either way
//! the wrapped run's statistics must equal the unwrapped run's.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::cache::PageWalkCache;
use dmt::mem::{PhysAddr, PhysMemory, VirtAddr};
use dmt::sim::cloudnode::{NodeConfig, Tagging, TenantSpec};
use dmt::sim::rig::{Design, Env, RefEntry, Rig, Translation};
use dmt::sim::shard::ShardSource;
use dmt::sim::{Engine, RunStats, Runner, RunnerBuilder, Scale, Setup};
use dmt::telemetry::ComponentCounters;
use dmt::workloads::bench7::nth_benchmark;
use dmt::workloads::gen::Access;
use std::sync::atomic::{AtomicU64, Ordering};

/// One counter per test, so tests running in parallel never share one.
static CALLS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Forwards every `Rig` method to `inner`, counting `data_pa` calls
/// into `CALLS[K]`.
struct Counting<const K: usize> {
    inner: Box<dyn Rig>,
}

fn counting<const K: usize>(inner: Box<dyn Rig>) -> Box<dyn Rig> {
    Box::new(Counting::<K> { inner })
}

fn take_calls(k: usize) -> u64 {
    CALLS[k].swap(0, Ordering::Relaxed)
}

impl<const K: usize> Rig for Counting<K> {
    fn design(&self) -> Design {
        self.inner.design()
    }
    fn env(&self) -> Env {
        self.inner.env()
    }
    fn thp(&self) -> bool {
        self.inner.thp()
    }
    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        self.inner.translate(va, hier)
    }
    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        CALLS[K].fetch_add(1, Ordering::Relaxed);
        self.inner.data_pa(va)
    }
    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.inner.ref_translate(va)
    }
    fn exits(&self) -> u64 {
        self.inner.exits()
    }
    fn faults(&self) -> u64 {
        self.inner.faults()
    }
    fn coverage(&self) -> f64 {
        self.inner.coverage()
    }
    fn component_counters(&self) -> ComponentCounters {
        self.inner.component_counters()
    }
    fn frag_sample(&self) -> (f64, u64) {
        self.inner.frag_sample()
    }
    fn swap_phys(&mut self, pm: &mut PhysMemory) {
        self.inner.swap_phys(pm)
    }
    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool {
        self.inner.swap_pwc(pwc)
    }
    fn release_memory(&mut self) -> u64 {
        self.inner.release_memory()
    }
    fn flush_translation_caches(&mut self) {
        self.inner.flush_translation_caches()
    }
    fn alloc_state_hash(&self) -> Option<u64> {
        self.inner.alloc_state_hash()
    }
}

/// The `data_pa` calls a warmup-free run of `stats` under `engine` must
/// have made: one per miss on the scalar reference, none on the default
/// engine, plus one per hit in debug builds.
fn expected(engine: Engine, stats: &RunStats) -> u64 {
    let misses = match engine {
        Engine::Scalar => stats.walks,
        Engine::Batched => 0,
    };
    let hits = if cfg!(debug_assertions) {
        stats.accesses - stats.walks
    } else {
        0
    };
    misses + hits
}

fn builder(engine: Engine) -> RunnerBuilder {
    Runner::builder().engine(engine)
}

/// A bench7 trace at a small footprint multiplier.
fn bench_trace(bench: usize, mult: u64, n: usize) -> (Vec<Access>, Setup) {
    let w = nth_benchmark(bench, mult).expect("bench7 index in range");
    let trace = w.trace(n, 1);
    let setup = Setup::of_workload(w.as_ref(), &trace);
    (trace, setup)
}

#[test]
fn replay_calls_data_pa_only_on_misses() {
    // Graph500 under THP at the benchmark's footprint is hit-bound;
    // GUPS at 4 KiB is walk-bound. Seg and VBI fill variable-reach unit
    // entries.
    let cells = [
        (6, 32, true, Env::Native, Design::Vanilla),
        (6, 32, true, Env::Native, Design::Dmt),
        (6, 32, true, Env::Virt, Design::PvDmt),
        (2, 1, false, Env::Virt, Design::Vanilla),
        (2, 1, false, Env::Native, Design::Seg),
        (2, 1, false, Env::Native, Design::Vbi),
    ];
    for (bench, mult, thp, env, design) in cells {
        let (trace, setup) = bench_trace(bench, mult, 12_000);
        for engine in [Engine::Scalar, Engine::Batched] {
            let label = format!("bench {bench} thp={thp} {env:?} {design:?} {engine:?}");
            let plain = builder(engine).build();
            let mut rig = plain.build_rig(env, design, thp, &setup).unwrap();
            let want = plain.replay(rig.as_mut(), &trace, 0).0;

            let runner = builder(engine).rig_wrapper(counting::<0>).build();
            let mut rig = runner.build_rig(env, design, thp, &setup).unwrap();
            take_calls(0);
            let got = runner.replay(rig.as_mut(), &trace, 0).0;
            let calls = take_calls(0);
            assert_eq!(got, want, "{label}: the counting wrapper perturbed the run");
            assert_eq!(calls, expected(engine, &got), "{label}: data_pa calls");
            println!(
                "{label}: {calls} data_pa calls over {} accesses ({:.4} per access), {} walks",
                got.accesses,
                calls as f64 / got.accesses as f64,
                got.walks
            );
        }
    }
}

#[test]
fn sharded_replay_calls_data_pa_only_on_misses() {
    let (trace, setup) = bench_trace(6, 2, 9_000);
    let src = ShardSource::Memory(&trace);
    for engine in [Engine::Scalar, Engine::Batched] {
        let base = builder(engine).epoch_len(1_000).shards(3);
        let want = base
            .clone()
            .build()
            .replay_sharded(Env::Native, Design::Dmt, true, &setup, src, 0, 0)
            .unwrap()
            .stats;
        let runner = base.rig_wrapper(counting::<1>).build();
        take_calls(1);
        let got = runner
            .replay_sharded(Env::Native, Design::Dmt, true, &setup, src, 0, 0)
            .unwrap()
            .stats;
        let calls = take_calls(1);
        assert_eq!(
            got, want,
            "{engine:?}: the counting wrapper perturbed the run"
        );
        assert!(
            got.walks < got.accesses,
            "{engine:?}: the trace must hit the TLB"
        );
        assert_eq!(calls, expected(engine, &got), "{engine:?}: data_pa calls");
    }
}

#[test]
fn churned_node_calls_data_pa_only_on_misses() {
    let scale = Scale {
        mult4k: 4,
        thp_mult: 4,
        trace: 2_000,
        warmup: 0,
    };
    let tenants = vec![
        TenantSpec {
            bench: 0,
            env: Env::Native,
            weight: 1,
        },
        TenantSpec {
            bench: 2,
            env: Env::Virt,
            weight: 2,
        },
        TenantSpec {
            bench: 6,
            env: Env::Native,
            weight: 1,
        },
    ];
    for tagging in [Tagging::Tagged, Tagging::Untagged] {
        for engine in [Engine::Scalar, Engine::Batched] {
            let cfg = NodeConfig::new(Design::Dmt, false, scale, tenants.clone())
                .quantum(256)
                .tagging(tagging)
                .churn(4, 3);
            let want = builder(engine).build().run_node(&cfg).unwrap().0;
            let runner = builder(engine).rig_wrapper(counting::<2>).build();
            take_calls(2);
            let got = runner.run_node(&cfg).unwrap().0;
            let calls = take_calls(2);
            let label = format!("{tagging:?} {engine:?}");
            assert_eq!(
                got, want,
                "{label}: the counting wrapper perturbed the node"
            );
            assert!(
                got.tenants.iter().any(|t| t.incarnations > 1),
                "{label}: churn must restart a tenant"
            );
            assert_eq!(calls, expected(engine, &got.node), "{label}: data_pa calls");
        }
    }
}
