//! The cloudnode contract: deterministic multi-tenant interleaving,
//! observation hooks that never perturb simulation state, single-tenant
//! degeneration to the one-cell sweep row of the same trace
//! (transitively pinned by `tests/backend_refactor.rs`'s golden cells),
//! and oracle audits that hold under cross-tenant kill/restart churn.

use dmt::sim::cloudnode::{NodeConfig, Tagging, TenantSpec};
use dmt::sim::experiments::Scale;
use dmt::sim::rig::{Design, Env};
use dmt::sim::{Engine, Runner, SweepConfig, SweepRow};
use dmt::telemetry::Counter;

/// Small enough for the suite, big enough that the TLB/PWC see real
/// pressure and churn rebuilds replay meaningful trace.
fn scale() -> Scale {
    Scale {
        mult4k: 8,
        thp_mult: 4,
        trace: 2500,
        warmup: 600,
    }
}

/// The one-cell sweep row of (env, design, bench 0) at 4 KiB: the
/// single-rig replay of the trace a 1-tenant node's tenant 0 replays.
fn sweep_row(runner: &Runner, env: Env, design: Design) -> SweepRow {
    let cfg = SweepConfig {
        envs: vec![env],
        designs: vec![design],
        benchmarks: vec![0],
        scale: scale(),
        ..SweepConfig::test()
    };
    runner
        .sweep(&cfg)
        .expect("one-cell sweep runs")
        .rows
        .remove(0)
}

/// A mixed-environment node exercising every moving part: weights,
/// tagging, churn, and two environments sharing the buddy.
fn mixed_node(design: Design) -> NodeConfig {
    NodeConfig::new(
        design,
        false,
        scale(),
        vec![
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
                bench: 4,
                env: Env::Native,
                weight: 1,
            },
        ],
    )
    .quantum(256)
    .churn(8, 2)
}

#[test]
fn same_config_is_bit_identical() {
    let runner = Runner::builder().build();
    let a = runner
        .run_node(&mixed_node(Design::Dmt))
        .expect("node runs")
        .0;
    let b = runner
        .run_node(&mixed_node(Design::Dmt))
        .expect("node runs")
        .0;
    assert_eq!(a, b, "same NodeConfig must replay bit-identically");
    assert!(a.node.accesses > 0 && a.node.walks > 0);
}

#[test]
fn observation_hooks_do_not_perturb_the_node() {
    // Four observation setups, one simulation outcome: NodeStats from
    // the plain runner must survive telemetry, the oracle wrapper, and
    // both together, bit-for-bit.
    let cfg = mixed_node(Design::Dmt);
    let plain = Runner::builder().build().run_node(&cfg).expect("plain").0;
    let with_tel = Runner::builder().telemetry(true).build();
    let (tel_stats, tel) = with_tel.run_node(&cfg).expect("telemetry");
    let with_oracle = Runner::builder()
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    let oracle_stats = with_oracle.run_node(&cfg).expect("oracle").0;
    let with_both = Runner::builder()
        .telemetry(true)
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    let both_stats = with_both.run_node(&cfg).expect("both").0;

    assert_eq!(plain, tel_stats, "telemetry perturbed the node");
    assert_eq!(plain, oracle_stats, "the oracle wrapper perturbed the node");
    assert_eq!(plain, both_stats, "telemetry+oracle perturbed the node");

    // The telemetry actually recorded the multi-tenant events it
    // watched, and agrees with the NodeStats counters.
    let t = tel.expect("telemetry runner returns a block");
    assert_eq!(
        t.counters.get(Counter::ContextSwitches),
        plain.context_switches
    );
    assert_eq!(t.counters.get(Counter::TaggedFlushes), plain.tagged_flushes);
    assert_eq!(
        t.counters.get(Counter::CrossTenantShootdowns),
        plain.cross_tenant_shootdowns
    );
    assert!(plain.context_switches > 0, "3 tenants must switch");
}

#[test]
fn one_tenant_node_degenerates_to_the_single_rig_engine() {
    // A 1-tenant node must be *bit-identical* to the one-cell sweep row
    // of its (env, design, bench) for every environment: tenant 0
    // replays the sweep's trace, same warmup, same shared components.
    // Sweep rows are pinned against the golden snapshot, so this
    // transitively pins cloudnode's engine.
    let runner = Runner::builder().build();
    for env in [Env::Native, Env::Virt, Env::Nested] {
        for design in [Design::Vanilla, Design::Dmt, Design::PvDmt] {
            if !design.available_in(env) {
                continue;
            }
            let single = sweep_row(&runner, env, design);
            let cfg = NodeConfig::new(
                design,
                false,
                scale(),
                vec![TenantSpec {
                    bench: 0,
                    env,
                    weight: 1,
                }],
            );
            let node = runner.run_node(&cfg).expect("node runs").0;
            assert_eq!(
                node.node, single.stats,
                "1-tenant node != single rig for {env:?}/{design:?}"
            );
            assert_eq!(node.tenants[0].stats, single.stats);
            assert_eq!(
                node.tenants[0].coverage.to_bits(),
                single.coverage.to_bits()
            );
            assert_eq!(node.context_switches, 0, "one tenant never switches");
            assert_eq!(node.tagged_flushes, 0, "no churn, no tag reclaim");
            assert_eq!(node.cross_tenant_shootdowns, 0);
        }
    }
}

#[test]
fn one_tenant_telemetry_matches_the_single_rig_engine() {
    // The component-absorb split (per-tenant rigs + node-level shared
    // PWC/buddy) must sum to exactly what the single-rig replay
    // absorbs — counters included.
    let runner = Runner::builder().telemetry(true).build();
    let single = sweep_row(&runner, Env::Native, Design::Dmt);
    let cfg = NodeConfig::new(
        Design::Dmt,
        false,
        scale(),
        vec![TenantSpec {
            bench: 0,
            env: Env::Native,
            weight: 1,
        }],
    );
    let (_, tel) = runner.run_node(&cfg).expect("node runs");
    let node_t = tel.expect("telemetry on");
    let single_t = single.telemetry.expect("telemetry on");
    for c in dmt::telemetry::Counter::ALL {
        assert_eq!(
            node_t.counters.get(c),
            single_t.counters.get(c),
            "counter {} diverged",
            c.name()
        );
    }
}

#[test]
fn scalar_and_batched_node_engines_agree() {
    // The node feeds each quantum through the block-fed batched engine
    // by default; the scalar reference engine must produce the same
    // NodeStats — multi-tenant counters (tagged flushes, cross-tenant
    // shootdowns, context switches) included — and the same telemetry,
    // under churn, for both a DMT and a radix design.
    for design in [Design::Dmt, Design::Vanilla] {
        let cfg = mixed_node(design);
        let batched = Runner::builder().telemetry(true).build();
        let scalar = Runner::builder()
            .engine(Engine::Scalar)
            .telemetry(true)
            .build();
        let (b_stats, b_tel) = batched.run_node(&cfg).expect("batched node");
        let (s_stats, s_tel) = scalar.run_node(&cfg).expect("scalar node");
        assert_eq!(
            b_stats, s_stats,
            "{design:?}: batched node diverged from the scalar reference"
        );
        assert_eq!(b_stats.tagged_flushes, s_stats.tagged_flushes);
        assert_eq!(
            b_stats.cross_tenant_shootdowns,
            s_stats.cross_tenant_shootdowns
        );
        let (b_t, s_t) = (b_tel.expect("telemetry on"), s_tel.expect("telemetry on"));
        for c in Counter::ALL {
            assert_eq!(
                b_t.counters.get(c),
                s_t.counters.get(c),
                "{design:?}: counter {} diverged between engines",
                c.name()
            );
        }
    }
}

#[test]
fn one_tenant_node_block_path_matches_the_single_rig_engine() {
    // The 1-tenant degeneration above runs the default engine; this
    // pins the *block-fed* node path against the *block-fed* single-rig
    // replay explicitly, quantum sizes straddling the engine's 256
    // block: quanta smaller than, equal to, and larger than one block
    // must all degenerate to the same bit-identical replay.
    let runner = Runner::builder().build();
    let single = sweep_row(&runner, Env::Native, Design::Dmt);
    for quantum in [64, 255, 256, 257, 1024] {
        let cfg = NodeConfig::new(
            Design::Dmt,
            false,
            scale(),
            vec![TenantSpec {
                bench: 0,
                env: Env::Native,
                weight: 1,
            }],
        )
        .quantum(quantum);
        let node = runner.run_node(&cfg).expect("node runs").0;
        assert_eq!(
            node.node, single.stats,
            "1-tenant block path != single rig at quantum {quantum}"
        );
        assert_eq!(
            node.tenants[0].coverage.to_bits(),
            single.coverage.to_bits()
        );
    }
}

#[test]
fn tagging_policy_drives_the_flush_accounting() {
    let runner = Runner::builder().build();
    let tagged = runner
        .run_node(&mixed_node(Design::Vanilla))
        .expect("tagged node")
        .0;
    let untagged = runner
        .run_node(&mixed_node(Design::Vanilla).tagging(Tagging::Untagged))
        .expect("untagged node")
        .0;
    // Tagged hardware reclaims each churned tenant's ASID from TLB and
    // PWC: two per-tag flushes per kill. Untagged hardware never
    // tag-flushes — it pays full flushes on switches instead.
    assert_eq!(tagged.tagged_flushes, 2 * 2, "2 kills x (TLB + PWC)");
    assert_eq!(untagged.tagged_flushes, 0);
    assert_eq!(tagged.context_switches, untagged.context_switches);
    // Churn rebuilds assign fresh tags past the initial range.
    assert!(
        tagged.tenants.iter().any(|t| t.asid >= 3),
        "killed tenants must get recycled ASIDs: {:?}",
        tagged.tenants.iter().map(|t| t.asid).collect::<Vec<_>>()
    );
    assert!(untagged.tenants.iter().all(|t| t.asid == 0));
}

#[test]
fn oracle_audits_hold_under_cross_tenant_churn() {
    // Every tenant rig wrapped in the differential oracle, plus the
    // shared-buddy audit after each kill and at end of run: allocator
    // or translation drift under churn fails loudly here.
    let runner = Runner::builder()
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    for design in [Design::Vanilla, Design::Dmt] {
        for tagging in [Tagging::Tagged, Tagging::Untagged] {
            let cfg = mixed_node(design).tagging(tagging);
            let stats = runner.run_node(&cfg).expect("audited node runs").0;
            let killed: u32 = stats.tenants.iter().map(|t| t.incarnations - 1).sum();
            assert_eq!(killed, 2, "both churn kills must have landed");
        }
    }
}

#[test]
fn cross_tenant_shootdowns_count_only_other_tenants() {
    // A single-tenant node has nobody to storm: even with churn, the
    // broadcast factor (n - 1) is zero.
    let runner = Runner::builder().build();
    let cfg = NodeConfig::new(
        Design::Vanilla,
        false,
        scale(),
        vec![TenantSpec {
            bench: 0,
            env: Env::Native,
            weight: 1,
        }],
    )
    .churn(4, 1);
    let stats = runner.run_node(&cfg).expect("node runs").0;
    assert_eq!(stats.tenants[0].incarnations, 2, "the kill landed");
    assert_eq!(stats.cross_tenant_shootdowns, 0, "no other tenant to hit");
    // With a second tenant the same teardown storms exactly one peer.
    let cfg2 = NodeConfig::new(
        Design::Vanilla,
        false,
        scale(),
        vec![
            TenantSpec {
                bench: 0,
                env: Env::Native,
                weight: 1,
            },
            TenantSpec {
                bench: 0,
                env: Env::Native,
                weight: 1,
            },
        ],
    )
    .churn(4, 1)
    .seed(0xC10D);
    let stats2 = runner.run_node(&cfg2).expect("node runs").0;
    assert!(
        stats2.cross_tenant_shootdowns > 0,
        "a native teardown must storm the peer"
    );
}

#[test]
fn invalid_configs_are_rejected_before_provisioning() {
    let runner = Runner::builder().build();
    let empty = NodeConfig::new(Design::Vanilla, false, scale(), vec![]);
    assert!(runner.run_node(&empty).is_err());
    let bad_bench = NodeConfig::new(
        Design::Vanilla,
        false,
        scale(),
        vec![TenantSpec {
            bench: 99,
            env: Env::Native,
            weight: 1,
        }],
    );
    assert!(runner.run_node(&bad_bench).is_err());
    let na_cell = NodeConfig::new(
        Design::Dmt,
        false,
        scale(),
        vec![TenantSpec {
            bench: 0,
            env: Env::Nested,
            weight: 1,
        }],
    );
    assert!(runner.run_node(&na_cell).is_err());
}
