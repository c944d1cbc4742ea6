//! Tiered-DRAM acceptance (DESIGN.md §15): the fast/slow tier split is
//! opt-in at two levels — the runner's `tiered(true)` knob *and* a
//! `TierSpec` for the design (the DMT family's data in
//! `sim::backends::dmt`) — and must change outcomes
//! measurably for the TEA-migrating designs (DMT, pvDMT) while leaving
//! every flat-mode run bit-identical (the backend goldens pin that
//! side).

use dmt::sim::native_rig::NativeRig;
use dmt::sim::report::telemetry_json;
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::{Design, Engine, Rig, RunStats, Runner};
use dmt::telemetry::Telemetry;
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::{Access, Workload};

fn cell() -> (Gups, Vec<Access>) {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(8_000, 0xD317 ^ Design::Dmt as u64);
    (w, trace)
}

fn replay_native(design: Design, tiered: bool, engine: Engine) -> (RunStats, Option<Telemetry>) {
    let (w, trace) = cell();
    let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
    Runner::builder()
        .tiered(tiered)
        .engine(engine)
        .telemetry(true)
        .build()
        .replay(&mut rig, &trace, 1_000)
}

#[test]
fn tiered_dmt_pays_slow_tier_latency_the_flat_run_never_sees() {
    let (flat, flat_tel) = replay_native(Design::Dmt, false, Engine::Batched);
    let (tiered, tiered_tel) = replay_native(Design::Dmt, false, Engine::Batched);
    // Same knob twice: determinism sanity before comparing across modes.
    assert_eq!(flat, tiered);
    assert_eq!(flat_tel, tiered_tel);

    let (tiered, tiered_tel) = {
        let (w, trace) = cell();
        let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace).unwrap();
        Runner::builder()
            .tiered(true)
            .telemetry(true)
            .build()
            .replay(&mut rig, &trace, 1_000)
    };
    // The tier split changes *when* cycles are paid, never *what* work
    // happens: the access/walk structure is identical, but DRAM hits
    // beyond the 32 MiB fast boundary now cost 350 cycles instead of
    // 200, so total cycles rise and the latency histograms shift.
    assert_eq!(tiered.accesses, flat.accesses);
    assert_eq!(tiered.walks, flat.walks);
    assert_eq!(tiered.walk_refs, flat.walk_refs);
    assert_eq!(tiered.fallbacks, flat.fallbacks);
    assert!(
        tiered.data_cycles > flat.data_cycles,
        "no data access ever landed in the slow tier: tiered {} vs flat {}",
        tiered.data_cycles,
        flat.data_cycles
    );
    let flat_json = telemetry_json(&flat_tel.unwrap()).to_string();
    let tiered_json = telemetry_json(&tiered_tel.unwrap()).to_string();
    assert_ne!(
        flat_json, tiered_json,
        "telemetry must expose the tier split"
    );
}

#[test]
fn tiered_runs_are_engine_agnostic_and_deterministic() {
    // The tier injection point sits upstream of the engine split, so
    // batched and scalar must stay bit-identical under tiering too.
    let (batched, batched_tel) = replay_native(Design::Dmt, true, Engine::Batched);
    let (scalar, scalar_tel) = replay_native(Design::Dmt, true, Engine::Scalar);
    assert_eq!(batched, scalar, "engines diverged under tiered DRAM");
    assert_eq!(batched_tel, scalar_tel);
}

#[test]
fn tiering_is_gated_on_the_registry_row() {
    // Vbi has no TierSpec: the knob must be a no-op even though the
    // design is brand new (gating comes from the DMT family's tier
    // data, not from the runner).
    let (flat, _) = replay_native(Design::Vbi, false, Engine::Batched);
    let (tiered, _) = replay_native(Design::Vbi, true, Engine::Batched);
    assert_eq!(flat, tiered, "no TierSpec => tiered knob is a no-op");
}

#[test]
fn tiered_pvdmt_changes_virtualized_outcomes_too() {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(8_000, 0xD317 ^ Design::PvDmt as u64);
    let run = |tiered: bool| {
        let mut rig = VirtRig::new(Design::PvDmt, false, &w, &trace).unwrap();
        assert_eq!(rig.design(), Design::PvDmt);
        Runner::builder()
            .tiered(tiered)
            .build()
            .replay(&mut rig, &trace, 1_000)
            .0
    };
    let flat = run(false);
    let tiered = run(true);
    assert_eq!(tiered.accesses, flat.accesses);
    assert!(
        tiered.data_cycles + tiered.walk_cycles > flat.data_cycles + flat.walk_cycles,
        "pvDMT never touched the slow tier"
    );
}

#[test]
fn tiered_dram_reaches_sharded_and_node_replays() {
    use dmt::sim::{Env, NodeConfig, Scale, Setup, ShardSource, SweepConfig, TenantSpec};

    // Sharded replay: the serial epoch-barrier reference and K=2 shards
    // both run tiered, so they agree with each other and differ from
    // the flat run in the data cycles the slow tier charges.
    let (w, trace) = cell();
    let setup = Setup::of_workload(&w, &trace);
    let epochs = |tiered: bool, shards: usize| {
        Runner::builder()
            .tiered(tiered)
            .shards(shards)
            .epoch_len(2_048)
            .build()
    };
    let serial = |tiered: bool| {
        let runner = epochs(tiered, 1);
        let mut rig = runner
            .build_rig(Env::Native, Design::Dmt, false, &setup)
            .unwrap();
        runner
            .replay_epochs_serial(rig.as_mut(), ShardSource::Memory(&trace), 1_000, 0)
            .unwrap()
            .0
    };
    let sharded = epochs(true, 2)
        .replay_sharded(
            Env::Native,
            Design::Dmt,
            false,
            &setup,
            ShardSource::Memory(&trace),
            1_000,
            0,
        )
        .unwrap();
    assert_eq!(sharded.shards, 2);
    let (tiered, flat) = (serial(true), serial(false));
    assert_eq!(sharded.stats, tiered, "tiered K=2 != tiered serial epochs");
    assert!(
        tiered.data_cycles > flat.data_cycles,
        "sharded path ignored tiering: tiered {} vs flat {}",
        tiered.data_cycles,
        flat.data_cycles
    );

    // Cloud node: a one-tenant DMT node under tiering is the tiered
    // one-cell sweep row of the same trace.
    let scale = Scale::test();
    let one_cell = SweepConfig {
        envs: vec![Env::Native],
        designs: vec![Design::Dmt],
        benchmarks: vec![2], // GUPS
        ..SweepConfig::test()
    };
    let runner = Runner::builder().tiered(true).build();
    let single = runner.sweep(&one_cell).unwrap().rows.remove(0);
    let tenant = TenantSpec {
        bench: 2,
        env: Env::Native,
        weight: 1,
    };
    let node = runner
        .run_node(&NodeConfig::new(Design::Dmt, false, scale, vec![tenant]))
        .unwrap()
        .0;
    assert_eq!(
        node.node, single.stats,
        "tiered 1-tenant node != tiered one-cell sweep"
    );
    let flat = Runner::builder()
        .build()
        .sweep(&one_cell)
        .unwrap()
        .rows
        .remove(0);
    assert_ne!(single.stats.data_cycles, flat.stats.data_cycles);
}
