//! The `Runner` API surface: the two engines must be bit-identical on
//! the same seeded cell, the typed `engine(..)` selector is the only
//! way to pick one, the builder's knobs must behave (tiered DRAM off by
//! default, telemetry a pure observer), and `Runner::sweep` must
//! validate a `SweepConfig` literal before running it.

use dmt::sim::native_rig::NativeRig;
use dmt::sim::sweep::SweepConfig;
use dmt::sim::{Design, Engine, Env, RunStats, Runner, RunnerBuilder, Scale, Setup, SimError};
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn cell_workload() -> Gups {
    Gups {
        table_bytes: 32 << 20,
    }
}

/// Replay one seeded native cell through the requested engine.
fn replay_with(engine: Engine, design: Design) -> RunStats {
    let w = cell_workload();
    let trace = w.trace(6_000, 0xD317 ^ design as u64);
    let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
    Runner::builder()
        .engine(engine)
        .build()
        .replay(&mut rig, &trace, 1_000)
        .0
}

#[test]
fn batched_and_scalar_engines_are_bit_identical() {
    for design in [Design::Vanilla, Design::Dmt] {
        let batched = replay_with(Engine::Batched, design);
        let scalar = replay_with(Engine::Scalar, design);
        assert_eq!(batched, scalar, "{design:?}: engines diverged");
    }
    // The batched engine is the default.
    assert_eq!(Runner::builder().build().engine(), Engine::Batched);
}

#[test]
fn engine_selector_drives_the_replay_path() {
    // The deprecated `scalar_engine(bool)` shim is retired; the typed
    // selector is the only spelling and it must actually steer replay.
    assert_eq!(
        Runner::builder().engine(Engine::Scalar).build().engine(),
        Engine::Scalar
    );
    assert_eq!(
        Runner::builder().engine(Engine::Batched).build().engine(),
        Engine::Batched
    );
    let via_selector = {
        let w = cell_workload();
        let trace = w.trace(6_000, 0xD317 ^ Design::Dmt as u64);
        let mut rig = NativeRig::new(Design::Dmt, false, &w, &trace).unwrap();
        Runner::builder()
            .engine(Engine::Scalar)
            .build()
            .replay(&mut rig, &trace, 1_000)
            .0
    };
    assert_eq!(via_selector, replay_with(Engine::Scalar, Design::Dmt));
}

#[test]
fn tiered_dram_is_off_by_default_and_flat_runs_ignore_the_knob() {
    let w = cell_workload();
    let replay = |design: Design, builder: RunnerBuilder| {
        let trace = w.trace(6_000, 0xD317 ^ design as u64);
        let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
        builder.build().replay(&mut rig, &trace, 1_000).0
    };
    // Off by default: nobody pays for the tier model unless asked. DMT
    // carries a TierSpec, so only the runner knob keeps it flat.
    let default = replay(Design::Dmt, Runner::builder());
    assert_eq!(
        default,
        replay(Design::Dmt, Runner::builder().tiered(false))
    );
    assert_ne!(
        default,
        replay(Design::Dmt, Runner::builder().tiered(true)),
        "the knob must reach a design with a TierSpec"
    );
    // Designs without a TierSpec are bit-identical under the knob —
    // tiering is opt-in at *both* the runner and the design level.
    assert_eq!(
        replay(Design::Vanilla, Runner::builder()),
        replay(Design::Vanilla, Runner::builder().tiered(true)),
        "no TierSpec => tiered knob is a no-op"
    );
}

#[test]
fn sweep_cell_is_seed_deterministic_across_runner_instances() {
    for (env, design) in [(Env::Native, Design::Dmt), (Env::Virt, Design::PvDmt)] {
        let cfg = SweepConfig {
            envs: vec![env],
            designs: vec![design],
            benchmarks: vec![2], // GUPS
            ..SweepConfig::test()
        };
        let a = Runner::builder().build().sweep(&cfg).unwrap();
        let b = Runner::builder().build().sweep(&cfg).unwrap();
        assert_eq!(a.rows.len(), 1);
        assert_eq!(
            a.rows[0].outcome(),
            b.rows[0].outcome(),
            "{env:?}/{design:?}"
        );
    }
}

#[test]
fn telemetry_toggle_does_not_change_stats() {
    let w = cell_workload();
    let trace = w.trace(Scale::test().total(), 0xD317);
    let setup = Setup::of_workload(&w, &trace);
    let interval = (trace.len() as u64 / 32).max(1);
    let run = |runner: Runner| {
        let mut rig = runner
            .build_rig(Env::Native, Design::Dmt, false, &setup)
            .unwrap();
        runner.replay_sampled(rig.as_mut(), &trace, Scale::test().warmup, interval)
    };
    let (off, off_t) = run(Runner::builder().build());
    let (on, on_t) = run(Runner::builder().telemetry(true).build());
    assert_eq!(off, on, "telemetry must be a pure observer");
    assert!(off_t.is_none());
    let t = on_t.expect("telemetry-on runner must capture");
    assert_eq!(t.walk_latency.count(), on.walks);
    assert!(!t.series.is_empty(), "~32 periodic samples over the trace");
}

#[test]
fn builder_validation_reports_typed_errors_with_legacy_text() {
    let cfg = SweepConfig {
        benchmarks: vec![9],
        ..SweepConfig::default()
    };
    let err = cfg.validate().unwrap_err();
    assert!(matches!(err, SimError::BenchIndex { index: 9, count: 7 }));
    assert!(
        err.to_string()
            .starts_with("benchmark index 9 out of range"),
        "Display must keep the historical message prefix: {err}"
    );
    let cfg = SweepConfig {
        thp: Vec::new(),
        ..SweepConfig::default()
    };
    assert!(matches!(cfg.validate().unwrap_err(), SimError::EmptyMatrix));
    // The sweep validates before it generates a single trace.
    let mut cfg = SweepConfig::test();
    cfg.benchmarks = vec![42];
    let err = Runner::builder().build().sweep(&cfg).unwrap_err();
    assert!(matches!(err, SimError::BenchIndex { index: 42, .. }));
}
