//! Shard-equivalence battery (DESIGN.md §14): K-way sharded replay must
//! be **bit-identical** to the serial epoch-barrier reference — same
//! `RunStats`, same allocator end-state hash, same telemetry — for
//! every K, including shard counts that do not divide the epoch count,
//! for in-memory and file-backed (seekable v2) sources, with the
//! batched engine checked against the serial *scalar* reference, and
//! with the differential oracle composed on top.
//!
//! The fast subset runs on every `cargo test`; the full
//! (env × design × THP × K) matrix is `#[ignore]`d and run by the CI
//! `shards` job with `--include-ignored`.

use dmt::sim::shard::ShardSource;
use dmt::sim::{Design, Engine, Env, Runner, Setup};
use dmt::telemetry::Telemetry;
use dmt::trace::TraceFile;
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::{Access, Workload};

/// Shard counts the battery sweeps: 1 (degenerate), powers of two, a
/// prime that does not divide the epoch counts below, and a K larger
/// than the epoch count (the plan collapses it).
const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 7, 16];

/// Epoch length for the fast subset: deliberately *not* a multiple of
/// the engine's 256-access block size, so epoch boundaries land inside
/// blocks.
const EPOCH: usize = 1_000;

struct Cell {
    trace: Vec<Access>,
    setup: Setup,
    warmup: usize,
}

fn gups_cell(accesses: usize, warmup: usize) -> Cell {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(accesses, 0xD317);
    let setup = Setup::of_workload(&w, &trace);
    Cell {
        trace,
        setup,
        warmup,
    }
}

/// The serial reference for `runner`'s hook configuration: whole trace,
/// one rig, same epoch grid.
fn serial_reference(
    runner: &Runner,
    env: Env,
    design: Design,
    thp: bool,
    cell: &Cell,
    src: ShardSource<'_>,
    interval: u64,
) -> (dmt::sim::RunStats, Option<Telemetry>, Option<u64>) {
    let mut rig = runner.build_rig(env, design, thp, &cell.setup).unwrap();
    let (stats, telemetry) = runner
        .replay_epochs_serial(rig.as_mut(), src, cell.warmup, interval)
        .unwrap();
    (stats, telemetry, rig.alloc_state_hash())
}

/// Assert every K in [`SHARD_COUNTS`] reproduces the serial reference
/// exactly under the given hooks.
#[allow(clippy::too_many_arguments)]
fn assert_all_k_match(
    base: dmt::sim::RunnerBuilder,
    env: Env,
    design: Design,
    thp: bool,
    cell: &Cell,
    src: ShardSource<'_>,
    interval: u64,
    label: &str,
) {
    let serial = base.clone().epoch_len(EPOCH).build();
    let (ref_stats, ref_tel, ref_hash) =
        serial_reference(&serial, env, design, thp, cell, src, interval);
    assert!(ref_stats.accesses > 0, "{label}: reference did no work");
    for k in SHARD_COUNTS {
        let runner = base.clone().epoch_len(EPOCH).shards(k).build();
        let out = runner
            .replay_sharded(env, design, thp, &cell.setup, src, cell.warmup, interval)
            .unwrap();
        assert_eq!(out.stats, ref_stats, "{label}: K={k} RunStats diverged");
        assert_eq!(
            out.alloc_hash, ref_hash,
            "{label}: K={k} allocator end state diverged"
        );
        assert_eq!(
            out.telemetry, ref_tel,
            "{label}: K={k} telemetry diverged from the serial recorder"
        );
        let epochs = cell.trace.len().div_ceil(EPOCH);
        assert_eq!(
            out.shards,
            k.min(epochs),
            "{label}: K={k} plan did not collapse to the epoch count"
        );
    }
}

#[test]
fn sharded_replay_is_bit_identical_in_memory() {
    // Warmup ends mid-epoch (1500 inside epoch 2), so the measured
    // boundary crosses shard interiors for small K and shard boundaries
    // for large K.
    let cell = gups_cell(6_000, 1_500);
    for design in [Design::Vanilla, Design::Dmt] {
        assert_all_k_match(
            Runner::builder().telemetry(true),
            Env::Native,
            design,
            false,
            &cell,
            ShardSource::Memory(&cell.trace),
            500,
            &format!("memory/{design:?}"),
        );
    }
}

#[test]
fn sharded_replay_matches_the_scalar_reference() {
    // The shard workers run the batched block engine; the reference
    // here runs the scalar one. Equality composes the PR 7 contract
    // (batched == scalar per segment) with the shard merge proof.
    let cell = gups_cell(6_000, 500);
    let scalar = Runner::builder()
        .engine(Engine::Scalar)
        .epoch_len(EPOCH)
        .build();
    let (ref_stats, _, ref_hash) = serial_reference(
        &scalar,
        Env::Native,
        Design::Dmt,
        false,
        &cell,
        ShardSource::Memory(&cell.trace),
        0,
    );
    for k in SHARD_COUNTS {
        let batched = Runner::builder().epoch_len(EPOCH).shards(k).build();
        let out = batched
            .replay_sharded(
                Env::Native,
                Design::Dmt,
                false,
                &cell.setup,
                ShardSource::Memory(&cell.trace),
                cell.warmup,
                0,
            )
            .unwrap();
        assert_eq!(out.stats, ref_stats, "K={k} diverged from scalar serial");
        assert_eq!(out.alloc_hash, ref_hash, "K={k} allocator diverged");
    }
}

#[test]
fn sharded_replay_is_bit_identical_from_file() {
    let cell = gups_cell(6_000, 1_500);
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let mut bytes = Vec::new();
    // Chunk length 250 divides EPOCH=1000: four chunks per epoch.
    dmt::trace::capture_indexed(&w, 6_000, 0xD317, 250, &mut bytes).unwrap();
    let f = TraceFile::from_bytes(bytes).unwrap();
    assert_eq!(f.len() as usize, cell.trace.len());
    // File and memory sources must agree with each other too: same
    // stream, same reference.
    let serial = Runner::builder().telemetry(true).epoch_len(EPOCH).build();
    let (mem_stats, mem_tel, _) = serial_reference(
        &serial,
        Env::Native,
        Design::Dmt,
        false,
        &cell,
        ShardSource::Memory(&cell.trace),
        500,
    );
    let (file_stats, file_tel, _) = serial_reference(
        &serial,
        Env::Native,
        Design::Dmt,
        false,
        &cell,
        ShardSource::File(&f),
        500,
    );
    assert_eq!(file_stats, mem_stats, "file reference != memory reference");
    assert_eq!(file_tel, mem_tel);
    assert_all_k_match(
        Runner::builder().telemetry(true),
        Env::Native,
        Design::Dmt,
        false,
        &cell,
        ShardSource::File(&f),
        500,
        "file/Dmt",
    );
}

#[test]
fn beyond_paper_designs_shard_bit_identically() {
    // The non-radix backends carry their own translation state (VBI's
    // block table walks free of the radix caches; Seg adds a private
    // LRU segment cache). Epoch-barrier compliance means
    // `flush_caches` must leave a shard worker in exactly the state the
    // serial reference reaches at the same barrier — a segment cache
    // that survives a barrier shows up here as a K>1 divergence.
    let cell = gups_cell(4_000, 700);
    for env in [Env::Native, Env::Virt] {
        for design in [Design::Vbi, Design::Seg] {
            assert_all_k_match(
                Runner::builder().telemetry(true),
                env,
                design,
                false,
                &cell,
                ShardSource::Memory(&cell.trace),
                400,
                &format!("{env:?}/{design:?}"),
            );
        }
    }
}

#[test]
fn sharded_replay_composes_with_the_oracle() {
    // Every shard worker's rig gets wrapped by the differential oracle
    // (reference cross-checks on every translate); results must still
    // be bit-identical to the oracle-wrapped serial reference.
    let cell = gups_cell(4_000, 500);
    for design in [Design::Vanilla, Design::Dmt] {
        assert_all_k_match(
            Runner::builder().rig_wrapper(dmt::oracle::wrapper()),
            Env::Native,
            design,
            false,
            &cell,
            ShardSource::Memory(&cell.trace),
            0,
            &format!("oracle/{design:?}"),
        );
    }
}

#[test]
fn misaligned_file_epochs_are_a_typed_error() {
    let w = Gups {
        table_bytes: 4 << 20,
    };
    let mut bytes = Vec::new();
    dmt::trace::capture_indexed(&w, 2_000, 7, 300, &mut bytes).unwrap();
    let f = TraceFile::from_bytes(bytes).unwrap();
    let trace = w.trace(2_000, 7);
    let setup = Setup::of_workload(&w, &trace);
    let runner = Runner::builder().epoch_len(1_000).shards(2).build();
    let err = runner
        .replay_sharded(
            Env::Native,
            Design::Vanilla,
            false,
            &setup,
            ShardSource::File(&f),
            0,
            0,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            dmt::sim::SimError::ShardAlign {
                epoch_len: 1_000,
                chunk_len: 300
            }
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("not a multiple"));
}

#[test]
fn zero_epoch_length_is_a_typed_error() {
    use dmt::sim::{SimError, SweepConfig};
    let cell = gups_cell(2_000, 100);
    let runner = Runner::builder().epoch_len(0).shards(2).build();
    let sharded = runner.replay_sharded(
        Env::Native,
        Design::Vanilla,
        false,
        &cell.setup,
        ShardSource::Memory(&cell.trace),
        cell.warmup,
        0,
    );
    let err = sharded.unwrap_err();
    assert_eq!(err, SimError::EpochLen);
    assert_eq!(err.to_string(), "epoch length must be positive");
    let mut rig = runner
        .build_rig(Env::Native, Design::Vanilla, false, &cell.setup)
        .unwrap();
    let serial = runner.replay_epochs_serial(
        rig.as_mut(),
        ShardSource::Memory(&cell.trace),
        cell.warmup,
        0,
    );
    assert_eq!(serial.unwrap_err(), SimError::EpochLen);
    assert_eq!(
        runner.sweep(&SweepConfig::test()).unwrap_err(),
        SimError::EpochLen
    );
    assert_eq!(
        dmt::sim::plan_shards(2_000, 0, 2).unwrap_err(),
        SimError::EpochLen
    );
}

/// The CI `shards` job's payload (run with `--include-ignored`): every
/// environment × available design × THP mode × K, telemetry on, against
/// the telemetry serial reference.
#[test]
#[ignore = "full shard-equivalence matrix; run explicitly (CI shards job)"]
fn full_matrix_is_bit_identical_for_every_k() {
    for env in [Env::Native, Env::Virt, Env::Nested] {
        for design in [
            Design::Vanilla,
            Design::Shadow,
            Design::Fpt,
            Design::Ecpt,
            Design::Agile,
            Design::Asap,
            Design::Dmt,
            Design::PvDmt,
            Design::Vbi,
            Design::Seg,
        ] {
            if !design.available_in(env) {
                continue;
            }
            for thp in [false, true] {
                let cell = gups_cell(4_000, 500);
                assert_all_k_match(
                    Runner::builder().telemetry(true),
                    env,
                    design,
                    thp,
                    &cell,
                    ShardSource::Memory(&cell.trace),
                    400,
                    &format!("{env:?}/{design:?}/thp={thp}"),
                );
            }
        }
    }
}
