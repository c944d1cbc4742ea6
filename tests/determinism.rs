//! Seeded determinism: one sweep cell run twice from the same seed must
//! produce bit-identical `RunStats` *and* an identical physical-memory
//! allocator end state (FNV hash over every frame's state). This is
//! what makes sweep results reproducible and the oracle's divergence
//! indices stable across reruns.

use dmt::sim::native_rig::NativeRig;
use dmt::sim::sweep::{matrix, SweepConfig};
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::Design;
use dmt::sim::RunStats;
use dmt::sim::Runner;
use dmt::telemetry::Telemetry;
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::{Access, Workload};

const SEED: u64 = 0xD317 ^ Design::Dmt as u64;

fn native_cell(design: Design) -> (RunStats, u64) {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(6_000, SEED);
    let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
    let stats = Runner::builder().build().replay(&mut rig, &trace, 1_000).0;
    (stats, rig.phys().buddy().state_hash())
}

fn virt_cell() -> (RunStats, u64) {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(4_000, SEED);
    let mut rig = VirtRig::new(Design::PvDmt, false, &w, &trace).unwrap();
    let stats = Runner::builder().build().replay(&mut rig, &trace, 1_000).0;
    (stats, rig.machine().pm.buddy().state_hash())
}

#[test]
fn native_cell_is_deterministic() {
    let (stats_a, hash_a) = native_cell(Design::Dmt);
    let (stats_b, hash_b) = native_cell(Design::Dmt);
    assert_eq!(stats_a, stats_b, "RunStats must be seed-deterministic");
    assert_eq!(
        hash_a, hash_b,
        "allocator end state must be seed-deterministic"
    );
}

#[test]
fn virt_cell_is_deterministic() {
    let (stats_a, hash_a) = virt_cell();
    let (stats_b, hash_b) = virt_cell();
    assert_eq!(stats_a, stats_b);
    assert_eq!(hash_a, hash_b);
}

/// `native_cell` with the probed engine and a live telemetry recorder.
fn native_cell_probed(design: Design) -> (RunStats, u64, Telemetry) {
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let trace = w.trace(6_000, SEED);
    let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
    let (stats, t) = Runner::builder()
        .telemetry(true)
        .build()
        .replay_sampled(&mut rig, &trace, 1_000, 1_000);
    let t = t.expect("telemetry-on runner must capture");
    (stats, rig.phys().buddy().state_hash(), t)
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // The probe must be a pure observer: a telemetry-on run produces
    // bit-identical RunStats AND an identical allocator end state to a
    // telemetry-off run of the same seeded cell.
    let (stats_off, hash_off) = native_cell(Design::Dmt);
    let (stats_on, hash_on, t) = native_cell_probed(Design::Dmt);
    assert_eq!(stats_on, stats_off, "probe must not change RunStats");
    assert_eq!(hash_on, hash_off, "probe must not change allocator state");
    // ...while actually recording: the histograms mirror the stats.
    assert_eq!(t.walk_latency.count(), stats_off.walks);
    assert_eq!(t.walk_latency.sum(), stats_off.walk_cycles);
    assert_eq!(t.data_latency.count(), stats_off.accesses);
    assert!(!t.series.is_empty(), "periodic sampler must have fired");
}

#[test]
fn telemetry_runs_are_seed_deterministic() {
    let (sa, ha, ta) = native_cell_probed(Design::Dmt);
    let (sb, hb, tb) = native_cell_probed(Design::Dmt);
    assert_eq!(sa, sb);
    assert_eq!(ha, hb);
    assert_eq!(ta, tb, "telemetry itself must be seed-deterministic");
}

#[test]
fn parallel_sweep_telemetry_matches_serial() {
    // Telemetry rides the parallel sweep without breaking its exactness
    // guarantee: per-row recorders (histograms, counters, time-series)
    // from 4 workers equal a 1-worker sweep's, and RunStats equality
    // still holds with capture enabled.
    let mut cfg = SweepConfig::test();
    cfg.threads = 4;
    let runner = Runner::builder().telemetry(true).build();
    let par = runner.sweep(&cfg).unwrap();
    cfg.threads = 1;
    let ser = runner.sweep(&cfg).unwrap();
    assert_eq!(par.rows.len(), matrix(&cfg).len());
    for (p, s) in par.rows.iter().zip(&ser.rows) {
        assert_eq!(p.outcome(), s.outcome());
        let (pt, st) = (p.telemetry.as_ref().unwrap(), s.telemetry.as_ref().unwrap());
        assert_eq!(
            pt, st,
            "row {}/{:?}: parallel telemetry != serial",
            p.workload, p.design
        );
        assert!(
            pt.walk_latency.count() > 0,
            "telemetry rows must be populated"
        );
    }
}

#[test]
fn mmap_and_buffered_trace_readers_are_bit_identical() {
    // The zero-copy mapped reader and the read-to-Vec fallback must be
    // indistinguishable: same decoded stream, same per-chunk decode,
    // same replay results. (On platforms where mmap fails, `open`
    // itself falls back and the two are trivially equal — the assert on
    // decoded content is what matters.) The streaming `TraceReader`
    // joins them: `Runner::replay` over its accesses equals the replay
    // of the in-memory trace the file was captured from.
    let w = Gups {
        table_bytes: 32 << 20,
    };
    let dir = std::env::temp_dir().join(format!("dmt-mmap-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gups.dmtt");
    dmt::trace::capture_indexed_to_path(&w, 6_000, SEED, 250, &path).unwrap();
    let mapped = dmt::trace::TraceFile::open(&path).unwrap();
    let buffered = dmt::trace::TraceFile::open_buffered(&path).unwrap();
    assert!(!buffered.is_mapped());
    assert_eq!(mapped.read_all().unwrap(), buffered.read_all().unwrap());
    let mut a = Vec::new();
    let mut b = Vec::new();
    for c in 0..mapped.chunk_count() {
        a.clear();
        b.clear();
        mapped.decode_chunk(c, &mut a).unwrap();
        buffered.decode_chunk(c, &mut b).unwrap();
        assert_eq!(a, b, "chunk {c}");
    }
    // Replaying through each source produces identical results.
    use dmt::sim::shard::ShardSource;
    let trace = w.trace(6_000, SEED);
    let setup = dmt::sim::Setup::of_workload(&w, &trace);
    let runner = Runner::builder().epoch_len(1_000).shards(3).build();
    let via_map = runner
        .replay_sharded(
            dmt::sim::Env::Native,
            Design::Dmt,
            false,
            &setup,
            ShardSource::File(&mapped),
            1_000,
            0,
        )
        .unwrap();
    let via_buf = runner
        .replay_sharded(
            dmt::sim::Env::Native,
            Design::Dmt,
            false,
            &setup,
            ShardSource::File(&buffered),
            1_000,
            0,
        )
        .unwrap();
    assert_eq!(via_map.stats, via_buf.stats);
    assert_eq!(via_map.alloc_hash, via_buf.alloc_hash);
    let plain = Runner::builder().build();
    let replay = |trace: &mut dyn Iterator<Item = Access>| {
        let mut rig = plain
            .build_rig(dmt::sim::Env::Native, Design::Dmt, false, &setup)
            .unwrap();
        plain.replay(rig.as_mut(), trace, 1_000).0
    };
    let streamed = dmt::trace::TraceReader::open(&path).unwrap().accesses();
    let in_memory = replay(&mut trace.iter().copied());
    assert_eq!(replay(&mut streamed.into_iter()), in_memory);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn allocator_hash_distinguishes_designs() {
    // DMT places TEA frames; vanilla has none — the state hash must see
    // the difference (it folds in frame kinds, not just occupancy).
    let (_, dmt_hash) = native_cell(Design::Dmt);
    let (_, vanilla_hash) = native_cell(Design::Vanilla);
    assert_ne!(dmt_hash, vanilla_hash);
}
