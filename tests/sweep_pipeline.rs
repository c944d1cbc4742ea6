//! The shared-trace sweep pipeline: parallel and serial sweeps must be
//! bit-identical with the oracle and telemetry hooks in every on/off
//! combination, and the materialization counter must prove each
//! (benchmark, THP) trace was generated exactly once.

use dmt::sim::sweep::{matrix, SweepConfig};
use dmt::sim::{Runner, RunnerBuilder, Scale, SimError};

/// All four hook combinations: (telemetry, oracle).
fn runners() -> Vec<(&'static str, Runner)> {
    let with = |b: RunnerBuilder, oracle: bool| {
        if oracle {
            b.rig_wrapper(dmt::oracle::wrapper())
        } else {
            b
        }
    };
    let mut out = Vec::new();
    for telemetry in [false, true] {
        for oracle in [false, true] {
            let label: &'static str = match (telemetry, oracle) {
                (false, false) => "plain",
                (false, true) => "oracle",
                (true, false) => "telemetry",
                (true, true) => "telemetry+oracle",
            };
            out.push((
                label,
                with(Runner::builder().telemetry(telemetry), oracle).build(),
            ));
        }
    }
    out
}

#[test]
fn parallel_equals_serial_under_every_hook_combination() {
    let mut cfg = SweepConfig::test();
    cfg.threads = 4;
    for (label, runner) in runners() {
        let par = runner.sweep(&cfg).unwrap();
        let ser = runner.sweep_serial(&cfg).unwrap();
        assert_eq!(par.rows.len(), matrix(&cfg).len(), "{label}");
        for (p, s) in par.rows.iter().zip(&ser.rows) {
            assert_eq!(p.outcome(), s.outcome(), "{label}: parallel != serial");
            assert_eq!(
                p.telemetry, s.telemetry,
                "{label}: telemetry capture must be deterministic too"
            );
        }
        assert!(par.rows.iter().all(|r| r.stats.accesses > 0), "{label}");
    }
}

#[test]
fn sharded_sweep_parallel_equals_serial_under_every_hook_combination() {
    // The shards>1 dimension composes with every hook combination:
    // job-level parallel and serial sweeps both route each cell through
    // the intra-trace sharded path and must still agree exactly — rows,
    // stats, telemetry. In-memory traces and disk-spilled (seekable v2)
    // traces must also agree with each other, since the sharded path
    // decodes spilled chunks itself.
    let spill =
        std::env::temp_dir().join(format!("dmt-sharded-sweep-selftest-{}", std::process::id()));
    let mut cfg = SweepConfig::test();
    cfg.threads = 4;
    for telemetry in [false, true] {
        for oracle in [false, true] {
            let label = format!("telemetry={telemetry} oracle={oracle} shards=3");
            let base = || {
                let b = Runner::builder().telemetry(telemetry).shards(3);
                if oracle {
                    b.rig_wrapper(dmt::oracle::wrapper())
                } else {
                    b
                }
            };
            let runner = base().build();
            let par = runner.sweep(&cfg).unwrap();
            let ser = runner.sweep_serial(&cfg).unwrap();
            assert_eq!(par.rows.len(), matrix(&cfg).len(), "{label}");
            for (p, s) in par.rows.iter().zip(&ser.rows) {
                assert_eq!(
                    p.outcome(),
                    s.outcome(),
                    "{label}: sharded parallel != serial"
                );
                assert_eq!(
                    p.telemetry, s.telemetry,
                    "{label}: sharded telemetry diverged"
                );
            }
            assert!(par.rows.iter().all(|r| r.stats.accesses > 0), "{label}");
            // Spilled traces replay through TraceFile chunks — same rows.
            let spilled = base().spill_traces(&spill).build().sweep(&cfg).unwrap();
            for (p, d) in par.rows.iter().zip(&spilled.rows) {
                assert_eq!(
                    p.outcome(),
                    d.outcome(),
                    "{label}: spilled sharded != memory"
                );
                assert_eq!(
                    p.telemetry, d.telemetry,
                    "{label}: spilled telemetry diverged"
                );
            }
        }
    }
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn each_trace_materializes_exactly_once() {
    // SweepConfig::test() is 2 benchmarks × 1 THP mode × 2 designs =
    // 4 jobs over 2 unique traces. The old pipeline generated 4 traces;
    // the shared pipeline must generate exactly 2 — and the serial
    // reference must share the same guarantee.
    let mut cfg = SweepConfig::test();
    cfg.threads = 4;
    let runner = Runner::builder().build();
    for report in [
        runner.sweep(&cfg).unwrap(),
        runner.sweep_serial(&cfg).unwrap(),
    ] {
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.unique_traces, 2, "2 benchmarks × 1 THP mode");
        assert_eq!(
            report.trace_materializations, 2,
            "every (benchmark, THP) trace must be generated exactly once"
        );
        assert!(report.materialize_nanos > 0, "generation time is recorded");
    }
}

#[test]
fn design_cells_share_one_trace_stream() {
    // Same benchmark, different designs → the shared pipeline feeds
    // both rigs the identical access stream, so their measured access
    // counts agree exactly.
    let cfg = SweepConfig::test();
    let report = Runner::builder().build().sweep_serial(&cfg).unwrap();
    for pair in report.rows.chunks(2) {
        let [a, b] = pair else {
            panic!("2 designs per benchmark")
        };
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.stats.accesses, b.stats.accesses);
    }
}

#[test]
fn empty_matrix_is_a_typed_error_not_zero_rows() {
    let mut cfg = SweepConfig::test();
    cfg.designs = Vec::new();
    let runner = Runner::builder().build();
    assert_eq!(runner.sweep(&cfg).unwrap_err(), SimError::EmptyMatrix);
    assert_eq!(
        runner.sweep_serial(&cfg).unwrap_err(),
        SimError::EmptyMatrix
    );
}

/// The CI `sweep` job's payload (run with `--include-ignored`): the
/// full Table-6 matrix at test scale through the shared pipeline, with
/// telemetry on when `DMT_TELEMETRY` asks for it, failing on any
/// duplicate trace materialization and recording the report (wall
/// clock, per-trace generation time, counters) in the results JSON.
#[test]
#[ignore = "full test-scale matrix; run explicitly (CI sweep job)"]
fn full_matrix_materializes_each_trace_once() {
    let cfg = SweepConfig::builder().scale(Scale::test()).build().unwrap();
    let report = Runner::from_env().sweep(&cfg).unwrap();
    assert_eq!(report.rows.len(), matrix(&cfg).len());
    assert_eq!(
        report.unique_traces,
        (cfg.benchmarks.len() * cfg.thp.len()) as u64
    );
    assert_eq!(
        report.trace_materializations, report.unique_traces,
        "duplicate trace materialization in the full matrix"
    );
    assert!(report.rows.iter().all(|r| r.stats.accesses > 0));
    let path = report.write_json("sweep_full_test_scale").unwrap();
    println!(
        "full matrix: {} jobs over {} traces, {:.2}s total ({:.2}s materializing) -> {}",
        report.rows.len(),
        report.unique_traces,
        report.total_wall_nanos as f64 / 1e9,
        report.materialize_nanos as f64 / 1e9,
        path.display()
    );
}
