//! One experiment pipeline: the paper's figures and Table 7 run their
//! cells in parallel, and must be bit-identical to the serial reference
//! over the same matrix — figures against a one-worker `Runner::sweep`,
//! Table 7 against a serial `run_node` loop over its node configs.

use dmt::sim::experiments::{fig17, table7, table7_nodes, Scale, FIG17};
use dmt::sim::{Runner, SweepConfig};

/// Small enough for a debug-mode suite; every benchmark still walks,
/// and THP footprints stay host-page aligned in every environment.
fn tiny() -> Scale {
    Scale {
        mult4k: 16,
        thp_mult: 8,
        trace: 800,
        warmup: 200,
    }
}

#[test]
fn figure_from_parallel_sweep_equals_serial_sweep() {
    let runner = Runner::builder().build();
    let par = fig17(&runner, tiny()).unwrap();
    let serial = SweepConfig {
        threads: 1,
        ..FIG17.sweep_config(tiny())
    };
    let ser = FIG17.data(&runner.sweep(&serial).unwrap());
    assert_eq!(par.modes.len(), 2, "4 KiB and THP");
    assert_eq!(par.modes.len(), ser.modes.len());
    for ((p_thp, p_rows), (s_thp, s_rows)) in par.modes.iter().zip(&ser.modes) {
        assert_eq!(p_thp, s_thp);
        assert_eq!(p_rows.len(), 7, "one row per benchmark");
        assert_eq!(p_rows.len(), s_rows.len());
        for (p, s) in p_rows.iter().zip(s_rows) {
            assert_eq!((&p.workload, p.design), (&s.workload, s.design));
            assert_eq!(
                p.pw_speedup.to_bits(),
                s.pw_speedup.to_bits(),
                "{}",
                p.workload
            );
            assert_eq!(
                p.app_speedup.to_bits(),
                s.app_speedup.to_bits(),
                "{}",
                p.workload
            );
            assert_eq!(p.coverage.to_bits(), s.coverage.to_bits(), "{}", p.workload);
        }
    }
}

#[test]
fn parallel_table7_equals_a_serial_node_loop() {
    let runner = Runner::builder().telemetry(true).build();
    // Table 7 runs 4 KiB only, so the footprint can shrink further.
    let scale = Scale {
        mult4k: 8,
        ..tiny()
    };
    let n = 2;
    let rows = table7(&runner, scale, n).unwrap();
    let nodes = table7_nodes(scale, n);
    assert_eq!(rows.len(), nodes.len());
    for (row, cfg) in rows.iter().zip(&nodes) {
        let (stats, telemetry) = runner.run_node(cfg).unwrap();
        let design = stats.design;
        assert_eq!(row.env, cfg.tenants[0].env);
        assert_eq!(
            row.stats, stats,
            "{:?}/{design:?}: NodeStats diverged",
            row.env
        );
        assert!(telemetry.is_some(), "the runner captures telemetry");
        assert_eq!(
            row.telemetry, telemetry,
            "{:?}/{design:?}: telemetry diverged",
            row.env
        );
    }
}
