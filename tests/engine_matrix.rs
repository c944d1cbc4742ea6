//! The default engine against the scalar reference over the whole
//! `Scale::test()` matrix: every bench7 workload, both THP modes, every
//! registered (env, design) cell — 7 × 2 × 20 = 280 cells. A miss is
//! one `Rig::translate` on both engines; the default engine charges the
//! miss's data access at the translation's PA, the scalar reference at
//! the ground truth `Rig::data_pa`. Wherever a design's translation is
//! exact, the two must agree on every `RunStats` field.
//!
//! Ignored by default (it replays 280 cells twice); run it in release:
//! `cargo test --release --test engine_matrix -- --ignored`.

use dmt::sim::sweep::matrix;
use dmt::sim::{Design, Engine, Env, Runner, SweepConfig};

/// Cells where the two engines are known to differ, as (bench, THP,
/// env, design). Under THP, Memcached leaves some 2 MiB regions mapped
/// by 4 KiB pages, and native DMT's fetcher (pvDMT is DMT natively)
/// claims a 2 MiB leaf there: the translation's PA is not the data PA
/// (ROADMAP item 5). Fixing that empties this list.
const KNOWN_DIVERGENT: [(usize, bool, Env, Design); 2] = [
    (1, true, Env::Native, Design::Dmt),
    (1, true, Env::Native, Design::PvDmt),
];

#[test]
#[ignore = "280-cell matrix; run in release with --ignored"]
fn default_engine_matches_scalar_on_every_test_scale_cell() {
    let cfg = SweepConfig {
        envs: vec![Env::Native, Env::Virt, Env::Nested],
        designs: Design::ALL.to_vec(),
        thp: vec![false, true],
        benchmarks: (0..7).collect(),
        threads: 2,
        ..SweepConfig::test()
    };
    let default = Runner::builder().build().sweep(&cfg).unwrap();
    let scalar = Runner::builder()
        .engine(Engine::Scalar)
        .build()
        .sweep(&cfg)
        .unwrap();
    let jobs = matrix(&cfg);
    assert_eq!(jobs.len(), 280, "7 benchmarks x 2 THP x 20 cells");
    assert_eq!(default.rows.len(), jobs.len());
    assert_eq!(scalar.rows.len(), jobs.len());
    let mut diverged = Vec::new();
    for ((job, d), s) in jobs.iter().zip(&default.rows).zip(&scalar.rows) {
        assert_eq!(
            (job.env, job.design, job.thp),
            (d.env, d.design, d.thp),
            "row order"
        );
        assert_eq!(d.outcome().0, s.outcome().0, "row order");
        if d.stats != s.stats {
            diverged.push((job.bench, job.thp, job.env, job.design));
        }
    }
    assert_eq!(
        diverged, KNOWN_DIVERGENT,
        "cells where the default engine and the scalar reference disagree"
    );
}
