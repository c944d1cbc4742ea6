//! End-to-end smoke of the figure runners at reduced scale, asserting the
//! qualitative shapes the paper reports. Absolute factors need the full
//! scale (see EXPERIMENTS.md); these tests pin the *orderings*.

use dmt::sim::experiments::{fig16, fig4, scaled_benchmark, Measurement, Scale};
use dmt::sim::perfmodel::geomean;
use dmt::sim::rig::{Design, Env};
use dmt::sim::{Runner, SimError};
use dmt::workloads::gen::Workload;

/// One sweep cell through the unified entry point (what the retired
/// `experiments::run_one` shim used to forward to).
fn run_one(
    env: Env,
    design: Design,
    thp: bool,
    w: &dyn Workload,
    scale: Scale,
) -> Result<Measurement, SimError> {
    Runner::from_env().run_one(env, design, thp, w, scale)
}

fn small() -> Scale {
    Scale {
        mult4k: 16,
        thp_mult: 8,
        trace: 6_000,
        warmup: 1_500,
    }
}

#[test]
fn fig4_environment_ordering() {
    let rows = fig4(small()).unwrap();
    for r in &rows {
        assert!(r.native.0 <= r.virt_npt.0, "{}: virt >= native", r.workload);
        assert!(
            r.virt_npt.0 < r.virt_spt.0,
            "{}: shadow paging slower than nested paging end-to-end",
            r.workload
        );
        assert!(
            r.virt_spt.0 < r.nested.0,
            "{}: nested virtualization slowest",
            r.workload
        );
        // Page-walk fractions grow with virtualization depth.
        assert!(r.native.1 < r.virt_npt.1);
        assert!(r.virt_npt.1 <= r.nested.1);
    }
    // Geomean shapes of the paper: virt ~1.4-1.5x, nested ~4x.
    let virt = geomean(&rows.iter().map(|r| r.virt_npt.0).collect::<Vec<_>>());
    let nested = geomean(&rows.iter().map(|r| r.nested.0).collect::<Vec<_>>());
    assert!((1.2..1.8).contains(&virt), "virt geomean {virt}");
    assert!((3.0..5.0).contains(&nested), "nested geomean {nested}");
}

#[test]
fn virtualized_walks_beat_native_designs_shape() {
    // pvDMT must never lose to plain DMT, and both must cover everything.
    let scale = small();
    let w = scaled_benchmark(2, scale, false).unwrap(); // GUPS
    let base = run_one(Env::Virt, Design::Vanilla, false, w.as_ref(), scale).unwrap();
    let dmt = run_one(Env::Virt, Design::Dmt, false, w.as_ref(), scale).unwrap();
    let pv = run_one(Env::Virt, Design::PvDmt, false, w.as_ref(), scale).unwrap();
    assert!(pv.stats.avg_refs() < dmt.stats.avg_refs());
    assert!(dmt.stats.avg_refs() < base.stats.avg_refs());
    assert!(
        pv.stats.walk_cycles <= dmt.stats.walk_cycles,
        "pvDMT {} <= DMT {}",
        pv.stats.walk_cycles,
        dmt.stats.walk_cycles
    );
    assert!(pv.coverage > 0.99 && dmt.coverage > 0.99);
}

#[test]
fn nested_pvdmt_beats_baseline_end_to_end() {
    let scale = small();
    let w = scaled_benchmark(2, scale, false).unwrap(); // GUPS
    let base = run_one(Env::Nested, Design::Vanilla, false, w.as_ref(), scale).unwrap();
    let pv = run_one(Env::Nested, Design::PvDmt, false, w.as_ref(), scale).unwrap();
    // pvDMT: 3 refs; the baseline 2D walk averages more.
    assert!((pv.stats.avg_refs() - 3.0).abs() < 0.01);
    assert!(base.stats.avg_refs() > 3.0);
    // The baseline pays ~1 exit per fault; pvDMT a handful of hypercalls.
    assert!(base.stats.exits > 100 * pv.stats.exits.max(1));
}

#[test]
fn fig16_breakdown_shape() {
    let (vanilla, pvdmt) = fig16(false, small()).unwrap();
    // The 2D walk has many steps; pvDMT exactly two.
    assert!(vanilla.len() >= 10, "steps: {}", vanilla.len());
    assert_eq!(pvdmt.len(), 2);
    // Shares sum to ~1 in both breakdowns.
    let vs: f64 = vanilla.iter().map(|s| s.share).sum();
    let ps: f64 = pvdmt.iter().map(|s| s.share).sum();
    assert!((vs - 1.0).abs() < 1e-6, "vanilla shares {vs}");
    assert!((ps - 1.0).abs() < 1e-6, "pvDMT shares {ps}");
    // The two pvDMT fetches carry comparable weight (33%/33% in the
    // paper's Figure 16a).
    assert!(pvdmt[0].share > 0.2 && pvdmt[1].share > 0.2);
}

#[test]
fn thp_reduces_walk_latency_for_vanilla() {
    let scale = small();
    let w4 = scaled_benchmark(2, scale, false).unwrap();
    let wt = scaled_benchmark(2, scale, true).unwrap();
    let b4 = run_one(Env::Virt, Design::Vanilla, false, w4.as_ref(), scale).unwrap();
    let bt = run_one(Env::Virt, Design::Vanilla, true, wt.as_ref(), scale).unwrap();
    assert!(
        bt.stats.avg_walk_latency() < b4.stats.avg_walk_latency(),
        "THP {} !< 4K {}",
        bt.stats.avg_walk_latency(),
        b4.stats.avg_walk_latency()
    );
}

#[test]
fn five_level_tables_hurt_radix_not_dmt() {
    let (v4, v5, dmt5) = dmt::sim::experiments::ext_5level(&Runner::from_env(), small()).unwrap();
    // The fifth level lengthens radix walks; DMT stays a single fetch.
    assert!(v5 > v4, "5-level {v5} !> 4-level {v4}");
    assert!(dmt5 < v5, "DMT {dmt5} !< 5-level radix {v5}");
}

#[test]
fn context_switching_preserves_dmt_advantage() {
    let (vanilla, dmt, cov) =
        dmt::sim::experiments::ext_context_switch(&Runner::from_env(), small(), 500).unwrap();
    assert!(dmt < vanilla, "DMT {dmt} !< vanilla {vanilla} under switching");
    assert!(cov > 0.999, "register reload keeps full coverage: {cov}");
}

#[test]
fn pwc_capacity_cannot_save_the_radix_walk() {
    let pts =
        dmt::sim::ablation::pwc_sweep(&Runner::from_env(), 256 << 20, &[8, 32, 128, 512], 6_000)
            .unwrap();
    // Bigger PWCs help monotonically-ish...
    assert!(pts[0].avg_walk_cycles >= pts[3].avg_walk_cycles * 0.95);
    // ...but even a 16x PWC keeps walks above a single DRAM fetch,
    // because the leaf PTE itself still has to come from memory.
    assert!(
        pts[3].avg_walk_cycles > 100.0,
        "512-entry PWC: {}",
        pts[3].avg_walk_cycles
    );
}
