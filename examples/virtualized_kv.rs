//! A Redis-style key-value store inside a VM: the paper's motivating
//! scenario (§1–§2). Compares vanilla KVM's 2D page walk, shadow paging,
//! plain DMT, and pvDMT over the same guest.
//!
//! Run with: `cargo run --release --example virtualized_kv`

use dmt::sim::perfmodel::{app_speedup, calib_for};
use dmt::sim::report::{speedup, Table};
use dmt::sim::rig::{Design, Env};
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::Runner;
use dmt::workloads::bench7::Redis;
use dmt::workloads::gen::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled Redis: 8 M records x 256 B = 2 GiB of values, Zipfian
    // reads — enough to blow out the TLB, PWC and LLC.
    let redis = Redis {
        records: 8 << 20,
        ..Redis::default()
    };
    let trace = redis.trace(120_000, 42);
    let warmup = 20_000;
    println!(
        "workload: {} ({} MiB mapped, {} accesses)\n",
        redis.name(),
        redis.footprint() >> 20,
        trace.len()
    );

    let calib = calib_for("Redis");
    let mut table = Table::new(
        "Redis in a VM: translation designs (baseline = vanilla KVM)",
        &[
            "design",
            "walk latency (cyc)",
            "seq. refs",
            "VM exits",
            "app speedup",
        ],
    );
    let mut base_cycles = 0u64;
    for design in [Design::Vanilla, Design::Shadow, Design::Dmt, Design::PvDmt] {
        let mut rig = VirtRig::new(design, false, &redis, &trace)?;
        let stats = Runner::builder().build().replay(&mut rig, &trace, warmup).0;
        if design == Design::Vanilla {
            base_cycles = stats.walk_cycles;
        }
        let walk_ratio = stats.walk_cycles as f64 / base_cycles.max(1) as f64;
        let exit_ratio = if design == Design::Shadow { 1.0 } else { 0.0 };
        let app = app_speedup(&calib, Env::Virt, walk_ratio, exit_ratio);
        table.row(vec![
            design.name().to_string(),
            format!("{:.1}", stats.avg_walk_latency()),
            format!("{:.2}", stats.avg_refs()),
            stats.exits.to_string(),
            speedup(app),
        ]);
    }
    println!("{table}");
    println!("pvDMT fetches two PTEs per miss (gPTE via the gTEA table, then the hPTE);");
    println!("shadow paging has short walks but pays a VM exit per guest PTE update.");
    Ok(())
}
