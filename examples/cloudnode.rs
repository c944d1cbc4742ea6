//! A multi-tenant cloud node (§2, §6): sixteen tenants — a mix of
//! native processes and VMs cycling through the bench7 suite — share
//! one physical machine, one ASID-tagged TLB, and one page-walk cache,
//! while kill/restart churn ages the shared buddy allocator. Vanilla
//! radix paging vs DMT vs the beyond-the-paper non-radix designs (VBI
//! blocks, base+bound segments), compared at *node* granularity.
//!
//! Run with: `cargo run --release --example cloudnode`

use dmt::sim::cloudnode::{NodeConfig, TenantSpec};
use dmt::sim::experiments::Scale;
use dmt::sim::report::{f2, pct, speedup, Table};
use dmt::sim::rig::{Design, Env};
use dmt::sim::Runner;

fn node(design: Design) -> NodeConfig {
    // Sixteen tenants: three quarters native processes, a quarter
    // single-level VMs, benchmarks in bench7 rotation with mildly
    // skewed scheduler weights. Churn kills and restarts eight tenants
    // over the run, so late rebuilds allocate from an aged buddy.
    let tenants = (0..16)
        .map(|i| TenantSpec {
            bench: i % 7,
            env: if i % 4 == 3 { Env::Virt } else { Env::Native },
            weight: 1 + (i as u32 % 2),
        })
        .collect();
    NodeConfig::new(design, false, Scale::test(), tenants)
        .quantum(256)
        .churn(24, 8)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runner = Runner::from_env();
    let mut table = Table::new(
        "Table 7 — 16-tenant cloud node (12 native + 4 virt, tagged TLB/PWC, churn)",
        &[
            "design",
            "walk lat (cyc)",
            "pw speedup",
            "switches",
            "tag flushes",
            "xt shootdowns",
            "frag",
            "coverage",
        ],
    );
    let mut base_lat = 0.0;
    for design in [Design::Vanilla, Design::Dmt, Design::Vbi, Design::Seg] {
        let (stats, _) = runner.run_node(&node(design))?;
        let lat = stats.node.avg_walk_latency();
        if design == Design::Vanilla {
            base_lat = lat;
        }
        table.row(vec![
            design.name().to_string(),
            f2(lat),
            speedup(if lat > 0.0 { base_lat / lat } else { 1.0 }),
            stats.context_switches.to_string(),
            stats.tagged_flushes.to_string(),
            stats.cross_tenant_shootdowns.to_string(),
            f2(stats.frag_final),
            pct(stats.mean_coverage()),
        ]);
        let kills: u32 = stats.tenants.iter().map(|t| t.incarnations - 1).sum();
        println!(
            "{}: {} tenants, {} accesses, {} kills survived, {} free frames left",
            design.name(),
            stats.tenants.len(),
            stats.node.accesses,
            kills,
            stats.free_frames,
        );
    }
    println!("\n{table}");
    Ok(())
}
