//! The VMA characterization behind Table 1 and Figure 5 (§2.3): how many
//! VMAs (and VMA clusters with ≤2% bubbles) cover 99% of a process's
//! mapped bytes — the empirical bet DMT's 16 registers rest on.
//!
//! Run with: `cargo run --release --example vma_study`

use dmt::sim::report::Table;
use dmt::workloads::vma_profile::{
    benchmark_layouts, characterize, spec2006_layouts, spec2017_layouts, VmaLayout,
};

fn cdf_line(values: &mut [usize], percentiles: &[f64]) -> String {
    values.sort_unstable();
    percentiles
        .iter()
        .map(|p| {
            let idx = ((values.len() as f64 - 1.0) * p).round() as usize;
            format!("p{:02.0}={}", p * 100.0, values[idx])
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    // Table 1: the seven benchmarks.
    let mut t = Table::new(
        "Table 1 — VMA characteristics (2% bubble allowance)",
        &["workload", "total", "99% cov.", "clusters"],
    );
    for l in benchmark_layouts() {
        let c = characterize(&l, 0.02);
        t.row(vec![
            l.name.clone(),
            c.total.to_string(),
            c.cov99.to_string(),
            c.clusters.to_string(),
        ]);
    }
    println!("{t}");

    // Figure 5: SPEC CPU 2006/2017 CDF summaries.
    for (name, layouts) in [
        ("SPEC CPU 2006 (30 workloads)", spec2006_layouts(2006)),
        ("SPEC CPU 2017 (47 workloads)", spec2017_layouts(2017)),
    ] {
        let chars: Vec<_> = layouts
            .iter()
            .map(|l: &VmaLayout| characterize(l, 0.02))
            .collect();
        println!("Figure 5 — {name}");
        let pct = [0.25, 0.50, 0.75, 0.90, 1.0];
        let mut totals: Vec<usize> = chars.iter().map(|c| c.total).collect();
        let mut covs: Vec<usize> = chars.iter().map(|c| c.cov99).collect();
        let mut clusters: Vec<usize> = chars.iter().map(|c| c.clusters).collect();
        println!("  (a) Total:    {}", cdf_line(&mut totals, &pct));
        println!("  (b) 99% Cov.: {}", cdf_line(&mut covs, &pct));
        println!("  (c) Clusters: {}", cdf_line(&mut clusters, &pct));
        let fits = chars.iter().filter(|c| c.clusters <= 16).count();
        println!(
            "  clusters fit in 16 DMT registers: {fits}/{}\n",
            chars.len()
        );
    }
    println!("Every workload except Memcached needs at most a handful of VMAs for 99%");
    println!("coverage; Memcached's 778 slab VMAs collapse into 2 clusters — which is");
    println!("why DMT clusters adjacent VMAs before filling its 16 registers.");
}
