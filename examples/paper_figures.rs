//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! Run with: `cargo run --release --example paper_figures [--full]`
//!
//! The default uses the reduced test scale (~12 s on two cores); with
//! `--full` it uses the paper-regime scale (multi-GiB footprints) — the
//! numbers recorded in EXPERIMENTS.md. Figures 4/14/15/17 and Table 7
//! spread their cells over every core.

use dmt::sim::ablation::{policy_comparison, register_sweep, threshold_sweep};
use dmt::sim::experiments::{
    fig14, fig15, fig16, fig17, fig4, scaled_benchmark, table5, table6, table7, Fig4Row,
    FigureData, Scale, FIG14, FIG15, FIG17,
};
use dmt::sim::overheads::{hypercall_overhead, management_overhead, memory_overhead};
use dmt::sim::perfmodel::geomean;
use dmt::sim::report::{pct, speedup, table7_json, table7_table, Table};
use dmt::sim::rig::Design;
use dmt::workloads::vma_profile::{benchmark_layouts, characterize};

fn print_figure(fig: &FigureData, designs: &[Design]) {
    for (thp, rows) in &fig.modes {
        let mode = if *thp { "THP" } else { "4KB" };
        let mut t = Table::new(
            format!(
                "{} — {} — page-walk / application speedup over vanilla",
                fig.label, mode
            ),
            &{
                let mut h = vec!["workload"];
                h.extend(designs.iter().map(|d| d.name()));
                h
            },
        );
        let workloads: Vec<String> = {
            let mut seen = Vec::new();
            for r in rows {
                if !seen.contains(&r.workload) {
                    seen.push(r.workload.clone());
                }
            }
            seen
        };
        for w in &workloads {
            let mut cells = vec![w.clone()];
            for d in designs {
                let r = rows
                    .iter()
                    .find(|r| &r.workload == w && r.design == *d)
                    .expect("measured");
                cells.push(format!("{:.2}x/{:.2}x", r.pw_speedup, r.app_speedup));
            }
            t.row(cells);
        }
        // Geomeans.
        let mut cells = vec!["Geo. Mean".to_string()];
        for d in designs {
            let (pw, app) = fig.geomeans(*thp, *d).expect("measured");
            cells.push(format!("{pw:.2}x/{app:.2}x"));
        }
        t.row(cells);
        println!("{t}");
        let csv_name = format!(
            "{}_{}",
            fig.label
                .split_whitespace()
                .take(2)
                .collect::<Vec<_>>()
                .join("_")
                .to_lowercase()
                .replace(['(', ')'], ""),
            mode.to_lowercase()
        );
        if let Ok(path) = t.write_csv(&csv_name) {
            println!("[wrote {}]", path.display());
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full {
        Scale::default()
    } else {
        Scale::test()
    };
    println!(
        "scale: mult4k={} thp_mult={} trace={} warmup={}  ({} mode)\n",
        scale.mult4k,
        scale.thp_mult,
        scale.trace,
        scale.warmup,
        if full { "FULL" } else { "test" }
    );
    // One runner for every experiment: the DMT_* environment is read
    // once, here, and reaches every figure, table and extension.
    let runner = dmt::sim::Runner::from_env();
    let t0 = std::time::Instant::now();

    // ---- Table 1 + Figure 5 ------------------------------------------
    let mut t = Table::new(
        "Table 1 — VMA characteristics",
        &["workload", "total", "99% cov.", "clusters"],
    );
    for l in benchmark_layouts() {
        let c = characterize(&l, 0.02);
        t.row(vec![
            l.name,
            c.total.to_string(),
            c.cov99.to_string(),
            c.clusters.to_string(),
        ]);
    }
    println!("{t}");

    // ---- Figure 4 -----------------------------------------------------
    let rows: Vec<Fig4Row> = fig4(&runner, scale).map_err(anyhow)?;
    let mut t = Table::new(
        "Figure 4 — normalized execution time (PW fraction) per environment",
        &["workload", "native", "virt nPT", "virt sPT", "nested"],
    );
    for r in &rows {
        let cell = |(time, f): (f64, f64)| format!("{time:.2} ({})", pct(f));
        t.row(vec![
            r.workload.clone(),
            cell(r.native),
            cell(r.virt_npt),
            cell(r.virt_spt),
            cell(r.nested),
        ]);
    }
    t.row(vec![
        "Geo. Mean".into(),
        format!(
            "{:.2}",
            geomean(&rows.iter().map(|r| r.native.0).collect::<Vec<_>>())
        ),
        format!(
            "{:.2}",
            geomean(&rows.iter().map(|r| r.virt_npt.0).collect::<Vec<_>>())
        ),
        format!(
            "{:.2}",
            geomean(&rows.iter().map(|r| r.virt_spt.0).collect::<Vec<_>>())
        ),
        format!(
            "{:.2}",
            geomean(&rows.iter().map(|r| r.nested.0).collect::<Vec<_>>())
        ),
    ]);
    println!("{t}");
    println!("[{:?} elapsed]\n", t0.elapsed());

    // ---- Figures 14, 15, 17 ------------------------------------------
    let f14 = fig14(&runner, scale).map_err(anyhow)?;
    print_figure(&f14, FIG14.designs);
    println!("[{:?} elapsed]\n", t0.elapsed());

    let f15 = fig15(&runner, scale).map_err(anyhow)?;
    print_figure(&f15, FIG15.designs);
    println!("[{:?} elapsed]\n", t0.elapsed());

    let f17 = fig17(&runner, scale).map_err(anyhow)?;
    print_figure(&f17, FIG17.designs);
    println!("[{:?} elapsed]\n", t0.elapsed());

    // ---- Figure 16 ----------------------------------------------------
    for thp in [false, true] {
        let (vanilla, pvdmt) = fig16(thp, scale).map_err(anyhow)?;
        let mode = if thp { "2M huge pages" } else { "4KB pages" };
        let mut t = Table::new(
            format!("Figure 16 — nested walk breakdown, Redis, {mode}"),
            &["step", "avg cycles", "share"],
        );
        for s in vanilla.iter().chain(pvdmt.iter()) {
            t.row(vec![
                s.label.clone(),
                format!("{:.2}", s.avg_cycles),
                pct(s.share),
            ]);
        }
        println!("{t}");
    }

    // ---- Table 5 ------------------------------------------------------
    let mut t = Table::new(
        "Table 5 — DMT/pvDMT page-walk speedup over other designs (geomean)",
        &["setting", "FPT", "ECPT", "Agile", "ASAP"],
    );
    for row in table5(&f14, &f15) {
        let get = |d: Design| {
            row.over
                .iter()
                .find(|(dd, _)| *dd == d)
                .map(|(_, s)| speedup(*s))
                .unwrap_or_else(|| "N/A".into())
        };
        t.row(vec![
            row.setting.clone(),
            get(Design::Fpt),
            get(Design::Ecpt),
            get(Design::Agile),
            get(Design::Asap),
        ]);
    }
    println!("{t}");

    // ---- Table 6 ------------------------------------------------------
    let mut t = Table::new(
        "Table 6 — sequential memory references",
        &["design", "native", "virtualized", "nested virt."],
    );
    for (d, n, v, nn) in table6() {
        let f = |x: Option<u64>| x.map(|v| v.to_string()).unwrap_or_else(|| "N/A".into());
        t.row(vec![d.name().to_string(), f(n), f(v), f(nn)]);
    }
    println!("{t}");

    // ---- Table 7 ------------------------------------------------------
    // Multi-tenant cloud node: every available design per environment
    // over a shared-machine node with tagged caches and churn.
    let t7 = table7(&runner, scale, if full { 8 } else { 4 }).map_err(anyhow)?;
    println!("{}", table7_table(&t7));
    if let Ok(path) = table7_json(&t7).write_json("table7") {
        println!("[json: {}]", path.display());
    }
    println!("[{:?} elapsed]\n", t0.elapsed());

    // ---- §6.3 overheads ----------------------------------------------
    let mgmt = management_overhead(256).map_err(anyhow)?;
    println!(
        "§6.3 management: FMFI={:.3}, mgmt time={:?}, TEAs={}, mappings={}, defrag moves={}",
        mgmt.frag_index, mgmt.mgmt_time, mgmt.teas_created, mgmt.mappings, mgmt.defrag_moves
    );
    for (nested, label) in [(false, "virtualized"), (true, "nested")] {
        let costs = hypercall_overhead(&[50, 100, 200], nested).map_err(anyhow)?;
        for c in &costs {
            println!(
                "§6.3 hypercall ({label}): {} MB VMA -> TEA alloc {:?}, fixed exit {} cycles",
                c.tea_mb, c.alloc_time, c.exit_cycles
            );
        }
    }
    let mem = memory_overhead(512, 100).map_err(anyhow)?;
    println!(
        "§6.3 memory: DMT {} KiB vs vanilla {} KiB of translation structures (+{:.2}%)",
        mem.dmt_bytes >> 10,
        mem.vanilla_bytes >> 10,
        mem.extra_fraction() * 100.0
    );
    let sparse = memory_overhead(512, 5).map_err(anyhow)?;
    println!(
        "§7 eager-allocation worst case (5% touched): DMT {} KiB vs vanilla {} KiB",
        sparse.dmt_bytes >> 10,
        sparse.vanilla_bytes >> 10
    );

    // ---- Ablations ----------------------------------------------------
    let mc = scaled_benchmark(1, scale, false).expect("Memcached index");
    let sweep = register_sweep(mc.as_ref(), &[1, 2, 4, 8, 16, 32], 20_000);
    let mut t = Table::new(
        "Ablation — register count vs fetcher coverage (Memcached)",
        &["registers", "coverage"],
    );
    for p in sweep {
        t.row(vec![p.registers.to_string(), pct(p.coverage)]);
    }
    println!("{t}");

    let layout = benchmark_layouts()
        .into_iter()
        .find(|l| l.name == "Memcached")
        .unwrap();
    let pts = threshold_sweep(&layout, &[0.0, 0.005, 0.01, 0.02, 0.05, 0.10]);
    let mut t = Table::new(
        "Ablation — bubble threshold t (Memcached layout)",
        &["t", "clusters", "wasted TEA bytes", "regs for 99%"],
    );
    for p in pts {
        t.row(vec![
            format!("{:.1}%", p.threshold * 100.0),
            p.clusters.to_string(),
            p.wasted_tea_bytes.to_string(),
            p.registers_for_99.to_string(),
        ]);
    }
    println!("{t}");

    let pol = policy_comparison(mc.as_ref(), 20_000);
    println!(
        "Ablation — register policy (Memcached): largest-first covers {} of misses, hottest-first {}",
        pct(pol.largest_first),
        pct(pol.hottest_first)
    );

    // ---- Extension: 5-level page tables -------------------------------
    let (v4, v5, dmt5) = dmt::sim::experiments::ext_5level(&runner, scale).map_err(anyhow)?;
    println!(
        "Extension — 5-level tables (sparse GUPS): radix 4-level {v4:.1} cyc/walk, \
         radix 5-level {v5:.1} ({:+.1}%), DMT on 5-level {dmt5:.1} ({:.2}x vs 5-level radix)",
        (v5 / v4 - 1.0) * 100.0,
        v5 / dmt5
    );

    // ---- Extension: frequent context switches --------------------------
    let (van_cs, dmt_cs, cov_cs) =
        dmt::sim::experiments::ext_context_switch(&runner, scale, 2_000).map_err(anyhow)?;
    println!(
        "Extension — context switches every 2k accesses: vanilla {van_cs} walk cycles, \
         DMT {dmt_cs} ({:.2}x), coverage {}",
        van_cs as f64 / dmt_cs.max(1) as f64,
        pct(cov_cs)
    );

    // ---- Extension: PWC sensitivity ------------------------------------
    let pts = dmt::sim::ablation::pwc_sweep(
        &runner,
        (64 << 20) * scale.mult4k,
        &[8, 32, 128, 512],
        scale.trace / 4,
    )
    .map_err(anyhow)?;
    let line: Vec<String> = pts
        .iter()
        .map(|p| format!("{}→{:.0}cyc", p.l2_entries, p.avg_walk_cycles))
        .collect();
    println!(
        "Extension — vanilla walk latency vs PWC L2 entries: {}",
        line.join(", ")
    );

    println!("\ntotal elapsed: {:?}", t0.elapsed());
    Ok(())
}

fn anyhow(e: dmt::sim::SimError) -> Box<dyn std::error::Error> {
    Box::new(e)
}
