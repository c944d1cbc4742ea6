//! Golden-file test for the telemetry JSON section attached to sweep
//! rows (`dmt::sim::report::telemetry_json`). The snapshot pins the
//! schema plotting scripts parse: log2 bucket boundaries, the stable
//! counter names, derived TLB/PWC rate keys, and the time-series shape.
//!
//! To regenerate after an intentional format change:
//!
//! ```sh
//! DMT_REGEN_GOLDEN=1 cargo test --test golden_telemetry
//! ```
//!
//! then commit the updated `tests/golden/telemetry.json`.

use dmt::sim::report::telemetry_json;
use dmt::telemetry::{ComponentCounters, MemLevel, Probe, Telemetry, TlbPath};

/// A deterministic synthetic recording exercising every export path:
/// all three histograms (including the 0 bucket, a power-of-two edge
/// and a wide value), every counter, both rate blocks and the series.
fn fixture() -> Telemetry {
    let mut t = Telemetry::with_interval(100);
    for path in [TlbPath::L1, TlbPath::L1, TlbPath::Stlb, TlbPath::Miss] {
        t.tlb_lookup(path);
    }
    t.walk(0, 1, false); // zero-cycle edge: lands in bucket [0,0]
    t.walk(54, 4, false);
    t.walk(256, 8, true); // power-of-two boundary + a fallback
    t.pte_fetches(MemLevel::L1, 2);
    t.pte_fetches(MemLevel::Llc, 1);
    t.pte_fetches(MemLevel::Dram, 10);
    t.data_access(MemLevel::L1, 4);
    t.data_access(MemLevel::L2, 14);
    t.data_access(MemLevel::Dram, 200);
    t.sample(100, 0.25, 512);
    t.sample(200, 0.5, 1024);
    t.absorb_components(ComponentCounters {
        pwc_l2_hits: 5,
        pwc_l3_hits: 3,
        pwc_l4_hits: 1,
        pwc_misses: 1,
        alloc_splits: 40,
        alloc_merges: 12,
        compactions: 2,
        tea_migrations: 7,
        shootdowns: 9,
    });
    t
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("telemetry.json")
}

#[test]
fn telemetry_json_matches_golden_file() {
    let rendered = format!("{}\n", telemetry_json(&fixture()));
    let path = golden_path();
    if std::env::var("DMT_REGEN_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with DMT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "telemetry JSON drifted from {}; if intentional, regenerate with DMT_REGEN_GOLDEN=1",
        path.display()
    );
}

#[test]
fn telemetry_json_structural_invariants() {
    // Independent of exact bytes: the section must carry the schema
    // tag, one key per counter, and bucket bounds that tile powers of
    // two ([0,0], [2^(i-1), 2^i - 1], ...).
    let json = telemetry_json(&fixture()).to_string();
    assert!(json.contains("\"schema\": \"dmt-telemetry-v1\""));
    for name in [
        "tlb_l1_hits",
        "pwc_l3_hits",
        "cache_pte_dram",
        "alloc_splits",
        "tea_migrations",
        "shootdowns",
    ] {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "missing counter {name}"
        );
    }
    // walk(0, ...) lands in the zero bucket; walk(256, ...) in [256, 511].
    assert!(json.contains("\"lo\": 0"));
    assert!(json.contains("\"lo\": 256"));
    assert!(json.contains("\"hi\": 511"));
    // The series kept both samples in time order.
    let first = json.find("\"at\": 100").expect("first sample");
    let second = json.find("\"at\": 200").expect("second sample");
    assert!(first < second);
}
