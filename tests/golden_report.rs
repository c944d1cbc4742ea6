//! Golden-file test for the hand-rolled JSON renderer behind every
//! machine-readable report (`dmt::sim::report::Json`). The snapshot
//! pins key ordering, indentation, escaping, float/NaN handling and
//! empty-container forms — the exact bytes plotting scripts parse.
//!
//! To regenerate after an intentional format change:
//!
//! ```sh
//! DMT_REGEN_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! then commit the updated `tests/golden/report.json`.

use dmt::sim::report::Json;

/// A fixture shaped like a sweep report, exercising every `Json`
/// variant and the renderer's corner cases.
fn fixture() -> Json {
    Json::obj()
        .set("schema", Json::Str("dmt-sweep/1".into()))
        .set("thp", Json::Bool(false))
        .set(
            "rows",
            Json::Arr(vec![
                Json::obj()
                    .set("env", Json::Str("Native".into()))
                    .set("design", Json::Str("DMT".into()))
                    .set("benchmark", Json::Str("GUPS".into()))
                    .set("accesses", Json::U64(8_000))
                    .set("walk_cycles", Json::U64(123_456))
                    .set("avg_walk_latency", Json::F64(15.4321))
                    .set("coverage", Json::F64(0.995)),
                Json::obj()
                    .set("env", Json::Str("Virtualized".into()))
                    .set("design", Json::Str("pvDMT".into()))
                    .set("benchmark", Json::Str("BTree".into()))
                    .set("accesses", Json::U64(0))
                    .set("walk_cycles", Json::U64(0))
                    .set("avg_walk_latency", Json::F64(f64::NAN))
                    .set("coverage", Json::F64(1.0)),
            ]),
        )
        .set(
            "notes",
            Json::Str("tab\there, quote\"here, line\nbreak".into()),
        )
        .set("empty_rows", Json::Arr(vec![]))
        .set("empty_meta", Json::obj())
        .set(
            "mixed",
            Json::Arr(vec![Json::U64(1), Json::Bool(true), Json::F64(2.5)]),
        )
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("report.json")
}

#[test]
fn json_rendering_matches_golden_file() {
    let rendered = format!("{}\n", fixture());
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
        "JSON rendering drifted from {}; if intentional, regenerate with DMT_REGEN_GOLDEN=1",
        path.display()
    );
}

#[test]
fn golden_file_round_trips_through_write_json_in() {
    // write_json_in must emit exactly the rendering + trailing newline.
    let dir = std::env::temp_dir().join(format!("dmt-golden-selftest-{}", std::process::id()));
    let path = fixture().write_json_in(&dir, "report").unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, format!("{}\n", fixture()));
    std::fs::remove_dir_all(&dir).unwrap();
}
