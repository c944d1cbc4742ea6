//! Grep-style lint: one function derives every bench7 trace seed.
//! The seed base appears exactly once under `crates/sim/src`, inside
//! `runner::trace_seed`, and no seed there is derived from a `Design`
//! discriminant — so every design of a figure cell, and tenant 0 of a
//! cloud node, replays the same trace.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    out
}

#[test]
fn one_function_derives_every_bench7_trace_seed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = rust_sources(&root.join("crates/sim/src"));
    assert!(
        sources.len() > 20,
        "source walk looks broken: {} files",
        sources.len()
    );
    let seed_site = root.join("crates/sim/src/runner.rs");
    // The base, lowercased, assembled so this file never matches itself.
    let base = format!("0x{:x}", 0xD316 + 1);

    let mut hits = Vec::new();
    let mut design_seeds = Vec::new();
    for path in &sources {
        let source = std::fs::read_to_string(path).unwrap().to_lowercase();
        let mut from = 0;
        while let Some(i) = source[from..].find(&base) {
            hits.push((path.clone(), from + i));
            from += i + base.len();
        }
        for (n, line) in source.lines().enumerate() {
            if line.contains("design") && line.contains(" as u64") {
                design_seeds.push(format!("{}:{}: {line}", path.display(), n + 1));
            }
        }
    }
    assert!(
        design_seeds.is_empty(),
        "a trace seed depends on a Design discriminant: {design_seeds:?}"
    );
    let [(path, at)] = &hits[..] else {
        panic!("the seed base must appear exactly once under crates/sim/src: {hits:?}");
    };
    assert_eq!(path, &seed_site, "the seed base moved out of runner.rs");
    let source = std::fs::read_to_string(path).unwrap().to_lowercase();
    let start = source
        .find("fn trace_seed(")
        .expect("runner::trace_seed exists");
    let end = start + source[start..].find("\n}").expect("trace_seed has a body");
    assert!(
        (start..end).contains(at),
        "the seed base appears outside runner::trace_seed"
    );
}
