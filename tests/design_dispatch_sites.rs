//! Grep-style lint: per-design translation dispatch lives in the
//! `sim::backends` modules, nowhere else. The refactor that collapsed
//! the rigs' scattered `match design` arms into per-design backends
//! stays collapsed: a new `match` (or `matches!`) over `Design` in the
//! sim or oracle source trees fails this test unless it is under the
//! designated dispatch layer (`crates/sim/src/backends/`).
//!
//! The allowlist of residue outside that layer is empty: the last
//! holdout — `speedup_row`'s exit-ratio special case — now reads the
//! `pinned_exit_ratio` knob of the vanilla backends' `SPEC`s.
//!
//! Naming sites (`Design::name`, enum definitions, test matrices) don't
//! trip the scan because it keys on the `match` keyword and a design
//! mention sharing a line.

use std::path::{Path, PathBuf};

/// Every `.rs` file under the scanned source trees.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates/sim/src", "crates/oracle/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}

/// Whether a source line is a design dispatch: the `match` keyword (or
/// `matches!` macro) and a design scrutinee on one line.
fn is_design_dispatch(line: &str) -> bool {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return false;
    }
    let mentions_design = line.contains("design") || line.contains("Design::");
    (line.contains("match ") || line.contains("matches!")) && mentions_design
}

fn is_allowlisted_dir(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/sim/src/backends/")
}

#[test]
fn design_dispatch_is_confined_to_the_registry_layer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = rust_sources(root);
    assert!(
        sources.len() > 15,
        "source walk looks broken: only {} files",
        sources.len()
    );

    let mut offenders: Vec<String> = Vec::new();
    for path in &sources {
        if is_allowlisted_dir(path) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        for (i, line) in source.lines().enumerate() {
            if !is_design_dispatch(line) {
                continue;
            }
            offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
        }
    }

    assert!(
        offenders.is_empty(),
        "design dispatch outside sim::backends — move it into a backend \
         module or its spec data (see DESIGN.md §11):\n{}",
        offenders.join("\n")
    );
}
