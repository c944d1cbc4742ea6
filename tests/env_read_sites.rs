//! Grep-style lint: `Runner::from_env` (via `dmt_sim::runner::env_config`)
//! is the only place in the workspace that *reads* a `DMT_*`
//! environment variable. Tests may still *write* them (`set_var`) to
//! exercise the opt-in paths, and the golden tests may read
//! `DMT_REGEN_GOLDEN` — the one allowlisted exception.

use std::path::{Path, PathBuf};

/// The opening of a `DMT_*` string literal, assembled at runtime so
/// this file's own source never contains the needle it scans for.
fn prefix() -> String {
    format!("\"{}_", "DMT")
}

/// The variables `env_config` resolves, each read exactly once.
fn runner_knobs() -> Vec<String> {
    ["TELEMETRY", "RESULTS_DIR"]
        .iter()
        .map(|suffix| format!("{}_{suffix}", "DMT"))
        .collect()
}

/// Every `.rs` file under the repo's source trees (crates, the root
/// library, tests, examples and the benchmark package), skipping build
/// output and vendored dependencies.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples", "perfbench"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "vendor" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out
}

/// Whether the literal at `at` is an environment *write*
/// (`set_var`/`remove_var`) rather than a read.
fn is_write(source: &str, at: usize) -> bool {
    let prefix = &source[at.saturating_sub(40)..at];
    prefix.contains("set_var") || prefix.contains("remove_var")
}

/// Every `DMT_*` literal in `source` that is not a write, as
/// (variable name, byte offset).
fn dmt_reads(source: &str) -> Vec<(String, usize)> {
    let needle = prefix();
    let mut reads = Vec::new();
    let mut from = 0;
    while let Some(i) = source[from..].find(&needle) {
        let at = from + i;
        let body = &source[at + 1..];
        let name = &body[..body.find('"').unwrap_or(body.len())];
        if !is_write(source, at) {
            reads.push((name.to_string(), at));
        }
        from = at + needle.len();
    }
    reads
}

#[test]
fn dmt_env_vars_are_read_in_exactly_one_place() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = rust_sources(root);
    assert!(
        sources.len() > 20,
        "source walk looks broken: only {} files",
        sources.len()
    );
    let one_read_site = root.join("crates/sim/src/runner.rs");
    assert!(one_read_site.exists(), "the designated read site moved");
    let regen = format!("{}_REGEN_GOLDEN", "DMT");

    let mut reads: Vec<(PathBuf, String, usize)> = Vec::new();
    for path in &sources {
        let Ok(source) = std::fs::read_to_string(path) else { continue };
        for (name, at) in dmt_reads(&source) {
            reads.push((path.clone(), name, at));
        }
    }

    let offenders: Vec<_> = reads
        .iter()
        .filter(|(p, name, _)| {
            p != &one_read_site && !(p.starts_with(root.join("tests")) && *name == regen)
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "a DMT_* variable is read outside Runner::from_env/env_config \
         (only {regen} under tests/ is allowlisted): {offenders:?}"
    );

    for knob in runner_knobs() {
        let sites: Vec<_> = reads.iter().filter(|(_, name, _)| *name == knob).collect();
        assert_eq!(
            sites.len(),
            1,
            "{knob} must be read exactly once, in crates/sim/src/runner.rs: {sites:?}"
        );
    }
}
