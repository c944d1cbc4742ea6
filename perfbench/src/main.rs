//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload walk-bound --seed 1 --seconds 12 --trace 0 [--out report.json]
//! ```
//!
//! With `--trace 0` it times one workload end to end (every host time is
//! the median of several passes, each measured against a calibration
//! kernel, see `measure::Calibration` and `workloads`); with `--trace 1`
//! it runs the outside-in per-layer survey instead (see `layers`). Either
//! way it checks the simulator's outputs and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Progress and the run manifest go to standard
//! error; `--out` also writes the full report (manifest, metrics, failed
//! checks, layer breakdown) as JSON. The benchmark's entry point,
//! `perfbench/run.py`, builds and runs this binary.

mod alloc;
mod json;
mod layers;
mod measure;
mod spans;
mod workloads;

use measure::{Checks, Metrics, Window};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Passes every timed phase makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads::lookup(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// FNV-1a over the relative paths and contents of every Rust source and
/// manifest the simulator is built from, in sorted order: identifies the
/// measured code even where no version-control metadata exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        let p = root.join(top);
        if p.is_dir() {
            walk(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// The commit checked out at `root`, when it is a git work tree.
fn git_commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = workloads::lookup(&args.workload).expect("validated in parse_args");
    let root = repo_root();
    let work_dir = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".perfbench_work");
    let window = Window::new(args.seconds, MIN_PASSES, measure::MAX_PASSES);
    let mut checks = Checks::default();

    let result = if args.trace {
        layers::run(kind, args.seed, &window, &mut checks)
    } else {
        // Built before the workload's peak-heap window opens, so its
        // tables count as live at the start of every run alike.
        let mut cal = measure::Calibration::new();
        workloads::run(kind, args.seed, &window, &mut cal, &work_dir, &mut checks)
    };
    let workloads::Report {
        metrics,
        passes,
        shape,
        layers,
    } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // The work directory only ever holds this run's scratch files.
    let _ = std::fs::remove_dir(&work_dir);

    let mut manifest = json::Obj::default();
    manifest.str("workload", &args.workload);
    manifest.raw("seed", &args.seed.to_string());
    manifest.num("seconds", args.seconds);
    manifest.bool("trace", args.trace);
    match git_commit(&root) {
        Some(c) => manifest.str("commit", &c),
        None => manifest.null("commit"),
    }
    manifest.str("source_digest", &format!("{:016x}", source_digest(&root)));
    manifest.num("nproc", workloads::nproc() as f64);
    manifest.str("engine", "batched");
    manifest.num("shards", workloads::nproc() as f64);
    manifest.num("epoch_len", workloads::EPOCH_LEN as f64);
    manifest.num("passes", passes as f64);
    for (k, v) in &shape {
        manifest.str(k, v);
    }
    eprintln!("perfbench manifest: {}", manifest.render());
    for (name, value, unit) in &metrics.0 {
        eprintln!("perfbench {:<44} {value:>16.6} {unit}", name);
    }

    let failed = checks.failures.len() as u64;
    let line = result_line(&metrics, &checks);
    if let Some(out) = &args.out {
        let mut report = json::Obj::default();
        report.raw("manifest", &manifest.render());
        report.raw("result", &line);
        let failures: Vec<String> = checks.failures.iter().map(|f| json::quote(f)).collect();
        report.raw("failed_checks", &format!("[{}]", failures.join(",")));
        if let Some(l) = layers {
            report.raw("layers", &l);
        }
        if let Err(e) = std::fs::write(out, report.render() + "\n") {
            eprintln!("perfbench: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "perfbench: {} checks, {failed} failed, {passes} passes",
        checks.attempted
    );
    println!("{line}");
    ExitCode::SUCCESS
}

fn result_line(metrics: &Metrics, checks: &Checks) -> String {
    let mut m = json::Obj::default();
    for (name, value, unit) in &metrics.0 {
        let mut v = json::Obj::default();
        v.num("value", *value);
        v.str("unit", unit);
        m.raw(name, &v.render());
    }
    let mut o = json::Obj::default();
    o.bool("correct", checks.failures.is_empty());
    o.num("attempted", checks.attempted as f64);
    o.num("failed", checks.failures.len() as f64);
    o.raw("metrics", &m.render());
    o.render()
}
