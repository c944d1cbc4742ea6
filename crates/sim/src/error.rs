//! The typed error for everything in `dmt-sim` that can fail.
//!
//! One hand-rolled enum (no external error crates — the registry is
//! offline) replaces the `Result<_, String>` plumbing that used to run
//! through experiments, sweeps, ablations and overheads. The `Display`
//! impls keep the exact message text the stringly-typed versions
//! produced, so error-message assertions written against the old API
//! keep passing.

use crate::rig::{Design, Env};
use core::fmt;
use std::io;

/// Everything that can go wrong building rigs, materializing traces, or
/// driving a sweep.
///
/// `Clone` is deliberate: sweep workers store per-job results in shared
/// slots, and a failed materialization is reported to every job that
/// needed that trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Rig / process / machine construction failed (mmap, populate,
    /// register load, ...). Carries the underlying message verbatim.
    Setup(String),
    /// A design was requested in an environment whose backend enum has
    /// no arm for it (one of Table 6's N/A cells).
    Unavailable {
        /// The design asked for.
        design: Design,
        /// The environment it has no backend in.
        env: Env,
    },
    /// A benchmark index was outside the suite.
    BenchIndex {
        /// The offending index.
        index: usize,
        /// Number of benchmarks in the suite.
        count: usize,
    },
    /// A sweep configuration expands to zero jobs.
    EmptyMatrix,
    /// Trace encode/decode failed (spill-to-disk or reload).
    Trace(String),
    /// Filesystem I/O outside the trace codec (results dir, spill dir).
    Io(String),
    /// Sharded replay over a trace file whose chunk grid the epoch
    /// length does not align to: shard boundaries must land on chunk
    /// points so every shard decodes whole chunks.
    ShardAlign {
        /// The configured epoch length (accesses).
        epoch_len: usize,
        /// The trace file's chunk length (accesses).
        chunk_len: u64,
    },
    /// Shard workers disagreed on replay-invariant state (allocator
    /// hash) — a broken epoch-barrier or a non-deterministic rig.
    ShardDiverged(String),
    /// An epoch-barrier replay or sharded sweep was configured with a
    /// zero epoch length, which cuts no epoch grid.
    EpochLen,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Verbatim: `Setup` wraps what used to be the whole string
            // error, so existing message assertions still match.
            SimError::Setup(msg) => write!(f, "{msg}"),
            SimError::Unavailable { design, env } => write!(
                f,
                "{} has no backend registered for the {} environment (Table 6 N/A cell)",
                design.name(),
                env.name()
            ),
            // Same prefix run_job used to format.
            SimError::BenchIndex { index, count } => {
                write!(f, "benchmark index {index} out of range (suite has {count})")
            }
            SimError::EmptyMatrix => {
                write!(f, "sweep config expands to an empty matrix: no jobs to run")
            }
            SimError::Trace(msg) => write!(f, "trace error: {msg}"),
            SimError::Io(msg) => write!(f, "I/O error: {msg}"),
            SimError::ShardAlign {
                epoch_len,
                chunk_len,
            } => write!(
                f,
                "sharded replay epoch length {epoch_len} is not a multiple of the trace chunk length {chunk_len}"
            ),
            SimError::ShardDiverged(msg) => {
                write!(f, "shard replay diverged: {msg}")
            }
            SimError::EpochLen => write!(f, "epoch length must be positive"),
        }
    }
}

impl SimError {
    /// Wrap any displayable failure as a [`SimError::Setup`], preserving
    /// its message text verbatim — the one-liner the rig and machine
    /// builders use in place of the old `.map_err(|e| e.to_string())`
    /// stringly-typed plumbing.
    pub fn setup(e: impl fmt::Display) -> SimError {
        SimError::Setup(e.to_string())
    }
}

impl std::error::Error for SimError {}

impl From<String> for SimError {
    fn from(msg: String) -> Self {
        SimError::Setup(msg)
    }
}

impl From<&str> for SimError {
    fn from(msg: &str) -> Self {
        SimError::Setup(msg.to_string())
    }
}

impl From<io::Error> for SimError {
    fn from(e: io::Error) -> Self {
        SimError::Io(e.to_string())
    }
}

impl From<dmt_trace::TraceError> for SimError {
    fn from(e: dmt_trace::TraceError) -> Self {
        SimError::Trace(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_keep_the_legacy_message_text() {
        let e = SimError::Setup("mmap failed: out of memory".into());
        assert_eq!(e.to_string(), "mmap failed: out of memory");
        let e = SimError::BenchIndex { index: 9, count: 7 };
        assert!(e.to_string().starts_with("benchmark index 9 out of range"));
        assert!(SimError::EmptyMatrix.to_string().contains("empty matrix"));
        let e = SimError::Unavailable {
            design: Design::Shadow,
            env: Env::Native,
        };
        assert_eq!(
            e.to_string(),
            "Shadow has no backend registered for the Native environment (Table 6 N/A cell)"
        );
    }

    #[test]
    fn setup_helper_preserves_message_text() {
        let e = SimError::setup(io::Error::other("mmap failed: out of memory"));
        assert_eq!(e.to_string(), "mmap failed: out of memory");
    }

    #[test]
    fn conversions_cover_the_plumbing() {
        let e: SimError = "short".into();
        assert_eq!(e, SimError::Setup("short".into()));
        let e: SimError = io::Error::other("disk fell off").into();
        assert!(matches!(&e, SimError::Io(m) if m.contains("disk fell off")));
        let e: SimError = dmt_trace::TraceError::ChecksumMismatch.into();
        assert!(matches!(&e, SimError::Trace(m) if m.contains("checksum")));
        // It is a std error, usable behind `Box<dyn Error>`.
        let _boxed: Box<dyn std::error::Error> = Box::new(SimError::EmptyMatrix);
    }
}
