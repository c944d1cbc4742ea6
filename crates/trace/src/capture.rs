//! Capture workload-generated access streams into trace files.

use crate::codec::TraceMeta;
use crate::writer::{TraceSummary, TraceWriter};
use dmt_workloads::gen::Workload;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Encode exactly the trace `workload.trace(n, seed)` would return —
/// bit-for-bit the same access stream — into `sink`, indexed every
/// `chunk_len` accesses.
///
/// The whole trace is generated in one `Workload::generate` call (some
/// generators carry per-call state such as a BFS frontier), so this
/// materializes one `Vec` of `n` accesses.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] if `chunk_len` is zero; propagates
/// sink I/O failures.
pub fn capture<W: Write>(
    workload: &dyn Workload,
    n: usize,
    seed: u64,
    chunk_len: u64,
    sink: W,
) -> io::Result<TraceSummary> {
    let meta = TraceMeta {
        chunk_len,
        ..TraceMeta::of_workload(workload)
    };
    let mut w = TraceWriter::new(sink, &meta)?;
    w.push_all(workload.trace(n, seed))?;
    w.finish()
}

/// [`capture`] into a file at `path`.
///
/// # Errors
///
/// Same as [`capture`], plus file creation failures. A zero
/// `chunk_len` is rejected before `path` is created or truncated.
pub fn capture_to_path(
    workload: &dyn Workload,
    n: usize,
    seed: u64,
    chunk_len: u64,
    path: impl AsRef<Path>,
) -> io::Result<TraceSummary> {
    if chunk_len == 0 {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    let file = std::fs::File::create(path)?;
    capture(workload, n, seed, chunk_len, BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fnv1a;
    use crate::TraceFile;
    use dmt_workloads::bench7::Gups;

    #[test]
    fn capture_equals_workload_trace() {
        let w = Gups {
            table_bytes: 4 << 20,
        };
        let mut bytes = Vec::new();
        let s = capture(&w, 2_500, 9, 300, &mut bytes).unwrap();
        assert_eq!(s.accesses, 2_500);
        assert_eq!(s.total_bytes(), bytes.len() as u64);
        let f = TraceFile::from_bytes(bytes).unwrap();
        assert_eq!(f.meta().name, "GUPS");
        assert_eq!(f.meta().footprint(), 4 << 20);
        assert_eq!(f.chunk_len(), 300);
        assert_eq!(f.read_all().unwrap(), w.trace(2_500, 9));
    }

    #[test]
    fn format_bytes_are_pinned() {
        // The hash of bytes already written to disk by earlier writers:
        // it must not move, or old and new files stop being mutually
        // readable.
        let w = Gups {
            table_bytes: 32 << 20,
        };
        let mut bytes = Vec::new();
        capture(&w, 4_000, 7, 512, &mut bytes).unwrap();
        assert_eq!(bytes.len(), 16_249);
        assert_eq!(fnv1a(&bytes), 0xbbf6_fca4_34f5_5976);
    }

    #[test]
    fn zero_chunk_len_is_invalid_input() {
        let w = Gups {
            table_bytes: 1 << 20,
        };
        let err = capture(&w, 10, 1, 0, Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let path = std::env::temp_dir().join(format!(
            "dmt_trace_capture_zero_{}.dmtt",
            std::process::id()
        ));
        std::fs::write(&path, b"keep").unwrap();
        let err = capture_to_path(&w, 10, 1, 0, &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(&path).unwrap(), b"keep");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capture_to_path_writes_a_readable_file() {
        let w = Gups {
            table_bytes: 1 << 20,
        };
        let path = std::env::temp_dir().join(format!(
            "dmt_trace_capture_test_{}.dmtt",
            std::process::id()
        ));
        let s = capture_to_path(&w, 1_000, 3, 128, &path).unwrap();
        let f = TraceFile::open(&path).unwrap();
        assert_eq!(f.len(), s.accesses);
        assert_eq!(f.read_all().unwrap(), w.trace(1_000, 3));
        std::fs::remove_file(&path).ok();
    }
}
