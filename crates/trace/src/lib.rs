//! `dmt-trace` — compact memory-access trace files for the DMT
//! evaluation (the paper's §5 trace-driven methodology at disk scale).
//!
//! The paper's experiments replay 100+ GB working sets; materializing
//! every access in a `Vec` caps trace length at RAM. This crate gives
//! the harness one binary on-disk trace format, written through
//! `std::io::Write` and read from a zero-copy mapping:
//!
//! * [`codec`] — the format itself: a magic/version header carrying the
//!   workload name, mapped regions and chunk length, then one LEB128
//!   varint token per access (delta-encoded VAs, write bit packed in,
//!   delta base reset every chunk), then an end marker with count and
//!   FNV-1a checksum, then a chunk index and footer. Sequential-heavy
//!   traces encode in ~2 bytes/access vs 17 for a naive fixed-width
//!   record.
//! * [`TraceWriter`] — streaming encoder over any sink.
//! * [`TraceFile`] — the one reader: any chunk decodes independently
//!   (what sharded parallel replay builds on), and
//!   [`TraceFile::accesses`] streams the whole trace in order, one chunk
//!   in memory at a time, checking the trailer at the end.
//! * [`capture()`] / [`capture_to_path`] — capture a
//!   [`Workload`](dmt_workloads::gen::Workload)'s generated stream to
//!   a trace.
//!
//! # Example
//!
//! ```
//! use dmt_trace::{capture, TraceFile, DEFAULT_CHUNK_LEN};
//! use dmt_workloads::bench7::Gups;
//! use dmt_workloads::gen::Workload;
//!
//! let gups = Gups { table_bytes: 1 << 20 };
//! let mut bytes = Vec::new();
//! let summary = capture(&gups, 1_000, 42, DEFAULT_CHUNK_LEN, &mut bytes).unwrap();
//! assert_eq!(summary.accesses, 1_000);
//!
//! let file = TraceFile::from_bytes(bytes).unwrap();
//! assert_eq!(file.meta().name, "GUPS");
//! let replayed: Result<Vec<_>, _> = file.accesses().collect();
//! assert_eq!(replayed.unwrap(), gups.trace(1_000, 42));
//! ```

pub mod capture;
pub mod codec;
pub mod error;
pub mod seek;
pub mod writer;

pub use capture::{capture, capture_to_path};
pub use codec::{
    ChunkIndexEntry, TraceMeta, TraceRegion, DEFAULT_CHUNK_LEN, NAIVE_BYTES_PER_ACCESS,
};
pub use error::TraceError;
pub use seek::TraceFile;
pub use writer::{TraceSummary, TraceWriter};
