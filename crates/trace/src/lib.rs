//! `dmt-trace` — compact streaming memory-access traces for the DMT
//! evaluation (the paper's §5 trace-driven methodology at disk scale).
//!
//! The paper's experiments replay 100+ GB working sets; materializing
//! every access in a `Vec` caps trace length at RAM. This crate gives
//! the harness a binary on-disk trace format that streams through
//! `std::io::Read`/`Write`:
//!
//! * [`codec`] — the format itself: a magic/version header carrying the
//!   workload name and mapped regions, then one LEB128 varint token per
//!   access (delta-encoded VAs, write bit packed in), then an end
//!   marker with count and FNV-1a checksum. Sequential-heavy traces
//!   encode in ~2 bytes/access vs 17 for a naive fixed-width record.
//! * [`TraceWriter`] — streaming encoder over any sink.
//! * [`TraceReader`] — fallible streaming decoder (`Iterator<Item =
//!   Result<Access, TraceError>>`) that verifies the trailer.
//! * [`TraceFile`] — seekable zero-copy (mmap-backed) access to v2
//!   chunked traces: any chunk decodes independently, which is what
//!   sharded parallel replay builds on.
//! * [`capture()`] / [`capture_chunked`] / [`capture_to_path`] /
//!   [`capture_indexed`] — capture a
//!   [`Workload`](dmt_workloads::gen::Workload)'s generated stream to
//!   a trace (indexed = v2 seekable framing).
//!
//! # Example
//!
//! ```
//! use dmt_trace::{capture, TraceReader};
//! use dmt_workloads::bench7::Gups;
//! use dmt_workloads::gen::Workload;
//!
//! let gups = Gups { table_bytes: 1 << 20 };
//! let mut bytes = Vec::new();
//! let summary = capture(&gups, 1_000, 42, &mut bytes).unwrap();
//! assert_eq!(summary.accesses, 1_000);
//!
//! let reader = TraceReader::new(bytes.as_slice()).unwrap();
//! assert_eq!(reader.meta().name, "GUPS");
//! let replayed = reader.read_all().unwrap();
//! assert_eq!(replayed, gups.trace(1_000, 42));
//! ```

pub mod capture;
pub mod codec;
pub mod error;
pub mod reader;
pub mod seek;
pub mod writer;

pub use capture::{
    capture, capture_chunked, capture_indexed, capture_indexed_to_path, capture_to_path,
};
pub use codec::{ChunkIndexEntry, TraceMeta, TraceRegion, NAIVE_BYTES_PER_ACCESS};
pub use error::TraceError;
pub use reader::TraceReader;
pub use seek::TraceFile;
pub use writer::{TraceSummary, TraceWriter};
