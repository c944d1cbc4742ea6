//! Streaming trace encoder.

use crate::codec::{
    encode_token, fnv1a, write_varint, ChunkIndexEntry, TraceHash, TraceMeta, INDEX_MAGIC,
    NAIVE_BYTES_PER_ACCESS, TOKEN_END,
};
use dmt_workloads::gen::Access;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Size statistics returned by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Accesses encoded.
    pub accesses: u64,
    /// Header bytes written.
    pub header_bytes: u64,
    /// Body + trailer bytes written.
    pub body_bytes: u64,
    /// Chunk index + footer bytes written.
    pub index_bytes: u64,
}

impl TraceSummary {
    /// Total encoded size.
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes + self.body_bytes + self.index_bytes
    }

    /// Size of the naive fixed-width representation of the same trace.
    pub fn naive_bytes(&self) -> u64 {
        self.accesses * NAIVE_BYTES_PER_ACCESS
    }

    /// Encoded size as a fraction of the naive representation.
    pub fn compression_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 1.0;
        }
        self.total_bytes() as f64 / self.naive_bytes() as f64
    }
}

/// Streams accesses into any [`Write`] sink in the `dmt-trace` binary
/// format. Call [`finish`](TraceWriter::finish) to seal the trace with
/// its end marker, count, checksum, chunk index and footer — a writer
/// dropped without `finish` leaves a trace that
/// [`TraceFile`](crate::TraceFile) rejects.
///
/// The writer resets the delta base every `meta.chunk_len` accesses and
/// tracks one [`ChunkIndexEntry`] per chunk. Chunk placement depends
/// only on access ordinals, so the emitted bytes are independent of how
/// pushes are batched. The sink is written strictly append-only — no
/// seeking.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    prev_va: u64,
    count: u64,
    hash: TraceHash,
    header_bytes: u64,
    body_bytes: u64,
    chunk_len: u64,
    chunks: Vec<ChunkIndexEntry>,
    chunk_hash: TraceHash,
}

/// Flush the encode buffer once it crosses this size.
const FLUSH_THRESHOLD: usize = 64 << 10;

impl<W: Write> TraceWriter<W> {
    /// Write the header and return a writer ready for accesses.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] if `meta.chunk_len` is zero;
    /// propagates header serialization failures.
    pub fn new(mut sink: W, meta: &TraceMeta) -> io::Result<Self> {
        let header_bytes = meta.write_header(&mut sink)?;
        Ok(TraceWriter {
            sink,
            buf: Vec::with_capacity(FLUSH_THRESHOLD + 32),
            prev_va: 0,
            count: 0,
            hash: TraceHash::default(),
            header_bytes,
            body_bytes: 0,
            chunk_len: meta.chunk_len,
            chunks: Vec::new(),
            chunk_hash: TraceHash::default(),
        })
    }

    /// File offset the next pushed token will land at.
    fn write_offset(&self) -> u64 {
        self.header_bytes + self.body_bytes + self.buf.len() as u64
    }

    /// Record the just-finished chunk's length and hash.
    fn seal_chunk(&mut self) {
        if let Some(last) = self.chunks.last_mut() {
            last.len = self.count - last.start;
            last.hash = self.chunk_hash.digest();
        }
    }

    /// Append one access.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn push(&mut self, a: Access) -> io::Result<()> {
        if self.count.is_multiple_of(self.chunk_len) {
            self.seal_chunk();
            self.chunks.push(ChunkIndexEntry {
                offset: self.write_offset(),
                start: self.count,
                len: 0,
                hash: 0,
            });
            self.prev_va = 0;
            self.chunk_hash = TraceHash::default();
        }
        let va = a.va.raw();
        encode_token(self.prev_va, va, a.write, &mut self.buf);
        self.prev_va = va;
        self.hash.update(va, a.write);
        self.chunk_hash.update(va, a.write);
        self.count += 1;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Append every access from an iterator; returns how many were
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn push_all(&mut self, accesses: impl IntoIterator<Item = Access>) -> io::Result<u64> {
        let before = self.count;
        for a in accesses {
            self.push(a)?;
        }
        Ok(self.count - before)
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.body_bytes += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Seal the trace: end marker, access count, checksum, chunk index
    /// and footer; flushes the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn finish(mut self) -> io::Result<TraceSummary> {
        self.seal_chunk();
        write_varint(TOKEN_END, &mut self.buf);
        write_varint(self.count as u128, &mut self.buf);
        self.buf
            .extend_from_slice(&self.hash.digest().to_le_bytes());
        self.flush_buf()?;
        let index_offset = self.header_bytes + self.body_bytes;
        let mut index = Vec::with_capacity(self.chunks.len() * 32 + 32);
        for c in &self.chunks {
            c.write_to(&mut index);
        }
        let index_fnv = fnv1a(&index);
        index.extend_from_slice(&index_offset.to_le_bytes());
        index.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        index.extend_from_slice(&index_fnv.to_le_bytes());
        index.extend_from_slice(&INDEX_MAGIC);
        self.sink.write_all(&index)?;
        self.sink.flush()?;
        Ok(TraceSummary {
            accesses: self.count,
            header_bytes: self.header_bytes,
            body_bytes: self.body_bytes,
            index_bytes: index.len() as u64,
        })
    }
}

impl TraceWriter<BufWriter<std::fs::File>> {
    /// Create (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and header I/O failures.
    pub fn create(path: impl AsRef<Path>, meta: &TraceMeta) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        TraceWriter::new(BufWriter::new(file), meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FOOTER_BYTES;
    use dmt_mem::VirtAddr;

    #[test]
    fn zero_chunk_len_is_invalid_input() {
        let meta = TraceMeta {
            chunk_len: 0,
            ..TraceMeta::default()
        };
        let mut out = Vec::new();
        let err = TraceWriter::new(&mut out, &meta).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing is written for an invalid meta");
    }

    #[test]
    fn summary_accounts_for_every_byte() {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, &TraceMeta::default()).unwrap();
        for i in 0..10_000u64 {
            w.push(Access::read(VirtAddr(i * 64))).unwrap();
        }
        let s = w.finish().unwrap();
        assert_eq!(s.accesses, 10_000);
        assert_eq!(s.total_bytes(), out.len() as u64);
        assert!(s.compression_ratio() < 0.5, "{}", s.compression_ratio());
    }

    #[test]
    fn push_all_counts() {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, &TraceMeta::default()).unwrap();
        let n = w
            .push_all((0..5u64).map(|i| Access::write(VirtAddr(i << 12))))
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(w.finish().unwrap().accesses, 5);
    }

    #[test]
    fn chunked_summary_accounts_for_every_byte() {
        let meta = TraceMeta::default().chunked(100);
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, &meta).unwrap();
        for i in 0..250u64 {
            w.push(Access::read(VirtAddr(i * 64))).unwrap();
        }
        let s = w.finish().unwrap();
        assert_eq!(s.accesses, 250);
        // 3 chunks (100, 100, 50) at 32 B each, plus the 32 B footer.
        assert_eq!(s.index_bytes, 3 * 32 + 32);
        assert_eq!(s.total_bytes(), out.len() as u64);
    }

    #[test]
    fn empty_chunked_trace_has_footer_but_no_records() {
        let meta = TraceMeta::default().chunked(8);
        let mut out = Vec::new();
        let w = TraceWriter::new(&mut out, &meta).unwrap();
        let s = w.finish().unwrap();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.index_bytes, FOOTER_BYTES);
        assert_eq!(s.total_bytes(), out.len() as u64);
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(&out[out.len() - 8..], &INDEX_MAGIC);
    }

    #[test]
    fn chunk_placement_ignores_push_batching() {
        // The same accesses pushed one-by-one and in ragged batches
        // must produce identical bytes: chunk boundaries are a function
        // of the access ordinal, not of the call pattern.
        let meta = TraceMeta::default().chunked(7);
        let accesses: Vec<Access> = (0..40u64)
            .map(|i| Access::read(VirtAddr(i << 12)))
            .collect();

        let mut one = Vec::new();
        let mut w = TraceWriter::new(&mut one, &meta).unwrap();
        for &a in &accesses {
            w.push(a).unwrap();
        }
        w.finish().unwrap();

        let mut ragged = Vec::new();
        let mut w = TraceWriter::new(&mut ragged, &meta).unwrap();
        let mut rest = &accesses[..];
        for batch in [1usize, 5, 13, 2, 19] {
            let (head, tail) = rest.split_at(batch.min(rest.len()));
            w.push_all(head.iter().copied()).unwrap();
            rest = tail;
        }
        w.push_all(rest.iter().copied()).unwrap();
        w.finish().unwrap();

        assert_eq!(one, ragged);
    }
}
