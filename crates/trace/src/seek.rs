//! Seekable zero-copy access to chunked (v2) traces.
//!
//! [`TraceFile`] maps a finished v2 trace (mmap on unix, buffered
//! read fallback), parses the chunk index footer, and decodes any chunk
//! independently — the foundation of sharded intra-trace replay. The
//! whole file is validated structurally up front (footer magic,
//! geometry, index checksum); chunk bodies are checksummed as they are
//! decoded, so corruption anywhere surfaces as a typed [`TraceError`]
//! rather than a wrong replay.
//!
//! v1 traces have no index and are rejected with
//! [`TraceError::NotSeekable`]; they stay fully readable through the
//! streaming [`TraceReader`](crate::TraceReader).

use crate::codec::{
    decode_token, fnv1a, read_varint, ChunkIndexEntry, TraceHash, TraceMeta, FOOTER_BYTES,
    INDEX_MAGIC, INDEX_RECORD_BYTES, TOKEN_END, TOKEN_RESERVED,
};
use crate::error::TraceError;
use dmt_mem::VirtAddr;
use dmt_workloads::gen::Access;
use memmap::Map;
use std::fs::File;
use std::path::Path;

/// A chunked trace opened for random access.
///
/// Shareable across replay threads (`&TraceFile` is `Send + Sync`):
/// every decode borrows the underlying bytes immutably.
pub struct TraceFile {
    map: Map,
    meta: TraceMeta,
    index: Vec<ChunkIndexEntry>,
    /// File offset where the index begins (== end of body + trailer).
    index_offset: u64,
    count: u64,
}

fn le64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

impl TraceFile {
    /// Open `path` with a zero-copy mapping (falling back to a buffered
    /// read where mapping is unavailable) and validate its index.
    ///
    /// # Errors
    ///
    /// Propagates open/map failures and every validation error
    /// [`from_map`](TraceFile::from_map) can produce.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        TraceFile::from_map(Map::of_file(&file).map_err(TraceError::Io)?)
    }

    /// Open `path` through a buffered read — no mapping — for callers
    /// that want the fallback mode explicitly (the two modes are
    /// bit-identical; the determinism suite pins that).
    ///
    /// # Errors
    ///
    /// Same as [`open`](TraceFile::open).
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        TraceFile::from_map(Map::read_file(&file).map_err(TraceError::Io)?)
    }

    /// Open an in-memory encoded trace.
    ///
    /// # Errors
    ///
    /// Same validation as [`open`](TraceFile::open).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceFile, TraceError> {
        TraceFile::from_map(Map::from(bytes))
    }

    /// Parse and validate the header, footer, and chunk index of a
    /// mapped trace.
    ///
    /// # Errors
    ///
    /// - [`TraceError::NotSeekable`] for v1 traces (no index);
    /// - [`TraceError::Truncated`] / [`TraceError::BadIndex`] for files
    ///   cut short or with inconsistent geometry;
    /// - [`TraceError::IndexChecksumMismatch`] for a damaged index;
    /// - header errors as in [`TraceMeta::read_header`].
    pub fn from_map(map: Map) -> Result<TraceFile, TraceError> {
        let bytes: &[u8] = &map;
        let mut s = bytes;
        let before = s.len();
        let meta = TraceMeta::read_header(&mut s)?;
        if meta.chunk_len == 0 {
            return Err(TraceError::NotSeekable);
        }
        let body_start = (before - s.len()) as u64;
        let total = bytes.len() as u64;
        if total < body_start + FOOTER_BYTES {
            return Err(TraceError::Truncated);
        }
        let f = (total - FOOTER_BYTES) as usize;
        if bytes[f + 24..f + 32] != INDEX_MAGIC {
            return Err(TraceError::BadIndex("missing footer magic"));
        }
        let index_offset = le64(bytes, f);
        let chunk_count = le64(bytes, f + 8);
        let index_fnv = le64(bytes, f + 16);
        if chunk_count > total / INDEX_RECORD_BYTES {
            return Err(TraceError::BadIndex("chunk count exceeds file size"));
        }
        if index_offset < body_start
            || index_offset + chunk_count * INDEX_RECORD_BYTES + FOOTER_BYTES != total
        {
            return Err(TraceError::BadIndex("index geometry"));
        }
        let raw_index = &bytes[index_offset as usize..f];
        if fnv1a(raw_index) != index_fnv {
            return Err(TraceError::IndexChecksumMismatch);
        }
        let mut index = Vec::with_capacity(chunk_count as usize);
        let mut r = raw_index;
        for i in 0..chunk_count {
            let e = ChunkIndexEntry::read_from(&mut r)?;
            if e.start != i * meta.chunk_len {
                return Err(TraceError::BadIndex("chunk start ordinal"));
            }
            let last = i == chunk_count - 1;
            if (!last && e.len != meta.chunk_len)
                || (last && !(1..=meta.chunk_len).contains(&e.len))
            {
                return Err(TraceError::BadIndex("chunk length"));
            }
            let prev_off = index.last().map(|p: &ChunkIndexEntry| p.offset);
            if (i == 0 && e.offset != body_start)
                || prev_off.is_some_and(|p| e.offset <= p)
                || e.offset >= index_offset
            {
                return Err(TraceError::BadIndex("chunk offsets"));
            }
            index.push(e);
        }
        let count = index.iter().map(|e| e.len).sum();
        Ok(TraceFile {
            map,
            meta,
            index,
            index_offset,
            count,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Total accesses in the trace.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Accesses per chunk.
    pub fn chunk_len(&self) -> u64 {
        self.meta.chunk_len
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// The validated chunk index.
    pub fn chunks(&self) -> &[ChunkIndexEntry] {
        &self.index
    }

    /// True if the bytes are a real mapping rather than a buffered copy.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Decode chunk `i`, appending its accesses to `out` (the caller
    /// owns clearing — sharded replay reuses one scratch buffer across
    /// many chunks).
    ///
    /// # Errors
    ///
    /// [`TraceError::ChunkChecksumMismatch`] if the body disagrees with
    /// the index record; [`TraceError::Corrupt`] /
    /// [`TraceError::Truncated`] for malformed tokens.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn decode_chunk(&self, i: usize, out: &mut Vec<Access>) -> Result<(), TraceError> {
        let e = self.index[i];
        let end = self
            .index
            .get(i + 1)
            .map_or(self.index_offset, |n| n.offset);
        let bytes: &[u8] = &self.map;
        let mut s = &bytes[e.offset as usize..end as usize];
        out.reserve(e.len as usize);
        let mut prev_va = 0u64;
        let mut hash = TraceHash::default();
        for _ in 0..e.len {
            let token = read_varint(&mut s)?;
            if token == TOKEN_END || token == TOKEN_RESERVED {
                return Err(TraceError::Corrupt("marker token inside chunk"));
            }
            let (va, write) = decode_token(prev_va, token)?;
            prev_va = va;
            hash.update(va, write);
            out.push(Access {
                va: VirtAddr(va),
                write,
            });
        }
        if hash.digest() != e.hash {
            return Err(TraceError::ChunkChecksumMismatch { chunk: i as u64 });
        }
        Ok(())
    }

    /// Decode the access range `[start, end)` (clamped to the trace
    /// length) by seeking to the containing chunks.
    ///
    /// # Errors
    ///
    /// Propagates [`decode_chunk`](TraceFile::decode_chunk) errors.
    pub fn read_range(&self, start: u64, end: u64) -> Result<Vec<Access>, TraceError> {
        let end = end.min(self.count);
        if start >= end {
            return Ok(Vec::new());
        }
        let cl = self.meta.chunk_len;
        let first = (start / cl) as usize;
        let last = ((end - 1) / cl) as usize;
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut scratch = Vec::with_capacity(cl as usize);
        for i in first..=last {
            scratch.clear();
            self.decode_chunk(i, &mut scratch)?;
            let base = i as u64 * cl;
            let lo = start.saturating_sub(base).min(scratch.len() as u64) as usize;
            let hi = (end - base).min(scratch.len() as u64) as usize;
            out.extend_from_slice(&scratch[lo..hi]);
        }
        Ok(out)
    }

    /// Decode the whole trace (verifying every chunk checksum).
    ///
    /// # Errors
    ///
    /// Propagates [`decode_chunk`](TraceFile::decode_chunk) errors.
    pub fn read_all(&self) -> Result<Vec<Access>, TraceError> {
        let mut out = Vec::with_capacity(self.count as usize);
        for i in 0..self.index.len() {
            self.decode_chunk(i, &mut out)?;
        }
        Ok(out)
    }
}

impl std::fmt::Debug for TraceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceFile")
            .field("meta", &self.meta)
            .field("chunks", &self.index.len())
            .field("accesses", &self.count)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;

    fn chunked_trace(n: u64, chunk_len: u64) -> (Vec<u8>, Vec<Access>) {
        let meta = TraceMeta {
            name: "seek".into(),
            regions: vec![],
            chunk_len: 0,
        }
        .chunked(chunk_len);
        let accesses: Vec<Access> = (0..n)
            .map(|i| {
                let va = (i.wrapping_mul(0x9e37_79b9)) << 6;
                if i % 5 == 0 {
                    Access::write(VirtAddr(va))
                } else {
                    Access::read(VirtAddr(va))
                }
            })
            .collect();
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, &meta).unwrap();
        w.push_all(accesses.iter().copied()).unwrap();
        w.finish().unwrap();
        (out, accesses)
    }

    #[test]
    fn seek_decode_matches_sequential() {
        let (bytes, accesses) = chunked_trace(1000, 64);
        let f = TraceFile::from_bytes(bytes).unwrap();
        assert_eq!(f.len(), 1000);
        assert_eq!(f.chunk_count(), 16); // ⌈1000/64⌉
        assert_eq!(f.read_all().unwrap(), accesses);
        // Every chunk point independently.
        for i in 0..f.chunk_count() {
            let mut got = Vec::new();
            f.decode_chunk(i, &mut got).unwrap();
            let lo = i * 64;
            let hi = (lo + 64).min(1000);
            assert_eq!(got, accesses[lo..hi], "chunk {i}");
        }
    }

    #[test]
    fn read_range_slices_correctly() {
        let (bytes, accesses) = chunked_trace(500, 33);
        let f = TraceFile::from_bytes(bytes).unwrap();
        for (start, end) in [(0, 500), (0, 1), (32, 34), (33, 66), (490, 600), (7, 7)] {
            let got = f.read_range(start, end).unwrap();
            let hi = (end as usize).min(500);
            let lo = (start as usize).min(hi);
            assert_eq!(got, accesses[lo..hi], "range {start}..{end}");
        }
    }

    #[test]
    fn v1_traces_are_not_seekable() {
        let mut out = Vec::new();
        let w = TraceWriter::new(&mut out, &TraceMeta::default()).unwrap();
        w.finish().unwrap();
        assert!(matches!(
            TraceFile::from_bytes(out),
            Err(TraceError::NotSeekable)
        ));
    }

    #[test]
    fn empty_chunked_trace_opens() {
        let meta = TraceMeta::default().chunked(16);
        let mut out = Vec::new();
        TraceWriter::new(&mut out, &meta).unwrap().finish().unwrap();
        let f = TraceFile::from_bytes(out).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.chunk_count(), 0);
        assert_eq!(f.read_all().unwrap(), Vec::new());
        assert_eq!(f.read_range(0, 10).unwrap(), Vec::new());
    }

    #[test]
    fn open_and_open_buffered_agree() {
        let (bytes, accesses) = chunked_trace(300, 50);
        let path = std::env::temp_dir().join(format!("dmt-seek-test-{}.dmtt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = TraceFile::open(&path).unwrap();
        let buffered = TraceFile::open_buffered(&path).unwrap();
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        assert!(!buffered.is_mapped());
        assert_eq!(mapped.read_all().unwrap(), accesses);
        assert_eq!(buffered.read_all().unwrap(), accesses);
        assert_eq!(mapped.chunks(), buffered.chunks());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (bytes, _) = chunked_trace(200, 32);
        for cut in 0..bytes.len() {
            let r = TraceFile::from_bytes(bytes[..cut].to_vec());
            assert!(r.is_err(), "cut {cut} opened successfully");
        }
    }

    #[test]
    fn index_bit_flips_are_rejected() {
        let (bytes, _) = chunked_trace(200, 32);
        let f = TraceFile::from_bytes(bytes.clone()).unwrap();
        let index_start = f.index_offset as usize;
        drop(f);
        for at in index_start..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(
                TraceFile::from_bytes(bad).is_err(),
                "index/footer flip at {at} accepted"
            );
        }
    }

    #[test]
    fn body_bit_flips_are_rejected_at_decode() {
        let (bytes, _) = chunked_trace(200, 32);
        let f = TraceFile::from_bytes(bytes.clone()).unwrap();
        // Flip only inside chunks 0..n-1: the last chunk's byte range
        // runs into the (unindexed) trailer, where a flip would not be
        // a chunk-body corruption.
        let body = (
            f.chunks()[0].offset as usize,
            f.chunks().last().unwrap().offset as usize,
        );
        drop(f);
        for at in (body.0..body.1).step_by(3) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x04;
            // The index itself is untouched, so opening may succeed;
            // decoding must then catch the damage.
            if let Ok(f) = TraceFile::from_bytes(bad) {
                assert!(f.read_all().is_err(), "body flip at {at} decoded cleanly");
            }
        }
    }
}
