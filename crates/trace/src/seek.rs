//! Zero-copy access to trace files: the one reader.
//!
//! [`TraceFile`] maps a finished trace (mmap on unix, buffered read
//! fallback), parses the chunk index footer and the trailer, and
//! decodes any chunk independently — the foundation of sharded
//! intra-trace replay — or the whole trace in order through
//! [`TraceFile::accesses`]. The file is validated structurally up front
//! (footer magic, geometry, index checksum, trailer count); chunk bodies
//! are checksummed as they are decoded, and the sequential iterator
//! checks the trailer's whole-trace checksum at the end, so corruption
//! anywhere surfaces as a typed [`TraceError`] rather than a wrong
//! replay or a panic.

use crate::codec::{
    decode_token, fnv1a, read_varint, write_varint, ChunkIndexEntry, TraceHash, TraceMeta,
    FOOTER_BYTES, INDEX_MAGIC, INDEX_RECORD_BYTES, TOKEN_END, TOKEN_RESERVED,
};
use crate::error::TraceError;
use dmt_mem::VirtAddr;
use dmt_workloads::gen::Access;
use memmap::Map;
use std::fs::File;
use std::path::Path;

/// A trace opened for random and sequential access.
///
/// Shareable across replay threads (`&TraceFile` is `Send + Sync`):
/// every decode borrows the underlying bytes immutably.
pub struct TraceFile {
    map: Map,
    meta: TraceMeta,
    index: Vec<ChunkIndexEntry>,
    /// File offset of the trailer (== end of the last chunk's tokens).
    trailer: u64,
    count: u64,
    /// Whole-trace checksum recorded in the trailer.
    checksum: u64,
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

    /// Parse and validate the header, footer, chunk index and trailer
    /// of a mapped trace. All offset arithmetic is checked, so no
    /// footer or index value can make this panic.
    ///
    /// # Errors
    ///
    /// - [`TraceError::Truncated`] / [`TraceError::BadIndex`] for files
    ///   cut short or with inconsistent geometry, including index
    ///   records that claim more accesses than their bytes can hold;
    /// - [`TraceError::IndexChecksumMismatch`] for a damaged index;
    /// - [`TraceError::CountMismatch`] if the trailer's count disagrees
    ///   with the index;
    /// - header errors as in [`TraceMeta::read_header`].
    pub fn from_map(map: Map) -> Result<TraceFile, TraceError> {
        let bytes: &[u8] = &map;
        let mut s = bytes;
        let meta = TraceMeta::read_header(&mut s)?;
        let body_start = (bytes.len() - s.len()) as u64;
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
        let index_end = chunk_count
            .checked_mul(INDEX_RECORD_BYTES)
            .and_then(|n| n.checked_add(index_offset));
        if index_offset < body_start || index_end != Some(f as u64) {
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
            if Some(e.start) != i.checked_mul(meta.chunk_len) {
                return Err(TraceError::BadIndex("chunk start ordinal"));
            }
            let last = i == chunk_count - 1;
            if (!last && e.len != meta.chunk_len)
                || (last && !(1..=meta.chunk_len).contains(&e.len))
            {
                return Err(TraceError::BadIndex("chunk length"));
            }
            index.push(e);
        }
        let count = index.last().map_or(Some(0), |e| e.start.checked_add(e.len));
        let count = count.ok_or(TraceError::BadIndex("chunk length"))?;
        // The trailer's length follows from the count, so it ends right
        // where the index begins.
        let mut end_marker = Vec::with_capacity(20);
        write_varint(TOKEN_END, &mut end_marker);
        write_varint(count as u128, &mut end_marker);
        let trailer = index_offset
            .checked_sub(end_marker.len() as u64 + 8)
            .filter(|&t| t >= body_start)
            .ok_or(TraceError::BadIndex("no room for the trailer"))?;
        let mut t = &bytes[trailer as usize..index_offset as usize - 8];
        let (marker, expected) = (read_varint(&mut t)?, read_varint(&mut t)?);
        if marker != TOKEN_END || !t.is_empty() {
            return Err(TraceError::Corrupt("trailer"));
        }
        if expected != count as u128 {
            return Err(TraceError::CountMismatch {
                expected: u64::try_from(expected).unwrap_or(u64::MAX),
                found: count,
            });
        }
        // Chunks tile [body_start, trailer) in order, and every token
        // takes at least one byte.
        let ends = index.iter().skip(1).map(|e| e.offset).chain([trailer]);
        if index.first().map_or(trailer, |e| e.offset) != body_start
            || index
                .iter()
                .zip(ends)
                .any(|(e, end)| end.checked_sub(e.offset).is_none_or(|span| e.len > span))
        {
            return Err(TraceError::BadIndex("chunk offsets"));
        }
        Ok(TraceFile {
            checksum: le64(bytes, index_offset as usize - 8),
            map,
            meta,
            index,
            trailer,
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
        let end = self.index.get(i + 1).map_or(self.trailer, |n| n.offset);
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
        if !s.is_empty() {
            return Err(TraceError::Corrupt("bytes after the chunk's last access"));
        }
        if hash.digest() != e.hash {
            return Err(TraceError::ChunkChecksumMismatch { chunk: i as u64 });
        }
        Ok(())
    }

    /// Every access in order, decoded one chunk at a time (heap use is
    /// one chunk, not the trace). After the last access the trailer's
    /// whole-trace checksum is checked; any error is yielded once and
    /// ends the iteration.
    pub fn accesses(&self) -> impl Iterator<Item = Result<Access, TraceError>> + '_ {
        let mut buf = Vec::new();
        let mut pos = 0;
        let mut next = Some(0);
        let mut hash = TraceHash::default();
        std::iter::from_fn(move || loop {
            if let Some(&a) = buf.get(pos) {
                pos += 1;
                return Some(Ok(a));
            }
            let i = next.take()?;
            if i == self.index.len() {
                let mismatch = hash.digest() != self.checksum;
                return mismatch.then_some(Err(TraceError::ChecksumMismatch));
            }
            buf.clear();
            pos = 0;
            if let Err(e) = self.decode_chunk(i, &mut buf) {
                return Some(Err(e));
            }
            buf.iter().for_each(|a| hash.update(a.va.raw(), a.write));
            next = Some(i + 1);
        })
    }

    /// Decode the access range `[start, end)` (clamped to the trace
    /// length) by seeking to the containing chunks.
    ///
    /// # Errors
    ///
    /// Propagates [`decode_chunk`](TraceFile::decode_chunk) errors.
    pub fn read_range(&self, start: u64, end: u64) -> Result<Vec<Access>, TraceError> {
        let end = end.min(self.count);
        let cl = self.meta.chunk_len;
        let base = start.min(end) / cl * cl;
        let mut out = Vec::new();
        for i in base / cl..end.div_ceil(cl) {
            self.decode_chunk(i as usize, &mut out)?;
        }
        out.truncate((end - base) as usize);
        out.drain(..(start.min(end) - base) as usize);
        Ok(out)
    }

    /// Decode the whole trace, checking every chunk checksum and the
    /// trailer's whole-trace checksum.
    ///
    /// # Errors
    ///
    /// The first error [`accesses`](TraceFile::accesses) yields.
    pub fn read_all(&self) -> Result<Vec<Access>, TraceError> {
        let mut out = Vec::with_capacity(self.count as usize);
        for a in self.accesses() {
            out.push(a?);
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
            chunk_len,
        };
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

    /// File offset where the chunk index begins, read from the footer.
    fn index_offset(bytes: &[u8]) -> usize {
        le64(bytes, bytes.len() - FOOTER_BYTES as usize) as usize
    }

    /// Overwrite footer field `field` (0 = index offset, 1 = chunk
    /// count).
    fn set_footer(bytes: &mut [u8], field: usize, v: u64) {
        let at = bytes.len() - FOOTER_BYTES as usize + 8 * field;
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn v1_file_is_an_unsupported_version() {
        // A hand-built version-1 file: header without chunk_len, one
        // access token, the trailer, and no index or footer.
        let mut v1 = crate::codec::MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[0u8; 6]); // flags, empty name, no regions
        let mut hash = TraceHash::default();
        hash.update(0x1000, false);
        crate::codec::encode_token(0, 0x1000, false, &mut v1);
        v1.extend_from_slice(&[0, 1]);
        v1.extend_from_slice(&hash.digest().to_le_bytes());
        assert!(matches!(
            TraceFile::from_bytes(v1),
            Err(TraceError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn wrapping_footer_offset_is_a_typed_error() {
        // chunk_count · 32 + index_offset wraps to exactly the footer's
        // position: only checked arithmetic tells this from a real index,
        // in debug and release builds alike.
        let (mut bytes, _) = chunked_trace(20, 7);
        let f = (bytes.len() - FOOTER_BYTES as usize) as u64;
        let count = f / INDEX_RECORD_BYTES + 1;
        let offset = f.wrapping_sub(count * INDEX_RECORD_BYTES);
        assert!(offset > bytes.len() as u64, "the sum must wrap");
        set_footer(&mut bytes, 0, offset);
        set_footer(&mut bytes, 1, count);
        assert!(matches!(
            TraceFile::from_bytes(bytes),
            Err(TraceError::BadIndex(_))
        ));
    }

    #[test]
    fn index_record_claiming_more_accesses_than_bytes_is_rejected() {
        // One chunk of a 2^60-access chunk length: a record length of
        // 2^60 is within chunk_len, but no 2^60 tokens fit in its bytes,
        // and `read_all` must not try to allocate for them.
        let claim = 1u64 << 60;
        let (bytes, _) = chunked_trace(10, claim);
        let f = TraceFile::from_bytes(bytes.clone()).unwrap();
        // Only the record and the index checksum changed: the trailer
        // count no longer agrees.
        let mut bad = bytes.clone();
        let index = index_offset(&bytes);
        bad[index + 16..index + 24].copy_from_slice(&claim.to_le_bytes());
        let fnv = fnv1a(&bad[index..index + INDEX_RECORD_BYTES as usize]);
        set_footer(&mut bad, 2, fnv);
        assert!(TraceFile::from_bytes(bad).is_err());
        // The trailer rewritten to agree as well: the span check alone
        // catches it.
        let mut bad = bytes[..f.trailer as usize].to_vec();
        write_varint(TOKEN_END, &mut bad);
        write_varint(claim as u128, &mut bad);
        bad.extend_from_slice(&f.checksum.to_le_bytes());
        let index_offset = bad.len() as u64;
        let mut index = Vec::new();
        ChunkIndexEntry {
            len: claim,
            ..f.chunks()[0]
        }
        .write_to(&mut index);
        for word in [index_offset, 1, fnv1a(&index)] {
            index.extend_from_slice(&word.to_le_bytes());
        }
        bad.extend_from_slice(&index);
        bad.extend_from_slice(&INDEX_MAGIC);
        assert!(matches!(
            TraceFile::from_bytes(bad),
            Err(TraceError::BadIndex("chunk offsets"))
        ));
    }

    #[test]
    fn accesses_streams_the_trace_and_fuses() {
        let (bytes, accesses) = chunked_trace(1000, 64);
        let f = TraceFile::from_bytes(bytes).unwrap();
        let mut it = f.accesses();
        let got: Vec<Access> = (&mut it).map(Result::unwrap).collect();
        assert_eq!(got, accesses);
        assert!(it.next().is_none());
    }

    #[test]
    fn trailer_checksum_is_checked_at_the_end() {
        let (mut bytes, accesses) = chunked_trace(300, 64);
        let at = index_offset(&bytes) - 1;
        bytes[at] ^= 0x80;
        let f = TraceFile::from_bytes(bytes).unwrap();
        let items: Vec<_> = f.accesses().collect();
        assert_eq!(items.len(), accesses.len() + 1);
        assert!(items[..accesses.len()].iter().all(Result::is_ok));
        assert!(matches!(
            items.last(),
            Some(Err(TraceError::ChecksumMismatch))
        ));
        assert!(matches!(f.read_all(), Err(TraceError::ChecksumMismatch)));
    }

    #[test]
    fn trailer_count_disagreeing_with_the_index_is_rejected() {
        // 300 and 301 both take two varint bytes, so only the value
        // differs.
        let (mut bytes, _) = chunked_trace(300, 64);
        let at = index_offset(&bytes) - 8 - 2;
        bytes[at] += 1;
        assert!(matches!(
            TraceFile::from_bytes(bytes),
            Err(TraceError::CountMismatch {
                expected: 301,
                found: 300
            })
        ));
    }

    #[test]
    fn reserved_token_is_rejected() {
        let (mut bytes, _) = chunked_trace(10, 64);
        let first = TraceFile::from_bytes(bytes.clone()).unwrap().chunks()[0].offset;
        bytes[first as usize] = 1; // TOKEN_RESERVED
        let f = TraceFile::from_bytes(bytes).unwrap();
        let items: Vec<_> = f.accesses().collect();
        assert!(matches!(
            items[..],
            [Err(TraceError::Corrupt("marker token inside chunk"))]
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
        for at in index_offset(&bytes)..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(
                TraceFile::from_bytes(bad).is_err(),
                "index/footer flip at {at} accepted"
            );
        }
    }

    #[test]
    fn body_and_trailer_bit_flips_are_rejected() {
        let (bytes, _) = chunked_trace(200, 32);
        let body = TraceFile::from_bytes(bytes.clone()).unwrap().chunks()[0].offset as usize;
        for at in body..index_offset(&bytes) {
            for bit in [0x01, 0x04, 0x80] {
                let mut bad = bytes.clone();
                bad[at] ^= bit;
                // The index itself is untouched, so opening may succeed;
                // decoding must then catch the damage.
                if let Ok(f) = TraceFile::from_bytes(bad) {
                    assert!(
                        f.read_all().is_err(),
                        "flip {bit:#x} at {at} decoded cleanly"
                    );
                }
            }
        }
    }
}
