//! The binary trace format: header layout, varint primitives, and the
//! per-access delta token codec.
//!
//! # Format (version 2)
//!
//! ```text
//! header:
//!   magic      8 B   b"DMTTRACE"
//!   version    2 B   u16 LE (2)
//!   flags      2 B   u16 LE (reserved, 0)
//!   name       2 B   u16 LE length + UTF-8 bytes (workload name)
//!   regions    2 B   u16 LE count, then per region: base u64 LE, len u64 LE
//!   chunk_len  8 B   u64 LE, accesses per chunk (> 0)
//! body:        one varint token per access (see below)
//! trailer:     token 0, then varint access count, then 8 B LE FNV-1a
//!              checksum over (VA LE bytes, write byte) of every access
//! index:       one 32-byte record per chunk
//! footer:      32 bytes locating the index from the end of the file
//! ```
//!
//! Each access is one LEB128 varint token. Virtual addresses are
//! delta-encoded against the previous access (wrapping 64-bit
//! arithmetic), the signed delta is zigzag-folded, and the write bit is
//! packed into the low bit:
//!
//! ```text
//! token = (zigzag(va - prev_va) << 1 | write) + 2
//! ```
//!
//! The `+ 2` reserves token `0` for the end-of-trace marker and `1`
//! for future extensions, and makes the token space total: every
//! `(delta, write)` pair — including the pathological ±2⁶³ deltas the
//! property tests throw at it — encodes losslessly. Tokens are encoded
//! through `u128` so the shift cannot overflow; sequential accesses
//! (small deltas) still take one or two bytes, which is what makes the
//! format ~8× smaller than a naive fixed-width record on
//! sequential-heavy traces.
//!
//! The delta base `prev_va` resets to 0 at every chunk boundary — i.e.
//! before access ordinals `0, chunk_len, 2·chunk_len, …` — so every
//! chunk decodes on its own. Boundaries are placed purely by access
//! ordinal, so the byte stream is a function of the access sequence
//! and `chunk_len` alone, never of how the producer batched its writes.
//!
//! The index and footer:
//!
//! ```text
//! index record: offset u64 LE   file offset of the chunk's first token
//!               start  u64 LE   ordinal of its first access (i·chunk_len)
//!               len    u64 LE   accesses in the chunk
//!               hash   u64 LE   FNV-1a over the chunk's accesses
//! footer:       index_offset u64 LE, chunk_count u64 LE,
//!               index_fnv u64 LE (FNV-1a over the raw index bytes),
//!               magic 8 B b"DMTIDX01"
//! ```
//!
//! [`TraceFile`](crate::TraceFile) parses the footer, index and trailer
//! from a zero-copy mapping and decodes any chunk independently (fresh
//! delta base, per-chunk checksum), which is what makes sharded replay
//! possible. A version-1 file (the same stream with no chunk resets,
//! index or footer) is rejected as [`TraceError::UnsupportedVersion`].

use crate::error::TraceError;
use std::io::{Read, Write};

/// File magic.
pub const MAGIC: [u8; 8] = *b"DMTTRACE";

/// Format version: the only one this crate reads or writes.
pub const VERSION: u16 = 2;

/// Accesses per chunk of [`TraceMeta::of_workload`]: it divides the
/// sharded replay's default epoch length (65,536), so a captured file
/// shards as written.
pub const DEFAULT_CHUNK_LEN: u64 = 4096;

/// Footer magic closing a chunked trace.
pub const INDEX_MAGIC: [u8; 8] = *b"DMTIDX01";

/// Bytes per chunk index record.
pub const INDEX_RECORD_BYTES: u64 = 32;

/// Bytes of the chunked-trace footer.
pub const FOOTER_BYTES: u64 = 32;

/// End-of-trace marker token.
pub const TOKEN_END: u128 = 0;

/// Reserved token (rejected by this version's reader).
pub const TOKEN_RESERVED: u128 = 1;

/// Bytes per access of the naive fixed-width representation this
/// format is measured against (8 B VA + 8 B cycle slot + 1 B flags —
/// the in-memory layout a `Vec<Access>`-of-records dump would use).
pub const NAIVE_BYTES_PER_ACCESS: u64 = 17;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a checksum over decoded accesses.
#[derive(Debug, Clone, Copy)]
pub struct TraceHash(u64);

impl Default for TraceHash {
    fn default() -> Self {
        TraceHash(FNV_OFFSET)
    }
}

impl TraceHash {
    /// Fold one access into the hash.
    pub fn update(&mut self, va: u64, write: bool) {
        for b in va.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = (self.0 ^ write as u64).wrapping_mul(FNV_PRIME);
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over raw bytes (used for the chunk index checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One record of a chunked trace's index: where a chunk's tokens live,
/// which accesses it holds, and their checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIndexEntry {
    /// File offset of the chunk's first token byte.
    pub offset: u64,
    /// Ordinal of the chunk's first access (`i * chunk_len`).
    pub start: u64,
    /// Accesses in the chunk (`chunk_len`, except possibly the last).
    pub len: u64,
    /// FNV-1a digest over the chunk's accesses.
    pub hash: u64,
}

impl ChunkIndexEntry {
    /// Append the 32-byte LE record.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.hash.to_le_bytes());
    }

    /// Parse one 32-byte LE record.
    pub fn read_from<R: Read>(r: &mut R) -> Result<ChunkIndexEntry, TraceError> {
        Ok(ChunkIndexEntry {
            offset: read_u64(r)?,
            start: read_u64(r)?,
            len: read_u64(r)?,
            hash: read_u64(r)?,
        })
    }
}

/// Fold a signed delta into an unsigned value with small magnitudes
/// staying small (zigzag encoding).
pub fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encode one access as its varint token, given the previous VA.
pub fn encode_token(prev_va: u64, va: u64, write: bool, out: &mut Vec<u8>) {
    let delta = va.wrapping_sub(prev_va) as i64;
    let token = ((zigzag(delta) as u128) << 1 | write as u128) + 2;
    write_varint(token, out);
}

/// Decode the payload of a non-marker token into `(va, write)`.
pub fn decode_token(prev_va: u64, token: u128) -> Result<(u64, bool), TraceError> {
    debug_assert!(token >= 2);
    let rec = token - 2;
    let write = rec & 1 == 1;
    let zig = rec >> 1;
    if zig > u64::MAX as u128 {
        return Err(TraceError::Corrupt("delta exceeds 64 bits"));
    }
    let delta = unzigzag(zig as u64);
    Ok((prev_va.wrapping_add(delta as u64), write))
}

/// Append a LEB128 varint.
pub fn write_varint(mut v: u128, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint. At most 19 bytes (⌈128/7⌉) are accepted.
pub fn read_varint<R: Read>(r: &mut R) -> Result<u128, TraceError> {
    let mut v: u128 = 0;
    for shift in (0..).step_by(7) {
        if shift >= 133 {
            return Err(TraceError::Corrupt("varint longer than 128 bits"));
        }
        let b = read_u8(r)?;
        let payload = (b & 0x7f) as u128;
        if shift == 126 && payload > 3 {
            return Err(TraceError::Corrupt("varint longer than 128 bits"));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    unreachable!("loop returns or errors");
}

/// Read exactly one byte.
pub fn read_u8<R: Read>(r: &mut R) -> Result<u8, TraceError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Read a little-endian `u16`.
pub fn read_u16<R: Read>(r: &mut R) -> Result<u16, TraceError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

/// Read a little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// One mapped region recorded in the trace header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRegion {
    /// Base virtual address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Trace header metadata: enough to rebuild the address space a replay
/// needs, independent of the workload generator that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name ("GUPS", "Redis", ...).
    pub name: String,
    /// The regions the workload mapped.
    pub regions: Vec<TraceRegion>,
    /// Accesses per chunk; must be positive ([`TraceMeta::write_header`]
    /// rejects 0).
    pub chunk_len: u64,
}

impl Default for TraceMeta {
    fn default() -> Self {
        TraceMeta {
            name: String::new(),
            regions: Vec::new(),
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }
}

impl TraceMeta {
    /// Capture the metadata of a live workload.
    pub fn of_workload(w: &dyn dmt_workloads::gen::Workload) -> TraceMeta {
        TraceMeta {
            name: w.name().to_string(),
            regions: w
                .regions()
                .iter()
                .map(|r| TraceRegion {
                    base: r.base.raw(),
                    len: r.len,
                })
                .collect(),
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }

    /// The same metadata with `chunk_len` accesses per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn chunked(mut self, chunk_len: u64) -> TraceMeta {
        assert!(chunk_len > 0, "chunk_len must be positive");
        self.chunk_len = chunk_len;
        self
    }

    /// The recorded regions as simulator [`Region`]s.
    ///
    /// [`Region`]: dmt_workloads::gen::Region
    pub fn to_regions(&self) -> Vec<dmt_workloads::gen::Region> {
        self.regions
            .iter()
            .map(|r| dmt_workloads::gen::Region {
                base: dmt_mem::VirtAddr(r.base),
                len: r.len,
                label: "trace",
            })
            .collect()
    }

    /// Total mapped bytes.
    pub fn footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }

    /// Serialize the header.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] if `chunk_len`
    /// is zero, if the name or region list exceeds the format's 16-bit
    /// length fields, or on I/O errors.
    pub fn write_header<W: Write>(&self, w: &mut W) -> std::io::Result<u64> {
        if self.chunk_len == 0 {
            return Err(std::io::ErrorKind::InvalidInput.into());
        }
        let name = self.name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(std::io::Error::other("workload name too long for header"));
        }
        if self.regions.len() > u16::MAX as usize {
            return Err(std::io::Error::other("too many regions for header"));
        }
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?; // flags
        w.write_all(&(name.len() as u16).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.regions.len() as u16).to_le_bytes())?;
        for r in &self.regions {
            w.write_all(&r.base.to_le_bytes())?;
            w.write_all(&r.len.to_le_bytes())?;
        }
        w.write_all(&self.chunk_len.to_le_bytes())?;
        Ok(24 + name.len() as u64 + self.regions.len() as u64 * 16)
    }

    /// Parse and validate a header.
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, every version but [`VERSION`] (a version-1
    /// file gets [`TraceError::UnsupportedVersion`]`(1)`), non-zero
    /// flags, non-UTF-8 names and a zero chunk length; propagates I/O errors ([`TraceError::Truncated`]
    /// on short reads).
    pub fn read_header<R: Read>(r: &mut R) -> Result<TraceMeta, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = read_u16(r)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let flags = read_u16(r)?;
        if flags != 0 {
            return Err(TraceError::Corrupt("unknown header flags"));
        }
        let name_len = read_u16(r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| TraceError::Corrupt("name is not UTF-8"))?;
        let region_count = read_u16(r)? as usize;
        let mut regions = Vec::with_capacity(region_count);
        for _ in 0..region_count {
            regions.push(TraceRegion {
                base: read_u64(r)?,
                len: read_u64(r)?,
            });
        }
        let chunk_len = read_u64(r)?;
        if chunk_len == 0 {
            return Err(TraceError::Corrupt("zero chunk length"));
        }
        Ok(TraceMeta {
            name,
            regions,
            chunk_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips_extremes() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff] {
            assert_eq!(unzigzag(zigzag(d)), d, "delta {d}");
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [
            0u128,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::MAX as u128,
            (u64::MAX as u128) << 1 | 1,
            u128::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let got = read_varint(&mut buf.as_slice()).unwrap();
            assert_eq!(got, v);
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // 20 continuation bytes can encode nothing valid.
        let buf = [0xffu8; 20];
        assert!(matches!(
            read_varint(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        // 19 bytes whose top payload overflows 128 bits.
        let mut buf = vec![0xffu8; 18];
        buf.push(0x7f);
        assert!(matches!(
            read_varint(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn sequential_deltas_are_tiny() {
        // A 64-byte stride encodes in two bytes.
        let mut buf = Vec::new();
        encode_token(0x1000, 0x1040, false, &mut buf);
        assert!(buf.len() <= 2, "{} bytes", buf.len());
    }

    #[test]
    fn header_roundtrips() {
        let meta = TraceMeta {
            name: "GUPS".into(),
            regions: vec![
                TraceRegion {
                    base: 1 << 30,
                    len: 256 << 20,
                },
                TraceRegion {
                    base: 1 << 40,
                    len: 4096,
                },
            ],
            chunk_len: 512,
        };
        let mut buf = Vec::new();
        let n = meta.write_header(&mut buf).unwrap();
        assert_eq!(n, buf.len() as u64);
        let got = TraceMeta::read_header(&mut buf.as_slice()).unwrap();
        assert_eq!(got, meta);
        assert_eq!(got.footprint(), (256 << 20) + 4096);
        let regions = got.to_regions();
        assert_eq!(regions[0].base, dmt_mem::VirtAddr(1 << 30));
        assert_eq!(regions[1].len, 4096);
    }

    #[test]
    fn header_rejections() {
        // Wrong magic.
        let mut buf = b"NOTATRCE".to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            TraceMeta::read_header(&mut buf.as_slice()),
            Err(TraceError::BadMagic(_))
        ));
        // Future version.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            TraceMeta::read_header(&mut buf.as_slice()),
            Err(TraceError::UnsupportedVersion(99))
        ));
        // Truncated mid-header.
        let meta = TraceMeta {
            name: "x".into(),
            regions: vec![TraceRegion { base: 0, len: 1 }],
            chunk_len: 7,
        };
        let mut buf = Vec::new();
        meta.write_header(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let r = TraceMeta::read_header(&mut &buf[..cut]);
            assert!(
                matches!(r, Err(TraceError::Truncated)),
                "cut at {cut} gave {r:?}"
            );
        }
    }

    #[test]
    fn header_is_version_2_and_ends_with_chunk_len() {
        let meta = TraceMeta {
            name: "GUPS".into(),
            regions: vec![TraceRegion {
                base: 1 << 30,
                len: 4096,
            }],
            chunk_len: 512,
        };
        let mut bytes = Vec::new();
        assert_eq!(meta.write_header(&mut bytes).unwrap(), 24 + 4 + 16);
        assert_eq!(bytes[8..10], 2u16.to_le_bytes());
        assert_eq!(bytes[bytes.len() - 8..], 512u64.to_le_bytes());
        assert_eq!(TraceMeta::default().chunk_len, DEFAULT_CHUNK_LEN);
    }

    #[test]
    fn header_rejects_zero_chunk_len_and_truncation() {
        let meta = TraceMeta {
            name: "x".into(),
            regions: vec![],
            chunk_len: 7,
        };
        let mut buf = Vec::new();
        meta.write_header(&mut buf).unwrap();
        // Zero out the chunk_len field.
        let n = buf.len();
        buf[n - 8..].fill(0);
        assert!(matches!(
            TraceMeta::read_header(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
        // Truncating the chunk_len field reads as a short header.
        let mut buf = Vec::new();
        meta.write_header(&mut buf).unwrap();
        let cut = buf.len() - 3;
        assert!(matches!(
            TraceMeta::read_header(&mut &buf[..cut]),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn chunk_index_entry_roundtrips() {
        let e = ChunkIndexEntry {
            offset: 0xdead_beef,
            start: 4096,
            len: 512,
            hash: 0x0123_4567_89ab_cdef,
        };
        let mut buf = Vec::new();
        e.write_to(&mut buf);
        assert_eq!(buf.len() as u64, INDEX_RECORD_BYTES);
        assert_eq!(ChunkIndexEntry::read_from(&mut buf.as_slice()).unwrap(), e);
    }

    #[test]
    fn fnv1a_matches_streaming_hash() {
        // The raw-bytes helper and the per-access hash share constants:
        // hashing an access's wire bytes directly must agree.
        let mut h = TraceHash::default();
        h.update(0xabcd, true);
        let mut bytes = 0xabcdu64.to_le_bytes().to_vec();
        bytes.push(1);
        assert_eq!(fnv1a(&bytes), h.digest());
    }

    #[test]
    fn hash_is_order_sensitive() {
        let mut a = TraceHash::default();
        a.update(1, false);
        a.update(2, true);
        let mut b = TraceHash::default();
        b.update(2, true);
        b.update(1, false);
        assert_ne!(a.digest(), b.digest());
        // And write-bit sensitive.
        let mut c = TraceHash::default();
        c.update(1, true);
        c.update(2, true);
        assert_ne!(a.digest(), c.digest());
    }
}
