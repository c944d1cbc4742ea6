//! Property tests for the chunked trace framing: round-trips at
//! adversarial chunk sizes, seek == sequential decode, and typed
//! rejection of damaged indexes and bodies.

use dmt_mem::VirtAddr;
use dmt_trace::{TraceError, TraceFile, TraceMeta, TraceWriter};
use dmt_workloads::gen::Access;
use proptest::prelude::*;

fn encode(accesses: &[Access], chunk_len: u64) -> Vec<u8> {
    let meta = TraceMeta::default().chunked(chunk_len);
    let mut bytes = Vec::new();
    let mut w = TraceWriter::new(&mut bytes, &meta).unwrap();
    w.push_all(accesses.iter().copied()).unwrap();
    w.finish().unwrap();
    bytes
}

fn accesses_of(raw: &[(u64, bool)]) -> Vec<Access> {
    raw.iter()
        .map(|&(va, write)| Access {
            va: VirtAddr(va),
            write,
        })
        .collect()
}

/// The awkward chunk sizes the satellite asks for: 1, N−1, N, N+1 for a
/// trace of N accesses (empty and single-chunk regimes fall out of the
/// N−1/N/N+1 cases and the `0..` length range), plus whatever the
/// generator picked.
fn boundary_chunk_lens(n: usize, extra: u64) -> Vec<u64> {
    let n = n as u64;
    let mut v = vec![1, extra.max(1)];
    if n > 1 {
        v.push(n - 1);
    }
    if n > 0 {
        v.push(n);
    }
    v.push(n + 1);
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Traces round-trip losslessly through both the sequential
    /// iterator and whole-trace decode, at every boundary chunk size.
    #[test]
    fn chunked_roundtrip_is_lossless(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..200),
        extra in 1u64..64,
    ) {
        let accesses = accesses_of(&raw);
        for cl in boundary_chunk_lens(accesses.len(), extra) {
            let f = TraceFile::from_bytes(encode(&accesses, cl)).unwrap();
            prop_assert_eq!(f.chunk_len(), cl);
            prop_assert_eq!(f.len(), accesses.len() as u64);
            let streamed: Result<Vec<Access>, TraceError> = f.accesses().collect();
            prop_assert_eq!(streamed.unwrap(), accesses.clone());
            prop_assert_eq!(f.read_all().unwrap(), accesses.clone());
        }
    }

    /// Seeking to every chunk point yields exactly the sequential
    /// decode's slice — chunks are independent and complete.
    #[test]
    fn seek_equals_sequential_at_every_chunk_point(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..300),
        chunk_len in 1u64..50,
    ) {
        let accesses = accesses_of(&raw);
        let f = TraceFile::from_bytes(encode(&accesses, chunk_len)).unwrap();
        let sequential: Vec<Access> = f.accesses().map(Result::unwrap).collect();
        for i in 0..f.chunk_count() {
            let mut got = Vec::new();
            f.decode_chunk(i, &mut got).unwrap();
            let lo = i * chunk_len as usize;
            let hi = (lo + chunk_len as usize).min(sequential.len());
            prop_assert_eq!(&got[..], &sequential[lo..hi], "chunk {}", i);
        }
        // And arbitrary mid-chunk ranges agree too.
        let mid = sequential.len() / 2;
        prop_assert_eq!(
            f.read_range(mid as u64, sequential.len() as u64).unwrap(),
            sequential[mid..].to_vec()
        );
    }

    /// Any truncation of a chunked trace is rejected with a typed
    /// error — never a panic, never a silently short decode.
    #[test]
    fn chunked_truncation_never_passes(
        raw in prop::collection::vec((0u64..(1 << 45), any::<bool>()), 1..150),
        chunk_len in 1u64..40,
        cut_seed in any::<u64>(),
    ) {
        let accesses = accesses_of(&raw);
        let bytes = encode(&accesses, chunk_len);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let r = TraceFile::from_bytes(bytes[..cut].to_vec());
        prop_assert!(r.is_err(), "cut {} opened", cut);
        prop_assert!(
            matches!(
                r.unwrap_err(),
                TraceError::Truncated
                    | TraceError::BadIndex(_)
                    | TraceError::IndexChecksumMismatch
                    | TraceError::BadMagic(_)
                    | TraceError::UnsupportedVersion(_)
                    | TraceError::Corrupt(_)
            ),
            "cut {}",
            cut
        );
    }

    /// A bit flip in a chunk body or the trailer is caught at open or
    /// by a checksum at decode: the chunk's own, or the trailer's
    /// whole-trace one.
    #[test]
    fn chunked_bit_flips_are_caught(
        raw in prop::collection::vec((0u64..(1 << 45), any::<bool>()), 40..120),
        chunk_len in 2u64..20,
        at_seed in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let accesses = accesses_of(&raw);
        let bytes = encode(&accesses, chunk_len);
        let body_start = TraceFile::from_bytes(bytes.clone()).unwrap().chunks()[0].offset;
        let footer = bytes.len() - 32;
        let index_offset = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap());
        let body = body_start as usize..index_offset as usize;
        let at = body.start + (at_seed % body.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[at] ^= 1 << flip_bit;
        if bad != bytes {
            match TraceFile::from_bytes(bad) {
                Err(_) => {} // geometry-level detection is fine too
                Ok(f) => prop_assert!(
                    f.read_all().is_err(),
                    "body flip at {} decoded cleanly",
                    at
                ),
            }
        }
    }
}
