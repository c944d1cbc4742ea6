//! Property tests for the trace codec: encode→decode is the identity
//! over arbitrary access sequences, and damaged inputs are rejected
//! with typed errors rather than panics or silent corruption.

use dmt_mem::VirtAddr;
use dmt_trace::codec::{decode_token, encode_token, read_varint};
use dmt_trace::{TraceError, TraceFile, TraceMeta, TraceRegion, TraceWriter};
use dmt_workloads::gen::Access;
use proptest::prelude::*;

fn encode(accesses: &[Access], meta: &TraceMeta) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = TraceWriter::new(&mut bytes, meta).unwrap();
    w.push_all(accesses.iter().copied()).unwrap();
    w.finish().unwrap();
    bytes
}

#[test]
fn token_roundtrips_worst_case_deltas() {
    for (prev, va) in [
        (0u64, 0u64),
        (0, u64::MAX),
        (u64::MAX, 0),
        (5, 4),
        (1 << 40, (1 << 40) + 4096),
    ] {
        for write in [false, true] {
            let mut buf = Vec::new();
            encode_token(prev, va, write, &mut buf);
            let token = read_varint(&mut buf.as_slice()).unwrap();
            assert!(token >= 2);
            assert_eq!(decode_token(prev, token).unwrap(), (va, write));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary VAs (full 64-bit range — far nastier deltas than any
    /// real workload) and write bits roundtrip exactly, and so does the
    /// header.
    #[test]
    fn roundtrip_is_lossless(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..300),
        name_tag in 0u32..1000,
        region_base in any::<u64>(),
        region_len in 1u64..(1 << 40),
        chunk_len in 1u64..400,
    ) {
        let accesses: Vec<Access> = raw
            .iter()
            .map(|&(va, write)| Access { va: VirtAddr(va), write })
            .collect();
        let meta = TraceMeta {
            name: format!("prop-{name_tag}"),
            regions: vec![TraceRegion { base: region_base, len: region_len }],
            chunk_len,
        };
        let f = TraceFile::from_bytes(encode(&accesses, &meta)).unwrap();
        prop_assert_eq!(f.meta(), &meta);
        let decoded: Result<Vec<Access>, TraceError> = f.accesses().collect();
        prop_assert_eq!(decoded.unwrap(), accesses);
    }

    /// Truncating an encoded trace anywhere strictly inside it yields a
    /// typed error at open (never a panic, never a silently short
    /// result).
    #[test]
    fn truncation_never_passes_validation(
        raw in prop::collection::vec((0u64..(1 << 45), any::<bool>()), 1..200),
        cut_seed in any::<u64>(),
    ) {
        let accesses: Vec<Access> = raw
            .iter()
            .map(|&(va, write)| Access { va: VirtAddr(va), write })
            .collect();
        let bytes = encode(&accesses, &TraceMeta::default().chunked(64));
        let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
        let err = TraceFile::from_bytes(bytes[..cut].to_vec()).unwrap_err();
        prop_assert!(
            matches!(err, TraceError::Truncated | TraceError::BadIndex(_)),
            "cut {cut}: {err:?}"
        );
    }

    /// Corrupting any header byte up to the name is rejected (bad
    /// magic, version, flags, or a name length that no longer matches
    /// the chunk offsets) — never a panic.
    #[test]
    fn corrupt_header_never_panics(
        flip_at in 0usize..16,
        flip_bits in 1u8..=255,
    ) {
        let accesses = [Access::read(VirtAddr(0x1000))];
        let mut bytes = encode(&accesses, &TraceMeta::default());
        bytes[flip_at] ^= flip_bits;
        match TraceFile::from_bytes(bytes) {
            Err(_) => {}
            Ok(f) => prop_assert!(f.read_all().is_err(), "flip at {flip_at} accepted"),
        }
    }
}
