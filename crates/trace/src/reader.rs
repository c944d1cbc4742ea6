//! Streaming trace decoder.

use crate::codec::{
    decode_token, read_u64, read_varint, TraceHash, TraceMeta, TOKEN_END, TOKEN_RESERVED,
};
use crate::error::TraceError;
use dmt_mem::VirtAddr;
use dmt_workloads::gen::Access;
use std::io::{BufReader, Read};
use std::path::Path;

/// Streams accesses out of any [`Read`] source, one at a time — a
/// multi-billion-access trace never needs to fit in memory.
///
/// `TraceReader` is a fallible iterator (`Item = Result<Access,
/// TraceError>`): decode errors surface in-band, and the end-of-trace
/// trailer (count + checksum) is verified before the final `None`.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    prev_va: u64,
    decoded: u64,
    hash: TraceHash,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Still decoding records.
    Body,
    /// Clean end-of-trace already seen (or error already yielded).
    Done,
}

impl<R: Read> TraceReader<R> {
    /// Parse the header and return a reader positioned at the first
    /// access.
    ///
    /// # Errors
    ///
    /// Rejects non-trace input (wrong magic), unsupported versions, and
    /// truncated headers.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let meta = TraceMeta::read_header(&mut src)?;
        Ok(TraceReader {
            src,
            meta,
            prev_va: 0,
            decoded: 0,
            hash: TraceHash::default(),
            state: State::Body,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Drain the remaining accesses into a `Vec`, verifying the
    /// trailer.
    ///
    /// # Errors
    ///
    /// Propagates any decode error.
    pub fn read_all(self) -> Result<Vec<Access>, TraceError> {
        self.collect()
    }

    /// An infallible access iterator for feeding the simulation engine
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics (with the decode error) on a corrupt or truncated trace —
    /// appropriate for experiment drivers where a damaged input is
    /// unrecoverable anyway. Use the `Iterator` impl to handle errors.
    pub fn accesses(self) -> impl Iterator<Item = Access> {
        self.map(|r| r.expect("trace decode failed"))
    }

    fn next_access(&mut self) -> Result<Option<Access>, TraceError> {
        let token = read_varint(&mut self.src)?;
        if token == TOKEN_END {
            let expected = read_varint(&mut self.src)?;
            if expected > u64::MAX as u128 {
                return Err(TraceError::Corrupt("trailer count exceeds 64 bits"));
            }
            let expected = expected as u64;
            if expected != self.decoded {
                return Err(TraceError::CountMismatch {
                    expected,
                    found: self.decoded,
                });
            }
            let checksum = read_u64(&mut self.src)?;
            if checksum != self.hash.digest() {
                return Err(TraceError::ChecksumMismatch);
            }
            return Ok(None);
        }
        if token == TOKEN_RESERVED {
            return Err(TraceError::Corrupt("reserved token"));
        }
        // v2 framing: the delta base resets at every chunk boundary so
        // chunks decode independently. Streaming replay just follows
        // the same resets; the chunk index after the trailer is never
        // read on this path.
        if self.meta.chunk_len > 0 && self.decoded.is_multiple_of(self.meta.chunk_len) {
            self.prev_va = 0;
        }
        let (va, write) = decode_token(self.prev_va, token)?;
        self.prev_va = va;
        self.hash.update(va, write);
        self.decoded += 1;
        Ok(Some(Access {
            va: VirtAddr(va),
            write,
        }))
    }
}

impl TraceReader<BufReader<std::fs::File>> {
    /// Open a trace file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates open failures and header validation errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path).map_err(TraceError::Io)?;
        TraceReader::new(BufReader::new(file))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Access, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state == State::Done {
            return None;
        }
        match self.next_access() {
            Ok(Some(a)) => Some(Ok(a)),
            Ok(None) => {
                self.state = State::Done;
                None
            }
            Err(e) => {
                self.state = State::Done;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceRegion;
    use crate::writer::TraceWriter;

    fn sample_trace() -> (Vec<u8>, Vec<Access>) {
        let meta = TraceMeta {
            name: "sample".into(),
            regions: vec![TraceRegion {
                base: 1 << 20,
                len: 1 << 20,
            }],
            chunk_len: 0,
        };
        let accesses: Vec<Access> = (0..1000u64)
            .map(|i| {
                let va = (1 << 20) + (i * 37) % (1 << 20);
                if i % 3 == 0 {
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
    fn roundtrip_preserves_everything() {
        let (bytes, accesses) = sample_trace();
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.meta().name, "sample");
        assert_eq!(r.meta().regions.len(), 1);
        let got = r.read_all().unwrap();
        assert_eq!(got, accesses);
    }

    #[test]
    fn streaming_iteration_matches_read_all() {
        let (bytes, accesses) = sample_trace();
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut got = Vec::new();
        for item in &mut r {
            got.push(item.unwrap());
        }
        assert_eq!(got, accesses);
        assert_eq!(r.decoded(), accesses.len() as u64);
        // Exhausted iterator stays exhausted.
        assert!(r.next().is_none());
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let (bytes, _) = sample_trace();
        // Cut the stream at a spread of points after the header; every
        // cut must produce exactly one Truncated error, never a panic
        // or silent short read.
        let header_len = {
            let mut s = bytes.as_slice();
            let before = s.len();
            TraceMeta::read_header(&mut s).unwrap();
            before - s.len()
        };
        for cut in (header_len..bytes.len())
            .step_by(97)
            .chain([bytes.len() - 1])
        {
            let r = TraceReader::new(&bytes[..cut]).unwrap();
            let err = r.read_all().unwrap_err();
            assert!(matches!(err, TraceError::Truncated), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum_or_count() {
        let (mut bytes, _) = sample_trace();
        // Flip a bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        let err = r.read_all().unwrap_err();
        // Depending on where the flip lands this shows up as a checksum
        // mismatch, count mismatch, or structural corruption — but
        // never success.
        assert!(
            matches!(
                err,
                TraceError::ChecksumMismatch
                    | TraceError::CountMismatch { .. }
                    | TraceError::Corrupt(_)
                    | TraceError::Truncated
            ),
            "{err:?}"
        );
    }

    #[test]
    fn reserved_token_is_rejected() {
        let meta = TraceMeta::default();
        let mut bytes = Vec::new();
        meta.write_header(&mut bytes).unwrap();
        bytes.push(1); // TOKEN_RESERVED
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(
            r.read_all().unwrap_err(),
            TraceError::Corrupt("reserved token")
        ));
    }

    #[test]
    fn v2_streams_the_same_accesses_as_v1() {
        // The same access sequence encoded unchunked (v1) and chunked
        // (v2, awkward chunk length) must stream back identically; only
        // the on-disk framing differs.
        let accesses: Vec<Access> = (0..500u64)
            .map(|i| Access::read(VirtAddr((i * 7919) << 6)))
            .collect();
        let mut v1 = Vec::new();
        let mut w = TraceWriter::new(&mut v1, &TraceMeta::default()).unwrap();
        w.push_all(accesses.iter().copied()).unwrap();
        w.finish().unwrap();

        let mut v2 = Vec::new();
        let mut w = TraceWriter::new(&mut v2, &TraceMeta::default().chunked(33)).unwrap();
        w.push_all(accesses.iter().copied()).unwrap();
        w.finish().unwrap();

        assert_ne!(v1, v2);
        let r = TraceReader::new(v2.as_slice()).unwrap();
        assert_eq!(r.meta().chunk_len, 33);
        assert_eq!(r.read_all().unwrap(), accesses);
        assert_eq!(
            TraceReader::new(v1.as_slice()).unwrap().read_all().unwrap(),
            accesses
        );
    }

    #[test]
    fn error_is_yielded_once_then_fused() {
        let (bytes, _) = sample_trace();
        let mut r = TraceReader::new(&bytes[..bytes.len() - 2]).unwrap();
        let items: Vec<_> = (&mut r).collect();
        assert!(items.last().unwrap().is_err());
        assert_eq!(items.iter().filter(|i| i.is_err()).count(), 1);
        assert!(r.next().is_none());
    }
}
