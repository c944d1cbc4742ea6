//! Error type for trace encoding and decoding.

use core::fmt;
use std::io;

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic([u8; 8]),
    /// The file's format version is not the one this crate reads (2).
    UnsupportedVersion(u16),
    /// The bytes ended inside a structure (header, token, trailer,
    /// footer) — a partial write or truncated copy.
    Truncated,
    /// A structural invariant was violated (reserved token, varint
    /// overflow, oversized header field, ...).
    Corrupt(&'static str),
    /// The trailer's access count disagrees with the chunk index.
    CountMismatch {
        /// Count recorded in the trailer.
        expected: u64,
        /// Accesses the chunk index holds.
        found: u64,
    },
    /// The trailer's whole-trace checksum disagrees with the decoded
    /// accesses.
    ChecksumMismatch,
    /// The chunk index or footer violates the format's geometry
    /// (missing footer magic, offsets out of range or out of order,
    /// wrong start ordinals, ...).
    BadIndex(&'static str),
    /// The chunk index checksum disagrees with the index bytes.
    IndexChecksumMismatch,
    /// A chunk body's checksum disagrees with its index record.
    ChunkChecksumMismatch {
        /// Index of the corrupt chunk.
        chunk: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a DMT trace (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::CountMismatch { expected, found } => write!(
                f,
                "trace count mismatch: trailer says {expected}, index holds {found}"
            ),
            TraceError::ChecksumMismatch => write!(f, "trace checksum mismatch"),
            TraceError::BadIndex(what) => write!(f, "corrupt trace index: {what}"),
            TraceError::IndexChecksumMismatch => write!(f, "trace index checksum mismatch"),
            TraceError::ChunkChecksumMismatch { chunk } => {
                write!(f, "trace chunk {chunk} checksum mismatch")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        // A short read mid-structure means the file was cut off; keep
        // the distinction so callers can report it precisely.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let cases: Vec<(TraceError, &str)> = vec![
            (TraceError::BadMagic(*b"NOTTRACE"), "magic"),
            (TraceError::UnsupportedVersion(9), "version 9"),
            (TraceError::Truncated, "truncated"),
            (TraceError::Corrupt("reserved token"), "reserved token"),
            (
                TraceError::CountMismatch {
                    expected: 5,
                    found: 3,
                },
                "says 5, index holds 3",
            ),
            (TraceError::ChecksumMismatch, "checksum"),
            (TraceError::BadIndex("footer magic"), "footer magic"),
            (TraceError::IndexChecksumMismatch, "index checksum"),
            (
                TraceError::ChunkChecksumMismatch { chunk: 7 },
                "chunk 7 checksum",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn unexpected_eof_maps_to_truncated() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, TraceError::Truncated));
        let e: TraceError = io::Error::other("disk fell off").into();
        assert!(matches!(e, TraceError::Io(_)));
    }
}
