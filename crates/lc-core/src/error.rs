//! Error types for pipeline construction and archive decoding.

use std::fmt;

/// Errors raised while building or parsing a pipeline description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A component name did not resolve against the registry.
    UnknownComponent(String),
    /// A pipeline was declared with no stages.
    Empty,
    /// A three-stage study pipeline whose final stage is not a reducer
    /// (the paper restricts stage 3 to reducers; §5).
    LastStageNotReducer(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownComponent(name) => {
                write!(f, "unknown component: {name:?}")
            }
            PipelineError::Empty => write!(f, "pipeline has no stages"),
            PipelineError::LastStageNotReducer(name) => {
                write!(f, "final stage {name:?} is not a reducer")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Errors raised while decoding an archive or a single component payload.
///
/// Decoders must return these (never panic) on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The archive does not start with the expected magic bytes.
    BadMagic,
    /// The archive declares an unsupported format version.
    BadVersion(u8),
    /// The byte stream ended before a declared field.
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// A structurally invalid payload.
    Corrupt {
        /// Human-readable description of the inconsistency.
        context: &'static str,
    },
    /// The archive references a component the decoder does not know.
    UnknownComponent(String),
    /// Decoded output length differs from the length the archive declared.
    LengthMismatch {
        /// Expected number of bytes.
        expected: u64,
        /// Actually produced number of bytes.
        actual: u64,
    },
    /// Decoded output does not match the archive's recorded CRC-32 —
    /// silent payload corruption that produced plausible-but-wrong bytes.
    ChecksumMismatch {
        /// CRC-32 recorded at encode time.
        expected: u32,
        /// CRC-32 of what was actually decoded.
        actual: u32,
    },
    /// One chunk's decoded bytes do not match its per-chunk CRC-32
    /// (archive format v3). Identifies the damaged chunk, which is what
    /// [`crate::archive::Decoder::salvage`] exploits to recover the rest.
    ChunkChecksumMismatch {
        /// Index of the failing chunk.
        chunk: u32,
        /// CRC-32 recorded at encode time.
        expected: u32,
        /// CRC-32 of what was actually decoded.
        actual: u32,
    },
    /// The archive declares a decoded size above the caller's limit
    /// (decompression-bomb guard; the output buffer is never allocated).
    TooLarge {
        /// Size the archive header declares.
        declared: u64,
        /// Limit the caller imposed.
        limit: u64,
    },
    /// The caller's [`lc_parallel::CancelToken`] tripped (deadline or
    /// shutdown) before the decode completed. Not a statement about the
    /// archive: the same bytes decode fine with more time.
    Cancelled,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an LC archive (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported archive version {v}"),
            DecodeError::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            DecodeError::Corrupt { context } => write!(f, "corrupt payload: {context}"),
            DecodeError::UnknownComponent(name) => write!(f, "unknown component {name:?}"),
            DecodeError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "decoded length {actual} differs from declared {expected}"
                )
            }
            DecodeError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: decoded {actual:#010x}, archive declared {expected:#010x}"
                )
            }
            DecodeError::ChunkChecksumMismatch {
                chunk,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "chunk {chunk} checksum mismatch: decoded {actual:#010x}, archive declared {expected:#010x}"
                )
            }
            DecodeError::TooLarge { declared, limit } => {
                write!(
                    f,
                    "archive declares {declared} decoded bytes, above the {limit}-byte limit"
                )
            }
            DecodeError::Cancelled => write!(f, "decode cancelled before completion"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        assert_eq!(
            PipelineError::UnknownComponent("FOO_4".into()).to_string(),
            "unknown component: \"FOO_4\""
        );
        assert_eq!(
            DecodeError::LengthMismatch {
                expected: 10,
                actual: 9
            }
            .to_string(),
            "decoded length 9 differs from declared 10"
        );
        assert_eq!(
            DecodeError::BadMagic.to_string(),
            "not an LC archive (bad magic)"
        );
        assert_eq!(
            DecodeError::ChunkChecksumMismatch {
                chunk: 3,
                expected: 0x11,
                actual: 0x22
            }
            .to_string(),
            "chunk 3 checksum mismatch: decoded 0x00000022, archive declared 0x00000011"
        );
        assert_eq!(
            DecodeError::TooLarge {
                declared: 1000,
                limit: 10
            }
            .to_string(),
            "archive declares 1000 decoded bytes, above the 10-byte limit"
        );
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<PipelineError>();
        assert_err::<DecodeError>();
    }
}
