//! Streaming encode/decode over `std::io` readers and writers.
//!
//! The in-memory [`crate::archive`] format keeps its whole chunk table in
//! the header, which requires knowing the chunk count up front. For
//! file-to-file use with bounded memory this module frames the *same
//! chunk engine* differently: the input is processed in windows of
//! [`StreamEncoder::WINDOW_CHUNKS`] chunks, each run through the
//! archive's encode pass (same stages, same copy-on-expand, same
//! look-back placement) into a batch buffer the encoder keeps, and
//! written as one self-contained batch. [`decode_stream`] runs each batch
//! through the archive's decode pass into a window buffer and writes it
//! out. Only the framing differs:
//!
//! ```text
//! magic  b"LCRS", version u8
//! stage count u8, per stage: name_len u8 + name
//! batches:
//!   u32 chunk_count          0 terminates the stream
//!   per chunk: u8 mask, u32 stored_len
//!   payloads
//! u64 total uncompressed length  (trailer)
//! u32 CRC-32 of the input        (trailer, integrity check)
//! ```
//!
//! Every chunk is 16 kB except the final chunk of the stream. The
//! decoder holds every chunk of a batch but the last to exactly that
//! length, and the last to at most that, so a wrong-length chunk fails
//! where it is rather than at the trailer.

use std::io::{Read, Write};
use std::sync::Arc;

use lc_parallel::Pool;

use crate::archive::{
    decode_chunks, encode_chunks, parse_rows, read_prologue, take, write_prologue, write_rows,
    ChunkCodec, Faults, TABLE_ENTRY_V2,
};
use crate::checksum::combine;
use crate::chunk::{chunk_count, CHUNK_SIZE};
use crate::component::Component;
use crate::error::DecodeError;
use crate::pipeline::Pipeline;

/// Streaming-format magic bytes.
pub const STREAM_MAGIC: [u8; 4] = *b"LCRS";
/// Streaming-format version (2 added the CRC-32 trailer field).
pub(crate) const STREAM_VERSION: u8 = 2;

/// Streaming encoder state.
pub struct StreamEncoder<'p> {
    pipeline: &'p Pipeline,
    pool: Pool,
}

impl<'p> StreamEncoder<'p> {
    /// Chunks per parallel window (4 MiB of input).
    pub const WINDOW_CHUNKS: usize = 256;

    /// Create an encoder for `pipeline` using `pool`.
    pub fn new(pipeline: &'p Pipeline, pool: Pool) -> Self {
        assert!(
            pipeline.len() <= crate::archive::MAX_STAGES,
            "pipeline too deep for the chunk mask"
        );
        Self { pipeline, pool }
    }

    /// Compress everything from `input` into `output`. Returns
    /// `(uncompressed, compressed)` byte counts.
    pub fn encode<R: Read, W: Write>(
        &self,
        input: &mut R,
        output: &mut W,
    ) -> std::io::Result<(u64, u64)> {
        let codec = ChunkCodec::new(self.pipeline.stages().to_vec(), "encode");
        let mut batch = Vec::new();
        write_prologue(&mut batch, STREAM_MAGIC, STREAM_VERSION, self.pipeline);
        output.write_all(&batch)?;
        let mut written = batch.len() as u64;
        let (mut total_in, mut crc) = (0u64, 0u32);
        let mut window = vec![0u8; Self::WINDOW_CHUNKS * CHUNK_SIZE];
        loop {
            let filled = read_full(input, &mut window)?;
            if filled == 0 {
                break;
            }
            // Batch framing and a placeholder table, then the payloads.
            let n_chunks = chunk_count(filled);
            let table = 4..4 + n_chunks * TABLE_ENTRY_V2;
            batch.clear();
            batch.extend_from_slice(&(n_chunks as u32).to_le_bytes());
            batch.resize(table.end, 0);
            let encoded = encode_chunks(&codec, &window[..filled], &mut batch, &self.pool, None);
            // invariant: with no cancel token the pool drains every chunk.
            let encoded = encoded.expect("no cancel token");
            write_rows(&mut batch[table], &encoded.rows, TABLE_ENTRY_V2);
            output.write_all(&batch)?;
            written += batch.len() as u64;
            total_in += filled as u64;
            crc = combine(crc, encoded.crc, filled);
            if filled < window.len() {
                break; // EOF inside this window
            }
        }
        // Terminator batch + trailer (length + CRC-32 of the input).
        output.write_all(&0u32.to_le_bytes())?;
        output.write_all(&total_in.to_le_bytes())?;
        output.write_all(&crc.to_le_bytes())?;
        Ok((total_in, written + 16))
    }
}

fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// Decode a stream produced by [`StreamEncoder`], resolving component
/// names through `resolve`. Returns the number of bytes written.
pub fn decode_stream<R, W, F>(
    input: &mut R,
    output: &mut W,
    resolve: F,
    pool: &Pool,
) -> Result<u64, StreamError>
where
    R: Read,
    W: Write,
    F: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let mut fill = |buf: &mut [u8], context: &'static str| -> Result<(), StreamError> {
        input.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => DecodeError::Truncated { context }.into(),
            _ => StreamError::Io(e),
        })
    };
    let corrupt = |context| Err(StreamError::Decode(DecodeError::Corrupt { context }));
    let (_, names) = read_prologue(STREAM_MAGIC, STREAM_VERSION..=STREAM_VERSION, &mut fill)?;
    let codec = ChunkCodec::resolve(&names, resolve)?;

    // Per-batch buffers, kept across batches.
    let (mut table, mut payload, mut window) = (Vec::new(), Vec::new(), Vec::new());
    let (mut total_out, mut crc) = (0u64, 0u32);
    loop {
        let n_chunks = u32::from_le_bytes(take(&mut fill, "batch chunk count")?) as usize;
        if n_chunks == 0 {
            break;
        }
        if n_chunks > StreamEncoder::WINDOW_CHUNKS {
            return corrupt("batch size");
        }
        table.resize(n_chunks * TABLE_ENTRY_V2, 0);
        fill(&mut table, "chunk table")?;
        let (rows, payload_len) = parse_rows(&table, TABLE_ENTRY_V2);
        // No chunk is stored larger than it came in: this bounds the
        // payload buffer before it is allocated.
        if payload_len > (n_chunks * CHUNK_SIZE) as u64 {
            return corrupt("chunk length");
        }
        payload.resize(payload_len as usize, 0);
        fill(&mut payload, "batch payload")?;
        window.resize(n_chunks * CHUNK_SIZE, 0);
        let pass = decode_chunks(
            &codec,
            &rows,
            &payload,
            &mut window,
            true,
            pool,
            Faults::Stop(None),
        );
        if let Some(fault) = pass.faults.into_iter().next() {
            return Err(fault.error.into());
        }
        let mut len = 0;
        for (chunk_crc, chunk_len) in pass.placed {
            crc = combine(crc, chunk_crc, chunk_len);
            len += chunk_len;
        }
        output.write_all(&window[..len])?;
        total_out += len as u64;
    }
    let (expected, actual) = (take(&mut fill, "trailer length")?, total_out);
    let expected = u64::from_le_bytes(expected);
    if expected != actual {
        return Err(DecodeError::LengthMismatch { expected, actual }.into());
    }
    let (expected, actual) = (take(&mut fill, "trailer checksum")?, crc);
    let expected = u32::from_le_bytes(expected);
    if expected != actual {
        return Err(DecodeError::ChecksumMismatch { expected, actual }.into());
    }
    Ok(total_out)
}

/// Errors from streaming (de)compression: either transport I/O or a
/// malformed stream.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// Malformed stream contents.
    Decode(DecodeError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::Decode(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::{AddOne, DropTrailingZeros};

    fn resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "ADD1_1" => Some(Arc::new(AddOne)),
            "DTZ_1" => Some(Arc::new(DropTrailingZeros)),
            _ => None,
        }
    }

    fn pipeline() -> Pipeline {
        Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap()
    }

    fn roundtrip(data: &[u8]) -> u64 {
        let pool = Pool::new(4);
        let p = pipeline();
        let enc = StreamEncoder::new(&p, pool);
        let mut compressed = Vec::new();
        let (read, written) = enc.encode(&mut &data[..], &mut compressed).unwrap();
        assert_eq!(read, data.len() as u64);
        assert_eq!(written, compressed.len() as u64);
        let mut out = Vec::new();
        let n = decode_stream(&mut &compressed[..], &mut out, resolver, &pool).unwrap();
        assert_eq!(out, data);
        n
    }

    #[test]
    fn stream_roundtrip_empty() {
        assert_eq!(roundtrip(&[]), 0);
    }

    #[test]
    fn stream_roundtrip_single_byte() {
        roundtrip(&[7]);
    }

    #[test]
    fn stream_roundtrip_multiple_windows() {
        // > WINDOW_CHUNKS chunks forces several batches.
        let len = (StreamEncoder::WINDOW_CHUNKS + 3) * CHUNK_SIZE + 17;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn stream_roundtrip_exact_window() {
        let len = StreamEncoder::WINDOW_CHUNKS * CHUNK_SIZE;
        let data: Vec<u8> = (0..len).map(|i| (i % 13) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn stream_truncation_is_an_error() {
        let data: Vec<u8> = (0..CHUNK_SIZE * 2).map(|i| (i % 7) as u8).collect();
        let pool = Pool::new(2);
        let p = pipeline();
        let enc = StreamEncoder::new(&p, pool);
        let mut compressed = Vec::new();
        enc.encode(&mut &data[..], &mut compressed).unwrap();
        for cut in [0, 3, 5, 10, compressed.len() / 2, compressed.len() - 1] {
            let mut out = Vec::new();
            assert!(
                decode_stream(&mut &compressed[..cut], &mut out, resolver, &pool).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn stream_bad_trailer_detected() {
        let data = vec![5u8; CHUNK_SIZE];
        let pool = Pool::new(2);
        let p = pipeline();
        let enc = StreamEncoder::new(&p, pool);
        let mut compressed = Vec::new();
        enc.encode(&mut &data[..], &mut compressed).unwrap();
        let n = compressed.len();
        // Corrupt the CRC (last 4 bytes).
        compressed[n - 1] ^= 0xFF;
        let mut out = Vec::new();
        let err = decode_stream(&mut &compressed[..], &mut out, resolver, &pool).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Decode(DecodeError::ChecksumMismatch { .. })
        ));
        // Corrupt the declared length instead.
        compressed[n - 1] ^= 0xFF; // restore crc
        compressed[n - 6] ^= 0xFF; // inside the u64 length
        let mut out = Vec::new();
        let err = decode_stream(&mut &compressed[..], &mut out, resolver, &pool).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Decode(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn stream_agrees_with_in_memory_archive_payloads() {
        // Both formats must produce identical per-chunk payloads (same
        // pipeline semantics); only the framing differs.
        let data: Vec<u8> = (0..CHUNK_SIZE * 3 + 99).map(|i| (i % 17) as u8).collect();
        let pool = Pool::new(2);
        let p = pipeline();
        let a = crate::archive::encode(&p, &data, &pool);
        let enc = StreamEncoder::new(&p, pool);
        let mut s = Vec::new();
        enc.encode(&mut &data[..], &mut s).unwrap();
        // Compare total payload volume (headers differ).
        let header = crate::archive::parse_header(&a).unwrap();
        let archive_payload = a.len() - header.payload_offset;
        // Stream: header(6+names) + batch framing(4) + per chunk 5 bytes +
        // payload + terminator(4) + trailer(8 length + 4 crc)
        let names_len: usize = pipeline().stages().iter().map(|c| 1 + c.name().len()).sum();
        let stream_payload = s.len() - (6 + names_len) - 4 - 4 * 5 - 4 - 12;
        assert_eq!(archive_payload, stream_payload);
    }
}
