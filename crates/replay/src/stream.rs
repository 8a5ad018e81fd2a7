//! Streaming, bounded-memory decode of TDRL frame streams.
//!
//! [`crate::codec::FrameReader`] walks frames of a batch that is already
//! resident in memory. At fleet scale the batch arrives from disk or a
//! socket and can be far larger than RAM, so this module provides the same
//! iteration over any [`std::io::Read`] source: [`SessionStream`] pulls one
//! length-prefixed frame at a time, validates its CRC-32 *incrementally* as
//! chunks arrive (via [`crate::codec::Crc32`]), and only ever buffers a
//! single frame — the lookahead is bounded by a configurable maximum frame
//! length, so a corrupt or adversarial length prefix cannot balloon memory.
//!
//! The wire format is specified normatively in `docs/FORMATS.md` (§ "Frame
//! streams"); the split between this module and [`crate::codec`] is purely
//! about *how* bytes arrive, never about what they mean — both paths decode
//! identical bytes to identical logs, which the test suite pins across
//! adversarial read-boundary splits (mid-varint, mid-frame, mid-CRC).

use std::fmt;
use std::io::{self, Read};

use crate::codec::{self, CodecError, Crc32, MAGIC};
use crate::log::EventLog;

/// Default cap on a single frame's length (the bounded lookahead): 64 MiB,
/// comfortably above any real event log and far below fleet batch sizes.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Chunk size for filling the frame buffer from the source.
const READ_CHUNK: usize = 8 * 1024;

/// Failure while decoding a frame stream from an `io::Read` source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying reader failed. Clean end-of-stream at a frame
    /// boundary is *not* an error (iteration just ends); end-of-stream
    /// inside a frame maps to [`CodecError::Truncated`] instead.
    Io(io::ErrorKind, String),
    /// The frame contents failed to decode.
    Codec(CodecError),
    /// A frame declared a length above the configured bound.
    FrameTooLarge {
        /// The declared frame length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(kind, msg) => write!(f, "read failed ({kind:?}): {msg}"),
            StreamError::Codec(e) => write!(f, "{e}"),
            StreamError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

fn io_err(e: io::Error) -> StreamError {
    StreamError::Io(e.kind(), e.to_string())
}

/// Fill as much of `buf` as the source can provide, retrying on
/// `Interrupted`. Returns the number of bytes read (short only at EOF).
pub fn read_full<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<usize, StreamError> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(filled)
}

/// Read one `u32` little-endian length prefix from `src`.
///
/// `Ok(None)` means clean end-of-stream exactly at the frame boundary;
/// a partial prefix is [`CodecError::Truncated`]. This is the shared
/// entry point of every length-prefixed framing in the system — TDRL
/// frame streams, and the audit pipeline's TDRC control frames — so all
/// of them classify boundary conditions identically.
pub fn read_length_prefix<R: Read>(src: &mut R) -> Result<Option<usize>, StreamError> {
    let mut len_bytes = [0u8; 4];
    match read_full(src, &mut len_bytes)? {
        0 => Ok(None),
        4 => Ok(Some(u32::from_le_bytes(len_bytes) as usize)),
        _ => Err(CodecError::Truncated.into()),
    }
}

/// Read one LEB128 varint from `src`, appending the raw consumed bytes to
/// `raw`.
///
/// The TDRB batch container checksums the *serialized* session header, so
/// its streaming decoder needs the exact bytes back, not just the value.
/// Semantics are identical to the in-memory decoder: at most ten bytes, and
/// a tenth byte above `1` is a [`CodecError::VarintOverflow`]; end-of-input
/// mid-varint is [`CodecError::Truncated`].
pub fn read_varint_from<R: Read>(src: &mut R, raw: &mut Vec<u8>) -> Result<u64, StreamError> {
    let start = raw.len();
    // Gather the varint's bytes (its last byte has no continuation bit;
    // ten is the most any u64 needs), then decode them in place.
    loop {
        let mut byte = [0u8; 1];
        if read_full(src, &mut byte)? == 0 {
            return Err(CodecError::Truncated.into());
        }
        raw.push(byte[0]);
        if byte[0] & 0x80 == 0 || raw.len() - start == 10 {
            break;
        }
    }
    let mut pos = start;
    Ok(codec::wire::read_varint(raw, &mut pos)?)
}

/// Read one encoded log of exactly `len` bytes from `src` into `buf`
/// (cleared and reused across calls), validating the CRC-32 trailer
/// incrementally as chunks arrive, then decode it.
///
/// This is the shared frame-body reader under [`SessionStream`] and the
/// audit pipeline's TDRB session stream: both formats carry event logs as
/// length-prefixed frames, and both must reject corruption before
/// structural decode regardless of how the transport splits the bytes.
pub fn read_log_frame<R: Read>(
    src: &mut R,
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<EventLog, StreamError> {
    // Smallest legal frame: magic + version + flags + CRC trailer.
    if len < MAGIC.len() + 4 + 4 {
        // Drain what is there so the caller's offset stays meaningful.
        let mut sink = [0u8; 16];
        let _ = read_full(src, &mut sink[..len.min(16)])?;
        return Err(CodecError::Truncated.into());
    }
    buf.clear();
    buf.reserve(len);
    let mut crc = Crc32::new();
    let mut chunk = [0u8; READ_CHUNK];
    while buf.len() < len {
        let want = (len - buf.len()).min(READ_CHUNK);
        let got = read_full(src, &mut chunk[..want])?;
        if got == 0 {
            return Err(CodecError::Truncated.into());
        }
        // The checksum covers frame bytes [4, len-4): everything after the
        // magic and before the trailer. Intersect this chunk with that
        // window — chunk boundaries are wherever the transport put them.
        let start = buf.len();
        let lo = start.max(MAGIC.len());
        let hi = (start + got).min(len - 4);
        if lo < hi {
            crc.update(&chunk[lo - start..hi - start]);
        }
        buf.extend_from_slice(&chunk[..got]);
    }
    if buf[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic.into());
    }
    let stored = u32::from_le_bytes(buf[len - 4..len].try_into().expect("4-byte trailer"));
    let computed = crc.value();
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed }.into());
    }
    codec::decode_payload(&buf[..len - 4]).map_err(Into::into)
}

/// Iterator over the recorded sessions of a concatenated TDRL frame stream
/// arriving from any [`io::Read`] source.
///
/// One decoded [`EventLog`] is yielded per frame; at most one frame is ever
/// resident, so memory stays bounded by the largest single session (capped
/// at [`max_frame_len`](Self::with_max_frame_len)) no matter how large the
/// stream is. Yields `Err` once, then stops, on the first malformed frame —
/// identical error classification to the in-memory
/// [`FrameReader`](crate::codec::FrameReader).
///
/// # Examples
///
/// ```
/// use replay::codec::write_frame;
/// use replay::stream::SessionStream;
/// use replay::EventLog;
///
/// let mut batch = Vec::new();
/// write_frame(&mut batch, &EventLog::default());
/// write_frame(&mut batch, &EventLog::default());
///
/// // Any io::Read works the same way: a file, a socket, or this slice.
/// let logs: Vec<EventLog> = SessionStream::new(&batch[..])
///     .collect::<Result<_, _>>()
///     .expect("all frames decode");
/// assert_eq!(logs.len(), 2);
/// ```
#[derive(Debug)]
pub struct SessionStream<R> {
    src: R,
    buf: Vec<u8>,
    max_frame_len: usize,
    frames: u64,
    bytes: u64,
    failed: bool,
}

impl<R: Read> SessionStream<R> {
    /// Stream frames from `src` with the default frame-length bound.
    pub fn new(src: R) -> Self {
        SessionStream {
            src,
            buf: Vec::new(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            frames: 0,
            bytes: 0,
            failed: false,
        }
    }

    /// Cap the length a single frame may declare (the bounded lookahead).
    pub fn with_max_frame_len(mut self, max: usize) -> Self {
        self.max_frame_len = max;
        self
    }

    /// Frames successfully decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames
    }

    /// Bytes consumed from the source so far (length prefixes included).
    pub fn bytes_consumed(&self) -> u64 {
        self.bytes
    }

    /// Unwrap the underlying reader.
    pub fn into_inner(self) -> R {
        self.src
    }
}

impl<R: Read> Iterator for SessionStream<R> {
    type Item = Result<EventLog, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let len = match read_length_prefix(&mut self.src) {
            Ok(None) => return None, // clean end of stream
            Ok(Some(len)) => len,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        self.bytes += 4;
        if len > self.max_frame_len {
            self.failed = true;
            return Some(Err(StreamError::FrameTooLarge {
                len,
                max: self.max_frame_len,
            }));
        }
        match read_log_frame(&mut self.src, len, &mut self.buf) {
            Ok(log) => {
                self.frames += 1;
                self.bytes += len as u64;
                Some(Ok(log))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Wraps a reader so each `read` call returns at most `chunk` bytes.
///
/// Real transports hand decoders arbitrary split points — a TCP segment can
/// end mid-varint, mid-frame, or mid-CRC. `ChunkReader` makes those splits
/// reproducible: with `chunk == 1` every possible boundary is exercised.
/// The streaming tests use it to pin that decode results are independent of
/// read-buffer size.
#[derive(Debug)]
pub struct ChunkReader<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> ChunkReader<R> {
    /// Wrap `inner`, limiting each read to `chunk` bytes (minimum 1).
    pub fn new(inner: R, chunk: usize) -> Self {
        ChunkReader {
            inner,
            chunk: chunk.max(1),
        }
    }
}

impl<R: Read> Read for ChunkReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{wire, write_frame, FrameReader};
    use crate::log::PacketRecord;

    fn sample_log(salt: u64) -> EventLog {
        EventLog {
            packets: vec![
                PacketRecord {
                    icount: 1_000 + salt,
                    avail_at: 52_000,
                    wire_at: 50_000,
                    data: vec![salt as u8; 64],
                },
                PacketRecord {
                    icount: 9_500 + salt,
                    avail_at: 410_000,
                    wire_at: 400_000,
                    data: (0..100).collect(),
                },
            ],
            values: vec![1_000_000, 1_000_450 + salt, 999_999],
            final_icount: 123_456 + salt,
            final_cycles: 987_654 + salt,
            final_wall_ps: 7_777_777 + salt as u128,
        }
    }

    fn batch_bytes(n: u64) -> (Vec<EventLog>, Vec<u8>) {
        let logs: Vec<EventLog> = (0..n).map(sample_log).collect();
        let mut buf = Vec::new();
        for log in &logs {
            write_frame(&mut buf, log);
        }
        (logs, buf)
    }

    #[test]
    fn stream_matches_in_memory_reader() {
        let (logs, buf) = batch_bytes(5);
        let in_memory: Vec<EventLog> = FrameReader::new(&buf)
            .collect::<Result<_, _>>()
            .expect("in-memory decode");
        let streamed: Vec<EventLog> = SessionStream::new(&buf[..])
            .collect::<Result<_, _>>()
            .expect("streamed decode");
        assert_eq!(in_memory, logs);
        assert_eq!(streamed, logs);
    }

    #[test]
    fn stream_is_independent_of_read_chunk_size() {
        let (logs, buf) = batch_bytes(4);
        // chunk == 1 exercises every split point: mid-length-prefix,
        // mid-varint, mid-payload, mid-CRC.
        for chunk in [1usize, 3, 7, 64, 4096] {
            let streamed: Vec<EventLog> = SessionStream::new(ChunkReader::new(&buf[..], chunk))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
            assert_eq!(streamed, logs, "chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_crc_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for split in [0, 1, 13, 500, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.value(), wire::crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn empty_source_yields_nothing() {
        assert!(SessionStream::new(&[][..]).next().is_none());
    }

    #[test]
    fn truncation_mid_prefix_mid_frame_and_mid_crc_rejected() {
        let (_, buf) = batch_bytes(2);
        let first_frame_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        // Mid length prefix (of each frame), mid frame body, and inside the
        // final CRC trailer.
        for cut in [
            2,
            first_frame_len / 2,
            4 + first_frame_len + 2,
            buf.len() - 2,
        ] {
            let mut s = SessionStream::new(ChunkReader::new(&buf[..cut], 3));
            let err = loop {
                match s.next() {
                    Some(Ok(_)) => continue,
                    Some(Err(e)) => break e,
                    None => panic!("cut at {cut} must error"),
                }
            };
            assert_eq!(err, StreamError::Codec(CodecError::Truncated), "cut {cut}");
            assert!(s.next().is_none(), "iteration stops after failure");
        }
    }

    #[test]
    fn corruption_rejected_by_incremental_crc() {
        let (_, mut buf) = batch_bytes(2);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        let results: Vec<_> = SessionStream::new(&buf[..]).collect();
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(StreamError::Codec(CodecError::BadChecksum { .. })))),
            "{results:?}"
        );
    }

    #[test]
    fn unknown_version_rejected() {
        let log = sample_log(1);
        let mut encoded = log.encode();
        encoded[4] = 42; // version low byte
        let n = encoded.len();
        let crc = wire::crc32(&encoded[4..n - 4]);
        encoded[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        buf.extend_from_slice(&encoded);
        let got = SessionStream::new(&buf[..]).next().expect("one item");
        assert_eq!(
            got,
            Err(StreamError::Codec(CodecError::UnsupportedVersion(42)))
        );
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        let mut s = SessionStream::new(&buf[..]).with_max_frame_len(1 << 16);
        match s.next() {
            Some(Err(StreamError::FrameTooLarge { len, max })) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1 << 16);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(s.next().is_none());
    }

    #[test]
    fn counters_track_progress() {
        let (_, buf) = batch_bytes(3);
        let mut s = SessionStream::new(&buf[..]);
        assert_eq!(s.frames_decoded(), 0);
        for r in s.by_ref() {
            r.expect("decodes");
        }
        assert_eq!(s.frames_decoded(), 3);
        assert_eq!(s.bytes_consumed(), buf.len() as u64);
    }
}
