//! Length-prefixed frame codec shared by every transport that carries
//! [`Message`]s over a byte stream.
//!
//! The discrete-event simulator hands whole [`Message`] values around, but
//! real transports — the `lhg-runtime` TCP runtime — move opaque bytes.
//! This module fixes the framing they share:
//!
//! ```text
//! 4 bytes  frame length L (big-endian), counting only the body
//! L bytes  body: one Message in the crate wire format (see crate::message)
//! ```
//!
//! Three entry points cover the transport shapes in the workspace:
//!
//! * [`encode_frame`] / [`decode_frame`] — whole-frame in memory, for
//!   transports that preserve message boundaries (channels);
//! * [`write_frame`] / [`read_frame`] — blocking I/O over `Read`/`Write`,
//!   for socket reader/writer threads;
//! * [`FrameDecoder`] — incremental reassembly for byte streams that
//!   arrive in arbitrary chunks.

use std::fmt;
use std::io::{self, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::message::Message;

/// Size of the frame length prefix in bytes.
pub const LEN_PREFIX: usize = 4;

/// Hard upper bound on the frame body length; larger prefixes are treated
/// as stream corruption rather than honored with a giant allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The frame body is not a valid [`Message`] encoding.
    Malformed,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            CodecError::Malformed => f.write_str("frame body is not a valid message"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Encodes `msg` as one complete frame (length prefix + body).
#[must_use]
pub fn encode_frame(msg: &Message) -> Bytes {
    let body_len = msg.encoded_len();
    let mut buf = BytesMut::with_capacity(LEN_PREFIX + body_len);
    buf.put_u32(body_len as u32);
    buf.put_slice(&msg.encode());
    buf.freeze()
}

/// Decodes one complete frame (length prefix + body) back into a
/// [`Message`].
///
/// # Errors
///
/// Returns [`CodecError`] if the prefix disagrees with the actual length,
/// exceeds [`MAX_FRAME_LEN`], or the body is not a valid message.
pub fn decode_frame(frame: &[u8]) -> Result<Message, CodecError> {
    if frame.len() < LEN_PREFIX {
        return Err(CodecError::Malformed);
    }
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(len));
    }
    if frame.len() - LEN_PREFIX != len {
        return Err(CodecError::Malformed);
    }
    Message::decode(Bytes::copy_from_slice(&frame[LEN_PREFIX..])).ok_or(CodecError::Malformed)
}

/// Writes `msg` as one frame; returns the number of bytes written.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<usize> {
    let frame = encode_frame(msg);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame from `r`, blocking until a complete frame arrives.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); EOF in the middle of a frame is an error.
///
/// # Errors
///
/// Propagates I/O errors; corrupt prefixes and bodies surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Message>> {
    let mut prefix = [0u8; LEN_PREFIX];
    let mut got = 0;
    while got < LEN_PREFIX {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(None), // clean EOF between frames
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(len).into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Message::decode(Bytes::from(body))
        .map(Some)
        .ok_or_else(|| CodecError::Malformed.into())
}

/// Incremental frame reassembler for byte streams delivered in arbitrary
/// chunks.
///
/// Feed raw bytes with [`FrameDecoder::feed`]; pull completed messages with
/// [`FrameDecoder::next_frame`] until it returns `Ok(None)`.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes to the internal buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered bytes not yet consumed by a completed frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Extracts the next complete message, if a full frame is buffered.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on an oversized prefix or a malformed body;
    /// the decoder should be discarded afterwards (stream framing is lost).
    pub fn next_frame(&mut self) -> Result<Option<Message>, CodecError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < LEN_PREFIX {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::FrameTooLarge(len));
        }
        if avail.len() < LEN_PREFIX + len {
            self.compact();
            return Ok(None);
        }
        let body = &avail[LEN_PREFIX..LEN_PREFIX + len];
        let msg = Message::decode(Bytes::copy_from_slice(body)).ok_or(CodecError::Malformed)?;
        self.consumed += LEN_PREFIX + len;
        Ok(Some(msg))
    }

    /// Drops already-consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Message {
        Message::new(i, i as u32, Bytes::from(format!("payload-{i}")))
    }

    #[test]
    fn whole_frame_round_trips() {
        let m = sample(7);
        let frame = encode_frame(&m);
        assert_eq!(frame.len(), LEN_PREFIX + m.encoded_len());
        assert_eq!(decode_frame(&frame), Ok(m));
    }

    #[test]
    fn decode_frame_rejects_bad_shapes() {
        let m = sample(1);
        let frame = encode_frame(&m);
        assert_eq!(decode_frame(&frame[..2]), Err(CodecError::Malformed));
        assert_eq!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(CodecError::Malformed)
        );
        let mut trailing = frame.to_vec();
        trailing.push(0);
        assert_eq!(decode_frame(&trailing), Err(CodecError::Malformed));
        let oversized = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert_eq!(
            decode_frame(&oversized),
            Err(CodecError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn io_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        let sent: Vec<Message> = (0..5).map(sample).collect();
        for m in &sent {
            let n = write_frame(&mut wire, m).unwrap();
            assert_eq!(n, LEN_PREFIX + m.encoded_len());
        }
        let mut cursor = io::Cursor::new(wire);
        let mut got = Vec::new();
        while let Some(m) = read_frame(&mut cursor).unwrap() {
            got.push(m);
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn read_frame_flags_mid_frame_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample(3)).unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = io::Cursor::new(wire);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn incremental_decoder_handles_byte_at_a_time() {
        let sent: Vec<Message> = (0..4).map(sample).collect();
        let mut wire = Vec::new();
        for m in &sent {
            write_frame(&mut wire, m).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            dec.feed(&[b]);
            while let Some(m) = dec.next_frame().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, sent);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn incremental_decoder_handles_split_and_merged_chunks() {
        let sent: Vec<Message> = (0..6).map(sample).collect();
        let mut wire = Vec::new();
        for m in &sent {
            write_frame(&mut wire, m).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        // Deterministic irregular chunking.
        let mut pos = 0;
        let mut step = 1;
        while pos < wire.len() {
            let end = (pos + step).min(wire.len());
            dec.feed(&wire[pos..end]);
            while let Some(m) = dec.next_frame().unwrap() {
                got.push(m);
            }
            pos = end;
            step = step % 13 + 3;
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn incremental_decoder_reports_oversized_frames() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_LEN as u32 + 7).to_be_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::FrameTooLarge(MAX_FRAME_LEN + 7))
        );
    }
}
