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
//! Two pairs of entry points, one layout behind both (the header and
//! extension-block encoders of [`Message`]):
//!
//! * [`encode_frame`] / [`decode_frame`] — whole-frame in memory, for
//!   callers that need a contiguous frame. One allocation each: the frame,
//!   and the copy out of the borrowed slice.
//! * [`write_frame`] / [`read_frame`] — blocking I/O over `Read`/`Write`,
//!   for socket reader/writer threads.
//!
//! # Who owns the bytes
//!
//! A payload is never copied by this module on its way through a node.
//! [`read_frame`] allocates each frame body once, at exactly its length
//! (plus the reference count that will share it, in the same allocation),
//! reads the socket into it and freezes it for [`Message::decode`], so
//! `Message::payload` is a slice of the allocation the socket filled —
//! and so is every clone of it: the delivered message, the pull store's
//! copy, every forward. [`write_frame`] builds the length prefix, header
//! and extension block in stack arrays and sends them around the shared
//! payload with one vectored write: a relay's per-link copies, which
//! differ only in `link_seq` and `link_ack`, never materialise. A retained
//! payload therefore pins its own frame body (payload + at most 57 bytes)
//! and nothing larger; bodies are never carved out of a shared read buffer.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::message::{Message, HEADER_LEN};

/// Size of the frame length prefix in bytes.
pub const LEN_PREFIX: usize = 4;

/// Hard upper bound on the frame body length; larger prefixes are treated
/// as stream corruption rather than honored with a giant allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix exceeds the limit in force ([`MAX_FRAME_LEN`]
    /// unless the reader asked for less).
    FrameTooLarge(usize),
    /// The frame body is not a valid [`Message`] encoding.
    Malformed,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the maximum allowed here")
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

/// Length prefix and fixed header of `msg`'s frame: everything that goes
/// on the wire before the payload.
fn frame_head(msg: &Message) -> [u8; LEN_PREFIX + HEADER_LEN] {
    let mut head = [0u8; LEN_PREFIX + HEADER_LEN];
    head[..LEN_PREFIX].copy_from_slice(&(msg.encoded_len() as u32).to_be_bytes());
    head[LEN_PREFIX..].copy_from_slice(&msg.header());
    head
}

/// Encodes `msg` as one complete frame (length prefix + body).
#[must_use]
pub fn encode_frame(msg: &Message) -> Bytes {
    let (ext, ext_len) = msg.ext_block();
    let mut buf = BytesMut::with_capacity(LEN_PREFIX + msg.encoded_len());
    buf.put_slice(&frame_head(msg));
    buf.put_slice(&msg.payload);
    buf.put_slice(&ext[..ext_len]);
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
/// Nothing is allocated or copied: prefix, header and extension block are
/// built on the stack and sent around `msg.payload` with vectored writes —
/// one `writev` per frame on a socket unless the kernel takes less.
///
/// # Errors
///
/// Propagates I/O errors from `w`; a writer that accepts no bytes is
/// [`io::ErrorKind::WriteZero`].
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<usize> {
    let head = frame_head(msg);
    let (ext, ext_len) = msg.ext_block();
    let parts: [&[u8]; 3] = [&head, &msg.payload, &ext[..ext_len]];
    let total = LEN_PREFIX + msg.encoded_len();
    let mut written = 0;
    while written < total {
        // What is left of each part once `written` bytes are gone.
        let mut skip = written;
        let rest = parts.map(|part| {
            let gone = skip.min(part.len());
            skip -= gone;
            IoSlice::new(&part[gone..])
        });
        match w.write_vectored(&rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
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
    read_frame_limited(r, MAX_FRAME_LEN)
}

/// [`read_frame`] for a peer that is only entitled to small frames: a
/// length prefix above `max_len` is refused before anything is allocated
/// for it, so what an unauthenticated connection can make this process
/// allocate is `max_len` bytes, not [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// As [`read_frame`], with [`CodecError::FrameTooLarge`] beyond `max_len`.
pub fn read_frame_limited<R: Read>(r: &mut R, max_len: usize) -> io::Result<Option<Message>> {
    let mut prefix = [0u8; LEN_PREFIX];
    let mut got = 0;
    while got < LEN_PREFIX {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean EOF between frames
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_len.min(MAX_FRAME_LEN) {
        return Err(CodecError::FrameTooLarge(len).into());
    }
    // The frame's one allocation: `freeze` shares it as it is, and the
    // decoded payload is a slice of it.
    let mut body = BytesMut::zeroed(len);
    r.read_exact(&mut body)?;
    Message::decode(body.freeze())
        .map(Some)
        .ok_or_else(|| CodecError::Malformed.into())
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
}
