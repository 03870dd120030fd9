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
//! Two kinds of entry points, one layout behind both (the head encoder of
//! [`Message`]):
//!
//! * [`encode_frame`] / [`decode_frame`] — whole-frame in memory, for
//!   callers that need a contiguous frame. One allocation each: the frame,
//!   and the copy out of the borrowed slice.
//! * [`FrameDecoder`] / [`FrameQueue`] — one link's two directions over
//!   `Read`/`Write`, resumable: a nonblocking socket that would block
//!   leaves each where it was. [`read_frame`] and [`write_frame`] are their
//!   blocking one-frame forms.
//!
//! # Who owns the bytes
//!
//! A payload is never copied by this module on its way through a node.
//! A frame body is read straight off the socket into the buffer it is
//! decoded from, so `Message::payload` is a slice of the allocation the
//! socket filled — and so is every clone of it: the delivered message, the
//! pull store's copy, every forward. Which buffer that is depends on the
//! frame's class, read from the broadcast id in the first 13 bytes of the
//! frame (prefix, flag byte, id) before the rest is:
//!
//! * a **data** body gets an allocation of its own, at exactly its length
//!   (plus the reference count that will share it, in the same
//!   allocation). A retained payload therefore pins its own frame body
//!   (payload + at most 62 bytes of head) and nothing larger;
//! * **every other** body is read into the link's reused buffer (at least
//!   256 bytes, kept up to 4 KiB) — once nothing holds the frame before it
//!   any more ([`Bytes::try_into_mut`]). A frame whose payload the node
//!   kept (a Byzantine `SEND`, say) keeps that buffer, and the next frame
//!   gets a fresh one: kept bytes are never overwritten. An empty payload
//!   holds nothing, so a heartbeat never keeps it.
//!
//! Writing builds the length prefix and head of each frame in a stack
//! array and sends it and the shared payload with vectored writes, two
//! pieces a frame: a relay's per-link copies, which differ only in
//! `link_seq` and `link_ack`, never materialise.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::message::{Message, FIXED_HEAD_LEN, MAX_HEAD_LEN, MIN_HEAD_LEN};
use crate::wirecost::MessageClass;

/// Size of the frame length prefix in bytes.
pub const LEN_PREFIX: usize = 4;

/// Hard upper bound on the frame body length; larger prefixes are treated
/// as stream corruption rather than honored with a giant allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The least room a [`FrameDecoder`] gives a fresh control-frame buffer:
/// an honest heartbeat, ack or vote delta fits, so the buffer does
/// not grow frame by frame while a link warms up.
const BODY_ROOM: usize = 256;

/// The most room a [`FrameDecoder`] keeps for reuse: a larger control body
/// (a hostile one, say) is read into a buffer of its own and let go.
const KEPT_ROOM: usize = 4096;

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

/// A frame's length prefix and head: everything that goes on the wire
/// before the payload.
type FrameHead = [u8; LEN_PREFIX + MAX_HEAD_LEN];

/// Writes `msg`'s length prefix and head into `out`; returns their length.
fn put_frame_head(msg: &Message, out: &mut FrameHead) -> usize {
    let head = msg.put_head(&mut out[LEN_PREFIX..]);
    let body = (head + msg.payload.len()) as u32;
    out[..LEN_PREFIX].copy_from_slice(&body.to_be_bytes());
    LEN_PREFIX + head
}

/// Encodes `msg` as one complete frame (length prefix + body).
#[must_use]
pub fn encode_frame(msg: &Message) -> Bytes {
    let mut head: FrameHead = [0; LEN_PREFIX + MAX_HEAD_LEN];
    let head_len = put_frame_head(msg, &mut head);
    let mut buf = BytesMut::with_capacity(head_len + msg.payload.len());
    buf.put_slice(&head[..head_len]);
    buf.put_slice(&msg.payload);
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

/// Bytes `msg` takes on the wire as a frame, length prefix included: what
/// every engine counts as the frame's wire bytes.
#[must_use]
pub fn frame_len(msg: &Message) -> usize {
    LEN_PREFIX + msg.encoded_len()
}

/// Frames one vectored write offers at most.
const GATHER: usize = 16;

/// The most frames' room a [`FrameQueue`] keeps once it has drained.
const KEPT_FRAMES: usize = 64;

/// Offers `frames` to `w` in one vectored write, the first `skip` bytes of
/// the first frame left out (a partial write took them); returns how many
/// bytes `w` took. Interrupted writes are retried, a writer that takes
/// nothing is [`io::ErrorKind::WriteZero`], and every other error —
/// [`io::ErrorKind::WouldBlock`] included — is the caller's.
fn write_some<'a, W: Write>(
    w: &mut W,
    frames: impl IntoIterator<Item = &'a Message>,
    skip: usize,
) -> io::Result<usize> {
    let mut heads: [FrameHead; GATHER] = [[0; LEN_PREFIX + MAX_HEAD_LEN]; GATHER];
    let mut head_lens = [0; GATHER];
    let mut payloads: [&[u8]; GATHER] = [&[]; GATHER];
    let mut count = 0;
    for (i, msg) in frames.into_iter().take(GATHER).enumerate() {
        head_lens[i] = put_frame_head(msg, &mut heads[i]);
        payloads[i] = &msg.payload[..];
        count = i + 1;
    }
    let mut parts = [IoSlice::new(&[]); 2 * GATHER];
    let mut skip = skip;
    for i in 0..count {
        let frame: [&[u8]; 2] = [&heads[i][..head_lens[i]], payloads[i]];
        for (j, part) in frame.into_iter().enumerate() {
            let gone = skip.min(part.len());
            skip -= gone;
            parts[2 * i + j] = IoSlice::new(&part[gone..]);
        }
    }
    loop {
        match w.write_vectored(&parts[..2 * count]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes `msg` as one frame; returns the number of bytes written.
///
/// Nothing is allocated or copied: prefix and head are built on the stack
/// and sent ahead of `msg.payload` with vectored writes — one `writev` per
/// frame on a socket unless the kernel takes less.
///
/// # Errors
///
/// Propagates I/O errors from `w`; a writer that accepts no bytes is
/// [`io::ErrorKind::WriteZero`].
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<usize> {
    let total = frame_len(msg);
    let mut written = 0;
    while written < total {
        written += write_some(w, [msg], written)?;
    }
    Ok(total)
}

/// One link's outgoing frames, in order, until a writer takes them. A
/// frame is queued whole and leaves in as many vectored writes as the
/// writer needs; its payload stays shared with whoever else holds it.
#[derive(Debug, Default)]
pub struct FrameQueue {
    frames: VecDeque<Message>,
    /// Bytes of the front frame already written.
    written: usize,
}

impl FrameQueue {
    /// An empty queue with room for `frames` frames.
    #[must_use]
    pub fn with_capacity(frames: usize) -> Self {
        FrameQueue {
            frames: VecDeque::with_capacity(frames),
            written: 0,
        }
    }

    /// Queues `msg`; returns its length on the wire.
    pub fn push(&mut self, msg: Message) -> usize {
        let n = frame_len(&msg);
        self.frames.push_back(msg);
        n
    }

    /// `true` once everything queued has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes queued frames until the queue is empty or `w` would block.
    ///
    /// # Errors
    ///
    /// Any I/O error of `w` but [`io::ErrorKind::WouldBlock`].
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        while !self.frames.is_empty() {
            match write_some(w, &self.frames, self.written) {
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
            while let Some(front) = self.frames.front() {
                let len = frame_len(front);
                if self.written < len {
                    break;
                }
                self.written -= len;
                self.frames.pop_front();
            }
        }
        // A backlog's room goes with it: an idle link keeps a few frames'.
        self.frames.shrink_to(KEPT_FRAMES);
        Ok(())
    }
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
    FrameDecoder::new(max_len).read_from(r)
}

/// Length prefix, flag byte and broadcast id: what a frame's buffer is
/// chosen by. Every body is longer than the head's fixed front
/// ([`MIN_HEAD_LEN`] is refused below), so reading these bytes never reads
/// into the next frame.
const HEAD_LEN: usize = LEN_PREFIX + FIXED_HEAD_LEN;

/// Reads the frames of one byte stream, resumably: bytes a read returned
/// stay here until their frame is whole, so a nonblocking stream can be
/// read whenever it has something. Bodies go where "Who owns the bytes"
/// (module docs) says: data into an allocation of their own, everything
/// else into the decoder's reused buffer.
#[derive(Debug)]
pub struct FrameDecoder {
    head: [u8; HEAD_LEN],
    /// Bytes of the current frame read so far, its prefix included.
    got: usize,
    /// The current frame's body, once its head is in.
    body: Option<BytesMut>,
    /// The last control body handed out: reused once nothing else holds it.
    spare: Bytes,
    max_len: usize,
}

impl FrameDecoder {
    /// A decoder refusing bodies longer than `max_len` (or
    /// [`MAX_FRAME_LEN`]) before anything is allocated for them.
    #[must_use]
    pub fn new(max_len: usize) -> Self {
        FrameDecoder {
            head: [0; HEAD_LEN],
            got: 0,
            body: None,
            spare: Bytes::new(),
            max_len: max_len.min(MAX_FRAME_LEN),
        }
    }

    /// Changes the length limit for the frames still to come (a stranger's
    /// hello-sized limit is lifted once it has said who it is).
    pub fn set_max_len(&mut self, max_len: usize) {
        self.max_len = max_len.min(MAX_FRAME_LEN);
    }

    /// Reads on from `r` until a frame is whole and returns it. `Ok(None)`
    /// is a clean end of stream, at a frame boundary.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]. An error of `r` — [`io::ErrorKind::WouldBlock`]
    /// on a nonblocking stream — leaves the frame read so far here, for
    /// the next call to finish.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Message>> {
        while self.got < HEAD_LEN {
            let n = read_some(r, &mut self.head[self.got..])?;
            if n == 0 && self.got == 0 {
                return Ok(None); // clean EOF between frames
            }
            if n == 0 {
                return Err(cut_short());
            }
            self.got += n;
            if self.got >= LEN_PREFIX {
                self.check_len()?;
            }
        }
        if self.body.is_none() {
            self.body = Some(self.body_buffer());
        }
        let body = self.body.as_mut().expect("set above");
        while self.got < LEN_PREFIX + body.len() {
            match read_some(r, &mut body[self.got - LEN_PREFIX..])? {
                0 => return Err(cut_short()),
                n => self.got += n,
            }
        }
        let body = self.body.take().expect("read above").freeze();
        self.got = 0;
        if !self.is_data() && body.len() <= KEPT_ROOM {
            self.spare = body.clone();
        }
        Message::decode(body)
            .map(Some)
            .ok_or_else(|| CodecError::Malformed.into())
    }

    fn body_len(&self) -> usize {
        let prefix = [self.head[0], self.head[1], self.head[2], self.head[3]];
        u32::from_be_bytes(prefix) as usize
    }

    /// Refuses the prefix just read before anything is allocated for it: a
    /// body past the limit, or one too short to hold a head.
    fn check_len(&self) -> io::Result<()> {
        let len = self.body_len();
        if len > self.max_len {
            return Err(CodecError::FrameTooLarge(len).into());
        }
        if len < MIN_HEAD_LEN {
            return Err(CodecError::Malformed.into());
        }
        Ok(())
    }

    fn is_data(&self) -> bool {
        let id = &self.head[LEN_PREFIX + 1..HEAD_LEN];
        let id = u64::from_be_bytes(id.try_into().expect("8 bytes"));
        MessageClass::classify_strict(id) == Some(MessageClass::Data)
    }

    /// The buffer the current body is read into, its head's fixed front
    /// already in.
    fn body_buffer(&mut self) -> BytesMut {
        let len = self.body_len();
        let reclaimed = (!self.is_data())
            .then(|| std::mem::take(&mut self.spare).try_into_mut().ok())
            .flatten()
            .filter(|buf| buf.capacity() >= len);
        let mut body = match reclaimed {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None if self.is_data() || len >= BODY_ROOM => BytesMut::zeroed(len),
            None => {
                let mut buf = BytesMut::zeroed(BODY_ROOM);
                buf.resize(len, 0);
                buf
            }
        };
        body[..FIXED_HEAD_LEN].copy_from_slice(&self.head[LEN_PREFIX..]);
        body
    }
}

/// One `read` into `buf`, retried while interrupted.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

fn cut_short() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended inside a frame")
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

    /// A nonblocking pipe: each call moves at most `step` bytes, and every
    /// other call would block.
    struct Pipe {
        bytes: Vec<u8>,
        read: usize,
        step: usize,
        calls: usize,
    }

    impl Pipe {
        fn turn(&mut self) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            Ok(self.step)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.turn()?.min(buf.len());
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self
                .turn()?
                .min(buf.len())
                .min(self.bytes.len() - self.read);
            buf[..n].copy_from_slice(&self.bytes[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_queue_and_a_decoder_resume_where_the_pipe_blocked() {
        let sent: Vec<Message> = (0..40)
            .map(|i| match i % 3 {
                0 => sample(i),
                1 => Message::new(crate::wirecost::HEARTBEAT_TAG | i, 1, Bytes::new()),
                _ => Message::new(crate::reliable::ACK_TAG | i, 1, sample(i).payload),
            })
            .collect();
        for step in [1, 7, 64, 4096] {
            let mut pipe = Pipe {
                bytes: Vec::new(),
                read: 0,
                step,
                calls: 0,
            };
            let mut queue = FrameQueue::default();
            for m in &sent {
                assert_eq!(queue.push(m.clone()), frame_len(m));
            }
            while !queue.is_empty() {
                queue.flush(&mut pipe).expect("only ever blocks");
            }
            let mut whole = Vec::new();
            for m in &sent {
                write_frame(&mut whole, m).expect("a Vec takes it");
            }
            assert_eq!(pipe.bytes, whole, "step {step}");

            let (mut decoder, mut got) = (FrameDecoder::new(MAX_FRAME_LEN), Vec::new());
            loop {
                match decoder.read_from(&mut pipe) {
                    Ok(Some(m)) => got.push(m),
                    Ok(None) => break,
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                }
            }
            assert_eq!(got, sent, "step {step}");
        }
    }

    #[test]
    fn a_decoder_refuses_a_frame_too_short_for_a_header() {
        let mut wire = 3u32.to_be_bytes().to_vec();
        wire.extend([1, 2, 3]);
        let err = read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
