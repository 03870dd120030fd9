//! Wire messages: a minimal binary format over [`bytes::Bytes`].
//!
//! A message is a **head** and the **payload** after it:
//!
//! ```text
//! 1 byte   flags (bitmask: 0x01 = trace id, 0x02 = link seq,
//!                 0x04 = byzantine witness tag, 0x08 = link ack)
//! 8 bytes  broadcast id (big-endian; its top byte holds the class tag)
//! varint   origin node id (u32)
//! varint   hop count (u32)
//! 8 bytes  trace id        (present iff flag 0x01; big-endian)
//! varint   link sequence   (present iff flag 0x02; u64, never 0)
//! varint   byz tag origin  (present iff flag 0x04; u32, the claimed origin)
//! varint   byz tag nonce   (present iff flag 0x04; u64, the instance nonce)
//! varint   link ack        (present iff flag 0x08; u64, never 0: the
//!                           cumulative ack the sender's half of this link
//!                           owes, riding on a data frame)
//! rest     payload
//! ```
//!
//! Varints are unsigned LEB128 ([`crate::varint`]). The payload has no
//! length field: it is the rest of the body, which the frame's length
//! prefix ([`crate::codec`]) ends. A head takes [`MIN_HEAD_LEN`] (11) to
//! [`MAX_HEAD_LEN`] (62) bytes: a heartbeat is an 11-byte body, and a
//! 64-byte data frame with a link sequence and an ack under 128 a 77-byte
//! one.
//!
//! The flag byte and the broadcast id come first, at fixed offsets, so a
//! stream reader learns a frame's class — and with it the buffer its body
//! belongs in — from the first [`FIXED_HEAD_LEN`] bytes. The extensions
//! sit in front of the payload, so a writer sends a frame as two pieces,
//! its head and the payload it shares with every other copy.
//!
//! Every message has exactly one encoding: decoders refuse flag bits they
//! do not understand (future extensions claim new bits; there is no other
//! version field), varints that are not minimal, overflow their type or
//! run past the body, and link fields of 0 — so re-encoding what decoded
//! gives back the same bytes.
//!
//! The two link fields are hop-local (stripped by [`Message::forwarded`])
//! and start at 1, so they are `Option<NonZeroU64>` — which is also what
//! keeps `size_of::<Message>()` at 104 bytes with both present: every
//! in-flight frame of the simulator and every pull-store entry is one.

use std::num::NonZeroU64;

use bytes::{BufMut, Bytes, BytesMut};

use crate::varint::{self, MAX_LEN_U32, MAX_LEN_U64};

/// Extension flag bit announcing an 8-byte trace id.
pub const TRACE_EXT_FLAG: u8 = 0x01;

/// Extension flag bit announcing a per-link sequence number (see
/// [`crate::reliable`]).
pub const SEQ_EXT_FLAG: u8 = 0x02;

/// Extension flag bit announcing a Byzantine witness tag (claimed origin +
/// instance nonce) naming the broadcast *instance* a Bracha echo/ready
/// frame vouches for. "Signed-enough" identity: correct nodes never emit a
/// tag for an instance they did not witness, so quorum counting over
/// distinct witnesses is sound up to the traitor budget.
pub const BYZ_EXT_FLAG: u8 = 0x04;

/// Extension flag bit announcing a piggybacked cumulative ack for the link
/// the frame crosses (see [`crate::reliable`]).
pub const ACK_EXT_FLAG: u8 = 0x08;

/// All extension flag bits this decoder understands.
pub const KNOWN_EXT_FLAGS: u8 = TRACE_EXT_FLAG | SEQ_EXT_FLAG | BYZ_EXT_FLAG | ACK_EXT_FLAG;

/// The head's fixed-width front: the flag byte and the broadcast id.
pub const FIXED_HEAD_LEN: usize = 1 + 8;

/// The shortest head: no extensions, origin and hop count under 128.
pub const MIN_HEAD_LEN: usize = FIXED_HEAD_LEN + 1 + 1;

/// The longest head: every extension, every varint at its widest.
pub const MAX_HEAD_LEN: usize =
    FIXED_HEAD_LEN + 2 * MAX_LEN_U32 + 8 + MAX_LEN_U64 + MAX_LEN_U32 + 2 * MAX_LEN_U64;

/// The broadcast-instance identity carried by the byz extension: the
/// claimed origin plus a per-origin nonce. One `(origin, nonce)` pair
/// names one Byzantine broadcast instance end to end; every echo/ready
/// frame vouching for that instance carries the same tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByzTag {
    /// Member id of the claimed broadcast origin.
    pub origin: u32,
    /// Per-origin nonce distinguishing broadcast instances.
    pub nonce: u64,
}

/// A broadcast message as it travels the simulated network.
///
/// Cloning is cheap: the payload is a reference-counted [`Bytes`] slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Identifier of the broadcast this message belongs to (for dedup).
    pub broadcast_id: u64,
    /// Node that originated the broadcast.
    pub origin: u32,
    /// Hops travelled so far (incremented on each forward).
    pub hops: u32,
    /// Application payload.
    pub payload: Bytes,
    /// Causal-trace id carried end to end, if the origin enabled tracing.
    /// `None` on untraced traffic.
    pub trace: Option<u64>,
    /// Per-link sequence number stamped by the reliable layer at send
    /// time (see [`crate::reliable`]). Unlike `trace`, this is hop-local:
    /// it is assigned per (sender, receiver) link and stripped on forward.
    /// `None` on best-effort traffic.
    pub link_seq: Option<NonZeroU64>,
    /// Cumulative ack for the reverse direction of the link this frame
    /// crosses, attached by the reliable layer when the frame is emitted
    /// (see [`crate::reliable`]). Hop-local like `link_seq`; `None` when
    /// the link owed no ack, and on everything but data frames.
    pub link_ack: Option<NonZeroU64>,
    /// Byzantine witness tag naming the broadcast instance this frame
    /// vouches for. Like `trace` it rides along end to end on forwards.
    /// `None` on non-Byzantine traffic.
    pub byz: Option<ByzTag>,
}

impl Message {
    /// Creates a fresh (0-hop, untraced) broadcast message.
    #[must_use]
    pub fn new(broadcast_id: u64, origin: u32, payload: Bytes) -> Self {
        Message {
            broadcast_id,
            origin,
            hops: 0,
            payload,
            trace: None,
            link_seq: None,
            link_ack: None,
            byz: None,
        }
    }

    /// The same message carrying `trace_id` in its trace extension.
    #[must_use]
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace = Some(trace_id);
        self
    }

    /// The same message stamped with a per-link sequence number. Sequence
    /// spaces start at 1: 0 names no frame and leaves the message unstamped.
    #[must_use]
    pub fn with_link_seq(mut self, seq: u64) -> Self {
        self.link_seq = NonZeroU64::new(seq);
        self
    }

    /// The same message carrying a piggybacked cumulative ack. 0 acks no
    /// frame and leaves the message without one.
    #[must_use]
    pub fn with_link_ack(mut self, cum: u64) -> Self {
        self.link_ack = NonZeroU64::new(cum);
        self
    }

    /// The same message carrying a Byzantine witness tag.
    #[must_use]
    pub fn with_byz(mut self, tag: ByzTag) -> Self {
        self.byz = Some(tag);
        self
    }

    /// A copy with the hop count incremented (what a forwarder sends).
    /// The trace id and byz tag, if any, ride along unchanged; the link
    /// sequence and ack are stripped because they only ever name the hop
    /// they arrived on. The count saturates: `hops` comes straight off the
    /// wire, and a traitor's `u32::MAX` must neither panic the node loop
    /// nor wrap to 0 and slip back under the hop bound.
    #[must_use]
    pub fn forwarded(&self) -> Self {
        Message {
            hops: self.hops.saturating_add(1),
            link_seq: None,
            link_ack: None,
            ..self.clone()
        }
    }

    /// Serialized size in bytes: head and payload.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let varints: usize = (self.ext_varints().into_iter().flatten())
            .map(varint::len)
            .sum();
        FIXED_HEAD_LEN
            + varint::len(self.origin.into())
            + varint::len(self.hops.into())
            + self.trace.map_or(0, |_| 8)
            + varints
            + self.payload.len()
    }

    /// Encodes to the wire format.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut head = [0u8; MAX_HEAD_LEN];
        let head_len = self.put_head(&mut head);
        let mut buf = BytesMut::with_capacity(head_len + self.payload.len());
        buf.put_slice(&head[..head_len]);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// The extensions that are varints, in wire order, `None` where absent.
    fn ext_varints(&self) -> [Option<u64>; 4] {
        [
            self.link_seq.map(NonZeroU64::get),
            self.byz.map(|tag| tag.origin.into()),
            self.byz.map(|tag| tag.nonce),
            self.link_ack.map(NonZeroU64::get),
        ]
    }

    /// Writes the head — everything in front of the payload — at the front
    /// of `out` and returns its length. This is the one place that writes
    /// the layout; [`Self::encode`] and the frame codec put the payload
    /// after it, each in its own way.
    ///
    /// # Panics
    ///
    /// If `out` is shorter than the head (never at [`MAX_HEAD_LEN`]).
    pub(crate) fn put_head(&self, out: &mut [u8]) -> usize {
        out[0] = (u8::from(self.trace.is_some()) * TRACE_EXT_FLAG)
            | (u8::from(self.link_seq.is_some()) * SEQ_EXT_FLAG)
            | (u8::from(self.byz.is_some()) * BYZ_EXT_FLAG)
            | (u8::from(self.link_ack.is_some()) * ACK_EXT_FLAG);
        out[1..FIXED_HEAD_LEN].copy_from_slice(&self.broadcast_id.to_be_bytes());
        let mut len = FIXED_HEAD_LEN;
        len += varint::put(&mut out[len..], self.origin.into());
        len += varint::put(&mut out[len..], self.hops.into());
        if let Some(trace_id) = self.trace {
            out[len..len + 8].copy_from_slice(&trace_id.to_be_bytes());
            len += 8;
        }
        for v in self.ext_varints().into_iter().flatten() {
            len += varint::put(&mut out[len..], v);
        }
        len
    }

    /// Decodes from the wire format.
    ///
    /// Returns `None` on a body too short for its head, unknown flag bits,
    /// a varint the head may not hold ([`crate::varint`]), or a link
    /// sequence or ack of 0. The payload is a slice of `raw` — or, when
    /// empty, [`Bytes::new`], which holds no count on `raw`'s buffer.
    #[must_use]
    pub fn decode(raw: Bytes) -> Option<Self> {
        let (&flags, rest) = raw.split_first()?;
        if flags & !KNOWN_EXT_FLAGS != 0 {
            return None;
        }
        let (id, mut rest) = rest.split_first_chunk::<8>()?;
        let origin = varint::read_u32(&mut rest)?;
        let hops = varint::read_u32(&mut rest)?;
        let has = |flag: u8| flags & flag != 0;
        let trace = match has(TRACE_EXT_FLAG) {
            false => None,
            true => {
                let (trace_id, after) = rest.split_first_chunk::<8>()?;
                rest = after;
                Some(u64::from_be_bytes(*trace_id))
            }
        };
        // A link field that is present but 0 is malformed, not absent.
        let link = |flag: u8, rest: &mut &[u8]| match has(flag) {
            false => Some(None),
            true => NonZeroU64::new(varint::read_u64(rest)?).map(Some),
        };
        let link_seq = link(SEQ_EXT_FLAG, &mut rest)?;
        let byz = match has(BYZ_EXT_FLAG) {
            false => None,
            true => Some(ByzTag {
                origin: varint::read_u32(&mut rest)?,
                nonce: varint::read_u64(&mut rest)?,
            }),
        };
        let link_ack = link(ACK_EXT_FLAG, &mut rest)?;
        Some(Message {
            broadcast_id: u64::from_be_bytes(*id),
            origin,
            hops,
            // An empty range is `Bytes::new()`: a control frame's empty
            // payload must not pin the buffer its body was read into.
            payload: raw.slice(raw.len() - rest.len()..),
            trace,
            link_seq,
            link_ack,
            byz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(v: u64) -> Option<NonZeroU64> {
        NonZeroU64::new(v)
    }

    /// `m`'s encoding with its head's `at`-th byte onwards replaced by
    /// `tail`: a hand-made frame that differs from `m`'s in one field.
    fn patched(m: &Message, at: usize, tail: &[u8]) -> Bytes {
        let mut enc = m.encode()[..at].to_vec();
        enc.extend_from_slice(tail);
        Bytes::from(enc)
    }

    #[test]
    fn both_link_fields_fit_the_message_in_104_bytes() {
        // Every in-flight simulator frame and every pull-store entry is a
        // `Message`: a plain `Option<u64>` ack would make each one 112.
        assert_eq!(size_of::<Message>(), 104);
    }

    #[test]
    fn link_ack_round_trips_alone_and_with_every_other_extension() {
        let m = Message::new(3, 1, Bytes::from_static(b"ack")).with_link_ack(41);
        let enc = m.encode();
        assert_eq!(enc[0], ACK_EXT_FLAG);
        // Flags, id, origin, hops, then the ack just ahead of the payload.
        assert_eq!(&enc[FIXED_HEAD_LEN + 2..], b"\x29ack");
        assert_eq!(Message::decode(enc), Some(m));
        let tag = ByzTag {
            origin: u32::MAX,
            nonce: u64::MAX,
        };
        let mut full = Message::new(3, u32::MAX, Bytes::from_static(b"all"))
            .with_trace(7)
            .with_link_seq(u64::MAX)
            .with_byz(tag)
            .with_link_ack(u64::MAX);
        full.hops = u32::MAX;
        assert_eq!(full.encoded_len(), MAX_HEAD_LEN + 3);
        assert_eq!(full.encode().len(), MAX_HEAD_LEN + 3);
        let decoded = Message::decode(full.encode()).unwrap();
        assert_eq!(
            (decoded.link_seq, decoded.link_ack),
            (nz(u64::MAX), nz(u64::MAX))
        );
        assert_eq!(decoded, full);
        let f = decoded.forwarded();
        assert_eq!((f.link_seq, f.link_ack), (None, None), "both hop-local");
        assert_eq!((f.trace, f.byz), (Some(7), Some(tag)));
    }

    #[test]
    fn zero_link_fields_are_unset_by_the_builders_and_refused_on_the_wire() {
        let m = Message::new(3, 1, Bytes::new())
            .with_link_seq(0)
            .with_link_ack(0);
        assert_eq!((m.link_seq, m.link_ack), (None, None));
        for flag in [SEQ_EXT_FLAG, ACK_EXT_FLAG] {
            // The flag set and its varint 0 where the field goes.
            let mut enc = m.encode().to_vec();
            enc[0] = flag;
            enc.push(0);
            assert_eq!(Message::decode(Bytes::from(enc)), None, "flag {flag:#x}");
        }
    }

    #[test]
    fn round_trip() {
        let m = Message::new(42, 7, Bytes::from_static(b"hello overlay"));
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn empty_payload_round_trips() {
        let m = Message::new(1, 0, Bytes::new());
        assert_eq!(m.encode().len(), MIN_HEAD_LEN);
        assert_eq!(Message::decode(m.encode()), Some(m));
    }

    #[test]
    fn traced_round_trip() {
        let m = Message::new(42, 7, Bytes::from_static(b"traced")).with_trace(0xDEAD_BEEF);
        assert_eq!(m.trace, Some(0xDEAD_BEEF));
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.trace, Some(0xDEAD_BEEF));
    }

    #[test]
    fn link_seq_round_trip() {
        let m = Message::new(3, 1, Bytes::from_static(b"seq")).with_link_seq(17);
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.link_seq, nz(17));
        assert_eq!(decoded.trace, None);
    }

    #[test]
    fn trace_and_link_seq_round_trip() {
        let m = Message::new(3, 1, Bytes::from_static(b"both"))
            .with_trace(0xAA)
            .with_link_seq(u64::MAX);
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded.trace, Some(0xAA));
        assert_eq!(decoded.link_seq, nz(u64::MAX));
    }

    #[test]
    fn byz_tag_round_trips() {
        let tag = ByzTag {
            origin: 7,
            nonce: 0x0102_0304_0506,
        };
        let m = Message::new(3, 7, Bytes::from_static(b"byz")).with_byz(tag);
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.byz, Some(tag));
        assert_eq!(decoded.trace, None);
        assert_eq!(decoded.link_seq, None);
    }

    #[test]
    fn all_three_extensions_round_trip() {
        let tag = ByzTag {
            origin: u32::MAX,
            nonce: u64::MAX,
        };
        let m = Message::new(3, 1, Bytes::from_static(b"full"))
            .with_trace(0xAA)
            .with_link_seq(17)
            .with_byz(tag);
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded.trace, Some(0xAA));
        assert_eq!(decoded.link_seq, nz(17));
        assert_eq!(decoded.byz, Some(tag));
    }

    #[test]
    fn forwarded_keeps_byz_tag() {
        let tag = ByzTag {
            origin: 2,
            nonce: 9,
        };
        let m = Message::new(9, 3, Bytes::from_static(b"x"))
            .with_byz(tag)
            .with_link_seq(5);
        let f = m.forwarded();
        assert_eq!(f.byz, Some(tag), "byz tags ride along on forwards");
        assert_eq!(f.link_seq, None);
    }

    #[test]
    fn byz_extension_with_wrong_length_is_rejected() {
        // The byz flag, then no tag, the tag's origin alone, and a nonce
        // whose varint runs off the end: each body ends inside the head.
        let mut cut = Message::new(1, 2, Bytes::new()).encode().to_vec();
        cut[0] = BYZ_EXT_FLAG;
        assert_eq!(Message::decode(Bytes::from(cut.clone())), None);
        cut.push(7);
        assert_eq!(Message::decode(Bytes::from(cut.clone())), None);
        cut.push(0x80);
        assert_eq!(Message::decode(Bytes::from(cut)), None);
    }

    #[test]
    fn forwarded_strips_link_seq() {
        let m = Message::new(9, 3, Bytes::from_static(b"x"))
            .with_trace(77)
            .with_link_seq(5);
        let f = m.forwarded();
        assert_eq!(f.link_seq, None, "link seqs are hop-local");
        assert_eq!(f.trace, Some(77));
    }

    #[test]
    fn unknown_extension_flag_is_rejected() {
        let m = Message::new(1, 2, Bytes::from_static(b"abc"));
        for unknown in [0x10, 0x20, 0x40, 0x80, 0x7E, 0xFF] {
            let mut enc = m.encode().to_vec();
            enc[0] = unknown;
            assert_eq!(Message::decode(Bytes::from(enc)), None, "{unknown:#x}");
        }
    }

    #[test]
    fn forwarded_increments_hops_only() {
        let m = Message::new(9, 3, Bytes::from_static(b"x")).with_trace(77);
        let f = m.forwarded();
        assert_eq!(f.hops, 1);
        assert_eq!(f.forwarded().hops, 2);
        assert_eq!(f.broadcast_id, 9);
        assert_eq!(f.origin, 3);
        assert_eq!(f.payload, m.payload);
        assert_eq!(f.trace, Some(77), "trace id rides along on forwards");
    }

    #[test]
    fn forwarded_saturates_a_max_hops_frame() {
        // `hops` is decoded straight off the wire: a forged u32::MAX must
        // stay at the ceiling, not panic (debug) or wrap to 0 (release).
        let mut m = Message::new(9, 3, Bytes::new());
        m.hops = u32::MAX;
        assert_eq!(m.forwarded().hops, u32::MAX);
        assert_eq!(m.forwarded().forwarded().hops, u32::MAX);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(Message::decode(Bytes::new()), None);
        assert_eq!(Message::decode(Bytes::from_static(b"\x00short")), None);
        // Every cut inside the head — mid id, mid varint, mid trace id,
        // a missing link field — is refused; with no payload to hide in,
        // so is every cut of a full head.
        let mut m = Message::new(1, 300, Bytes::new())
            .with_trace(1)
            .with_link_seq(1 << 20)
            .with_byz(ByzTag {
                origin: 5,
                nonce: 1 << 40,
            })
            .with_link_ack(1 << 30);
        m.hops = 200;
        let enc = m.encode();
        for cut in 0..enc.len() {
            assert_eq!(Message::decode(enc.slice(..cut)), None, "cut at {cut}");
        }
        assert_eq!(Message::decode(enc), Some(m));
    }

    #[test]
    fn encoded_len_matches() {
        let m = Message::new(5, 1, Bytes::from_static(b"12345"));
        assert_eq!(m.encode().len(), m.encoded_len());
        assert_eq!(m.encoded_len(), MIN_HEAD_LEN + 5);
        let t = m.with_trace(9).with_link_seq(200).with_link_ack(1);
        assert_eq!(t.encode().len(), t.encoded_len());
        assert_eq!(t.encoded_len(), MIN_HEAD_LEN + 8 + 2 + 1 + 5);
    }

    #[test]
    fn varints_that_are_padded_or_overflow_are_refused() {
        // Origin 1 written in two bytes instead of one, then hops 2^32.
        let m = Message::new(1, 1, Bytes::new());
        assert_eq!(
            Message::decode(patched(&m, FIXED_HEAD_LEN, &[0x81, 0x00, 0])),
            None
        );
        let hops = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(
            Message::decode(patched(&m, FIXED_HEAD_LEN + 1, &hops)),
            None
        );
        let widest = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let at_the_top = Message::decode(patched(&m, FIXED_HEAD_LEN + 1, &widest));
        assert_eq!(at_the_top.map(|d| d.hops), Some(u32::MAX));
    }
}
