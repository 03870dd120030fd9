//! Wire messages: a minimal binary format over [`bytes::Bytes`].
//!
//! Layout (big-endian):
//!
//! ```text
//! 8 bytes  broadcast id
//! 4 bytes  origin node id
//! 4 bytes  hop count
//! 4 bytes  payload length L
//! L bytes  payload
//! --- optional extension block (versioned by its flag byte) ---
//! 1 byte   extension flags (bitmask: 0x01 = trace id, 0x02 = link seq,
//!                           0x04 = byzantine witness tag, 0x08 = link ack)
//! 8 bytes  trace id        (present iff flag bit 0x01 set)
//! 8 bytes  link sequence   (present iff flag bit 0x02 set; never 0)
//! 12 bytes byz tag         (present iff flag bit 0x04 set:
//!                           4-byte claimed origin + 8-byte instance nonce)
//! 8 bytes  link ack        (present iff flag bit 0x08 set; never 0: the
//!                           cumulative ack the sender's half of this link
//!                           owes, riding on a data frame)
//! ```
//!
//! The extension block is strictly optional: a frame that ends right after
//! the payload is a **legacy frame** and decodes with every extension
//! `None`, so old and new peers interoperate. The flag byte is a bitmask of
//! known extensions, its fields in bit order — decoders reject flag bits
//! they do not understand rather than silently misparse, and future
//! extensions claim new bits. A trace-only frame is byte-identical to the
//! pre-link-seq format, and a frame without the ack extension to the
//! pre-piggyback one.
//!
//! The two link fields are hop-local (stripped by [`Message::forwarded`])
//! and start at 1, so they are `Option<NonZeroU64>` — which is also what
//! keeps `size_of::<Message>()` at 104 bytes with both present: every
//! in-flight frame of the simulator and every pull-store entry is one.

use std::num::NonZeroU64;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Extension flag bit announcing an 8-byte trace id.
pub const TRACE_EXT_FLAG: u8 = 0x01;

/// Extension flag bit announcing an 8-byte per-link sequence number
/// (see [`crate::reliable`]).
pub const SEQ_EXT_FLAG: u8 = 0x02;

/// Extension flag bit announcing a 12-byte Byzantine witness tag
/// (claimed origin + instance nonce) naming the broadcast *instance* a
/// Bracha echo/ready frame vouches for. "Signed-enough" identity: correct
/// nodes never emit a tag for an instance they did not witness, so quorum
/// counting over distinct witnesses is sound up to the traitor budget.
pub const BYZ_EXT_FLAG: u8 = 0x04;

/// Extension flag bit announcing an 8-byte piggybacked cumulative ack for
/// the link the frame crosses (see [`crate::reliable`]).
pub const ACK_EXT_FLAG: u8 = 0x08;

/// All extension flag bits this decoder understands.
pub const KNOWN_EXT_FLAGS: u8 = TRACE_EXT_FLAG | SEQ_EXT_FLAG | BYZ_EXT_FLAG | ACK_EXT_FLAG;

/// Encoded size of the trace extension block (flag + trace id).
pub const TRACE_EXT_LEN: usize = 1 + 8;

/// Encoded size of the byz tag payload within the extension block
/// (4-byte origin + 8-byte nonce; the shared flag byte is not counted).
pub const BYZ_TAG_LEN: usize = 4 + 8;

/// Encoded size of the fixed header in front of the payload (broadcast id,
/// origin, hops, payload length).
pub const HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// Largest extension block: the flag byte and all four extensions.
pub const MAX_EXT_LEN: usize = 1 + 8 + 8 + BYZ_TAG_LEN + 8;

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
    /// `None` on legacy frames and untraced control traffic.
    pub trace: Option<u64>,
    /// Per-link sequence number stamped by the reliable layer at send
    /// time (see [`crate::reliable`]). Unlike `trace`, this is hop-local:
    /// it is assigned per (sender, receiver) link and stripped on forward.
    /// `None` on legacy frames and best-effort traffic.
    pub link_seq: Option<NonZeroU64>,
    /// Cumulative ack for the reverse direction of the link this frame
    /// crosses, attached by the reliable layer when the frame is emitted
    /// (see [`crate::reliable`]). Hop-local like `link_seq`; `None` when
    /// the link owed no ack, and on everything but data frames.
    pub link_ack: Option<NonZeroU64>,
    /// Byzantine witness tag naming the broadcast instance this frame
    /// vouches for. Like `trace` it rides along end to end on forwards.
    /// `None` on legacy frames and non-Byzantine traffic.
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

    /// Serialized size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut ext = 0;
        if self.trace.is_some() {
            ext += 8;
        }
        if self.link_seq.is_some() {
            ext += 8;
        }
        if self.byz.is_some() {
            ext += BYZ_TAG_LEN;
        }
        if self.link_ack.is_some() {
            ext += 8;
        }
        if ext != 0 {
            ext += 1; // the flag byte
        }
        HEADER_LEN + self.payload.len() + ext
    }

    /// Encodes to the wire format. Messages with no extensions produce
    /// byte-identical legacy frames; trace-only messages produce frames
    /// identical to the pre-link-seq format.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let (ext, ext_len) = self.ext_block();
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_slice(&self.header());
        buf.put_slice(&self.payload);
        buf.put_slice(&ext[..ext_len]);
        buf.freeze()
    }

    /// The fixed header: everything that goes in front of the payload.
    /// With [`Self::ext_block`] this is the one place that writes the
    /// layout; [`Self::encode`] and the frame codec put the payload
    /// between the two, each in its own way.
    pub(crate) fn header(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&self.broadcast_id.to_be_bytes());
        h[8..12].copy_from_slice(&self.origin.to_be_bytes());
        h[12..16].copy_from_slice(&self.hops.to_be_bytes());
        h[16..20].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        h
    }

    /// The extension block that follows the payload and how many of its
    /// bytes are in use (0 for a legacy frame).
    pub(crate) fn ext_block(&self) -> ([u8; MAX_EXT_LEN], usize) {
        let mut ext = [0u8; MAX_EXT_LEN];
        let mut len = 1; // the flag byte, if any extension follows it
        let mut put = |field: &[u8]| {
            ext[len..len + field.len()].copy_from_slice(field);
            len += field.len();
        };
        let mut flags = 0u8;
        if let Some(trace_id) = self.trace {
            flags |= TRACE_EXT_FLAG;
            put(&trace_id.to_be_bytes());
        }
        if let Some(seq) = self.link_seq {
            flags |= SEQ_EXT_FLAG;
            put(&seq.get().to_be_bytes());
        }
        if let Some(tag) = self.byz {
            flags |= BYZ_EXT_FLAG;
            put(&tag.origin.to_be_bytes());
            put(&tag.nonce.to_be_bytes());
        }
        if let Some(cum) = self.link_ack {
            flags |= ACK_EXT_FLAG;
            put(&cum.get().to_be_bytes());
        }
        ext[0] = flags;
        (ext, if flags == 0 { 0 } else { len })
    }

    /// Decodes from the wire format.
    ///
    /// Returns `None` on truncated input, unknown extension flag bits, a
    /// link sequence or ack of 0, or trailing garbage. A frame ending right
    /// after the payload decodes as legacy (every extension `None`).
    #[must_use]
    pub fn decode(mut raw: Bytes) -> Option<Self> {
        if raw.len() < HEADER_LEN {
            return None;
        }
        let broadcast_id = raw.get_u64();
        let origin = raw.get_u32();
        let hops = raw.get_u32();
        let len = raw.get_u32() as usize;
        if raw.len() < len {
            return None;
        }
        let payload = raw.slice(0..len);
        let mut ext = raw.slice(len..raw.len());
        let (trace, link_seq, byz, link_ack) = if ext.is_empty() {
            (None, None, None, None)
        } else {
            let flags = ext.get_u8();
            if flags == 0 || flags & !KNOWN_EXT_FLAGS != 0 {
                return None;
            }
            let want = 8 * usize::from(flags & TRACE_EXT_FLAG != 0)
                + 8 * usize::from(flags & SEQ_EXT_FLAG != 0)
                + BYZ_TAG_LEN * usize::from(flags & BYZ_EXT_FLAG != 0)
                + 8 * usize::from(flags & ACK_EXT_FLAG != 0);
            if ext.len() != want {
                return None;
            }
            // A link field that is present but 0 is malformed, not absent.
            let link = |flag: u8, ext: &mut Bytes| match flags & flag {
                0 => Some(None),
                _ => NonZeroU64::new(ext.get_u64()).map(Some),
            };
            let trace = (flags & TRACE_EXT_FLAG != 0).then(|| ext.get_u64());
            let link_seq = link(SEQ_EXT_FLAG, &mut ext)?;
            let byz = (flags & BYZ_EXT_FLAG != 0).then(|| ByzTag {
                origin: ext.get_u32(),
                nonce: ext.get_u64(),
            });
            let link_ack = link(ACK_EXT_FLAG, &mut ext)?;
            (trace, link_seq, byz, link_ack)
        };
        Some(Message {
            broadcast_id,
            origin,
            hops,
            payload,
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
        assert_eq!(
            &enc[enc.len() - 9..],
            &[&[ACK_EXT_FLAG][..], &41u64.to_be_bytes()].concat()[..]
        );
        assert_eq!(Message::decode(enc), Some(m));
        let tag = ByzTag {
            origin: 2,
            nonce: 9,
        };
        let full = Message::new(3, 1, Bytes::from_static(b"all"))
            .with_trace(7)
            .with_link_seq(5)
            .with_byz(tag)
            .with_link_ack(u64::MAX);
        assert_eq!(full.encoded_len(), HEADER_LEN + 3 + MAX_EXT_LEN);
        let decoded = Message::decode(full.encode()).unwrap();
        assert_eq!((decoded.link_seq, decoded.link_ack), (nz(5), nz(u64::MAX)));
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
            let mut enc = BytesMut::from(&m.encode()[..]);
            enc.put_u8(flag);
            enc.put_u64(0);
            assert_eq!(Message::decode(enc.freeze()), None, "flag {flag:#x}");
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
    fn trace_only_encoding_matches_pre_link_seq_format() {
        // The old format was: flag byte 0x01 followed by the trace id.
        // Trace-only frames must stay byte-identical so old peers decode.
        let m = Message::new(9, 2, Bytes::from_static(b"pay")).with_trace(0x0102_0304);
        let enc = m.encode();
        let ext = &enc[enc.len() - TRACE_EXT_LEN..];
        assert_eq!(ext[0], TRACE_EXT_FLAG);
        assert_eq!(&ext[1..], 0x0102_0304u64.to_be_bytes());
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
        let m = Message::new(1, 2, Bytes::from_static(b"abc"));
        let mut enc = BytesMut::from(&m.encode()[..]);
        enc.put_u8(BYZ_EXT_FLAG);
        enc.put_u32(7); // origin but no nonce: 4 of the 12 tag bytes
        assert_eq!(Message::decode(enc.freeze()), None);
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
    fn zero_flag_byte_is_rejected() {
        let m = Message::new(1, 2, Bytes::from_static(b"abc"));
        let mut enc = BytesMut::from(&m.encode()[..]);
        enc.put_u8(0x00);
        assert_eq!(Message::decode(enc.freeze()), None);
    }

    #[test]
    fn legacy_frames_decode_without_trace() {
        // A hand-built frame with no extension block must decode as legacy.
        let traced = Message::new(9, 1, Bytes::from_static(b"pay")).with_trace(5);
        let enc = traced.encode();
        let legacy = enc.slice(0..enc.len() - TRACE_EXT_LEN);
        let decoded = Message::decode(legacy).unwrap();
        assert_eq!(decoded.trace, None);
        assert_eq!(decoded.payload, traced.payload);
        assert_eq!(decoded.broadcast_id, 9);
    }

    #[test]
    fn unknown_extension_flag_is_rejected() {
        let m = Message::new(1, 2, Bytes::from_static(b"abc"));
        let mut enc = BytesMut::from(&m.encode()[..]);
        enc.put_u8(0x7E); // not TRACE_EXT_FLAG
        enc.put_u64(123);
        assert_eq!(Message::decode(enc.freeze()), None);
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
        assert_eq!(Message::decode(Bytes::from_static(b"short")), None);
        let m = Message::new(1, 2, Bytes::from_static(b"abcdef"));
        let enc = m.encode();
        assert_eq!(Message::decode(enc.slice(0..enc.len() - 1)), None);
        let t = m.with_trace(1);
        let enc = t.encode();
        assert_eq!(
            Message::decode(enc.slice(0..enc.len() - 1)),
            None,
            "truncated extension block"
        );
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let m = Message::new(1, 2, Bytes::from_static(b"abc"));
        let mut enc = BytesMut::from(&m.encode()[..]);
        enc.put_u8(0xFF);
        assert_eq!(Message::decode(enc.freeze()), None);
        let t = Message::new(1, 2, Bytes::from_static(b"abc")).with_trace(4);
        let mut enc = BytesMut::from(&t.encode()[..]);
        enc.put_u8(0xFF);
        assert_eq!(Message::decode(enc.freeze()), None);
    }

    #[test]
    fn encoded_len_matches() {
        let m = Message::new(5, 1, Bytes::from_static(b"12345"));
        assert_eq!(m.encode().len(), m.encoded_len());
        let t = m.with_trace(9);
        assert_eq!(t.encode().len(), t.encoded_len());
        assert_eq!(t.encoded_len(), 20 + 5 + TRACE_EXT_LEN);
    }
}
