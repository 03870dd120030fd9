//! Byzantine wire codecs: the flooded `SEND`, the per-link `VOTES`
//! exchange, and the catch-up summaries.
//!
//! A [`GossipFrame`] is one Bracha protocol step as a frame. On the links
//! of a running cluster only `SEND` travels in that form — flooded over the
//! LHG overlay like any other broadcast, so the payload crosses each link
//! once — while echoes and readies travel as witness-set deltas in
//! [`VotesFrame`]s between neighbors ([`crate::exchange`]). The `ECHO` /
//! `READY` frame forms remain the engine's input vocabulary (catch-up
//! summaries, probes and tests speak it). A frame rides in a [`Message`]
//! as:
//!
//! ```text
//! broadcast_id : gossip_frame_id(kind, witness, tag, digest) — BYZ-tagged
//! origin       : the witness (who vouches for this frame)
//! payload      : [kind u8 | digest u64 | application payload…]
//! byz ext      : the instance tag (claimed origin + nonce)
//! ```
//!
//! The broadcast id is a deterministic hash of the frame's identifying
//! tuple with bit 56 ([`BYZ_ID_TAG`]) set, so (a) flooding dedup works on
//! every engine without extra state, (b) replayed frames are absorbed by
//! the same dedup, and (c) the TCP runtime's frame classifier can route
//! byz gossip without decoding payloads.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use lhg_net::message::{ByzTag, Message};

use crate::engine::{InstanceSummary, Phase};
use crate::witness::WitnessSet;

/// Tag bit marking a broadcast id as Byzantine gossip (bit 56 — below the
/// TCP runtime's control tags in bits 57..64, above its data id space).
/// The numeric value is [`lhg_net::wirecost::BYZ_TAG`], the canonical home
/// of the class-tag bits, so wire-cost accounting classifies byz gossip
/// without this crate in its dependency graph.
pub const BYZ_ID_TAG: u64 = lhg_net::wirecost::BYZ_TAG;

/// Mask selecting the 56 hash bits of a byz gossip id.
pub const BYZ_ID_MASK: u64 = BYZ_ID_TAG - 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a digest of an application payload. Not cryptographic — the
/// "signed-enough" model assumes attribution is unforgeable, and the
/// digest only has to distinguish payloads a traitor actually sends.
#[must_use]
pub fn digest(payload: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The three Bracha protocol steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GossipKind {
    /// The origin's initial dissemination of the payload.
    Send,
    /// A witness attests it saw a `SEND` with this digest.
    Echo,
    /// A witness attests the digest is echo-certified (or amplified).
    Ready,
}

impl GossipKind {
    fn as_u8(self) -> u8 {
        match self {
            GossipKind::Send => 0,
            GossipKind::Echo => 1,
            GossipKind::Ready => 2,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(GossipKind::Send),
            1 => Some(GossipKind::Echo),
            2 => Some(GossipKind::Ready),
            _ => None,
        }
    }
}

/// Deterministic flooding id of a gossip frame: FNV-1a over the
/// identifying tuple, masked under [`BYZ_ID_TAG`]. Identical on every
/// engine, so copies of one frame arriving over different disjoint paths
/// dedup against each other.
#[must_use]
pub fn gossip_frame_id(kind: GossipKind, witness: u32, tag: ByzTag, dig: u64) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(&[kind.as_u8()]);
    mix(&witness.to_be_bytes());
    mix(&tag.origin.to_be_bytes());
    mix(&tag.nonce.to_be_bytes());
    mix(&dig.to_be_bytes());
    BYZ_ID_TAG | (h & BYZ_ID_MASK)
}

/// One Bracha protocol message, before wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipFrame {
    /// Protocol step.
    pub kind: GossipKind,
    /// The node vouching for this frame (unforgeable for correct nodes).
    pub witness: u32,
    /// The broadcast instance this frame is about.
    pub tag: ByzTag,
    /// Digest of the instance payload this frame attests to.
    pub digest: u64,
    /// Application payload: carried by `SEND` and `ECHO`, empty on `READY`.
    pub payload: Bytes,
}

impl GossipFrame {
    /// The frame's deterministic flooding broadcast id.
    #[must_use]
    pub fn id(&self) -> u64 {
        gossip_frame_id(self.kind, self.witness, self.tag, self.digest)
    }

    /// Encodes into a wire [`Message`] (byz extension carries the tag).
    #[must_use]
    pub fn to_message(&self) -> Message {
        let mut buf = BytesMut::with_capacity(1 + 8 + self.payload.len());
        buf.put_u8(self.kind.as_u8());
        buf.put_u64(self.digest);
        buf.put_slice(&self.payload);
        Message::new(self.id(), self.witness, buf.freeze()).with_byz(self.tag)
    }

    /// Decodes a gossip frame from a wire message; `None` when the message
    /// has no byz extension or a malformed gossip payload.
    #[must_use]
    pub fn from_message(msg: &Message) -> Option<Self> {
        let tag = msg.byz?;
        let mut p = msg.payload.clone();
        if p.len() < 9 {
            return None;
        }
        let kind = GossipKind::from_u8(p.get_u8())?;
        let dig = p.get_u64();
        Some(GossipFrame {
            kind,
            witness: msg.origin,
            tag,
            digest: dig,
            payload: p,
        })
    }
}

// Payload kind byte of the vote-exchange frame. Deliberately outside
// `GossipKind::from_u8`'s range so `GossipFrame::from_message` rejects it
// and the codecs can share one wire slot without ambiguity. (3 and 4 were
// the simulator-only catch-up flood, gone with it; they stay unassigned.)
const KIND_VOTES: u8 = 5;

/// The broadcast id every [`VotesFrame`] travels under: byz-class (so the
/// frame classifier and wire-cost accounting book it as Bracha traffic),
/// and one constant, because a `VOTES` frame is link-local — never
/// relayed, never entered in a seen-set — and needs no identity.
pub const VOTES_ID: u64 = BYZ_ID_TAG | 0x0056_4f54_4553; // "VOTES"

const FRAME_REQ: u8 = 0x01;
const FRAME_ACK: u8 = 0x02;
const ENTRY_FULL: u8 = 0x01;
const ENTRY_WANT_PAYLOAD: u8 = 0x02;

/// What one `VOTES` frame says about one digest of one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteEntry {
    /// The broadcast instance.
    pub tag: ByzTag,
    /// The digest the votes are for.
    pub digest: u64,
    /// `false`: a delta — votes the sender believes the receiver lacks.
    /// `true`: a declaration — with the frame's other `full` entries for
    /// `tag`, *everything* the sender holds for the instance; the receiver
    /// replaces what it believed the sender had and answers what is missing.
    pub full: bool,
    /// The sender holds a certificate for `digest` but not its payload:
    /// answer with the `SEND` frame if you hold it.
    pub want_payload: bool,
    /// Members that echoed `digest`.
    pub echo: WitnessSet,
    /// Members that readied `digest`.
    pub ready: WitnessSet,
}

impl VoteEntry {
    /// A plain delta: these votes, nothing declared, nothing asked.
    #[must_use]
    pub fn delta(tag: ByzTag, digest: u64, echo: WitnessSet, ready: WitnessSet) -> Self {
        VoteEntry {
            tag,
            digest,
            full: false,
            want_payload: false,
            echo,
            ready,
        }
    }
}

/// The per-link vote exchange frame: witness-set entries for any number of
/// `(instance, digest)` pairs, coalesced into one frame per link and flush.
///
/// ```text
/// broadcast_id : VOTES_ID
/// origin       : the sending neighbor
/// payload      : [5 u8 | flags u8 | count u16 | per entry: origin u32, nonce u64,
///                 digest u64, flags u8, echo set, ready set]
/// set          : [bytes u16 | that many bytes, id 8i+b = bit b of byte i]
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VotesFrame {
    /// The sender holds its next echoes for this link back until the
    /// receiver answers: answer at once, with an empty frame if need be.
    pub req: bool,
    /// This frame answers a `req`.
    pub ack: bool,
    /// The entries, in the order the sender built them.
    pub entries: Vec<VoteEntry>,
}

impl From<Vec<VoteEntry>> for VotesFrame {
    /// These entries, asking for nothing and answering nothing.
    fn from(entries: Vec<VoteEntry>) -> Self {
        VotesFrame {
            entries,
            ..VotesFrame::default()
        }
    }
}

impl VotesFrame {
    /// Encodes into a wire [`Message`] from neighbor `sender`. No byz
    /// extension: the instances are named per entry.
    #[must_use]
    pub fn to_message(&self, sender: u32) -> Message {
        let body: usize = (self.entries.iter())
            .map(|e| 21 + e.echo.encoded_len() + e.ready.encoded_len())
            .sum();
        let mut buf = BytesMut::with_capacity(4 + body);
        buf.put_u8(KIND_VOTES);
        buf.put_u8(u8::from(self.req) * FRAME_REQ + u8::from(self.ack) * FRAME_ACK);
        buf.put_slice(
            &u16::try_from(self.entries.len())
                .unwrap_or(u16::MAX)
                .to_be_bytes(),
        );
        for e in self.entries.iter().take(usize::from(u16::MAX)) {
            buf.put_u32(e.tag.origin);
            buf.put_u64(e.tag.nonce);
            buf.put_u64(e.digest);
            buf.put_u8(
                u8::from(e.full) * ENTRY_FULL + u8::from(e.want_payload) * ENTRY_WANT_PAYLOAD,
            );
            e.echo.encode(&mut buf);
            e.ready.encode(&mut buf);
        }
        Message::new(VOTES_ID, sender, buf.freeze())
    }

    /// Decodes a `VOTES` frame; `None` when `msg` is not one, is truncated,
    /// carries trailing bytes or unknown flag bits, or declares a witness
    /// set longer than `max_members` ids need. Lengths are checked before
    /// anything is allocated for them, and entries are decoded one by one —
    /// a count that promises more than the frame holds reserves nothing.
    #[must_use]
    pub fn from_message(msg: &Message, max_members: usize) -> Option<Self> {
        let mut p: &[u8] = &msg.payload;
        if msg.broadcast_id != VOTES_ID || p.len() < 4 || p[0] != KIND_VOTES {
            return None;
        }
        let flags = p[1];
        if flags & !(FRAME_REQ | FRAME_ACK) != 0 {
            return None;
        }
        let count = usize::from(u16::from_be_bytes([p[2], p[3]]));
        p = &p[4..];
        let mut entries = Vec::new();
        for _ in 0..count {
            if p.len() < 21 {
                return None;
            }
            let (head, rest) = p.split_at(21);
            let flags = head[20];
            if flags & !(ENTRY_FULL | ENTRY_WANT_PAYLOAD) != 0 {
                return None;
            }
            p = rest;
            let echo = WitnessSet::decode(&mut p, max_members)?;
            let ready = WitnessSet::decode(&mut p, max_members)?;
            entries.push(VoteEntry {
                tag: ByzTag {
                    origin: u32::from_be_bytes(head[..4].try_into().expect("4 bytes")),
                    nonce: u64::from_be_bytes(head[4..12].try_into().expect("8 bytes")),
                },
                digest: u64::from_be_bytes(head[12..20].try_into().expect("8 bytes")),
                full: flags & ENTRY_FULL != 0,
                want_payload: flags & ENTRY_WANT_PAYLOAD != 0,
                echo,
                ready,
            });
        }
        p.is_empty().then_some(VotesFrame {
            req: flags & FRAME_REQ != 0,
            ack: flags & FRAME_ACK != 0,
            entries,
        })
    }
}

fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Init => 0,
        Phase::Echoed => 1,
        Phase::Readied => 2,
        Phase::Delivered => 3,
    }
}

fn phase_from_u8(b: u8) -> Option<Phase> {
    match b {
        0 => Some(Phase::Init),
        1 => Some(Phase::Echoed),
        2 => Some(Phase::Readied),
        3 => Some(Phase::Delivered),
        _ => None,
    }
}

/// Encodes a summary list for the wire:
/// `[count u32 | per item: origin u32, nonce u64, phase u8, digest u64,
/// payload_len u32, payload…]` — the extension of the runtime's SYNC
/// snapshot, under either driver.
#[must_use]
pub fn encode_summaries(items: &[InstanceSummary]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + items.len() * 25);
    buf.put_u32(u32::try_from(items.len()).unwrap_or(u32::MAX));
    for item in items {
        buf.put_u32(item.tag.origin);
        buf.put_u64(item.tag.nonce);
        buf.put_u8(phase_to_u8(item.phase));
        buf.put_u64(item.digest);
        buf.put_u32(u32::try_from(item.payload.len()).unwrap_or(u32::MAX));
        buf.put_slice(&item.payload);
    }
    buf.freeze()
}

/// Decodes a summary list; `None` on any truncation, trailing garbage, or
/// out-of-range phase byte. Never panics on malformed input.
#[must_use]
pub fn decode_summaries(b: &[u8]) -> Option<Vec<InstanceSummary>> {
    fn take<'a>(p: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if p.len() < n {
            return None;
        }
        let (head, rest) = p.split_at(n);
        *p = rest;
        Some(head)
    }
    fn take_u32(p: &mut &[u8]) -> Option<u32> {
        take(p, 4).map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
    fn take_u64(p: &mut &[u8]) -> Option<u64> {
        take(p, 8).map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    let mut p = b;
    let count = take_u32(&mut p)? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let origin = take_u32(&mut p)?;
        let nonce = take_u64(&mut p)?;
        let phase = phase_from_u8(take(&mut p, 1)?[0])?;
        let dig = take_u64(&mut p)?;
        let len = take_u32(&mut p)? as usize;
        let payload = Bytes::copy_from_slice(take(&mut p, len)?);
        out.push(InstanceSummary {
            tag: ByzTag { origin, nonce },
            phase,
            digest: dig,
            payload,
        });
    }
    if !p.is_empty() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> ByzTag {
        ByzTag {
            origin: 3,
            nonce: 0x1000,
        }
    }

    #[test]
    fn digest_is_stable_and_payload_sensitive() {
        assert_eq!(digest(b"hello"), digest(b"hello"));
        assert_ne!(digest(b"hello"), digest(b"hellp"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn frame_round_trips_through_message() {
        let payload = Bytes::from_static(b"byzantine payload");
        let f = GossipFrame {
            kind: GossipKind::Echo,
            witness: 7,
            tag: tag(),
            digest: digest(b"byzantine payload"),
            payload,
        };
        let decoded = GossipFrame::from_message(&f.to_message()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn ready_frames_round_trip_with_empty_payload() {
        let f = GossipFrame {
            kind: GossipKind::Ready,
            witness: 2,
            tag: tag(),
            digest: 99,
            payload: Bytes::new(),
        };
        let m = f.to_message();
        assert_eq!(GossipFrame::from_message(&m), Some(f));
    }

    #[test]
    fn ids_are_byz_tagged_and_distinct_per_tuple_field() {
        let base = GossipFrame {
            kind: GossipKind::Echo,
            witness: 1,
            tag: tag(),
            digest: 5,
            payload: Bytes::new(),
        };
        assert_ne!(base.id() & BYZ_ID_TAG, 0, "bit 56 set");
        assert_eq!(base.id() >> 57, 0, "no control-tag bits");
        let mut other = base.clone();
        other.kind = GossipKind::Ready;
        assert_ne!(base.id(), other.id(), "kind distinguishes");
        let mut other = base.clone();
        other.witness = 2;
        assert_ne!(base.id(), other.id(), "witness distinguishes");
        let mut other = base.clone();
        other.tag.nonce += 1;
        assert_ne!(base.id(), other.id(), "nonce distinguishes");
        let mut other = base.clone();
        other.digest += 1;
        assert_ne!(base.id(), other.id(), "digest distinguishes");
    }

    #[test]
    fn replayed_frame_has_identical_id() {
        // A byte-identical replay maps to the same broadcast id, so
        // flooding dedup absorbs it — replay resistance for free.
        let f = GossipFrame {
            kind: GossipKind::Send,
            witness: 3,
            tag: tag(),
            digest: digest(b"x"),
            payload: Bytes::from_static(b"x"),
        };
        assert_eq!(
            f.to_message().broadcast_id,
            f.clone().to_message().broadcast_id
        );
    }

    #[test]
    fn non_byz_messages_do_not_decode() {
        let m = Message::new(1, 2, Bytes::from_static(b"plain data"));
        assert_eq!(GossipFrame::from_message(&m), None);
    }

    #[test]
    fn truncated_gossip_payload_is_rejected() {
        let m = Message::new(1, 2, Bytes::from_static(b"short")).with_byz(tag());
        assert_eq!(GossipFrame::from_message(&m), None);
    }

    fn sample_summaries() -> Vec<InstanceSummary> {
        vec![
            InstanceSummary {
                tag: ByzTag {
                    origin: 1,
                    nonce: 7,
                },
                phase: Phase::Delivered,
                digest: digest(b"abc"),
                payload: Bytes::from_static(b"abc"),
            },
            InstanceSummary {
                tag: ByzTag {
                    origin: 2,
                    nonce: 0x1000,
                },
                phase: Phase::Readied,
                digest: 42,
                payload: Bytes::new(),
            },
        ]
    }

    #[test]
    fn summaries_round_trip_including_empty() {
        let items = sample_summaries();
        assert_eq!(decode_summaries(&encode_summaries(&items)), Some(items));
        assert_eq!(decode_summaries(&encode_summaries(&[])), Some(Vec::new()));
    }

    #[test]
    fn malformed_summaries_are_rejected_not_panicked() {
        let good = encode_summaries(&sample_summaries());
        assert_eq!(decode_summaries(&[]), None, "empty buffer");
        assert_eq!(decode_summaries(&good[..good.len() - 1]), None, "truncated");
        let mut trailing = good.to_vec();
        trailing.push(0);
        assert_eq!(decode_summaries(&trailing), None, "trailing garbage");
        let mut bad_phase = good.to_vec();
        bad_phase[4 + 12] = 9; // first item's phase byte out of range
        assert_eq!(decode_summaries(&bad_phase), None, "phase out of range");
        // Count claiming more items than the buffer holds.
        let mut lying = BytesMut::new();
        lying.put_u32(1000);
        assert_eq!(decode_summaries(&lying.freeze()), None);
    }

    fn sample_votes() -> VotesFrame {
        let entry = |nonce, full, want_payload, echo: &[u32], ready: &[u32]| VoteEntry {
            tag: ByzTag { origin: 3, nonce },
            digest: 0xD1 + nonce,
            full,
            want_payload,
            echo: echo.iter().copied().collect(),
            ready: ready.iter().copied().collect(),
        };
        VotesFrame {
            req: true,
            ack: false,
            entries: vec![
                entry(1, false, false, &[0, 9, 127], &[]),
                entry(2, true, false, &[1, 2, 3], &[2, 64]),
                entry(3, false, true, &[], &[]),
            ],
        }
    }

    #[test]
    fn votes_frame_round_trips_is_byz_class_and_is_not_gossip() {
        let frame = sample_votes();
        let m = frame.to_message(7);
        assert_eq!(VotesFrame::from_message(&m, 128), Some(frame));
        assert_eq!((m.broadcast_id, m.origin, m.byz), (VOTES_ID, 7, None));
        assert_ne!(m.broadcast_id & BYZ_ID_TAG, 0, "byz-tagged id");
        assert_eq!(m.broadcast_id >> 57, 0, "no control-tag bits");
        let tagged = m.clone().with_byz(tag());
        assert_eq!(GossipFrame::from_message(&tagged), None, "kind byte 5");
        // The empty answer: four bytes, and a frame like any other.
        let answer = VotesFrame {
            ack: true,
            ..VotesFrame::default()
        };
        let m = answer.to_message(0);
        assert_eq!(m.payload.len(), 4);
        assert_eq!(VotesFrame::from_message(&m, 0), Some(answer));
    }

    #[test]
    fn malformed_votes_frames_are_rejected_not_panicked() {
        let good = sample_votes().to_message(7);
        let with_payload = |payload: Vec<u8>| Message {
            payload: Bytes::from(payload),
            ..good.clone()
        };
        for cut in 0..good.payload.len() {
            let m = with_payload(good.payload[..cut].to_vec());
            assert_eq!(VotesFrame::from_message(&m, 128), None, "cut at {cut}");
        }
        let mut trailing = good.payload.to_vec();
        trailing.push(0);
        assert_eq!(VotesFrame::from_message(&with_payload(trailing), 128), None);
        // A witness set one byte longer than the roster needs.
        assert_eq!(VotesFrame::from_message(&good, 120), None, "id 127 of 120");
        // A count that promises more entries than the frame holds.
        let mut lying = good.payload.to_vec();
        lying[2..4].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(VotesFrame::from_message(&with_payload(lying), 128), None);
        // Unknown flag bits (the frame's, an entry's), a foreign kind byte,
        // a foreign id.
        for at in [1, 4 + 20] {
            let mut flags = good.payload.to_vec();
            flags[at] |= 0x80;
            assert_eq!(VotesFrame::from_message(&with_payload(flags), 128), None);
        }
        let mut kind = good.payload.to_vec();
        kind[0] = KIND_VOTES - 1;
        assert_eq!(VotesFrame::from_message(&with_payload(kind), 128), None);
        let elsewhere = Message {
            broadcast_id: VOTES_ID ^ 1,
            ..good
        };
        assert_eq!(VotesFrame::from_message(&elsewhere, 128), None);
    }

    mod votes_props {
        use super::*;
        use proptest::prelude::*;

        fn entries() -> impl Strategy<Value = Vec<VoteEntry>> {
            let ids = || proptest::collection::vec(0u32..200, 0..12);
            let entry = (
                (any::<u32>(), any::<u64>(), any::<u64>(), 0u8..4),
                (ids(), ids()),
            );
            proptest::collection::vec(entry, 0..6).prop_map(|raw| {
                raw.into_iter()
                    .map(
                        |((origin, nonce, digest, flags), (echo, ready))| VoteEntry {
                            tag: ByzTag { origin, nonce },
                            digest,
                            full: flags & 1 != 0,
                            want_payload: flags & 2 != 0,
                            echo: echo.into_iter().collect(),
                            ready: ready.into_iter().collect(),
                        },
                    )
                    .collect()
            })
        }

        proptest! {
            /// Whatever the entries, the frame decodes to itself under any
            /// bound that covers its highest id, and to nothing under one
            /// that does not.
            #[test]
            fn votes_frames_round_trip(
                entries in entries(),
                req in any::<bool>(),
                ack in any::<bool>(),
                sender in any::<u32>(),
            ) {
                let frame = VotesFrame { req, ack, entries };
                let top = (frame.entries.iter())
                    .map(|e| e.echo.capacity().max(e.ready.capacity()))
                    .max()
                    .unwrap_or(0);
                let m = frame.to_message(sender);
                prop_assert_eq!(VotesFrame::from_message(&m, top), Some(frame.clone()));
                prop_assert_eq!(VotesFrame::from_message(&m, 4096), Some(frame));
                if top > 8 {
                    prop_assert_eq!(VotesFrame::from_message(&m, top - 8), None);
                }
            }
        }
    }
}
