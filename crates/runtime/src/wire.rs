//! Frame tagging for the runtime's control plane.
//!
//! Everything on the wire is a [`lhg_net::message::Message`] inside a
//! length-prefixed frame ([`lhg_net::codec`]). The `broadcast_id` carries a
//! tag in its upper bits that distinguishes control frames from application
//! data; the member id a control frame refers to sits in the low 25 bits,
//! and flooded control waves (crash, join) carry a 32-bit **wave nonce** in
//! bits 25..57 so every wave gets a fresh id.
//!
//! The nonce is what makes crash/join gossip safe to deduplicate forever:
//! a re-crash or re-join floods under a *new* id, so stale copies of an
//! old wave still circulating in socket buffers can never be mistaken for
//! news. (With fixed per-member ids, re-arming the dedup entry on each
//! membership flip let an old crash wave and an old join wave chase each
//! other through the mesh indefinitely — a churn livelock.)
//!
//! Application data ids come from [`lhg_net::fifo::fifo_id`] (origin id in
//! bits 32..64). Loopback clusters have tiny member ids, so bits 57+ are
//! never set by data traffic; [`crate::Cluster`] enforces the ceiling at
//! launch ([`MAX_MEMBERS`]).

use bytes::{BufMut, Bytes, BytesMut};
use lhg_byzantine::InstanceSummary;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::wirecost::MessageClass;

pub use lhg_net::reliable::{
    decode_ack_payload, decode_summary_payload, encode_ack_payload, encode_summary_payload,
};

/// Tag bit of a handshake frame: the first frame a dialer sends, announcing
/// its member id so the acceptor can key the connection. The numeric values
/// of this and the other runtime tags are re-derived from
/// [`lhg_net::wirecost`], the canonical home of the class-tag bits, so
/// wire-cost accounting in `lhg-net` classifies runtime control traffic
/// without a dependency on this crate.
pub const HELLO_TAG: u64 = lhg_net::wirecost::HELLO_TAG;
/// Tag bit of a point-to-point liveness probe. Never forwarded, never
/// deduplicated (the same id repeats every period).
pub const HEARTBEAT_TAG: u64 = lhg_net::wirecost::HEARTBEAT_TAG;
/// Tag bit of a flooded crash announcement: the member in the low bits
/// crashed. Each detection floods under a fresh wave nonce; applying a
/// crash is idempotent, so concurrent detectors' waves coexist harmlessly.
pub const CRASH_TAG: u64 = lhg_net::wirecost::CRASH_TAG;
/// Tag bit of a flooded (re)join announcement: the member in the low bits
/// is (back) in the overlay and every replica must admit it.
pub const JOIN_TAG: u64 = lhg_net::wirecost::JOIN_TAG;
/// Tag bit of the membership-sync handshake. An empty payload is a request
/// (from a node that learned it was excommunicated); a non-empty payload is
/// the serving replica's snapshot ([`encode_membership`]).
pub const SYNC_TAG: u64 = lhg_net::wirecost::SYNC_TAG;
/// Tag bit of a point-to-point link-level ack (cumulative ack + selective
/// NACK list in the payload, see [`lhg_net::reliable`]). Never forwarded,
/// never deduplicated. The numeric value is [`lhg_net::reliable::ACK_TAG`]
/// so all engines share one tag space.
pub const ACK_TAG: u64 = lhg_net::reliable::ACK_TAG;
/// Tag bit of a point-to-point anti-entropy summary (advertisement of
/// recently-seen broadcast ids, or a pull request for missing ones — the
/// payload's mode byte distinguishes). Never forwarded, never deduplicated.
pub const SUMMARY_TAG: u64 = lhg_net::reliable::SUMMARY_TAG;
/// Tag bit of Byzantine broadcast gossip (Bracha SEND/ECHO/READY frames,
/// see [`lhg_byzantine::frame`]). Unlike the other tags, the remaining 56
/// bits are a content hash of the gossip frame, not a member id — flooded
/// and deduplicated like data, never re-originated. The numeric value is
/// [`lhg_byzantine::frame::BYZ_ID_TAG`] so all engines share one id space.
pub const BYZ_TAG: u64 = lhg_byzantine::frame::BYZ_ID_TAG;

/// Largest member id representable in a tagged frame without colliding with
/// the wave-nonce bits (also bounds `fifo_id` origins below bit 56, the
/// Byzantine gossip tag).
pub const MAX_MEMBERS: u64 = 1 << 24;

const MEMBER_MASK: u64 = MAX_MEMBERS - 1;
/// Wave nonces sit between the member id and the tag bits: 32 bits wide,
/// occupying bits 24..56 (so the topmost nonce bit stays clear of
/// [`BYZ_TAG`] at bit 56).
const NONCE_SHIFT: u64 = 24;

/// What a received frame is, according to its tagged `broadcast_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Handshake from the given dialer.
    Hello(MemberId),
    /// Liveness probe from the given member.
    Heartbeat(MemberId),
    /// Announcement that the given member crashed.
    Crash(MemberId),
    /// Flooded announcement that the given member (re)joined.
    Join(MemberId),
    /// Membership sync frame from the given member: request when the
    /// payload is empty, snapshot reply otherwise.
    Sync(MemberId),
    /// Link-level cumulative ack + NACK list from the given member.
    Ack(MemberId),
    /// Anti-entropy summary (advertisement or pull) from the given member.
    Summary(MemberId),
    /// Byzantine broadcast gossip (Bracha SEND/ECHO/READY). The witness is
    /// in the message's origin field and the instance in its byz extension.
    Byz,
    /// Application broadcast data.
    Data,
    /// More than one class-tag bit: no correct node stamps such an id, so
    /// the frame is dropped (never treated as data, whatever else it says).
    Malformed,
}

/// Classifies a `broadcast_id` into its [`FrameKind`] — the member-carrying
/// view of [`MessageClass::classify_strict`], the workspace's one tag
/// classifier, so dispatch and wire-cost accounting cannot disagree.
#[must_use]
pub fn classify(broadcast_id: u64) -> FrameKind {
    let member = broadcast_id & MEMBER_MASK;
    match MessageClass::classify_strict(broadcast_id) {
        None => FrameKind::Malformed,
        Some(MessageClass::Data) => FrameKind::Data,
        Some(MessageClass::Hello) => FrameKind::Hello(member),
        Some(MessageClass::Heartbeat) => FrameKind::Heartbeat(member),
        Some(MessageClass::Crash) => FrameKind::Crash(member),
        Some(MessageClass::Join) => FrameKind::Join(member),
        Some(MessageClass::Sync) => FrameKind::Sync(member),
        Some(MessageClass::Ack) => FrameKind::Ack(member),
        Some(MessageClass::Summary) => FrameKind::Summary(member),
        Some(MessageClass::Byz) => FrameKind::Byz,
    }
}

/// The member id a handshake frame claims, or `None` when the id is not a
/// hello. Unlike [`classify`] the value is **not** masked to the member
/// bits, so a hello with nonce bits set surfaces as an id at or above
/// [`MAX_MEMBERS`] for the link-up validation to reject.
#[must_use]
pub fn hello_peer(broadcast_id: u64) -> Option<MemberId> {
    matches!(classify(broadcast_id), FrameKind::Hello(_)).then_some(broadcast_id ^ HELLO_TAG)
}

/// Broadcast id of a handshake frame from `member`.
#[must_use]
pub fn hello_id(member: MemberId) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    HELLO_TAG | member
}

/// Broadcast id of a heartbeat from `member`.
#[must_use]
pub fn heartbeat_id(member: MemberId) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    HEARTBEAT_TAG | member
}

/// Broadcast id of one crash-announcement wave for `member`. The `nonce`
/// makes the wave's id unique, so dedup state never needs re-arming: a
/// later re-crash floods under a different id.
#[must_use]
pub fn crash_id(member: MemberId, nonce: u32) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    CRASH_TAG | (u64::from(nonce) << NONCE_SHIFT) | member
}

/// Broadcast id of one (re)join-announcement wave for `member`; `nonce` as
/// in [`crash_id`].
#[must_use]
pub fn join_id(member: MemberId, nonce: u32) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    JOIN_TAG | (u64::from(nonce) << NONCE_SHIFT) | member
}

/// Broadcast id of a membership-sync frame sent by `member`.
#[must_use]
pub fn sync_id(member: MemberId) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    SYNC_TAG | member
}

/// Broadcast id of a link-level ack frame sent by `member`.
#[must_use]
pub fn ack_id(member: MemberId) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    ACK_TAG | member
}

/// Broadcast id of an anti-entropy summary frame sent by `member`.
#[must_use]
pub fn summary_id(member: MemberId) -> u64 {
    debug_assert!(member < MAX_MEMBERS);
    SUMMARY_TAG | member
}

/// `true` for ids whose tag marks runtime control traffic (as opposed to
/// application data from [`lhg_net::fifo::fifo_id`]).
#[must_use]
pub fn is_control_id(broadcast_id: u64) -> bool {
    broadcast_id & lhg_net::wirecost::CLASS_TAG_MASK != 0
}

/// Serializes an overlay's membership for a sync reply: constraint code,
/// k, member count, then the member ids **in the serving replica's order**
/// so [`lhg_core::overlay::DynamicOverlay::from_parts`] reproduces the
/// identical graph-position mapping.
#[must_use]
pub fn encode_membership(overlay: &DynamicOverlay) -> Bytes {
    let members = overlay.members();
    let mut buf = BytesMut::with_capacity(2 + 4 + members.len() * 8);
    buf.put_u8(match overlay.constraint() {
        Constraint::KTree => 0,
        Constraint::KDiamond => 1,
        Constraint::Jd => 2,
    });
    buf.put_u8(overlay.k() as u8);
    buf.put_u32(members.len() as u32);
    for &m in members {
        buf.put_u64(m);
    }
    buf.freeze()
}

/// Version byte of the SYNC snapshot's Bracha-summary extension. A legacy
/// snapshot is exactly the membership block ([`encode_membership`]) and
/// carries no byte here; an extended snapshot appends this byte plus an
/// [`lhg_byzantine::encode_summaries`] block.
pub const SYNC_SNAPSHOT_VERSION: u8 = 1;

/// A 32-bit crash/join wave nonce: the member's cluster-global life number
/// in the high 16 bits, its per-life wave sequence in the low 16. Lives
/// are allocated once per (re)join by the cluster, so nonces stay unique
/// across kill/rejoin cycles until the life counter itself wraps at
/// 2^16 — far beyond the dedup set's eviction horizon (see the
/// wave-nonce property tests).
#[must_use]
pub fn wave_nonce(life: u32, seq: u16) -> u32 {
    (life << 16) | u32::from(seq)
}

/// Serializes a full SYNC snapshot: the membership block, and — when the
/// serving node runs Byzantine broadcast and has per-instance state — a
/// versioned extension of its Bracha catch-up summaries. With no
/// summaries the encoding is **byte-identical** to [`encode_membership`],
/// so non-Byzantine peers and old nodes interoperate unchanged.
#[must_use]
pub fn encode_sync_snapshot(overlay: &DynamicOverlay, summaries: &[InstanceSummary]) -> Bytes {
    let membership = encode_membership(overlay);
    if summaries.is_empty() {
        return membership;
    }
    let body = lhg_byzantine::encode_summaries(summaries);
    let mut buf = BytesMut::with_capacity(membership.len() + 1 + body.len());
    buf.put_slice(&membership);
    buf.put_u8(SYNC_SNAPSHOT_VERSION);
    buf.put_slice(&body);
    buf.freeze()
}

/// Parses a SYNC snapshot: a bare membership block (legacy — empty
/// summary list) or a membership block followed by the versioned summary
/// extension. `None` on any malformation, never a panic.
#[must_use]
pub fn decode_sync_snapshot(
    payload: &Bytes,
) -> Option<(Constraint, usize, Vec<MemberId>, Vec<InstanceSummary>)> {
    let b = payload.as_ref();
    if b.len() < 6 {
        return None;
    }
    let count = u32::from_be_bytes(b[2..6].try_into().ok()?) as usize;
    let mlen = count.checked_mul(8).and_then(|m| m.checked_add(6))?;
    if b.len() < mlen {
        return None;
    }
    let membership = Bytes::copy_from_slice(&b[..mlen]);
    let (constraint, k, members) = decode_membership(&membership)?;
    let rest = &b[mlen..];
    let summaries = if rest.is_empty() {
        Vec::new()
    } else if rest[0] == SYNC_SNAPSHOT_VERSION {
        lhg_byzantine::decode_summaries(&rest[1..])?
    } else {
        return None;
    };
    Some((constraint, k, members, summaries))
}

/// Parses an [`encode_membership`] payload; `None` on any malformation.
#[must_use]
pub fn decode_membership(payload: &Bytes) -> Option<(Constraint, usize, Vec<MemberId>)> {
    let b = payload.as_ref();
    if b.len() < 6 {
        return None;
    }
    let constraint = match b[0] {
        0 => Constraint::KTree,
        1 => Constraint::KDiamond,
        2 => Constraint::Jd,
        _ => return None,
    };
    let k = b[1] as usize;
    let count = u32::from_be_bytes(b[2..6].try_into().ok()?) as usize;
    if b.len() != 6 + count * 8 {
        return None;
    }
    let members = (0..count)
        .map(|i| u64::from_be_bytes(b[6 + i * 8..14 + i * 8].try_into().unwrap()))
        .collect();
    Some((constraint, k, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_net::fifo::fifo_id;

    #[test]
    fn tags_round_trip_through_classify() {
        assert_eq!(classify(hello_id(7)), FrameKind::Hello(7));
        assert_eq!(classify(heartbeat_id(0)), FrameKind::Heartbeat(0));
        assert_eq!(classify(crash_id(11, 0)), FrameKind::Crash(11));
        assert_eq!(classify(join_id(5, 0)), FrameKind::Join(5));
        assert_eq!(classify(sync_id(3)), FrameKind::Sync(3));
        assert_eq!(classify(ack_id(9)), FrameKind::Ack(9));
        assert_eq!(classify(summary_id(2)), FrameKind::Summary(2));
    }

    #[test]
    fn ids_with_two_class_bits_are_malformed_not_data() {
        // Regression: the old private mask matched each tag alone, so a
        // two-bit id fell through to `Data` and could be delivered to the
        // application while wire accounting booked the same frame as byz.
        for id in [
            HELLO_TAG | HEARTBEAT_TAG | 4,
            CRASH_TAG | JOIN_TAG | 1,
            BYZ_TAG | ACK_TAG,
            SUMMARY_TAG | SYNC_TAG | fifo_id(2, 9),
        ] {
            assert_eq!(classify(id), FrameKind::Malformed, "{id:#x}");
            assert_eq!(hello_peer(id), None);
            assert!(is_control_id(id));
        }
        assert_eq!(hello_peer(hello_id(7)), Some(7));
        assert_eq!(hello_peer(heartbeat_id(7)), None);
        // A hello with nonce bits set claims an out-of-range member.
        assert!(hello_peer(HELLO_TAG | (1 << 30) | 7).unwrap() >= MAX_MEMBERS);
    }

    #[test]
    fn fifo_data_ids_stay_untagged() {
        let id = fifo_id((MAX_MEMBERS - 1) as u32, u32::MAX);
        assert_eq!(classify(id), FrameKind::Data);
        assert_eq!(classify(0), FrameKind::Data);
        assert!(!is_control_id(id));
        assert!(is_control_id(join_id(0, 0)));
        assert!(is_control_id(crash_id(0, 0)));
    }

    #[test]
    fn byz_gossip_ids_classify_as_byz() {
        use lhg_byzantine::frame::{gossip_frame_id, GossipKind};
        use lhg_net::message::ByzTag;

        let id = gossip_frame_id(
            GossipKind::Echo,
            3,
            ByzTag {
                origin: 1,
                nonce: 0x1000,
            },
            0xabcd,
        );
        assert_eq!(classify(id), FrameKind::Byz);
        assert!(is_control_id(id));
        // Byz ids and wave ids can never collide: the full 32-bit wave
        // nonce tops out at bit 55, below BYZ_TAG.
        assert_eq!(classify(crash_id(4, u32::MAX)), FrameKind::Crash(4));
        assert_eq!(classify(join_id(4, u32::MAX)), FrameKind::Join(4));
        // Nor can max-member fifo data ids reach bit 56.
        assert_ne!(
            classify(fifo_id((MAX_MEMBERS - 1) as u32, u32::MAX)),
            FrameKind::Byz
        );
    }

    #[test]
    fn distinct_members_get_distinct_control_ids() {
        assert_ne!(crash_id(1, 0), crash_id(2, 0));
        assert_ne!(crash_id(1, 0), heartbeat_id(1));
        assert_ne!(heartbeat_id(1), hello_id(1));
        assert_ne!(join_id(1, 0), crash_id(1, 0));
        assert_ne!(sync_id(1), join_id(1, 0));
        assert_ne!(ack_id(1), sync_id(1));
        assert_ne!(summary_id(1), ack_id(1));
        assert_ne!(ack_id(1), ack_id(2));
    }

    #[test]
    fn wave_nonces_make_fresh_ids_that_classify_identically() {
        // Distinct waves for the same member never collide (stale-copy
        // immunity) and never leak into the member or tag bits.
        assert_ne!(crash_id(4, 1), crash_id(4, 2));
        assert_ne!(join_id(4, 1), join_id(4, 2));
        assert_eq!(classify(crash_id(4, u32::MAX)), FrameKind::Crash(4));
        assert_eq!(
            classify(join_id((MAX_MEMBERS - 1) as MemberId, u32::MAX)),
            FrameKind::Join((MAX_MEMBERS - 1) as MemberId)
        );
    }

    #[test]
    fn membership_codec_round_trips() {
        use lhg_core::overlay::DynamicOverlay;
        use lhg_core::Constraint;

        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        let _ = o.crash_many(&[2, 9]).unwrap();
        let payload = encode_membership(&o);
        let (constraint, k, members) = decode_membership(&payload).unwrap();
        assert_eq!(constraint, Constraint::KDiamond);
        assert_eq!(k, 3);
        assert_eq!(members, o.members());
        let replica = DynamicOverlay::from_parts(constraint, k, members).unwrap();
        assert_eq!(replica.links(), o.links());
    }

    #[test]
    fn membership_decode_rejects_malformed_payloads() {
        use bytes::Bytes;

        assert!(decode_membership(&Bytes::new()).is_none());
        assert!(decode_membership(&Bytes::from_static(&[9, 3, 0, 0, 0, 0])).is_none());
        // Truncated member list.
        assert!(decode_membership(&Bytes::from_static(&[0, 3, 0, 0, 0, 2, 0, 0])).is_none());
    }

    #[test]
    fn sync_snapshot_without_summaries_is_byte_identical_to_legacy() {
        use lhg_core::overlay::DynamicOverlay;
        use lhg_core::Constraint;

        let o = DynamicOverlay::bootstrap(Constraint::KTree, 10, 3).unwrap();
        let snap = encode_sync_snapshot(&o, &[]);
        assert_eq!(snap, encode_membership(&o), "non-byz wire unchanged");
        // And a legacy membership-only payload decodes with no summaries.
        let (constraint, k, members, summaries) = decode_sync_snapshot(&snap).unwrap();
        assert_eq!((constraint, k), (Constraint::KTree, 3));
        assert_eq!(members, o.members());
        assert!(summaries.is_empty());
    }

    #[test]
    fn sync_snapshot_round_trips_with_summaries() {
        use lhg_byzantine::{digest, InstanceSummary, Phase};
        use lhg_core::overlay::DynamicOverlay;
        use lhg_core::Constraint;
        use lhg_net::message::ByzTag;

        let o = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        let items = vec![
            InstanceSummary {
                tag: ByzTag {
                    origin: 2,
                    nonce: 7,
                },
                phase: Phase::Delivered,
                digest: digest(b"v"),
                payload: Bytes::from_static(b"v"),
            },
            InstanceSummary {
                tag: ByzTag {
                    origin: 5,
                    nonce: 9,
                },
                phase: Phase::Readied,
                digest: 11,
                payload: Bytes::new(),
            },
        ];
        let snap = encode_sync_snapshot(&o, &items);
        let (constraint, k, members, summaries) = decode_sync_snapshot(&snap).unwrap();
        assert_eq!((constraint, k), (Constraint::KDiamond, 3));
        assert_eq!(members, o.members());
        assert_eq!(summaries, items);
        // The membership prefix still decodes standalone for legacy
        // readers that check exact length — by failing cleanly, not by
        // mis-parsing.
        assert!(decode_membership(&snap).is_none());
    }

    #[test]
    fn sync_snapshot_rejects_malformed_extensions() {
        use lhg_core::overlay::DynamicOverlay;
        use lhg_core::Constraint;

        let o = DynamicOverlay::bootstrap(Constraint::KTree, 8, 3).unwrap();
        let good = encode_membership(&o);
        // Unknown version byte.
        let mut bad = good.to_vec();
        bad.push(9);
        assert!(decode_sync_snapshot(&Bytes::from(bad)).is_none());
        // Version byte with truncated summary block.
        let mut bad = good.to_vec();
        bad.push(SYNC_SNAPSHOT_VERSION);
        bad.extend_from_slice(&[0, 0, 0]);
        assert!(decode_sync_snapshot(&Bytes::from(bad)).is_none());
        assert!(decode_sync_snapshot(&Bytes::new()).is_none());
    }

    mod wave_nonce_props {
        //! The wave-nonce life allocation contract: `life << 16 | seq`
        //! stays globally unique across repeated kill/rejoin cycles of the
        //! same member — every rejoin gets a fresh cluster-global life, so
        //! no two lives ever reuse a nonce — up to the documented 16-bit
        //! life horizon, where the space wraps (pinned below).

        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Distinct (life, seq) pairs within the 16-bit life horizon
            /// map to distinct nonces: no wave of any life collides with
            /// any wave of any other life.
            #[test]
            fn nonces_unique_across_lives_and_seqs(
                life_a in 0u32..(1 << 16),
                life_b in 0u32..(1 << 16),
                seq_a in any::<u16>(),
                seq_b in any::<u16>(),
            ) {
                if (life_a, seq_a) != (life_b, seq_b) {
                    prop_assert_ne!(wave_nonce(life_a, seq_a), wave_nonce(life_b, seq_b));
                }
            }

            /// A rejoin (life+1) never reuses any nonce of the previous
            /// life, whatever the two wave sequences were.
            #[test]
            fn rejoin_life_never_reuses_prior_waves(
                life in 0u32..((1 << 16) - 1),
                seq_old in any::<u16>(),
                seq_new in any::<u16>(),
            ) {
                prop_assert_ne!(
                    wave_nonce(life, seq_old),
                    wave_nonce(life + 1, seq_new)
                );
            }

            /// The documented wraparound edge: lives exactly 2^16 apart
            /// alias (the shift drops the high bits). This is the bounded
            /// uniqueness window — 65536 lives of one cluster — far beyond
            /// the seen-set's 2^20-frame eviction horizon, so an aliased
            /// stale wave would have been evicted long before.
            #[test]
            fn life_counter_wraps_at_the_16_bit_edge(
                life in 0u32..(1 << 16),
                seq in any::<u16>(),
            ) {
                prop_assert_eq!(
                    wave_nonce(life, seq),
                    wave_nonce(life.wrapping_add(1 << 16), seq)
                );
                // And the crash/join ids built from aliased nonces collide
                // too — documenting that the wire gives no extra slack.
                prop_assert_eq!(
                    crash_id(3, wave_nonce(life, seq)),
                    crash_id(3, wave_nonce(life.wrapping_add(1 << 16), seq))
                );
            }
        }
    }

    mod reliable_frames {
        //! Property tests for the reliable-layer frames: ack/NACK and
        //! anti-entropy summary payloads must survive the payload codec,
        //! the full [`Message`] frame codec, and classification — and
        //! legacy frames (no extension block) must keep decoding as
        //! before, since a reliable node can receive them from a peer
        //! that never stamped a link sequence number.

        use super::*;
        use lhg_net::message::Message;
        use lhg_net::reliable::{MAX_NACKS, MAX_SUMMARY_IDS};
        use proptest::prelude::*;

        fn arb_member() -> impl Strategy<Value = MemberId> {
            0..MAX_MEMBERS
        }

        proptest! {
            #[test]
            fn ack_payloads_round_trip(
                member in arb_member(),
                cum in any::<u64>(),
                nacks in proptest::collection::vec(any::<u64>(), 0..MAX_NACKS),
            ) {
                let msg = Message::new(
                    ack_id(member),
                    member as u32,
                    encode_ack_payload(cum, &nacks),
                );
                let decoded = Message::decode(msg.encode()).expect("frame decodes");
                prop_assert_eq!(classify(decoded.broadcast_id), FrameKind::Ack(member));
                let (got_cum, got_nacks) =
                    decode_ack_payload(decoded.payload).expect("payload decodes");
                prop_assert_eq!(got_cum, cum);
                prop_assert_eq!(got_nacks, nacks);
            }

            #[test]
            fn summary_payloads_round_trip(
                member in arb_member(),
                pull in any::<bool>(),
                ids in proptest::collection::vec(any::<u64>(), 0..MAX_SUMMARY_IDS),
            ) {
                let msg = Message::new(
                    summary_id(member),
                    member as u32,
                    encode_summary_payload(pull, &ids),
                );
                let decoded = Message::decode(msg.encode()).expect("frame decodes");
                prop_assert_eq!(classify(decoded.broadcast_id), FrameKind::Summary(member));
                let (got_pull, got_ids) =
                    decode_summary_payload(decoded.payload).expect("payload decodes");
                prop_assert_eq!(got_pull, pull);
                prop_assert_eq!(got_ids, ids);
            }

            /// Oversized NACK / id lists are truncated by the encoder, not
            /// rejected by the decoder — a sender with a huge hole list
            /// still produces a valid frame carrying the head of it.
            #[test]
            fn oversized_lists_encode_to_valid_truncated_frames(
                cum in any::<u64>(),
                extra in 1usize..40,
            ) {
                let nacks: Vec<u64> = (0..(MAX_NACKS + extra) as u64).collect();
                let (got_cum, got_nacks) =
                    decode_ack_payload(encode_ack_payload(cum, &nacks)).expect("decodes");
                prop_assert_eq!(got_cum, cum);
                prop_assert_eq!(got_nacks.as_slice(), &nacks[..MAX_NACKS]);

                let ids: Vec<u64> = (0..(MAX_SUMMARY_IDS + extra) as u64).collect();
                let (_, got_ids) =
                    decode_summary_payload(encode_summary_payload(true, &ids)).expect("decodes");
                prop_assert_eq!(got_ids.as_slice(), &ids[..MAX_SUMMARY_IDS]);
            }

            /// A pre-reliable peer's frame — no extension block at all —
            /// must decode as legacy (`link_seq = None`) and classify by
            /// tag exactly as a stamped frame would.
            #[test]
            fn legacy_unstamped_frames_classify_unchanged(
                member in arb_member(),
                cum in any::<u64>(),
            ) {
                let msg = Message::new(
                    heartbeat_id(member),
                    member as u32,
                    encode_ack_payload(cum, &[]),
                );
                // `Message::new` emits no extension when trace and
                // link_seq are both unset, which is byte-identical to the
                // legacy encoding.
                prop_assert!(msg.trace.is_none() && msg.link_seq.is_none());
                let decoded = Message::decode(msg.encode()).expect("legacy frame decodes");
                prop_assert_eq!(decoded.link_seq, None);
                prop_assert_eq!(
                    classify(decoded.broadcast_id),
                    FrameKind::Heartbeat(member)
                );

                // And a stamped copy of the same frame still classifies
                // identically: the link seq rides the extension block,
                // never the broadcast id.
                let stamped = msg.with_link_seq(7);
                let decoded = Message::decode(stamped.encode()).expect("stamped frame decodes");
                prop_assert_eq!(decoded.link_seq, stamped.link_seq);
                prop_assert_eq!(
                    classify(decoded.broadcast_id),
                    FrameKind::Heartbeat(member)
                );
            }

            /// Malformed reliable payloads never panic the decoders.
            #[test]
            fn malformed_payloads_are_rejected_not_panicked(
                raw in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let bytes = Bytes::from(raw);
                // Either decode succeeds with consistent lengths or
                // returns None — both fine; panics are the only failure.
                if let Some((_, nacks)) = decode_ack_payload(bytes.clone()) {
                    prop_assert!(nacks.len() <= MAX_NACKS);
                }
                if let Some((_, ids)) = decode_summary_payload(bytes) {
                    prop_assert!(ids.len() <= MAX_SUMMARY_IDS);
                }
            }
        }
    }
}
