//! Robustness tests for the wire codec: decoding must never panic, the
//! encode/decode pair must round-trip arbitrary payloads (with or without
//! the trace extension), and legacy frames must keep decoding unchanged.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

use lhg_net::codec::{decode_frame, encode_frame};
use lhg_net::fifo::{fifo_id, fifo_parts};
use lhg_net::message::{ByzTag, Message, BYZ_TAG_LEN, TRACE_EXT_LEN};
use lhg_net::wirecost::{MessageClass, CLASS_TAG_MASK};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Success or failure are both fine; panics are not.
        let _ = Message::decode(Bytes::from(raw));
    }

    #[test]
    fn encode_decode_round_trips(
        id in any::<u64>(),
        origin in any::<u32>(),
        hops in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        traced in any::<bool>(),
        trace_id in any::<u64>(),
        sequenced in any::<bool>(),
        seq in any::<u64>(),
        tagged in any::<bool>(),
        byz_origin in any::<u32>(),
        byz_nonce in any::<u64>(),
    ) {
        let msg = Message {
            broadcast_id: id,
            origin,
            hops,
            payload: Bytes::from(payload),
            trace: traced.then_some(trace_id),
            link_seq: sequenced.then_some(seq),
            byz: tagged.then_some(ByzTag { origin: byz_origin, nonce: byz_nonce }),
        };
        let decoded = Message::decode(msg.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn byz_tagged_frames_round_trip_through_codec(
        id in any::<u64>(),
        byz_origin in any::<u32>(),
        byz_nonce in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let tag = ByzTag { origin: byz_origin, nonce: byz_nonce };
        let msg = Message::new(id, 3, Bytes::from(payload)).with_byz(tag);
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame).expect("framed encoding decodes");
        prop_assert_eq!(decoded.byz, Some(tag));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn byz_truncated_tags_are_rejected(
        byz_nonce in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 1usize..BYZ_TAG_LEN,
    ) {
        // Any partial byz tag — 1..11 of its 12 bytes missing — must fail
        // to decode rather than misparse as a shorter extension.
        let msg = Message::new(5, 1, Bytes::from(payload))
            .with_byz(ByzTag { origin: 6, nonce: byz_nonce });
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(enc.slice(0..enc.len() - cut)), None);
    }

    #[test]
    fn traced_frames_round_trip_through_codec(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = Message::new(id, 3, Bytes::from(payload)).with_trace(trace_id);
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame).expect("framed encoding decodes");
        prop_assert_eq!(decoded.trace, Some(trace_id));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn legacy_frames_without_extension_still_decode(
        id in any::<u64>(),
        origin in any::<u32>(),
        hops in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Build the pre-extension wire image by hand: header + payload only.
        let mut raw = BytesMut::with_capacity(20 + payload.len());
        raw.put_u64(id);
        raw.put_u32(origin);
        raw.put_u32(hops);
        raw.put_u32(payload.len() as u32);
        raw.put_slice(&payload);
        let decoded = Message::decode(raw.freeze()).expect("legacy frame decodes");
        prop_assert_eq!(decoded.trace, None);
        prop_assert_eq!(decoded.byz, None);
        prop_assert_eq!(decoded.broadcast_id, id);
        prop_assert_eq!(decoded.payload, Bytes::from(payload));
    }

    #[test]
    fn unknown_extension_flags_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flag in any::<u8>(),
        ext_id in any::<u64>(),
    ) {
        // Force a flag with an unknown bit: setting bit 3 keeps the full
        // range of "wrong" flags without a rejection filter (bits 0..2 are
        // the known trace, link-seq and byz extensions).
        let flag = flag | 0x08;
        assert!(flag & !lhg_net::message::KNOWN_EXT_FLAGS != 0);
        let msg = Message::new(11, 2, Bytes::from(payload));
        let mut raw = BytesMut::from(&msg.encode()[..]);
        raw.put_u8(flag);
        raw.put_u64(ext_id);
        prop_assert_eq!(Message::decode(raw.freeze()), None);
    }

    #[test]
    fn truncated_encodings_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        traced in any::<bool>(),
        cut in 1usize..16,
    ) {
        let mut msg = Message::new(7, 3, Bytes::from(payload));
        if traced {
            msg = msg.with_trace(99);
        }
        let enc = msg.encode();
        // Cutting the full extension off a traced frame would yield a valid
        // legacy frame, so stop one byte short of that.
        let cut = cut.min(if traced { TRACE_EXT_LEN - 1 } else { enc.len() });
        let truncated = enc.slice(0..enc.len() - cut);
        prop_assert_eq!(Message::decode(truncated), None);
    }

    #[test]
    fn max_hops_frames_decode_forward_and_reencode(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        seq in any::<u64>(),
    ) {
        // What a relay does to a frame a traitor stamped with hops = MAX:
        // decode, forward, re-encode. The hop count must stay saturated
        // (never wrap back under the hop bound) and nothing may panic.
        let mut msg = Message::new(id, 1, Bytes::from(payload)).with_link_seq(seq);
        msg.hops = u32::MAX;
        let arrived = decode_frame(&encode_frame(&msg)).expect("framed encoding decodes");
        let relayed = decode_frame(&encode_frame(&arrived.forwarded())).expect("forward decodes");
        prop_assert_eq!(relayed.hops, u32::MAX);
        prop_assert_eq!(relayed.link_seq, None);
        prop_assert_eq!(relayed.payload, msg.payload);
    }

    #[test]
    fn class_survives_the_codec_and_two_tag_bits_never_classify(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // Whatever id a peer stamps, the frame decodes to the same id, and
        // the strict classifier names a class exactly when at most one
        // class bit is set — a two-bit id is never data (nor anything).
        let arrived = decode_frame(&encode_frame(&Message::new(id, 1, Bytes::from(payload))))
            .expect("framed encoding decodes");
        prop_assert_eq!(arrived.broadcast_id, id);
        let strict = MessageClass::classify_strict(arrived.broadcast_id);
        prop_assert_eq!(strict.is_some(), (id & CLASS_TAG_MASK).count_ones() <= 1);
        prop_assert_eq!(strict == Some(MessageClass::Data), id & CLASS_TAG_MASK == 0);
    }

    #[test]
    fn fifo_id_round_trips(origin in any::<u32>(), seq in any::<u32>()) {
        prop_assert_eq!(fifo_parts(fifo_id(origin, seq)), (origin, seq));
    }
}
