//! Robustness tests for the wire codec: decoding must never panic, the
//! encode/decode pair must round-trip arbitrary payloads (with or without
//! the trace extension), and legacy frames must keep decoding unchanged.
//! The I/O pair is held to the same bytes: whatever `write_frame` puts on
//! a stream, however little the stream takes per call, is `encode_frame`'s
//! output and the encoding of every release before it, and `read_frame`
//! reassembles it however the stream hands it back.

use std::io::{self, IoSlice, Read, Write};
use std::num::NonZeroU64;

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

use lhg_net::codec::{
    decode_frame, encode_frame, read_frame, write_frame, CodecError, MAX_FRAME_LEN,
};
use lhg_net::fifo::{fifo_id, fifo_parts};
use lhg_net::message::{ByzTag, Message, ACK_EXT_FLAG, BYZ_TAG_LEN, TRACE_EXT_LEN};
use lhg_net::wirecost::{MessageClass, CLASS_TAG_MASK};

/// The frame encoding as it was before the codec wrote headers into stack
/// arrays: every field appended in wire order to one growing buffer.
fn reference_frame(msg: &Message) -> Vec<u8> {
    let mut body = Vec::new();
    body.put_u64(msg.broadcast_id);
    body.put_u32(msg.origin);
    body.put_u32(msg.hops);
    body.put_u32(msg.payload.len() as u32);
    body.put_slice(&msg.payload);
    let flags = u8::from(msg.trace.is_some())
        | u8::from(msg.link_seq.is_some()) << 1
        | u8::from(msg.byz.is_some()) << 2
        | u8::from(msg.link_ack.is_some()) << 3;
    if flags != 0 {
        body.put_u8(flags);
    }
    if let Some(trace_id) = msg.trace {
        body.put_u64(trace_id);
    }
    if let Some(seq) = msg.link_seq {
        body.put_u64(seq.get());
    }
    if let Some(tag) = msg.byz {
        body.put_u32(tag.origin);
        body.put_u64(tag.nonce);
    }
    if let Some(cum) = msg.link_ack {
        body.put_u64(cum.get());
    }
    let mut frame = Vec::new();
    frame.put_u32(body.len() as u32);
    frame.put_slice(&body);
    frame
}

/// A stream that takes 1..=7 bytes per call, across buffer boundaries.
#[derive(Default)]
struct Dribble {
    taken: Vec<u8>,
    calls: usize,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let room = self.calls % 7 + 1;
        self.calls += 1;
        let before = self.taken.len();
        let offered = bufs.iter().flat_map(|b| b.iter().copied());
        self.taken.extend(offered.take(room));
        Ok(self.taken.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A stream that hands its bytes back in chunks of the sizes `step` yields.
struct Chunked<F> {
    wire: Vec<u8>,
    pos: usize,
    step: F,
}

impl<F: FnMut() -> usize> Read for Chunked<F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.step)().min(buf.len()).min(self.wire.len() - self.pos);
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn sample(i: u64) -> Message {
    let msg = Message::new(i, i as u32, Bytes::from(format!("payload-{i}")));
    match i % 4 {
        0 => msg,
        1 => msg.with_link_seq(i),
        2 => msg.with_trace(i).with_byz(ByzTag {
            origin: 1,
            nonce: i,
        }),
        _ => msg.with_link_seq(i).with_link_ack(i + 1),
    }
}

fn wire_of(msgs: &[Message]) -> Vec<u8> {
    let mut wire = Vec::new();
    for m in msgs {
        write_frame(&mut wire, m).expect("a Vec takes everything");
    }
    wire
}

fn read_all(mut r: impl Read) -> io::Result<Vec<Message>> {
    let mut got = Vec::new();
    while let Some(m) = read_frame(&mut r)? {
        got.push(m);
    }
    Ok(got)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn three_literal_frames_are_what_every_release_put_on_the_wire() {
    let legacy = Message::new(0x0102_0304_0506_0708, 9, Bytes::from_static(b"hello"));
    let mut stamped = Message::new(42, 7, Bytes::from_static(b"lhg"))
        .with_trace(0xDEAD_BEEF)
        .with_link_seq(17);
    stamped.hops = 3;
    let mut full = Message::new(u64::MAX, u32::MAX, Bytes::new())
        .with_trace(1)
        .with_link_seq(u64::MAX)
        .with_byz(ByzTag {
            origin: 5,
            nonce: 0x0A0B,
        });
    full.hops = 1;
    let pinned = [
        (
            legacy,
            "00000019010203040506070800000009000000000000000568656c6c6f",
        ),
        (
            stamped,
            "00000028000000000000002a0000000700000003000000036c6867\
             0300000000deadbeef0000000000000011",
        ),
        (
            full,
            "00000031ffffffffffffffffffffffff0000000100000000\
             070000000000000001ffffffffffffffff000000050000000000000a0b",
        ),
    ];
    for (msg, want) in pinned {
        assert_eq!(hex(&encode_frame(&msg)), want);
        assert_eq!(hex(&wire_of(std::slice::from_ref(&msg))), want);
        assert_eq!(hex(&reference_frame(&msg)), want);
        assert_eq!(hex(&msg.encode()), want[8..]);
    }
}

#[test]
fn read_path_decodes_byte_at_a_time() {
    let sent: Vec<Message> = (0..4).map(sample).collect();
    let (wire, pos) = (wire_of(&sent), 0);
    let got = read_all(Chunked {
        wire,
        pos,
        step: || 1,
    })
    .expect("whole frames");
    assert_eq!(got, sent);
}

#[test]
fn read_path_decodes_split_and_merged_chunks() {
    let sent: Vec<Message> = (0..6).map(sample).collect();
    let (wire, pos) = (wire_of(&sent), 0);
    // One byte, then deterministic irregular chunks of 3..=15.
    let mut next = 1;
    let step = || {
        let now = next;
        next = now % 13 + 3;
        now
    };
    let got = read_all(Chunked { wire, pos, step }).expect("whole frames");
    assert_eq!(got, sent);
}

#[test]
fn read_path_tells_clean_eof_from_a_cut_frame_and_refuses_oversized_prefixes() {
    assert_eq!(
        read_all(io::Cursor::new(Vec::new())).expect("clean"),
        vec![]
    );
    let wire = wire_of(&[sample(1), sample(2)]);
    for cut in 1..wire.len() {
        let whole = wire_of(&[sample(1)]).len();
        let (wire, pos) = (wire[..cut].to_vec(), 0);
        match read_all(Chunked {
            wire,
            pos,
            step: || 5,
        }) {
            Ok(got) => assert_eq!((cut, got), (whole, vec![sample(1)])),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}"),
        }
    }
    // A prefix past the limit is an error before any of the body is read
    // (tests/wire_allocs.rs: and before anything is allocated for it).
    let mut huge = io::Cursor::new((MAX_FRAME_LEN as u32 + 7).to_be_bytes().to_vec());
    let err = read_frame(&mut huge).expect_err("oversized");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let inner = err.get_ref().and_then(|e| e.downcast_ref::<CodecError>());
    assert_eq!(inner, Some(&CodecError::FrameTooLarge(MAX_FRAME_LEN + 7)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn written_frames_are_the_encoded_frame_however_little_the_stream_takes(
        ids in (any::<u64>(), any::<u32>(), any::<u32>()),
        len in 0usize..=70_000,
        salt in any::<u8>(),
        exts in 0u8..16,
        ext_ids in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
        cum in any::<u64>(),
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();
        let (trace_id, seq, origin, nonce) = ext_ids;
        let msg = Message {
            broadcast_id: ids.0,
            origin: ids.1,
            hops: ids.2,
            payload: Bytes::from(payload),
            trace: (exts & 1 != 0).then_some(trace_id),
            link_seq: NonZeroU64::new(seq).filter(|_| exts & 2 != 0),
            link_ack: NonZeroU64::new(cum).filter(|_| exts & 8 != 0),
            byz: (exts & 4 != 0).then_some(ByzTag { origin, nonce }),
        };
        let frame = encode_frame(&msg);
        prop_assert_eq!(&frame[..], &reference_frame(&msg)[..]);

        let mut whole = Vec::new();
        prop_assert_eq!(write_frame(&mut whole, &msg).expect("Vec sink"), frame.len());
        prop_assert_eq!(&whole[..], &frame[..]);

        let mut dribble = Dribble::default();
        prop_assert_eq!(write_frame(&mut dribble, &msg).expect("dribble sink"), frame.len());
        prop_assert_eq!(&dribble.taken[..], &frame[..]);

        prop_assert_eq!(read_all(io::Cursor::new(whole)).expect("reads back"), vec![msg]);
    }
}

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
        acked in any::<bool>(),
        cum in any::<u64>(),
    ) {
        let msg = Message {
            broadcast_id: id,
            origin,
            hops,
            payload: Bytes::from(payload),
            trace: traced.then_some(trace_id),
            link_seq: NonZeroU64::new(seq).filter(|_| sequenced),
            link_ack: NonZeroU64::new(cum).filter(|_| acked),
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
        // Force a flag with an unknown bit: setting bit 4 keeps the full
        // range of "wrong" flags without a rejection filter (bits 0..3 are
        // the known trace, link-seq, byz and link-ack extensions).
        let flag = flag | 0x10;
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
        let mut msg = Message::new(id, 1, Bytes::from(payload))
            .with_link_seq(seq)
            .with_link_ack(seq);
        msg.hops = u32::MAX;
        let arrived = decode_frame(&encode_frame(&msg)).expect("framed encoding decodes");
        let relayed = decode_frame(&encode_frame(&arrived.forwarded())).expect("forward decodes");
        prop_assert_eq!(relayed.hops, u32::MAX);
        prop_assert_eq!((relayed.link_seq, relayed.link_ack), (None, None));
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
    fn link_ack_alone_round_trips_and_is_its_flag_and_eight_bytes(
        id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cum in 1u64..=u64::MAX,
    ) {
        let msg = Message::new(id, 3, Bytes::from(payload)).with_link_ack(cum);
        let enc = msg.encode();
        prop_assert_eq!(enc[enc.len() - 9], ACK_EXT_FLAG);
        prop_assert_eq!(&enc[enc.len() - 8..], &cum.to_be_bytes()[..]);
        prop_assert_eq!(decode_frame(&encode_frame(&msg)).expect("decodes"), msg);
    }

    #[test]
    fn link_ack_with_every_other_extension_round_trips(
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (trace_id, seq, nonce, cum) = ids;
        let msg = Message::new(9, 3, Bytes::from(payload))
            .with_trace(trace_id)
            .with_link_seq(seq | 1)
            .with_byz(ByzTag { origin: 4, nonce })
            .with_link_ack(cum | 1);
        let frame = encode_frame(&msg);
        prop_assert_eq!(&frame[..], &reference_frame(&msg)[..]);
        let decoded = decode_frame(&frame).expect("decodes");
        prop_assert_eq!(decoded.link_ack, NonZeroU64::new(cum | 1));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_link_acks_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        sequenced in any::<bool>(),
        cut in 1usize..8,
    ) {
        // Any partial ack — 1..7 of its 8 bytes missing — must fail to
        // decode rather than misparse as a shorter extension block.
        let mut msg = Message::new(5, 1, Bytes::from(payload)).with_link_ack(77);
        if sequenced {
            msg = msg.with_link_seq(3);
        }
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(enc.slice(0..enc.len() - cut)), None);
    }

    #[test]
    fn a_zero_link_ack_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        sequenced in any::<bool>(),
    ) {
        // Cumulative acks start at 1: an ack of 0 on the wire is malformed.
        let mut msg = Message::new(5, 1, Bytes::from(payload));
        if sequenced {
            msg = msg.with_link_seq(3);
        }
        let mut raw = BytesMut::from(&msg.with_link_ack(1).encode()[..]);
        let at = raw.len() - 8;
        raw[at..].copy_from_slice(&0u64.to_be_bytes());
        prop_assert_eq!(Message::decode(raw.freeze()), None);
    }

    #[test]
    fn fifo_id_round_trips(origin in any::<u32>(), seq in any::<u32>()) {
        prop_assert_eq!(fifo_parts(fifo_id(origin, seq)), (origin, seq));
    }
}
