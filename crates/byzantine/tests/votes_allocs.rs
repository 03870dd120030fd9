//! What the vote exchange allocates, measured.
//!
//! * A hostile `VOTES` frame. Its lengths come off the wire: the decoder
//!   checks each one against what the roster can need *before* it reserves
//!   anything for it, so a frame that is truncated, padded or declares an
//!   oversized witness set is refused having cost at most one refused
//!   entry's worth of memory — never a buffer sized by the attacker — and
//!   nothing at all when it is read into a frame an honest one has used.
//! * The steady state. Once an instance has warmed the buffers, a `VOTES`
//!   frame costs its receiver no allocation, and its sender none either once
//!   the driver has dropped the link's previous frame: the next is encoded
//!   into that frame's buffer. What else an instance allocates is its
//!   engine state.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`). It counts per thread, so the tests may run
//! side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use lhg_byzantine::{
    BrachaConfig, ByzDelivery, VoteEntry, VoteExchange, VotesFrame, WitnessSet, VOTES_ID,
};
use lhg_net::codec::{write_frame, FrameDecoder, MAX_FRAME_LEN};
use lhg_net::message::{ByzTag, Message};
use lhg_net::reliable::Sends;
use lhg_net::seen::SeenSet;

thread_local! {
    /// This thread's allocations, and the largest, in bytes.
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    COUNT.set(COUNT.get() + 1);
    LARGEST.set(LARGEST.get().max(size));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only const-initialised thread-locals with no destructor,
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(old, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates on this thread: how many times, and the largest
/// single allocation in bytes.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.set(0);
    LARGEST.set(0);
    let out = f();
    (out, COUNT.get(), LARGEST.get())
}

const ROSTER: usize = 16;
/// Room for the entries of an honest frame (`Vec<VoteEntry>` grows by
/// doubling from four) — nothing an attacker's length field scales.
const HONEST: usize = 4 * std::mem::size_of::<VoteEntry>();

#[test]
fn a_refused_votes_frame_allocates_nothing_its_lengths_asked_for() {
    let ids = |ids: &[u32]| ids.iter().copied().collect::<WitnessSet>();
    let good = VotesFrame::from(vec![VoteEntry {
        tag: ByzTag {
            origin: 1,
            nonce: 7,
        },
        digest: 42,
        full: true,
        want_payload: false,
        echo: ids(&[0, 3, 15]),
        ready: ids(&[2]),
    }])
    .to_message(1);
    let with_payload = |payload: Vec<u8>| Message {
        payload: Bytes::from(payload),
        ..good.clone()
    };

    // The echo set's length field sits right after the 4-byte frame header
    // and the 21-byte entry header.
    let echo_len = 4 + 21;
    let mut oversized = good.payload.to_vec();
    oversized[echo_len..echo_len + 2].copy_from_slice(&u16::MAX.to_be_bytes());
    oversized.resize(echo_len + 2 + usize::from(u16::MAX) + 2, 0xFF); // the bytes are even there
    let mut many = good.payload.to_vec();
    many[2..4].copy_from_slice(&u16::MAX.to_be_bytes());
    let mut trailing = good.payload.to_vec();
    trailing.extend([0; 64]);
    let hostile = [
        ("oversized witness set", with_payload(oversized)),
        ("65,535 promised entries", with_payload(many)),
        ("trailing garbage", with_payload(trailing)),
        (
            "truncated",
            with_payload(good.payload[..good.payload.len() - 1].to_vec()),
        ),
    ];
    for (what, msg) in &hostile {
        let (decoded, _, largest) = allocs_in(|| VotesFrame::from_message(msg, ROSTER));
        assert!(decoded.is_none(), "{what} must not decode");
        assert!(largest <= HONEST, "{what}: one allocation of {largest} B");
    }
    // The honest frame decodes within the same budget.
    let (decoded, _, largest) = allocs_in(|| VotesFrame::from_message(&good, ROSTER));
    assert!(decoded.is_some() && largest <= HONEST, "{largest} B");
    // And a bound below the honest frame's highest id refuses it unread.
    let (decoded, _, largest) = allocs_in(|| VotesFrame::from_message(&good, 8));
    assert!(decoded.is_none() && largest == 0, "{largest} B");

    // Read into a frame that has held an honest one, as the exchange reads
    // every frame, the hostile ones cost nothing at all — and neither does
    // the next honest one.
    let mut inbox = VotesFrame::default();
    assert!(inbox.read_from(&good, ROSTER));
    for (what, msg) in &hostile {
        let (read, count, _) = allocs_in(|| inbox.read_from(msg, ROSTER));
        assert!(!read, "{what} must not decode");
        assert_eq!(count, 0, "{what}: {count} allocations");
    }
    let (read, count, _) = allocs_in(|| inbox.read_from(&good, ROSTER));
    assert!(read && count == 0, "{count} allocations");
}

/// A complete graph of exchanges whose links are byte pipes, each frame
/// read off its pipe in the order it was written. Like a socket driver, the
/// mesh writes a frame as soon as it is sent and drops it, and each link's
/// reader is a [`FrameDecoder`]. Its own buffers are reused, so what a run
/// allocates is what the exchanges and the decoders allocate.
struct Mesh {
    nodes: Vec<(VoteExchange<u32>, SeenSet)>,
    peers: Vec<Vec<u32>>,
    /// Pipe `from * n + to`: bytes written, how many of them were read, and
    /// the reader.
    pipes: Vec<(Vec<u8>, usize, FrameDecoder)>,
    queue: VecDeque<(u32, u32)>,
    sends: Sends<u32>,
    delivered: Vec<ByzDelivery>,
    /// `VOTES` frames put on a link, and deliveries.
    votes_frames: usize,
    deliveries: usize,
}

impl Mesh {
    fn new(n: u32, f: usize) -> Self {
        let cfg = BrachaConfig::new(n as usize, f).expect("a sound view");
        Mesh {
            nodes: (0..n)
                .map(|v| (VoteExchange::new(v, cfg, 3), SeenSet::default()))
                .collect(),
            peers: (0..n)
                .map(|v| (0..n).filter(|&w| w != v).collect())
                .collect(),
            pipes: (0..n * n)
                .map(|_| (Vec::new(), 0, FrameDecoder::new(MAX_FRAME_LEN)))
                .collect(),
            queue: VecDeque::new(),
            sends: Vec::new(),
            delivered: Vec::new(),
            votes_frames: 0,
            deliveries: 0,
        }
    }

    /// Node `origin` broadcasts, and frames are handed on until none is in
    /// flight.
    fn instance(&mut self, origin: u32, nonce: u64) {
        let (x, seen) = &mut self.nodes[origin as usize];
        let peers = self.peers[origin as usize].iter().copied();
        let payload = Bytes::from_static(b"one instance");
        (x.broadcast(
            nonce,
            payload,
            seen,
            peers,
            &mut self.sends,
            &mut self.delivered,
        ))
        .expect("a sound view");
        self.post(origin);
        while let Some((from, to)) = self.queue.pop_front() {
            let n = self.nodes.len() as u32;
            let (wire, read, decoder) = &mut self.pipes[(from * n + to) as usize];
            let mut unread = &wire[*read..];
            let msg = decoder.read_from(&mut unread).expect("a frame");
            *read = wire.len() - unread.len();
            if *read == wire.len() {
                wire.clear();
                *read = 0;
            }
            let (x, seen) = &mut self.nodes[to as usize];
            let peers = self.peers[to as usize].iter().copied();
            x.on_frame(
                from,
                &msg.expect("not the end"),
                seen,
                peers,
                &mut self.sends,
                &mut self.delivered,
            );
            self.post(to);
        }
    }

    fn post(&mut self, from: u32) {
        self.deliveries += self.delivered.len();
        self.delivered.clear();
        let n = self.nodes.len() as u32;
        for (to, msg) in self.sends.drain(..) {
            self.votes_frames += usize::from(msg.broadcast_id == VOTES_ID);
            let (wire, _, _) = &mut self.pipes[(from * n + to) as usize];
            write_frame(wire, &msg).expect("a Vec takes it");
            self.queue.push_back((from, to));
        }
    }
}

#[test]
fn after_warm_up_a_sent_votes_frame_reuses_an_earlier_frames_buffer() {
    let mut mesh = Mesh::new(8, 1);
    mesh.instance(0, 1);
    assert_eq!(mesh.deliveries, 8);
    mesh.votes_frames = 0;
    let ((), allocs, _) = allocs_in(|| mesh.instance(0, 2));
    assert_eq!(mesh.deliveries, 16);
    let frames = mesh.votes_frames;
    let per_frame = allocs as f64 / frames as f64;
    // 242 frames and 35 allocations, 0.14 each: per-instance engine state,
    // the SEND bodies the engines keep, and an encode buffer only where a
    // link's last one was too small. A fresh encode buffer for every frame
    // reads 277 (1.14 each).
    assert!(
        per_frame <= 0.25,
        "{allocs} allocations for {frames} VOTES frames: {per_frame:.2} each"
    );
}
