//! Who owns the bytes, measured: a payload crosses the codec without being
//! copied. Writing a frame allocates nothing, reading one allocates its
//! body once, and the decoded payload — with every clone and forward of it
//! — lives inside that one allocation. And the ack that retires a frame,
//! standalone or riding on a data frame, allocates nothing at the sender:
//! once acks ride on most data frames, anything it allocated would be paid
//! per frame.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use lhg_net::codec::{read_frame, write_frame, MAX_FRAME_LEN};
use lhg_net::message::Message;
use lhg_net::reliable::{
    encode_ack_payload, DataOutcome, LinkSender, ReliableConfig, ReliableCore, ACK_TAG, SUMMARY_TAG,
};
use lhg_net::seen::SeenSet;

/// Allocations of at least this many bytes are "payload-sized".
const LARGE: usize = 1024;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LAST_LARGE_ADDR: AtomicUsize = AtomicUsize::new(0);
static LAST_LARGE_SIZE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note(ptr: *mut u8, size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Relaxed);
        LAST_LARGE_ADDR.store(ptr as usize, Relaxed);
        LAST_LARGE_SIZE.store(size, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        note(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        note(ptr, layout.size());
        ptr
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is `System.realloc`'s.
        let ptr = unsafe { System.realloc(old, layout, new_size) };
        note(ptr, new_size);
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(all, payload-sized)` allocations `f` performs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (all, large) = (ALLOCS.load(Relaxed), LARGE_ALLOCS.load(Relaxed));
    let out = f();
    (
        out,
        ALLOCS.load(Relaxed) - all,
        LARGE_ALLOCS.load(Relaxed) - large,
    )
}

#[test]
fn a_payload_is_allocated_once_per_link_crossing() {
    let payload = Bytes::from(vec![0xAB; 16 * 1024]);
    let msg = Message::new(7, 3, payload).with_trace(9).with_link_seq(1);
    let frame_len = 4 + msg.encoded_len();

    // Send: header and trailer on the stack around the shared payload.
    let mut pipe = Vec::with_capacity(2 * frame_len);
    let (n, all, _) = allocs_in(|| write_frame(&mut pipe, &msg).expect("pipe takes it"));
    assert_eq!((n, all), (frame_len, 0), "write_frame must not allocate");

    // Receive: the body, once, at its length (the reference count that
    // will share it lives in the same allocation, hence the two words).
    let (decoded, all, large) = allocs_in(|| read_frame(&mut &pipe[..]));
    let decoded = decoded.expect("reads").expect("one frame");
    assert_eq!(decoded, msg);
    assert_eq!((all, large), (1, 1), "one allocation per frame read");
    let (body, size) = (LAST_LARGE_ADDR.load(Relaxed), LAST_LARGE_SIZE.load(Relaxed));
    let counted =
        (msg.encoded_len() + 2 * size_of::<usize>()).next_multiple_of(align_of::<usize>());
    assert_eq!(size, counted);
    let at = decoded.payload.as_ptr() as usize;
    assert!(
        body <= at && at + decoded.payload.len() <= body + size,
        "the payload is a slice of the buffer the socket filled"
    );

    // Keep and relay: the store's copy, the delivered copy and one frame
    // per link, each with its own link sequence, share those bytes.
    let mut sinks: Vec<Vec<u8>> = (0..3).map(|_| Vec::with_capacity(frame_len)).collect();
    let ((stored, delivered), all, _) = allocs_in(|| {
        let forward = decoded.forwarded();
        for (seq, sink) in (100..).zip(&mut sinks) {
            write_frame(sink, &forward.clone().with_link_seq(seq)).expect("sink takes it");
        }
        (forward, decoded.clone())
    });
    assert_eq!(all, 0, "clones and forwards are reference counts");
    assert_eq!(stored.payload.as_ptr() as usize, at);
    assert_eq!(delivered.payload.as_ptr() as usize, at);
    for (seq, sink) in (100..).zip(&sinks) {
        let relayed = read_frame(&mut &sink[..]).expect("reads").expect("frame");
        assert_eq!((relayed.hops, relayed.link_seq), (1, NonZeroU64::new(seq)));
        assert_eq!(relayed.payload, msg.payload);
    }

    // A prefix past the limit is refused before it is allocated.
    let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    let (refused, _, large) = allocs_in(|| read_frame(&mut &huge[..]).is_err());
    assert!(refused);
    assert_eq!(large, 0);

    // An empty buffer owns nothing.
    let (empty, all, _) = allocs_in(|| (Bytes::new(), Bytes::from(Vec::new())));
    assert!(empty.0.is_empty() && empty.1.is_empty());
    assert_eq!(all, 0);

    clean_acks_allocate_nothing_at_the_sender();
}

/// One link's sender, then the whole data plane: a clean cumulative ack
/// retires frames without allocating, whether it came in an ack frame or
/// on a data frame.
fn clean_acks_allocate_nothing_at_the_sender() {
    let cfg = ReliableConfig::default();
    let frame = |id: u64| Message::new(id, 1, Bytes::from_static(b"payload"));

    let mut tx = LinkSender::new();
    for id in 1..=16 {
        tx.send(frame(id), &cfg, 0);
    }
    let (released, all, _) = allocs_in(|| tx.on_ack(10, &[], &cfg, 1));
    assert!(released.is_empty());
    assert_eq!((tx.in_flight(), all), (6, 0), "LinkSender::on_ack");

    // Peer 1 of a core that has sent it 16 frames and heard from it once.
    let mut core = ReliableCore::<u32>::new(cfg, 0, ACK_TAG, SUMMARY_TAG);
    let (mut seen, mut out) = (SeenSet::default(), Vec::with_capacity(64));
    for id in 1..=16 {
        seen.insert(id);
        core.originate(&frame(id), 0, [1], &mut out);
    }
    let first = frame(100).with_link_seq(1).with_link_ack(1);
    core.on_data(1, &first, &mut seen, 1, [1], &mut out);
    out.clear();

    let standalone = encode_ack_payload(8, &[]);
    let ((), all, _) = allocs_in(|| core.on_ack(1, standalone, 2, &mut out));
    assert_eq!((out.len(), all), (0, 0), "a standalone clean ack");

    // A copy of id 5 from 1 (a duplicate here) carrying 1's ack through 16.
    let riding = frame(5).with_link_seq(2).with_link_ack(16);
    let (outcome, all, _) = allocs_in(|| core.on_data(1, &riding, &mut seen, 3, [1], &mut out));
    assert_eq!(outcome, DataOutcome::Duplicate);
    assert_eq!((out.len(), all), (0, 0), "a piggybacked clean ack");
}
