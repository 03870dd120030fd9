//! What a hostile `VOTES` frame can make its receiver allocate, measured.
//!
//! A frame's lengths come off the wire. The decoder checks each one against
//! what the roster can need *before* it reserves anything for it, so a
//! frame that is truncated, padded or declares an oversized witness set is
//! refused having cost at most one refused entry's worth of memory — never
//! a buffer sized by the attacker.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use lhg_byzantine::{VoteEntry, VotesFrame, WitnessSet};
use lhg_net::message::{ByzTag, Message};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
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

/// The largest single allocation `f` performs, in bytes.
fn largest_alloc_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Relaxed);
    let out = f();
    (out, LARGEST.load(Relaxed))
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
        let (decoded, largest) = largest_alloc_in(|| VotesFrame::from_message(msg, ROSTER));
        assert!(decoded.is_none(), "{what} must not decode");
        assert!(largest <= HONEST, "{what}: one allocation of {largest} B");
    }
    // The honest frame decodes within the same budget.
    let (decoded, largest) = largest_alloc_in(|| VotesFrame::from_message(&good, ROSTER));
    assert!(decoded.is_some() && largest <= HONEST, "{largest} B");
    // And a bound below the honest frame's highest id refuses it unread.
    let (decoded, largest) = largest_alloc_in(|| VotesFrame::from_message(&good, 8));
    assert!(decoded.is_none() && largest == 0, "{largest} B");
}
