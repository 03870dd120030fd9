//! What looking up the eager tree costs, measured with a counting
//! allocator: nothing, once the view is installed.
//!
//! * [`TreeChildren`] searches each origin's BFS tree on its first lookup,
//!   into room [`TreeChildren::reset`] reserved for every origin, so every
//!   lookup — the first for an origin included — allocates nothing. At
//!   n = 256 a fresh search per lookup, into a fresh parent table, queue
//!   and child list, made four allocations each.
//! * A warm [`NodeCore`] relays a first-seen `SEND` down the origin's tree
//!   through a reused relay buffer: the lookup and the relay set cost
//!   nothing, and neither does the rest of the relay on a node without a
//!   byzantine setup. A benchmark that boots a fresh cluster for every few
//!   instances pays a first lookup per origin about once per delivery, so
//!   an allocating lookup shows up there directly.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_byzantine::{digest, GossipFrame, GossipKind};
use lhg_core::overlay::{DynamicOverlay, MemberId, TreeChildren};
use lhg_core::Constraint;
use lhg_net::message::{ByzTag, Message};
use lhg_runtime::core::{Action, BootOpts, Event, NodeCore};
use lhg_runtime::{MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
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

/// `f`'s result and the allocations it performed.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn the_eager_tree_lookup_allocates_nothing_once_the_view_is_installed() {
    tree_lookups_allocate_nothing();
    a_relayed_send_allocates_nothing();
}

/// Every origin's first lookup at n = 256, on every tenth member.
fn tree_lookups_allocate_nothing() {
    let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 256, 3).expect("overlay");
    let mut table = TreeChildren::default();
    for me in (0..256).step_by(10) {
        table.reset(&overlay, me);
        let want: Vec<_> = (0..256).map(|o| overlay.tree_children(o, me)).collect();
        let (kids, all) = allocs_in(|| {
            (0..256)
                .map(|o| table.get(&overlay, o).map_or(0, <[MemberId]>::len))
                .sum::<usize>()
        });
        assert_eq!(all, 0, "member {me}: TreeChildren::get");
        let got = want.iter().map(|w| w.as_ref().map_or(0, Vec::len)).sum();
        assert_eq!(kids, got, "member {me}: the children tree_children names");
        for (o, w) in want.iter().enumerate() {
            assert_eq!(table.get(&overlay, o as MemberId), w.as_deref());
        }
    }
}

fn send(origin: MemberId, nonce: u64) -> Message {
    let payload = Bytes::from_static(&[7; 1024]);
    let frame = GossipFrame {
        kind: GossipKind::Send,
        witness: origin as u32,
        tag: ByzTag {
            origin: origin as u32,
            nonce,
        },
        digest: digest(&payload),
        payload,
    };
    frame.to_message()
}

/// Member 0 of K-DIAMOND(16, 3), links up, no byzantine setup: a warm-up
/// of `SEND`s from one origin, then one first-seen `SEND` from each other
/// origin — each the first lookup of its tree — with the allocations of
/// each `handle` counted.
fn a_relayed_send_allocates_nothing() {
    let n = 16;
    let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, n, 3).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let links = overlay.neighbors_of(0).expect("member");
    let trees: Vec<_> = (0..n as MemberId)
        .map(|o| overlay.tree_children(o, 0).expect("placed"))
        .collect();
    let recorder = Arc::new(FlightRecorder::with_capacity(0, 1 << 10, Instant::now()));
    let metrics = Arc::new(MetricsRegistry::new());
    let config = RuntimeConfig::default();
    let mut core = NodeCore::new(
        0,
        overlay,
        roster,
        &config,
        metrics,
        recorder,
        BootOpts::default(),
        0,
    )
    .expect("boots");
    let mut out = Vec::with_capacity(64);
    for &peer in &links {
        core.handle(Event::LinkUp { peer, dialed: true }, 0, &mut out);
    }
    let from = links[0];
    // Enough ids that the dedup set does not grow in the window below.
    for nonce in 0..70 {
        out.clear();
        core.handle(
            Event::Frame {
                from,
                msg: send(1, nonce),
            },
            1_000,
            &mut out,
        );
    }
    for origin in 2..n as MemberId {
        let msg = send(origin, 0);
        out.clear();
        let ((), all) = allocs_in(|| core.handle(Event::Frame { from, msg }, 2_000, &mut out));
        assert_eq!(all, 0, "a first-seen SEND from origin {origin}");
        let relayed: Vec<MemberId> = (out.iter())
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        let kids = &trees[origin as usize];
        let want: Vec<MemberId> = links
            .iter()
            .copied()
            .filter(|p| *p != from && kids.contains(p))
            .collect();
        assert_eq!(relayed, want, "origin {origin}: down its tree only");
    }
}
