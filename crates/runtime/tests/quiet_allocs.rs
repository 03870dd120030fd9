//! What a quiet node costs, measured with a counting allocator: nothing,
//! once it is warm.
//!
//! A node of a settled cluster with no broadcast in flight still runs every
//! duty on every tick: the detector's sweep and gauges, the membership
//! machine's share, the reconcile pass, the summary round, the idle-link
//! heartbeats. Its peers' heartbeats each pass through dispatch, where
//! membership hears every frame first. The sinks all of it writes to are
//! reused, so after a warm-up none of it allocates.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while a window is open. It counts the test's
//! own thread only: the harness's main thread sometimes allocates while
//! it waits (4 allocations in about one run in ten when it was counted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::message::Message;
use lhg_runtime::core::{Boot, BootOpts, Event, NodeCore};
use lhg_runtime::{wire, MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread: the only one whose allocations count.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only a const-initialized thread local and an atomic,
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Member 0 of K-DIAMOND(16, 3), every overlay link up, a heartbeat from
/// each neighbor every 5 ms, ticked only at the deadlines it names: 1 s of
/// virtual time to warm up, then 10 s in which every `handle` and `tick`
/// is counted.
#[test]
fn a_quiet_node_allocates_nothing_per_tick_once_warm() {
    COUNTED.with(|c| c.set(true));
    let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 16, 3).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let links = overlay.neighbors_of(0).expect("member");
    let recorder = Arc::new(FlightRecorder::with_capacity(0, 1 << 10, Instant::now()));
    let metrics = Arc::new(MetricsRegistry::new());
    let config = RuntimeConfig::default();
    let boot = Boot {
        id: 0,
        overlay,
        roster,
        opts: BootOpts::default(),
    };
    let m = Arc::clone(&metrics);
    let mut core = NodeCore::new(boot, &config, m, recorder, 0).expect("boots");
    let mut out = Vec::with_capacity(64);
    for &peer in &links {
        core.handle(Event::LinkUp { peer, dialed: true }, 0, &mut out);
    }
    let beats: Vec<(MemberId, Message)> = (links.iter())
        .map(|&p| {
            (
                p,
                Message::new(wire::heartbeat_id(p), p as u32, Bytes::new()),
            )
        })
        .collect();
    let (warm, end) = (1_000_000, 11_000_000);
    let (mut beat, mut ticks, mut warm_allocs, mut allocs) = (0, 0, 0, 0);
    while beat <= end {
        let due = core.next_deadline();
        let before = ALLOCS.load(Relaxed);
        out.clear();
        if due <= beat {
            core.tick(due, &mut out);
            ticks += u64::from(due >= warm);
        } else {
            for (from, msg) in &beats {
                let (from, msg) = (*from, msg.clone());
                core.handle(Event::Frame { from, msg }, beat, &mut out);
            }
            beat += 5_000;
        }
        let spent = ALLOCS.load(Relaxed) - before;
        if due.min(beat) >= warm {
            allocs += spent;
        } else {
            warm_allocs += spent;
        }
    }
    assert!(ticks >= 400, "{ticks} ticks in the window");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {ticks} quiet ticks ({warm_allocs} while warming up)"
    );
    let suspects = metrics.counter("runtime.suspects").get();
    assert_eq!(suspects, 0, "a beating neighbor was suspected");
}
