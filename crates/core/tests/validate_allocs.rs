//! `validate` allocates per graph, not per pair: it builds one node-split
//! and one edge flow network, runs every Even pair, every target and every
//! link of P3's slow path on them, and keeps each BFS/DFS scratch buffer
//! across runs. So the count on K-DIAMOND(1024, 3) is a few dozen, set by
//! vector growth (logarithmic in n), not by the number of pairs.
//!
//! Measured on that graph: 64 allocations (bound 100). With a fresh
//! network per pair, fresh Dinic buffers per phase and the graph rebuilt
//! for each slow-path link, the same call made 8,631,430.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while the window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lhg_core::kdiamond::build_kdiamond;
use lhg_core::properties::validate;

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

#[test]
fn validating_a_1024_node_lhg_allocates_a_constant_not_per_pair() {
    let lhg = build_kdiamond(1024, 3).expect("K-DIAMOND(1024, 3) exists");
    let before = ALLOCS.load(Relaxed);
    let report = validate(lhg.graph(), 3);
    let allocs = ALLOCS.load(Relaxed) - before;
    println!("validate(K-DIAMOND(1024, 3)): {allocs} allocations");
    assert!(report.is_regular_lhg(), "{report:?}");
    assert!(allocs <= 100, "{allocs} allocations, bound 100");
}
