//! Counting global allocator: every heap allocation of the process — the
//! in-process cluster's node threads included — bumps two relaxed atomics
//! before delegating to the system allocator.
//!
//! `allocs_per_delivery` and `alloc_bytes_per_delivery` are deltas of these
//! counters over a measured window. A `realloc` counts as one allocation of
//! the new size: that is the copy a growing buffer pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed as `#[global_allocator]` by the binary.
pub struct Counting;

fn count(size: usize) {
    // Relaxed: the counters publish no other data, they are statistics.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which always hands out
        // `System` blocks with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the two counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Reads the counters now.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations and bytes since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation() {
        // Other test threads allocate too, so the delta is a lower bound;
        // a 1 MiB + 3 buffer is far larger than anything they request.
        const SIZE: usize = (1 << 20) + 3;
        let before = AllocSnapshot::now();
        let buf: Vec<u8> = Vec::with_capacity(SIZE);
        let after = AllocSnapshot::now().since(before);
        assert_eq!(buf.capacity(), SIZE);
        assert!(after.allocs >= 1, "allocation not counted");
        assert!(after.bytes >= SIZE as u64, "bytes not counted: {after:?}");
        assert!(
            after.bytes < 2 * SIZE as u64,
            "bytes over-counted: {after:?}"
        );
    }
}
