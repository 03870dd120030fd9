//! Delivery is a hand-off, not an archive: a node that has delivered a
//! broadcast keeps its id, not its payload. After hundreds of 32 KiB floods
//! what a cluster still holds is the bounded pull store and a few bytes of
//! history per delivery — unless somebody subscribed and does not read, and
//! then the backlog is exactly that subscriber's queue and nothing else.
//!
//! Live heap bytes (allocated − freed) come from a counting allocator,
//! which is why this is an integration test (the crates forbid `unsafe`)
//! and why both cases run inside one `#[test]`: no other test may allocate
//! while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_runtime::{Cluster, RuntimeConfig};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(old, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 6;
const K: usize = 2;
const BROADCASTS: usize = 400;
const PAYLOAD: usize = 32 * 1024;
const STORE_CAP: usize = 8;
const MIB: isize = 1 << 20;

/// Floods [`BROADCASTS`] payloads of [`PAYLOAD`] bytes from rotating
/// origins through a fresh cluster, waits until it is at rest by every
/// node's retained-bytes gauge, audits every node's history, and returns
/// how many heap bytes the run left live. With `hoarder` set, that member subscribes
/// before the first broadcast and reads nothing until the measurement is
/// taken; its queue must then hold every delivery, in its log's order.
fn live_bytes_after_a_run(hoarder: Option<MemberId>) -> isize {
    let mut config = RuntimeConfig::default();
    config.reliable.store_cap = STORE_CAP;
    // No false suspicion on a loaded CI box: a heal is not what is measured.
    config.heartbeat_timeout = Duration::from_secs(10);
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, config).expect("cluster boots");
    let backlog = hoarder.map(|m| (m, c.subscribe(m)));
    let metrics = c.shared_metrics();
    let baseline = LIVE.load(Relaxed);

    for i in 0..BROADCASTS {
        let payload = Bytes::from(vec![i as u8; PAYLOAD]);
        let id = c.broadcast((i % N) as MemberId, payload).expect("origin");
        // Paced, so no link's backpressure queue ever has to drop.
        if i % 16 == 15 {
            assert!(c.await_delivery(id, Duration::from_secs(20)), "flood {i}");
        }
    }
    // At rest: every delivery counted, and every node's retained-bytes
    // gauge — republished each summary round — down to what a full pull
    // store holds, i.e. every window acked. Polled, not slept for: a host
    // stall must not read as a leak.
    let want = (BROADCASTS * N) as u64;
    let deliveries = metrics.counter("runtime.deliveries");
    let gauges: Vec<_> = (c.members().iter())
        .map(|m| metrics.gauge(&format!("runtime.payload_bytes_retained.n{m}")))
        .collect();
    let at_rest = || {
        let stores_only = |g: i64| g > 0 && g <= (STORE_CAP * PAYLOAD) as i64;
        deliveries.get() == want && gauges.iter().all(|g| stores_only(g.get()))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !at_rest() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let retained: Vec<i64> = gauges.iter().map(|g| g.get()).collect();
    assert!(
        at_rest(),
        "{} of {want} deliveries, retained per node {retained:?}",
        deliveries.get()
    );
    let grown = LIVE.load(Relaxed) - baseline;

    for m in c.members() {
        let ids = c.delivered_ids(m);
        assert_eq!(ids.len(), BROADCASTS, "node {m}");
        let distinct: BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), BROADCASTS, "node {m} delivered one twice");
    }
    if let Some((m, backlog)) = backlog {
        let queued: Vec<u64> = backlog.try_iter().map(|msg| msg.broadcast_id).collect();
        assert_eq!(queued, c.delivered_ids(m), "the whole history, in order");
    }
    c.shutdown();
    grown
}

#[test]
fn a_node_keeps_ids_not_payloads_and_a_backlog_is_its_subscribers() {
    // Nobody subscribed: n × (the pull store + frames still in flight) ×
    // 32 KiB, the trace collector and the id logs. An archive of delivered
    // messages would be n × 400 × 32 KiB ≈ 75 MiB here.
    let plain = live_bytes_after_a_run(None);
    eprintln!("live after {BROADCASTS} floods, nobody subscribed: {plain} B");
    assert!(
        plain <= 8 * MIB,
        "{plain} B still live after {BROADCASTS} delivered floods"
    );

    // One node subscribed and not reading holds its own 400 messages —
    // each pinning the ≈ 32.1 KiB frame body it arrived in — and nothing
    // else grew.
    let hoarded = live_bytes_after_a_run(Some(3));
    eprintln!("live after {BROADCASTS} floods, one unread subscriber: {hoarded} B");
    let backlog = (BROADCASTS * (PAYLOAD + 100)) as isize;
    assert!(
        (hoarded - plain - backlog).abs() <= MIB,
        "plain {plain} B, with an unread subscriber {hoarded} B, backlog {backlog} B"
    );
}
