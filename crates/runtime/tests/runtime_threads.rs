//! One thread per node: a 16-node cluster adds at most 16 threads to the
//! process, whatever its links and strangers, and gives them back on
//! shutdown. (A reader thread per connection and an acceptor per node made
//! it 80.) A single `#[test]`, so no other test's threads are counted.

use std::time::Duration;

use bytes::Bytes;
use lhg_core::Constraint;
use lhg_runtime::{Cluster, RuntimeConfig};

const N: usize = 16;

/// Threads in this process right now.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    (status.lines())
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
fn a_sixteen_node_cluster_adds_one_thread_per_node() {
    let before = threads();
    let mut c = Cluster::launch(Constraint::KDiamond, N, 3, RuntimeConfig::default())
        .expect("cluster boots");
    let id = c.broadcast(0, Bytes::from_static(b"x")).expect("origin");
    assert!(c.await_delivery(id, Duration::from_secs(10)), "delivered");
    let during = threads();
    assert!(
        during - before <= N,
        "{} threads for {N} nodes ({before} before, {during} during)",
        during - before
    );
    c.shutdown();
    assert_eq!(threads(), before, "every node thread was joined");
}
