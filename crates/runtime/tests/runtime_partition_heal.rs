//! Partition + heal over real sockets: a 12-node k=3 cluster is cut 2/10
//! by the fault injector, the cut is healed, and every replica must
//! reconverge onto the full membership — with every broadcast delivered
//! exactly once per node throughout.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::fault::{FaultInjector, Partition};
use lhg_runtime::{Cluster, RuntimeConfig};

const N: usize = 12;
const K: usize = 3;

/// Chaos-grade timers: fast heartbeats so detection and reconvergence fit
/// in test time, aggressive redial so healed links come back quickly.
fn fast_config(faults: Arc<FaultInjector>) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_max_attempts: 8,
        dial_timeout: Duration::from_millis(100),
        launch_timeout: Duration::from_secs(10),
        faults: Some(faults),
        ..RuntimeConfig::default()
    }
}

fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn partition_heals_and_replicas_reconverge_without_duplicates() {
    // The injector is shared with every node so partitions flipped at
    // runtime take effect on live links immediately.
    let inj = Arc::new(FaultInjector::new(0xC0FFEE));
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, fast_config(Arc::clone(&inj)))
        .expect("cluster boots and fully connects");
    let members = c.members();

    // Baseline: a broadcast spans the intact overlay.
    let id1 = c
        .broadcast(0, Bytes::from_static(b"before the cut"))
        .expect("origin is alive");
    assert!(
        c.await_delivery(id1, Duration::from_secs(10)),
        "all 12 nodes deliver the pre-partition broadcast"
    );

    // Cut members 10 and 11 (a k-1 sized minority) off from the other ten,
    // both directions, until explicitly healed.
    let minority: BTreeSet<u32> = [10u32, 11].into_iter().collect();
    inj.add_partition_shared(Partition {
        a: minority.clone(),
        b: BTreeSet::new(),
        from_us: 0,
        until_us: u64::MAX,
        directed: false,
    });

    // A majority-side broadcast during the cut reaches every majority node
    // even while the minority is unreachable.
    std::thread::sleep(Duration::from_millis(400));
    let majority: Vec<MemberId> = members.iter().copied().filter(|&m| m < 10).collect();
    let id2 = c
        .broadcast(0, Bytes::from_static(b"during the cut"))
        .expect("origin is alive");
    assert!(
        c.await_delivery_by(id2, &majority, Duration::from_secs(10)),
        "the majority side keeps delivering under the partition"
    );

    // Heal the cut: every replica must reconverge onto the full 12-member
    // overlay, nobody stuck degraded, all link sets agreeing.
    inj.clear_partitions();
    let everyone: BTreeSet<MemberId> = members.iter().copied().collect();
    let reconverged = poll_until(Duration::from_secs(15), || {
        c.degraded_members().is_empty()
            && members.iter().all(|&m| {
                c.node(m).is_some_and(|s| {
                    s.overlay_snapshot()
                        .members()
                        .iter()
                        .copied()
                        .collect::<BTreeSet<_>>()
                        == everyone
                })
            })
            && c.overlays_agree()
    });
    assert!(reconverged, "replicas reconverge after the partition heals");
    assert!(
        c.await_links(Duration::from_secs(5)),
        "every overlay link is live again after the heal"
    );

    // Post-heal broadcast reaches everyone, including the former minority.
    let id3 = c
        .broadcast(11, Bytes::from_static(b"after the heal"))
        .expect("former minority member originates");
    assert!(
        c.await_delivery(id3, Duration::from_secs(10)),
        "all 12 nodes deliver the post-heal broadcast"
    );

    // Exactly-once delivery: no node ever delivered any broadcast twice,
    // through suspicion churn, redials, and re-floods.
    for &m in &members {
        let ids = c.delivered_ids(m);
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            ids.len(),
            "node {m} delivered some broadcast more than once: {ids:#x?}"
        );
        assert!(
            ids.contains(&id1) && ids.contains(&id3),
            "node {m} has both"
        );
    }

    c.shutdown();
}
