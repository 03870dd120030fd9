//! Fail-stop, heal, rejoin: a killed node restarts, re-dials, is
//! re-admitted by the survivors, and delivers subsequent broadcasts —
//! the end-to-end crash-recovery story over real sockets.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::fault::{FaultInjector, LinkFaults, Partition};
use lhg_runtime::{Cluster, ClusterError, RuntimeConfig};

const N: usize = 10;
const K: usize = 3;
const VICTIM: MemberId = 9;

fn fast_config() -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_timeout: Duration::from_millis(100),
        launch_timeout: Duration::from_secs(10),
        ..RuntimeConfig::default()
    }
}

#[test]
fn killed_node_rejoins_and_delivers_broadcasts() {
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, fast_config())
        .expect("cluster boots and fully connects");

    // Phase 1: baseline broadcast over the intact overlay.
    let id1 = c
        .broadcast(0, Bytes::from_static(b"all ten alive"))
        .expect("origin is alive");
    assert!(
        c.await_delivery(id1, Duration::from_secs(10)),
        "all 10 nodes deliver"
    );

    // Phase 2: fail-stop one node; killing it again is a distinct error.
    c.kill(VICTIM).expect("victim was alive");
    assert!(matches!(
        c.kill(VICTIM),
        Err(ClusterError::AlreadyKilled(VICTIM))
    ));
    assert!(
        c.await_heal(Duration::from_secs(15)),
        "survivors excommunicate the victim and heal to n=9"
    );
    let id2 = c
        .broadcast(0, Bytes::from_static(b"nine survivors"))
        .expect("origin is alive");
    assert!(
        c.await_delivery(id2, Duration::from_secs(10)),
        "all 9 survivors deliver"
    );

    // Phase 3: the victim rejoins — fresh port, JOIN announcement, and the
    // survivors re-admit it at the original membership slot.
    c.rejoin(VICTIM).expect("victim restarts");
    assert!(
        c.await_heal(Duration::from_secs(15)),
        "every replica, including the revenant's, converges back to n=10"
    );
    assert!(c.overlays_agree(), "replicas agree after the rejoin");

    // Phase 4: broadcasts now span the revenant — both as a receiver and
    // as an origin.
    let id3 = c
        .broadcast(0, Bytes::from_static(b"welcome back"))
        .expect("origin is alive");
    assert!(
        c.await_delivery(id3, Duration::from_secs(10)),
        "all 10 nodes, revenant included, deliver"
    );
    assert!(
        c.delivered_ids(VICTIM).contains(&id3),
        "the revenant delivered the post-rejoin broadcast"
    );
    let id4 = c
        .broadcast(VICTIM, Bytes::from_static(b"revenant speaks"))
        .expect("revenant originates");
    assert!(
        c.await_delivery(id4, Duration::from_secs(10)),
        "a revenant-originated broadcast reaches everyone"
    );

    // Anti-entropy may legitimately backfill id2 (sent while the victim
    // was dead) after the rejoin — summaries advertise recently-seen ids
    // and the revenant pulls its gaps — so "never delivered" would be
    // racy. The binding invariant is exactly-once: nothing is delivered
    // twice across the kill/rejoin cycle.
    for m in c.members() {
        let ids = c.delivered_ids(m);
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "node {m} double-delivered");
    }

    c.shutdown();
}

fn fault_config(faults: Arc<FaultInjector>) -> RuntimeConfig {
    RuntimeConfig {
        faults: Some(faults),
        ..fast_config()
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

/// Isolates the victim until both sides excommunicate each other, then
/// heals the cut and waits for full reconvergence. Returns how the repair
/// machinery was exercised via the cluster metrics afterwards.
fn isolate_heal_reconverge(c: &Cluster, inj: &FaultInjector) {
    inj.add_partition_shared(Partition {
        a: [VICTIM as u32].into_iter().collect(),
        b: BTreeSet::new(),
        from_us: 0,
        until_us: u64::MAX,
        directed: false,
    });
    let excommunicated = poll_until(Duration::from_secs(15), || {
        c.members().into_iter().filter(|&m| m != VICTIM).all(|m| {
            c.node(m)
                .is_some_and(|s| s.crashes_applied().contains(&VICTIM))
        }) && c.node(VICTIM).is_some_and(|s| s.is_degraded())
    });
    assert!(
        excommunicated,
        "survivors excommunicate the isolated victim and it degrades"
    );

    inj.clear_partitions();
    let everyone: BTreeSet<MemberId> = c.members().into_iter().collect();
    let reconverged = poll_until(Duration::from_secs(30), || {
        c.degraded_members().is_empty()
            && c.members().into_iter().all(|m| {
                c.node(m).is_some_and(|s| {
                    s.crashes_applied().is_empty()
                        && s.overlay_snapshot()
                            .members()
                            .iter()
                            .copied()
                            .collect::<BTreeSet<_>>()
                            == everyone
                })
            })
    });
    assert!(reconverged, "replicas reconverge after the heal");
}

/// An excommunicated-but-alive node hears about its own "death" in a burst
/// of dead notices once its partition heals — one from every peer that
/// sees its traffic, repeated each heartbeat until it is re-admitted.
/// `rejoin_cooldown` must coalesce that burst into a bounded number of
/// repair rounds: without it, every single notice would start a fresh
/// `JOIN` exchange and the revenant would flap.
#[test]
fn dead_notice_burst_coalesces_into_bounded_repairs() {
    let inj = Arc::new(FaultInjector::new(0xBADD1E));
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, fault_config(Arc::clone(&inj)))
        .expect("cluster boots and fully connects");

    isolate_heal_reconverge(&c, &inj);

    // The degraded victim answers its notices with JOIN announcements...
    let announces = c.metrics().counter("runtime.join_announces").get();
    assert!(announces >= 1, "the victim announced itself at least once");
    // ...and the cooldown held the notice burst down to a handful of
    // repair rounds. Notices arrive every heartbeat period (10ms) from
    // many peers; one announcement per cooldown window (250ms) is the
    // designed pace, so anything near one-per-notice is a flap.
    assert!(
        announces <= 6,
        "dead-notice burst must coalesce under rejoin_cooldown, saw {announces} JOIN announces"
    );

    let id = c
        .broadcast(VICTIM, Bytes::from_static(b"revenant after the burst"))
        .expect("revenant originates");
    assert!(
        c.await_delivery(id, Duration::from_secs(10)),
        "post-repair broadcast spans the full overlay"
    );
    c.shutdown();
}

/// The cooldown must *expire* correctly when repair frames are lost: with
/// a seeded injector dropping a quarter of the victim's link traffic, a
/// direct `JOIN` or a copy of its flood can vanish. Post-cooldown notices
/// must then restart the exchange until it lands — degraded-but-never-
/// wedged — in a bounded number of rounds, with replicas reconverged.
#[test]
fn rejoin_cooldown_expires_and_repair_survives_lossy_links() {
    let mut inj = FaultInjector::new(0x10_55_1E);
    let lossy = LinkFaults {
        drop: 0.25,
        duplicate: 0.05,
        ..LinkFaults::default()
    };
    for m in 0..N as u32 {
        if m != VICTIM as u32 {
            inj.set_link(VICTIM as u32, m, lossy);
            inj.set_link(m, VICTIM as u32, lossy);
        }
    }
    let inj = Arc::new(inj);
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, fault_config(Arc::clone(&inj)))
        .expect("cluster boots through the lossy links");

    isolate_heal_reconverge(&c, &inj);

    // Lossy repairs may take several cooldown windows, but still orders
    // of magnitude fewer rounds than one-per-notice.
    let announces = c.metrics().counter("runtime.join_announces").get();
    println!("join announces: {announces}");
    assert!(
        announces <= 20,
        "repair rounds stay bounded under loss, saw {announces} JOIN announces"
    );

    let id = c
        .broadcast(0, Bytes::from_static(b"after the lossy repair"))
        .expect("origin is alive");
    assert!(
        c.await_delivery(id, Duration::from_secs(15)),
        "post-repair broadcast reaches the revenant through the lossy links"
    );
    c.shutdown();
}
