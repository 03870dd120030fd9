//! The hand-off, end to end on real sockets: what a subscriber is handed
//! is what the origin broadcast — every id exactly once, byte for byte, in
//! the order of the node's own delivery log — on links that drop a fifth of
//! all frames and duplicate a tenth, for floods of 1 B to 64 KiB and for a
//! Bracha instance alike. And the subscription's lifecycle: a receiver that
//! goes away neither stalls nor kills its node, a new one sees only what
//! is delivered after it, and a node's death wakes whoever waits on it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::message::Message;
use lhg_runtime::{ByzantineSetup, Cluster, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 6;
const K: usize = 3;
const FLOODS: usize = 50;
const NONCE: u64 = 0xB0B;
const WAIT: Duration = Duration::from_secs(20);

/// The next message handed to `member`'s subscriber, which must already
/// be in that node's log: the id is appended before the hand-off.
fn next(c: &Cluster, member: MemberId, rx: &crossbeam::channel::Receiver<Message>) -> Message {
    let msg = rx.recv_timeout(WAIT).expect("a delivery is handed over");
    if msg.byz.is_none() {
        assert!(c.has_delivered(member, msg.broadcast_id), "node {member}");
    }
    msg
}

#[test]
fn subscribers_get_every_payload_once_intact_and_in_log_order() {
    let mut faults = FaultInjector::new(23);
    faults.set_default_rates(LinkFaults {
        drop: 0.20,
        duplicate: 0.10,
        ..LinkFaults::default()
    });
    let config = RuntimeConfig {
        faults: Some(Arc::new(faults)),
        byzantine: Some(ByzantineSetup {
            f: 1,
            traitors: Vec::new(),
        }),
        // No false suspicion on a loaded CI box; loss is the only fault.
        heartbeat_timeout: Duration::from_secs(10),
        ..RuntimeConfig::default()
    };
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, config).expect("cluster boots");
    let all = c.members();
    let metrics = c.shared_metrics();
    let deliveries = metrics.counter("runtime.deliveries");
    let mut subs: HashMap<MemberId, _> = all.iter().map(|&m| (m, c.subscribe(m))).collect();

    // 50 floods of seeded sizes and contents from rotating origins, one
    // Bracha instance in their middle.
    let mut rng = StdRng::seed_from_u64(23);
    let mut sent: HashMap<u64, (MemberId, Bytes)> = HashMap::new();
    let certified = Bytes::from(vec![0xCE; 1024]);
    for i in 0..FLOODS {
        let len = match i {
            0 => 1,
            1 => 64 * 1024,
            _ => rng.random_range(1usize..=64 * 1024),
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.random::<u32>() as u8).collect();
        let payload = Bytes::from(payload);
        let origin = (i % N) as MemberId;
        let id = c.broadcast(origin, payload.clone()).expect("origin alive");
        sent.insert(id, (origin, payload));
        if i == FLOODS / 2 {
            c.byzantine_broadcast(2, NONCE, certified.clone())
                .expect("origin alive");
        }
        // Whoever sees the counter move may read the log at once.
        let counted = deliveries.get();
        let logged: usize = (all.iter().filter_map(|&m| c.node(m)))
            .map(|s| s.delivered_count())
            .sum();
        assert!(
            logged as u64 >= counted,
            "{logged} logged, {counted} counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for &id in sent.keys() {
        assert!(c.await_delivery(id, WAIT), "{id:#x} reaches every node");
    }
    assert!(c.await_byz_delivery(NONCE, &all, WAIT), "Bracha certifies");
    let dropped = metrics.counter("runtime.chaos_frames_dropped").get();
    assert!(dropped > 0, "the links were lossy");

    let digest = lhg_byzantine::digest(&certified);
    for &m in &all {
        let handed: Vec<Message> = (0..=FLOODS).map(|_| next(&c, m, &subs[&m])).collect();
        let (byz, floods): (Vec<_>, Vec<_>) = handed.iter().partition(|msg| msg.byz.is_some());
        let ids: Vec<u64> = floods.iter().map(|msg| msg.broadcast_id).collect();
        assert_eq!(ids, c.delivered_ids(m), "node {m}: once each, in log order");
        for msg in floods {
            let (origin, payload) = &sent[&msg.broadcast_id];
            assert_eq!(msg.payload, *payload, "node {m}, {:#x}", msg.broadcast_id);
            assert_eq!(MemberId::from(msg.origin), *origin);
            assert_eq!(msg.trace, Some(msg.broadcast_id));
            if *origin == m {
                assert_eq!(msg.hops, 0, "the origin is handed its own copy");
            }
        }
        assert_eq!(byz.len(), 1, "node {m}: the instance, once");
        assert_eq!((byz[0].broadcast_id, byz[0].origin), (NONCE, 2));
        assert_eq!(byz[0].trace, Some(digest));
        assert_eq!(byz[0].payload, certified);
    }

    // A receiver that goes away neither stalls nor kills its node.
    drop(subs.remove(&4));
    let unseen = c.broadcast(0, Bytes::from_static(b"nobody listens at 4"));
    let unseen = unseen.expect("origin alive");
    assert!(c.await_delivery(unseen, WAIT));
    assert!(c.has_delivered(4, unseen) && c.node(4).is_some_and(|s| s.is_alive()));
    // A new subscription sees only what is delivered after it ...
    let again = c.subscribe(4);
    let seen = c.broadcast(5, Bytes::from_static(b"somebody does again"));
    let seen = seen.expect("origin alive");
    assert_eq!(next(&c, 4, &again).broadcast_id, seen);
    assert!(c.await_delivery(seen, WAIT));
    // ... and takes the place of an older one, whose channel closes.
    let newer = c.subscribe(4);
    assert!(again.recv_timeout(WAIT).is_err(), "replaced");
    let last = c.broadcast(1, Bytes::from_static(b"last")).expect("origin");
    assert_eq!(next(&c, 4, &newer).broadcast_id, last);
    assert!(c.await_delivery(last, WAIT));
    for &m in &[0, 1, 2, 3, 5] {
        let tail: Vec<u64> = (0..3)
            .map(|_| next(&c, m, &subs[&m]).broadcast_id)
            .collect();
        assert_eq!(tail, [unseen, seen, last], "node {m} kept its subscription");
    }

    // A node's death wakes whoever is blocked on its deliveries; a dead or
    // unknown member's channel is closed from the start.
    let (rx, (woke_tx, woke)) = (
        subs.remove(&1).expect("subscribed"),
        crossbeam::channel::unbounded(),
    );
    let waiter = std::thread::spawn(move || {
        let closed = rx.recv().is_err();
        let _ = woke_tx.send(closed);
    });
    c.kill(1).expect("alive until now");
    assert_eq!(
        woke.recv_timeout(WAIT),
        Ok(true),
        "recv returns Err on kill"
    );
    waiter.join().expect("waiter exits");
    assert!(c.subscribe(1).recv().is_err(), "dead member");
    assert!(c.subscribe(99).recv().is_err(), "unknown member");
    c.shutdown();
    assert!(subs[&0].recv().is_err(), "shutdown closes every channel");
}
