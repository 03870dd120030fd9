//! Bracha's `SEND` rides the eager tree, in virtual time: a correct node
//! relays a first-seen `SEND` only to its children in the origin's BFS tree
//! on its replica, so the payload crosses each node once, and the vote
//! exchange's repair round, which asks every neighbor it declares to for a
//! payload the node lacks, brings back what a lost tree edge or a mute
//! relay kept from a subtree. Every case runs the real node ([`NodeCore`] on
//! `SimCluster`) over K-DIAMOND(16, 3), f = 1.
//!
//! A `SEND` is told from a `VOTES` frame by its size: the payload is
//! [`PAYLOAD_LEN`] bytes, and no `VOTES` frame at n = 16 comes near that.
//!
//! [`NodeCore`]: lhg_runtime::core::NodeCore

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lhg_byzantine::TraitorBehavior;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::fault::{FaultInjector, Partition};
use lhg_net::sim::{LinkModel, Time};
use lhg_runtime::core::Event;
use lhg_runtime::simnode::{SimCluster, SimInput};
use lhg_runtime::{ByzantineSetup, RuntimeConfig};
use lhg_trace::EventKind;

const N: usize = 16;
const K: usize = 3;
const MS: Time = 1_000;
const PAYLOAD_LEN: usize = 4096;
/// How many repair rounds a subtree cut off from the payload may wait for
/// it: one, the first after its votes arrive, asks every neighbor at once,
/// and the first answer goes on down the subtree; the other covers the
/// votes arriving just after a round.
const REPAIR_ROUNDS: Time = 2;

/// 10 ms heartbeats, so a repair round every 50 ms; nobody is suspected
/// while a cut link stays silent for the length of a test.
fn config(
    faults: Option<Arc<FaultInjector>>,
    traitors: Vec<(MemberId, TraitorBehavior)>,
) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_secs(5),
        recorder_capacity: 1 << 16,
        faults,
        byzantine: Some(ByzantineSetup { f: 1, traitors }),
        ..RuntimeConfig::default()
    }
}

/// What `NodeCore` calls its summary period: one repair round each.
fn repair_us(config: &RuntimeConfig) -> Time {
    config.heartbeat_period.as_micros() as Time * config.reliable.summary_ticks()
}

/// A launched cluster whose overlay links are all up.
fn launch(config: RuntimeConfig) -> SimCluster {
    let mut c =
        SimCluster::launch(Constraint::KDiamond, N, K, config, LinkModel::default(), 5).unwrap();
    let ready = c.await_until(2_000 * MS, |c| {
        (0..N as MemberId).all(|m| {
            c.core(m, |core| {
                let wanted = core
                    .membership()
                    .overlay()
                    .neighbors_of(m)
                    .unwrap_or_default();
                wanted.iter().all(|w| core.links().contains(w))
            })
        })
    });
    assert!(ready, "the overlay links came up");
    c
}

fn payload(nonce: u64) -> Bytes {
    Bytes::from(vec![nonce as u8; PAYLOAD_LEN])
}

fn byz_broadcast(c: &mut SimCluster, origin: MemberId, nonce: u64) {
    let payload = payload(nonce);
    let event = Event::ByzBroadcast { nonce, payload };
    assert!(c.inject(origin, SimInput::Event(event)));
}

/// `SEND` frames received so far, cluster-wide.
fn sends_received(c: &SimCluster) -> usize {
    let is_send = |kind: &EventKind| match kind {
        EventKind::FrameRx { bytes, .. } => *bytes as usize > PAYLOAD_LEN,
        _ => false,
    };
    c.events().iter().filter(|e| is_send(&e.kind)).count()
}

/// The members of `among` that have delivered instance `nonce`.
fn delivered(c: &SimCluster, nonce: u64, among: &[MemberId]) -> Vec<MemberId> {
    let has = |&&m: &&MemberId| {
        let state = c.nodes[m as usize].borrow();
        state.byz_delivered.iter().any(|d| d.broadcast_id == nonce)
    };
    among.iter().filter(has).copied().collect()
}

/// `m`'s children in `origin`'s tree on `m`'s own replica.
fn kids(c: &SimCluster, origin: MemberId, m: MemberId) -> Vec<MemberId> {
    c.core(m, |core| {
        core.membership().overlay().tree_children(origin, m)
    })
    .expect("every replica places every member")
}

/// `top` and everything below it in `origin`'s tree.
fn subtree(c: &SimCluster, origin: MemberId, top: MemberId) -> BTreeSet<MemberId> {
    let (mut below, mut frontier) = (BTreeSet::from([top]), vec![top]);
    while let Some(m) = frontier.pop() {
        for child in kids(c, origin, m) {
            below.insert(child);
            frontier.push(child);
        }
    }
    below
}

/// A tree edge `(parent, child)` of `origin`'s tree below the origin's own
/// fan-out, whose child has children of its own.
fn interior_edge(c: &SimCluster, origin: MemberId) -> (MemberId, MemberId) {
    (0..N as MemberId)
        .filter(|&p| p != origin)
        .flat_map(|p| kids(c, origin, p).into_iter().map(move |child| (p, child)))
        .find(|&(_, child)| !kids(c, origin, child).is_empty())
        .expect("a depth-2 edge with a subtree below it")
}

#[test]
fn a_fault_free_send_crosses_each_node_once_in_n_minus_1_frames() {
    let cfg = config(None, Vec::new());
    let round = repair_us(&cfg);
    let mut c = launch(cfg);
    let everyone: Vec<MemberId> = (0..N as MemberId).collect();
    // K-DIAMOND(16, 3) has 24 edges: flooding the SEND put 2E − (n − 1) =
    // 33 copies of the payload on the wire, the tree puts n − 1.
    for (nonce, origin) in [(1, 0), (2, 7), (3, 13)] {
        let before = sends_received(&c);
        byz_broadcast(&mut c, origin, nonce);
        let all = c.await_until(round, |c| delivered(c, nonce, &everyone).len() == N);
        assert!(all, "origin {origin}: every node delivers within a round");
        c.run_until(c.now() + 2 * round);
        assert_eq!(
            sends_received(&c) - before,
            N - 1,
            "origin {origin}: the payload crosses each other node once"
        );
    }
}

#[test]
fn a_lost_tree_edge_costs_its_subtree_a_repair_round_not_the_payload() {
    let faults = Arc::new(FaultInjector::new(11));
    let cfg = config(Some(Arc::clone(&faults)), Vec::new());
    let round = repair_us(&cfg);
    let mut c = launch(cfg);
    let (origin, nonce) = (0, 1);
    let (parent, child) = interior_edge(&c, origin);
    let cut = subtree(&c, origin, child);
    // Every frame from parent to child is lost, the SEND and the votes.
    faults.add_partition_shared(Partition {
        a: BTreeSet::from([parent as u32]),
        b: BTreeSet::from([child as u32]),
        from_us: c.now(),
        until_us: Time::MAX,
        directed: true,
    });
    byz_broadcast(&mut c, origin, nonce);
    let everyone: Vec<MemberId> = (0..N as MemberId).collect();
    let all = c.await_until(REPAIR_ROUNDS * round, |c| {
        delivered(c, nonce, &everyone).len() == N
    });
    assert!(
        all,
        "{parent}→{child} cut: subtree {cut:?} delivers within {REPAIR_ROUNDS} rounds, \
         only {:?} did",
        delivered(&c, nonce, &everyone)
    );
    assert_eq!(c.metrics.counter("runtime.suspects").get(), 0);
}

#[test]
fn a_silent_interior_relay_costs_its_subtree_a_repair_round_not_the_payload() {
    // Find an interior node of the origin's tree on a fault-free cluster,
    // then run again with that node a Silent traitor: it swallows every
    // byz frame, the SEND it should relay included.
    let origin = 0;
    let (_, traitor) = interior_edge(&launch(config(None, Vec::new())), origin);
    let cfg = config(None, vec![(traitor, TraitorBehavior::Silent)]);
    let round = repair_us(&cfg);
    let mut c = launch(cfg);
    let below: Vec<MemberId> = subtree(&c, origin, traitor)
        .into_iter()
        .filter(|&m| m != traitor)
        .collect();
    assert!(!below.is_empty());
    let correct: Vec<MemberId> = (0..N as MemberId).filter(|&m| m != traitor).collect();
    let nonce = 1;
    byz_broadcast(&mut c, origin, nonce);
    let all = c.await_until(REPAIR_ROUNDS * round, |c| {
        delivered(c, nonce, &correct).len() == correct.len()
    });
    assert!(
        all,
        "silent {traitor}: subtree {below:?} delivers within {REPAIR_ROUNDS} rounds, \
         only {:?} of the correct nodes did",
        delivered(&c, nonce, &correct)
    );
}
