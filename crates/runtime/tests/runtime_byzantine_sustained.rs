//! Sustained Bracha on **one** cluster: the workload the flooded protocol
//! could not run.
//!
//! Its anti-entropy (`BrachaEngine::regossip`) re-flooded every standing
//! vote of every past instance on every summary tick, so the byz traffic of
//! a long-lived cluster grew with its history and never stopped — which is
//! why the repo benchmark's `tcp_bracha` launches a fresh cluster per four
//! instances. The vote exchange's repair rule declares an instance to a
//! peer only until that peer has shown its certificate: forty instances on
//! one 8-node cluster all certify everywhere, cost the same at the end as
//! at the start, and once the last one is settled the byz class goes
//! silent.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::wirecost::MessageClass;
use lhg_runtime::{ByzantineSetup, Cluster, RuntimeConfig};

const N: usize = 8;
const K: usize = 3;
const INSTANCES: u64 = 40;

#[test]
fn forty_instances_on_one_cluster_certify_cost_the_same_and_then_go_quiet() {
    let config = RuntimeConfig {
        byzantine: Some(ByzantineSetup {
            f: 1,
            traitors: Vec::new(),
        }),
        // No false suspicion on a loaded CI box: a replaced link is offered
        // every instance again, which is traffic this test would count.
        heartbeat_timeout: Duration::from_secs(10),
        ..RuntimeConfig::default()
    };
    // One repair round per summary tick.
    let tick = config.heartbeat_period * config.reliable.summary_ticks() as u32;
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, config).expect("cluster boots");
    let all = c.members();
    let metrics = c.shared_metrics();
    let byz_frames = || metrics.wire().class_totals()[MessageClass::Byz.index()].frames;

    // Paced so the run spans many summary ticks: whatever a tick re-sends
    // about past instances lands in the later instances' share.
    let mut marks = vec![byz_frames()];
    for i in 0..INSTANCES {
        let started = Instant::now();
        let payload = Bytes::from(vec![i as u8; 256]);
        c.byzantine_broadcast(i % N as MemberId, 0x100 + i, payload)
            .expect("correct origin");
        assert!(
            c.await_byz_delivery(0x100 + i, &all, Duration::from_secs(10)),
            "instance {i} certifies at every node"
        );
        std::thread::sleep((tick / 2).saturating_sub(started.elapsed()));
        marks.push(byz_frames());
    }
    for &m in &all {
        assert_eq!(c.byz_delivered(m).len(), INSTANCES as usize, "node {m}");
    }

    // Flat: the last ten instances cost what the first ten did. (Under
    // regossip they cost several times as much: each tick re-floods the
    // votes of all instances so far.)
    let cost = |from: usize, to: usize| marks[to] - marks[from];
    let (first, last) = (cost(0, 10), cost(30, 40));
    eprintln!("byz frames per ten instances: first {first}, last {last}");
    assert!(
        last * 2 <= first * 3 + 200,
        "byz frames per ten instances grew from {first} to {last}"
    );

    // Quiet: give the last instances their repair rounds, then nothing may
    // move for ten summary ticks.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut before = byz_frames();
    loop {
        std::thread::sleep(tick * 10);
        let after = byz_frames();
        if after == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "byz frames still moving: {before} → {after} in ten ticks"
        );
        before = after;
    }
    c.shutdown();
}
