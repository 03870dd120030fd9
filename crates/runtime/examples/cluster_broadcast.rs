//! A 10-node loopback cluster: broadcast, one injected crash, self-heal,
//! broadcast again, then print the metrics snapshot as JSON. Node 3 plays
//! the application: it subscribes to its node's deliveries and prints the
//! payloads it is handed (a node keeps ids, not payloads). On teardown
//! (and on failure) the cluster's flight-recorder timeline is persisted as
//! JSONL next to the system temp dir for postmortem reading.
//!
//! Run with: `cargo run -p lhg-runtime --example cluster_broadcast`

use std::time::Duration;

use bytes::Bytes;
use lhg_core::Constraint;
use lhg_runtime::{Cluster, RuntimeConfig};

/// Persists the flight-recorder timeline; called on success and, via the
/// checkpoint helper, before any failing assertion aborts the run.
fn dump_timeline(cluster: &Cluster) {
    let path = std::env::temp_dir().join("cluster_broadcast_events.jsonl");
    match cluster.dump_events(&path) {
        Ok(()) => eprintln!("flight-recorder timeline -> {}", path.display()),
        Err(e) => eprintln!("timeline dump failed: {e}"),
    }
}

/// Asserts `ok`, dumping the event timeline first when it does not hold so
/// the failure leaves its evidence behind.
fn checkpoint(cluster: &Cluster, ok: bool, what: &str) {
    if !ok {
        dump_timeline(cluster);
        panic!("{what}");
    }
}

fn main() {
    let n = 10;
    let k = 3;
    // K-DIAMOND rather than JD: it exists at every n ≥ 2k, so healing can
    // never land on a non-constructible size.
    eprintln!("booting a {n}-node K-DIAMOND cluster at k={k} on 127.0.0.1 ...");
    let mut cluster = Cluster::launch(Constraint::KDiamond, n, k, RuntimeConfig::default())
        .expect("cluster boots");
    let inbox = cluster.subscribe(3);

    let id = cluster
        .broadcast(0, Bytes::from_static(b"hello, overlay"))
        .expect("origin alive");
    checkpoint(
        &cluster,
        cluster.await_delivery(id, Duration::from_secs(10)),
        "every node delivers",
    );
    eprintln!("broadcast {id:#x} delivered by all {n} nodes");

    let victim = 4;
    cluster.kill(victim).expect("victim alive");
    eprintln!("injected fail-stop crash of node {victim}");
    checkpoint(
        &cluster,
        cluster.await_heal(Duration::from_secs(20)),
        "survivors heal around the crash",
    );
    eprintln!(
        "healed: {} survivors agree on a k-connected overlay",
        cluster.survivors().len()
    );

    let id2 = cluster
        .broadcast(1, Bytes::from_static(b"still here"))
        .expect("survivor originates");
    checkpoint(
        &cluster,
        cluster.await_delivery(id2, Duration::from_secs(10)),
        "every survivor delivers",
    );
    eprintln!("post-heal broadcast {id2:#x} delivered by all survivors");

    // What the application at node 3 was handed, in delivery order.
    for _ in 0..2 {
        let msg = inbox
            .recv_timeout(Duration::from_secs(10))
            .expect("node 3 is handed both deliveries");
        eprintln!(
            "node 3 was handed {:#x} from node {}: {:?}",
            msg.broadcast_id,
            msg.origin,
            String::from_utf8_lossy(&msg.payload)
        );
    }

    // Both broadcasts were traced: print their realized dissemination trees.
    for trace in cluster.traces() {
        eprintln!(
            "trace {:#x}: origin {:?}, {} deliveries, max {} hops, {} µs end-to-end",
            trace.trace_id,
            trace.origin(),
            trace.delivered_nodes().len(),
            trace.max_hops(),
            trace.eccentricity_us()
        );
    }
    dump_timeline(&cluster);

    // The metrics snapshot goes to stdout as JSON (pipe it to a file or jq).
    println!("{}", cluster.metrics_json());
    cluster.shutdown();
}
