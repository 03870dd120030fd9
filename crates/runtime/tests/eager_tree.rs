//! Eager trees, lazy repair, in virtual time: a fresh data frame goes on
//! only to the receiving node's children in the origin's BFS tree, and a
//! node the tree misses learns the id from a neighbor's advert and pulls
//! the body. Both halves run the real node ([`NodeCore`] on `SimCluster`).
//!
//! [`NodeCore`]: lhg_runtime::core::NodeCore

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_graph::paths::diameter;
use lhg_net::fault::{FaultInjector, Partition};
use lhg_net::sim::{LinkModel, Time};
use lhg_runtime::simnode::SimCluster;
use lhg_runtime::RuntimeConfig;

const K: usize = 3;
const MS: Time = 1_000;

/// 10 ms heartbeats, so a summary round every 50 ms; nobody is suspected
/// while a cut link stays silent for the length of a test.
fn config(faults: Option<Arc<FaultInjector>>) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_secs(5),
        faults,
        ..RuntimeConfig::default()
    }
}

fn summary_us(config: &RuntimeConfig) -> Time {
    config.heartbeat_period.as_micros() as Time * config.reliable.summary_ticks()
}

fn launch(n: usize, config: RuntimeConfig) -> SimCluster {
    SimCluster::launch(Constraint::KDiamond, n, K, config, LinkModel::default(), 5).unwrap()
}

fn data_frames(c: &SimCluster) -> u64 {
    let totals = c.metrics.wire().class_totals();
    (totals.iter().find(|t| t.class.name() == "data")).map_or(0, |t| t.frames)
}

/// How often each member delivered `id`.
fn deliveries_of(c: &SimCluster, id: u64) -> Vec<usize> {
    (c.nodes.iter())
        .map(|st| st.borrow().delivered.iter().filter(|&&d| d == id).count())
        .collect()
}

#[test]
fn each_broadcast_crosses_every_node_once_in_n_minus_1_data_frames() {
    for n in [16, 64] {
        let cfg = config(None);
        let round = summary_us(&cfg);
        let mut c = launch(n, cfg);
        let diam = c
            .core(0, |core| diameter(core.membership().overlay().graph()))
            .unwrap();
        // One broadcast per origin, each 10 ms into its own summary round:
        // it is everywhere before any advert could race it.
        for origin in 0..n as MemberId {
            c.run_until((origin + 1) * round + 10 * MS);
            let before = data_frames(&c);
            let id = c.broadcast(origin, Bytes::from_static(b"tree")).unwrap();
            c.run_until((origin + 2) * round);
            assert_eq!(deliveries_of(&c, id), vec![1; n], "n={n} origin {origin}");
            assert_eq!(
                data_frames(&c) - before,
                n as u64 - 1,
                "n={n}: origin {origin}'s body crosses each other node once"
            );
        }
        let report = c.finish();
        let depth = (report.deliveries.iter()).map(|d| d.hops).max().unwrap();
        assert!(depth <= diam, "n={n}: tree depth {depth} > diameter {diam}");
        assert_eq!(c.metrics.counter("runtime.pulls_sent").get(), 0);
    }
}

#[test]
fn a_cut_tree_edge_is_repaired_by_advert_and_pull_within_two_rounds() {
    let n = 16;
    let faults = Arc::new(FaultInjector::new(11));
    let cfg = config(Some(Arc::clone(&faults)));
    let round = summary_us(&cfg);
    let mut c = launch(n, cfg);
    let origin: MemberId = 0;
    // A tree edge below the origin's own fan-out whose child has a subtree.
    let kids = |c: &SimCluster, m: MemberId| {
        c.core(m, |core| {
            core.membership().overlay().tree_children(origin, m)
        })
        .unwrap()
    };
    let (parent, child) = (1..n as MemberId)
        .flat_map(|p| kids(&c, p).into_iter().map(move |ch| (p, ch)))
        .find(|&(_, ch)| !kids(&c, ch).is_empty())
        .expect("a depth-2 edge with a subtree below it");
    let mut subtree = BTreeSet::from([child]);
    let mut frontier = vec![child];
    while let Some(m) = frontier.pop() {
        for ch in kids(&c, m) {
            subtree.insert(ch);
            frontier.push(ch);
        }
    }

    let at = round + 10 * MS;
    c.run_until(at);
    faults.add_partition_shared(Partition {
        a: BTreeSet::from([parent as u32]),
        b: BTreeSet::from([child as u32]),
        from_us: at,
        until_us: Time::MAX,
        directed: true,
    });
    let id = c.broadcast(origin, Bytes::from_static(b"lazy")).unwrap();
    c.run_until(at + 2 * round);
    assert_eq!(
        deliveries_of(&c, id),
        vec![1; n],
        "{parent}→{child} cut: subtree {subtree:?} still delivers exactly once"
    );
    assert!(
        c.metrics.counter("runtime.pulls_sent").get() > 0,
        "repaired by a pull"
    );
    assert_eq!(c.metrics.counter("runtime.suspects").get(), 0);
}

/// The pull store retires a body once every overlay neighbor holds it, but
/// only while no member is crashed or excommunicated. Here member 5 is cut
/// off long enough to be excommunicated, misses 20 broadcasts, and comes
/// back: the survivors, healed around it meanwhile, must still store what
/// it missed. Retiring against the healed overlay, or against the live
/// links, leaves 5 without any of them.
#[test]
fn a_member_cut_off_while_the_others_broadcast_gets_everything_it_missed() {
    let (n, isolated) = (16, 5);
    let faults = Arc::new(FaultInjector::new(29));
    faults.add_partition_shared(Partition {
        a: BTreeSet::from([isolated as u32]),
        b: BTreeSet::new(),
        from_us: 100 * MS,
        until_us: 1_500 * MS,
        directed: false,
    });
    let cfg = RuntimeConfig {
        faults: Some(faults),
        ..RuntimeConfig::default()
    };
    let mut c = launch(n, cfg);
    let origins: Vec<MemberId> = (0..n as MemberId).filter(|&m| m != isolated).collect();
    let mut ids = Vec::new();
    for (i, at) in (800 * MS..1_200 * MS).step_by(20 * MS as usize).enumerate() {
        c.run_until(at);
        let payload = Bytes::from_static(b"missed");
        ids.push(c.broadcast(origins[i % origins.len()], payload).unwrap());
    }
    c.run_until(10_000 * MS);
    assert_eq!(ids.len(), 20);
    assert!(
        c.metrics.counter("runtime.suspects").get() > 0,
        "{isolated} was suspected"
    );
    let got = &c.nodes[isolated as usize].borrow().delivered;
    let counts: Vec<usize> = (ids.iter())
        .map(|id| got.iter().filter(|&d| d == id).count())
        .collect();
    assert_eq!(
        counts,
        vec![1; ids.len()],
        "each id exactly once at {isolated}"
    );
}

/// A mid-tree node crashes under a steady stream of broadcasts, at the
/// shipped timing (25 ms heartbeats, 300 ms timeout, an advert round every
/// 125 ms). Until the crash is detected its subtrees get bodies only over
/// the lazy links: every id must still reach every survivor exactly once.
/// Both rates outrun a 64-id advert every 125 ms; the faster one also
/// outruns the 128-id store in that time.
#[test]
fn a_crashed_mid_tree_node_costs_no_delivery_at_1000_and_4000_broadcasts_a_second() {
    for rate in [1_000, 4_000] {
        let missed = crash_under_load(rate);
        assert!(
            missed.is_empty(),
            "{rate}/s: (member, twice, never): {missed:?}"
        );
    }
}

/// The test above at `rate` broadcasts a second: each survivor that
/// delivered some id twice or never, with both counts.
fn crash_under_load(rate: Time) -> Vec<(MemberId, usize, usize)> {
    let n = 16;
    let mut c = launch(n, RuntimeConfig::default());
    // The member that forwards for the most origins.
    let relays = |m: MemberId| {
        let kids = |o| c.core(m, |core| core.membership().overlay().tree_children(o, m));
        (0..n as MemberId)
            .filter(|&o| o != m && kids(o).is_some_and(|k| !k.is_empty()))
            .count()
    };
    let victim = (0..n as MemberId).max_by_key(|&m| relays(m)).unwrap();
    let origins: Vec<MemberId> = (0..n as MemberId).filter(|&o| o != victim).collect();
    let (gap, mut ids) = (1_000 * MS / rate, Vec::new());
    // 800 ms of broadcasts, the crash 200 ms in.
    for (i, at) in (200 * MS..1_000 * MS).step_by(gap as usize).enumerate() {
        c.run_until(at);
        if at == 400 * MS {
            assert!(c.kill(victim));
        }
        let payload = Bytes::from_static(b"busy");
        ids.push(c.broadcast(origins[i % origins.len()], payload).unwrap());
    }
    c.run_until(2_000 * MS);
    assert!(
        c.metrics.counter("runtime.suspects").get() > 0,
        "the crash was detected"
    );
    let survivors = (0..n as MemberId).filter(|&m| m != victim);
    survivors
        .map(|m| {
            let mut got = c.nodes[m as usize].borrow().delivered.clone();
            got.sort_unstable();
            let all = got.len();
            got.dedup();
            let missing = ids.iter().filter(|id| got.binary_search(id).is_err());
            (m, all - got.len(), missing.count())
        })
        .filter(|&(_, twice, missing)| twice + missing > 0)
        .collect()
}
