//! Capstone integration: a self-healing LHG overlay.
//!
//! Detection → crash wave → repair → verified recovery, as the real
//! protocol in virtual time: the runtime's node state machine
//! (`lhg-runtime`'s `NodeCore`, driven by the discrete-event simulator of
//! `lhg-net`) notices a crashed process on a K-DIAMOND overlay from
//! heartbeat silence, floods the announcement, and every survivor rebuilds
//! its replica (`lhg-core::overlay`) and redials. The healed topology is
//! re-validated (`lhg-core::properties`), carries a broadcast to every
//! survivor, and is re-flooded (`lhg-flood`) at full reliability.

use std::collections::BTreeSet;
use std::time::Duration;

use lhg::core::overlay::MemberId;
use lhg::core::properties::validate;
use lhg::core::Constraint;
use lhg::flood::engine::Protocol;
use lhg::flood::experiment::{run_trials, FailureMode};
use lhg::graph::NodeId;
use lhg::net::sim::LinkModel;
use lhg::runtime::simnode::SimCluster;
use lhg::runtime::RuntimeConfig;
use lhg::trace::EventKind;

#[test]
fn detect_repair_reflood() {
    let (n, k) = (24usize, 3usize);
    let victim: MemberId = 7;
    let (crash_at, period, timeout) = (8_000u64, 1_000u64, 10_000u64);

    // --- Detect + repair: 24 nodes, 1 ms heartbeats, the victim dies at
    // 8 ms; a broadcast follows once the dust has settled. ---
    let config = RuntimeConfig {
        heartbeat_period: Duration::from_micros(period),
        heartbeat_timeout: Duration::from_micros(timeout),
        dial_backoff: Duration::from_micros(500),
        dial_backoff_cap: Duration::from_micros(8_000),
        dial_timeout: Duration::from_micros(3_000),
        recorder_capacity: 1 << 14,
        ..RuntimeConfig::default()
    };
    let link = LinkModel {
        base_latency_us: 500,
        jitter_us: 100,
    };
    let mut run = SimCluster::launch(Constraint::KDiamond, n, k, config, link, 11).unwrap();
    run.run_until(crash_at);
    run.kill(victim);
    run.run_until(45_000);
    let after = (run.broadcast(0, bytes::Bytes::from_static(b"after the heal"))).unwrap();
    run.run_until(60_000);
    let flooded = run.finish();

    // Completeness: every overlay neighbor of the victim suspected it, by
    // its own timeout. Accuracy: nobody else was ever suspected.
    let neighbors: BTreeSet<MemberId> = run.core(victim, |c| {
        let wanted = c.membership().overlay().neighbors_of(victim).unwrap();
        wanted.into_iter().collect()
    });
    let mut suspected_by = BTreeSet::new();
    for e in run.events() {
        if let EventKind::Suspicion { peer } = e.kind {
            assert_eq!(
                MemberId::from(peer),
                victim,
                "accuracy violated: {peer} suspected"
            );
            assert!(e.at_us > crash_at, "suspected before the crash");
            assert!(
                e.at_us <= crash_at + timeout + 2 * period,
                "slow detection at {}",
                e.at_us
            );
            suspected_by.insert(MemberId::from(e.node));
        }
    }
    assert_eq!(
        suspected_by, neighbors,
        "completeness: all neighbors detect"
    );

    // Every survivor — neighbor or not — applied the crash wave, holds the
    // same 23-member replica, and has every link that replica wants.
    let survivors: Vec<MemberId> = (0..n as MemberId).filter(|&m| m != victim).collect();
    let healed = run.core(survivors[0], |c| c.membership().overlay().clone());
    assert_eq!(healed.len(), 23);
    assert!(!healed.members().contains(&victim));
    for &m in &survivors {
        run.core(m, |c| {
            assert_eq!(
                c.membership().overlay().links(),
                healed.links(),
                "replica of {m}"
            );
            assert!(c.membership().crashes_applied().contains(&victim));
            let wanted: BTreeSet<MemberId> = c
                .membership()
                .overlay()
                .neighbors_of(m)
                .unwrap()
                .into_iter()
                .collect();
            assert!(wanted.is_subset(c.links()), "{m} redialed its new links");
        });
    }

    // --- Verify: the rebuilt overlay is a full LHG again, the post-heal
    // broadcast reached every survivor over it... ---
    let report = validate(healed.graph(), k);
    assert!(report.is_lhg(), "{report:?}");
    let reached: BTreeSet<NodeId> = (flooded.deliveries.iter())
        .filter(|d| d.broadcast_id == after)
        .map(|d| d.node)
        .collect();
    assert_eq!(reached.len(), survivors.len(), "re-flood covers survivors");

    // ...and it floods at reliability 1.0 under fresh k−1 crashes.
    let stats = run_trials(
        healed.graph(),
        Protocol::Flood,
        FailureMode::RandomNodes { count: k - 1 },
        40,
        99,
    );
    assert_eq!(stats.reliability, 1.0);
    assert_eq!(stats.mean_coverage, 1.0);
}

#[test]
fn flooding_rounds_equal_origin_eccentricity() {
    // Cross-module consistency: failure-free flooding from node 0 finishes
    // in exactly ecc(0) rounds on every constraint.
    use lhg::core::kdiamond::build_kdiamond;
    use lhg::core::ktree::build_ktree;
    use lhg::flood::engine::run_broadcast;
    use lhg::flood::failure::FailurePlan;
    use lhg::graph::paths::eccentricity;
    use lhg::graph::CsrGraph;

    for (n, k) in [(18usize, 3usize), (26, 3), (24, 4)] {
        for overlay in [build_ktree(n, k).unwrap(), build_kdiamond(n, k).unwrap()] {
            let ecc = eccentricity(overlay.graph(), NodeId(0)).unwrap();
            let out = run_broadcast(
                &CsrGraph::from_graph(overlay.graph()),
                NodeId(0),
                &FailurePlan::none(),
                Protocol::Flood,
                0,
            );
            assert_eq!(out.last_informed_round(), ecc, "(n={n},k={k})");
        }
    }
}
