//! Experiments E21, E22 and E26: forwarding-load balance, failure-detection
//! latency, and the eager tree against the flood on LHG overlays.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use lhg_baselines::harary::harary_graph;
use lhg_baselines::structured::balanced_tree;
use lhg_core::kdiamond::build_kdiamond;
use lhg_core::ktree::build_ktree;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_graph::betweenness::load_profile;
use lhg_graph::paths::diameter;
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::metrics::MetricsRegistry;
use lhg_net::reliable::{ReliableConfig, ReliableFlooder, ScheduledBroadcast};
use lhg_net::sim::{LinkModel, Process, Simulation, Time};
use lhg_runtime::simnode::SimCluster;
use lhg_runtime::RuntimeConfig;
use lhg_trace::EventKind;

/// E21 — forwarding-load balance: max/mean betweenness across topologies.
/// Relevant to flooding because relays on many shortest paths see the most
/// duplicate traffic and are the worst nodes to lose.
///
/// # Panics
///
/// Panics if a build fails (bug).
#[must_use]
pub fn e21_load_balance() -> String {
    let k = 3;
    let mut out = format!(
        "E21 — shortest-path load imbalance (max/mean betweenness, k={k})\n\
         {:>6} {:>9} {:>11} {:>9} {:>9}\n",
        "n", "K-TREE", "K-DIAMOND", "Harary", "tree"
    );
    for n in [30usize, 62, 126] {
        let imb = |g: &lhg_graph::Graph| load_profile(g).imbalance;
        let _ = writeln!(
            out,
            "{n:>6} {:>9.2} {:>11.2} {:>9.2} {:>9.2}",
            imb(build_ktree(n, k).expect("builds").graph()),
            imb(build_kdiamond(n, k).expect("builds").graph()),
            imb(&harary_graph(n, k)),
            imb(&balanced_tree(n, k - 1)),
        );
    }
    out.push_str(
        "shape: Harary circulants are perfectly balanced (vertex-transitive,\n\
         ratio 1); trees concentrate load near the root; the LHGs sit between —\n\
         their root/internal copies relay more than leaves, by a bounded factor.\n",
    );
    out
}

/// The E22 clock: 1 ms heartbeats, 10 ms patience, everything else scaled
/// to match. Patience must cover more than period + link delay: a survivor
/// starts the same clock for each *new* neighbor the heal gives it, and
/// that neighbor dials only once the crash wave has reached it — so the
/// timeout has to outlast the wave's flood (≈ diameter hops of 0.5–0.7 ms)
/// plus a dial round trip, or healing itself draws false suspicions (seen
/// at n = 64 with the old detector's 3.5 ms).
fn e22_config() -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_micros(1_000),
        heartbeat_timeout: Duration::from_micros(10_000),
        dial_backoff: Duration::from_micros(500),
        dial_backoff_cap: Duration::from_micros(8_000),
        dial_timeout: Duration::from_micros(3_000),
        recorder_capacity: 1 << 14,
        ..RuntimeConfig::default()
    }
}

/// Runs the node state machine ([`lhg_runtime::core::NodeCore`]) on a
/// K-DIAMOND overlay of `n` simulated nodes, fail-stopping `victim` at
/// `crash_at` when given.
fn e22_run(n: usize, k: usize, victim: Option<(MemberId, Time)>, horizon: Time) -> SimCluster {
    let link = LinkModel {
        base_latency_us: 500,
        jitter_us: 200,
    };
    let mut cluster =
        SimCluster::launch(Constraint::KDiamond, n, k, e22_config(), link, 7).expect("builds");
    if let Some((victim, crash_at)) = victim {
        cluster.run_until(crash_at);
        cluster.kill(victim);
    }
    cluster.run_until(horizon);
    cluster
}

/// E22 — failure-detection and healing latency: the runtime's real node
/// state machine on a K-DIAMOND overlay in virtual time; time from crash to
/// suspicion by every neighbor, and on to every survivor holding the healed
/// overlay's links.
///
/// # Panics
///
/// Panics if a build fails, a neighbor never suspects the crashed node
/// (completeness violation — a bug) or a survivor never finishes healing.
#[must_use]
pub fn e22_detection_latency() -> String {
    let k = 3;
    let crash_time: Time = 10_000;
    let mut out = format!(
        "E22 — detection and heal latency (NodeCore on the simulator, K-DIAMOND k={k},\n\
         heartbeats 1ms, timeout 10ms, links 0.5–0.7ms, crash at t=10ms; detect = last\n\
         neighbor's suspicion − crash, heal = last survivor's heal_end − crash)\n\
         {:>6} {:>10} {:>12} {:>10} {:>17} {:>10}\n",
        "n", "neighbors", "detect (µs)", "heal (µs)", "false suspicions", "messages"
    );
    for n in [16usize, 32, 64, 128] {
        let victim = (n / 2) as MemberId;
        let mut run = e22_run(n, k, Some((victim, crash_time)), 60_000);
        let neighbors: BTreeSet<MemberId> = run.core(victim, |c| {
            let wanted = c
                .membership()
                .overlay()
                .neighbors_of(victim)
                .expect("member");
            wanted.into_iter().collect()
        });
        let (mut detect, mut heal): (Time, Time) = (0, 0);
        let mut suspecting = BTreeSet::new();
        let mut healed = BTreeSet::new();
        let mut false_suspicions = 0usize;
        for e in run.events() {
            match e.kind {
                EventKind::Suspicion { peer } if MemberId::from(peer) == victim => {
                    suspecting.insert(MemberId::from(e.node));
                    detect = detect.max(e.at_us);
                }
                EventKind::Suspicion { .. } => false_suspicions += 1,
                EventKind::HealEnd { .. } => {
                    healed.insert(e.node);
                    heal = heal.max(e.at_us);
                }
                _ => {}
            }
        }
        assert_eq!(
            suspecting, neighbors,
            "completeness: exactly the victim's neighbors suspect it (n={n})"
        );
        assert_eq!(
            healed.len(),
            n - 1,
            "every survivor finishes healing (n={n})"
        );
        for m in (0..n as MemberId).filter(|&m| m != victim) {
            run.core(m, |c| {
                assert_eq!(c.membership().overlay().len(), n - 1, "replica of {m}")
            });
        }
        let _ = writeln!(
            out,
            "{n:>6} {:>10} {:>12} {:>10} {:>17} {:>10}",
            neighbors.len(),
            detect - crash_time,
            heal - crash_time,
            false_suspicions,
            run.finish().messages_sent,
        );
    }
    out.push_str(
        "shape: detection is independent of n (local monitoring: each node watches only\n\
         its k neighbors): a timeout and a link delay after the victim's last frame on\n\
         each link, which here went on its heartbeat-period tick at the crash instant,\n\
         so it is bounded by timeout + heartbeat period. A heartbeat goes on that tick\n\
         to each link silent for a period, so no live link is silent for two; healing\n\
         adds the crash wave's flood (≈ diameter hops) and one dial round trip; zero\n\
         false suspicions at this timeout/latency margin.\n",
    );
    out
}

/// One E26 cell: the deepest delivered copy's hops and the data frames
/// that crossed a link per delivery, for 32 broadcasts 10 ms apart from
/// rotating origins on K-DIAMOND(n, 3), on the tree ([`SimCluster`]) or
/// the flood ([`ReliableFlooder`]), each link dropping `loss` of its frames.
///
/// # Panics
///
/// Panics if the overlay fails to build or a node misses a broadcast.
#[must_use]
pub fn e26_cell(n: usize, loss: f64, tree: bool) -> (u32, f64) {
    let (end, link, cfg) = (2_000_000, LinkModel::default(), ReliableConfig::default());
    let schedule: Vec<ScheduledBroadcast> = (0..32)
        .map(|i| ScheduledBroadcast {
            id: i + 1,
            origin: (i * n as u64 / 32) as u32,
            at_us: 100_000 + i * 10_000,
        })
        .collect();
    let mut faults = FaultInjector::new(26);
    faults.set_default_rates(LinkFaults {
        drop: loss,
        ..LinkFaults::default()
    });
    let (report, metrics) = if tree {
        let config = RuntimeConfig {
            faults: Some(Arc::new(faults)),
            recorder_capacity: 1 << 10,
            ..RuntimeConfig::default()
        };
        let mut c =
            SimCluster::launch(Constraint::KDiamond, n, 3, config, link, 26).expect("builds");
        for b in &schedule {
            c.run_until(b.at_us);
            c.broadcast(b.origin.into(), bytes::Bytes::new())
                .expect("alive");
        }
        c.run_until(end);
        (c.finish(), Arc::clone(&c.metrics))
    } else {
        let flooder =
            |_| -> Box<dyn Process> { Box::new(ReliableFlooder::new(cfg, schedule.clone(), end)) };
        let metrics = Arc::new(MetricsRegistry::new());
        let overlay = build_kdiamond(n, 3).expect("builds");
        let mut sim = Simulation::new(overlay.graph(), link, 26);
        sim.with_metrics(Arc::clone(&metrics))
            .with_faults(Arc::new(faults));
        (sim.run((0..n).map(flooder).collect(), end), metrics)
    };
    assert_eq!(report.deliveries.len(), 32 * n, "a delivery went missing");
    // `ReliableFlooder` puts its origin's copy on the wire at hop 0,
    // `NodeCore` at hop 1 (edges travelled): count edges for both.
    let hops = report.deliveries.iter().map(|d| d.hops);
    let totals = metrics.wire().class_totals();
    let data = totals.iter().find(|t| t.class.name() == "data");
    let per_delivery = data.map_or(0, |t| t.frames) as f64 / (32 * n) as f64;
    (hops.max().unwrap_or(0) + u32::from(!tree), per_delivery)
}

/// E26 — eager tree vs flood: realized depth against the diameter and
/// ⌈log₂ n⌉, and the bodies a delivery costs, fault-free and at 20 % loss.
///
/// # Panics
///
/// Panics if a build fails or a node misses a broadcast.
#[must_use]
pub fn e26_tree_vs_flood() -> String {
    let mut out = String::from(
        "E26 — eager tree (NodeCore on SimCluster) vs flood (ReliableFlooder), K-DIAMOND k=3,\n\
         32 broadcasts 10 ms apart, links 1 ms ±0.2 ms; depth = max hops of a delivered copy,\n\
         data = data frames that crossed a link per delivery\n\
         \x20    n  loss  diameter  ⌈log₂n⌉  depth tree / flood  data tree / flood\n",
    );
    for n in [16usize, 64, 256] {
        let diam = diameter(build_kdiamond(n, 3).expect("builds").graph()).expect("connected");
        let log2 = n.next_power_of_two().trailing_zeros();
        for loss in [0.0, 0.2] {
            let ((dt, tt), (df, tf)) = (e26_cell(n, loss, true), e26_cell(n, loss, false));
            let pct = loss * 100.0;
            let row = format!("{n:>6} {pct:>4.0}% {diam:>9} {log2:>8} {dt:>11} / {df:<5}");
            let _ = writeln!(out, "{row} {tt:>10.2} / {tf:.2}");
        }
    }
    out.push_str(
        "shape: the tree never runs deeper than the diameter, lossy or not, and costs one body\n\
         per node; the flood pays ≈ 2, and under loss its first copy wanders 2–3× deeper.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_orders_topologies() {
        let out = e21_load_balance();
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("126"))
            .unwrap();
        let cols: Vec<f64> = line
            .split_whitespace()
            .filter_map(|c| c.parse().ok())
            .collect();
        // cols = [n, ktree, kdiamond, harary, tree]
        assert!((cols[3] - 1.0).abs() < 0.05, "Harary balanced: {line}");
        assert!(cols[4] > cols[1], "tree worse than K-TREE: {line}");
        assert!(cols[1] > 1.0, "LHG not perfectly balanced: {line}");
    }

    #[test]
    fn e22_detects_with_zero_false_positives() {
        let c = e22_config();
        let bound = (c.heartbeat_timeout + c.heartbeat_period).as_micros() as u64;
        let out = e22_detection_latency();
        for line in out.lines().filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|c| c.parse::<usize>().is_ok())
        }) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[4], "0", "false suspicions: {line}");
            let (detect, heal): (u64, u64) = (cols[2].parse().unwrap(), cols[3].parse().unwrap());
            assert!(detect <= bound, "detection within timeout + period: {line}");
            assert!(
                detect <= heal && heal < 25_000,
                "heal follows detection: {line}"
            );
        }
    }

    /// Accuracy (what the deleted `lhg_net::detector` tests pinned): with
    /// timeout > period + max delay and no crash, nobody is ever suspected.
    #[test]
    fn e22_no_crash_no_suspicion() {
        let mut run = e22_run(16, 3, None, 50_000);
        assert_eq!(run.metrics.counter("runtime.suspects").get(), 0);
        assert_eq!(run.metrics.counter("runtime.crashes_applied").get(), 0);
        assert!(
            run.finish().messages_sent > 16 * 3 * 40,
            "heartbeats kept flowing"
        );
    }
}
