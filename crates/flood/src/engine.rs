//! Round-synchronous dissemination engine.
//!
//! A single broadcast is simulated in lockstep rounds: the origin knows the
//! message at round 0; every round, each live informed node sends according
//! to its [`Protocol`]; messages cross live links and are delivered to live
//! nodes at the next round. The run ends at quiescence (no sends happened).
//!
//! The engine is deterministic given the topology, plan, protocol and seed,
//! which is what lets the experiments make exact claims ("with any k−1
//! failures, coverage is 100%").

use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng as _, SeedableRng};

use lhg_graph::{CsrGraph, Edge, NodeId};

use crate::failure::FailurePlan;

/// Dissemination protocol run by every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Deterministic flooding: the round after first receiving the message,
    /// forward it once to every neighbor except the first sender. The
    /// protocol the LHG topologies are designed for.
    Flood,
    /// Push gossip: for `rounds_per_node` consecutive rounds after becoming
    /// informed, push to `fanout` uniformly random neighbors. Probabilistic
    /// coverage — the randomized baseline (\[5\] in the follow-up study).
    GossipPush {
        /// Random neighbors contacted per round.
        fanout: usize,
        /// How many rounds an informed node keeps pushing.
        rounds_per_node: u32,
    },
    /// Flooding with retransmissions: like [`Protocol::Flood`], but each
    /// node repeats its forward for `retries` consecutive rounds. Useless
    /// on reliable links; the standard counter-measure on lossy ones
    /// (experiment E18, after Lin & Marzullo's flooding-vs-gossip study).
    FloodRetry {
        /// Consecutive rounds each node transmits after being informed.
        retries: u32,
    },
    /// Push–pull (anti-entropy) gossip: for `rounds` global rounds, every
    /// live node contacts `fanout` random neighbors; a contact informs the
    /// uninformed party if either side knows the message.
    GossipPushPull {
        /// Random neighbors contacted per round by every node.
        fanout: usize,
        /// Total number of global rounds.
        rounds: u32,
    },
}

/// Outcome of one simulated broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodOutcome {
    /// Round at which each node was informed (`None` = never).
    pub informed_at: Vec<Option<u32>>,
    /// The neighbor each node was first informed by (`None` for the origin
    /// and for never-informed nodes) — the realized dissemination tree.
    pub parents: Vec<Option<NodeId>>,
    /// Total messages sent (each transmission attempt counts, including
    /// attempts onto failed links and to crashed nodes — the sender cannot
    /// know).
    pub messages_sent: u64,
    /// First round with no sends (the broadcast has quiesced).
    pub quiescence_round: u32,
    /// Number of *correct* nodes (never crash during the run).
    pub correct_nodes: usize,
    /// Number of correct nodes that were informed.
    pub correct_informed: usize,
}

impl FloodOutcome {
    /// Fraction of correct nodes informed (1.0 when there are none).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.correct_nodes == 0 {
            1.0
        } else {
            self.correct_informed as f64 / self.correct_nodes as f64
        }
    }

    /// `true` if every correct node got the message — the reliable-broadcast
    /// success criterion.
    #[must_use]
    pub fn full_coverage(&self) -> bool {
        self.correct_informed == self.correct_nodes
    }

    /// Latest informing round among correct nodes (0 if only the origin).
    #[must_use]
    pub fn last_informed_round(&self) -> u32 {
        self.informed_at
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Coverage curve: for each round `r = 0..=last`, the fraction of
    /// correct nodes informed by the end of round `r`. The figure-style
    /// series experiment E18 plots.
    #[must_use]
    pub fn coverage_curve(&self) -> Vec<f64> {
        let last = self.last_informed_round();
        if self.correct_nodes == 0 {
            return vec![1.0; last as usize + 1];
        }
        let mut counts = vec![0usize; last as usize + 1];
        for r in self.informed_at.iter().flatten() {
            counts[*r as usize] += 1;
        }
        let mut acc = 0;
        counts
            .into_iter()
            .map(|c| {
                acc += c;
                // Crashed-but-informed nodes may push this over correct
                // counts; clamp for a monotone fraction of correct nodes.
                (acc as f64 / self.correct_nodes as f64).min(1.0)
            })
            .collect()
    }
}

/// Runs one broadcast of `protocol` from `origin` over `topology` under
/// `plan`, with perfectly reliable links. `seed` feeds the gossip RNG
/// (deterministic floods ignore it).
///
/// # Panics
///
/// Panics if `origin` is out of bounds or is crashed from round 0.
#[must_use]
pub fn run_broadcast(
    topology: &CsrGraph,
    origin: NodeId,
    plan: &FailurePlan,
    protocol: Protocol,
    seed: u64,
) -> FloodOutcome {
    run_broadcast_lossy(topology, origin, plan, protocol, seed, 0.0)
}

/// Like [`run_broadcast`], but every transmission is independently lost
/// with probability `loss_prob` (a lossy-datagram network, the setting of
/// Lin & Marzullo's flooding-vs-gossip comparison).
///
/// # Panics
///
/// Panics if `origin` is invalid (see [`run_broadcast`]) or `loss_prob` is
/// not within `0.0..=1.0`.
#[must_use]
pub fn run_broadcast_lossy(
    topology: &CsrGraph,
    origin: NodeId,
    plan: &FailurePlan,
    protocol: Protocol,
    seed: u64,
    loss_prob: f64,
) -> FloodOutcome {
    let n = topology.node_count();
    assert!(origin.index() < n, "origin {origin} out of bounds");
    assert!(
        !plan.is_crashed(origin, 0),
        "origin must be live at round 0"
    );
    assert!(
        (0.0..=1.0).contains(&loss_prob),
        "loss probability out of range"
    );

    if let Protocol::GossipPushPull { fanout, rounds } = protocol {
        return run_push_pull(topology, origin, plan, fanout, rounds, seed, loss_prob);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut informed_at: Vec<Option<u32>> = vec![None; n];
    let mut first_sender: Vec<Option<NodeId>> = vec![None; n];
    informed_at[origin.index()] = Some(0);

    // How many more rounds each informed node keeps transmitting.
    let sends_on_inform = match protocol {
        Protocol::Flood => 1,
        Protocol::FloodRetry { retries } => retries.max(1),
        Protocol::GossipPush {
            rounds_per_node, ..
        } => rounds_per_node,
        Protocol::GossipPushPull { .. } => unreachable!("handled above"),
    };
    let mut sends_left: Vec<u32> = vec![0; n];
    sends_left[origin.index()] = sends_on_inform;

    let mut messages_sent: u64 = 0;
    let mut round: u32 = 0;
    let mut senders: Vec<NodeId> = vec![origin];
    sends_left[origin.index()] -= 1;

    loop {
        round += 1;
        let mut deliveries: Vec<(NodeId, NodeId)> = Vec::new(); // (from, to)
        let mut sent_this_round = false;

        for &v in &senders {
            if plan.is_crashed(v, round) {
                continue; // crashed before it could transmit this round
            }
            let targets: Vec<NodeId> = match protocol {
                Protocol::Flood | Protocol::FloodRetry { .. } => topology
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| Some(w) != first_sender[v.index()])
                    .collect(),
                Protocol::GossipPush { fanout, .. } => topology
                    .neighbors(v)
                    .iter()
                    .copied()
                    .choose_multiple(&mut rng, fanout),
                Protocol::GossipPushPull { .. } => unreachable!("handled above"),
            };
            for w in targets {
                sent_this_round = true;
                messages_sent += 1;
                if loss_prob > 0.0 && rng.random_bool(loss_prob) {
                    continue; // dropped on the wire
                }
                if plan.is_link_failed(Edge::new(v, w)) || plan.is_crashed(w, round) {
                    continue; // failed link or dead receiver
                }
                deliveries.push((v, w));
            }
        }

        // Deliver simultaneously at the end of the round.
        for (from, to) in deliveries {
            if informed_at[to.index()].is_none() {
                informed_at[to.index()] = Some(round);
                first_sender[to.index()] = Some(from);
                sends_left[to.index()] = sends_on_inform;
            }
        }

        // Build the next round's sender set from remaining send budgets.
        senders.clear();
        for v in 0..n {
            if informed_at[v].is_some() && sends_left[v] > 0 {
                sends_left[v] -= 1;
                senders.push(NodeId(v));
            }
        }

        if senders.is_empty() {
            if !sent_this_round {
                round -= 1; // nothing happened this round
            }
            break;
        }
    }

    finish(informed_at, first_sender, messages_sent, round, plan)
}

/// Push–pull anti-entropy loop: every live node contacts `fanout` random
/// neighbors each round; a contact synchronizes the pair.
fn run_push_pull(
    topology: &CsrGraph,
    origin: NodeId,
    plan: &FailurePlan,
    fanout: usize,
    rounds: u32,
    seed: u64,
    loss_prob: f64,
) -> FloodOutcome {
    let n = topology.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut informed_at: Vec<Option<u32>> = vec![None; n];
    let mut first_sender: Vec<Option<NodeId>> = vec![None; n];
    informed_at[origin.index()] = Some(0);
    let mut messages_sent: u64 = 0;

    for round in 1..=rounds {
        let informed_snapshot: Vec<bool> = informed_at.iter().map(Option::is_some).collect();
        let mut to_inform: Vec<(usize, NodeId)> = Vec::new(); // (node, informer)
        for v in 0..n {
            if plan.is_crashed(NodeId(v), round) {
                continue;
            }
            let contacts = topology
                .neighbors(NodeId(v))
                .iter()
                .copied()
                .choose_multiple(&mut rng, fanout);
            for w in contacts {
                // A push-pull exchange costs a request plus (if productive)
                // a payload transfer; count the request.
                messages_sent += 1;
                if loss_prob > 0.0 && rng.random_bool(loss_prob) {
                    continue;
                }
                if plan.is_link_failed(Edge::new(NodeId(v), w)) || plan.is_crashed(w, round) {
                    continue;
                }
                match (informed_snapshot[v], informed_snapshot[w.index()]) {
                    (true, false) => to_inform.push((w.index(), NodeId(v))),
                    (false, true) => to_inform.push((v, w)),
                    _ => {}
                }
            }
        }
        for (v, informer) in to_inform {
            if informed_at[v].is_none() {
                informed_at[v] = Some(round);
                first_sender[v] = Some(informer);
            }
        }
    }

    finish(informed_at, first_sender, messages_sent, rounds, plan)
}

fn finish(
    informed_at: Vec<Option<u32>>,
    parents: Vec<Option<NodeId>>,
    messages_sent: u64,
    quiescence_round: u32,
    plan: &FailurePlan,
) -> FloodOutcome {
    let mut correct_nodes = 0;
    let mut correct_informed = 0;
    for (v, informed) in informed_at.iter().enumerate() {
        if !plan.ever_crashes(NodeId(v)) {
            correct_nodes += 1;
            if informed.is_some() {
                correct_informed += 1;
            }
        }
    }
    FloodOutcome {
        informed_at,
        parents,
        messages_sent,
        quiescence_round,
        correct_nodes,
        correct_informed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_graph::Graph;

    fn csr_cycle(n: usize) -> CsrGraph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        CsrGraph::from_graph(&g)
    }

    fn csr_path(n: usize) -> CsrGraph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i));
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn flood_covers_cycle_in_n_half_rounds() {
        let t = csr_cycle(10);
        let out = run_broadcast(&t, NodeId(0), &FailurePlan::none(), Protocol::Flood, 0);
        assert!(out.full_coverage());
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(out.last_informed_round(), 5);
        // Node i is informed at min(i, n-i).
        for i in 0..10usize {
            assert_eq!(out.informed_at[i], Some(i.min(10 - i) as u32), "node {i}");
        }
    }

    #[test]
    fn flood_message_count_on_path() {
        // Path 0-1-2-3, origin 0: 0 sends 1 msg; 1 forwards to 2 (not back);
        // 2 forwards to 3; 3 has only its sender -> 0 sends. Total 3.
        let t = csr_path(4);
        let out = run_broadcast(&t, NodeId(0), &FailurePlan::none(), Protocol::Flood, 0);
        assert_eq!(out.messages_sent, 3);
        assert!(out.full_coverage());
    }

    #[test]
    fn flood_from_middle_sends_both_ways() {
        let t = csr_path(5);
        let out = run_broadcast(&t, NodeId(2), &FailurePlan::none(), Protocol::Flood, 0);
        assert!(out.full_coverage());
        assert_eq!(out.last_informed_round(), 2);
    }

    #[test]
    fn crashed_from_start_node_blocks_a_path() {
        let t = csr_path(4);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(1), 0);
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert!(!out.full_coverage());
        assert_eq!(out.correct_nodes, 3);
        assert_eq!(out.correct_informed, 1, "only the origin");
        assert!(out.coverage() < 0.5);
    }

    #[test]
    fn cycle_survives_one_crash() {
        let t = csr_cycle(8);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(3), 0);
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert!(out.full_coverage(), "2-connected survives 1 failure");
        assert_eq!(out.correct_nodes, 7);
    }

    #[test]
    fn cycle_splits_under_two_crashes() {
        let t = csr_cycle(8);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(2), 0);
        plan.crash_node(NodeId(6), 0);
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert!(!out.full_coverage());
        // Nodes 3,4,5 unreachable.
        assert_eq!(out.correct_informed, 3);
    }

    #[test]
    fn link_failure_is_bidirectional() {
        let t = csr_cycle(6);
        let mut plan = FailurePlan::none();
        plan.fail_link(Edge::new(NodeId(0), NodeId(1)));
        plan.fail_link(Edge::new(NodeId(3), NodeId(4)));
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert!(!out.full_coverage(), "two link failures split the cycle");
        assert_eq!(out.correct_informed, 3, "only the 0-5-4 side is reachable");
    }

    #[test]
    fn mid_flood_crash_can_still_block() {
        // Path: node 1 is informed at round 1 but crashes from round 2 — the
        // round it would forward in — so the message dies with it.
        let t = csr_path(4);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(1), 2);
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert_eq!(out.informed_at[1], Some(1), "informed before crashing");
        assert!(!out.full_coverage(), "crashed before forwarding");
    }

    #[test]
    fn mid_flood_crash_after_forwarding_is_harmless() {
        // Node 1 forwards during round 2 and only crashes from round 3.
        let t = csr_path(4);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(1), 3);
        let out = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
        assert!(out.full_coverage());
    }

    #[test]
    fn gossip_with_full_fanout_behaves_like_flooding() {
        let t = csr_cycle(12);
        let out = run_broadcast(
            &t,
            NodeId(0),
            &FailurePlan::none(),
            Protocol::GossipPush {
                fanout: 2,
                rounds_per_node: 12,
            },
            7,
        );
        assert!(out.full_coverage());
    }

    #[test]
    fn gossip_with_fanout_1_can_miss_nodes() {
        // On a star, fanout-1 gossip from a leaf reaches the hub, which then
        // pushes to one random leaf per round for rounds_per_node rounds:
        // with few rounds, some leaves stay uninformed.
        let mut g = Graph::with_nodes(12);
        for i in 1..12 {
            g.add_edge(NodeId(0), NodeId(i));
        }
        let t = CsrGraph::from_graph(&g);
        let out = run_broadcast(
            &t,
            NodeId(1),
            &FailurePlan::none(),
            Protocol::GossipPush {
                fanout: 1,
                rounds_per_node: 3,
            },
            3,
        );
        assert!(!out.full_coverage(), "3 pushes cannot reach 10 leaves");
        assert!(out.coverage() > 0.0);
    }

    #[test]
    fn gossip_is_reproducible_per_seed() {
        let t = csr_cycle(20);
        let p = Protocol::GossipPush {
            fanout: 1,
            rounds_per_node: 4,
        };
        let a = run_broadcast(&t, NodeId(0), &FailurePlan::none(), p, 5);
        let b = run_broadcast(&t, NodeId(0), &FailurePlan::none(), p, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn quiescence_round_is_reported() {
        let t = csr_path(3);
        let out = run_broadcast(&t, NodeId(0), &FailurePlan::none(), Protocol::Flood, 0);
        assert!(out.quiescence_round >= out.last_informed_round());
    }

    #[test]
    fn parents_form_the_dissemination_tree() {
        let t = csr_path(4);
        let out = run_broadcast(&t, NodeId(0), &FailurePlan::none(), Protocol::Flood, 0);
        assert_eq!(
            out.parents,
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))]
        );
    }

    #[test]
    fn push_pull_records_informers_as_parents() {
        let t = csr_cycle(6);
        let out = run_broadcast(
            &t,
            NodeId(0),
            &FailurePlan::none(),
            Protocol::GossipPushPull {
                fanout: 2,
                rounds: 12,
            },
            3,
        );
        assert!(out.full_coverage());
        assert_eq!(out.parents[0], None, "origin has no parent");
        for v in 1..6 {
            assert!(out.parents[v].is_some(), "node {v} knows its informer");
        }
    }

    #[test]
    #[should_panic(expected = "origin must be live")]
    fn crashed_origin_is_rejected() {
        let t = csr_cycle(4);
        let mut plan = FailurePlan::none();
        plan.crash_node(NodeId(0), 0);
        let _ = run_broadcast(&t, NodeId(0), &plan, Protocol::Flood, 0);
    }

    #[test]
    fn single_node_topology() {
        let t = CsrGraph::from_graph(&Graph::with_nodes(1));
        let out = run_broadcast(&t, NodeId(0), &FailurePlan::none(), Protocol::Flood, 0);
        assert!(out.full_coverage());
        assert_eq!(out.messages_sent, 0);
    }
}
