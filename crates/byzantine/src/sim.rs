//! Bracha broadcast as a discrete-event simulator process: the vote
//! exchange alone, on a fixed membership.
//!
//! A correct node runs [`ByzantineFlooder`]: a thin [`Process`] adapter
//! over [`VoteExchange`] — frames and timers in, whatever the exchange
//! appends to its sink out, deliveries to the application via
//! `ctx.deliver`. The payload floods once (`SEND`, relayed on first
//! sight to every other link, so it crosses the overlay on all k disjoint
//! paths); votes travel as witness-set deltas between neighbors. The
//! flood is this adapter's: it holds no graph to find the eager tree in,
//! which `lhg_runtime::core::NodeCore` relays the `SEND` down. The adapter
//! stays as the benchmark's until that workload runs `NodeCore` too.
//!
//! Traitors are `lhg_runtime::traitor`'s, a wrapper around the node's
//! core. This process is what the benchmark's `sim_bracha` workload and
//! the bench baseline measure: correct nodes and their exchange.
//!
//! Delivered application messages are shaped for an audit: `broadcast_id`
//! is the instance nonce, `origin` the instance origin, `trace` the
//! certified digest (so agreement is checkable from the
//! [`lhg_net::sim::Delivery`] record alone), and the byz tag rides along.

use std::sync::Arc;

use bytes::Bytes;

use lhg_graph::NodeId;
use lhg_net::message::Message;
use lhg_net::reliable::{ReliableConfig, Sends};
use lhg_net::seen::SeenSet;
use lhg_net::sim::{Context, Process, Time};

use crate::engine::ByzDelivery;
use crate::exchange::VoteExchange;
use crate::BrachaConfig;

/// Timer token space for scheduled broadcasts (token = schedule index).
const SCHEDULE_TOKEN_LIMIT: u64 = 1 << 32;
/// Token for a flooder's repair-round timer.
const REPAIR_TOKEN: u64 = 1 << 35;

/// Repair period: this often a correct node declares its witness sets to
/// each neighbor an instance is not yet settled toward
/// ([`VoteExchange::repair`]), so a lossy link cannot permanently starve a
/// quorum of one dropped vote. (How long an echo waits for company on its
/// way out is no constant at all: until the link's last frame is answered,
/// rule 4 of [`crate::exchange`].)
pub const REGOSSIP_PERIOD_US: Time = 100_000;

/// A broadcast a correct node originates at a scheduled time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledByzBroadcast {
    /// Per-origin instance nonce.
    pub nonce: u64,
    /// Application payload.
    pub payload: Bytes,
    /// Simulated origination time.
    pub at_us: Time,
}

/// A correct node: run the vote exchange, deliver.
pub struct ByzantineFlooder {
    exchange: VoteExchange<NodeId>,
    seen: SeenSet,
    /// Reused sinks for what the exchange wants sent and delivered.
    sends: Sends<NodeId>,
    delivered: Vec<ByzDelivery>,
    schedule: Vec<ScheduledByzBroadcast>,
    /// Repair period (None: repair disabled, the lossless default), and
    /// whether its timer is in flight.
    repair_period: Option<Time>,
    repair_armed: bool,
    metrics: Option<Arc<lhg_net::metrics::MetricsRegistry>>,
}

impl ByzantineFlooder {
    /// A correct node `me` with quorum config `cfg` that only relays.
    #[must_use]
    pub fn new(me: u32, cfg: BrachaConfig) -> Self {
        ByzantineFlooder {
            exchange: VoteExchange::new(me, cfg, ReliableConfig::default().max_retries),
            seen: SeenSet::default(),
            sends: Vec::new(),
            delivered: Vec::new(),
            schedule: Vec::new(),
            repair_period: None,
            repair_armed: false,
            metrics: None,
        }
    }

    /// The same node originating `schedule` at the given times.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Vec<ScheduledByzBroadcast>) -> Self {
        assert!((schedule.len() as u64) < SCHEDULE_TOKEN_LIMIT);
        self.schedule = schedule;
        self
    }

    /// The same node running the exchange's repair rounds every
    /// [`REGOSSIP_PERIOD_US`] while an instance is unsettled toward a
    /// neighbor, so that a vote frame lost to a lossy link cannot starve a
    /// quorum for good.
    #[must_use]
    pub fn with_repair(mut self) -> Self {
        self.repair_period = Some(REGOSSIP_PERIOD_US);
        self
    }

    /// Records quorum-safety metrics: a broadcast refused under an unsound
    /// view increments `byz.unsafe_views`, each vote dropped for naming a
    /// non-member `byz.votes_rejected`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<lhg_net::metrics::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The exchange this node runs (for tests that inspect link state).
    #[must_use]
    pub fn exchange(&self) -> &VoteExchange<NodeId> {
        &self.exchange
    }

    /// Sends and delivers what the exchange queued, and keeps the repair
    /// timer armed while there is something for it to do.
    fn emit(&mut self, ctx: &mut Context<'_>) {
        for (to, msg) in self.sends.drain(..) {
            ctx.send(to, msg);
        }
        for d in self.delivered.drain(..) {
            ctx.deliver(d.into_message());
        }
        if let (false, Some(period)) = (self.repair_armed, self.repair_period) {
            if (self.exchange).repair_pending(ctx.neighbors().iter().copied()) {
                self.repair_armed = true;
                ctx.set_timer(period, REPAIR_TOKEN);
            }
        }
    }

    fn bump_count(&self, name: &'static str, by: u64) {
        if let (Some(m), true) = (&self.metrics, by > 0) {
            m.counter(name).add(by);
        }
    }
}

impl Process for ByzantineFlooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (idx, b) in self.schedule.iter().enumerate() {
            ctx.set_timer(b.at_us, idx as u64);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        // No graph here: a first-seen SEND goes on to every other link.
        let peers = ctx.neighbors().iter().copied();
        let (seen, sends, delivered) = (&mut self.seen, &mut self.sends, &mut self.delivered);
        let x = &mut self.exchange;
        let rejected = x.on_frame(from, &msg, seen, peers.clone(), peers, sends, delivered);
        self.bump_count("byz.votes_rejected", rejected);
        self.emit(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let peers = ctx.neighbors().iter().copied();
        let (seen, sends, delivered) = (&mut self.seen, &mut self.sends, &mut self.delivered);
        if token == REPAIR_TOKEN {
            // Anti-entropy: declare every unsettled instance to each peer;
            // what a lossy link dropped comes back in the answers.
            self.repair_armed = false;
            self.exchange.repair(peers, sends);
        } else if let Some(b) = self.schedule.get(token as usize) {
            let payload = b.payload.clone();
            // A refusal means the view is unsound (n < 3f+1).
            let sent = (self.exchange).broadcast(b.nonce, payload, seen, peers, sends, delivered);
            if sent.is_err() {
                self.bump_count("byz.unsafe_views", 1);
            }
        }
        self.emit(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_core::ktree::build_ktree;
    use lhg_net::sim::{LinkModel, SimReport, Simulation};

    /// Eight correct nodes over K-TREE(8, 3) with seeded link jitter; node
    /// 1 originates one instance at 5 ms.
    fn run(seed: u64) -> SimReport {
        let graph = build_ktree(8, 3).expect("buildable overlay").into_graph();
        let cfg = BrachaConfig::for_overlay(8, 3).expect("n ≥ 2k");
        let link = LinkModel {
            base_latency_us: 100,
            jitter_us: 50,
        };
        let processes = (0..8u32)
            .map(|v| -> Box<dyn Process> {
                let schedule = (v == 1).then(|| ScheduledByzBroadcast {
                    nonce: 0x1000,
                    payload: Bytes::from_static(b"scheduled payload"),
                    at_us: 5_000,
                });
                let node = ByzantineFlooder::new(v, cfg);
                Box::new(node.with_schedule(schedule.into_iter().collect()))
            })
            .collect();
        Simulation::new(&graph, link, seed).run(processes, 2_000_000)
    }

    #[test]
    fn all_correct_overlay_delivers_everywhere() {
        let report = run(7);
        let mut nodes: Vec<usize> = (report.deliveries.iter())
            .inspect(|d| assert_eq!(d.broadcast_id, 0x1000))
            .map(|d| d.node.index())
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..8).collect::<Vec<_>>(), "each node once");
        let digest = crate::digest(b"scheduled payload");
        assert!(report.deliveries.iter().all(|d| d.trace == Some(digest)));
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let (a, b) = (run(42), run(42));
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.messages_sent, b.messages_sent);
    }
}
