//! Bracha broadcast as discrete-event simulator processes, plus seeded
//! traitor processes implementing the adversarial behaviors the chaos
//! engine exercises.
//!
//! A correct node runs [`ByzantineFlooder`]: a thin [`Process`] adapter
//! over [`VoteExchange`] — frames and timers in, whatever the exchange
//! appends to its sink out, deliveries to the application via
//! `ctx.deliver`. The payload floods once (`SEND`, relayed on first
//! sight, so it crosses the overlay on all k disjoint paths); votes travel
//! as witness-set deltas between neighbors.
//!
//! A traitor runs [`ByzantineTraitor`]: the same machinery, corrupted in
//! one seeded way ([`TraitorBehavior`]). Traitors only ever act under
//! their own witness identity — the "signed-enough" model — so their
//! power is bounded exactly as the protocol assumes.
//!
//! Delivered application messages are shaped for the chaos oracle:
//! `broadcast_id` is the instance nonce, `origin` the instance origin,
//! `trace` the certified digest (so agreement is checkable from the
//! [`lhg_net::sim::Delivery`] record alone), and the byz tag rides along.

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lhg_graph::{Graph, NodeId};
use lhg_net::message::Message;
use lhg_net::reliable::{ReliableConfig, Sends};
use lhg_net::seen::SeenSet;
use lhg_net::sim::{Context, LinkModel, Process, SimReport, Simulation, Time};

use crate::engine::ByzDelivery;
use crate::exchange::VoteExchange;
use crate::frame::{GossipFrame, GossipKind};
use crate::{attack, BrachaConfig};

/// Timer token space for scheduled broadcasts (token = schedule index).
const SCHEDULE_TOKEN_LIMIT: u64 = 1 << 32;
/// Token for a traitor's one-shot attack timer.
const ATTACK_TOKEN: u64 = 1 << 40;
/// Token for a replay traitor's recurring re-flood timer.
const REPLAY_TOKEN: u64 = (1 << 40) + 1;
/// Token for a flooder's repair-round timer.
const REPAIR_TOKEN: u64 = 1 << 35;

/// Repair period: this often a correct node declares its witness sets to
/// each neighbor an instance is not yet settled toward
/// ([`VoteExchange::repair`]), so a lossy link cannot permanently starve a
/// quorum of one dropped vote. (How long an echo waits for company on its
/// way out is no constant at all: until the link's last frame is answered,
/// rule 4 of [`crate::exchange`].)
pub const REGOSSIP_PERIOD_US: Time = 100_000;
/// Delay before a traitor mounts its attack: late enough that dials and
/// first frames have propagated, early enough to race real broadcasts.
const ATTACK_DELAY_US: Time = 20_000;
/// Replay period for [`TraitorBehavior::Replay`].
const REPLAY_PERIOD_US: Time = 50_000;

pub use crate::attack::{EQUIVOCATE_NONCE_BASE, FORGE_NONCE_BASE};

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

/// The adversarial repertoire: each traitor is corrupted in one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraitorBehavior {
    /// Originates one instance under its own identity but sends payload A
    /// to half its neighbors and payload B to the other half.
    Equivocate,
    /// Tells every neighbor it echoed and readied an instance a correct
    /// origin never sent, vouched only by itself.
    Forge,
    /// Says nothing at all: no relays, no votes.
    Silent,
    /// Runs the protocol correctly but stashes every frame it receives and
    /// periodically re-sends stale copies.
    Replay,
    /// Attacks the *failure detector*, not the gossip layer: on the TCP
    /// runtime it floods forged CRASH waves naming a live victim, trying
    /// to excommunicate a node that is still heartbeating. At the gossip
    /// layer it relays payloads honestly but casts and passes on no votes.
    FrameCrash,
    /// Attacks *healing*: on the TCP runtime it suppresses its own
    /// heartbeats and summaries so correct nodes legitimately
    /// excommunicate it, forcing churn while it keeps listening. At the
    /// gossip layer it relays payloads honestly but casts and passes on no
    /// votes.
    SuppressHeartbeat,
}

impl TraitorBehavior {
    /// All behaviors, in seeding order.
    pub const ALL: [TraitorBehavior; 6] = [
        TraitorBehavior::Equivocate,
        TraitorBehavior::Forge,
        TraitorBehavior::Silent,
        TraitorBehavior::Replay,
        TraitorBehavior::FrameCrash,
        TraitorBehavior::SuppressHeartbeat,
    ];

    /// Stable lowercase name (chaos plans and JSON summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraitorBehavior::Equivocate => "equivocate",
            TraitorBehavior::Forge => "forge",
            TraitorBehavior::Silent => "silent",
            TraitorBehavior::Replay => "replay",
            TraitorBehavior::FrameCrash => "frame_crash",
            TraitorBehavior::SuppressHeartbeat => "suppress_heartbeat",
        }
    }
}

/// A [`VoteExchange`] hosted on one simulator node: what the correct node
/// and the traitor share.
struct Hosted {
    exchange: VoteExchange<NodeId>,
    seen: SeenSet,
    /// Reused sinks for what the exchange wants sent and delivered.
    sends: Sends<NodeId>,
    delivered: Vec<ByzDelivery>,
}

impl Hosted {
    fn new(me: u32, cfg: BrachaConfig) -> Self {
        Hosted {
            exchange: VoteExchange::new(me, cfg, ReliableConfig::default().max_retries),
            seen: SeenSet::default(),
            sends: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Hands one byz frame to the exchange; returns the votes it refused.
    fn on_frame(&mut self, from: NodeId, msg: &Message, ctx: &Context<'_>) -> u64 {
        let peers = ctx.neighbors().iter().copied();
        let (seen, sends, delivered) = (&mut self.seen, &mut self.sends, &mut self.delivered);
        (self.exchange).on_frame(from, msg, seen, peers, sends, delivered)
    }

    /// Relays `msg` to every neighbor but `from` if this is its first
    /// copy; returns whether it was.
    fn relay_once(&mut self, from: NodeId, msg: &Message, ctx: &mut Context<'_>) -> bool {
        let fresh = self.seen.insert(msg.broadcast_id);
        if fresh {
            let fwd = msg.forwarded();
            for &w in &ctx.neighbors().to_vec() {
                if w != from {
                    ctx.send(w, fwd.clone());
                }
            }
        }
        fresh
    }

    /// Sends what the exchange queued; returns the deliveries for the
    /// caller to report or drop.
    fn emit(&mut self, ctx: &mut Context<'_>) -> std::vec::Drain<'_, ByzDelivery> {
        for (to, msg) in self.sends.drain(..) {
            ctx.send(to, msg);
        }
        self.delivered.drain(..)
    }
}

/// A correct node: run the vote exchange, deliver.
pub struct ByzantineFlooder {
    host: Hosted,
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
            host: Hosted::new(me, cfg),
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
        &self.host.exchange
    }

    /// Sends and delivers what the exchange queued, and keeps the repair
    /// timer armed while there is something for it to do.
    fn emit(&mut self, ctx: &mut Context<'_>) {
        for d in self.host.emit(ctx) {
            ctx.deliver(d.into_message());
        }
        if let (false, Some(period)) = (self.repair_armed, self.repair_period) {
            if (self.host.exchange).repair_pending(ctx.neighbors().iter().copied()) {
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
        let rejected = self.host.on_frame(from, &msg, ctx);
        self.bump_count("byz.votes_rejected", rejected);
        self.emit(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let peers = ctx.neighbors().iter().copied();
        if token == REPAIR_TOKEN {
            // Anti-entropy: declare every unsettled instance to each peer;
            // what a lossy link dropped comes back in the answers.
            self.repair_armed = false;
            self.host.exchange.repair(peers, &mut self.host.sends);
        } else if let Some(b) = self.schedule.get(token as usize) {
            let (nonce, payload) = (b.nonce, b.payload.clone());
            let Hosted {
                exchange,
                seen,
                sends,
                delivered,
            } = &mut self.host;
            // A refusal means the view is unsound (n < 3f+1).
            if (exchange.broadcast(nonce, payload, seen, peers, sends, delivered)).is_err() {
                self.bump_count("byz.unsafe_views", 1);
            }
        }
        self.emit(ctx);
    }
}

/// A traitor node: correct-protocol scaffolding corrupted in one seeded
/// way. All misbehavior happens under the traitor's own witness identity.
pub struct ByzantineTraitor {
    me: u32,
    behavior: TraitorBehavior,
    host: Hosted,
    rng: StdRng,
    /// Frames a Replay traitor has stashed for re-sending.
    stash: Vec<Message>,
}

impl ByzantineTraitor {
    /// A traitor at node `me` with the given corruption, deterministically
    /// seeded.
    #[must_use]
    pub fn new(me: u32, cfg: BrachaConfig, behavior: TraitorBehavior, seed: u64) -> Self {
        ByzantineTraitor {
            me,
            behavior,
            host: Hosted::new(me, cfg),
            rng: StdRng::seed_from_u64(seed ^ u64::from(me).rotate_left(17)),
            stash: Vec::new(),
        }
    }

    /// `true` for the behaviors whose teeth are in the TCP runtime's
    /// failure detector: at the gossip layer they pass payloads on and
    /// otherwise sit the protocol out.
    fn relay_only(&self) -> bool {
        matches!(
            self.behavior,
            TraitorBehavior::FrameCrash | TraitorBehavior::SuppressHeartbeat
        )
    }

    /// Sends what the exchange queued. Traitor deliveries are not
    /// reported: the oracle only audits correct nodes.
    fn emit(&mut self, ctx: &mut Context<'_>) {
        self.host.emit(ctx).for_each(drop);
    }

    /// Mounts [`attack::equivocation_pair`]: story A to even-indexed
    /// neighbors, story B to odd-indexed ones.
    fn equivocate(&mut self, ctx: &mut Context<'_>) {
        let pair = attack::equivocation_pair(self.me).map(|f| f.to_message());
        self.host.seen.insert(pair[0].broadcast_id);
        self.host.seen.insert(pair[1].broadcast_id);
        for (i, w) in ctx.neighbors().to_vec().into_iter().enumerate() {
            ctx.send(w, pair[i % 2].clone());
        }
    }

    /// Sends [`attack::forged_votes`] impersonating the lowest other node
    /// as origin to every neighbor.
    fn forge(&mut self, ctx: &mut Context<'_>) {
        let msg = attack::forged_votes(self.me, u32::from(self.me == 0)).to_message(self.me);
        for w in ctx.neighbors().to_vec() {
            ctx.send(w, msg.clone());
        }
    }
}

impl Process for ByzantineTraitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self.behavior {
            TraitorBehavior::Equivocate | TraitorBehavior::Forge => {
                ctx.set_timer(ATTACK_DELAY_US, ATTACK_TOKEN);
            }
            TraitorBehavior::Replay => ctx.set_timer(REPLAY_PERIOD_US, REPLAY_TOKEN),
            // Fully mute, matching the TCP engine's silent traitor: no
            // relays, no votes. One mute node is within the f budget; over
            // budget, mute nodes starve the echo quorum and the oracle
            // fires — which is exactly how the bound's tightness is shown.
            // Failure-detector attacks have no gossip-layer timer: their
            // teeth are in the TCP runtime (core.rs mounts them there).
            TraitorBehavior::Silent
            | TraitorBehavior::FrameCrash
            | TraitorBehavior::SuppressHeartbeat => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        if self.behavior == TraitorBehavior::Silent {
            return;
        }
        if self.behavior == TraitorBehavior::Replay {
            self.stash.push(msg.clone());
        }
        if self.relay_only() {
            let is_send = |f: GossipFrame| f.kind == GossipKind::Send;
            if GossipFrame::from_message(&msg).is_some_and(is_send) {
                self.host.relay_once(from, &msg, ctx);
            }
        } else {
            self.host.on_frame(from, &msg, ctx);
            self.emit(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match (token, self.behavior) {
            (ATTACK_TOKEN, TraitorBehavior::Equivocate) => self.equivocate(ctx),
            (ATTACK_TOKEN, TraitorBehavior::Forge) => self.forge(ctx),
            (REPLAY_TOKEN, TraitorBehavior::Replay) => {
                // Re-send a few stale stashed frames: a replayed SEND dies
                // in the seen-set, a replayed VOTES frame ORs in bits its
                // receiver already holds.
                for _ in 0..self.stash.len().min(4) {
                    let idx = self.rng.random_range(0..self.stash.len());
                    let stale = self.stash[idx].clone();
                    for w in ctx.neighbors().to_vec() {
                        ctx.send(w, stale.clone());
                    }
                }
                ctx.set_timer(REPLAY_PERIOD_US, REPLAY_TOKEN);
            }
            _ => {}
        }
    }
}

/// Runs Bracha broadcasts over `graph` (k-connected) with the given
/// traitors, returning the raw simulator report. Correct nodes listed in
/// `schedules` originate their broadcasts at the scheduled times.
///
/// The protocol runs at the full budget f = ⌊(k−1)/2⌉ regardless of how
/// many traitors are actually planted — planting more than f demonstrates
/// the bound is tight (the oracle fires).
///
/// # Panics
///
/// Panics if a scheduled origin is also listed as a traitor, or if the
/// quorums would be unsound (n < 3f+1).
#[must_use]
pub fn run_sim_byzantine(
    graph: &Graph,
    k: usize,
    schedules: &[(NodeId, Vec<ScheduledByzBroadcast>)],
    traitors: &[(NodeId, TraitorBehavior)],
    link: LinkModel,
    seed: u64,
    horizon: Time,
) -> SimReport {
    run_sim_byzantine_with_metrics(graph, k, schedules, traitors, link, seed, horizon, None)
}

/// Like [`run_sim_byzantine`], additionally recording into `metrics` when
/// provided: the simulator's `sim.*` counters plus per-class wire-cost
/// accounting (every gossip frame lands in the `byz` class), which is how
/// the bench baseline measures Bracha's bytes on the wire.
///
/// # Panics
///
/// Same contract as [`run_sim_byzantine`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_sim_byzantine_with_metrics(
    graph: &Graph,
    k: usize,
    schedules: &[(NodeId, Vec<ScheduledByzBroadcast>)],
    traitors: &[(NodeId, TraitorBehavior)],
    link: LinkModel,
    seed: u64,
    horizon: Time,
    metrics: Option<std::sync::Arc<lhg_net::metrics::MetricsRegistry>>,
) -> SimReport {
    let n = graph.node_count();
    let cfg = BrachaConfig::for_overlay(n, k)
        .expect("LHG overlays are quorum-sound at boot: n ≥ 2k ≥ 4f+2 > 3f+1");
    for (origin, _) in schedules {
        assert!(
            traitors.iter().all(|(t, _)| t != origin),
            "scheduled origin {origin} is a traitor"
        );
    }
    let mut sim = Simulation::new(graph, link, seed);
    if let Some(m) = &metrics {
        sim.with_metrics(m.clone());
    }
    let processes: Vec<Box<dyn Process>> = (0..n)
        .map(|v| -> Box<dyn Process> {
            let id = NodeId(v);
            if let Some(&(_, behavior)) = traitors.iter().find(|(t, _)| *t == id) {
                Box::new(ByzantineTraitor::new(v as u32, cfg, behavior, seed))
            } else {
                let schedule = schedules
                    .iter()
                    .find(|(o, _)| *o == id)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_default();
                let mut flooder = ByzantineFlooder::new(v as u32, cfg).with_schedule(schedule);
                if let Some(m) = &metrics {
                    flooder = flooder.with_metrics(m.clone());
                }
                Box::new(flooder)
            }
        })
        .collect();
    sim.run(processes, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_core::ktree::build_ktree;
    use std::collections::{BTreeMap, BTreeSet};

    fn no_jitter() -> LinkModel {
        LinkModel {
            base_latency_us: 100,
            jitter_us: 0,
        }
    }

    fn overlay(n: usize, k: usize) -> Graph {
        build_ktree(n, k)
            .expect("buildable overlay")
            .graph()
            .clone()
    }

    /// Delivered nonces per node, with their digests.
    fn delivered_by_node(report: &SimReport, n: usize) -> Vec<BTreeMap<u64, u64>> {
        let mut out = vec![BTreeMap::new(); n];
        for d in &report.deliveries {
            let prev = out[d.node.index()].insert(d.broadcast_id, d.trace.unwrap_or(0));
            assert!(
                prev.is_none(),
                "node {} delivered nonce {} twice",
                d.node,
                d.broadcast_id
            );
        }
        out
    }

    fn sched(nonce: u64, at_us: Time) -> ScheduledByzBroadcast {
        ScheduledByzBroadcast {
            nonce,
            payload: Bytes::from_static(b"scheduled payload"),
            at_us,
        }
    }

    #[test]
    fn all_correct_overlay_delivers_everywhere() {
        let g = overlay(8, 3);
        let report = run_sim_byzantine(
            &g,
            3,
            &[(NodeId(0), vec![sched(0x1000, 0)])],
            &[],
            no_jitter(),
            7,
            2_000_000,
        );
        let per_node = delivered_by_node(&report, 8);
        for (v, d) in per_node.iter().enumerate() {
            assert!(d.contains_key(&0x1000), "node {v} delivered");
        }
    }

    #[test]
    fn each_traitor_behavior_cannot_break_safety_or_validity() {
        for behavior in TraitorBehavior::ALL {
            let g = overlay(8, 3);
            let report = run_sim_byzantine(
                &g,
                3,
                &[(NodeId(0), vec![sched(0x1000, 10_000)])],
                &[(NodeId(4), behavior)],
                no_jitter(),
                11,
                2_000_000,
            );
            let per_node = delivered_by_node(&report, 8);
            // Validity: every correct node delivers the scheduled nonce.
            let mut digests = BTreeSet::new();
            for (v, d) in per_node.iter().enumerate() {
                if v == 4 {
                    continue;
                }
                let dig = d
                    .get(&0x1000)
                    .unwrap_or_else(|| panic!("{behavior:?}: node {v} missed the broadcast"));
                digests.insert(*dig);
                // Integrity: nothing outside the scheduled + traitor-own
                // instance spaces is delivered.
                for nonce in d.keys() {
                    assert!(
                        *nonce == 0x1000 || *nonce >= EQUIVOCATE_NONCE_BASE,
                        "{behavior:?}: node {v} delivered forged nonce {nonce:#x}"
                    );
                    assert!(
                        *nonce < FORGE_NONCE_BASE || *nonce >= FORGE_NONCE_BASE + 0x1000_0000,
                        "{behavior:?}: node {v} delivered a forged instance"
                    );
                }
            }
            // Agreement on the scheduled broadcast.
            assert_eq!(digests.len(), 1, "{behavior:?}: digest disagreement");
            // Agreement on any traitor-originated instance (equivocation):
            // nodes may or may not deliver it, but never different digests.
            let mut equiv: BTreeSet<u64> = BTreeSet::new();
            for (v, d) in per_node.iter().enumerate() {
                if v == 4 {
                    continue;
                }
                for (nonce, dig) in d {
                    if *nonce >= EQUIVOCATE_NONCE_BASE && *nonce < FORGE_NONCE_BASE {
                        equiv.insert(*dig);
                    }
                }
            }
            assert!(
                equiv.len() <= 1,
                "{behavior:?}: equivocation split correct nodes"
            );
        }
    }

    #[test]
    fn traitor_origin_totality_holds_under_equivocation() {
        // If ANY correct node delivers the equivocator's instance, ALL
        // correct nodes must (Bracha totality).
        let g = overlay(10, 3);
        let report = run_sim_byzantine(
            &g,
            3,
            &[(NodeId(0), vec![sched(0x1000, 10_000)])],
            &[(NodeId(5), TraitorBehavior::Equivocate)],
            no_jitter(),
            3,
            2_000_000,
        );
        let per_node = delivered_by_node(&report, 10);
        let equiv_nonce = EQUIVOCATE_NONCE_BASE + 5;
        let deliverers: Vec<usize> = (0..10)
            .filter(|&v| v != 5 && per_node[v].contains_key(&equiv_nonce))
            .collect();
        assert!(
            deliverers.is_empty() || deliverers.len() == 9,
            "totality violated: only {deliverers:?} delivered the equivocated instance"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let g = overlay(8, 3);
        let run = || {
            run_sim_byzantine(
                &g,
                3,
                &[(NodeId(1), vec![sched(0x1000, 5_000)])],
                &[(NodeId(6), TraitorBehavior::Replay)],
                no_jitter(),
                42,
                2_000_000,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    #[should_panic(expected = "is a traitor")]
    fn traitor_origin_is_rejected() {
        let g = overlay(8, 3);
        let _ = run_sim_byzantine(
            &g,
            3,
            &[(NodeId(4), vec![sched(1, 0)])],
            &[(NodeId(4), TraitorBehavior::Silent)],
            no_jitter(),
            0,
            1_000,
        );
    }
}
