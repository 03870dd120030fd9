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
use crate::frame::{CatchupPull, CatchupPush, GossipFrame, GossipKind};
use crate::witness::WitnessSet;
use crate::{attack, BrachaConfig};

/// Timer token space for scheduled broadcasts (token = schedule index).
const SCHEDULE_TOKEN_LIMIT: u64 = 1 << 32;
/// Token for a traitor's one-shot attack timer.
const ATTACK_TOKEN: u64 = 1 << 40;
/// Token for a replay traitor's recurring re-flood timer.
const REPLAY_TOKEN: u64 = (1 << 40) + 1;
/// Token for a flooder's scheduled permanent crash.
const DIE_TOKEN: u64 = 1 << 33;
/// Token base for a flooder's scheduled membership-view bumps.
const VIEW_BUMP_TOKEN_BASE: u64 = 1 << 34;
/// Token for a flooder's repair-round timer.
const REPAIR_TOKEN: u64 = 1 << 35;
/// Token for a flooder's scheduled revival (rejoin after a crash).
const REVIVE_TOKEN: u64 = 1 << 36;
/// Token base for a revived flooder's follow-up catch-up solicitations.
const CATCHUP_TOKEN_BASE: u64 = 1 << 37;

/// How many catch-up solicitation rounds a revived node floods (the first
/// at revival, the rest one repair period apart) — more than one so a
/// pull or push lost to a lossy link cannot strand the rejoiner.
const CATCHUP_ROUNDS: u32 = 3;

/// Repair period: this often a correct node declares its witness sets to
/// each neighbor an instance is not yet settled toward
/// ([`VoteExchange::repair`]), so a lossy link cannot permanently starve a
/// quorum of one dropped vote. (How long an echo waits for company on its
/// way out is no constant at all: until the link's last frame is answered,
/// rule 4 of [`crate::exchange`].)
pub const REGOSSIP_PERIOD_US: Time = 100_000;
/// Delay between a scheduled crash and survivors bumping their membership
/// view — the sim stand-in for the runtime's heartbeat failure detector.
const VIEW_BUMP_DELAY_US: Time = 50_000;

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

/// A scheduled crash of a correct node mid-run: the node goes mute and
/// deaf at `at_us`, and every survivor bumps its membership view one
/// failure-detection delay later. When `revive_at_us` is set the node
/// comes back at that time — it floods catch-up solicitations
/// ([`CatchupPull`]) to converge on instances it missed, and every node
/// bumps its view back *up* one detection delay after the revival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzCrash {
    /// Simulated time the node dies.
    pub at_us: Time,
    /// The node that dies.
    pub node: NodeId,
    /// Simulated time the node rejoins (`None`: the crash is permanent).
    pub revive_at_us: Option<Time>,
}

/// A [`VoteExchange`] hosted on one simulator node: what the correct node
/// and the traitor share. Neighbors outside the current membership view
/// are not peers — the stand-in for the runtime closing its link to an
/// excommunicated member.
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

    /// The neighbors that are members of the current view, in overlay order.
    fn peers<'a>(&self, ctx: &'a Context<'_>) -> impl Iterator<Item = NodeId> + 'a {
        let roster = Arc::clone(&self.exchange.engine().view().roster);
        (ctx.neighbors().iter().copied()).filter(move |w| roster.contains(w.index() as u32))
    }

    /// Hands one byz frame to the exchange; returns the votes it refused.
    fn on_frame(&mut self, from: NodeId, msg: &Message, ctx: &Context<'_>) -> u64 {
        let peers = self.peers(ctx);
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
    /// Scheduled crash: after this time the node is mute & deaf.
    dies_at: Option<Time>,
    /// Scheduled revival: at this time a crashed node rejoins and floods
    /// catch-up solicitations.
    revives_at: Option<Time>,
    dead: bool,
    /// Scheduled membership-view bumps `(time, members)` from churn waves
    /// (a member fewer on a crash, one more on a revival).
    view_bumps: Vec<(Time, WitnessSet)>,
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
            dies_at: None,
            revives_at: None,
            dead: false,
            view_bumps: Vec::new(),
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

    /// The same node crashing permanently at `at_us`.
    #[must_use]
    pub fn with_death(mut self, at_us: Time) -> Self {
        self.dies_at = Some(at_us);
        self
    }

    /// The same node reviving at `at_us` after its scheduled death: it
    /// rejoins the gossip plane and floods [`CatchupPull`] solicitations
    /// to converge on instances it missed while dead.
    #[must_use]
    pub fn with_revival(mut self, at_us: Time) -> Self {
        assert!(
            self.dies_at.is_some_and(|d| d < at_us),
            "revival must follow a scheduled death"
        );
        self.revives_at = Some(at_us);
        self
    }

    /// Schedules membership-view bumps — `(time, members from then on)` per
    /// detected crash or revival — and turns the repair cadence on
    /// ([`REGOSSIP_PERIOD_US`]), so the re-sized quorums can refill even
    /// when individual vote frames were lost. An empty list only turns
    /// repair on.
    #[must_use]
    pub fn with_view_bumps(mut self, bumps: Vec<(Time, WitnessSet)>) -> Self {
        self.view_bumps = bumps;
        self.repair_period = Some(REGOSSIP_PERIOD_US);
        self
    }

    /// Records quorum-safety metrics: each refused view bump increments
    /// the `byz.unsafe_views` counter the chaos oracle audits, each vote
    /// dropped for naming a non-member `byz.votes_rejected`.
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
            if self.host.exchange.repair_pending(self.host.peers(ctx)) {
                self.repair_armed = true;
                ctx.set_timer(period, REPAIR_TOKEN);
            }
        }
    }

    /// Floods a catch-up frame to all neighbors, marking it seen first so
    /// relayed copies dedup.
    fn flood(&mut self, msg: Message, ctx: &mut Context<'_>) {
        self.host.seen.insert(msg.broadcast_id);
        for &w in &ctx.neighbors().to_vec() {
            ctx.send(w, msg.clone());
        }
    }

    fn bump_count(&self, name: &'static str, by: u64) {
        if let (Some(m), true) = (&self.metrics, by > 0) {
            m.counter(name).add(by);
        }
    }

    /// Installs `members` as the current view. A neighbor that left the
    /// view or (re)entered it is a link that went down or came up.
    fn bump_view(&mut self, members: &WitnessSet, ctx: &Context<'_>) {
        let before = Arc::clone(&self.host.exchange.engine().view().roster);
        if self.host.exchange.bump_view(members.iter()).is_err() {
            self.bump_count("byz.unsafe_views", 1);
        }
        for &w in ctx.neighbors() {
            let id = w.index() as u32;
            if before.contains(id) != members.contains(id) {
                self.host.exchange.reset_link(w);
            }
        }
    }

    /// Floods one catch-up solicitation round. Every correct node that
    /// sees it replies with a flooded [`CatchupPush`] of its summaries.
    fn solicit_catchup(&mut self, round: u32, ctx: &mut Context<'_>) {
        let pull = CatchupPull {
            requester: self.host.exchange.engine().id(),
            round,
        };
        self.flood(pull.to_message(), ctx);
        self.bump_count("byz.catchup_pulls", 1);
    }

    /// A catch-up frame: flooded under the seen-set like any broadcast.
    /// Returns `false` when `msg` is not one.
    fn on_catchup(&mut self, from: NodeId, msg: &Message, ctx: &mut Context<'_>) -> bool {
        let (pull, push) = (
            CatchupPull::from_message(msg),
            CatchupPush::from_message(msg),
        );
        if pull.is_none() && push.is_none() {
            return false;
        }
        if !self.host.relay_once(from, msg, ctx) {
            return true; // duplicate copy on another disjoint path
        }
        let me = self.host.exchange.engine().id();
        if let Some(pull) = pull.filter(|p| p.requester != me) {
            // Serve a rejoiner: flood back this node's summary attestation.
            // The push's id is distinct per witness, so every reply crosses
            // the overlay independently and the rejoiner hears from enough
            // distinct peers to corroborate.
            let push = CatchupPush {
                witness: me,
                requester: pull.requester,
                round: pull.round,
                items: self.host.exchange.engine().summaries(),
            };
            self.flood(push.to_message(), ctx);
            self.bump_count("byz.catchup_pushes", 1);
        } else if let Some(push) = push.filter(|p| p.requester == me) {
            // Already relayed above; only the addressee ingests.
            let peers = self.host.peers(ctx);
            let Hosted {
                exchange,
                sends,
                delivered,
                ..
            } = &mut self.host;
            let rejected =
                exchange.ingest_summaries(push.witness, &push.items, peers, sends, delivered);
            self.bump_count("byz.votes_rejected", rejected);
            self.bump_count("byz.catchup_ingests", 1);
        }
        true
    }
}

impl Process for ByzantineFlooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (idx, b) in self.schedule.iter().enumerate() {
            ctx.set_timer(b.at_us, idx as u64);
        }
        if let Some(at) = self.dies_at {
            ctx.set_timer(at, DIE_TOKEN);
        }
        if let Some(at) = self.revives_at {
            ctx.set_timer(at, REVIVE_TOKEN);
        }
        for (idx, (at, _)) in self.view_bumps.iter().enumerate() {
            ctx.set_timer(*at, VIEW_BUMP_TOKEN_BASE + idx as u64);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        if self.dead {
            return; // crashed nodes neither relay nor vote
        }
        if !self.on_catchup(from, &msg, ctx) {
            let rejected = self.host.on_frame(from, &msg, ctx);
            self.bump_count("byz.votes_rejected", rejected);
        }
        self.emit(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == DIE_TOKEN {
            self.dead = true;
            return;
        }
        if token == REVIVE_TOKEN {
            // Rejoin: wake up, resync the membership view to the latest
            // bump that fired while dead (those timers were swallowed, the
            // repair timer with them), and start soliciting catch-up
            // summaries.
            self.dead = false;
            self.repair_armed = false;
            let now = ctx.now();
            let died = self.dies_at.unwrap_or(0);
            let missed = (self.view_bumps.iter()).rposition(|(t, _)| *t > died && *t <= now);
            if let Some(idx) = missed {
                let members = self.view_bumps[idx].1.clone();
                self.bump_view(&members, ctx);
            }
            self.solicit_catchup(0, ctx);
            for round in 1..CATCHUP_ROUNDS {
                ctx.set_timer(
                    REGOSSIP_PERIOD_US * Time::from(round),
                    CATCHUP_TOKEN_BASE + u64::from(round),
                );
            }
            self.emit(ctx);
            return;
        }
        if self.dead {
            return;
        }
        if token == REPAIR_TOKEN {
            // Anti-entropy: declare every unsettled instance to each peer;
            // what a lossy link dropped comes back in the answers.
            self.repair_armed = false;
            let peers = self.host.peers(ctx);
            self.host.exchange.repair(peers, &mut self.host.sends);
        } else if (CATCHUP_TOKEN_BASE..CATCHUP_TOKEN_BASE + u64::from(CATCHUP_ROUNDS))
            .contains(&token)
        {
            self.solicit_catchup((token - CATCHUP_TOKEN_BASE) as u32, ctx);
        } else if token >= VIEW_BUMP_TOKEN_BASE {
            let idx = (token - VIEW_BUMP_TOKEN_BASE) as usize;
            if let Some((_, members)) = self.view_bumps.get(idx).cloned() {
                self.bump_view(&members, ctx);
            }
        } else if let Some(b) = self.schedule.get(token as usize) {
            let (nonce, payload) = (b.nonce, b.payload.clone());
            let peers = self.host.peers(ctx);
            let Hosted {
                exchange,
                seen,
                sends,
                delivered,
            } = &mut self.host;
            // A refusal means the live view is unsound (n < 3f+1); the
            // engine counts it and the oracle reports QuorumUnsafe.
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

    /// Answers a rejoiner's catch-up solicitation with
    /// [`attack::forged_summaries`].
    fn forged_catchup_reply(&mut self, pull: &CatchupPull, ctx: &mut Context<'_>) {
        let real = self.host.exchange.engine().summaries();
        let push = CatchupPush {
            witness: self.me,
            requester: pull.requester,
            round: pull.round,
            items: attack::forged_summaries(self.me, pull.requester, real),
        };
        let msg = push.to_message();
        self.host.seen.insert(msg.broadcast_id);
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
        if let Some(pull) = CatchupPull::from_message(&msg) {
            // A rejoiner is asking to be caught up — poison the well. The
            // forged summaries are one uncorroborated voice, so a correct
            // rejoiner's engine must shrug them off.
            if self.host.relay_once(from, &msg, ctx)
                && pull.requester != self.me
                && matches!(
                    self.behavior,
                    TraitorBehavior::Equivocate | TraitorBehavior::Forge
                )
            {
                self.forged_catchup_reply(&pull, ctx);
            }
        } else if CatchupPush::from_message(&msg).is_some() {
            self.host.relay_once(from, &msg, ctx);
        } else if self.relay_only() {
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
    run_sim_byzantine_churn(
        graph,
        k,
        schedules,
        traitors,
        &[],
        None,
        link,
        seed,
        horizon,
        metrics,
    )
}

/// Like [`run_sim_byzantine_with_metrics`], with full-lifecycle membership
/// churn: nodes listed in `crashes` die mid-run (permanently, or until
/// their scheduled `revive_at_us`), and every node bumps its engine's
/// membership view one detection delay after each death *and each
/// revival* — so instances originated after churn size their quorums from
/// live membership (downward and upward), while in-flight ones keep the
/// view they snapshotted. A revived node floods [`CatchupPull`]
/// solicitations; correct peers answer with flooded summary attestations
/// it corroborates through the regular quorum machinery.
///
/// When any crash is scheduled, correct nodes also run the exchange's
/// repair rounds ([`REGOSSIP_PERIOD_US`]), so lossy links cannot
/// permanently starve the post-churn quorums. A view that would dip below 3f+1 is
/// refused by the engine and counted on the `byz.unsafe_views` metrics
/// counter — the signal behind the chaos oracle's `QuorumUnsafe`
/// violation.
///
/// `faults`, when given, puts a link-fault injector under the gossip
/// plane (drops, duplicates, reorders — the mixed chaos family): byz
/// frames are best-effort, so the repair rounds above are what repairs
/// the losses.
///
/// # Panics
///
/// Panics if a scheduled origin or a crash victim is listed as a traitor,
/// or if the boot quorums would be unsound (n < 3f+1).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_sim_byzantine_churn(
    graph: &Graph,
    k: usize,
    schedules: &[(NodeId, Vec<ScheduledByzBroadcast>)],
    traitors: &[(NodeId, TraitorBehavior)],
    crashes: &[ByzCrash],
    faults: Option<std::sync::Arc<lhg_net::fault::FaultInjector>>,
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
    for c in crashes {
        assert!(
            traitors.iter().all(|(t, _)| *t != c.node),
            "crash victim {} is a traitor (traitors lie, they don't die)",
            c.node
        );
    }
    let mut ordered: Vec<ByzCrash> = crashes.to_vec();
    ordered.sort_by_key(|c| (c.at_us, c.node.index()));
    // One view bump per churn event — a member fewer on each detected
    // crash, one more on each detected revival — tracking who is live.
    let mut events: Vec<(Time, usize, bool)> = Vec::new();
    for c in &ordered {
        events.push((c.at_us + VIEW_BUMP_DELAY_US, c.node.index(), false));
        if let Some(r) = c.revive_at_us {
            assert!(r > c.at_us, "revival must follow the crash");
            events.push((r + VIEW_BUMP_DELAY_US, c.node.index(), true));
        }
    }
    events.sort_unstable();
    let mut live = vec![true; n];
    let bumps: Vec<(Time, WitnessSet)> = events
        .into_iter()
        .map(|(t, node, up)| {
            live[node] = up;
            let members = (0..n as u32).filter(|&v| live[v as usize]);
            (t, members.collect())
        })
        .collect();
    let mut sim = Simulation::new(graph, link, seed);
    if let Some(m) = &metrics {
        sim.with_metrics(m.clone());
    }
    if let Some(f) = faults {
        sim.with_faults(f);
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
                if let Some(c) = ordered.iter().find(|c| c.node == id) {
                    flooder = flooder.with_death(c.at_us);
                    if let Some(r) = c.revive_at_us {
                        flooder = flooder.with_revival(r);
                    }
                }
                if !ordered.is_empty() {
                    flooder = flooder.with_view_bumps(bumps.clone());
                }
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
    fn post_churn_broadcasts_deliver_at_survivor_quorums() {
        // n=8, k=3 (f=1): node 7 dies at 300ms; node 0 originates one
        // broadcast before the crash and one after. Survivors bump their
        // view to n=7 and the post-churn instance must still reach every
        // survivor under the re-sized quorums.
        let g = overlay(8, 3);
        let report = run_sim_byzantine_churn(
            &g,
            3,
            &[(
                NodeId(0),
                vec![sched(0x1000, 10_000), sched(0x1001, 600_000)],
            )],
            &[],
            &[ByzCrash {
                at_us: 300_000,
                node: NodeId(7),
                revive_at_us: None,
            }],
            None,
            no_jitter(),
            5,
            2_000_000,
            None,
        );
        let per_node = delivered_by_node(&report, 8);
        for (v, d) in per_node.iter().enumerate().take(7) {
            assert!(d.contains_key(&0x1000), "survivor {v}: pre-churn");
            assert!(d.contains_key(&0x1001), "survivor {v}: post-churn");
        }
        // The dead node never delivers the post-crash instance.
        assert!(!per_node[7].contains_key(&0x1001), "the dead do not vote");
    }

    #[test]
    fn churn_with_a_traitor_is_deterministic() {
        let g = overlay(10, 3);
        let run = || {
            run_sim_byzantine_churn(
                &g,
                3,
                &[(
                    NodeId(1),
                    vec![sched(0x1000, 10_000), sched(0x1001, 700_000)],
                )],
                &[(NodeId(6), TraitorBehavior::FrameCrash)],
                &[ByzCrash {
                    at_us: 350_000,
                    node: NodeId(9),
                    revive_at_us: None,
                }],
                None,
                no_jitter(),
                42,
                2_000_000,
                None,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn view_dip_below_quorum_floor_is_counted_not_panicked() {
        // k=5 ⇒ f=2 ⇒ floor 3f+1 = 7. Crash 6 of 12 nodes: the first five
        // bumps (n = 11..7) are sound, the sixth (n = 6) is refused — each
        // of the 6 survivors counts it on byz.unsafe_views.
        let g = overlay(12, 5);
        let metrics = std::sync::Arc::new(lhg_net::metrics::MetricsRegistry::new());
        let crashes: Vec<ByzCrash> = (6..12)
            .map(|v| ByzCrash {
                at_us: 100_000 * (v as Time - 5),
                node: NodeId(v),
                revive_at_us: None,
            })
            .collect();
        let _ = run_sim_byzantine_churn(
            &g,
            5,
            &[(NodeId(0), vec![sched(0x1000, 10_000)])],
            &[],
            &crashes,
            None,
            no_jitter(),
            9,
            2_000_000,
            Some(metrics.clone()),
        );
        assert_eq!(metrics.counter("byz.unsafe_views").get(), 6);
    }

    #[test]
    fn revived_node_catches_up_on_instances_missed_while_dead() {
        // n=8, k=3 (f=1): node 7 dies at 300ms and revives at 600ms.
        // Node 0 originates at 400ms — entirely inside node 7's dead
        // window — and again at 900ms. The revived node must converge on
        // BOTH: the missed instance via catch-up summary corroboration,
        // the later one via live gossip under the bumped-up view.
        let g = overlay(8, 3);
        let report = run_sim_byzantine_churn(
            &g,
            3,
            &[(
                NodeId(0),
                vec![
                    sched(0x1000, 10_000),
                    sched(0x1001, 400_000),
                    sched(0x1002, 900_000),
                ],
            )],
            &[],
            &[ByzCrash {
                at_us: 300_000,
                node: NodeId(7),
                revive_at_us: Some(600_000),
            }],
            None,
            no_jitter(),
            5,
            2_000_000,
            None,
        );
        let per_node = delivered_by_node(&report, 8);
        for (v, d) in per_node.iter().enumerate() {
            assert!(d.contains_key(&0x1000), "node {v}: pre-churn");
            assert!(
                d.contains_key(&0x1001),
                "node {v}: originated while 7 was dead"
            );
            assert!(d.contains_key(&0x1002), "node {v}: post-revival");
        }
        // Agreement: the revived node's digests match the majority's.
        for nonce in [0x1000u64, 0x1001, 0x1002] {
            let digests: BTreeSet<u64> = per_node.iter().map(|d| d[&nonce]).collect();
            assert_eq!(digests.len(), 1, "nonce {nonce:#x} digest agreement");
        }
    }

    #[test]
    fn forged_catchup_summaries_cannot_poison_a_revived_node() {
        // Same lifecycle, with a Forge traitor that answers the rejoiner's
        // solicitation with a fabricated Delivered instance and
        // digest-flipped copies of the real ones. One uncorroborated voice:
        // the rejoiner must still converge on the true digests and must
        // never deliver the fabricated instance.
        let g = overlay(10, 3);
        let report = run_sim_byzantine_churn(
            &g,
            3,
            &[(
                NodeId(0),
                vec![sched(0x1000, 10_000), sched(0x1001, 400_000)],
            )],
            &[(NodeId(4), TraitorBehavior::Forge)],
            &[ByzCrash {
                at_us: 300_000,
                node: NodeId(9),
                revive_at_us: Some(600_000),
            }],
            None,
            no_jitter(),
            13,
            2_000_000,
            None,
        );
        let per_node = delivered_by_node(&report, 10);
        let mut digests_per_nonce: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for (v, d) in per_node.iter().enumerate() {
            if v == 4 {
                continue;
            }
            for (nonce, dig) in d {
                assert!(
                    *nonce < FORGE_NONCE_BASE || *nonce >= FORGE_NONCE_BASE + 0x1000_0000,
                    "node {v} delivered a forged instance {nonce:#x}"
                );
                digests_per_nonce.entry(*nonce).or_default().insert(*dig);
            }
            assert!(
                d.contains_key(&0x1001),
                "node {v} missed the dead-window instance"
            );
        }
        for (nonce, digs) in digests_per_nonce {
            assert_eq!(digs.len(), 1, "digest split on {nonce:#x}");
        }
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
