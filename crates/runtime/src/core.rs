//! The node state machine, sans-IO: every protocol decision a node makes.
//!
//! [`NodeCore`] is events in, actions out. A driver feeds it what happened
//! ([`Event`]: a frame arrived, a link came up or went away, a dial failed,
//! the application wants to broadcast) through [`NodeCore::handle`] and the
//! passage of time through [`NodeCore::tick`], both stamped with the
//! driver's monotonic `now_us`; the core appends what should happen next
//! ([`Action`]: send, dial, close, deliver) to a sink the driver owns,
//! reuses and executes **in order**, and ticks only once its clock reaches
//! [`NodeCore::next_deadline`]. The core touches no socket, thread or
//! clock, so the same code runs under two drivers: the socket loop in
//! [`crate::node`] and the discrete-event adapter in [`crate::simnode`].
//!
//! It owns three machines, [`Membership`] (who is a member, and what the
//! node does about a crash or a join), [`ReliableCore`] (the data plane)
//! and [`VoteExchange`] (Bracha), and what lies between them:
//!
//! * **dispatch** — one classifier ([`wire::classify`]), malformed ids
//!   dropped, a crash or join frame decoded once (`wire::heard`) for
//!   membership, data and waves to the reliable plane, byz frames to the
//!   vote exchange;
//! * **eager trees** — a fresh data frame, and a first-seen Bracha `SEND`,
//!   goes on only to this node's children in the origin's BFS tree on the
//!   replica; the planes' repair (adverts and pulls; for a `SEND`, the
//!   vote exchange's declarations that ask for it) reaches every other
//!   link. A stored body retires once every overlay neighbor holds it,
//!   while no member is crashed or excommunicated here;
//! * **failure detection** — any frame is proof of life, so on the
//!   heartbeat-period tick a link nothing was sent on for m periods gets a
//!   heartbeat, m being the most periods that still fit
//!   [`BEATS_PER_TIMEOUT`] beats in the suspicion timeout (1 whenever the
//!   timeout is under 48 periods); a peer silent past the timeout is a
//!   verdict for membership;
//! * **link policy** — which links are wanted ([`NodeCore::tick`]'s
//!   reconcile pass) and when a failed dial may be retried; a
//!   [`Action::Dial`] is answered by [`Event::LinkUp`] or
//!   [`Event::DialFailed`]. A peer's link state, with its redial or grace,
//!   its last frame and its dial backoff are one record in one map.
//!
//! Membership hears only crash and join frames, as values, and any frame
//! from a member it excommunicated. It asks for waves, dead notices, grace,
//! dials, dropped links and reconcile passes (`Effect`); the core encodes
//! the frames (`wire::said`), carries them out in the order asked, and
//! answers whether a peer is directly live (`Host`). A fresh wave goes back
//! to membership, not to the application.
//!
//! A node the run lists as a traitor holds no vote exchange here; what it
//! does beyond relaying is [`crate::traitor`]'s, which wraps the core.
//!
//! What stays with the driver is what only it can know: fault injection,
//! wire accounting where a frame is queued, which socket is a peer's link,
//! and the publication of state to other threads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lhg_byzantine::{
    BrachaConfig, ByzDelivery, GossipFrame, GossipKind, UnsoundMembership, VoteExchange,
};
use lhg_core::overlay::{DynamicOverlay, MemberId, TreeChildren};
use lhg_net::backoff::{Backoff, BackoffPolicy};
use lhg_net::message::Message;
use lhg_net::metrics::{Counter, Gauge, MetricsRegistry};
use lhg_net::reliable::{DataOutcome, ReliableCore, Sends, SummaryOutcome};
use lhg_net::seen::SeenSet;
use lhg_trace::{EventKind, FlightRecorder};

use crate::membership::{Effect, Host, Membership, Wave};
use crate::wire::{self, FrameKind};
use crate::RuntimeConfig;

/// What a driver tells the core.
#[derive(Debug, Clone)]
pub enum Event {
    /// A frame arrived from `from` over its current link. Frames of
    /// superseded connections and frames a fault plan blocks never get
    /// here — which socket is the link, and fault injection, are the
    /// driver's.
    Frame {
        /// The linked peer the frame came from.
        from: MemberId,
        /// The decoded frame.
        msg: Message,
    },
    /// A link to `peer` is up: the answer to an [`Action::Dial`]
    /// (`dialed`), or a peer whose hello the driver accepted. `peer` is
    /// whatever the hello *claimed*; the core validates it and answers an
    /// unacceptable one with [`Action::Close`].
    LinkUp {
        /// The member at the other end, as named by the handshake.
        peer: MemberId,
        /// `true` when this node dialed.
        dialed: bool,
    },
    /// The [`Action::Dial`] to `peer` failed (refused, timed out, cut).
    DialFailed {
        /// The member that could not be reached.
        peer: MemberId,
    },
    /// The current link to `peer` died under the driver (EOF, write error).
    LinkDown {
        /// The member whose link is gone.
        peer: MemberId,
    },
    /// The application originates `msg` here.
    Broadcast(Message),
    /// The application originates a Bracha broadcast here.
    ByzBroadcast {
        /// Instance nonce.
        nonce: u64,
        /// Instance payload.
        payload: Bytes,
    },
}

/// What the core tells a driver to do, in order.
#[derive(Debug, Clone)]
pub enum Action {
    /// Write `msg` on the link to `to` (dropped if the link is gone).
    Send {
        /// Destination peer.
        to: MemberId,
        /// The frame.
        msg: Message,
    },
    /// Open a link to `peer`; answer with [`Event::LinkUp`] or
    /// [`Event::DialFailed`].
    Dial {
        /// The member to reach.
        peer: MemberId,
    },
    /// Close the link to `peer`, if any.
    Close {
        /// The member to hang up on.
        peer: MemberId,
    },
    /// Hand `msg` to the application; `via` is the neighbor the winning
    /// copy arrived from (`None` at the origin).
    Deliver {
        /// The delivered broadcast.
        msg: Message,
        /// Parent in the realized dissemination tree.
        via: Option<MemberId>,
    },
    /// A Bracha instance certified: `broadcast_id` is the nonce, `origin`
    /// the instance origin, `trace` the payload digest, the byz tag set.
    ByzDeliver {
        /// The certified delivery, shaped for the chaos oracle.
        msg: Message,
    },
}

/// How a node enters the cluster: who it is, what it knows at boot, and
/// how it came to boot.
#[derive(Debug, Clone)]
pub struct Boot {
    /// This node's member id.
    pub id: MemberId,
    /// Its overlay replica at boot.
    pub overlay: DynamicOverlay,
    /// Every member that exists (the address book's keys): every member
    /// that may ever be dialed or accepted.
    pub roster: BTreeSet<MemberId>,
    /// Fresh boot or rejoin.
    pub opts: BootOpts,
}

/// Fresh boot or rejoin after a kill.
#[derive(Debug, Clone, Default)]
pub struct BootOpts {
    /// Flood a `JOIN` announcement once the first link is up (rejoin path).
    pub announce_join: bool,
    /// Members this node should treat as already crashed at boot (the other
    /// kills that happened while it was down).
    pub initial_crashes: BTreeSet<MemberId>,
    /// Cluster-global ordinal of this node *life* (initial boots and every
    /// rejoin each get a fresh one). Seeds the wave-nonce space so control
    /// waves from different lives of the same member never share an id.
    pub life: u32,
}

/// A vote exchange whose boot view is `overlay`'s membership.
fn byz_exchange(
    id: MemberId,
    overlay: &DynamicOverlay,
    f: usize,
    max_offers: u32,
) -> Result<VoteExchange<MemberId>, UnsoundMembership> {
    let members = overlay.members();
    let cfg = BrachaConfig::new(members.len(), f)?;
    let mut exchange = VoteExchange::new(id as u32, cfg, max_offers);
    // Member ids need not be 0..n (a rejoin boots on a healed replica).
    exchange.bump_view(members.iter().map(|&m| m as u32))?;
    Ok(exchange)
}

/// Beats an idle link sends per suspicion timeout, at least: the pace of
/// [`NodeCore::beat_idle_links`] is the timeout's, not the tick's. The
/// chaos sweeps run 25 periods per timeout on links that drop up to 40 %.
const BEATS_PER_TIMEOUT: u64 = 24;

/// A duration in µs, the core's unit of time.
pub(crate) fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Where the link to one peer stands, and the deadline each state holds.
#[derive(PartialEq)]
enum LinkState {
    /// No link, and no redial before `redial`: the dial backoff's verdict.
    Down { redial: Option<u64> },
    /// An [`Action::Dial`] is out, unanswered.
    Dialing,
    /// Up. `last_sent`: the last time this core wrote to it (or it came
    /// up), which idle heartbeats read. The reconcile pass leaves it up,
    /// wanted or not, until `grace`: an excommunicated peer heard from
    /// recently, a caller from outside the overlay, a link a heal dropped.
    Up { last_sent: u64, grace: Option<u64> },
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState::Down { redial: None }
    }
}

impl LinkState {
    /// A down link's redial, or the end of an up link's grace.
    fn deadline(&self) -> Option<u64> {
        match *self {
            LinkState::Down { redial: t } | LinkState::Up { grace: t, .. } => t,
            LinkState::Dialing => None,
        }
    }

    /// Drops the deadline unless it is still after `now`.
    fn drop_deadline(&mut self, now: u64) {
        if let LinkState::Down { redial: t } | LinkState::Up { grace: t, .. } = self {
            *t = t.filter(|&t| now < t);
        }
    }
}

/// Everything a node keeps about one peer. A record is made the first time
/// a peer needs one and is only ever reset after, so a transition touches
/// one record and [`NodeCore::next_deadline`] reads one map.
#[derive(Default)]
struct Peer {
    link: LinkState,
    /// Last time the peer produced any frame, while it is monitored.
    last_seen: Option<u64>,
    /// The jittered exponential dial backoff behind `Down`'s redial.
    backoff: Option<Backoff>,
    /// `runtime.heartbeat_age_us.n<id>.p<peer>`, resolved on first use.
    age_gauge: Option<Arc<Gauge>>,
}

/// The sans-IO node state machine; see the module docs.
pub struct NodeCore {
    id: MemberId,
    /// Heartbeat period, suspicion timeout and sweep cadence (µs), how long
    /// an up link may stay idle before it is beaten (m ≥ 1 periods, the
    /// most that fit [`BEATS_PER_TIMEOUT`] beats in a timeout), and the
    /// beats per summary round.
    beat_us: u64,
    timeout_us: u64,
    idle_us: u64,
    sweep_us: u64,
    summary_ticks: u64,
    /// The dial retry/backoff policy, with the suspicion timeout as
    /// probation window: a link healthy that long is genuinely healthy,
    /// anything shorter may be one beat of a flap.
    retry: BackoffPolicy,
    metrics: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    /// Time of the transition in progress and the driver's sink, swapped in
    /// for its duration ([`Self::handle`], [`Self::tick`]).
    now: u64,
    out: Vec<Action>,
    /// Who this node believes is a member, and the reused sink for what it
    /// asks the core to carry out.
    membership: Membership,
    effects: Vec<Effect>,
    /// Per origin the replica can place, this node's children in its BFS
    /// tree: searched on first use, reset with the view.
    children: TreeChildren,
    /// A transition moved what a tick settles: the next one is due at once.
    settle: bool,
    /// Every member that may ever be dialed or accepted (the directory).
    roster: BTreeSet<MemberId>,
    /// One record per peer this node has dialed, linked, watched or
    /// excommunicated.
    peers: BTreeMap<MemberId, Peer>,
    /// The peers whose link is up, in the order relays walk them: the
    /// frame path's view of `peers`. Only [`Self::on_link_up`] and
    /// [`Self::drop_link`] write it.
    links: BTreeSet<MemberId>,
    /// Flooding dedup: broadcast ids already processed. Entries survive
    /// until the set's capacity cap evicts the oldest — every control wave
    /// goes under a fresh nonce, so a stale copy of an old wave is
    /// absorbed here instead of being re-applied (re-arming dedup per
    /// membership flip is how crash/join waves used to chase each other
    /// into a churn livelock).
    seen: SeenSet,
    /// The vote exchange (and the Bracha engine it owns): every node of a
    /// byzantine setup holds one but the traitors it lists. `None` never
    /// votes or delivers; a `SEND` is relayed either way.
    exchange: Option<VoteExchange<MemberId>>,
    /// Private RNG driving retry jitter (seeded from the config seed).
    rng: StdRng,
    /// `runtime.payload_bytes_retained.n<id>`, resolved at boot: what the
    /// data plane holds on to ([`ReliableCore::retained_bytes`]), fresh as
    /// of the latest summary round.
    retained_gauge: Arc<Gauge>,
    /// `runtime.acks_sent` (ack frames of their own),
    /// `runtime.acks_piggybacked` (acks riding on data frames) and
    /// `runtime.core_ticks`, resolved at boot: no lookup by name.
    acks_sent: Arc<Counter>,
    acks_piggybacked: Arc<Counter>,
    core_ticks: Arc<Counter>,
    /// The reliable-flood data plane and the reused sink for its sends
    /// (the vote exchange's too), the one for byz deliveries, and the one
    /// for the links a `SEND` is relayed on.
    reliable: ReliableCore<MemberId>,
    outbox: Sends<MemberId>,
    byz_delivered: Vec<ByzDelivery>,
    relay: Vec<MemberId>,
    /// The heartbeat-period tick (the detector's gauges, backoff probation
    /// and the reconcile pass run at least this often; idle links are beaten
    /// and summary rounds go out only on it), how many have come, sweeps.
    next_beat: u64,
    beats: u64,
    next_sweep: u64,
    /// Ids the reliable plane retained since the last summary round, and
    /// how many make a round due at the next tick ([`Self::note_retained`]).
    unadvertised: usize,
    advert_batch: usize,
}

impl NodeCore {
    /// A node booted at `now_us` as `boot` says. Nothing is emitted until
    /// the first [`Self::tick`], which is due at once.
    ///
    /// # Errors
    ///
    /// [`UnsoundMembership`] when a byzantine setup's traitor budget needs
    /// more than the boot membership (n < 3f+1): a configuration error.
    pub fn new(
        boot: Boot,
        config: &RuntimeConfig,
        metrics: Arc<MetricsRegistry>,
        recorder: Arc<FlightRecorder>,
        now_us: u64,
    ) -> Result<Self, UnsoundMembership> {
        let (id, overlay) = (boot.id, boot.overlay);
        // Quorums are sized from an epoch-stamped membership view: each
        // Bracha instance snapshots the view live at its creation, and
        // churn bumps the view (f stays a protocol constant).
        let (setup, retries) = (config.byzantine.as_ref(), config.reliable.max_retries);
        let honest = setup.filter(|s| !s.traitors.iter().any(|t| t.0 == id));
        let exchange = honest
            .map(|s| byz_exchange(id, &overlay, s.f, retries))
            .transpose()?;
        let (beat_us, timeout_us) = (us(config.heartbeat_period), us(config.heartbeat_timeout));
        let idle_ticks = (timeout_us / BEATS_PER_TIMEOUT.saturating_mul(beat_us).max(1)).max(1);
        let sweep_us = config.reliable.sweep_us();
        let retained_gauge = metrics.gauge(&format!("runtime.payload_bytes_retained.n{id}"));
        let acks_sent = metrics.counter("runtime.acks_sent");
        let acks_piggybacked = metrics.counter("runtime.acks_piggybacked");
        let core_ticks = metrics.counter("runtime.core_ticks");
        let (m, r) = (Arc::clone(&metrics), Arc::clone(&recorder));
        let membership = Membership::new(id, overlay, boot.opts, config, m, r);
        let mut core = NodeCore {
            id,
            beat_us,
            timeout_us,
            idle_us: beat_us * idle_ticks,
            sweep_us,
            // Anti-entropy cadence: a summary round every `summary_every`
            // heartbeat periods.
            summary_ticks: config.reliable.summary_ticks(),
            retry: BackoffPolicy {
                base_us: us(config.dial_backoff),
                cap_us: us(config.dial_backoff_cap),
                max_attempts: config.dial_max_attempts,
                probation_window_us: timeout_us,
            },
            metrics,
            recorder,
            now: now_us,
            out: Vec::new(),
            membership,
            effects: Vec::new(),
            children: TreeChildren::default(),
            settle: true,
            roster: boot.roster,
            peers: BTreeMap::new(),
            links: BTreeSet::new(),
            seen: SeenSet::default(),
            exchange,
            // Each node jitters independently, but the whole cluster is
            // still driven by the one configured seed.
            rng: StdRng::seed_from_u64(config.rng_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            retained_gauge,
            acks_sent,
            acks_piggybacked,
            core_ticks,
            reliable: ReliableCore::new(
                config.reliable,
                id as u32,
                wire::ack_id(id),
                wire::summary_id(id),
            ),
            outbox: Vec::new(),
            byz_delivered: Vec::new(),
            relay: Vec::new(),
            next_beat: now_us + beat_us,
            beats: 0,
            next_sweep: now_us + sweep_us,
            unadvertised: 0,
            advert_batch: config.reliable.advert_batch(),
        };
        let overlay = Arc::clone(core.membership.overlay());
        core.view_changed(&overlay);
        Ok(core)
    }

    /// Who this node believes is a member: its replica, the crashes it has
    /// applied, whether it is degraded or rejoining.
    #[must_use]
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Peers this node believes it has a live link to.
    #[must_use]
    pub fn links(&self) -> &BTreeSet<MemberId> {
        &self.links
    }

    /// Feeds one event; resulting actions are appended to `out`.
    pub fn handle(&mut self, event: Event, now_us: u64, out: &mut Vec<Action>) {
        self.settle |= matches!(event, Event::LinkUp { .. } | Event::LinkDown { .. });
        self.transition(now_us, out, |core| {
            match event {
                Event::Frame { from, msg } => core.on_frame(from, msg),
                Event::LinkUp { peer, dialed } => core.on_link_up(peer, dialed),
                Event::DialFailed { peer } => core.dial_failed(peer),
                Event::LinkDown { peer } => core.drop_link(peer),
                Event::Broadcast(msg) => {
                    // Send the hop-incremented copy so a receiver's `hops`
                    // field counts the edges the copy travelled.
                    let wire = msg.forwarded();
                    core.deliver(msg, None);
                    core.originate(&wire);
                }
                Event::ByzBroadcast { nonce, payload } => {
                    // A node without an exchange originates nothing.
                    let sent = core.drive_byz(|x, links, out, delivered| {
                        x.broadcast(nonce, payload, links, out, delivered)
                    });
                    match sent {
                        Some(Ok(id)) => {
                            core.seen.insert(id);
                        }
                        // The live view is below 3f+1: refuse instead of
                        // certifying under unsound quorums. The chaos oracle
                        // reads this as QuorumUnsafe.
                        Some(Err(_)) => core.count("byz.unsafe_views"),
                        None => {}
                    }
                }
            }
            // A sweep grid point that has come is swept behind the first
            // event at or after it: acks then owed ride on that event's data.
            core.sweep_reliable();
        });
    }

    /// Runs `step` as one transition at `now_us` with the driver's sink
    /// swapped in, then stamps each up link its actions wrote to as having
    /// just carried a frame: what [`Self::beat_idle_links`] reads.
    fn transition(&mut self, now_us: u64, out: &mut Vec<Action>, step: impl FnOnce(&mut Self)) {
        std::mem::swap(&mut self.out, out);
        self.now = now_us;
        let start = self.out.len();
        step(self);
        for action in &self.out[start..] {
            if let Action::Send { to, .. } = action {
                if let Some(LinkState::Up { last_sent, .. }) =
                    self.peers.get_mut(to).map(|r| &mut r.link)
                {
                    *last_sent = now_us;
                }
            }
        }
        std::mem::swap(&mut self.out, out);
    }

    /// The earliest instant any duty is due: the heartbeat-period tick (which
    /// carries idle links' heartbeats and the summary rounds), a suspicion
    /// expiry, a link's deadline (a down link's redial, an up link's grace),
    /// or `now` while a transition has left a tick something to settle. The
    /// reliable plane's sweep counts while it has work, and not before its
    /// grid point and a grid period of quiet: the first event at or after
    /// the point sweeps it ([`Self::handle`]; why a grid: [`lhg_net::reliable`]).
    #[must_use]
    pub fn next_deadline(&self) -> u64 {
        if self.settle {
            return self.now;
        }
        let quiet = self.next_sweep.max(self.now + self.sweep_us);
        let sweep = self.reliable.pending().then_some(quiet);
        let timeout = self.timeout_us;
        let m = &self.membership;
        let silent = (m.desired().iter().filter(|&&p| !m.is_excommunicated(p))).map(|p| {
            let seen = self.peers.get(p).and_then(|r| r.last_seen);
            seen.map_or(self.now, |t| t + timeout + 1)
        });
        let own = self.peers.values().filter_map(|r| r.link.deadline());
        let dues = sweep.into_iter().chain(silent).chain(own);
        dues.fold(self.next_beat, u64::min)
    }

    /// Advances time: a summary round on every `summary_every`-th
    /// heartbeat-period tick (re-armed as `now + period`) and on any tick
    /// once an advert batch is full, the suspicion sweep, the reconcile pass
    /// and, on the heartbeat-period tick, a heartbeat on each link that has
    /// carried nothing for m periods ([`Self::beat_idle_links`]). Drivers
    /// call it once `now_us` reaches [`Self::next_deadline`], and only then.
    pub fn tick(&mut self, now_us: u64, out: &mut Vec<Action>) {
        self.settle = false;
        self.core_ticks.inc();
        let beat = self.beat_due(now_us);
        if beat {
            self.next_beat = now_us + self.beat_us;
            self.beats += 1;
        }
        self.transition(now_us, out, |core| {
            if (beat && core.beats % core.summary_ticks == 0)
                || core.unadvertised >= core.advert_batch
            {
                core.send_summaries();
            }
            core.sweep_reliable();
            core.check_suspicions();
            // Spent deadlines go, so that each left is one still ahead, and
            // a dial-failure streak is forgiven only after the link has
            // stayed healthy for a full probation window (see
            // `lhg_net::backoff`).
            for r in core.peers.values_mut() {
                r.link.drop_deadline(now_us);
                let up = matches!(r.link, LinkState::Up { .. });
                if up && r.backoff.as_mut().is_some_and(|b| b.maybe_reset(now_us)) {
                    r.backoff = None;
                }
            }
            core.reconcile();
            core.member(Membership::tick);
        });
        // A transition of its own, so that a link this tick wrote to is not
        // idle.
        if beat {
            self.transition(now_us, out, Self::beat_idle_links);
        }
    }

    /// Whether a tick at `now_us` is the heartbeat-period tick.
    pub(crate) fn beat_due(&self, now_us: u64) -> bool {
        now_us >= self.next_beat
    }

    fn count(&self, name: &str) {
        self.metrics.counter(name).inc();
    }

    fn rec(&self, kind: EventKind) {
        self.recorder.record_at(self.now, kind);
    }

    /// The replica changed: each origin's eager tree is searched afresh.
    fn view_changed(&mut self, overlay: &DynamicOverlay) {
        // The eager tree's lookups and relay sets allocate nothing from
        // here until the next view change.
        self.children.reset(overlay, self.id);
        self.relay.reserve(self.membership.desired().len());
    }

    fn on_frame(&mut self, from: MemberId, msg: Message) {
        let now = self.now;
        self.peers.entry(from).or_default().last_seen = Some(now);
        self.rec(EventKind::FrameRx {
            peer: from as u32,
            bytes: lhg_net::codec::frame_len(&msg) as u32,
        });
        // An excommunicated sender is held on to and told so.
        if self.membership.is_excommunicated(from) {
            self.member(|m, host| m.excommunicated_sender(from, host));
        }
        match wire::classify(msg.broadcast_id) {
            FrameKind::Malformed => self.count("runtime.malformed_frames"),
            FrameKind::Heartbeat(_) => {
                // Liveness recorded above; keep the probe in the timeline.
                self.rec(EventKind::Heartbeat { peer: from as u32 });
            }
            // Decoded once, for membership to rule on. A wave taken goes on
            // every live link, not down a tree: waves are rare, and keep
            // alike the replicas that place the trees. A stale one is marked
            // seen first, so the plane only acks it and no advert draws a
            // pull of it; a dead notice never enters it, nor does a refused
            // wave.
            FrameKind::Crash(_) | FrameKind::Join(_) => {
                let Some(heard) = wire::heard(self.id, from, &msg) else {
                    return self.count("runtime.malformed_frames");
                };
                let wave = self.member(|m, host| m.on_heard(from, heard, host));
                let (take, stale) = (wave == Wave::Take, wave == Wave::Stale);
                if stale {
                    self.seen.insert(msg.broadcast_id);
                }
                if take || (stale && msg.link_seq.is_some()) {
                    let outcome = self.drive(|r, seen, links, now, out| {
                        r.on_data(from, &msg, seen, now, links.filter(|_| take), out)
                    });
                    if self.fresh(outcome) {
                        self.note_retained();
                        self.member(|m, host| m.on_wave(from, heard, host));
                    }
                }
            }
            // Handshakes are the driver's.
            FrameKind::Hello(_) => {}
            FrameKind::Ack(_) => {
                self.drive(|r, _, _, now, out| r.on_ack(from, msg.payload, now, out));
            }
            FrameKind::Summary(_) => {
                match self
                    .drive(|r, seen, _, now, out| r.on_summary(from, msg.payload, seen, now, out))
                {
                    SummaryOutcome::Pulled => self.count("runtime.pulls_sent"),
                    SummaryOutcome::Served(n) => {
                        self.metrics.counter("runtime.pulls_served").add(n);
                    }
                    SummaryOutcome::Ignored => {}
                }
            }
            FrameKind::Data => {
                let mut sends = std::mem::take(&mut self.outbox);
                let fresh = !self.seen.contains(msg.broadcast_id);
                let relay = self.eager_tree(fresh.then_some(MemberId::from(msg.origin)));
                let links = relay.iter().copied();
                let outcome =
                    (self.reliable).on_data(from, &msg, &mut self.seen, now, links, &mut sends);
                // Deliver before the forwards the plane emitted.
                if self.fresh(outcome) {
                    self.note_retained();
                    let (trace, hops) = (msg.trace, msg.hops.saturating_add(1));
                    self.deliver(msg, Some(from));
                    if let Some(trace_id) = trace {
                        self.rec(EventKind::BroadcastForward { trace_id, hops });
                    }
                }
                self.relay = relay;
                self.push_sends(sends);
            }
            FrameKind::Byz => self.on_byz_frame(from, &msg),
        }
    }

    /// Whether the reliable plane took a frame as news, counting what it
    /// refused: a link duplicate (the ack it re-earns goes out on the next
    /// sweep) or a link seq no correct peer reaches.
    fn fresh(&self, outcome: DataOutcome) -> bool {
        match outcome {
            DataOutcome::LinkDuplicate => self.count("runtime.link_dups"),
            DataOutcome::Refused => self.count("runtime.malformed_frames"),
            DataOutcome::Duplicate | DataOutcome::Fresh => {}
        }
        outcome == DataOutcome::Fresh
    }

    /// A byz-class frame: a `SEND` or a neighbor's `VOTES`. Every node
    /// relays a first-seen `SEND` down the eager tree, as for data
    /// ([`Self::eager_tree`]), before anything validates it; the vote
    /// exchange's repair rounds bring back what a lost tree edge or a mute
    /// relay kept from a subtree. A correct node then hands the frame to its
    /// vote exchange, which counts and answers — a `SEND` only as a first
    /// copy or one the engine wants. A node without an exchange (no
    /// byzantine setup, or a listed traitor, whose script [`crate::traitor`]
    /// runs around the core) neither casts nor forwards votes.
    fn on_byz_frame(&mut self, from: MemberId, msg: &Message) {
        let send = GossipFrame::from_message(msg).filter(|f| f.kind == GossipKind::Send);
        if let Some(f) = send {
            let fresh = self.seen.insert(msg.broadcast_id);
            let relay = self.eager_tree(fresh.then_some(MemberId::from(f.tag.origin)));
            if !relay.is_empty() {
                let fwd = msg.forwarded();
                let to = relay.iter().filter(|&&p| p != from);
                (self.out).extend(to.map(|&to| Action::Send {
                    to,
                    msg: fwd.clone(),
                }));
            }
            self.relay = relay;
            let wanted =
                (self.exchange.as_ref()).is_some_and(|x| x.engine().wants_payload(f.tag, f.digest));
            if !fresh && !wanted {
                return; // another copy, over another disjoint path
            }
        }
        let ran =
            self.drive_byz(|x, links, out, delivered| x.on_frame(from, msg, links, out, delivered));
        if let Some(rejected) = ran.filter(|&r| r > 0) {
            self.metrics.counter("byz.votes_rejected").add(rejected);
        }
    }

    /// The links a broadcast from `origin`, seen here for the first time,
    /// goes on to: this node's children in the origin's BFS tree on the
    /// replica, or every link when the replica cannot place it. A lingering
    /// or grace link is no tree edge: it gets none. No origin, no links:
    /// only a first copy is forwarded, so only it looks the tree up. The set
    /// comes in the reused relay buffer, which the caller hands back.
    fn eager_tree(&mut self, origin: Option<MemberId>) -> Vec<MemberId> {
        let mut relay = std::mem::take(&mut self.relay);
        relay.clear();
        if let Some(origin) = origin {
            let kids = self.children.get(self.membership.overlay(), origin);
            let links = self.links.iter().copied();
            relay.extend(links.filter(|p| kids.is_none_or(|kids| kids.contains(p))));
        }
        relay
    }

    /// Runs one transition of a *correct* node's vote exchange — handing it
    /// the live links and the reusable sinks —
    /// then turns what it emitted into sends and deliveries. `None` when
    /// this node holds no exchange (no byzantine setup, or a traitor).
    fn drive_byz<R>(
        &mut self,
        step: impl FnOnce(
            &mut VoteExchange<MemberId>,
            std::iter::Copied<std::collections::btree_set::Iter<'_, MemberId>>,
            &mut Sends<MemberId>,
            &mut Vec<ByzDelivery>,
        ) -> R,
    ) -> Option<R> {
        let exchange = self.exchange.as_mut()?;
        let mut sends = std::mem::take(&mut self.outbox);
        let mut delivered = std::mem::take(&mut self.byz_delivered);
        let links = self.links.iter().copied();
        let result = step(exchange, links, &mut sends, &mut delivered);
        self.push_sends(sends);
        let out = &mut self.out;
        out.extend(delivered.drain(..).map(|d| Action::ByzDeliver {
            msg: d.into_message(),
        }));
        self.byz_delivered = delivered;
        Some(result)
    }

    /// Runs one input of the membership machine, answering what it asks from
    /// the link records, then carries out what it emitted, in order.
    fn member<R>(&mut self, step: impl FnOnce(&mut Membership, &mut Host) -> R) -> R {
        let mut effects = std::mem::take(&mut self.effects);
        let (now, timeout, links, peers) = (self.now, self.timeout_us, &self.links, &self.peers);
        // Directly live: link up, and a frame within the suspicion timeout.
        let live = |victim: MemberId| {
            let seen = peers.get(&victim).and_then(|r| r.last_seen);
            links.contains(&victim) && seen.is_some_and(|t| now - t <= timeout)
        };
        let mut host = Host {
            now,
            linked: !links.is_empty(),
            live: &live,
            out: &mut effects,
        };
        let result = step(&mut self.membership, &mut host);
        for effect in effects.drain(..) {
            self.carry_out(effect);
        }
        self.effects = effects;
        result
    }

    /// One thing membership asked for.
    fn carry_out(&mut self, effect: Effect) {
        match effect {
            Effect::Send(to, say) if self.links.contains(&to) => {
                let msg = wire::said(self.id, say);
                self.out.push(Action::Send { to, msg });
            }
            Effect::Send(..) => {}
            Effect::Wave(say) => self.originate(&wire::said(self.id, say)),
            Effect::Grace(peer, until) => {
                if let Some(LinkState::Up { grace, .. }) =
                    self.peers.get_mut(&peer).map(|r| &mut r.link)
                {
                    *grace = (*grace).max(Some(until));
                }
            }
            Effect::Dial(peer) => self.dial(peer),
            Effect::View(overlay) => {
                self.view_changed(&overlay);
                // Re-sizes the Bracha membership view: instances created
                // from here on quorum against — and count votes of — the
                // live membership, while in-flight instances keep the view
                // they snapshotted. A view below 3f+1 is refused by the
                // engine and counted on `byz.unsafe_views` for the chaos
                // oracle's QuorumUnsafe audit.
                let members = overlay.members().iter().map(|&m| m as u32);
                if (self.exchange.as_mut()).is_some_and(|x| x.bump_view(members).is_err()) {
                    self.count("byz.unsafe_views");
                }
            }
            Effect::Excommunicate(victim) => {
                self.drop_link(victim);
                // Frames parked for an excommunicated peer are abandoned; if
                // it ever rejoins, anti-entropy summaries catch it up instead.
                self.reliable.abandon(victim);
            }
            Effect::Readmit(member) => {
                // Heard from now, no dial backoff, no redial or grace.
                let r = self.peers.entry(member).or_default();
                r.last_seen = Some(self.now);
                r.backoff = None;
                r.link.drop_deadline(u64::MAX);
            }
            Effect::Reconcile => self.reconcile(),
            Effect::Settle => self.settle = true,
        }
    }

    /// Records an application delivery in the timeline and hands it to the
    /// driver (`via` is the neighbor the winning copy arrived from).
    fn deliver(&mut self, msg: Message, via: Option<MemberId>) {
        if let Some(trace_id) = msg.trace {
            self.rec(match via {
                None => EventKind::BroadcastAccept { trace_id },
                Some(from) => EventKind::BroadcastDeliver {
                    trace_id,
                    from: from as u32,
                    hops: msg.hops,
                },
            });
        }
        self.out.push(Action::Deliver { msg, via });
    }

    /// Runs one transition of the reliable plane — handing it the dedup
    /// set, the live links, the clock and the reusable sink — then turns
    /// whatever it emitted into sends.
    fn drive<R>(
        &mut self,
        step: impl FnOnce(
            &mut ReliableCore<MemberId>,
            &mut SeenSet,
            std::iter::Copied<std::collections::btree_set::Iter<'_, MemberId>>,
            u64,
            &mut Sends<MemberId>,
        ) -> R,
    ) -> R {
        let mut sends = std::mem::take(&mut self.outbox);
        let (links, now) = (self.links.iter().copied(), self.now);
        let result = step(&mut self.reliable, &mut self.seen, links, now, &mut sends);
        self.push_sends(sends);
        result
    }

    /// Originates `wire` on the reliable plane, to every live link: a
    /// broadcast or a wave of this node's own.
    fn originate(&mut self, wire: &Message) {
        self.seen.insert(wire.broadcast_id);
        self.drive(|r, _, links, now, out| r.originate(wire, now, links, out));
        self.note_retained();
    }

    /// Moves the planes' sends into the action sink, counting the acks
    /// among them — frames of their own and acks riding on data — and
    /// keeps the (drained) buffer for reuse.
    fn push_sends(&mut self, mut sends: Sends<MemberId>) {
        let ack_id = wire::ack_id(self.id);
        let (mut standalone, mut riding) = (0, 0);
        for (to, msg) in sends.drain(..) {
            standalone += u64::from(msg.broadcast_id == ack_id);
            riding += u64::from(msg.link_ack.is_some());
            self.out.push(Action::Send { to, msg });
        }
        self.outbox = sends;
        if standalone > 0 {
            self.acks_sent.add(standalone);
        }
        if riding > 0 {
            self.acks_piggybacked.add(riding);
        }
    }

    /// Retransmit sweep + due standalone acks for every live link, once the
    /// grid point has come; the grid re-arms from here.
    fn sweep_reliable(&mut self) {
        if self.now < self.next_sweep {
            return;
        }
        self.next_sweep = self.now + self.sweep_us;
        let report = self.drive(|r, _, links, now, out| r.tick(now, links, out));
        if report.retransmits > 0 {
            self.metrics
                .counter("runtime.retransmits")
                .add(report.retransmits);
        }
    }

    /// Heartbeat-cadence repair channel: one vote-exchange repair round
    /// (every unsettled Bracha instance declared to each linked peer) and
    /// an advertisement of recently-delivered broadcast ids; then the pull
    /// store retires what every overlay neighbor holds. Only while no member
    /// is crashed or excommunicated here: a member cut off, or a revenant,
    /// may need what it missed, and mid-heal the replicas may disagree on
    /// who neighbors whom, so the store stays FIFO until then.
    fn send_summaries(&mut self) {
        self.unadvertised = 0;
        self.drive_byz(|x, links, out, _| x.repair(links, out));
        if self.drive(|r, _, links, _, out| r.advertise(links, out)) {
            self.count("runtime.summaries_sent");
        }
        let m = &self.membership;
        if m.excommunicated().next().is_none() {
            self.reliable.retire(m.desired().iter().copied());
        }
        let retained = self.reliable.retained_bytes();
        (self.retained_gauge).set(i64::try_from(retained).unwrap_or(i64::MAX));
    }

    /// The reliable plane retained one more id. Once
    /// [`ReliableConfig::advert_batch`] are new since the last summary
    /// round, a tick is due now and sends the next round: a lazy link then
    /// hears every id while the store still holds it for the pull, at any
    /// broadcast rate.
    ///
    /// [`ReliableConfig::advert_batch`]: lhg_net::reliable::ReliableConfig::advert_batch
    fn note_retained(&mut self) {
        self.unadvertised += 1;
        if self.unadvertised >= self.advert_batch {
            self.settle = true;
        }
    }

    /// The detector's send half, on the heartbeat-period tick: any frame
    /// proves this node alive, so a heartbeat goes only to a link nothing
    /// was sent on for m periods (`idle_us`), and no live link is silent for
    /// m + 1 (plus the driver's wake-up latency). A held list owed to the link
    /// ([`ReliableCore::answer`]) goes in its place, and once the link is
    /// idle half a period: at the tick nearest the instant it went when
    /// each link beat on its own phase, so pull-store retirement keeps its
    /// pace. Allocates only the held lists' payloads.
    fn beat_idle_links(&mut self) {
        let (now, beat, idle_us) = (self.now, self.beat_us, self.idle_us);
        let heartbeat = Message::new(wire::heartbeat_id(self.id), self.id as u32, Bytes::new());
        let mut sends = std::mem::take(&mut self.outbox);
        for (&peer, r) in &self.peers {
            let idle = |gap| matches!(r.link, LinkState::Up { last_sent: t, .. } if now - t >= gap);
            let answered = idle(beat / 2) && self.reliable.answer(peer, &mut sends);
            if !answered && idle(idle_us) {
                sends.push((peer, heartbeat.clone()));
            }
        }
        self.push_sends(sends);
    }

    /// Declares crashed any monitored neighbor silent past the timeout;
    /// refreshes the per-peer heartbeat-age gauges along the way.
    fn check_suspicions(&mut self) {
        let now = self.now;
        let mut suspects = Vec::new();
        let m = &self.membership;
        for &peer in m.desired().iter().filter(|&&p| !m.is_excommunicated(p)) {
            let r = self.peers.entry(peer).or_default();
            // A peer we have never heard from starts its grace period now;
            // this also covers crash-before-connect (dials keep failing).
            let age = now - *r.last_seen.get_or_insert(now);
            // `runtime.heartbeat_age_us.n<id>.p<peer>`: µs since this node
            // last heard from `peer`, fresh as of the latest tick.
            let (id, metrics) = (self.id, &self.metrics);
            r.age_gauge
                .get_or_insert_with(|| {
                    metrics.gauge(&format!("runtime.heartbeat_age_us.n{id}.p{peer}"))
                })
                .set(i64::try_from(age).unwrap_or(i64::MAX));
            if age > self.timeout_us {
                suspects.push(peer);
            }
        }
        for peer in suspects {
            self.member(|m, host| m.suspect(peer, host));
        }
        self.member(Membership::lift_stale_vetoes);
    }

    /// [`Membership::crash_wave`] as a transition of its own at `now_us`:
    /// the one operation a traitor's script ([`crate::traitor`]) asks of
    /// the core.
    pub(crate) fn announce_crash(&mut self, victim: MemberId, now_us: u64, out: &mut Vec<Action>) {
        self.transition(now_us, out, |core| {
            core.member(|m, host| m.crash_wave(victim, host));
        });
    }

    /// Converges links toward the overlay's desired neighbor set: tears
    /// down links the dialer side no longer wants, dials missing ones
    /// (with backoff), and closes the healing stopwatch when done.
    fn reconcile(&mut self) {
        let probe_all = self.membership.probe_all();
        // Teardown is dialer-driven so a link is never closed by a node
        // that merely hasn't healed yet; links to crashed members go down
        // too. Neither while the link is in grace: a revenant mid-rejoin,
        // or a caller from outside the overlay who is yet to be heard out.
        let m = &self.membership;
        let unwanted: Vec<MemberId> = (self.links.iter().copied())
            .filter(|peer| {
                !probe_all
                    && (self.peers.get(peer)).is_none_or(|r| r.link.deadline().is_none())
                    && (m.is_excommunicated(*peer)
                        || (self.id < *peer && !m.desired().contains(peer)))
            })
            .collect();
        for peer in unwanted {
            self.drop_link(peer);
            self.count("runtime.links_dropped");
        }

        let m = &self.membership;
        let down = |r: &Peer| r.link == LinkState::Down { redial: None };
        let due = |peer: &MemberId| self.peers.get(peer).is_none_or(down);
        let dials: Vec<MemberId> = if probe_all {
            (self.roster.iter().copied())
                .filter(|p| *p != self.id && due(p))
                .collect()
        } else {
            // Grave probing rides along: periodically dial the members this
            // replica believes crashed. A genuinely dead member costs one
            // backed-off connect; a live one is a stale exclusion this node
            // might otherwise never learn about — e.g. a late first receipt
            // of an old crash wave for a **non-neighbor**, where no link
            // exists over which the dead-notice → `JOIN` repair could run.
            // The link-up handler sends the dead notice on contact.
            (m.desired().iter().copied())
                .filter(|&p| self.id < p && !m.is_excommunicated(p))
                .chain(m.excommunicated())
                .filter(due)
                .collect()
        };
        for peer in dials {
            self.dial(peer);
        }
        self.membership.check_healed(&self.links, self.now);
    }

    /// Asks the driver for a link to `peer`, unless one is up or underway;
    /// a dial drops a pending redial.
    fn dial(&mut self, peer: MemberId) {
        let r = self.peers.entry(peer).or_default();
        if let LinkState::Down { .. } = r.link {
            r.link = LinkState::Dialing;
            self.out.push(Action::Dial { peer });
        }
    }

    /// A link to `peer` is up (dialed or accepted), in place of any older
    /// one: the link's sequence spaces restart, and what the old link never
    /// delivered is re-sent over the new one, and a pending redial or an
    /// older link's grace goes. The hello's claim is checked first — this
    /// node's own id, an id outside the member space or one the roster does
    /// not know never becomes a link that floods and heartbeats.
    fn on_link_up(&mut self, peer: MemberId, dialed: bool) {
        if peer == self.id || peer >= wire::MAX_MEMBERS || !self.roster.contains(&peer) {
            self.count("runtime.hello_rejected");
            self.out.push(Action::Close { peer });
            return;
        }
        let now = self.now;
        if dialed {
            self.count("runtime.dials");
        } else {
            self.count("runtime.accepts");
        }
        let r = self.peers.entry(peer).or_default();
        r.link = LinkState::Up {
            last_sent: now,
            grace: None,
        };
        r.last_seen = Some(now);
        // A connect alone does not forgive a dial-failure streak: the
        // escalated schedule stays until the link survives a full
        // probation window.
        if let Some(b) = r.backoff.as_mut() {
            b.connected(now);
        }
        self.links.insert(peer);
        self.reset_planes(peer);
        self.rec(EventKind::Connect { peer: peer as u32 });
        self.drive(|r, _, _, now, out| r.flush(peer, now, out));
        // The grace membership holds the link open for, and a grave probe's
        // dead notice.
        self.member(|m, host| m.on_link_up(peer, dialed, host));
        self.membership.check_healed(&self.links, now);
    }

    /// Schedules the next dial attempt to `peer` on the jittered exponential
    /// backoff. After `dial_max_attempts` consecutive failures the peer goes
    /// on low-frequency probation instead — never permanent abandonment,
    /// because a healed partition must eventually reconnect.
    fn dial_failed(&mut self, peer: MemberId) {
        self.count("runtime.dial_failures");
        let (policy, r) = (self.retry, self.peers.entry(peer).or_default());
        let backoff = r.backoff.get_or_insert_with(|| Backoff::new(policy));
        let delay = backoff.next_delay(&mut self.rng).unwrap_or_else(|| {
            backoff.reset();
            self.metrics.counter("runtime.dial_probations").inc();
            policy.cap_us * 8
        });
        // A link accepted meanwhile stands.
        let redial = Some(self.now + delay);
        if r.link == LinkState::Dialing {
            r.link = LinkState::Down { redial };
        }
    }

    /// Closes and forgets the link to `peer` (if any) and any redial pending,
    /// parking the reliable plane's undelivered frames for the replacement
    /// link.
    fn drop_link(&mut self, peer: MemberId) {
        if self.links.remove(&peer) {
            self.out.push(Action::Close { peer });
            self.rec(EventKind::Disconnect { peer: peer as u32 });
        }
        if let Some(r) = self.peers.get_mut(&peer) {
            if r.link != LinkState::Dialing {
                r.link = LinkState::default();
            }
            r.last_seen = None;
            if let Some(b) = r.backoff.as_mut() {
                b.disconnected();
            }
        }
        self.reset_planes(peer);
    }

    /// A link went down or came up: both planes start it afresh. The
    /// reliable plane parks what the old link never delivered, and whoever
    /// is at the other end next is offered every Bracha instance again.
    fn reset_planes(&mut self, peer: MemberId) {
        self.reliable.reset_link(peer);
        if let Some(x) = self.exchange.as_mut() {
            x.reset_link(peer);
        }
    }
}
