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
//! It owns, with [`ReliableCore`] and [`VoteExchange`] as its parts:
//!
//! * **dispatch** — one classifier ([`wire::classify`]), malformed ids
//!   dropped, data to the reliable plane, byz frames to the vote exchange;
//! * **eager trees** — a fresh data frame, and a first-seen Bracha `SEND`,
//!   goes on only to this node's children in the origin's BFS tree on the
//!   replica (every link when the replica cannot place it); for data every
//!   other link learns the id from the reliable plane's adverts, and a
//!   node that lacks the body pulls it, while a node that certified a
//!   `SEND`'s digest without its payload pulls it through the vote
//!   exchange's repair.
//!   A stored body retires once every overlay neighbor holds it, while no
//!   member is crashed or excommunicated here;
//! * **control waves** — best-effort flooding of crash/join announcements,
//!   deduplicated forever under per-wave nonces;
//! * **failure detection** — any frame is proof of life, so heartbeats go
//!   only to links nothing else was sent on for a heartbeat period (a held
//!   list owed to the link goes in the heartbeat's place);
//!   `last_seen` in, suspicion past the timeout; under a byzantine setup a
//!   remote report applies only once f+1 distinct origins vouch for it and
//!   the victim is not demonstrably alive on a direct link;
//! * **healing** — `crash_many` on the overlay replica, the churn it
//!   returns turned into `Close`/`Dial`, degraded mode once ≥ k members are
//!   excommunicated (heal nothing, probe everyone);
//! * **rejoin** — dead notices, each answered with a direct `JOIN` and
//!   the flooded announcement (a rejoiner's Bracha state catches up
//!   through the vote exchange's repair rule on its fresh links, nothing
//!   here);
//! * **link policy** — which links are wanted ([`NodeCore::tick`]'s
//!   reconcile pass) and when a failed dial may be retried. Dials are
//!   asynchronous: a [`Action::Dial`] is answered, whenever the driver
//!   knows, by [`Event::LinkUp`] or [`Event::DialFailed`];
//! * **traitor scripts** — when and to whom a configured traitor lies.
//!
//! What stays with the driver is what only it can know: fault injection,
//! wire accounting where a frame is queued, which socket is a peer's link,
//! and the publication of state to other threads.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lhg_byzantine::{
    attack, BrachaConfig, ByzDelivery, GossipFrame, GossipKind, TraitorBehavior, UnsoundMembership,
    VoteExchange,
};
use lhg_core::overlay::{ChurnReport, DynamicOverlay, MemberId, TreeChildren};
use lhg_net::backoff::{Backoff, BackoffPolicy};
use lhg_net::message::Message;
use lhg_net::metrics::{Counter, Gauge, MetricsRegistry};
use lhg_net::reliable::{DataOutcome, ReliableCore, Sends, SummaryOutcome};
use lhg_net::seen::SeenSet;
use lhg_trace::{EventKind, FlightRecorder};

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
    /// Write `msg` on every link except the one to `except`: a best-effort
    /// control flood (crash/join wave, a relayed byz `SEND`), one action
    /// instead of one [`Action::Send`] and one frame clone per link.
    Flood {
        /// The frame.
        msg: Message,
        /// The peer it came from, if it is a relay.
        except: Option<MemberId>,
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

/// How a node enters the cluster: fresh boot or rejoin after a kill.
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

/// Per-node Byzantine state: the vote exchange (and the Bracha engine it
/// owns) plus this node's scripted misbehavior, if it is one of the run's
/// traitors.
struct ByzState {
    exchange: VoteExchange<MemberId>,
    /// The traitor budget quorums and corroboration are sized for.
    f: usize,
    /// `Some` makes this node a traitor — it never votes honestly.
    behavior: Option<TraitorBehavior>,
    /// Equivocate/forge traitors mount their attack exactly once, on the
    /// first byz frame they observe (so there is a broadcast to disrupt).
    attacked: bool,
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

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The sans-IO node state machine; see the module docs.
pub struct NodeCore {
    id: MemberId,
    /// The overlay's connectivity parameter, cached at boot: ≥ k applied
    /// crashes means the failure budget is blown and healing must stop.
    k: usize,
    /// Heartbeat period, suspicion timeout, summary and sweep cadence (µs).
    beat_us: u64,
    timeout_us: u64,
    summary_us: u64,
    sweep_us: u64,
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
    /// This node's overlay replica (shared with whoever the driver
    /// published it to; copied on the next write), the neighbors it wants
    /// (cached from the replica) and the members it has declared crashed
    /// and healed around. `view_epoch` moves whenever replica or crash set
    /// change, so a driver republishes them only then.
    overlay: Arc<DynamicOverlay>,
    desired: BTreeSet<MemberId>,
    /// Per origin the replica can place, this node's children in its BFS
    /// tree: searched on first use, reset with the view.
    children: TreeChildren,
    crashed: BTreeSet<MemberId>,
    view_epoch: u64,
    degraded: bool,
    /// Set for the whole rejoin of a rejoin boot: until the `JOIN`
    /// announcement has flooded.
    rejoining: bool,
    /// A transition moved what a tick settles: the next one is due at once.
    settle: bool,
    /// Every member that may ever be dialed or accepted (the directory).
    roster: BTreeSet<MemberId>,
    /// Peers with a live link, in the order floods walk them, and peers
    /// with a [`Action::Dial`] outstanding.
    links: BTreeSet<MemberId>,
    dialing: BTreeSet<MemberId>,
    /// Flooding dedup: broadcast ids already processed. Entries survive
    /// until the set's capacity cap evicts the oldest — every control wave
    /// floods under a fresh nonce, so a stale copy of an old wave is
    /// absorbed here instead of being re-applied (re-arming dedup per
    /// membership flip is how crash/join waves used to chase each other
    /// into a churn livelock).
    seen: SeenSet,
    /// `None` relays a byz `SEND` like any flood but never votes or delivers.
    byz: Option<ByzState>,
    life: u32,
    /// Per-life wave counter; with `life` it forms each wave's nonce.
    wave_seq: u16,
    /// Last time each monitored peer produced any frame.
    last_seen: HashMap<MemberId, u64>,
    /// Last time this core emitted anything on each live link (one entry
    /// per link): what [`Self::beat_idle_links`] reads.
    last_sent: HashMap<MemberId, u64>,
    /// Dial backoff: no redial before the recorded time, and the per-peer
    /// jittered exponential state behind it.
    next_dial: HashMap<MemberId, u64>,
    backoffs: HashMap<MemberId, Backoff>,
    /// Private RNG driving retry jitter (seeded from the config seed).
    rng: StdRng,
    /// Links the reconcile pass would take down but must not yet, each with
    /// its deadline: an excommunicated peer heard from recently (so the
    /// rejoin handshake can complete), a caller from outside the overlay
    /// (so it can be heard out), a link a heal just dropped (so what is in
    /// flight on it lands).
    link_grace: HashMap<MemberId, u64>,
    /// Last time a dead notice was sent to each revenant (rate limiting).
    notice_sent: HashMap<MemberId, u64>,
    /// After answering a dead notice, ignore further ones until this time
    /// (they are echoes of the state being repaired).
    rejoin_cooldown: Option<u64>,
    /// Flood a `JOIN` announcement as soon as at least one link is up.
    pending_join_announce: bool,
    /// Set when a crash is first applied; cleared (and timed) once every
    /// desired link is re-established.
    healing_since: Option<u64>,
    /// Corroborated suspicion: distinct wave origins that have reported
    /// each victim crashed ([`Self::note_crash_report`]).
    crash_reporters: HashMap<MemberId, BTreeSet<MemberId>>,
    /// Distinct peers that sent us a dead notice (byzantine runs).
    notice_senders: BTreeSet<MemberId>,
    hb_age_gauges: HashMap<MemberId, Arc<Gauge>>,
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
    /// The heartbeat-period duty (the FrameCrash script), summaries, sweeps.
    next_beat: u64,
    next_summary: u64,
    next_sweep: u64,
    /// Ids the reliable plane retained since the last summary round, and
    /// how many make the round due at once ([`Self::note_retained`]).
    unadvertised: usize,
    advert_batch: usize,
}

impl NodeCore {
    /// A node booted at `now_us` with `overlay` as its replica. `roster` is
    /// every member that exists (the address book's keys). Nothing is
    /// emitted until the first [`Self::tick`], which is due at once.
    ///
    /// # Errors
    ///
    /// [`UnsoundMembership`] when a byzantine setup's traitor budget needs
    /// more than the boot membership (n < 3f+1): a configuration error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: MemberId,
        overlay: DynamicOverlay,
        roster: BTreeSet<MemberId>,
        config: &RuntimeConfig,
        metrics: Arc<MetricsRegistry>,
        recorder: Arc<FlightRecorder>,
        opts: BootOpts,
        now_us: u64,
    ) -> Result<Self, UnsoundMembership> {
        // Quorums are sized from an epoch-stamped membership view: each
        // Bracha instance snapshots the view live at its creation, and
        // churn bumps the view (f stays a protocol constant).
        let byz = match config.byzantine.as_ref() {
            Some(setup) => Some(ByzState {
                exchange: byz_exchange(id, &overlay, setup.f, config.reliable.max_retries)?,
                f: setup.f,
                behavior: setup
                    .traitors
                    .iter()
                    .find(|(m, _)| *m == id)
                    .map(|(_, b)| *b),
                attacked: false,
            }),
            None => None,
        };
        let (beat_us, timeout_us) = (us(config.heartbeat_period), us(config.heartbeat_timeout));
        // Anti-entropy cadence: `summary_every` heartbeat periods per
        // summary flood (the reliable config's tick-based knob, reread for
        // the heartbeat-driven clock).
        let summary_us = beat_us.saturating_mul(config.reliable.summary_ticks());
        let sweep_us = config.reliable.sweep_us();
        let retained_gauge = metrics.gauge(&format!("runtime.payload_bytes_retained.n{id}"));
        let acks_sent = metrics.counter("runtime.acks_sent");
        let acks_piggybacked = metrics.counter("runtime.acks_piggybacked");
        let core_ticks = metrics.counter("runtime.core_ticks");
        let mut core = NodeCore {
            id,
            k: overlay.k(),
            beat_us,
            timeout_us,
            summary_us,
            sweep_us,
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
            overlay: Arc::new(overlay),
            desired: BTreeSet::new(),
            children: TreeChildren::default(),
            crashed: opts.initial_crashes,
            view_epoch: 0,
            degraded: false,
            rejoining: opts.announce_join,
            settle: true,
            roster,
            links: BTreeSet::new(),
            dialing: BTreeSet::new(),
            seen: SeenSet::default(),
            byz,
            life: opts.life,
            wave_seq: 0,
            last_seen: HashMap::new(),
            last_sent: HashMap::new(),
            next_dial: HashMap::new(),
            backoffs: HashMap::new(),
            // Each node jitters independently, but the whole cluster is
            // still driven by the one configured seed.
            rng: StdRng::seed_from_u64(config.rng_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            link_grace: HashMap::new(),
            notice_sent: HashMap::new(),
            rejoin_cooldown: None,
            pending_join_announce: opts.announce_join,
            healing_since: None,
            crash_reporters: HashMap::new(),
            notice_senders: BTreeSet::new(),
            hb_age_gauges: HashMap::new(),
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
            next_summary: now_us + summary_us,
            next_sweep: now_us + sweep_us,
            unadvertised: 0,
            advert_batch: config.reliable.advert_batch(),
        };
        core.view_changed();
        Ok(core)
    }

    /// This node's overlay replica; cloning the `Arc` publishes it for free.
    #[must_use]
    pub fn overlay(&self) -> &Arc<DynamicOverlay> {
        &self.overlay
    }

    /// Members this node has declared crashed and healed around.
    #[must_use]
    pub fn crashes_applied(&self) -> &BTreeSet<MemberId> {
        &self.crashed
    }

    /// Moves whenever [`Self::overlay`] or [`Self::crashes_applied`] change.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch
    }

    /// `true` while ≥ k members are excommunicated and healing is suspended.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// `true` from a rejoin boot until its `JOIN` announcement has flooded.
    #[must_use]
    pub fn is_rejoining(&self) -> bool {
        self.rejoining
    }

    /// Peers this node believes it has a live link to.
    #[must_use]
    pub fn links(&self) -> &BTreeSet<MemberId> {
        &self.links
    }

    /// Feeds one event; resulting actions are appended to `out`.
    pub fn handle(&mut self, event: Event, now_us: u64, out: &mut Vec<Action>) {
        std::mem::swap(&mut self.out, out);
        self.now = now_us;
        let start = self.out.len();
        self.settle |= matches!(event, Event::LinkUp { .. } | Event::LinkDown { .. });
        match event {
            Event::Frame { from, msg } => self.on_frame(from, msg),
            Event::LinkUp { peer, dialed } => self.on_link_up(peer, dialed),
            Event::DialFailed { peer } => self.dial_failed(peer),
            Event::LinkDown { peer } => self.drop_link(peer),
            Event::Broadcast(msg) => {
                self.seen.insert(msg.broadcast_id);
                // Send the hop-incremented copy so a receiver's `hops`
                // field counts the edges the copy travelled.
                let wire = msg.forwarded();
                self.deliver(msg, None);
                self.drive(|r, _, links, now, out| r.originate(&wire, now, links, out));
                self.note_retained();
            }
            Event::ByzBroadcast { nonce, payload } => {
                // Traitors never originate honestly; their scripted
                // attacks fire from the frame path instead.
                let refused = self.drive_byz(|x, seen, links, out, delivered| {
                    (x.broadcast(nonce, payload, seen, links, out, delivered)).is_err()
                });
                if refused == Some(true) {
                    // The live view is below 3f+1: refuse instead of
                    // certifying under unsound quorums. The chaos oracle
                    // reads this as QuorumUnsafe.
                    self.count("byz.unsafe_views");
                }
            }
        }
        // A sweep grid point that has come is swept behind the first event
        // at or after it: acks then owed ride on that event's data instead.
        self.sweep_reliable();
        self.note_sent(start);
        std::mem::swap(&mut self.out, out);
    }

    /// The earliest instant any duty is due: the heartbeat period (the
    /// FrameCrash script) and summary round, an idle link's heartbeat, a
    /// suspicion expiry, a dial backoff or link grace running out,
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
        let silent = (self.desired.difference(&self.crashed))
            .map(|p| self.last_seen.get(p).map_or(self.now, |t| t + timeout + 1));
        let beats = self.behavior() != Some(TraitorBehavior::SuppressHeartbeat);
        let idle = (self.last_sent.values()).filter_map(|t| beats.then_some(t + self.beat_us));
        let expiries = self.next_dial.values().chain(self.link_grace.values());
        let dues = sweep.into_iter().chain(silent).chain(idle);
        (dues.chain(expiries.copied())).fold(self.next_beat.min(self.next_summary), u64::min)
    }

    /// Advances time: whatever periodic duty is due at `now_us` (each
    /// re-armed as `now + period`), then the suspicion sweep, the reconcile
    /// pass and, last, a heartbeat on each link that has carried nothing
    /// for a period. Drivers call it once `now_us` reaches
    /// [`Self::next_deadline`], and only then.
    pub fn tick(&mut self, now_us: u64, out: &mut Vec<Action>) {
        std::mem::swap(&mut self.out, out);
        self.now = now_us;
        self.settle = false;
        self.core_ticks.inc();
        let start = self.out.len();
        if now_us >= self.next_beat {
            if self.behavior() == Some(TraitorBehavior::FrameCrash) {
                self.mount_frame_crash();
            }
            self.next_beat = now_us + self.beat_us;
        }
        if now_us >= self.next_summary {
            self.unadvertised = 0;
            self.send_summaries();
            let retained = self.reliable.retained_bytes();
            self.retained_gauge
                .set(i64::try_from(retained).unwrap_or(i64::MAX));
            self.next_summary = now_us + self.summary_us;
        }
        self.sweep_reliable();
        self.check_suspicions();
        // A dial-failure streak is forgiven only after the link has stayed
        // healthy for a full probation window (see `lhg_net::backoff`).
        let links = &self.links;
        self.backoffs
            .retain(|peer, b| !(links.contains(peer) && b.maybe_reset(now_us)));
        self.reconcile();
        self.try_announce_join();
        if self.rejoining && !self.pending_join_announce {
            self.rejoining = false;
        }
        self.note_sent(start);
        self.beat_idle_links();
        std::mem::swap(&mut self.out, out);
    }

    /// Records that every link the actions from `start` on write to has
    /// just carried a frame: what [`Self::beat_idle_links`] reads.
    fn note_sent(&mut self, start: usize) {
        let now = self.now;
        for action in &self.out[start..] {
            match action {
                Action::Send { to, .. } => {
                    if let Some(sent) = self.last_sent.get_mut(to) {
                        *sent = now;
                    }
                }
                Action::Flood { except, .. } => {
                    for (peer, sent) in &mut self.last_sent {
                        if Some(*peer) != *except {
                            *sent = now;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn count(&self, name: &str) {
        self.metrics.counter(name).inc();
    }

    fn rec(&self, kind: EventKind) {
        self.recorder.record_at(self.now, kind);
    }

    /// An empty-payload control frame from this node.
    fn control(&self, id: u64) -> Message {
        Message::new(id, self.id as u32, Bytes::new())
    }

    /// Replica or crash set changed: refresh the wanted-neighbor cache and
    /// the eager trees, and let the driver know there is something to
    /// republish.
    fn view_changed(&mut self) {
        self.view_epoch += 1;
        self.desired = self
            .overlay
            .neighbors_of(self.id)
            .unwrap_or_default()
            .into_iter()
            .collect();
        // The eager tree's lookups and relay sets allocate nothing from
        // here until the next view change.
        self.children.reset(&self.overlay, self.id);
        self.relay.reserve(self.desired.len());
    }

    fn on_frame(&mut self, from: MemberId, msg: Message) {
        let now = self.now;
        let excommunicated = self.crashed.contains(&from);
        if excommunicated {
            self.link_grace.insert(from, now + self.timeout_us);
            self.maybe_send_dead_notice(from);
        }
        self.last_seen.insert(from, now);
        self.rec(EventKind::FrameRx {
            peer: from as u32,
            bytes: (msg.encoded_len() + lhg_net::codec::LEN_PREFIX) as u32,
        });
        if !excommunicated && self.links.contains(&from) && !self.overlay.contains(from) {
            // A live peer our replica does not know: its JOIN flood must
            // have been missed. Any frame over a link is ground truth — a
            // busy link carries data, not heartbeats.
            self.apply_join(from);
        }
        match wire::classify(msg.broadcast_id) {
            FrameKind::Malformed => self.count("runtime.malformed_frames"),
            FrameKind::Heartbeat(_) => {
                // Liveness recorded above; keep the probe in the timeline.
                self.rec(EventKind::Heartbeat { peer: from as u32 });
            }
            FrameKind::Hello(_) => {} // handshakes are the driver's
            FrameKind::Crash(victim) => {
                if victim == self.id {
                    // A dead notice: the sender excommunicated *us*. Never
                    // flooded, never applied — it starts the rejoin path.
                    // Under corroboration only a first-hand notice is a
                    // voice: a forged wave about us that f+1 honest
                    // neighbors relayed is still one traitor speaking.
                    if self.crash_quorum() == 1 || MemberId::from(msg.origin) == from {
                        self.on_excommunication_notice(from);
                    }
                } else if excommunicated {
                    // Crash gossip from a node we excommunicated could be
                    // poison (its replica is stale); drop it until the
                    // sender has rejoined.
                } else if self.seen.insert(msg.broadcast_id) {
                    self.rec(EventKind::CrashReport {
                        victim: victim as u32,
                        via: from as u32,
                    });
                    self.flood(msg.forwarded(), Some(from));
                    // The wave's *origin* is the reporter, not the relay:
                    // a traitor re-flooding forged waves under fresh
                    // nonces still counts as a single voice.
                    self.note_crash_report(victim, MemberId::from(msg.origin));
                }
            }
            FrameKind::Join(member) => {
                if excommunicated && member != from {
                    // A revenant may only announce itself.
                } else if self.seen.insert(msg.broadcast_id) {
                    self.rec(EventKind::JoinAnnounce {
                        member: member as u32,
                    });
                    self.flood(msg.forwarded(), Some(from));
                    self.apply_join(member);
                }
            }
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
                match self
                    .reliable
                    .on_data(from, &msg, &mut self.seen, now, links, &mut sends)
                {
                    // The ack the copy re-earns goes out on the next sweep.
                    DataOutcome::LinkDuplicate => self.count("runtime.link_dups"),
                    DataOutcome::Duplicate => {}
                    // A link seq no correct peer reaches.
                    DataOutcome::Refused => self.count("runtime.malformed_frames"),
                    // Deliver before the forwards the plane emitted.
                    DataOutcome::Fresh => {
                        self.note_retained();
                        let (trace, hops) = (msg.trace, msg.hops.saturating_add(1));
                        self.deliver(msg, Some(from));
                        if let Some(trace_id) = trace {
                            self.rec(EventKind::BroadcastForward { trace_id, hops });
                        }
                    }
                }
                self.relay = relay;
                self.push_sends(sends);
            }
            FrameKind::Byz => self.on_byz_frame(from, &msg),
        }
    }

    /// A byz-class frame: a `SEND` or a neighbor's `VOTES`. A correct node
    /// hands it to the vote exchange, which relays, counts and answers. A
    /// node without a byzantine setup, for interop, only passes payloads on:
    /// it relays a first-seen `SEND` and neither casts nor forwards votes.
    /// Either relays down the eager tree, as for data
    /// ([`Self::eager_tree`]); the vote exchange's payload pull repairs what
    /// a lost tree edge or a mute relay kept from a subtree. A traitor
    /// floods what it relays, and runs its script.
    fn on_byz_frame(&mut self, from: MemberId, msg: &Message) {
        let behavior = self.behavior();
        if behavior == Some(TraitorBehavior::Silent) {
            return; // swallows the frame entirely
        }
        let send = GossipFrame::from_message(msg).filter(|f| f.kind == GossipKind::Send);
        let fresh = !self.seen.contains(msg.broadcast_id);
        let origin = send.as_ref().map(|f| MemberId::from(f.tag.origin));
        let relay = self.eager_tree(origin.filter(|_| fresh));
        let ran = self.drive_byz(|x, seen, links, out, delivered| {
            x.on_frame(
                from,
                msg,
                seen,
                links,
                relay.iter().copied(),
                out,
                delivered,
            )
        });
        match ran {
            Some(rejected) if rejected > 0 => {
                self.metrics.counter("byz.votes_rejected").add(rejected);
            }
            Some(_) => {}
            None if send.is_some() && self.seen.insert(msg.broadcast_id) => {
                if behavior.is_some() {
                    self.flood(msg.forwarded(), Some(from));
                } else {
                    let fwd = msg.forwarded();
                    let to = relay.iter().filter(|&&p| p != from);
                    (self.out).extend(to.map(|&to| Action::Send {
                        to,
                        msg: fwd.clone(),
                    }));
                }
            }
            None => {}
        }
        self.relay = relay;
        match behavior {
            // Pass the identical frame on again: a replayed SEND dies in a
            // correct peer's seen-set, replayed votes OR in bits it holds.
            Some(TraitorBehavior::Replay) => self.flood(msg.forwarded(), Some(from)),
            // Mounted once, on the first byz frame observed (so there is a
            // broadcast to disrupt).
            Some(TraitorBehavior::Equivocate) if self.first_attack() => self.mount_equivocation(),
            Some(TraitorBehavior::Forge) if self.first_attack() => self.mount_forgery(),
            // Failure-detector attacks cast no votes; their teeth are in
            // the heartbeat path (`tick`, `beat_idle_links`).
            _ => {}
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
            let kids = self.children.get(&self.overlay, origin);
            let links = self.links.iter().copied();
            relay.extend(links.filter(|p| kids.is_none_or(|kids| kids.contains(p))));
        }
        relay
    }

    /// Runs one transition of a *correct* node's vote exchange — handing it
    /// the dedup set, the live links and the reusable sinks —
    /// then turns what it emitted into sends and deliveries. `None` when
    /// this node runs no exchange (no byzantine setup, or a traitor).
    fn drive_byz<R>(
        &mut self,
        step: impl FnOnce(
            &mut VoteExchange<MemberId>,
            &mut SeenSet,
            std::iter::Copied<std::collections::btree_set::Iter<'_, MemberId>>,
            &mut Sends<MemberId>,
            &mut Vec<ByzDelivery>,
        ) -> R,
    ) -> Option<R> {
        let byz = self.byz.as_mut().filter(|b| b.behavior.is_none())?;
        let mut sends = std::mem::take(&mut self.outbox);
        let mut delivered = std::mem::take(&mut self.byz_delivered);
        let links = self.links.iter().copied();
        let result = step(
            &mut byz.exchange,
            &mut self.seen,
            links,
            &mut sends,
            &mut delivered,
        );
        self.push_sends(sends);
        let out = &mut self.out;
        out.extend(delivered.drain(..).map(|d| Action::ByzDeliver {
            msg: d.into_message(),
        }));
        self.byz_delivered = delivered;
        Some(result)
    }

    /// Re-sizes the Bracha membership view after applied churn: instances
    /// created from here on quorum against — and count votes of — the live
    /// membership, while in-flight instances keep the view they
    /// snapshotted. A view below 3f+1 is refused by the engine and counted
    /// on `byz.unsafe_views` for the chaos oracle's QuorumUnsafe audit.
    fn bump_byz_view(&mut self) {
        let members = self.overlay.members().iter().map(|&m| m as u32);
        if (self.byz.as_mut()).is_some_and(|b| b.exchange.bump_view(members).is_err()) {
            self.count("byz.unsafe_views");
        }
    }

    /// This node's scripted misbehavior, if it is one of the run's traitors.
    fn behavior(&self) -> Option<TraitorBehavior> {
        self.byz.as_ref().and_then(|b| b.behavior)
    }

    /// `true` exactly once per traitor life: claims the one scripted attack.
    fn first_attack(&mut self) -> bool {
        self.byz
            .as_mut()
            .is_some_and(|b| !std::mem::replace(&mut b.attacked, true))
    }

    /// Mounts [`attack::equivocation_pair`]: one story to even-indexed
    /// live links (sorted by member id), the other to odd.
    fn mount_equivocation(&mut self) {
        let pair = attack::equivocation_pair(self.id as u32).map(|f| f.to_message());
        for (i, &peer) in self.links.iter().enumerate() {
            let msg = pair[i % 2].clone();
            self.seen.insert(msg.broadcast_id);
            self.out.push(Action::Send { to: peer, msg });
        }
    }

    /// Sends [`attack::forged_votes`], impersonating the lowest other
    /// member of our replica as origin, to every neighbor.
    fn mount_forgery(&mut self) {
        let victim = self.lowest_other_member().unwrap_or(self.id);
        let votes = attack::forged_votes(self.id as u32, victim as u32);
        self.flood(votes.to_message(self.id as u32), None);
    }

    fn lowest_other_member(&self) -> Option<MemberId> {
        let mut others = self.overlay.members().iter().copied();
        others.find(|&m| m != self.id)
    }

    /// Reacts to a direct `CRASH(self)` dead notice from `from`: the
    /// notifier is wrong about us, so answer with a direct `JOIN` and flood
    /// the announcement. A degraded node answers the same way: every
    /// replica admits a joiner at the same canonical position, so its own
    /// view need not be trusted for the answer to be right.
    fn on_excommunication_notice(&mut self, from: MemberId) {
        if self.behavior() == Some(TraitorBehavior::SuppressHeartbeat) {
            return; // scripted: it *wants* to stay excommunicated
        }
        let now = self.now;
        if self.rejoin_cooldown.is_some_and(|t| now < t) {
            return; // an earlier notice already started the repair
        }
        // Under a byzantine setup a single notice could be a traitor's
        // forgery; react only once f+1 distinct peers agree we were
        // excommunicated (a lone traitor cannot trigger rejoin flapping).
        if self.crash_quorum() > 1 {
            self.notice_senders.insert(from);
            if self.notice_senders.len() < self.crash_quorum() {
                return;
            }
            self.notice_senders.clear();
        }
        self.rejoin_cooldown = Some(now + self.timeout_us);
        self.settle = true; // the tick due now probes all, or clears the flag

        // The notifier floods the direct JOIN onward and re-admits us into
        // its replica.
        self.pending_join_announce = true;
        let id = wire::join_id(self.id, self.fresh_wave_nonce());
        self.seen.insert(id);
        self.send_to(from, self.control(id));
        self.try_announce_join();
    }

    /// Floods this node's own `JOIN` announcement once at least one link is
    /// up (flooding into the void would announce to nobody).
    fn try_announce_join(&mut self) {
        if !self.pending_join_announce || self.links.is_empty() {
            return;
        }
        self.pending_join_announce = false;
        let id = wire::join_id(self.id, self.fresh_wave_nonce());
        self.seen.insert(id);
        self.count("runtime.join_announces");
        self.rec(EventKind::JoinAnnounce {
            member: self.id as u32,
        });
        self.flood(self.control(id), None);
    }

    /// The next control-wave nonce: this life's cluster-unique ordinal in
    /// the high half, a per-life counter in the low half. No two waves any
    /// node ever floods share a nonce (until a single life emits 2^16
    /// waves, by which time the copies of wave 0 are long drained).
    fn fresh_wave_nonce(&mut self) -> u32 {
        let nonce = wire::wave_nonce(self.life, self.wave_seq);
        self.wave_seq = self.wave_seq.wrapping_add(1);
        nonce
    }

    /// Applies a (re)join of `member`: clear its crash state, admit it into
    /// the overlay at the canonical sorted position, and apply the churn.
    fn apply_join(&mut self, member: MemberId) {
        if self.crashed.remove(&member) {
            self.view_epoch += 1;
        }
        self.link_grace.remove(&member);
        self.notice_sent.remove(&member);
        // A rejoined member's pre-join crash reports are stale evidence.
        self.crash_reporters.remove(&member);
        self.backoffs.remove(&member);
        self.next_dial.remove(&member);
        self.last_seen.insert(member, self.now);
        if !self.overlay.contains(member) {
            if let Ok(report) = Arc::make_mut(&mut self.overlay).admit(member) {
                self.count("runtime.joins_applied");
                self.apply_churn(&report);
            }
        }
        self.maybe_exit_degraded();
        self.reconcile();
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

    /// Sends `msg` to `peer` if the link is up; returns whether it was.
    fn send_to(&mut self, peer: MemberId, msg: Message) -> bool {
        let up = self.links.contains(&peer);
        if up {
            self.out.push(Action::Send { to: peer, msg });
        }
        up
    }

    /// Best-effort flood of a control frame (crash/join wave, a relayed byz
    /// `SEND`) to every linked peer except `except`. Data frames never come
    /// this way — they go through [`Self::drive`].
    fn flood(&mut self, msg: Message, except: Option<MemberId>) {
        if !self.links.is_empty() {
            self.out.push(Action::Flood { msg, except });
        }
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
        let links = self.links.iter().copied();
        let result = step(
            &mut self.reliable,
            &mut self.seen,
            links,
            self.now,
            &mut sends,
        );
        self.push_sends(sends);
        result
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
        if self.behavior() == Some(TraitorBehavior::SuppressHeartbeat) {
            return; // any frame would refresh last_seen and spoil the act
        }
        self.drive_byz(|x, _, links, out, _| x.repair(links, out));
        if self.drive(|r, _, links, _, out| r.advertise(links, out)) {
            self.count("runtime.summaries_sent");
        }
        if self.crashed.is_empty() {
            self.reliable.retire(self.desired.iter().copied());
        }
    }

    /// The reliable plane retained one more id. Once
    /// [`ReliableConfig::advert_batch`] are new since the last summary
    /// round, the next round is due now: a lazy link then hears every id
    /// while the store still holds it for the pull, at any broadcast rate.
    ///
    /// [`ReliableConfig::advert_batch`]: lhg_net::reliable::ReliableConfig::advert_batch
    fn note_retained(&mut self) {
        self.unadvertised += 1;
        if self.unadvertised >= self.advert_batch {
            self.next_summary = self.now;
        }
    }

    /// The detector's send half. Any frame proves this node alive, so a
    /// heartbeat goes only to a link nothing was sent on for a full period.
    /// [`Self::next_deadline`] names the instant the first link gets there,
    /// so no live link is silent longer than a period plus the driver's
    /// wake-up latency. A link owed a held list ([`ReliableCore::answer`])
    /// gets that instead: it proves life as well, so answers add no frame.
    /// Allocates only the held lists' payloads.
    fn beat_idle_links(&mut self) {
        // Plays dead on the control plane: no heartbeats means correct
        // nodes legitimately excommunicate it — forced churn is the attack,
        // and the dynamic views must absorb it.
        if self.behavior() == Some(TraitorBehavior::SuppressHeartbeat) {
            return;
        }
        let (now, beat) = (self.now, self.beat_us);
        let heartbeat = self.control(wire::heartbeat_id(self.id));
        let mut sends = std::mem::take(&mut self.outbox);
        for &peer in &self.links {
            let Some(sent) = self.last_sent.get_mut(&peer) else {
                continue;
            };
            if now.saturating_sub(*sent) >= beat {
                *sent = now;
                if !self.reliable.answer(peer, &mut sends) {
                    sends.push((peer, heartbeat.clone()));
                }
            }
        }
        self.push_sends(sends);
    }

    /// FrameCrash traitor: once per heartbeat period, flood a freshly-nonced
    /// forged CRASH wave naming a live victim (the lowest other member).
    /// Every wave carries this traitor's origin, so corroboration counts
    /// the whole barrage as a single reporter — below the f+1 quorum, the
    /// still-heartbeating victim survives.
    fn mount_frame_crash(&mut self) {
        let Some(victim) = self.lowest_other_member() else {
            return;
        };
        self.count("runtime.forged_crash_waves");
        let id = wire::crash_id(victim, self.fresh_wave_nonce());
        self.seen.insert(id);
        self.flood(self.control(id), None);
    }

    /// Sends a direct `CRASH(peer)` *to* `peer`: "you are excommunicated
    /// here". Rate-limited so a chatty revenant gets one notice per
    /// half-timeout, not one per frame.
    fn maybe_send_dead_notice(&mut self, peer: MemberId) {
        let now = self.now;
        if self
            .notice_sent
            .get(&peer)
            .is_some_and(|&t| now - t < self.timeout_us / 2)
        {
            return;
        }
        self.notice_sent.insert(peer, now);
        self.count("runtime.dead_notices");
        // Dead notices are point-to-point and never deduplicated, but a
        // fresh nonce keeps them out of any wave's identity space.
        let id = wire::crash_id(peer, self.fresh_wave_nonce());
        self.send_to(peer, self.control(id));
    }

    /// Declares crashed any monitored neighbor silent past the timeout;
    /// refreshes the per-peer heartbeat-age gauges along the way.
    fn check_suspicions(&mut self) {
        let now = self.now;
        let mut suspects = Vec::new();
        for &peer in self.desired.difference(&self.crashed) {
            // A peer we have never heard from starts its grace period now;
            // this also covers crash-before-connect (dials keep failing).
            let age = now - *self.last_seen.entry(peer).or_insert(now);
            // `runtime.heartbeat_age_us.n<id>.p<peer>`: µs since this node
            // last heard from `peer`, fresh as of the latest tick.
            let (id, metrics) = (self.id, &self.metrics);
            self.hb_age_gauges
                .entry(peer)
                .or_insert_with(|| {
                    metrics.gauge(&format!("runtime.heartbeat_age_us.n{id}.p{peer}"))
                })
                .set(i64::try_from(age).unwrap_or(i64::MAX));
            if age > self.timeout_us {
                suspects.push(peer);
            }
        }
        for peer in suspects {
            self.suspect(peer);
        }
        self.lift_stale_vetoes();
    }

    /// `true` while `victim` is demonstrably alive here: its link is up and
    /// carried a frame within the suspicion timeout.
    fn directly_live(&self, victim: MemberId) -> bool {
        self.links.contains(&victim)
            && (self.last_seen.get(&victim)).is_some_and(|&t| self.now - t <= self.timeout_us)
    }

    /// A corroborated crash report vetoed because its victim was still
    /// heard on a direct link stands once that link has been silent a full
    /// timeout as well. Nobody re-sends a report (each wave floods once),
    /// and a victim outside the desired set — a link that lingers after a
    /// heal — is not watched by this node's own detector, so without this
    /// the veto would be for good. Each link beats only when idle, so the
    /// last frame on a lingering link can trail the reporters' by up to a
    /// heartbeat period.
    fn lift_stale_vetoes(&mut self) {
        let quorum = self.crash_quorum();
        if quorum <= 1 || self.crash_reporters.is_empty() {
            return;
        }
        let mut lifted: Vec<MemberId> = (self.crash_reporters.iter())
            .filter(|(v, reporters)| reporters.len() >= quorum && !self.crashed.contains(v))
            .map(|(&v, _)| v)
            .filter(|&v| !self.directly_live(v))
            .collect();
        lifted.sort_unstable(); // a hash map's order is no order
        for victim in lifted {
            self.crash_reporters.remove(&victim);
            self.announce_crash(victim);
            self.apply_crash(victim);
        }
    }

    /// The number of distinct crash reporters required before a flooded
    /// CRASH wave is applied: f+1 under a byzantine setup (so the f
    /// traitors alone can never excommunicate anyone), 1 otherwise (the
    /// crash-only fault model trusts every report).
    fn crash_quorum(&self) -> usize {
        self.byz.as_ref().map_or(1, |b| b.f + 1)
    }

    /// Byz-aware corroborated suspicion: records `reporter`'s vote that
    /// `victim` crashed and applies the crash only once
    /// [`Self::crash_quorum`] distinct reporters agree **and** the victim
    /// is not demonstrably alive on a direct link (link up, frames within
    /// the suspicion timeout). Either guard alone stops a lone traitor:
    /// forged waves all share the traitor's origin (one voice), and even a
    /// corroborated-looking wave is vetoed while the victim is still heard
    /// on a direct link — until that link, too, has been silent a full
    /// timeout ([`Self::lift_stale_vetoes`]).
    ///
    /// A node that applies a corroborated crash **vouches** for it with a
    /// wave of its own. Waves are flooded once, best-effort; with only the
    /// victim's k direct neighbors speaking (fewer when one is the traitor)
    /// a lossy link could leave a node one voice short for good, its stale
    /// replica then drawing false suspicions from the healed majority. The
    /// echo is sound — a correct node applies only on f+1 voices or its own
    /// timeout, so by induction a live victim never gathers f+1 — and turns
    /// "both of two waves must arrive" into "any two of up to n−1".
    fn note_crash_report(&mut self, victim: MemberId, reporter: MemberId) {
        let quorum = self.crash_quorum();
        if quorum <= 1 {
            self.apply_crash(victim);
            return;
        }
        if self.crashed.contains(&victim) {
            return;
        }
        let reporters = self.crash_reporters.entry(victim).or_default();
        reporters.insert(reporter);
        if reporters.len() < quorum {
            self.count("runtime.crash_reports_pending");
            return;
        }
        if self.directly_live(victim) {
            // Until that link falls silent too (`lift_stale_vetoes`).
            self.count("runtime.crash_vetoes");
            return;
        }
        self.crash_reporters.remove(&victim);
        self.announce_crash(victim);
        self.apply_crash(victim);
    }

    /// Floods a freshly-nonced `CRASH(victim)` wave under this node's origin.
    fn announce_crash(&mut self, victim: MemberId) {
        let id = wire::crash_id(victim, self.fresh_wave_nonce());
        self.seen.insert(id);
        self.flood(self.control(id), None);
    }

    /// Local suspicion: announce the crash to the cluster, then heal.
    /// Direct evidence (our own heartbeat timeout) applies immediately —
    /// corroboration guards *remote* reports, not first-hand observation.
    fn suspect(&mut self, victim: MemberId) {
        self.count("runtime.suspects");
        self.rec(EventKind::Suspicion {
            peer: victim as u32,
        });
        self.rec(EventKind::CrashReport {
            victim: victim as u32,
            via: self.id as u32,
        });
        self.announce_crash(victim);
        self.apply_crash(victim);
    }

    /// Enters or leaves degraded mode (`active` excommunications), keeping
    /// the counters, the timeline and the `runtime.degraded.n<id>` gauge in
    /// step; a no-op when already there.
    fn set_degraded(&mut self, degraded: bool, active: usize) {
        if std::mem::replace(&mut self.degraded, degraded) == degraded {
            return;
        }
        if degraded {
            self.count("runtime.degraded_entries");
            self.rec(EventKind::Degraded {
                active: active as u32,
            });
        } else {
            self.count("runtime.degraded_exits");
            self.rec(EventKind::DegradedExit);
        }
        self.metrics
            .gauge(&format!("runtime.degraded.n{}", self.id))
            .set(i64::from(degraded));
    }

    /// Removes `victim` from the overlay replica and applies the resulting
    /// churn: drop removed links, dial added ones. Idempotent per victim.
    ///
    /// When this crash pushes the suspect count to ≥ k, the node **stops
    /// healing** and degrades instead: below the k−1 budget LHG guarantees
    /// a consistent rebuild, above it a rebuild could partition the replica
    /// set (e.g. on the minority side of a network split). Degraded nodes
    /// keep probing every known member until joins bring the count back
    /// within budget ([`Self::maybe_exit_degraded`]).
    fn apply_crash(&mut self, victim: MemberId) {
        // Dead notices (victim == self) are handled before classification.
        if victim == self.id || !self.crashed.insert(victim) {
            return;
        }
        self.count("runtime.crashes_applied");
        if self.healing_since.is_none() {
            self.healing_since = Some(self.now);
            self.rec(EventKind::HealBegin {
                victim: victim as u32,
            });
        }
        self.view_epoch += 1;
        let active = self.crashed.len();
        let churn = if active >= self.k {
            self.set_degraded(true, active);
            None
        } else if self.overlay.contains(victim) {
            // A below-floor heal is refused atomically; we then keep the
            // stale topology minus the dead links. Defensive: the failure
            // model promises at most k-1 crashes, which never hits the
            // 2k membership floor from n ≥ 2k + (k-1) launches.
            Arc::make_mut(&mut self.overlay).crash_many(&[victim]).ok()
        } else {
            None
        };
        self.drop_link(victim);
        self.next_dial.remove(&victim);
        // Frames parked for an excommunicated peer are abandoned; if it
        // ever rejoins, anti-entropy summaries catch it up instead.
        self.reliable.abandon(victim);
        if let Some(report) = churn {
            self.apply_churn(&report);
        }
        self.reconcile();
    }

    /// Leaves degraded mode once joins have brought the suspect count back
    /// within the k−1 budget, then applies the heals deferred while the
    /// budget was blown.
    fn maybe_exit_degraded(&mut self) {
        if !self.degraded || self.crashed.len() >= self.k {
            return;
        }
        self.set_degraded(false, 0);
        let stale: Vec<MemberId> = self
            .crashed
            .iter()
            .copied()
            .filter(|&m| self.overlay.contains(m))
            .collect();
        if !stale.is_empty() {
            if let Ok(report) = Arc::make_mut(&mut self.overlay).crash_many(&stale) {
                self.apply_churn(&report);
            }
        }
        self.reconcile();
    }

    /// Applies one churn report: let removed links linger, dial added ones
    /// (on the dialer side), and re-size the Bracha view to the new
    /// membership.
    fn apply_churn(&mut self, report: &ChurnReport) {
        self.view_changed();
        // Make before break: a link the new topology has no use for lingers
        // for a moment before the reconcile pass takes it down. A wave is
        // flooded once, best-effort, and a link closed under it takes the
        // copy in flight along: with two victims at once, a node could apply
        // one crash, close the links the other's wave was crossing, and keep
        // a replica nobody else holds — its neighbors-to-be never dial it,
        // and it suspects them.
        for peer in report.removed_for(self.id) {
            let until = self.now + self.timeout_us / 2;
            self.link_grace.entry(peer).or_insert(until);
        }
        for peer in report.added_for(self.id).collect::<Vec<_>>() {
            if self.id < peer {
                self.dial(peer);
            }
        }
        self.bump_byz_view();
    }

    /// `true` while the node is repairing membership knowledge (degraded,
    /// or holding an unannounced join): its notion of "desired" cannot be
    /// trusted, so it probes **every** known member — any live peer is a
    /// way back in.
    fn probe_all(&self) -> bool {
        self.degraded || self.pending_join_announce
    }

    /// Converges links toward the overlay's desired neighbor set: tears
    /// down links the dialer side no longer wants, dials missing ones
    /// (with backoff), and closes the healing stopwatch when done.
    fn reconcile(&mut self) {
        let now = self.now;
        let probe_all = self.probe_all();
        // Expired entries go, so that each left is a deadline still ahead.
        self.link_grace.retain(|_, &mut deadline| now < deadline);
        self.next_dial.retain(|_, &mut due| now < due);

        // Teardown is dialer-driven so a link is never closed by a node
        // that merely hasn't healed yet; links to crashed members go down
        // too. Neither while the link is in grace: a revenant mid-rejoin,
        // or a caller from outside the overlay who is yet to be heard out.
        let unwanted: Vec<MemberId> = (self.links.iter().copied())
            .filter(|peer| {
                !probe_all
                    && !self.link_grace.contains_key(peer)
                    && (self.crashed.contains(peer)
                        || (self.id < *peer && !self.desired.contains(peer)))
            })
            .collect();
        for peer in unwanted {
            self.drop_link(peer);
            self.count("runtime.links_dropped");
        }

        let due = |peer: &MemberId| {
            !self.links.contains(peer)
                && !self.dialing.contains(peer)
                && !self.next_dial.contains_key(peer)
        };
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
            (self.desired.iter())
                .filter(|p| self.id < **p && !self.crashed.contains(p))
                .chain(&self.crashed)
                .copied()
                .filter(due)
                .collect()
        };
        for peer in dials {
            self.dial(peer);
        }
        self.check_healed();
    }

    /// Closes the healing stopwatch once every desired link is up.
    fn check_healed(&mut self) {
        let Some(t0) = self.healing_since else { return };
        if self.desired.is_subset(&self.links) {
            let took_us = self.now - t0;
            self.metrics
                .histogram("runtime.reconnect_time_us")
                .record(took_us);
            self.count("runtime.heals");
            self.rec(EventKind::HealEnd { took_us });
            self.healing_since = None;
        }
    }

    /// Asks the driver for a link to `peer`, unless one is up or underway.
    fn dial(&mut self, peer: MemberId) {
        if !self.links.contains(&peer) && self.dialing.insert(peer) {
            self.out.push(Action::Dial { peer });
        }
    }

    /// A link to `peer` is up (dialed or accepted), in place of any older
    /// one: the link's sequence spaces restart, and what the old link never
    /// delivered is re-sent over the new one. The hello's claim is checked
    /// first — this node's own id, an id outside the member space or one
    /// the roster does not know never becomes a link that floods and
    /// heartbeats.
    fn on_link_up(&mut self, peer: MemberId, dialed: bool) {
        self.dialing.remove(&peer);
        if peer == self.id || peer >= wire::MAX_MEMBERS || !self.roster.contains(&peer) {
            self.count("runtime.hello_rejected");
            self.out.push(Action::Close { peer });
            return;
        }
        let now = self.now;
        let excommunicated = self.crashed.contains(&peer);
        if dialed {
            self.next_dial.remove(&peer);
            self.count("runtime.dials");
        } else {
            self.count("runtime.accepts");
        }
        self.links.insert(peer);
        self.last_seen.insert(peer, now);
        self.last_sent.insert(peer, now);
        self.reliable.reset_link(peer);
        self.reset_byz_link(peer);
        // A connect alone does not forgive a dial-failure streak: the
        // escalated schedule stays until the link survives a full
        // probation window.
        if let Some(b) = self.backoffs.get_mut(&peer) {
            b.connected(now);
        }
        self.rec(EventKind::Connect { peer: peer as u32 });
        self.drive(|r, _, _, now, out| r.flush(peer, now, out));
        if !dialed && !excommunicated && !self.desired.contains(&peer) {
            // Nobody dials outside the overlay without a reason: a grave
            // probe that found this node alive and has a dead notice to
            // deliver, a degraded node probing every member for a way
            // back in. Hanging up at once — the dialer-side teardown, when
            // this side has the lower id — would leave the caller's stale
            // exclusion standing for good.
            self.link_grace.insert(peer, now + 2 * self.timeout_us);
        }
        if excommunicated {
            // Hold the link open long enough for the rejoin handshake. A
            // grave probe that found its target alive says so at once: even
            // if the peer's own reconcile pass tears the probe link down, a
            // healthy peer answers with a flooded `JOIN` wave that reaches
            // us through the mesh. (Degraded nodes already probe everyone.)
            self.link_grace.insert(peer, now + self.timeout_us);
            if dialed && !self.probe_all() {
                self.count("runtime.grave_probes_hit");
                self.maybe_send_dead_notice(peer);
            }
        }
        self.check_healed();
    }

    /// Schedules the next dial attempt to `peer` on the jittered exponential
    /// backoff. After `dial_max_attempts` consecutive failures the peer goes
    /// on low-frequency probation instead — never permanent abandonment,
    /// because a healed partition must eventually reconnect.
    fn dial_failed(&mut self, peer: MemberId) {
        self.dialing.remove(&peer);
        self.count("runtime.dial_failures");
        let policy = self.retry;
        let backoff = self
            .backoffs
            .entry(peer)
            .or_insert_with(|| Backoff::new(policy));
        let delay = backoff.next_delay(&mut self.rng).unwrap_or_else(|| {
            backoff.reset();
            self.metrics.counter("runtime.dial_probations").inc();
            policy.cap_us * 8
        });
        self.next_dial.insert(peer, self.now + delay);
    }

    /// Closes and forgets the link to `peer` (if any), parking the reliable
    /// plane's undelivered frames for the replacement link.
    fn drop_link(&mut self, peer: MemberId) {
        if self.links.remove(&peer) {
            self.out.push(Action::Close { peer });
            self.rec(EventKind::Disconnect { peer: peer as u32 });
        }
        self.last_seen.remove(&peer);
        self.last_sent.remove(&peer);
        self.reliable.reset_link(peer);
        self.reset_byz_link(peer);
        if let Some(b) = self.backoffs.get_mut(&peer) {
            b.disconnected();
        }
    }

    /// A link went down or came up: whoever is at its other end next is
    /// offered every Bracha instance again.
    fn reset_byz_link(&mut self, peer: MemberId) {
        if let Some(b) = self.byz.as_mut() {
            b.exchange.reset_link(peer);
        }
    }
}
