//! One overlay node: real sockets, real threads.
//!
//! A node owns a loopback [`TcpListener`] and runs three kinds of threads:
//!
//! * an **acceptor** polling the listener; each accepted connection performs
//!   a hello handshake, then gets a dedicated **reader** thread that decodes
//!   length-prefixed frames ([`lhg_net::codec::read_frame`]) into the node's
//!   event channel;
//! * a **main loop** owning all connection write halves and every piece of
//!   protocol state: flooding with dedup, heartbeat emission, failure
//!   suspicion, and self-healing via
//!   [`DynamicOverlay::crash_many`](lhg_core::overlay::DynamicOverlay::crash_many).
//!
//! Link ownership is asymmetric to avoid duplicate connections: the member
//! with the **smaller id dials**, the larger one accepts. Both sides monitor
//! the link with heartbeats once it is up.
//!
//! # Reliable delivery
//!
//! Data frames ride [`ReliableCore`], the sans-IO data plane the simulator
//! drives too: each directed link stamps them with per-link sequence
//! numbers, the receiving side acks cumulatively and NACKs holes, and
//! retransmit sweeps run on the main-loop tick. This loop only feeds the
//! core its events — frames, ticks, link replacements — with a monotonic
//! `now_us` and the live links as peer list, and writes what it emits
//! through its `send_to` (fault injector, `runtime.*` counters,
//! flight recorder). Sequence spaces are **per connection**: every new
//! socket (dial or accept) resets both halves, and frames a torn-down link
//! never delivered are re-sent over the replacement. On the heartbeat
//! cadence each node additionally floods anti-entropy *summaries* of its
//! recently-delivered broadcast ids; a peer that spots a gap pulls the
//! missing broadcasts, so even a frame lost on every copy (or a node that
//! was down when it flooded past) is repaired through any surviving path.
//! Control frames (hello/heartbeat/crash/join/sync and the ack/summary
//! frames themselves) stay best-effort: they are periodic, idempotent, or
//! answered, so their loss only costs latency.
//!
//! # Fault model and recovery
//!
//! The runtime promises convergence under **at most k−1 fail-stop crashes**
//! (LHG property P1). Three mechanisms extend behaviour beyond that budget:
//!
//! * **Fault injection** — when [`crate::RuntimeConfig::faults`] carries a
//!   [`lhg_net::fault::FaultInjector`], every frame write, frame read, and
//!   dial consults it,
//!   so chaos runs can drop/duplicate frames and cut partitions without
//!   touching kernel state. Extra-delay rates are ignored here (TCP has no
//!   timer wheel); the simulator honours them.
//! * **Degraded mode** — once a node has excommunicated ≥ k suspects it
//!   stops healing (a rebuild below the membership floor, or on a minority
//!   partition side, would diverge) and instead probes every known member
//!   until membership knowledge is repaired. The state is observable via
//!   [`NodeShared::is_degraded`], the `runtime.degraded.n<id>` gauge and
//!   [`EventKind::Degraded`] events.
//! * **Rejoin** — a node that learns it was excommunicated (a peer answers
//!   its traffic with a direct `CRASH(self)` *dead notice*) either floods a
//!   `JOIN` announcement (its replica is healthy — the peer was simply
//!   wrong) or requests a membership `SYNC` snapshot, rebuilds its replica
//!   with [`DynamicOverlay::from_parts`] +
//!   [`admit`](lhg_core::overlay::DynamicOverlay::admit), and then floods
//!   the `JOIN`. Survivors admit joiners at a canonical sorted position, so
//!   replicas converge regardless of announcement order.

use std::collections::{BTreeSet, HashMap};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use lhg_byzantine::engine::Action as ByzAction;
use lhg_byzantine::{
    attack, BrachaConfig, BrachaEngine, GossipFrame, InstanceSummary, TraitorBehavior,
};
use lhg_core::overlay::{ChurnReport, DynamicOverlay, MemberId};
use lhg_net::backoff::{Backoff, BackoffPolicy};
use lhg_net::codec::{read_frame, write_frame};
use lhg_net::message::Message;
use lhg_net::metrics::{Gauge, MetricsRegistry};
use lhg_net::reliable::{DataOutcome, ReliableCore, Sends, SummaryOutcome};
use lhg_net::seen::SeenSet;
use lhg_trace::{EventKind, FlightRecorder, PathRecord, TraceCollector};

use crate::wire::{self, FrameKind};
use crate::RuntimeConfig;

/// Shared loopback address book: member id → listener address. Stands in
/// for out-of-band discovery (DNS, a tracker, a membership service).
pub type Directory = Arc<RwLock<HashMap<MemberId, SocketAddr>>>;

/// Broadcast start instants, shared cluster-wide so deliveries can record
/// end-to-end latency into the metrics registry.
pub(crate) type BroadcastClock = Arc<RwLock<HashMap<u64, Instant>>>;

/// Events feeding a node's main loop.
pub(crate) enum Event {
    /// A decoded frame arrived from connected peer `from` over connection
    /// generation `conn`. Frames from superseded connections are discarded
    /// by the main loop — their link sequence numbers belong to a dead
    /// sequence space and must not pollute the current one.
    Frame {
        from: MemberId,
        conn: u64,
        msg: Message,
    },
    /// The acceptor finished a handshake; `writer` is the write half and
    /// `conn` the connection's node-local generation id.
    Accepted {
        peer: MemberId,
        conn: u64,
        writer: TcpStream,
    },
    /// Connection `conn` to `peer` died (EOF or I/O error on the read
    /// side). The generation id lets the main loop ignore EOFs from
    /// superseded connections: during a rejoin both sides may briefly hold
    /// two sockets to the same peer, and the stale one's death must not
    /// tear down its healthy replacement.
    PeerClosed { peer: MemberId, conn: u64 },
    /// Originate a broadcast from this node.
    Broadcast { msg: Message },
    /// Originate a Byzantine (Bracha) broadcast from this node. Requires
    /// [`crate::RuntimeConfig::byzantine`] to be configured.
    ByzBroadcast { nonce: u64, payload: Bytes },
    /// Fail-stop: abandon everything immediately, no goodbyes.
    Kill,
}

/// How a node enters the cluster: fresh boot or rejoin after a kill.
#[derive(Debug, Clone, Default)]
pub(crate) struct BootOpts {
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

/// Node state observable by the [`crate::Cluster`] orchestrator. All fields
/// are written by the node's own threads and only read (cheap snapshots)
/// from outside.
pub struct NodeShared {
    /// This node's stable member id.
    pub id: MemberId,
    alive: AtomicBool,
    degraded: AtomicBool,
    /// Set for the whole rejoin handshake of a rejoin boot: from spawn
    /// until the `JOIN` announcement has flooded and no membership `SYNC`
    /// request is outstanding. [`crate::Cluster::rejoin`] refuses to stack
    /// a second rejoin on top of one still in flight.
    join_pending: AtomicBool,
    delivered: Mutex<Vec<Message>>,
    byz_delivered: Mutex<Vec<Message>>,
    overlay: Mutex<DynamicOverlay>,
    links_up: Mutex<BTreeSet<MemberId>>,
    crashes_applied: Mutex<BTreeSet<MemberId>>,
}

impl NodeShared {
    /// `false` once the node was killed (or shut down) — fail-stop.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// `true` while the node has excommunicated ≥ k suspects and has
    /// therefore suspended healing (graceful degradation instead of an
    /// inconsistent rebuild).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// `true` while a rejoin boot's handshake (JOIN announcement and any
    /// membership `SYNC`) is still in flight.
    #[must_use]
    pub fn is_rejoining(&self) -> bool {
        self.join_pending.load(Ordering::SeqCst)
    }

    /// Broadcast ids of application messages delivered so far, in delivery
    /// order.
    #[must_use]
    pub fn delivered_ids(&self) -> Vec<u64> {
        self.delivered
            .lock()
            .iter()
            .map(|m| m.broadcast_id)
            .collect()
    }

    /// Application messages delivered so far.
    #[must_use]
    pub fn delivered_messages(&self) -> Vec<Message> {
        self.delivered.lock().clone()
    }

    /// Byzantine broadcast deliveries so far, in delivery order. Each
    /// message's `broadcast_id` is the instance nonce, `origin` the
    /// instance origin, `trace` the certified payload digest, and the byz
    /// tag rides along — the shape the chaos oracle audits.
    #[must_use]
    pub fn byz_delivered(&self) -> Vec<Message> {
        self.byz_delivered.lock().clone()
    }

    /// Instance nonces of Byzantine deliveries so far, in delivery order.
    #[must_use]
    pub fn byz_delivered_nonces(&self) -> Vec<u64> {
        self.byz_delivered
            .lock()
            .iter()
            .map(|m| m.broadcast_id)
            .collect()
    }

    /// A snapshot of this node's overlay replica.
    #[must_use]
    pub fn overlay_snapshot(&self) -> DynamicOverlay {
        self.overlay.lock().clone()
    }

    /// Peers with an established TCP connection right now.
    #[must_use]
    pub fn links_up(&self) -> BTreeSet<MemberId> {
        self.links_up.lock().clone()
    }

    /// Members this node has declared crashed and healed around.
    #[must_use]
    pub fn crashes_applied(&self) -> BTreeSet<MemberId> {
        self.crashes_applied.lock().clone()
    }

    /// Overlay neighbors this node currently wants links to.
    #[must_use]
    pub fn desired_neighbors(&self) -> BTreeSet<MemberId> {
        self.overlay
            .lock()
            .neighbors_of(self.id)
            .unwrap_or_default()
            .into_iter()
            .collect()
    }
}

/// A spawned node: its observable state plus the orchestrator's handles.
pub(crate) struct NodeHandle {
    pub shared: Arc<NodeShared>,
    pub tx: Sender<Event>,
    pub main: Option<JoinHandle<()>>,
    #[allow(dead_code)]
    pub addr: SocketAddr,
}

/// Boots a node: binds threads around `listener` and returns immediately.
/// The node dials its overlay neighbors from its first loop iteration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_node(
    id: MemberId,
    overlay: DynamicOverlay,
    listener: TcpListener,
    directory: Directory,
    config: RuntimeConfig,
    metrics: Arc<MetricsRegistry>,
    clock: BroadcastClock,
    recorder: Arc<FlightRecorder>,
    tracer: Arc<TraceCollector>,
    opts: BootOpts,
) -> std::io::Result<NodeHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (tx, rx) = unbounded();

    let k = overlay.k();
    // Quorums are sized from an epoch-stamped membership view: each Bracha
    // instance snapshots the view live at its creation, and crash/join
    // churn bumps the view (f stays a protocol constant derived from k).
    // A boot membership below 3f+1 is a configuration error, surfaced
    // here instead of aborting the process.
    let byz = match config.byzantine.as_ref() {
        Some(setup) => {
            let n = overlay.members().len();
            let cfg = BrachaConfig::new(n, setup.f).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?;
            Some(ByzState {
                engine: BrachaEngine::new(id as u32, cfg),
                behavior: setup
                    .traitors
                    .iter()
                    .find(|(m, _)| *m == id)
                    .map(|(_, b)| *b),
                attacked: false,
            })
        }
        None => None,
    };
    let shared = Arc::new(NodeShared {
        id,
        alive: AtomicBool::new(true),
        degraded: AtomicBool::new(false),
        join_pending: AtomicBool::new(opts.announce_join),
        delivered: Mutex::new(Vec::new()),
        byz_delivered: Mutex::new(Vec::new()),
        overlay: Mutex::new(overlay),
        links_up: Mutex::new(BTreeSet::new()),
        crashes_applied: Mutex::new(opts.initial_crashes.clone()),
    });

    // Node-local connection generation counter, shared by the acceptor and
    // the main loop's dialer so every socket gets a unique id.
    let conns = Arc::new(AtomicU64::new(0));

    // Acceptor: poll-accept so the thread can observe the kill flag.
    {
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let conns = Arc::clone(&conns);
        let poll = config.tick.min(Duration::from_millis(2));
        std::thread::spawn(move || loop {
            if !shared.is_alive() {
                return; // listener drops, port closes
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    spawn_handshake_reader(stream, tx.clone(), Arc::clone(&conns));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(poll);
                }
                Err(_) => return,
            }
        });
    }

    // Main loop.
    let main = {
        // Each node jitters independently, but the whole cluster is still
        // driven by the one configured seed (reproducible chaos runs).
        let rng = StdRng::seed_from_u64(config.rng_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let core = ReliableCore::new(
            config.reliable,
            id as u32,
            wire::ack_id(id),
            wire::summary_id(id),
        );
        let runtime = NodeRuntime {
            id,
            k,
            shared: Arc::clone(&shared),
            config,
            directory,
            metrics,
            clock,
            recorder,
            tracer,
            tx: tx.clone(),
            writers: HashMap::new(),
            conn_ids: HashMap::new(),
            conns,
            seen: SeenSet::default(),
            byz,
            life: opts.life,
            wave_seq: 0,
            last_seen: HashMap::new(),
            next_dial: HashMap::new(),
            backoffs: HashMap::new(),
            rng,
            fault_seqs: HashMap::new(),
            revenant_grace: HashMap::new(),
            revenant_since: HashMap::new(),
            notice_sent: HashMap::new(),
            awaiting_sync: None,
            catchup: None,
            catchup_replies: BTreeSet::new(),
            rejoin_cooldown: None,
            pending_join_announce: opts.announce_join,
            healing_since: None,
            crash_reporters: HashMap::new(),
            notice_senders: BTreeSet::new(),
            hb_age_gauges: HashMap::new(),
            core,
            outbox: Vec::new(),
        };
        std::thread::spawn(move || runtime.run(&rx))
    };

    Ok(NodeHandle {
        shared,
        tx,
        main: Some(main),
        addr,
    })
}

/// Reads the hello frame off a freshly accepted connection, registers the
/// write half with the main loop, then settles into the plain reader loop.
fn spawn_handshake_reader(mut stream: TcpStream, tx: Sender<Event>, conns: Arc<AtomicU64>) {
    std::thread::spawn(move || {
        let peer = match read_frame(&mut stream) {
            Ok(Some(msg)) => match wire::classify(msg.broadcast_id) {
                FrameKind::Hello(peer) => peer,
                _ => return, // protocol violation: first frame must be hello
            },
            _ => return,
        };
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let conn = conns.fetch_add(1, Ordering::Relaxed);
        if tx.send(Event::Accepted { peer, conn, writer }).is_err() {
            return;
        }
        reader_loop(peer, conn, &mut stream, &tx);
    });
}

/// Decodes frames until EOF/error, forwarding each into the main loop.
fn reader_loop(peer: MemberId, conn: u64, stream: &mut TcpStream, tx: &Sender<Event>) {
    loop {
        match read_frame(stream) {
            Ok(Some(msg)) => {
                if tx
                    .send(Event::Frame {
                        from: peer,
                        conn,
                        msg,
                    })
                    .is_err()
                {
                    return; // node is gone
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::PeerClosed { peer, conn });
                return;
            }
        }
    }
}

/// The main loop's owned state. Everything here is single-threaded; shared
/// observability goes through [`NodeShared`].
struct NodeRuntime {
    id: MemberId,
    /// The overlay's connectivity parameter, cached at boot: ≥ k applied
    /// crashes means the failure budget is blown and healing must stop.
    k: usize,
    shared: Arc<NodeShared>,
    config: RuntimeConfig,
    directory: Directory,
    metrics: Arc<MetricsRegistry>,
    clock: BroadcastClock,
    /// This node's flight recorder (shared epoch with the whole cluster).
    recorder: Arc<FlightRecorder>,
    /// Cluster-wide sink for per-delivery path records.
    tracer: Arc<TraceCollector>,
    /// Cloned into reader threads spawned for dialed connections.
    tx: Sender<Event>,
    /// Write halves of every live connection, keyed by peer id.
    writers: HashMap<MemberId, TcpStream>,
    /// Generation id of the connection currently backing each writer. A
    /// `PeerClosed` whose id does not match is a stale socket's EOF and
    /// must not tear the current link down.
    conn_ids: HashMap<MemberId, u64>,
    /// Source of connection generation ids (shared with the acceptor).
    conns: Arc<AtomicU64>,
    /// Flooding dedup: broadcast ids already processed. Entries survive
    /// until the set's capacity cap evicts the oldest — every control wave
    /// floods under a fresh nonce, so a stale copy of an old wave is
    /// absorbed here instead of being re-applied (re-arming dedup per
    /// membership flip is how crash/join waves used to chase each other
    /// into a churn livelock). The cap only matters on runs long enough to
    /// see millions of distinct ids; see [`lhg_net::seen::SeenSet`].
    seen: SeenSet,
    /// Bracha engine + this node's (mis)behavior when the cluster runs
    /// with [`crate::RuntimeConfig::byzantine`]. `None` relays byz gossip
    /// like any flood but never votes or delivers.
    byz: Option<ByzState>,
    /// This node-life's ordinal, unique across the cluster ([`BootOpts`]).
    life: u32,
    /// Per-life wave counter; with `life` it forms each wave's nonce.
    wave_seq: u16,
    /// Last time each monitored peer produced any frame.
    last_seen: HashMap<MemberId, Instant>,
    /// Dial backoff: no redial before the recorded instant.
    next_dial: HashMap<MemberId, Instant>,
    /// Per-peer jittered exponential retry state behind `next_dial`.
    backoffs: HashMap<MemberId, Backoff>,
    /// Private RNG driving dial jitter (seeded from the config seed).
    rng: StdRng,
    /// Per-peer outbound frame counters keying fault-injection decisions.
    fault_seqs: HashMap<MemberId, u64>,
    /// Excommunicated peers heard from recently: keep their link open until
    /// the recorded deadline so the rejoin handshake can complete.
    revenant_grace: HashMap<MemberId, Instant>,
    /// When each excommunicated peer's current unbroken run of frames
    /// began; drives degraded-mode re-admission by observation
    /// ([`Self::readmit_by_observation`]).
    revenant_since: HashMap<MemberId, Instant>,
    /// Last time a dead notice was sent to each revenant (rate limiting).
    notice_sent: HashMap<MemberId, Instant>,
    /// Set while a membership `SYNC` request is outstanding; the reply
    /// clears it, and each missed per-attempt deadline re-sends the
    /// request on a jittered exponential backoff until the schedule is
    /// exhausted (so a lossy link degrades the rejoin into retries, never
    /// a wedge).
    awaiting_sync: Option<RetrySchedule>,
    /// Set while a rejoin boot is soliciting Bracha instance summaries
    /// from its neighbors (byz catch-up); retried like `awaiting_sync`
    /// until a delivery quorum of distinct peers has answered.
    catchup: Option<RetrySchedule>,
    /// Distinct peers whose snapshots carried summaries we ingested; once
    /// a delivery quorum has answered, the catch-up solicitation stops.
    catchup_replies: BTreeSet<MemberId>,
    /// After announcing or requesting a rejoin, ignore further dead notices
    /// until this instant (they are echoes of the state being repaired).
    rejoin_cooldown: Option<Instant>,
    /// Flood a `JOIN` announcement as soon as at least one link is up.
    pending_join_announce: bool,
    /// Set when a crash is first applied; cleared (and timed) once every
    /// desired link is re-established.
    healing_since: Option<Instant>,
    /// Corroborated suspicion (byzantine runs): distinct wave origins that
    /// have reported each victim crashed. A wave is only *applied* once
    /// f+1 distinct reporters vouch for it — a lone traitor's forged CRASH
    /// wave cannot excommunicate a live node ([`Self::note_crash_report`]).
    crash_reporters: HashMap<MemberId, BTreeSet<MemberId>>,
    /// Distinct peers that sent us a dead notice (byzantine runs): the
    /// rejoin machinery only reacts once f+1 peers agree we were
    /// excommunicated, so a traitor cannot trigger rejoin flapping.
    notice_senders: BTreeSet<MemberId>,
    /// Cached per-peer heartbeat-age gauges (µs since last frame), updated
    /// every suspicion sweep so snapshots read a fresh value.
    hb_age_gauges: HashMap<MemberId, Arc<Gauge>>,
    /// The reliable-flood data plane: per-link sequence/ack state, the
    /// pull store and frames parked for replaced links. Sans-IO — every
    /// frame it emits goes out through [`Self::send_all`].
    core: ReliableCore<MemberId>,
    /// Reused sink for the core's sends.
    outbox: Sends<MemberId>,
}

/// One bounded retry schedule for a rejoin-path request (membership
/// `SYNC`, byz catch-up solicitation): a jittered exponential backoff
/// between attempts plus the next per-attempt deadline. Exhaustion clears
/// the state instead of wedging — a later dead notice restarts the
/// handshake from scratch.
struct RetrySchedule {
    backoff: Backoff,
    due: Instant,
    /// The peer the request went to (`None` floods to every live link).
    peer: Option<MemberId>,
}

/// Per-node Byzantine state: the Bracha engine plus this node's scripted
/// misbehavior, if it is one of the run's traitors.
struct ByzState {
    engine: BrachaEngine,
    /// `Some` makes this node a traitor — it never votes honestly.
    behavior: Option<TraitorBehavior>,
    /// Equivocate/forge traitors mount their attack exactly once, on the
    /// first byz frame they observe (so there is a broadcast to disrupt).
    attacked: bool,
}

impl NodeRuntime {
    fn run(mut self, rx: &Receiver<Event>) {
        self.reconcile();
        let mut next_beat = Instant::now() + self.config.heartbeat_period;
        // Anti-entropy cadence: `summary_every` heartbeat periods per
        // summary flood (the reliable config reinterprets its tick-based
        // knob for the runtime's heartbeat-driven clock).
        let summary_period = self
            .config
            .heartbeat_period
            .saturating_mul(u32::try_from(self.config.reliable.summary_ticks()).unwrap_or(5));
        let mut next_summary = Instant::now() + summary_period;
        let mut next_sweep = Instant::now() + self.config.tick;
        while self.shared.is_alive() {
            match rx.recv_timeout(self.config.tick) {
                Ok(ev) => self.handle(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if !self.shared.is_alive() {
                break;
            }
            let now = Instant::now();
            if now >= next_beat {
                self.send_heartbeats();
                next_beat = now + self.config.heartbeat_period;
            }
            if now >= next_summary {
                self.send_summaries();
                next_summary = now + summary_period;
            }
            if now >= next_sweep {
                self.tick_core();
                next_sweep = now + self.config.tick;
            }
            if self.awaiting_sync.as_ref().is_some_and(|r| now >= r.due) {
                self.retry_sync(now);
            }
            if self.catchup.as_ref().is_some_and(|r| now >= r.due) {
                self.retry_catchup(now);
            }
            self.check_suspicions(now);
            self.settle_backoffs(now);
            self.reconcile();
            self.try_announce_join();
            self.maybe_settle_join();
        }
        // Fail-stop: slam every socket shut so peers see EOF, not silence.
        self.shared.alive.store(false, Ordering::SeqCst);
        for (_, s) in self.writers.drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Frame { from, conn, msg } => {
                // A superseded connection's leftovers carry sequence
                // numbers from a dead link-sequence space; processing them
                // would poison the replacement link's receiver state.
                if self.conn_ids.get(&from) == Some(&conn) {
                    self.on_frame(from, &msg);
                } else {
                    self.metrics.counter("runtime.stale_conn_frames").inc();
                }
            }
            Event::Accepted { peer, conn, writer } => {
                if self.shared.crashes_applied.lock().contains(&peer) {
                    // An excommunicated peer dialed back in: hold the link
                    // open long enough for the rejoin handshake.
                    self.revenant_grace
                        .insert(peer, Instant::now() + self.config.heartbeat_timeout);
                }
                self.metrics.counter("runtime.accepts").inc();
                self.link_up(peer, conn, writer);
            }
            Event::PeerClosed { peer, conn } => {
                // Only the current connection's death is a link failure;
                // EOFs from superseded sockets are expected churn.
                if self.conn_ids.get(&peer) == Some(&conn) {
                    self.drop_link(peer);
                }
            }
            Event::Broadcast { msg } => {
                self.seen.insert(msg.broadcast_id);
                self.deliver(&msg, None);
                // Send the hop-incremented copy so a receiver's `hops` field
                // counts the edges the copy travelled.
                let (wire, peers) = (msg.forwarded(), self.peers());
                self.drive(|core, _, now_us, out| core.originate(&wire, now_us, peers, out));
            }
            Event::ByzBroadcast { nonce, payload } => {
                let actions = match self.byz.as_mut() {
                    // Traitors never originate honestly; their scripted
                    // attacks fire from the frame path instead.
                    Some(b) if b.behavior.is_none() => {
                        match b.engine.broadcast(nonce, payload) {
                            Ok(actions) => actions,
                            Err(_) => {
                                // The live view is below 3f+1: refuse the
                                // origination instead of certifying under
                                // unsound quorums. The chaos oracle reads
                                // this counter as QuorumUnsafe.
                                self.metrics.counter("byz.unsafe_views").inc();
                                Vec::new()
                            }
                        }
                    }
                    _ => Vec::new(),
                };
                self.apply_byz_actions(actions);
            }
            Event::Kill => {
                self.shared.alive.store(false, Ordering::SeqCst);
            }
        }
    }

    fn on_frame(&mut self, from: MemberId, msg: &Message) {
        if let Some(f) = self.config.faults.clone() {
            // Read-side partition check: frames already in flight when a
            // cut activates must not leak through it.
            if f.blocked(from as u32, self.id as u32, f.elapsed_us()) {
                self.metrics.counter("runtime.chaos_frames_blocked").inc();
                return;
            }
        }
        let now = Instant::now();
        let mut excommunicated = self.shared.crashes_applied.lock().contains(&from);
        if excommunicated {
            self.revenant_grace
                .insert(from, now + self.config.heartbeat_timeout);
            if self.readmit_by_observation(from, now) {
                excommunicated = false;
            } else {
                self.maybe_send_dead_notice(from);
            }
        }
        self.last_seen.insert(from, now);
        self.recorder.record(EventKind::FrameRx {
            peer: from as u32,
            bytes: (msg.encoded_len() + lhg_net::codec::LEN_PREFIX) as u32,
        });
        match wire::classify(msg.broadcast_id) {
            FrameKind::Heartbeat(_) => {
                // Liveness recorded above; keep the probe in the timeline.
                self.recorder
                    .record(EventKind::Heartbeat { peer: from as u32 });
                if !excommunicated && !self.shared.overlay.lock().contains(from) {
                    // A live peer our replica does not know: its JOIN flood
                    // must have been missed. Heartbeats are ground truth.
                    self.apply_join(from);
                }
            }
            FrameKind::Hello(_) => {} // handshakes never reach the loop
            FrameKind::Crash(victim) => {
                if victim == self.id {
                    // A dead notice: the sender excommunicated *us*. Never
                    // flooded, never applied — it starts the rejoin path.
                    self.on_excommunication_notice(from);
                } else if excommunicated {
                    // Crash gossip from a node we excommunicated could be
                    // poison (its replica is stale); drop it until the
                    // sender has rejoined.
                } else if self.seen.insert(msg.broadcast_id) {
                    self.recorder.record(EventKind::CrashReport {
                        victim: victim as u32,
                        via: from as u32,
                    });
                    self.flood(&msg.forwarded(), Some(from));
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
                    self.recorder.record(EventKind::JoinAnnounce {
                        member: member as u32,
                    });
                    self.flood(&msg.forwarded(), Some(from));
                    self.apply_join(member);
                }
            }
            FrameKind::Sync(_) => {
                if msg.payload.is_empty() {
                    self.serve_sync(from);
                } else if self.awaiting_sync.is_some() {
                    self.install_sync(from, &msg.payload);
                } else {
                    // A snapshot we did not request as a membership repair
                    // (byz catch-up solicitation, or a late duplicate)
                    // still carries the server's instance summaries.
                    self.ingest_sync_summaries(from, &msg.payload);
                }
            }
            FrameKind::Ack(_) => {
                let payload = msg.payload.clone();
                self.drive(|core, _, now_us, out| core.on_ack(from, payload, now_us, out));
            }
            FrameKind::Summary(_) => {
                let payload = msg.payload.clone();
                match self.drive(|core, seen, now_us, out| {
                    core.on_summary(from, payload, seen, now_us, out)
                }) {
                    SummaryOutcome::Pulled => self.metrics.counter("runtime.pulls_sent").inc(),
                    SummaryOutcome::Served(n) => {
                        self.metrics.counter("runtime.pulls_served").add(n);
                    }
                    SummaryOutcome::Ignored => {}
                }
            }
            FrameKind::Data => {
                let (peers, now_us) = (self.writers.keys().copied(), self.recorder.now_us());
                let mut out = std::mem::take(&mut self.outbox);
                match self
                    .core
                    .on_data(from, msg, &mut self.seen, now_us, peers, &mut out)
                {
                    // The ack the copy re-earns goes out on the next sweep.
                    DataOutcome::LinkDuplicate => self.metrics.counter("runtime.link_dups").inc(),
                    DataOutcome::Duplicate => {}
                    // Deliver before the forwards the core emitted are written.
                    DataOutcome::Fresh => {
                        self.deliver(msg, Some(from));
                        if let Some(trace_id) = msg.trace {
                            self.recorder.record(EventKind::BroadcastForward {
                                trace_id,
                                hops: msg.hops.saturating_add(1),
                            });
                        }
                    }
                }
                self.send_all(out);
            }
            FrameKind::Byz => {
                if self.seen.insert(msg.broadcast_id) {
                    self.on_byz_frame(from, msg);
                }
            }
        }
    }

    /// A deduplicated Bracha gossip frame (SEND/ECHO/READY). Relay happens
    /// here rather than in the classify arm so a silent traitor can swallow
    /// the frame entirely; a cluster without a byzantine setup still
    /// relays (interop) but never votes or delivers.
    fn on_byz_frame(&mut self, from: MemberId, msg: &Message) {
        let behavior = self.behavior();
        if behavior == Some(TraitorBehavior::Silent) {
            return;
        }
        self.flood(&msg.forwarded(), Some(from));
        match behavior {
            None => {
                let actions = match (GossipFrame::from_message(msg), self.byz.as_mut()) {
                    (Some(frame), Some(b)) => b.engine.on_gossip(&frame),
                    _ => Vec::new(), // malformed frame, or byz off: relay-only
                };
                self.apply_byz_actions(actions);
            }
            // Re-flood the identical frame: correct peers' dedup absorbs
            // the duplicate, so the copy costs bandwidth but no votes.
            Some(TraitorBehavior::Replay) => self.flood(&msg.forwarded(), Some(from)),
            // Mounted once, on the first byz frame observed (so there is a
            // broadcast to disrupt).
            Some(TraitorBehavior::Equivocate) if self.first_attack() => self.mount_equivocation(),
            Some(TraitorBehavior::Forge) if self.first_attack() => self.mount_forgery(),
            Some(TraitorBehavior::Equivocate | TraitorBehavior::Forge) => {}
            // Failure-detector attacks relay honestly but cast no votes;
            // their teeth are in the heartbeat path (`send_heartbeats`).
            Some(TraitorBehavior::FrameCrash | TraitorBehavior::SuppressHeartbeat) => {}
            Some(TraitorBehavior::Silent) => unreachable!("handled above"),
        }
    }

    /// Apply a batch of engine outputs: gossip frames flood to every live
    /// link (marking our own dedup so the echo never re-enters), and
    /// deliveries land in [`NodeShared::byz_delivered`] shaped for the
    /// chaos oracle: `broadcast_id` = nonce, `origin`/`trace`/byz tag set.
    fn apply_byz_actions(&mut self, actions: Vec<ByzAction>) {
        for action in actions {
            match action {
                ByzAction::Gossip(frame) => {
                    let m = frame.to_message();
                    self.seen.insert(m.broadcast_id);
                    self.flood(&m, None);
                }
                ByzAction::Deliver(d) => {
                    self.metrics.counter("runtime.byz_delivered").inc();
                    let m = Message::new(d.tag.nonce, d.tag.origin, d.payload)
                        .with_trace(d.digest)
                        .with_byz(d.tag);
                    self.shared.byz_delivered.lock().push(m);
                }
            }
        }
    }

    /// Anti-entropy for byz gossip (summary cadence): re-floods this
    /// node's standing SEND/ECHO/READY votes. Peers that already have
    /// them dedup the copies; peers that lost them to a lossy link regain
    /// the vote — which is what keeps churned, re-sized quorums fillable
    /// without a byz-specific ack layer.
    fn regossip_byz(&mut self) {
        let actions = match self.byz.as_ref() {
            Some(b) if b.behavior.is_none() => b.engine.regossip(),
            _ => return,
        };
        self.apply_byz_actions(actions); // gossip only: votes never deliver
    }

    /// Re-sizes the Bracha membership view after applied churn: instances
    /// created from here on quorum against live membership, while
    /// in-flight instances keep the view they snapshotted. A view below
    /// 3f+1 is refused by the engine — new instances and originations are
    /// refused until membership recovers — and counted on
    /// `byz.unsafe_views` for the chaos oracle's QuorumUnsafe audit.
    fn bump_byz_view(&mut self) {
        let n = self.shared.overlay.lock().members().len();
        let Some(b) = self.byz.as_mut() else { return };
        if b.engine.bump_view(n).is_err() {
            self.metrics.counter("byz.unsafe_views").inc();
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
        let mut peers = self.peers();
        peers.sort_unstable();
        for (i, peer) in peers.into_iter().enumerate() {
            let m = &pair[i % 2];
            self.seen.insert(m.broadcast_id);
            self.send_to(peer, m);
        }
    }

    /// Floods [`attack::forged_votes`] impersonating the lowest other
    /// member of our replica.
    fn mount_forgery(&mut self) {
        let members = self.shared.overlay.lock().members().to_vec();
        let victim = members.into_iter().find(|&m| m != self.id);
        let votes = attack::forged_votes(self.id as u32, victim.unwrap_or(self.id) as u32);
        self.apply_byz_actions(votes.map(ByzAction::Gossip).into());
    }

    /// Degraded-mode ground truth: re-admits an excommunicated peer that
    /// has been observably alive — frames arriving without a gap — for a
    /// full suspicion timeout, returning `true` when it does.
    ///
    /// This is the only exit from **mutual degradation**: when every node
    /// has blown its k−1 budget (false suspicions during churn stack on
    /// real crashes), dead notices turn into `SYNC` requests that no node
    /// will serve — a deadlock where all links are up and everyone can see
    /// everyone alive, yet nobody's state machine moves. A degraded
    /// replica is already untrusted, so direct observation outranks the
    /// missing join/sync handshake; each node independently re-admits the
    /// live peers it excommunicated, drops below the budget, exits
    /// degradation, and then serves syncs to the rest. Healthy nodes never
    /// take this path — for them the dead-notice → `JOIN` dance works and
    /// keeps admissions announced cluster-wide.
    fn readmit_by_observation(&mut self, from: MemberId, now: Instant) -> bool {
        let timeout = self.config.heartbeat_timeout;
        // A silent gap longer than the suspicion timeout restarts the
        // observation window: "continuously alive" must be earned.
        let gap = self
            .last_seen
            .get(&from)
            .is_none_or(|&t| now.duration_since(t) > timeout);
        let since = *self
            .revenant_since
            .entry(from)
            .and_modify(|s| {
                if gap {
                    *s = now;
                }
            })
            .or_insert(now);
        if !self.shared.is_degraded() || now.duration_since(since) < timeout {
            return false;
        }
        self.metrics.counter("runtime.observed_readmits").inc();
        self.apply_join(from);
        true
    }

    /// Reacts to a direct `CRASH(self)` dead notice from `from`: flood a
    /// `JOIN` when our replica is healthy (the notifier is simply wrong
    /// about us), or request a membership snapshot when it is not (we are
    /// degraded, or already resyncing — our own view cannot be trusted).
    fn on_excommunication_notice(&mut self, from: MemberId) {
        if self.behavior() == Some(TraitorBehavior::SuppressHeartbeat) {
            return; // scripted: it *wants* to stay excommunicated
        }
        let now = Instant::now();
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
        self.rejoin_cooldown = Some(now + self.config.heartbeat_timeout);
        if self.shared.is_degraded() || self.awaiting_sync.is_some() {
            self.awaiting_sync = Some(RetrySchedule {
                backoff: Backoff::new(self.retry_policy()),
                due: now + self.config.heartbeat_timeout,
                peer: Some(from),
            });
            self.metrics.counter("runtime.sync_requests").inc();
            let req = Message::new(wire::sync_id(self.id), self.id as u32, Bytes::new());
            self.send_to(from, &req);
        } else {
            // Reply with a direct JOIN; the notifier floods it onward and
            // re-admits us into its replica.
            self.pending_join_announce = true;
            let id = wire::join_id(self.id, self.fresh_wave_nonce());
            self.seen.insert(id);
            let msg = Message::new(id, self.id as u32, Bytes::new());
            self.send_to(from, &msg);
            self.try_announce_join();
        }
    }

    /// Answers a membership `SYNC` request with a snapshot of our replica —
    /// but only while that replica is trustworthy (not degraded, not itself
    /// waiting on a snapshot). Under a byzantine setup the snapshot also
    /// carries this node's standing Bracha instance summaries
    /// ([`BrachaEngine::summaries`]) so a rejoiner can catch up on
    /// broadcasts that ran while it was down; Equivocate/Forge traitors
    /// serve forged summaries instead — which corroboration must defeat.
    fn serve_sync(&mut self, from: MemberId) {
        if self.shared.is_degraded() || self.awaiting_sync.is_some() {
            return;
        }
        let summaries = match self.byz.as_ref() {
            Some(b) => match b.behavior {
                None => b.engine.summaries(),
                Some(TraitorBehavior::Equivocate | TraitorBehavior::Forge) => {
                    attack::forged_summaries(self.id as u32, from as u32, b.engine.summaries())
                }
                Some(_) => Vec::new(),
            },
            None => Vec::new(),
        };
        let payload = wire::encode_sync_snapshot(&self.shared.overlay.lock(), &summaries);
        let reply = Message::new(wire::sync_id(self.id), self.id as u32, payload);
        if self.send_to(from, &reply) {
            self.metrics.counter("runtime.syncs_served").inc();
        }
    }

    /// Ingests the Bracha summaries riding a SYNC snapshot as the serving
    /// peer's standing votes. Corroboration happens inside the engine —
    /// f+1 distinct echo witnesses, 2f+1 distinct ready witnesses — so one
    /// forged snapshot (or one traitor's serve) moves no instance state,
    /// while a delivery quorum of honest snapshots completes every
    /// broadcast the rejoiner slept through. Idempotent per peer.
    fn ingest_sync_summaries(&mut self, from: MemberId, payload: &Bytes) {
        let Some((_, _, _, summaries)) = wire::decode_sync_snapshot(payload) else {
            return;
        };
        self.ingest_summaries_from(from, &summaries);
    }

    fn ingest_summaries_from(&mut self, from: MemberId, summaries: &[InstanceSummary]) {
        if summaries.is_empty() {
            return;
        }
        let actions = match self.byz.as_mut() {
            Some(b) if b.behavior.is_none() => b.engine.ingest_summaries(from as u32, summaries),
            _ => return,
        };
        self.metrics.counter("runtime.catchup_ingests").inc();
        self.catchup_replies.insert(from);
        self.apply_byz_actions(actions);
    }

    /// Installs a membership snapshot served by `via`: rebuild the replica,
    /// admit ourselves, clear all suspicion state, and schedule the `JOIN`
    /// announcement that tells everyone else.
    fn install_sync(&mut self, via: MemberId, payload: &Bytes) {
        let Some((constraint, k, members, summaries)) = wire::decode_sync_snapshot(payload) else {
            return;
        };
        if k != self.k {
            return; // a replica from some other cluster generation
        }
        let Ok(mut replica) = DynamicOverlay::from_parts(constraint, k, members) else {
            return;
        };
        if !replica.contains(self.id) && replica.admit(self.id).is_err() {
            return;
        }
        if self.shared.degraded.swap(false, Ordering::SeqCst) {
            self.recorder.record(EventKind::DegradedExit);
            self.metrics.counter("runtime.degraded_exits").inc();
            self.degraded_gauge().set(0);
        }
        *self.shared.overlay.lock() = replica;
        self.shared.crashes_applied.lock().clear();
        // Dedup state survives wholesale: wave nonces guarantee that any
        // wave newer than the snapshot floods under an unseen id, while
        // stale copies of pre-sync waves stay absorbed.
        self.last_seen.clear();
        self.next_dial.clear();
        self.backoffs.clear();
        self.revenant_grace.clear();
        self.revenant_since.clear();
        self.notice_sent.clear();
        self.crash_reporters.clear();
        self.notice_senders.clear();
        self.bump_byz_view();
        // The snapshot's summaries are the server's standing byz votes:
        // ingest them now so catch-up starts from this first witness.
        self.ingest_summaries_from(via, &summaries);
        self.awaiting_sync = None;
        self.rejoin_cooldown = Some(Instant::now() + self.config.heartbeat_timeout);
        self.pending_join_announce = true;
        self.metrics.counter("runtime.sync_rejoins").inc();
        self.recorder
            .record(EventKind::SyncRejoin { via: via as u32 });
        self.reconcile();
        self.try_announce_join();
    }

    /// Floods this node's own `JOIN` announcement once at least one link is
    /// up (flooding into the void would announce to nobody).
    fn try_announce_join(&mut self) {
        if !self.pending_join_announce || self.writers.is_empty() {
            return;
        }
        self.pending_join_announce = false;
        let id = wire::join_id(self.id, self.fresh_wave_nonce());
        self.seen.insert(id);
        self.metrics.counter("runtime.join_announces").inc();
        self.recorder.record(EventKind::JoinAnnounce {
            member: self.id as u32,
        });
        let msg = Message::new(id, self.id as u32, Bytes::new());
        self.flood(&msg, None);
        // Byz catch-up rides the same moment: the instant we are back on
        // the mesh, ask every neighbor for its instance summaries so
        // broadcasts originated while we were down still corroborate and
        // deliver here. Retried on backoff until a delivery quorum of
        // distinct peers has answered (`retry_catchup`).
        if self.solicit_catchup() {
            self.catchup = Some(RetrySchedule {
                backoff: Backoff::new(self.retry_policy()),
                due: Instant::now() + self.config.heartbeat_timeout,
                peer: None,
            });
        }
    }

    /// Clears the shared rejoin-in-flight flag once the announcement has
    /// flooded and no membership `SYNC` is outstanding.
    fn maybe_settle_join(&mut self) {
        if self.shared.join_pending.load(Ordering::SeqCst)
            && !self.pending_join_announce
            && self.awaiting_sync.is_none()
        {
            self.shared.join_pending.store(false, Ordering::SeqCst);
        }
    }

    /// The one retry/backoff policy, for dialing and rejoin-path requests
    /// alike, with the suspicion timeout as probation window.
    fn retry_policy(&self) -> BackoffPolicy {
        BackoffPolicy {
            base: self.config.dial_backoff,
            cap: self.config.dial_backoff_cap,
            max_attempts: self.config.dial_max_attempts,
            // A link healthy for a full suspicion window is genuinely
            // healthy; anything shorter may be one beat of a flap.
            probation_window: self.config.heartbeat_timeout,
        }
    }

    /// The SYNC snapshot never arrived (dropped frame, dead server):
    /// re-send the request on the jittered backoff instead of waiting for
    /// the next dead notice. Exhaustion clears the state — bounded work,
    /// never a wedge; a later notice restarts the handshake from scratch.
    fn retry_sync(&mut self, now: Instant) {
        let Some(mut retry) = self.awaiting_sync.take() else {
            return;
        };
        let Some(delay) = retry.backoff.next_delay(&mut self.rng) else {
            self.metrics.counter("runtime.sync_retry_exhausted").inc();
            return;
        };
        self.metrics.counter("runtime.sync_retries").inc();
        // Prefer the original server; fall back to any live link (the
        // server itself may have died while we waited).
        let target = retry
            .peer
            .filter(|p| self.writers.contains_key(p))
            .or_else(|| self.writers.keys().next().copied());
        if let Some(peer) = target {
            retry.peer = Some(peer);
            let req = Message::new(wire::sync_id(self.id), self.id as u32, Bytes::new());
            self.send_to(peer, &req);
        }
        retry.due = now + self.config.heartbeat_timeout + delay;
        self.awaiting_sync = Some(retry);
    }

    /// Sends an empty `SYNC` request to every live link: each correct
    /// server answers with a snapshot whose summaries we ingest. Only
    /// correct byz nodes solicit; returns whether anything was sent.
    fn solicit_catchup(&mut self) -> bool {
        if self.byz.as_ref().is_none_or(|b| b.behavior.is_some()) {
            return false;
        }
        let peers = self.peers();
        if peers.is_empty() {
            return false;
        }
        self.metrics.counter("runtime.catchup_solicits").inc();
        let req = Message::new(wire::sync_id(self.id), self.id as u32, Bytes::new());
        for peer in peers {
            self.send_to(peer, &req);
        }
        true
    }

    /// Re-solicits byz catch-up on the jittered backoff until a delivery
    /// quorum (2f+1) of distinct peers has answered or the schedule is
    /// exhausted. Repeat ingests are idempotent, so over-asking is safe.
    fn retry_catchup(&mut self, now: Instant) {
        let Some(mut retry) = self.catchup.take() else {
            return;
        };
        let quorum = self
            .config
            .byzantine
            .as_ref()
            .map_or(usize::MAX, |s| 2 * s.f + 1);
        if self.catchup_replies.len() >= quorum {
            return; // enough distinct witnesses; catch-up is corroborated
        }
        let Some(delay) = retry.backoff.next_delay(&mut self.rng) else {
            self.metrics.counter("runtime.catchup_exhausted").inc();
            return;
        };
        if self.solicit_catchup() {
            self.metrics.counter("runtime.catchup_retries").inc();
        }
        retry.due = now + self.config.heartbeat_timeout + delay;
        self.catchup = Some(retry);
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
        self.shared.crashes_applied.lock().remove(&member);
        self.revenant_grace.remove(&member);
        self.revenant_since.remove(&member);
        self.notice_sent.remove(&member);
        // A rejoined member's pre-join crash reports are stale evidence.
        self.crash_reporters.remove(&member);
        self.backoffs.remove(&member);
        self.next_dial.remove(&member);
        self.last_seen.insert(member, Instant::now());
        let churn = {
            let mut ov = self.shared.overlay.lock();
            if ov.contains(member) {
                None
            } else {
                ov.admit(member).ok()
            }
        };
        if let Some(report) = churn {
            self.metrics.counter("runtime.joins_applied").inc();
            self.apply_churn(&report);
            // Churn-triggered regossip, aimed at the rejoiner: our
            // standing votes go out now, not a summary cadence later, so
            // its re-sized quorums start filling immediately.
            self.regossip_byz();
        }
        self.maybe_exit_degraded();
        self.reconcile();
    }

    /// Records an application delivery: its trace event and path record
    /// (`via` is the neighbor the winning copy arrived from, `None` at the
    /// origin) and its end-to-end latency, if the start instant is known.
    fn deliver(&mut self, msg: &Message, via: Option<MemberId>) {
        if let Some(trace_id) = msg.trace {
            self.recorder.record(match via {
                None => EventKind::BroadcastAccept { trace_id },
                Some(from) => EventKind::BroadcastDeliver {
                    trace_id,
                    from: from as u32,
                    hops: msg.hops,
                },
            });
            self.tracer.record(PathRecord {
                trace_id,
                node: self.id as u32,
                parent: via.map(|from| from as u32),
                hops: msg.hops,
                at_us: self.recorder.now_us(),
            });
        }
        self.metrics.counter("runtime.deliveries").inc();
        if let Some(t0) = self.clock.read().get(&msg.broadcast_id) {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.metrics
                .histogram("runtime.delivery_latency_us")
                .record(us);
        }
        self.shared.delivered.lock().push(msg.clone());
    }

    /// The live links, in the order every flood and core transition
    /// walks them.
    fn peers(&self) -> Vec<MemberId> {
        self.writers.keys().copied().collect()
    }

    /// Best-effort flood of a control frame (heartbeat, crash/join wave,
    /// byz gossip) to every connected peer except `except`. Data frames
    /// never come this way — they go through [`Self::drive`].
    fn flood(&mut self, msg: &Message, except: Option<MemberId>) {
        for peer in self.peers() {
            if Some(peer) != except {
                self.send_to(peer, msg);
            }
        }
    }

    /// Runs one transition of the reliable core — handing it the dedup
    /// set, the monotonic clock and the reusable sink — then writes
    /// whatever it emitted.
    fn drive<R>(
        &mut self,
        step: impl FnOnce(&mut ReliableCore<MemberId>, &mut SeenSet, u64, &mut Sends<MemberId>) -> R,
    ) -> R {
        let now_us = self.recorder.now_us();
        let mut out = std::mem::take(&mut self.outbox);
        let result = step(&mut self.core, &mut self.seen, now_us, &mut out);
        self.send_all(out);
        result
    }

    /// Writes the frames the core emitted, then hands the (drained) sink
    /// back for reuse. A failed write drops the link, which resets it in
    /// the core; the peer's remaining frames then fall on a closed writer.
    fn send_all(&mut self, mut out: Sends<MemberId>) {
        for (peer, msg) in out.drain(..) {
            self.send_to(peer, &msg);
        }
        self.outbox = out;
    }

    /// Retransmit sweep + ack emission for every live link, run on the
    /// main-loop tick cadence.
    fn tick_core(&mut self) {
        let peers = self.peers();
        let report = self.drive(|core, _, now_us, out| core.tick(now_us, peers, out));
        if report.retransmits > 0 {
            self.metrics
                .counter("runtime.retransmits")
                .add(report.retransmits);
        }
        if report.acks > 0 {
            self.metrics.counter("runtime.acks_sent").add(report.acks);
        }
    }

    /// Heartbeat-cadence repair channel: re-gossips standing byz votes and
    /// advertises recently-delivered broadcast ids to every connected peer.
    fn send_summaries(&mut self) {
        if self.behavior() == Some(TraitorBehavior::SuppressHeartbeat) {
            return; // any frame would refresh last_seen and spoil the act
        }
        self.regossip_byz();
        let peers = self.peers();
        if self.drive(|core, _, _, out| core.advertise(peers, out)) {
            self.metrics.counter("runtime.summaries_sent").inc();
        }
    }

    /// Clears dial-backoff streaks for peers whose connection has stayed
    /// healthy for a full probation window (a single momentary connect is
    /// not enough — see [`lhg_net::backoff`]).
    fn settle_backoffs(&mut self, now: Instant) {
        let writers = &self.writers;
        self.backoffs
            .retain(|peer, b| !(writers.contains_key(peer) && b.maybe_reset(now)));
    }

    /// Sends one frame to `peer` through the fault injector (if any): the
    /// frame may be swallowed (counted, not a link failure) or written more
    /// than once (duplicate injection). Injected extra delays are ignored —
    /// TCP ordering makes per-frame delay infeasible without a timer wheel.
    fn send_to(&mut self, peer: MemberId, msg: &Message) -> bool {
        if let Some(f) = self.config.faults.clone() {
            let seq = self.fault_seqs.entry(peer).or_insert(0);
            let this_seq = *seq;
            *seq += 1;
            let copies = f.decide(self.id as u32, peer as u32, f.elapsed_us(), this_seq);
            if copies.is_empty() {
                self.metrics.counter("runtime.chaos_frames_dropped").inc();
                self.recorder
                    .record(EventKind::FaultDrop { peer: peer as u32 });
                return true; // the network ate it; the link is fine
            }
            let mut ok = true;
            for _ in copies {
                ok = self.write_frame_to(peer, msg);
                if !ok {
                    break;
                }
            }
            return ok;
        }
        self.write_frame_to(peer, msg)
    }

    /// Writes one frame to `peer`; a failed write tears the link down (the
    /// reconcile pass will redial if the link is still wanted).
    fn write_frame_to(&mut self, peer: MemberId, msg: &Message) -> bool {
        let res = match self.writers.get_mut(&peer) {
            Some(stream) => write_frame(stream, msg),
            None => return false,
        };
        match res {
            Ok(n) => {
                self.metrics.counter("runtime.messages_sent").inc();
                self.metrics.counter("runtime.bytes_sent").add(n as u64);
                // Same site as the counters above, so per-class totals
                // reconcile with them exactly (n includes the length prefix).
                self.metrics
                    .wire()
                    .record(self.id as u32, peer as u32, msg.broadcast_id, n as u64);
                self.recorder.record(EventKind::FrameTx {
                    peer: peer as u32,
                    bytes: n as u32,
                });
                true
            }
            Err(_) => {
                self.drop_link(peer);
                false
            }
        }
    }

    fn send_heartbeats(&mut self) {
        match self.behavior() {
            // Plays dead on the control plane: no heartbeats means correct
            // nodes legitimately excommunicate it — forced churn is the
            // attack, and the dynamic views must absorb it.
            Some(TraitorBehavior::SuppressHeartbeat) => return,
            Some(TraitorBehavior::FrameCrash) => self.mount_frame_crash(),
            _ => {}
        }
        let msg = Message::new(wire::heartbeat_id(self.id), self.id as u32, Bytes::new());
        self.flood(&msg, None);
    }

    /// FrameCrash traitor: on every heartbeat, flood a freshly-nonced
    /// forged CRASH wave naming a live victim (the lowest other member).
    /// Every wave carries this traitor's origin, so corroboration counts
    /// the whole barrage as a single reporter — below the f+1 quorum, the
    /// still-heartbeating victim survives.
    fn mount_frame_crash(&mut self) {
        let victim = self
            .shared
            .overlay
            .lock()
            .members()
            .iter()
            .copied()
            .find(|&m| m != self.id);
        let Some(victim) = victim else { return };
        self.metrics.counter("runtime.forged_crash_waves").inc();
        let id = wire::crash_id(victim, self.fresh_wave_nonce());
        self.seen.insert(id);
        let msg = Message::new(id, self.id as u32, Bytes::new());
        self.flood(&msg, None);
    }

    /// Sends a direct `CRASH(peer)` *to* `peer`: "you are excommunicated
    /// here". Rate-limited so a chatty revenant gets one notice per
    /// half-timeout, not one per frame.
    fn maybe_send_dead_notice(&mut self, peer: MemberId) {
        let now = Instant::now();
        let interval = self.config.heartbeat_timeout / 2;
        let due = self
            .notice_sent
            .get(&peer)
            .is_none_or(|&t| now.duration_since(t) >= interval);
        if !due {
            return;
        }
        self.notice_sent.insert(peer, now);
        self.metrics.counter("runtime.dead_notices").inc();
        // Dead notices are point-to-point and never deduplicated, but a
        // fresh nonce keeps them out of any wave's identity space.
        let id = wire::crash_id(peer, self.fresh_wave_nonce());
        let msg = Message::new(id, self.id as u32, Bytes::new());
        self.send_to(peer, &msg);
    }

    /// Declares crashed any monitored neighbor silent past the timeout;
    /// refreshes the per-peer heartbeat-age gauges along the way.
    fn check_suspicions(&mut self, now: Instant) {
        let crashed = self.shared.crashes_applied.lock().clone();
        let mut suspects = Vec::new();
        for peer in self.shared.desired_neighbors() {
            if crashed.contains(&peer) {
                continue;
            }
            // A peer we have never heard from starts its grace period now;
            // this also covers crash-before-connect (dials keep failing).
            let seen_at = *self.last_seen.entry(peer).or_insert(now);
            let age = now.duration_since(seen_at);
            self.hb_age_gauge(peer)
                .set(i64::try_from(age.as_micros()).unwrap_or(i64::MAX));
            if age > self.config.heartbeat_timeout {
                suspects.push(peer);
            }
        }
        for peer in suspects {
            self.suspect(peer);
        }
    }

    /// The cached gauge `runtime.heartbeat_age_us.n<id>.p<peer>` — the µs
    /// since this node last heard from `peer`, fresh as of the latest
    /// suspicion sweep (every main-loop tick).
    fn hb_age_gauge(&mut self, peer: MemberId) -> Arc<Gauge> {
        let (id, metrics) = (self.id, &self.metrics);
        Arc::clone(
            self.hb_age_gauges.entry(peer).or_insert_with(|| {
                metrics.gauge(&format!("runtime.heartbeat_age_us.n{id}.p{peer}"))
            }),
        )
    }

    /// The gauge `runtime.degraded.n<id>`: 1 while this node is degraded.
    fn degraded_gauge(&self) -> Arc<Gauge> {
        self.metrics
            .gauge(&format!("runtime.degraded.n{}", self.id))
    }

    /// The number of distinct crash reporters required before a flooded
    /// CRASH wave is applied: f+1 under a byzantine setup (so the f
    /// traitors alone can never excommunicate anyone), 1 otherwise (the
    /// crash-only fault model trusts every report — unchanged behavior).
    fn crash_quorum(&self) -> usize {
        match &self.config.byzantine {
            Some(setup) => setup.f + 1,
            None => 1,
        }
    }

    /// `true` while `victim` is demonstrably alive on a direct link: the
    /// connection is up and frames arrived within the suspicion timeout.
    fn directly_live(&self, victim: MemberId) -> bool {
        self.writers.contains_key(&victim)
            && self
                .last_seen
                .get(&victim)
                .is_some_and(|&t| t.elapsed() <= self.config.heartbeat_timeout)
    }

    /// Byz-aware corroborated suspicion: records `reporter`'s vote that
    /// `victim` crashed and applies the crash only once
    /// [`Self::crash_quorum`] distinct reporters agree **and** the victim
    /// is not demonstrably alive on a direct link. Either guard alone
    /// stops a lone traitor: forged waves all share the traitor's origin
    /// (one voice), and even a corroborated-looking wave is vetoed while
    /// the victim keeps heartbeating at us — our own detector counts
    /// itself as a reporter the moment the silence becomes real.
    fn note_crash_report(&mut self, victim: MemberId, reporter: MemberId) {
        let quorum = self.crash_quorum();
        if quorum <= 1 {
            self.apply_crash(victim);
            return;
        }
        let reporters = self.crash_reporters.entry(victim).or_default();
        reporters.insert(reporter);
        if reporters.len() < quorum {
            self.metrics.counter("runtime.crash_reports_pending").inc();
            return;
        }
        if self.directly_live(victim) {
            self.metrics.counter("runtime.crash_vetoes").inc();
            return;
        }
        self.crash_reporters.remove(&victim);
        self.apply_crash(victim);
    }

    /// Local suspicion: announce the crash to the cluster, then heal.
    /// Direct evidence (our own heartbeat timeout) applies immediately —
    /// corroboration guards *remote* reports, not first-hand observation.
    fn suspect(&mut self, victim: MemberId) {
        self.metrics.counter("runtime.suspects").inc();
        self.recorder.record(EventKind::Suspicion {
            peer: victim as u32,
        });
        self.recorder.record(EventKind::CrashReport {
            victim: victim as u32,
            via: self.id as u32,
        });
        let id = wire::crash_id(victim, self.fresh_wave_nonce());
        self.seen.insert(id);
        let msg = Message::new(id, self.id as u32, Bytes::new());
        self.flood(&msg, None);
        self.apply_crash(victim);
    }

    /// Removes `victim` from the overlay replica and applies the resulting
    /// churn: drop removed links, dial added ones. Idempotent per victim.
    ///
    /// When this crash pushes the suspect count to ≥ k, the node **stops
    /// healing** and degrades instead: below the k−1 budget LHG guarantees
    /// a consistent rebuild, above it a rebuild could partition the replica
    /// set (e.g. on the minority side of a network split). Degraded nodes
    /// keep probing every known member until joins bring the count back
    /// within budget ([`Self::maybe_exit_degraded`]) or a membership sync
    /// replaces their replica wholesale.
    fn apply_crash(&mut self, victim: MemberId) {
        if victim == self.id {
            return; // dead notices are handled before classification
        }
        if !self.shared.crashes_applied.lock().insert(victim) {
            return;
        }
        self.metrics.counter("runtime.crashes_applied").inc();
        // A fresh crash record must not inherit a prior observation run.
        self.revenant_since.remove(&victim);
        if self.healing_since.is_none() {
            self.healing_since = Some(Instant::now());
            self.recorder.record(EventKind::HealBegin {
                victim: victim as u32,
            });
        }
        let active = self.shared.crashes_applied.lock().len();
        if active >= self.k {
            if !self.shared.degraded.swap(true, Ordering::SeqCst) {
                self.metrics.counter("runtime.degraded_entries").inc();
                self.recorder.record(EventKind::Degraded {
                    active: active as u32,
                });
                self.degraded_gauge().set(1);
            }
            self.drop_link(victim);
            self.next_dial.remove(&victim);
            self.core.abandon(victim);
            self.reconcile();
            return;
        }
        let churn = {
            let mut ov = self.shared.overlay.lock();
            if ov.contains(victim) {
                // A below-floor heal is refused atomically; we then keep the
                // stale topology minus the dead links. Defensive: the failure
                // model promises at most k-1 crashes, which never hits the
                // 2k membership floor from n ≥ 2k + (k-1) launches.
                ov.crash_many(&[victim]).ok()
            } else {
                None
            }
        };
        self.drop_link(victim);
        self.last_seen.remove(&victim);
        self.next_dial.remove(&victim);
        // Frames parked for an excommunicated peer are abandoned; if it
        // ever rejoins, anti-entropy summaries catch it up instead.
        self.core.abandon(victim);
        if let Some(report) = churn {
            self.apply_churn(&report);
        }
        self.reconcile();
    }

    /// Leaves degraded mode once joins have brought the suspect count back
    /// within the k−1 budget, then applies the heals deferred while the
    /// budget was blown.
    fn maybe_exit_degraded(&mut self) {
        if !self.shared.is_degraded() {
            return;
        }
        let remaining: Vec<MemberId> = self.shared.crashes_applied.lock().iter().copied().collect();
        if remaining.len() >= self.k {
            return;
        }
        self.shared.degraded.store(false, Ordering::SeqCst);
        self.metrics.counter("runtime.degraded_exits").inc();
        self.recorder.record(EventKind::DegradedExit);
        self.degraded_gauge().set(0);
        let churn = {
            let mut ov = self.shared.overlay.lock();
            let stale: Vec<MemberId> = remaining.into_iter().filter(|&m| ov.contains(m)).collect();
            if stale.is_empty() {
                None
            } else {
                ov.crash_many(&stale).ok()
            }
        };
        if let Some(report) = churn {
            self.apply_churn(&report);
        }
        self.reconcile();
    }

    /// Applies one churn report: drop removed links, dial added ones (on
    /// the dialer side), and re-size the Bracha view to the new membership.
    fn apply_churn(&mut self, report: &ChurnReport) {
        for peer in report.removed_for(self.id).collect::<Vec<_>>() {
            self.drop_link(peer);
            self.metrics.counter("runtime.links_dropped").inc();
        }
        for peer in report.added_for(self.id).collect::<Vec<_>>() {
            if self.id < peer {
                self.dial(peer);
            }
        }
        self.bump_byz_view();
    }

    /// Converges connections toward the overlay's desired neighbor set:
    /// tears down links the dialer side no longer wants, dials missing ones
    /// (with backoff), and closes the healing stopwatch when done.
    ///
    /// While the node is repairing membership knowledge (degraded, waiting
    /// on a sync, or holding an unannounced join) it probes **every** known
    /// member instead — its notion of "desired" cannot be trusted, and any
    /// live peer is a way back in.
    fn reconcile(&mut self) {
        let desired = self.shared.desired_neighbors();
        let crashed = self.shared.crashes_applied.lock().clone();
        let probe_all =
            self.shared.is_degraded() || self.pending_join_announce || self.awaiting_sync.is_some();
        let now = Instant::now();
        self.revenant_grace
            .retain(|_, &mut deadline| now < deadline);

        // Teardown is dialer-driven so a link is never closed by a node
        // that merely hasn't healed yet; connections to crashed members go
        // down too, unless the peer is a revenant mid-rejoin.
        for peer in self.peers() {
            let revenant = self.revenant_grace.contains_key(&peer);
            let unwanted = if crashed.contains(&peer) {
                !probe_all && !revenant
            } else {
                !probe_all && self.id < peer && !desired.contains(&peer)
            };
            if unwanted {
                self.drop_link(peer);
                self.metrics.counter("runtime.links_dropped").inc();
            }
        }

        let targets: Vec<MemberId> = if probe_all {
            let dir = self.directory.read();
            dir.keys().copied().filter(|&p| p != self.id).collect()
        } else {
            desired.iter().copied().collect()
        };
        for peer in targets {
            if self.writers.contains_key(&peer) {
                continue;
            }
            let may_dial = probe_all || (self.id < peer && !crashed.contains(&peer));
            if !may_dial {
                continue;
            }
            if self.next_dial.get(&peer).is_none_or(|&t| now >= t) {
                self.dial(peer);
            }
        }

        // Grave probing: periodically dial the members this replica
        // believes crashed. A genuinely dead member refuses instantly and
        // costs one backed-off connect; a live one is a stale exclusion
        // this node might otherwise never learn about — e.g. a late first
        // receipt of an old crash wave for a **non-neighbor**, where no
        // link exists over which the usual dead-notice → `JOIN` repair
        // could run. On contact, send the dead notice straight away: even
        // if the probe link is torn down by the peer's own reconcile pass,
        // a healthy peer answers with a flooded `JOIN` wave that reaches
        // us through the mesh. (Degraded nodes already probe everything.)
        if !probe_all {
            for peer in crashed {
                if self.writers.contains_key(&peer)
                    || self.next_dial.get(&peer).is_some_and(|&t| now < t)
                {
                    continue;
                }
                self.dial(peer);
                if self.writers.contains_key(&peer) {
                    self.metrics.counter("runtime.grave_probes_hit").inc();
                    self.revenant_grace
                        .insert(peer, now + self.config.heartbeat_timeout);
                    self.maybe_send_dead_notice(peer);
                }
            }
        }

        *self.shared.links_up.lock() = self.writers.keys().copied().collect();

        if let Some(t0) = self.healing_since {
            if desired.iter().all(|p| self.writers.contains_key(p)) {
                let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.metrics
                    .histogram("runtime.reconnect_time_us")
                    .record(us);
                self.metrics.counter("runtime.heals").inc();
                self.recorder.record(EventKind::HealEnd { took_us: us });
                self.healing_since = None;
            }
        }
    }

    /// Dials `peer`, performs the hello handshake, and spawns its reader.
    /// Fault-injected partitions block dialing too — a cut that only
    /// dropped frames could be bypassed by reconnecting through it.
    fn dial(&mut self, peer: MemberId) {
        if let Some(f) = self.config.faults.clone() {
            if f.blocked(self.id as u32, peer as u32, f.elapsed_us()) {
                self.dial_failed(peer);
                return;
            }
        }
        let addr = self.directory.read().get(&peer).copied();
        let stream =
            addr.and_then(|a| TcpStream::connect_timeout(&a, self.config.dial_timeout).ok());
        let Some(mut stream) = stream else {
            self.dial_failed(peer);
            return;
        };
        let _ = stream.set_nodelay(true);
        let hello = Message::new(wire::hello_id(self.id), self.id as u32, Bytes::new());
        let reader = match write_frame(&mut stream, &hello).and(stream.try_clone()) {
            Ok(s) => s,
            Err(_) => {
                self.dial_failed(peer);
                return;
            }
        };
        let tx = self.tx.clone();
        let conn = self.conns.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || {
            let mut reader = reader;
            reader_loop(peer, conn, &mut reader, &tx);
        });
        self.next_dial.remove(&peer);
        self.metrics.counter("runtime.dials").inc();
        self.link_up(peer, conn, stream);
    }

    /// Installs connection `conn` to `peer` (dialed or accepted) in place
    /// of any older socket: the link's sequence spaces restart, and what
    /// the old link never delivered is re-sent over the new one.
    fn link_up(&mut self, peer: MemberId, conn: u64, writer: TcpStream) {
        if let Some(old) = self.writers.insert(peer, writer) {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.conn_ids.insert(peer, conn);
        self.last_seen.insert(peer, Instant::now());
        self.core.reset_link(peer);
        // A connect alone does not forgive a dial-failure streak: the
        // escalated schedule stays until the link survives a full
        // probation window ([`Self::settle_backoffs`]).
        if let Some(b) = self.backoffs.get_mut(&peer) {
            b.connected(Instant::now());
        }
        self.recorder
            .record(EventKind::Connect { peer: peer as u32 });
        self.drive(|core, _, now_us, out| core.flush(peer, now_us, out));
    }

    /// Schedules the next dial attempt to `peer` on the jittered exponential
    /// backoff. After `dial_max_attempts` consecutive failures the peer goes
    /// on low-frequency probation instead — never permanent abandonment,
    /// because a healed partition must eventually reconnect.
    fn dial_failed(&mut self, peer: MemberId) {
        self.metrics.counter("runtime.dial_failures").inc();
        let policy = self.retry_policy();
        let backoff = self
            .backoffs
            .entry(peer)
            .or_insert_with(|| Backoff::new(policy));
        match backoff.next_delay(&mut self.rng) {
            Some(delay) => {
                self.next_dial.insert(peer, Instant::now() + delay);
            }
            None => {
                backoff.reset();
                self.metrics.counter("runtime.dial_probations").inc();
                self.next_dial
                    .insert(peer, Instant::now() + self.config.dial_backoff_cap * 8);
            }
        }
    }

    /// Closes and forgets the connection to `peer` (if any), parking the
    /// reliable layer's undelivered frames for the replacement link.
    fn drop_link(&mut self, peer: MemberId) {
        if let Some(s) = self.writers.remove(&peer) {
            let _ = s.shutdown(Shutdown::Both);
            *self.shared.links_up.lock() = self.writers.keys().copied().collect();
            self.recorder
                .record(EventKind::Disconnect { peer: peer as u32 });
        }
        self.conn_ids.remove(&peer);
        self.last_seen.remove(&peer);
        self.core.reset_link(peer);
        if let Some(b) = self.backoffs.get_mut(&peer) {
            b.disconnected();
        }
    }
}
