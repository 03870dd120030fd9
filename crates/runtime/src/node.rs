//! One overlay node on real sockets: the driver around [`NodeCore`].
//!
//! Every protocol decision — dispatch, flooding, failure detection,
//! healing, rejoin, Byzantine scripts, which links are wanted — lives in
//! the sans-IO [`crate::core`]. This module is what remains once those are
//! gone: a loopback [`TcpListener`] and three kinds of threads,
//!
//! * an **acceptor** polling the listener; each accepted connection gets a
//!   **reader** thread that takes the hello off the wire (hello-sized and
//!   within [`crate::RuntimeConfig::dial_timeout`], or the stranger is
//!   dropped), registers the write half with the main loop, then decodes
//!   length-prefixed frames ([`lhg_net::codec::read_frame`]) into the
//!   node's event channel — each payload a slice of the one buffer the
//!   socket filled for its frame;
//! * a **main loop** that owns the write halves, turns channel events into
//!   core events stamped with the cluster's monotonic clock, and executes
//!   the actions the core answers with, in order. Periodic duties are the
//!   core's too: the loop sleeps until [`NodeCore::next_deadline`] and calls
//!   [`NodeCore::tick`] once that has come, never because a frame did.
//!
//! Four things stay here because only the driver can know them:
//!
//! * **Connection generations** — every socket (dialed or accepted) gets a
//!   node-local id; frames and EOFs of a superseded connection are
//!   discarded before the core sees them, so a stale socket's sequence
//!   numbers never pollute its replacement's and its death never tears the
//!   replacement down.
//! * **Fault injection** — when [`crate::RuntimeConfig::faults`] carries a
//!   [`lhg_net::fault::FaultInjector`], every frame write, frame read and
//!   dial consults it, so chaos runs can drop/duplicate frames and cut
//!   partitions without touching kernel state. Extra-delay rates are
//!   ignored here (TCP has no timer wheel); the simulator honours them.
//! * **Wire accounting** — `runtime.messages_sent` / `runtime.bytes_sent`,
//!   the per-class wire costs and the `FrameTx` event are recorded at the
//!   one site that writes a frame, which is what makes them reconcile.
//!   The instruments touched per frame and per delivery are resolved once,
//!   at boot (`Instruments`); a lookup by name takes the registry's lock.
//! * **Publication** — the core is single-threaded; [`NodeShared`] is the
//!   copy of its state other threads may read, republished only when the
//!   core says it changed. The delivery-latency clock is wall time.
//!   Deliveries leave the node here too: the id into a log, the message —
//!   payload and all — to the subscriber's channel or to nobody.
//!
//! Link ownership is asymmetric to avoid duplicate connections: the member
//! with the **smaller id dials**, the larger one accepts.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_net::codec::{read_frame, read_frame_limited, write_frame};
use lhg_net::message::{Message, HEADER_LEN, MAX_EXT_LEN};
use lhg_net::metrics::{Counter, Histogram, MetricsRegistry};
use lhg_net::wirecost::WireAccountant;
use lhg_trace::{EventKind, FlightRecorder, PathRecord, TraceCollector};

use crate::core::{self, Action, BootOpts, NodeCore};
use crate::wire;
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
    /// generation `conn`.
    Frame {
        from: MemberId,
        conn: u64,
        msg: Message,
    },
    /// The acceptor finished a handshake: the hello named `peer`, `writer`
    /// is the write half and `conn` the connection's generation id.
    Accepted {
        peer: MemberId,
        conn: u64,
        writer: TcpStream,
    },
    /// Connection `conn` to `peer` died (EOF or I/O error on the read
    /// side). During a rejoin both sides may briefly hold two sockets to
    /// the same peer; only the current one's death is a link failure.
    PeerClosed { peer: MemberId, conn: u64 },
    /// The application asks the core for something (a broadcast).
    App(core::Event),
    /// Fail-stop: abandon everything immediately, no goodbyes.
    Kill,
}

/// Node state observable by the [`crate::Cluster`] orchestrator. All fields
/// are written by the node's own threads and only read (cheap snapshots)
/// from outside.
pub struct NodeShared {
    /// This node's stable member id.
    pub id: MemberId,
    /// The loopback address this node's listener is bound to.
    pub addr: SocketAddr,
    alive: AtomicBool,
    degraded: AtomicBool,
    /// Set for the whole rejoin handshake of a rejoin boot: from spawn
    /// until the `JOIN` announcement has flooded and no membership `SYNC`
    /// request is outstanding. [`crate::Cluster::rejoin`] refuses to stack
    /// a second rejoin on top of one still in flight.
    join_pending: AtomicBool,
    /// Broadcast ids of every application delivery of this life, in
    /// delivery order: 8 B each and complete by contract (the oracles audit
    /// whole histories). Ids only — a delivered payload leaves the node, to
    /// the subscriber if there is one and to nobody otherwise.
    delivered: Mutex<Vec<u64>>,
    /// Where delivered messages are handed to the application, if anyone
    /// asked ([`crate::Cluster::subscribe`]).
    subscriber: Mutex<Option<Sender<Message>>>,
    byz_delivered: Mutex<Vec<Message>>,
    overlay: Mutex<Arc<DynamicOverlay>>,
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
        self.delivered.lock().clone()
    }

    /// Whether broadcast `id` has been delivered here. Scans from the
    /// newest delivery backwards: what a caller waits for is among the
    /// latest, so a hit costs a few comparisons and a miss one walk over
    /// the log — never a copy of it.
    #[must_use]
    pub fn has_delivered(&self, id: u64) -> bool {
        self.delivered.lock().iter().rev().any(|&d| d == id)
    }

    /// How many application messages have been delivered here.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.delivered.lock().len()
    }

    /// Makes the caller this node's subscriber, in place of any earlier
    /// one. A node that is already dead hands back a disconnected receiver:
    /// the check and the node's last act ([`Self::retire`]) take the same
    /// lock, so no sender can be installed after it.
    pub(crate) fn subscribe(&self) -> Receiver<Message> {
        let (tx, rx) = unbounded();
        let mut slot = self.subscriber.lock();
        if self.is_alive() {
            *slot = Some(tx);
        }
        rx
    }

    /// Marks the node dead and drops its subscriber's sender, which is what
    /// wakes an application blocked in `recv`.
    fn retire(&self) {
        self.alive.store(false, Ordering::SeqCst);
        *self.subscriber.lock() = None;
    }

    /// Hands `msg` to the subscriber. With nobody subscribed it is dropped
    /// here, and a receiver that went away is noticed now and forgotten.
    fn hand_off(&self, msg: Message) {
        let mut slot = self.subscriber.lock();
        if slot.as_ref().is_some_and(|tx| tx.send(msg).is_err()) {
            *slot = None;
        }
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
        DynamicOverlay::clone(&self.overlay.lock())
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
    listener.set_nonblocking(true)?;
    let (tx, rx) = unbounded();
    // A boot membership below 3f+1 is a configuration error, surfaced here
    // instead of aborting the process.
    let roster = directory.read().keys().copied().collect();
    let (rejoining, crashes) = (opts.announce_join, opts.initial_crashes.clone());
    let (m, r, now_us) = (
        Arc::clone(&metrics),
        Arc::clone(&recorder),
        recorder.now_us(),
    );
    let core = NodeCore::new(id, overlay, roster, &config, m, r, opts, now_us)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let shared = Arc::new(NodeShared {
        id,
        addr: listener.local_addr()?,
        alive: AtomicBool::new(true),
        degraded: AtomicBool::new(false),
        join_pending: AtomicBool::new(rejoining),
        delivered: Mutex::new(Vec::new()),
        subscriber: Mutex::new(None),
        byz_delivered: Mutex::new(Vec::new()),
        overlay: Mutex::new(Arc::clone(core.overlay())),
        links_up: Mutex::new(BTreeSet::new()),
        crashes_applied: Mutex::new(crashes),
    });

    // Node-local connection generation counter, shared by the acceptor and
    // the main loop's dialer so every socket gets a unique id.
    let conns = Arc::new(AtomicU64::new(0));

    // Acceptor: poll-accept so the thread can observe the kill flag.
    {
        let (shared, tx, conns) = (Arc::clone(&shared), tx.clone(), Arc::clone(&conns));
        let hello_timeout = config.dial_timeout;
        let rejected = metrics.counter("runtime.hello_rejected");
        std::thread::spawn(move || loop {
            if !shared.is_alive() {
                return; // listener drops, port closes
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let (tx, conns, rejected) = (tx.clone(), Arc::clone(&conns), rejected.clone());
                    std::thread::spawn(move || {
                        if !handshake_then_read(stream, hello_timeout, &tx, &conns) {
                            rejected.inc();
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });
    }

    let driver = NodeDriver {
        id,
        shared: Arc::clone(&shared),
        config,
        directory,
        instruments: Instruments::resolve(&metrics),
        metrics,
        clock,
        recorder,
        tracer,
        tx: tx.clone(),
        published_epoch: core.view_epoch(),
        core,
        out: Vec::new(),
        pending: VecDeque::new(),
        writers: BTreeMap::new(),
        conn_ids: HashMap::new(),
        conns,
        fault_seqs: HashMap::new(),
        links_dirty: false,
    };
    let main = Some(std::thread::spawn(move || driver.run(&rx)));
    Ok(NodeHandle { shared, tx, main })
}

/// The largest frame body a hello can have: no payload, any extensions.
const HELLO_MAX_LEN: usize = HEADER_LEN + MAX_EXT_LEN;

/// A socket whose reads all fail once `deadline` has passed, however the
/// peer paces its bytes.
struct ReadUntil<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for ReadUntil<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        (&mut self.stream).read(buf)
    }
}

/// Takes the hello off a freshly accepted connection. Until it has said
/// who it is the peer is a stranger, entitled to neither memory nor
/// patience: its first frame must be hello-sized — a longer length prefix
/// is refused before anything is allocated for it — and complete within
/// `timeout`, so a silent connection cannot park this thread.
fn read_hello(stream: &TcpStream, timeout: Duration) -> Option<MemberId> {
    let deadline = Instant::now() + timeout;
    let mut limited = ReadUntil { stream, deadline };
    let hello = read_frame_limited(&mut limited, HELLO_MAX_LEN).ok()??;
    stream.set_read_timeout(None).ok()?;
    // Protocol violation unless the first frame is a hello.
    if !hello.payload.is_empty() {
        return None;
    }
    wire::hello_peer(hello.broadcast_id)
}

/// An accepted connection's thread: the hello, then — once the write half
/// is registered with the main loop, where the core decides whether the
/// claimed id is acceptable — the plain reader loop. `false` if the peer
/// never produced a hello.
fn handshake_then_read(
    mut stream: TcpStream,
    hello_timeout: Duration,
    tx: &Sender<Event>,
    conns: &AtomicU64,
) -> bool {
    let Some(peer) = read_hello(&stream, hello_timeout) else {
        return false;
    };
    if let Ok(writer) = stream.try_clone() {
        let conn = conns.fetch_add(1, Ordering::Relaxed);
        if tx.send(Event::Accepted { peer, conn, writer }).is_ok() {
            reader_loop(peer, conn, &mut stream, tx);
        }
    }
    true
}

/// Decodes frames until EOF/error, forwarding each into the main loop.
fn reader_loop(peer: MemberId, conn: u64, stream: &mut TcpStream, tx: &Sender<Event>) {
    while let Ok(Some(msg)) = read_frame(stream) {
        let from = peer;
        if tx.send(Event::Frame { from, conn, msg }).is_err() {
            return; // node is gone
        }
    }
    let _ = tx.send(Event::PeerClosed { peer, conn });
}

/// The instruments the driver touches per frame written and per delivery.
struct Instruments {
    messages_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    wire: Arc<WireAccountant>,
    deliveries: Arc<Counter>,
    byz_delivered: Arc<Counter>,
    delivery_latency_us: Arc<Histogram>,
}

impl Instruments {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Instruments {
            messages_sent: metrics.counter("runtime.messages_sent"),
            bytes_sent: metrics.counter("runtime.bytes_sent"),
            wire: metrics.wire(),
            deliveries: metrics.counter("runtime.deliveries"),
            byz_delivered: metrics.counter("runtime.byz_delivered"),
            delivery_latency_us: metrics.histogram("runtime.delivery_latency_us"),
        }
    }
}

/// The main loop's owned state: the core plus everything socket-shaped.
/// Single-threaded; shared observability goes through [`NodeShared`].
struct NodeDriver {
    id: MemberId,
    shared: Arc<NodeShared>,
    config: RuntimeConfig,
    directory: Directory,
    metrics: Arc<MetricsRegistry>,
    instruments: Instruments,
    clock: BroadcastClock,
    /// This node's flight recorder; its epoch (shared by the whole cluster)
    /// is the monotonic clock the core runs on.
    recorder: Arc<FlightRecorder>,
    /// Cluster-wide sink for per-delivery path records.
    tracer: Arc<TraceCollector>,
    /// Cloned into reader threads spawned for dialed connections.
    tx: Sender<Event>,
    core: NodeCore,
    /// The reused action sink, and core events produced while executing it
    /// (dial outcomes, write failures), fed back once it is drained.
    out: Vec<Action>,
    pending: VecDeque<core::Event>,
    /// Write halves of every live connection, keyed by peer id (ordered:
    /// a flood goes out in the same order on every host), and the
    /// generation id of the connection currently backing each.
    writers: BTreeMap<MemberId, TcpStream>,
    conn_ids: HashMap<MemberId, u64>,
    /// Source of connection generation ids (shared with the acceptor).
    conns: Arc<AtomicU64>,
    /// Per-peer outbound frame counters keying fault-injection decisions.
    fault_seqs: HashMap<MemberId, u64>,
    /// [`NodeCore::view_epoch`] as last published, and whether `writers`
    /// changed since [`NodeShared::links_up`] was.
    published_epoch: u64,
    links_dirty: bool,
}

impl NodeDriver {
    fn run(mut self, rx: &Receiver<Event>) {
        self.step(None);
        while self.shared.is_alive() {
            let due = self.core.next_deadline();
            let wait = Duration::from_micros(due.saturating_sub(self.recorder.now_us()));
            match rx.recv_timeout(wait) {
                Ok(Event::Kill) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(ev) => {
                    let ev = self.admit(ev);
                    self.step(ev);
                }
                Err(RecvTimeoutError::Timeout) => self.step(None),
            }
        }
        // Fail-stop: slam every socket shut so peers see EOF, not silence.
        self.shared.retire();
        for s in self.writers.values() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// One loop iteration: the event (if any), then a tick if one is due,
    /// each followed by what executing its answers stirred up; publication.
    fn step(&mut self, event: Option<core::Event>) {
        if let Some(ev) = event {
            self.core.handle(ev, self.recorder.now_us(), &mut self.out);
            self.execute();
        }
        let now = self.recorder.now_us();
        if now >= self.core.next_deadline() {
            self.core.tick(now, &mut self.out);
            self.execute();
        }
        self.publish();
    }

    /// Turns a channel event into a core event, or swallows it: connection
    /// generations and the read-side fault check are settled here.
    fn admit(&mut self, ev: Event) -> Option<core::Event> {
        match ev {
            // A superseded connection's leftovers carry sequence numbers
            // from a dead link-sequence space; they must not reach the
            // replacement link's receiver state.
            Event::Frame { from, conn, .. } if self.conn_ids.get(&from) != Some(&conn) => {
                self.metrics.counter("runtime.stale_conn_frames").inc();
                None
            }
            Event::Frame { from, msg, .. } => {
                // Read-side partition check: frames already in flight when
                // a cut activates must not leak through it.
                let f = self.config.faults.as_ref();
                if f.is_some_and(|f| f.blocked(from as u32, self.id as u32, f.elapsed_us())) {
                    self.metrics.counter("runtime.chaos_frames_blocked").inc();
                    return None;
                }
                Some(core::Event::Frame { from, msg })
            }
            Event::Accepted { peer, conn, writer } => {
                self.install(peer, conn, writer);
                let dialed = false;
                Some(core::Event::LinkUp { peer, dialed })
            }
            // EOFs from superseded sockets are expected churn.
            Event::PeerClosed { peer, conn } => {
                (self.conn_ids.get(&peer) == Some(&conn)).then(|| self.uninstall(peer))
            }
            Event::App(ev) => Some(ev),
            Event::Kill => None,
        }
    }

    /// Executes the core's actions in order; events that doing so produces
    /// go back into the core until both the sink and the queue are empty.
    fn execute(&mut self) {
        loop {
            let mut out = std::mem::take(&mut self.out);
            for action in out.drain(..) {
                match action {
                    Action::Send { to, msg } => self.send_to(to, &msg),
                    // A failed write uninstalls its writer mid-flood, so
                    // the walk is by key, not by borrowed iterator.
                    Action::Flood { msg, except } => {
                        let mut next = self.writers.keys().next().copied();
                        while let Some(to) = next {
                            if Some(to) != except {
                                self.send_to(to, &msg);
                            }
                            let after = (Bound::Excluded(to), Bound::Unbounded);
                            next = self.writers.range(after).next().map(|(&p, _)| p);
                        }
                    }
                    Action::Dial { peer } => {
                        let outcome = self.dial(peer);
                        self.pending.push_back(outcome);
                    }
                    Action::Close { peer } => {
                        self.uninstall(peer);
                    }
                    Action::Deliver { msg, via } => self.deliver(msg, via),
                    // Published before counted, like `deliver`: whoever sees
                    // the counter move may read the log at once.
                    Action::ByzDeliver { msg } => {
                        self.shared.byz_delivered.lock().push(msg.clone());
                        self.shared.hand_off(msg);
                        self.instruments.byz_delivered.inc();
                    }
                }
            }
            self.out = out;
            let Some(ev) = self.pending.pop_front() else {
                return;
            };
            self.core.handle(ev, self.recorder.now_us(), &mut self.out);
        }
    }

    /// Copies what changed in the core to where other threads can see it.
    fn publish(&mut self) {
        if self.core.view_epoch() != self.published_epoch {
            self.published_epoch = self.core.view_epoch();
            *self.shared.overlay.lock() = Arc::clone(self.core.overlay());
            *self.shared.crashes_applied.lock() = self.core.crashes_applied().clone();
        }
        let (degraded, rejoining) = (self.core.is_degraded(), self.core.is_rejoining());
        self.shared.degraded.store(degraded, Ordering::SeqCst);
        self.shared.join_pending.store(rejoining, Ordering::SeqCst);
        if std::mem::take(&mut self.links_dirty) {
            *self.shared.links_up.lock() = self.writers.keys().copied().collect();
        }
    }

    /// An application delivery, the moment the payload leaves the node. The
    /// order is a contract: path record (`via` is the neighbor the winning
    /// copy arrived from, `None` at the origin) and end-to-end latency, if
    /// the start instant is known; then the id into the log; then the
    /// message to the subscriber; then the counter. So whoever sees
    /// `runtime.deliveries` move may read the log at once, and a subscriber
    /// holding a message always finds its id in
    /// [`NodeShared::delivered_ids`]. Nothing here keeps the payload: the
    /// frame body behind it is freed once the pull store has evicted it and
    /// its last forward is acked — or when the subscriber lets go of it.
    fn deliver(&mut self, msg: Message, via: Option<MemberId>) {
        if let Some(trace_id) = msg.trace {
            self.tracer.record(PathRecord {
                trace_id,
                node: self.id as u32,
                parent: via.map(|from| from as u32),
                hops: msg.hops,
                at_us: self.recorder.now_us(),
            });
        }
        if let Some(t0) = self.clock.read().get(&msg.broadcast_id) {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.instruments.delivery_latency_us.record(us);
        }
        self.shared.delivered.lock().push(msg.broadcast_id);
        self.shared.hand_off(msg);
        self.instruments.deliveries.inc();
    }

    /// Sends one frame to `peer` through the fault injector (if any): the
    /// frame may be swallowed (counted, not a link failure) or written more
    /// than once (duplicate injection). Injected extra delays are ignored —
    /// TCP ordering makes per-frame delay infeasible without a timer wheel.
    fn send_to(&mut self, peer: MemberId, msg: &Message) {
        let mut copies = 1;
        if let Some(f) = self.config.faults.as_ref() {
            let seq = self.fault_seqs.entry(peer).or_insert(0);
            copies = f
                .decide(self.id as u32, peer as u32, f.elapsed_us(), *seq)
                .len();
            *seq += 1;
            if copies == 0 {
                // The network ate it; the link is fine.
                self.metrics.counter("runtime.chaos_frames_dropped").inc();
                self.recorder
                    .record(EventKind::FaultDrop { peer: peer as u32 });
            }
        }
        for _ in 0..copies {
            if !self.write_frame_to(peer, msg) {
                return;
            }
        }
    }

    /// Writes one frame to `peer`; a failed write tears the link down and
    /// tells the core (which redials if the link is still wanted). Frames
    /// for a peer without a link fall on the floor.
    fn write_frame_to(&mut self, peer: MemberId, msg: &Message) -> bool {
        let Some(stream) = self.writers.get_mut(&peer) else {
            return false;
        };
        let Ok(n) = write_frame(stream, msg) else {
            let down = self.uninstall(peer);
            self.pending.push_back(down);
            return false;
        };
        self.instruments.messages_sent.inc();
        self.instruments.bytes_sent.add(n as u64);
        // Same site as the counters above, so per-class totals reconcile
        // with them exactly (n includes the length prefix).
        let wire = &self.instruments.wire;
        wire.record(self.id as u32, peer as u32, msg.broadcast_id, n as u64);
        let (peer, bytes) = (peer as u32, n as u32);
        self.recorder.record(EventKind::FrameTx { peer, bytes });
        true
    }

    /// Dials `peer`, performs the hello handshake and spawns its reader;
    /// returns the outcome for the core. Fault-injected partitions block
    /// dialing too — a cut that only dropped frames could be bypassed by
    /// reconnecting through it.
    fn dial(&mut self, peer: MemberId) -> core::Event {
        let failed = core::Event::DialFailed { peer };
        let f = self.config.faults.as_ref();
        if f.is_some_and(|f| f.blocked(self.id as u32, peer as u32, f.elapsed_us())) {
            return failed;
        }
        let addr = self.directory.read().get(&peer).copied();
        let stream =
            addr.and_then(|a| TcpStream::connect_timeout(&a, self.config.dial_timeout).ok());
        let Some(mut stream) = stream else {
            return failed;
        };
        let _ = stream.set_nodelay(true);
        let hello = Message::new(wire::hello_id(self.id), self.id as u32, Bytes::new());
        let Ok(mut reader) = write_frame(&mut stream, &hello).and(stream.try_clone()) else {
            return failed;
        };
        let tx = self.tx.clone();
        let conn = self.conns.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || reader_loop(peer, conn, &mut reader, &tx));
        self.install(peer, conn, stream);
        let dialed = true;
        core::Event::LinkUp { peer, dialed }
    }

    /// Makes connection `conn` the link to `peer`, in place of any older
    /// socket (whose EOF will then be a stale generation's).
    fn install(&mut self, peer: MemberId, conn: u64, writer: TcpStream) {
        if let Some(old) = self.writers.insert(peer, writer) {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.conn_ids.insert(peer, conn);
        self.links_dirty = true;
    }

    /// Closes and forgets the connection to `peer`, if any; returns the
    /// event that tells the core about a teardown it did not ask for.
    fn uninstall(&mut self, peer: MemberId) -> core::Event {
        if let Some(s) = self.writers.remove(&peer) {
            let _ = s.shutdown(Shutdown::Both);
            self.links_dirty = true;
        }
        self.conn_ids.remove(&peer);
        core::Event::LinkDown { peer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_core::Constraint;

    fn shared() -> NodeShared {
        let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
        NodeShared {
            id: 0,
            addr: "127.0.0.1:0".parse().expect("addr"),
            alive: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            join_pending: AtomicBool::new(false),
            delivered: Mutex::new(Vec::new()),
            subscriber: Mutex::new(None),
            byz_delivered: Mutex::new(Vec::new()),
            overlay: Mutex::new(Arc::new(overlay)),
            links_up: Mutex::new(BTreeSet::new()),
            crashes_applied: Mutex::new(BTreeSet::new()),
        }
    }

    #[test]
    fn has_delivered_agrees_with_the_id_history() {
        let s = shared();
        assert!(!s.has_delivered(7), "empty log");
        let log = [7u64, 3, 900, 3 << 40, 12];
        *s.delivered.lock() = log.to_vec();
        assert_eq!(s.delivered_count(), log.len());
        // Present (first and last included), absent, and near misses.
        for id in [7, 12, 900, 3 << 40, 0, 8, 13, u64::MAX] {
            assert_eq!(s.has_delivered(id), s.delivered_ids().contains(&id), "{id}");
        }
    }

    #[test]
    fn subscriber_slot_replaces_forgets_and_closes() {
        let s = shared();
        let msg = |id| Message::new(id, 0, Bytes::from_static(b"x"));
        s.hand_off(msg(1)); // nobody subscribed: dropped, not queued
        let first = s.subscribe();
        s.hand_off(msg(2));
        let second = s.subscribe();
        s.hand_off(msg(3));
        assert_eq!(
            first.try_iter().map(|m| m.broadcast_id).collect::<Vec<_>>(),
            [2]
        );
        assert!(
            first.recv().is_err(),
            "a replaced receiver sees the channel close"
        );
        assert_eq!(second.try_recv().map(|m| m.broadcast_id), Ok(3));
        // A receiver that went away is noticed on the next send.
        drop(second);
        s.hand_off(msg(4));
        assert!(s.subscriber.lock().is_none());
        // Death closes the channel, and a dead node accepts no subscriber.
        let third = s.subscribe();
        s.retire();
        assert!(third.recv().is_err());
        assert!(s.subscribe().recv().is_err());
        assert!(s.subscriber.lock().is_none());
    }
}
