//! One overlay node on real sockets: the driver around a [`Node`].
//!
//! Every protocol decision — dispatch, flooding, failure detection,
//! healing, rejoin, which links are wanted — lives in the sans-IO
//! [`crate::core`], and a traitor's script in the [`crate::traitor`]
//! wrapper. What remains is **one thread per node**: a loop that waits in
//! `poll` (the `sys` module) on the node's loopback [`TcpListener`], its
//! links, the strangers it accepted and a wake-up socket
//! [`crate::Cluster`] writes a byte to after each event it sends, until
//! the node's next deadline ([`Node::next_deadline`]). Each
//! wake-up takes the application's events off the channel, accepts, and
//! reads every ready socket until it would block: a stranger's hello
//! (hello-sized and within [`crate::RuntimeConfig::dial_timeout`], or it is
//! dropped), a link's frames ([`FrameDecoder`]) — each handed to the core
//! as soon as it is whole, so the core has let go of it before the next is
//! read into the same buffer. The core's answers are executed in order, it
//! is ticked whenever its deadline has come (never because a frame did),
//! and each link's queued frames ([`FrameQueue`]) are written as far as its
//! socket takes them. Sockets are nonblocking, so two nodes writing to each
//! other cannot deadlock; dials are the one blocking call. A replaced
//! socket leaves the poll set with its unread bytes: a stale connection's
//! frames never reach the core. Three more things only the driver knows:
//!
//! * **Fault injection** — when [`crate::RuntimeConfig::faults`] carries a
//!   [`lhg_net::fault::FaultInjector`], every frame write, frame read and
//!   dial consults it, so chaos runs can drop/duplicate frames and cut
//!   partitions without touching kernel state. Extra-delay rates are
//!   ignored here (TCP has no timer wheel); the simulator honours them.
//! * **Wire accounting** — `runtime.messages_sent` / `runtime.bytes_sent`,
//!   the per-class wire costs and the `FrameTx` event are recorded at the
//!   one site that queues a frame, which is what makes them reconcile.
//!   Per-frame and per-delivery instruments are resolved once, at boot
//!   (`Instruments`); a lookup by name takes the registry's lock.
//! * **Publication** — [`NodeShared`] is the copy of the core's state other
//!   threads may read, republished only when the core says it changed. The
//!   delivery-latency clock is wall time. Deliveries leave the node here:
//!   the id into a log, the message to the subscriber's channel or nobody.
//!
//! The member with the **smaller id dials**, the larger one accepts.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_net::codec::{write_frame, FrameDecoder, FrameQueue, MAX_FRAME_LEN};
use lhg_net::message::{Message, MAX_HEAD_LEN};
use lhg_net::metrics::{Counter, Histogram, MetricsRegistry};
use lhg_net::wirecost::WireAccountant;
use lhg_trace::{EventKind, FlightRecorder, PathRecord, TraceCollector};

use crate::core::{self, Action, Boot, BootOpts};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::traitor::Node;
use crate::wire;
use crate::RuntimeConfig;

/// Shared loopback address book: member id → listener address. Stands in
/// for out-of-band discovery (DNS, a tracker, a membership service).
pub type Directory = Arc<RwLock<HashMap<MemberId, SocketAddr>>>;

/// Broadcast start instants, shared cluster-wide so deliveries can record
/// end-to-end latency into the metrics registry.
pub(crate) type BroadcastClock = Arc<RwLock<HashMap<u64, Instant>>>;

/// Node state observable by the [`crate::Cluster`] orchestrator. All fields
/// are written by the node's own thread and only read (cheap snapshots)
/// from outside.
pub struct NodeShared {
    /// This node's stable member id.
    pub id: MemberId,
    /// The loopback address this node's listener is bound to.
    pub addr: SocketAddr,
    alive: AtomicBool,
    degraded: AtomicBool,
    /// Set for the whole rejoin of a rejoin boot: from spawn until the
    /// `JOIN` announcement has flooded. [`crate::Cluster::rejoin`] refuses
    /// to stack a second rejoin on top of one still in flight.
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
    fn new(
        id: MemberId,
        addr: SocketAddr,
        rejoining: bool,
        overlay: &Arc<DynamicOverlay>,
        crashes: BTreeSet<MemberId>,
    ) -> Self {
        NodeShared {
            id,
            addr,
            alive: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            join_pending: AtomicBool::new(rejoining),
            delivered: Mutex::new(Vec::new()),
            subscriber: Mutex::new(None),
            byz_delivered: Mutex::new(Vec::new()),
            overlay: Mutex::new(Arc::clone(overlay)),
            links_up: Mutex::new(BTreeSet::new()),
            crashes_applied: Mutex::new(crashes),
        }
    }

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

    /// `true` from a rejoin boot until its `JOIN` announcement has flooded.
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
    /// Application events for the core, and the writing end of the loop's
    /// wake-up socket (nonblocking: when it is full, a wake-up is pending).
    tx: Sender<core::Event>,
    waker: UnixStream,
    pub main: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// Hands `ev` to the node's core and wakes its loop; `false` if the
    /// loop is gone.
    pub(crate) fn send(&self, ev: core::Event) -> bool {
        let sent = self.tx.send(ev).is_ok();
        let _ = (&self.waker).write(&[1]);
        sent
    }

    /// Fail-stop: the loop abandons everything when it wakes, no goodbyes.
    pub(crate) fn kill(&self) {
        self.shared.alive.store(false, Ordering::SeqCst);
        let _ = (&self.waker).write(&[1]);
    }
}

/// Boots a node: spawns its thread around `listener` and returns at once.
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
) -> io::Result<NodeHandle> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = unbounded();
    let (waker, wake) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    wake.set_nonblocking(true)?;
    // A boot membership below 3f+1 is a configuration error, surfaced here
    // instead of aborting the process.
    let roster = directory.read().keys().copied().collect();
    let (rejoining, crashes) = (opts.announce_join, opts.initial_crashes.clone());
    let boot = Boot {
        id,
        overlay,
        roster,
        opts,
    };
    let (m, r, now_us) = (
        Arc::clone(&metrics),
        Arc::clone(&recorder),
        recorder.now_us(),
    );
    let node = Node::new(boot, &config, m, r, now_us)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(NodeShared::new(
        id,
        addr,
        rejoining,
        node.core().membership().overlay(),
        crashes,
    ));
    let driver = NodeDriver {
        id,
        shared: Arc::clone(&shared),
        config,
        directory,
        instruments: Instruments::resolve(&metrics),
        clock,
        recorder,
        tracer,
        rx,
        wake,
        listener,
        published_epoch: node.core().membership().view_epoch(),
        node,
        out: Vec::new(),
        pending: VecDeque::new(),
        links: BTreeMap::new(),
        strangers: Vec::new(),
        fault_seqs: HashMap::new(),
        links_dirty: false,
    };
    let main = Some(std::thread::spawn(move || driver.run()));
    Ok(NodeHandle {
        shared,
        tx,
        waker,
        main,
    })
}

/// The largest frame body a hello can have: no payload, any extensions.
const HELLO_MAX_LEN: usize = MAX_HEAD_LEN;

/// Frames a link's queue has room for from the start.
const QUEUE_ROOM: usize = 8;

/// An accepted connection that has not said who it is. Until it has, it is
/// entitled to neither memory nor patience: its first frame must be
/// hello-sized — a longer length prefix is refused before anything is
/// allocated for it — and complete by `deadline`.
struct Stranger {
    stream: TcpStream,
    reader: FrameDecoder,
    deadline: Instant,
}

/// One peer's connection: the socket, the frame being read off it and the
/// frames waiting to be written to it.
struct Link {
    stream: TcpStream,
    reader: FrameDecoder,
    queue: FrameQueue,
}

/// The instruments the driver touches per frame and per delivery.
struct Instruments {
    messages_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    wire: Arc<WireAccountant>,
    deliveries: Arc<Counter>,
    byz_delivered: Arc<Counter>,
    delivery_latency_us: Arc<Histogram>,
    hello_rejected: Arc<Counter>,
    chaos_frames_blocked: Arc<Counter>,
    chaos_frames_dropped: Arc<Counter>,
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
            hello_rejected: metrics.counter("runtime.hello_rejected"),
            chaos_frames_blocked: metrics.counter("runtime.chaos_frames_blocked"),
            chaos_frames_dropped: metrics.counter("runtime.chaos_frames_dropped"),
        }
    }
}

/// The node's thread: the core plus everything socket-shaped. Shared
/// observability goes through [`NodeShared`].
struct NodeDriver {
    id: MemberId,
    shared: Arc<NodeShared>,
    config: RuntimeConfig,
    directory: Directory,
    instruments: Instruments,
    clock: BroadcastClock,
    /// This node's flight recorder; its epoch (shared by the whole cluster)
    /// is the monotonic clock the core runs on.
    recorder: Arc<FlightRecorder>,
    /// Cluster-wide sink for per-delivery path records.
    tracer: Arc<TraceCollector>,
    /// The application's events, and the socket that says there are some.
    rx: Receiver<core::Event>,
    wake: UnixStream,
    listener: TcpListener,
    node: Node,
    /// The reused action sink, and core events produced while executing it
    /// (dial outcomes), fed back once it is drained.
    out: Vec<Action>,
    pending: VecDeque<core::Event>,
    /// Every live connection, keyed by peer id.
    links: BTreeMap<MemberId, Link>,
    strangers: Vec<Stranger>,
    /// Per-peer outbound frame counters keying fault-injection decisions.
    fault_seqs: HashMap<MemberId, u64>,
    /// [`core::NodeCore::view_epoch`] as last published, and whether `links`
    /// changed since [`NodeShared::links_up`] was.
    published_epoch: u64,
    links_dirty: bool,
}

impl NodeDriver {
    fn run(mut self) {
        let mut fds = Vec::with_capacity(2 + 2 * QUEUE_ROOM);
        let mut ready = Vec::with_capacity(QUEUE_ROOM);
        while self.shared.is_alive() && self.take_events() {
            self.tick_if_due();
            self.flush();
            self.publish();
            if !self.wait(&mut fds) {
                break;
            }
            ready.clear();
            let links = self.links.keys().zip(&fds[2..]);
            ready.extend(links.filter_map(|(&peer, fd)| fd.ready().then_some(peer)));
            if fds[1].ready() {
                self.accept();
            }
            for i in (0..self.strangers.len()).rev() {
                self.greet(i);
            }
            for &peer in &ready {
                self.read(peer);
            }
            if fds[0].ready() {
                while (&self.wake).read(&mut [0; 64]).is_ok_and(|n| n > 0) {}
            }
        }
        // Fail-stop: slam every socket shut so peers see EOF, not silence.
        self.shared.retire();
        for link in self.links.values() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    /// Waits in `poll` until a socket is ready or the next deadline — the
    /// core's, or a stranger's — has come; `false` if waiting failed.
    fn wait(&self, fds: &mut Vec<PollFd>) -> bool {
        fds.clear();
        fds.push(PollFd::new(&self.wake, POLLIN));
        fds.push(PollFd::new(&self.listener, POLLIN));
        for link in self.links.values() {
            let out = if link.queue.is_empty() { 0 } else { POLLOUT };
            fds.push(PollFd::new(&link.stream, POLLIN | out));
        }
        fds.extend(
            self.strangers
                .iter()
                .map(|s| PollFd::new(&s.stream, POLLIN)),
        );
        let due = self.node.next_deadline();
        let mut timeout = Duration::from_micros(due.saturating_sub(self.recorder.now_us()));
        if let Some(first) = self.strangers.iter().map(|s| s.deadline).min() {
            timeout = timeout.min(first.saturating_duration_since(Instant::now()));
        }
        sys::poll(fds, timeout)
    }

    /// Feeds the core the application's events; `false` once the
    /// orchestrator is gone.
    fn take_events(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(ev) => self.handle(ev),
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// One core event, what executing its answers stirred up, and a tick
    /// if one has come due meanwhile.
    fn handle(&mut self, ev: core::Event) {
        self.node.handle(ev, self.recorder.now_us(), &mut self.out);
        self.execute();
        self.tick_if_due();
    }

    fn tick_if_due(&mut self) {
        let now = self.recorder.now_us();
        if now >= self.node.next_deadline() {
            self.node.tick(now, &mut self.out);
            self.execute();
        }
    }

    /// Takes every connection the listener holds in as a stranger.
    fn accept(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.strangers.push(Stranger {
                stream,
                reader: FrameDecoder::new(HELLO_MAX_LEN),
                deadline: Instant::now() + self.config.dial_timeout,
            });
        }
    }

    /// Reads on from stranger `i`. A hello makes it a link — whether the
    /// claimed id is acceptable is the core's call — and anything else (a
    /// frame that is no hello, an EOF, an error, or no hello by the
    /// deadline) gets it dropped.
    fn greet(&mut self, i: usize) {
        let s = &mut self.strangers[i];
        let hello = match s.reader.read_from(&mut s.stream) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < s.deadline => {
                return
            }
            Ok(Some(hello)) if hello.payload.is_empty() => wire::hello_peer(hello.broadcast_id),
            _ => None,
        };
        let Stranger {
            stream, mut reader, ..
        } = self.strangers.swap_remove(i);
        let Some(peer) = hello else {
            self.instruments.hello_rejected.inc();
            return;
        };
        reader.set_max_len(MAX_FRAME_LEN);
        self.install(peer, stream, reader);
        let dialed = false;
        self.handle(core::Event::LinkUp { peer, dialed });
    }

    /// Hands the core every frame `peer`'s socket holds, one at a time; an
    /// EOF or a read error takes the link down.
    fn read(&mut self, peer: MemberId) {
        while let Some(link) = self.links.get_mut(&peer) {
            match link.reader.read_from(&mut link.stream) {
                Ok(Some(msg)) => {
                    // Read-side partition check: frames already in flight
                    // when a cut activates must not leak through it.
                    let f = self.config.faults.as_ref();
                    if f.is_some_and(|f| f.blocked(peer as u32, self.id as u32, f.elapsed_us())) {
                        self.instruments.chaos_frames_blocked.inc();
                        continue;
                    }
                    self.handle(core::Event::Frame { from: peer, msg });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Ok(None) | Err(_) => {
                    let down = self.uninstall(peer);
                    return self.handle(down);
                }
            }
        }
    }

    /// Writes what every link has queued, as far as its socket takes it; a
    /// failed write takes the link down, which the core hears at once.
    fn flush(&mut self) {
        loop {
            let failed = (self.links.iter_mut())
                .find_map(|(&peer, l)| l.queue.flush(&mut l.stream).is_err().then_some(peer));
            let Some(peer) = failed else {
                return;
            };
            let down = self.uninstall(peer);
            self.handle(down);
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
            self.node.handle(ev, self.recorder.now_us(), &mut self.out);
        }
    }

    /// Copies what changed in the core to where other threads can see it.
    fn publish(&mut self) {
        let core = self.node.core().membership();
        if core.view_epoch() != self.published_epoch {
            self.published_epoch = core.view_epoch();
            *self.shared.overlay.lock() = Arc::clone(core.overlay());
            *self.shared.crashes_applied.lock() = core.crashes_applied();
        }
        let (degraded, rejoining) = (core.is_degraded(), core.is_rejoining());
        self.shared.degraded.store(degraded, Ordering::SeqCst);
        self.shared.join_pending.store(rejoining, Ordering::SeqCst);
        if std::mem::take(&mut self.links_dirty) {
            *self.shared.links_up.lock() = self.links.keys().copied().collect();
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

    /// Queues a frame for `peer` through the fault injector (if any) and
    /// books it as sent: this is where a blocking write would have
    /// returned. The frame may be swallowed (counted, not a link failure) or
    /// queued more than once (duplicate injection). Injected extra delays
    /// are ignored — TCP ordering makes per-frame delay infeasible without a
    /// timer wheel. Frames for a peer without a link fall on the floor.
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
                self.instruments.chaos_frames_dropped.inc();
                self.recorder
                    .record(EventKind::FaultDrop { peer: peer as u32 });
            }
        }
        let Some(link) = self.links.get_mut(&peer) else {
            return;
        };
        let mut n = 0;
        for _ in 0..copies {
            n = link.queue.push(msg.clone());
        }
        for _ in 0..copies {
            self.book(peer, msg, n);
        }
    }

    /// Books a frame of `n` bytes (length prefix included) written to
    /// `peer`: the sent counters, the wire accountant and the flight
    /// recorder, at one site, so per-class totals reconcile with the
    /// counters exactly.
    fn book(&self, peer: MemberId, msg: &Message, n: usize) {
        self.instruments.messages_sent.inc();
        self.instruments.bytes_sent.add(n as u64);
        let (id, from, to) = (msg.broadcast_id, self.id as u32, peer as u32);
        self.instruments.wire.record(from, to, id, n as u64);
        let (peer, bytes) = (to, n as u32);
        self.recorder.record(EventKind::FrameTx { peer, bytes });
    }

    /// Dials `peer` and performs the hello handshake; returns the outcome
    /// for the core. Fault-injected partitions block dialing too — a cut
    /// that only dropped frames could be bypassed by reconnecting through
    /// it.
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
        let Ok(n) = write_frame(&mut stream, &hello) else {
            return failed;
        };
        self.book(peer, &hello, n);
        if stream.set_nonblocking(true).is_err() {
            return failed;
        }
        self.install(peer, stream, FrameDecoder::new(MAX_FRAME_LEN));
        let dialed = true;
        core::Event::LinkUp { peer, dialed }
    }

    /// Makes `stream` the link to `peer`, in place of any older socket,
    /// which is shut and leaves the poll set with whatever it held.
    fn install(&mut self, peer: MemberId, stream: TcpStream, reader: FrameDecoder) {
        let queue = FrameQueue::with_capacity(QUEUE_ROOM);
        let link = Link {
            stream,
            reader,
            queue,
        };
        if let Some(old) = self.links.insert(peer, link) {
            old.close();
        }
        self.links_dirty = true;
    }

    /// Closes and forgets the connection to `peer`, if any; returns the
    /// event that tells the core about a teardown it did not ask for.
    fn uninstall(&mut self, peer: MemberId) -> core::Event {
        if let Some(old) = self.links.remove(&peer) {
            old.close();
            self.links_dirty = true;
        }
        core::Event::LinkDown { peer }
    }
}

impl Link {
    /// Shuts the socket after what the core sent before closing it, as far
    /// as the socket takes it now: a blocking write would have sent that.
    fn close(mut self) {
        let _ = self.queue.flush(&mut self.stream);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_core::Constraint;

    fn shared() -> NodeShared {
        let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
        let addr = "127.0.0.1:0".parse().expect("addr");
        NodeShared::new(0, addr, false, &Arc::new(overlay), BTreeSet::new())
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
