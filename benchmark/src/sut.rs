//! The adapter: the one file of the benchmark that names the program under
//! test. Everything else works with the types defined here, so a later
//! change to the repo's API is repaired in this file alone, and the list
//! below is the whole surface the benchmark depends on.
//!
//! Driven end to end:
//! * `Cluster::{launch, broadcast, byzantine_broadcast, delivered_ids,
//!   byz_delivered, kill, await_heal, shutdown, shared_metrics, tracer,
//!   survivor_graph}`, fields of `RuntimeConfig` / `ByzantineSetup`;
//! * counters `runtime.{deliveries, byz_delivered, messages_sent,
//!   bytes_sent, retransmits, pulls_sent}`,
//!   `MetricsRegistry::wire().class_totals()`, `TraceCollector::records()`;
//! * `Simulation::{new, with_metrics, with_faults, run}`, the `Process`
//!   trait, `ReliableFlooder::new`, `ByzantineFlooder::new/with_schedule`,
//!   `BrachaConfig::for_overlay`, `lhg_byzantine::digest`, `FaultInjector`,
//!   `build_kdiamond`, `properties::validate`; `SUMMARY_TAG` and
//!   `decode_summary_payload`, with which the timing adapter tells an
//!   anti-entropy pull from an advertisement.
//!
//! Timed in isolation by `layers.rs` (re-exported under [`layer`]): the
//! public functions of each layer named in `spec::PER_LAYER`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use bytes::Bytes;
use lhg_byzantine::{BrachaConfig, ByzantineFlooder, ScheduledByzBroadcast};
use lhg_core::kdiamond::build_kdiamond;
use lhg_core::properties::validate;
use lhg_core::Constraint;
use lhg_graph::{Graph, NodeId};
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::message::Message;
use lhg_net::metrics::{Counter, MetricsRegistry};
use lhg_net::reliable::{
    decode_summary_payload, ReliableConfig, ReliableFlooder, ScheduledBroadcast, SUMMARY_TAG,
};
use lhg_net::sim::{Context, LinkModel, Process, Simulation};
use lhg_runtime::{ByzantineSetup, Cluster, RuntimeConfig};

/// The layer functions `layers.rs` times in isolation.
pub mod layer {
    pub use lhg_byzantine::{digest, Action, BrachaConfig, BrachaEngine, GossipFrame};
    pub use lhg_core::overlay::DynamicOverlay;
    pub use lhg_core::Constraint;
    pub use lhg_graph::disjoint_paths::vertex_disjoint_paths;
    pub use lhg_graph::NodeId;
    pub use lhg_net::codec::{decode_frame, encode_frame};
    pub use lhg_net::message::Message;
    pub use lhg_net::metrics::MetricsRegistry;
    pub use lhg_net::reliable::{
        decode_ack_payload, decode_summary_payload, encode_ack_payload, encode_summary_payload,
        LinkReceiver, LinkSender, ReliableConfig,
    };
    pub use lhg_net::seen::SeenSet;
    pub use lhg_telemetry::TelemetrySampler;
    pub use lhg_trace::{EventKind, FlightRecorder, PathRecord, TraceCollector};
}

// ------------------------------------------------------------- overlay

/// A built K-DIAMOND overlay.
pub struct Overlay {
    graph: Graph,
    k: usize,
}

impl Overlay {
    /// Builds the (n, k) K-DIAMOND overlay.
    ///
    /// # Errors
    ///
    /// The builder's message when (n, k) is out of its domain.
    pub fn build(n: usize, k: usize) -> Result<Self, String> {
        let lhg = build_kdiamond(n, k).map_err(|e| format!("build_kdiamond({n}, {k}): {e}"))?;
        Ok(Overlay {
            graph: lhg.graph().clone(),
            k,
        })
    }

    /// `validate(..).is_lhg()`: k-connected, link-minimal, logarithmic
    /// diameter.
    pub fn is_lhg(&self) -> bool {
        validate(&self.graph, self.k).is_lhg()
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }

    /// The overlay graph, for the layer probes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

// ------------------------------------------------------ wire accounting

/// Frames and bytes put on links, per message class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// `(class name, frames, bytes)`.
    pub classes: Vec<(&'static str, u64, u64)>,
}

impl WireTotals {
    fn read(metrics: &MetricsRegistry) -> Self {
        WireTotals {
            classes: metrics
                .wire()
                .class_totals()
                .iter()
                .map(|t| (t.class.name(), t.frames, t.bytes))
                .collect(),
        }
    }

    /// All frames of every class.
    pub fn frames(&self) -> u64 {
        self.classes.iter().map(|c| c.1).sum()
    }

    /// All bytes of every class.
    pub fn bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.2).sum()
    }

    /// Frames of one class (`data`, `ack`, `summary`, `heartbeat`, `byz`, …).
    pub fn class_frames(&self, class: &str) -> u64 {
        self.classes
            .iter()
            .find(|c| c.0 == class)
            .map_or(0, |c| c.1)
    }

    /// Traffic since `earlier`.
    pub fn since(&self, earlier: &WireTotals) -> WireTotals {
        WireTotals {
            classes: self
                .classes
                .iter()
                .zip(&earlier.classes)
                .map(|(now, then)| (now.0, now.1 - then.1, now.2 - then.2))
                .collect(),
        }
    }

    /// This traffic and `other`'s together; the empty default is neutral.
    pub fn plus(&self, other: &WireTotals) -> WireTotals {
        if self.classes.is_empty() {
            return other.clone();
        }
        WireTotals {
            classes: self
                .classes
                .iter()
                .zip(&other.classes)
                .map(|(a, b)| (a.0, a.1 + b.1, a.2 + b.2))
                .collect(),
        }
    }

    /// Frames per delivery, by class.
    pub fn per_delivery(&self, deliveries: f64) -> BTreeMap<&'static str, f64> {
        self.classes
            .iter()
            .map(|&(class, frames, _)| (class, frames as f64 / deliveries))
            .collect()
    }
}

// ------------------------------------------------------- TCP runtime

/// What a TCP workload asks of the cluster; everything else is
/// `RuntimeConfig::default()`.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Nodes.
    pub n: usize,
    /// Connectivity.
    pub k: usize,
    /// Failure-detector silence window.
    pub heartbeat_timeout: Duration,
    /// `Some(f)`: run Bracha sized for f traitors (none actually present).
    pub bracha_f: Option<usize>,
}

/// A reading of the runtime counters the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Application-level flood deliveries.
    pub deliveries: u64,
    /// Bracha deliveries.
    pub byz_delivered: u64,
    /// Frames written to sockets.
    pub messages_sent: u64,
    /// Bytes written to sockets.
    pub bytes_sent: u64,
    /// Reliable-layer retransmissions.
    pub retransmits: u64,
    /// Anti-entropy pulls.
    pub pulls_sent: u64,
}

impl RuntimeCounters {
    /// Counts since `earlier`.
    pub fn since(&self, earlier: &RuntimeCounters) -> RuntimeCounters {
        RuntimeCounters {
            deliveries: self.deliveries - earlier.deliveries,
            byz_delivered: self.byz_delivered - earlier.byz_delivered,
            messages_sent: self.messages_sent - earlier.messages_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            retransmits: self.retransmits - earlier.retransmits,
            pulls_sent: self.pulls_sent - earlier.pulls_sent,
        }
    }
}

/// One application-level delivery as the runtime's trace collector saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRecord {
    /// Broadcast id.
    pub id: u64,
    /// Delivering node.
    pub node: u32,
    /// Neighbour the winning copy came from; `None` at the origin.
    pub parent: Option<u32>,
    /// µs since the cluster's own epoch.
    pub at_us: u64,
}

/// A Bracha delivery: the instance and the digest the quorum certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzDelivered {
    /// Instance nonce.
    pub nonce: u64,
    /// Certified payload digest.
    pub digest: u64,
}

/// A running loopback cluster.
pub struct TcpCluster {
    cluster: Cluster,
    metrics: Arc<MetricsRegistry>,
    deliveries: Arc<Counter>,
    byz_delivered: Arc<Counter>,
    n: usize,
}

impl TcpCluster {
    /// Boots the cluster and waits for the full mesh.
    ///
    /// # Errors
    ///
    /// The launch error's message.
    pub fn launch(spec: &ClusterSpec) -> Result<Self, String> {
        let config = RuntimeConfig {
            heartbeat_timeout: spec.heartbeat_timeout,
            byzantine: spec.bracha_f.map(|f| ByzantineSetup {
                f,
                traitors: Vec::new(),
            }),
            ..RuntimeConfig::default()
        };
        let cluster = Cluster::launch(Constraint::KDiamond, spec.n, spec.k, config)
            .map_err(|e| format!("Cluster::launch: {e}"))?;
        let metrics = cluster.shared_metrics();
        Ok(TcpCluster {
            deliveries: metrics.counter("runtime.deliveries"),
            byz_delivered: metrics.counter("runtime.byz_delivered"),
            metrics,
            cluster,
            n: spec.n,
        })
    }

    /// Nodes launched.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `validate(..).is_lhg()` of the overlay the nodes themselves hold
    /// (`Cluster::launch` builds it; no copy built beside it is checked).
    pub fn overlay_is_lhg(&self, k: usize) -> bool {
        self.cluster
            .survivor_graph()
            .is_some_and(|g| validate(&g, k).is_lhg())
    }

    /// Originates a flood at `origin`; returns the broadcast id.
    ///
    /// # Errors
    ///
    /// The cluster's message if the origin is unknown.
    pub fn broadcast(&mut self, origin: u32, payload: Bytes) -> Result<u64, String> {
        self.cluster
            .broadcast(u64::from(origin), payload)
            .map_err(|e| format!("broadcast: {e}"))
    }

    /// Originates Bracha instance `nonce` at `origin`.
    ///
    /// # Errors
    ///
    /// The cluster's message if the origin is unknown.
    pub fn byzantine_broadcast(
        &mut self,
        origin: u32,
        nonce: u64,
        payload: Bytes,
    ) -> Result<(), String> {
        self.cluster
            .byzantine_broadcast(u64::from(origin), nonce, payload)
            .map_err(|e| format!("byzantine_broadcast: {e}"))
    }

    /// `runtime.deliveries` right now (one atomic load; safe to poll).
    pub fn deliveries(&self) -> u64 {
        self.deliveries.get()
    }

    /// `runtime.byz_delivered` right now (one atomic load; safe to poll).
    pub fn byz_deliveries(&self) -> u64 {
        self.byz_delivered.get()
    }

    /// All counters the benchmark reads.
    pub fn counters(&self) -> RuntimeCounters {
        let c = |name: &str| self.metrics.counter(name).get();
        RuntimeCounters {
            deliveries: self.deliveries.get(),
            byz_delivered: self.byz_delivered.get(),
            messages_sent: c("runtime.messages_sent"),
            bytes_sent: c("runtime.bytes_sent"),
            retransmits: c("runtime.retransmits"),
            pulls_sent: c("runtime.pulls_sent"),
        }
    }

    /// Frames and bytes per message class so far.
    pub fn wire(&self) -> WireTotals {
        WireTotals::read(&self.metrics)
    }

    /// `(frames, bytes)` of every class together so far, without
    /// allocating: safe to read inside a window.
    pub fn wire_sums(&self) -> (u64, u64) {
        let totals = self.metrics.wire().class_totals();
        (
            totals.iter().map(|t| t.frames).sum(),
            totals.iter().map(|t| t.bytes).sum(),
        )
    }

    /// Broadcast ids `node` delivered, in delivery order. Clones the
    /// node's log: never call inside a timed window.
    pub fn delivered_ids(&self, node: u32) -> Vec<u64> {
        self.cluster.delivered_ids(u64::from(node))
    }

    /// Bracha deliveries of `node`, in delivery order.
    pub fn byz_delivered(&self, node: u32) -> Vec<ByzDelivered> {
        self.cluster
            .byz_delivered(u64::from(node))
            .iter()
            .map(|m| ByzDelivered {
                nonce: m.broadcast_id,
                digest: m.trace.unwrap_or(0),
            })
            .collect()
    }

    /// Every delivery path record so far. Clones the collector's log:
    /// never call inside a timed window.
    pub fn path_records(&self) -> Vec<PathRecord> {
        self.cluster
            .tracer()
            .records()
            .iter()
            .map(|r| PathRecord {
                id: r.trace_id,
                node: r.node,
                parent: r.parent,
                at_us: r.at_us,
            })
            .collect()
    }

    /// Fail-stops `node`.
    ///
    /// # Errors
    ///
    /// The cluster's message if the node is unknown or already dead.
    pub fn kill(&mut self, node: u32) -> Result<(), String> {
        self.cluster
            .kill(u64::from(node))
            .map_err(|e| format!("kill: {e}"))
    }

    /// Waits until the survivors have healed around every kill.
    pub fn await_heal(&self, timeout: Duration) -> bool {
        self.cluster.await_heal(timeout)
    }

    /// Stops every node and joins its main thread.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

/// The digest Bracha certifies for `payload`.
pub fn payload_digest(payload: &[u8]) -> u64 {
    lhg_byzantine::digest(payload)
}

// ---------------------------------------------------------- simulator

/// Link timing of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimLink {
    /// Fixed per-hop latency, µs.
    pub base_us: u64,
    /// Uniform extra latency in `0..jitter_us`, µs.
    pub jitter_us: u64,
}

/// Seeded link faults of a simulated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimFaults {
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is delayed so later ones overtake it.
    pub reorder: f64,
    /// Largest such delay, µs.
    pub reorder_window_us: u64,
}

/// A Bracha instance some node originates at a virtual time.
#[derive(Debug, Clone)]
pub struct ByzInstance {
    /// Originating node.
    pub origin: u32,
    /// Instance nonce (unique across the schedule).
    pub nonce: u64,
    /// Payload.
    pub payload: Bytes,
    /// Origination time, virtual µs.
    pub at_us: u64,
}

/// A reliable flood some node originates at a virtual time.
#[derive(Debug, Clone, Copy)]
pub struct FloodInstance {
    /// Originating node.
    pub origin: u32,
    /// Broadcast id.
    pub id: u64,
    /// Origination time, virtual µs.
    pub at_us: u64,
}

/// One delivery of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDelivery {
    /// Delivering node.
    pub node: u32,
    /// Broadcast id (Bracha: the instance nonce).
    pub id: u64,
    /// Virtual delivery time, µs.
    pub time_us: u64,
    /// Neighbour whose message triggered the delivery.
    pub parent: Option<u32>,
    /// Bracha: the certified digest.
    pub digest: Option<u64>,
}

/// Result of one simulated pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Every delivery, in virtual-time order.
    pub deliveries: Vec<SimDelivery>,
    /// Frames and bytes per class.
    pub wire: WireTotals,
    /// Frames the fault injector removed.
    pub dropped: u64,
}

/// The processes of one pass, ready to run.
pub struct SimProcesses(Vec<Box<dyn Process>>);

impl SimProcesses {
    /// One `ByzantineFlooder` per node, quorums from `BrachaConfig::for_overlay`.
    ///
    /// # Errors
    ///
    /// The config's message when (n, k) cannot carry Bracha.
    pub fn bracha(n: usize, k: usize, schedule: &[ByzInstance]) -> Result<Self, String> {
        let cfg = BrachaConfig::for_overlay(n, k).map_err(|e| format!("BrachaConfig: {e}"))?;
        let procs = (0..n as u32)
            .map(|me| {
                let own: Vec<ScheduledByzBroadcast> = schedule
                    .iter()
                    .filter(|b| b.origin == me)
                    .map(|b| ScheduledByzBroadcast {
                        nonce: b.nonce,
                        payload: b.payload.clone(),
                        at_us: b.at_us,
                    })
                    .collect();
                Box::new(ByzantineFlooder::new(me, cfg).with_schedule(own)) as Box<dyn Process>
            })
            .collect();
        Ok(SimProcesses(procs))
    }

    /// One `ReliableFlooder` (default config) per node, ticking until
    /// `horizon_us`.
    pub fn reliable(n: usize, schedule: &[FloodInstance], horizon_us: u64) -> Self {
        let sched: Vec<ScheduledBroadcast> = schedule
            .iter()
            .map(|b| ScheduledBroadcast {
                id: b.id,
                origin: b.origin,
                at_us: b.at_us,
            })
            .collect();
        let procs = (0..n)
            .map(|_| {
                Box::new(ReliableFlooder::new(
                    ReliableConfig::default(),
                    sched.clone(),
                    horizon_us,
                )) as Box<dyn Process>
            })
            .collect();
        SimProcesses(procs)
    }

    /// A flood that does no protocol work: node 0 sends one empty message
    /// to each neighbour at start, and every node relays the first copy
    /// it receives. What remains is the simulator's own per-event cost.
    pub fn noop_flood(n: usize) -> Self {
        SimProcesses(
            (0..n)
                .map(|_| Box::new(NoopFlood { relayed: false }) as Box<dyn Process>)
                .collect(),
        )
    }

    /// Wraps every process in a timing adapter feeding `clock`.
    pub fn timed(self, clock: &Rc<HandlerClock>) -> Self {
        SimProcesses(
            self.0
                .into_iter()
                .map(|inner| {
                    Box::new(Timed {
                        inner,
                        clock: Rc::clone(clock),
                    }) as Box<dyn Process>
                })
                .collect(),
        )
    }

    /// Additionally copies every message `node` receives into `sink`.
    pub fn recording(mut self, node: usize, sink: &Rc<RefCell<Vec<Message>>>) -> Self {
        let inner = std::mem::replace(&mut self.0[node], Box::new(NoopFlood { relayed: true }));
        self.0[node] = Box::new(Recording {
            inner,
            sink: Rc::clone(sink),
        });
        self
    }
}

struct NoopFlood {
    relayed: bool,
}

impl Process for NoopFlood {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if ctx.id().index() == 0 {
            self.relayed = true;
            for w in ctx.neighbors().to_vec() {
                ctx.send(w, Message::new(1, 0, Bytes::new()));
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        if std::mem::replace(&mut self.relayed, true) {
            return;
        }
        for w in ctx.neighbors().to_vec() {
            if w != from {
                ctx.send(w, msg.clone());
            }
        }
    }
}

/// Time spent inside `Process` handlers during a pass, by handler.
#[derive(Debug, Default)]
pub struct HandlerClock {
    /// `(calls, ns)` inside `on_start`.
    pub on_start: Cell<(u64, u64)>,
    /// `(calls, ns)` inside `on_message`.
    pub on_message: Cell<(u64, u64)>,
    /// `(calls, ns)` inside `on_timer`.
    pub on_timer: Cell<(u64, u64)>,
    /// Anti-entropy pull requests that arrived at a node.
    pub pulls: Cell<u64>,
}

impl HandlerClock {
    /// Calls of every handler.
    pub fn calls(&self) -> u64 {
        self.on_start.get().0 + self.on_message.get().0 + self.on_timer.get().0
    }

    /// ns inside every handler.
    pub fn ns(&self) -> u64 {
        self.on_start.get().1 + self.on_message.get().1 + self.on_timer.get().1
    }
}

fn clocked(slot: &Cell<(u64, u64)>, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    let ns = start.elapsed().as_nanos() as u64;
    let (calls, total) = slot.get();
    slot.set((calls + 1, total + ns));
}

struct Timed {
    inner: Box<dyn Process>,
    clock: Rc<HandlerClock>,
}

impl Process for Timed {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        clocked(&self.clock.on_start, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        if msg.broadcast_id == SUMMARY_TAG
            && matches!(decode_summary_payload(msg.payload.clone()), Some((true, _)))
        {
            self.clock.pulls.set(self.clock.pulls.get() + 1);
        }
        clocked(&self.clock.on_message, || {
            self.inner.on_message(from, msg, ctx);
        });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        clocked(&self.clock.on_timer, || self.inner.on_timer(token, ctx));
    }
}

struct Recording {
    inner: Box<dyn Process>,
    sink: Rc<RefCell<Vec<Message>>>,
}

impl Process for Recording {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        self.sink.borrow_mut().push(msg.clone());
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.inner.on_timer(token, ctx);
    }
}

/// A `FaultInjector` applying `faults` to every link.
pub fn fault_injector(seed: u64, faults: SimFaults) -> FaultInjector {
    let mut injector = FaultInjector::new(seed);
    injector.set_default_rates(LinkFaults {
        drop: faults.drop,
        duplicate: faults.duplicate,
        reorder: faults.reorder,
        reorder_window_us: faults.reorder_window_us,
        ..LinkFaults::default()
    });
    injector
}

/// A simulation ready to run one pass.
pub struct SimRun {
    sim: Simulation,
    metrics: Arc<MetricsRegistry>,
}

impl SimRun {
    /// `Simulation::new` over `overlay` with a metrics registry attached
    /// (that is where frames and bytes are counted) and, if given, a
    /// fault injector seeded like the links.
    pub fn new(overlay: &Overlay, link: SimLink, seed: u64, faults: Option<SimFaults>) -> Self {
        let mut sim = Simulation::new(
            &overlay.graph,
            LinkModel {
                base_latency_us: link.base_us,
                jitter_us: link.jitter_us,
            },
            seed,
        );
        let metrics = Arc::new(MetricsRegistry::new());
        sim.with_metrics(Arc::clone(&metrics));
        if let Some(f) = faults {
            sim.with_faults(Arc::new(fault_injector(seed, f)));
        }
        SimRun { sim, metrics }
    }

    /// `Simulation::run` until the queue drains or `horizon_us` passes.
    pub fn run(mut self, processes: SimProcesses, horizon_us: u64) -> SimOutcome {
        let report = self.sim.run(processes.0, horizon_us);
        SimOutcome {
            deliveries: report
                .deliveries
                .iter()
                .map(|d| SimDelivery {
                    node: d.node.index() as u32,
                    id: d.broadcast_id,
                    time_us: d.time,
                    parent: d.parent.map(|p| p.index() as u32),
                    digest: d.trace,
                })
                .collect(),
            wire: WireTotals::read(&self.metrics),
            dropped: report.messages_dropped,
        }
    }
}
