//! Deterministic discrete-event network simulator.
//!
//! Processes sit on the nodes of an overlay topology; links carry messages
//! with a configurable base latency plus seeded jitter. Events are processed
//! in (time, sequence) order, so runs are bit-for-bit reproducible for a
//! given seed. Crash times model fail-stop processes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lhg_graph::{CsrGraph, Graph, NodeId};
use lhg_trace::{PathRecord, TraceCollector};

use crate::codec::frame_len;
use crate::fault::FaultInjector;
use crate::message::Message;
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::wirecost::WireAccountant;

/// Simulated time in microseconds.
pub type Time = u64;

/// Link timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// Fixed per-hop latency (µs).
    pub base_latency_us: u64,
    /// Additional uniform jitter in `0..jitter_us` (µs); 0 disables jitter.
    pub jitter_us: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            base_latency_us: 1_000,
            jitter_us: 200,
        }
    }
}

/// What a process may do while handling an event.
pub struct Context<'a> {
    now: Time,
    self_id: NodeId,
    neighbors: &'a [NodeId],
    effects: Effects,
}

/// What a process did while handling one event. The [`Simulation`] keeps
/// one set and lends it to every event's [`Context`]; drained after the
/// event and put back, its buffers keep their capacity.
#[derive(Default)]
struct Effects {
    outbox: Vec<(NodeId, Message)>,
    /// Which entries of `outbox` are connection set-up, by index.
    setup: Vec<usize>,
    delivered: Vec<Message>,
    timers: Vec<(Time, u64)>,
}

impl Context<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// This process's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Overlay neighbors of this process.
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Sends `msg` to `to` over the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor — the overlay is the only network.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        assert!(
            self.neighbors.contains(&to),
            "{to} is not a neighbor of {}",
            self.self_id
        );
        self.effects.outbox.push((to, msg));
    }

    /// Sends `msg` to `to` as connection set-up: an attached fault
    /// injector's partitions cut it like any frame, its drop, duplicate and
    /// delay rates do not touch it — a real transport opens and closes
    /// connections reliably, whatever happens to the frames inside them.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor.
    pub fn send_setup(&mut self, to: NodeId, msg: Message) {
        self.effects.setup.push(self.effects.outbox.len());
        self.send(to, msg);
    }

    /// Delivers `msg` to the local application (records the delivery).
    pub fn deliver(&mut self, msg: Message) {
        self.effects.delivered.push(msg);
    }

    /// Schedules [`Process::on_timer`] to fire on this process after
    /// `delay` (relative to now). `token` is handed back on expiry so one
    /// process can keep several timers apart.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.effects.timers.push((self.now + delay, token));
    }
}

/// A process hosted on one overlay node.
pub trait Process {
    /// Called once at time 0.
    fn on_start(&mut self, ctx: &mut Context<'_>);
    /// Called on each message arrival.
    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>);
    /// Called when a timer scheduled via [`Context::set_timer`] expires.
    /// Default: ignored.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }
}

/// Per-node delivery record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub node: NodeId,
    /// Simulated time of the application-level delivery.
    pub time: Time,
    /// Hop count of the delivered copy.
    pub hops: u32,
    /// Broadcast id delivered.
    pub broadcast_id: u64,
    /// The neighbor the delivered copy arrived from; `None` when the node
    /// delivered its own broadcast (origin) or delivered from a timer.
    pub parent: Option<NodeId>,
    /// Trace id carried by the delivered copy, if the origin enabled
    /// tracing.
    pub trace: Option<u64>,
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// All application-level deliveries in time order.
    pub deliveries: Vec<Delivery>,
    /// Total messages put on links.
    pub messages_sent: u64,
    /// Messages removed by fault injection (drops and partition cuts).
    pub messages_dropped: u64,
    /// Time of the last processed event.
    pub end_time: Time,
}

impl SimReport {
    /// First delivery time per node (index = node id), `None` if never.
    #[must_use]
    pub fn first_delivery_times(&self, n: usize) -> Vec<Option<Time>> {
        let mut out = vec![None; n];
        for d in &self.deliveries {
            let slot = &mut out[d.node.index()];
            if slot.is_none() {
                *slot = Some(d.time);
            }
        }
        out
    }
}

/// The discrete-event simulator.
pub struct Simulation {
    topology: CsrGraph,
    link: LinkModel,
    down: Vec<Vec<(Time, Time)>>,
    rng: StdRng,
    metrics: Option<Arc<MetricsRegistry>>,
    tracer: Option<Arc<TraceCollector>>,
    faults: Option<Arc<FaultInjector>>,
    /// The run in progress, between [`Simulation::start`] and
    /// [`Simulation::finish`].
    run: Option<Run>,
    /// Lent to each event's [`Context`] in turn.
    effects: Effects,
}

impl Simulation {
    /// Creates a simulation over `graph` with the given link model and seed.
    #[must_use]
    pub fn new(graph: &Graph, link: LinkModel, seed: u64) -> Self {
        Simulation {
            topology: CsrGraph::from_graph(graph),
            link,
            down: vec![Vec::new(); graph.node_count()],
            rng: StdRng::seed_from_u64(seed),
            metrics: None,
            tracer: None,
            faults: None,
            run: None,
            effects: Effects::default(),
        }
    }

    /// Attaches a metrics registry; the run records counters
    /// `sim.messages_sent` / `sim.bytes_sent` / `sim.deliveries` and
    /// histogram `sim.delivery_latency_us` (simulated µs from time 0).
    /// A frame's bytes are [`frame_len`]'s, length prefix included, as on
    /// a TCP link.
    pub fn with_metrics(&mut self, metrics: Arc<MetricsRegistry>) -> &mut Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a trace collector: every delivery of a message whose
    /// [`Message::trace`] is set contributes a [`PathRecord`] (parent =
    /// the neighbor the copy arrived from, timestamped with virtual time),
    /// from which the collector reconstructs the realized spanning tree.
    pub fn with_trace(&mut self, tracer: Arc<TraceCollector>) -> &mut Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a fault injector: every outbound message consults
    /// [`FaultInjector::decide`] (with virtual time as the clock), so
    /// drops, duplicates, extra delays, reorders, and partitions apply.
    pub fn with_faults(&mut self, faults: Arc<FaultInjector>) -> &mut Self {
        self.faults = Some(faults);
        self
    }

    /// Fail-stops `node` at `time` (events at or after `time` are dropped).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn crash_at(&mut self, node: NodeId, time: Time) -> &mut Self {
        self.down_between(node, time, Time::MAX)
    }

    /// Takes `node` offline for `[from, until)`: events addressed to it in
    /// that window are dropped, and it neither sends nor handles timers.
    /// Process state survives the outage — this models a network-detached
    /// (fail-recover) node, not an amnesiac restart.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn down_between(&mut self, node: NodeId, from: Time, until: Time) -> &mut Self {
        assert!(
            node.index() < self.topology.node_count(),
            "{node} out of bounds"
        );
        self.down[node.index()].push((from, until));
        self
    }

    /// Brings `node` back at `time`: every outage of it still open then
    /// ends there. With [`Self::crash_at`], how a harness kills and revives
    /// a node in the middle of a run.
    pub fn revive_at(&mut self, node: NodeId, time: Time) -> &mut Self {
        for (_, until) in &mut self.down[node.index()] {
            *until = (*until).min(time);
        }
        self
    }

    fn is_down(&self, node: NodeId, time: Time) -> bool {
        self.down[node.index()]
            .iter()
            .any(|&(f, u)| time >= f && time < u)
    }

    /// Runs the simulation with one boxed process per node until the event
    /// queue drains or `max_time` passes: [`Self::start`], one
    /// [`Self::run_until`], [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `processes.len()` differs from the node count.
    pub fn run(&mut self, processes: Vec<Box<dyn Process>>, max_time: Time) -> SimReport {
        self.start(processes);
        self.run_until(max_time);
        self.finish()
    }

    /// Begins a run: every process that is up at time 0 gets its
    /// [`Process::on_start`]. Advance it with [`Self::run_until`], end it
    /// with [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `processes.len()` differs from the node count.
    pub fn start(&mut self, processes: Vec<Box<dyn Process>>) {
        let n = self.topology.node_count();
        assert_eq!(processes.len(), n, "one process per node required");
        let metrics = self.metrics.as_ref();
        let mut run = Run {
            processes,
            queue: BinaryHeap::new(),
            events: Slots::default(),
            seq: 0,
            fault_seq: 0,
            now: 0,
            report: SimReport {
                deliveries: Vec::new(),
                messages_sent: 0,
                messages_dropped: 0,
                end_time: 0,
            },
            m_msgs: metrics.map(|m| m.counter("sim.messages_sent")),
            m_bytes: metrics.map(|m| m.counter("sim.bytes_sent")),
            m_delivs: metrics.map(|m| m.counter("sim.deliveries")),
            m_dropped: metrics.map(|m| m.counter("sim.messages_dropped")),
            m_latency: metrics.map(|m| m.histogram("sim.delivery_latency_us")),
            m_wire: metrics.map(|m| m.wire()),
        };
        for v in (0..n).map(NodeId) {
            if !self.is_down(v, 0) {
                self.dispatch(&mut run, v, 0, None);
            }
        }
        self.run = Some(run);
    }

    /// Handles every queued event due at or before `time`, in (time,
    /// sequence) order, and moves [`Self::now`] there.
    ///
    /// # Panics
    ///
    /// Panics outside a run ([`Self::start`] … [`Self::finish`]).
    pub fn run_until(&mut self, time: Time) {
        let mut run = self.run.take().expect("run_until outside a run");
        while let Some(&Reverse((at, _, node, payload))) = run.queue.peek() {
            if at > time {
                break;
            }
            run.queue.pop();
            let (node, event) = if node & TIMER != 0 {
                (node & !TIMER, Event::Timer { token: payload })
            } else {
                let (from, msg) = run.events.take(payload as usize);
                (node, Event::Message { from, msg })
            };
            run.report.end_time = run.report.end_time.max(at);
            if !self.is_down(NodeId(node), at) {
                self.dispatch(&mut run, NodeId(node), at, Some(event));
            }
        }
        run.now = run.now.max(time);
        self.run = Some(run);
    }

    /// Ends the run and hands back its report.
    ///
    /// # Panics
    ///
    /// Panics outside a run.
    pub fn finish(&mut self) -> SimReport {
        self.run.take().expect("finish outside a run").report
    }

    /// How far the run in progress has been advanced.
    ///
    /// # Panics
    ///
    /// Panics outside a run.
    #[must_use]
    pub fn now(&self) -> Time {
        self.run.as_ref().expect("now outside a run").now
    }

    /// Arms `token` on `node`'s process at [`Self::now`]: the next
    /// [`Self::run_until`] hands it to [`Process::on_timer`] before anything
    /// later. How a harness reaches into a run between two slices.
    ///
    /// # Panics
    ///
    /// Panics outside a run.
    pub fn inject_timer(&mut self, node: NodeId, token: u64) {
        let run = self.run.as_mut().expect("inject_timer outside a run");
        run.push_timer(run.now, node, token);
    }

    /// Hands one event (`None`: the start) to `at`'s process, then drains
    /// what it did into the report and the event queue.
    fn dispatch(&mut self, run: &mut Run, at: NodeId, time: Time, event: Option<Event>) {
        let mut ctx = Context {
            now: time,
            self_id: at,
            neighbors: self.topology.neighbors(at),
            effects: std::mem::take(&mut self.effects),
        };
        let process = &mut run.processes[at.index()];
        // `parent` is the neighbor whose message was being handled, if any.
        let parent = match event {
            None => {
                process.on_start(&mut ctx);
                None
            }
            Some(Event::Message { from, msg }) => {
                process.on_message(from, msg, &mut ctx);
                Some(from)
            }
            Some(Event::Timer { token }) => {
                process.on_timer(token, &mut ctx);
                None
            }
        };
        let mut fx = ctx.effects;
        for d in fx.delivered.drain(..) {
            if let Some(c) = &run.m_delivs {
                c.inc();
            }
            if let Some(h) = &run.m_latency {
                h.record(time);
            }
            if let (Some(t), Some(trace_id)) = (&self.tracer, d.trace) {
                t.record(PathRecord {
                    trace_id,
                    node: at.index() as u32,
                    parent: parent.map(|p| p.index() as u32),
                    hops: d.hops,
                    at_us: time,
                });
            }
            run.report.deliveries.push(Delivery {
                node: at,
                time,
                hops: d.hops,
                broadcast_id: d.broadcast_id,
                parent,
                trace: d.trace,
            });
        }
        for (i, (to, msg)) in fx.outbox.drain(..).enumerate() {
            let setup = fx.setup.contains(&i);
            // Fault decisions key on a per-message counter that advances
            // even for dropped frames, so a plan's verdicts line up
            // run-to-run regardless of what earlier faults removed.
            let (from, dest) = (at.index() as u32, to.index() as u32);
            let decided;
            let copies: &[u64] = match &self.faults {
                Some(f) if setup && f.blocked(from, dest, time) => &[],
                Some(f) if !setup => {
                    decided = f.decide(from, dest, time, run.fault_seq);
                    run.fault_seq += 1;
                    &decided
                }
                _ => &[0],
            };
            if copies.is_empty() {
                run.report.messages_dropped += 1;
                if let Some(c) = &run.m_dropped {
                    c.inc();
                }
                continue;
            }
            for &extra in copies {
                run.report.messages_sent += 1;
                if let Some(c) = &run.m_msgs {
                    c.inc();
                }
                let bytes = frame_len(&msg) as u64;
                if let Some(c) = &run.m_bytes {
                    c.add(bytes);
                }
                if let Some(w) = &run.m_wire {
                    w.record(from, dest, msg.broadcast_id, bytes);
                }
                let latency = sample_latency_with(self.link, &mut self.rng) + extra;
                run.push_message(time + latency, to, at, msg.clone());
            }
        }
        for (fire_at, token) in fx.timers.drain(..) {
            run.push_timer(fire_at, at, token);
        }
        fx.setup.clear();
        self.effects = fx;
    }
}

/// What an event hands its process: a message, or a timer's token.
enum Event {
    Message { from: NodeId, msg: Message },
    Timer { token: u64 },
}

/// An in-flight message's slot: the message and its sender, or, vacant,
/// the next vacant slot, if any.
enum Slot {
    Message(NodeId, Message),
    Free(Option<usize>),
}

/// In-flight messages. A message is taken out of its slot when its event
/// pops and the slot is reused, so a run holds what is in flight, not
/// everything it ever carried. Vacated slots are chained through
/// themselves: the free list costs no allocation of its own. A timer needs
/// no slot: its token rides in its queue entry.
#[derive(Default)]
struct Slots {
    events: Vec<Slot>,
    free: Option<usize>,
}

impl Slots {
    fn put(&mut self, event: Slot) -> usize {
        match self.free {
            Some(slot) => {
                let Slot::Free(next) = std::mem::replace(&mut self.events[slot], event) else {
                    unreachable!("the free list links vacant slots only");
                };
                self.free = next;
                slot
            }
            None => {
                self.events.push(event);
                self.events.len() - 1
            }
        }
    }

    fn take(&mut self, slot: usize) -> (NodeId, Message) {
        let vacant = Slot::Free(self.free.replace(slot));
        let Slot::Message(from, msg) = std::mem::replace(&mut self.events[slot], vacant) else {
            unreachable!("a queued message owns its slot");
        };
        (from, msg)
    }
}

/// The tag bit on a queue entry's node field that marks a timer, whose
/// last field is then its token rather than a message's slot.
const TIMER: usize = 1 << (usize::BITS - 1);

/// The state of a run in progress: [`Simulation::start`] makes it,
/// [`Simulation::finish`] turns it into the report.
struct Run {
    processes: Vec<Box<dyn Process>>,
    /// (time, seq, node, payload): a message's slot, or a timer's token
    /// when the node carries the [`TIMER`] bit. 32 bytes; `seq` is unique,
    /// so neither of the last two ever decides the order.
    queue: BinaryHeap<Reverse<(Time, u64, usize, u64)>>,
    events: Slots,
    seq: u64,
    fault_seq: u64,
    now: Time,
    report: SimReport,
    m_msgs: Option<Arc<Counter>>,
    m_bytes: Option<Arc<Counter>>,
    m_delivs: Option<Arc<Counter>>,
    m_dropped: Option<Arc<Counter>>,
    m_latency: Option<Arc<Histogram>>,
    m_wire: Option<Arc<WireAccountant>>,
}

impl Run {
    fn push_message(&mut self, at: Time, to: NodeId, from: NodeId, msg: Message) {
        let slot = self.events.put(Slot::Message(from, msg));
        self.push(at, to.index(), slot as u64);
    }

    fn push_timer(&mut self, at: Time, node: NodeId, token: u64) {
        self.push(at, node.index() | TIMER, token);
    }

    fn push(&mut self, at: Time, node: usize, payload: u64) {
        self.queue.push(Reverse((at, self.seq, node, payload)));
        self.seq += 1;
    }
}

/// Samples one link latency from `link` using `rng`.
fn sample_latency_with(link: LinkModel, rng: &mut StdRng) -> Time {
    let jitter = if link.jitter_us == 0 {
        0
    } else {
        rng.random_range(0..link.jitter_us)
    };
    link.base_latency_us + jitter
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Echoes nothing; origin sends one message to each neighbor at start.
    struct Pinger {
        is_origin: bool,
    }

    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.is_origin {
                for &w in &ctx.neighbors().to_vec() {
                    ctx.send(w, Message::new(1, ctx.id().index() as u32, Bytes::new()));
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Message, ctx: &mut Context<'_>) {
            ctx.deliver(msg);
        }
    }

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i));
        }
        g
    }

    fn no_jitter() -> LinkModel {
        LinkModel {
            base_latency_us: 100,
            jitter_us: 0,
        }
    }

    #[test]
    fn ping_reaches_neighbors_at_base_latency() {
        let g = path(3);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: false }),
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.messages_sent, 2);
        assert_eq!(report.deliveries.len(), 2);
        assert!(report.deliveries.iter().all(|d| d.time == 100));
        let firsts = report.first_delivery_times(3);
        assert_eq!(firsts, vec![Some(100), None, Some(100)]);
    }

    #[test]
    fn crashed_receiver_drops_message() {
        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.crash_at(NodeId(1), 50);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.messages_sent, 1);
        assert!(
            report.deliveries.is_empty(),
            "receiver crashed before arrival"
        );
    }

    #[test]
    fn crash_after_arrival_does_not_drop() {
        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.crash_at(NodeId(1), 101);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.deliveries.len(), 1);
    }

    #[test]
    fn earliest_crash_time_wins() {
        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.crash_at(NodeId(1), 500)
            .crash_at(NodeId(1), 50)
            .crash_at(NodeId(1), 700);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert!(report.deliveries.is_empty());
    }

    #[test]
    fn max_time_cuts_the_run() {
        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 10);
        assert!(
            report.deliveries.is_empty(),
            "latency 100 exceeds max_time 10"
        );
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let g = path(3);
        let model = LinkModel {
            base_latency_us: 100,
            jitter_us: 50,
        };
        let run = |seed| {
            let mut sim = Simulation::new(&g, model, seed);
            let procs: Vec<Box<dyn Process>> = vec![
                Box::new(Pinger { is_origin: false }),
                Box::new(Pinger { is_origin: true }),
                Box::new(Pinger { is_origin: false }),
            ];
            sim.run(procs, 1_000_000)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn metrics_record_traffic_and_latency() {
        let g = path(3);
        let reg = Arc::new(MetricsRegistry::new());
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.with_metrics(Arc::clone(&reg));
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: false }),
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(reg.counter("sim.messages_sent").get(), report.messages_sent);
        assert_eq!(
            reg.counter("sim.deliveries").get(),
            report.deliveries.len() as u64
        );
        let lat = reg.histogram("sim.delivery_latency_us").summary();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 100);
        // Two pings, each counted as the 15-byte frame a TCP link carries:
        // length prefix, flag byte, id, origin and hops.
        assert_eq!(reg.counter("sim.bytes_sent").get(), 2 * 15);
    }

    #[test]
    fn traced_flood_reconstructs_spanning_tree() {
        use std::collections::BTreeSet;

        const TRACE_ID: u64 = 0xFEED;

        /// Floods one traced broadcast: deliver + forward on first receipt.
        struct Flooder {
            is_origin: bool,
            seen: bool,
        }
        impl Process for Flooder {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                if self.is_origin {
                    self.seen = true;
                    let msg =
                        Message::new(1, ctx.id().index() as u32, Bytes::new()).with_trace(TRACE_ID);
                    ctx.deliver(msg.clone());
                    for &w in &ctx.neighbors().to_vec() {
                        ctx.send(w, msg.forwarded());
                    }
                }
            }
            fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
                if self.seen {
                    return;
                }
                self.seen = true;
                ctx.deliver(msg.clone());
                for &w in &ctx.neighbors().to_vec() {
                    if w != from {
                        ctx.send(w, msg.forwarded());
                    }
                }
            }
        }

        let g = path(4); // 0-1-2-3, origin 0 → chain tree
        let tracer = Arc::new(TraceCollector::new());
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.with_trace(Arc::clone(&tracer));
        let procs: Vec<Box<dyn Process>> = (0..4)
            .map(|v| {
                Box::new(Flooder {
                    is_origin: v == 0,
                    seen: false,
                }) as Box<dyn Process>
            })
            .collect();
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.deliveries.len(), 4);
        assert_eq!(report.deliveries[0].parent, None, "origin has no parent");
        assert!(report.deliveries[1..].iter().all(|d| d.parent.is_some()));
        assert!(report.deliveries.iter().all(|d| d.trace == Some(TRACE_ID)));

        let trace = tracer.trace(TRACE_ID).expect("trace collected");
        assert_eq!(trace.origin(), Some(0));
        assert!(trace.is_spanning(&BTreeSet::from([0, 1, 2, 3])));
        assert_eq!(trace.path_from_origin(3), Some(vec![0, 1, 2, 3]));
        assert_eq!(trace.max_hops(), 3);
        assert_eq!(trace.eccentricity_us(), 300, "3 hops × 100µs");
    }

    #[test]
    fn fault_injector_drops_everything() {
        use crate::fault::{FaultInjector, LinkFaults};

        let g = path(2);
        let mut inj = FaultInjector::new(1);
        inj.set_default_rates(LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        });
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.with_faults(Arc::new(inj));
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.messages_sent, 0);
        assert_eq!(report.messages_dropped, 1);
        assert!(report.deliveries.is_empty());
    }

    #[test]
    fn fault_injector_duplicates_deliver_twice() {
        use crate::fault::{FaultInjector, LinkFaults};

        let g = path(2);
        let mut inj = FaultInjector::new(1);
        inj.set_default_rates(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        });
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.with_faults(Arc::new(inj));
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Pinger { is_origin: true }),
            Box::new(Pinger { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(report.messages_sent, 2, "original plus duplicate");
        assert_eq!(report.deliveries.len(), 2);
    }

    #[test]
    fn down_window_detaches_then_recovers() {
        /// Origin pings its neighbor at start and again at t = 10_000.
        struct TwoShot {
            is_origin: bool,
        }
        impl Process for TwoShot {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                if self.is_origin {
                    for &w in &ctx.neighbors().to_vec() {
                        ctx.send(w, Message::new(1, 0, Bytes::new()));
                    }
                    ctx.set_timer(10_000, 0);
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: Message, ctx: &mut Context<'_>) {
                ctx.deliver(msg);
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
                for &w in &ctx.neighbors().to_vec() {
                    ctx.send(w, Message::new(2, 0, Bytes::new()));
                }
            }
        }

        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        sim.down_between(NodeId(1), 0, 5_000);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(TwoShot { is_origin: true }),
            Box::new(TwoShot { is_origin: false }),
        ];
        let report = sim.run(procs, 1_000_000);
        assert_eq!(
            report.deliveries.len(),
            1,
            "first ping lands in the outage; the second arrives after recovery"
        );
        assert_eq!(report.deliveries[0].broadcast_id, 2);
        assert_eq!(report.deliveries[0].time, 10_100);
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        use crate::fault::{FaultInjector, LinkFaults};

        let g = path(4);
        let run = || {
            let mut inj = FaultInjector::new(33);
            inj.set_default_rates(LinkFaults {
                drop: 0.4,
                duplicate: 0.2,
                ..LinkFaults::default()
            });
            let mut sim = Simulation::new(&g, no_jitter(), 5);
            sim.with_faults(Arc::new(inj));
            let procs: Vec<Box<dyn Process>> = vec![
                Box::new(Pinger { is_origin: true }),
                Box::new(Pinger { is_origin: false }),
                Box::new(Pinger { is_origin: false }),
                Box::new(Pinger { is_origin: false }),
            ];
            sim.run(procs, 1_000_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timers_ride_in_their_queue_entries_not_in_message_slots() {
        /// Arms a thousand timers at start; delivers on the last.
        struct Alarms;
        impl Process for Alarms {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                (1..=1_000).for_each(|t| ctx.set_timer(t, t));
            }
            fn on_message(&mut self, _: NodeId, _: Message, _: &mut Context<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
                if token == 1_000 {
                    ctx.deliver(Message::new(token, 0, Bytes::new()));
                }
            }
        }
        let mut sim = Simulation::new(&path(1), no_jitter(), 0);
        sim.start(vec![Box::new(Alarms)]);
        let run = sim.run.as_ref().expect("a run");
        assert_eq!((run.queue.len(), run.events.events.len()), (1_000, 0));
        assert_eq!(size_of_val(run.queue.peek().expect("queued")), 32);
        sim.run_until(u64::MAX);
        assert_eq!(sim.finish().deliveries[0].time, 1_000);
    }

    #[test]
    #[should_panic(expected = "is not a neighbor")]
    fn send_to_non_neighbor_is_rejected() {
        struct Bad;
        impl Process for Bad {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(NodeId(2), Message::new(0, 0, Bytes::new()));
            }
            fn on_message(&mut self, _: NodeId, _: Message, _: &mut Context<'_>) {}
        }
        let g = path(3); // 0-1-2: node 0 cannot reach 2 directly
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        let procs: Vec<Box<dyn Process>> = vec![
            Box::new(Bad),
            Box::new(Pinger { is_origin: false }),
            Box::new(Pinger { is_origin: false }),
        ];
        let _ = sim.run(procs, 1_000);
    }

    #[test]
    #[should_panic(expected = "one process per node")]
    fn process_count_mismatch_is_rejected() {
        let g = path(2);
        let mut sim = Simulation::new(&g, no_jitter(), 0);
        let _ = sim.run(vec![], 1_000);
    }
}
