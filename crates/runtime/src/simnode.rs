//! The second driver: [`NodeCore`] on the discrete-event simulator.
//!
//! [`SimNode`] is a [`lhg_net::sim::Process`] that feeds the same core the
//! socket loop in [`crate::node`] feeds, with virtual time as the clock —
//! so detection → crash wave → heal → re-flood, degraded mode and the
//! rejoin handshake run as the *real* protocol, deterministically, and a
//! membership failure seen on TCP can be replayed from one seed.
//!
//! The simulation's topology is the complete graph K_n: any member may be
//! dialed, and each node's own replica decides whom it talks to. A link is
//! a handshake of hello-class frames the driver keeps to itself — empty
//! payload to open, [`ACK`] to accept, [`FIN`] to close or refuse (also
//! the answer to a frame from a peer this side has no link to, as a TCP
//! reset would be). An open request unanswered within
//! [`RuntimeConfig::dial_timeout`] is a failed dial. A crashed node is
//! silent rather than refusing, so survivors learn of it from heartbeat
//! silence alone — the general case sockets shortcut with an EOF.
//!
//! [`SimCluster`] is the harness: outages (crash, optional revival),
//! scheduled inputs, then [`SimCluster::run`]. A revival reboots a blank
//! core the way [`crate::Cluster::rejoin`] does: the survivors' replica
//! with this node admitted, a pending `JOIN`, the still-dead members as
//! initial crashes, a fresh life for its wave nonces.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::{Constraint, LhgError};
use lhg_graph::{Graph, NodeId};
use lhg_net::message::Message;
use lhg_net::metrics::MetricsRegistry;
use lhg_net::sim::{Context, LinkModel, Process, SimReport, Simulation, Time};
use lhg_trace::{merge_timelines, FlightRecorder};

use crate::core::{Action, BootOpts, Event, NodeCore};
use crate::wire;
use crate::RuntimeConfig;

/// Handshake payload accepting an open request.
pub const ACK: u8 = 1;
/// Handshake payload closing (or refusing) a link.
pub const FIN: u8 = 2;

const TICK: u64 = 0;
const REVIVE: u64 = 1;
const INPUT: u64 = 1 << 32;
const DIAL: u64 = 1 << 33;

/// Something a scenario makes happen at one node at a scheduled time.
#[derive(Debug, Clone)]
pub enum SimInput {
    /// Handed straight to the core (a broadcast to originate, …).
    Event(Event),
    /// Arrives as if `from` had sent it — through the driver's link
    /// checks, like any frame (forged notices, bad hellos).
    Wire {
        /// The claimed sender (must be a member).
        from: MemberId,
        /// The frame.
        msg: Message,
    },
}

/// One node's state, readable after the run.
pub struct SimNodeState {
    /// The node's core (the rebooted one, after a revival).
    pub core: NodeCore,
    /// Bracha deliveries, in delivery order.
    pub byz_delivered: Vec<Message>,
}

/// What every node of one run shares.
struct World {
    config: RuntimeConfig,
    bootstrap: DynamicOverlay,
    roster: BTreeSet<MemberId>,
    metrics: Arc<MetricsRegistry>,
    outages: Vec<(MemberId, Time, Option<Time>)>,
    tick_us: Time,
    dial_timeout_us: Time,
}

/// A [`NodeCore`] hosted on one simulator node.
pub struct SimNode {
    id: MemberId,
    world: Rc<World>,
    state: Rc<RefCell<SimNodeState>>,
    recorder: Arc<FlightRecorder>,
    out: Vec<Action>,
    /// Peers this side holds an open link to, and open requests in flight
    /// with their deadlines.
    up: BTreeSet<MemberId>,
    dialing: BTreeMap<MemberId, Time>,
    inputs: Vec<(Time, Option<SimInput>)>,
    revive_at: Option<Time>,
}

fn node(member: MemberId) -> NodeId {
    NodeId(member as usize)
}

impl SimNode {
    fn hello(&self, payload: &'static [u8]) -> Message {
        let id = wire::hello_id(self.id);
        Message::new(id, self.id as u32, Bytes::from_static(payload))
    }

    /// The event (if any), a tick, then the actions both produced.
    fn step(&mut self, event: Option<Event>, ctx: &mut Context<'_>) {
        {
            let core = &mut self.state.borrow_mut().core;
            if let Some(ev) = event {
                core.handle(ev, ctx.now(), &mut self.out);
            }
            core.tick(ctx.now(), &mut self.out);
        }
        let mut out = std::mem::take(&mut self.out);
        for action in out.drain(..) {
            match action {
                Action::Send { to, msg } if self.up.contains(&to) => ctx.send(node(to), msg),
                Action::Send { .. } => {}
                Action::Flood { msg, except } => {
                    for &to in self.up.iter().filter(|&&p| Some(p) != except) {
                        ctx.send(node(to), msg.clone());
                    }
                }
                Action::Dial { peer } => {
                    let timeout = self.world.dial_timeout_us;
                    self.dialing.insert(peer, ctx.now() + timeout);
                    ctx.send(node(peer), self.hello(&[]));
                    ctx.set_timer(timeout, DIAL | peer);
                }
                Action::Close { peer } => {
                    if self.up.remove(&peer) {
                        ctx.send(node(peer), self.hello(&[FIN]));
                    }
                }
                Action::Deliver { msg, .. } => ctx.deliver(msg),
                Action::ByzDeliver { msg } => {
                    self.state.borrow_mut().byz_delivered.push(msg);
                    self.world.metrics.counter("runtime.byz_delivered").inc();
                }
            }
        }
        self.out = out;
    }

    /// A hello-class frame from `peer` claiming to be `claimed`.
    fn on_handshake(
        &mut self,
        peer: MemberId,
        claimed: MemberId,
        kind: Option<u8>,
        ctx: &mut Context<'_>,
    ) {
        match kind {
            // An open request (also the answer to ours, if both dialed at
            // once). The core rules on the claimed id; a replaced link is a
            // new connection to it.
            None => {
                let dialed = self.dialing.remove(&peer).is_some();
                let accepted = {
                    let core = &mut self.state.borrow_mut().core;
                    let up = Event::LinkUp {
                        peer: claimed,
                        dialed,
                    };
                    core.handle(up, ctx.now(), &mut self.out);
                    let accepted = core.links().contains(&claimed);
                    if accepted && claimed != peer {
                        let down = Event::LinkDown { peer: claimed };
                        core.handle(down, ctx.now(), &mut self.out);
                    }
                    accepted && claimed == peer
                };
                if accepted {
                    self.up.insert(peer);
                }
                ctx.send(
                    node(peer),
                    self.hello(if accepted { &[ACK] } else { &[FIN] }),
                );
                self.step(None, ctx);
            }
            Some(ACK) if self.dialing.remove(&peer).is_some() => {
                self.up.insert(peer);
                let dialed = true;
                self.step(Some(Event::LinkUp { peer, dialed }), ctx);
            }
            // An answer that outlived its request: nobody is waiting.
            Some(ACK) if !self.up.contains(&peer) => ctx.send(node(peer), self.hello(&[FIN])),
            Some(FIN) if self.up.remove(&peer) => self.step(Some(Event::LinkDown { peer }), ctx),
            Some(_) => {}
        }
    }

    /// Boots a blank core the way a rejoin does; see the module docs.
    fn reboot(&mut self, ctx: &mut Context<'_>) {
        let (w, now) = (&self.world, ctx.now());
        let dead: BTreeSet<MemberId> = (w.outages.iter())
            .filter(|&&(m, from, until)| {
                m != self.id && now >= from && until.is_none_or(|u| now < u)
            })
            .map(|o| o.0)
            .collect();
        let mut overlay = w.bootstrap.clone();
        let gone: Vec<MemberId> = dead.iter().copied().chain([self.id]).collect();
        if overlay.crash_many(&gone).is_ok() {
            let _ = overlay.admit(self.id);
        }
        let opts = BootOpts {
            announce_join: true,
            initial_crashes: dead,
            life: (w.roster.len() as u64 + self.id) as u32,
        };
        let (metrics, recorder) = (Arc::clone(&w.metrics), Arc::clone(&self.recorder));
        let roster = w.roster.clone();
        if let Ok(core) = NodeCore::new(
            self.id, overlay, roster, &w.config, metrics, recorder, opts, now,
        ) {
            self.state.borrow_mut().core = core;
        }
        self.up.clear();
        self.dialing.clear();
        ctx.set_timer(w.tick_us, TICK);
        self.step(None, ctx);
    }
}

impl Process for SimNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &(at, _)) in self.inputs.iter().enumerate() {
            ctx.set_timer(at, INPUT | i as u64);
        }
        if let Some(at) = self.revive_at {
            ctx.set_timer(at, REVIVE);
        }
        ctx.set_timer(self.world.tick_us, TICK);
        self.step(None, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        let peer = from.index() as MemberId;
        if let Some(claimed) = wire::hello_peer(msg.broadcast_id) {
            self.on_handshake(peer, claimed, msg.payload.first().copied(), ctx);
        } else if self.up.contains(&peer) {
            self.step(Some(Event::Frame { from: peer, msg }), ctx);
        } else if !self.dialing.contains_key(&peer) {
            // The sender believes in a link this side closed or never had.
            ctx.send(from, self.hello(&[FIN]));
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match token {
            TICK => {
                ctx.set_timer(self.world.tick_us, TICK);
                self.step(None, ctx);
            }
            REVIVE => self.reboot(ctx),
            t if t & DIAL != 0 => {
                let peer = t ^ DIAL;
                if self.dialing.get(&peer).is_some_and(|&due| ctx.now() >= due) {
                    self.dialing.remove(&peer);
                    self.step(Some(Event::DialFailed { peer }), ctx);
                }
            }
            t => match self.inputs[(t ^ INPUT) as usize].1.take() {
                Some(SimInput::Event(ev)) => self.step(Some(ev), ctx),
                Some(SimInput::Wire { from, msg }) => self.on_message(node(from), msg, ctx),
                None => {}
            },
        }
    }
}

/// A scenario: `n` [`SimNode`]s booted from one `constraint`-built
/// k-connected overlay, plus what happens to them.
pub struct SimCluster {
    overlay: DynamicOverlay,
    /// Timing, reliability and byzantine setup, read exactly as the socket
    /// runtime reads them. `faults` goes to the simulator (virtual time).
    pub config: RuntimeConfig,
    /// Link latency model of every K_n edge.
    pub link: LinkModel,
    /// Seeds link jitter (node-private jitter comes from `config.rng_seed`).
    pub seed: u64,
    outages: Vec<(MemberId, Time, Option<Time>)>,
    inputs: Vec<(Time, MemberId, SimInput)>,
}

/// A finished run: the simulator's report plus every node's final state.
pub struct SimRun {
    /// Deliveries, message counts and end time, as the simulator saw them.
    pub report: SimReport,
    /// Per-member state, indexed by member id.
    pub nodes: Vec<Rc<RefCell<SimNodeState>>>,
    /// Per-member flight recorders (virtual-time stamps).
    pub recorders: Vec<Arc<FlightRecorder>>,
    /// `runtime.*` counters of every core plus the simulator's `sim.*`.
    pub metrics: Arc<MetricsRegistry>,
}

impl SimCluster {
    /// A scenario over `DynamicOverlay::bootstrap(constraint, n, k)`.
    ///
    /// # Errors
    ///
    /// The builder's error when (n, k) is out of its domain.
    pub fn new(
        constraint: Constraint,
        n: usize,
        k: usize,
        config: RuntimeConfig,
    ) -> Result<Self, LhgError> {
        Ok(SimCluster {
            overlay: DynamicOverlay::bootstrap(constraint, n, k)?,
            config,
            link: LinkModel::default(),
            seed: 0,
            outages: Vec::new(),
            inputs: Vec::new(),
        })
    }

    /// Fail-stops `member` at `at`; with `revive_at` it reboots blank then.
    /// The outage must outlast a tick, and start after time 0.
    pub fn crash(&mut self, member: MemberId, at: Time, revive_at: Option<Time>) -> &mut Self {
        self.outages.push((member, at, revive_at));
        self
    }

    /// Schedules `input` at `member` at time `at`.
    pub fn input(&mut self, at: Time, member: MemberId, input: SimInput) -> &mut Self {
        self.inputs.push((at, member, input));
        self
    }

    /// Schedules a traced broadcast of `payload` from `origin`; returns its id.
    pub fn broadcast(&mut self, at: Time, origin: MemberId, payload: Bytes) -> u64 {
        let id = lhg_net::fifo::fifo_id(origin as u32, self.inputs.len() as u32 + 1);
        let msg = Message::new(id, origin as u32, payload).with_trace(id);
        self.input(at, origin, SimInput::Event(Event::Broadcast(msg)));
        id
    }

    /// Runs the scenario until the queue drains or `max_time` passes.
    ///
    /// # Panics
    ///
    /// Panics when a byzantine setup needs more members than `n` (n < 3f+1).
    #[must_use]
    pub fn run(self, max_time: Time) -> SimRun {
        let n = self.overlay.len();
        let mut complete = Graph::with_nodes(n);
        for a in 0..n {
            for b in a + 1..n {
                complete.add_edge(NodeId(a), NodeId(b));
            }
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let mut sim = Simulation::new(&complete, self.link, self.seed);
        sim.with_metrics(Arc::clone(&metrics));
        if let Some(faults) = self.config.faults.clone() {
            sim.with_faults(faults);
        }
        for &(member, from, until) in &self.outages {
            sim.down_between(node(member), from, until.unwrap_or(Time::MAX));
        }
        let us = |d: std::time::Duration| d.as_micros() as Time;
        let world = Rc::new(World {
            tick_us: us(self.config.tick),
            dial_timeout_us: us(self.config.dial_timeout),
            config: self.config,
            roster: self.overlay.members().iter().copied().collect(),
            bootstrap: self.overlay,
            metrics: Arc::clone(&metrics),
            outages: self.outages,
        });
        let epoch = Instant::now(); // unused: every event carries virtual time
        let (mut nodes, mut recorders) = (Vec::new(), Vec::new());
        let mut inputs = self.inputs;
        let mut processes: Vec<Box<dyn Process>> = Vec::with_capacity(n);
        for id in 0..n as MemberId {
            let capacity = world.config.recorder_capacity;
            let recorder = Arc::new(FlightRecorder::with_capacity(id as u32, capacity, epoch));
            let opts = BootOpts {
                life: id as u32,
                ..BootOpts::default()
            };
            let (overlay, roster) = (world.bootstrap.clone(), world.roster.clone());
            let (m, r) = (Arc::clone(&metrics), Arc::clone(&recorder));
            let core = NodeCore::new(id, overlay, roster, &world.config, m, r, opts, 0)
                .expect("membership supports the byzantine setup");
            let byz_delivered = Vec::new();
            let state = Rc::new(RefCell::new(SimNodeState {
                core,
                byz_delivered,
            }));
            let (mine, rest) = inputs.into_iter().partition(|i| i.1 == id);
            inputs = rest;
            let mine: Vec<(Time, MemberId, SimInput)> = mine;
            let outage = world.outages.iter().find(|o| o.0 == id);
            processes.push(Box::new(SimNode {
                id,
                world: Rc::clone(&world),
                state: Rc::clone(&state),
                recorder: Arc::clone(&recorder),
                out: Vec::new(),
                up: BTreeSet::new(),
                dialing: BTreeMap::new(),
                inputs: (mine.into_iter().map(|(at, _, i)| (at, Some(i)))).collect(),
                revive_at: outage.and_then(|o| o.2),
            }));
            nodes.push(state);
            recorders.push(recorder);
        }
        let report = sim.run(processes, max_time);
        SimRun {
            report,
            nodes,
            recorders,
            metrics,
        }
    }
}

impl SimRun {
    /// Every node's retained events merged into one virtual-time timeline.
    #[must_use]
    pub fn events(&self) -> Vec<lhg_trace::Event> {
        merge_timelines(self.recorders.iter().map(Arc::as_ref))
    }

    /// [`Self::events`] as JSONL — byte-identical across runs of one seed.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        self.events().iter().map(|e| e.to_json() + "\n").collect()
    }

    /// Reads member `m`'s core.
    pub fn core<R>(&self, m: MemberId, read: impl FnOnce(&NodeCore) -> R) -> R {
        read(&self.nodes[m as usize].borrow().core)
    }
}
