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
//! [`SimCluster`] is the harness, and it is [`crate::Cluster`]'s shape in
//! virtual time: [`SimCluster::launch`], then any interleaving of
//! [`SimCluster::run_until`] / [`SimCluster::await_until`] with
//! [`SimCluster::kill`], [`SimCluster::revive`], [`SimCluster::broadcast`]
//! and [`SimCluster::inject`], each taking effect at [`SimCluster::now`].
//! A revival reboots a blank core the way [`crate::Cluster::rejoin`] does:
//! a survivor's replica with this node admitted, a pending `JOIN`, the
//! still-dead members as initial crashes, a fresh life for its wave nonces.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::{Constraint, LhgError};
use lhg_graph::{Graph, NodeId};
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_net::metrics::MetricsRegistry;
use lhg_net::sim::{Context, LinkModel, Process, SimReport, Simulation, Time};
use lhg_trace::{merge_timelines, FlightRecorder, TraceCollector};

use crate::core::{Action, Boot, BootOpts, Event, NodeCore};
use crate::traitor::Node;
use crate::wire;
use crate::RuntimeConfig;

/// Handshake payload accepting an open request.
pub const ACK: u8 = 1;
/// Handshake payload closing (or refusing) a link.
pub const FIN: u8 = 2;

const WAKE: u64 = 0;
const INPUT: u64 = 1;
const DIAL: u64 = 1 << 33;

/// Something a scenario makes happen at one node.
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

/// One node's current life, readable between two slices of the run.
pub struct SimNodeState {
    /// The node: its core, behind a traitor's script if it is one.
    pub node: Node,
    /// Broadcast ids delivered, in delivery order.
    pub delivered: Vec<u64>,
    /// Bracha deliveries, in delivery order.
    pub byz_delivered: Vec<Message>,
    /// Peers this side holds an open link to, and open requests in flight
    /// with their deadlines.
    up: BTreeSet<MemberId>,
    dialing: BTreeMap<MemberId, Time>,
    /// What the harness injected and the node has not handled yet.
    inbox: VecDeque<SimInput>,
    /// The deadline the live wake-up timer is armed for; a timer armed
    /// before it moved (or by an earlier life) finds nothing due.
    wake: Time,
}

impl SimNodeState {
    fn boot(node: Node) -> Self {
        SimNodeState {
            node,
            delivered: Vec::new(),
            byz_delivered: Vec::new(),
            up: BTreeSet::new(),
            dialing: BTreeMap::new(),
            inbox: VecDeque::new(),
            wake: 0,
        }
    }
}

/// What every node of one run shares.
struct World {
    config: RuntimeConfig,
    roster: BTreeSet<MemberId>,
    metrics: Arc<MetricsRegistry>,
    dial_timeout_us: Time,
}

/// A [`NodeCore`] hosted on one simulator node.
pub struct SimNode {
    id: MemberId,
    world: Rc<World>,
    state: Rc<RefCell<SimNodeState>>,
    out: Vec<Action>,
}

fn node(member: MemberId) -> NodeId {
    NodeId(member as usize)
}

fn hello(from: MemberId, payload: &'static [u8]) -> Message {
    let id = wire::hello_id(from);
    Message::new(id, from as u32, Bytes::from_static(payload))
}

impl SimNode {
    /// The event (if any), a tick if one is due, the wake-up timer pulled in
    /// to the core's next deadline (now, if a tick left one due), the actions.
    fn step(&mut self, st: &mut SimNodeState, event: Option<Event>, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if let Some(ev) = event {
            st.node.handle(ev, now, &mut self.out);
        }
        if now >= st.node.next_deadline() {
            st.node.tick(now, &mut self.out);
        }
        let due = st.node.next_deadline().max(now);
        if due < st.wake || st.wake <= now {
            st.wake = due; // any timer armed before is stale now
            ctx.set_timer(due - now, WAKE);
        }
        for action in self.out.drain(..) {
            match action {
                Action::Send { to, msg } if st.up.contains(&to) => ctx.send(node(to), msg),
                Action::Send { .. } => {}
                Action::Dial { peer } => {
                    let timeout = self.world.dial_timeout_us;
                    st.dialing.insert(peer, now + timeout);
                    ctx.send_setup(node(peer), hello(self.id, &[]));
                    ctx.set_timer(timeout, DIAL | peer);
                }
                Action::Close { peer } => {
                    if st.up.remove(&peer) {
                        ctx.send_setup(node(peer), hello(self.id, &[FIN]));
                    }
                }
                Action::Deliver { msg, .. } => {
                    st.delivered.push(msg.broadcast_id);
                    ctx.deliver(msg);
                }
                Action::ByzDeliver { msg } => {
                    st.byz_delivered.push(msg);
                    self.world.metrics.counter("runtime.byz_delivered").inc();
                }
            }
        }
    }

    /// A hello-class frame from `peer` claiming to be `claimed`.
    fn on_handshake(
        &mut self,
        st: &mut SimNodeState,
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
                let dialed = st.dialing.remove(&peer).is_some();
                let up = Event::LinkUp {
                    peer: claimed,
                    dialed,
                };
                st.node.handle(up, ctx.now(), &mut self.out);
                let mut accepted = st.node.core().links().contains(&claimed);
                if accepted && claimed != peer {
                    let down = Event::LinkDown { peer: claimed };
                    st.node.handle(down, ctx.now(), &mut self.out);
                    accepted = false;
                }
                if accepted {
                    st.up.insert(peer);
                }
                let answer = if accepted { &[ACK] } else { &[FIN] };
                ctx.send_setup(node(peer), hello(self.id, answer));
                self.step(st, None, ctx);
            }
            Some(ACK) if st.dialing.remove(&peer).is_some() => {
                st.up.insert(peer);
                let dialed = true;
                self.step(st, Some(Event::LinkUp { peer, dialed }), ctx);
            }
            // An answer that outlived its request: nobody is waiting.
            Some(ACK) if !st.up.contains(&peer) => {
                ctx.send_setup(node(peer), hello(self.id, &[FIN]));
            }
            Some(FIN) if st.up.remove(&peer) => {
                self.step(st, Some(Event::LinkDown { peer }), ctx);
            }
            Some(_) => {}
        }
    }

    fn on_frame(
        &mut self,
        st: &mut SimNodeState,
        from: NodeId,
        msg: Message,
        ctx: &mut Context<'_>,
    ) {
        let peer = from.index() as MemberId;
        if let Some(claimed) = wire::hello_peer(msg.broadcast_id) {
            self.on_handshake(st, peer, claimed, msg.payload.first().copied(), ctx);
        } else if st.up.contains(&peer) {
            self.step(st, Some(Event::Frame { from: peer, msg }), ctx);
        } else if !st.dialing.contains_key(&peer) {
            // The sender believes in a link this side closed or never had.
            ctx.send_setup(from, hello(self.id, &[FIN]));
        }
    }
}

impl Process for SimNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.on_timer(WAKE, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        let state = Rc::clone(&self.state);
        self.on_frame(&mut state.borrow_mut(), from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let state = Rc::clone(&self.state);
        let st = &mut *state.borrow_mut();
        match token {
            WAKE => self.step(st, None, ctx),
            INPUT => match st.inbox.pop_front() {
                Some(SimInput::Event(ev)) => self.step(st, Some(ev), ctx),
                Some(SimInput::Wire { from, msg }) => self.on_frame(st, node(from), msg, ctx),
                None => {}
            },
            t => {
                let peer = t ^ DIAL;
                if st.dialing.get(&peer).is_some_and(|&due| ctx.now() >= due) {
                    st.dialing.remove(&peer);
                    self.step(st, Some(Event::DialFailed { peer }), ctx);
                }
            }
        }
    }
}

/// `n` [`SimNode`]s booted from one `constraint`-built k-connected overlay,
/// mid-run: see the module docs.
pub struct SimCluster {
    sim: Simulation,
    world: Rc<World>,
    /// Per-member state, indexed by member id.
    pub nodes: Vec<Rc<RefCell<SimNodeState>>>,
    /// Per-member flight recorders (virtual-time stamps).
    pub recorders: Vec<Arc<FlightRecorder>>,
    /// `runtime.*` counters of every core plus the simulator's `sim.*`.
    pub metrics: Arc<MetricsRegistry>,
    /// Delivery path records of every traced broadcast.
    pub tracer: Arc<TraceCollector>,
    killed: BTreeSet<MemberId>,
    /// Next node-life ordinal, allocated exactly as [`crate::Cluster`] does:
    /// boots take 0..n, every revival a fresh one, so control-wave nonces
    /// never collide across lives.
    next_life: u32,
    next_seq: u32,
}

impl SimCluster {
    /// Boots `DynamicOverlay::bootstrap(constraint, n, k)` at virtual time
    /// 0. `config` is read exactly as the socket runtime reads it, except
    /// that `faults` goes to the simulator (virtual time); `link` is the
    /// latency model of every K_n edge and `seed` its jitter's (node-private
    /// jitter comes from `config.rng_seed`).
    ///
    /// # Errors
    ///
    /// The builder's error when (n, k) is out of its domain.
    ///
    /// # Panics
    ///
    /// Panics when a byzantine setup needs more members than `n` (n < 3f+1).
    pub fn launch(
        constraint: Constraint,
        n: usize,
        k: usize,
        config: RuntimeConfig,
        link: LinkModel,
        seed: u64,
    ) -> Result<Self, LhgError> {
        let overlay = DynamicOverlay::bootstrap(constraint, n, k)?;
        let mut complete = Graph::with_nodes(n);
        for a in 0..n {
            for b in a + 1..n {
                complete.add_edge(NodeId(a), NodeId(b));
            }
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(TraceCollector::new());
        let mut sim = Simulation::new(&complete, link, seed);
        sim.with_metrics(Arc::clone(&metrics));
        sim.with_trace(Arc::clone(&tracer));
        if let Some(faults) = config.faults.clone() {
            sim.with_faults(faults);
        }
        let us = |d: std::time::Duration| d.as_micros() as Time;
        let world = Rc::new(World {
            dial_timeout_us: us(config.dial_timeout),
            config,
            roster: overlay.members().iter().copied().collect(),
            metrics: Arc::clone(&metrics),
        });
        let epoch = Instant::now(); // unused: every event carries virtual time
        let mut cluster = SimCluster {
            sim,
            world,
            nodes: Vec::with_capacity(n),
            recorders: Vec::with_capacity(n),
            metrics,
            tracer,
            killed: BTreeSet::new(),
            next_life: 0,
            next_seq: 0,
        };
        let mut processes: Vec<Box<dyn Process>> = Vec::with_capacity(n);
        for id in 0..n as MemberId {
            let capacity = cluster.world.config.recorder_capacity;
            let recorder = FlightRecorder::with_capacity(id as u32, capacity, epoch);
            cluster.recorders.push(Arc::new(recorder));
            let node = cluster.boot(id, overlay.clone(), BootOpts::default(), 0);
            let state = Rc::new(RefCell::new(SimNodeState::boot(node)));
            processes.push(Box::new(SimNode {
                id,
                world: Rc::clone(&cluster.world),
                state: Rc::clone(&state),
                out: Vec::new(),
            }));
            cluster.nodes.push(state);
        }
        cluster.sim.start(processes);
        Ok(cluster)
    }

    /// A node for `id`'s next life, booted at `now` on `overlay`.
    fn boot(&mut self, id: MemberId, overlay: DynamicOverlay, opts: BootOpts, now: Time) -> Node {
        let opts = BootOpts {
            life: self.next_life,
            ..opts
        };
        self.next_life += 1;
        let (w, recorder) = (&self.world, Arc::clone(&self.recorders[id as usize]));
        let roster = w.roster.clone();
        let boot = Boot {
            id,
            overlay,
            roster,
            opts,
        };
        Node::new(boot, &w.config, Arc::clone(&w.metrics), recorder, now)
            .expect("membership supports the byzantine setup")
    }

    /// How far the run has been advanced (µs of virtual time).
    #[must_use]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Advances virtual time to `time`.
    pub fn run_until(&mut self, time: Time) {
        self.sim.run_until(time);
    }

    /// Advances virtual time, a heartbeat period at a time, until `cond`
    /// holds or `timeout_us` has passed; returns the final verdict.
    pub fn await_until(&mut self, timeout_us: Time, mut cond: impl FnMut(&Self) -> bool) -> bool {
        let deadline = self.now().saturating_add(timeout_us);
        let slice = (self.world.config.heartbeat_period.as_micros() as Time).max(1);
        while !cond(self) {
            if self.now() >= deadline {
                return false;
            }
            self.run_until((self.now() + slice).min(deadline));
        }
        true
    }

    /// Fail-stops `member` now: it falls silent and handles nothing more.
    /// `false` if it is unknown or already dead.
    pub fn kill(&mut self, member: MemberId) -> bool {
        if member as usize >= self.nodes.len() || !self.killed.insert(member) {
            return false;
        }
        self.sim.crash_at(node(member), self.now());
        self.nodes[member as usize].borrow_mut().inbox.clear();
        true
    }

    /// Reboots a killed `member` blank, now, as [`crate::Cluster::rejoin`]
    /// does. `false` if it is not dead, or nobody is left to boot from.
    pub fn revive(&mut self, member: MemberId) -> bool {
        let survivor = (0..self.nodes.len() as MemberId).find(|m| !self.killed.contains(m));
        let (Some(survivor), true) = (survivor, self.killed.contains(&member)) else {
            return false;
        };
        // The freshest survivor view; the revenant re-admits itself if the
        // survivors already excommunicated it.
        let mut overlay = self.core(survivor, |c| {
            DynamicOverlay::clone(c.membership().overlay())
        });
        if !overlay.contains(member) && overlay.admit(member).is_err() {
            return false;
        }
        self.killed.remove(&member);
        let opts = BootOpts {
            announce_join: true,
            initial_crashes: self.killed.clone(),
            ..BootOpts::default()
        };
        let now = self.now();
        let life = self.boot(member, overlay, opts, now);
        *self.nodes[member as usize].borrow_mut() = SimNodeState::boot(life);
        self.sim.revive_at(node(member), now);
        self.sim.inject_timer(node(member), WAKE);
        true
    }

    /// Hands `input` to `member` now; `false` (and dropped) if it is dead.
    pub fn inject(&mut self, member: MemberId, input: SimInput) -> bool {
        let live = (member as usize) < self.nodes.len() && !self.killed.contains(&member);
        if live {
            self.nodes[member as usize]
                .borrow_mut()
                .inbox
                .push_back(input);
            self.sim.inject_timer(node(member), INPUT);
        }
        live
    }

    /// Originates a traced broadcast of `payload` at `origin` now; returns
    /// its id, `None` if the origin is dead.
    pub fn broadcast(&mut self, origin: MemberId, payload: Bytes) -> Option<u64> {
        let id = fifo_id(origin as u32, self.next_seq + 1);
        let msg = Message::new(id, origin as u32, payload).with_trace(id);
        let sent = self.inject(origin, SimInput::Event(Event::Broadcast(msg)));
        self.next_seq += u32::from(sent);
        sent.then_some(id)
    }

    /// Ends the run: deliveries, message counts and end time, as the
    /// simulator saw them. The nodes' final state stays readable.
    pub fn finish(&mut self) -> SimReport {
        self.sim.finish()
    }

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
        read(self.nodes[m as usize].borrow().node.core())
    }
}
