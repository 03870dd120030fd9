//! Cluster orchestration: boot n nodes on loopback, drive broadcasts,
//! inject fail-stop crashes, and await convergence.
//!
//! The [`Cluster`] is a test-harness-shaped front door: it owns the address
//! [`Directory`], the shared [`MetricsRegistry`], and a handle per node. It
//! observes node state through [`NodeShared`] snapshots — the data plane
//! (frames, heartbeats, healing) runs entirely over TCP between the nodes.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::RwLock;

use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_core::LhgError;
use lhg_graph::Graph;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_net::metrics::MetricsRegistry;
use lhg_trace::{merge_timelines, BroadcastTrace, FlightRecorder, TraceCollector};

use crate::core::{self, BootOpts};
use crate::node::{spawn_node, BroadcastClock, Directory, NodeHandle, NodeShared};
use crate::wire::MAX_MEMBERS;
use crate::RuntimeConfig;

/// Errors from cluster orchestration.
#[derive(Debug)]
pub enum ClusterError {
    /// The overlay builder rejected (n, k) or a membership change.
    Overlay(LhgError),
    /// A socket operation failed while booting the cluster.
    Io(std::io::Error),
    /// The initial topology did not fully connect within the launch timeout.
    LaunchTimeout,
    /// An operation referenced a member that is unknown or already dead.
    NoSuchMember(MemberId),
    /// [`Cluster::kill`] targeted a member that was already killed —
    /// distinct from [`ClusterError::NoSuchMember`] so a chaos schedule can
    /// tell "double kill" apart from "never existed".
    AlreadyKilled(MemberId),
    /// [`Cluster::rejoin`] targeted a member that is still alive.
    NotKilled(MemberId),
    /// [`Cluster::rejoin`] targeted a member whose previous rejoin
    /// handshake is still in flight — distinct from
    /// [`ClusterError::NotKilled`] so a chaos schedule can tell "already
    /// back" apart from "still coming back" and wait instead of flapping.
    RejoinInProgress(MemberId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Overlay(e) => write!(f, "overlay error: {e}"),
            ClusterError::Io(e) => write!(f, "socket error: {e}"),
            ClusterError::LaunchTimeout => {
                f.write_str("cluster links did not converge within the launch timeout")
            }
            ClusterError::NoSuchMember(m) => write!(f, "no live member {m}"),
            ClusterError::AlreadyKilled(m) => write!(f, "member {m} was already killed"),
            ClusterError::NotKilled(m) => write!(f, "member {m} is not killed"),
            ClusterError::RejoinInProgress(m) => {
                write!(f, "member {m} is still mid-rejoin")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<LhgError> for ClusterError {
    fn from(e: LhgError) -> Self {
        ClusterError::Overlay(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

/// A running loopback cluster of LHG overlay nodes.
pub struct Cluster {
    config: RuntimeConfig,
    metrics: Arc<MetricsRegistry>,
    clock: BroadcastClock,
    directory: Directory,
    nodes: HashMap<MemberId, NodeHandle>,
    killed: BTreeSet<MemberId>,
    next_seq: u32,
    /// Next node-life ordinal: initial boots take 0..n, every rejoin takes
    /// a fresh one, so control-wave nonces never collide across lives.
    next_life: u32,
    /// One flight recorder per node, all sharing one epoch so their
    /// timelines merge into a single cluster-wide chronology.
    recorders: HashMap<MemberId, Arc<FlightRecorder>>,
    /// Cluster-wide sink of per-broadcast delivery path records.
    tracer: Arc<TraceCollector>,
}

impl Cluster {
    /// Boots `n` nodes with a `constraint`-built k-connected LHG overlay and
    /// blocks until every overlay link has a live TCP connection.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Overlay`] when (n, k) is out of the builder's domain,
    /// [`ClusterError::Io`] when listeners cannot bind, and
    /// [`ClusterError::LaunchTimeout`] when the mesh does not come up within
    /// [`RuntimeConfig::launch_timeout`].
    pub fn launch(
        constraint: Constraint,
        n: usize,
        k: usize,
        config: RuntimeConfig,
    ) -> Result<Self, ClusterError> {
        assert!(
            (n as u64) < MAX_MEMBERS,
            "member ids must stay below 2^24 to avoid wire tag bits"
        );
        let overlay = DynamicOverlay::bootstrap(constraint, n, k)?;

        let directory: Directory = Arc::new(RwLock::new(HashMap::new()));
        let mut listeners = Vec::with_capacity(n);
        for member in overlay.members().to_vec() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            directory.write().insert(member, listener.local_addr()?);
            listeners.push((member, listener));
        }

        let metrics = Arc::new(MetricsRegistry::new());
        let clock: BroadcastClock = Arc::new(RwLock::new(HashMap::new()));
        let tracer = Arc::new(TraceCollector::new());
        let epoch = Instant::now(); // shared so per-node timelines merge
        let mut recorders = HashMap::with_capacity(n);
        let mut nodes = HashMap::with_capacity(n);
        let mut next_life = 0u32;
        for (member, listener) in listeners {
            let recorder = Arc::new(FlightRecorder::with_capacity(
                member as u32,
                config.recorder_capacity,
                epoch,
            ));
            recorders.insert(member, Arc::clone(&recorder));
            let handle = spawn_node(
                member,
                overlay.clone(),
                listener,
                Arc::clone(&directory),
                config.clone(),
                Arc::clone(&metrics),
                Arc::clone(&clock),
                recorder,
                Arc::clone(&tracer),
                BootOpts {
                    life: next_life,
                    ..BootOpts::default()
                },
            )?;
            next_life += 1;
            nodes.insert(member, handle);
        }

        let cluster = Cluster {
            config,
            metrics,
            clock,
            directory,
            nodes,
            killed: BTreeSet::new(),
            next_seq: 0,
            next_life,
            recorders,
            tracer,
        };
        if !cluster.await_links(cluster.config.launch_timeout) {
            cluster.shutdown();
            return Err(ClusterError::LaunchTimeout);
        }
        Ok(cluster)
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A shared handle to the registry that outlives the cluster — read it
    /// after [`Cluster::shutdown`] for totals no live node can still bump.
    #[must_use]
    pub fn shared_metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Pretty-printed JSON snapshot of every metric.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.metrics.snapshot_json()
    }

    /// Prometheus text-exposition snapshot of every metric.
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// The flight recorder of `member`, if it was ever launched.
    #[must_use]
    pub fn recorder(&self, member: MemberId) -> Option<&Arc<FlightRecorder>> {
        self.recorders.get(&member)
    }

    /// The cluster-wide causal trace collector.
    #[must_use]
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.tracer
    }

    /// Every broadcast's reconstructed dissemination tree, one
    /// [`BroadcastTrace`] per trace id, ordered by trace id.
    #[must_use]
    pub fn traces(&self) -> Vec<BroadcastTrace> {
        self.tracer.traces()
    }

    /// All nodes' retained flight-recorder events merged into one
    /// cluster-wide timeline (timestamp order; recorders share an epoch).
    #[must_use]
    pub fn events(&self) -> Vec<lhg_trace::Event> {
        merge_timelines(self.recorders.values().map(Arc::as_ref))
    }

    /// The merged cluster timeline as JSONL (one event object per line).
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let mut s = String::new();
        for e in self.events() {
            s.push_str(&e.to_json());
            s.push('\n');
        }
        s
    }

    /// Writes the merged cluster timeline as JSONL to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn dump_events(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.events_jsonl().as_bytes())?;
        f.flush()
    }

    /// All member ids ever launched, in id order.
    #[must_use]
    pub fn members(&self) -> Vec<MemberId> {
        let mut m: Vec<MemberId> = self.nodes.keys().copied().collect();
        m.sort_unstable();
        m
    }

    /// Members not yet killed, in id order.
    #[must_use]
    pub fn survivors(&self) -> Vec<MemberId> {
        self.members()
            .into_iter()
            .filter(|m| !self.killed.contains(m))
            .collect()
    }

    /// Observable state of `member`, if it was ever launched.
    #[must_use]
    pub fn node(&self, member: MemberId) -> Option<&Arc<NodeShared>> {
        self.nodes.get(&member).map(|h| &h.shared)
    }

    /// Originates a broadcast at `origin`; returns the broadcast id.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchMember`] if `origin` is unknown or dead.
    pub fn broadcast(&mut self, origin: MemberId, payload: Bytes) -> Result<u64, ClusterError> {
        if self.killed.contains(&origin) {
            return Err(ClusterError::NoSuchMember(origin));
        }
        let handle = self
            .nodes
            .get(&origin)
            .ok_or(ClusterError::NoSuchMember(origin))?;
        self.next_seq += 1;
        let id = fifo_id(origin as u32, self.next_seq);
        self.clock.write().insert(id, Instant::now());
        self.metrics.counter("runtime.broadcasts").inc();
        // The broadcast id doubles as the trace id: every delivery of this
        // message records its path into the cluster's TraceCollector.
        let msg = Message::new(id, origin as u32, payload).with_trace(id);
        if !handle.send(core::Event::Broadcast(msg)) {
            return Err(ClusterError::NoSuchMember(origin));
        }
        Ok(id)
    }

    /// Originates a Bracha (Byzantine-tolerant) broadcast at `origin` under
    /// instance nonce `nonce`. Requires the cluster to have been launched
    /// with [`RuntimeConfig::byzantine`] set; on a plain cluster the event
    /// is accepted but no node votes, so nothing is ever delivered. A
    /// traitor origin holds no vote exchange and originates nothing (its
    /// script, [`crate::traitor`], fires from the gossip path instead).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchMember`] if `origin` is unknown or dead.
    pub fn byzantine_broadcast(
        &mut self,
        origin: MemberId,
        nonce: u64,
        payload: Bytes,
    ) -> Result<(), ClusterError> {
        if self.killed.contains(&origin) {
            return Err(ClusterError::NoSuchMember(origin));
        }
        let handle = self
            .nodes
            .get(&origin)
            .ok_or(ClusterError::NoSuchMember(origin))?;
        self.metrics.counter("runtime.byz_broadcasts").inc();
        if !handle.send(core::Event::ByzBroadcast { nonce, payload }) {
            return Err(ClusterError::NoSuchMember(origin));
        }
        Ok(())
    }

    /// Byzantine deliveries recorded by `member` so far (empty for unknown
    /// members): one [`Message`] per delivered instance, `broadcast_id` =
    /// instance nonce, `trace` = certified payload digest.
    #[must_use]
    pub fn byz_delivered(&self, member: MemberId) -> Vec<Message> {
        self.nodes
            .get(&member)
            .map(|h| h.shared.byz_delivered())
            .unwrap_or_default()
    }

    /// Waits until each of `members` has byz-delivered instance `nonce` (or
    /// the timeout passes). Scope `members` to the correct nodes — traitors
    /// never record deliveries.
    #[must_use]
    pub fn await_byz_delivery(&self, nonce: u64, members: &[MemberId], timeout: Duration) -> bool {
        self.poll_until(timeout, || {
            members.iter().all(|m| {
                self.nodes
                    .get(m)
                    .is_some_and(|h| h.shared.byz_delivered_nonces().contains(&nonce))
            })
        })
    }

    /// Fail-stop crash: the node slams every socket shut and stops, without
    /// any goodbye. Survivors must detect it via heartbeat silence.
    ///
    /// The LHG failure model (property P1) guarantees convergent healing
    /// only while **at most k−1 members are concurrently dead**. Killing a
    /// k-th member is allowed — chaos runs do it deliberately — but then
    /// survivors enter degraded mode ([`NodeShared::is_degraded`]) instead
    /// of healing, until rejoins bring the count back within budget.
    ///
    /// # Errors
    ///
    /// [`ClusterError::AlreadyKilled`] if `member` was already killed, and
    /// [`ClusterError::NoSuchMember`] if it was never launched.
    pub fn kill(&mut self, member: MemberId) -> Result<(), ClusterError> {
        if self.killed.contains(&member) {
            return Err(ClusterError::AlreadyKilled(member));
        }
        let handle = self
            .nodes
            .get_mut(&member)
            .ok_or(ClusterError::NoSuchMember(member))?;
        handle.kill();
        if let Some(main) = handle.main.take() {
            let _ = main.join();
        }
        self.killed.insert(member);
        self.metrics.counter("runtime.kills").inc();
        Ok(())
    }

    /// Restarts a previously killed member: a fresh listener is bound (the
    /// old port is gone), the directory is updated, and the node boots from
    /// a survivor's overlay snapshot with a pending `JOIN` announcement.
    /// Survivors re-admit it when the announcement floods through —
    /// converging because every replica admits at the same sorted position.
    ///
    /// Use [`Cluster::await_heal`] afterwards to block until every replica
    /// (including the revenant's) has converged back onto the survivor set.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchMember`] if `member` was never launched,
    /// [`ClusterError::NotKilled`] if it is still alive, and
    /// [`ClusterError::Io`] if the new listener cannot bind.
    pub fn rejoin(&mut self, member: MemberId) -> Result<(), ClusterError> {
        if !self.nodes.contains_key(&member) {
            return Err(ClusterError::NoSuchMember(member));
        }
        if !self.killed.contains(&member) {
            // A live member whose previous rejoin handshake has not
            // settled yet gets the dedicated error: stacking a second
            // boot on a node still announcing itself would orphan the
            // first one's listener mid-handshake.
            if self
                .nodes
                .get(&member)
                .is_some_and(|h| h.shared.is_alive() && h.shared.is_rejoining())
            {
                return Err(ClusterError::RejoinInProgress(member));
            }
            return Err(ClusterError::NotKilled(member));
        }
        // Boot from the freshest survivor view available; the revenant
        // re-admits itself if the survivors already excommunicated it.
        let mut overlay = self
            .live_shared()
            .next()
            .map(|s| s.overlay_snapshot())
            .ok_or(ClusterError::NoSuchMember(member))?;
        if !overlay.contains(member) {
            overlay.admit(member)?;
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.directory
            .write()
            .insert(member, listener.local_addr()?);
        let recorder = self
            .recorders
            .get(&member)
            .cloned()
            .expect("recorder outlives its node");
        let initial_crashes: BTreeSet<MemberId> = self
            .killed
            .iter()
            .copied()
            .filter(|&m| m != member)
            .collect();
        let handle = spawn_node(
            member,
            overlay,
            listener,
            Arc::clone(&self.directory),
            self.config.clone(),
            Arc::clone(&self.metrics),
            Arc::clone(&self.clock),
            recorder,
            Arc::clone(&self.tracer),
            BootOpts {
                announce_join: true,
                initial_crashes,
                life: self.next_life,
            },
        )?;
        self.next_life += 1;
        self.nodes.insert(member, handle);
        self.killed.remove(&member);
        self.metrics.counter("runtime.rejoins").inc();
        Ok(())
    }

    /// Waits until every survivor has delivered broadcast `id` (or the
    /// timeout passes); returns whether delivery completed.
    #[must_use]
    pub fn await_delivery(&self, id: u64, timeout: Duration) -> bool {
        self.poll_until(timeout, || self.live_shared().all(|s| s.has_delivered(id)))
    }

    /// Waits until each of `members` has delivered broadcast `id` (or the
    /// timeout passes). Lets chaos oracles scope the delivery requirement
    /// to the nodes that were reachable, instead of all survivors.
    #[must_use]
    pub fn await_delivery_by(&self, id: u64, members: &[MemberId], timeout: Duration) -> bool {
        self.poll_until(timeout, || {
            members.iter().all(|&m| self.has_delivered(m, id))
        })
    }

    /// Live members currently reporting degraded mode (suspected failures
    /// at or above the k−1 budget), in id order.
    #[must_use]
    pub fn degraded_members(&self) -> Vec<MemberId> {
        let mut m: Vec<MemberId> = self
            .live_shared()
            .filter(|s| s.is_degraded())
            .map(|s| s.id)
            .collect();
        m.sort_unstable();
        m
    }

    /// Waits until every survivor has (a) applied every kill, (b) converged
    /// its overlay replica onto exactly the survivor set, and (c) has a live
    /// TCP link for each overlay neighbor. Returns whether healing finished.
    #[must_use]
    pub fn await_heal(&self, timeout: Duration) -> bool {
        let survivors: BTreeSet<MemberId> = self.survivors().into_iter().collect();
        self.poll_until(timeout, || {
            self.live_shared().all(|s| {
                let applied = s.crashes_applied();
                let members: BTreeSet<MemberId> =
                    s.overlay_snapshot().members().iter().copied().collect();
                self.killed.iter().all(|k| applied.contains(k))
                    && members == survivors
                    && s.desired_neighbors().is_subset(&s.links_up())
            })
        })
    }

    /// Waits until every node's TCP links cover its desired neighbor set.
    #[must_use]
    pub fn await_links(&self, timeout: Duration) -> bool {
        self.poll_until(timeout, || {
            self.live_shared()
                .all(|s| s.desired_neighbors().is_subset(&s.links_up()))
        })
    }

    /// `true` if all survivors hold identical overlay link sets.
    #[must_use]
    pub fn overlays_agree(&self) -> bool {
        let mut sets = self.live_shared().map(|s| s.overlay_snapshot().links());
        let Some(first) = sets.next() else {
            return true;
        };
        sets.all(|l| l == first)
    }

    /// The healed topology as seen by one survivor (they agree once
    /// [`Self::await_heal`] returns `true`).
    #[must_use]
    pub fn survivor_graph(&self) -> Option<Graph> {
        self.live_shared()
            .next()
            .map(|s| s.overlay_snapshot().graph().clone())
    }

    /// Broadcast ids delivered by `member`, in delivery order.
    #[must_use]
    pub fn delivered_ids(&self, member: MemberId) -> Vec<u64> {
        self.nodes
            .get(&member)
            .map(|h| h.shared.delivered_ids())
            .unwrap_or_default()
    }

    /// Whether `member` has delivered broadcast `id` (`false` for unknown
    /// members) — the cheap form of `delivered_ids(member).contains(&id)`.
    #[must_use]
    pub fn has_delivered(&self, member: MemberId, id: u64) -> bool {
        self.nodes
            .get(&member)
            .is_some_and(|h| h.shared.has_delivered(id))
    }

    /// Subscribes to `member`'s deliveries: from now on every message it
    /// delivers — floods and Bracha instances alike, payload and all — is
    /// sent down the returned channel, in delivery order, each after its
    /// id is in [`Self::delivered_ids`]. This is the only way to a
    /// delivered payload: a node keeps ids, not payloads.
    ///
    /// One subscriber per node: subscribing again replaces the earlier
    /// receiver, which sees the channel close; dropping the receiver
    /// unsubscribes. The channel is unbounded, because the node's one core
    /// thread must neither wait for a slow application (missed heartbeats
    /// read as a crash) nor drop what a *reliable* broadcast delivered — a
    /// backlog is the subscriber's, and only as long as its queue.
    /// [`Self::kill`] and [`Self::shutdown`] close the channel, so a
    /// blocked `recv` returns; a rejoin is a new life and needs a new
    /// subscription. For an unknown or dead member the receiver is closed
    /// from the start.
    #[must_use]
    pub fn subscribe(&self, member: MemberId) -> Receiver<Message> {
        match self.nodes.get(&member) {
            Some(handle) => handle.shared.subscribe(),
            None => unbounded().1,
        }
    }

    /// Stops every remaining node and joins their main threads.
    pub fn shutdown(mut self) {
        let members = self.members();
        for member in members {
            if let Some(handle) = self.nodes.get_mut(&member) {
                handle.kill();
                if let Some(main) = handle.main.take() {
                    let _ = main.join();
                }
            }
        }
    }

    fn live_shared(&self) -> impl Iterator<Item = &Arc<NodeShared>> {
        self.nodes
            .values()
            .filter(|h| !self.killed.contains(&h.shared.id))
            .map(|h| &h.shared)
    }

    /// Polls `cond` every few milliseconds until it holds or `timeout`
    /// elapses; returns the final verdict.
    fn poll_until(&self, timeout: Duration, cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if cond() {
                return true;
            }
            if Instant::now() >= deadline {
                return cond();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    #[test]
    fn small_cluster_boots_and_broadcasts() {
        let mut c = Cluster::launch(Constraint::Jd, 6, 2, cfg()).expect("launch");
        let id = c.broadcast(0, Bytes::from_static(b"ping")).expect("send");
        assert!(c.await_delivery(id, Duration::from_secs(5)));
        for m in c.members() {
            assert_eq!(c.delivered_ids(m), vec![id]);
        }
        assert!(c.metrics().counter("runtime.deliveries").get() >= 6);
        c.shutdown();
    }

    #[test]
    fn crash_is_detected_and_healed() {
        let mut c = Cluster::launch(Constraint::Jd, 7, 2, cfg()).expect("launch");
        c.kill(3).expect("kill");
        assert!(c.await_heal(Duration::from_secs(10)), "survivors heal");
        assert!(c.overlays_agree());
        let g = c.survivor_graph().expect("graph");
        assert_eq!(g.node_count(), 6);
        assert!(lhg_graph::connectivity::is_k_vertex_connected(&g, 2));
        // Post-heal broadcasts still reach every survivor.
        let id = c.broadcast(0, Bytes::from_static(b"after")).expect("send");
        assert!(c.await_delivery(id, Duration::from_secs(5)));
        assert!(c.metrics().counter("runtime.suspects").get() >= 1);
        c.shutdown();
    }

    #[test]
    fn broadcast_is_traced_and_events_are_recorded() {
        let mut c = Cluster::launch(Constraint::Jd, 6, 2, cfg()).expect("launch");
        let id = c.broadcast(2, Bytes::from_static(b"traced")).expect("send");
        assert!(c.await_delivery(id, Duration::from_secs(5)));

        let traces = c.traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.trace_id, id);
        assert_eq!(trace.origin(), Some(2));
        let expected: BTreeSet<u32> = c.members().iter().map(|&m| m as u32).collect();
        assert!(trace.is_spanning(&expected), "all 6 nodes on the tree");
        for m in c.members() {
            let path = trace.path_from_origin(m as u32).expect("path");
            assert_eq!(path.first(), Some(&2));
            assert_eq!(path.last(), Some(&(m as u32)));
        }

        let events = c.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, lhg_trace::EventKind::Connect { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, lhg_trace::EventKind::BroadcastAccept { trace_id } if trace_id == id)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, lhg_trace::EventKind::BroadcastDeliver { trace_id, .. } if trace_id == id)));
        // Events are time-ordered.
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));

        // JSONL dump round-trips through the filesystem.
        let path = std::env::temp_dir().join("lhg_cluster_events_test.jsonl");
        c.dump_events(&path).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.lines().count() >= events.len().min(1));
        assert!(text.contains("\"event\":\"broadcast_accept\""));
        std::fs::remove_file(&path).ok();

        // The suspicion sweep keeps per-peer heartbeat-age gauges fresh.
        let snapshot = c.metrics_json();
        assert!(snapshot.contains("runtime.heartbeat_age_us.n0.p"));
        c.shutdown();
    }

    #[test]
    fn byzantine_broadcast_delivers_everywhere_with_no_traitors() {
        let mut config = cfg();
        config.byzantine = Some(crate::ByzantineSetup {
            f: 1,
            traitors: Vec::new(),
        });
        // K-DIAMOND: gap-free at k = 3 (JD cannot build every size there).
        let mut c = Cluster::launch(Constraint::KDiamond, 7, 3, config).expect("launch");
        c.byzantine_broadcast(0, 0x42, Bytes::from_static(b"certified"))
            .expect("send");
        let members = c.members();
        assert!(c.await_byz_delivery(0x42, &members, Duration::from_secs(5)));
        let digest = lhg_byzantine::digest(b"certified");
        for m in members {
            let got = c.byz_delivered(m);
            assert_eq!(got.len(), 1, "exactly once at node {m}");
            assert_eq!(got[0].broadcast_id, 0x42);
            assert_eq!(got[0].origin, 0);
            assert_eq!(got[0].trace, Some(digest));
            assert_eq!(&got[0].payload[..], b"certified");
        }
        c.shutdown();
    }

    #[test]
    fn byzantine_broadcast_survives_a_forging_traitor() {
        use lhg_byzantine::TraitorBehavior;
        let mut config = cfg();
        config.byzantine = Some(crate::ByzantineSetup {
            f: 1,
            traitors: vec![(4, TraitorBehavior::Forge)],
        });
        let mut c = Cluster::launch(Constraint::KDiamond, 8, 3, config).expect("launch");
        c.byzantine_broadcast(1, 0x99, Bytes::from_static(b"despite the liar"))
            .expect("send");
        let correct: Vec<MemberId> = c.members().into_iter().filter(|&m| m != 4).collect();
        assert!(c.await_byz_delivery(0x99, &correct, Duration::from_secs(5)));
        // The forged instance (nonce base 0xF000_0000) never certifies: one
        // forged voice is f short of every quorum. Correct nodes deliver the
        // honest instance and nothing else, and they all agree.
        for &m in &correct {
            let nonces: Vec<u64> = c.byz_delivered(m).iter().map(|d| d.broadcast_id).collect();
            assert_eq!(
                nonces,
                vec![0x99],
                "node {m} delivered only the honest instance"
            );
        }
        // The traitor records nothing — it never votes honestly.
        assert!(c.byz_delivered(4).is_empty());
        c.shutdown();
    }

    #[test]
    fn broadcast_from_dead_member_is_rejected() {
        let mut c = Cluster::launch(Constraint::Jd, 6, 2, cfg()).expect("launch");
        c.kill(5).expect("kill");
        assert!(matches!(
            c.broadcast(5, Bytes::new()),
            Err(ClusterError::NoSuchMember(5))
        ));
        // A second kill is a *distinct* error from an unknown member.
        assert!(matches!(c.kill(5), Err(ClusterError::AlreadyKilled(5))));
        assert!(matches!(c.kill(99), Err(ClusterError::NoSuchMember(99))));
        assert!(matches!(c.rejoin(0), Err(ClusterError::NotKilled(0))));
        c.shutdown();
    }

    #[test]
    fn mid_rejoin_member_reports_rejoin_in_progress() {
        let mut c = Cluster::launch(Constraint::Jd, 7, 2, cfg()).expect("launch");
        c.kill(3).expect("kill");
        assert!(c.await_heal(Duration::from_secs(10)), "survivors heal");
        c.rejoin(3).expect("rejoin");
        // Immediately stacking a second rejoin must be refused with the
        // dedicated error while the first handshake is still in flight —
        // and with NotKilled once it has settled (never AlreadyKilled).
        match c.rejoin(3) {
            Err(ClusterError::RejoinInProgress(3) | ClusterError::NotKilled(3)) => {}
            other => panic!("expected RejoinInProgress or NotKilled, got {other:?}"),
        }
        assert!(c.await_heal(Duration::from_secs(10)), "revenant converges");
        // Once the announcement handshake settles the flag clears and the
        // refusal relaxes back to plain NotKilled.
        assert!(
            c.poll_until(Duration::from_secs(5), || {
                c.node(3).is_some_and(|s| !s.is_rejoining())
            }),
            "join_pending clears once the announcement handshake settles"
        );
        assert!(matches!(c.rejoin(3), Err(ClusterError::NotKilled(3))));
        c.shutdown();
    }
}
