//! lhg-runtime: a self-healing LHG overlay — one node state machine, run
//! over real TCP sockets and, unchanged, on the discrete-event simulator.
//!
//! Where [`lhg_net::sim`] measures the flooding protocol alone, this crate
//! runs the whole node: every protocol decision lives in the sans-IO
//! [`core::NodeCore`] (events in, actions out, time a `u64` of µs), and two
//! thin drivers execute it — [`node`], where each node is a set of OS
//! threads owning a loopback [`std::net::TcpListener`], links are TCP
//! connections and frames are the length-prefixed
//! [`lhg_net::message::Message`] encoding ([`lhg_net::codec`]) used
//! everywhere else in the workspace; and [`simnode`], where the same core
//! is a [`lhg_net::sim::Process`] on the complete graph and a membership
//! failure replays from one seed in virtual time.
//!
//! The stack has seven layers (bottom to top). Layer 1's transport half is
//! the driver's; everything else is the core's:
//!
//! 1. **Connection manager** — *which* links are wanted, when a failed
//!    dial may be retried and which hello is acceptable are decided by the
//!    core's reconcile pass ([`core`]); dialing, accepting, connection
//!    generations and fault injection are the driver's ([`node`]). The
//!    smaller member id dials, the larger accepts.
//! 2. **Reliable links** ([`lhg_net::reliable`]) — data frames carry
//!    per-link sequence numbers; cumulative acks with selective NACKs drive
//!    bounded-window retransmission — a clean ack rides on the next data
//!    frame going the other way, and gets a frame of its own only for
//!    holes, duplicates, half a window or a quarter of the retransmit
//!    timeout — and a periodic anti-entropy pass (summaries, on the
//!    heartbeat cadence, of the recently-seen broadcast ids each neighbor
//!    is not known to hold; gaps answered by pulls) repairs whatever
//!    per-link retries could not, so delivery survives links that drop,
//!    duplicate, or reorder frames.
//! 3. **Reliable broadcast** — a body goes down the origin's BFS tree on
//!    the replica, every other link gets its id in a summary and pulls it
//!    if missing, with per-broadcast dedup; with a k-connected topology and
//!    at most k−1 crashed nodes, every correct node delivers (LHG P1).
//! 4. **Failure detection** — any frame is proof of life, so a heartbeat
//!    goes only to a link nothing else was sent on for a heartbeat period
//!    (a deadline the core names: no live link is silent longer than a
//!    period plus wake-up latency), and a busy link carries none; a
//!    configurable silence window marks a neighbor crashed (fail-stop
//!    model: crashed nodes never speak again, so suspicion is permanent).
//!    A frame from a linked peer the replica does not know re-admits it
//!    (its `JOIN` was missed). With [`RuntimeConfig::byzantine`] set,
//!    suspicion is *corroborated*: a crash only applies once f+1 distinct
//!    reporters (direct silence counts as a self-report, and a node that
//!    applies a corroborated crash vouches for it in turn) agree, and a
//!    directly-heartbeating peer vetoes the wave — so a lone traitor
//!    forging CRASH announcements cannot excommunicate a live node.
//! 5. **Self-healing** — a detected crash is flooded as an announcement;
//!    every survivor applies it to its
//!    [`lhg_core::overlay::DynamicOverlay`] replica via `crash_many` and
//!    applies the returned churn (dial added links, drop removed ones),
//!    restoring k-connectivity at the smaller n. Replicas converge because
//!    rebuilds are deterministic in the surviving membership. Past the k−1
//!    budget a node degrades instead of healing, and an excommunicated
//!    node rejoins by `JOIN` announcement or membership `SYNC`.
//! 6. **Metrics** ([`lhg_net::metrics`]) — counters, gauges and latency
//!    histograms shared by the whole cluster, exportable as JSON and as
//!    Prometheus text exposition. Wire-level accounting is recorded by the
//!    driver at the one site that writes a frame.
//! 7. **Observability** ([`lhg_trace`]) — every node feeds a per-node
//!    [`lhg_trace::FlightRecorder`] (connect/disconnect, frames,
//!    heartbeats, suspicion, crash reports, healing, broadcast
//!    accept/forward/deliver), stamped with the driver's clock — wall µs
//!    on sockets, virtual µs on the simulator — and dumpable as JSONL, and
//!    every broadcast carries a trace id so a shared
//!    [`lhg_trace::TraceCollector`] reconstructs the realized
//!    dissemination tree per broadcast.
//!
//! [`Cluster`] wires it all together for experiments and tests:
//!
//! ```no_run
//! use lhg_runtime::{Cluster, RuntimeConfig};
//! use lhg_core::Constraint;
//! use std::time::Duration;
//!
//! let mut c = Cluster::launch(Constraint::Jd, 12, 3, RuntimeConfig::default()).unwrap();
//! let inbox = c.subscribe(3); // a node keeps ids; payloads are handed over
//! let id = c.broadcast(0, bytes::Bytes::from_static(b"hello")).unwrap();
//! assert!(c.await_delivery(id, Duration::from_secs(5)));
//! assert_eq!(&inbox.recv().unwrap().payload[..], b"hello");
//! c.kill(7).unwrap();
//! assert!(c.await_heal(Duration::from_secs(10)));
//! println!("{}", c.metrics_json());
//! c.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

pub mod cluster;
pub mod core;
pub mod node;
pub mod simnode;
pub mod wire;

pub use cluster::{Cluster, ClusterError};
pub use lhg_net::metrics::{HistogramSummary, MetricsRegistry};
pub use node::{Directory, NodeShared};

/// Timing knobs for the runtime. Defaults suit loopback tests: fast
/// heartbeats, a timeout an order of magnitude above the period.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Longest a live link goes without a frame: a link nothing else was
    /// sent on for this long gets a heartbeat.
    pub heartbeat_period: Duration,
    /// Silence window after which a neighbor is declared crashed. Must
    /// comfortably exceed `heartbeat_period` to avoid false suspicion.
    pub heartbeat_timeout: Duration,
    /// Base delay of the jittered exponential redial backoff (the first
    /// retry waits roughly this long; see [`lhg_net::backoff`]).
    pub dial_backoff: Duration,
    /// Cap on the exponential redial delay.
    pub dial_backoff_cap: Duration,
    /// Consecutive dial failures to one peer before it is put on
    /// probation (periodic low-frequency probes instead of the
    /// exponential schedule). Never gives up permanently — a healed
    /// partition must eventually reconnect.
    pub dial_max_attempts: u32,
    /// Per-attempt TCP connect timeout.
    pub dial_timeout: Duration,
    /// How long [`Cluster::launch`] waits for the initial mesh.
    pub launch_timeout: Duration,
    /// Per-node flight-recorder ring capacity (events retained before the
    /// oldest are overwritten). See [`lhg_trace::FlightRecorder`].
    pub recorder_capacity: usize,
    /// Seed deriving each node's private RNG (dial jitter). Distinct nodes
    /// mix their member id in, so one seed drives the whole cluster.
    pub rng_seed: u64,
    /// Fault injector consulted on every frame write, frame read, and dial
    /// (chaos runs). `None` — the default — injects nothing.
    pub faults: Option<std::sync::Arc<lhg_net::fault::FaultInjector>>,
    /// Per-link reliability knobs ([`lhg_net::reliable`]): retransmit
    /// window/timeout/budget, backpressure queue bound, anti-entropy store
    /// size, and — via `summary_every`, reinterpreted as *heartbeat periods
    /// per summary* — the anti-entropy cadence. Retransmit sweeps and due
    /// acks run on the same `rto_us / 3` grid as on the simulator
    /// ([`lhg_net::reliable::ReliableConfig::sweep_us`]).
    pub reliable: lhg_net::reliable::ReliableConfig,
    /// Byzantine broadcast setup: when set, every node runs a Bracha
    /// echo/ready engine behind a per-link vote exchange
    /// ([`lhg_byzantine`]), and the listed traitor nodes actively
    /// misbehave. `None` — the default — still relays Bracha payloads
    /// (`SEND`) but delivers nothing.
    pub byzantine: Option<ByzantineSetup>,
}

/// Byzantine configuration for a cluster run: the traitor budget the
/// quorums are sized for, and which members (if any) actually misbehave.
///
/// Setting this also hardens the failure detector: crash suspicion then
/// requires corroboration from f+1 distinct reporters before it is
/// applied, defeating [`lhg_byzantine::TraitorBehavior::FrameCrash`]
/// (forged CRASH waves from one voice). A
/// [`lhg_byzantine::TraitorBehavior::SuppressHeartbeat`] traitor instead
/// *invites* excommunication — going silent so survivors churn — which
/// the epoch-stamped Bracha membership views absorb by re-sizing quorums
/// from the live view.
#[derive(Debug, Clone, Default)]
pub struct ByzantineSetup {
    /// Traitor budget f the Bracha quorums are sized for. The protocol is
    /// safe and live while the *actual* traitors number at most f.
    pub f: usize,
    /// Members corrupted for this run, with their behavior.
    pub traitors: Vec<(u64, lhg_byzantine::TraitorBehavior)>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heartbeat_period: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(300),
            dial_backoff: Duration::from_millis(20),
            dial_backoff_cap: Duration::from_millis(320),
            dial_max_attempts: 12,
            dial_timeout: Duration::from_millis(250),
            launch_timeout: Duration::from_secs(10),
            recorder_capacity: lhg_trace::DEFAULT_CAPACITY,
            rng_seed: 0x4C_48_47, // "LHG"
            faults: None,
            reliable: lhg_net::reliable::ReliableConfig::default(),
            byzantine: None,
        }
    }
}
