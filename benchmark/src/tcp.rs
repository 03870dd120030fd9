//! The TCP workloads: a fixed-rate open loop of floods over a 16-node
//! loopback cluster, and paced Bracha instances over fresh clusters.
//!
//! One thread generates the load; the cluster's own threads are the
//! program. Nothing inside a measured window clones a delivery log: the
//! window ends when the `runtime.deliveries` counter reaches the expected
//! total, and the correctness gate runs afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::alloc::AllocSnapshot;
use crate::budget::{self, Traced, Window as BudgetWindow};
use crate::inputs;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{lower_quartile, median, quantile, tree_shape};
use crate::sut::{Bytes, ClusterSpec, PathRecord, RuntimeCounters, TcpCluster, WireTotals};
use crate::sys;

/// Nodes of every TCP workload.
pub const N: usize = 16;
/// Connectivity of every TCP workload.
pub const K: usize = 3;
/// Silence window of the failure detector: far above any host stall seen
/// on a shared VM (695 ms), so a stall cannot pass for a crash and make
/// the cluster excommunicate live nodes mid-run.
pub const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);
/// A measured window is cut into slices this long; see README.md.
const SLICE: Duration = Duration::from_millis(500);
/// How long a window may take to drain before its deliveries count as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// A fixed-rate flood workload.
#[derive(Debug, Clone)]
pub struct FloodParams {
    /// Broadcasts per second offered, whatever the cluster does with them.
    pub rate_hz: u32,
    /// Payload bytes per broadcast.
    pub payload_len: usize,
    /// Load offered before the measured window, at the same rate.
    pub warmup: Duration,
    /// Clusters launched to sample the launch time; the last one is used.
    /// One launch and shutdown take about 20 ms.
    pub setups: usize,
}

/// `tcp_flood_small`.
pub fn flood_small() -> FloodParams {
    FloodParams {
        rate_hz: 500,
        payload_len: 64,
        warmup: Duration::from_secs(2),
        setups: 31,
    }
}

/// `tcp_flood_bulk`.
pub fn flood_bulk() -> FloodParams {
    FloodParams {
        rate_hz: 100,
        payload_len: 16 * 1024,
        ..flood_small()
    }
}

fn spec(bracha_f: Option<usize>, heartbeat_timeout: Duration) -> ClusterSpec {
    ClusterSpec {
        n: N,
        k: K,
        heartbeat_timeout,
        bracha_f,
    }
}

/// Launches a cluster (which builds its K-DIAMOND overlay) and validates
/// the overlay its nodes run: what a user does before the first broadcast.
/// Returns the cluster and when this started and ended.
pub fn set_up(
    spec: &ClusterSpec,
    outcome: &mut Outcome,
) -> Result<(TcpCluster, [Instant; 2]), String> {
    let start = Instant::now();
    let cluster = TcpCluster::launch(spec)?;
    let is_lhg = cluster.overlay_is_lhg(spec.k);
    let end = Instant::now();
    outcome.check(is_lhg, || {
        format!(
            "the overlay the cluster runs is not an LHG({}, {})",
            spec.n, spec.k
        )
    });
    Ok((cluster, [start, end]))
}

fn secs([start, end]: [Instant; 2]) -> f64 {
    end.duration_since(start).as_secs_f64()
}

/// One broadcast of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// Broadcast id the cluster returned.
    pub id: u64,
    /// When the schedule said to send it.
    pub due: Instant,
    /// When `broadcast` was actually called.
    pub called: Instant,
    /// When `broadcast` returned.
    pub returned: Instant,
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

/// The running totals a per-delivery figure is a quotient of, read in one
/// go without allocating: process CPU, deliveries, link frames and bytes,
/// heap allocations.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Process CPU, µs.
    pub cpu_us: f64,
    /// `runtime.deliveries`.
    pub deliveries: u64,
    /// Link frames of every class.
    pub frames: u64,
    /// Link bytes of every class.
    pub wire_bytes: u64,
    /// Heap allocations and the bytes they asked for.
    pub allocs: AllocSnapshot,
}

impl Reading {
    fn now(cluster: &TcpCluster) -> Self {
        let (frames, wire_bytes) = cluster.wire_sums();
        Reading {
            cpu_us: sys::process_cpu_us(),
            deliveries: cluster.deliveries(),
            frames,
            wire_bytes,
            allocs: AllocSnapshot::now(),
        }
    }

    /// What was added since `earlier`.
    fn since(&self, earlier: &Reading) -> Reading {
        Reading {
            cpu_us: self.cpu_us - earlier.cpu_us,
            deliveries: self.deliveries - earlier.deliveries,
            frames: self.frames - earlier.frames,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            allocs: self.allocs.since(earlier.allocs),
        }
    }
}

/// Sends one broadcast per entry of `origins`, `period` apart, on schedule
/// whether or not earlier ones have been delivered, taking a [`Reading`]
/// before the first broadcast and after every `slice` of them.
fn open_loop(
    cluster: &mut TcpCluster,
    origins: &[u32],
    payload: &Bytes,
    period: Duration,
    slice: usize,
) -> Result<(Vec<Issued>, Vec<Reading>), String> {
    let start = Instant::now();
    let mut issued = Vec::with_capacity(origins.len());
    let mut readings = Vec::with_capacity(origins.len() / slice + 2);
    for (i, &origin) in origins.iter().enumerate() {
        let due = start + period * i as u32;
        sleep_until(due);
        if i % slice == 0 {
            readings.push(Reading::now(cluster));
        }
        let called = Instant::now();
        let id = cluster.broadcast(origin, payload.clone())?;
        issued.push(Issued {
            id,
            due,
            called,
            returned: Instant::now(),
        });
    }
    Ok((issued, readings))
}

/// Waits until `runtime.deliveries` reaches `target`; `false` on timeout.
fn drain(cluster: &TcpCluster, target: u64) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while cluster.deliveries() < target {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// What the harness read around one measured window.
#[derive(Debug)]
pub struct Window {
    /// The broadcasts sent.
    pub issued: Vec<Issued>,
    /// First due time to last delivery, seconds.
    pub wall_s: f64,
    /// Runtime counters over the window.
    pub counters: RuntimeCounters,
    /// Frames and bytes per class over the window.
    pub wire: WireTotals,
    /// Whether every delivery arrived before the drain timeout.
    pub drained: bool,
    /// What each full [`SLICE`] of the window added; the whole window as
    /// one slice when it is shorter than that.
    pub slices: Vec<Reading>,
}

impl Window {
    /// Deliveries counted by the runtime over the window.
    pub fn deliveries(&self) -> f64 {
        self.counters.deliveries as f64
    }

    /// `what` per delivery: the median over the window's slices. A host
    /// stall of a second or two starves the node threads: their ack and
    /// heartbeat ticks are skipped, frames time out and are sent again,
    /// CPU is burnt catching up. That moves the one or two slices it
    /// falls into, and not the figure.
    pub fn per_delivery(&self, what: impl Fn(&Reading) -> f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| what(s) / s.deliveries as f64)
            .collect();
        median(&per_slice)
    }

    /// CPU µs per delivery.
    pub fn cpu_us_per_delivery(&self) -> f64 {
        self.per_delivery(|s| s.cpu_us)
    }
}

/// Offers `origins.len()` broadcasts at the workload's rate and reads
/// every counter immediately before the first and after the last delivery.
pub fn measure_flood(
    cluster: &mut TcpCluster,
    p: &FloodParams,
    origins: &[u32],
    payload: &Bytes,
) -> Result<Window, String> {
    let period = Duration::from_secs(1) / p.rate_hz;
    let counters0 = cluster.counters();
    let wire0 = cluster.wire();
    let start = Instant::now();
    let slice = ((SLICE.as_secs_f64() * f64::from(p.rate_hz)) as usize).max(1);
    let (issued, readings) = open_loop(cluster, origins, payload, period, slice)?;
    let drained = drain(
        cluster,
        counters0.deliveries + (origins.len() * cluster.n()) as u64,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let end = Reading::now(cluster);
    // A broadcast is delivered everywhere about a millisecond after it is
    // sent, so at most one or two straddle a reading: under 1 % of a slice.
    let mut slices: Vec<Reading> = readings
        .windows(2)
        .map(|r| r[1].since(&r[0]))
        .filter(|s| s.deliveries > 0)
        .collect();
    if slices.is_empty() {
        slices.extend(readings.first().map(|first| end.since(first)));
    }
    Ok(Window {
        issued,
        wall_s,
        counters: cluster.counters().since(&counters0),
        wire: cluster.wire().since(&wire0),
        drained,
        slices,
    })
}

/// Per-broadcast facts rebuilt from the runtime's path records.
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Due time → last node's delivery, ms, one per complete broadcast.
    pub latency_ms: Vec<f64>,
    /// Parent's delivery → child's delivery, µs, one per tree edge.
    pub hop_us: Vec<f64>,
    /// Deepest realized dissemination tree.
    pub depth_max: u32,
    /// Estimated cluster-epoch minus harness-epoch offset, µs.
    pub clock_offset_us: f64,
}

/// Path records grouped by broadcast id.
pub type ByBroadcast<'a> = BTreeMap<u64, Vec<&'a PathRecord>>;

/// Groups path records by the broadcast they belong to.
pub fn by_broadcast(records: &[PathRecord]) -> ByBroadcast<'_> {
    let mut by_id = ByBroadcast::new();
    for r in records {
        by_id.entry(r.id).or_default().push(r);
    }
    by_id
}

/// Joins the window's broadcasts with the cluster's path records.
///
/// The records carry times on the cluster's own clock. Its offset to the
/// harness clock is estimated as the smallest (origin record − call time)
/// over the window: the origin's record can only be later than the call,
/// by the hand-off to the origin's thread, which is a few µs at best. With
/// the offset, latency is taken from the time the broadcast was *due*, so
/// generator lateness and origin queueing both count.
pub fn tree_stats(
    issued: &[Issued],
    by_id: &ByBroadcast<'_>,
    epoch: Instant,
    n: usize,
    outcome: &mut Outcome,
) -> TreeStats {
    let us = |t: Instant| t.duration_since(epoch).as_nanos() as f64 / 1e3;
    let mut stats = TreeStats {
        clock_offset_us: f64::INFINITY,
        ..TreeStats::default()
    };
    let origin_at = |recs: &[&PathRecord]| {
        recs.iter()
            .find(|r| r.parent.is_none())
            .map(|r| r.at_us as f64)
    };
    for b in issued {
        if let Some(at) = by_id.get(&b.id).and_then(|r| origin_at(r)) {
            stats.clock_offset_us = stats.clock_offset_us.min(at - us(b.called));
        }
    }
    for b in issued {
        let recs = by_id.get(&b.id).map_or(&[][..], Vec::as_slice);
        let nodes: BTreeSet<u32> = recs.iter().map(|r| r.node).collect();
        outcome.check(nodes.len() == n && recs.len() == n, || {
            format!(
                "broadcast {:#x}: {} path records over {} nodes, expected {n}",
                b.id,
                recs.len(),
                nodes.len()
            )
        });
        if nodes.len() != n || origin_at(recs).is_none() {
            continue;
        }
        let at: BTreeMap<u32, f64> = recs.iter().map(|r| (r.node, r.at_us as f64)).collect();
        let last = at.values().copied().fold(0.0, f64::max);
        stats
            .latency_ms
            .push((last - stats.clock_offset_us - us(b.due)) / 1e3);
        let parent: BTreeMap<u32, u32> = recs
            .iter()
            .filter_map(|r| r.parent.map(|p| (r.node, p)))
            .collect();
        let (hops, depth) = tree_shape(&at, &parent);
        stats.hop_us.extend(hops);
        stats.depth_max = stats.depth_max.max(depth);
    }
    outcome.check(stats.depth_max <= n as u32, || {
        "parent pointers of a broadcast form a cycle".to_owned()
    });
    stats
}

/// The correctness gate of a flood run: every node delivered exactly the
/// issued ids, each once.
fn check_flood(cluster: &TcpCluster, issued_ids: &BTreeSet<u64>, outcome: &mut Outcome) {
    for node in 0..cluster.n() as u32 {
        let delivered = cluster.delivered_ids(node);
        let unique: BTreeSet<u64> = delivered.iter().copied().collect();
        outcome.attempted(issued_ids.len() as u64);
        let dups = delivered.len() - unique.len();
        let missing = issued_ids.difference(&unique).count();
        let stray = unique.difference(issued_ids).count();
        if dups + missing + stray > 0 {
            outcome.fail(
                (dups + missing + stray) as u64,
                format!("node {node}: {missing} missing, {dups} duplicate, {stray} unknown ids"),
            );
        }
    }
}

/// The offered rate was achieved within 1 %. A generator that cannot keep
/// up falls behind a little more with every broadcast, so it is late for
/// every one of the last; a host stall (20–700 ms on the shared VM) delays
/// only the broadcasts due while it lasts, and the backlog goes out at
/// once when it ends. The least late broadcast of the window's last
/// quarter tells the two apart: a shortfall of 1 % has made it late by
/// 1 % of three quarters of the window.
fn check_rate(issued: &[Issued], rate_hz: u32, outcome: &mut Outcome) {
    let [first, .., last] = issued else {
        return;
    };
    let window = last.due.duration_since(first.due);
    let tail = &issued[issued.len() - issued.len().div_ceil(4)..];
    let least_late = tail
        .iter()
        .map(|b| b.called.duration_since(b.due))
        .min()
        .unwrap_or_default();
    outcome.check(least_late <= window * 3 / 400, || {
        format!(
            "offered {}/s, but each of the last {} broadcasts went out at least {:.1} ms late",
            rate_hz,
            tail.len(),
            least_late.as_secs_f64() * 1e3
        )
    });
}

fn lateness_ms(issued: &[Issued]) -> Vec<f64> {
    issued
        .iter()
        .map(|b| b.called.duration_since(b.due).as_secs_f64() * 1e3)
        .collect()
}

/// A launched and warmed-up cluster, ready for measured windows.
struct Warm {
    cluster: TcpCluster,
    /// Seconds each [`set_up`] took.
    launch_s: Vec<f64>,
    /// Seconds from the first warm-up broadcast being due to the last one
    /// being delivered everywhere.
    warmup_s: f64,
    payload: Bytes,
    origins: Vec<u32>,
    next_origin: usize,
    issued_ids: BTreeSet<u64>,
}

impl Warm {
    fn take_origins(&mut self, count: usize) -> Vec<u32> {
        let slice = self.origins[self.next_origin..self.next_origin + count].to_vec();
        self.next_origin += count;
        slice
    }
}

/// Launches `p.setups` clusters (keeping the last), then offers the
/// warm-up load and waits for it to be delivered everywhere.
fn warm_up(
    p: &FloodParams,
    seed: u64,
    measured: usize,
    outcome: &mut Outcome,
) -> Result<Warm, String> {
    let spec = spec(None, HEARTBEAT_TIMEOUT);
    let mut launch_s = Vec::with_capacity(p.setups);
    let mut kept = None;
    for _ in 0..p.setups.max(1) {
        if let Some(previous) = kept.take() {
            TcpCluster::shutdown(previous);
        }
        let (cluster, launch) = set_up(&spec, outcome)?;
        launch_s.push(secs(launch));
        kept = Some(cluster);
    }
    let cluster = kept.expect("at least one set-up");
    let warm_count = (p.warmup.as_secs_f64() * f64::from(p.rate_hz)) as usize;
    let mut warm = Warm {
        cluster,
        launch_s,
        warmup_s: 0.0,
        payload: Bytes::from(inputs::payload(seed, p.payload_len)),
        origins: inputs::origins(seed, warm_count + measured, N),
        next_origin: 0,
        issued_ids: BTreeSet::new(),
    };
    let origins = warm.take_origins(warm_count);
    let w = measure_flood(&mut warm.cluster, p, &origins, &warm.payload)?;
    outcome.check(w.drained, || "warm-up deliveries timed out".to_owned());
    warm.warmup_s = w.wall_s;
    warm.issued_ids.extend(w.issued.iter().map(|b| b.id));
    Ok(warm)
}

fn broadcasts_in(p: &FloodParams, seconds: f64) -> usize {
    ((seconds * f64::from(p.rate_hz)) as usize).max(1)
}

/// The untraced run of a flood workload: every end-to-end metric.
pub fn run_flood(p: &FloodParams, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let count = broadcasts_in(p, seconds);
    let epoch = Instant::now();
    let mut warm = warm_up(p, seed, count, &mut outcome)?;
    let origins = warm.take_origins(count);
    let w = measure_flood(&mut warm.cluster, p, &origins, &warm.payload)?;
    let peak_rss = sys::peak_rss_mib();

    outcome.check(w.drained, || "measured deliveries timed out".to_owned());
    check_rate(&w.issued, p.rate_hz, &mut outcome);
    warm.issued_ids.extend(w.issued.iter().map(|b| b.id));
    check_flood(&warm.cluster, &warm.issued_ids, &mut outcome);
    let records = warm.cluster.path_records();
    let trees = tree_stats(&w.issued, &by_broadcast(&records), epoch, N, &mut outcome);
    warm.cluster.shutdown();
    if trees.latency_ms.is_empty() {
        return Err("no broadcast of the measured window completed".to_owned());
    }

    let d = w.deliveries();
    let launch_s = lower_quartile(&warm.launch_s);
    outcome.set("setup_s", launch_s + warm.warmup_s);
    outcome.set("frames_per_delivery", w.per_delivery(|s| s.frames as f64));
    outcome.set(
        "wire_bytes_per_delivery",
        w.per_delivery(|s| s.wire_bytes as f64),
    );
    outcome.set(
        "allocs_per_delivery",
        w.per_delivery(|s| s.allocs.allocs as f64),
    );
    outcome.set(
        "alloc_bytes_per_delivery",
        w.per_delivery(|s| s.allocs.bytes as f64),
    );
    outcome.set("peak_rss_mib", peak_rss);
    outcome.report("bcast_latency_p50_ms", median(&trees.latency_ms));
    outcome.report("cpu_us_per_delivery", w.cpu_us_per_delivery());
    eprintln!(
        "# launch {:.3} ms (lower quartile of {}); {} broadcasts, {} deliveries; latency p90 \
         {:.3} ms, p99 {:.3} ms, max {:.3} ms, generator late p99 {:.3} ms; frames per delivery \
         {:.4?}, {} retransmits, {} pulls",
        launch_s * 1e3,
        warm.launch_s.len(),
        w.issued.len(),
        w.counters.deliveries,
        quantile(&trees.latency_ms, 0.90),
        quantile(&trees.latency_ms, 0.99),
        quantile(&trees.latency_ms, 1.0),
        quantile(&lateness_ms(&w.issued), 0.99),
        w.wire.per_delivery(d),
        w.counters.retransmits,
        w.counters.pulls_sent,
    );
    Ok(outcome)
}

/// What a window of floods says about the layers: the cost of the
/// `broadcast` call, hop time and depth of the realized trees, the latency
/// tail, and how late the generator ran.
///
/// # Errors
///
/// When no broadcast of the window completed.
pub fn flood_metrics(
    outcome: &mut Outcome,
    issued: &[Issued],
    trees: &TreeStats,
) -> Result<(), String> {
    if trees.latency_ms.is_empty() {
        return Err("no broadcast of the window completed".to_owned());
    }
    let calls: Vec<f64> = issued
        .iter()
        .map(|b| b.returned.duration_since(b.called).as_nanos() as f64 / 1e3)
        .collect();
    let late = lateness_ms(issued);
    outcome.set("runtime.broadcast_call_us", median(&calls));
    outcome.set("runtime.hop_latency_p50_us", median(&trees.hop_us));
    outcome.set("runtime.tree_depth_max", f64::from(trees.depth_max));
    outcome.set("cluster.bcast_latency_p50_ms", median(&trees.latency_ms));
    outcome.set(
        "cluster.bcast_latency_p90_ms",
        quantile(&trees.latency_ms, 0.90),
    );
    outcome.set(
        "cluster.bcast_latency_p99_ms",
        quantile(&trees.latency_ms, 0.99),
    );
    outcome.set(
        "cluster.bcast_latency_max_ms",
        quantile(&trees.latency_ms, 1.0),
    );
    outcome.set("harness.gen_late_p99_ms", quantile(&late, 0.99));
    outcome.set("harness.gen_late_max_ms", quantile(&late, 1.0));
    Ok(())
}

/// Per-delivery frame counts by class, and the repair counters.
fn class_metrics(
    outcome: &mut Outcome,
    wire: &WireTotals,
    retransmits: u64,
    pulls: u64,
    deliveries: f64,
) {
    budget::set_frame_mix(outcome, wire, deliveries);
    outcome.set(
        "reliable.retransmits_per_delivery",
        retransmits as f64 / deliveries,
    );
    outcome.set("reliable.pulls_per_delivery", pulls as f64 / deliveries);
}

/// One `broadcast_call` span per broadcast and, below it, one `hop` span per
/// edge of its realized dissemination tree: from the parent's delivery to
/// the child's, caused by the edge that reached the parent. Path-record
/// times are moved onto the span log's clock by `clock_offset_us`.
fn tree_spans(
    log: &mut SpanLog,
    window_span: usize,
    issued: &[Issued],
    by_id: &ByBroadcast<'_>,
    clock_offset_us: f64,
) {
    for b in issued {
        let call = log.push(
            "broadcast_call",
            log.at(b.called),
            log.at(b.returned),
            Some(window_span),
            Some(b.id),
        );
        // Parents before children, so that an edge can name the span of
        // the edge that reached its sender.
        let mut recs = by_id.get(&b.id).cloned().unwrap_or_default();
        recs.sort_by_key(|r| r.at_us);
        let at = |r: &PathRecord| r.at_us as f64 - clock_offset_us;
        let mut reached: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
        for r in recs {
            let span = match r.parent.and_then(|p| reached.get(&p).copied()) {
                Some((parent_span, parent_at)) => {
                    log.push("hop", parent_at, at(r), Some(parent_span), Some(b.id))
                }
                None => call,
            };
            reached.insert(r.node, (span, at(r)));
        }
    }
}

/// The traced run of a flood workload: one window of `seconds / 2`, with
/// spans around launch, every broadcast call and shutdown, and one span
/// per dissemination-tree edge.
pub fn trace_flood(
    p: &FloodParams,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> Result<Traced, String> {
    let mut outcome = Outcome::default();
    let count = broadcasts_in(p, seconds / 2.0);
    let one_setup = FloodParams {
        setups: 1,
        ..p.clone()
    };
    let (warm, _) = log.scope("launch+warmup", None, || {
        warm_up(&one_setup, seed, count, &mut outcome)
    });
    let mut warm = warm?;

    let origins = warm.take_origins(count);
    let start = Instant::now();
    let traced = measure_flood(&mut warm.cluster, p, &origins, &warm.payload)?;
    let window_span = log.push("window", log.at(start), log.at(Instant::now()), None, None);
    outcome.check(traced.drained, || {
        "traced-run deliveries timed out".to_owned()
    });
    warm.issued_ids.extend(traced.issued.iter().map(|b| b.id));
    check_flood(&warm.cluster, &warm.issued_ids, &mut outcome);

    // The spans of the window are built here, after it, from the instants
    // the generator keeps in every run and from the runtime's path
    // records: on TCP, tracing costs the window nothing.
    let records = warm.cluster.path_records();
    let by_id = by_broadcast(&records);
    let trees = tree_stats(&traced.issued, &by_id, log.epoch(), N, &mut outcome);
    tree_spans(
        log,
        window_span,
        &traced.issued,
        &by_id,
        trees.clock_offset_us,
    );
    log.scope("shutdown", None, || warm.cluster.shutdown());

    let d = traced.deliveries();
    let cpu = traced.cpu_us_per_delivery();
    flood_metrics(&mut outcome, &traced.issued, &trees)?;
    class_metrics(
        &mut outcome,
        &traced.wire,
        traced.counters.retransmits,
        traced.counters.pulls_sent,
        d,
    );
    outcome.set("cluster.cpu_us_per_delivery", cpu);
    outcome.set("cluster.deliveries_per_s", d / traced.wall_s);
    outcome.none_of(&[
        "harness.trace_overhead_pct",
        "sim.self_time_share",
        "bracha.handler_share",
    ]);
    Ok(Traced {
        outcome,
        cpu_us_per_delivery: cpu,
        wire_per_delivery: traced.wire.per_delivery(d),
        window: BudgetWindow::Tcp {
            n: N,
            payload_len: p.payload_len,
            wall_s_per_delivery: traced.wall_s / d,
            bracha: false,
        },
    })
}

// ------------------------------------------------------------- Bracha

/// The paced-Bracha workload.
#[derive(Debug, Clone)]
pub struct BrachaParams {
    /// Traitor budget the quorums are sized for; no node misbehaves.
    pub f: usize,
    /// Payload bytes per instance.
    pub payload_len: usize,
    /// Instances per cluster. Four, because `BrachaEngine::regossip`
    /// re-floods every standing vote of every past instance on each
    /// summary tick: at 10 accumulated instances a cluster stalls for
    /// seconds, at 40/s it runs out of memory. See README.md.
    pub instances_per_epoch: usize,
    /// Gap between originations: one instance in flight at a time.
    pub period: Duration,
}

/// `tcp_bracha`.
pub fn bracha() -> BrachaParams {
    BrachaParams {
        f: 1,
        payload_len: 1024,
        instances_per_epoch: 4,
        period: Duration::from_millis(200),
    }
}

/// When one instance of an epoch was due, called, back from the call, and
/// delivered by all n nodes.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// The instance's nonce.
    pub nonce: u64,
    /// When the schedule said to originate it.
    pub due: Instant,
    /// When `byzantine_broadcast` was called.
    pub called: Instant,
    /// When it returned.
    pub returned: Instant,
    /// When `runtime.byz_delivered` had grown by n (or the wait timed out).
    pub done: Instant,
}

/// One fresh cluster running `instances_per_epoch` paced instances.
#[derive(Debug)]
pub struct Epoch {
    /// `[start, end]` of the set-up (launch + validate) and of the shutdown.
    pub launch: [Instant; 2],
    /// As `launch`.
    pub shutdown: [Instant; 2],
    /// The instances, in order.
    pub instances: Vec<Instance>,
    /// First due → last delivery, seconds.
    pub wall_s: f64,
    /// Process CPU over that interval, µs.
    pub cpu_us: f64,
    /// Counters over that interval.
    pub counters: RuntimeCounters,
    /// Frames and bytes over that interval.
    pub wire: WireTotals,
    /// Heap allocations over that interval.
    pub allocs: AllocSnapshot,
}

/// `f(instance)` in ms for every instance of `epochs`.
fn per_instance(epochs: &[Epoch], f: impl Fn(&Instance) -> Duration) -> Vec<f64> {
    epochs
        .iter()
        .flat_map(|e| &e.instances)
        .map(|i| f(i).as_secs_f64() * 1e3)
        .collect()
}

/// Due → all n nodes delivered, ms, per instance.
fn bracha_latency_ms(epochs: &[Epoch]) -> Vec<f64> {
    per_instance(epochs, |i| i.done.duration_since(i.due))
}

/// Runs one epoch; `index` keeps nonces and origins distinct per epoch.
pub fn bracha_epoch(
    p: &BrachaParams,
    seed: u64,
    index: usize,
    outcome: &mut Outcome,
) -> Result<Epoch, String> {
    let (mut cluster, launch) = set_up(&spec(Some(p.f), HEARTBEAT_TIMEOUT), outcome)?;
    let n = cluster.n() as u64;
    let payload = inputs::payload(seed ^ index as u64, p.payload_len);
    let digest = crate::sut::payload_digest(&payload);
    let payload = Bytes::from(payload);
    let origins = inputs::origins(seed ^ index as u64, p.instances_per_epoch, N);

    let counters0 = cluster.counters();
    let wire0 = cluster.wire();
    let allocs0 = AllocSnapshot::now();
    let cpu0 = sys::process_cpu_us();
    let start = Instant::now();
    let mut instances = Vec::with_capacity(origins.len());
    for (j, &origin) in origins.iter().enumerate() {
        let due = start + p.period * j as u32;
        sleep_until(due);
        let called = Instant::now();
        let nonce = (index * p.instances_per_epoch + j + 1) as u64;
        cluster.byzantine_broadcast(origin, nonce, payload.clone())?;
        let returned = Instant::now();
        let target = counters0.byz_delivered + (j as u64 + 1) * n;
        let deadline = due + DRAIN_TIMEOUT;
        while cluster.byz_deliveries() < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        let done = Instant::now();
        outcome.check(cluster.byz_deliveries() >= target, || {
            format!("epoch {index} instance {nonce}: not delivered by all {n} nodes")
        });
        instances.push(Instance {
            nonce,
            due,
            called,
            returned,
            done,
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_us = sys::process_cpu_us() - cpu0;
    let counters = cluster.counters().since(&counters0);
    let wire = cluster.wire().since(&wire0);
    let allocs = AllocSnapshot::now().since(allocs0);

    // Correctness gate, outside the window: every node delivered every
    // nonce of this epoch once, with the digest of the origin's payload.
    let first = (index * p.instances_per_epoch + 1) as u64;
    let expected: BTreeSet<u64> = (first..first + p.instances_per_epoch as u64).collect();
    for node in 0..n as u32 {
        let got = cluster.byz_delivered(node);
        outcome.attempted(expected.len() as u64);
        let nonces: BTreeSet<u64> = got.iter().map(|d| d.nonce).collect();
        let bad = got.iter().filter(|d| d.digest != digest).count()
            + (got.len() - nonces.len())
            + expected.symmetric_difference(&nonces).count();
        if bad > 0 {
            outcome.fail(
                bad as u64,
                format!("epoch {index} node {node}: {bad} wrong, missing or repeated deliveries"),
            );
        }
    }
    let shutdown_start = Instant::now();
    cluster.shutdown();
    Ok(Epoch {
        launch,
        shutdown: [shutdown_start, Instant::now()],
        instances,
        wall_s,
        cpu_us,
        counters,
        wire,
        allocs,
    })
}

/// Totals over the epochs of a traced run.
struct EpochSums {
    deliveries: f64,
    wire: WireTotals,
    retransmits: u64,
    pulls: u64,
    wall_s: f64,
}

fn sum_epochs(epochs: &[Epoch]) -> EpochSums {
    let mut s = EpochSums {
        deliveries: 0.0,
        wire: WireTotals::default(),
        retransmits: 0,
        pulls: 0,
        wall_s: 0.0,
    };
    for e in epochs {
        s.deliveries += e.counters.byz_delivered as f64;
        s.retransmits += e.counters.retransmits;
        s.pulls += e.counters.pulls_sent;
        s.wall_s += e.wall_s;
        s.wire = s.wire.plus(&e.wire);
    }
    s
}

/// `what` per delivery: the median over epochs, so that an epoch stalled
/// by the host (skipped ticks, retransmissions, catch-up CPU) cannot move
/// it.
fn per_delivery(epochs: &[Epoch], what: impl Fn(&Epoch) -> f64) -> f64 {
    let per_epoch: Vec<f64> = epochs
        .iter()
        .map(|e| what(e) / (e.counters.byz_delivered as f64).max(1.0))
        .collect();
    median(&per_epoch)
}

/// Runs one warm-up epoch, then epochs until `seconds` have passed.
/// Returns the warm-up epoch and the measured ones.
fn bracha_epochs(
    p: &BrachaParams,
    seed: u64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(Epoch, Vec<Epoch>), String> {
    // The first cluster of a process pays for lazily mapped pages and cold
    // caches; it is checked like the others and counted as set-up.
    let warmup = bracha_epoch(p, seed, 0, outcome)?;
    let start = Instant::now();
    let mut epochs = Vec::new();
    while epochs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        epochs.push(bracha_epoch(p, seed, epochs.len() + 1, outcome)?);
    }
    Ok((warmup, epochs))
}

/// The untraced run of `tcp_bracha`: every end-to-end metric.
pub fn run_bracha(p: &BrachaParams, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (warmup, epochs) = bracha_epochs(p, seed, seconds, &mut outcome)?;
    let peak_rss = sys::peak_rss_mib();
    let latency = bracha_latency_ms(&epochs);
    let launches: Vec<f64> = epochs.iter().map(|e| secs(e.launch)).collect();
    let launch_s = lower_quartile(&launches);
    outcome.set("setup_s", launch_s + warmup.wall_s);
    outcome.set(
        "frames_per_delivery",
        per_delivery(&epochs, |e| e.wire.frames() as f64),
    );
    outcome.set(
        "wire_bytes_per_delivery",
        per_delivery(&epochs, |e| e.wire.bytes() as f64),
    );
    outcome.set(
        "allocs_per_delivery",
        per_delivery(&epochs, |e| e.allocs.allocs as f64),
    );
    outcome.set(
        "alloc_bytes_per_delivery",
        per_delivery(&epochs, |e| e.allocs.bytes as f64),
    );
    outcome.set("peak_rss_mib", peak_rss);
    outcome.report("bcast_latency_p50_ms", median(&latency));
    outcome.report("cpu_us_per_delivery", per_delivery(&epochs, |e| e.cpu_us));
    eprintln!(
        "# launch {:.3} ms (lower quartile of {}); {} epochs, {} instances; latency p90 {:.3} ms, \
         max {:.3} ms",
        launch_s * 1e3,
        launches.len(),
        epochs.len(),
        latency.len(),
        quantile(&latency, 0.90),
        quantile(&latency, 1.0),
    );
    Ok(outcome)
}

/// The traced run of `tcp_bracha`: epochs for `seconds / 2`, with spans
/// around launch, each call, each wait and shutdown.
pub fn trace_bracha(
    p: &BrachaParams,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> Result<Traced, String> {
    let mut outcome = Outcome::default();
    let (_, epochs) = bracha_epochs(p, seed, seconds / 2.0, &mut outcome)?;
    // As for the floods, the spans are built after the epochs from the
    // instants every run keeps: tracing costs the epochs nothing.
    fn span(
        log: &mut SpanLog,
        name: &'static str,
        [start, end]: [Instant; 2],
        parent: Option<usize>,
        nonce: Option<u64>,
    ) -> usize {
        log.push(name, log.at(start), log.at(end), parent, nonce)
    }
    for e in &epochs {
        let launch = span(log, "launch", e.launch, None, None);
        for i in &e.instances {
            let call = span(
                log,
                "byzantine_broadcast_call",
                [i.called, i.returned],
                Some(launch),
                Some(i.nonce),
            );
            span(
                log,
                "await_all_delivered",
                [i.returned, i.done],
                Some(call),
                Some(i.nonce),
            );
        }
        span(log, "shutdown", e.shutdown, Some(launch), None);
    }
    let sums = sum_epochs(&epochs);
    let wire = &sums.wire;
    let d = sums.deliveries.max(1.0);
    let cpu = per_delivery(&epochs, |e| e.cpu_us);
    let latency = bracha_latency_ms(&epochs);
    let late = per_instance(&epochs, |i| i.called.duration_since(i.due));
    let calls = per_instance(&epochs, |i| i.returned.duration_since(i.called));
    outcome.set("runtime.broadcast_call_us", median(&calls) * 1e3);
    class_metrics(&mut outcome, wire, sums.retransmits, sums.pulls, d);
    outcome.set("cluster.cpu_us_per_delivery", cpu);
    outcome.set("cluster.deliveries_per_s", d / sums.wall_s);
    outcome.set("cluster.bcast_latency_p50_ms", median(&latency));
    outcome.set("cluster.bcast_latency_p90_ms", quantile(&latency, 0.90));
    outcome.set("cluster.bcast_latency_p99_ms", quantile(&latency, 0.99));
    outcome.set("cluster.bcast_latency_max_ms", quantile(&latency, 1.0));
    outcome.set("harness.gen_late_p99_ms", quantile(&late, 0.99));
    outcome.set("harness.gen_late_max_ms", quantile(&late, 1.0));
    // A Bracha delivery is triggered by the vote that completed a quorum,
    // not by a copy travelling down a tree: there is no realized
    // dissemination tree to measure.
    outcome.none_of(&[
        "runtime.hop_latency_p50_us",
        "runtime.tree_depth_max",
        "harness.trace_overhead_pct",
        "sim.self_time_share",
        "bracha.handler_share",
    ]);
    Ok(Traced {
        outcome,
        cpu_us_per_delivery: cpu,
        wire_per_delivery: wire.per_delivery(d),
        window: BudgetWindow::Tcp {
            n: N,
            payload_len: p.payload_len,
            wall_s_per_delivery: sums.wall_s / d,
            bracha: true,
        },
    })
}

/// Launches a cluster with the given failure-detector window: for the
/// runtime probes of `layers.rs`.
pub fn probe_spec(heartbeat_timeout: Duration) -> ClusterSpec {
    spec(None, heartbeat_timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1000 broadcasts at 500/s, the i-th called `late(i)` after it was due.
    fn failed_rate_checks(late: impl Fn(usize) -> Duration) -> u64 {
        let start = Instant::now();
        let issued: Vec<Issued> = (0..1000)
            .map(|i| {
                let due = start + Duration::from_millis(2) * i as u32;
                Issued {
                    id: i as u64,
                    due,
                    called: due + late(i),
                    returned: due + late(i),
                }
            })
            .collect();
        let mut outcome = Outcome::default();
        check_rate(&issued, 500, &mut outcome);
        outcome.failed
    }

    #[test]
    fn a_stalled_slice_does_not_move_a_per_delivery_figure() {
        let slice = |frames: u64, cpu_us: f64| Reading {
            cpu_us,
            deliveries: 4000,
            frames,
            wire_bytes: 100 * frames,
            allocs: AllocSnapshot {
                allocs: 75 * 4000,
                bytes: 0,
            },
        };
        let mut slices = vec![slice(13_200, 480_000.0); 9];
        // Skipped ack ticks, retransmissions and catch-up CPU in one slice.
        slices.push(slice(11_000, 900_000.0));
        let w = Window {
            issued: Vec::new(),
            wall_s: 5.0,
            counters: RuntimeCounters::default(),
            wire: WireTotals::default(),
            drained: true,
            slices,
        };
        assert_eq!(w.per_delivery(|s| s.frames as f64), 3.3);
        assert_eq!(w.cpu_us_per_delivery(), 120.0);
        assert_eq!(w.per_delivery(|s| s.allocs.allocs as f64), 75.0);
    }

    #[test]
    fn a_host_stall_is_not_a_missed_rate_but_falling_behind_is() {
        assert_eq!(failed_rate_checks(|_| Duration::from_micros(150)), 0);
        // A 400 ms stall that ends with the window: the broadcasts due
        // during it all go out when it ends.
        let stall =
            |i: usize| Duration::from_millis(if i >= 800 { 2 * (1000 - i as u64) } else { 0 });
        assert_eq!(failed_rate_checks(stall), 0);
        // 2 % too slow: every broadcast 40 µs later than the one before.
        assert_eq!(
            failed_rate_checks(|i| Duration::from_micros(40) * i as u32),
            1
        );
        // 0.5 % too slow is within the 1 % allowed.
        assert_eq!(
            failed_rate_checks(|i| Duration::from_micros(10) * i as u32),
            0
        );
    }
}
