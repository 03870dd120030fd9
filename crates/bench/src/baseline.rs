//! First recorded benchmark baseline (`BENCH_<pr>.json`): broadcast
//! throughput and delivery latency, plain flooding vs Bracha Byzantine
//! broadcast, over K-DIAMOND overlays on the discrete-event simulator.
//!
//! ROADMAP item 5 wants a persistent perf trajectory; this module is its
//! starting point. Both modes run the *same* workload shape — `BROADCASTS`
//! staggered broadcasts from rotating origins over one simulation run —
//! so the cost of Bracha's echo/ready quorum rounds shows up directly as
//! a message multiplier and a latency multiplier against the plain-flood
//! rows. Links are zero-jitter, so per-delivery latencies (virtual time)
//! are deterministic; throughput (messages the engine pushes per
//! wall-clock second) is the one machine-dependent number, which is the
//! point of recording a baseline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_byzantine::{BrachaConfig, ByzantineFlooder, ScheduledByzBroadcast};
use lhg_core::kdiamond::build_kdiamond;
use lhg_graph::NodeId;
use lhg_net::message::Message;
use lhg_net::metrics::MetricsRegistry;
use lhg_net::seen::SeenSet;
use lhg_net::sim::{Context, LinkModel, Process, Simulation, Time};

/// Connectivity parameter for every baseline row.
pub const K: usize = 3;
/// Broadcasts per run, staggered [`STAGGER_US`] apart.
pub const BROADCASTS: usize = 32;
/// Gap between consecutive broadcast originations, µs.
pub const STAGGER_US: Time = 10_000;
/// Deterministic zero-jitter link: 1 ms per hop.
pub const LINK: LinkModel = LinkModel {
    base_latency_us: 1_000,
    jitter_us: 0,
};

/// One measured row of the baseline table.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// `"flood"` or `"bracha"`.
    pub mode: &'static str,
    /// Overlay size.
    pub n: usize,
    /// Broadcasts originated.
    pub broadcasts: usize,
    /// Application-level deliveries observed (expect `n × broadcasts`).
    pub deliveries: usize,
    /// Messages the engine put on links.
    pub messages: u64,
    /// Bytes on the wire across all links (encoded message bodies, from
    /// the engine's `sim.bytes_sent` counter).
    pub bytes: u64,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: f64,
    /// Engine throughput: `messages / wall seconds`.
    pub throughput_msgs_per_sec: f64,
    /// Median origination→delivery latency, µs of virtual time.
    pub p50_latency_us: u64,
    /// 99th-percentile origination→delivery latency, µs of virtual time.
    pub p99_latency_us: u64,
}

/// Plain flooding, but originating each scheduled broadcast from a timer
/// instead of at time 0 — the multi-broadcast counterpart of
/// [`lhg_net::broadcast::FloodProcess`], so both baseline modes run one
/// simulation over an identical staggered workload.
struct StaggeredFlood {
    /// `(broadcast_id, origination time)` this node originates.
    schedule: Vec<(u64, Time)>,
    seen: SeenSet,
}

impl Process for StaggeredFlood {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, &(_, at)) in self.schedule.iter().enumerate() {
            ctx.set_timer(at, i as u64);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let (id, _) = self.schedule[token as usize];
        self.seen.insert(id);
        let msg = Message::new(id, ctx.id().index() as u32, payload());
        ctx.deliver(msg.clone());
        for &w in &ctx.neighbors().to_vec() {
            ctx.send(w, msg.clone());
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        if !self.seen.insert(msg.broadcast_id) {
            return;
        }
        ctx.deliver(msg.clone());
        let fwd = msg.forwarded();
        for &w in &ctx.neighbors().to_vec() {
            if w != from {
                ctx.send(w, fwd.clone());
            }
        }
    }
}

fn payload() -> Bytes {
    Bytes::from_static(b"bench baseline payload")
}

/// The staggered workload: broadcast `i` (id/nonce `i + 1`) originates at
/// node `i mod n` at time `i × STAGGER_US`.
fn schedule(n: usize) -> Vec<(NodeId, u64, Time)> {
    (0..BROADCASTS)
        .map(|i| (NodeId(i % n), i as u64 + 1, i as Time * STAGGER_US))
        .collect()
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

#[allow(clippy::too_many_arguments)]
fn finish_row(
    mode: &'static str,
    n: usize,
    deliveries: usize,
    messages: u64,
    bytes: u64,
    mut latencies: Vec<u64>,
    wall: std::time::Duration,
) -> BaselineRow {
    latencies.sort_unstable();
    let wall_secs = wall.as_secs_f64().max(1e-9);
    BaselineRow {
        mode,
        n,
        broadcasts: BROADCASTS,
        deliveries,
        messages,
        bytes,
        wall_ms: wall.as_secs_f64() * 1e3,
        #[allow(clippy::cast_precision_loss)]
        throughput_msgs_per_sec: messages as f64 / wall_secs,
        p50_latency_us: percentile(&latencies, 50),
        p99_latency_us: percentile(&latencies, 99),
    }
}

/// Runs the plain-flooding side of the baseline at size `n`.
///
/// # Panics
///
/// Panics if the overlay fails to build or a delivery goes missing.
#[must_use]
pub fn run_flood_baseline(n: usize) -> BaselineRow {
    let overlay = build_kdiamond(n, K).expect("builds");
    let sched = schedule(n);
    let origin_time: BTreeMap<u64, Time> = sched.iter().map(|&(_, id, at)| (id, at)).collect();
    let started = Instant::now();
    let metrics = Arc::new(MetricsRegistry::new());
    let mut sim = Simulation::new(overlay.graph(), LINK, 42);
    sim.with_metrics(Arc::clone(&metrics));
    let processes: Vec<Box<dyn Process>> = (0..n)
        .map(|v| -> Box<dyn Process> {
            Box::new(StaggeredFlood {
                schedule: sched
                    .iter()
                    .filter(|&&(o, _, _)| o == NodeId(v))
                    .map(|&(_, id, at)| (id, at))
                    .collect(),
                seen: SeenSet::default(),
            })
        })
        .collect();
    let report = sim.run(processes, Time::MAX);
    let wall = started.elapsed();
    let latencies: Vec<u64> = report
        .deliveries
        .iter()
        .map(|d| d.time - origin_time[&d.broadcast_id])
        .collect();
    assert_eq!(report.deliveries.len(), n * BROADCASTS, "flood n={n}");
    finish_row(
        "flood",
        n,
        report.deliveries.len(),
        report.messages_sent,
        metrics.counter("sim.bytes_sent").get(),
        latencies,
        wall,
    )
}

/// Runs the Bracha side of the baseline at size `n`: same workload, no
/// traitors, quorums sized for the full f = ⌊(k−1)/2⌋ budget.
///
/// # Panics
///
/// Panics if the overlay fails to build or a delivery goes missing.
#[must_use]
pub fn run_bracha_baseline(n: usize) -> BaselineRow {
    let overlay = build_kdiamond(n, K).expect("builds");
    let sched = schedule(n);
    let origin_time: BTreeMap<u64, Time> = sched.iter().map(|&(_, id, at)| (id, at)).collect();
    let cfg = BrachaConfig::for_overlay(n, K).expect("LHG overlays are quorum-sound: n ≥ 2k");
    let horizon = BROADCASTS as Time * STAGGER_US + 1_000_000;
    let started = Instant::now();
    let metrics = Arc::new(MetricsRegistry::new());
    let mut sim = Simulation::new(overlay.graph(), LINK, 42);
    sim.with_metrics(Arc::clone(&metrics));
    let processes: Vec<Box<dyn Process>> = (0..n)
        .map(|v| -> Box<dyn Process> {
            let schedule = (sched.iter())
                .filter(|&&(o, _, _)| o == NodeId(v))
                .map(|&(_, nonce, at_us)| ScheduledByzBroadcast {
                    nonce,
                    payload: payload(),
                    at_us,
                })
                .collect();
            let node = ByzantineFlooder::new(v as u32, cfg).with_schedule(schedule);
            Box::new(node.with_metrics(Arc::clone(&metrics)))
        })
        .collect();
    let report = sim.run(processes, horizon);
    let wall = started.elapsed();
    let latencies: Vec<u64> = report
        .deliveries
        .iter()
        .map(|d| d.time - origin_time[&d.broadcast_id])
        .collect();
    assert_eq!(report.deliveries.len(), n * BROADCASTS, "bracha n={n}");
    finish_row(
        "bracha",
        n,
        report.deliveries.len(),
        report.messages_sent,
        metrics.counter("sim.bytes_sent").get(),
        latencies,
        wall,
    )
}

/// Runs the full baseline matrix (both modes at n ∈ `sizes`) and renders
/// the `BENCH_<pr>.json` document: a stable hand-rolled schema (the bench
/// crate carries no JSON dependency), one object per row.
///
/// # Panics
///
/// Panics if any run loses a delivery (the baseline must be a correct
/// run, or its numbers mean nothing).
#[must_use]
pub fn baseline_json(sizes: &[usize]) -> String {
    baseline_json_for(sizes, sizes)
}

/// Like [`baseline_json`] with independent size lists per mode —
/// flooding scales to n=1024 in seconds, but Bracha's quorum gossip is
/// O(n²) messages per broadcast, so its list typically stops earlier.
///
/// # Panics
///
/// Panics if any run loses a delivery.
#[must_use]
pub fn baseline_json_for(flood_sizes: &[usize], bracha_sizes: &[usize]) -> String {
    let mut rows = Vec::new();
    for &n in flood_sizes {
        rows.push(run_flood_baseline(n));
        if bracha_sizes.contains(&n) {
            rows.push(run_bracha_baseline(n));
        }
    }
    for &n in bracha_sizes {
        if !flood_sizes.contains(&n) {
            rows.push(run_bracha_baseline(n));
        }
    }
    render_baseline_json(&rows)
}

/// Renders measured rows into the stable `BENCH_<pr>.json` schema.
#[must_use]
pub fn render_baseline_json(rows: &[BaselineRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"bench\": \"broadcast_baseline\",\n  \"k\": {K},\n  \
         \"link_latency_us\": {},\n  \"jitter_us\": 0,\n  \
         \"broadcasts_per_run\": {BROADCASTS},\n  \"stagger_us\": {STAGGER_US},\n  \
         \"constraint\": \"kdiamond\",\n  \"engine\": \"sim\",\n  \"results\": [",
        LINK.base_latency_us
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"mode\": \"{}\", \"n\": {}, \"broadcasts\": {}, \"deliveries\": {}, \
             \"messages\": {}, \"bytes\": {}, \"wall_ms\": {:.2}, \
             \"throughput_msgs_per_sec\": {:.0}, \
             \"p50_latency_us\": {}, \"p99_latency_us\": {}}}",
            if i == 0 { "" } else { "," },
            r.mode,
            r.n,
            r.broadcasts,
            r.deliveries,
            r.messages,
            r.bytes,
            r.wall_ms,
            r.throughput_msgs_per_sec,
            r.p50_latency_us,
            r.p99_latency_us
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_deliver_everything_at_small_n() {
        let flood = run_flood_baseline(16);
        let bracha = run_bracha_baseline(16);
        assert_eq!(flood.deliveries, 16 * BROADCASTS);
        assert_eq!(bracha.deliveries, 16 * BROADCASTS);
        // Bracha's quorum rounds cost strictly more messages, bytes, and
        // latency.
        assert!(bracha.messages > flood.messages);
        assert!(bracha.bytes > flood.bytes);
        assert!(flood.bytes > 0, "bytes-on-the-wire recorded");
        assert!(bracha.p50_latency_us > flood.p50_latency_us);
        // Zero-jitter links make the virtual-time numbers deterministic.
        assert_eq!(flood.p50_latency_us, run_flood_baseline(16).p50_latency_us);
    }

    #[test]
    fn json_document_has_the_stable_schema() {
        let doc = baseline_json(&[16]);
        assert!(doc.starts_with("{\n"), "{doc}");
        assert!(doc.trim_end().ends_with('}'), "{doc}");
        for field in [
            "\"bench\": \"broadcast_baseline\"",
            "\"mode\": \"flood\"",
            "\"mode\": \"bracha\"",
            "\"throughput_msgs_per_sec\"",
            "\"p50_latency_us\"",
            "\"p99_latency_us\"",
            "\"bytes\"",
        ] {
            assert!(doc.contains(field), "missing {field}: {doc}");
        }
        assert_eq!(doc.matches("\"n\": 16").count(), 2, "{doc}");
    }
}
