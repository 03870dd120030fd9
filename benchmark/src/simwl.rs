//! The simulator workloads: identical passes of one seeded run, each
//! built from scratch. Counts and virtual times are exact; wall, CPU and
//! set-up time are taken per pass and the fastest pass is reported.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use crate::alloc::AllocSnapshot;
use crate::budget::{self, Traced, Window};
use crate::inputs;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{fastest, median, quantile, tree_shape};
use crate::sut::{
    Bytes, ByzInstance, FloodInstance, HandlerClock, Overlay, SimFaults, SimLink, SimOutcome,
    SimProcesses, SimRun,
};
use crate::sys;

/// What a pass runs.
#[derive(Debug, Clone)]
pub enum Protocol {
    /// Bracha instances with a payload of this many bytes.
    Bracha {
        /// Payload bytes per instance.
        payload_len: usize,
    },
    /// Reliable floods (empty payloads) under these link faults.
    ReliableLossy(SimFaults),
}

/// A simulator workload.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Nodes.
    pub n: usize,
    /// Connectivity.
    pub k: usize,
    /// Protocol and its inputs.
    pub protocol: Protocol,
    /// Broadcasts per pass.
    pub broadcasts: usize,
    /// Virtual µs between originations.
    pub spacing_us: u64,
    /// Link timing.
    pub link: SimLink,
    /// Virtual µs the run may continue after the last origination.
    pub tail_us: u64,
}

/// `sim_bracha`. Links are 1 ms plus up to 50 µs of seeded jitter: with
/// no jitter at all, the virtual latency would read the same for every
/// seed.
pub fn bracha() -> SimParams {
    SimParams {
        n: 128,
        k: 3,
        protocol: Protocol::Bracha { payload_len: 1024 },
        broadcasts: 6,
        spacing_us: 10_000,
        link: SimLink {
            base_us: 1_000,
            jitter_us: 50,
        },
        tail_us: 1_000_000,
    }
}

/// `sim_reliable_lossy`.
pub fn reliable_lossy() -> SimParams {
    SimParams {
        n: 256,
        k: 3,
        protocol: Protocol::ReliableLossy(SimFaults {
            drop: 0.20,
            duplicate: 0.10,
            reorder: 0.20,
            reorder_window_us: 3_000,
        }),
        broadcasts: 200,
        spacing_us: 2_000,
        link: SimLink {
            base_us: 1_000,
            jitter_us: 200,
        },
        tail_us: 600_000,
    }
}

/// The schedule of one pass: who originates what, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `(origin, id, at_us)` per broadcast; ids are 1-based and unique.
    pub entries: Vec<(u32, u64, u64)>,
    /// Bracha: the payload every instance carries.
    pub payload: Vec<u8>,
    /// Seed of the link jitter and of the fault injector.
    pub sim_seed: u64,
}

/// Derives the pass schedule from `--seed`.
pub fn schedule(p: &SimParams, seed: u64) -> Schedule {
    let origins = inputs::origins(seed, p.broadcasts, p.n);
    let payload_len = match p.protocol {
        Protocol::Bracha { payload_len } => payload_len,
        Protocol::ReliableLossy(_) => 0,
    };
    Schedule {
        entries: origins
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i as u64 + 1, i as u64 * p.spacing_us))
            .collect(),
        payload: inputs::payload(seed, payload_len),
        sim_seed: inputs::sim_seed(seed),
    }
}

/// What one pass cost.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Build + validate + process construction, seconds.
    pub setup_s: f64,
    /// `Simulation::run`, seconds.
    pub wall_s: f64,
    /// Process CPU inside `Simulation::run`, µs.
    pub cpu_us: f64,
    /// Heap allocations inside `Simulation::run`.
    pub allocs: AllocSnapshot,
}

/// One pass: what it cost and what it produced.
#[derive(Debug)]
pub struct Pass {
    /// Times and allocations.
    pub cost: Cost,
    /// Deliveries, frames, drops.
    pub outcome: SimOutcome,
    /// Whether the overlay validated as an LHG.
    pub is_lhg: bool,
}

/// The processes of a pass, the fault rates they run under, and the
/// virtual time the pass may run to.
pub fn processes(
    p: &SimParams,
    sched: &Schedule,
) -> Result<(SimProcesses, Option<SimFaults>, u64), String> {
    let horizon = sched.entries.last().map_or(0, |e| e.2) + p.tail_us;
    Ok(match &p.protocol {
        Protocol::Bracha { .. } => {
            let payload = Bytes::from(sched.payload.clone());
            let instances: Vec<ByzInstance> = sched
                .entries
                .iter()
                .map(|&(origin, nonce, at_us)| ByzInstance {
                    origin,
                    nonce,
                    payload: payload.clone(),
                    at_us,
                })
                .collect();
            (SimProcesses::bracha(p.n, p.k, &instances)?, None, horizon)
        }
        Protocol::ReliableLossy(faults) => {
            let floods: Vec<FloodInstance> = sched
                .entries
                .iter()
                .map(|&(origin, id, at_us)| FloodInstance { origin, id, at_us })
                .collect();
            (
                SimProcesses::reliable(p.n, &floods, horizon),
                Some(*faults),
                horizon,
            )
        }
    })
}

/// Builds everything from scratch and runs one pass. With a `clock`,
/// every process is wrapped in the timing adapter.
pub fn run_pass(
    p: &SimParams,
    sched: &Schedule,
    clock: Option<&Rc<HandlerClock>>,
) -> Result<Pass, String> {
    let setup_start = Instant::now();
    let overlay = Overlay::build(p.n, p.k)?;
    let is_lhg = overlay.is_lhg();
    let (procs, faults, horizon) = processes(p, sched)?;
    let procs = match clock {
        Some(c) => procs.timed(c),
        None => procs,
    };
    let run = SimRun::new(&overlay, p.link, sched.sim_seed, faults);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let allocs0 = AllocSnapshot::now();
    let cpu0 = sys::process_cpu_us();
    let start = Instant::now();
    let outcome = run.run(procs, horizon);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_us = sys::process_cpu_us() - cpu0;
    let allocs = AllocSnapshot::now().since(allocs0);
    Ok(Pass {
        cost: Cost {
            setup_s,
            wall_s,
            cpu_us,
            allocs,
        },
        outcome,
        is_lhg,
    })
}

/// Origination → last node's delivery, virtual ms, per broadcast.
pub fn latencies_ms(sched: &Schedule, out: &SimOutcome) -> Vec<f64> {
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for d in &out.deliveries {
        let t = last.entry(d.id).or_insert(0);
        *t = (*t).max(d.time_us);
    }
    sched
        .entries
        .iter()
        .filter_map(|&(_, id, at)| last.get(&id).map(|&t| (t - at) as f64 / 1e3))
        .collect()
}

/// The correctness gate of a pass: exactly n·B deliveries, no `(node, id)`
/// twice, only scheduled ids, Bracha digests equal to the payload's, and
/// a validated overlay.
pub fn check_pass(p: &SimParams, sched: &Schedule, pass: &Pass, outcome: &mut Outcome) {
    let expected = p.n * p.broadcasts;
    outcome.check(pass.is_lhg, || {
        format!("K-DIAMOND({}, {}) is not an LHG", p.n, p.k)
    });
    outcome.attempted(expected as u64);
    let ids: BTreeSet<u64> = sched.entries.iter().map(|e| e.1).collect();
    let digest = match p.protocol {
        Protocol::Bracha { .. } => Some(crate::sut::payload_digest(&sched.payload)),
        Protocol::ReliableLossy(_) => None,
    };
    let mut seen: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut bad = 0usize;
    for d in &pass.outcome.deliveries {
        let fresh = seen.insert((d.node, d.id));
        let digest_ok = digest.is_none() || d.digest == digest;
        if !fresh || !ids.contains(&d.id) || !digest_ok {
            bad += 1;
        }
    }
    bad += expected.saturating_sub(seen.len());
    if bad > 0 {
        outcome.fail(
            bad as u64,
            format!(
                "{} deliveries over {} distinct (node, id), expected {expected}; {bad} wrong",
                pass.outcome.deliveries.len(),
                seen.len()
            ),
        );
    }
}

/// The passes of one run: what each cost, and what the first produced
/// (every later pass is checked to have produced the same, then dropped,
/// so that the harness's own memory does not grow with the pass count).
#[derive(Default)]
struct Passes {
    first: Option<SimOutcome>,
    costs: Vec<Cost>,
}

impl Passes {
    /// Checks `pass` and keeps its cost.
    fn push(&mut self, p: &SimParams, sched: &Schedule, pass: Pass, outcome: &mut Outcome) {
        check_pass(p, sched, &pass, outcome);
        self.costs.push(pass.cost);
        match &self.first {
            None => self.first = Some(pass.outcome),
            // The simulator is deterministic in its seed: a pass that
            // differs from the first is a bug somewhere, not noise.
            Some(first) => outcome.check(pass.outcome == *first, || {
                "two passes with one seed differ in deliveries or frames".to_owned()
            }),
        }
    }

    fn first(&self) -> &SimOutcome {
        self.first.as_ref().expect("at least one pass ran")
    }

    fn per_pass(&self, f: impl Fn(&Cost) -> f64) -> Vec<f64> {
        self.costs.iter().map(f).collect()
    }

    fn deliveries(&self) -> f64 {
        self.first().deliveries.len().max(1) as f64
    }

    /// CPU µs per delivery of the fastest pass.
    fn cpu_us_per_delivery(&self) -> f64 {
        fastest(&self.per_pass(|c| c.cpu_us)) / self.deliveries()
    }

    /// Deliveries per wall second of the fastest pass.
    fn deliveries_per_s(&self) -> f64 {
        self.deliveries() / fastest(&self.per_pass(|c| c.wall_s))
    }
}

/// The untraced run of a simulator workload: every end-to-end metric.
pub fn run(p: &SimParams, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let sched = schedule(p, seed);
    let start = Instant::now();
    let mut all = Passes::default();
    let first = run_pass(p, &sched, None)?;
    // What one simulation needs, from a fresh process, before the harness
    // checks it. Read later, the high-water mark also holds what the
    // allocator failed to reuse between passes, which grows with the pass
    // count and so with the speed of the host that day.
    let peak_rss = sys::peak_rss_mib();
    all.push(p, &sched, first, &mut outcome);
    while all.costs.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        all.push(p, &sched, run_pass(p, &sched, None)?, &mut outcome);
    }
    let d = all.deliveries();
    let first = all.first();
    let latency = latencies_ms(&sched, first);
    if latency.is_empty() {
        return Err("no broadcast was delivered".to_owned());
    }
    outcome.set("setup_s", fastest(&all.per_pass(|c| c.setup_s)));
    outcome.set("frames_per_delivery", first.wire.frames() as f64 / d);
    outcome.set("wire_bytes_per_delivery", first.wire.bytes() as f64 / d);
    outcome.set(
        "allocs_per_delivery",
        median(&all.per_pass(|c| c.allocs.allocs as f64)) / d,
    );
    outcome.set(
        "alloc_bytes_per_delivery",
        median(&all.per_pass(|c| c.allocs.bytes as f64)) / d,
    );
    outcome.set("peak_rss_mib", peak_rss);
    outcome.report("bcast_latency_p50_ms", median(&latency));
    outcome.report("cpu_us_per_delivery", all.cpu_us_per_delivery());
    outcome.report("deliveries_per_s", all.deliveries_per_s());
    eprintln!(
        "# {} passes, {} deliveries and {} frames each, {} dropped",
        all.costs.len(),
        first.deliveries.len(),
        first.wire.frames(),
        first.dropped,
    );
    Ok(outcome)
}

/// Hop times (child's minus parent's delivery, virtual µs) and the depth
/// of the deepest realized tree, from each delivery's parent edge.
fn tree_stats(out: &SimOutcome) -> (Vec<f64>, u32) {
    /// Delivery time and parent of each node of one broadcast.
    #[derive(Default)]
    struct Tree {
        at: BTreeMap<u32, f64>,
        parent: BTreeMap<u32, u32>,
    }
    let mut trees: BTreeMap<u64, Tree> = BTreeMap::new();
    for d in &out.deliveries {
        let tree = trees.entry(d.id).or_default();
        tree.at.insert(d.node, d.time_us as f64);
        if let Some(p) = d.parent {
            tree.parent.insert(d.node, p);
        }
    }
    let mut hop_us = Vec::with_capacity(out.deliveries.len());
    let mut depth_max = 0;
    for tree in trees.values() {
        let (hops, depth) = tree_shape(&tree.at, &tree.parent);
        hop_us.extend(hops);
        depth_max = depth_max.max(depth);
    }
    (hop_us, depth_max)
}

/// The traced run: untraced and traced passes alternate for `seconds / 2`;
/// one span per pass with set-up, run and the summed handler time below
/// it.
pub fn trace(p: &SimParams, seed: u64, seconds: f64, log: &mut SpanLog) -> Result<Traced, String> {
    let mut outcome = Outcome::default();
    let sched = schedule(p, seed);
    let start = Instant::now();
    let (mut plain, mut traced) = (Passes::default(), Passes::default());
    let mut self_share = Vec::new();
    let mut first_clock = None;
    while self_share.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        plain.push(p, &sched, run_pass(p, &sched, None)?, &mut outcome);

        let clock = Rc::new(HandlerClock::default());
        let pass_start = Instant::now();
        let pass = run_pass(p, &sched, Some(&clock))?;
        let end = log.at(Instant::now());
        let root = log.push("pass", log.at(pass_start), end, None, None);
        let run_start = end - pass.cost.wall_s * 1e6;
        log.push("setup", log.at(pass_start), run_start, Some(root), None);
        let run = log.push("Simulation::run", run_start, end, Some(root), None);
        // Handler time is a sum over millions of calls, drawn as one child
        // span of that total length so self time falls out as usual.
        log.push(
            "handlers (summed)",
            run_start,
            run_start + clock.ns() as f64 / 1e3,
            Some(run),
            None,
        );
        self_share.push(log.self_time_us(run) / (pass.cost.wall_s * 1e6));
        for (name, slot) in [
            ("Process::on_start", &clock.on_start),
            ("Process::on_message", &clock.on_message),
            ("Process::on_timer", &clock.on_timer),
        ] {
            let (calls, ns) = slot.get();
            log.add_total(name, calls, ns);
        }
        traced.push(p, &sched, pass, &mut outcome);
        first_clock.get_or_insert(clock);
    }
    let clock = first_clock.expect("passes ran");

    let d = traced.deliveries();
    let cpu = traced.cpu_us_per_delivery();
    let latency = latencies_ms(&sched, traced.first());
    if latency.is_empty() {
        return Err("no broadcast was delivered".to_owned());
    }
    let wire = &traced.first().wire;
    let is_bracha = matches!(p.protocol, Protocol::Bracha { .. });
    outcome.set("sim.self_time_share", median(&self_share));
    // The simulator has no load generator and no `broadcast` call.
    outcome.none_of(&[
        "runtime.broadcast_call_us",
        "harness.gen_late_p99_ms",
        "harness.gen_late_max_ms",
    ]);
    if is_bracha {
        outcome.set("bracha.handler_share", 1.0 - median(&self_share));
        // Bracha gossip is best-effort flooding, with no reliable links
        // under it; and a Bracha delivery is triggered by the vote that
        // completed a quorum, not by a copy travelling down a tree.
        outcome.none_of(&[
            "reliable.retransmits_per_delivery",
            "reliable.pulls_per_delivery",
            "runtime.hop_latency_p50_us",
            "runtime.tree_depth_max",
        ]);
    } else {
        outcome.none_of(&["bracha.handler_share"]);
        let (hop_us, depth_max) = tree_stats(traced.first());
        outcome.set("runtime.hop_latency_p50_us", median(&hop_us));
        outcome.set("runtime.tree_depth_max", f64::from(depth_max));
        // The simulator keeps no retransmit counter. What is measured
        // instead: data frames on the links beyond what the same schedule
        // needs when nothing is lost, and pull requests as they arrive.
        let lossless = SimParams {
            protocol: Protocol::ReliableLossy(SimFaults::default()),
            ..p.clone()
        };
        let clean = run_pass(&lossless, &sched, None)?;
        check_pass(&lossless, &sched, &clean, &mut outcome);
        let extra =
            wire.class_frames("data") as f64 - clean.outcome.wire.class_frames("data") as f64;
        outcome.set("reliable.retransmits_per_delivery", extra / d);
        outcome.set("reliable.pulls_per_delivery", clock.pulls.get() as f64 / d);
    }
    budget::set_frame_mix(&mut outcome, wire, d);
    outcome.set("cluster.cpu_us_per_delivery", cpu);
    outcome.set("cluster.deliveries_per_s", traced.deliveries_per_s());
    outcome.set("cluster.bcast_latency_p50_ms", median(&latency));
    outcome.set("cluster.bcast_latency_p90_ms", quantile(&latency, 0.90));
    outcome.set("cluster.bcast_latency_p99_ms", quantile(&latency, 0.99));
    outcome.set("cluster.bcast_latency_max_ms", quantile(&latency, 1.0));
    outcome.set(
        "harness.trace_overhead_pct",
        (cpu / plain.cpu_us_per_delivery() - 1.0) * 100.0,
    );
    Ok(Traced {
        outcome,
        cpu_us_per_delivery: cpu,
        wire_per_delivery: wire.per_delivery(d),
        window: Window::Sim {
            n: p.n,
            events_per_delivery: clock.calls() as f64 / d,
            fault_decisions_per_delivery: match p.protocol {
                Protocol::ReliableLossy(_) => (wire.frames() + traced.first().dropped) as f64 / d,
                Protocol::Bracha { .. } => 0.0,
            },
            bracha: is_bracha,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mut p: SimParams) -> SimParams {
        p.n = 16;
        p.broadcasts = p.broadcasts.min(12);
        p
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for p in [bracha(), reliable_lossy()] {
            assert_eq!(schedule(&p, 5), schedule(&p, 5));
            assert_ne!(schedule(&p, 5), schedule(&p, 6));
        }
    }

    #[test]
    fn same_seed_gives_identical_counts_twice_and_passes_the_gate() {
        for p in [small(bracha()), small(reliable_lossy())] {
            let sched = schedule(&p, 11);
            let a = run_pass(&p, &sched, None).expect("pass");
            let b = run_pass(&p, &sched, None).expect("pass");
            assert_eq!(a.outcome, b.outcome, "{:?}", p.protocol);
            let mut outcome = Outcome::default();
            check_pass(&p, &sched, &a, &mut outcome);
            assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
            assert_eq!(a.outcome.deliveries.len(), p.n * p.broadcasts);
            assert_eq!(
                latencies_ms(&sched, &a.outcome),
                latencies_ms(&sched, &b.outcome)
            );
        }
    }

    #[test]
    fn the_lossy_workload_really_loses_frames_and_repairs_them() {
        let p = small(reliable_lossy());
        let pass = run_pass(&p, &schedule(&p, 3), None).expect("pass");
        assert!(pass.outcome.dropped > 0);
        assert!(pass.outcome.wire.class_frames("ack") > 0);
    }

    #[test]
    fn the_gate_counts_a_missing_and_a_repeated_delivery() {
        let p = small(bracha());
        let sched = schedule(&p, 2);
        let mut pass = run_pass(&p, &sched, None).expect("pass");
        let dup = pass.outcome.deliveries[0];
        pass.outcome.deliveries[1] = dup;
        let mut outcome = Outcome::default();
        check_pass(&p, &sched, &pass, &mut outcome);
        assert_eq!(outcome.failed, 2, "{:?}", outcome.notes);
    }

    #[test]
    fn timed_passes_count_every_event() {
        let p = small(bracha());
        let clock = Rc::new(HandlerClock::default());
        let pass = run_pass(&p, &schedule(&p, 4), Some(&clock)).expect("pass");
        assert_eq!(clock.on_start.get().0, p.n as u64);
        assert_eq!(clock.on_timer.get().0, p.broadcasts as u64);
        assert_eq!(clock.on_message.get().0, pass.outcome.wire.frames());
    }
}
