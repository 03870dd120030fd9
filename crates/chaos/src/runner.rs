//! Executes fault plans on the simulator and on the TCP runtime.
//!
//! One [`FaultPlan`] drives both engines. The simulator run is fully
//! deterministic (virtual time, seeded jitter, seeded fault decisions); the
//! TCP run is wall-clock and therefore only *statistically* reproducible,
//! but every probabilistic decision inside it — fault verdicts, dial
//! jitter — still derives from the plan seed, so a failing seed reliably
//! re-exercises the same schedule shape.
//!
//! The TCP engine applies the plan's **default** link rates only: a
//! per-link total blackhole (the sim-only `link_overrides` refinement)
//! would starve heartbeats on one directed link forever and wedge the
//! cluster in perpetual suspicion churn, which is not the property under
//! test. Partitions and crashes are orchestrated in wall-clock time
//! (kill/rejoin calls, shared-injector partition toggles) rather than
//! precompiled, because the injector epoch starts before the cluster
//! finishes launching.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use lhg_byzantine::{
    run_sim_byzantine_churn, ByzCrash, ScheduledByzBroadcast, TraitorBehavior,
    EQUIVOCATE_NONCE_BASE,
};
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::properties::p4_diameter_bound;
use lhg_graph::connectivity::is_k_vertex_connected;
use lhg_graph::NodeId;
use lhg_net::fault::{FaultInjector, Partition};
use lhg_net::metrics::MetricsRegistry;
use lhg_net::reliable::{ReliableConfig, ReliableFlooder, ScheduledBroadcast};
use lhg_net::sim::{LinkModel, Process, SimReport, Simulation};
use lhg_runtime::{Cluster, RuntimeConfig};
use lhg_telemetry::{TelemetrySampler, Timeline};
use parking_lot::Mutex;

use crate::oracle::{ChaosReport, Engine, Violation};
use crate::plan::{BroadcastSpec, Family, FaultPlan, PlanOverrides};

pub use crate::plan::CHAOS_BCAST_BASE;

/// At most this many violations of each kind are reported per run; a
/// systemic failure produces thousands of identical entries otherwise.
const MAX_VIOLATIONS_PER_CHECK: usize = 8;

/// Virtual-time sampling cadence of the sim telemetry timeline.
const SIM_TELEMETRY_CADENCE_US: u64 = 100_000;

/// Wall-clock sampling cadence of the TCP telemetry timeline.
const TCP_TELEMETRY_CADENCE: Duration = Duration::from_millis(100);

/// Renders the per-run telemetry summary embedded in `lhg chaos --json`
/// records: timeline shape plus the per-class wire-cost decomposition
/// from the registry's accountant.
fn telemetry_json(timeline: &Timeline, metrics: &MetricsRegistry) -> String {
    let obj = serde::Value::Obj(vec![
        (
            "samples".to_owned(),
            serde::Value::U64(timeline.samples().len() as u64),
        ),
        ("span_us".to_owned(), serde::Value::U64(timeline.span_us())),
        ("wire".to_owned(), metrics.wire().to_value()),
    ]);
    serde_json::to_string(&obj).expect("Value serialization is infallible")
}

/// The process chaos runs host on every sim node: flooding over reliable
/// links with periodic anti-entropy ([`ReliableFlooder`]) — the same
/// protocol stack the TCP runtime speaks, so both engines are held to the
/// same strict delivery oracle on every family, lossy included.
fn flooders(n: usize, broadcasts: &[BroadcastSpec], horizon_us: u64) -> Vec<Box<dyn Process>> {
    let schedule: Vec<ScheduledBroadcast> = broadcasts
        .iter()
        .enumerate()
        .map(|(idx, b)| ScheduledBroadcast {
            id: CHAOS_BCAST_BASE + idx as u64,
            origin: b.origin,
            at_us: b.at_us,
        })
        .collect();
    (0..n)
        .map(|_| {
            Box::new(ReliableFlooder::new(
                ReliableConfig::default(),
                schedule.clone(),
                horizon_us,
            )) as Box<dyn Process>
        })
        .collect()
}

/// Runs `plan` on the discrete-event simulator and checks the oracle.
///
/// The run is bit-for-bit deterministic in the plan seed. A preliminary
/// *calibration* pass (clean links, zero jitter) checks the P4 hop bound —
/// with equal link latencies, first-receipt hop counts equal BFS distance,
/// so they must stay within the paper's logarithmic diameter bound.
///
/// # Panics
///
/// Panics if the plan's `(n, k, constraint)` is outside the overlay
/// builder's domain — [`FaultPlan::random`] never generates such plans.
#[must_use]
pub fn run_sim_chaos(plan: &FaultPlan) -> ChaosReport {
    if matches!(plan.family, Family::Byzantine | Family::Mixed) {
        return run_sim_byz_chaos(plan);
    }
    let overlay = DynamicOverlay::bootstrap(plan.constraint, plan.n, plan.k)
        .expect("generated plans stay in the builder domain");
    let graph = overlay.graph().clone();
    let mut violations = Vec::new();

    // Calibration: hop counts of a clean zero-jitter flood are BFS
    // distances and must respect the logarithmic diameter bound.
    let bound = p4_diameter_bound(plan.n, plan.k).ceil() as u32;
    let calibration = {
        let mut sim = Simulation::new(
            &graph,
            LinkModel {
                base_latency_us: 1_000,
                jitter_us: 0,
            },
            plan.seed,
        );
        sim.run(
            flooders(
                plan.n,
                &[BroadcastSpec {
                    origin: 0,
                    at_us: 0,
                }],
                1_000_000,
            ),
            1_000_000,
        )
    };
    for d in &calibration.deliveries {
        if d.hops > bound && violations.len() < MAX_VIOLATIONS_PER_CHECK {
            violations.push(Violation::HopBoundExceeded {
                broadcast_id: d.broadcast_id,
                node: d.node.index() as u32,
                hops: d.hops,
                bound,
            });
        }
    }

    // The chaos run proper, metered: the registry's wire accountant
    // decomposes the run's traffic by message class, and the virtual-time
    // sampler turns it into the timeline embedded in the JSON record.
    let metrics = Arc::new(MetricsRegistry::new());
    let sampler = Arc::new(Mutex::new(TelemetrySampler::new(
        "sim",
        Arc::clone(&metrics),
    )));
    let mut sim = Simulation::new(&graph, LinkModel::default(), plan.seed);
    sim.with_metrics(Arc::clone(&metrics));
    sim.with_faults(Arc::new(plan.compile()));
    lhg_telemetry::attach_to_sim(&mut sim, &sampler, SIM_TELEMETRY_CADENCE_US);
    let report = sim.run(
        flooders(plan.n, &plan.broadcasts, plan.horizon_us),
        plan.horizon_us,
    );
    let timeline = lhg_telemetry::merge(vec![sampler.lock().take_samples()]);
    let telemetry = Some(telemetry_json(&timeline, &metrics));
    check_sim_report(plan, &report, &mut violations);

    // Structural P1 check for the crash family: the membership that
    // survives every scheduled crash must still form a k-connected overlay.
    if plan.family == Family::Crash {
        let victims: Vec<MemberId> = plan.crashes.iter().map(|c| c.node as MemberId).collect();
        let mut survivors = overlay;
        if survivors.crash_many(&victims).is_err()
            || !is_k_vertex_connected(survivors.graph(), plan.k)
        {
            violations.push(Violation::NotKConnected {
                crashed: victims.len(),
            });
        }
    }

    ChaosReport {
        seed: plan.seed,
        engine: Engine::Sim,
        family: plan.family,
        n: plan.n,
        k: plan.k,
        violations,
        end_time_us: report.end_time,
        deliveries: report.deliveries.len(),
        events_jsonl: None,
        telemetry,
    }
}

/// Payload of the idx-th scheduled byzantine broadcast — shared by both
/// engines so the oracle can recompute the certified digest.
fn byz_payload(idx: usize) -> Bytes {
    Bytes::from(format!("chaos byz {idx}"))
}

/// Byzantine and mixed families on the simulator: every node runs the
/// Bracha echo/ready engine over LHG gossip
/// ([`lhg_byzantine::run_sim_byzantine_churn`]), the plan's traitors
/// misbehave on schedule, and the oracle demands agreement, validity and
/// integrity at every correct node. Mixed plans additionally kill their
/// scheduled victim mid-run (survivors bump their membership views and
/// re-size quorums) and put the plan's lossy link rates under the gossip
/// plane — the exchange's repair rounds must repair the dropped votes. A view
/// refused for dipping below 3f+1 surfaces as [`Violation::QuorumUnsafe`].
/// The P4 calibration pass is skipped — a Bracha delivery is a quorum
/// event, not a single flood hop, so first-receipt hop counts do not
/// measure BFS distance.
fn run_sim_byz_chaos(plan: &FaultPlan) -> ChaosReport {
    let overlay = DynamicOverlay::bootstrap(plan.constraint, plan.n, plan.k)
        .expect("generated plans stay in the builder domain");
    let graph = overlay.graph().clone();
    let mut violations = Vec::new();

    let mut schedules: BTreeMap<usize, Vec<ScheduledByzBroadcast>> = BTreeMap::new();
    for (idx, b) in plan.broadcasts.iter().enumerate() {
        schedules
            .entry(b.origin as usize)
            .or_default()
            .push(ScheduledByzBroadcast {
                nonce: CHAOS_BCAST_BASE + idx as u64,
                payload: byz_payload(idx),
                at_us: b.at_us,
            });
    }
    let schedules: Vec<(NodeId, Vec<ScheduledByzBroadcast>)> =
        schedules.into_iter().map(|(v, s)| (NodeId(v), s)).collect();
    let traitors: Vec<(NodeId, TraitorBehavior)> = plan
        .traitors
        .iter()
        .map(|t| (NodeId(t.node as usize), t.behavior))
        .collect();

    let crashes: Vec<ByzCrash> = plan
        .crashes
        .iter()
        .map(|c| ByzCrash {
            at_us: c.at_us,
            node: NodeId(c.node as usize),
            revive_at_us: c.recover_at_us,
        })
        .collect();
    // Mixed plans carry lossy rates; rates-only compilation leaves the
    // crash semantics to the churn runner's death schedule above.
    let faults = (!plan.is_lossless()).then(|| Arc::new(plan.compile_rates_only()));

    // The byzantine sim builds its own Simulation internally, so there is
    // no sampler hook; one post-run sample still yields the full per-class
    // wire decomposition (echo/ready quorum traffic vs everything else).
    let metrics = Arc::new(MetricsRegistry::new());
    let report = run_sim_byzantine_churn(
        &graph,
        plan.k,
        &schedules,
        &traitors,
        &crashes,
        faults,
        LinkModel::default(),
        plan.seed,
        plan.horizon_us,
        Some(Arc::clone(&metrics)),
    );
    let timeline = {
        let mut sampler = TelemetrySampler::new("sim", Arc::clone(&metrics));
        sampler.sample(report.end_time);
        lhg_telemetry::merge(vec![sampler.take_samples()])
    };
    let telemetry = Some(telemetry_json(&timeline, &metrics));
    if report.end_time > plan.horizon_us {
        violations.push(Violation::Timeout {
            phase: "virtual-time horizon".into(),
        });
    }
    let records: Vec<(u32, u64, Option<u64>)> = report
        .deliveries
        .iter()
        .map(|d| (d.node.index() as u32, d.broadcast_id, d.trace))
        .collect();
    check_byz_deliveries(plan, &records, &mut violations);
    check_rejoin_divergence(plan, &records, &mut violations);
    let unsafe_views = metrics.counter("byz.unsafe_views").get();
    if unsafe_views > 0 {
        violations.push(Violation::QuorumUnsafe {
            count: unsafe_views,
        });
    }

    ChaosReport {
        seed: plan.seed,
        engine: Engine::Sim,
        family: plan.family,
        n: plan.n,
        k: plan.k,
        violations,
        end_time_us: report.end_time,
        deliveries: report.deliveries.len(),
        events_jsonl: None,
        telemetry,
    }
}

/// The Byzantine oracle, shared by both engines. `records` is every byz
/// delivery observed: `(node, instance nonce, certified digest)`.
///
/// * **Validity** — every scheduled instance (a correct origin's
///   broadcast) is delivered by every correct node, with the digest of
///   the payload that origin actually sent (else integrity is charged).
/// * **Agreement** — for any instance, all correct deliverers certify one
///   digest. Equivocation instances (the traitor's two-faced SENDs, nonce
///   `EQUIVOCATE_NONCE_BASE + traitor`) *may* legitimately certify —
///   whichever story wins the echo race — but never both.
/// * **Integrity** — any other unscheduled instance delivered by a
///   correct node is a forgery that should have been f voices short of
///   every quorum.
/// * **Exactly-once** — no correct node's log repeats an instance.
fn check_byz_deliveries(
    plan: &FaultPlan,
    records: &[(u32, u64, Option<u64>)],
    violations: &mut Vec<Violation>,
) {
    let correct: BTreeSet<u32> = plan.correct_nodes().into_iter().collect();
    let scheduled = CHAOS_BCAST_BASE..CHAOS_BCAST_BASE + plan.broadcasts.len() as u64;

    let mut dedup: HashSet<(u32, u64)> = HashSet::new();
    let mut by_nonce: BTreeMap<u64, Vec<(u32, Option<u64>)>> = BTreeMap::new();
    let mut dups = 0;
    for &(node, nonce, digest) in records {
        if !correct.contains(&node) {
            continue; // a traitor's log carries no promises
        }
        if !dedup.insert((node, nonce)) && dups < MAX_VIOLATIONS_PER_CHECK {
            dups += 1;
            violations.push(Violation::DuplicateDelivery {
                broadcast_id: nonce,
                node,
            });
        }
        by_nonce.entry(nonce).or_default().push((node, digest));
    }

    // Validity + integrity on the scheduled instances.
    let mut missed = 0;
    for idx in 0..plan.broadcasts.len() {
        let nonce = CHAOS_BCAST_BASE + idx as u64;
        let expected = lhg_byzantine::digest(&byz_payload(idx));
        let empty = Vec::new();
        let deliveries = by_nonce.get(&nonce).unwrap_or(&empty);
        let deliverers: BTreeSet<u32> = deliveries.iter().map(|&(v, _)| v).collect();
        for &v in &correct {
            if !deliverers.contains(&v) && missed < MAX_VIOLATIONS_PER_CHECK {
                missed += 1;
                violations.push(Violation::ValidityMissed { nonce, node: v });
            }
        }
        for &(node, digest) in deliveries {
            if digest != Some(expected) && violations.len() < MAX_VIOLATIONS_PER_CHECK * 4 {
                violations.push(Violation::IntegrityForged { nonce, node });
            }
        }
    }

    // Unscheduled instances: an equivocator's own instance may certify
    // (one story or the other), but must agree; anything else is forged.
    for (&nonce, deliveries) in &by_nonce {
        if scheduled.contains(&nonce) {
            continue;
        }
        let from_equivocator = plan.traitors.iter().any(|t| {
            t.behavior == TraitorBehavior::Equivocate
                && nonce == EQUIVOCATE_NONCE_BASE + u64::from(t.node)
        });
        if from_equivocator {
            let (first_node, first_digest) = deliveries[0];
            for &(node, digest) in &deliveries[1..] {
                if digest != first_digest {
                    violations.push(Violation::AgreementBroken {
                        nonce,
                        node_a: first_node,
                        node_b: node,
                    });
                    break;
                }
            }
        } else {
            for &(node, _) in deliveries.iter().take(MAX_VIOLATIONS_PER_CHECK) {
                violations.push(Violation::IntegrityForged { nonce, node });
            }
        }
    }
}

/// The rejoin-divergence oracle, shared by both engines: a correct node
/// that crashed and returned must converge with the *stable majority* —
/// the correct nodes that never went down. Every instance the majority
/// certified must land in the rejoiner's log with the same digest
/// (including instances originated while it was dead — catch-up's job),
/// and the rejoiner must certify nothing the majority never did — a
/// forged catch-up summary that slipped past corroboration would surface
/// exactly there. Agreement *inside* the majority is
/// [`check_byz_deliveries`]' charge, not this one's.
fn check_rejoin_divergence(
    plan: &FaultPlan,
    records: &[(u32, u64, Option<u64>)],
    violations: &mut Vec<Violation>,
) {
    let traitors: BTreeSet<u32> = plan.traitors.iter().map(|t| t.node).collect();
    let rejoiners: Vec<u32> = plan
        .crashes
        .iter()
        .filter(|c| c.recover_at_us.is_some() && !traitors.contains(&c.node))
        .map(|c| c.node)
        .collect();
    if rejoiners.is_empty() {
        return;
    }
    let majority: BTreeSet<u32> = plan.correct_nodes().into_iter().collect();
    let mut majority_digest: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    for &(node, nonce, digest) in records {
        if majority.contains(&node) {
            majority_digest.entry(nonce).or_insert(digest);
        }
    }
    for &r in &rejoiners {
        let mine: BTreeMap<u64, Option<u64>> = records
            .iter()
            .filter(|&&(node, _, _)| node == r)
            .map(|&(_, nonce, digest)| (nonce, digest))
            .collect();
        let mut charged = 0;
        for (&nonce, &expected) in &majority_digest {
            if charged >= MAX_VIOLATIONS_PER_CHECK {
                break;
            }
            match mine.get(&nonce) {
                None => {
                    charged += 1;
                    violations.push(Violation::RejoinDivergence {
                        node: r,
                        nonce,
                        detail: "never certified an instance the stable majority delivered \
                                 (catch-up failed)"
                            .into(),
                    });
                }
                Some(&got) if got != expected => {
                    charged += 1;
                    violations.push(Violation::RejoinDivergence {
                        node: r,
                        nonce,
                        detail: format!(
                            "certified digest {got:?}, stable majority certified {expected:?}"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        for &nonce in mine.keys() {
            if charged >= MAX_VIOLATIONS_PER_CHECK {
                break;
            }
            if !majority_digest.contains_key(&nonce) {
                charged += 1;
                violations.push(Violation::RejoinDivergence {
                    node: r,
                    nonce,
                    detail: "certified an instance the stable majority never delivered \
                             (forged catch-up summary)"
                        .into(),
                });
            }
        }
    }
}

/// Delivery, dedup, hop-sanity, and termination checks on a sim report.
fn check_sim_report(plan: &FaultPlan, report: &SimReport, violations: &mut Vec<Violation>) {
    if report.end_time > plan.horizon_us {
        violations.push(Violation::Timeout {
            phase: "virtual-time horizon".into(),
        });
    }

    let mut delivered: HashSet<(u32, u64)> = HashSet::new();
    let mut dups = 0;
    let mut hop_overruns = 0;
    for d in &report.deliveries {
        let node = d.node.index() as u32;
        if !delivered.insert((node, d.broadcast_id)) && dups < MAX_VIOLATIONS_PER_CHECK {
            dups += 1;
            violations.push(Violation::DuplicateDelivery {
                broadcast_id: d.broadcast_id,
                node,
            });
        }
        // Flooding forwards only on first receipt, so no delivered copy can
        // have crossed more than n−1 edges — under any fault schedule.
        if d.hops >= plan.n as u32 && hop_overruns < MAX_VIOLATIONS_PER_CHECK {
            hop_overruns += 1;
            violations.push(Violation::HopBoundExceeded {
                broadcast_id: d.broadcast_id,
                node,
                hops: d.hops,
                bound: plan.n as u32 - 1,
            });
        }
    }

    // Strict delivery, no lossless carve-out: every broadcast from a
    // correct origin reaches every correct node (LHG property P1). The
    // reliable link layer plus anti-entropy makes this hold on lossy
    // plans too — drops, duplicates and reorders cost latency, never
    // delivery.
    let correct = plan.correct_nodes();
    let mut missed = 0;
    for (idx, _) in plan.broadcasts.iter().enumerate() {
        let id = CHAOS_BCAST_BASE + idx as u64;
        for &v in &correct {
            if !delivered.contains(&(v, id)) && missed < MAX_VIOLATIONS_PER_CHECK {
                missed += 1;
                violations.push(Violation::DeliveryMissed {
                    broadcast_id: id,
                    node: v,
                });
            }
        }
    }
}

/// The aggressive-timing [`RuntimeConfig`] chaos runs use on the TCP
/// engine: fast heartbeats and dials keep a full kill/heal/rejoin cycle
/// within a couple of wall-clock seconds. The suspicion timeout is kept
/// generous relative to the heartbeat period (25 missed beats) so that
/// scheduler stalls on a loaded machine — e.g. a 100-seed sweep running
/// back to back with other jobs — don't fire spurious suspicions outside
/// the injected fault schedule and push a replica past the k−1 budget.
#[must_use]
pub fn tcp_chaos_config(seed: u64, faults: Arc<FaultInjector>) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_max_attempts: 8,
        dial_timeout: Duration::from_millis(100),
        tick: Duration::from_millis(2),
        launch_timeout: Duration::from_secs(10),
        rng_seed: seed,
        // Deep per-node event rings: a failing run's postmortem JSONL
        // should cover the whole run, not just its quiescent tail.
        recorder_capacity: 1 << 16,
        faults: Some(faults),
        // Default reliable-layer knobs: 30ms retransmit timeout and, with
        // the 10ms heartbeat period above, an anti-entropy summary every
        // 50ms — both comfortably inside the per-broadcast deadlines.
        reliable: lhg_net::reliable::ReliableConfig::default(),
        byzantine: None,
    }
}

/// Runs `plan` on the real TCP runtime and checks the oracle.
///
/// Crash-family plans exercise kill → heal → rejoin; partition plans cut a
/// minority off via the shared injector, heal, and demand full
/// re-convergence (membership agreement, no degraded stragglers, links
/// re-established); lossy plans flood under the default
/// drop/duplicate/reorder rates and demand **strict exactly-once delivery
/// at every member** — the runtime's reliable link layer and anti-entropy
/// repair must absorb the loss. On failure the cluster's merged JSONL
/// event timeline is captured into the report.
#[must_use]
pub fn run_tcp_chaos(plan: &FaultPlan) -> ChaosReport {
    let started = Instant::now();
    let mut violations = Vec::new();

    let mut inj = FaultInjector::new(plan.seed);
    inj.set_default_rates(plan.default_rates);
    let inj = Arc::new(inj);

    let mut config = tcp_chaos_config(plan.seed, Arc::clone(&inj));
    if matches!(plan.family, Family::Byzantine | Family::Mixed) {
        config.byzantine = Some(lhg_runtime::ByzantineSetup {
            f: lhg_byzantine::max_traitors(plan.k),
            traitors: plan
                .traitors
                .iter()
                .map(|t| (u64::from(t.node), t.behavior))
                .collect(),
        });
    }
    let cluster = Cluster::launch(plan.constraint, plan.n, plan.k, config);
    let mut cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            violations.push(Violation::Timeout {
                phase: format!("launch ({e})"),
            });
            return ChaosReport {
                seed: plan.seed,
                engine: Engine::Tcp,
                family: plan.family,
                n: plan.n,
                k: plan.k,
                violations,
                end_time_us: elapsed_us(started),
                deliveries: 0,
                events_jsonl: None,
                telemetry: None,
            };
        }
    };
    cluster.start_telemetry(TCP_TELEMETRY_CADENCE);

    match plan.family {
        Family::Crash => tcp_crash_schedule(plan, &mut cluster, &mut violations),
        Family::Partition => tcp_partition_schedule(plan, &mut cluster, &inj, &mut violations),
        Family::Lossy => tcp_lossy_schedule(plan, &mut cluster, &mut violations),
        Family::Byzantine => tcp_byzantine_schedule(plan, &mut cluster, &mut violations),
        Family::Mixed => tcp_mixed_schedule(plan, &mut cluster, &mut violations),
    }
    check_no_duplicate_deliveries(&cluster, &mut violations);

    let deliveries = cluster
        .members()
        .iter()
        .map(|&m| {
            let flooded = cluster.node(m).map_or(0, |s| s.delivered_count());
            flooded + cluster.byz_delivered(m).len()
        })
        .sum();
    let events_jsonl = (!violations.is_empty()).then(|| cluster.events_jsonl());
    let telemetry = cluster
        .stop_telemetry()
        .map(|tl| telemetry_json(&tl, cluster.metrics()));
    cluster.shutdown();

    ChaosReport {
        seed: plan.seed,
        engine: Engine::Tcp,
        family: plan.family,
        n: plan.n,
        k: plan.k,
        violations,
        end_time_us: elapsed_us(started),
        deliveries,
        events_jsonl,
        telemetry,
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Broadcasts from `origin` and requires delivery by `members` within
/// `timeout`, reporting each member that missed it.
fn tcp_broadcast_expect(
    cluster: &mut Cluster,
    origin: u32,
    members: &[MemberId],
    timeout: Duration,
    violations: &mut Vec<Violation>,
) {
    let Ok(id) = cluster.broadcast(origin as MemberId, Bytes::from_static(b"chaos")) else {
        violations.push(Violation::Timeout {
            phase: format!("broadcast from {origin}"),
        });
        return;
    };
    if cluster.await_delivery_by(id, members, timeout) {
        return;
    }
    for &m in members.iter() {
        if !cluster.has_delivered(m, id) && violations.len() < MAX_VIOLATIONS_PER_CHECK {
            violations.push(Violation::DeliveryMissed {
                broadcast_id: id,
                node: m as u32,
            });
        }
    }
}

/// Crash family on TCP: broadcast → kill the scheduled victims → heal →
/// broadcast among survivors → rejoin the recovering victims → heal →
/// broadcast to everyone (revenants included).
fn tcp_crash_schedule(plan: &FaultPlan, cluster: &mut Cluster, violations: &mut Vec<Violation>) {
    let specs = &plan.broadcasts;
    tcp_broadcast_expect(
        cluster,
        specs[0].origin,
        &cluster.survivors(),
        Duration::from_secs(5),
        violations,
    );

    let mut crashes = plan.crashes.clone();
    crashes.sort_by_key(|c| c.at_us);
    for c in &crashes {
        if cluster.kill(c.node as MemberId).is_err() {
            violations.push(Violation::Timeout {
                phase: format!("kill {}", c.node),
            });
        }
    }
    if !cluster.await_heal(Duration::from_secs(8)) {
        violations.push(Violation::Timeout {
            phase: "heal after crashes".into(),
        });
        return; // everything downstream would cascade off the stuck heal
    }
    if !cluster.overlays_agree() {
        violations.push(Violation::ReplicaDivergence {
            node: cluster.survivors().first().map_or(0, |&m| m as u32),
            detail: "survivor overlay replicas differ after heal".into(),
        });
    }
    if let Some(g) = cluster.survivor_graph() {
        if !is_k_vertex_connected(&g, plan.k) {
            violations.push(Violation::NotKConnected {
                crashed: crashes.len(),
            });
        }
    }
    tcp_broadcast_expect(
        cluster,
        specs[1].origin,
        &cluster.survivors(),
        Duration::from_secs(5),
        violations,
    );

    let recovering: Vec<MemberId> = crashes
        .iter()
        .filter(|c| c.recover_at_us.is_some())
        .map(|c| c.node as MemberId)
        .collect();
    for &m in &recovering {
        if cluster.rejoin(m).is_err() {
            violations.push(Violation::Timeout {
                phase: format!("rejoin {m}"),
            });
        }
    }
    if !recovering.is_empty() && !cluster.await_heal(Duration::from_secs(8)) {
        violations.push(Violation::Timeout {
            phase: "reconverge after rejoin".into(),
        });
        return;
    }
    // The final broadcast must reach every survivor — the revenants too.
    tcp_broadcast_expect(
        cluster,
        specs[2].origin,
        &cluster.survivors(),
        Duration::from_secs(5),
        violations,
    );
}

/// Partition family on TCP: broadcast → activate the cut through the
/// shared injector → let suspicion and excommunication fire → heal the cut
/// → demand full re-convergence → post-heal broadcasts to all n nodes.
fn tcp_partition_schedule(
    plan: &FaultPlan,
    cluster: &mut Cluster,
    inj: &Arc<FaultInjector>,
    violations: &mut Vec<Violation>,
) {
    let specs = &plan.broadcasts;
    let all = cluster.members();
    tcp_broadcast_expect(
        cluster,
        specs[0].origin,
        &all,
        Duration::from_secs(5),
        violations,
    );

    let p = &plan.partitions[0];
    inj.add_partition_shared(Partition {
        a: p.minority.iter().copied().collect(),
        b: BTreeSet::new(), // wildcard: the rest of the cluster
        from_us: 0,
        until_us: u64::MAX,
        directed: p.directed,
    });
    // Hold the cut for several suspicion windows so the majority
    // excommunicates the minority (and an isolated minority degrades).
    std::thread::sleep(Duration::from_millis(700));
    inj.clear_partitions();

    // Re-convergence: every replica back to full membership, all replicas
    // identical, nobody stuck degraded, every desired link re-established.
    // The deadline is deliberately slack: re-convergence itself takes well
    // under a second, but chaos sweeps share the machine with whatever else
    // is running and a wall-clock deadline is the one place scheduling
    // noise can masquerade as a protocol bug.
    let everyone: BTreeSet<MemberId> = all.iter().copied().collect();
    let converged = poll_until(Duration::from_secs(20), || {
        cluster.degraded_members().is_empty()
            && all.iter().all(|&m| {
                cluster.node(m).is_some_and(|s| {
                    s.overlay_snapshot()
                        .members()
                        .iter()
                        .copied()
                        .collect::<BTreeSet<_>>()
                        == everyone
                })
            })
            && cluster.overlays_agree()
    }) && cluster.await_links(Duration::from_secs(10));
    if !converged {
        violations.push(Violation::Timeout {
            phase: "reconverge after partition heal".into(),
        });
        return;
    }
    for spec in &specs[1..] {
        tcp_broadcast_expect(
            cluster,
            spec.origin,
            &all,
            Duration::from_secs(5),
            violations,
        );
    }
}

/// Lossy family on TCP: floods under the default drop/duplicate/reorder
/// rates with **strict delivery** — the reliable link layer (ack/NACK +
/// retransmit) and heartbeat-cadence anti-entropy must repair every drop,
/// so each broadcast is required at *every* member, not just its origin.
/// The deadline is generous: under heavy loss, delivery rides retransmit
/// timeouts and summary cadences rather than one flood's latency.
fn tcp_lossy_schedule(plan: &FaultPlan, cluster: &mut Cluster, violations: &mut Vec<Violation>) {
    let all = cluster.members();
    for spec in &plan.broadcasts {
        tcp_broadcast_expect(
            cluster,
            spec.origin,
            &all,
            Duration::from_secs(8),
            violations,
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let in-flight retransmissions (and injected duplicates) drain before
    // the exactly-once sweep.
    std::thread::sleep(Duration::from_millis(300));
}

/// Byzantine family on TCP: every node runs the Bracha engine over byz
/// gossip frames on real sockets, the plan's traitor misbehaves on
/// schedule, and the shared [`check_byz_deliveries`] oracle audits the
/// correct nodes' certified logs afterwards. The await between
/// broadcasts is pacing only — a miss is charged by the final sweep, not
/// twice.
fn tcp_byzantine_schedule(
    plan: &FaultPlan,
    cluster: &mut Cluster,
    violations: &mut Vec<Violation>,
) {
    let correct: Vec<MemberId> = plan
        .correct_nodes()
        .into_iter()
        .map(MemberId::from)
        .collect();
    for (idx, spec) in plan.broadcasts.iter().enumerate() {
        tcp_byz_broadcast_step(cluster, idx, spec, &correct, violations);
    }
    tcp_byz_audit(plan, cluster, &correct, violations);
}

/// Originates the idx-th scheduled byz instance and paces the schedule by
/// awaiting its certification at the correct nodes; a miss here is charged
/// once, by the final audit sweep.
fn tcp_byz_broadcast_step(
    cluster: &mut Cluster,
    idx: usize,
    spec: &BroadcastSpec,
    correct: &[MemberId],
    violations: &mut Vec<Violation>,
) {
    let nonce = CHAOS_BCAST_BASE + idx as u64;
    if cluster
        .byzantine_broadcast(MemberId::from(spec.origin), nonce, byz_payload(idx))
        .is_err()
    {
        violations.push(Violation::Timeout {
            phase: format!("byz broadcast from {}", spec.origin),
        });
        return;
    }
    let _ = cluster.await_byz_delivery(nonce, correct, Duration::from_secs(8));
}

/// Drains trailing attack debris (equivocation floods, forged votes,
/// replays, retransmitted quorum traffic), then audits the correct nodes'
/// certified logs through the engine-shared byzantine oracle and charges
/// [`Violation::QuorumUnsafe`] for any view the Bracha engines refused.
fn tcp_byz_audit(
    plan: &FaultPlan,
    cluster: &Cluster,
    correct: &[MemberId],
    violations: &mut Vec<Violation>,
) {
    std::thread::sleep(Duration::from_millis(300));
    let records: Vec<(u32, u64, Option<u64>)> = correct
        .iter()
        .flat_map(|&m| {
            cluster
                .byz_delivered(m)
                .into_iter()
                .map(move |d| (m as u32, d.broadcast_id, d.trace))
        })
        .collect();
    check_byz_deliveries(plan, &records, violations);
    let unsafe_views = cluster.metrics().counter("byz.unsafe_views").get();
    if unsafe_views > 0 {
        violations.push(Violation::QuorumUnsafe {
            count: unsafe_views,
        });
    }
}

/// Mixed family on TCP: the full lifecycle under fire. Bracha gossip runs
/// under lossy links while traitors attack; a correct node crashes
/// mid-schedule and instances certify at the down-sized views; the victim
/// then *rejoins* — a blank reboot that re-expands every survivor's view
/// upward and catches up over the SYNC summary extension — more instances
/// certify at the re-expanded views; finally a second correct node crashes
/// permanently. The rejoiner sits outside [`FaultPlan::correct_nodes`], so
/// the standard oracle never audits it; [`check_rejoin_divergence`] does,
/// demanding it converge with the stable majority on every certified
/// instance — including the one originated while it was dead.
///
/// `await_heal` is deliberately not used: a `suppress_heartbeat` traitor
/// is *designed* to get itself excommunicated, so replicas legitimately
/// converge on less than the survivor set.
fn tcp_mixed_schedule(plan: &FaultPlan, cluster: &mut Cluster, violations: &mut Vec<Violation>) {
    let correct: Vec<MemberId> = plan
        .correct_nodes()
        .into_iter()
        .map(MemberId::from)
        .collect();
    let mut crashes = plan.crashes.clone();
    crashes.sort_by_key(|c| c.at_us);
    let first = crashes[0]; // recovers mid-run: the lifecycle rejoiner
    let second = crashes[1]; // permanent
    let revive_at = first
        .recover_at_us
        .expect("mixed plans schedule the first crash with a recovery");
    let rejoiner = MemberId::from(first.node);
    let broadcasts: Vec<(usize, &BroadcastSpec)> = plan.broadcasts.iter().enumerate().collect();

    for &(idx, spec) in broadcasts.iter().filter(|(_, b)| b.at_us < first.at_us) {
        tcp_byz_broadcast_step(cluster, idx, spec, &correct, violations);
    }

    if !tcp_kill_and_detect(cluster, rejoiner, &correct, violations) {
        return;
    }

    // Originated while the rejoiner is dead; catch-up must repair these.
    for &(idx, spec) in broadcasts
        .iter()
        .filter(|(_, b)| b.at_us >= first.at_us && b.at_us < revive_at)
    {
        tcp_byz_broadcast_step(cluster, idx, spec, &correct, violations);
    }

    if cluster.rejoin(rejoiner).is_err() {
        violations.push(Violation::Timeout {
            phase: format!("rejoin {rejoiner}"),
        });
        return;
    }
    // Upward churn: every correct survivor must re-admit the rejoiner (and
    // re-expand its quorum views) before the post-revive instances run.
    let readmitted = poll_until(Duration::from_secs(15), || {
        correct.iter().all(|&m| {
            cluster
                .node(m)
                .is_some_and(|s| !s.crashes_applied().contains(&rejoiner))
        })
    });
    if !readmitted {
        violations.push(Violation::Timeout {
            phase: "rejoin re-admission under byzantine corroboration".into(),
        });
        return;
    }

    for &(idx, spec) in broadcasts
        .iter()
        .filter(|(_, b)| b.at_us >= revive_at && b.at_us < second.at_us)
    {
        tcp_byz_broadcast_step(cluster, idx, spec, &correct, violations);
    }

    if !tcp_kill_and_detect(cluster, MemberId::from(second.node), &correct, violations) {
        return;
    }
    for &(idx, spec) in broadcasts.iter().filter(|(_, b)| b.at_us >= second.at_us) {
        tcp_byz_broadcast_step(cluster, idx, spec, &correct, violations);
    }

    // Give catch-up its retry budget before the divergence audit: the
    // rejoiner converging late is fine; never converging is the violation.
    let scheduled: Vec<u64> = (0..plan.broadcasts.len())
        .map(|i| CHAOS_BCAST_BASE + i as u64)
        .collect();
    let _ = poll_until(Duration::from_secs(15), || {
        let got: BTreeSet<u64> = cluster
            .byz_delivered(rejoiner)
            .iter()
            .map(|d| d.broadcast_id)
            .collect();
        scheduled.iter().all(|n| got.contains(n))
    });

    tcp_byz_audit(plan, cluster, &correct, violations);
    let records: Vec<(u32, u64, Option<u64>)> = correct
        .iter()
        .chain(std::iter::once(&rejoiner))
        .flat_map(|&m| {
            cluster
                .byz_delivered(m)
                .into_iter()
                .map(move |d| (m as u32, d.broadcast_id, d.trace))
        })
        .collect();
    check_rejoin_divergence(plan, &records, violations);
}

/// Kills `victim` and waits until every correct survivor has applied the
/// crash. Corroborated suspicion needs f+1 distinct crash reporters; give
/// it several suspicion windows, plus slack for lossy-link retransmits.
/// Returns false (after charging a timeout) if detection never converges.
fn tcp_kill_and_detect(
    cluster: &mut Cluster,
    victim: MemberId,
    correct: &[MemberId],
    violations: &mut Vec<Violation>,
) -> bool {
    if cluster.kill(victim).is_err() {
        violations.push(Violation::Timeout {
            phase: format!("kill {victim}"),
        });
    }
    let detected = poll_until(Duration::from_secs(15), || {
        correct.iter().all(|&m| {
            cluster
                .node(m)
                .is_some_and(|s| s.crashes_applied().contains(&victim))
        })
    });
    if !detected {
        violations.push(Violation::Timeout {
            phase: format!("crash detection of {victim} under byzantine corroboration"),
        });
    }
    detected
}

/// Per-node exactly-once: no member's delivery log repeats a broadcast id,
/// under any fault schedule (duplication faults included — dedup absorbs
/// them; rejoin keeps data ids in the dedup set).
fn check_no_duplicate_deliveries(cluster: &Cluster, violations: &mut Vec<Violation>) {
    let mut reported = 0;
    for m in cluster.members() {
        let mut seen = HashSet::new();
        for id in cluster.delivered_ids(m) {
            if !seen.insert(id) && reported < MAX_VIOLATIONS_PER_CHECK {
                reported += 1;
                violations.push(Violation::DuplicateDelivery {
                    broadcast_id: id,
                    node: m as u32,
                });
            }
        }
    }
}

fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The outcome of a seed sweep: one [`ChaosReport`] per (seed, engine).
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Every report, in execution order.
    pub reports: Vec<ChaosReport>,
}

impl SuiteOutcome {
    /// True when every run passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.reports.iter().all(ChaosReport::passed)
    }

    /// The failing reports, in execution order.
    pub fn failures(&self) -> impl Iterator<Item = &ChaosReport> {
        self.reports.iter().filter(|r| !r.passed())
    }
}

/// Sweeps `count` consecutive seeds starting at `base_seed`, running each
/// plan on every engine in `engines` and invoking `on_report` after each
/// run (the CLI prints progress through it).
pub fn run_suite(
    engines: &[Engine],
    base_seed: u64,
    count: u64,
    quick: bool,
    on_report: impl FnMut(&ChaosReport),
) -> SuiteOutcome {
    run_suite_filtered(engines, base_seed, count, quick, None, on_report)
}

/// Like [`run_suite`], but when `family` is given only plans of that
/// family run: seeds are scanned upward from `base_seed` until `count`
/// matching plans have executed, so `count` always means "runs per
/// engine" regardless of the filter. CI uses this to sweep lossy-family
/// seeds under the strict oracle without paying for the other families.
pub fn run_suite_filtered(
    engines: &[Engine],
    base_seed: u64,
    count: u64,
    quick: bool,
    family: Option<Family>,
    on_report: impl FnMut(&ChaosReport),
) -> SuiteOutcome {
    run_suite_with(
        engines,
        base_seed,
        count,
        quick,
        family,
        &PlanOverrides::default(),
        on_report,
    )
}

/// Like [`run_suite_filtered`], with caller-chosen [`PlanOverrides`]
/// layered over every generated plan — how `lhg chaos --k 5 --traitors 2`
/// pins the byzantine/mixed sweep shape without editing seeds.
pub fn run_suite_with(
    engines: &[Engine],
    base_seed: u64,
    count: u64,
    quick: bool,
    family: Option<Family>,
    overrides: &PlanOverrides,
    mut on_report: impl FnMut(&ChaosReport),
) -> SuiteOutcome {
    let mut reports = Vec::new();
    let mut seed = base_seed;
    let mut ran = 0;
    while ran < count {
        if family.is_none_or(|f| Family::of_seed(seed) == f) {
            let plan = FaultPlan::random_with(seed, quick, overrides);
            for &engine in engines {
                let report = match engine {
                    Engine::Sim => run_sim_chaos(&plan),
                    Engine::Tcp => run_tcp_chaos(&plan),
                };
                on_report(&report);
                reports.push(report);
            }
            ran += 1;
        }
        seed = match seed.checked_add(1) {
            Some(s) => s,
            None => break,
        };
    }
    SuiteOutcome { reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_chaos_passes_all_five_families() {
        // Seeds 0..10 cover each family twice (family = seed % 5).
        for seed in 0..10u64 {
            let plan = FaultPlan::random(seed, true);
            let report = run_sim_chaos(&plan);
            assert!(
                report.passed(),
                "seed {seed} ({}) violations: {:?}",
                plan.family.name(),
                report.violations
            );
            assert!(report.deliveries > 0, "seed {seed} delivered nothing");
            assert!(report.end_time_us <= plan.horizon_us);
        }
    }

    #[test]
    fn sim_chaos_is_deterministic() {
        let plan = FaultPlan::random(7, true); // lossy: the faultiest pure family
        assert_eq!(plan.family, Family::Lossy);
        let a = run_sim_chaos(&plan);
        let b = run_sim_chaos(&plan);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(a.violations, b.violations);
        // Virtual-time telemetry is part of the deterministic surface.
        assert_eq!(a.telemetry, b.telemetry);
        assert!(
            a.telemetry
                .as_deref()
                .is_some_and(|t| t.contains("\"data\"")),
            "wire decomposition present: {:?}",
            a.telemetry
        );
    }

    #[test]
    fn sim_byzantine_chaos_is_deterministic() {
        let plan = FaultPlan::random(3, true); // byzantine family
        assert_eq!(plan.family, Family::Byzantine);
        let a = run_sim_chaos(&plan);
        let b = run_sim_chaos(&plan);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn sim_mixed_chaos_is_deterministic() {
        let plan = FaultPlan::random(4, true); // mixed: lies ∘ churn ∘ loss
        assert_eq!(plan.family, Family::Mixed);
        let a = run_sim_chaos(&plan);
        let b = run_sim_chaos(&plan);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn sim_mixed_quorum_dip_trips_the_oracle() {
        // Sabotage a mixed plan: crash members until the live view falls
        // below the 3f+1 floor. Every refused bump must surface as a
        // QuorumUnsafe violation, not a panic and not silence.
        let mut plan = FaultPlan::random(4, true); // mixed family
        plan.traitors.clear();
        plan.crashes.clear();
        plan.broadcasts = vec![BroadcastSpec {
            origin: 0,
            at_us: 10_000,
        }];
        let f = lhg_byzantine::max_traitors(plan.k);
        let floor = 3 * f + 1;
        for (i, v) in ((floor - 1)..plan.n).enumerate() {
            plan.crashes.push(crate::plan::CrashSpec {
                node: v as u32,
                at_us: 100_000 * (i as u64 + 1),
                recover_at_us: None,
            });
        }
        let report = run_sim_chaos(&plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::QuorumUnsafe { count } if *count > 0)),
            "a view below 3f+1 must be charged, got: {:?}",
            report.violations
        );
    }

    #[test]
    fn sim_byzantine_over_budget_trips_the_oracle() {
        // Corrupt past the f = ⌊(k−1)/2⌋ = 1 budget: silence half the
        // cluster. The echo quorum ⌈(n+f+1)/2⌉ becomes unreachable for
        // every honest instance, validity must break — and the oracle has
        // to say so rather than quietly accept the stall.
        let mut plan = FaultPlan::random(3, true); // byzantine family
        let origins: BTreeSet<u32> = plan.broadcasts.iter().map(|b| b.origin).collect();
        plan.traitors.clear();
        let mut node = 0u32;
        while plan.traitors.len() < plan.n / 2 {
            if !origins.contains(&node) {
                plan.traitors.push(crate::plan::TraitorSpec {
                    node,
                    behavior: TraitorBehavior::Silent,
                });
            }
            node += 1;
        }
        let report = run_sim_chaos(&plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ValidityMissed { .. })),
            "over-budget traitors must surface as validity violations, got: {:?}",
            report.violations
        );
    }

    /// The Integrity hole the roster closes, mounted by hand inside the
    /// f = 1 budget on K-DIAMOND(16, 3): one traitor speaks under ids
    /// *nobody* holds. The signed-enough model forbids forging another
    /// node's attribution — an id outside the membership is no node's. At
    /// the parent of the commit that added this test, the same process
    /// makes every correct node deliver a broadcast no origin sent and this
    /// oracle reports `IntegrityForged` at all fifteen of them.
    #[test]
    fn sim_invented_witness_ids_forge_nothing() {
        use lhg_byzantine::{
            BrachaConfig, ByzantineFlooder, GossipFrame, GossipKind, VoteEntry, VotesFrame,
            FORGE_NONCE_BASE,
        };
        use lhg_core::Constraint;
        use lhg_net::message::{ByzTag, Message};
        use lhg_net::sim::Context;

        const TRAITOR: u32 = 15;

        /// Mute but for one burst: a payload-bearing ECHO and three READYs
        /// under invented ids for an instance "of origin 0", the same lie
        /// as bits, and a SEND under an invented origin.
        struct Inventor;
        impl Process for Inventor {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(20_000, 0);
            }
            fn on_message(&mut self, _: NodeId, _: Message, _: &mut Context<'_>) {}
            fn on_timer(&mut self, _: u64, ctx: &mut Context<'_>) {
                let payload = Bytes::from_static(b"no origin sent this");
                let digest = lhg_byzantine::digest(&payload);
                let forged = ByzTag {
                    origin: 0,
                    nonce: FORGE_NONCE_BASE + u64::from(TRAITOR),
                };
                let frame = |kind, witness, tag, payload: &Bytes| GossipFrame {
                    kind,
                    witness,
                    tag,
                    digest,
                    payload: payload.clone(),
                };
                let mut lies =
                    vec![frame(GossipKind::Echo, 4_000_000_000, forged, &payload).to_message()];
                for witness in 1000..1003 {
                    lies.push(
                        frame(GossipKind::Ready, witness, forged, &Bytes::new()).to_message(),
                    );
                }
                let invented = || (1000..1003).collect();
                let bits = VoteEntry::delta(forged, digest, invented(), invented());
                lies.push(VotesFrame::from(vec![bits]).to_message(TRAITOR));
                let alien = ByzTag {
                    origin: 4_000_000_000,
                    nonce: 1,
                };
                lies.push(frame(GossipKind::Send, alien.origin, alien, &payload).to_message());
                for w in ctx.neighbors().to_vec() {
                    for lie in &lies {
                        ctx.send(w, lie.clone());
                    }
                }
            }
        }

        // A byzantine-family plan re-cut to (16, 3) with node 15 the traitor.
        let mut plan = FaultPlan::random(3, true);
        (plan.n, plan.k, plan.constraint) = (16, 3, Constraint::KDiamond);
        plan.traitors = vec![crate::plan::TraitorSpec {
            node: TRAITOR,
            behavior: TraitorBehavior::Silent,
        }];
        for b in &mut plan.broadcasts {
            b.origin %= TRAITOR;
        }
        let overlay = DynamicOverlay::bootstrap(plan.constraint, plan.n, plan.k).unwrap();
        let cfg = BrachaConfig::for_overlay(plan.n, plan.k).unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let processes: Vec<Box<dyn Process>> = (0..plan.n as u32)
            .map(|v| -> Box<dyn Process> {
                if v == TRAITOR {
                    return Box::new(Inventor);
                }
                let mine = plan
                    .broadcasts
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.origin == v);
                let schedule = mine.map(|(idx, b)| ScheduledByzBroadcast {
                    nonce: CHAOS_BCAST_BASE + idx as u64,
                    payload: byz_payload(idx),
                    at_us: b.at_us,
                });
                let node = ByzantineFlooder::new(v, cfg).with_schedule(schedule.collect());
                Box::new(node.with_metrics(Arc::clone(&metrics)))
            })
            .collect();
        let report = Simulation::new(overlay.graph(), LinkModel::default(), plan.seed)
            .run(processes, plan.horizon_us);
        let records: Vec<(u32, u64, Option<u64>)> = (report.deliveries.iter())
            .map(|d| (d.node.index() as u32, d.broadcast_id, d.trace))
            .collect();
        let mut violations = Vec::new();
        check_byz_deliveries(&plan, &records, &mut violations);
        assert_eq!(violations, Vec::new(), "validity holds, nothing forged");
        assert_eq!(records.len(), 15 * plan.broadcasts.len());
        // The traitor's neighbors each refused the four votes that came as
        // frames — no correct node sends or takes one — and the same votes
        // as bits past the roster bound did not even decode; the flooded
        // alien SEND was refused everywhere.
        let neighbors = overlay.graph().neighbors(NodeId(TRAITOR as usize)).count() as u64;
        assert_eq!(
            metrics.counter("byz.votes_rejected").get(),
            neighbors * 4 + 15
        );
    }

    #[test]
    fn sim_oracle_catches_missing_deliveries() {
        // Sabotage: a lossless plan whose only broadcast originates at a
        // node that the schedule immediately crashes — the oracle must
        // notice that correct nodes never deliver.
        let mut plan = FaultPlan::random(0, true); // crash family
        plan.crashes.clear();
        plan.crashes.push(crate::plan::CrashSpec {
            node: 0,
            at_us: 0,
            recover_at_us: None,
        });
        plan.broadcasts.clear();
        plan.broadcasts.push(BroadcastSpec {
            origin: 0, // down from t=0: the flood never starts
            at_us: 10_000,
        });
        let report = run_sim_chaos(&plan);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeliveryMissed { .. })));
    }

    #[test]
    fn tcp_chaos_crash_family_smoke() {
        let plan = FaultPlan::random(0, true); // seed 0 → crash family
        let report = run_tcp_chaos(&plan);
        assert!(
            report.passed(),
            "violations: {:?}\n(events captured: {})",
            report.violations,
            report.events_jsonl.is_some()
        );
        assert!(report.deliveries >= plan.n, "every node delivers something");
    }

    #[test]
    fn tcp_chaos_lossy_family_smoke() {
        let plan = FaultPlan::random(2, true); // seed 2 → lossy family
        let report = run_tcp_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn tcp_chaos_byzantine_family_smoke() {
        let plan = FaultPlan::random(3, true); // seed 3 → byzantine family
        assert_eq!(plan.family, Family::Byzantine);
        let report = run_tcp_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.deliveries >= plan.correct_nodes().len() * plan.broadcasts.len(),
            "every correct node certifies every scheduled instance"
        );
    }

    #[test]
    fn tcp_chaos_mixed_family_smoke() {
        let plan = FaultPlan::random(4, true); // seed 4 → mixed family
        assert_eq!(plan.family, Family::Mixed);
        let report = run_tcp_chaos(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.deliveries >= plan.correct_nodes().len() * plan.broadcasts.len(),
            "every correct survivor certifies every scheduled instance"
        );
    }

    #[test]
    fn suite_sweeps_seeds_and_reports() {
        let mut seen = 0;
        let outcome = run_suite(&[Engine::Sim], 0, 3, true, |_| seen += 1);
        assert_eq!(outcome.reports.len(), 3);
        assert_eq!(seen, 3);
        assert!(
            outcome.passed(),
            "failures: {:?}",
            outcome.failures().count()
        );
    }
}
