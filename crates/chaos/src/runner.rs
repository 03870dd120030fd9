//! Executes fault plans: one interpreter, two clocks.
//!
//! A [`FaultPlan`] compiles to a list of [`Step`]s, and `execute` runs
//! that list against a `Driver` — the handful of things a cluster can be
//! told and asked. There are exactly two drivers, and both host the node
//! state machine that ships ([`lhg_runtime::core::NodeCore`]): the TCP
//! runtime's [`Cluster`], which waits on the wall clock, and the
//! simulator's [`SimCluster`], which advances virtual time. Steps,
//! deadlines, fault rates, runtime timings and oracle calls are the same on
//! both; a verdict can differ between them only by what the clock does.
//!
//! The simulator run is bit-for-bit deterministic in the plan seed (seeded
//! jitter, seeded fault decisions, virtual time). The TCP run is only
//! *statistically* reproducible, but every probabilistic decision inside it
//! — fault verdicts, dial jitter — still derives from the plan seed, so a
//! failing seed reliably re-exercises the same schedule shape, and what it
//! shows can then be hunted in virtual time.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use lhg_byzantine::{TraitorBehavior, EQUIVOCATE_NONCE_BASE};
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::properties::p4_diameter_bound;
use lhg_graph::connectivity::is_k_vertex_connected;
use lhg_net::fault::FaultInjector;
use lhg_net::metrics::MetricsRegistry;
use lhg_net::sim::LinkModel;
use lhg_runtime::core::Event;
use lhg_runtime::simnode::{SimCluster, SimInput};
use lhg_runtime::{ByzantineSetup, Cluster, RuntimeConfig};
use lhg_trace::TraceCollector;

use crate::oracle::{ChaosReport, Engine, Violation};
use crate::plan::{BroadcastSpec, Family, FaultPlan, PlanOverrides, Step};

pub use crate::plan::CHAOS_BCAST_BASE;

/// At most this many violations of each kind are reported per run; a
/// systemic failure produces thousands of identical entries otherwise.
const MAX_VIOLATIONS_PER_CHECK: usize = 8;

/// Deadline for a broadcast to reach its audience. Generous: under heavy
/// loss, delivery rides retransmit timeouts and summary cadences rather
/// than one flood's latency.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(8);
/// Deadline for one victim's crash, or one rejoiner's return, to be applied
/// by every correct node: corroborated suspicion needs f+1 distinct
/// reporters — several suspicion windows, plus slack for lossy links.
const CHURN_TIMEOUT: Duration = Duration::from_secs(15);
/// Deadline for full convergence. Deliberately slack: re-convergence takes
/// well under a second, but a TCP sweep shares the machine with whatever
/// else is running, and a wall-clock deadline is the one place scheduling
/// noise can masquerade as a protocol bug.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);

/// Renders the per-run telemetry summary embedded in `lhg chaos --json`
/// records: the per-class wire-cost decomposition from the registry's
/// accountant, and how the reliable plane's acks travelled — in `ack`
/// frames of their own, or riding on data frames (which is why the `ack`
/// class can stay near empty under heavy data traffic).
fn telemetry_json(metrics: &MetricsRegistry) -> String {
    let count = |name: &str| serde::Value::U64(metrics.counter(name).get());
    let obj = serde::Value::Obj(vec![
        ("wire".to_owned(), metrics.wire().to_value()),
        (
            "acks".to_owned(),
            serde::Value::Obj(vec![
                ("frames".to_owned(), count("runtime.acks_sent")),
                ("piggybacked".to_owned(), count("runtime.acks_piggybacked")),
            ]),
        ),
    ]);
    serde_json::to_string(&obj).expect("Value serialization is infallible")
}

/// A cluster as the interpreter sees it: what it can be told, the one way
/// to let time pass, and what can be read off its members. Members are
/// `0..n`, and a dead member's last state stays readable.
trait Driver {
    /// Floods `payload` from `origin`; the broadcast's id, or `None` if
    /// the origin is down.
    fn broadcast(&mut self, origin: MemberId, payload: Bytes) -> Option<u64>;
    /// Originates Bracha instance `nonce` at `origin`; `false` if it is down.
    fn byz_broadcast(&mut self, origin: MemberId, nonce: u64, payload: Bytes) -> bool;
    /// Fail-stops `member`; `false` if it cannot be (already dead).
    fn kill(&mut self, member: MemberId) -> bool;
    /// Reboots a killed `member` blank; `false` if it cannot be.
    fn revive(&mut self, member: MemberId) -> bool;
    /// Lets the engine's clock run until `cond` holds or `timeout` has
    /// passed; returns the final verdict.
    fn await_until(&mut self, timeout: Duration, cond: impl FnMut(&Self) -> bool) -> bool;

    /// Broadcast ids `member` has delivered in its current life, in order.
    fn delivered_ids(&self, member: MemberId) -> Vec<u64>;
    /// Bracha instances `member` has certified in its current life, as
    /// `(nonce, certified digest)`.
    fn byz_delivered(&self, member: MemberId) -> Vec<(u64, Option<u64>)>;
    /// Members `member` has declared crashed and healed around.
    fn crashes_applied(&self, member: MemberId) -> BTreeSet<MemberId>;
    /// `member`'s own overlay replica.
    fn overlay(&self, member: MemberId) -> DynamicOverlay;
    /// `true` while `member` has suspended healing (≥ k suspects).
    fn is_degraded(&self, member: MemberId) -> bool;
    /// `true` when `member` holds a link to every neighbor its replica wants.
    fn links_ready(&self, member: MemberId) -> bool;
    /// The registry every node of the cluster records into.
    fn metrics(&self) -> &MetricsRegistry;
    /// Delivery path records (hop counts) of every flooded broadcast.
    fn tracer(&self) -> &TraceCollector;
    /// The merged flight-recorder timeline, for a failing run's postmortem.
    fn events_jsonl(&self) -> String;
}

fn digests(delivered: &[lhg_net::message::Message]) -> Vec<(u64, Option<u64>)> {
    (delivered.iter())
        .map(|d| (d.broadcast_id, d.trace))
        .collect()
}

/// The TCP runtime on the wall clock.
impl Driver for Cluster {
    fn broadcast(&mut self, origin: MemberId, payload: Bytes) -> Option<u64> {
        Cluster::broadcast(self, origin, payload).ok()
    }
    fn byz_broadcast(&mut self, origin: MemberId, nonce: u64, payload: Bytes) -> bool {
        self.byzantine_broadcast(origin, nonce, payload).is_ok()
    }
    fn kill(&mut self, member: MemberId) -> bool {
        Cluster::kill(self, member).is_ok()
    }
    fn revive(&mut self, member: MemberId) -> bool {
        self.rejoin(member).is_ok()
    }
    fn await_until(&mut self, timeout: Duration, mut cond: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while !cond(self) {
            if Instant::now() >= deadline {
                return cond(self);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }
    fn delivered_ids(&self, member: MemberId) -> Vec<u64> {
        Cluster::delivered_ids(self, member)
    }
    fn byz_delivered(&self, member: MemberId) -> Vec<(u64, Option<u64>)> {
        digests(&Cluster::byz_delivered(self, member))
    }
    fn crashes_applied(&self, member: MemberId) -> BTreeSet<MemberId> {
        self.node(member)
            .map(|s| s.crashes_applied())
            .unwrap_or_default()
    }
    fn overlay(&self, member: MemberId) -> DynamicOverlay {
        let shared = self.node(member).expect("members are 0..n");
        shared.overlay_snapshot()
    }
    fn is_degraded(&self, member: MemberId) -> bool {
        self.node(member).is_some_and(|s| s.is_degraded())
    }
    fn links_ready(&self, member: MemberId) -> bool {
        (self.node(member)).is_some_and(|s| s.desired_neighbors().is_subset(&s.links_up()))
    }
    fn metrics(&self) -> &MetricsRegistry {
        Cluster::metrics(self)
    }
    fn tracer(&self) -> &TraceCollector {
        Cluster::tracer(self)
    }
    fn events_jsonl(&self) -> String {
        Cluster::events_jsonl(self)
    }
}

/// The same node state machine in virtual time.
impl Driver for SimCluster {
    fn broadcast(&mut self, origin: MemberId, payload: Bytes) -> Option<u64> {
        SimCluster::broadcast(self, origin, payload)
    }
    fn byz_broadcast(&mut self, origin: MemberId, nonce: u64, payload: Bytes) -> bool {
        self.inject(
            origin,
            SimInput::Event(Event::ByzBroadcast { nonce, payload }),
        )
    }
    fn kill(&mut self, member: MemberId) -> bool {
        SimCluster::kill(self, member)
    }
    fn revive(&mut self, member: MemberId) -> bool {
        SimCluster::revive(self, member)
    }
    fn await_until(&mut self, timeout: Duration, cond: impl FnMut(&Self) -> bool) -> bool {
        SimCluster::await_until(self, timeout.as_micros() as u64, cond)
    }
    fn delivered_ids(&self, member: MemberId) -> Vec<u64> {
        self.nodes[member as usize].borrow().delivered.clone()
    }
    fn byz_delivered(&self, member: MemberId) -> Vec<(u64, Option<u64>)> {
        digests(&self.nodes[member as usize].borrow().byz_delivered)
    }
    fn crashes_applied(&self, member: MemberId) -> BTreeSet<MemberId> {
        self.core(member, |c| c.membership().crashes_applied())
    }
    fn overlay(&self, member: MemberId) -> DynamicOverlay {
        self.core(member, |c| DynamicOverlay::clone(c.membership().overlay()))
    }
    fn is_degraded(&self, member: MemberId) -> bool {
        self.core(member, |c| c.membership().is_degraded())
    }
    fn links_ready(&self, member: MemberId) -> bool {
        self.core(member, |c| {
            let wanted = c
                .membership()
                .overlay()
                .neighbors_of(member)
                .unwrap_or_default();
            wanted.iter().all(|w| c.links().contains(w))
        })
    }
    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
    fn tracer(&self) -> &TraceCollector {
        &self.tracer
    }
    fn events_jsonl(&self) -> String {
        SimCluster::events_jsonl(self)
    }
}

/// Payload of the idx-th scheduled byzantine broadcast — fixed, so the
/// oracle can recompute the certified digest.
fn byz_payload(idx: usize) -> Bytes {
    Bytes::from(format!("chaos byz {idx}"))
}

/// One run of a plan's steps against a driver.
struct Interpreter<'a, D> {
    plan: &'a FaultPlan,
    driver: &'a mut D,
    faults: &'a FaultInjector,
    /// The members that are up, and the ones the oracle holds to account
    /// ([`FaultPlan::correct_nodes`]).
    up: BTreeSet<MemberId>,
    correct: Vec<MemberId>,
    /// Ids of the broadcasts flooded so far.
    flooded: Vec<u64>,
    violations: Vec<Violation>,
}

/// Runs `plan` on `driver` — whose links `faults` sits under — and returns
/// what the oracle found. A step that misses its deadline ends the steps
/// (everything downstream would cascade off the stall); the exactly-once
/// and hop sweep runs regardless, with `hop_bound` as the most edges a
/// delivered copy may have crossed.
fn execute<D: Driver>(
    plan: &FaultPlan,
    driver: &mut D,
    faults: &FaultInjector,
    hop_bound: u32,
) -> Vec<Violation> {
    let correct = plan.correct_nodes().into_iter().map(MemberId::from);
    let mut run = Interpreter {
        plan,
        driver,
        faults,
        up: (0..plan.n as MemberId).collect(),
        correct: correct.collect(),
        flooded: Vec::new(),
        violations: Vec::new(),
    };
    let up = &run.up;
    let launched =
        (run.driver).await_until(CONVERGE_TIMEOUT, |d| up.iter().all(|&m| d.links_ready(m)));
    let completed = run.check(launched, "launch".into())
        && plan.compile().into_iter().all(|step| run.step(step));
    run.check_flood(hop_bound);
    if plan.is_byzantine() && completed {
        run.check_byz();
    }
    run.violations
}

impl<D: Driver> Interpreter<'_, D> {
    /// Charges a timeout of `phase` unless `met`; hands `met` back.
    fn check(&mut self, met: bool, phase: String) -> bool {
        if !met {
            self.violations.push(Violation::Timeout { phase });
        }
        met
    }

    /// Executes one step; `false` ends the run's steps.
    fn step(&mut self, step: Step) -> bool {
        let (driver, correct) = (&mut *self.driver, &self.correct);
        match step {
            Step::Broadcast(idx) => self.broadcast(idx),
            Step::ByzBroadcast(idx) => {
                let origin = MemberId::from(self.plan.broadcasts[idx].origin);
                let nonce = CHAOS_BCAST_BASE + idx as u64;
                let sent = driver.byz_broadcast(origin, nonce, byz_payload(idx));
                let _ = driver.await_until(DELIVERY_TIMEOUT, |d| {
                    let has = |&m| d.byz_delivered(m).iter().any(|&(n, _)| n == nonce);
                    sent && correct.iter().all(has)
                });
                return self.check(sent, format!("byz broadcast from {origin}"));
            }
            Step::Kill(v) => {
                self.up.remove(&MemberId::from(v));
                let killed = driver.kill(MemberId::from(v));
                return self.check(killed, format!("kill {v}"));
            }
            Step::Revive(v) => {
                self.up.insert(MemberId::from(v));
                let revived = driver.revive(MemberId::from(v));
                return self.check(revived, format!("rejoin {v}"));
            }
            Step::AwaitDetected(v) | Step::AwaitReadmitted(v) => {
                let (gone, phase) = match step {
                    Step::AwaitDetected(_) => (true, "crash detection of"),
                    _ => (false, "re-admission of"),
                };
                let v = MemberId::from(v);
                let applied = driver.await_until(CHURN_TIMEOUT, |d| {
                    (correct.iter()).all(|&m| d.crashes_applied(m).contains(&v) == gone)
                });
                let phase = format!("{phase} {v} under byzantine corroboration");
                return self.check(applied, phase);
            }
            Step::Cut(i) => (self.faults).add_partition_shared(self.plan.partitions[i].cut()),
            Step::Mend => self.faults.clear_partitions(),
            Step::AwaitConverged(phase) => return self.converge(phase),
            Step::AwaitCaughtUp(v) => {
                let scheduled =
                    CHAOS_BCAST_BASE..CHAOS_BCAST_BASE + self.plan.broadcasts.len() as u64;
                let _ = driver.await_until(CHURN_TIMEOUT, |d| {
                    let got = d.byz_delivered(MemberId::from(v));
                    (scheduled.clone()).all(|nonce| got.iter().any(|&(n, _)| n == nonce))
                });
            }
            Step::Settle(us) => {
                let _ = driver.await_until(Duration::from_micros(us), |_| false);
            }
        }
        true
    }

    /// Floods the idx-th scheduled broadcast and requires delivery by every
    /// member that is up, reporting each one that missed it.
    fn broadcast(&mut self, idx: usize) {
        let origin = MemberId::from(self.plan.broadcasts[idx].origin);
        let audience = &self.up;
        let sent = self.driver.broadcast(origin, Bytes::from_static(b"chaos"));
        self.flooded.extend(sent);
        // What a dead origin never sent has only its schedule-level name
        // to be missed under.
        let id = sent.unwrap_or(CHAOS_BCAST_BASE + idx as u64);
        let has = |d: &D, m: MemberId| d.delivered_ids(m).contains(&id);
        let _ = sent.is_some()
            && (self.driver).await_until(DELIVERY_TIMEOUT, |d| audience.iter().all(|&m| has(d, m)));
        let missed = audience.iter().filter(|&&m| !has(self.driver, m));
        let missed = missed.take(MAX_VIOLATIONS_PER_CHECK);
        (self.violations).extend(missed.map(|&m| Violation::DeliveryMissed {
            broadcast_id: id,
            node: m as u32,
        }));
    }

    /// Waits for every member that is up to hold the same whole replica,
    /// then checks what LHG property P1 promises of it.
    fn converge(&mut self, phase: &'static str) -> bool {
        let up = &self.up;
        let dead: BTreeSet<MemberId> = (0..self.plan.n as MemberId)
            .filter(|m| !up.contains(m))
            .collect();
        let converged = self.driver.await_until(CONVERGE_TIMEOUT, |d| {
            up.iter().all(|&m| {
                let replica = d.overlay(m);
                replica.members().iter().copied().eq(up.iter().copied())
                    && dead.is_subset(&d.crashes_applied(m))
                    && !d.is_degraded(m)
                    && d.links_ready(m)
            })
        });
        if !converged {
            return self.check(false, phase.into());
        }
        let replicas: Vec<(MemberId, DynamicOverlay)> =
            up.iter().map(|&m| (m, self.driver.overlay(m))).collect();
        let links = replicas[0].1.links();
        if let Some((m, _)) = replicas.iter().find(|(_, r)| r.links() != links) {
            self.violations.push(Violation::ReplicaDivergence {
                node: *m as u32,
                detail: format!("overlay replicas differ after '{phase}'"),
            });
        }
        let k = self.plan.k;
        if (replicas.iter()).any(|(_, r)| !is_k_vertex_connected(r.graph(), k)) {
            self.violations.push(Violation::NotKConnected {
                crashed: dead.len(),
            });
        }
        true
    }

    /// Per-node exactly-once — no member's delivery log repeats a
    /// broadcast id, under any fault schedule (duplication faults included:
    /// dedup absorbs them) — and hop sanity: flooding forwards only on
    /// first receipt, so no delivered copy crossed more than `hop_bound`
    /// edges.
    fn check_flood(&mut self, hop_bound: u32) {
        let mut dups = Vec::new();
        for m in 0..self.plan.n as MemberId {
            let mut seen = HashSet::new();
            let repeated = |id: &u64| !seen.insert(*id);
            dups.extend(
                (self.driver.delivered_ids(m).into_iter().filter(repeated)).map(|id| {
                    Violation::DuplicateDelivery {
                        broadcast_id: id,
                        node: m as u32,
                    }
                }),
            );
        }
        let paths = self.driver.tracer().records().into_iter();
        let overruns = paths
            .filter(|r| self.flooded.contains(&r.trace_id) && r.hops > hop_bound)
            .map(|r| Violation::HopBoundExceeded {
                broadcast_id: r.trace_id,
                node: r.node,
                hops: r.hops,
                bound: hop_bound,
            });
        let dups = dups.into_iter().take(MAX_VIOLATIONS_PER_CHECK);
        (self.violations).extend(dups.chain(overruns.take(MAX_VIOLATIONS_PER_CHECK)));
    }

    /// The Bracha audit: [`check_byz_deliveries`] on the correct nodes'
    /// certified logs, [`Violation::QuorumUnsafe`] for any view a Bracha
    /// engine refused, [`check_rejoin_divergence`] on the rejoiners.
    fn check_byz(&mut self) {
        let records: Vec<(u32, u64, Option<u64>)> = (0..self.plan.n as MemberId)
            .flat_map(|m| {
                let certified = self.driver.byz_delivered(m).into_iter();
                certified.map(move |(nonce, digest)| (m as u32, nonce, digest))
            })
            .collect();
        check_byz_deliveries(self.plan, &records, &mut self.violations);
        let count = self.driver.metrics().counter("byz.unsafe_views").get();
        if count > 0 {
            self.violations.push(Violation::QuorumUnsafe { count });
        }
        check_rejoin_divergence(self.plan, &records, &mut self.violations);
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
/// forgery that slipped past the quorums on its way to a blank rejoiner
/// would surface exactly there. Agreement *inside* the majority is
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
                             (a forgery certified)"
                        .into(),
                });
            }
        }
    }
}

/// The aggressive-timing [`RuntimeConfig`] chaos runs use on both engines:
/// fast heartbeats and dials keep a full kill/heal/rejoin cycle within a
/// couple of seconds (virtual time makes them free on the simulator). The
/// suspicion timeout is kept generous relative to the heartbeat period (25
/// missed beats) so that scheduler stalls on a loaded machine — e.g. a
/// 100-seed TCP sweep running back to back with other jobs — don't fire
/// spurious suspicions outside the injected fault schedule and push a
/// replica past the k−1 budget. The Bracha families get the plan's traitors
/// at the full f = ⌊(k−1)/2⌋ budget.
#[must_use]
pub fn chaos_config(plan: &FaultPlan, faults: Arc<FaultInjector>) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_max_attempts: 8,
        dial_timeout: Duration::from_millis(100),
        launch_timeout: Duration::from_secs(10),
        rng_seed: plan.seed,
        // Deep per-node event rings: a failing run's postmortem JSONL
        // should cover the whole run, not just its quiescent tail.
        recorder_capacity: 1 << 16,
        faults: Some(faults),
        // Default reliable-layer knobs: 30ms retransmit timeout and, with
        // the 10ms heartbeat period above, an anti-entropy summary every
        // 50ms — both comfortably inside the per-broadcast deadlines.
        reliable: lhg_net::reliable::ReliableConfig::default(),
        byzantine: plan.is_byzantine().then(|| ByzantineSetup {
            f: lhg_byzantine::max_traitors(plan.k),
            traitors: (plan.traitors.iter())
                .map(|t| (u64::from(t.node), t.behavior))
                .collect(),
        }),
    }
}

/// The report of a finished run; a failing one takes the driver's event
/// timeline along for the postmortem.
fn report<D: Driver>(
    plan: &FaultPlan,
    engine: Engine,
    driver: &D,
    violations: Vec<Violation>,
    end_time_us: u64,
) -> ChaosReport {
    let members = 0..plan.n as MemberId;
    ChaosReport {
        seed: plan.seed,
        engine,
        family: plan.family,
        n: plan.n,
        k: plan.k,
        end_time_us,
        deliveries: (members)
            .map(|m| driver.delivered_ids(m).len() + driver.byz_delivered(m).len())
            .sum(),
        events_jsonl: (!violations.is_empty()).then(|| driver.events_jsonl()),
        telemetry: Some(telemetry_json(driver.metrics())),
        violations,
    }
}

/// Launches `plan`'s cluster on the simulator and runs the plan on it.
///
/// # Panics
///
/// Panics if the plan's `(n, k, constraint)` is outside the overlay
/// builder's domain — [`FaultPlan::random`] never generates such plans.
fn simulate(plan: &FaultPlan, link: LinkModel, hop_bound: u32) -> (SimCluster, Vec<Violation>) {
    let faults = Arc::new(plan.injector());
    let config = chaos_config(plan, Arc::clone(&faults));
    let mut cluster = SimCluster::launch(plan.constraint, plan.n, plan.k, config, link, plan.seed)
        .expect("generated plans stay in the builder domain");
    let violations = execute(plan, &mut cluster, &faults, hop_bound);
    (cluster, violations)
}

/// Runs `plan` on the discrete-event simulator and checks the oracle.
///
/// The run is bit-for-bit deterministic in the plan seed. The flood
/// families are preceded by a *calibration* run through the same driver —
/// clean links, zero jitter, one broadcast — that checks the P4 hop bound:
/// with equal link latencies, first-receipt hop counts equal BFS distance,
/// so they must stay within the paper's logarithmic diameter bound. (A
/// Bracha delivery is a quorum event, not a single flood hop, so the
/// Bracha families have nothing to calibrate.)
///
/// # Panics
///
/// Panics if the plan's `(n, k, constraint)` is outside the overlay
/// builder's domain — [`FaultPlan::random`] never generates such plans.
#[must_use]
pub fn run_sim_chaos(plan: &FaultPlan) -> ChaosReport {
    let mut calibrated = Vec::new();
    if !plan.is_byzantine() {
        let calibration = FaultPlan {
            default_rates: lhg_net::fault::LinkFaults::default(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            broadcasts: vec![BroadcastSpec {
                origin: 0,
                at_us: 0,
            }],
            ..plan.clone()
        };
        let link = LinkModel {
            base_latency_us: 1_000,
            jitter_us: 0,
        };
        let bound = p4_diameter_bound(plan.n, plan.k).ceil() as u32;
        calibrated = simulate(&calibration, link, bound).1;
    }
    let (mut cluster, violations) = simulate(plan, LinkModel::default(), plan.n as u32 - 1);
    calibrated.extend(violations);
    let end_time_us = cluster.finish().end_time;
    if end_time_us > plan.horizon_us {
        calibrated.push(Violation::Timeout {
            phase: "virtual-time horizon".into(),
        });
    }
    report(plan, Engine::Sim, &cluster, calibrated, end_time_us)
}

/// Runs `plan` on the real TCP runtime and checks the oracle.
#[must_use]
pub fn run_tcp_chaos(plan: &FaultPlan) -> ChaosReport {
    let started = Instant::now();
    let elapsed_us = || u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let faults = Arc::new(plan.injector());
    let config = chaos_config(plan, Arc::clone(&faults));
    let mut cluster = match Cluster::launch(plan.constraint, plan.n, plan.k, config) {
        Ok(cluster) => cluster,
        Err(e) => {
            return ChaosReport {
                seed: plan.seed,
                engine: Engine::Tcp,
                family: plan.family,
                n: plan.n,
                k: plan.k,
                violations: vec![Violation::Timeout {
                    phase: format!("launch ({e})"),
                }],
                end_time_us: elapsed_us(),
                deliveries: 0,
                events_jsonl: None,
                telemetry: None,
            }
        }
    };
    let violations = execute(plan, &mut cluster, &faults, plan.n as u32 - 1);
    let report = report(plan, Engine::Tcp, &cluster, violations, elapsed_us());
    cluster.shutdown();
    report
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

/// Sweeps `count` seeds starting at `base_seed`, running each plan on every
/// engine in `engines` and invoking `on_report` after each run (the CLI
/// prints progress through it). When `family` is given only plans of that
/// family run: seeds are scanned upward until `count` matching plans have
/// executed, so `count` always means "runs per engine". `overrides` are
/// layered over every generated plan — how `lhg chaos --k 5 --traitors 2`
/// pins the byzantine/mixed sweep shape without editing seeds.
pub fn run_suite(
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
    use crate::plan::{CrashSpec, TraitorSpec};

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

    fn assert_deterministic(plan: &FaultPlan) -> ChaosReport {
        let a = run_sim_chaos(plan);
        let b = run_sim_chaos(plan);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(a.violations, b.violations);
        // Virtual-time telemetry is part of the deterministic surface.
        assert_eq!(a.telemetry, b.telemetry);
        a
    }

    #[test]
    fn sim_chaos_is_deterministic() {
        let plan = FaultPlan::random(7, true); // lossy: the faultiest pure family
        assert_eq!(plan.family, Family::Lossy);
        let a = assert_deterministic(&plan);
        assert!(
            a.telemetry
                .as_deref()
                .is_some_and(|t| t.contains("\"data\"")),
            "wire decomposition present: {:?}",
            a.telemetry
        );
        assert!(
            a.telemetry.as_deref().is_some_and(
                |t| t.contains("\"acks\":{\"frames\":") && t.contains("\"piggybacked\":")
            ),
            "ack split present: {:?}",
            a.telemetry
        );
    }

    /// The simulator's per-class wire totals reconcile with its own send
    /// counters, frame for frame and byte for byte, on lossy links: a
    /// dropped frame is in neither, a duplicate in both.
    #[test]
    fn sim_wire_classes_reconcile_with_the_send_counters_under_loss() {
        let plan = FaultPlan::random(7, true);
        assert_eq!(plan.family, Family::Lossy);
        let rates = plan.default_rates;
        assert!(rates.drop > 0.0 && rates.duplicate > 0.0, "{rates:?}");
        let (mut cluster, violations) = simulate(&plan, LinkModel::default(), plan.n as u32 - 1);
        assert!(violations.is_empty(), "{violations:?}");
        let report = cluster.finish();
        let counter = |name: &str| cluster.metrics.counter(name).get();
        assert!(
            counter("sim.messages_dropped") > 0,
            "the plan dropped frames"
        );
        let classes = cluster.metrics.wire().class_totals();
        assert!(classes.iter().filter(|t| t.frames > 0).count() >= 3);
        let frames: u64 = classes.iter().map(|t| t.frames).sum();
        let bytes: u64 = classes.iter().map(|t| t.bytes).sum();
        assert_eq!(frames, counter("sim.messages_sent"));
        assert_eq!(frames, report.messages_sent);
        assert_eq!(bytes, counter("sim.bytes_sent"));
    }

    #[test]
    fn sim_byzantine_chaos_is_deterministic() {
        let plan = FaultPlan::random(3, true); // byzantine family
        assert_eq!(plan.family, Family::Byzantine);
        assert_deterministic(&plan);
    }

    #[test]
    fn sim_mixed_chaos_is_deterministic() {
        let plan = FaultPlan::random(4, true); // mixed: lies ∘ churn ∘ loss
        assert_eq!(plan.family, Family::Mixed);
        assert_deterministic(&plan);
    }

    /// TCP mixed seed 104 — 'crash detection of 3 under byzantine
    /// corroboration' timing out on 3 runs of 83 — as a simulator
    /// regression, now that the simulator runs the same core.
    #[test]
    fn sim_mixed_seed_104_is_green_and_deterministic() {
        let plan = FaultPlan::random(104, true);
        assert_eq!(plan.family, Family::Mixed);
        let report = assert_deterministic(&plan);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    /// Quick mixed seed 169, red in the first sweep after heartbeats went
    /// to idle links only: survivors 5–7 vetoed the corroborated crash of 4
    /// because a link that lingered after an earlier heal had carried 4's
    /// last frame a few ms after the reporters' links did — and nothing
    /// re-evaluated the veto, nor watched that link. `lift_stale_vetoes`
    /// was the fix. Taking it out no longer turns this seed red (full-size
    /// 744 below does), so it stays as a mixed run that
    /// must stay green.
    #[test]
    fn sim_quick_mixed_seed_169_lifts_a_stale_crash_veto() {
        assert_green(169, true, Family::Mixed);
    }

    /// Runs the plan of `seed`, of `family`, and asserts it green.
    fn assert_green(seed: u64, quick: bool, family: Family) {
        let plan = FaultPlan::random(seed, quick);
        assert_eq!(plan.family, family);
        let report = run_sim_chaos(&plan);
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
    }

    /// Full-size mixed seed 1619 ran past the virtual-time horizon while
    /// crash waves were flooded once, best-effort, and a node that applied
    /// a corroborated crash did not vouch for it with a wave of its own.
    /// Waves ride the reliable plane now and vouching is gone: a replay that
    /// must stay green.
    #[test]
    fn sim_full_mixed_seed_1619_stays_green() {
        assert_green(1619, false, Family::Mixed);
    }

    /// Full-size mixed seed 239 went red without `lift_stale_vetoes` until
    /// membership became a lattice of incarnations; it no longer does (full
    /// mixed 744 pins the mechanism now). A replay that must stay green.
    #[test]
    fn sim_full_mixed_seed_239_stays_green() {
        assert_green(239, false, Family::Mixed);
    }

    /// The seed that keeps `lift_stale_vetoes` in `membership.rs`. With it
    /// taken out, full-size mixed seed 744 times out detecting a crash
    /// under corroboration, and so do full 844 and quick 234, 939, 1214 and
    /// 1719.
    #[test]
    fn sim_full_mixed_seed_744_needs_stale_vetoes_lifted() {
        assert_green(744, false, Family::Mixed);
    }

    /// Full-size partition seed 226 ran past the horizon without heal grace
    /// until membership became a lattice of incarnations; it no longer does
    /// (full mixed 1419 pins the mechanism now). A replay that must stay
    /// green.
    #[test]
    fn sim_full_partition_seed_226_stays_green() {
        assert_green(226, false, Family::Partition);
    }

    /// The seed that keeps heal grace in `membership.rs`. When a heal
    /// closes the links it drops at once instead of letting them linger
    /// half a timeout (`apply_churn`), full-size mixed seed 1419 times out
    /// detecting a crash under corroboration (its reporters' waves cross
    /// the links the heal closed), and so do full mixed 1009 and quick
    /// mixed 1419.
    #[test]
    fn sim_full_mixed_seed_1419_needs_heal_grace() {
        assert_green(1419, false, Family::Mixed);
    }

    /// The seed that keeps grave probes (`NodeCore::reconcile` dialing the
    /// members its replica holds crashed): without them, full-size
    /// partition seed 36 runs past the horizon, the first of 69 full and
    /// 82 quick runs that go red.
    #[test]
    fn sim_full_partition_seed_36_needs_grave_probes() {
        assert_green(36, false, Family::Partition);
    }

    /// Quick mixed seed 1079 timed out detecting a crash under
    /// corroboration when a dead notice about an incarnation its node had
    /// already left started a new `JOIN`. Such a notice now gets the old
    /// `JOIN` again, to its notifier alone, and starting a new one instead
    /// turns no seed red: `runtime_rejoin`'s burst bound and the unit test
    /// on `Membership` pin that rule. A replay that must stay green.
    #[test]
    fn sim_quick_mixed_seed_1079_stays_green() {
        assert_green(1079, true, Family::Mixed);
    }

    /// Full-size partition seed 246 went red without heal grace until idle
    /// links beat on one phase and a grace lived only on an up link; it no
    /// longer does. A replay that must stay green.
    #[test]
    fn sim_full_partition_seed_246_stays_green() {
        assert_green(246, false, Family::Partition);
    }

    /// The seed that keeps the grace for a caller from outside the overlay
    /// (`Membership::on_link_up`): with it taken out, full-size partition
    /// seed 31 runs past the virtual-time horizon, the first of 94 full
    /// and 98 quick runs that go red.
    #[test]
    fn sim_full_partition_seed_31_needs_outside_caller_grace() {
        assert_green(31, false, Family::Partition);
    }

    /// Quick mixed seed 1349: a node that got no tree copy of a `SEND`
    /// repairs it over lossy links. It ended at 1.36 s of its 2 s
    /// virtual-time horizon while a repair round asked one voter at a time,
    /// and ends at 1.21 s now that a round asks every declared peer. Green
    /// by name and by 1.3 s, so that a slower repair shows here.
    #[test]
    fn sim_quick_mixed_seed_1349_ends_inside_the_horizon() {
        let plan = FaultPlan::random(1349, true);
        assert_eq!(plan.family, Family::Mixed);
        let report = run_sim_chaos(&plan);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.end_time_us <= 1_300_000, "{} us", report.end_time_us);
    }

    /// The seeds whose first run on `NodeCore` wedged, one per hole they
    /// found in it (DESIGN §9 item 7 c–e), full-size as they were found:
    /// 51 — a grave probe from the higher id was hung up on before its dead
    /// notice crossed; 60 — a heal closed the links the other victim's
    /// crash wave was crossing; 191 — a membership snapshot a degraded
    /// node could install, gone with the snapshot. From crash and join
    /// waves on the reliable plane until membership became a lattice of
    /// incarnations, 51 was the pin for grave probes; full partition 36 is
    /// now. 191 goes red without the outside-caller grace (51's fix; full
    /// partition 31 pins it); none goes red without heal grace (60's fix;
    /// full mixed 1419 pins it), grave probes or stale-veto lifting.
    #[test]
    fn sim_seeds_that_found_membership_wedges_stay_green() {
        for seed in [51, 60, 191] {
            let report = run_sim_chaos(&FaultPlan::random(seed, false));
            assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        }
    }

    /// Full-size partition seed 1426: a version of an earlier rejoin
    /// ordering was once seen ending it at 2.34 s, past the 2 s
    /// virtual-time horizon, and no later version reproduced that. Its
    /// degraded nodes answer their dead notices with `JOIN`; this keeps
    /// the seed green by name.
    #[test]
    fn sim_partition_seed_1426_stays_green() {
        assert_green(1426, false, Family::Partition);
    }

    /// Seeds whose degraded nodes, before every dead notice was answered
    /// with `JOIN`, came back another way: full-size 96 and 174 and quick
    /// 739 by re-admitting a peer seen alive for a suspicion timeout, full-
    /// size 31 by a membership snapshot. Each must stay green with the one
    /// rejoin path. Quick 739 also goes red without crash vouching, like
    /// full-size 1619 above.
    #[test]
    fn sim_seeds_that_took_other_rejoin_paths_stay_green() {
        for (seed, quick) in [(96, false), (174, false), (31, false), (739, true)] {
            let report = run_sim_chaos(&FaultPlan::random(seed, quick));
            assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn sim_mixed_quorum_dip_trips_the_oracle() {
        // A node heals around at most k−1 crashes and an overlay never
        // shrinks below 2k ≥ 3f+1 members, so with f = ⌊(k−1)/2⌋ no crash
        // schedule can take a view below the quorum floor. Sabotage the
        // driver instead: the same 8-node, k = 3 cluster told to tolerate
        // f = 2 has its floor at 7, and the second of two crashes dips
        // under it. Every refused bump must surface as a QuorumUnsafe
        // violation, not a panic and not silence.
        let mut plan = FaultPlan::random(14, true); // mixed family, k = 3
        assert_eq!((plan.family, plan.n, plan.k), (Family::Mixed, 8, 3));
        plan.traitors.clear();
        plan.broadcasts.truncate(1);
        plan.crashes = vec![6, 7]
            .into_iter()
            .map(|node| CrashSpec {
                node,
                at_us: 100_000 * u64::from(node),
                recover_at_us: None,
            })
            .collect();
        plan.broadcasts[0].origin = 0;
        let faults = Arc::new(plan.injector());
        let mut config = chaos_config(&plan, Arc::clone(&faults));
        config.byzantine.as_mut().expect("a bracha family").f = 2;
        let mut cluster = SimCluster::launch(
            plan.constraint,
            plan.n,
            plan.k,
            config,
            LinkModel::default(),
            plan.seed,
        )
        .unwrap();
        let violations = execute(&plan, &mut cluster, &faults, plan.n as u32 - 1);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::QuorumUnsafe { count } if *count > 0)),
            "a view below 3f+1 must be charged, got: {violations:?}"
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
                plan.traitors.push(TraitorSpec {
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
    /// the parent of the commit that added this test, the same lies make
    /// every correct node deliver a broadcast no origin sent and this
    /// oracle reports `IntegrityForged` at all fifteen of them.
    #[test]
    fn sim_invented_witness_ids_forge_nothing() {
        use lhg_byzantine::{GossipFrame, GossipKind, VoteEntry, VotesFrame, FORGE_NONCE_BASE};
        use lhg_core::Constraint;
        use lhg_net::message::ByzTag;

        const TRAITOR: u32 = 15;

        // A byzantine-family plan re-cut to (16, 3) with node 15 the
        // traitor: mute, but for the one burst below.
        let mut plan = FaultPlan::random(3, true);
        (plan.n, plan.k, plan.constraint) = (16, 3, Constraint::KDiamond);
        plan.traitors = vec![TraitorSpec {
            node: TRAITOR,
            behavior: TraitorBehavior::Silent,
        }];
        for b in &mut plan.broadcasts {
            b.origin %= TRAITOR;
        }
        let faults = Arc::new(plan.injector());
        let config = chaos_config(&plan, Arc::clone(&faults));
        let link = LinkModel::default();
        let mut cluster =
            SimCluster::launch(plan.constraint, plan.n, plan.k, config, link, plan.seed).unwrap();

        // The burst: a payload-bearing ECHO and three READYs under invented
        // ids for an instance "of origin 0", the same lie as bits, and a
        // SEND under an invented origin — on every link the traitor holds.
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
        let mut lies = vec![frame(GossipKind::Echo, 4_000_000_000, forged, &payload).to_message()];
        for witness in 1000..1003 {
            lies.push(frame(GossipKind::Ready, witness, forged, &Bytes::new()).to_message());
        }
        let invented = || (1000..1003).collect();
        let bits = VoteEntry::delta(forged, digest, invented(), invented());
        lies.push(VotesFrame::from(vec![bits]).to_message(TRAITOR));
        let alien = ByzTag {
            origin: 4_000_000_000,
            nonce: 1,
        };
        lies.push(frame(GossipKind::Send, alien.origin, alien, &payload).to_message());
        cluster.run_until(20_000);
        let from = MemberId::from(TRAITOR);
        let neighbors = cluster.core(from, |c| c.links().clone());
        for &w in &neighbors {
            for msg in lies.iter().cloned() {
                assert!(cluster.inject(w, SimInput::Wire { from, msg }));
            }
        }

        let violations = execute(&plan, &mut cluster, &faults, plan.n as u32 - 1);
        assert_eq!(violations, Vec::new(), "validity holds, nothing forged");
        let certified: usize = (0..TRAITOR)
            .map(|m| cluster.byz_delivered(MemberId::from(m)).len())
            .sum();
        assert_eq!(certified, 15 * plan.broadcasts.len());
        // The traitor's neighbors each refused the four votes that came as
        // frames — no correct node sends or takes one — and the same votes
        // as bits past the roster bound did not even decode; the flooded
        // alien SEND was refused everywhere.
        assert_eq!(
            cluster.metrics.counter("byz.votes_rejected").get(),
            neighbors.len() as u64 * 4 + 15
        );
    }

    #[test]
    fn sim_oracle_catches_missing_deliveries() {
        // Sabotage: a lossless plan whose only broadcast originates at a
        // node that the schedule immediately crashes — the oracle must
        // notice that correct nodes never deliver.
        let mut plan = FaultPlan::random(0, true); // crash family
        plan.crashes.clear();
        plan.crashes.push(CrashSpec {
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
        let overrides = PlanOverrides::default();
        let outcome = run_suite(&[Engine::Sim], 0, 3, true, None, &overrides, |_| seen += 1);
        assert_eq!(outcome.reports.len(), 3);
        assert_eq!(seen, 3);
        assert!(
            outcome.passed(),
            "failures: {:?}",
            outcome.failures().count()
        );
    }
}
