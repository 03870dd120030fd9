//! Seeded fault-plan DSL.
//!
//! A [`FaultPlan`] is the declarative input to a chaos run: which topology
//! to build, which faults to inject when, and which broadcasts to originate.
//! Plans are *pure data* derived deterministically from one `u64` seed
//! ([`FaultPlan::random`]), so any failing run is reproducible by replaying
//! the printed seed. A plan compiles once ([`FaultPlan::compile`]) to a list
//! of [`Step`]s, and that list is what every engine executes — the
//! simulator in virtual time, the TCP runtime on the wall clock. The
//! schedule's microsecond stamps decide the *order* of the steps; how long
//! a step takes is the protocol's business, and each waiting step carries
//! its own deadline.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lhg_core::Constraint;
use lhg_net::fault::{FaultInjector, LinkFaults, Partition};

/// How long a [`Step::Cut`] is held before it is mended: several suspicion
/// windows, so the majority excommunicates the minority (and an isolated
/// minority degrades) before the heal.
pub const PARTITION_HOLD_US: u64 = 700_000;
/// The drain before the final audit: in-flight retransmissions, injected
/// duplicates and trailing attack debris land before anything is counted.
pub const DRAIN_US: u64 = 300_000;

/// Which fault archetype a seed exercises. Chaos runs cycle through the
/// three families so every seed range covers the whole failure model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Fail-stop crashes (≤ k−1) with optional recovery. Links stay clean,
    /// so the oracle demands strict delivery among always-up nodes.
    Crash,
    /// A time-windowed network partition that isolates a minority of at
    /// most k−1 nodes, then heals. Links stay clean.
    Partition,
    /// Lossy links: drops, duplicates, reorders, extra delay. The reliable
    /// link layer plus anti-entropy must absorb all of it — the oracle
    /// demands strict exactly-once delivery at every correct node, same as
    /// the clean-link families.
    Lossy,
    /// Byzantine traitors: nodes that equivocate, forge, replay, or fall
    /// silent while staying connected. Broadcasts run over the Bracha
    /// echo/ready protocol ([`lhg_byzantine`]); with at most
    /// f = ⌊(k−1)/2⌋ traitors the oracle demands agreement, validity and
    /// integrity at every correct node — strictly.
    Byzantine,
    /// Byzantine ∘ full-lifecycle churn ∘ lossy, composed: traitors (up
    /// to the full f = ⌊(k−1)/2⌋ budget at k up to 5, including the
    /// failure-detector attacks `frame_crash` / `suppress_heartbeat`)
    /// while a correct node crashes mid-run, **rejoins** while broadcasts
    /// keep flowing (the upward view bump plus byz catch-up), a second
    /// correct node then crashes permanently, and every link drops,
    /// duplicates and reorders throughout. Quorums re-size both ways from
    /// the churned membership view; the byzantine oracle applies strictly
    /// among correct survivors, plus `QuorumUnsafe` if any view dips
    /// below 3f+1 and `RejoinDivergence` if the rejoiner disagrees with
    /// the stable majority on anything delivered after its return.
    Mixed,
}

impl Family {
    /// Deterministic family for a seed (cycles through all five).
    #[must_use]
    pub fn of_seed(seed: u64) -> Family {
        match seed % 5 {
            0 => Family::Crash,
            1 => Family::Partition,
            2 => Family::Lossy,
            3 => Family::Byzantine,
            _ => Family::Mixed,
        }
    }

    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Family::Crash => "crash",
            Family::Partition => "partition",
            Family::Lossy => "lossy",
            Family::Byzantine => "byzantine",
            Family::Mixed => "mixed",
        }
    }
}

/// Caller-chosen knobs layered over the seeded plan generator: a CLI
/// sweep can pin the connectivity parameter and the traitor count (e.g.
/// k = 5 with the full f = 2 budget) without editing code. `None` fields
/// keep the seeded default. Only the byzantine and mixed families read
/// these; the crash/partition/lossy generators ignore them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanOverrides {
    /// Overlay connectivity parameter (sensible range 3..=5: below 3 the
    /// traitor budget is zero, above 5 cluster sizes get slow for CI).
    pub k: Option<usize>,
    /// Number of traitors to plant, clamped into `1..=⌊(k−1)/2⌋`.
    pub traitors: Option<usize>,
}

/// One scheduled fail-stop crash, optionally followed by a recovery (a
/// blank reboot that rejoins, on either engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The node that crashes.
    pub node: u32,
    /// Crash time (µs from run start).
    pub at_us: u64,
    /// Recovery time, or `None` for a permanent crash.
    pub recover_at_us: Option<u64>,
}

/// One scheduled partition: `minority` against everyone else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// The isolated side (at most k−1 nodes, so the majority can heal).
    pub minority: Vec<u32>,
    /// Activation time (µs from run start).
    pub from_us: u64,
    /// Healing time (µs from run start).
    pub until_us: u64,
    /// When true only minority → majority traffic is cut.
    pub directed: bool,
}

/// One scheduled application broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastSpec {
    /// Originating node (always a node that is up at `at_us`).
    pub origin: u32,
    /// Origination time (µs from run start).
    pub at_us: u64,
}

/// One corrupted node in a byzantine plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraitorSpec {
    /// The corrupted node. Never an origin of a scheduled broadcast.
    pub node: u32,
    /// Its scripted misbehavior.
    pub behavior: lhg_byzantine::TraitorBehavior,
}

/// Nonce base for byzantine plans' scheduled broadcast instances: the
/// i-th scheduled broadcast runs under nonce `CHAOS_BCAST_BASE + i`.
/// Disjoint from the traitor attack ranges
/// ([`lhg_byzantine::EQUIVOCATE_NONCE_BASE`],
/// [`lhg_byzantine::FORGE_NONCE_BASE`]), so the oracle can tell honest
/// instances from attack debris by nonce alone.
pub const CHAOS_BCAST_BASE: u64 = 0x1000;

/// A complete seeded chaos schedule. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The generating seed: printing it reproduces the plan exactly.
    pub seed: u64,
    /// The plan's fault archetype.
    pub family: Family,
    /// Cluster size.
    pub n: usize,
    /// Overlay connectivity parameter.
    pub k: usize,
    /// LHG construction to build.
    pub constraint: Constraint,
    /// Fault rates applied to every link.
    pub default_rates: LinkFaults,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Scheduled crashes.
    pub crashes: Vec<CrashSpec>,
    /// Corrupted nodes (byzantine family only; empty elsewhere).
    pub traitors: Vec<TraitorSpec>,
    /// Scheduled broadcasts.
    pub broadcasts: Vec<BroadcastSpec>,
    /// Virtual-time horizon: every schedule entry fits well inside it, and
    /// a simulator run that has not finished by then is a timeout.
    pub horizon_us: u64,
}

impl FaultPlan {
    /// Generates the deterministic plan for `seed`. `quick` shrinks the
    /// cluster (CI smoke runs); the schedule shape is otherwise identical.
    #[must_use]
    pub fn random(seed: u64, quick: bool) -> FaultPlan {
        FaultPlan::random_with(seed, quick, &PlanOverrides::default())
    }

    /// Like [`FaultPlan::random`], with caller-chosen [`PlanOverrides`]
    /// layered over the seeded defaults (byzantine and mixed families).
    #[must_use]
    pub fn random_with(seed: u64, quick: bool, overrides: &PlanOverrides) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = Family::of_seed(seed);
        // Byzantine plans default to k = 3 (budget of one traitor; at
        // k = 2 the budget is zero — nothing to inject). Mixed plans
        // leave k unpinned up to 5 so the full f = 2 budget is covered.
        let k = match family {
            Family::Byzantine => overrides.k.unwrap_or(3),
            Family::Mixed => overrides
                .k
                .unwrap_or_else(|| if rng.random_bool(0.5) { 3 } else { 5 }),
            _ => rng.random_range(2usize..=3),
        };
        // Keep n − crashes ≥ 2k so healing never hits the membership floor.
        let (lo, hi) = match family {
            // Byz quorum arithmetic additionally needs room for traitors
            // above the crash: n ≥ 2k + 2 already gives n ≥ 4f + 4, which
            // keeps n − 1 − f ≥ ⌈(n+f+1)/2⌉ (echo quorums reachable with
            // one dead node and every traitor mute) for every size here.
            Family::Byzantine | Family::Mixed => (2 * k + 2, 2 * k + 2 + if quick { 2 } else { 4 }),
            _ => (2 * k + 2, if quick { 8 } else { 12 }),
        };
        let n = rng.random_range(lo..=hi);
        // Only the gap-free constructions: JD cannot build some sizes
        // (§4.4 gaps), so a heal or rejoin passing through a gap size would
        // be refused and the run would stall through no fault of the
        // runtime. K-TREE and K-DIAMOND cover every n ≥ 2k.
        let constraint = if rng.random_bool(0.5) {
            Constraint::KDiamond
        } else {
            Constraint::KTree
        };
        let horizon_us = 2_000_000;

        let mut plan = FaultPlan {
            seed,
            family,
            n,
            k,
            constraint,
            default_rates: LinkFaults::default(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            traitors: Vec::new(),
            broadcasts: Vec::new(),
            horizon_us,
        };

        match family {
            Family::Crash => {
                let crashes = rng.random_range(1..=k - 1);
                let mut victims = BTreeSet::new();
                while victims.len() < crashes {
                    victims.insert(rng.random_range(0..n as u32));
                }
                for &node in &victims {
                    let at_us = rng.random_range(150_000u64..=400_000);
                    let recover_at_us = if rng.random_bool(0.5) {
                        Some(at_us + rng.random_range(300_000u64..=600_000))
                    } else {
                        None
                    };
                    plan.crashes.push(CrashSpec {
                        node,
                        at_us,
                        recover_at_us,
                    });
                }
                // One broadcast before, one amid, one after the crash wave;
                // origins are always-up nodes so strict delivery applies.
                for at_us in [10_000u64, 500_000, 1_100_000] {
                    let origin = plan.pick_correct_origin(&mut rng);
                    plan.broadcasts.push(BroadcastSpec { origin, at_us });
                }
            }
            Family::Partition => {
                let m = rng.random_range(1..=k - 1);
                let mut minority = BTreeSet::new();
                while minority.len() < m {
                    minority.insert(rng.random_range(0..n as u32));
                }
                plan.partitions.push(PartitionSpec {
                    minority: minority.into_iter().collect(),
                    from_us: 200_000,
                    until_us: 500_000,
                    directed: rng.random_bool(0.25),
                });
                // Pre-partition and post-heal broadcasts must reach all n
                // nodes; nothing is originated while the cut is active.
                for at_us in [10_000u64, 700_000, 900_000] {
                    let origin = rng.random_range(0..n as u32);
                    plan.broadcasts.push(BroadcastSpec { origin, at_us });
                }
            }
            Family::Lossy => {
                // Heavy rates on purpose: with ack/retransmit underneath,
                // delivery is demanded even when two frames in five vanish
                // and half the rest arrive out of order.
                plan.default_rates = LinkFaults {
                    drop: rng.random_range(5u64..=40) as f64 / 100.0,
                    duplicate: rng.random_range(0u64..=30) as f64 / 100.0,
                    extra_delay_us: rng.random_range(0u64..=3_000),
                    reorder: rng.random_range(0u64..=50) as f64 / 100.0,
                    reorder_window_us: 5_000,
                };
                // These draws once picked a fully dead directed link. A
                // failure detector reads one as a dead peer that keeps
                // talking — perpetual suspicion churn, not the property
                // under test — so no engine applies it any more; the draws
                // stay, so every seed keeps its rates and its schedule.
                if rng.random_bool(0.3) {
                    let _ = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                }
                for _ in 0..5 {
                    plan.broadcasts.push(BroadcastSpec {
                        origin: rng.random_range(0..n as u32),
                        at_us: rng.random_range(10_000u64..=800_000),
                    });
                }
            }
            Family::Byzantine => {
                // Default: one traitor — the f = ⌊(k−1)/2⌋ budget at k = 3.
                // Overrides can raise both k and the planted count (still
                // capped at f). Links stay clean: a traitor's power is
                // lying, not losing frames, and the oracle must attribute
                // every anomaly to it.
                plan.plant_traitors(&mut rng, overrides.traitors.unwrap_or(1));
                // One broadcast early, one amid the attack window, one
                // late; origins are always correct nodes (a traitor origin
                // makes validity unfalsifiable).
                for at_us in [10_000u64, 500_000, 1_100_000] {
                    let origin = plan.pick_correct_origin(&mut rng);
                    plan.broadcasts.push(BroadcastSpec { origin, at_us });
                }
            }
            Family::Mixed => {
                // Lies ∘ full-lifecycle churn ∘ loss. Traitors up to the
                // full budget (seeded 1..=f unless overridden), one
                // correct node that crashes mid-run and *rejoins* 200 ms
                // later — with a broadcast originated while it is down, so
                // catch-up has something real to repair — then a second,
                // permanent crash of a different correct node once the
                // rejoin has settled. Links stay modestly lossy
                // throughout: heavy enough that the vote exchange's repair rounds and
                // the rejoin retry path must both do real work, light
                // enough that the gossip plane converges in the horizon.
                let f = lhg_byzantine::max_traitors(k);
                let want = overrides
                    .traitors
                    .unwrap_or_else(|| rng.random_range(1..=f.max(1)));
                plan.plant_traitors(&mut rng, want);
                let traitor_ids: BTreeSet<u32> = plan.traitors.iter().map(|t| t.node).collect();
                let victim = loop {
                    let v = rng.random_range(0..n as u32);
                    if !traitor_ids.contains(&v) {
                        break v; // traitors lie, they don't die
                    }
                };
                let crash_at = rng.random_range(300_000u64..=400_000);
                plan.crashes.push(CrashSpec {
                    node: victim,
                    at_us: crash_at,
                    recover_at_us: Some(crash_at + 200_000),
                });
                let second = loop {
                    let v = rng.random_range(0..n as u32);
                    if !traitor_ids.contains(&v) && v != victim {
                        break v; // a different correct node dies for good
                    }
                };
                plan.crashes.push(CrashSpec {
                    node: second,
                    at_us: crash_at + 800_000,
                    recover_at_us: None,
                });
                plan.default_rates = LinkFaults {
                    drop: rng.random_range(5u64..=15) as f64 / 100.0,
                    duplicate: rng.random_range(0u64..=15) as f64 / 100.0,
                    extra_delay_us: rng.random_range(0u64..=1_500),
                    reorder: rng.random_range(0u64..=30) as f64 / 100.0,
                    reorder_window_us: 2_000,
                };
                // Two broadcasts before the crash, one originated while
                // the victim is down (the rejoiner must still deliver it
                // via catch-up), two after its rejoin under the re-expanded
                // view, and one after the second, permanent crash — the
                // downward re-size again. Origins are correct survivors.
                for at_us in [
                    10_000,
                    200_000,
                    crash_at + 100_000,
                    crash_at + 400_000,
                    crash_at + 600_000,
                    crash_at + 900_000,
                ] {
                    let origin = plan.pick_correct_origin(&mut rng);
                    plan.broadcasts.push(BroadcastSpec { origin, at_us });
                }
            }
        }
        plan.broadcasts.sort_by_key(|b| b.at_us);
        plan
    }

    /// Plants `want` distinct traitors (clamped into `1..=⌊(k−1)/2⌋`),
    /// behaviors drawn seeded from the full repertoire. Victims are chosen
    /// before origins so [`FaultPlan::pick_correct_origin`] can exclude them.
    fn plant_traitors(&mut self, rng: &mut StdRng, want: usize) {
        let f = lhg_byzantine::max_traitors(self.k).max(1);
        let count = want.clamp(1, f);
        let behaviors = lhg_byzantine::TraitorBehavior::ALL;
        let mut victims = BTreeSet::new();
        while victims.len() < count {
            victims.insert(rng.random_range(0..self.n as u32));
        }
        for node in victims {
            self.traitors.push(TraitorSpec {
                node,
                behavior: behaviors[rng.random_range(0..behaviors.len())],
            });
        }
    }

    /// A random node that is never down during the run.
    fn pick_correct_origin(&self, rng: &mut StdRng) -> u32 {
        let correct = self.correct_nodes();
        correct[rng.random_range(0..correct.len())]
    }

    /// Nodes with no scheduled crash and no traitor role — the nodes the
    /// delivery oracle demands delivery from and to, on every family.
    #[must_use]
    pub fn correct_nodes(&self) -> Vec<u32> {
        let crashed: BTreeSet<u32> = self.crashes.iter().map(|c| c.node).collect();
        let traitors: BTreeSet<u32> = self.traitors.iter().map(|t| t.node).collect();
        (0..self.n as u32)
            .filter(|v| !crashed.contains(v) && !traitors.contains(v))
            .collect()
    }

    /// `true` when links neither drop nor corrupt traffic. Retained for
    /// plan introspection and reporting only: the delivery oracle is
    /// strict regardless — lossy runs must deliver too, through the
    /// reliable link layer and anti-entropy repair.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.default_rates.drop == 0.0
    }

    /// `true` for the families whose broadcasts run over Bracha.
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        matches!(self.family, Family::Byzantine | Family::Mixed)
    }

    /// The plan's link rates as the [`FaultInjector`] both engines put
    /// under their links. Crashes and cuts are not in it: they are steps.
    #[must_use]
    pub fn injector(&self) -> FaultInjector {
        let mut inj = FaultInjector::new(self.seed);
        inj.set_default_rates(self.default_rates);
        inj
    }

    /// Compiles the schedule to the step list every engine executes: the
    /// broadcasts, crashes, recoveries and cuts in time order, each churn
    /// followed by the wait for the protocol to absorb it. The flood
    /// families wait for full convergence after each burst of churn; the
    /// Bracha families wait per victim, on the correct nodes only — a
    /// `suppress_heartbeat` traitor is *designed* to get itself
    /// excommunicated, so replicas legitimately converge on less than the
    /// survivor set.
    #[must_use]
    pub fn compile(&self) -> Vec<Step> {
        let byz = self.is_byzantine();
        let mut schedule: Vec<(u64, Step)> = Vec::new();
        for (i, p) in self.partitions.iter().enumerate() {
            schedule.push((p.from_us, Step::Cut(i)));
            schedule.push((p.until_us, Step::Mend));
        }
        for c in &self.crashes {
            schedule.push((c.at_us, Step::Kill(c.node)));
            if let Some(at) = c.recover_at_us {
                schedule.push((at, Step::Revive(c.node)));
            }
        }
        for (i, b) in self.broadcasts.iter().enumerate() {
            let step = if byz {
                Step::ByzBroadcast(i)
            } else {
                Step::Broadcast(i)
            };
            schedule.push((b.at_us, step));
        }
        schedule.sort_by_key(|&(at, _)| at); // stable: ties keep the order above

        let mut steps = Vec::with_capacity(2 * schedule.len() + 2);
        // The wait a burst of flood-family churn still owes: kills in a row
        // share one, and so do revivals.
        let mut owed: Option<&'static str> = None;
        for (_, step) in schedule {
            let owes = match step {
                Step::Kill(_) if !byz => Some("heal after crashes"),
                Step::Revive(_) if !byz => Some("reconverge after rejoin"),
                _ => None,
            };
            if owed != owes {
                steps.extend(owed.take().map(Step::AwaitConverged));
            }
            owed = owes;
            steps.push(step);
            match step {
                Step::Kill(v) if byz => steps.push(Step::AwaitDetected(v)),
                Step::Revive(v) if byz => steps.push(Step::AwaitReadmitted(v)),
                Step::Cut(_) => steps.push(Step::Settle(PARTITION_HOLD_US)),
                Step::Mend => steps.push(Step::AwaitConverged("reconverge after partition heal")),
                _ => {}
            }
        }
        steps.extend(owed.map(Step::AwaitConverged));
        if byz {
            // Catch-up gets its retry budget before the audit: a rejoiner
            // converging late is fine, never converging is the violation.
            let rejoiners = self.crashes.iter().filter(|c| c.recover_at_us.is_some());
            steps.extend(rejoiners.map(|c| Step::AwaitCaughtUp(c.node)));
        }
        steps.push(Step::Settle(DRAIN_US));
        steps
    }
}

impl PartitionSpec {
    /// The cut as the fault injector applies it, open-ended: the minority
    /// against a wildcard "everyone else", until it is cleared.
    #[must_use]
    pub fn cut(&self) -> Partition {
        Partition {
            a: self.minority.iter().copied().collect(),
            b: BTreeSet::new(),
            from_us: 0,
            until_us: u64::MAX,
            directed: self.directed,
        }
    }
}

/// One step of a compiled plan ([`FaultPlan::compile`]). The acting steps
/// take effect at once; the waiting ones poll the cluster on the engine's
/// clock until their condition holds or their deadline passes, and a missed
/// deadline ends the run with a [`crate::Violation::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Flood the i-th scheduled broadcast and require its delivery at
    /// every member that is up.
    Broadcast(usize),
    /// Originate the i-th scheduled broadcast as a Bracha instance and let
    /// the correct nodes certify it (pacing only: a miss is charged once,
    /// by the final audit).
    ByzBroadcast(usize),
    /// Fail-stop a node, without any goodbye.
    Kill(u32),
    /// Wait until every correct node has applied the node's crash.
    AwaitDetected(u32),
    /// Reboot a killed node blank.
    Revive(u32),
    /// Wait until every correct node has re-admitted the node.
    AwaitReadmitted(u32),
    /// Activate the i-th scheduled partition.
    Cut(usize),
    /// Heal every cut.
    Mend,
    /// Wait until every member that is up holds the same replica — exactly
    /// the members that are up, nobody degraded, every wanted link open —
    /// then check that replica's structure. Carries the phase name a
    /// timeout is reported under.
    AwaitConverged(&'static str),
    /// Wait until the rejoined node has certified every scheduled instance.
    AwaitCaughtUp(u32),
    /// Let this much time pass (µs).
    Settle(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        for seed in 0..30u64 {
            let a = FaultPlan::random(seed, false);
            let b = FaultPlan::random(seed, false);
            assert_eq!(a.n, b.n);
            assert_eq!(a.k, b.k);
            assert_eq!(a.crashes, b.crashes);
            assert_eq!(a.partitions, b.partitions);
            assert_eq!(a.broadcasts, b.broadcasts);
            assert_eq!(a.default_rates, b.default_rates);
        }
    }

    #[test]
    fn families_cycle_and_respect_budgets() {
        for seed in 0..60u64 {
            let plan = FaultPlan::random(seed, false);
            assert_eq!(plan.family, Family::of_seed(seed));
            assert!(plan.n >= 2 * plan.k + 2);
            match plan.family {
                Family::Crash => {
                    assert!(!plan.crashes.is_empty());
                    assert!(plan.crashes.len() < plan.k, "crash budget");
                    assert!(plan.is_lossless());
                    let correct = plan.correct_nodes();
                    for b in &plan.broadcasts {
                        assert!(correct.contains(&b.origin), "origin must be correct");
                    }
                }
                Family::Partition => {
                    assert_eq!(plan.partitions.len(), 1);
                    assert!(plan.partitions[0].minority.len() < plan.k);
                    assert!(plan.is_lossless());
                    for b in &plan.broadcasts {
                        let p = &plan.partitions[0];
                        assert!(
                            b.at_us < p.from_us.saturating_sub(50_000)
                                || b.at_us >= p.until_us + 100_000,
                            "broadcasts avoid the active cut"
                        );
                    }
                }
                Family::Lossy => {
                    assert!(plan.default_rates.drop > 0.0);
                    assert!(plan.crashes.is_empty());
                    assert!(plan.partitions.is_empty());
                }
                Family::Byzantine => {
                    assert_eq!(plan.k, 3);
                    assert_eq!(plan.traitors.len(), 1, "exactly the f budget");
                    assert!(plan.is_lossless());
                    assert!(plan.crashes.is_empty());
                    assert!(plan.partitions.is_empty());
                    let correct = plan.correct_nodes();
                    assert!(!correct.contains(&plan.traitors[0].node));
                    for b in &plan.broadcasts {
                        assert!(correct.contains(&b.origin), "origins never traitors");
                    }
                }
                Family::Mixed => {
                    assert!(plan.k == 3 || plan.k == 5, "unpinned k covers both budgets");
                    let f = lhg_byzantine::max_traitors(plan.k);
                    assert!(
                        (1..=f).contains(&plan.traitors.len()),
                        "traitor count within the f budget"
                    );
                    assert_eq!(plan.crashes.len(), 2, "full lifecycle: two crashes");
                    let (first, second) = (&plan.crashes[0], &plan.crashes[1]);
                    let revive_at = first.recover_at_us.expect("first crash rejoins");
                    assert!(revive_at > first.at_us, "revival follows the crash");
                    assert!(second.recover_at_us.is_none(), "second crash is permanent");
                    assert!(
                        second.at_us > revive_at,
                        "the permanent crash lands after the rejoin"
                    );
                    assert_ne!(first.node, second.node, "distinct victims");
                    assert!(
                        plan.broadcasts
                            .iter()
                            .any(|b| b.at_us > first.at_us && b.at_us < revive_at),
                        "a broadcast runs while the rejoiner is down"
                    );
                    assert!(plan.default_rates.drop > 0.0, "links are lossy");
                    let traitors: Vec<u32> = plan.traitors.iter().map(|t| t.node).collect();
                    assert!(
                        !traitors.contains(&first.node) && !traitors.contains(&second.node),
                        "traitors lie, they don't die"
                    );
                    let correct = plan.correct_nodes();
                    for b in &plan.broadcasts {
                        assert!(correct.contains(&b.origin), "origins are correct survivors");
                    }
                }
            }
            if !matches!(plan.family, Family::Byzantine | Family::Mixed) {
                assert!(plan.traitors.is_empty());
            }
            for b in &plan.broadcasts {
                assert!(
                    b.at_us + 500_000 <= plan.horizon_us,
                    "headroom for the flood"
                );
                assert!((b.origin as usize) < plan.n);
            }
        }
    }

    #[test]
    fn compile_reflects_schedule() {
        for seed in 0..40u64 {
            let plan = FaultPlan::random(seed, false);
            let steps = plan.compile();
            let position = |s: Step| steps.iter().position(|&x| x == s);
            // Every crash is a kill, every recovery a later revive, and no
            // broadcast leaves between a churn step and its wait.
            for c in &plan.crashes {
                let kill = position(Step::Kill(c.node)).expect("kill");
                let revive = position(Step::Revive(c.node));
                assert_eq!(revive.is_some(), c.recover_at_us.is_some());
                assert!(revive.is_none_or(|r| r > kill));
            }
            for pair in steps.windows(2) {
                if matches!(pair[0], Step::Kill(_) | Step::Revive(_) | Step::Mend) {
                    assert!(
                        !matches!(pair[1], Step::Broadcast(_) | Step::ByzBroadcast(_)),
                        "seed {seed}: {pair:?}"
                    );
                }
            }
            // Broadcasts keep their schedule order, and the run drains last.
            let sent: Vec<usize> = (steps.iter())
                .filter_map(|s| match *s {
                    Step::Broadcast(i) | Step::ByzBroadcast(i) => Some(i),
                    _ => None,
                })
                .collect();
            assert_eq!(sent, (0..plan.broadcasts.len()).collect::<Vec<_>>());
            assert_eq!(steps.last(), Some(&Step::Settle(DRAIN_US)));
            // The injector carries the rates and nothing else.
            let inj = plan.injector();
            assert_eq!(inj.rates(0, 1), plan.default_rates);
            assert!(!inj.blocked(0, 1, 0) && inj.down_windows(0).is_empty());
        }
        // Seed 4, the mixed lifecycle, spelled out.
        let plan = FaultPlan::random(4, false);
        let (first, second) = (plan.crashes[0].node, plan.crashes[1].node);
        let churn: Vec<Step> = (plan.compile().into_iter())
            .filter(|s| !matches!(s, Step::ByzBroadcast(_)))
            .collect();
        let expected = [
            Step::Kill(first),
            Step::AwaitDetected(first),
            Step::Revive(first),
            Step::AwaitReadmitted(first),
            Step::Kill(second),
            Step::AwaitDetected(second),
            Step::AwaitCaughtUp(first),
            Step::Settle(DRAIN_US),
        ];
        assert_eq!(churn, expected);
    }

    #[test]
    fn partition_compiles_to_wildcard_cut() {
        // Seed 1 is the partition family.
        let plan = FaultPlan::random(1, false);
        let held = [
            Step::Cut(0),
            Step::Settle(PARTITION_HOLD_US),
            Step::Mend,
            Step::AwaitConverged("reconverge after partition heal"),
        ];
        assert!(plan.compile().windows(4).any(|w| w == held));
        let p = &plan.partitions[0];
        let inj = plan.injector();
        let inside = p.minority[0];
        let outside = (0..plan.n as u32)
            .find(|v| !p.minority.contains(v))
            .unwrap();
        assert!(!inj.blocked(inside, outside, 0));
        inj.add_partition_shared(p.cut());
        assert!(inj.blocked(inside, outside, 0));
        assert!(inj.blocked(inside, outside, u64::MAX - 1));
        assert_eq!(inj.blocked(outside, inside, 0), !p.directed);
        inj.clear_partitions();
        assert!(!inj.blocked(inside, outside, 0));
    }

    #[test]
    fn quick_plans_stay_small() {
        for seed in 0..30u64 {
            let plan = FaultPlan::random(seed, true);
            let cap = match plan.family {
                // Byz/mixed sizes track k so quorum headroom survives the
                // crash: 2k+4 tops out at 14 when the seed picks k = 5.
                Family::Byzantine | Family::Mixed => 2 * plan.k + 4,
                _ => 8,
            };
            assert!(plan.n <= cap, "seed {seed}: n={} cap={cap}", plan.n);
        }
    }

    #[test]
    fn overrides_pin_k_and_traitor_count() {
        let pinned = PlanOverrides {
            k: Some(5),
            traitors: Some(2),
        };
        for seed in [3u64, 4, 8, 9, 13, 14] {
            let plan = FaultPlan::random_with(seed, false, &pinned);
            assert_eq!(plan.k, 5, "seed {seed}");
            assert_eq!(plan.traitors.len(), 2, "full f budget at k=5");
        }
        // The clamp keeps over-asking sound: f = 2 at k = 5.
        let greedy = PlanOverrides {
            k: Some(5),
            traitors: Some(9),
        };
        assert_eq!(FaultPlan::random_with(4, false, &greedy).traitors.len(), 2);
        // Families that don't read overrides are untouched.
        let crash = FaultPlan::random_with(0, false, &pinned);
        assert_eq!(crash.k, FaultPlan::random(0, false).k);
        assert!(crash.traitors.is_empty());
    }
}
