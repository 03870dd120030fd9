//! The vote exchange on the discrete-event simulator, end to end.
//!
//! * A property test over K-DIAMOND(n, 3) overlays, seeded link delays and
//!   arrival orders and at most f = 1 traitor of any of the six behaviours:
//!   Agreement, Validity, Integrity and Totality hold, and the run reaches
//!   quiescence — correct nodes stop talking to each other and every
//!   correct pair of neighbours is settled on every delivered instance.
//! * The test flooded anti-entropy could never pass: under 20 % drop,
//!   10 % duplication and reordering, with the repair cadence on, every
//!   node delivers every instance **and then the traffic stops**.
//! * The payload pull: a node that loses every `SEND` copy certifies the
//!   digest from votes alone and fetches the payload from a neighbour.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use lhg_byzantine::sim::REGOSSIP_PERIOD_US;
use lhg_byzantine::{
    BrachaConfig, ByzantineFlooder, ByzantineTraitor, GossipFrame, ScheduledByzBroadcast,
    TraitorBehavior, EQUIVOCATE_NONCE_BASE,
};
use lhg_core::kdiamond::build_kdiamond;
use lhg_graph::{Graph, NodeId};
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::message::{ByzTag, Message};
use lhg_net::sim::{Context, LinkModel, Process, SimReport, Simulation, Time};
use proptest::prelude::*;

const K: usize = 3;
const HORIZON_US: Time = 4_000_000;

/// What the harness can see of one correct node after the run.
struct Probe {
    node: ByzantineFlooder,
    /// Last time a frame from a *correct* neighbour arrived.
    last_heard_us: Time,
    /// Frames that arrive before this time and decode as a `SEND` are lost.
    deaf_to_sends_until_us: Time,
}

/// A correct node the test keeps a handle on.
struct Probed {
    probe: Rc<RefCell<Probe>>,
    correct: Rc<BTreeSet<NodeId>>,
}

impl Process for Probed {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.probe.borrow_mut().node.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        let mut probe = self.probe.borrow_mut();
        let is_send = GossipFrame::from_message(&msg).is_some();
        if is_send && ctx.now() < probe.deaf_to_sends_until_us {
            return;
        }
        if self.correct.contains(&from) {
            probe.last_heard_us = ctx.now();
        }
        probe.node.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.probe.borrow_mut().node.on_timer(token, ctx);
    }
}

struct Scenario<'a> {
    graph: &'a Graph,
    /// `(origin, nonce, at_us)`.
    instances: &'a [(usize, u64, Time)],
    traitor: Option<(usize, TraitorBehavior)>,
    link: LinkModel,
    seed: u64,
    faults: Option<LinkFaults>,
    /// `(node, until_us)`: that node loses every `SEND` before `until_us`.
    deaf_to_sends: Option<(usize, Time)>,
}

fn payload(nonce: u64) -> Bytes {
    Bytes::from(format!("instance {nonce:#x}"))
}

/// Runs the scenario with the repair cadence on; returns the report and a
/// probe per correct node.
fn run(s: &Scenario<'_>) -> (SimReport, BTreeMap<NodeId, Rc<RefCell<Probe>>>) {
    let n = s.graph.node_count();
    let cfg = BrachaConfig::for_overlay(n, K).expect("n ≥ 2k");
    let traitor = s.traitor.map(|(v, b)| (NodeId(v), b));
    let correct: Rc<BTreeSet<NodeId>> = Rc::new(
        (0..n)
            .map(NodeId)
            .filter(|v| traitor.is_none_or(|(t, _)| t != *v))
            .collect(),
    );
    let mut probes = BTreeMap::new();
    let processes: Vec<Box<dyn Process>> = (0..n)
        .map(|v| -> Box<dyn Process> {
            if let Some((_, behavior)) = traitor.filter(|(t, _)| t.index() == v) {
                return Box::new(ByzantineTraitor::new(v as u32, cfg, behavior, s.seed));
            }
            let schedule = (s.instances.iter())
                .filter(|i| i.0 == v)
                .map(|&(_, nonce, at_us)| ScheduledByzBroadcast {
                    nonce,
                    payload: payload(nonce),
                    at_us,
                })
                .collect();
            let node = ByzantineFlooder::new(v as u32, cfg)
                .with_schedule(schedule)
                .with_repair();
            let deaf = s.deaf_to_sends.filter(|d| d.0 == v).map_or(0, |d| d.1);
            let probe = Rc::new(RefCell::new(Probe {
                node,
                last_heard_us: 0,
                deaf_to_sends_until_us: deaf,
            }));
            probes.insert(NodeId(v), Rc::clone(&probe));
            Box::new(Probed {
                probe,
                correct: Rc::clone(&correct),
            })
        })
        .collect();
    let mut sim = Simulation::new(s.graph, s.link, s.seed);
    if let Some(rates) = s.faults {
        let mut injector = FaultInjector::new(s.seed);
        injector.set_default_rates(rates);
        sim.with_faults(Arc::new(injector));
    }
    (sim.run(processes, HORIZON_US), probes)
}

/// Per instance nonce: who delivered it, under which digest.
fn delivered(report: &SimReport) -> BTreeMap<u64, BTreeMap<NodeId, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<NodeId, u64>> = BTreeMap::new();
    for d in &report.deliveries {
        let digest = d.trace.expect("byz deliveries carry their digest");
        let twice = out
            .entry(d.broadcast_id)
            .or_default()
            .insert(d.node, digest);
        assert!(
            twice.is_none(),
            "{} delivered {:#x} twice",
            d.node,
            d.broadcast_id
        );
    }
    out
}

/// Asserts the four Bracha properties over the correct nodes, then that the
/// run went quiet with every delivered instance settled on every correct
/// link.
fn check(s: &Scenario<'_>, report: &SimReport, probes: &BTreeMap<NodeId, Rc<RefCell<Probe>>>) {
    let by_nonce = delivered(report);
    // Validity: every scheduled instance, everywhere, as sent.
    for &(_, nonce, _) in s.instances {
        let want = lhg_byzantine::digest(&payload(nonce));
        for v in probes.keys() {
            let got = by_nonce.get(&nonce).and_then(|d| d.get(v));
            assert_eq!(got, Some(&want), "{v} on instance {nonce:#x}");
        }
    }
    for (&nonce, deliverers) in &by_nonce {
        // Integrity: beyond the schedule only an equivocator's own instance
        // may certify.
        let scheduled = s.instances.iter().any(|i| i.1 == nonce);
        let equivocated = s.traitor.is_some_and(|(t, b)| {
            b == TraitorBehavior::Equivocate && nonce == EQUIVOCATE_NONCE_BASE + t as u64
        });
        assert!(
            scheduled || equivocated,
            "forged instance {nonce:#x} delivered"
        );
        // Agreement and Totality.
        let digests: BTreeSet<u64> = deliverers.values().copied().collect();
        assert_eq!(digests.len(), 1, "instance {nonce:#x}: {deliverers:?}");
        assert_eq!(
            deliverers.len(),
            probes.len(),
            "instance {nonce:#x} is not total"
        );
    }
    // Quiescence: correct nodes have had nothing to tell each other for ten
    // repair periods, and not because the horizon cut them off.
    for (v, probe) in probes {
        let probe = probe.borrow();
        assert!(
            probe.last_heard_us + 10 * REGOSSIP_PERIOD_US <= HORIZON_US,
            "{v} still heard a correct neighbour at {} µs",
            probe.last_heard_us
        );
        let x = probe.node.exchange();
        for tag in x
            .engine()
            .tags()
            .filter(|&t| x.engine().delivered_digest(t).is_some())
        {
            for w in s.graph.neighbors(*v).filter(|w| probes.contains_key(w)) {
                assert!(x.is_settled(w, tag), "{v} → {w} unsettled on {tag:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bracha_properties_hold_and_the_exchange_goes_quiet(
        n in 8usize..=40,
        seed in any::<u64>(),
        cast in 0usize..8,
        jitter_us in 0u64..3_000,
    ) {
        // Not every n is a K-DIAMOND size; the ones that are, are the test.
        let Ok(overlay) = build_kdiamond(n, K) else { return };
        // Six behaviours and two chances in eight of an all-correct run.
        let traitor = (TraitorBehavior::ALL.get(cast)).map(|&b| ((seed % n as u64) as usize, b));
        let origins: Vec<usize> = (0..n).filter(|&v| traitor.is_none_or(|t| t.0 != v)).collect();
        let pick = |i: u64| origins[((seed >> (8 * i)) % origins.len() as u64) as usize];
        let instances = [(pick(1), 0x1000, 5_000), (pick(2), 0x1001, 7_000), (pick(3), 0x1002, 60_000)];
        let scenario = Scenario {
            graph: overlay.graph(),
            instances: &instances,
            traitor,
            link: LinkModel { base_latency_us: 1_000, jitter_us },
            seed,
            faults: None,
            deaf_to_sends: None,
        };
        let (report, probes) = run(&scenario);
        check(&scenario, &report, &probes);
    }
}

#[test]
fn lossy_links_are_repaired_and_then_the_traffic_stops() {
    let overlay = build_kdiamond(24, K).expect("(24, 3) is a K-DIAMOND size");
    let instances: Vec<(usize, u64, Time)> = (0..8u64)
        .map(|i| ((i as usize * 5) % 24, 0x2000 + i, 10_000 + i * 15_000))
        .collect();
    for seed in [1, 2, 3] {
        let scenario = Scenario {
            graph: overlay.graph(),
            instances: &instances,
            traitor: None,
            link: LinkModel::default(),
            seed,
            faults: Some(LinkFaults {
                drop: 0.20,
                duplicate: 0.10,
                reorder: 0.20,
                reorder_window_us: 3_000,
                ..LinkFaults::default()
            }),
            deaf_to_sends: None,
        };
        let (report, probes) = run(&scenario);
        assert!(report.messages_dropped > 0, "the faults must bite");
        check(&scenario, &report, &probes);
        // Stronger than "correct nodes went quiet": nothing at all happened
        // for the last ten periods — the repair timers disarmed themselves
        // and the event queue drained.
        assert!(
            report.end_time + 10 * REGOSSIP_PERIOD_US <= HORIZON_US,
            "seed {seed}: events until {} µs",
            report.end_time
        );
    }
}

#[test]
fn a_node_that_lost_every_send_copy_pulls_the_payload() {
    let overlay = build_kdiamond(16, K).expect("(16, 3) is a K-DIAMOND size");
    let instances = [(0, 0x3000, 5_000)];
    let victim = 9;
    let scenario = Scenario {
        graph: overlay.graph(),
        instances: &instances,
        traitor: None,
        link: LinkModel::default(),
        seed: 7,
        faults: None,
        // Deaf to the flood, not to the answer to its own request: that one
        // arrives after the first repair round.
        deaf_to_sends: Some((victim, REGOSSIP_PERIOD_US)),
    };
    let (report, probes) = run(&scenario);
    check(&scenario, &report, &probes);
    let at = |v: usize| {
        let d = report.deliveries.iter().find(|d| d.node == NodeId(v));
        d.expect("checked above").time
    };
    assert!(
        at(3) < REGOSSIP_PERIOD_US,
        "the others deliver from the flood"
    );
    assert!(
        at(victim) > REGOSSIP_PERIOD_US,
        "the victim only after its pull"
    );
    let tag = ByzTag {
        origin: 0,
        nonce: 0x3000,
    };
    let x = probes[&NodeId(victim)].borrow();
    assert!(x
        .node
        .exchange()
        .engine()
        .payload(tag, lhg_byzantine::digest(&payload(0x3000)))
        .is_some());
}
