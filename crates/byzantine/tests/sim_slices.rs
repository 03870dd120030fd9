//! `Simulation::run` is `start` + `run_until` + `finish`: a run cut into
//! slices handles the same events in the same order as one cut nowhere —
//! same deliveries, same message counts, same end time — for a lossy
//! reliable flood and for a Bracha run with a traitor in it.

use std::sync::Arc;

use bytes::Bytes;
use lhg_byzantine::{
    BrachaConfig, ByzantineFlooder, ByzantineTraitor, ScheduledByzBroadcast, TraitorBehavior,
};
use lhg_core::kdiamond::build_kdiamond;
use lhg_graph::Graph;
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::reliable::{ReliableConfig, ReliableFlooder, ScheduledBroadcast};
use lhg_net::sim::{LinkModel, Process, SimReport, Simulation, Time};

const HORIZON_US: Time = 2_000_000;

fn lossy(graph: &Graph, seed: u64) -> Simulation {
    let mut injector = FaultInjector::new(seed);
    injector.set_default_rates(LinkFaults {
        drop: 0.2,
        duplicate: 0.1,
        extra_delay_us: 500,
        reorder: 0.2,
        reorder_window_us: 3_000,
    });
    let mut sim = Simulation::new(graph, LinkModel::default(), seed);
    sim.with_faults(Arc::new(injector));
    sim
}

/// The whole run in one call, then the same run in uneven slices.
fn whole_and_sliced(
    graph: &Graph,
    processes: impl Fn() -> Vec<Box<dyn Process>>,
) -> (SimReport, SimReport) {
    let whole = lossy(graph, 9).run(processes(), HORIZON_US);
    let mut sim = lossy(graph, 9);
    sim.start(processes());
    for until in [0, 1, 999, 1_000, 40_000, 40_000, 777_777, HORIZON_US] {
        sim.run_until(until);
        assert_eq!(sim.now(), until.max(sim.now()));
    }
    (whole, sim.finish())
}

#[test]
fn a_sliced_reliable_flood_is_the_unsliced_one() {
    let graph = build_kdiamond(24, 3).unwrap().graph().clone();
    let schedule: Vec<ScheduledBroadcast> = (0..6)
        .map(|i| ScheduledBroadcast {
            id: 0x100 + i,
            origin: (i as u32 * 5) % 24,
            at_us: 10_000 + i * 60_000,
        })
        .collect();
    let (whole, sliced) = whole_and_sliced(&graph, || {
        (0..24)
            .map(|_| -> Box<dyn Process> {
                let config = ReliableConfig::default();
                Box::new(ReliableFlooder::new(config, schedule.clone(), HORIZON_US))
            })
            .collect()
    });
    assert_eq!(whole.deliveries.len(), 24 * 6, "the flood is repaired");
    assert!(
        whole.messages_dropped > 0,
        "and there was something to repair"
    );
    assert_eq!(whole, sliced);
}

#[test]
fn a_sliced_bracha_run_is_the_unsliced_one() {
    let graph = build_kdiamond(12, 3).unwrap().graph().clone();
    let cfg = BrachaConfig::for_overlay(12, 3).unwrap();
    let (whole, sliced) = whole_and_sliced(&graph, || {
        (0..12u32)
            .map(|v| -> Box<dyn Process> {
                if v == 7 {
                    let replay = TraitorBehavior::Replay;
                    return Box::new(ByzantineTraitor::new(v, cfg, replay, 9));
                }
                let schedule = (v < 3).then(|| ScheduledByzBroadcast {
                    nonce: 0x1000 + u64::from(v),
                    payload: Bytes::from(format!("instance {v}")),
                    at_us: 5_000 + Time::from(v) * 300_000,
                });
                let node =
                    ByzantineFlooder::new(v, cfg).with_schedule(schedule.into_iter().collect());
                Box::new(node.with_repair())
            })
            .collect()
    });
    assert_eq!(
        whole.deliveries.len(),
        11 * 3,
        "every correct node certifies"
    );
    assert_eq!(whole, sliced);
}
