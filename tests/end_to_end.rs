//! End-to-end integration tests across the whole workspace: construction →
//! validation → flooding → asynchronous broadcast, plus cross-module
//! consistency (the round simulator and the discrete-event simulator must
//! agree on what flooding achieves).

use bytes::Bytes;
use lhg::baselines::harary::harary_graph;
use lhg::core::checker::satisfies_constraint;
use lhg::core::kdiamond::build_kdiamond;
use lhg::core::ktree::build_ktree;
use lhg::core::properties::validate;
use lhg::flood::engine::Protocol;
use lhg::flood::experiment::run_with_plan;
use lhg::flood::failure::FailurePlan;
use lhg::graph::paths::diameter;
use lhg::graph::NodeId;
use lhg::net::broadcast::run_overlay_broadcast;
use lhg::net::sim::LinkModel;

#[test]
fn construct_validate_flood_broadcast_pipeline() {
    let (n, k) = (30, 3);
    let overlay = build_kdiamond(n, k).unwrap();

    // The artifact satisfies its constraint and the LHG definition.
    assert!(satisfies_constraint(&overlay));
    let report = validate(overlay.graph(), k);
    assert!(report.is_regular_lhg());

    // Round-synchronous flooding with k−1 crashes succeeds.
    let mut plan = FailurePlan::none();
    plan.crash_node(NodeId(3), 0);
    plan.crash_node(NodeId(11), 0);
    let out = run_with_plan(overlay.graph(), Protocol::Flood, &plan, 0);
    assert!(out.full_coverage());

    // Asynchronous broadcast with the same crashes succeeds too.
    let r = run_overlay_broadcast(
        overlay.graph(),
        NodeId(0),
        Bytes::from_static(b"payload"),
        LinkModel {
            base_latency_us: 500,
            jitter_us: 0,
        },
        &[(NodeId(3), 0), (NodeId(11), 0)],
        1,
    );
    assert!(r.all_correct_delivered());
}

#[test]
fn round_and_event_simulators_agree_on_latency_shape() {
    // Without jitter, event-simulator latency = flooding rounds × link delay.
    for (n, k) in [(14, 3), (26, 3), (24, 4)] {
        let overlay = build_ktree(n, k).unwrap();
        let rounds = run_with_plan(overlay.graph(), Protocol::Flood, &FailurePlan::none(), 0)
            .last_informed_round() as u64;
        let r = run_overlay_broadcast(
            overlay.graph(),
            NodeId(0),
            Bytes::new(),
            LinkModel {
                base_latency_us: 1_000,
                jitter_us: 0,
            },
            &[],
            0,
        );
        assert_eq!(r.latency(), rounds * 1_000, "(n={n},k={k})");
    }
}

#[test]
fn round_and_event_simulators_agree_on_message_count() {
    let overlay = build_kdiamond(21, 4).unwrap();
    let round_msgs =
        run_with_plan(overlay.graph(), Protocol::Flood, &FailurePlan::none(), 0).messages_sent;
    let event_msgs = run_overlay_broadcast(
        overlay.graph(),
        NodeId(0),
        Bytes::new(),
        LinkModel {
            base_latency_us: 100,
            jitter_us: 0,
        },
        &[],
        0,
    )
    .sim
    .messages_sent;
    assert_eq!(round_msgs, event_msgs);
}

#[test]
fn lhg_beats_harary_on_diameter_at_equal_cost() {
    // The headline claim at a paper-scale size (a Theorem 3 regular point,
    // so both graphs sit exactly at ⌈kn/2⌉ edges).
    let (n, k) = (128, 4);
    let lhg = build_ktree(n, k).unwrap();
    let h = harary_graph(n, k);
    assert_eq!(lhg.graph().edge_count(), h.edge_count(), "same edge budget");
    let d_lhg = diameter(lhg.graph()).unwrap();
    let d_h = diameter(&h).unwrap();
    assert!(
        d_lhg * 3 <= d_h,
        "LHG diameter {d_lhg} should be several times under Harary's {d_h}"
    );
}

#[test]
fn facade_reexports_are_usable() {
    // Each workspace crate is reachable through the facade.
    let g = lhg::baselines::structured::hypercube(3);
    assert_eq!(lhg::graph::connectivity::vertex_connectivity(&g), 3);
    assert!(lhg::core::existence::ex_ktree(8, 3));
    let msg = lhg::net::message::Message::new(1, 0, Bytes::new());
    assert_eq!(lhg::net::message::Message::decode(msg.encode()), Some(msg));
}
