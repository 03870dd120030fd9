//! Reliable broadcast over an asynchronous network: the discrete-event
//! substrate end to end.
//!
//! Run with: `cargo run --example overlay_broadcast`

use bytes::Bytes;
use lhg::core::kdiamond::build_kdiamond;
use lhg::graph::paths::diameter;
use lhg::graph::NodeId;
use lhg::net::broadcast::run_overlay_broadcast;
use lhg::net::sim::LinkModel;

fn main() -> Result<(), lhg::core::LhgError> {
    let (n, k) = (44, 3);
    let overlay = build_kdiamond(n, k)?;
    let link = LinkModel {
        base_latency_us: 1_000,
        jitter_us: 300,
    };

    println!("== Reliable broadcast over a K-DIAMOND ({n},{k}) overlay ==\n");

    // Fail-stop two processes mid-run (at 1.5 link delays in).
    let crashes = [(NodeId(5), 1_500u64), (NodeId(17), 1_500u64)];
    let report = run_overlay_broadcast(
        overlay.graph(),
        NodeId(0),
        Bytes::from_static(b"checkpoint #42"),
        link,
        &crashes,
        9,
    );

    println!("simulated (discrete-event) run, 2 mid-run crashes:");
    println!("  correct processes : {}", report.correct_nodes);
    println!("  delivered         : {}", report.correct_delivered);
    println!("  all delivered     : {}", report.all_correct_delivered());
    println!("  broadcast latency : {} µs", report.latency());
    println!("  messages on wire  : {}", report.sim.messages_sent);
    println!(
        "  latency sanity    : diameter {} × ~{} µs/link",
        diameter(overlay.graph()).unwrap(),
        link.base_latency_us
    );
    Ok(())
}
