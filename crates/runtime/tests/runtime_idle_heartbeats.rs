//! Heartbeats go only where nothing else does, over real sockets: a
//! 16-node K-DIAMOND cluster sends one heartbeat per directed link per
//! period while idle, and almost none while 500 broadcasts a second keep
//! every link busy — any frame is proof of life, and the acks that used to
//! be frames of their own ride on the data. Nodes wake for due duties
//! only, so under load they tick far less often than they deliver, and a
//! body crosses each node once, so data frames stay below deliveries.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_runtime::{Cluster, RuntimeConfig};

const N: usize = 16;
const WINDOW: Duration = Duration::from_secs(1);

/// `(heartbeat, ack, data)` frames written so far, cluster-wide.
fn frames(c: &Cluster) -> (u64, u64, u64) {
    let totals = c.metrics().wire().class_totals();
    let of = |class: &str| {
        (totals.iter())
            .find(|t| t.class.name() == class)
            .map_or(0, |t| t.frames)
    };
    (of("heartbeat"), of("ack"), of("data"))
}

#[test]
fn heartbeats_fill_idle_links_only() {
    let config = RuntimeConfig {
        // Nobody may be suspected while the generator thread competes with
        // 16 nodes for two cores.
        heartbeat_timeout: Duration::from_secs(5),
        ..RuntimeConfig::default()
    };
    let period = config.heartbeat_period;
    let mut c = Cluster::launch(Constraint::KDiamond, N, 3, config).expect("cluster boots");
    let directed = 2 * c.survivor_graph().expect("members").edge_count() as u64;
    std::thread::sleep(4 * period);

    let (beats, ..) = frames(&c);
    std::thread::sleep(WINDOW);
    let idle = frames(&c).0 - beats;
    let periods = WINDOW.as_secs_f64() / period.as_secs_f64();
    let per_link_period = idle as f64 / directed as f64 / periods;
    // A link beats the instant its silence reaches a period — a deadline
    // the node names itself — so the interval is a period plus the
    // driver's wake-up latency: ≈ 1.0 per period, below 0.83 only if
    // wake-ups run a fifth of a period late.
    assert!(
        (0.83..=1.05).contains(&per_link_period),
        "idle: {idle} heartbeats on {directed} links in {periods} periods"
    );

    let counter = |c: &Cluster, name: &str| c.metrics().counter(name).get();
    let (ticks, deliveries) = (
        counter(&c, "runtime.core_ticks"),
        counter(&c, "runtime.deliveries"),
    );
    let (beats, acks, data) = frames(&c);
    let start = Instant::now();
    let mut sent = 0u32;
    while start.elapsed() < WINDOW {
        // 500 broadcasts a second, open loop from rotating origins.
        let due = (start.elapsed().as_secs_f64() * 500.0) as u32;
        while sent < due {
            let origin = MemberId::from(sent % N as u32);
            c.broadcast(origin, Bytes::from_static(b"busy"))
                .expect("alive");
            sent += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (beats2, acks2, data2) = frames(&c);
    let busy = beats2 - beats;
    let ticks = counter(&c, "runtime.core_ticks") - ticks;
    let deliveries = counter(&c, "runtime.deliveries") - deliveries;
    eprintln!(
        "idle: {per_link_period:.2} heartbeats per link per period; \
         busy: {busy} heartbeats, {} ack and {} data frames, \
         {ticks} ticks for {deliveries} deliveries",
        acks2 - acks,
        data2 - data
    );
    // A node ticks when a duty is due, not per frame received (≥ 2 per
    // delivery when every frame was followed by a tick).
    assert!(
        ticks > 0 && ticks as f64 <= 0.25 * deliveries as f64,
        "{ticks} ticks for {deliveries} deliveries"
    );
    assert!(
        busy * 10 < idle,
        "busy: {busy} heartbeats against {idle} idle ones in the same time"
    );
    assert!(
        (acks2 - acks) * 10 < data2 - data,
        "acks ride on data: {} ack frames for {} data frames",
        acks2 - acks,
        data2 - data
    );
    // A body crosses each node once, down the origin's tree: n − 1 data
    // frames for n deliveries (≈ 2.06 per delivery when every link flooded).
    assert!(
        data2 - data <= deliveries,
        "one body per node: {} data frames for {deliveries} deliveries",
        data2 - data
    );
    assert_eq!(c.metrics().counter("runtime.suspects").get(), 0);
    assert!(c.metrics().counter("runtime.acks_piggybacked").get() > 0);
    c.shutdown();
}
