//! The core's timing contract, with no driver in between: a `NodeCore`
//! ticked only at the deadlines it names itself.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_runtime::core::{Action, BootOpts, Event, NodeCore};
use lhg_runtime::{wire, MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

/// Member 0 of a 6-node overlay, booted at time 0, and its first neighbor.
fn boot(config: &RuntimeConfig) -> (NodeCore, MemberId) {
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let peer = overlay.neighbors_of(0).expect("member")[0];
    let recorder = FlightRecorder::with_capacity(0, 1 << 10, Instant::now());
    let metrics = Arc::new(MetricsRegistry::new());
    let (opts, recorder) = (BootOpts::default(), Arc::new(recorder));
    let core = NodeCore::new(0, overlay, roster, config, metrics, recorder, opts, 0);
    (core.expect("boots"), peer)
}

/// Feeds `events` at their times and ticks only at the core's own
/// deadlines; returns when the first ack frame of its own left for `peer`.
fn first_ack(core: &mut NodeCore, peer: MemberId, mut events: VecDeque<(u64, Event)>) -> u64 {
    let mut out = Vec::new();
    loop {
        out.clear();
        let due = core.next_deadline();
        let now = match events.front() {
            Some(&(at, _)) if at < due => {
                let (_, ev) = events.pop_front().expect("just seen");
                core.handle(ev, at, &mut out);
                at
            }
            _ => {
                assert!(due < 1_000_000, "the ack never left");
                core.tick(due, &mut out);
                due
            }
        };
        let ack = |a: &Action| matches!(a, Action::Send { to, msg } if *to == peer && msg.broadcast_id == wire::ack_id(0));
        if out.iter().any(ack) {
            return now;
        }
    }
}

/// A data frame from `peer` at `at`, after the link came up at 0.
fn link_then_data(peer: MemberId, at: u64) -> VecDeque<(u64, Event)> {
    let data = Message::new(
        fifo_id(peer as u32, 1),
        peer as u32,
        Bytes::from_static(b"x"),
    );
    let frame = Event::Frame {
        from: peer,
        msg: data.with_link_seq(1),
    };
    let link_up = Event::LinkUp { peer, dialed: true };
    VecDeque::from([(0, link_up), (at, frame)])
}

/// A clean owed ack leaves on the reliable plane's sweep grid — a sweep
/// every `ReliableConfig::sweep_us` (`rto/3`), made by the first event at
/// or after the grid point, or once the node has been quiet a grid period —
/// never at the exact instant it has waited `rto/4`, although the core
/// names every other duty exactly.
///
/// The grid is what gives the wait its point: an ack still owed after
/// `rto/4` should ride on reverse data if any comes, and on a loaded link
/// that data comes every ~10 ms. A 0.5 ms grid, close to sending each ack
/// at its exact deadline, sent it just before that data instead:
/// `tcp_flood_bulk` went from 2.65 to 4.19 frames per delivery, where the
/// 10 ms grid read 2.66.
#[test]
fn an_owed_ack_leaves_on_the_sweep_grid_not_at_its_exact_deadline() {
    let config = RuntimeConfig::default();
    let (grid, wait) = (config.reliable.rto_us / 3, config.reliable.rto_us / 4);

    // Nothing else happens: the grid point at `grid` (or the first after
    // the arrival) is swept once the node has been quiet a grid period.
    for arrival in [
        1,
        grid - wait,
        grid - wait + 1,
        grid / 2,
        grid - 1,
        grid + 1,
    ] {
        let (mut core, peer) = boot(&config);
        let left = first_ack(&mut core, peer, link_then_data(peer, arrival));
        assert_eq!(left, arrival + grid, "arrived {arrival}");
    }

    // A node that keeps hearing frames sweeps the grid point at the first
    // of them at or after it, behind that frame.
    let (mut core, peer) = boot(&config);
    let mut events = link_then_data(peer, 1);
    let beat = Message::new(wire::heartbeat_id(peer), peer as u32, Bytes::new());
    for at in [grid - grid / 10, grid + grid / 20] {
        let msg = beat.clone();
        events.push_back((at, Event::Frame { from: peer, msg }));
    }
    assert_eq!(first_ack(&mut core, peer, events), grid + grid / 20);
}
