//! Dispatch of peer input, with no driver in between: what a `NodeCore`
//! does with a frame whose id no correct node stamps.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_net::wirecost::RESERVED_TAG;
use lhg_runtime::core::{Action, BootOpts, Event, NodeCore};
use lhg_runtime::{MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

/// An id carrying the reserved tag bit is malformed: the frame is counted
/// on `runtime.malformed_frames` and dropped — never delivered, flooded or
/// forwarded, whether the rest of the id looks like data or like a
/// member's control frame.
#[test]
fn a_frame_carrying_the_reserved_tag_bit_is_dropped_as_malformed() {
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let peer = overlay.neighbors_of(0).expect("member")[0];
    let recorder = Arc::new(FlightRecorder::with_capacity(0, 1 << 10, Instant::now()));
    let metrics = Arc::new(MetricsRegistry::new());
    let config = RuntimeConfig::default();
    let (opts, m) = (BootOpts::default(), Arc::clone(&metrics));
    let mut core = NodeCore::new(0, overlay, roster, &config, m, recorder, opts, 0).expect("boots");
    let mut out = Vec::new();
    core.handle(Event::LinkUp { peer, dialed: true }, 0, &mut out);

    let ids = [RESERVED_TAG | fifo_id(peer as u32, 1), RESERVED_TAG | peer];
    for (i, &id) in ids.iter().enumerate() {
        out.clear();
        let msg = Message::new(id, peer as u32, Bytes::from_static(b"x")).with_link_seq(1);
        core.handle(Event::Frame { from: peer, msg }, 1_000, &mut out);
        let malformed = metrics.counter("runtime.malformed_frames").get();
        assert_eq!(malformed, i as u64 + 1, "{id:#x} counted");
        let carries = |a: &Action| match a {
            Action::Deliver { msg, .. }
            | Action::Flood { msg, .. }
            | Action::Send { msg, .. }
            | Action::ByzDeliver { msg } => msg.broadcast_id == id,
            _ => false,
        };
        assert!(!out.iter().any(carries), "{id:#x} went on: {out:?}");
    }
}
