//! Dispatch of peer input, with no driver in between: what a `NodeCore`
//! does with a frame whose id no correct node stamps, or whose crash
//! payload it cannot read.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_net::wirecost::RESERVED_TAG;
use lhg_runtime::core::{Action, Boot, BootOpts, Event, NodeCore};
use lhg_runtime::wire;
use lhg_runtime::{MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

/// Member 0 of JD(6, 2), its link to one neighbor up: the core, its
/// metrics and that neighbor.
fn linked_core() -> (NodeCore, Arc<MetricsRegistry>, MemberId) {
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let peer = overlay.neighbors_of(0).expect("member")[0];
    let recorder = Arc::new(FlightRecorder::with_capacity(0, 1 << 10, Instant::now()));
    let metrics = Arc::new(MetricsRegistry::new());
    let config = RuntimeConfig::default();
    let opts = BootOpts::default();
    let boot = Boot {
        id: 0,
        overlay,
        roster,
        opts,
    };
    let m = Arc::clone(&metrics);
    let mut core = NodeCore::new(boot, &config, m, recorder, 0).expect("boots");
    core.handle(Event::LinkUp { peer, dialed: true }, 0, &mut Vec::new());
    (core, metrics, peer)
}

/// An id carrying the reserved tag bit is malformed: the frame is counted
/// on `runtime.malformed_frames` and dropped — never delivered, flooded or
/// forwarded, whether the rest of the id looks like data or like a
/// member's control frame.
#[test]
fn a_frame_carrying_the_reserved_tag_bit_is_dropped_as_malformed() {
    let (mut core, metrics, peer) = linked_core();
    let mut out = Vec::new();
    let ids = [RESERVED_TAG | fifo_id(peer as u32, 1), RESERVED_TAG | peer];
    for (i, &id) in ids.iter().enumerate() {
        out.clear();
        let msg = Message::new(id, peer as u32, Bytes::from_static(b"x")).with_link_seq(1);
        core.handle(Event::Frame { from: peer, msg }, 1_000, &mut out);
        let malformed = metrics.counter("runtime.malformed_frames").get();
        assert_eq!(malformed, i as u64 + 1, "{id:#x} counted");
        let carries = |a: &Action| match a {
            Action::Deliver { msg, .. } | Action::Send { msg, .. } | Action::ByzDeliver { msg } => {
                msg.broadcast_id == id
            }
            _ => false,
        };
        assert!(!out.iter().any(carries), "{id:#x} went on: {out:?}");
    }
}

/// A crash wave, or a dead notice about this node, whose payload is not one
/// strict varint naming an incarnation is refused where the core decodes
/// it: counted on `runtime.malformed_frames`, never relayed, applied or
/// answered with a `JOIN`.
#[test]
fn a_malformed_incarnation_is_refused_counted_and_never_applied() {
    let (mut core, metrics, peer) = linked_core();
    // Missing, cut short, non-minimal, and a trailing byte.
    let refused: [&[u8]; 4] = [&[], &[0x80], &[0x80, 0x00], &[0x00, 0x00]];
    for (seq, raw) in (0..).zip(refused) {
        // A crash wave about member 5, and a dead notice about this node.
        for victim in [5, 0] {
            let id = wire::crash_id(victim, wire::wave_nonce(3, 2 * seq + victim as u16));
            let msg = Message::new(id, peer as u32, Bytes::copy_from_slice(raw));
            let mut out = Vec::new();
            core.handle(Event::Frame { from: peer, msg }, 1_000, &mut out);
            assert!(out.is_empty(), "{raw:02x?}: {out:?}");
        }
    }
    assert_eq!(metrics.counter("runtime.malformed_frames").get(), 8);
    let m = core.membership();
    assert!(m.crashes_applied().is_empty() && !m.is_rejoining());
    assert_eq!(metrics.counter("runtime.join_announces").get(), 0);
}
