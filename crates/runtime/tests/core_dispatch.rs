//! Dispatch of peer input, with no driver in between: what a `NodeCore`
//! does with a frame whose id no correct node stamps, and with dead notices
//! from a single peer under corroboration.

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
use lhg_runtime::wire::{self, FrameKind};
use lhg_runtime::{ByzantineSetup, MetricsRegistry, RuntimeConfig};
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
    let opts = BootOpts::default();
    let boot = Boot {
        id: 0,
        overlay,
        roster,
        opts,
    };
    let m = Arc::clone(&metrics);
    let mut core = NodeCore::new(boot, &config, m, recorder, 0).expect("boots");
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
            Action::Deliver { msg, .. } | Action::Send { msg, .. } | Action::ByzDeliver { msg } => {
                msg.broadcast_id == id
            }
            _ => false,
        };
        assert!(!out.iter().any(carries), "{id:#x} went on: {out:?}");
    }
}

/// Under f+1 corroboration one notifier is one voice: it never starts the
/// full rejoin (probe everyone, flood the announcement). But a correct
/// notifier that lost every copy of this node's `JOIN` wave keeps sending
/// dead notices, and would keep this node excommunicated for good if it
/// were never answered. So a notifier that has kept at it for a whole
/// suspicion timeout gets a direct `JOIN`, at most once per timeout.
/// Member 0 of a 6-node overlay, f = 1, every neighbor linked and beating
/// every 100 ms; one of them sends a first-hand dead notice every 150 ms
/// for 5 s.
#[test]
fn a_lone_dead_notice_sender_gets_a_join_once_per_timeout() {
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let links = overlay.neighbors_of(0).expect("member");
    let recorder = Arc::new(FlightRecorder::with_capacity(0, 1 << 10, Instant::now()));
    let metrics = Arc::new(MetricsRegistry::new());
    let byzantine = Some(ByzantineSetup {
        f: 1,
        traitors: Vec::new(),
    });
    let config = RuntimeConfig {
        byzantine,
        ..RuntimeConfig::default()
    };
    let timeout = config.heartbeat_timeout.as_micros() as u64;
    let boot = Boot {
        id: 0,
        overlay,
        roster,
        opts: BootOpts::default(),
    };
    let m = Arc::clone(&metrics);
    let mut core = NodeCore::new(boot, &config, m, recorder, 0).expect("boots");
    let mut out = Vec::new();
    for &peer in &links {
        core.handle(Event::LinkUp { peer, dialed: true }, 0, &mut out);
    }
    let notifier = links[0];
    let (end, mut beat, mut notice, mut nonce, mut joins) = (5_000_000, 0, 0, 0, 0);
    loop {
        out.clear();
        let due = core.next_deadline();
        if due.min(beat).min(notice) > end {
            break;
        }
        if due <= beat.min(notice) {
            core.tick(due, &mut out);
        } else if beat <= notice {
            for &from in &links {
                let msg = Message::new(wire::heartbeat_id(from), from as u32, Bytes::new());
                core.handle(Event::Frame { from, msg }, beat, &mut out);
            }
            beat += 100_000;
        } else {
            let id = wire::crash_id(0, nonce);
            let msg = Message::new(id, notifier as u32, Bytes::new());
            core.handle(
                Event::Frame {
                    from: notifier,
                    msg,
                },
                notice,
                &mut out,
            );
            (notice, nonce) = (notice + 150_000, nonce + 1);
        }
        joins += (out.iter())
            .filter(|a| match a {
                Action::Send { to, msg } => {
                    *to == notifier && wire::classify(msg.broadcast_id) == FrameKind::Join(0)
                }
                _ => false,
            })
            .count() as u64;
    }
    let most = end / timeout + 1;
    assert!(joins >= 10, "the notifier was answered {joins} times");
    assert!(joins <= most, "{joins} JOINs, more than one per timeout");
    let announces = metrics.counter("runtime.join_announces").get();
    assert_eq!(announces, 0, "one voice started the full rejoin");
}
