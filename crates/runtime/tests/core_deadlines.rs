//! The core's timing contract, with no driver in between: a `NodeCore`
//! ticked only at the deadlines it names itself.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_runtime::core::{Action, Boot, BootOpts, Event, NodeCore};
use lhg_runtime::{wire, MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

/// Member 0 of a 6-node overlay, booted at time 0, and its first neighbor.
fn boot(config: &RuntimeConfig) -> (NodeCore, MemberId) {
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let peer = overlay.neighbors_of(0).expect("member")[0];
    (boot_on(overlay, BootOpts::default(), config), peer)
}

/// Member 0 of `overlay`, booted at time 0 as `opts` says.
fn boot_on(overlay: DynamicOverlay, opts: BootOpts, config: &RuntimeConfig) -> NodeCore {
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let recorder = FlightRecorder::with_capacity(0, 1 << 10, Instant::now());
    let metrics = Arc::new(MetricsRegistry::new());
    let boot = Boot {
        id: 0,
        overlay,
        roster,
        opts,
    };
    let core = NodeCore::new(boot, config, metrics, Arc::new(recorder), 0);
    core.expect("boots")
}

/// Whether `out` dials `peer`.
fn dials(out: &[Action], peer: MemberId) -> bool {
    (out.iter()).any(|a| matches!(a, Action::Dial { peer: p } if *p == peer))
}

/// A heartbeat frame from `peer`.
fn heartbeat_from(peer: MemberId) -> Event {
    let msg = Message::new(wire::heartbeat_id(peer), peer as u32, Bytes::new());
    Event::Frame { from: peer, msg }
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

/// What an idle core did between `warm` and `end` periods after boot.
struct Idle {
    /// The heartbeat period, µs.
    beat: u64,
    /// Ticks in the window.
    ticks: u64,
    /// Per up link, the times heartbeats left on it in the window.
    beats: BTreeMap<MemberId, Vec<u64>>,
    /// The longest any up link went without a frame, the run's end
    /// included.
    worst: u64,
}

/// Member 0 of a 16-node K-DIAMOND under `config`, ticked only at its own
/// deadlines for `end` heartbeat periods. It dials its k = 3 neighbors,
/// whose links come up a third of a period apart; each neighbor then
/// beats on its own phase.
fn idle_core(config: &RuntimeConfig, warm: u64, end: u64) -> Idle {
    let beat = u64::try_from(config.heartbeat_period.as_micros()).expect("µs");
    let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 16, 3).expect("overlay");
    let mut core = boot_on(overlay, BootOpts::default(), config);
    let (warm, end) = (warm * beat, end * beat);
    // (time, event), popped in time order.
    let mut events: BTreeMap<(u64, MemberId), Event> = BTreeMap::new();
    let mut up: BTreeMap<MemberId, u64> = BTreeMap::new(); // last frame to each up link
    let mut beats: BTreeMap<MemberId, Vec<u64>> = BTreeMap::new();
    let (mut out, mut ticks, mut worst, mut dials) = (Vec::new(), 0, 0, 0);
    loop {
        out.clear();
        let due = core.next_deadline();
        let now = match events.first_key_value() {
            Some((&(at, _), _)) if at < due => {
                let ((at, peer), ev) = events.pop_first().expect("just seen");
                if matches!(ev, Event::LinkUp { .. }) {
                    up.insert(peer, at);
                } else {
                    // The neighbor beats again a period later.
                    events.insert((at + beat, peer), heartbeat_from(peer));
                }
                core.handle(ev, at, &mut out);
                at
            }
            _ => {
                ticks += u64::from((warm..end).contains(&due));
                core.tick(due, &mut out);
                due
            }
        };
        if now >= end {
            break;
        }
        for action in &out {
            match action {
                Action::Dial { peer } => {
                    let at = 1_000 + dials * beat / 3;
                    dials += 1;
                    events.insert(
                        (at, *peer),
                        Event::LinkUp {
                            peer: *peer,
                            dialed: true,
                        },
                    );
                    events.insert((at + 500, *peer), heartbeat_from(*peer));
                }
                Action::Send { to, msg } => {
                    let last = up.insert(*to, now).expect("sent on an up link");
                    worst = worst.max(now - last);
                    if msg.broadcast_id == wire::heartbeat_id(0) && now >= warm {
                        beats.entry(*to).or_default().push(now);
                    }
                }
                _ => {}
            }
        }
    }
    assert_eq!(up.len(), 3, "all k links came up");
    // Nor is any link deep into a silence when the run ends.
    for &last in up.values() {
        worst = worst.max(end - last);
    }
    Idle {
        beat,
        ticks,
        beats,
        worst,
    }
}

/// One clock per node: an idle core wakes once per heartbeat period, on
/// the heartbeat-period tick, however its links' phases lie, and each
/// link still carries a frame at least every two periods. A core that
/// named one heartbeat deadline per link woke once per link phase as
/// well: 4 times a period here.
#[test]
fn an_idle_core_ticks_once_a_period_and_beats_every_link_within_two() {
    let idle = idle_core(&RuntimeConfig::default(), 40, 80);
    assert_eq!(idle.ticks, 40, "ticks once per period");
    assert!(
        idle.worst <= 2 * idle.beat,
        "a link was silent for {} µs",
        idle.worst
    );
}

/// An idle link is beaten at the suspicion timeout's pace, not the tick's:
/// once every m = ⌊timeout / (24 · period)⌋ ticks when that is above one.
/// At 25 ms / 10 s, m = 16: over 160 ticks each idle link carries exactly
/// ten heartbeats, sixteen ticks apart, and none is silent for more than
/// sixteen periods plus the tick it came up between. A core that beats
/// every tick sends 160.
#[test]
fn a_long_timeout_beats_an_idle_link_every_m_ticks() {
    let config = RuntimeConfig {
        heartbeat_timeout: Duration::from_secs(10),
        ..RuntimeConfig::default()
    };
    let idle = idle_core(&config, 40, 200);
    assert_eq!(idle.ticks, 160, "ticks once per period");
    assert_eq!(idle.beats.len(), 3, "every idle link beats");
    for (peer, times) in &idle.beats {
        assert_eq!(
            times.len() as u64,
            idle.ticks / 16,
            "beats to {peer}: {times:?}"
        );
        for gap in times.windows(2).map(|w| w[1] - w[0]) {
            assert_eq!(gap, 16 * idle.beat, "beats to {peer}: {times:?}");
        }
    }
    assert!(
        idle.worst <= 17 * idle.beat,
        "a link was silent for {} µs",
        idle.worst
    );
}

/// A timeout under 48 periods gives m = 1: every tick beats every idle
/// link, as the default (25 / 300 ms), the chaos and membership tests'
/// config (10 / 250 ms) and the self-healing tests' (1 / 10 ms) have it.
#[test]
fn a_short_timeout_beats_an_idle_link_every_tick() {
    for (period, timeout) in [(25, 300), (10, 250), (1, 10)] {
        let config = RuntimeConfig {
            heartbeat_period: Duration::from_millis(period),
            heartbeat_timeout: Duration::from_millis(timeout),
            ..RuntimeConfig::default()
        };
        let idle = idle_core(&config, 40, 140);
        assert_eq!(
            idle.ticks, 100,
            "{period}/{timeout} ms: ticks once per period"
        );
        assert_eq!(
            idle.beats.len(),
            3,
            "{period}/{timeout} ms: every idle link beats"
        );
        for (peer, times) in &idle.beats {
            assert_eq!(
                times.len() as u64,
                idle.ticks,
                "{period}/{timeout} ms: beats to {peer}"
            );
        }
    }
}

/// A link's deadlines live in its state: a redial pending when the link
/// comes up (here: the peer's own call was accepted) is gone, so when that
/// link drops the node dials again at once; and a grace asked for a link
/// that is not up — a frame from an excommunicated member that this node
/// has no link to — names no deadline.
#[test]
fn a_link_that_comes_up_drops_its_redial_and_a_down_link_names_no_grace() {
    // A heartbeat period longer than the dial backoff and than the grace,
    // so that neither hides behind the heartbeat-period tick.
    let config = RuntimeConfig {
        heartbeat_period: Duration::from_secs(10),
        heartbeat_timeout: Duration::from_secs(1),
        ..RuntimeConfig::default()
    };
    let timeout = u64::try_from(config.heartbeat_timeout.as_micros()).expect("µs");
    let (mut core, peer) = boot(&config);
    let mut out = Vec::new();
    core.tick(0, &mut out);
    assert!(dials(&out, peer));
    core.handle(Event::DialFailed { peer }, 1, &mut out);
    let redial = core.next_deadline();
    assert!((2..timeout).contains(&redial), "redial due at {redial}");

    let accepted = Event::LinkUp {
        peer,
        dialed: false,
    };
    core.handle(accepted, 2, &mut out);
    core.tick(core.next_deadline(), &mut out);
    assert!(
        core.next_deadline() > redial,
        "the redial outlived the link coming up"
    );
    out.clear();
    core.handle(Event::LinkDown { peer }, 3, &mut out);
    core.tick(core.next_deadline(), &mut out);
    assert!(
        dials(&out, peer),
        "no dial at once after the link dropped: {out:?}"
    );

    // Member `gone` is excommunicated from boot, and this node has no link
    // to it (its grave probe is still dialing). A frame from it asks for a
    // grace, which a down link cannot hold: the earliest deadline stays
    // the neighbors' suspicion expiry, heard from just after.
    let overlay = DynamicOverlay::bootstrap(Constraint::Jd, 6, 2).expect("overlay");
    let neighbors = overlay.neighbors_of(0).expect("member");
    let gone = *overlay
        .members()
        .iter()
        .find(|m| !neighbors.contains(m) && **m != 0)
        .expect("a non-neighbor");
    let opts = BootOpts {
        initial_crashes: BTreeSet::from([gone]),
        ..BootOpts::default()
    };
    let mut core = boot_on(overlay, opts, &config);
    core.tick(0, &mut out);
    core.handle(heartbeat_from(gone), 20, &mut out);
    for &n in &neighbors {
        core.handle(heartbeat_from(n), 30, &mut out);
    }
    assert_eq!(
        core.next_deadline(),
        30 + timeout + 1,
        "a down link named a grace"
    );
}
