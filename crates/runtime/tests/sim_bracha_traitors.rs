//! Bracha against every traitor behaviour, on the node that runs it.
//!
//! [`Node`] — the core behind a traitor's script — holds the only traitor
//! implementation; here it runs on the discrete-event simulator
//! ([`SimCluster`]) over K-DIAMOND(n, 3) — f = 1 — with one traitor of each
//! of the six behaviours, seeded link delays and three instances from
//! correct origins. At every correct node Agreement, Validity, Integrity
//! and Totality hold, each instance is delivered once, and the vote
//! exchange goes quiet: the cluster's byz-class frame count
//! ([`lhg_net::wirecost`]) does not move over the last ten repair periods.
//! Each script shows in the traitor's own sent frames: `Silent` sends no
//! byz frame, `SuppressHeartbeat` no heartbeat or summary, `Replay` passes
//! each byz frame on, `FrameCrash` forges one crash wave per heartbeat
//! period, and `Equivocate` and `Forge` lie once per life.
//!
//! One behaviour keeps a trickle going, by design of the attack: a
//! `SuppressHeartbeat` traitor is excommunicated for its silence and dials
//! back in, and every fresh link is offered each instance again, as a
//! revenant's must be (DESIGN §14.1) — one declaration per reconnect, sent
//! *to* the traitor. Between correct nodes not one byz frame moves, for any
//! behaviour.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_byzantine::{GossipFrame, GossipKind, TraitorBehavior, EQUIVOCATE_NONCE_BASE, VOTES_ID};
use lhg_core::overlay::{DynamicOverlay, MemberId};
use lhg_core::Constraint;
use lhg_net::message::ByzTag;
use lhg_net::sim::LinkModel;
use lhg_net::wirecost::MessageClass;
use lhg_runtime::core::{Action, Boot, BootOpts, Event};
use lhg_runtime::simnode::{SimCluster, SimInput};
use lhg_runtime::traitor::Node;
use lhg_runtime::{ByzantineSetup, MetricsRegistry, RuntimeConfig};
use lhg_trace::FlightRecorder;

const K: usize = 3;
const MS: u64 = 1_000;

/// The chaos runner's timings, in virtual time, with one traitor.
fn config(traitor: MemberId, behavior: TraitorBehavior, seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_max_attempts: 8,
        dial_timeout: Duration::from_millis(100),
        rng_seed: seed,
        byzantine: Some(ByzantineSetup {
            f: 1,
            traitors: vec![(traitor, behavior)],
        }),
        ..RuntimeConfig::default()
    }
}

fn payload(nonce: u64) -> Bytes {
    Bytes::from(format!("instance {nonce:#x}"))
}

/// Frames of `class` so far, per directed link `(from, to)`.
fn frames(cluster: &SimCluster, class: MessageClass) -> BTreeMap<(u32, u32), u64> {
    let links = cluster.metrics.wire().link_totals().into_iter();
    links
        .map(|(link, classes)| (link, classes[class.index()].frames))
        .collect()
}

/// Frames of `class` on the links `side` picks, summed.
fn frames_on(c: &SimCluster, class: MessageClass, side: impl Fn(&(u32, u32)) -> bool) -> u64 {
    frames(c, class)
        .into_iter()
        .filter(|(l, _)| side(l))
        .map(|(_, n)| n)
        .sum()
}

/// The script, read off the frames the traitor sent (and, for `Replay`,
/// received) and the waves it counted.
fn check_script(c: &SimCluster, cfg: &RuntimeConfig, traitor: u32, behavior: TraitorBehavior) {
    let sent = |class| frames_on(c, class, |&(from, _)| from == traitor);
    let what = format!("{behavior:?} traitor={traitor}");
    match behavior {
        TraitorBehavior::Silent => assert_eq!(sent(MessageClass::Byz), 0, "{what}"),
        TraitorBehavior::SuppressHeartbeat => {
            let beats = sent(MessageClass::Heartbeat) + sent(MessageClass::Summary);
            assert_eq!(beats, 0, "{what}");
        }
        TraitorBehavior::Replay => {
            // Each byz frame goes on to every other link (k = 3 of them at
            // least), besides the `SEND`s it relays down the eager tree.
            let got = frames_on(c, MessageClass::Byz, |&(_, to)| to == traitor);
            assert!(got > 0 && sent(MessageClass::Byz) >= 2 * got, "{what}");
        }
        TraitorBehavior::FrameCrash => {
            let waves = c.metrics.counter("runtime.forged_crash_waves").get();
            let periods = c.now() / cfg.heartbeat_period.as_micros() as u64;
            assert_eq!(waves, periods, "{what}: one wave per heartbeat period");
        }
        TraitorBehavior::Equivocate | TraitorBehavior::Forge => {}
    }
}

/// One run: `n` nodes, the traitor and the origins drawn from `seed`.
fn check(n: usize, behavior: TraitorBehavior, seed: u64) {
    let traitor = seed % n as u64;
    let cfg = config(traitor, behavior, seed);
    // What `NodeCore` calls its summary period: a repair round each.
    let repair_us = cfg.heartbeat_period.as_micros() as u64 * cfg.reliable.summary_ticks();
    let link = LinkModel {
        base_latency_us: 1_000,
        jitter_us: seed * 997 % 3_000,
    };
    let mut c = SimCluster::launch(Constraint::KDiamond, n, K, cfg, link, seed).unwrap();
    let ready = c.await_until(2_000 * MS, |c| {
        (0..n as MemberId).all(|m| {
            c.core(m, |core| {
                let wanted = core
                    .membership()
                    .overlay()
                    .neighbors_of(m)
                    .unwrap_or_default();
                wanted.iter().all(|w| core.links().contains(w))
            })
        })
    });
    assert!(ready, "{behavior:?} n={n}: the overlay links came up");

    let correct: Vec<MemberId> = (0..n as MemberId).filter(|&m| m != traitor).collect();
    let pick = |i: u64| correct[((seed >> (8 * i)) % correct.len() as u64) as usize];
    let instances = [
        (pick(1), 0x1000, 0),
        (pick(2), 0x1001, 2 * MS),
        (pick(3), 0x1002, 55 * MS),
    ];
    let start = c.now();
    for (origin, nonce, after_us) in instances {
        c.run_until(start + after_us);
        let payload = payload(nonce);
        c.inject(
            origin,
            SimInput::Event(Event::ByzBroadcast { nonce, payload }),
        );
    }
    c.run_until(start + 2_000 * MS);
    let byz_before = frames(&c, MessageClass::Byz);
    c.run_until(c.now() + 10 * repair_us);
    let byz_after = frames(&c, MessageClass::Byz);

    let what = format!("{behavior:?} n={n} seed={seed} traitor={traitor}");
    // Per instance nonce: which correct node certified which digest.
    let mut by_nonce: BTreeMap<u64, BTreeMap<MemberId, Option<u64>>> = BTreeMap::new();
    for &m in &correct {
        for d in &c.nodes[m as usize].borrow().byz_delivered {
            let twice = (by_nonce.entry(d.broadcast_id).or_default()).insert(m, d.trace);
            assert!(
                twice.is_none(),
                "{what}: {m} delivered {:#x} twice",
                d.broadcast_id
            );
        }
    }
    // Validity: every scheduled instance, everywhere, as sent.
    for (_, nonce, _) in instances {
        let want = Some(lhg_byzantine::digest(&payload(nonce)));
        for m in &correct {
            let got = by_nonce.get(&nonce).and_then(|d| d.get(m));
            assert_eq!(got, Some(&want), "{what}: {m} on instance {nonce:#x}");
        }
    }
    for (&nonce, deliverers) in &by_nonce {
        // Integrity: beyond the schedule only an equivocator's own instance
        // may certify.
        let scheduled = instances.iter().any(|i| i.1 == nonce);
        let equivocated =
            behavior == TraitorBehavior::Equivocate && nonce == EQUIVOCATE_NONCE_BASE + traitor;
        assert!(
            scheduled || equivocated,
            "{what}: forged {nonce:#x} delivered"
        );
        // Agreement and Totality.
        let digests: BTreeSet<Option<u64>> = deliverers.values().copied().collect();
        assert_eq!(
            digests.len(),
            1,
            "{what}: instance {nonce:#x}: {deliverers:?}"
        );
        assert_eq!(
            deliverers.len(),
            correct.len(),
            "{what}: {nonce:#x} is not total"
        );
    }
    // Quiescence: ten repair periods, heartbeats running all along, and no
    // byz frame on any link — but to a re-dialling SuppressHeartbeat
    // traitor (see the module docs).
    assert!(!byz_before.is_empty(), "{what}: the exchange ran");
    let moved: Vec<(u32, u32)> = (byz_after.into_iter())
        .filter(|(link, frames)| byz_before.get(link) != Some(frames))
        .map(|(link, _)| link)
        .collect();
    let to_traitor = |&(_, to): &(u32, u32)| u64::from(to) == traitor;
    let trickle = behavior == TraitorBehavior::SuppressHeartbeat;
    assert!(
        moved.iter().all(|l| trickle && to_traitor(l)),
        "{what}: byz frames still flowing on {moved:?}"
    );
    check_script(
        &c,
        &config(traitor, behavior, seed),
        traitor as u32,
        behavior,
    );
}

#[test]
fn bracha_properties_hold_against_every_traitor_and_the_exchange_goes_quiet() {
    for behavior in TraitorBehavior::ALL {
        for (n, seed) in [(8, 0x5eed_0001), (11, 0x0bad_cafe_0002), (16, 0x7777_0003)] {
            check(n, behavior, seed);
        }
    }
}

/// `Equivocate` and `Forge` lie on the first byz frame a life sees, and on
/// no later one: a traitor wrapped around a core with its overlay links up
/// is handed three `SEND`s, and the lies among its actions are counted —
/// one story or one frame of forged votes per link — in each of two lives.
#[test]
fn equivocate_and_forge_lie_once_per_life() {
    let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 8, K).expect("overlay");
    let roster: BTreeSet<MemberId> = overlay.members().iter().copied().collect();
    let traitor: MemberId = 7;
    let links = overlay.neighbors_of(traitor).expect("member");
    for behavior in [TraitorBehavior::Equivocate, TraitorBehavior::Forge] {
        let cfg = config(traitor, behavior, 1);
        for life in 0..2 {
            let recorder = Arc::new(FlightRecorder::with_capacity(7, 1 << 10, Instant::now()));
            let metrics = Arc::new(MetricsRegistry::new());
            let opts = BootOpts {
                life,
                ..BootOpts::default()
            };
            let boot = Boot {
                id: traitor,
                overlay: overlay.clone(),
                roster: roster.clone(),
                opts,
            };
            let mut node = Node::new(boot, &cfg, metrics, recorder, 0).expect("boots");
            let mut out = Vec::new();
            for &peer in &links {
                node.handle(
                    Event::LinkUp {
                        peer,
                        dialed: false,
                    },
                    0,
                    &mut out,
                );
            }
            let mut lies = Vec::new();
            for nonce in 1..=3 {
                let payload = payload(nonce);
                let send = GossipFrame {
                    kind: GossipKind::Send,
                    witness: 0,
                    tag: ByzTag { origin: 0, nonce },
                    digest: lhg_byzantine::digest(&payload),
                    payload,
                };
                let (from, msg) = (links[0], send.to_message());
                out.clear();
                node.handle(Event::Frame { from, msg }, nonce * MS, &mut out);
                lies.extend(out.iter().filter_map(|a| lie(a, traitor)));
            }
            assert_eq!(
                lies.len(),
                links.len(),
                "{behavior:?} life {life}: {lies:?}"
            );
            let stories: BTreeSet<u64> = lies.iter().copied().collect();
            let told = match behavior {
                TraitorBehavior::Equivocate => 2,
                _ => 1,
            };
            assert_eq!(stories.len(), told, "{behavior:?} life {life}: {lies:?}");
        }
    }
}

/// A traitor's lie among its actions, by the digest it tells: an
/// equivocation `SEND` under its own instance, or a `VOTES` frame (0),
/// which a node without a vote exchange sends only forged.
fn lie(action: &Action, traitor: MemberId) -> Option<u64> {
    let mine = EQUIVOCATE_NONCE_BASE + traitor;
    match action {
        Action::Send { msg, .. } if msg.broadcast_id == VOTES_ID => Some(0),
        Action::Send { msg, .. } => GossipFrame::from_message(msg)
            .filter(|f| f.tag.origin == traitor as u32 && f.tag.nonce == mine)
            .map(|f| f.digest),
        _ => None,
    }
}
