//! Bracha against every traitor behaviour, on the node that mounts it.
//!
//! [`NodeCore`](lhg_runtime::core::NodeCore) holds the only traitor
//! implementation; here it runs on the discrete-event simulator
//! ([`SimCluster`]) over K-DIAMOND(n, 3) — f = 1 — with one traitor of each
//! of the six behaviours, seeded link delays and three instances from
//! correct origins. At every correct node Agreement, Validity, Integrity
//! and Totality hold, each instance is delivered once, and the vote
//! exchange goes quiet: the cluster's byz-class frame count
//! ([`lhg_net::wirecost`]) does not move over the last ten repair periods.
//!
//! One behaviour keeps a trickle going, by design of the attack: a
//! `SuppressHeartbeat` traitor is excommunicated for its silence and dials
//! back in, and every fresh link is offered each instance again, as a
//! revenant's must be (DESIGN §14.1) — one declaration per reconnect, sent
//! *to* the traitor. Between correct nodes not one byz frame moves, for any
//! behaviour.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bytes::Bytes;
use lhg_byzantine::{TraitorBehavior, EQUIVOCATE_NONCE_BASE};
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_net::sim::LinkModel;
use lhg_net::wirecost::MessageClass;
use lhg_runtime::core::Event;
use lhg_runtime::simnode::{SimCluster, SimInput};
use lhg_runtime::{ByzantineSetup, RuntimeConfig};

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

/// Byz-class frames so far, per directed link `(from, to)`.
fn byz_frames(cluster: &SimCluster) -> BTreeMap<(u32, u32), u64> {
    let links = cluster.metrics.wire().link_totals().into_iter();
    links
        .map(|(link, classes)| (link, classes[MessageClass::Byz.index()].frames))
        .collect()
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
                let wanted = core.overlay().neighbors_of(m).unwrap_or_default();
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
    let byz_before = byz_frames(&c);
    c.run_until(c.now() + 10 * repair_us);
    let byz_after = byz_frames(&c);

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
}

#[test]
fn bracha_properties_hold_against_every_traitor_and_the_exchange_goes_quiet() {
    for behavior in TraitorBehavior::ALL {
        for (n, seed) in [(8, 0x5eed_0001), (11, 0x0bad_cafe_0002), (16, 0x7777_0003)] {
            check(n, behavior, seed);
        }
    }
}
