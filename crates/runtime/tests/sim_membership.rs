//! Membership in virtual time: the real node state machine ([`NodeCore`])
//! on the discrete-event simulator. Every scenario is deterministic and is
//! run twice, the two recorder timelines compared byte for byte.

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_graph::connectivity::is_k_vertex_connected;
use lhg_net::sim::LinkModel;
use lhg_runtime::simnode::SimCluster;
use lhg_runtime::RuntimeConfig;

const N: usize = 16;
const K: usize = 3;
const MS: u64 = 1_000;

/// The chaos runner's TCP timings, in virtual time.
fn config() -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_period: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(250),
        dial_backoff: Duration::from_millis(5),
        dial_backoff_cap: Duration::from_millis(80),
        dial_max_attempts: 8,
        dial_timeout: Duration::from_millis(100),
        recorder_capacity: 1 << 16,
        ..RuntimeConfig::default()
    }
}

fn launch(n: usize, config: RuntimeConfig, seed: u64) -> SimCluster {
    SimCluster::launch(
        Constraint::KDiamond,
        n,
        K,
        config,
        LinkModel::default(),
        seed,
    )
    .unwrap()
}

/// Runs `scenario` twice and insists on byte-identical timelines.
fn run_twice(scenario: impl Fn() -> SimCluster) -> SimCluster {
    let (a, b) = (scenario(), scenario());
    assert!(!a.events_jsonl().is_empty());
    assert_eq!(
        a.events_jsonl(),
        b.events_jsonl(),
        "same seed, same timeline"
    );
    a
}

fn members_of(run: &SimCluster, m: MemberId) -> BTreeSet<MemberId> {
    run.core(m, |c| c.overlay().members().iter().copied().collect())
}

#[test]
fn staggered_crashes_heal_and_reflood() {
    let victims: [MemberId; K - 1] = [5, 11];
    let mut run = run_twice(|| {
        let mut c = launch(N, config(), 7);
        c.run_until(300 * MS);
        c.kill(victims[0]);
        c.run_until(450 * MS);
        c.kill(victims[1]);
        c.run_until(2_000 * MS);
        c.broadcast(0, Bytes::from_static(b"after the heal"));
        c.run_until(2_500 * MS);
        c
    });
    let survivors: Vec<MemberId> = (0..N as MemberId)
        .filter(|m| !victims.contains(m))
        .collect();
    let expected: BTreeSet<MemberId> = survivors.iter().copied().collect();
    let links = run.core(survivors[0], |c| c.overlay().links());
    for &m in &survivors {
        assert_eq!(members_of(&run, m), expected, "replica of {m}");
        run.core(m, |c| {
            assert_eq!(c.overlay().links(), links, "replica of {m} agrees");
            assert!(victims.iter().all(|v| c.crashes_applied().contains(v)));
            assert!(!c.is_degraded());
            let wanted: BTreeSet<MemberId> =
                c.overlay().neighbors_of(m).unwrap().into_iter().collect();
            assert!(wanted.is_subset(c.links()), "{m} holds every wanted link");
            assert!(is_k_vertex_connected(c.overlay().graph(), K));
        });
    }
    let report = run.finish();
    let delivered: BTreeSet<usize> = (report.deliveries.iter()).map(|d| d.node.index()).collect();
    assert_eq!(
        delivered.len(),
        survivors.len(),
        "post-heal broadcast reaches all survivors"
    );
}

fn counter(run: &SimCluster, name: &str) -> u64 {
    run.metrics.counter(name).get()
}

#[test]
fn minority_partition_degrades_then_sync_rejoins() {
    use lhg_net::fault::{FaultInjector, Partition};
    use lhg_trace::EventKind;

    // 14 and 15 share no neighbor on their side of the cut: each loses all
    // k of its links, blows the k-1 budget and degrades; the other 14 see
    // two crashes and heal around them.
    let minority: BTreeSet<u32> = [14u32, 15].into_iter().collect();
    let run = run_twice(|| {
        let mut inj = FaultInjector::new(0xC0FFEE);
        inj.add_partition(Partition {
            a: minority.clone(),
            b: BTreeSet::new(),
            from_us: 400 * MS,
            until_us: 1_500 * MS,
            directed: false,
        });
        let mut cfg = config();
        cfg.faults = Some(std::sync::Arc::new(inj));
        let mut c = launch(N, cfg, 3);
        c.run_until(5_000 * MS);
        c
    });
    let degraded: BTreeSet<u32> = (run.events().iter())
        .filter(|e| matches!(e.kind, EventKind::Degraded { .. }))
        .map(|e| e.node)
        .collect();
    assert_eq!(degraded, minority, "exactly the minority degrades");
    assert!(
        counter(&run, "runtime.sync_rejoins") >= 2,
        "both came back by SYNC"
    );
    let everyone: BTreeSet<MemberId> = (0..N as MemberId).collect();
    let links = run.core(0, |c| c.overlay().links());
    for m in 0..N as MemberId {
        assert_eq!(
            members_of(&run, m),
            everyone,
            "replica of {m} is whole again"
        );
        run.core(m, |c| {
            assert_eq!(c.overlay().links(), links);
            assert!(!c.is_degraded() && c.crashes_applied().is_empty());
        });
    }
}

fn one_traitor(traitor: MemberId, behavior: lhg_byzantine::TraitorBehavior) -> RuntimeConfig {
    let mut cfg = config();
    cfg.byzantine = Some(lhg_runtime::ByzantineSetup {
        f: 1,
        traitors: vec![(traitor, behavior)],
    });
    cfg
}

#[test]
fn frame_crash_traitor_and_forged_notice_move_nobody() {
    use lhg_byzantine::TraitorBehavior;
    use lhg_net::message::Message;
    use lhg_runtime::simnode::SimInput;
    use lhg_runtime::wire;

    // Traitor 15 floods forged CRASH(0) waves on every heartbeat; at 800 ms
    // it also "sends" its overlay neighbor 1 a dead notice.
    let run = run_twice(|| {
        let cfg = one_traitor(15, TraitorBehavior::FrameCrash);
        let mut c = launch(N, cfg, 11);
        c.run_until(800 * MS);
        let notice = Message::new(wire::crash_id(1, 0xdead), 15, Bytes::new());
        let (from, msg) = (15, notice);
        c.inject(1, SimInput::Wire { from, msg });
        c.run_until(1_500 * MS);
        c
    });
    assert!(counter(&run, "runtime.forged_crash_waves") > 100);
    assert!(counter(&run, "runtime.crash_reports_pending") > 100);
    assert_eq!(
        counter(&run, "runtime.crashes_applied"),
        0,
        "one voice is no quorum"
    );
    assert_eq!(counter(&run, "runtime.suspects"), 0);
    for m in 0..N as MemberId {
        assert_eq!(
            members_of(&run, m).len(),
            N,
            "{m} still holds the live victim"
        );
    }
    // The lone notice reached node 1's rejoin machinery and stopped there.
    assert_eq!(counter(&run, "runtime.join_announces"), 0);
    assert_eq!(counter(&run, "runtime.sync_requests"), 0);
    assert!(!run.core(1, |c| c.is_rejoining()));
}

/// The shape of chaos mixed seed 104 on TCP ('crash detection of 3 under
/// byzantine corroboration' timing out): n = 8, k = 3, one traitor, the
/// mixed family's lossy links, one correct node killed. Every correct
/// survivor must apply the crash within `WINDOWS` suspicion windows.
#[test]
fn crash_under_corroboration_and_loss_is_applied_everywhere() {
    use lhg_byzantine::TraitorBehavior;
    use lhg_net::fault::{FaultInjector, LinkFaults};

    const WINDOWS: u64 = 4;
    let behaviors = [
        TraitorBehavior::Equivocate,
        TraitorBehavior::Forge,
        TraitorBehavior::Silent,
        TraitorBehavior::Replay,
        TraitorBehavior::FrameCrash,
        TraitorBehavior::SuppressHeartbeat,
    ];
    let (n, timeout_us, crash_at) = (8u64, 250 * MS, 350 * MS);
    let mut late = Vec::new();
    for seed in 0..50u64 {
        let (traitor, victim) = (seed % n, (seed / 2 + 3) % n);
        let victim = if victim == traitor {
            (victim + 1) % n
        } else {
            victim
        };
        let scenario = || {
            let mut inj = FaultInjector::new(seed);
            inj.set_default_rates(LinkFaults {
                drop: 0.05 + (seed % 11) as f64 / 100.0,
                duplicate: (seed % 16) as f64 / 100.0,
                extra_delay_us: seed * 30,
                reorder: (seed % 31) as f64 / 100.0,
                reorder_window_us: 2_000,
            });
            let mut cfg = one_traitor(traitor, behaviors[seed as usize % behaviors.len()]);
            cfg.rng_seed = seed;
            cfg.faults = Some(std::sync::Arc::new(inj));
            let mut c = launch(n as usize, cfg, seed);
            c.run_until(crash_at);
            c.kill(victim);
            c.run_until(crash_at + WINDOWS * timeout_us);
            c
        };
        let run = if seed % 10 == 0 {
            run_twice(scenario)
        } else {
            scenario()
        };
        for m in (0..n).filter(|&m| m != traitor && m != victim) {
            if !run.core(m, |c| c.crashes_applied().contains(&victim)) {
                late.push((seed, m, victim));
            }
        }
    }
    assert!(late.is_empty(), "(seed, node, unapplied victim): {late:?}");
}

/// The simulator twin of `runtime_hello_validation.rs`: an open request
/// claiming the receiver's own id, an id outside the member space or one
/// the roster does not know is refused by the core's link-up path.
#[test]
fn bogus_hellos_are_refused_by_the_core() {
    use lhg_net::message::Message;
    use lhg_runtime::simnode::SimInput;
    use lhg_runtime::wire;

    let bogus = [
        wire::hello_id(0),
        wire::HELLO_TAG | (1 << 30) | 3,
        wire::hello_id(4242),
    ];
    let run = run_twice(|| {
        let mut c = launch(N, config(), 0);
        for (i, hello) in bogus.into_iter().enumerate() {
            c.run_until((300 + i as u64) * MS);
            let (from, msg) = (12, Message::new(hello, 9, Bytes::new()));
            c.inject(0, SimInput::Wire { from, msg });
        }
        c.run_until(600 * MS);
        c
    });
    assert_eq!(counter(&run, "runtime.hello_rejected"), 3);
    let everyone: BTreeSet<MemberId> = (1..N as MemberId).collect();
    run.core(0, |c| {
        assert!(c.links().is_subset(&everyone), "{:?}", c.links())
    });
    assert_eq!(counter(&run, "runtime.suspects"), 0, "and nobody minded");
}

/// Bracha on the real node core in virtual time: a forging traitor, a
/// correct member that dies and reboots blank, instances before, during
/// and after its outage. Deterministic — one seed, two runs, one timeline
/// byte for byte — and the oracle's properties hold at every correct node,
/// the rejoiner included.
#[test]
fn bracha_over_the_vote_exchange_is_deterministic_and_total() {
    use lhg_byzantine::TraitorBehavior;
    use lhg_runtime::core::Event;
    use lhg_runtime::simnode::SimInput;

    let (n, traitor, victim): (usize, MemberId, MemberId) = (10, 9, 4);
    let instances: [(u64, MemberId, u64); 4] = [
        (300, 0, 0x1000),   // everyone up
        (900, 2, 0x1001),   // the victim is dead
        (2_400, 5, 0x1002), // it is back
        (2_450, 4, 0x1003), // and originates
    ];
    let payload = |nonce: u64| Bytes::from(format!("instance {nonce:#x}"));
    let run = run_twice(|| {
        let cfg = one_traitor(traitor, TraitorBehavior::Forge);
        let mut c = launch(n, cfg, 23);
        let mut instances = instances.iter();
        let mut originate = |c: &mut SimCluster| {
            let &(at_ms, origin, nonce) = instances.next().unwrap();
            c.run_until(at_ms * MS);
            let payload = payload(nonce);
            c.inject(
                origin,
                SimInput::Event(Event::ByzBroadcast { nonce, payload }),
            );
        };
        originate(&mut c);
        c.run_until(600 * MS);
        c.kill(victim);
        originate(&mut c);
        c.run_until(1_500 * MS);
        c.revive(victim);
        originate(&mut c);
        originate(&mut c);
        c.run_until(4_000 * MS);
        c
    });
    for m in (0..n as MemberId).filter(|&m| m != traitor) {
        let state = run.nodes[m as usize].borrow();
        // The victim's reboot is blank: what it certified before the outage
        // it certifies again in its new life, from catch-up, same digest.
        let got: Vec<(u64, Option<u64>)> = (state.byz_delivered.iter())
            .map(|d| (d.broadcast_id, d.trace))
            .collect();
        for (_, _, nonce) in instances {
            let want = (nonce, Some(lhg_byzantine::digest(&payload(nonce))));
            assert_eq!(
                got.iter().filter(|d| **d == want).count(),
                1,
                "node {m} on instance {nonce:#x}: {got:?}"
            );
        }
        assert_eq!(got.len(), instances.len(), "node {m} delivered a forgery");
    }
    assert!(
        counter(&run, "runtime.catchup_ingests") > 0,
        "the rejoiner caught up"
    );
    assert_eq!(counter(&run, "byz.unsafe_views"), 0);
}

/// One member dies and comes back twice. Lives come from one cluster-wide
/// counter, as `Cluster::rejoin` allocates them: a second revival under the
/// first one's wave nonces would have its `JOIN` absorbed as a stale copy
/// by every survivor's dedup set.
#[test]
fn a_member_killed_and_revived_twice_is_readmitted_both_times() {
    let victim: MemberId = 6;
    let survivors = || (0..N as MemberId).filter(|&m| m != victim);
    let run = run_twice(|| {
        let mut c = launch(N, config(), 5);
        for round in 0..2 {
            c.run_until(c.now() + 300 * MS);
            assert!(c.kill(victim));
            let excommunicated = c.await_until(2_000 * MS, |c| {
                survivors().all(|m| c.core(m, |core| core.crashes_applied().contains(&victim)))
            });
            assert!(excommunicated, "round {round}: the crash is detected");
            assert!(c.revive(victim));
            let readmitted = c.await_until(2_000 * MS, |c| {
                (0..N as MemberId).all(|m| members_of(c, m).len() == N)
                    && survivors().all(|m| c.core(m, |core| core.crashes_applied().is_empty()))
            });
            assert!(readmitted, "round {round}: every survivor re-admits it");
        }
        c.run_until(c.now() + 500 * MS);
        c
    });
    assert!(counter(&run, "runtime.join_announces") >= 2);
    let links = run.core(0, |c| c.overlay().links());
    for m in 0..N as MemberId {
        run.core(m, |c| {
            assert_eq!(c.overlay().links(), links, "replica of {m} agrees");
            assert!(!c.is_degraded() && !c.is_rejoining());
        });
    }
}

/// A rejoin whose `JOIN` wave reaches nobody, while 200 bcast/s of data
/// flow. Every survivor already holds the wave's id — one copy of it,
/// injected and flooded before the kill, the way a stale copy of an old
/// wave would be — so each copy of the real wave dies in a dedup set, on
/// every link. A busy link carries data instead of heartbeats now, so the
/// repair must ride on data frames: every neighbor re-admits the revenant
/// within one heartbeat timeout of its revival.
#[test]
fn a_rejoin_whose_join_wave_is_lost_on_every_link_is_applied_under_data_load() {
    use lhg_net::message::Message;
    use lhg_runtime::simnode::SimInput;
    use lhg_runtime::wire;

    const VICTIM: MemberId = 6;
    let timeout_us = config().heartbeat_timeout.as_micros() as u64;
    let readmitted_by = |c: &SimCluster, members: &BTreeSet<MemberId>| {
        members.iter().all(|&m| {
            c.core(m, |core| {
                core.overlay().contains(VICTIM) && !core.crashes_applied().contains(&VICTIM)
            })
        })
    };
    let run = run_twice(|| {
        let mut c = launch(N, config(), 9);
        // Boots took lives 0..N: the revival's first wave nonce is known.
        let lost = wire::join_id(VICTIM, wire::wave_nonce(N as u32, 0));
        c.run_until(200 * MS);
        let from = c.core(0, |core| *core.links().iter().next().expect("linked"));
        let msg = Message::new(lost, VICTIM as u32, Bytes::new());
        c.inject(0, SimInput::Wire { from, msg });
        c.run_until(300 * MS);
        assert!(c.kill(VICTIM));
        let survivors: BTreeSet<MemberId> = (0..N as MemberId).filter(|&m| m != VICTIM).collect();
        let detected = c.await_until(2_000 * MS, |c| {
            (survivors.iter()).all(|&m| c.core(m, |core| core.crashes_applied().contains(&VICTIM)))
        });
        assert!(detected, "the crash is detected");
        let notices_before = counter(&c, "runtime.dead_notices");
        let revived_at = c.now();
        assert!(c.revive(VICTIM));
        let neighbors: BTreeSet<MemberId> = c.core(VICTIM, |core| {
            core.overlay()
                .neighbors_of(VICTIM)
                .unwrap()
                .into_iter()
                .collect()
        });
        let mut origin = 0;
        while !readmitted_by(&c, &neighbors) {
            assert!(
                c.now() < revived_at + timeout_us,
                "neighbors {neighbors:?} did not re-admit {VICTIM} within one timeout"
            );
            origin = (origin + 1) % N as MemberId;
            c.broadcast(origin, Bytes::from_static(b"load"));
            c.run_until(c.now() + 5 * MS);
        }
        assert!(
            counter(&c, "runtime.dead_notices") > notices_before,
            "the wave was lost: the revenant was still excommunicated when it spoke"
        );
        let everyone = c.await_until(timeout_us, |c| readmitted_by(c, &survivors));
        assert!(everyone, "the repaired wave reaches every survivor");
        c
    });
    run.core(VICTIM, |c| assert!(!c.is_rejoining()));
}
