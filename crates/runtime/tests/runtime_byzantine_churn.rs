//! Churn-tolerant Byzantine broadcast acceptance: the failure detector
//! must survive nodes that *lie about other nodes dying*, and the Bracha
//! quorums must re-size when nodes *actually* die.
//!
//! The first test is the regression guarantee for byz-aware suspicion: a
//! lone traitor flooding forged CRASH waves — fresh nonces every heartbeat,
//! so dedup never absorbs them — cannot excommunicate a live, heartbeating
//! node, because crash reports only apply once f+1 *distinct* reporters
//! corroborate them and a directly-live peer vetoes the wave. The second
//! proves byzantine broadcast keeps certifying across real churn: after a
//! genuine kill, survivors bump their membership views and post-crash
//! instances certify under the re-sized quorums.

use std::time::Duration;

use bytes::Bytes;
use lhg_byzantine::TraitorBehavior;
use lhg_core::overlay::MemberId;
use lhg_core::Constraint;
use lhg_runtime::{ByzantineSetup, Cluster, RuntimeConfig};

const N: usize = 8;
const K: usize = 3; // f = ⌊(k−1)/2⌋ = 1 → corroboration quorum f+1 = 2

fn byz_config(traitors: Vec<(u64, TraitorBehavior)>) -> RuntimeConfig {
    RuntimeConfig {
        byzantine: Some(ByzantineSetup { f: 1, traitors }),
        ..RuntimeConfig::default()
    }
}

#[test]
fn forged_crash_wave_cannot_excommunicate_live_node() {
    let traitor: MemberId = (N - 1) as MemberId;
    let mut c = Cluster::launch(
        Constraint::KDiamond,
        N,
        K,
        byz_config(vec![(traitor as u64, TraitorBehavior::FrameCrash)]),
    )
    .expect("cluster boots and fully connects");

    // The frame-crash traitor targets its lowest-id fellow member.
    let framed: MemberId = 0;

    // Let many heartbeat periods pass: the traitor floods a forged CRASH
    // wave (fresh nonce each time) on every one of them. Without
    // corroborated suspicion, the very first wave would excommunicate the
    // framed node within a detection delay.
    std::thread::sleep(Duration::from_millis(1_500));
    assert!(
        c.metrics().counter("runtime.forged_crash_waves").get() >= 10,
        "the attack must actually mount for this test to prove anything"
    );

    for m in c.members().into_iter().filter(|&m| m != traitor) {
        let s = c.node(m).expect("node launched");
        assert!(
            !s.crashes_applied().contains(&framed),
            "node {m} excommunicated live member {framed} on one liar's word"
        );
        assert!(
            s.overlay_snapshot().contains(framed),
            "node {m} dropped live member {framed} from its overlay"
        );
        assert!(!s.is_degraded(), "node {m} degraded under a forged wave");
    }
    // A single voice never reaches the f+1 reporter quorum.
    assert!(
        c.metrics().counter("runtime.crash_reports_pending").get() >= 1,
        "forged reports must be held pending, not applied"
    );

    // The framed node is a full protocol participant still: a byzantine
    // broadcast certifies at every correct node, the framed one included.
    c.byzantine_broadcast(1, 0x77, Bytes::from_static(b"still standing"))
        .expect("correct origin");
    let correct: Vec<MemberId> = c.members().into_iter().filter(|&m| m != traitor).collect();
    assert!(
        c.await_byz_delivery(0x77, &correct, Duration::from_secs(10)),
        "byz broadcast must certify despite the frame-crash flood"
    );
    c.shutdown();
}

#[test]
fn churned_cluster_still_delivers_byz_broadcasts() {
    let mut c = Cluster::launch(Constraint::KDiamond, N, K, byz_config(Vec::new()))
        .expect("cluster boots and fully connects");
    let victim: MemberId = (N - 1) as MemberId;

    // Boot-view instance: certifies at all n nodes.
    c.byzantine_broadcast(0, 0x1, Bytes::from_static(b"before the crash"))
        .expect("send");
    let all = c.members();
    assert!(
        c.await_byz_delivery(0x1, &all, Duration::from_secs(10)),
        "boot-view instance certifies everywhere"
    );

    // A genuine fail-stop crash: survivors detect it (real heartbeat
    // silence corroborates across f+1 reporters), excommunicate, heal,
    // and bump their Bracha membership views.
    c.kill(victim).expect("victim alive");
    assert!(
        c.await_heal(Duration::from_secs(15)),
        "survivors heal after the kill"
    );

    // Post-churn instance: quorums are sized from the live view (n−1) and
    // certification must still be total among survivors.
    c.byzantine_broadcast(0, 0x2, Bytes::from_static(b"after the crash"))
        .expect("send");
    let survivors = c.survivors();
    assert!(
        c.await_byz_delivery(0x2, &survivors, Duration::from_secs(10)),
        "post-churn instance certifies at every survivor"
    );
    let digest = lhg_byzantine::digest(b"after the crash");
    for &m in &survivors {
        let got = c.byz_delivered(m);
        assert_eq!(got.len(), 2, "exactly the two honest instances at {m}");
        assert_eq!(got[1].trace, Some(digest), "certified digest at {m}");
    }
    c.shutdown();
}

/// The full-lifecycle regression: a node is killed, an instance certifies
/// *while it is dead*, and after a blank-reboot rejoin the revenant must
/// still deliver that instance — and the one from before its death —
/// agreeing with the stable majority digest for digest. Nothing but the
/// vote exchange carries them: each fresh link forgets its table, so the
/// neighbors' repair rounds declare every instance to the rejoiner. A
/// `Forge` traitor's forged votes are one voice, f short of every
/// threshold, so the revenant certifies nothing the majority didn't.
#[test]
fn rejoined_node_catches_up_through_the_vote_exchange_despite_a_forger() {
    let traitor: MemberId = (N - 1) as MemberId;
    let mut c = Cluster::launch(
        Constraint::KDiamond,
        N,
        K,
        byz_config(vec![(traitor as u64, TraitorBehavior::Forge)]),
    )
    .expect("cluster boots and fully connects");
    let victim: MemberId = 3;
    let correct: Vec<MemberId> = c
        .members()
        .into_iter()
        .filter(|&m| m != traitor && m != victim)
        .collect();

    // Pre-crash instance: certifies everywhere while the victim is up.
    c.byzantine_broadcast(0, 0x10, Bytes::from_static(b"before the kill"))
        .expect("send");
    let all_but_traitor: Vec<MemberId> =
        c.members().into_iter().filter(|&m| m != traitor).collect();
    assert!(
        c.await_byz_delivery(0x10, &all_but_traitor, Duration::from_secs(10)),
        "pre-crash instance certifies at every correct node"
    );

    c.kill(victim).expect("victim alive");
    assert!(c.await_heal(Duration::from_secs(15)), "survivors heal");

    // Originated while the victim is dead — an instance it can only ever
    // learn from its neighbors' repair rounds.
    c.byzantine_broadcast(0, 0x11, Bytes::from_static(b"sent while dead"))
        .expect("send");
    assert!(
        c.await_byz_delivery(0x11, &correct, Duration::from_secs(10)),
        "dead-window instance certifies at the stable majority"
    );

    // Blank-reboot rejoin: a fresh engine with an empty log.
    c.rejoin(victim).expect("victim restarts");
    assert!(
        c.await_heal(Duration::from_secs(15)),
        "views re-expand to n"
    );
    assert!(
        c.await_byz_delivery(0x10, &[victim], Duration::from_secs(10)),
        "rejoiner catches up on the pre-crash instance"
    );
    assert!(
        c.await_byz_delivery(0x11, &[victim], Duration::from_secs(10)),
        "rejoiner delivers the instance originated while it was dead"
    );

    // Agreement with the stable majority, digest for digest — and nothing
    // the majority never certified, despite the forger.
    let got = c.byz_delivered(victim);
    let nonces: std::collections::BTreeSet<u64> = got.iter().map(|d| d.broadcast_id).collect();
    assert_eq!(
        nonces,
        [0x10u64, 0x11].into_iter().collect(),
        "the revenant certified exactly the majority's instances — a \
         forgery must never become a delivery"
    );
    let expect_dead = lhg_byzantine::digest(b"sent while dead");
    for d in &got {
        if d.broadcast_id == 0x11 {
            assert_eq!(d.trace, Some(expect_dead), "digest matches the majority");
        }
    }
    c.shutdown();
}
