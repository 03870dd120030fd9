//! Golden determinism test: same seed, byte-identical JSONL.
//!
//! Seeds 0..20 cover every fault family four times. Each plan runs twice
//! on the simulator and must render the same [`ChaosReport::to_json_line`]
//! both times; the 20 lines are then folded into one FNV-1a fingerprint
//! and compared with a constant recorded from a known-good commit. The
//! line embeds end time, delivery count and per-class frame and byte
//! totals, so any change to send order, timer order or wire bytes in the
//! simulator path — the sim engine, `NodeCore` and the planes inside it,
//! its simulator driver `SimNode`, the plan compiler and interpreter, the
//! traitor scripts around the core, the fault injector — moves the
//! fingerprint.
//!
//! A deliberate protocol change re-records the constant (the failure
//! message prints the new value); a refactor must not.
//!
//! [`ChaosReport::to_json_line`]: lhg_chaos::ChaosReport::to_json_line

use lhg_chaos::{run_sim_chaos, FaultPlan};

/// Fingerprint of the 20 report lines. Re-recorded on purpose when every
/// summary payload became a sorted id set (a varint count, the smallest id,
/// varint distances): summary-class bytes move with the payload, and a
/// pull is served in ascending id order, not in the order the advert named
/// its ids, so frame order moves where a pull is served.
/// (Before: `0x67a7_714e_3784_38b6`, membership a lattice of incarnations:
/// every crash wave and dead notice carries its victim's incarnation, a
/// report or join the member's entry already dominates is stale, and a
/// dead notice about an answered incarnation gets that `JOIN` again;
/// `0x7642_d388_a96d_c5b0`, idle-link heartbeats and summary
/// rounds on the heartbeat-period tick, a link's redial and grace in its
/// link state;
/// `0x80e9_2afd_66c1_5f7a`, crash and join waves on the reliable
/// plane, crash vouching and the direct `JOIN`s gone, a heal's grace a
/// floor under any grace running;
/// `0x4bcf_4342_670c_6365`, the compact frame head;
/// `0x5889_ab84_fe74_a162`, the telemetry timeline gone;
/// `0xb64e_67bc_7b7f_e386`, a lone dead-notice sender under f+1
/// corroboration answered with a direct `JOIN`;
/// `0x645a_d6fb_d1e0_7588`, no re-admission of an unknown live
/// peer on its frames; `0x7104_f773_7d2a_f1b7`, traitor scripts outside
/// the core; earlier `0x95c0_a9f4_33e4_6407`, `SEND` on the eager tree,
/// `0x9f51_6254_cb51_8b46`, one rejoin path,
/// `0xe503_7876_c445_e898`, pull-store retirement, `0xc7bc_8813_21ed_c6b3`,
/// one catch-up path, `0x791a_4803_82d2_68cc`, eager trees,
/// `0x009c_385a_8797_f0ce`, the core naming its next deadline,
/// `0xe020_352a_c204_5d04`, control traffic riding the data, and
/// `0x376b_bec3_de79_9423`, the one chaos interpreter.)
const GOLDEN_FNV1A: u64 = 0xbf7f_a0ac_7636_a1d6;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn seeds_0_to_20_replay_byte_identically_and_match_the_golden_fingerprint() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for seed in 0..20 {
        let plan = FaultPlan::random(seed, true);
        let line = run_sim_chaos(&plan).to_json_line();
        let again = run_sim_chaos(&plan).to_json_line();
        assert_eq!(line, again, "seed {seed} is not deterministic");
        hash = fnv1a(hash, line.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    assert_eq!(
        hash, GOLDEN_FNV1A,
        "simulator output drifted from the recorded golden run \
         (new fingerprint: {hash:#018x})"
    );
}
