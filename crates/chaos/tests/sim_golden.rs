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
//! traitor scripts, the fault injector — moves the fingerprint.
//!
//! A deliberate protocol change re-records the constant (the failure
//! message prints the new value); a refactor must not.
//!
//! [`ChaosReport::to_json_line`]: lhg_chaos::ChaosReport::to_json_line

use lhg_chaos::{run_sim_chaos, FaultPlan};

/// Fingerprint of the 20 report lines. Re-recorded on purpose when
/// Bracha's `SEND` began riding the eager tree, the vote exchange's
/// payload pull repairing what a tree edge lost and asking the neighbors
/// that echoed the digest first. The eight byzantine and mixed lines move
/// and all 20 verdicts stay green; the crash, partition and lossy lines
/// are byte-identical. Byz frames fall on seven of the eight (817 → 541 on
/// seed 3) and rise on seed 18 (503 → 603). Seeds 3 and 18 are
/// equivocation runs: which of the traitor's two stories reaches the echo
/// quorum now follows its tree, so its instance certifies on one of them
/// and not on the other (21 → 28 and 28 → 21 deliveries, both allowed by
/// Bracha); every other line keeps its delivery count. The mixed runs end
/// up to 140 ms later (seed 19, 0.90 → 1.04 s): a `SEND` that a lossy tree
/// edge dropped waits for a repair round.
/// (Before: `0x9f51_6254_cb51_8b46`, one rejoin path; earlier
/// `0xe503_7876_c445_e898`, pull-store retirement, `0xc7bc_8813_21ed_c6b3`,
/// one catch-up path, `0x791a_4803_82d2_68cc`, eager trees,
/// `0x009c_385a_8797_f0ce`, the core naming its next deadline,
/// `0xe020_352a_c204_5d04`, control traffic riding the data, and
/// `0x376b_bec3_de79_9423`, the one chaos interpreter.)
const GOLDEN_FNV1A: u64 = 0x95c0_a9f4_33e4_6407;

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
