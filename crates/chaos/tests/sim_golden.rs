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

/// Fingerprint of the 20 report lines. Re-recorded on purpose when fresh
/// data frames started to follow the origin's BFS tree: a node forwards a
/// body only to its tree children, every other link learns the id from an
/// advert, and a gap is pulled. Data frames per run fall (crash seed 0:
/// 44 → 20, lossy seed 12: 216 → 58), and the fault injector's per-link
/// sequences move with them. The lossy seeds end up to 180 ms later: a
/// copy lost on a tree edge now waits for a summary round instead of
/// arriving over another of the k paths. All 20 verdicts and delivery
/// counts are unchanged, and the byzantine and mixed lines (no data
/// floods) are byte-identical.
/// (Before: `0x009c_385a_8797_f0ce`, the core naming its next deadline;
/// earlier `0xe020_352a_c204_5d04`, control traffic riding the data, and
/// `0x376b_bec3_de79_9423`, the one chaos interpreter.)
const GOLDEN_FNV1A: u64 = 0x791a_4803_82d2_68cc;

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
