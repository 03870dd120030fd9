//! Property tests pinning the determinism contract of
//! [`lhg_net::fault::FaultInjector`]: every drop/duplicate/delay decision
//! is a pure function of `(seed, from, to, seq)`. Chaos reproducibility
//! rests on this — the runner prints a seed, and replaying that seed must
//! replay every fault, no matter how the engines interleave their queries.

use std::sync::Arc;
use std::thread;

use lhg_net::fault::{Copies, FaultInjector, LinkFaults};
use proptest::prelude::*;

/// A lossy-but-sane rate set, mirroring the chaos planner's lossy family.
/// Probabilities are drawn as per-mille integers (the vendored proptest
/// has no float strategies) and mapped into `[0, 0.6)` / `[0, 0.4)`.
fn arb_rates() -> impl Strategy<Value = LinkFaults> {
    (
        (0u64..600, 0u64..400),
        (0u64..3_000, 0u64..600, 0u64..5_000),
    )
        .prop_map(
            |((drop, duplicate), (extra_delay_us, reorder, reorder_window_us))| LinkFaults {
                drop: drop as f64 / 1_000.0,
                duplicate: duplicate as f64 / 1_000.0,
                extra_delay_us,
                reorder: reorder as f64 / 1_000.0,
                reorder_window_us,
            },
        )
}

/// Frame keys: directed link endpoints plus a per-link sequence number.
fn arb_keys() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    proptest::collection::vec((0u32..16, 0u32..16, 0u64..10_000), 1..64)
}

fn injector(seed: u64, rates: LinkFaults) -> FaultInjector {
    let mut inj = FaultInjector::new(seed);
    inj.set_default_rates(rates);
    inj
}

proptest! {
    /// Re-querying the same frame key yields the same decision, whatever
    /// order the keys are visited in and however many times each is asked.
    #[test]
    fn decisions_ignore_call_order(seed in any::<u64>(), rates in arb_rates(), keys in arb_keys()) {
        let inj = injector(seed, rates);
        let forward: Vec<_> = keys
            .iter()
            .map(|&(f, t, s)| inj.decide(f, t, 0, s))
            .collect();
        // Visit in reverse, with a second redundant query interleaved.
        let backward: Vec<_> = keys
            .iter()
            .rev()
            .map(|&(f, t, s)| {
                let _ = inj.decide(t, f, 0, s); // unrelated link: must not perturb
                inj.decide(f, t, 0, s)
            })
            .collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        prop_assert_eq!(forward, backward);
    }

    /// Two injectors built from the same seed and rates agree on every
    /// frame, even when one is hammered from several threads at once —
    /// the decision function holds no mutable state to race on.
    #[test]
    fn threads_cannot_perturb_decisions(seed in any::<u64>(), rates in arb_rates(), keys in arb_keys()) {
        let reference = injector(seed, rates);
        let expected: Vec<_> = keys
            .iter()
            .map(|&(f, t, s)| reference.decide(f, t, 0, s))
            .collect();

        let shared = Arc::new(injector(seed, rates));
        let mut handles = Vec::new();
        for offset in 0..4usize {
            let inj = Arc::clone(&shared);
            let keys = keys.clone();
            handles.push(thread::spawn(move || {
                // Each thread starts at a different point in the key list
                // so queries genuinely interleave.
                let n = keys.len();
                (0..n)
                    .map(|i| {
                        let (f, t, s) = keys[(i + offset) % n];
                        ((i + offset) % n, inj.decide(f, t, 0, s))
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (idx, decision) in handle.join().expect("worker panicked") {
                prop_assert_eq!(&decision, &expected[idx]);
            }
        }
    }

    /// Seq numbers index independent decisions: permuting which seq is
    /// asked first never changes any individual outcome (no hidden
    /// stream/counter semantics).
    #[test]
    fn seq_space_is_random_access(seed in any::<u64>(), rates in arb_rates(), seqs in proptest::collection::vec(0u64..100_000, 2..32)) {
        let inj = injector(seed, rates);
        let mut shuffled = seqs.clone();
        shuffled.reverse();
        shuffled.rotate_left(1);
        let by_seq: std::collections::HashMap<u64, Copies> = shuffled
            .iter()
            .map(|&s| (s, inj.decide(1, 2, 0, s)))
            .collect();
        for &s in &seqs {
            prop_assert_eq!(&inj.decide(1, 2, 0, s), &by_seq[&s]);
        }
    }
}
