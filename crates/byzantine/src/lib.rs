//! # lhg-byzantine
//!
//! Bracha echo/ready Byzantine reliable broadcast over LHG overlays —
//! tolerating nodes that *lie*, not just nodes that crash.
//!
//! The paper's central property — an LHG on n nodes is k-connected, so
//! Menger gives k vertex-disjoint paths between any pair — is exactly the
//! redundancy Byzantine broadcast needs: with at most
//! f ≤ ⌊(k−1)/2⌋ traitors, every pair of correct nodes keeps
//! k − f ≥ f + 1 traitor-free disjoint paths, so gossip among correct
//! nodes is never cut and quorum messages always get through.
//!
//! The protocol is Bracha's (1987) echo/ready broadcast over the LHG
//! overlay:
//!
//! 1. the origin floods `SEND(payload)` for instance `(origin, nonce)`;
//! 2. a correct node echoes the first `SEND` it sees per instance;
//! 3. on ⌈(n+f+1)/2⌉ distinct echo witnesses — or f+1 distinct ready
//!    witnesses (amplification) — it readies the digest;
//! 4. on 2f+1 distinct ready witnesses it delivers, exactly once.
//!
//! Every step is a per-broadcast quorum state machine
//! (init → echoed → readied → delivered, [`engine::Phase`]). Only the
//! payload is flooded. A vote is a member id in a witness-set bitmap, and
//! neighbors exchange per-link *deltas* of those sets, capped by what the
//! peer can still use ([`exchange`]) — one flood plus a few dozen small
//! frames per node where flooding every vote cost 2n+1 floods. Identity is
//! "signed-enough": the model assumes a vote attributed to a *correct*
//! member was cast by it — traitors may equivocate, forge *instances*, stay
//! silent, or replay, but only under their own witness identity — and the
//! code enforces that a vote counts only for a **member** of the roster the
//! instance snapshotted.
//!
//! * [`frame`] — the wire codecs over [`lhg_net::message::Message`]
//!   (`SEND` gossip frames, `VOTES` exchange frames, catch-up summaries)
//!   and the FNV payload digest;
//! * [`witness`] — [`witness::WitnessSet`], the bitmap of member ids;
//! * [`engine`] — the network-agnostic quorum state machine
//!   ([`engine::BrachaEngine`]): votes in, this node's votes + deliveries
//!   out;
//! * [`exchange`] — [`exchange::VoteExchange`], the sans-IO per-link vote
//!   exchange that owns the engine; the one thing both drivers talk to;
//! * [`sim`] — [`sim::ByzantineFlooder`] for the discrete-event simulator,
//!   plus seeded traitor processes ([`sim::ByzantineTraitor`]): the
//!   exchange alone, on a fixed membership. Crashes, rejoins, view churn
//!   and catch-up are the node's business (`lhg_runtime::core`), and the
//!   simulator runs that node too (`lhg_runtime::simnode`);
//! * [`attack`] — the traitor payloads (equivocation pair, forged votes,
//!   forged catch-up summaries), built once for both engines.
//!
//! The TCP runtime integration lives in `lhg-runtime` (which depends on
//! this crate), and the adversarial chaos family in `lhg-chaos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod engine;
pub mod exchange;
pub mod frame;
pub mod sim;
pub mod witness;

pub use engine::{
    Action, BrachaEngine, ByzDelivery, InstanceSummary, MembershipView, Phase, Votes,
};
pub use exchange::VoteExchange;
pub use frame::{
    decode_summaries, digest, encode_summaries, gossip_frame_id, GossipFrame, GossipKind,
    VoteEntry, VotesFrame, BYZ_ID_TAG, VOTES_ID,
};
pub use sim::{
    run_sim_byzantine, run_sim_byzantine_with_metrics, ByzantineFlooder, ByzantineTraitor,
    ScheduledByzBroadcast, TraitorBehavior, EQUIVOCATE_NONCE_BASE, FORGE_NONCE_BASE,
};
pub use witness::WitnessSet;

/// Membership too small for the configured traitor budget: Bracha's quorum
/// intersection arguments need `n ≥ 3f + 1`, and this view does not have it.
///
/// Returned (never panicked) by [`BrachaConfig::new`] and
/// [`BrachaEngine::bump_view`](engine::BrachaEngine::bump_view) so callers —
/// the CLI, the chaos runner, a node applying churn — can refuse the view
/// gracefully instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsoundMembership {
    /// The offered membership size.
    pub n: usize,
    /// The traitor budget it cannot support.
    pub f: usize,
}

impl std::fmt::Display for UnsoundMembership {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "Bracha needs n ≥ 3f+1 (n={}, f={})", self.n, self.f)
    }
}

impl std::error::Error for UnsoundMembership {}

/// Maximum traitors a k-connected overlay supports with Bracha broadcast:
/// f ≤ ⌊(k−1)/2⌋.
///
/// Derivation: removing the f traitors must leave the correct subgraph
/// connected (needs f ≤ k−1), *and* every correct pair must keep more
/// traitor-free disjoint paths than traitor-blocked ones — of the k
/// vertex-disjoint paths Menger guarantees, at most f pass through a
/// traitor, so k − f ≥ f + 1, i.e. f ≤ ⌊(k−1)/2⌋ (the stricter bound).
#[must_use]
pub fn max_traitors(k: usize) -> usize {
    k.saturating_sub(1) / 2
}

/// Quorum parameters of one Bracha instance: total membership `n` and the
/// traitor budget `f` the protocol is configured to survive.
///
/// Soundness needs n ≥ 3f + 1 (enforced by the constructor); with LHG
/// overlays at f = [`max_traitors`]`(k)` this holds for every constructible
/// size, since an LHG needs n ≥ 2k ≥ 4f + 2 — but *churned* views can lose
/// members, so the check is a recoverable [`UnsoundMembership`] error, not
/// an assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrachaConfig {
    /// Total membership size (correct + traitor).
    pub n: usize,
    /// Traitor budget the quorums are sized for.
    pub f: usize,
}

impl BrachaConfig {
    /// Creates a config, refusing unsound memberships.
    ///
    /// # Errors
    ///
    /// Returns [`UnsoundMembership`] when `n < 3f + 1` — the quorum
    /// intersection arguments would not hold.
    pub fn new(n: usize, f: usize) -> Result<Self, UnsoundMembership> {
        if n > 3 * f {
            Ok(BrachaConfig { n, f })
        } else {
            Err(UnsoundMembership { n, f })
        }
    }

    /// Config for an n-node, k-connected LHG overlay at the full traitor
    /// budget f = ⌊(k−1)/2⌋.
    ///
    /// # Errors
    ///
    /// Returns [`UnsoundMembership`] when `n < 3f + 1`.
    pub fn for_overlay(n: usize, k: usize) -> Result<Self, UnsoundMembership> {
        BrachaConfig::new(n, max_traitors(k))
    }

    /// Echo quorum ⌈(n+f+1)/2⌉: two echo quorums intersect in at least
    /// f+1 nodes, hence in a correct node — so no two digests of one
    /// instance can both be echo-certified.
    #[must_use]
    pub fn echo_quorum(&self) -> usize {
        (self.n + self.f + 1).div_ceil(2)
    }

    /// Ready amplification threshold f+1: among f+1 distinct ready
    /// witnesses at least one is correct, so readying on its word is safe.
    #[must_use]
    pub fn ready_amplify(&self) -> usize {
        self.f + 1
    }

    /// Delivery quorum 2f+1: at least f+1 correct witnesses readied, so
    /// by amplification every correct node eventually readies — delivery
    /// is total among correct nodes.
    #[must_use]
    pub fn delivery_quorum(&self) -> usize {
        2 * self.f + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traitor_bound_follows_connectivity() {
        assert_eq!(max_traitors(1), 0);
        assert_eq!(max_traitors(2), 0);
        assert_eq!(max_traitors(3), 1);
        assert_eq!(max_traitors(4), 1);
        assert_eq!(max_traitors(5), 2);
        assert_eq!(max_traitors(7), 3);
    }

    #[test]
    fn quorum_sizes_at_small_memberships() {
        let c = BrachaConfig::new(8, 1).unwrap();
        assert_eq!(c.echo_quorum(), 5);
        assert_eq!(c.ready_amplify(), 2);
        assert_eq!(c.delivery_quorum(), 3);

        let c = BrachaConfig::new(4, 1).unwrap();
        assert_eq!(c.echo_quorum(), 3);
        assert_eq!(c.delivery_quorum(), 3);
    }

    #[test]
    fn echo_quorums_intersect_in_a_correct_node() {
        for n in 4..=40 {
            for f in 0..=(n - 1) / 3 {
                let c = BrachaConfig::new(n, f).unwrap();
                let q = c.echo_quorum();
                // Two quorums overlap in ≥ 2q − n nodes; that overlap must
                // exceed f so it contains a correct node.
                assert!(2 * q > n + f, "n={n} f={f}");
                // And a quorum must be reachable with all traitors silent.
                assert!(n - f >= q, "n={n} f={f}: correct nodes can echo-certify");
            }
        }
    }

    #[test]
    fn unsound_membership_is_an_error_not_a_panic() {
        let e = BrachaConfig::new(6, 2).unwrap_err();
        assert_eq!(e, UnsoundMembership { n: 6, f: 2 });
        assert!(e.to_string().contains("n ≥ 3f+1"), "{e}");
    }

    #[test]
    fn soundness_boundary_is_exactly_3f_plus_1() {
        for f in 0..12 {
            assert!(BrachaConfig::new(3 * f + 1, f).is_ok(), "n=3f+1 is sound");
            if f > 0 {
                assert!(BrachaConfig::new(3 * f, f).is_err(), "n=3f is not");
            }
        }
    }

    mod quorum_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Quorum sizes are monotone in n at fixed f: growing the view
            /// never shrinks a quorum, so a bumped-up view is never easier
            /// to certify against than the one an instance snapshotted.
            #[test]
            fn quorums_monotone_in_n(f in 0usize..8, extra in 0usize..40) {
                let n = 3 * f + 1 + extra; // always sound: n ≥ 3f+1
                let c = BrachaConfig::new(n, f).unwrap();
                let bigger = BrachaConfig::new(n + 1, f).unwrap();
                prop_assert!(bigger.echo_quorum() >= c.echo_quorum());
                prop_assert!(bigger.ready_amplify() >= c.ready_amplify());
                prop_assert!(bigger.delivery_quorum() >= c.delivery_quorum());
            }

            /// Delivery never needs fewer than 2f+1 ready witnesses, at any
            /// sound membership down to the n = 3f+1 boundary.
            #[test]
            fn delivery_never_below_2f_plus_1(f in 0usize..8, extra in 0usize..40) {
                let n = 3 * f + 1 + extra; // always sound: n ≥ 3f+1
                let c = BrachaConfig::new(n, f).unwrap();
                prop_assert!(c.delivery_quorum() > 2 * f);
                // And it stays reachable with every traitor silent.
                prop_assert!(n - f >= c.delivery_quorum());
            }

            /// The constructor and the boundary agree for every (n, f).
            #[test]
            fn constructor_matches_boundary(f in 0usize..20, n in 0usize..80) {
                prop_assert_eq!(BrachaConfig::new(n, f).is_ok(), n > 3 * f);
            }
        }
    }
}
