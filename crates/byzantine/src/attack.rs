//! The traitor payloads, built once for both engines.
//!
//! What a traitor *says* is fixed here; *when* it says it and *to whom*
//! is the driver's business — a timer and neighbor parity in
//! [`crate::sim::ByzantineTraitor`], the first observed byz frame and
//! sorted live links in the TCP runtime. Lies about votes are bits in a
//! [`VotesFrame`], as every vote is ([`crate::exchange`]). Every payload speaks under the
//! traitor's own witness identity (the "signed-enough" model), so each is
//! one voice: f short of the f+1 amplification threshold, 2f short of
//! the 2f+1 delivery quorum.

use bytes::Bytes;

use lhg_net::message::ByzTag;

use crate::engine::{InstanceSummary, Phase};
use crate::frame::{digest, GossipFrame, GossipKind, VoteEntry, VotesFrame};

/// Nonce base for equivocation instances a traitor originates itself.
pub const EQUIVOCATE_NONCE_BASE: u64 = 0xE000_0000;
/// Nonce base for instances a traitor forges under a correct origin.
pub const FORGE_NONCE_BASE: u64 = 0xF000_0000;

/// Equivocation: two conflicting `SEND`s for one instance under traitor
/// `me`'s own origin — story A for one half of its links, story B for
/// the other. Correct nodes must converge on at most one of the two
/// digests (usually neither: neither half reaches its echo quorum alone).
#[must_use]
pub fn equivocation_pair(me: u32) -> [GossipFrame; 2] {
    let tag = ByzTag {
        origin: me,
        nonce: EQUIVOCATE_NONCE_BASE + u64::from(me),
    };
    let stories: [&'static [u8]; 2] = [b"two-faced: A", b"two-faced: B"];
    stories.map(|payload| GossipFrame {
        kind: GossipKind::Send,
        witness: me,
        tag,
        digest: digest(payload),
        payload: Bytes::from_static(payload),
    })
}

/// Forgery: traitor `me`'s echo and ready *bits* — set under its own id,
/// the only one it can speak for — for a `SEND` that `victim`, the
/// impersonated origin, never issued. One frame, for every neighbor.
#[must_use]
pub fn forged_votes(me: u32, victim: u32) -> VotesFrame {
    let mine = || std::iter::once(me).collect();
    let tag = ByzTag {
        origin: victim,
        nonce: FORGE_NONCE_BASE + u64::from(me),
    };
    let said = digest(b"the origin never said this");
    vec![VoteEntry::delta(tag, said, mine(), mine())].into()
}

/// Forged catch-up: traitor `me`'s poisoned answer to `requester`'s
/// solicitation — a fabricated already-`Delivered` instance the stable
/// majority never saw, plus a digest-flipped `Delivered` copy of each of
/// the traitor's `real` summaries. A correct rejoiner ingests it into a
/// state that never certifies.
#[must_use]
pub fn forged_summaries(
    me: u32,
    requester: u32,
    real: Vec<InstanceSummary>,
) -> Vec<InstanceSummary> {
    let payload = Bytes::from_static(b"forged catch-up: majority never delivered this");
    let fabricated = InstanceSummary {
        tag: ByzTag {
            origin: u32::from(requester == 0),
            nonce: FORGE_NONCE_BASE + 0x500 + u64::from(me),
        },
        phase: Phase::Delivered,
        digest: digest(&payload),
        payload,
    };
    let flipped = real.into_iter().map(|s| InstanceSummary {
        tag: s.tag,
        phase: Phase::Delivered,
        digest: s.digest.wrapping_add(1),
        payload: Bytes::new(),
    });
    std::iter::once(fabricated).chain(flipped).collect()
}
