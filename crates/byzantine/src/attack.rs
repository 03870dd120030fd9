//! The adversary: what a traitor may do ([`TraitorBehavior`]) and the
//! lies it tells, built once.
//!
//! What a traitor *says* is fixed here; *when* it says it and *to whom*
//! is the node's business — `lhg_runtime::core::NodeCore` mounts every
//! behavior, on the TCP runtime and on the simulator alike (the first
//! observed byz frame, sorted live links). Lies about votes are bits in a
//! [`VotesFrame`], as every vote is ([`crate::exchange`]). Every payload
//! speaks under the traitor's own witness identity (the "signed-enough"
//! model), so each is one voice: f short of the f+1 amplification
//! threshold, 2f short of the 2f+1 delivery quorum.

use bytes::Bytes;

use lhg_net::message::ByzTag;

use crate::frame::{digest, GossipFrame, GossipKind, VoteEntry, VotesFrame};

/// The adversarial repertoire: each traitor is corrupted in one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraitorBehavior {
    /// Originates one instance under its own identity but sends payload A
    /// to half its neighbors and payload B to the other half.
    Equivocate,
    /// Tells every neighbor it echoed and readied an instance a correct
    /// origin never sent, vouched only by itself.
    Forge,
    /// Says nothing at all: no relays, no votes.
    Silent,
    /// Relays payloads but casts no votes, and passes every byz frame it
    /// receives on to its other neighbors once more: a replayed `SEND` dies
    /// in a seen-set, replayed votes OR in bits their receiver holds.
    Replay,
    /// Attacks the *failure detector*, not the gossip layer: once per
    /// heartbeat period it floods a forged CRASH wave naming a live victim,
    /// trying to excommunicate a node that is still heartbeating. At the
    /// gossip layer it relays payloads honestly but casts and passes on no
    /// votes.
    FrameCrash,
    /// Attacks *healing*: it suppresses its own heartbeats and summaries
    /// so correct nodes legitimately excommunicate it, forcing churn while
    /// it keeps listening. At the gossip layer it
    /// relays payloads honestly but casts and passes on no votes.
    SuppressHeartbeat,
}

impl TraitorBehavior {
    /// All behaviors, in seeding order.
    pub const ALL: [TraitorBehavior; 6] = [
        TraitorBehavior::Equivocate,
        TraitorBehavior::Forge,
        TraitorBehavior::Silent,
        TraitorBehavior::Replay,
        TraitorBehavior::FrameCrash,
        TraitorBehavior::SuppressHeartbeat,
    ];

    /// Stable lowercase name (chaos plans and JSON summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraitorBehavior::Equivocate => "equivocate",
            TraitorBehavior::Forge => "forge",
            TraitorBehavior::Silent => "silent",
            TraitorBehavior::Replay => "replay",
            TraitorBehavior::FrameCrash => "frame_crash",
            TraitorBehavior::SuppressHeartbeat => "suppress_heartbeat",
        }
    }
}

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
