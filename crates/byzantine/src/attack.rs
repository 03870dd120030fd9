//! The adversary's names: what a traitor may do ([`TraitorBehavior`]),
//! which chaos plans and the CLI choose from, and the nonce ranges its
//! instances live in. What each behavior says, when and to whom is
//! `lhg_runtime::traitor`'s, a wrapper around the node's core that runs
//! on the TCP runtime and on the simulator alike.

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
