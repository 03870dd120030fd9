//! The Bracha quorum state machine, independent of any transport.
//!
//! A [`BrachaEngine`] holds one quorum-tracking `Instance` per broadcast tag it has
//! heard about: per digest an echo set and a ready set, each a
//! [`WitnessSet`] bitmap indexed by member id. Votes reach it two ways.
//! [`crate::exchange::VoteExchange`] — what every node runs — merges the
//! sets a neighbor sent with [`BrachaEngine::absorb_votes`]: an OR and a
//! popcount, no frame per vote. The frame form of a vote
//! ([`BrachaEngine::on_gossip`] with an `ECHO`/`READY` [`GossipFrame`]) is
//! still accepted — the probes and the unit tests speak it — and lands in
//! the same sets. Either way the engine answers with
//! [`Action`]s: this node's own new votes, and at most one delivery per
//! instance. It never talks to a network.
//!
//! Validation rules (the "signed-enough" model):
//!
//! * `SEND` is accepted only from its claimed origin
//!   (`witness == tag.origin`) and only when the carried payload matches
//!   the declared digest. A traitor can still equivocate — send different
//!   payloads to different neighbors — but cannot impersonate a correct
//!   origin.
//! * A vote counts only for a **member**: every instance snapshots the
//!   roster of the view it was created under, sets are stored as
//!   `bits & roster`, and a vote under an id outside it — nobody's id, so
//!   forging it impersonates nobody — is dropped and counted
//!   ([`BrachaEngine::votes_rejected`]). An instance whose claimed origin
//!   no view has ever named is refused the same way.
//! * An echo *bit* is a vote for a digest and nothing else. An `ECHO`
//!   *frame* re-carries the payload, which must match its digest or the
//!   frame is refused whole; `READY` carries none.
//! * Delivery waits for a payload held under the certified digest.
//!
//! This node's own votes are set in its own sets the moment it casts them,
//! so the local node counts as a witness without the caller looping
//! anything back.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;

use lhg_net::message::ByzTag;

use crate::frame::{digest, GossipFrame, GossipKind};
use crate::witness::WitnessSet;
use crate::{BrachaConfig, UnsoundMembership};

/// An epoch-stamped membership view: the quorum parameters in force at a
/// particular point of the cluster's churn history, and who the members
/// are.
///
/// The engine holds the *current* view and bumps it on every membership
/// change ([`BrachaEngine::bump_view`]); each broadcast instance snapshots
/// the view live when it is created and keeps it for its whole lifetime —
/// in-flight quorum accounting never resizes mid-instance, which would
/// silently weaken the intersection arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotone churn counter: 0 for an engine built by
    /// [`BrachaEngine::new`], +1 per installed view (a node installs its
    /// boot membership as the first, then one per applied crash or join).
    pub epoch: u64,
    /// Quorum parameters sized for this view's live membership.
    pub cfg: BrachaConfig,
    /// The members whose votes count (shared by every instance created
    /// under this view).
    pub roster: Arc<WitnessSet>,
}

/// Protocol phase of one broadcast instance at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Nothing sent yet for this instance.
    Init,
    /// This node has echoed a digest.
    Echoed,
    /// This node has readied a digest.
    Readied,
    /// This node has delivered the instance payload.
    Delivered,
}

/// A delivery decided by the engine: the instance, the certified digest
/// and the assembled payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzDelivery {
    /// The delivered broadcast instance.
    pub tag: ByzTag,
    /// Digest the delivery quorum certified.
    pub digest: u64,
    /// The payload matching that digest.
    pub payload: Bytes,
}

impl ByzDelivery {
    /// The delivery as the application message both drivers hand up:
    /// `broadcast_id` the instance nonce, `origin` the instance origin,
    /// `trace` the certified digest, the byz tag set — what the chaos
    /// oracle audits.
    #[must_use]
    pub fn into_message(self) -> lhg_net::message::Message {
        lhg_net::message::Message::new(self.tag.nonce, self.tag.origin, self.payload)
            .with_trace(self.digest)
            .with_byz(self.tag)
    }
}

/// What the engine did in reaction to its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A frame this node originated: the `SEND` of its own broadcast, or
    /// the frame form of a vote it just cast (already counted in its own
    /// sets). The exchange floods the former and drops the latter — its
    /// votes travel as bits.
    Gossip(GossipFrame),
    /// Hand this payload to the application, exactly once per instance.
    Deliver(ByzDelivery),
}

/// The two witness sets of one digest of one instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Votes {
    /// Members that echoed the digest.
    pub echo: WitnessSet,
    /// Members that readied the digest.
    pub ready: WitnessSet,
}

impl Votes {
    /// Whether neither set holds a vote.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.echo.is_empty() && self.ready.is_empty()
    }
}

/// What one input changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Absorbed {
    /// A vote (a neighbor's or, in reaction, this node's own) was learned:
    /// the instance has something new to tell the links.
    pub changed: bool,
    /// Votes dropped because their witness id is not in the roster, and
    /// inputs dropped because no view ever named their instance's origin.
    pub rejected: u64,
}

/// Per-instance quorum state. Ordered maps throughout: which digest
/// readies first when two qualify must not depend on a hasher.
#[derive(Debug)]
struct Instance {
    /// The membership view snapshotted when this instance was created;
    /// every quorum threshold below reads from it, never from the
    /// engine's (possibly newer) current view.
    view: MembershipView,
    /// Payloads seen for this instance, keyed by their digest, and which of
    /// them arrived in a valid `SEND` — the only ones this node may pass on
    /// as the origin's word before they are certified.
    payloads: BTreeMap<u64, Bytes>,
    sent: BTreeSet<u64>,
    /// Digest this node echoed, if any (first valid SEND wins).
    echoed: Option<u64>,
    /// Digest this node readied, if any.
    readied: Option<u64>,
    /// Digest this node delivered, if any.
    delivered: Option<u64>,
    /// Distinct echo and ready witnesses per digest, always ⊆ the roster.
    votes: BTreeMap<u64, Votes>,
}

impl Instance {
    fn new(view: MembershipView) -> Self {
        Instance {
            view,
            payloads: BTreeMap::new(),
            sent: BTreeSet::new(),
            echoed: None,
            readied: None,
            delivered: None,
            votes: BTreeMap::new(),
        }
    }

    /// Casts whatever votes the sets now justify for node `me` and delivers
    /// if a ready certificate and its payload are both held.
    fn settle(&mut self, me: u32, tag: ByzTag, out: &mut Vec<Action>) {
        // Quorum thresholds come from the instance's snapshotted view, not
        // the engine's current one: churn after origination must not move
        // the goalposts of an in-flight quorum count.
        let cfg = self.view.cfg;
        if self.readied.is_none() {
            // Ready on echo quorum or ready amplification, once.
            let certified = (self.votes.iter())
                .find(|(_, v)| v.echo.len() >= cfg.echo_quorum())
                .or_else(|| (self.votes.iter()).find(|(_, v)| v.ready.len() >= cfg.ready_amplify()))
                .map(|(&d, _)| d);
            if let Some(d) = certified {
                self.readied = Some(d);
                if self.view.roster.contains(me) {
                    self.votes.entry(d).or_default().ready.insert(me);
                }
                out.push(Action::Gossip(GossipFrame {
                    kind: GossipKind::Ready,
                    witness: me,
                    tag,
                    digest: d,
                    payload: Bytes::new(),
                }));
            }
        }
        if self.delivered.is_none() {
            // Deliver on ready quorum, once, as soon as the payload is known.
            let decided = (self.votes.iter())
                .find(|(_, v)| v.ready.len() >= cfg.delivery_quorum())
                .map(|(&d, _)| d);
            if let Some((d, payload)) = decided.and_then(|d| Some((d, self.payloads.get(&d)?))) {
                self.delivered = Some(d);
                out.push(Action::Deliver(ByzDelivery {
                    tag,
                    digest: d,
                    payload: payload.clone(),
                }));
            }
        }
    }
}

/// One node's Bracha state across all broadcast instances it has seen.
#[derive(Debug)]
pub struct BrachaEngine {
    me: u32,
    /// The current membership view; snapshotted into each new instance.
    view: MembershipView,
    /// Every id any view installed so far has named. An instance's origin
    /// must be one of them: a member another node has falsely suspected for
    /// a moment is still somebody, an id no view ever held is nobody.
    known: WitnessSet,
    /// Set while the current view cannot support the traitor budget
    /// (n < 3f+1): new instances are refused until a sound view arrives.
    view_unsafe: bool,
    /// How many broadcasts / incoming instances were refused because the
    /// view was unsafe — the signal the chaos oracle's `QuorumUnsafe`
    /// check reads (via a metrics counter each transport exports).
    unsafe_refusals: u64,
    /// How many votes (and instances) were dropped for naming an id
    /// outside the roster.
    votes_rejected: u64,
    instances: BTreeMap<ByzTag, Instance>,
}

impl BrachaEngine {
    /// Engine for node `me` under quorum config `cfg` (view epoch 0), with
    /// the ids `0..cfg.n` as members.
    #[must_use]
    pub fn new(me: u32, cfg: BrachaConfig) -> Self {
        BrachaEngine {
            me,
            view: MembershipView {
                epoch: 0,
                cfg,
                roster: Arc::new(WitnessSet::first_n(cfg.n)),
            },
            known: WitnessSet::first_n(cfg.n),
            view_unsafe: false,
            unsafe_refusals: 0,
            votes_rejected: 0,
            instances: BTreeMap::new(),
        }
    }

    /// The node id this engine acts as.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.me
    }

    /// The quorum configuration of the *current* view. In-flight instances
    /// may be running under an older snapshot ([`Self::instance_view`]).
    #[must_use]
    pub fn config(&self) -> BrachaConfig {
        self.view.cfg
    }

    /// The current epoch-stamped membership view.
    #[must_use]
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// One past the highest member id any view so far has named: the bound
    /// a decoder holds incoming witness sets to.
    #[must_use]
    pub fn roster_bound(&self) -> usize {
        self.known.capacity()
    }

    /// `true` while the current view is too small for the traitor budget
    /// (n < 3f+1) and the engine is refusing new instances.
    #[must_use]
    pub fn view_is_unsafe(&self) -> bool {
        self.view_unsafe
    }

    /// How many broadcasts or incoming instances have been refused under
    /// unsafe views so far.
    #[must_use]
    pub fn unsafe_refusals(&self) -> u64 {
        self.unsafe_refusals
    }

    /// How many votes have been dropped so far for naming a witness (or an
    /// instance origin) that is not a member.
    #[must_use]
    pub fn votes_rejected(&self) -> u64 {
        self.votes_rejected
    }

    /// The view snapshot instance `tag` is running under, if it exists.
    #[must_use]
    pub fn instance_view(&self, tag: ByzTag) -> Option<&MembershipView> {
        self.instances.get(&tag).map(|i| &i.view)
    }

    /// Every instance this engine has state for, in tag order.
    pub fn tags(&self) -> impl Iterator<Item = ByzTag> + '_ {
        self.instances.keys().copied()
    }

    /// The witness sets held for instance `tag`, per digest in digest order.
    pub fn votes(&self, tag: ByzTag) -> impl Iterator<Item = (u64, &Votes)> + '_ {
        (self.instances.get(&tag).into_iter()).flat_map(|i| i.votes.iter().map(|(&d, v)| (d, v)))
    }

    /// The digest instance `tag` was delivered under, once it was.
    #[must_use]
    pub fn delivered_digest(&self, tag: ByzTag) -> Option<u64> {
        self.instances.get(&tag).and_then(|i| i.delivered)
    }

    /// The payload held for `digest` of instance `tag`.
    #[must_use]
    pub fn payload(&self, tag: ByzTag, digest: u64) -> Option<&Bytes> {
        self.instances.get(&tag)?.payloads.get(&digest)
    }

    /// The origin's `SEND` for `digest` of instance `tag`, if this node may
    /// vouch for it: it received that `SEND` itself, or delivered the digest.
    /// A payload that only ever arrived in someone's `ECHO` is *not* the
    /// origin's word — re-serving it as a `SEND` would launder a forgery
    /// into one.
    #[must_use]
    pub fn send_frame(&self, tag: ByzTag, digest: u64) -> Option<GossipFrame> {
        let inst = self.instances.get(&tag)?;
        let vouched = inst.sent.contains(&digest) || inst.delivered == Some(digest);
        Some(GossipFrame {
            kind: GossipKind::Send,
            witness: tag.origin,
            tag,
            digest,
            payload: inst.payloads.get(&digest).filter(|_| vouched)?.clone(),
        })
    }

    /// Whether `digest` of instance `tag` is undelivered, has votes, and has
    /// no payload here: what this node has to ask a neighbor for before it
    /// could echo, or deliver.
    #[must_use]
    pub fn wants_payload(&self, tag: ByzTag, digest: u64) -> bool {
        self.instances.get(&tag).is_some_and(|inst| {
            let voted = inst.votes.get(&digest).is_some_and(|v| !v.is_empty());
            inst.delivered.is_none() && voted && !inst.payloads.contains_key(&digest)
        })
    }

    /// Installs a new membership view with `members` as its roster: the
    /// epoch advances unconditionally, in-flight instances keep the view
    /// they snapshotted at creation, and *new* instances size their quorums
    /// from — and count votes of — `members`. The traitor budget `f` is a
    /// protocol constant: it came from the overlay's connectivity k, which
    /// healing preserves.
    ///
    /// # Errors
    ///
    /// Returns [`UnsoundMembership`] when there are fewer than `3f + 1`
    /// members: the view still advances but is marked unsafe, and the
    /// engine refuses to create instances (originations *and* incoming
    /// votes for unknown tags) until a sound view is installed. Refusing is
    /// the safe failure mode: a quorum certified by fewer than 3f+1 members
    /// can be split by f traitors.
    pub fn bump_view(
        &mut self,
        members: impl IntoIterator<Item = u32>,
    ) -> Result<&MembershipView, UnsoundMembership> {
        let roster: WitnessSet = members.into_iter().collect();
        self.view.epoch += 1;
        self.known.union_with(&roster);
        match BrachaConfig::new(roster.len(), self.view.cfg.f) {
            Ok(cfg) => {
                self.view.cfg = cfg;
                self.view.roster = Arc::new(roster);
                self.view_unsafe = false;
                Ok(&self.view)
            }
            Err(e) => {
                self.view_unsafe = true;
                Err(e)
            }
        }
    }

    /// Phase of instance `tag` at this node.
    #[must_use]
    pub fn phase(&self, tag: ByzTag) -> Phase {
        match self.instances.get(&tag) {
            None => Phase::Init,
            Some(i) if i.delivered.is_some() => Phase::Delivered,
            Some(i) if i.readied.is_some() => Phase::Readied,
            Some(i) if i.echoed.is_some() => Phase::Echoed,
            Some(_) => Phase::Init,
        }
    }

    /// Originates a broadcast from this node: emits the `SEND` (and the
    /// follow-on `ECHO`, since the origin is its own first witness). The
    /// new instance snapshots the current membership view.
    ///
    /// # Errors
    ///
    /// Returns [`UnsoundMembership`] when the current view is unsafe
    /// (n < 3f+1): originating under it could certify a split delivery, so
    /// the broadcast is refused and counted in [`Self::unsafe_refusals`].
    pub fn broadcast(
        &mut self,
        nonce: u64,
        payload: Bytes,
    ) -> Result<Vec<Action>, UnsoundMembership> {
        if self.view_unsafe {
            self.unsafe_refusals += 1;
            return Err(UnsoundMembership {
                n: self.view.cfg.n,
                f: self.view.cfg.f,
            });
        }
        let tag = ByzTag {
            origin: self.me,
            nonce,
        };
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: self.me,
            tag,
            digest: digest(&payload),
            payload,
        };
        // An origination is not ingress: the instance exists because this
        // node says so, whatever its own roster thinks of it.
        let view = &self.view;
        (self.instances.entry(tag)).or_insert_with(|| Instance::new(view.clone()));
        // The SEND itself must be flooded too — absorbing it only returns
        // what the engine *reacts* with.
        let mut out = vec![Action::Gossip(send.clone())];
        self.absorb_frame(&send, &mut out);
        Ok(out)
    }

    /// Re-emits this node's standing votes as frames: the `SEND` of every
    /// instance it originated, plus its `ECHO`/`READY` for every instance it
    /// voted on, in tag order. This was the anti-entropy pass before votes
    /// travelled as per-link set deltas; the repair rule of
    /// [`crate::exchange`] replaced it and **nothing in the product calls it
    /// any more**. It stays because the repo benchmark's
    /// `bracha.regossip_frames_i4` probe (`benchmark/src/layers.rs`, frozen)
    /// does; the next benchmark PR can drop both.
    #[must_use]
    pub fn regossip(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (&tag, inst) in &self.instances {
            let frame = |kind, d, payload| {
                Action::Gossip(GossipFrame {
                    kind,
                    witness: self.me,
                    tag,
                    digest: d,
                    payload,
                })
            };
            if let Some((d, payload)) = inst.echoed.and_then(|d| Some((d, inst.payloads.get(&d)?)))
            {
                if tag.origin == self.me {
                    out.push(frame(GossipKind::Send, d, payload.clone()));
                }
                out.push(frame(GossipKind::Echo, d, payload.clone()));
            }
            if let Some(d) = inst.readied {
                out.push(frame(GossipKind::Ready, d, Bytes::new()));
            }
        }
        out
    }

    /// Processes one incoming gossip frame; returns this node's reaction
    /// (the frame form of any vote it cast, and any delivery it unlocked).
    pub fn on_gossip(&mut self, frame: &GossipFrame) -> Vec<Action> {
        let mut out = Vec::new();
        self.absorb_frame(frame, &mut out);
        out
    }

    /// `digest(frame.payload) == frame.digest`, without hashing when the
    /// answer is already known: a payload held under `frame.digest` was
    /// hashed when it was stored, so bytes equal to it hash the same. A
    /// pulled or replayed `SEND` re-carries that payload, which makes the
    /// common case a comparison; anything else is hashed as before, so
    /// exactly the same frames are accepted.
    fn payload_matches_digest(&self, frame: &GossipFrame) -> bool {
        let held = (self.instances.get(&frame.tag)).and_then(|i| i.payloads.get(&frame.digest));
        held.is_some_and(|p| *p == frame.payload) || digest(&frame.payload) == frame.digest
    }

    /// The roster votes for `tag` are held to: the instance's snapshot, or
    /// the current view's for an instance that does not exist yet.
    fn roster_for(&self, tag: ByzTag) -> Arc<WitnessSet> {
        let view = self.instances.get(&tag).map_or(&self.view, |i| &i.view);
        Arc::clone(&view.roster)
    }

    /// The instance for `tag`, created under the *current* view if it is
    /// new — unless that view is unsafe or no view ever named `tag.origin`,
    /// in which case the input is refused outright (in-flight instances
    /// keep working under their own snapshots).
    fn admit(&mut self, tag: ByzTag) -> Option<&mut Instance> {
        if !self.instances.contains_key(&tag) {
            if self.view_unsafe {
                self.unsafe_refusals += 1;
                return None;
            }
            if !self.known.contains(tag.origin) {
                self.votes_rejected += 1;
                return None;
            }
            self.instances.insert(tag, Instance::new(self.view.clone()));
        }
        self.instances.get_mut(&tag)
    }

    /// Applies one frame — a `SEND`, or the frame form of one vote — and
    /// appends this node's reaction to `out`.
    pub fn absorb_frame(&mut self, frame: &GossipFrame, out: &mut Vec<Action>) -> Absorbed {
        // Validate before touching state.
        let valid = match frame.kind {
            GossipKind::Send => {
                frame.witness == frame.tag.origin && self.payload_matches_digest(frame)
            }
            GossipKind::Echo => self.payload_matches_digest(frame),
            GossipKind::Ready => true,
        };
        if !valid {
            return Absorbed::default();
        }
        // A SEND's witness is its origin, and `admit` asks only that some
        // view has named it: a member this node has since excommunicated
        // (rightly or not) no longer votes, but what it originated is still
        // its to name, and others may certify it.
        let voter = frame.kind != GossipKind::Send;
        if voter && !self.roster_for(frame.tag).contains(frame.witness) {
            self.votes_rejected += 1;
            return Absorbed {
                changed: false,
                rejected: 1,
            };
        }
        let (me, refused) = (self.me, self.votes_rejected);
        let Some(inst) = self.admit(frame.tag) else {
            return Absorbed {
                changed: false,
                rejected: self.votes_rejected - refused,
            };
        };
        if frame.kind != GossipKind::Ready {
            (inst.payloads.entry(frame.digest)).or_insert_with(|| frame.payload.clone());
        }
        if frame.kind == GossipKind::Send {
            inst.sent.insert(frame.digest);
        }
        let changed = match frame.kind {
            // Echo the first valid SEND for this instance.
            GossipKind::Send if inst.echoed.is_none() => {
                inst.echoed = Some(frame.digest);
                if inst.view.roster.contains(me) {
                    inst.votes.entry(frame.digest).or_default().echo.insert(me);
                }
                out.push(Action::Gossip(GossipFrame {
                    kind: GossipKind::Echo,
                    witness: me,
                    ..frame.clone()
                }));
                true
            }
            // A later SEND adds at most a payload a certificate waits for.
            GossipKind::Send => false,
            GossipKind::Echo => {
                let votes = inst.votes.entry(frame.digest).or_default();
                votes.echo.insert(frame.witness)
            }
            GossipKind::Ready => {
                let votes = inst.votes.entry(frame.digest).or_default();
                votes.ready.insert(frame.witness)
            }
        };
        let before = out.len();
        inst.settle(me, frame.tag, out);
        Absorbed {
            changed: changed || out.len() > before,
            rejected: 0,
        }
    }

    /// Merges a neighbor's witness sets for `digest` of instance `tag` —
    /// `bits & roster`, anything else dropped and counted — and appends this
    /// node's reaction to `out`.
    pub fn absorb_votes(
        &mut self,
        tag: ByzTag,
        digest: u64,
        echo: &WitnessSet,
        ready: &WitnessSet,
        out: &mut Vec<Action>,
    ) -> Absorbed {
        let roster = self.roster_for(tag);
        let rejected = (echo.count_outside(&roster) + ready.count_outside(&roster)) as u64;
        self.votes_rejected += rejected;
        let mut absorbed = Absorbed {
            changed: false,
            rejected,
        };
        let masked;
        let (echo, ready) = if rejected > 0 {
            let (mut e, mut r) = (echo.clone(), ready.clone());
            e.intersect_with(&roster);
            r.intersect_with(&roster);
            masked = (e, r);
            (&masked.0, &masked.1)
        } else {
            (echo, ready)
        };
        if echo.is_empty() && ready.is_empty() {
            return absorbed;
        }
        let (me, refused) = (self.me, self.votes_rejected);
        let Some(inst) = self.admit(tag) else {
            absorbed.rejected += self.votes_rejected - refused;
            return absorbed;
        };
        let votes = inst.votes.entry(digest).or_default();
        // Both unions must run: `|`, not `||`.
        absorbed.changed = votes.echo.union_with(echo) | votes.ready.union_with(ready);
        if absorbed.changed {
            inst.settle(me, tag, out);
        }
        absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};

    fn cfg() -> BrachaConfig {
        BrachaConfig::new(8, 1).unwrap() // echo quorum 5, amplify 2, deliver 3
    }

    fn tag(origin: u32, nonce: u64) -> ByzTag {
        ByzTag { origin, nonce }
    }

    fn gossip_of(actions: &[Action]) -> Vec<&GossipFrame> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Gossip(f) => Some(f),
                Action::Deliver(_) => None,
            })
            .collect()
    }

    fn deliveries_of(actions: &[Action]) -> Vec<&ByzDelivery> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(d) => Some(d),
                Action::Gossip(_) => None,
            })
            .collect()
    }

    /// Drives a full correct-node mesh: every emitted frame is handed to
    /// every other engine until quiescence. Returns deliveries per node.
    fn run_mesh(
        engines: &mut [BrachaEngine],
        initial: Vec<(usize, GossipFrame)>,
    ) -> Vec<Vec<ByzDelivery>> {
        let n = engines.len();
        let mut delivered: Vec<Vec<ByzDelivery>> = vec![Vec::new(); n];
        // (recipient, frame) work queue; sender's own absorption already done.
        let mut queue: VecDeque<(usize, GossipFrame)> = initial.into();
        while let Some((to, frame)) = queue.pop_front() {
            for action in engines[to].on_gossip(&frame) {
                match action {
                    Action::Gossip(f) => {
                        for peer in 0..n {
                            if peer != to {
                                queue.push_back((peer, f.clone()));
                            }
                        }
                    }
                    Action::Deliver(d) => delivered[to].push(d),
                }
            }
        }
        delivered
    }

    #[test]
    fn origin_broadcast_emits_send_and_echo() {
        let mut e = BrachaEngine::new(0, cfg());
        let actions = e.broadcast(7, Bytes::from_static(b"hi")).unwrap();
        let gossip = gossip_of(&actions);
        assert_eq!(gossip.len(), 2);
        assert_eq!(gossip[0].kind, GossipKind::Send);
        assert_eq!(gossip[1].kind, GossipKind::Echo);
        assert!(deliveries_of(&actions).is_empty());
        assert_eq!(e.phase(tag(0, 7)), Phase::Echoed);
    }

    #[test]
    fn all_correct_mesh_delivers_exactly_once_everywhere() {
        let n = 8;
        let mut engines: Vec<BrachaEngine> =
            (0..n as u32).map(|v| BrachaEngine::new(v, cfg())).collect();
        let payload = Bytes::from_static(b"agreed value");
        let mut initial = Vec::new();
        let mut origin_delivered = Vec::new();
        for action in engines[0].broadcast(1, payload.clone()).unwrap() {
            match action {
                Action::Gossip(f) => {
                    for peer in 1..n {
                        initial.push((peer, f.clone()));
                    }
                }
                Action::Deliver(d) => origin_delivered.push(d),
            }
        }
        let mut delivered = run_mesh(&mut engines, initial);
        delivered[0].extend(origin_delivered);
        for (v, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {v} delivers exactly once");
            assert_eq!(d[0].payload, payload);
            assert_eq!(d[0].tag, tag(0, 1));
        }
        for e in &engines {
            assert_eq!(e.phase(tag(0, 1)), Phase::Delivered);
        }
    }

    #[test]
    fn empty_payload_broadcast_still_delivers() {
        let n = 8;
        let mut engines: Vec<BrachaEngine> =
            (0..n as u32).map(|v| BrachaEngine::new(v, cfg())).collect();
        let mut initial = Vec::new();
        for action in engines[3].broadcast(9, Bytes::new()).unwrap() {
            if let Action::Gossip(f) = action {
                for peer in 0..n {
                    if peer != 3 {
                        initial.push((peer, f.clone()));
                    }
                }
            }
        }
        let delivered = run_mesh(&mut engines, initial);
        for (v, d) in delivered.iter().enumerate() {
            if v != 3 {
                assert_eq!(d.len(), 1, "node {v}");
                assert!(d[0].payload.is_empty());
            }
        }
    }

    #[test]
    fn equivocating_origin_cannot_split_correct_nodes() {
        // n=8, f=1: node 7 is the traitor origin, sending payload A to
        // engines 0..3 and payload B to engines 3..7. At most one digest
        // can gather the echo quorum of 5 among 7 correct nodes — so no
        // two correct nodes may deliver different payloads.
        let mut engines: Vec<BrachaEngine> =
            (0..7u32).map(|v| BrachaEngine::new(v, cfg())).collect();
        let t = tag(7, 1);
        let mk = |payload: &'static [u8]| GossipFrame {
            kind: GossipKind::Send,
            witness: 7,
            tag: t,
            digest: digest(payload),
            payload: Bytes::from_static(payload),
        };
        let mut initial = Vec::new();
        for peer in 0..3 {
            initial.push((peer, mk(b"A")));
        }
        for peer in 3..7 {
            initial.push((peer, mk(b"B")));
        }
        let delivered = run_mesh(&mut engines, initial);
        let digests: BTreeSet<u64> = delivered.iter().flatten().map(|d| d.digest).collect();
        assert!(
            digests.len() <= 1,
            "agreement: at most one digest delivered"
        );
        // Totality: if any correct node delivered, all did.
        let any = delivered.iter().any(|d| !d.is_empty());
        if any {
            assert!(delivered.iter().all(|d| d.len() == 1));
        }
    }

    #[test]
    fn forged_send_impersonating_correct_origin_is_dropped() {
        let mut e = BrachaEngine::new(1, cfg());
        let forged = GossipFrame {
            kind: GossipKind::Send,
            witness: 5,     // traitor vouching...
            tag: tag(0, 1), // ...for an instance it claims node 0 originated
            digest: digest(b"fake"),
            payload: Bytes::from_static(b"fake"),
        };
        assert!(e.on_gossip(&forged).is_empty());
        assert_eq!(e.phase(tag(0, 1)), Phase::Init);
    }

    #[test]
    fn digest_mismatch_is_dropped() {
        let mut e = BrachaEngine::new(1, cfg());
        let bad = GossipFrame {
            kind: GossipKind::Echo,
            witness: 2,
            tag: tag(0, 1),
            digest: 0xdead,
            payload: Bytes::from_static(b"does not hash to 0xdead"),
        };
        assert!(e.on_gossip(&bad).is_empty());
    }

    #[test]
    fn echoes_of_a_held_payload_count_and_impostors_of_its_digest_do_not() {
        // Once a payload is held under a digest, later ECHOs are accepted
        // by comparing bytes instead of hashing them again. The accepted
        // set must not move: equal bytes (in a different buffer) count,
        // different bytes claiming the held digest are still refused.
        let mut e = BrachaEngine::new(7, cfg());
        let t = tag(0, 1);
        let d = digest(b"held payload");
        let echo = |w: u32, payload: &[u8]| GossipFrame {
            kind: GossipKind::Echo,
            witness: w,
            tag: t,
            digest: d,
            payload: Bytes::copy_from_slice(payload),
        };
        for w in 1..=4 {
            assert!(e.on_gossip(&echo(w, b"held payload")).is_empty());
        }
        // The vote that would complete the echo quorum (5), forged.
        assert!(e.on_gossip(&echo(5, b"HELD PAYLOAD")).is_empty());
        assert!(e.on_gossip(&echo(5, b"")).is_empty());
        assert_eq!(e.phase(t), Phase::Init, "a refused vote is not counted");
        // The same witness, honestly.
        let actions = e.on_gossip(&echo(5, b"held payload"));
        let gossip = gossip_of(&actions);
        assert_eq!(gossip.len(), 1);
        assert_eq!((gossip[0].kind, gossip[0].digest), (GossipKind::Ready, d));
    }

    #[test]
    fn duplicate_witness_votes_count_once() {
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 1);
        let ready = |w: u32| GossipFrame {
            kind: GossipKind::Ready,
            witness: w,
            tag: t,
            digest: 42,
            payload: Bytes::new(),
        };
        // The same witness readying twice must not amplify (threshold 2).
        assert!(e.on_gossip(&ready(3)).is_empty());
        assert!(e.on_gossip(&ready(3)).is_empty());
        assert_eq!(e.phase(t), Phase::Init);
        // A second distinct witness does.
        let actions = e.on_gossip(&ready(4));
        let gossip = gossip_of(&actions);
        assert_eq!(gossip.len(), 1);
        assert_eq!(gossip[0].kind, GossipKind::Ready);
        assert_eq!(e.phase(t), Phase::Readied);
    }

    #[test]
    fn delivery_waits_for_payload_then_fires_on_arrival() {
        // Readys can outrun the payload: the node must hold delivery until
        // an ECHO carrying the payload arrives, then deliver immediately.
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 1);
        let payload = Bytes::from_static(b"late payload");
        let d = digest(&payload);
        for w in 0..3u32 {
            let ready = GossipFrame {
                kind: GossipKind::Ready,
                witness: w,
                tag: t,
                digest: d,
                payload: Bytes::new(),
            };
            assert!(deliveries_of(&e.on_gossip(&ready)).is_empty());
        }
        assert_eq!(e.phase(t), Phase::Readied, "readied but cannot deliver yet");
        let echo = GossipFrame {
            kind: GossipKind::Echo,
            witness: 3,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        let actions = e.on_gossip(&echo);
        let delivered = deliveries_of(&actions);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, payload);
        assert_eq!(e.phase(t), Phase::Delivered);
    }

    #[test]
    fn over_bound_collusion_forges_a_delivery() {
        // Bound tightness: the protocol is configured for f=1 (delivery
        // quorum 3), but THREE traitors collude — witnesses 2, 3, 4 all
        // echo and ready a forged instance claiming origin 0. The victim
        // accumulates 3 ready witnesses plus the payload, and delivers a
        // broadcast node 0 never sent. This is exactly what the chaos
        // oracle's Integrity check fires on.
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 0xF000);
        let payload = Bytes::from_static(b"forged");
        let d = digest(&payload);
        let mut delivered = Vec::new();
        for w in [2u32, 3, 4] {
            let echo = GossipFrame {
                kind: GossipKind::Echo,
                witness: w,
                tag: t,
                digest: d,
                payload: payload.clone(),
            };
            let ready = GossipFrame {
                kind: GossipKind::Ready,
                witness: w,
                tag: t,
                digest: d,
                payload: Bytes::new(),
            };
            for a in e.on_gossip(&echo).into_iter().chain(e.on_gossip(&ready)) {
                if let Action::Deliver(del) = a {
                    delivered.push(del);
                }
            }
        }
        assert_eq!(delivered.len(), 1, "victim delivers the forged instance");
        assert_eq!(delivered[0].tag, t);
        // Under the bound (a single traitor) the same attack goes nowhere:
        let mut e2 = BrachaEngine::new(6, cfg());
        let echo = GossipFrame {
            kind: GossipKind::Echo,
            witness: 2,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        let ready = GossipFrame {
            kind: GossipKind::Ready,
            witness: 2,
            tag: t,
            digest: d,
            payload: Bytes::new(),
        };
        assert!(e2.on_gossip(&echo).is_empty());
        assert!(deliveries_of(&e2.on_gossip(&ready)).is_empty());
        assert_ne!(e2.phase(t), Phase::Delivered);
    }

    #[test]
    fn invented_witness_ids_never_count() {
        // n = 16, f = 1: amplification at 2 readies, delivery at 3. One
        // traitor speaks under ids nobody holds — a payload-bearing ECHO
        // from 4,000,000,000 and READYs from 1000..1002 — for an instance no
        // origin sent. An id outside the membership is nobody's, so the
        // signed-enough model does not forbid forging it; the roster does.
        let cfg = BrachaConfig::new(16, 1).unwrap();
        let t = tag(0, 0xF00D);
        let payload = Bytes::from_static(b"nobody said this");
        let d = digest(&payload);
        let vote = |kind, witness, payload: &Bytes| GossipFrame {
            kind,
            witness,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        let attack = |e: &mut BrachaEngine, echo: u32, readies: [u32; 3]| {
            let mut out = e.on_gossip(&vote(GossipKind::Echo, echo, &payload));
            for w in readies {
                out.extend(e.on_gossip(&vote(GossipKind::Ready, w, &Bytes::new())));
            }
            out
        };
        let mut e = BrachaEngine::new(6, cfg);
        let out = attack(&mut e, 4_000_000_000, [1000, 1001, 1002]);
        assert!(out.is_empty(), "non-members move nothing: {out:?}");
        assert_eq!(e.phase(t), Phase::Init);
        assert_eq!(e.votes_rejected(), 4);
        assert_eq!(e.tags().count(), 0, "and leave no state behind");

        // The same lie told as bits, and an instance under a non-member
        // origin: refused at ingress too, without growing a bitmap to 4e9.
        let invented: WitnessSet = [20, 1000, 1001, 1002].into_iter().collect();
        let absorbed = e.absorb_votes(t, d, &invented, &invented, &mut Vec::new());
        assert_eq!((absorbed.changed, absorbed.rejected), (false, 8));
        let alien = ByzTag {
            origin: 4_000_000_000,
            nonce: 1,
        };
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: alien.origin,
            tag: alien,
            digest: d,
            payload: payload.clone(),
        };
        assert!(e.on_gossip(&send).is_empty());
        assert_eq!(e.phase(alien), Phase::Init);

        // The same votes from members deliver: the check is the roster's,
        // not a side effect of something else refusing the frames.
        let mut e = BrachaEngine::new(6, cfg);
        let out = attack(&mut e, 4, [1, 2, 3]);
        assert_eq!(deliveries_of(&out).len(), 1);
        assert_eq!(e.votes_rejected(), 0);
    }

    #[test]
    fn instances_snapshot_the_view_at_creation_and_never_mix() {
        let mut e = BrachaEngine::new(0, cfg());
        assert_eq!(e.view().epoch, 0);
        let _ = e.broadcast(1, Bytes::from_static(b"pre-churn")).unwrap();
        let before = e.instance_view(tag(0, 1)).unwrap();
        assert_eq!((before.epoch, before.cfg.n), (0, 8));

        // A member crashes: the view bumps to n=7, but the in-flight
        // instance keeps its origin snapshot.
        e.bump_view(0..7).unwrap();
        assert_eq!(e.view().epoch, 1);
        assert_eq!(e.view().cfg.n, 7);
        let still = e.instance_view(tag(0, 1)).unwrap();
        assert_eq!((still.epoch, still.cfg.n), (0, 8), "in-flight view frozen");

        // A new instance created after the bump sizes from the live view.
        let _ = e.broadcast(2, Bytes::from_static(b"post-churn")).unwrap();
        let after = e.instance_view(tag(0, 2)).unwrap();
        assert_eq!((after.epoch, after.cfg.n), (1, 7));
    }

    #[test]
    fn in_flight_instance_keeps_its_quorum_thresholds_across_a_bump() {
        // n=8 (delivery quorum 3). After bumping to a larger view the old
        // instance must still deliver at 3 readys — its snapshot — even
        // though the new view would also say 3; the *echo* quorum differs:
        // old 5 vs new ⌈(12+1+1)/2⌉ = 7, so certify via 5 echoes to prove
        // the snapshot is the one being read.
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 1);
        let payload = Bytes::from_static(b"frozen view");
        let d = digest(&payload);
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: 0,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        let _ = e.on_gossip(&send); // instance created at n=8
        e.bump_view(0..12).unwrap(); // view grows; instance must not care
        let mut actions = Vec::new();
        for w in 0..5u32 {
            let echo = GossipFrame {
                kind: GossipKind::Echo,
                witness: w,
                tag: t,
                digest: d,
                payload: payload.clone(),
            };
            actions.extend(e.on_gossip(&echo));
        }
        // 5 echo witnesses meet the snapshotted quorum of 5 → READY fires.
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Gossip(f) if f.kind == GossipKind::Ready)),
            "snapshot echo quorum (5) certified, not the current view's (7)"
        );
    }

    #[test]
    fn unsafe_view_refuses_new_instances_but_in_flight_deliver() {
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 1);
        let payload = Bytes::from_static(b"survives the dip");
        let d = digest(&payload);
        let echo = |w: u32| GossipFrame {
            kind: GossipKind::Echo,
            witness: w,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        let ready = |w: u32| GossipFrame {
            kind: GossipKind::Ready,
            witness: w,
            tag: t,
            digest: d,
            payload: Bytes::new(),
        };
        let _ = e.on_gossip(&echo(0)); // instance exists at epoch 0
        assert!(e.bump_view(0..3).is_err(), "3 < 3f+1 = 4");
        assert!(e.view_is_unsafe());
        assert_eq!(e.view().epoch, 1, "epoch advances even on refusal");

        // Originating is refused and surfaced as an error...
        assert!(e.broadcast(9, Bytes::new()).is_err());
        // ...and gossip for an unknown tag is dropped without state.
        let forged = GossipFrame {
            kind: GossipKind::Ready,
            witness: 2,
            tag: tag(5, 5),
            digest: 42,
            payload: Bytes::new(),
        };
        assert!(e.on_gossip(&forged).is_empty());
        assert_eq!(e.phase(tag(5, 5)), Phase::Init);
        assert_eq!(e.unsafe_refusals(), 2);

        // The in-flight instance still runs under its safe snapshot.
        let mut delivered = Vec::new();
        for w in [1u32, 2, 3] {
            for a in e.on_gossip(&ready(w)) {
                if let Action::Deliver(del) = a {
                    delivered.push(del);
                }
            }
        }
        assert_eq!(delivered.len(), 1, "pre-dip instance delivers");

        // A sound view restores service.
        e.bump_view([0, 1, 2, 6]).unwrap();
        assert!(!e.view_is_unsafe());
        assert!(e.broadcast(9, Bytes::new()).is_ok());
    }

    #[test]
    fn regossip_reemits_standing_votes_deterministically() {
        let mut e = BrachaEngine::new(0, cfg());
        let _ = e.broadcast(1, Bytes::from_static(b"mine")).unwrap();
        let first = e.regossip();
        // Origin re-emits its SEND and its ECHO for the instance.
        assert!(first
            .iter()
            .any(|a| matches!(a, Action::Gossip(f) if f.kind == GossipKind::Send)));
        assert!(first
            .iter()
            .any(|a| matches!(a, Action::Gossip(f) if f.kind == GossipKind::Echo)));
        assert!(
            !first
                .iter()
                .any(|a| matches!(a, Action::Gossip(f) if f.kind == GossipKind::Ready)),
            "no ready vote standing yet"
        );
        assert_eq!(first, e.regossip(), "emission is deterministic");

        // Once readied, the READY vote is re-emitted too.
        let t = tag(0, 1);
        let d = e.regossip().iter().find_map(|a| match a {
            Action::Gossip(f) if f.kind == GossipKind::Send => Some(f.digest),
            _ => None,
        });
        let d = d.unwrap();
        for w in [2u32, 3] {
            let _ = e.on_gossip(&GossipFrame {
                kind: GossipKind::Ready,
                witness: w,
                tag: t,
                digest: d,
                payload: Bytes::new(),
            });
        }
        assert!(e
            .regossip()
            .iter()
            .any(|a| matches!(a, Action::Gossip(f) if f.kind == GossipKind::Ready)));
    }
}
