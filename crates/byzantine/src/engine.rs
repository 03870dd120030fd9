//! The Bracha quorum state machine, independent of any transport.
//!
//! A [`BrachaEngine`] holds one quorum-tracking `Instance` per broadcast tag it has
//! heard about. Feed it gossip frames ([`BrachaEngine::on_gossip`]) and it
//! returns [`Action`]s: more gossip to flood, and at most one delivery per
//! instance. The engine never talks to a network — the sim flooder and
//! the TCP runtime both wrap this same type, so the protocol logic is
//! tested once and reused verbatim.
//!
//! Validation rules (the "signed-enough" model):
//!
//! * `SEND` is accepted only from its claimed origin
//!   (`witness == tag.origin`) and only when the carried payload matches
//!   the declared digest. A traitor can still equivocate — send different
//!   payloads to different neighbors — but cannot impersonate a correct
//!   origin.
//! * `ECHO` must carry a payload matching its digest (echoes re-carry the
//!   payload so late joiners can assemble it from any quorum member).
//! * `READY` carries no payload and is never rejected; it only counts as
//!   one witness vote.
//!
//! Frames the engine itself emits are absorbed back into its own state
//! before being returned, so the local node counts as a witness without
//! the caller having to loop frames back.

use std::collections::{BTreeSet, HashMap, VecDeque};

use bytes::Bytes;

use lhg_net::message::ByzTag;

use crate::frame::{digest, GossipFrame, GossipKind};
use crate::{BrachaConfig, UnsoundMembership};

/// An epoch-stamped membership view: the quorum parameters in force at a
/// particular point of the cluster's churn history.
///
/// The engine holds the *current* view and bumps it on every membership
/// change ([`BrachaEngine::bump_view`]); each broadcast instance snapshots
/// the view live when it is created and keeps it for its whole lifetime —
/// in-flight quorum accounting never resizes mid-instance, which would
/// silently weaken the intersection arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotone churn counter: 0 at boot, +1 per applied crash/join/sync.
    pub epoch: u64,
    /// Quorum parameters sized for this view's live membership.
    pub cfg: BrachaConfig,
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

/// What the caller must do with an engine result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Flood this frame to all overlay neighbors.
    Gossip(GossipFrame),
    /// Hand this payload to the application, exactly once per instance.
    Deliver(ByzDelivery),
}

/// One node's compact statement about one Bracha instance, served to a
/// rejoining node during catch-up: the phase the serving node reached, the
/// digest it committed to, and the payload when the server still holds it.
///
/// A summary is an *attestation*, not a command: the receiving engine
/// treats it as the serving witness's standing ECHO/READY votes
/// ([`BrachaEngine::ingest_summaries`]), so state only certifies once the
/// regular quorum thresholds are met across **distinct** attesting peers —
/// a lone traitor's forged summary is one voice, f short of every quorum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSummary {
    /// The broadcast instance being summarized.
    pub tag: ByzTag,
    /// Phase the serving node had reached for this instance.
    pub phase: Phase,
    /// Digest the serving node committed to (readied digest when it
    /// readied, else the echoed digest).
    pub digest: u64,
    /// The payload matching `digest` when the server holds it (re-validated
    /// by the ingesting side), empty otherwise.
    pub payload: Bytes,
}

/// Per-instance quorum state.
#[derive(Debug)]
struct Instance {
    /// The membership view snapshotted when this instance was created;
    /// every quorum threshold below reads from it, never from the
    /// engine's (possibly newer) current view.
    view: MembershipView,
    /// Payloads seen for this instance, keyed by their digest.
    payloads: HashMap<u64, Bytes>,
    /// Digest this node echoed, if any (first valid SEND wins).
    echoed: Option<u64>,
    /// Digest this node readied, if any.
    readied: Option<u64>,
    delivered: bool,
    /// Distinct echo witnesses per digest.
    echo_witnesses: HashMap<u64, BTreeSet<u32>>,
    /// Distinct ready witnesses per digest.
    ready_witnesses: HashMap<u64, BTreeSet<u32>>,
}

impl Instance {
    fn new(view: MembershipView) -> Self {
        Instance {
            view,
            payloads: HashMap::new(),
            echoed: None,
            readied: None,
            delivered: false,
            echo_witnesses: HashMap::new(),
            ready_witnesses: HashMap::new(),
        }
    }
}

/// One node's Bracha state across all broadcast instances it has seen.
#[derive(Debug)]
pub struct BrachaEngine {
    me: u32,
    /// The current membership view; snapshotted into each new instance.
    view: MembershipView,
    /// Set while the current view cannot support the traitor budget
    /// (n < 3f+1): new instances are refused until a sound view arrives.
    view_unsafe: bool,
    /// How many broadcasts / incoming instances were refused because the
    /// view was unsafe — the signal the chaos oracle's `QuorumUnsafe`
    /// check reads (via a metrics counter each transport exports).
    unsafe_refusals: u64,
    instances: HashMap<ByzTag, Instance>,
}

impl BrachaEngine {
    /// Engine for node `me` under quorum config `cfg` (view epoch 0).
    #[must_use]
    pub fn new(me: u32, cfg: BrachaConfig) -> Self {
        BrachaEngine {
            me,
            view: MembershipView { epoch: 0, cfg },
            view_unsafe: false,
            unsafe_refusals: 0,
            instances: HashMap::new(),
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
    pub fn view(&self) -> MembershipView {
        self.view
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

    /// The view snapshot instance `tag` is running under, if it exists.
    #[must_use]
    pub fn instance_view(&self, tag: ByzTag) -> Option<MembershipView> {
        self.instances.get(&tag).map(|i| i.view)
    }

    /// Installs a new membership view with live membership `n`: the epoch
    /// advances unconditionally, in-flight instances keep the view they
    /// snapshotted at creation, and *new* instances will size their
    /// quorums from `n`. The traitor budget `f` is a protocol constant —
    /// it came from the overlay's connectivity k, which healing preserves.
    ///
    /// # Errors
    ///
    /// Returns [`UnsoundMembership`] when `n < 3f + 1`: the view still
    /// advances but is marked unsafe, and the engine refuses to create
    /// instances (originations *and* incoming gossip for unknown tags)
    /// until a sound view is installed. Refusing is the safe failure mode:
    /// a quorum certified by fewer than 3f+1 members can be split by f
    /// traitors.
    pub fn bump_view(&mut self, n: usize) -> Result<MembershipView, UnsoundMembership> {
        self.view.epoch += 1;
        match BrachaConfig::new(n, self.view.cfg.f) {
            Ok(cfg) => {
                self.view.cfg = cfg;
                self.view_unsafe = false;
                Ok(self.view)
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
            Some(i) if i.delivered => Phase::Delivered,
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
        // The SEND itself must be flooded too — absorb only returns frames
        // the engine *reacts* with (the caller is assumed to have relayed
        // whatever it fed in, which for an origination is this frame).
        let mut out = vec![Action::Gossip(send.clone())];
        out.extend(self.absorb(send));
        Ok(out)
    }

    /// Re-emits this node's standing votes: the `SEND` of every instance it
    /// originated, plus its `ECHO`/`READY` for every instance it voted on.
    /// An anti-entropy pass for lossy links — peers that already hold these
    /// frames absorb them in their dedup sets, peers that missed the
    /// originals gain the lost votes. Instances are visited in tag order so
    /// the emission is deterministic across runs.
    #[must_use]
    pub fn regossip(&self) -> Vec<Action> {
        let mut tags: Vec<ByzTag> = self.instances.keys().copied().collect();
        tags.sort_unstable_by_key(|t| (t.origin, t.nonce));
        let mut out = Vec::new();
        for tag in tags {
            let inst = &self.instances[&tag];
            if tag.origin == self.me {
                if let Some(d) = inst.echoed {
                    if let Some(payload) = inst.payloads.get(&d) {
                        out.push(Action::Gossip(GossipFrame {
                            kind: GossipKind::Send,
                            witness: self.me,
                            tag,
                            digest: d,
                            payload: payload.clone(),
                        }));
                    }
                }
            }
            if let Some(d) = inst.echoed {
                if let Some(payload) = inst.payloads.get(&d) {
                    out.push(Action::Gossip(GossipFrame {
                        kind: GossipKind::Echo,
                        witness: self.me,
                        tag,
                        digest: d,
                        payload: payload.clone(),
                    }));
                }
            }
            if let Some(d) = inst.readied {
                out.push(Action::Gossip(GossipFrame {
                    kind: GossipKind::Ready,
                    witness: self.me,
                    tag,
                    digest: d,
                    payload: Bytes::new(),
                }));
            }
        }
        out
    }

    /// Exports this node's per-instance catch-up summaries, in tag order.
    ///
    /// Only instances this node actually *voted* on (phase ≥ Echoed) are
    /// exported — an instance it merely heard rumors about carries no
    /// attestation worth serving. The digest is the readied digest when one
    /// exists (the stronger commitment), else the echoed one; the payload
    /// rides along when it is still held for that digest.
    #[must_use]
    pub fn summaries(&self) -> Vec<InstanceSummary> {
        let mut tags: Vec<ByzTag> = self.instances.keys().copied().collect();
        tags.sort_unstable_by_key(|t| (t.origin, t.nonce));
        let mut out = Vec::new();
        for tag in tags {
            let inst = &self.instances[&tag];
            let Some(d) = inst.readied.or(inst.echoed) else {
                continue;
            };
            out.push(InstanceSummary {
                tag,
                phase: self.phase(tag),
                digest: d,
                payload: inst.payloads.get(&d).cloned().unwrap_or_default(),
            });
        }
        out
    }

    /// Ingests catch-up summaries served by peer `from`, translating each
    /// into that peer's standing votes: an ECHO when the summary carries a
    /// payload matching its digest (validated by the regular step rules),
    /// and a READY when the peer claims phase ≥ Readied. The votes run
    /// through the normal quorum machinery, so nothing certifies until f+1
    /// distinct peers corroborate a READY (amplification) and 2f+1 back a
    /// delivery — one forged summary set from a traitor moves nothing.
    pub fn ingest_summaries(&mut self, from: u32, items: &[InstanceSummary]) -> Vec<Action> {
        let mut out = Vec::new();
        for item in items {
            if from == self.me || item.phase < Phase::Echoed {
                continue;
            }
            // The peer's standing ECHO. step() re-validates payload-vs-digest
            // and drops mismatches, so a forged payload under a corroborated
            // digest dies here without poisoning the payload table.
            out.extend(self.absorb(GossipFrame {
                kind: GossipKind::Echo,
                witness: from,
                tag: item.tag,
                digest: item.digest,
                payload: item.payload.clone(),
            }));
            if item.phase >= Phase::Readied {
                out.extend(self.absorb(GossipFrame {
                    kind: GossipKind::Ready,
                    witness: from,
                    tag: item.tag,
                    digest: item.digest,
                    payload: Bytes::new(),
                }));
            }
        }
        out
    }

    /// Processes one incoming gossip frame; returns frames to flood and
    /// any delivery it unlocked.
    pub fn on_gossip(&mut self, frame: &GossipFrame) -> Vec<Action> {
        self.absorb(frame.clone())
    }

    /// Runs `first` plus every frame it causes this node to emit, until
    /// the local cascade settles.
    fn absorb(&mut self, first: GossipFrame) -> Vec<Action> {
        let mut out = Vec::new();
        let mut queue = VecDeque::from([first]);
        while let Some(frame) = queue.pop_front() {
            for action in self.step(&frame) {
                if let Action::Gossip(f) = &action {
                    queue.push_back(f.clone());
                }
                out.push(action);
            }
        }
        out
    }

    /// `digest(frame.payload) == frame.digest`, without hashing when the
    /// answer is already known: a payload held under `frame.digest` was
    /// hashed when it was stored, so bytes equal to it hash the same. Every
    /// ECHO after the first re-carries that payload, which makes the common
    /// case a comparison; anything else is hashed as before, so exactly the
    /// same frames are accepted.
    fn payload_matches_digest(&self, frame: &GossipFrame) -> bool {
        let held = (self.instances.get(&frame.tag)).and_then(|i| i.payloads.get(&frame.digest));
        held.is_some_and(|p| *p == frame.payload) || digest(&frame.payload) == frame.digest
    }

    /// Applies a single frame to local state. Emitted gossip is NOT yet
    /// absorbed — [`Self::absorb`] loops it back.
    fn step(&mut self, frame: &GossipFrame) -> Vec<Action> {
        // Validate before touching state.
        let carries_payload = match frame.kind {
            GossipKind::Send => {
                if frame.witness != frame.tag.origin || !self.payload_matches_digest(frame) {
                    return Vec::new();
                }
                true
            }
            GossipKind::Echo => {
                if !self.payload_matches_digest(frame) {
                    return Vec::new();
                }
                true
            }
            GossipKind::Ready => false,
        };

        // A frame for an unknown instance creates it under the *current*
        // view — unless that view is unsafe, in which case the frame is
        // refused outright (in-flight instances keep working under their
        // own snapshots).
        if !self.instances.contains_key(&frame.tag) {
            if self.view_unsafe {
                self.unsafe_refusals += 1;
                return Vec::new();
            }
            self.instances.insert(frame.tag, Instance::new(self.view));
        }

        let me = self.me;
        let inst = self
            .instances
            .get_mut(&frame.tag)
            .expect("instance inserted above");
        // Quorum thresholds come from the instance's snapshotted view, not
        // the engine's current one: churn after origination must not move
        // the goalposts of an in-flight quorum count.
        let echo_quorum = inst.view.cfg.echo_quorum();
        let ready_amplify = inst.view.cfg.ready_amplify();
        let delivery_quorum = inst.view.cfg.delivery_quorum();
        if carries_payload {
            inst.payloads
                .entry(frame.digest)
                .or_insert_with(|| frame.payload.clone());
        }
        match frame.kind {
            GossipKind::Send => {}
            GossipKind::Echo => {
                inst.echo_witnesses
                    .entry(frame.digest)
                    .or_default()
                    .insert(frame.witness);
            }
            GossipKind::Ready => {
                inst.ready_witnesses
                    .entry(frame.digest)
                    .or_default()
                    .insert(frame.witness);
            }
        }

        let mut actions = Vec::new();

        // Echo the first valid SEND for this instance.
        if frame.kind == GossipKind::Send && inst.echoed.is_none() {
            inst.echoed = Some(frame.digest);
            actions.push(Action::Gossip(GossipFrame {
                kind: GossipKind::Echo,
                witness: me,
                tag: frame.tag,
                digest: frame.digest,
                payload: frame.payload.clone(),
            }));
        }

        // Ready on echo quorum or ready amplification, once.
        if inst.readied.is_none() {
            let ready_digest = inst
                .echo_witnesses
                .iter()
                .find(|(_, w)| w.len() >= echo_quorum)
                .or_else(|| {
                    inst.ready_witnesses
                        .iter()
                        .find(|(_, w)| w.len() >= ready_amplify)
                })
                .map(|(&d, _)| d);
            if let Some(d) = ready_digest {
                inst.readied = Some(d);
                actions.push(Action::Gossip(GossipFrame {
                    kind: GossipKind::Ready,
                    witness: me,
                    tag: frame.tag,
                    digest: d,
                    payload: Bytes::new(),
                }));
            }
        }

        // Deliver on ready quorum, once, as soon as the payload is known.
        if !inst.delivered {
            let decided = inst
                .ready_witnesses
                .iter()
                .find(|(_, w)| w.len() >= delivery_quorum)
                .map(|(&d, _)| d);
            if let Some(d) = decided {
                if let Some(payload) = inst.payloads.get(&d) {
                    inst.delivered = true;
                    actions.push(Action::Deliver(ByzDelivery {
                        tag: frame.tag,
                        digest: d,
                        payload: payload.clone(),
                    }));
                }
            }
        }

        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn instances_snapshot_the_view_at_creation_and_never_mix() {
        let mut e = BrachaEngine::new(0, cfg());
        assert_eq!(e.view().epoch, 0);
        let _ = e.broadcast(1, Bytes::from_static(b"pre-churn")).unwrap();
        let before = e.instance_view(tag(0, 1)).unwrap();
        assert_eq!((before.epoch, before.cfg.n), (0, 8));

        // A member crashes: the view bumps to n=7, but the in-flight
        // instance keeps its origin snapshot.
        e.bump_view(7).unwrap();
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
        e.bump_view(12).unwrap(); // view grows; instance must not care
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
        assert!(e.bump_view(3).is_err(), "3 < 3f+1 = 4");
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
        e.bump_view(4).unwrap();
        assert!(!e.view_is_unsafe());
        assert!(e.broadcast(9, Bytes::new()).is_ok());
    }

    #[test]
    fn summaries_export_voted_instances_in_tag_order() {
        let mut e = BrachaEngine::new(0, cfg());
        let _ = e.broadcast(2, Bytes::from_static(b"two")).unwrap();
        let _ = e.broadcast(1, Bytes::from_static(b"one")).unwrap();
        // An instance it only heard a READY rumor about is not exported.
        let _ = e.on_gossip(&GossipFrame {
            kind: GossipKind::Ready,
            witness: 4,
            tag: tag(3, 9),
            digest: 42,
            payload: Bytes::new(),
        });
        let s = e.summaries();
        assert_eq!(s.len(), 2, "rumor-only instance not exported");
        assert_eq!(s[0].tag, tag(0, 1));
        assert_eq!(s[1].tag, tag(0, 2));
        assert_eq!(s[0].phase, Phase::Echoed);
        assert_eq!(s[0].digest, digest(b"one"));
        assert_eq!(s[0].payload, Bytes::from_static(b"one"));
    }

    #[test]
    fn corroborated_summaries_deliver_a_missed_instance() {
        // A rejoiner at n=8, f=1 ingests summaries from 3 = 2f+1 distinct
        // correct peers, all attesting Delivered on the same digest. Their
        // READY votes meet the delivery quorum and the payload arrives via
        // their ECHOs — the rejoiner converges without any live gossip.
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 1);
        let payload = Bytes::from_static(b"missed while dead");
        let item = InstanceSummary {
            tag: t,
            phase: Phase::Delivered,
            digest: digest(&payload),
            payload: payload.clone(),
        };
        let mut delivered = Vec::new();
        for peer in [0u32, 1, 2] {
            for a in e.ingest_summaries(peer, std::slice::from_ref(&item)) {
                if let Action::Deliver(d) = a {
                    delivered.push(d);
                }
            }
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, payload);
        assert_eq!(e.phase(t), Phase::Delivered);
        // Re-ingesting the same peers' summaries is idempotent.
        assert!(e
            .ingest_summaries(0, std::slice::from_ref(&item))
            .is_empty());
    }

    #[test]
    fn forged_summary_from_one_traitor_moves_nothing() {
        // A lone traitor serves a summary claiming a fabricated instance
        // was Delivered. That is one ECHO + one READY vote — f short of
        // amplification, 2f short of delivery. The rejoiner must neither
        // ready nor deliver it, and a digest-mismatched payload must not
        // even enter the payload table.
        let mut e = BrachaEngine::new(6, cfg());
        let t = tag(0, 0xF00D);
        let forged = InstanceSummary {
            tag: t,
            phase: Phase::Delivered,
            digest: digest(b"the majority never saw this"),
            payload: Bytes::from_static(b"the majority never saw this"),
        };
        let actions = e.ingest_summaries(5, std::slice::from_ref(&forged));
        assert!(deliveries_of(&actions).is_empty());
        assert_eq!(e.phase(t), Phase::Init, "one vote certifies nothing");

        // A mismatched payload under an honest-looking digest is dropped at
        // validation: only the READY vote lands.
        let lying = InstanceSummary {
            tag: tag(0, 0xBEEF),
            phase: Phase::Delivered,
            digest: digest(b"real value"),
            payload: Bytes::from_static(b"swapped value"),
        };
        let actions = e.ingest_summaries(5, std::slice::from_ref(&lying));
        assert!(deliveries_of(&actions).is_empty());
        assert_eq!(e.phase(tag(0, 0xBEEF)), Phase::Init);
    }

    #[test]
    fn summary_ingest_respects_unsafe_views() {
        let mut e = BrachaEngine::new(6, cfg());
        assert!(e.bump_view(3).is_err());
        let item = InstanceSummary {
            tag: tag(0, 1),
            phase: Phase::Delivered,
            digest: digest(b"x"),
            payload: Bytes::from_static(b"x"),
        };
        assert!(e
            .ingest_summaries(1, std::slice::from_ref(&item))
            .is_empty());
        assert_eq!(e.phase(tag(0, 1)), Phase::Init, "unsafe view refuses");
        assert!(e.unsafe_refusals() > 0);
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
