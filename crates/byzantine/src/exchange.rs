//! Bracha votes as per-link set-union deltas, sans-IO.
//!
//! [`VoteExchange`] owns a node's [`BrachaEngine`] and one small table per
//! link, and is the only thing a driver talks to for Byzantine broadcast:
//! the simulator's [`crate::sim::ByzantineFlooder`] and the TCP runtime's
//! node core both feed it frames and send what it appends to their sink. Like
//! [`lhg_net::reliable::ReliableCore`] it has no socket, timer or counter
//! inside — the driver's ordered peers are an argument — and, unlike it, no
//! clock either: what paces it is the frames it receives. It counts votes;
//! relaying is the driver's.
//!
//! Flooding every vote is what made a broadcast cost 2n+1 floods. Here a
//! broadcast is **one** pass of the payload down a tree, plus an exchange
//! of witness bitmaps between neighbors that carries each bit over each
//! link at most once and stops as soon as the neighbor can no longer use
//! it:
//!
//! 1. **SEND rides the eager tree.** The origin's payload-carrying
//!    [`GossipFrame`] goes to every neighbor. The driver relays it as it
//!    relays its other frames: a node that sees its id for the first time
//!    passes it on, before validating it, to its children in the origin's
//!    BFS tree on the driver's replica, or to every link when the replica
//!    cannot place the origin. It hands the exchange a `SEND` only when it
//!    is a first copy or one the engine wants
//!    ([`BrachaEngine::wants_payload`]). So the payload crosses each node
//!    once, in n − 1 frames. What a lost tree edge or a mute relay keeps
//!    from a subtree, rule 5's repair brings back.
//! 2. **ECHO and READY are bits.** A vote is a member id in a
//!    [`WitnessSet`] of the engine; nothing else.
//! 3. **Per link, `has`** is the union of the bits that peer has sent and
//!    the bits sent to it. A [`VotesFrame`] to a peer carries, per
//!    `(instance, digest)`, only `known & !has` — capped by what the peer
//!    can still use: nothing once it is known to hold 2f+1 readies; at most
//!    as many readies as complete its 2f+1; no echoes once it holds the
//!    echo quorum, or will hold f+1 readies after this frame (it then
//!    readies by amplification and the echoes are redundant).
//! 4. **Readies leave at once, echoes wait their turn.** A delta containing
//!    a ready is sent immediately, with everything else pending on that
//!    link. An echo-only delta is sent only while no earlier frame to that
//!    peer is unanswered: a non-empty frame sent on an idle link asks for an
//!    answer (`req`), the echoes that become pending meanwhile wait, and the
//!    peer's answer (`ack`) — its own pending delta, or an empty frame —
//!    lets them go, all in one frame, which then asks in turn. So a link
//!    carries one frame per direction per round trip however many echoes
//!    arrive, which is what coalesces n echoes into a few frames, and the
//!    wait adapts to the link with no timer and no constant. Two nodes that
//!    ask each other at once would start two conversations on one link; the
//!    one with the higher id answers only after it has been answered, and
//!    the two merge. Every ask is answered and an empty answer asks
//!    nothing, so the exchange stops when the news does; an answer that is
//!    lost stalls only that link's echoes, and only until the next repair
//!    round.
//! 5. **Repair terminates.** At the driver's cadence
//!    ([`VoteExchange::repair`]) a node *declares* to each peer its full
//!    sets for every instance not yet settled toward it. The receiver
//!    replaces `has` with the declaration, answers what is missing through
//!    rule 3, and — when nothing is and it has delivered — shows its
//!    certificate. An instance is **settled** toward a peer once a frame
//!    from that peer showed the 2f+1 readies of the delivered digest; an
//!    instance that cannot settle (a forgery stuck short of every quorum, a
//!    mute peer) is offered `max_offers` times and then left alone until
//!    the peer says something new about it. This is also the `SEND`'s lazy
//!    repair: a declared digest whose payload the node lacks asks for it
//!    (`want_payload`), so one round asks every peer the instance is
//!    declared to, under the same bound, and a peer that holds the
//!    origin's `SEND` answers with it. The driver relays the answer like
//!    any first copy, so the tree resumes below the edge that lost it. A
//!    link that goes down or comes up forgets its table
//!    ([`VoteExchange::reset_link`]), so a replaced link or a rejoiner is
//!    offered everything again.
//!
//! Why the caps and the tree keep Totality: a correct node that holds 2f+1
//! readies hands a full certificate to every neighbor not known to hold
//! one, a node that holds f+1 hands those on and their receiver readies by
//! amplification, and removing f traitors leaves the correct subgraph of a
//! k-connected overlay connected — so a certificate anywhere reaches every
//! correct node, whatever was capped on the way. A correct node that
//! delivered holds the payload, and a node that lacks it asks all its
//! neighbors at once: it has at least k ≥ 2f+1 of them, so each round asks
//! at least f+1 correct ones, and no traitor can be the only one asked.
//! The answered copy carries on down its subtree. So the payload, too,
//! reaches every correct node over that connected subgraph, however many
//! tree edges a traitor or a lossy link broke: the tree saves the copies,
//! the repair keeps the k paths. What a relay cannot do is unchanged from
//! the flooded protocol: a witness *bit* for a member is as unforgeable as
//! a relayed frame's `witness` field was (DESIGN §11.1), and a bit for a
//! non-member counts for nothing. A node still echoes only the first
//! `SEND` it sees, so relaying fewer copies changes no safety argument.

use std::collections::BTreeMap;

use bytes::Bytes;

use lhg_net::message::{ByzTag, Message};
use lhg_net::reliable::Sends;

use crate::engine::{Action, BrachaEngine, ByzDelivery, MembershipView, Votes};
use crate::frame::{GossipFrame, GossipKind, VoteEntry, VotesFrame};
use crate::witness::WitnessSet;
use crate::{BrachaConfig, UnsoundMembership};

/// Where an instance stands toward one peer in the repair rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// Declared this many times since the peer last said something new.
    Offered(u32),
    /// The peer has shown the delivered digest's certificate.
    Settled,
}

/// What this node knows about one neighbor.
#[derive(Debug, Default)]
struct Link {
    /// Votes the peer holds: those it sent and those sent to it.
    has: BTreeMap<(ByzTag, u64), Votes>,
    /// Instances that may have something pending for this peer
    /// ([`add_tags`]).
    dirty: Vec<ByzTag>,
    /// Instances the peer declared in full: it is owed an answer, a shown
    /// certificate if nothing else ([`add_tags`]).
    owed: Vec<ByzTag>,
    /// This node asked the peer for an answer and has not had it:
    /// echo-only deltas wait.
    awaiting: bool,
    /// The peer asked for an answer and has not had one. A node that is
    /// itself `awaiting` puts the answer off if the peer outranks it (has
    /// the lower `id`), so that two asks that crossed become one
    /// conversation.
    asked: bool,
    /// The peer's member id, as its `VOTES` frames name it.
    id: Option<u32>,
    repair: BTreeMap<ByzTag, Repair>,
}

/// Adds `tags` to a set of instances kept as a `Vec` — ascending and without
/// repeats, the order a `BTreeSet` iterates in — whose capacity outlives its
/// contents.
fn add_tags(set: &mut Vec<ByzTag>, tags: impl IntoIterator<Item = ByzTag>) {
    set.extend(tags);
    set.sort_unstable();
    set.dedup();
}

/// The most entries or instances a reused buffer keeps room for once it is
/// emptied. An honest frame is far smaller; a hostile one (up to 65,535
/// entries) must not pin its size for the node's lifetime.
const KEPT_CAPACITY: usize = 1024;

/// How many sent `VOTES` payloads an exchange keeps to encode later frames
/// into: one for each link a wake-up may write to before the driver lets
/// go of any, with room to spare.
const SENT_KEPT: usize = 8;

/// Empties a reused buffer, keeping at most [`KEPT_CAPACITY`] of its room.
fn empty<T>(buf: &mut Vec<T>) {
    buf.clear();
    buf.shrink_to(KEPT_CAPACITY);
}

/// What the pending delta of one instance toward one peer contains.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Nothing,
    Echoes,
    Readies,
}

/// The sans-IO vote exchange; see the module docs. `P` names a neighbor.
#[derive(Debug)]
pub struct VoteExchange<P> {
    engine: BrachaEngine,
    links: BTreeMap<P, Link>,
    max_offers: u32,
    /// Reused scratch: the engine's reactions to one input, the driver's
    /// peers for one transition, the instances one input touched, the
    /// instances being declared (by the frame being read, or to one peer in
    /// a repair round; empty between uses), the frame being read and the
    /// frame being built, and the payloads of the last frames sent — the
    /// next is encoded into one of theirs that the driver has let go of.
    actions: Vec<Action>,
    peers: Vec<P>,
    touched: Vec<ByzTag>,
    declared: Vec<ByzTag>,
    inbox: VotesFrame,
    outgoing: VotesFrame,
    sent: Vec<Bytes>,
}

impl<P: Copy + Ord> VoteExchange<P> {
    /// An exchange for node `me` under quorum config `cfg`. `max_offers`
    /// bounds how often an instance is declared to a peer that has nothing
    /// to say about it (`ReliableConfig::max_retries` in both drivers).
    #[must_use]
    pub fn new(me: u32, cfg: BrachaConfig, max_offers: u32) -> Self {
        VoteExchange {
            engine: BrachaEngine::new(me, cfg),
            links: BTreeMap::new(),
            max_offers,
            actions: Vec::new(),
            peers: Vec::new(),
            touched: Vec::new(),
            declared: Vec::new(),
            inbox: VotesFrame::default(),
            outgoing: VotesFrame::default(),
            sent: Vec::with_capacity(SENT_KEPT),
        }
    }

    /// The quorum state machine (read-only: every input goes through the
    /// exchange so the links hear about it).
    #[must_use]
    pub fn engine(&self) -> &BrachaEngine {
        &self.engine
    }

    /// [`BrachaEngine::bump_view`].
    ///
    /// # Errors
    ///
    /// [`UnsoundMembership`] when `members` cannot carry the traitor budget.
    pub fn bump_view(
        &mut self,
        members: impl IntoIterator<Item = u32>,
    ) -> Result<&MembershipView, UnsoundMembership> {
        self.engine.bump_view(members)
    }

    /// Forgets everything known about the link to `peer` — call it when the
    /// link goes down and when one comes up. Whoever is at the other end
    /// next is offered every instance again.
    pub fn reset_link(&mut self, peer: P) {
        self.links.remove(&peer);
    }

    /// Whether instance `tag` is settled toward `peer`.
    #[must_use]
    pub fn is_settled(&self, peer: P, tag: ByzTag) -> bool {
        (self.links.get(&peer)).is_some_and(|l| l.repair.get(&tag) == Some(&Repair::Settled))
    }

    /// Originates a broadcast: sends the `SEND` to `peers` — the root's
    /// children in its own tree are all its links — and queues this node's
    /// echo for them. Returns the `SEND`'s broadcast id, for the driver's
    /// seen-set: a copy that comes back is not relayed again.
    ///
    /// # Errors
    ///
    /// [`UnsoundMembership`] when the current view is unsafe; nothing was
    /// sent.
    pub fn broadcast(
        &mut self,
        nonce: u64,
        payload: Bytes,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
        delivered: &mut Vec<ByzDelivery>,
    ) -> Result<u64, UnsoundMembership> {
        self.begin(peers);
        let actions = self.engine.broadcast(nonce, payload)?;
        let mut id = 0;
        for action in &actions {
            if let Action::Gossip(frame) = action {
                if frame.kind == GossipKind::Send {
                    let msg = frame.to_message();
                    id = msg.broadcast_id;
                    out.extend(self.peers.iter().map(|&p| (p, msg.clone())));
                }
                self.touched.push(frame.tag);
            }
        }
        self.actions.extend(actions);
        self.finish(out, delivered);
        Ok(id)
    }

    /// Handles one byz-class frame from the link to `from`: a `VOTES` frame
    /// or a `SEND` the driver has relayed already and hands on only as a
    /// first copy or one the engine wants (rule 1 of the module docs).
    /// Anything else — the frame form of a single vote included, which no
    /// node sends — is dropped. Returns how many votes were refused: those
    /// naming a non-member, and those that came as frames.
    pub fn on_frame(
        &mut self,
        from: P,
        msg: &Message,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
        delivered: &mut Vec<ByzDelivery>,
    ) -> u64 {
        self.begin(peers);
        let mut rejected = 0;
        let votes = self.inbox.read_from(msg, self.engine.roster_bound());
        if votes {
            rejected = self.on_votes(from, msg.origin, out);
        }
        // Read whole or refused part way, a hostile frame pins none of its size.
        empty(&mut self.inbox.entries);
        if let Some(frame) = (!votes).then(|| GossipFrame::from_message(msg)).flatten() {
            if frame.kind != GossipKind::Send {
                return 1;
            }
            let absorbed = self.engine.absorb_frame(&frame, &mut self.actions);
            rejected = absorbed.rejected;
            if absorbed.changed {
                self.touched.push(frame.tag);
            }
        }
        self.finish(out, delivered);
        rejected
    }

    /// One repair round; see rule 5 of the module docs. One frame per
    /// peer, in peer order: its declaration, which asks for every declared
    /// digest whose payload this node lacks.
    pub fn repair(&mut self, peers: impl IntoIterator<Item = P>, out: &mut Sends<P>) {
        self.begin(peers);
        self.peers.sort_unstable();
        self.peers.dedup();
        let me = self.engine.id();
        for &peer in &self.peers {
            let link = self.links.entry(peer).or_default();
            // An answer that is not back a repair period later was lost.
            link.awaiting = false;
            let entries = &mut self.outgoing.entries;
            (self.declared).extend(Self::offers(&self.engine, self.max_offers, Some(&*link)));
            for &tag in &self.declared {
                for (digest, known) in self.engine.votes(tag).filter(|(_, v)| !v.is_empty()) {
                    // The peer holds what it is told, loss aside — and loss
                    // is what its own declaration corrects.
                    let has = link.has.entry((tag, digest)).or_default();
                    has.echo.union_with(&known.echo);
                    has.ready.union_with(&known.ready);
                    entries.push(VoteEntry {
                        full: true,
                        want_payload: self.engine.wants_payload(tag, digest),
                        ..VoteEntry::delta(tag, digest, known.echo.clone(), known.ready.clone())
                    });
                }
                let offered = link.repair.entry(tag).or_insert(Repair::Offered(0));
                if let Repair::Offered(n) = offered {
                    *n += 1;
                }
            }
            empty(&mut self.declared);
            Self::post(me, peer, link, &mut self.outgoing, &mut self.sent, out);
        }
    }

    /// Whether another [`Self::repair`] round toward `peers` would send
    /// anything: a driver whose repair timer is its only pending event may
    /// stop re-arming it once this is `false`.
    pub fn repair_pending(&mut self, peers: impl IntoIterator<Item = P>) -> bool {
        self.begin(peers);
        (self.peers.iter()).any(|p| {
            let link = self.links.get(p);
            Self::offers(&self.engine, self.max_offers, link)
                .next()
                .is_some()
        })
    }

    /// The instances the next repair round declares to `link`'s peer, in
    /// tag order: those with votes, not settled toward the peer, and
    /// declared to it fewer than `max_offers` times since the peer last said
    /// something new about them.
    fn offers<'a>(
        engine: &'a BrachaEngine,
        max_offers: u32,
        link: Option<&'a Link>,
    ) -> impl Iterator<Item = ByzTag> + 'a {
        (engine.tags()).filter(move |&tag| {
            let offered = match link.and_then(|l| l.repair.get(&tag)) {
                Some(Repair::Settled) => return false,
                Some(&Repair::Offered(n)) => n,
                None => 0,
            };
            offered < max_offers && engine.votes(tag).any(|(_, v)| !v.is_empty())
        })
    }

    /// Starts a transition: remembers the driver's peers, in its order.
    fn begin(&mut self, peers: impl IntoIterator<Item = P>) {
        self.peers.clear();
        self.peers.extend(peers);
        empty(&mut self.touched);
        empty(&mut self.actions);
    }

    /// The `VOTES` frame in `inbox`, from `from`: its bits into `has` and
    /// the engine, its declarations and payload requests answered.
    fn on_votes(&mut self, from: P, sender: u32, out: &mut Sends<P>) -> u64 {
        let frame = &self.inbox;
        let link = self.links.entry(from).or_default();
        link.awaiting &= !frame.ack;
        link.asked |= frame.req;
        link.id = Some(sender);
        // A declaration replaces what was believed, per instance.
        let declared = &mut self.declared;
        declared.extend((frame.entries.iter().filter(|e| e.full)).map(|e| e.tag));
        if !declared.is_empty() {
            declared.sort_unstable();
            declared.dedup();
            link.has
                .retain(|(tag, _), _| declared.binary_search(tag).is_err());
            add_tags(&mut link.owed, declared.iter().copied());
            add_tags(&mut link.dirty, declared.iter().copied());
        }
        empty(declared);
        let mut rejected = 0;
        for e in &frame.entries {
            if !(e.echo.is_empty() && e.ready.is_empty()) {
                let has = link.has.entry((e.tag, e.digest)).or_default();
                has.echo.union_with(&e.echo);
                has.ready.union_with(&e.ready);
            }
            let absorbed =
                (self.engine).absorb_votes(e.tag, e.digest, &e.echo, &e.ready, &mut self.actions);
            rejected += absorbed.rejected;
            if absorbed.changed {
                self.touched.push(e.tag);
            }
            if !e.full {
                // News about the instance: it is worth declaring again.
                if let Some(Repair::Offered(n)) = link.repair.get_mut(&e.tag) {
                    *n = 0;
                }
            }
            let quorum = self
                .engine
                .instance_view(e.tag)
                .map(|v| v.cfg.delivery_quorum());
            if self.engine.delivered_digest(e.tag) == Some(e.digest)
                && quorum.is_some_and(|q| e.ready.len() >= q)
            {
                link.repair.insert(e.tag, Repair::Settled);
            }
            if let Some(send) = (self.engine.send_frame(e.tag, e.digest)).filter(|_| e.want_payload)
            {
                out.push((from, send.to_message()));
            }
        }
        rejected
    }

    /// Ends a transition: deliveries to the driver, the touched instances
    /// marked pending on every link, and every link pumped by rule 4.
    fn finish(&mut self, out: &mut Sends<P>, delivered: &mut Vec<ByzDelivery>) {
        for action in self.actions.drain(..) {
            // This node's own votes are already bits in the engine's sets.
            if let Action::Deliver(d) = action {
                delivered.push(d);
            }
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        let touched = &self.touched;
        let me = self.engine.id();
        for &peer in &self.peers {
            let link = self.links.entry(peer).or_default();
            add_tags(&mut link.dirty, touched.iter().copied());
            let due = (link.dirty.iter())
                .map(|&tag| Self::due(&self.engine, link, tag))
                .max()
                .unwrap_or(Due::Nothing);
            let outranked = link.id.is_some_and(|id| id < me);
            let answer = link.asked && !(link.awaiting && outranked);
            if answer
                || !link.owed.is_empty()
                || due == Due::Readies
                || (due == Due::Echoes && !link.awaiting)
            {
                let (frame, sent) = (&mut self.outgoing, &mut self.sent);
                Self::flush(&self.engine, me, peer, link, frame, sent, out);
            } else if due == Due::Nothing {
                empty(&mut link.dirty);
            }
        }
    }

    /// The capped thresholds of rule 3 for one instance.
    fn caps(engine: &BrachaEngine, tag: ByzTag) -> Option<(usize, usize, usize)> {
        let cfg = engine.instance_view(tag)?.cfg;
        Some((
            cfg.echo_quorum(),
            cfg.ready_amplify(),
            cfg.delivery_quorum(),
        ))
    }

    /// What rule 3 would send `link`'s peer for `tag`, without building it.
    fn due(engine: &BrachaEngine, link: &Link, tag: ByzTag) -> Due {
        let Some((echo_quorum, amplify, delivery)) = Self::caps(engine, tag) else {
            return Due::Nothing;
        };
        let none = Votes::default();
        let mut due = Due::Nothing;
        for (digest, known) in engine.votes(tag) {
            let has = link.has.get(&(tag, digest)).unwrap_or(&none);
            let held = has.ready.len();
            if held >= delivery {
                continue;
            }
            if known.ready.count_outside(&has.ready) > 0 {
                return Due::Readies;
            }
            if has.echo.len() < echo_quorum
                && held < amplify
                && known.echo.count_outside(&has.echo) > 0
            {
                due = Due::Echoes;
            }
        }
        due
    }

    /// Builds in `frame` and sends everything pending for `link`'s peer:
    /// rule 3's capped delta for each dirty instance, and for a declared
    /// instance with nothing left to add, the certificate it is owed.
    fn flush(
        engine: &BrachaEngine,
        me: u32,
        peer: P,
        link: &mut Link,
        frame: &mut VotesFrame,
        sent: &mut Vec<Bytes>,
        out: &mut Sends<P>,
    ) {
        let owed = &link.owed;
        for &tag in &link.dirty {
            let Some((echo_quorum, amplify, delivery)) = Self::caps(engine, tag) else {
                continue;
            };
            let before = frame.entries.len();
            // The answer to a declaration is not capped. The caps guess what
            // the peer can use from what it was *sent*; a peer whose roster
            // differs (a member it falsely suspects) drops some of that, and
            // capping to the same lowest ids again would starve it. What it
            // declared is what it counted.
            let capped = owed.binary_search(&tag).is_err();
            for (digest, known) in engine.votes(tag) {
                let has = link.has.entry((tag, digest)).or_default();
                let held = has.ready.len();
                if held >= delivery {
                    continue;
                }
                let mut ready = known.ready.clone();
                ready.subtract(&has.ready);
                if capped {
                    ready.keep_lowest(delivery - held);
                }
                let mut echo = WitnessSet::new();
                let redundant = has.echo.len() >= echo_quorum || held + ready.len() >= amplify;
                if !(capped && redundant) {
                    echo = known.echo.clone();
                    echo.subtract(&has.echo);
                }
                if echo.is_empty() && ready.is_empty() {
                    continue;
                }
                has.echo.union_with(&echo);
                has.ready.union_with(&ready);
                frame
                    .entries
                    .push(VoteEntry::delta(tag, digest, echo, ready));
            }
            let certificate = engine
                .delivered_digest(tag)
                .filter(|_| frame.entries.len() == before && !capped);
            if let Some(digest) = certificate {
                let known = engine.votes(tag).find(|&(d, _)| d == digest);
                let mut ready = known.map(|(_, v)| v.ready.clone()).unwrap_or_default();
                ready.keep_lowest(delivery);
                let shown = VoteEntry::delta(tag, digest, WitnessSet::new(), ready);
                frame.entries.push(shown);
            }
        }
        empty(&mut link.owed);
        empty(&mut link.dirty);
        Self::post(me, peer, link, frame, sent, out);
    }

    /// Sends `frame` to `link`'s peer as the next turn of their
    /// conversation: it answers if the peer asked, it asks if it says
    /// something and nothing is being waited for, and it is not sent at all
    /// if it does neither. Its entries are cleared either way.
    fn post(
        me: u32,
        peer: P,
        link: &mut Link,
        frame: &mut VotesFrame,
        sent: &mut Vec<Bytes>,
        out: &mut Sends<P>,
    ) {
        frame.ack = std::mem::take(&mut link.asked);
        frame.req = !frame.entries.is_empty() && !link.awaiting;
        link.awaiting |= frame.req;
        if frame.ack || !frame.entries.is_empty() {
            let msg = frame.to_message_reusing(me, sent, SENT_KEPT);
            out.push((peer, msg));
        }
        empty(&mut frame.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::digest;
    use lhg_net::seen::SeenSet;
    use std::collections::VecDeque;
    use std::time::{Duration, Instant};

    const MAX_OFFERS: u32 = 3;

    fn tag(origin: u32, nonce: u64) -> ByzTag {
        ByzTag { origin, nonce }
    }

    fn set(ids: &[u32]) -> WitnessSet {
        ids.iter().copied().collect()
    }

    fn delta(tag: ByzTag, digest: u64, echo: &[u32], ready: &[u32]) -> VoteEntry {
        VoteEntry::delta(tag, digest, set(echo), set(ready))
    }

    fn frames_to(sends: &Sends<u32>, peer: u32) -> Vec<VotesFrame> {
        (sends.iter().filter(|(to, _)| *to == peer))
            .filter_map(|(_, m)| VotesFrame::from_message(m, 64))
            .collect()
    }

    fn votes_to(sends: &Sends<u32>, peer: u32) -> Vec<VoteEntry> {
        (frames_to(sends, peer).into_iter())
            .flat_map(|f| f.entries)
            .collect()
    }

    /// What a driver does with a byz frame from `from` (rule 1): a
    /// first-seen `SEND` goes on to `kids` other than `from`, and the
    /// exchange hears a `SEND` only as a first copy or one its engine wants.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        x: &mut VoteExchange<u32>,
        seen: &mut SeenSet,
        from: u32,
        msg: &Message,
        peers: &[u32],
        kids: &[u32],
        out: &mut Sends<u32>,
        delivered: &mut Vec<ByzDelivery>,
    ) -> u64 {
        let send = GossipFrame::from_message(msg).filter(|f| f.kind == GossipKind::Send);
        if let Some(f) = send {
            if seen.insert(msg.broadcast_id) {
                let fwd = msg.forwarded();
                out.extend(
                    (kids.iter())
                        .filter(|&&p| p != from)
                        .map(|&p| (p, fwd.clone())),
                );
            } else if !x.engine().wants_payload(f.tag, f.digest) {
                return 0; // another copy, over another disjoint path
            }
        }
        x.on_frame(from, msg, peers.iter().copied(), out, delivered)
    }

    /// Node 6 of 8 (f = 1: echo quorum 5, amplification 2, delivery 3) with
    /// peers 1, 2 and 7, and what it sent in answer to its last input.
    struct Node6 {
        x: VoteExchange<u32>,
        seen: SeenSet,
        out: Sends<u32>,
        delivered: Vec<ByzDelivery>,
    }

    impl Node6 {
        fn new() -> Self {
            Node6 {
                x: VoteExchange::new(6, BrachaConfig::new(8, 1).unwrap(), MAX_OFFERS),
                seen: SeenSet::default(),
                out: Vec::new(),
                delivered: Vec::new(),
            }
        }

        fn hears(&mut self, from: u32, msg: &Message) -> u64 {
            self.out.clear();
            let (x, seen) = (&mut self.x, &mut self.seen);
            let (out, delivered) = (&mut self.out, &mut self.delivered);
            drive(x, seen, from, msg, &[1, 2, 7], &[1, 2, 7], out, delivered)
        }

        /// A frame of `entries` from peer `from`, neither asking nor answering.
        fn hears_votes(&mut self, from: u32, entries: Vec<VoteEntry>) -> u64 {
            self.hears(from, &VotesFrame::from(entries).to_message(from))
        }
    }

    /// A complete graph of exchanges with instant links.
    struct Mesh {
        nodes: Vec<(VoteExchange<u32>, SeenSet)>,
        /// Per node, where it relays a first-seen `SEND`: every other node
        /// unless a test says otherwise.
        kids: Vec<Vec<u32>>,
        queue: VecDeque<(u32, u32, Message)>,
        delivered: Vec<Vec<ByzDelivery>>,
        /// Every frame put on a link.
        wire: Vec<Message>,
    }

    impl Mesh {
        fn new(n: u32, f: usize) -> Self {
            let cfg = BrachaConfig::new(n as usize, f).unwrap();
            Mesh {
                nodes: (0..n)
                    .map(|v| (VoteExchange::new(v, cfg, MAX_OFFERS), SeenSet::default()))
                    .collect(),
                kids: (0..n)
                    .map(|v| (0..n).filter(|&w| w != v).collect())
                    .collect(),
                queue: VecDeque::new(),
                delivered: vec![Vec::new(); n as usize],
                wire: Vec::new(),
            }
        }

        fn peers(&self, v: u32) -> Vec<u32> {
            (0..self.nodes.len() as u32).filter(|&w| w != v).collect()
        }

        fn post(&mut self, from: u32, sends: Sends<u32>) {
            for (to, msg) in sends {
                self.wire.push(msg.clone());
                self.queue.push_back((from, to, msg));
            }
        }

        fn broadcast(&mut self, origin: u32, nonce: u64, payload: &'static [u8]) {
            let (peers, mut sends) = (self.peers(origin), Vec::new());
            let (x, seen) = &mut self.nodes[origin as usize];
            let delivered = &mut self.delivered[origin as usize];
            let payload = Bytes::from_static(payload);
            let id = (x.broadcast(nonce, payload, peers, &mut sends, delivered)).unwrap();
            seen.insert(id);
            self.post(origin, sends);
        }

        fn repair(&mut self, v: u32) {
            let (peers, mut sends) = (self.peers(v), Vec::new());
            self.nodes[v as usize].0.repair(peers, &mut sends);
            self.post(v, sends);
        }

        /// Delivers queued frames (dropping those `lose` picks) until nothing
        /// is in flight: no timer exists that could send anything later.
        fn run(&mut self, lose: impl Fn(u32, u32, &Message) -> bool) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                if lose(from, to, &msg) {
                    continue;
                }
                let (peers, mut sends) = (self.peers(to), Vec::new());
                let (x, seen) = &mut self.nodes[to as usize];
                let delivered = &mut self.delivered[to as usize];
                let kids = &self.kids[to as usize];
                drive(x, seen, from, &msg, &peers, kids, &mut sends, delivered);
                self.post(to, sends);
            }
        }
    }

    #[test]
    fn one_flood_carries_the_payload_and_votes_travel_as_bits() {
        let mut mesh = Mesh::new(7, 2);
        mesh.broadcast(3, 9, b"agreed value");
        mesh.run(|_, _, _| false);
        for (v, d) in mesh.delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {v} delivers exactly once");
            assert_eq!(d[0].payload, Bytes::from_static(b"agreed value"));
        }
        let gossip: Vec<GossipFrame> = (mesh.wire.iter())
            .filter_map(GossipFrame::from_message)
            .collect();
        assert!(gossip.iter().all(|f| f.kind == GossipKind::Send));
        // 6 copies from the origin, 5 relays from each of 6 first receivers.
        assert_eq!(gossip.len(), 6 + 6 * 5);
        // Flooding each of the 2n+1 protocol steps over the 42 directed
        // links of K_7 would put 15 × 42 frames on the wire.
        assert!(
            mesh.wire.len() < 15 * 42 / 2,
            "{} frames in all",
            mesh.wire.len()
        );
        assert!(mesh
            .wire
            .iter()
            .all(|m| m.broadcast_id & crate::BYZ_ID_TAG != 0));
        // Every ask was answered, and nobody is left waiting.
        let votes = (mesh.wire.iter()).filter_map(|m| VotesFrame::from_message(m, 64));
        let (asks, answers) = votes.fold((0, 0), |(q, a), f| {
            (q + usize::from(f.req), a + usize::from(f.ack))
        });
        assert_eq!(asks, answers);
        let waiting = |(x, _): &(VoteExchange<u32>, _)| x.links.values().any(|l| l.awaiting);
        assert!(!mesh.nodes.iter().any(waiting));
    }

    #[test]
    fn a_delta_is_capped_by_what_the_peer_can_still_use() {
        let mut n = Node6::new();
        let (t, d) = (tag(0, 1), 77);

        // Four readies and five echoes from peer 2. Node 6 readies by
        // amplification; peer 1 gets a certificate's worth of readies (the
        // lowest three) at once and no echoes — it will ready on the
        // readies; peer 2, known to hold a certificate, gets nothing.
        n.hears_votes(2, vec![delta(t, d, &[0, 1, 2, 3, 4], &[0, 1, 2, 3])]);
        assert_eq!(votes_to(&n.out, 1), vec![delta(t, d, &[], &[0, 1, 2])]);
        assert!(frames_to(&n.out, 2).is_empty());
        assert!(n.delivered.is_empty(), "a certificate without its payload");

        // More readies change nothing for a peer that holds 2f+1.
        n.hears_votes(2, vec![delta(t, d, &[], &[5, 7])]);
        assert!(n.out.is_empty());

        // One ready short of amplification: the peer still needs echoes.
        let t3 = tag(0, 3);
        n.hears_votes(2, vec![delta(t3, d, &[0, 1], &[4])]);
        assert_eq!(votes_to(&n.out, 7), vec![delta(t3, d, &[0, 1], &[4])]);
    }

    #[test]
    fn echoes_wait_for_the_answer_and_then_leave_together() {
        let mut n = Node6::new();
        let (t, d) = (tag(0, 2), 77);
        // The first echoes find the links idle: they leave at once, asking.
        n.hears_votes(2, vec![delta(t, d, &[0, 1], &[])]);
        let first = VotesFrame {
            req: true,
            ..vec![delta(t, d, &[0, 1], &[])].into()
        };
        assert_eq!(frames_to(&n.out, 1), vec![first.clone()]);
        assert_eq!(frames_to(&n.out, 7), vec![first]);
        assert!(frames_to(&n.out, 2).is_empty(), "it holds what it sent");
        // What arrives before the answers waits — however much it is.
        n.hears_votes(2, vec![delta(t, d, &[3], &[])]);
        n.hears_votes(2, vec![delta(t, d, &[4], &[])]);
        assert!(n.out.is_empty());
        // Peer 1 answers with nothing to add: one frame takes all of it, and
        // asks again. Peer 7, still silent, still gets nothing.
        let answer = VotesFrame {
            ack: true,
            ..VotesFrame::default()
        };
        n.hears(1, &answer.to_message(1));
        let second = VotesFrame {
            req: true,
            ..vec![delta(t, d, &[3, 4], &[])].into()
        };
        assert_eq!(frames_to(&n.out, 1), vec![second]);
        assert!(frames_to(&n.out, 7).is_empty());
        // An empty answer to an empty pending set ends the conversation.
        n.hears(1, &answer.to_message(1));
        assert!(n.out.is_empty());
        // A ready does not wait, and takes the waiting echoes with it.
        n.hears_votes(2, vec![delta(t, d, &[], &[2])]);
        assert_eq!(
            frames_to(&n.out, 7),
            vec![vec![delta(t, d, &[3, 4], &[2])].into()]
        );
    }

    #[test]
    fn an_ask_is_answered_at_once_even_with_nothing_to_say() {
        let mut n = Node6::new();
        let (t, d) = (tag(0, 2), 77);
        let ask = VotesFrame {
            req: true,
            ..vec![delta(t, d, &[0], &[])].into()
        };
        n.hears(2, &ask.to_message(2));
        let empty_answer = VotesFrame {
            ack: true,
            ..VotesFrame::default()
        };
        assert_eq!(frames_to(&n.out, 2), vec![empty_answer]);
        // An answer that says something asks in turn: peer 2's echoes
        // complete node 6's quorum, and its ready is news to peer 2.
        let ask = VotesFrame {
            req: true,
            ..vec![delta(t, d, &[1, 2, 3, 4], &[])].into()
        };
        n.hears(2, &ask.to_message(2));
        let full_answer = VotesFrame {
            req: true,
            ack: true,
            entries: vec![delta(t, d, &[], &[6])],
        };
        assert_eq!(frames_to(&n.out, 2), vec![full_answer]);
    }

    #[test]
    fn asks_that_cross_become_one_conversation() {
        let mut n = Node6::new();
        let (t, d) = (tag(0, 2), 77);
        let ask = |from: u32, echo: &[u32]| {
            let frame = VotesFrame {
                req: true,
                ..vec![delta(t, d, echo, &[])].into()
            };
            frame.to_message(from)
        };
        // Node 6 has asked peers 2 and 7 (and 1) when their asks arrive.
        n.hears_votes(1, vec![delta(t, d, &[0], &[])]);
        assert!(frames_to(&n.out, 2)[0].req && frames_to(&n.out, 7)[0].req);
        n.hears_votes(1, vec![delta(t, d, &[3], &[])]);
        assert!(n.out.is_empty());
        // Toward peer 7 it has the lower id: it answers, with what waited,
        // and does not ask twice.
        n.hears(7, &ask(7, &[4]));
        let answer = VotesFrame {
            ack: true,
            ..vec![delta(t, d, &[3], &[])].into()
        };
        assert_eq!(frames_to(&n.out, 7), vec![answer]);
        // Toward peer 2 it has the higher: it waits to be answered first...
        n.hears(2, &ask(2, &[5]));
        assert!(frames_to(&n.out, 2).is_empty());
        // ...and then answers, asks, and is the only one talking.
        let answered = VotesFrame {
            ack: true,
            ..VotesFrame::default()
        };
        n.hears(2, &answered.to_message(2));
        let turn = VotesFrame {
            req: true,
            ack: true,
            entries: vec![delta(t, d, &[3, 4], &[])],
        };
        assert_eq!(frames_to(&n.out, 2), vec![turn]);
    }

    #[test]
    fn the_answer_to_a_declaration_is_everything_the_peer_did_not_count() {
        // Peer 1 falsely suspects member 0, so it drops 0's votes. A capped
        // delta would offer it "the lowest ready it lacks" — 0's — for ever;
        // the answer to its declaration offers all of them.
        let mut n = Node6::new();
        let (t, d) = (tag(0, 1), 77);
        n.hears_votes(2, vec![delta(t, d, &[0, 1, 2], &[0, 1, 2, 3, 4])]);
        assert_eq!(votes_to(&n.out, 1), vec![delta(t, d, &[], &[0, 1, 2])]);
        let declared = VoteEntry {
            full: true,
            ..delta(t, d, &[], &[1, 2])
        };
        n.hears_votes(1, vec![declared]);
        assert_eq!(
            votes_to(&n.out, 1),
            vec![delta(t, d, &[0, 1, 2], &[0, 3, 4, 6])]
        );
    }

    #[test]
    fn votes_of_non_members_and_votes_in_frames_are_dropped_at_ingress() {
        let mut n = Node6::new();
        n.x.bump_view([0, 1, 2, 3, 5, 6, 7]).unwrap(); // member 4 is gone
        let rejected = n.hears_votes(2, vec![delta(tag(0, 1), 5, &[1, 4], &[4])]);
        assert_eq!(rejected, 2);
        assert_eq!(votes_to(&n.out, 1), vec![delta(tag(0, 1), 5, &[1], &[])]);
        // Bits past the roster bound do not even decode.
        n.hears_votes(2, vec![delta(tag(0, 2), 5, &[1, 8], &[])]);
        assert!(n.out.is_empty() && n.x.engine().tags().count() == 1);
        // No node sends a vote as a frame of its own: one that arrives is
        // refused whole, whoever it names.
        let echo = GossipFrame {
            kind: GossipKind::Echo,
            witness: 2,
            tag: tag(0, 3),
            digest: digest(b"p"),
            payload: Bytes::from_static(b"p"),
        };
        assert_eq!(n.hears(2, &echo.to_message()), 1);
        let ready = GossipFrame {
            kind: GossipKind::Ready,
            payload: Bytes::new(),
            ..echo
        };
        assert_eq!(n.hears(2, &ready.to_message()), 1);
        assert!(n.out.is_empty() && n.x.engine().tags().count() == 1);
    }

    #[test]
    fn a_hostile_declaration_costs_about_what_its_votes_cost_and_pins_no_room() {
        // Peer 2 first fills node 6's table of what it holds with N
        // instances, then declares N others in full. Testing each held key
        // against each declared entry would make the second frame cost
        // N² ≈ 10⁹ steps; it must cost about what the first one did.
        const N: u64 = 30_000;
        let mut n = Node6::new();
        let votes = |full: bool, first: u64| {
            (first..first + N)
                .map(|i| VoteEntry {
                    full,
                    ..delta(tag(0, i), 77, &[2], &[])
                })
                .collect::<Vec<_>>()
        };
        let start = Instant::now();
        n.hears_votes(2, votes(false, 0));
        let grew = start.elapsed();
        assert_eq!(n.x.links[&2].has.len(), N as usize);
        let start = Instant::now();
        n.hears_votes(2, votes(true, N));
        let declared = start.elapsed();
        assert_eq!(n.x.links[&2].has.len(), 2 * N as usize);
        assert!(
            declared < grew * 2 + Duration::from_millis(100),
            "growing took {grew:?}, declaring {declared:?}"
        );
        // Neither frame's size outlives it in the reused buffers.
        let x = &n.x;
        assert!(x.inbox.entries.capacity() <= KEPT_CAPACITY);
        assert!(x.outgoing.entries.capacity() <= KEPT_CAPACITY);
        assert!(x.declared.capacity() <= KEPT_CAPACITY);
        assert!(x.links[&2].owed.capacity() <= KEPT_CAPACITY);
        assert!(x.links[&2].dirty.capacity() <= KEPT_CAPACITY);
    }

    #[test]
    fn repair_declares_until_the_peer_shows_its_certificate_and_a_mute_peer_is_left_alone() {
        let mut mesh = Mesh::new(4, 1);
        mesh.broadcast(0, 1, b"x");
        mesh.run(|_, _, _| false);
        let t = tag(0, 1);
        assert!(mesh.delivered.iter().all(|d| d.len() == 1));

        // Node 3 is mute from here on. Node 0 declares to everyone: 1 and 2
        // settle on the declaration and answer with their certificates,
        // which node 0 acknowledges with an empty frame.
        let before = mesh.wire.len();
        mesh.repair(0);
        mesh.run(|from, _, _| from == 3);
        let x0 = &mesh.nodes[0].0;
        assert!(x0.is_settled(1, t) && x0.is_settled(2, t) && !x0.is_settled(3, t));
        assert!(mesh.nodes[1].0.is_settled(0, t) && mesh.nodes[2].0.is_settled(0, t));
        let sent = mesh.wire.len() - before;
        assert_eq!(sent, 3 + 3 + 2, "offers, answers (one lost), acks");

        // Only the mute peer is offered again, and only MAX_OFFERS times.
        for round in 1..=MAX_OFFERS + 2 {
            let before = mesh.wire.len();
            assert_eq!(
                mesh.nodes[0].0.repair_pending([1, 2, 3]),
                round < MAX_OFFERS
            );
            mesh.repair(0);
            mesh.run(|from, _, _| from == 3);
            let sent = mesh.wire[before..].iter().filter(|m| m.origin == 0).count();
            assert_eq!(sent, usize::from(round < MAX_OFFERS), "round {round}");
        }

        // A new link to 3 is a new peer: everything is offered again.
        mesh.nodes[0].0.reset_link(3);
        assert!(mesh.nodes[0].0.repair_pending([3]));
        mesh.repair(0);
        mesh.run(|_, _, _| false);
        assert!(mesh.nodes[0].0.is_settled(3, t));
        assert!(!mesh.nodes[0].0.repair_pending([1, 2, 3]));
    }

    #[test]
    fn a_declaration_resends_what_the_link_lost() {
        // Every VOTES frame toward node 2 is lost: it gets the payload but
        // neither echo nor ready, while 0, 1 and 3 deliver among themselves.
        let mut mesh = Mesh::new(4, 1);
        mesh.broadcast(0, 1, b"x");
        let lossy = |_: u32, to: u32, m: &Message| to == 2 && m.broadcast_id == crate::VOTES_ID;
        mesh.run(lossy);
        assert!(mesh.delivered[2].is_empty());
        assert_eq!(mesh.delivered.iter().map(Vec::len).sum::<usize>(), 3);
        // Its own repair round tells the neighbors what it really holds;
        // they answer the difference.
        mesh.repair(2);
        mesh.run(|_, _, _| false);
        assert_eq!(mesh.delivered[2].len(), 1);
    }

    #[test]
    fn a_lost_answer_holds_echoes_back_only_until_the_next_repair_round() {
        let mut n = Node6::new();
        let (t, d) = (tag(0, 2), 77);
        n.hears_votes(2, vec![delta(t, d, &[0], &[])]);
        assert!(frames_to(&n.out, 1)[0].req);
        n.hears_votes(2, vec![delta(t, d, &[1], &[])]);
        assert!(n.out.is_empty(), "peer 1's answer never comes");
        // The round's declaration says it all, and asks again.
        n.out.clear();
        n.x.repair([1], &mut n.out);
        let declared = VoteEntry {
            full: true,
            want_payload: true, // votes, and no payload for them yet
            ..delta(t, d, &[0, 1], &[])
        };
        let frame = VotesFrame {
            req: true,
            ..vec![declared].into()
        };
        assert_eq!(frames_to(&n.out, 1), vec![frame]);
    }

    #[test]
    fn votes_without_their_payload_pull_the_send_from_a_voter() {
        // Node 2 loses every SEND copy: it learns the votes, certifies the
        // digest, and cannot deliver.
        let mut mesh = Mesh::new(4, 1);
        mesh.broadcast(0, 1, b"the payload");
        mesh.run(|_, to, m| to == 2 && GossipFrame::from_message(m).is_some());
        assert!(mesh.delivered[2].is_empty());
        assert!((mesh.nodes[2].0.engine()).wants_payload(tag(0, 1), digest(b"the payload")));
        assert!(mesh.nodes[2].0.repair_pending([0, 1, 3]));
        mesh.repair(2);
        mesh.run(|_, _, _| false);
        assert_eq!(mesh.delivered[2].len(), 1);
        assert_eq!(
            mesh.delivered[2][0].payload,
            Bytes::from_static(b"the payload")
        );
    }

    #[test]
    fn a_send_goes_where_the_driver_relays_it_and_a_pull_resumes_a_cut_subtree() {
        // The eager tree: the origin's children are all its links, node 4
        // hangs below node 3, everyone else is a leaf. The origin's copies
        // to 3 and 4 are lost, as if the edge into 3's subtree had dropped
        // the SEND.
        let mut mesh = Mesh::new(7, 2);
        mesh.kids = vec![Vec::new(); 7];
        mesh.kids[3] = vec![4];
        mesh.broadcast(0, 1, b"down the tree");
        let is_send = |m: &Message| GossipFrame::from_message(m).is_some();
        mesh.run(|from, to, m| from == 0 && (to == 3 || to == 4) && is_send(m));
        let sends = |mesh: &Mesh| mesh.wire.iter().filter(|m| is_send(m)).count();
        assert_eq!(sends(&mesh), 6, "the origin's copies, and no relay");
        for v in [0, 1, 2, 5, 6] {
            assert_eq!(mesh.delivered[v].len(), 1, "node {v}");
        }
        // Both certify from the votes alone. One repair round at node 3
        // asks every peer; the five that hold the payload answer, and 3
        // relays the first answer to its child as any first copy: the
        // subtree needs no round of its own.
        assert!(mesh.delivered[3].is_empty() && mesh.delivered[4].is_empty());
        mesh.repair(3);
        mesh.run(|_, _, _| false);
        assert_eq!(mesh.delivered[3].len(), 1);
        assert_eq!(mesh.delivered[4].len(), 1);
        assert_eq!(sends(&mesh), 6 + 5 + 1, "five answers, one relayed");
    }

    #[test]
    fn one_repair_round_asks_every_declared_peer_so_a_lost_ask_costs_no_round() {
        // Node 2 loses every SEND copy and certifies from the votes alone.
        // Then every frame it sends to node 1 is lost: the voter that a
        // round asking one voter at a time would have asked first.
        let mut mesh = Mesh::new(4, 1);
        mesh.broadcast(0, 1, b"the payload");
        mesh.run(|_, to, m| to == 2 && GossipFrame::from_message(m).is_some());
        assert!(mesh.delivered[2].is_empty());
        mesh.repair(2);
        mesh.run(|from, to, _| from == 2 && to == 1);
        assert_eq!(mesh.delivered[2].len(), 1, "one round is enough");
    }

    /// Node 6 certifies `payload` of origin 0 from its peers' votes alone,
    /// asks every peer for it in one repair round, and is answered with
    /// origin 0's `SEND` by peer 1.
    fn certify_then_pull(n: &mut Node6, t: ByzTag, payload: &'static [u8]) {
        let d = digest(payload);
        n.hears_votes(2, vec![delta(t, d, &[1, 2, 3], &[1, 2, 3])]);
        assert!(n.delivered.is_empty());
        assert!(n.x.engine().wants_payload(t, d));
        n.out.clear();
        n.x.repair([1, 2, 7], &mut n.out);
        let asked = |(_, m): &(u32, Message)| {
            VotesFrame::from_message(m, 64)
                .is_some_and(|f| f.entries.iter().any(|e| e.want_payload))
        };
        assert_eq!(n.out.iter().filter(|s| asked(s)).count(), 3);
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: t.origin,
            tag: t,
            digest: d,
            payload: Bytes::from_static(payload),
        };
        n.hears(1, &send.to_message());
    }

    #[test]
    fn the_send_of_an_origin_that_left_the_view_is_still_its_word() {
        // Node 6 has (rightly or not) excommunicated member 0. Member 0's
        // votes no longer count with it, but an instance 0 originated is
        // certified by the others, and the payload is 0's to name.
        let mut n = Node6::new();
        n.x.bump_view(1..8).unwrap();
        certify_then_pull(&mut n, tag(0, 1), b"from the excommunicated");
        assert_eq!(n.delivered.len(), 1);
        assert_eq!(n.delivered[0].payload, &b"from the excommunicated"[..]);
    }

    #[test]
    fn a_send_the_engine_refused_once_is_accepted_when_it_is_asked_for() {
        // The only copy of the SEND arrives while the view is unsound: it is
        // relayed, entered in the seen-set, and refused. Votes for it arrive
        // under the next view; the SEND that answers the pull has the same
        // id as the one already seen, and must not be dropped for that.
        let mut n = Node6::new();
        assert!(n.x.bump_view([1, 2, 6]).is_err());
        let (t, payload) = (tag(0, 1), b"seen, not absorbed");
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: 0,
            tag: t,
            digest: digest(payload),
            payload: Bytes::from_static(payload),
        };
        n.hears(1, &send.to_message());
        assert_eq!(n.out.len(), 2, "relayed to 2 and 7");
        assert_eq!(n.x.engine().tags().count(), 0);
        n.x.bump_view(0..8).unwrap();
        certify_then_pull(&mut n, t, payload);
        assert_eq!(n.delivered.len(), 1);
        assert!(
            n.out
                .iter()
                .all(|(_, m)| GossipFrame::from_message(m).is_none()),
            "and it is not relayed twice"
        );
    }

    #[test]
    fn a_payload_that_came_in_an_echo_is_never_re_served_as_the_origins_send() {
        // Member 5's ECHO frame hands node 6 a payload under an instance "of
        // origin 0" that origin 0 never sent. Off a link the frame is refused
        // whole; the engine's frame vocabulary (what probes speak) takes it.
        // Either way node 6 never holds the origin's word for the bytes: a
        // neighbor that asks gets nothing, where re-serving them as a SEND
        // would make every correct node echo a forgery.
        let mut n = Node6::new();
        let (t, payload) = (tag(0, 0xF00D), Bytes::from_static(b"never sent"));
        let d = digest(&payload);
        let echo = GossipFrame {
            kind: GossipKind::Echo,
            witness: 5,
            tag: t,
            digest: d,
            payload: payload.clone(),
        };
        assert_eq!(n.hears(2, &echo.to_message()), 1);
        assert_eq!(n.x.engine().payload(t, d), None);
        assert!(n.x.engine.on_gossip(&echo).is_empty());
        assert_eq!(n.x.engine().payload(t, d), Some(&payload));
        let ask = VoteEntry {
            want_payload: true,
            ..delta(t, d, &[], &[])
        };
        n.hears_votes(1, vec![ask.clone()]);
        assert!(n
            .out
            .iter()
            .all(|(_, m)| GossipFrame::from_message(m).is_none()));
        // The same bytes in the origin's own SEND are the origin's word.
        let send = GossipFrame {
            kind: GossipKind::Send,
            witness: 0,
            tag: t,
            digest: d,
            payload,
        };
        n.hears(2, &send.to_message());
        n.hears_votes(1, vec![ask]);
        assert_eq!(n.out, vec![(1, send.to_message())]);
    }
}
