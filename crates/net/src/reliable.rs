//! Per-link reliable delivery: sequence numbers, cumulative acks with
//! selective NACKs, bounded retransmit buffers, and sender backpressure.
//!
//! Flooding over a k-connected LHG overlay survives crashes, but a single
//! dropped frame on an otherwise healthy link silently loses a broadcast
//! copy — and if every copy addressed to some node is dropped, the
//! broadcast is lost there forever. This module makes each directed link
//! reliable so that flooding's delivery guarantee extends to lossy links:
//!
//! * **[`LinkSender`]** stamps every outgoing frame with a per-link
//!   sequence number (carried in the message's link-seq extension, see
//!   [`crate::message`]), keeps a bounded window of unacknowledged frames,
//!   retransmits on timeout, and queues overflow traffic (backpressure)
//!   until acks open the window. Frames that exhaust their retries are
//!   dropped from the buffer — anti-entropy repairs the residue.
//! * **[`LinkReceiver`]** tracks the cumulative ack point and the set of
//!   out-of-order sequences above it, detects link-level duplicates
//!   (retransmitted copies whose ack was lost), and produces `(cum, nacks)`
//!   ack payloads that name the holes so the sender can retransmit them
//!   immediately instead of waiting out the timeout.
//! * **Anti-entropy codecs** ([`encode_summary_payload`]) serialize
//!   summaries of recently-seen broadcast ids; peers diff a summary against
//!   their own dedup set and pull whatever they are missing, so a
//!   broadcast lost on *every* copy is still repaired through any
//!   surviving path.
//! * **[`ReliableCore`]** is the whole data plane as one sans-IO state
//!   machine: flooding + per-link reliability + anti-entropy repair. It
//!   has exactly two drivers — **[`ReliableFlooder`]**, its adapter to
//!   the discrete-event simulator, and the TCP runtime's node loop — so
//!   both engines run the same protocol code, not copies of it.
//!
//! The layer is engine-agnostic: time is a caller-supplied `u64` of
//! microseconds (virtual in the simulator, a monotonic-epoch offset in the
//! runtime), and all state transitions are deterministic in call order.
//!
//! Interaction with dedup: link sequences are hop-local and say nothing
//! about broadcast identity. Application-level exactly-once still comes
//! from the flooding dedup set; this layer only guarantees that frames put
//! on a link eventually cross it (or are declared dead after bounded
//! retries). A retransmitted copy whose original made it through is
//! absorbed twice: once here (link-level duplicate) and, if it ever slips
//! past (e.g. after a link reset), again by the dedup set.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::Hash;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use lhg_graph::NodeId;

use crate::message::Message;
use crate::seen::SeenSet;
use crate::sim::{Context, Process};

/// Broadcast id of link-level ack frames (cumulative ack + NACK list in
/// the payload). Exact value — engines that multiplex per-member control
/// ids OR member bits into the low bits instead.
pub const ACK_TAG: u64 = 1 << 62;

/// Broadcast id of anti-entropy summary frames (advertisement or pull,
/// distinguished by the payload's mode byte).
pub const SUMMARY_TAG: u64 = 1 << 63;

/// Tuning knobs for the reliable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Maximum unacknowledged frames in flight per link; further sends
    /// queue sender-side (backpressure).
    pub window: usize,
    /// Retransmit a frame when it has been unacknowledged this long.
    pub rto_us: u64,
    /// Give up on a frame after this many retransmissions (anti-entropy
    /// repairs what per-link retries could not).
    pub max_retries: u32,
    /// Backpressure queue bound; beyond it the oldest queued frame is
    /// dropped (the link is effectively dead and suspicion will reap it).
    pub queue_cap: usize,
    /// Reliability tick period for [`ReliableFlooder`]: retransmit sweeps
    /// and ack emission run on this cadence.
    pub tick_us: u64,
    /// Send an anti-entropy summary every this many ticks (heartbeat
    /// periods on TCP). 0 is read as 1 — see [`ReliableConfig::summary_ticks`].
    pub summary_every: u64,
    /// How many recently-seen broadcasts are retained for summaries and
    /// pull serving.
    pub store_cap: usize,
}

impl ReliableConfig {
    /// The summary cadence both drivers use: `summary_every`, with 0 read
    /// as 1 (every tick) so that no cadence test ever divides by zero.
    #[must_use]
    pub fn summary_ticks(&self) -> u64 {
        self.summary_every.max(1)
    }
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            window: 64,
            rto_us: 30_000,
            max_retries: 12,
            queue_cap: 1024,
            tick_us: 10_000,
            summary_every: 5,
            store_cap: 128,
        }
    }
}

/// One unacknowledged frame in the retransmit buffer.
#[derive(Debug, Clone)]
struct InFlight {
    msg: Message,
    last_tx_us: u64,
    retries: u32,
}

/// Sender half of one directed reliable link.
#[derive(Debug, Default)]
pub struct LinkSender {
    next_seq: u64,
    unacked: BTreeMap<u64, InFlight>,
    queued: VecDeque<Message>,
    /// Frames dropped after exhausting retries or overflowing the queue.
    given_up: u64,
}

impl LinkSender {
    /// Creates an idle sender (sequence space starts at 1).
    #[must_use]
    pub fn new() -> Self {
        LinkSender::default()
    }

    /// Frames currently awaiting an ack.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Frames parked by backpressure.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// Frames abandoned after exhausting retries or queue overflow.
    #[must_use]
    pub fn given_up(&self) -> u64 {
        self.given_up
    }

    /// Payload bytes referenced by the unacked window and the queue.
    fn retained_bytes(&self) -> usize {
        let unacked = self.unacked.values().map(|f| f.msg.payload.len());
        let queued = self.queued.iter().map(|m| m.payload.len());
        unacked.chain(queued).sum()
    }

    /// Accepts `msg` for reliable transmission. Returns the stamped frame
    /// to put on the wire now, or `None` if the window is full and the
    /// frame was queued (it will surface from a later [`LinkSender::on_ack`]
    /// or [`LinkSender::sweep`] once the window opens).
    pub fn send(&mut self, msg: Message, cfg: &ReliableConfig, now_us: u64) -> Option<Message> {
        if self.unacked.len() < cfg.window {
            Some(self.stamp(msg, now_us))
        } else {
            if self.queued.len() >= cfg.queue_cap {
                self.queued.pop_front();
                self.given_up += 1;
            }
            self.queued.push_back(msg);
            None
        }
    }

    fn stamp(&mut self, msg: Message, now_us: u64) -> Message {
        self.next_seq += 1;
        let stamped = msg.with_link_seq(self.next_seq);
        self.unacked.insert(
            self.next_seq,
            InFlight {
                msg: stamped.clone(),
                last_tx_us: now_us,
                retries: 0,
            },
        );
        stamped
    }

    /// Processes a cumulative ack + NACK list from the peer. Returns the
    /// frames to put on the wire now: immediate retransmissions of every
    /// NACKed hole plus any queued frames the newly-opened window admits.
    pub fn on_ack(
        &mut self,
        cum: u64,
        nacks: &[u64],
        cfg: &ReliableConfig,
        now_us: u64,
    ) -> Vec<Message> {
        let acked: Vec<u64> = self.unacked.range(..=cum).map(|(&s, _)| s).collect();
        for s in acked {
            self.unacked.remove(&s);
        }
        let mut out = Vec::new();
        for &s in nacks {
            if let Some(f) = self.unacked.get_mut(&s) {
                f.retries += 1;
                f.last_tx_us = now_us;
                out.push(f.msg.clone());
            }
        }
        self.drain(cfg, now_us, &mut out);
        out
    }

    /// Retransmit sweep: returns every frame whose retransmit timeout has
    /// expired (giving up on frames past the retry budget), plus queued
    /// frames admitted by the space those give-ups freed.
    pub fn sweep(&mut self, cfg: &ReliableConfig, now_us: u64) -> Vec<Message> {
        let due: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, f)| now_us.saturating_sub(f.last_tx_us) >= cfg.rto_us)
            .map(|(&s, _)| s)
            .collect();
        let mut out = Vec::new();
        for s in due {
            let f = self.unacked.get_mut(&s).expect("seq collected above");
            if f.retries >= cfg.max_retries {
                self.unacked.remove(&s);
                self.given_up += 1;
            } else {
                f.retries += 1;
                f.last_tx_us = now_us;
                out.push(f.msg.clone());
            }
        }
        self.drain(cfg, now_us, &mut out);
        out
    }

    fn drain(&mut self, cfg: &ReliableConfig, now_us: u64, out: &mut Vec<Message>) {
        while self.unacked.len() < cfg.window {
            let Some(msg) = self.queued.pop_front() else {
                break;
            };
            out.push(self.stamp(msg, now_us));
        }
    }

    /// Tears the link down, handing back every undelivered message
    /// (unacked then queued, in sequence order) with link stamps removed —
    /// what a reconnecting caller re-sends over the replacement link.
    pub fn take_undelivered(&mut self) -> Vec<Message> {
        let mut out: Vec<Message> = self
            .unacked
            .values()
            .map(|f| {
                let mut m = f.msg.clone();
                m.link_seq = None;
                m
            })
            .collect();
        out.extend(self.queued.iter().cloned());
        *self = LinkSender::new();
        out
    }
}

/// How many holes one ack frame names at most.
pub const MAX_NACKS: usize = 32;

/// Receiver half of one directed reliable link.
#[derive(Debug, Default)]
pub struct LinkReceiver {
    /// Every sequence `<= cum` has been received.
    cum: u64,
    /// Received sequences above `cum` (out of order).
    above: BTreeSet<u64>,
    /// A frame arrived since the last ack was produced.
    dirty: bool,
}

impl LinkReceiver {
    /// Creates a receiver expecting sequence 1 first.
    #[must_use]
    pub fn new() -> Self {
        LinkReceiver::default()
    }

    /// Records the arrival of `seq`. Returns `true` when the frame is new
    /// on this link, `false` for a link-level duplicate (a retransmission
    /// whose original already arrived — the caller should drop it but an
    /// ack is still owed, which is why this marks the receiver dirty
    /// either way).
    pub fn on_frame(&mut self, seq: u64) -> bool {
        self.dirty = true;
        if seq <= self.cum || self.above.contains(&seq) {
            return false;
        }
        if seq == self.cum + 1 {
            self.cum = seq;
            while self.above.remove(&(self.cum + 1)) {
                self.cum += 1;
            }
        } else {
            self.above.insert(seq);
        }
        true
    }

    /// `true` when an ack is owed to the peer.
    #[must_use]
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// The cumulative ack point.
    #[must_use]
    pub fn cum(&self) -> u64 {
        self.cum
    }

    /// Produces the `(cum, nacks)` payload for an ack frame and clears the
    /// dirty flag. NACKs name the first [`MAX_NACKS`] holes between the
    /// cumulative point and the highest sequence seen.
    pub fn ack_payload(&mut self) -> (u64, Vec<u64>) {
        self.dirty = false;
        let mut nacks = Vec::new();
        if let Some(&max) = self.above.iter().next_back() {
            let mut expect = self.cum + 1;
            for &got in &self.above {
                while expect < got && nacks.len() < MAX_NACKS {
                    nacks.push(expect);
                    expect += 1;
                }
                expect = got + 1;
                if nacks.len() >= MAX_NACKS {
                    break;
                }
            }
            debug_assert!(expect > max || nacks.len() >= MAX_NACKS);
        }
        (self.cum, nacks)
    }
}

/// Encodes an ack frame payload: cumulative ack + selective NACK list.
#[must_use]
pub fn encode_ack_payload(cum: u64, nacks: &[u64]) -> Bytes {
    let nacks = &nacks[..nacks.len().min(MAX_NACKS)];
    let mut buf = BytesMut::with_capacity(8 + 4 + 8 * nacks.len());
    buf.put_u64(cum);
    buf.put_u32(nacks.len() as u32);
    for &s in nacks {
        buf.put_u64(s);
    }
    buf.freeze()
}

/// Decodes an ack frame payload. `None` on malformed input.
#[must_use]
pub fn decode_ack_payload(mut raw: Bytes) -> Option<(u64, Vec<u64>)> {
    if raw.len() < 12 {
        return None;
    }
    let cum = raw.get_u64();
    let count = raw.get_u32() as usize;
    if count > MAX_NACKS || raw.len() != 8 * count {
        return None;
    }
    let nacks = (0..count).map(|_| raw.get_u64()).collect();
    Some((cum, nacks))
}

/// How many broadcast ids one summary frame carries at most.
pub const MAX_SUMMARY_IDS: usize = 64;

/// Summary payload mode byte: advertisement of recently-seen ids.
const SUMMARY_ADVERTISE: u8 = 0x00;
/// Summary payload mode byte: pull request for missing ids.
const SUMMARY_PULL: u8 = 0x01;

/// Encodes an anti-entropy summary payload. `pull = false` advertises
/// recently-seen broadcast ids; `pull = true` requests the listed ids.
#[must_use]
pub fn encode_summary_payload(pull: bool, ids: &[u64]) -> Bytes {
    let ids = &ids[..ids.len().min(MAX_SUMMARY_IDS)];
    let mut buf = BytesMut::with_capacity(1 + 4 + 8 * ids.len());
    buf.put_u8(if pull {
        SUMMARY_PULL
    } else {
        SUMMARY_ADVERTISE
    });
    buf.put_u32(ids.len() as u32);
    for &id in ids {
        buf.put_u64(id);
    }
    buf.freeze()
}

/// Decodes an anti-entropy summary payload into `(pull, ids)`. `None` on
/// malformed input or unknown mode bytes.
#[must_use]
pub fn decode_summary_payload(mut raw: Bytes) -> Option<(bool, Vec<u64>)> {
    if raw.len() < 5 {
        return None;
    }
    let pull = match raw.get_u8() {
        SUMMARY_ADVERTISE => false,
        SUMMARY_PULL => true,
        _ => return None,
    };
    let count = raw.get_u32() as usize;
    if count > MAX_SUMMARY_IDS || raw.len() != 8 * count {
        return None;
    }
    let ids = (0..count).map(|_| raw.get_u64()).collect();
    Some((pull, ids))
}

/// The sink [`ReliableCore`] transitions append their `(peer, frame)`
/// sends to; the caller owns it, drains it and hands it back.
pub type Sends<P> = Vec<(P, Message)>;

/// What [`ReliableCore::on_data`] made of an arriving data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOutcome {
    /// A retransmitted copy whose original already crossed this link:
    /// dropped, but the ack it re-earns goes out on the next tick.
    LinkDuplicate,
    /// New on this link but already flooded past: absorbed by the dedup set.
    Duplicate,
    /// First receipt: retained and forwarded; the driver delivers it.
    Fresh,
}

/// What [`ReliableCore::on_summary`] answered an anti-entropy frame with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryOutcome {
    /// Malformed, or an advertisement naming nothing we lack.
    Ignored,
    /// An advertisement exposed a gap; one pull frame went back.
    Pulled,
    /// A pull was served with this many retained broadcasts.
    Served(u64),
}

/// Frames one [`ReliableCore::tick`] emitted, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Data frames re-sent by the retransmit sweeps.
    pub retransmits: u64,
    /// Ack frames emitted.
    pub acks: u64,
}

/// The reliable-flood data plane as one sans-IO state machine: flooding
/// over per-link ack/retransmit with anti-entropy repair on top. It owns
/// the per-peer [`LinkSender`]/[`LinkReceiver`] pairs, the store of recent
/// broadcasts that summaries advertise and pulls are served from, and the
/// frames parked while a replaced link waits for its successor.
///
/// Everything environmental is an argument. Time is `now_us`; the live
/// links are the driver's `peers` list, and sends are emitted in exactly
/// that order (simulator determinism rests on it); the flooding dedup set
/// is the driver's, because a driver may share it with other traffic; the
/// ids stamped on ack and summary frames are fixed at construction
/// ([`ACK_TAG`]/[`SUMMARY_TAG`] on the simulator, per-member ids on TCP).
/// Every transition appends `(peer, frame)` sends to the caller's `out`
/// and touches no socket, timer or counter: [`ReliableFlooder`] adapts it
/// to the simulator, `lhg-runtime`'s node loop to TCP.
#[derive(Debug)]
pub struct ReliableCore<P> {
    cfg: ReliableConfig,
    origin: u32,
    ack_id: u64,
    summary_id: u64,
    tx: HashMap<P, LinkSender>,
    rx: HashMap<P, LinkReceiver>,
    /// Data frames a torn-down link never delivered, until [`Self::flush`].
    parked: HashMap<P, Vec<Message>>,
    /// Recent data messages retained for pull serving, plus the
    /// insertion-ordered id window backing summaries and eviction.
    store: HashMap<u64, Message>,
    recent: VecDeque<u64>,
}

impl<P: Copy + Eq + Hash> ReliableCore<P> {
    /// An idle core whose ack, summary and pull frames carry `origin` and
    /// the given broadcast ids.
    #[must_use]
    pub fn new(cfg: ReliableConfig, origin: u32, ack_id: u64, summary_id: u64) -> Self {
        ReliableCore {
            cfg,
            origin,
            ack_id,
            summary_id,
            tx: HashMap::new(),
            rx: HashMap::new(),
            parked: HashMap::new(),
            store: HashMap::new(),
            recent: VecDeque::new(),
        }
    }

    /// Retains `kept` (link stamp stripped) for summaries and pull
    /// serving, evicting the oldest entry past `store_cap`.
    fn remember(&mut self, mut kept: Message) {
        if self.recent.len() >= self.cfg.store_cap {
            if let Some(old) = self.recent.pop_front() {
                self.store.remove(&old);
            }
        }
        kept.link_seq = None;
        self.recent.push_back(kept.broadcast_id);
        self.store.insert(kept.broadcast_id, kept);
    }

    /// Payload bytes this core holds on to: the pull store, every link's
    /// unacked window and backpressure queue, and the frames parked for
    /// replaced links. Counted per reference — a payload in the store and in
    /// two windows counts three times, though the three share one buffer —
    /// so it is an upper bound on what the core keeps alive, itself bounded
    /// by `(store_cap + (window + queue_cap) × links + queue_cap × parked
    /// links) × max payload`. A walk over those structures: for a gauge on
    /// the summary cadence, not for the frame path.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        let store = self.store.values().map(|m| m.payload.len());
        let links = self.tx.values().map(LinkSender::retained_bytes);
        let parked = self.parked.values().flatten().map(|m| m.payload.len());
        store.chain(links).chain(parked).sum()
    }

    /// Hands `msg` to `to`'s sender; emits it if the window admits it now
    /// (otherwise it queues and surfaces from a later ack or sweep).
    fn send(&mut self, to: P, msg: Message, now_us: u64, out: &mut Sends<P>) {
        let sender = self.tx.entry(to).or_default();
        if let Some(stamped) = sender.send(msg, &self.cfg, now_us) {
            out.push((to, stamped));
        }
    }

    fn flood(
        &mut self,
        msg: &Message,
        except: Option<P>,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) {
        for peer in peers {
            if Some(peer) != except {
                self.send(peer, msg.clone(), now_us, out);
            }
        }
    }

    /// Originates a broadcast: floods `wire` to every peer and retains it
    /// at hop count 0 — the origin's own copy has travelled no edge,
    /// whatever count the driver's convention puts on the wire copy.
    pub fn originate(
        &mut self,
        wire: &Message,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) {
        self.remember(Message {
            hops: 0,
            ..wire.clone()
        });
        self.flood(wire, None, now_us, peers, out);
    }

    /// A data frame arrived from `from`: link-level dedup first, then the
    /// flooding dedup set. A fresh frame is retained and forwarded to
    /// every peer but `from`; delivering it is the driver's job.
    pub fn on_data(
        &mut self,
        from: P,
        msg: &Message,
        seen: &mut SeenSet,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) -> DataOutcome {
        if let Some(seq) = msg.link_seq {
            if !self.rx.entry(from).or_default().on_frame(seq) {
                return DataOutcome::LinkDuplicate;
            }
        }
        if !seen.insert(msg.broadcast_id) {
            return DataOutcome::Duplicate;
        }
        self.remember(msg.clone());
        self.flood(&msg.forwarded(), Some(from), now_us, peers, out);
        DataOutcome::Fresh
    }

    /// An ack frame's payload arrived from `from`: NACKed holes are
    /// retransmitted at once and the opened window drains the queue.
    pub fn on_ack(&mut self, from: P, payload: Bytes, now_us: u64, out: &mut Sends<P>) {
        let Some((cum, nacks)) = decode_ack_payload(payload) else {
            return;
        };
        if let Some(tx) = self.tx.get_mut(&from) {
            for frame in tx.on_ack(cum, &nacks, &self.cfg, now_us) {
                out.push((from, frame));
            }
        }
    }

    /// A summary frame's payload arrived from `from`. An advertisement is
    /// diffed against `seen` and any gap answered with one pull; a pull is
    /// served from the store over the reliable link. Served copies keep
    /// their stored hop count: repair traffic is not part of the
    /// dissemination tree.
    pub fn on_summary(
        &mut self,
        from: P,
        payload: Bytes,
        seen: &SeenSet,
        now_us: u64,
        out: &mut Sends<P>,
    ) -> SummaryOutcome {
        match decode_summary_payload(payload) {
            Some((false, mut ids)) => {
                ids.retain(|&id| !seen.contains(id));
                if ids.is_empty() {
                    return SummaryOutcome::Ignored;
                }
                let pull = encode_summary_payload(true, &ids);
                out.push((from, Message::new(self.summary_id, self.origin, pull)));
                SummaryOutcome::Pulled
            }
            Some((true, ids)) => {
                let mut served = 0;
                for id in ids {
                    if let Some(kept) = self.store.get(&id).cloned() {
                        self.send(from, kept, now_us, out);
                        served += 1;
                    }
                }
                SummaryOutcome::Served(served)
            }
            None => SummaryOutcome::Ignored,
        }
    }

    /// One reliability tick: per peer, the retransmit sweep and then the
    /// ack its receiver owes, if any.
    pub fn tick(
        &mut self,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) -> TickReport {
        let mut report = TickReport::default();
        for peer in peers {
            if let Some(tx) = self.tx.get_mut(&peer) {
                for frame in tx.sweep(&self.cfg, now_us) {
                    out.push((peer, frame));
                    report.retransmits += 1;
                }
            }
            if let Some(rx) = self.rx.get_mut(&peer).filter(|rx| rx.dirty()) {
                let (cum, nacks) = rx.ack_payload();
                let ack = encode_ack_payload(cum, &nacks);
                out.push((peer, Message::new(self.ack_id, self.origin, ack)));
                report.acks += 1;
            }
        }
        report
    }

    /// Advertises the most recent [`MAX_SUMMARY_IDS`] retained broadcast
    /// ids to every peer (best-effort frames). Returns whether anything
    /// was sent: nothing is with no broadcast retained or nobody to tell.
    pub fn advertise(&mut self, peers: impl IntoIterator<Item = P>, out: &mut Sends<P>) -> bool {
        if self.recent.is_empty() {
            return false;
        }
        let ids: Vec<u64> = self
            .recent
            .iter()
            .rev()
            .take(MAX_SUMMARY_IDS)
            .copied()
            .collect();
        let summary = Message::new(
            self.summary_id,
            self.origin,
            encode_summary_payload(false, &ids),
        );
        let before = out.len();
        out.extend(peers.into_iter().map(|peer| (peer, summary.clone())));
        out.len() > before
    }

    /// The connection behind `peer` was replaced or lost: both sequence
    /// spaces restart, and whatever the old sender never got acknowledged
    /// is parked, unstamped, for [`Self::flush`]. The park is bounded like
    /// the sender queue (`queue_cap`, oldest dropped first): a peer down
    /// long enough to overflow it is left to anti-entropy repair.
    pub fn reset_link(&mut self, peer: P) {
        self.rx.remove(&peer);
        let Some(mut tx) = self.tx.remove(&peer) else {
            return;
        };
        let undelivered = tx.take_undelivered();
        if !undelivered.is_empty() {
            let parked = self.parked.entry(peer).or_default();
            parked.extend(undelivered);
            let excess = parked.len().saturating_sub(self.cfg.queue_cap);
            parked.drain(..excess);
        }
    }

    /// Abandons the frames parked for `peer` (it was excommunicated; if it
    /// ever rejoins, summaries catch it up instead).
    pub fn abandon(&mut self, peer: P) {
        self.parked.remove(&peer);
    }

    /// A replacement link to `peer` is up: re-sends what [`Self::reset_link`]
    /// parked. Duplicates are harmless — the peer's dedup set absorbs them.
    pub fn flush(&mut self, peer: P, now_us: u64, out: &mut Sends<P>) {
        for msg in self.parked.remove(&peer).unwrap_or_default() {
            self.send(peer, msg, now_us, out);
        }
    }
}

/// A broadcast the [`ReliableFlooder`] hosting its origin injects at a
/// scheduled virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledBroadcast {
    /// Broadcast id to originate.
    pub id: u64,
    /// Originating node.
    pub origin: u32,
    /// Virtual origination time (µs).
    pub at_us: u64,
}

/// Timer tokens at or above this value are reliability ticks; below it
/// they index the broadcast schedule.
const TICK_TOKEN_BASE: u64 = 1 << 32;

/// [`ReliableCore`] as a simulator [`Process`]: timers and arrivals in,
/// `ctx.send`/`ctx.deliver` out — the same data plane the TCP runtime
/// drives, so lossy chaos runs exercise one protocol on both engines.
///
/// Reliability ticks are pre-armed for the whole horizon at start (a
/// chained-timer design would die silently the first time a tick landed
/// inside a fault-injected down window).
pub struct ReliableFlooder {
    schedule: Vec<ScheduledBroadcast>,
    horizon_us: u64,
    seen: SeenSet,
    core: ReliableCore<NodeId>,
    /// Reused sink for the core's sends, drained into the context.
    out: Sends<NodeId>,
}

impl ReliableFlooder {
    /// A flooder that originates its share of `schedule` (every node hosts
    /// the full schedule and arms timers for its own entries) and runs
    /// reliability ticks until `horizon_us`.
    #[must_use]
    pub fn new(cfg: ReliableConfig, schedule: Vec<ScheduledBroadcast>, horizon_us: u64) -> Self {
        ReliableFlooder {
            schedule,
            horizon_us,
            seen: SeenSet::default(),
            // The origin is set in `on_start`, where the node id is first known.
            core: ReliableCore::new(cfg, 0, ACK_TAG, SUMMARY_TAG),
            out: Vec::new(),
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        for (to, msg) in self.out.drain(..) {
            ctx.send(to, msg);
        }
    }
}

impl Process for ReliableFlooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.core.origin = ctx.id().index() as u32;
        let cfg = self.core.cfg;
        for (idx, b) in self.schedule.iter().enumerate() {
            if b.origin as usize == ctx.id().index() {
                ctx.set_timer(b.at_us, idx as u64);
            }
        }
        let mut tick = 1;
        while tick * cfg.tick_us <= self.horizon_us {
            ctx.set_timer(tick * cfg.tick_us, TICK_TOKEN_BASE + tick);
            tick += 1;
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if token >= TICK_TOKEN_BASE {
            // Peer by peer, so each neighbor's sweep, ack and summary
            // leave back to back.
            let advertise = (token - TICK_TOKEN_BASE).is_multiple_of(self.core.cfg.summary_ticks());
            for &w in ctx.neighbors() {
                self.core.tick(now, [w], &mut self.out);
                if advertise {
                    self.core.advertise([w], &mut self.out);
                }
            }
        } else {
            let b = self.schedule[token as usize];
            if !self.seen.insert(b.id) {
                return;
            }
            let msg = Message::new(b.id, ctx.id().index() as u32, Bytes::new());
            let peers = ctx.neighbors().iter().copied();
            self.core.originate(&msg, now, peers, &mut self.out);
            ctx.deliver(msg);
        }
        self.emit(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
        let now = ctx.now();
        match msg.broadcast_id {
            ACK_TAG => self.core.on_ack(from, msg.payload, now, &mut self.out),
            SUMMARY_TAG => {
                self.core
                    .on_summary(from, msg.payload, &self.seen, now, &mut self.out);
            }
            _ => {
                let peers = ctx.neighbors().iter().copied();
                let outcome =
                    self.core
                        .on_data(from, &msg, &mut self.seen, now, peers, &mut self.out);
                if outcome == DataOutcome::Fresh {
                    ctx.deliver(msg);
                }
            }
        }
        self.emit(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use lhg_graph::Graph;

    use crate::fault::{FaultInjector, LinkFaults};
    use crate::sim::{LinkModel, Simulation};

    fn msg(id: u64) -> Message {
        Message::new(id, 0, Bytes::from_static(b"m"))
    }

    fn cfg() -> ReliableConfig {
        ReliableConfig {
            window: 4,
            rto_us: 100,
            max_retries: 3,
            queue_cap: 8,
            ..ReliableConfig::default()
        }
    }

    #[test]
    fn sender_stamps_consecutive_seqs() {
        let mut tx = LinkSender::new();
        let a = tx.send(msg(1), &cfg(), 0).unwrap();
        let b = tx.send(msg(2), &cfg(), 0).unwrap();
        assert_eq!(a.link_seq, Some(1));
        assert_eq!(b.link_seq, Some(2));
        assert_eq!(tx.in_flight(), 2);
    }

    #[test]
    fn window_full_queues_and_ack_drains() {
        let c = cfg();
        let mut tx = LinkSender::new();
        for i in 0..4 {
            assert!(tx.send(msg(i), &c, 0).is_some());
        }
        assert!(tx.send(msg(99), &c, 0).is_none(), "window full: queued");
        assert_eq!(tx.queued(), 1);
        // Acking the first two frames opens the window; the queued frame
        // surfaces with the next sequence number.
        let out = tx.on_ack(2, &[], &c, 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].link_seq, Some(5));
        assert_eq!(out[0].broadcast_id, 99);
        assert_eq!(tx.queued(), 0);
        assert_eq!(tx.in_flight(), 3);
    }

    #[test]
    fn nacks_retransmit_immediately() {
        let c = cfg();
        let mut tx = LinkSender::new();
        for i in 0..3 {
            tx.send(msg(i), &c, 0);
        }
        // Peer received 1 and 3: cum=1, hole at 2.
        let out = tx.on_ack(1, &[2], &c, 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].link_seq, Some(2));
        assert_eq!(tx.in_flight(), 2, "seqs 2 and 3 still await acks");
    }

    #[test]
    fn sweep_retransmits_after_rto_then_gives_up() {
        let c = cfg();
        let mut tx = LinkSender::new();
        tx.send(msg(7), &c, 0);
        assert!(tx.sweep(&c, 50).is_empty(), "before rto: nothing due");
        for round in 1..=3u64 {
            let out = tx.sweep(&c, round * 100);
            assert_eq!(out.len(), 1, "round {round} retransmits");
        }
        // Fourth expiry exceeds max_retries: the frame is abandoned.
        assert!(tx.sweep(&c, 400).is_empty());
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.given_up(), 1);
    }

    #[test]
    fn take_undelivered_returns_unacked_and_queued_unstamped() {
        let c = cfg();
        let mut tx = LinkSender::new();
        for i in 0..5 {
            tx.send(msg(i), &c, 0);
        }
        tx.on_ack(1, &[], &c, 0);
        let pending = tx.take_undelivered();
        // seq 1 (msg 0) was acked; seq 5 surfaced from the queue on ack.
        let ids: Vec<u64> = pending.iter().map(|m| m.broadcast_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert!(pending.iter().all(|m| m.link_seq.is_none()));
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn receiver_tracks_cumulative_and_out_of_order() {
        let mut rx = LinkReceiver::new();
        assert!(rx.on_frame(1));
        assert!(rx.on_frame(3), "out of order is fresh");
        assert!(!rx.on_frame(3), "link-level duplicate");
        assert!(!rx.on_frame(1), "below cum is a duplicate");
        assert_eq!(rx.cum(), 1);
        assert!(rx.on_frame(2), "hole fills; cum jumps over 3");
        assert_eq!(rx.cum(), 3);
    }

    #[test]
    fn ack_payload_names_holes() {
        let mut rx = LinkReceiver::new();
        rx.on_frame(1);
        rx.on_frame(4);
        rx.on_frame(6);
        let (cum, nacks) = rx.ack_payload();
        assert_eq!(cum, 1);
        assert_eq!(nacks, vec![2, 3, 5]);
        assert!(!rx.dirty(), "ack emission clears the dirty flag");
    }

    #[test]
    fn duplicate_still_marks_dirty() {
        let mut rx = LinkReceiver::new();
        rx.on_frame(1);
        rx.ack_payload();
        assert!(!rx.on_frame(1), "retransmitted copy");
        assert!(rx.dirty(), "a duplicate means our ack was lost: re-ack");
    }

    #[test]
    fn ack_payload_round_trips() {
        let nacks = vec![3, 4, 9];
        let raw = encode_ack_payload(17, &nacks);
        assert_eq!(decode_ack_payload(raw), Some((17, nacks)));
        assert_eq!(decode_ack_payload(Bytes::from_static(b"xx")), None);
    }

    #[test]
    fn summary_payload_round_trips() {
        let ids = vec![1, 2, 0xFFFF_FFFF_FFFF];
        let raw = encode_summary_payload(false, &ids);
        assert_eq!(decode_summary_payload(raw), Some((false, ids.clone())));
        let raw = encode_summary_payload(true, &ids);
        assert_eq!(decode_summary_payload(raw), Some((true, ids)));
        assert_eq!(
            decode_summary_payload(Bytes::from_static(b"\x07\x00\x00\x00\x00")),
            None,
            "unknown mode byte"
        );
    }

    /// A core for node 0 on the simulator's tags, plus a data frame maker.
    fn core(cfg: ReliableConfig) -> ReliableCore<u32> {
        ReliableCore::new(cfg, 0, ACK_TAG, SUMMARY_TAG)
    }

    fn ids(out: &Sends<u32>) -> Vec<(u32, u64, Option<u64>)> {
        out.iter()
            .map(|(to, m)| (*to, m.broadcast_id, m.link_seq))
            .collect()
    }

    #[test]
    fn replaced_link_parks_unstamped_capped_and_flush_restarts_at_seq_1() {
        let mut c = core(cfg()); // window 4, queue_cap 8
        let mut out = Vec::new();
        for id in 1..=12 {
            c.originate(&msg(id), 0, [7], &mut out);
        }
        assert_eq!(out.len(), 4, "window admits 4; 8 queue behind them");
        c.on_ack(7, encode_ack_payload(1, &[]), 0, &mut out);
        assert_eq!(ids(&out)[4], (7, 5, Some(5)), "the ack admitted one more");

        c.reset_link(7);
        let parked = &c.parked[&7];
        assert!(parked.iter().all(|m| m.link_seq.is_none()), "unstamped");
        let parked_ids: Vec<u64> = parked.iter().map(|m| m.broadcast_id).collect();
        // Unacked 2..=5 then queued 6..=12 is 11 frames: the cap keeps the
        // newest `queue_cap`, in order.
        assert_eq!(parked_ids, (5..=12).collect::<Vec<u64>>());

        out.clear();
        c.flush(7, 50, &mut out);
        let want: Vec<_> = (1..=4).map(|i| (7, 4 + i, Some(i))).collect();
        assert_eq!(ids(&out), want, "fresh sequence space from 1");
        assert!(c.parked.is_empty());
    }

    #[test]
    fn retained_bytes_rises_with_remember_falls_on_eviction_and_ack_and_stays_bounded() {
        const LEN: usize = 100;
        let cfg = ReliableConfig {
            store_cap: 2,
            ..cfg() // window 4, queue_cap 8
        };
        let big = |id| Message::new(id, 0, Bytes::from(vec![0u8; LEN]));
        let (mut c, mut out) = (core(cfg), Vec::new());
        assert_eq!(c.retained_bytes(), 0);
        c.originate(&big(1), 0, [1, 2], &mut out);
        assert_eq!(c.retained_bytes(), 3 * LEN, "the store and two windows");
        c.originate(&big(2), 0, [1, 2], &mut out);
        assert_eq!(c.retained_bytes(), 6 * LEN);
        c.originate(&big(3), 0, [1, 2], &mut out);
        assert_eq!(c.retained_bytes(), 8 * LEN, "the store evicted id 1");
        c.on_ack(1, encode_ack_payload(3, &[]), 0, &mut out);
        assert_eq!(c.retained_bytes(), 5 * LEN, "peer 1 acked its window");
        c.on_ack(2, encode_ack_payload(3, &[]), 0, &mut out);
        assert_eq!(c.retained_bytes(), cfg.store_cap * LEN, "only the store");

        // Nobody acks any more: windows fill, queues fill, queues overflow.
        let per_link = cfg.window + cfg.queue_cap;
        let bound =
            |links, parked| (cfg.store_cap + per_link * links + cfg.queue_cap * parked) * LEN;
        for id in 4..=40 {
            c.originate(&big(id), 0, [1, 2], &mut out);
            assert!(c.retained_bytes() <= bound(2, 0), "at id {id}");
        }
        assert_eq!(c.retained_bytes(), bound(2, 0), "every structure is full");
        c.reset_link(1);
        assert_eq!(
            c.retained_bytes(),
            bound(1, 1),
            "parked, capped at queue_cap"
        );
        c.abandon(1);
        assert_eq!(c.retained_bytes(), bound(1, 0));
    }

    #[test]
    fn pull_serves_retained_ids_with_stored_hops_and_nothing_once_evicted() {
        let mut c = core(ReliableConfig {
            store_cap: 2,
            ..cfg()
        });
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        for id in 1..=3u64 {
            let mut m = msg(id).with_link_seq(id);
            m.hops = 2 + id as u32;
            assert_eq!(
                c.on_data(1, &m, &mut seen, 0, [1], &mut out),
                DataOutcome::Fresh
            );
        }
        assert!(out.is_empty(), "the only peer is the sender: no forwards");
        // Id 1 fell out of the 2-entry store; id 3 is retained as received.
        let pull = encode_summary_payload(true, &[1, 3]);
        assert_eq!(
            c.on_summary(2, pull, &seen, 0, &mut out),
            SummaryOutcome::Served(1)
        );
        assert_eq!(ids(&out), vec![(2, 3, Some(1))]);
        assert_eq!(out[0].1.hops, 5, "repair copies keep the stored hop count");

        // An advertisement naming one unseen id is answered with one pull.
        out.clear();
        let advert = encode_summary_payload(false, &[3, 99]);
        assert_eq!(
            c.on_summary(2, advert, &seen, 0, &mut out),
            SummaryOutcome::Pulled
        );
        assert_eq!(out[0].1.broadcast_id, SUMMARY_TAG);
        assert_eq!(
            decode_summary_payload(out[0].1.payload.clone()),
            Some((true, vec![99]))
        );
    }

    #[test]
    fn link_duplicate_is_dropped_but_earns_an_ack_on_the_next_tick() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        let m = msg(1).with_link_seq(1);
        assert_eq!(
            c.on_data(1, &m, &mut seen, 0, [1, 2], &mut out),
            DataOutcome::Fresh
        );
        assert_eq!(
            ids(&out),
            vec![(2, 1, Some(1))],
            "forwarded past the sender"
        );
        assert_eq!(out[0].1.hops, 1);
        assert_eq!(c.tick(10, [1, 2], &mut out).acks, 1);
        assert_eq!(c.tick(20, [1, 2], &mut out), TickReport::default());

        out.clear();
        assert_eq!(
            c.on_data(1, &m, &mut seen, 30, [1, 2], &mut out),
            DataOutcome::LinkDuplicate
        );
        assert!(out.is_empty(), "a retransmitted copy is not re-forwarded");
        assert_eq!(c.tick(40, [1, 2], &mut out).acks, 1, "but it is re-acked");
        assert_eq!((out[0].0, out[0].1.broadcast_id), (1, ACK_TAG));
        assert_eq!(
            decode_ack_payload(out[0].1.payload.clone()),
            Some((1, vec![]))
        );
        // A copy over another link is new there, and the dedup set's call.
        let other = msg(1).with_link_seq(1);
        assert_eq!(
            c.on_data(2, &other, &mut seen, 50, [1, 2], &mut out),
            DataOutcome::Duplicate
        );
    }

    #[test]
    fn sends_follow_the_drivers_peer_order() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        let order = |out: &Sends<u32>| out.iter().map(|(to, _)| *to).collect::<Vec<_>>();

        c.originate(&msg(1), 0, [9, 2, 5], &mut out);
        assert_eq!(order(&out), vec![9, 2, 5]);
        out.clear();
        let m = msg(2).with_link_seq(1);
        c.on_data(2, &m, &mut seen, 0, [5, 2, 9], &mut out);
        assert_eq!(order(&out), vec![5, 9], "every peer but the sender");
        out.clear();
        // Past the rto every link retransmits; link 2 also owes an ack,
        // which leaves right behind its own sweep.
        let report = c.tick(1_000, [2, 9, 5], &mut out);
        assert_eq!((report.retransmits, report.acks), (5, 1));
        assert_eq!(order(&out), vec![2, 2, 9, 9, 5, 5]);
        assert_eq!(out[1].1.broadcast_id, ACK_TAG);
        out.clear();
        assert!(c.advertise([5, 9, 2], &mut out));
        assert_eq!(order(&out), vec![5, 9, 2]);
        assert!(!c.advertise([], &mut out), "nobody to tell");
    }

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        g
    }

    /// One flooder per node, node 0 originating broadcast 0x1000 at `at_us`.
    fn flooders(n: usize, cfg: ReliableConfig, at_us: u64, horizon: u64) -> Vec<Box<dyn Process>> {
        let schedule = vec![ScheduledBroadcast {
            id: 0x1000,
            origin: 0,
            at_us,
        }];
        (0..n)
            .map(|_| {
                Box::new(ReliableFlooder::new(cfg, schedule.clone(), horizon)) as Box<dyn Process>
            })
            .collect()
    }

    #[test]
    fn lossless_latency_matches_best_effort_flooding() {
        // Acceptance bound for the reliable layer: ≤5% added latency on
        // clean links. Under zero jitter the comparison is exact — both
        // flooders forward the instant a fresh frame arrives, and acks,
        // sweeps, and summaries all ride separate frames that never delay
        // the data path. Any regression that puts reliability bookkeeping
        // in front of forwarding shows up here as a hard inequality.
        use crate::broadcast::FloodProcess;

        let n = 10;
        let g = cycle(n);
        let link = LinkModel {
            base_latency_us: 1_000,
            jitter_us: 0,
        };
        let horizon = 1_000_000;

        let mut base_sim = Simulation::new(&g, link, 7);
        let base_procs: Vec<Box<dyn Process>> = (0..n)
            .map(|v| -> Box<dyn Process> {
                if v == 0 {
                    Box::new(FloodProcess::origin(0x1000, Bytes::from_static(b"m")))
                } else {
                    Box::new(FloodProcess::relay())
                }
            })
            .collect();
        let baseline = base_sim.run(base_procs, horizon).first_delivery_times(n);

        let mut rel_sim = Simulation::new(&g, link, 7);
        let rel_procs = flooders(n, ReliableConfig::default(), 0, horizon);
        let reliable = rel_sim.run(rel_procs, horizon).first_delivery_times(n);

        for v in 1..n {
            let b = baseline[v].expect("baseline delivers everywhere");
            let r = reliable[v].expect("reliable delivers everywhere");
            assert_eq!(
                r, b,
                "node {v}: reliable layer added latency on a clean link"
            );
        }
    }

    #[test]
    fn reliable_flood_survives_heavy_loss() {
        // 30% drop on every link: a best-effort flood on a cycle would
        // almost surely miss someone; ack/retransmit must not.
        let n = 8;
        let g = cycle(n);
        let mut inj = FaultInjector::new(42);
        inj.set_default_rates(LinkFaults {
            drop: 0.3,
            duplicate: 0.1,
            ..LinkFaults::default()
        });
        let mut sim = Simulation::new(
            &g,
            LinkModel {
                base_latency_us: 1_000,
                jitter_us: 200,
            },
            42,
        );
        sim.with_faults(Arc::new(inj));
        let horizon = 1_000_000;
        let processes = flooders(n, ReliableConfig::default(), 10_000, horizon);
        let report = sim.run(processes, horizon);
        let first = report.first_delivery_times(n);
        for (v, t) in first.iter().enumerate() {
            assert!(t.is_some(), "node {v} never delivered under loss");
        }
        assert_eq!(
            report.deliveries.len(),
            n,
            "exactly-once at every node despite retransmits and duplicates"
        );
    }

    #[test]
    fn summary_every_zero_means_every_tick() {
        let every = |summary_every| ReliableConfig {
            summary_every,
            ..ReliableConfig::default()
        };
        assert_eq!(every(0).summary_ticks(), 1);
        assert_eq!(every(1).summary_ticks(), 1);
        assert_eq!(every(5).summary_ticks(), 5);

        // On the simulator: 0 advertises on every tick, exactly like 1 —
        // and so sends more frames than the default cadence of 5.
        let frames = |summary_every| {
            let mut sim = Simulation::new(&cycle(4), LinkModel::default(), 3);
            sim.run(flooders(4, every(summary_every), 0, 200_000), 200_000)
                .messages_sent
        };
        assert_eq!(frames(0), frames(1));
        assert!(frames(0) > frames(5));
    }
}
