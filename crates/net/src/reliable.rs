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
//! **Control rides the data.** A link's two directions usually both carry
//! data, so a clean cumulative ack does not get a frame of its own: the
//! core attaches whatever ack a link owes to the next data frame it emits
//! on that link — fresh, forwarded, retransmitted or served — in the
//! message's 8-byte link-ack extension (never to the copy kept for
//! retransmission or pulls). A standalone ack frame leaves only when one
//! of these holds:
//!
//! * the ack names **holes** (a frame arrived above a gap): NACKs need the
//!   ack payload, so the next sweep sends one;
//! * a **link duplicate** arrived: the peer retransmitted because our ack
//!   was lost or late, so the next sweep answers it;
//! * the ack covers **`window / 2`** frames: it leaves at once, so a sender
//!   streaming into a silent reverse direction never stalls on its window;
//! * it has been owed for **`rto_us / 4`**: the next sweep sends it.
//!
//! Both thresholds come from the existing config, and so does the sweep
//! grid, [`ReliableConfig::sweep_us`] = `rto/3`. The margin for the last:
//! the frame crossed at `t + d`, its ack leaves by `t + d + rto/4 + rto/3`
//! and lands by `t + 2d + rto/4 + rto/3`, so an ack that only waited for a
//! ride never draws a spurious retransmission while `2d + rto/3 < ¾·rto` —
//! 12.5 ms at 30 ms, for a round trip of the simulator's ≤ 4.2 ms lossy
//! links or of loopback (`rto/12` where `lhg-runtime`'s node sweeps a point
//! late, behind traffic that stopped just short of it). A grid, not each
//! ack's exact deadline, lets the wait pay: an ack sent the instant it has
//! waited `rto/4` leaves just before the reverse data that would carry it.
//!
//! **Summaries name only what a neighbor may lack.** Each retained id
//! carries a bitmask of the peers known to hold it: the peer it came from,
//! every peer whose ack (standalone or piggybacked) covered our copy, and
//! every peer whose own advertisement named it — the last is what keeps a
//! link that carries no bodies (the node forwards a fresh frame only to
//! the `peers` its driver passes, in `lhg-runtime` the children of the
//! origin's tree) from advertising each id both ways every round.
//! An advertisement to P names the retained ids P is not known to hold —
//! those still in flight to P included — among the [`MAX_SUMMARY_IDS`]
//! newest, so a driver whose lazy links learn ids only from adverts must
//! advertise at least once per [`ReliableConfig::advert_batch`] retained
//! ids (`lhg-runtime`'s node brings its round forward to); and when there
//! are none, no
//! summary goes to P: a quiet cluster stays quiet. A link reset forgets
//! what its peer holds (a revenant reboots blank).
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
use std::num::NonZeroU64;

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
    /// Send an anti-entropy summary every this many sweeps (heartbeat
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

    /// The grid both drivers sweep on (retransmissions, due standalone
    /// acks): a third of `rto_us`, 10 ms at the default; see the module docs.
    #[must_use]
    pub fn sweep_us(&self) -> u64 {
        (self.rto_us / 3).max(1)
    }

    /// The most ids a driver may retain between two [`ReliableCore::advertise`]
    /// rounds and still have every one named while stored: at most the
    /// [`MAX_SUMMARY_IDS`] newest an advert covers, and half the store, so
    /// each stays for the pull it draws.
    #[must_use]
    pub fn advert_batch(&self) -> usize {
        (self.store_cap / 2).clamp(1, MAX_SUMMARY_IDS)
    }

    /// Frames one clean ack may cover before it leaves on its own: half
    /// the window, so the peer's sender never stalls waiting for a ride.
    fn ack_flush_frames(&self) -> usize {
        (self.window / 2).max(1)
    }

    /// How long a clean ack may wait for a data frame to ride on (see the
    /// module docs for why a quarter of the retransmit timeout is safe).
    fn ack_delay_us(&self) -> u64 {
        self.rto_us / 4
    }
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            window: 64,
            rto_us: 30_000,
            max_retries: 12,
            queue_cap: 1024,
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
    /// A clean ack (no NACKs, nothing queued) allocates nothing.
    pub fn on_ack(
        &mut self,
        cum: u64,
        nacks: &[u64],
        cfg: &ReliableConfig,
        now_us: u64,
    ) -> Vec<Message> {
        self.retire(cum, |_| {});
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

    /// Drops every frame the cumulative ack `cum` covers from the window,
    /// oldest first, handing each to `acked` on its way out.
    fn retire(&mut self, cum: u64, mut acked: impl FnMut(&Message)) {
        while let Some(entry) = self.unacked.first_entry() {
            if *entry.key() > cum {
                break;
            }
            acked(&entry.remove().msg);
        }
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
    /// A frame arrived since the last ack left, piggybacked or standalone;
    /// `owed` frames did, the first of them at `owed_since` (the core's
    /// clock: [`Self::on_frame`] has none).
    dirty: bool,
    owed: usize,
    owed_since: u64,
    /// A frame arrived since the last standalone ack that only a
    /// standalone ack answers: a link duplicate (our ack went missing), or
    /// any frame while there are holes to NACK.
    urgent: bool,
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
        self.owed += 1;
        if seq <= self.cum || self.above.contains(&seq) {
            self.urgent = true;
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
        self.urgent |= !self.above.is_empty();
        true
    }

    /// [`Self::on_frame`] at `now_us`, which starts the owed ack's clock.
    fn on_frame_at(&mut self, seq: u64, now_us: u64) -> bool {
        let fresh = self.on_frame(seq);
        if self.owed == 1 {
            self.owed_since = now_us;
        }
        fresh
    }

    /// The cumulative ack a data frame to the peer can carry, if one is
    /// owed; taking it settles the clean part of the debt. Holes and
    /// duplicates still wait for a standalone ack ([`Self::ack_due`]).
    fn piggyback(&mut self) -> Option<NonZeroU64> {
        if !self.dirty {
            return None;
        }
        let cum = NonZeroU64::new(self.cum)?;
        self.dirty = false;
        self.owed = 0;
        Some(cum)
    }

    /// `true` when an ack frame of its own is due at `now_us`: the ack
    /// names holes or answers a duplicate, or a clean ack has covered
    /// `window / 2` frames or waited `rto_us / 4` for a ride (timed from
    /// [`Self::on_frame_at`]).
    fn ack_due(&self, cfg: &ReliableConfig, now_us: u64) -> bool {
        let waited = now_us.saturating_sub(self.owed_since) >= cfg.ack_delay_us();
        self.urgent || self.covers_half_window(cfg) || (self.dirty && waited)
    }

    /// `true` when the clean ack owed covers `window / 2` frames.
    fn covers_half_window(&self, cfg: &ReliableConfig) -> bool {
        self.dirty && self.owed >= cfg.ack_flush_frames()
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

    /// Produces the `(cum, nacks)` payload for an ack frame and settles
    /// everything owed. NACKs name the first [`MAX_NACKS`] holes between
    /// the cumulative point and the highest sequence seen.
    pub fn ack_payload(&mut self) -> (u64, Vec<u64>) {
        self.dirty = false;
        self.urgent = false;
        self.owed = 0;
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
    /// Standalone ack frames emitted (piggybacked acks are not frames).
    pub acks: u64,
}

/// A broadcast kept for summaries and pull serving, with the peers known
/// to hold it ([`Holders`] says which peer each bit stands for).
#[derive(Debug)]
struct Retained {
    msg: Message,
    held: u64,
}

/// The peer behind each bit of a [`Retained::held`] mask. A slot is taken
/// the first time a peer is known to hold something and freed when its
/// link resets; with all 64 taken, a further peer is never known to hold
/// anything (its summaries name everything, as before the masks).
#[derive(Debug)]
struct Holders<P>(Vec<Option<P>>);

impl<P: Copy + Eq> Holders<P> {
    /// `peer`'s bit, 0 if it has none.
    fn bit(&self, peer: P) -> u64 {
        let slot = self.0.iter().position(|h| *h == Some(peer));
        slot.map_or(0, |i| 1 << i)
    }

    /// `peer`'s bit, claiming a free slot for it if it has none yet.
    fn claim(&mut self, peer: P) -> u64 {
        let bit = self.bit(peer);
        if bit != 0 {
            return bit;
        }
        let slot = match self.0.iter().position(Option::is_none) {
            Some(free) => free,
            None if self.0.len() < 64 => {
                self.0.push(None);
                self.0.len() - 1
            }
            None => return 0,
        };
        self.0[slot] = Some(peer);
        1 << slot
    }

    /// Frees `peer`'s slot; returns the bit it had (0 if none).
    fn release(&mut self, peer: P) -> u64 {
        let bit = self.bit(peer);
        if bit != 0 {
            self.0[bit.trailing_zeros() as usize] = None;
        }
        bit
    }
}

/// The reliable-flood data plane as one sans-IO state machine: flooding
/// over per-link ack/retransmit with anti-entropy repair on top. It owns
/// the per-peer [`LinkSender`]/[`LinkReceiver`] pairs, the store of recent
/// broadcasts that summaries advertise and pulls are served from (with
/// who is known to hold each), and the frames parked while a replaced link
/// waits for its successor.
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
    store: HashMap<u64, Retained>,
    recent: VecDeque<u64>,
    /// Who owns which bit of the held masks.
    holders: Holders<P>,
    /// Reused buffer for the ids of one summary.
    summary_ids: Vec<u64>,
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
            holders: Holders(Vec::new()),
            summary_ids: Vec::new(),
        }
    }

    /// Retains `kept` (link fields stripped) for summaries and pull
    /// serving, as held by the peers in `held`, evicting the oldest entry
    /// past `store_cap`.
    fn remember(&mut self, mut kept: Message, held: u64) {
        if self.recent.len() >= self.cfg.store_cap {
            if let Some(old) = self.recent.pop_front() {
                self.store.remove(&old);
            }
        }
        kept.link_seq = None;
        kept.link_ack = None;
        let id = kept.broadcast_id;
        self.recent.push_back(id);
        self.store.insert(id, Retained { msg: kept, held });
    }

    /// Records that the peers in `bits` hold retained broadcast `id`.
    fn mark_held(store: &mut HashMap<u64, Retained>, id: u64, bits: u64) {
        if let Some(kept) = store.get_mut(&id) {
            kept.held |= bits;
        }
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
        let store = self.store.values().map(|k| k.msg.payload.len());
        let links = self.tx.values().map(LinkSender::retained_bytes);
        let parked = self.parked.values().flatten().map(|m| m.payload.len());
        store.chain(links).chain(parked).sum()
    }

    /// Puts data frame `msg` on the link to `to`, carrying the cumulative
    /// ack that link owes, if any. Every data frame leaves through here.
    fn emit(&mut self, to: P, mut msg: Message, out: &mut Sends<P>) {
        msg.link_ack = self.rx.get_mut(&to).and_then(LinkReceiver::piggyback);
        out.push((to, msg));
    }

    /// Sends the ack `peer`'s link owes in a frame of its own.
    fn emit_ack(&mut self, peer: P, out: &mut Sends<P>) {
        let Some(rx) = self.rx.get_mut(&peer) else {
            return;
        };
        let (cum, nacks) = rx.ack_payload();
        let ack = encode_ack_payload(cum, &nacks);
        out.push((peer, Message::new(self.ack_id, self.origin, ack)));
    }

    /// Hands `msg` to `to`'s sender; emits it if the window admits it now
    /// (otherwise it queues and surfaces from a later ack or sweep).
    fn send(&mut self, to: P, msg: Message, now_us: u64, out: &mut Sends<P>) {
        let sender = self.tx.entry(to).or_default();
        if let Some(stamped) = sender.send(msg, &self.cfg, now_us) {
            self.emit(to, stamped, out);
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
        let kept = Message {
            hops: 0,
            ..wire.clone()
        };
        self.remember(kept, 0);
        self.flood(wire, None, now_us, peers, out);
    }

    /// A data frame arrived from `from`: its piggybacked ack first, then
    /// link-level dedup, then the flooding dedup set. A fresh frame is
    /// retained and forwarded to each of `peers` but `from`; delivering it is
    /// the driver's job. A clean ack that has come to cover `window / 2`
    /// frames leaves at once, behind the forwards.
    pub fn on_data(
        &mut self,
        from: P,
        msg: &Message,
        seen: &mut SeenSet,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) -> DataOutcome {
        if let Some(cum) = msg.link_ack {
            self.acked(from, cum.get(), &[], now_us, out);
        }
        if let Some(seq) = msg.link_seq {
            if !self
                .rx
                .entry(from)
                .or_default()
                .on_frame_at(seq.get(), now_us)
            {
                return DataOutcome::LinkDuplicate;
            }
        }
        let sender = self.holders.claim(from);
        let outcome = if seen.insert(msg.broadcast_id) {
            self.remember(msg.clone(), sender);
            self.flood(&msg.forwarded(), Some(from), now_us, peers, out);
            DataOutcome::Fresh
        } else {
            Self::mark_held(&mut self.store, msg.broadcast_id, sender);
            DataOutcome::Duplicate
        };
        if (self.rx.get(&from)).is_some_and(|rx| rx.covers_half_window(&self.cfg)) {
            self.emit_ack(from, out);
        }
        outcome
    }

    /// An ack frame's payload arrived from `from`: NACKed holes are
    /// retransmitted at once and the opened window drains the queue.
    pub fn on_ack(&mut self, from: P, payload: Bytes, now_us: u64, out: &mut Sends<P>) {
        let Some((cum, nacks)) = decode_ack_payload(payload) else {
            return;
        };
        self.acked(from, cum, &nacks, now_us, out);
    }

    /// `from` acknowledged everything through `cum` on our link to it,
    /// standalone or piggybacked: the frames it covers retire — and count
    /// as held by `from` in the store — and whatever the ack releases
    /// (NACKed retransmissions, queued frames) goes out.
    fn acked(&mut self, from: P, cum: u64, nacks: &[u64], now_us: u64, out: &mut Sends<P>) {
        let Some(tx) = self.tx.get_mut(&from) else {
            return;
        };
        let (bit, store) = (self.holders.claim(from), &mut self.store);
        tx.retire(cum, |m| Self::mark_held(store, m.broadcast_id, bit));
        for frame in tx.on_ack(cum, nacks, &self.cfg, now_us) {
            self.emit(from, frame, out);
        }
    }

    /// A summary frame's payload arrived from `from`. An advertisement
    /// marks what it names as held by `from`, is diffed against `seen` and
    /// any gap answered with one pull; a pull is served from the store
    /// over the reliable link. Served copies keep their stored hop count:
    /// repair traffic is not part of the dissemination tree.
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
                let bit = self.holders.claim(from);
                for &id in &ids {
                    Self::mark_held(&mut self.store, id, bit);
                }
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
                    if let Some(kept) = self.store.get(&id).map(|k| k.msg.clone()) {
                        self.send(from, kept, now_us, out);
                        served += 1;
                    }
                }
                SummaryOutcome::Served(served)
            }
            None => SummaryOutcome::Ignored,
        }
    }

    /// `true` while a sweep could have work — a frame unacked or queued on
    /// some link, an ack owed: only then need a driver wake for the grid.
    #[must_use]
    pub fn pending(&self) -> bool {
        (self.tx.values()).any(|tx| tx.in_flight() + tx.queued() > 0)
            || (self.rx.values()).any(|rx| rx.dirty || rx.urgent)
    }

    /// One reliability tick: per peer, the retransmit sweep and then the
    /// standalone ack its receiver owes, if one is due (holes, a duplicate,
    /// or a clean ack that waited `rto_us / 4`; see the module docs).
    pub fn tick(
        &mut self,
        now_us: u64,
        peers: impl IntoIterator<Item = P>,
        out: &mut Sends<P>,
    ) -> TickReport {
        let mut report = TickReport::default();
        for peer in peers {
            let due = match self.tx.get_mut(&peer) {
                Some(tx) => tx.sweep(&self.cfg, now_us),
                None => Vec::new(),
            };
            for frame in due {
                self.emit(peer, frame, out);
                report.retransmits += 1;
            }
            if (self.rx.get(&peer)).is_some_and(|rx| rx.ack_due(&self.cfg, now_us)) {
                self.emit_ack(peer, out);
                report.acks += 1;
            }
        }
        report
    }

    /// Advertises to each peer the most recent [`MAX_SUMMARY_IDS`] retained
    /// broadcast ids it is not known to hold (best-effort frames); a peer
    /// known to hold them all gets no frame. Returns whether anything was
    /// sent.
    pub fn advertise(&mut self, peers: impl IntoIterator<Item = P>, out: &mut Sends<P>) -> bool {
        let before = out.len();
        for peer in peers {
            let (bit, store) = (self.holders.bit(peer), &self.store);
            let lacks = |id: &u64| store.get(id).is_some_and(|k| k.held & bit == 0);
            self.summary_ids.clear();
            let recent = self.recent.iter().rev().take(MAX_SUMMARY_IDS);
            self.summary_ids.extend(recent.filter(|id| lacks(id)));
            if !self.summary_ids.is_empty() {
                let advert = encode_summary_payload(false, &self.summary_ids);
                out.push((peer, Message::new(self.summary_id, self.origin, advert)));
            }
        }
        out.len() > before
    }

    /// The connection behind `peer` was replaced or lost: both sequence
    /// spaces restart, whatever the old sender never got acknowledged is
    /// parked, unstamped, for [`Self::flush`], and what `peer` was known to
    /// hold is forgotten (whoever answers next may have rebooted blank).
    /// The park is bounded like the sender queue (`queue_cap`, oldest
    /// dropped first): a peer down long enough to overflow it is left to
    /// anti-entropy repair.
    pub fn reset_link(&mut self, peer: P) {
        self.rx.remove(&peer);
        let bit = self.holders.release(peer);
        if bit != 0 {
            for kept in self.store.values_mut() {
                kept.held &= !bit;
            }
        }
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
/// Reliability ticks (one per [`ReliableConfig::sweep_us`]) are pre-armed
/// for the whole horizon at start (a chained-timer design would die
/// silently the first time a tick landed inside a fault-injected down window).
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
        while tick * cfg.sweep_us() <= self.horizon_us {
            ctx.set_timer(tick * cfg.sweep_us(), TICK_TOKEN_BASE + tick);
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
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use lhg_graph::Graph;

    use crate::fault::{FaultInjector, LinkFaults};
    use crate::sim::{LinkModel, Simulation};

    fn msg(id: u64) -> Message {
        Message::new(id, 0, Bytes::from_static(b"m"))
    }

    fn seq(m: &Message) -> Option<u64> {
        m.link_seq.map(NonZeroU64::get)
    }

    fn ack(m: &Message) -> Option<u64> {
        m.link_ack.map(NonZeroU64::get)
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
        assert_eq!(seq(&a), Some(1));
        assert_eq!(seq(&b), Some(2));
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
        assert_eq!(seq(&out[0]), Some(5));
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
        assert_eq!(seq(&out[0]), Some(2));
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
            .map(|(to, m)| (*to, m.broadcast_id, seq(m)))
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
        // No forwards (the only peer is the sender), but once the clean ack
        // its link owes covered window/2 = 2 frames it left on its own.
        assert_eq!(ids(&out), vec![(1, ACK_TAG, None)]);
        out.clear();
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
        // Nothing goes back to 1 for a ride: its clean ack waits rto/4 =
        // 25 µs, then leaves on its own, once.
        assert_eq!(c.tick(10, [1, 2], &mut out), TickReport::default());
        assert_eq!(c.tick(25, [1, 2], &mut out).acks, 1);
        assert_eq!(c.tick(40, [1, 2], &mut out), TickReport::default());

        out.clear();
        assert_eq!(
            c.on_data(1, &m, &mut seen, 50, [1, 2], &mut out),
            DataOutcome::LinkDuplicate
        );
        assert!(out.is_empty(), "a retransmitted copy is not re-forwarded");
        // Our ack went missing: the next sweep answers, clock or no clock.
        assert_eq!(c.tick(51, [1, 2], &mut out).acks, 1, "but it is re-acked");
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
        // Past the rto every link retransmits; the ack link 2 owes rides on
        // the first data frame back to it instead of a frame of its own.
        let report = c.tick(1_000, [2, 9, 5], &mut out);
        assert_eq!((report.retransmits, report.acks), (5, 0));
        assert_eq!(order(&out), vec![2, 9, 9, 5, 5]);
        assert_eq!(ack(&out[0].1), Some(1));
        assert!(out[1..].iter().all(|(_, m)| m.link_ack.is_none()));
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
        // flooders forward the instant a fresh frame arrives; a piggybacked
        // ack changes a forward's bytes, not its timing, and standalone
        // acks, sweeps and summaries follow in frames of their own. Any
        // regression that puts reliability bookkeeping in front of
        // forwarding shows up here as a hard inequality.
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

    /// `(to, id, piggybacked ack)` of every send.
    fn acks(out: &Sends<u32>) -> Vec<(u32, u64, Option<u64>)> {
        out.iter()
            .map(|(to, m)| (*to, m.broadcast_id, ack(m)))
            .collect()
    }

    #[test]
    fn a_piggybacked_ack_settles_what_the_link_owed() {
        let mut c = core(cfg()); // rto 100: a clean ack may wait 25 µs
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        c.on_data(1, &msg(1).with_link_seq(1), &mut seen, 0, [1, 2], &mut out);
        assert_eq!(acks(&out), vec![(2, 1, None)], "2 is owed nothing");
        out.clear();
        c.originate(&msg(7), 5, [1, 2], &mut out);
        assert_eq!(acks(&out), vec![(1, 7, Some(1)), (2, 7, None)]);
        out.clear();
        assert_eq!(c.tick(50, [1, 2], &mut out), TickReport::default());
        assert!(out.is_empty(), "the data frame carried it: no ack frame");
        // The peer's side: the piggybacked ack retires the frame it covers.
        let mut peer = core(cfg());
        peer.originate(&msg(1), 0, [0], &mut out);
        out.clear();
        let back = msg(7).with_link_seq(1).with_link_ack(1);
        peer.on_data(0, &back, &mut seen, 5, [0], &mut out);
        assert_eq!(peer.tx[&0].in_flight(), 0);
    }

    #[test]
    fn a_hole_still_sends_a_standalone_nack_ack_on_the_next_sweep() {
        let mut c = core(ReliableConfig {
            window: 64,
            ..cfg()
        });
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        c.on_data(1, &msg(1).with_link_seq(1), &mut seen, 0, [1], &mut out);
        c.on_data(1, &msg(3).with_link_seq(3), &mut seen, 0, [1], &mut out);
        c.originate(&msg(7), 1, [1], &mut out);
        assert_eq!(
            acks(&out),
            vec![(1, 7, Some(1))],
            "the cumulative part rides"
        );
        out.clear();
        assert_eq!(c.tick(2, [1], &mut out).acks, 1, "long before rto/4");
        assert_eq!(
            decode_ack_payload(out[0].1.payload.clone()),
            Some((1, vec![2]))
        );
        assert_eq!(c.tick(3, [1], &mut out).acks, 0, "once per arrival");
    }

    #[test]
    fn a_clean_ack_no_data_frame_carries_leaves_within_rto_over_4_plus_one_tick() {
        const TICK: u64 = 10;
        let c = cfg();
        for arrival in 0..2 * TICK {
            let mut core = core(c);
            let (mut seen, mut out) = (SeenSet::default(), Vec::new());
            core.on_data(
                1,
                &msg(1).with_link_seq(1),
                &mut seen,
                arrival,
                [1],
                &mut out,
            );
            let left = (1..)
                .map(|i| i * TICK)
                .find(|&t| core.tick(t, [1], &mut out).acks == 1)
                .expect("the ack leaves");
            assert!(
                left >= arrival + c.rto_us / 4,
                "arrived {arrival}, left {left}"
            );
            assert!(
                left <= arrival + c.rto_us / 4 + TICK,
                "arrived {arrival}, left {left}"
            );
        }
    }

    #[test]
    fn a_clean_ack_covering_half_the_window_flushes_at_once() {
        let mut c = core(ReliableConfig { window: 8, ..cfg() });
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        for seq in 1..=3 {
            c.on_data(
                1,
                &msg(seq).with_link_seq(seq),
                &mut seen,
                0,
                [1, 2],
                &mut out,
            );
        }
        assert!(out.iter().all(|(to, _)| *to == 2), "3 of 4: still waiting");
        out.clear();
        c.on_data(1, &msg(4).with_link_seq(4), &mut seen, 0, [1, 2], &mut out);
        assert_eq!(
            acks(&out),
            vec![(2, 4, None), (1, ACK_TAG, None)],
            "behind the forward"
        );
        assert_eq!(
            decode_ack_payload(out[1].1.payload.clone()),
            Some((4, vec![]))
        );
        assert_eq!(c.tick(0, [1, 2], &mut out).acks, 0, "and nothing is owed");
    }

    #[test]
    fn acks_ride_the_wire_copy_only_never_the_retransmit_or_pull_store_copy() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        c.on_data(
            1,
            &msg(1).with_link_seq(1),
            &mut seen,
            0,
            [1, 2, 3],
            &mut out,
        );
        out.clear();
        // 2's frame carries 2's ack for our link to it; our forward to 1
        // carries the ack we owe 1. Neither may be kept.
        let from2 = msg(5).with_link_seq(1).with_link_ack(1);
        c.on_data(2, &from2, &mut seen, 1, [1, 2, 3], &mut out);
        assert_eq!(acks(&out), vec![(1, 5, Some(1)), (3, 5, None)]);
        out.clear();
        c.tick(1_000, [1, 3], &mut out);
        assert_eq!(out.len(), 3, "id 5 to 1; ids 1 and 5 to 3");
        assert!(out.iter().all(|(_, m)| m.link_ack.is_none()), "retransmits");
        out.clear();
        let pull = encode_summary_payload(true, &[1, 5]);
        assert_eq!(
            c.on_summary(4, pull, &seen, 2_000, &mut out),
            SummaryOutcome::Served(2)
        );
        assert_eq!(
            acks(&out),
            vec![(4, 1, None), (4, 5, None)],
            "pull-store copies"
        );
    }

    #[test]
    fn summaries_name_only_what_a_neighbor_is_not_known_to_hold() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        let named = |out: &Sends<u32>| -> Vec<(u32, Vec<u64>)> {
            (out.iter())
                .map(|(to, m)| (*to, decode_summary_payload(m.payload.clone()).unwrap().1))
                .collect()
        };
        c.on_data(1, &msg(1).with_link_seq(1), &mut seen, 0, [1, 2], &mut out);
        c.originate(&msg(2), 0, [1, 2], &mut out);
        out.clear();
        // 1 sent id 1; id 2 is in flight to both: it stays in the summary.
        assert!(c.advertise([1, 2], &mut out));
        assert_eq!(named(&out), vec![(1, vec![2]), (2, vec![2, 1])]);
        out.clear();
        // 1's piggybacked ack covers id 2 and its frame brings id 3: 1 is
        // known to hold everything retained, so it gets no summary at all.
        let from1 = msg(3).with_link_seq(2).with_link_ack(1);
        c.on_data(1, &from1, &mut seen, 1, [1, 2], &mut out);
        out.clear();
        assert!(!c.advertise([1], &mut out));
        assert!(out.is_empty());
        // 2's standalone ack covers ids 1 and 2; id 3 is still in flight.
        c.on_ack(2, encode_ack_payload(2, &[]), 2, &mut out);
        assert!(c.advertise([2], &mut out));
        assert_eq!(named(&out), vec![(2, vec![3])]);
        out.clear();
        // A link reset forgets: whoever answers next may have rebooted blank.
        c.reset_link(1);
        assert!(c.advertise([1], &mut out));
        assert_eq!(named(&out), vec![(1, vec![3, 2, 1])]);
    }

    #[test]
    fn an_advertisement_marks_what_it_names_as_held_by_the_advertiser() {
        let (mut c, mut seen, mut out) = (core(cfg()), SeenSet::default(), Vec::new());
        for id in 1..=2 {
            seen.insert(id);
            c.originate(&msg(id), 0, [], &mut out);
        }
        // A lazy link: nothing crossed it, so 5 is not known to hold a thing.
        assert!(c.advertise([5], &mut out));
        out.clear();
        let advert = encode_summary_payload(false, &[1, 2]);
        let outcome = c.on_summary(5, advert, &seen, 1, &mut out);
        assert_eq!(outcome, SummaryOutcome::Ignored, "we hold both: no pull");
        assert!(!c.advertise([5], &mut out), "5 holds both: no advert back");
        assert!(out.is_empty());
    }

    /// Records `(arrival time, sender, frame id)` of every message its
    /// inner process receives.
    struct Tap {
        inner: ReliableFlooder,
        log: Rc<RefCell<Vec<(u64, NodeId, u64)>>>,
    }

    impl Process for Tap {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
            let entry = (ctx.now(), from, msg.broadcast_id);
            self.log.borrow_mut().push(entry);
            self.inner.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.inner.on_timer(token, ctx);
        }
    }

    type Log = Rc<RefCell<Vec<(u64, NodeId, u64)>>>;

    fn tapped(
        cfg: ReliableConfig,
        schedule: &[ScheduledBroadcast],
        n: usize,
        horizon: u64,
    ) -> (Vec<Box<dyn Process>>, Log) {
        let log = Log::default();
        let procs = (0..n)
            .map(|_| {
                let inner = ReliableFlooder::new(cfg, schedule.to_vec(), horizon);
                let log = Rc::clone(&log);
                Box::new(Tap { inner, log }) as Box<dyn Process>
            })
            .collect();
        (procs, log)
    }

    #[test]
    fn a_loss_free_run_sends_no_summary_and_falls_silent_once_its_acks_settle() {
        let (n, horizon) = (10, 1_000_000);
        let cfg = ReliableConfig::default();
        let link = LinkModel {
            base_latency_us: 1_000,
            jitter_us: 300,
        };
        let schedule: Vec<ScheduledBroadcast> = (0..6)
            .map(|i| ScheduledBroadcast {
                id: 0x1000 + i,
                origin: (3 * i % n as u64) as u32,
                at_us: 2_000 * i,
            })
            .collect();
        let (procs, log) = tapped(cfg, &schedule, n, horizon);
        let report = Simulation::new(&cycle(n), link, 5).run(procs, horizon);
        assert_eq!(report.deliveries.len(), n * schedule.len());
        let log = log.borrow();
        let data = |id: u64| id & (ACK_TAG | SUMMARY_TAG) == 0;
        assert!(log.iter().all(|&(.., id)| id != SUMMARY_TAG), "no summary");
        let last_data = log.iter().filter(|e| data(e.2)).map(|e| e.0).max().unwrap();
        let last_frame = log.iter().map(|e| e.0).max().unwrap();
        let settle = cfg.rto_us / 4 + cfg.sweep_us() + link.base_latency_us + link.jitter_us;
        assert!(
            last_frame <= last_data + settle,
            "only the last acks may follow the last data frame: {last_data} → {last_frame}"
        );
        assert!(last_frame < 100_000, "then nothing for 900 ms");
    }

    #[test]
    fn a_frame_given_up_after_max_retries_is_advertised_pulled_and_delivered_once() {
        use crate::fault::Partition;

        let cfg = ReliableConfig {
            max_retries: 2,
            ..ReliableConfig::default()
        };
        let mut edge = Graph::with_nodes(2);
        edge.add_edge(NodeId(0), NodeId(1));
        // 0 → 1 is cut while the frame and both its retransmissions go out
        // (10, 40 and 70 ms; given up at the 100 ms sweep).
        let mut inj = FaultInjector::new(1);
        inj.add_partition(Partition {
            a: [0].into_iter().collect(),
            b: [1].into_iter().collect(),
            from_us: 0,
            until_us: 200_000,
            directed: true,
        });
        let mut sim = Simulation::new(&edge, LinkModel::default(), 1);
        sim.with_faults(Arc::new(inj));
        let schedule = [ScheduledBroadcast {
            id: 0x1000,
            origin: 0,
            at_us: 10_000,
        }];
        let (procs, log) = tapped(cfg, &schedule, 2, 1_000_000);
        let report = sim.run(procs, 1_000_000);
        let at_1: Vec<u64> = (report.deliveries.iter())
            .filter(|d| d.node == NodeId(1))
            .map(|d| d.time)
            .collect();
        assert_eq!(at_1.len(), 1, "exactly once: {at_1:?}");
        assert!(at_1[0] > 200_000, "by repair, after the cut");
        let pulls = (log.borrow().iter())
            .filter(|&&(_, from, id)| from == NodeId(1) && id == SUMMARY_TAG)
            .count();
        assert_eq!(pulls, 1, "one pull answered one advertisement");
    }
}
