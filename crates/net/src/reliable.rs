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
//!   dropped from the buffer — anti-entropy repairs the residue. A NACK
//!   spends a retry like a timeout does, and a frame past its budget is
//!   not resent however often it is NACKed, so every frame leaves within
//!   one retransmit lifetime.
//! * **[`LinkReceiver`]** tracks the cumulative ack point and the set of
//!   out-of-order sequences above it, detects link-level duplicates
//!   (retransmitted copies whose ack was lost), and produces `(cum, nacks)`
//!   ack payloads that name the holes so the sender can retransmit them
//!   immediately instead of waiting out the timeout. A hole that has stayed
//!   open for the sender's whole retransmit lifetime, `(max_retries + 1) ·
//!   rto_us`, holds frames the sender gave up: the next tick acks past it,
//!   so a given-up frame never holds back the acks of the frames after it.
//! * **Anti-entropy codecs** ([`encode_summary_payload`]) serialize
//!   summaries of recently-seen broadcast ids as sets of at most
//!   [`MAX_SUMMARY_IDS`]: a mode byte, the count, the smallest id and each
//!   further id as its distance above the one before, all varints
//!   ([`crate::varint`]), so ids are strictly ascending on the wire and
//!   each is named once. Peers diff a summary against their own dedup set
//!   and pull whatever they are missing, so a broadcast lost on *every*
//!   copy is still repaired through any surviving path.
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
//! every peer whose own advertisement or held list named it. The last two
//! are what a link that carries no bodies learns from (the node forwards a
//! fresh frame only to the `peers` it is handed, in `lhg-runtime` the
//! children of the origin's tree): an advertisement's receiver owes back a
//! **held list** (summary mode `0x02`) naming the advertised ids it had
//! already seen, which [`ReliableCore::answer`] sends when its caller has a
//! slot for it and which is never answered itself.
//! An advertisement to P names the retained ids P is not known to hold —
//! those still in flight to P included — among the [`MAX_SUMMARY_IDS`]
//! newest, so a driver whose lazy links learn ids only from adverts must
//! advertise at least once per [`ReliableConfig::advert_batch`] retained
//! ids (`lhg-runtime`'s node brings its round forward to); and when there
//! are none, no
//! summary goes to P: a quiet cluster stays quiet. A link reset forgets
//! what its peer holds (a revenant reboots blank).
//!
//! **A frame costs no allocation.** The core reads an ack's NACKs and a
//! summary's ids in place, hands the frames an ack or a sweep releases
//! straight to its sink, and encodes every ack, advert, pull and held list
//! into the buffer of one it sent before that the driver has let go of
//! ([`crate::kept`]; it keeps the last 8, `CONTROL_KEPT`). What a data frame
//! leaves behind lands in dense containers that keep their room: a sender's
//! unacked window is a ring indexed by sequence, a receiver's out-of-order
//! sequences a sorted list, and the pull store a ring in arrival order with
//! an index from id to place. So once warm, neither a control frame nor a
//! data frame allocates. The codecs that return `Bytes` and `Vec`s
//! ([`encode_ack_payload`], [`LinkSender::on_ack`], …) are wrappers over the
//! same code, for callers that want values.
//!
//! **A stored body retires once every neighbor holds it.** The store is
//! FIFO by count (`store_cap`) as a backstop, and [`ReliableCore::retire`]
//! drops an entry as soon as every neighbor it is given is known to hold
//! it. On a connected overlay that every node reads its neighbors from
//! (the paper's P1 keeps it connected), that loses nothing: if some node
//! lacks an id that another has, some overlay edge joins a node that has
//! it to one that lacks it, and the first cannot have retired it — so it
//! still stores it and advertises it across that edge. The argument needs
//! one overlay shared by all replicas; `lhg-runtime`'s node retires only
//! while it knows of no crashed or excommunicated member, and falls back
//! to FIFO otherwise.
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

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::num::NonZeroU64;

use bytes::{BufMut, Bytes};

use lhg_graph::NodeId;

use crate::kept::{encode_reusing, KEPT_LEN};
use crate::message::Message;
use crate::seen::SeenSet;
use crate::sim::{Context, Process};
use crate::varint;

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

    /// The most sequences a receiver holds above its ack point (its
    /// out-of-order list): four windows. A correct sender has at most a
    /// window in flight, and its ring spans at most two; an arrival past
    /// the cap is dropped as if lost, so a peer that leaves a hole open
    /// and streams on cannot grow the list without bound.
    #[must_use]
    pub fn out_of_order_cap(&self) -> usize {
        self.window.saturating_mul(4).max(1)
    }

    /// How long a sender keeps retransmitting a frame before it gives the
    /// frame up: the first send and `max_retries` retransmissions, `rto_us`
    /// apart. A receiver skips a hole that has been open this long.
    fn retransmit_lifetime_us(&self) -> u64 {
        (u64::from(self.max_retries) + 1).saturating_mul(self.rto_us)
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
    /// The unacked window as a ring indexed by sequence: slot `i` holds
    /// sequence `next_seq + 1 - len + i`, `None` where a frame was given up
    /// behind an older one still in flight. The front slot is never `None`,
    /// and the ring keeps its room as it drains.
    unacked: VecDeque<Option<InFlight>>,
    /// The `Some` slots of `unacked`: the frames in flight.
    live: usize,
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
        self.live
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
        let unacked = self.unacked.iter().flatten().map(|f| f.msg.payload.len());
        let queued = self.queued.iter().map(|m| m.payload.len());
        unacked.chain(queued).sum()
    }

    /// The sequence in `unacked`'s front slot.
    fn base(&self) -> u64 {
        self.next_seq + 1 - self.unacked.len() as u64
    }

    /// The frame in flight under `seq`, if any: below the window, above
    /// `next_seq` and given up are all `None`.
    fn in_flight_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        let at = usize::try_from(seq.checked_sub(self.base())?).ok()?;
        self.unacked.get_mut(at)?.as_mut()
    }

    /// Pops the slots of frames given up from the front of the window.
    fn trim(&mut self) {
        while matches!(self.unacked.front(), Some(None)) {
            self.unacked.pop_front();
        }
    }

    /// Accepts `msg` for reliable transmission. Returns the stamped frame
    /// to put on the wire now, or `None` if the window is full and the
    /// frame was queued (it will surface from a later [`LinkSender::on_ack`]
    /// or [`LinkSender::sweep`] once the window opens).
    pub fn send(&mut self, msg: Message, cfg: &ReliableConfig, now_us: u64) -> Option<Message> {
        if self.live < cfg.window {
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
        self.unacked.push_back(Some(InFlight {
            msg: stamped.clone(),
            last_tx_us: now_us,
            retries: 0,
        }));
        self.live += 1;
        stamped
    }

    /// Processes a cumulative ack + NACK list from the peer. Returns the
    /// frames to put on the wire now: immediate retransmissions of every
    /// NACKed hole plus any queued frames the newly-opened window admits.
    /// A clean ack (no NACKs, nothing queued) allocates nothing. A wrapper
    /// for callers that want the frames in a `Vec`; [`ReliableCore`] hands
    /// each one straight to its sink and allocates nothing for any ack.
    pub fn on_ack(
        &mut self,
        cum: u64,
        nacks: &[u64],
        cfg: &ReliableConfig,
        now_us: u64,
    ) -> Vec<Message> {
        let mut out = Vec::new();
        self.on_ack_with(cum, nacks.iter().copied(), cfg, now_us, |m| out.push(m));
        out
    }

    /// [`Self::on_ack`], handing each frame to put on the wire to `put`, in
    /// order.
    fn on_ack_with(
        &mut self,
        cum: u64,
        nacks: impl IntoIterator<Item = u64>,
        cfg: &ReliableConfig,
        now_us: u64,
        mut put: impl FnMut(Message),
    ) {
        self.retire(cum, |_| {});
        for s in nacks {
            // A frame past its retry budget is not resent: the sweep gives
            // it up within `rto_us` of its last send, however often the
            // peer NACKs it, so no frame outlives the retransmit lifetime
            // and pins the ring's front.
            let budget = cfg.max_retries;
            if let Some(f) = self.in_flight_mut(s).filter(|f| f.retries < budget) {
                f.retries += 1;
                f.last_tx_us = now_us;
                put(f.msg.clone());
            }
        }
        self.drain(cfg, now_us, put);
    }

    /// Drops every frame the cumulative ack `cum` covers from the window,
    /// oldest first, handing each to `acked` on its way out.
    fn retire(&mut self, cum: u64, mut acked: impl FnMut(&Message)) {
        while !self.unacked.is_empty() && self.base() <= cum {
            if let Some(f) = self.unacked.pop_front().flatten() {
                self.live -= 1;
                acked(&f.msg);
            }
        }
        self.trim();
    }

    /// Retransmit sweep: returns every frame whose retransmit timeout has
    /// expired, in sequence order (giving up on frames past the retry
    /// budget), plus queued frames admitted by the space those give-ups
    /// freed. A wrapper like [`Self::on_ack`]'s: [`ReliableCore::tick`]
    /// sweeps in one pass over the window and allocates nothing.
    pub fn sweep(&mut self, cfg: &ReliableConfig, now_us: u64) -> Vec<Message> {
        let mut out = Vec::new();
        self.sweep_with(cfg, now_us, |m| out.push(m));
        out
    }

    /// [`Self::sweep`], handing each frame to put on the wire to `put`, in
    /// order.
    fn sweep_with(&mut self, cfg: &ReliableConfig, now_us: u64, mut put: impl FnMut(Message)) {
        let mut given_up = 0;
        for slot in &mut self.unacked {
            let Some(f) = slot else {
                continue;
            };
            if now_us.saturating_sub(f.last_tx_us) < cfg.rto_us {
                continue;
            }
            if f.retries >= cfg.max_retries {
                *slot = None;
                given_up += 1;
                continue;
            }
            f.retries += 1;
            f.last_tx_us = now_us;
            put(f.msg.clone());
        }
        self.live -= given_up;
        self.given_up += given_up as u64;
        self.trim();
        self.drain(cfg, now_us, put);
    }

    fn drain(&mut self, cfg: &ReliableConfig, now_us: u64, mut put: impl FnMut(Message)) {
        while self.live < cfg.window {
            let Some(msg) = self.queued.pop_front() else {
                break;
            };
            put(self.stamp(msg, now_us));
        }
    }

    /// Tears the link down, handing back every undelivered message
    /// (unacked then queued, in sequence order) with link stamps removed —
    /// what a reconnecting caller re-sends over the replacement link.
    pub fn take_undelivered(&mut self) -> Vec<Message> {
        let mut out: Vec<Message> = (self.unacked.iter().flatten())
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
    /// Every sequence `<= cum` has been received, or skipped as given up.
    cum: u64,
    /// Received sequences above `cum` (out of order), sorted, and since
    /// when the hole below the first of them has been open (the core's
    /// clock). Arrivals land almost always at the back and leave from the
    /// front; one entry per sequence received, never one per sequence
    /// skipped, so a peer's sequence numbers cannot size it, and at most
    /// [`ReliableConfig::out_of_order_cap`] of them. Placing an
    /// arrival moves the shorter side of the list: nothing for one at
    /// either end (an honest peer's, or a peer sending in descending
    /// order), but half the list for one aimed at its middle, where a
    /// balanced tree paid a logarithm. A hostile peer that aims every
    /// frame there costs CPU quadratic in the entries it keeps open.
    above: VecDeque<u64>,
    hole_since: u64,
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
        if self.cum.checked_add(1) == Some(seq) {
            self.cum = seq;
            self.advance();
        } else {
            match self.above.binary_search(&seq) {
                Err(at) if seq > self.cum => self.above.insert(at, seq),
                _ => {
                    self.urgent = true;
                    return false;
                }
            }
        }
        self.urgent |= !self.above.is_empty();
        true
    }

    /// Moves `cum` up over the sequences received just above it.
    fn advance(&mut self) {
        while (self.cum.checked_add(1)).is_some_and(|next| self.above.front() == Some(&next)) {
            self.above.pop_front();
            self.cum += 1;
        }
    }

    /// [`Self::on_frame`] at `now_us`, which starts the owed ack's clock,
    /// and that of a hole it opens or leaves below the first sequence above
    /// `cum`. `None` when the out-of-order list already holds `cap`
    /// sequences and `seq` would not advance `cum`: the arrival is dropped
    /// as if lost, neither acked nor delivered.
    fn on_frame_at(&mut self, seq: u64, now_us: u64, cap: usize) -> Option<bool> {
        let (cum, open) = (self.cum, !self.above.is_empty());
        if self.above.len() >= cap && cum.checked_add(1) != Some(seq) {
            return None;
        }
        let fresh = self.on_frame(seq);
        if self.owed == 1 {
            self.owed_since = now_us;
        }
        if !self.above.is_empty() && (!open || self.cum != cum) {
            self.hole_since = now_us;
        }
        Some(fresh)
    }

    /// Skips the hole below the first sequence received above `cum` once it
    /// has been open for the sender's whole retransmit lifetime: the frames
    /// in it were given up (anti-entropy repairs what they carried), and
    /// waiting on would hold every later frame's cumulative ack back for
    /// good. The new ack point is owed at once. The hole's frames were all
    /// sent before the frame that opened it arrived, so by then the sender
    /// has given each of them up (up to a sweep of slack, which that
    /// frame's own latency and the ticks' grid cover).
    fn skip_given_up(&mut self, cfg: &ReliableConfig, now_us: u64) {
        let Some(&first) = self.above.front() else {
            return;
        };
        if now_us.saturating_sub(self.hole_since) < cfg.retransmit_lifetime_us() {
            return;
        }
        self.cum = first - 1;
        self.advance();
        self.hole_since = now_us;
        self.dirty = true;
        self.urgent = true;
    }

    /// Data frame `msg` for the peer, carrying the cumulative ack this link
    /// owes, if one is owed, in place of any it came with; taking it
    /// settles the clean part of the debt. Holes and duplicates still wait
    /// for a standalone ack ([`Self::ack_due`]). Every data frame leaves
    /// through here.
    fn ride(&mut self, mut msg: Message) -> Message {
        msg.link_ack = NonZeroU64::new(self.cum).filter(|_| self.dirty);
        if msg.link_ack.is_some() {
            self.dirty = false;
            self.owed = 0;
        }
        msg
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

    /// Produces an ack frame's payload and settles everything owed: returns
    /// the cumulative point and writes into `nacks` (emptied first, so a
    /// caller can reuse one buffer) the first [`MAX_NACKS`] holes between it
    /// and the highest sequence seen.
    pub fn ack_payload(&mut self, nacks: &mut Vec<u64>) -> u64 {
        self.dirty = false;
        self.urgent = false;
        self.owed = 0;
        nacks.clear();
        // `above` holds only sequences above `cum`: when `cum` is the top
        // it is empty, and `expect` is never read.
        let mut expect = self.cum.saturating_add(1);
        for &got in &self.above {
            while expect < got && nacks.len() < MAX_NACKS {
                nacks.push(expect);
                expect += 1;
            }
            if nacks.len() >= MAX_NACKS {
                break;
            }
            // No hole lies above `u64::MAX`: it can only come last.
            expect = got.saturating_add(1);
        }
        self.cum
    }
}

/// Encodes an ack frame payload: the cumulative ack, the NACK count and
/// each NACK as the distance above the one before it (the first above
/// `cum`), every one a varint ([`crate::varint`]). `nacks` rise strictly
/// above `cum`, as [`LinkReceiver::ack_payload`] writes them; past
/// [`MAX_NACKS`] they are cut off. A clean ack under 128 is two bytes.
#[must_use]
pub fn encode_ack_payload(cum: u64, nacks: &[u64]) -> Bytes {
    encode_ack(&mut Vec::new(), 0, cum, nacks)
}

/// [`encode_ack_payload`] into a buffer reclaimed from `kept`, which keeps
/// the `max` newest payloads ([`encode_reusing`]).
fn encode_ack(kept: &mut Vec<Bytes>, max: usize, cum: u64, nacks: &[u64]) -> Bytes {
    let nacks = &nacks[..nacks.len().min(MAX_NACKS)];
    let mut out = Varints::new(&[]);
    out.put(cum);
    out.put(nacks.len() as u64);
    let mut below = cum;
    for &s in nacks {
        debug_assert!(s > below, "NACKs rise strictly above the ack point");
        out.put(s.wrapping_sub(below));
        below = s;
    }
    // Eight bytes for the point and each distance, which holds any value
    // under 2^56, and one for the count: a kept buffer takes every later
    // ack naming no more holes.
    out.encode(kept, max, 8 * (1 + nacks.len()) + 1)
}

/// A control payload (an ack's or a summary's) written on the stack as
/// bytes and varints, then copied once into a kept buffer.
struct Varints {
    wire: [u8; MAX_SUMMARY_LEN],
    len: usize,
}

impl Varints {
    /// A payload that starts with `head`.
    fn new(head: &[u8]) -> Self {
        let mut wire = [0u8; MAX_SUMMARY_LEN];
        wire[..head.len()].copy_from_slice(head);
        Varints {
            wire,
            len: head.len(),
        }
    }

    fn put(&mut self, v: u64) {
        self.len += varint::put(&mut self.wire[self.len..], v);
    }

    /// The payload, in a buffer reclaimed from `kept`, which keeps the `max`
    /// newest payloads ([`encode_reusing`]), of at least `room` bytes.
    fn encode(&self, kept: &mut Vec<Bytes>, max: usize, room: usize) -> Bytes {
        let payload = &self.wire[..self.len];
        encode_reusing(kept, max, room.max(payload.len()), |buf| {
            buf.put_slice(payload);
        })
    }
}

/// Decodes an ack frame payload. `None` on malformed input.
#[must_use]
pub fn decode_ack_payload(raw: Bytes) -> Option<(u64, Vec<u64>)> {
    let (cum, nacks) = read_ack(&raw)?;
    Some((cum, nacks.collect()))
}

/// Reads an ack payload in place: its cumulative point and its NACKs.
/// `None` on malformed input: a varint [`crate::varint`] refuses, more than
/// [`MAX_NACKS`] NACKs, a distance of 0 or one that passes `u64::MAX`, or
/// bytes after the last NACK.
fn read_ack(mut raw: &[u8]) -> Option<(u64, impl Iterator<Item = u64>)> {
    let cum = varint::read_u64(&mut raw)?;
    let count = varint::read_u64(&mut raw).filter(|&c| c <= MAX_NACKS as u64)? as usize;
    let mut nacks = [0u64; MAX_NACKS];
    let mut below = cum;
    for nack in &mut nacks[..count] {
        let above = varint::read_u64(&mut raw).filter(|&d| d > 0)?;
        below = below.checked_add(above)?;
        *nack = below;
    }
    raw.is_empty()
        .then_some((cum, nacks.into_iter().take(count)))
}

/// How many broadcast ids one summary frame carries at most.
pub const MAX_SUMMARY_IDS: usize = 64;

/// Summary payload mode byte: advertisement of recently-seen ids.
const SUMMARY_ADVERTISE: u8 = 0x00;
/// Summary payload mode byte: pull request for missing ids.
const SUMMARY_PULL: u8 = 0x01;
/// Summary payload mode byte: held list, the ids of an advertisement its
/// receiver had already seen ([`ReliableCore::answer`]).
const SUMMARY_HELD: u8 = 0x02;

/// Encodes an anti-entropy summary payload. `pull = false` advertises
/// recently-seen broadcast ids; `pull = true` requests the listed ids. A
/// summary names a set: the first [`MAX_SUMMARY_IDS`] ids given, sorted,
/// each once.
#[must_use]
pub fn encode_summary_payload(pull: bool, ids: &[u64]) -> Bytes {
    let mode = if pull {
        SUMMARY_PULL
    } else {
        SUMMARY_ADVERTISE
    };
    encode_summary(&mut Vec::new(), 0, mode, ids)
}

/// Encodes a summary payload of `mode` naming the set of the first
/// [`MAX_SUMMARY_IDS`] of `ids` into a buffer reclaimed from `kept`, which
/// keeps the `max` newest payloads ([`encode_reusing`]): the mode byte, the
/// count, the smallest id and each further id as its distance above the
/// one before, every one a varint ([`crate::varint`]). At most
/// [`MAX_SUMMARY_LEN`] bytes.
fn encode_summary(kept: &mut Vec<Bytes>, max: usize, mode: u8, ids: &[u64]) -> Bytes {
    let named = &ids[..ids.len().min(MAX_SUMMARY_IDS)];
    let mut set = [0u64; MAX_SUMMARY_IDS];
    let set = &mut set[..named.len()];
    set.copy_from_slice(named);
    set.sort_unstable();
    // The smallest id, then the gaps between neighbors; a repeat's gap is 0.
    let gaps = set.windows(2).map(|w| w[1] - w[0]).filter(|&gap| gap > 0);
    let (mut out, mut count) = (Varints::new(&[mode, 0]), 0);
    for v in set.first().copied().into_iter().chain(gaps) {
        out.put(v);
        count += 1;
    }
    // A count of at most 64 is a one-byte varint.
    out.wire[1] = count as u8;
    // Room as an ack's: eight bytes an id, which holds any distance under
    // 2^56, and two for the mode and the count, so a kept buffer takes every
    // later control payload naming no more ids. Ids with a class tag in
    // their top byte (crash and join waves) take more: then the exact length.
    out.encode(kept, max, 2 + 8 * count)
}

/// The longest summary payload: the mode byte, a one-byte count and 64
/// varints that sum to at most `u64::MAX`, so one of them may take ten
/// bytes (2^63 or more) and the others nine each.
const MAX_SUMMARY_LEN: usize = 2 + varint::MAX_LEN_U64 + 9 * (MAX_SUMMARY_IDS - 1);

// The longest ack payload (a point, a count and its distances, ten bytes
// each at most) fits the same stack array.
const _: () = assert!(varint::MAX_LEN_U64 * (MAX_NACKS + 2) <= MAX_SUMMARY_LEN);

// Every summary payload fits the control pool's kept buffers.
const _: () = assert!(MAX_SUMMARY_LEN <= KEPT_LEN);

/// Decodes an anti-entropy summary payload into `(pull, ids)`, the ids in
/// ascending order. `None` on malformed input, unknown mode bytes and held
/// lists (which are neither an advertisement nor a pull).
#[must_use]
pub fn decode_summary_payload(raw: Bytes) -> Option<(bool, Vec<u64>)> {
    let (mode, ids) = read_summary(&raw)?;
    let pull = match mode {
        SUMMARY_ADVERTISE => false,
        SUMMARY_PULL => true,
        _ => return None,
    };
    Some((pull, ids.collect()))
}

/// Reads a summary payload in place: its mode byte and its ids, strictly
/// ascending. `None` on malformed input: an unknown mode byte, a varint
/// [`crate::varint`] refuses, more than [`MAX_SUMMARY_IDS`] ids, a distance
/// of 0 or one that passes `u64::MAX`, or bytes after the last id.
fn read_summary(raw: &[u8]) -> Option<(u8, impl Iterator<Item = u64> + Clone)> {
    let (&mode, mut raw) = raw.split_first()?;
    if !matches!(mode, SUMMARY_ADVERTISE | SUMMARY_PULL | SUMMARY_HELD) {
        return None;
    }
    let count = varint::read_u64(&mut raw).filter(|&c| c <= MAX_SUMMARY_IDS as u64)? as usize;
    let mut ids = [0u64; MAX_SUMMARY_IDS];
    if let Some((first, rest)) = ids[..count].split_first_mut() {
        *first = varint::read_u64(&mut raw)?;
        let mut below = *first;
        for id in rest {
            let above = varint::read_u64(&mut raw).filter(|&d| d > 0)?;
            below = below.checked_add(above)?;
            *id = below;
        }
    }
    raw.is_empty()
        .then_some((mode, ids.into_iter().take(count)))
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
    /// A link sequence no correct sender reaches, dropped unread: within
    /// `window` of `u64::MAX` (2⁶⁴ frames away), so that no peer can take
    /// its link's ack point to the top of the sequence space; or past the
    /// out-of-order list's cap ([`ReliableConfig::out_of_order_cap`]).
    Refused,
}

/// What [`ReliableCore::on_summary`] answered an anti-entropy frame with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryOutcome {
    /// Nothing went back: malformed, a held list, or an advertisement naming
    /// nothing we lack (what it named is owed back, see
    /// [`ReliableCore::answer`]).
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
/// to hold it (each bit is one peer's, [`Peer::bit`]).
#[derive(Debug)]
struct Retained {
    msg: Message,
    held: u64,
}

/// The pull store: retained broadcasts in arrival order, oldest first — the
/// order eviction drops them in and, newest first, summaries name them in —
/// and an index from id to arrival number. One entry per id.
#[derive(Debug, Default)]
struct Store {
    ring: VecDeque<Retained>,
    /// `ring[i]`'s id → its arrival number, `first + i`.
    index: HashMap<u64, u64>,
    /// The arrival number of `ring`'s front entry.
    first: u64,
}

impl Store {
    /// Where in `ring` retained broadcast `id` sits.
    fn place(&self, id: u64) -> Option<usize> {
        Some((self.index.get(&id)? - self.first) as usize)
    }

    fn get(&self, id: u64) -> Option<&Retained> {
        self.place(id).map(|at| &self.ring[at])
    }

    /// Records that the peers in `bits` hold retained broadcast `id`.
    fn mark_held(&mut self, id: u64, bits: u64) {
        if let Some(at) = self.place(id) {
            self.ring[at].held |= bits;
        }
    }

    /// Retains `kept` as held by the peers in `held`, evicting the oldest
    /// entry past `cap`. An id stored already (the dedup set forgot it, and
    /// it came again) gives up its older copy first, so the newer one stays
    /// until it is the oldest.
    fn remember(&mut self, kept: Message, held: u64, cap: usize) {
        let id = kept.broadcast_id;
        if let Some(older) = self.place(id) {
            self.ring.remove(older);
            self.reindex();
        }
        if self.ring.len() >= cap {
            if let Some(old) = self.ring.pop_front() {
                self.index.remove(&old.msg.broadcast_id);
                self.first += 1;
            }
        }
        self.index.insert(id, self.first + self.ring.len() as u64);
        self.ring.push_back(Retained { msg: kept, held });
    }

    /// Keeps the entries `keep` says to, in order.
    fn retain(&mut self, keep: impl FnMut(&Retained) -> bool) {
        let before = self.ring.len();
        self.ring.retain(keep);
        if self.ring.len() < before {
            self.reindex();
        }
    }

    /// Renumbers the ring from `first` after entries left its middle.
    fn reindex(&mut self) {
        self.index.clear();
        for (at, kept) in (self.first..).zip(&self.ring) {
            self.index.insert(kept.msg.broadcast_id, at);
        }
    }
}

/// Everything a [`ReliableCore`] keeps about one peer: both halves of the
/// link, what a torn-down link never delivered, the held list owed, and the
/// peer's bit in the store's held masks.
#[derive(Debug, Default)]
struct Peer {
    /// The sender half, from the first frame sent on the link to its reset.
    tx: Option<LinkSender>,
    rx: LinkReceiver,
    /// Data frames a torn-down link never delivered, until
    /// [`ReliableCore::flush`].
    parked: Vec<Message>,
    /// The ids the peer's advertisements named that we had already seen:
    /// the held list [`ReliableCore::answer`] owes it, at most
    /// [`MAX_SUMMARY_IDS`].
    owed: Vec<u64>,
    /// The peer's bit in every [`Retained::held`] mask; 0 until the peer is
    /// first known to hold something, and again from its link's reset.
    bit: u64,
}

/// `bit`, a peer's held-mask bit, claiming the lowest free one if it has
/// none yet (`used`: the bits peers own). With all 64 taken it stays 0 and
/// the peer is never known to hold anything: its summaries name everything,
/// as before the masks.
fn claim(bit: &mut u64, used: &mut u64) -> u64 {
    if *bit == 0 && *used != u64::MAX {
        *bit = 1 << (!*used).trailing_zeros();
        *used |= *bit;
    }
    *bit
}

/// The reliable-flood data plane as one sans-IO state machine: flooding
/// over per-link ack/retransmit with anti-entropy repair on top. It owns
/// one record per peer — the [`LinkSender`]/[`LinkReceiver`] pair, the
/// frames parked while a replaced link waits for its successor, the held
/// list owed and the peer's held-mask bit — and the store of recent
/// broadcasts that summaries advertise and pulls are served from (with
/// who is known to hold each).
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
    peers: HashMap<P, Peer>,
    /// Recent data messages retained for summaries and pull serving.
    store: Store,
    /// The held-mask bits some peer owns.
    used: u64,
    /// Reused buffer for the ids one summary names or the holes one ack
    /// NACKs.
    ids: Vec<u64>,
    /// The payloads of the last [`CONTROL_KEPT`] ack and summary frames
    /// sent: the next is encoded into one the driver has let go of.
    kept: Vec<Bytes>,
}

/// How many sent ack and summary payloads a [`ReliableCore`] keeps to
/// encode later ones into: one for each control frame a tick may send
/// before the transport lets go of any — an ack and an advert to each of a
/// few neighbors — with room to spare.
const CONTROL_KEPT: usize = 8;

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
            peers: HashMap::new(),
            store: Store::default(),
            used: 0,
            ids: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Retains `kept` (link fields stripped) for summaries and pull
    /// serving, as held by the peers in `held`, evicting the oldest entry
    /// past `store_cap`.
    fn remember(&mut self, mut kept: Message, held: u64) {
        kept.link_seq = None;
        kept.link_ack = None;
        self.store.remember(kept, held, self.cfg.store_cap);
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
        let store = self.store.ring.iter().map(|k| k.msg.payload.len());
        let links = (self.peers.values().flat_map(|p| &p.tx)).map(LinkSender::retained_bytes);
        let parked = (self.peers.values().flat_map(|p| &p.parked)).map(|m| m.payload.len());
        store.chain(links).chain(parked).sum()
    }

    /// Sends the ack `peer`'s link owes in a frame of its own.
    fn emit_ack(&mut self, peer: P, out: &mut Sends<P>) {
        let Some(p) = self.peers.get_mut(&peer) else {
            return;
        };
        let cum = p.rx.ack_payload(&mut self.ids);
        let ack = encode_ack(&mut self.kept, CONTROL_KEPT, cum, &self.ids);
        out.push((peer, Message::new(self.ack_id, self.origin, ack)));
    }

    /// Hands `msg` to `to`'s sender; emits it if the window admits it now
    /// (otherwise it queues and surfaces from a later ack or sweep).
    fn send(&mut self, to: P, msg: Message, now_us: u64, out: &mut Sends<P>) {
        let peer = self.peers.entry(to).or_default();
        let sender = peer.tx.get_or_insert_with(LinkSender::new);
        if let Some(stamped) = sender.send(msg, &self.cfg, now_us) {
            out.push((to, peer.rx.ride(stamped)));
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
        let top = u64::MAX - self.cfg.window as u64;
        if msg.link_seq.is_some_and(|seq| seq.get() > top) {
            return DataOutcome::Refused;
        }
        if let Some(cum) = msg.link_ack {
            self.acked(from, cum.get(), [], now_us, out);
        }
        let peer = self.peers.entry(from).or_default();
        if let Some(seq) = msg.link_seq {
            match (peer.rx).on_frame_at(seq.get(), now_us, self.cfg.out_of_order_cap()) {
                None => return DataOutcome::Refused,
                Some(false) => return DataOutcome::LinkDuplicate,
                Some(true) => {}
            }
        }
        let sender = claim(&mut peer.bit, &mut self.used);
        let outcome = if seen.insert(msg.broadcast_id) {
            self.remember(msg.clone(), sender);
            self.flood(&msg.forwarded(), Some(from), now_us, peers, out);
            DataOutcome::Fresh
        } else {
            self.store.mark_held(msg.broadcast_id, sender);
            DataOutcome::Duplicate
        };
        if (self.peers.get(&from)).is_some_and(|p| p.rx.covers_half_window(&self.cfg)) {
            self.emit_ack(from, out);
        }
        outcome
    }

    /// An ack frame's payload arrived from `from`, read in place: NACKed
    /// holes are retransmitted at once and the opened window drains the
    /// queue.
    pub fn on_ack(&mut self, from: P, payload: Bytes, now_us: u64, out: &mut Sends<P>) {
        let Some((cum, nacks)) = read_ack(&payload) else {
            return;
        };
        self.acked(from, cum, nacks, now_us, out);
    }

    /// `from` acknowledged everything through `cum` on our link to it,
    /// standalone or piggybacked: the frames it covers retire — and count
    /// as held by `from` in the store — and whatever the ack releases
    /// (NACKed retransmissions, queued frames) goes out.
    fn acked(
        &mut self,
        from: P,
        cum: u64,
        nacks: impl IntoIterator<Item = u64>,
        now_us: u64,
        out: &mut Sends<P>,
    ) {
        let Some(Peer {
            tx: Some(tx),
            rx,
            bit,
            ..
        }) = self.peers.get_mut(&from)
        else {
            return;
        };
        let (bit, store) = (claim(bit, &mut self.used), &mut self.store);
        tx.retire(cum, |m| store.mark_held(m.broadcast_id, bit));
        tx.on_ack_with(cum, nacks, &self.cfg, now_us, |frame| {
            out.push((from, rx.ride(frame)));
        });
    }

    /// A summary frame's payload arrived from `from`, read in place. An
    /// advertisement or a held list marks what it names as held by `from`.
    /// An advertisement is then diffed against `seen`: any gap is answered
    /// with one pull, and what we had already seen is owed back as a held
    /// list ([`Self::answer`]). A held list is never answered. A pull is
    /// served from the store over the reliable link, in ascending id
    /// order, each id once (the payload is a set). Served copies keep
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
        let Some((mode, ids)) = read_summary(&payload) else {
            return SummaryOutcome::Ignored;
        };
        if mode == SUMMARY_PULL {
            let mut served = 0;
            for id in ids {
                if let Some(kept) = self.store.get(id).map(|k| k.msg.clone()) {
                    self.send(from, kept, now_us, out);
                    served += 1;
                }
            }
            return SummaryOutcome::Served(served);
        }
        let peer = self.peers.entry(from).or_default();
        let bit = claim(&mut peer.bit, &mut self.used);
        for id in ids.clone() {
            self.store.mark_held(id, bit);
        }
        if mode == SUMMARY_HELD {
            return SummaryOutcome::Ignored;
        }
        let owed = &mut peer.owed;
        self.ids.clear();
        for id in ids {
            if !seen.contains(id) {
                self.ids.push(id);
            } else if owed.len() < MAX_SUMMARY_IDS && !owed.contains(&id) {
                owed.push(id);
            }
        }
        if self.ids.is_empty() {
            return SummaryOutcome::Ignored;
        }
        let pull = encode_summary(&mut self.kept, CONTROL_KEPT, SUMMARY_PULL, &self.ids);
        out.push((from, Message::new(self.summary_id, self.origin, pull)));
        SummaryOutcome::Pulled
    }

    /// Sends `peer` the held list its advertisements have earned, if any:
    /// one summary frame naming the ids they named that we had already
    /// seen, so that `peer` counts us as holding them. Returns whether a
    /// frame went; `lhg-runtime`'s node sends one in place of a heartbeat.
    pub fn answer(&mut self, peer: P, out: &mut Sends<P>) -> bool {
        let owed = self.peers.get_mut(&peer).map(|p| &mut p.owed);
        let Some(owed) = owed.filter(|o| !o.is_empty()) else {
            return false;
        };
        let held = encode_summary(&mut self.kept, CONTROL_KEPT, SUMMARY_HELD, owed);
        owed.clear();
        out.push((peer, Message::new(self.summary_id, self.origin, held)));
        true
    }

    /// Drops every stored broadcast that each of `neighbors` is known to
    /// hold. Nothing retires while one of them has no holder slot (never
    /// heard from, or its link reset since), nor for an empty list. Sound
    /// as a stability rule only while every node's `neighbors` come from
    /// one overlay in which the neighbor relation is symmetric: a node that
    /// lacks an id then has a neighbor that still stores it (module docs).
    pub fn retire(&mut self, neighbors: impl IntoIterator<Item = P>) {
        let mut all = 0;
        for n in neighbors {
            match self.peers.get(&n).map_or(0, |p| p.bit) {
                0 => return,
                bit => all |= bit,
            }
        }
        if all == 0 {
            return;
        }
        self.store.retain(|k| k.held & all != all);
    }

    /// `true` while a sweep could have work — a frame unacked or queued on
    /// some link, an ack owed: only then need a driver wake for the grid.
    #[must_use]
    pub fn pending(&self) -> bool {
        let sending = |tx: &LinkSender| tx.in_flight() + tx.queued() > 0;
        (self.peers.values())
            .any(|p| p.tx.as_ref().is_some_and(sending) || p.rx.dirty || p.rx.urgent)
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
            let Some(Peer { tx, rx, .. }) = self.peers.get_mut(&peer) else {
                continue;
            };
            if let Some(tx) = tx {
                tx.sweep_with(&self.cfg, now_us, |frame| {
                    out.push((peer, rx.ride(frame)));
                    report.retransmits += 1;
                });
            }
            rx.skip_given_up(&self.cfg, now_us);
            if rx.ack_due(&self.cfg, now_us) {
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
            let bit = self.peers.get(&peer).map_or(0, |p| p.bit);
            let recent = self.store.ring.iter().rev().take(MAX_SUMMARY_IDS);
            let lacking = recent.filter(|k| k.held & bit == 0);
            self.ids.clear();
            self.ids.extend(lacking.map(|k| k.msg.broadcast_id));
            if !self.ids.is_empty() {
                let advert =
                    encode_summary(&mut self.kept, CONTROL_KEPT, SUMMARY_ADVERTISE, &self.ids);
                out.push((peer, Message::new(self.summary_id, self.origin, advert)));
            }
        }
        out.len() > before
    }

    /// The connection behind `peer` was replaced or lost: both sequence
    /// spaces restart, whatever the old sender never got acknowledged is
    /// parked, unstamped, for [`Self::flush`], and what `peer` was known to
    /// hold, and the held list we owed it, are forgotten (whoever answers
    /// next may have rebooted blank). The park is bounded like the sender
    /// queue (`queue_cap`, oldest dropped first): a peer down long enough to
    /// overflow it is left to anti-entropy repair.
    pub fn reset_link(&mut self, peer: P) {
        let Some(p) = self.peers.get_mut(&peer) else {
            return;
        };
        let old = std::mem::take(p);
        if old.bit != 0 {
            self.used &= !old.bit;
            for kept in &mut self.store.ring {
                kept.held &= !old.bit;
            }
        }
        p.parked = old.parked;
        if let Some(mut tx) = old.tx {
            p.parked.extend(tx.take_undelivered());
            let excess = p.parked.len().saturating_sub(self.cfg.queue_cap);
            p.parked.drain(..excess);
        }
    }

    /// Abandons the frames parked for `peer` (it was excommunicated; if it
    /// ever rejoins, summaries catch it up instead).
    pub fn abandon(&mut self, peer: P) {
        if let Some(p) = self.peers.get_mut(&peer) {
            p.parked = Vec::new();
        }
    }

    /// A replacement link to `peer` is up: re-sends what [`Self::reset_link`]
    /// parked. Duplicates are harmless — the peer's dedup set absorbs them.
    pub fn flush(&mut self, peer: P, now_us: u64, out: &mut Sends<P>) {
        let parked = (self.peers.get_mut(&peer)).map(|p| std::mem::take(&mut p.parked));
        for msg in parked.unwrap_or_default() {
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
    use std::cell::{Cell, RefCell};
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
    fn nacks_below_the_window_above_next_seq_or_at_u64_max_are_ignored() {
        let c = cfg();
        let mut tx = LinkSender::new();
        for i in 0..4 {
            tx.send(msg(i), &c, 0);
        }
        tx.on_ack(2, &[], &c, 0);
        for nack in [0, 1, 2, 5, 6, u64::MAX] {
            assert!(tx.on_ack(2, &[nack], &c, 10).is_empty(), "NACK {nack}");
        }
        assert_eq!(tx.in_flight(), 2);
        // Nothing was bumped: both frames time out on their first send,
        // and give up after exactly `max_retries` sweeps.
        let resent =
            |tx: &mut LinkSender, now| tx.sweep(&c, now).iter().map(seq).collect::<Vec<_>>();
        assert_eq!(resent(&mut tx, 100), [Some(3), Some(4)]);
        assert_eq!(resent(&mut tx, 200), [Some(3), Some(4)]);
        assert_eq!(resent(&mut tx, 300), [Some(3), Some(4)]);
        assert!(resent(&mut tx, 400).is_empty());
        assert_eq!((tx.in_flight(), tx.given_up()), (0, 2));
    }

    #[test]
    fn a_frame_given_up_behind_a_live_one_leaves_a_hole_until_the_front_goes() {
        let c = cfg(); // max_retries 3
        let mut tx = LinkSender::new();
        for i in 1..=3 {
            tx.send(msg(i), &c, 0);
        }
        // Seq 2's NACKs spend its retries; seqs 1 and 3 have spent none.
        for now in [10, 20, 30] {
            assert_eq!(tx.on_ack(0, &[2], &c, now).len(), 1);
        }
        assert_eq!(tx.sweep(&c, 130).len(), 2, "1 and 3 retransmit, 2 gives up");
        assert_eq!((tx.in_flight(), tx.given_up()), (2, 1));
        assert_eq!(tx.unacked.len(), 3, "seq 2's slot stays, empty");
        assert!(tx.unacked[1].is_none());
        // A NACK of the hole is ignored; acking seq 1 pops the hole too.
        assert!(tx.on_ack(0, &[2], &c, 140).is_empty());
        tx.on_ack(1, &[], &c, 150);
        assert_eq!(tx.unacked.len(), 1);
        let out = tx.on_ack(1, &[3], &c, 160);
        assert_eq!(out.iter().map(seq).collect::<Vec<_>>(), [Some(3)]);
        // The ring keeps its room as it drains.
        let room = tx.unacked.capacity();
        tx.on_ack(3, &[], &c, 170);
        assert!(tx.unacked.is_empty() && tx.in_flight() == 0);
        assert_eq!(tx.unacked.capacity(), room);
    }

    #[test]
    fn a_peer_nacking_the_front_forever_cannot_widen_the_ring() {
        let c = cfg(); // window 4, rto 100, max_retries 3: lifetime 400
        let mut tx = LinkSender::new();
        let mut widest = 0;
        // For 100 lifetimes the peer never moves `cum` and NACKs the front
        // every rto / 2, while a frame is offered every 10 µs.
        for step in 0..4_000u64 {
            let now = step * 10;
            tx.send(msg(step), &c, now);
            if now % 50 == 0 {
                tx.on_ack(0, &[tx.base()], &c, now);
            }
            tx.sweep(&c, now);
            widest = widest.max(tx.unacked.len());
        }
        // The front gives up within its lifetime like every frame behind
        // it, so the span stays within what one lifetime stamps.
        assert!(widest <= 2 * c.window, "ring spanned {widest} slots");
        assert!(tx.given_up() > 300);
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
    fn arrivals_in_any_order_keep_the_out_of_order_list_sorted() {
        let mut rx = LinkReceiver::new();
        for seq in [9, 4, 7, 5, 12, 3] {
            assert!(rx.on_frame(seq));
        }
        assert!(!rx.on_frame(7), "a duplicate from the middle");
        assert_eq!(rx.above, [3, 4, 5, 7, 9, 12]);
        let mut nacks = Vec::new();
        assert_eq!(rx.ack_payload(&mut nacks), 0);
        assert_eq!(nacks, [1, 2, 6, 8, 10, 11]);
        rx.on_frame(1);
        assert_eq!(rx.cum(), 1);
        rx.on_frame(2);
        assert_eq!((rx.cum(), rx.above.len()), (5, 3), "3, 4, 5 left the front");
    }

    #[test]
    fn a_hole_left_open_caps_the_out_of_order_list_and_the_link_still_advances() {
        // A peer leaves seq 1 as a hole and streams 2..=100,000 behind it:
        // arrivals past the cap are dropped as if lost, unacked, undelivered.
        let mut c = core(cfg());
        let cap = cfg().out_of_order_cap() as u64;
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        for seq in 2..=100_000 {
            let got = c.on_data(1, &msg(seq).with_link_seq(seq), &mut seen, 0, [1], &mut out);
            let want = if seq <= cap + 1 {
                DataOutcome::Fresh
            } else {
                DataOutcome::Refused
            };
            assert_eq!(got, want, "seq {seq}");
            assert!(c.peers[&1].rx.above.len() as u64 <= cap, "seq {seq}");
            out.clear();
        }
        let got = c.on_data(1, &msg(1).with_link_seq(1), &mut seen, 0, [1], &mut out);
        assert_eq!(got, DataOutcome::Fresh, "the hole fills");
        let rx = &c.peers[&1].rx;
        assert_eq!((rx.cum(), rx.above.len()), (cap + 1, 0));
        // The frames dropped past the cap come again, and now land.
        let next = cap + 2;
        let got = c.on_data(
            1,
            &msg(next).with_link_seq(next),
            &mut seen,
            0,
            [1],
            &mut out,
        );
        assert_eq!((got, c.peers[&1].rx.cum()), (DataOutcome::Fresh, next));
    }

    #[test]
    fn descending_arrivals_are_all_kept_one_entry_each_and_fill_in_one_step() {
        let mut rx = LinkReceiver::new();
        // Each arrival lands at the front of the list; none is dropped.
        for seq in (2..=2_000).rev() {
            assert!(rx.on_frame(seq));
        }
        assert_eq!(rx.above.len(), 1_999);
        assert!(rx.above.iter().zip(2..).all(|(&got, want)| got == want));
        assert!(!rx.on_frame(1_000), "a duplicate from the middle");
        assert!(rx.on_frame(1));
        assert_eq!((rx.cum(), rx.above.len()), (2_000, 0));
    }

    #[test]
    fn a_link_sequence_at_the_top_neither_overflows_nor_is_accepted() {
        // The receiver's arithmetic is checked: a frame at u64::MAX, and
        // then its hole skipped, takes the ack point to the top.
        let mut rx = LinkReceiver::new();
        assert!(rx.on_frame(u64::MAX));
        let mut nacks = Vec::new();
        assert_eq!(rx.ack_payload(&mut nacks), 0);
        assert_eq!(nacks, (1..=MAX_NACKS as u64).collect::<Vec<_>>());
        rx.skip_given_up(&cfg(), u64::MAX);
        assert_eq!(rx.cum(), u64::MAX);
        assert!(!rx.on_frame(u64::MAX), "nothing lies above the top");
        assert_eq!(rx.ack_payload(&mut nacks), u64::MAX);
        assert!(nacks.is_empty());
        // The core refuses such a frame unread, so no peer gets its link
        // there: the frames below the refused range still go through.
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        let top = u64::MAX - cfg().window as u64;
        for seq in [u64::MAX, top + 1] {
            let m = msg(7).with_link_seq(seq);
            let refused = c.on_data(1, &m, &mut seen, 0, [1], &mut out);
            assert_eq!(refused, DataOutcome::Refused);
        }
        assert!(!seen.contains(7) && out.is_empty());
        for (id, seq) in [(8, 1), (9, top)] {
            let m = msg(id).with_link_seq(seq);
            let fresh = c.on_data(1, &m, &mut seen, 0, [1], &mut out);
            assert_eq!(fresh, DataOutcome::Fresh);
        }
    }

    #[test]
    fn a_pull_that_names_an_id_again_and_again_is_served_it_once() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        c.on_data(1, &msg(3).with_link_seq(1), &mut seen, 0, [1], &mut out);
        out.clear();
        let pull = encode_summary_payload(true, &[3; MAX_SUMMARY_IDS]);
        assert_eq!(
            c.on_summary(2, pull, &seen, 0, &mut out),
            SummaryOutcome::Served(1)
        );
        assert_eq!(ids(&out), vec![(2, 3, Some(1))]);
    }

    #[test]
    fn a_pull_naming_an_id_twice_on_the_wire_is_refused_and_serves_nothing() {
        let mut c = core(cfg());
        let (mut seen, mut out) = (SeenSet::default(), Vec::new());
        c.on_data(1, &msg(3).with_link_seq(1), &mut seen, 0, [1], &mut out);
        out.clear();
        // Id 3 and then 63 distances of 0: the pull above, had its encoder
        // not collapsed the repeats.
        let mut raw = vec![SUMMARY_PULL, MAX_SUMMARY_IDS as u8, 3];
        raw.extend([0; MAX_SUMMARY_IDS - 1]);
        assert_eq!(
            c.on_summary(2, Bytes::from(raw), &seen, 0, &mut out),
            SummaryOutcome::Ignored
        );
        assert!(out.is_empty());
    }

    #[test]
    fn ack_payload_names_holes() {
        let mut rx = LinkReceiver::new();
        rx.on_frame(1);
        rx.on_frame(4);
        rx.on_frame(6);
        let mut nacks = vec![9];
        assert_eq!(rx.ack_payload(&mut nacks), 1);
        assert_eq!(nacks, vec![2, 3, 5]);
        assert!(!rx.dirty(), "ack emission clears the dirty flag");
    }

    #[test]
    fn duplicate_still_marks_dirty() {
        let mut rx = LinkReceiver::new();
        rx.on_frame(1);
        rx.ack_payload(&mut Vec::new());
        assert!(!rx.on_frame(1), "retransmitted copy");
        assert!(rx.dirty(), "a duplicate means our ack was lost: re-ack");
    }

    #[test]
    fn ack_payload_round_trips() {
        let nacks = vec![18, 19, 300, u64::MAX];
        let raw = encode_ack_payload(17, &nacks);
        // 17, four NACKs, then 1, 1, 281 and the rest of the way up.
        assert_eq!(raw[..6], [17, 4, 1, 1, 0x99, 0x02]);
        assert_eq!(raw.len(), 6 + 10);
        assert_eq!(decode_ack_payload(raw), Some((17, nacks)));
        assert_eq!(encode_ack_payload(5, &[])[..], [5, 0], "a clean ack");
        assert_eq!(decode_ack_payload(Bytes::from_static(b"xx")), None);
    }

    #[test]
    fn ack_payloads_that_overflow_repeat_or_run_on_are_refused() {
        let refused: [&[u8]; 7] = [
            &[],
            &[5],             // no count
            &[5, 33],         // past MAX_NACKS
            &[5, 2, 1],       // a NACK missing
            &[5, 1, 0],       // a distance of 0: cum itself
            &[5, 1, 1, 0xEE], // a byte after the last NACK
            &[0x80, 0x00, 0], // a padded cum
        ];
        for raw in refused {
            assert_eq!(
                decode_ack_payload(Bytes::copy_from_slice(raw)),
                None,
                "{raw:02x?}"
            );
        }
        // A distance that passes u64::MAX.
        let mut past = encode_ack_payload(u64::MAX - 1, &[u64::MAX]).to_vec();
        assert_eq!(
            decode_ack_payload(Bytes::from(past.clone())),
            Some((u64::MAX - 1, vec![u64::MAX]))
        );
        *past.last_mut().unwrap() = 2;
        assert_eq!(decode_ack_payload(Bytes::from(past)), None);
    }

    #[test]
    fn summary_payload_round_trips() {
        let ids = vec![1, 2, 0xFFFF_FFFF_FFFF];
        let raw = encode_summary_payload(false, &ids);
        // Mode, three ids, then 1 and the distances 1 and 2^48 - 3.
        assert_eq!(raw[..4], [SUMMARY_ADVERTISE, 3, 1, 1]);
        assert_eq!(raw.len(), 4 + 7);
        assert_eq!(decode_summary_payload(raw), Some((false, ids.clone())));
        let raw = encode_summary_payload(true, &ids);
        assert_eq!(decode_summary_payload(raw), Some((true, ids)));
        assert_eq!(encode_summary_payload(true, &[])[..], [SUMMARY_PULL, 0]);
        assert_eq!(encode_summary_payload(false, &[0])[..], [0, 1, 0], "id 0");
        assert_eq!(
            decode_summary_payload(Bytes::from_static(b"\x07\x00")),
            None,
            "unknown mode byte"
        );
        // A set: the first 64 ids given, sorted, each once.
        let given: Vec<u64> = [9, 3, 9, 1].into_iter().chain((100..200).rev()).collect();
        let want: Vec<u64> = [1, 3, 9].into_iter().chain(140..200).collect();
        let raw = encode_summary_payload(true, &given);
        assert_eq!(decode_summary_payload(raw), Some((true, want)));
    }

    #[test]
    fn the_widest_summary_payload_is_579_bytes() {
        // A ten-byte first id and 63 nine-byte distances; or a nine-byte
        // first id, one ten-byte distance and 62 nine-byte ones.
        let first_wide: Vec<u64> = (0..64).map(|i| (1 << 63) + (i << 56)).collect();
        let step_wide: Vec<u64> = (0..64)
            .map(|i: u64| (1 << 56) + (u64::from(i > 0) << 63) + (i.saturating_sub(1) << 56))
            .collect();
        for ids in [first_wide, step_wide] {
            let raw = encode_summary_payload(false, &ids);
            assert_eq!(raw.len(), MAX_SUMMARY_LEN);
            assert_eq!(decode_summary_payload(raw), Some((false, ids)));
        }
        assert_eq!(MAX_SUMMARY_LEN, 579);
    }

    #[test]
    fn summary_payloads_that_overflow_repeat_or_run_on_are_refused() {
        let mut too_many = vec![65, 0];
        too_many.extend([1; 64]);
        let mut past = encode_summary_payload(false, &[u64::MAX - 1, u64::MAX]).to_vec();
        assert_eq!(past[past.len() - 1], 1, "the last distance");
        *past.last_mut().unwrap() = 2;
        let refused: [(&[u8], &str); 9] = [
            (&[], "no count"),
            (&too_many, "more than MAX_SUMMARY_IDS"),
            (&[0x81, 0x00, 5], "a padded count"),
            (&[1, 0x85, 0x00], "a padded id"),
            (&[2, 5], "a count larger than the ids present"),
            (&[2, 5, 0], "a distance of 0: an id named twice"),
            (&past[1..], "a distance that passes u64::MAX"),
            (
                &[
                    1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
                ],
                "an id past u64::MAX",
            ),
            (&[1, 5, 0xEE], "a byte after the last id"),
        ];
        for (rest, why) in refused {
            for mode in [SUMMARY_ADVERTISE, SUMMARY_PULL, SUMMARY_HELD] {
                let raw: Vec<u8> = [mode].iter().chain(rest).copied().collect();
                assert!(read_summary(&raw).is_none(), "{why}: {raw:02x?}");
                assert_eq!(decode_summary_payload(Bytes::from(raw)), None, "{why}");
            }
        }
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
        let parked = &c.peers[&7].parked;
        assert!(parked.iter().all(|m| m.link_seq.is_none()), "unstamped");
        let parked_ids: Vec<u64> = parked.iter().map(|m| m.broadcast_id).collect();
        // Unacked 2..=5 then queued 6..=12 is 11 frames: the cap keeps the
        // newest `queue_cap`, in order.
        assert_eq!(parked_ids, (5..=12).collect::<Vec<u64>>());

        out.clear();
        c.flush(7, 50, &mut out);
        let want: Vec<_> = (1..=4).map(|i| (7, 4 + i, Some(i))).collect();
        assert_eq!(ids(&out), want, "fresh sequence space from 1");
        assert!(c.peers[&7].parked.is_empty());
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
        let tx = peer.peers[&0].tx.as_ref();
        assert_eq!(tx.map(LinkSender::in_flight), Some(0));
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
        assert_eq!(named(&out), vec![(1, vec![2]), (2, vec![1, 2])]);
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
        assert_eq!(named(&out), vec![(1, vec![1, 2, 3])]);
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

    /// The ids of the held list `frame` carries (`None` if it is not one).
    fn held_ids(frame: &Message) -> Option<Vec<u64>> {
        let (mode, ids) = read_summary(&frame.payload)?;
        (mode == SUMMARY_HELD).then(|| ids.collect())
    }

    #[test]
    fn an_advert_naming_ids_we_hold_is_answered_with_exactly_those_ids() {
        let (mut c, mut seen, mut out) = (core(cfg()), SeenSet::default(), Vec::new());
        for id in [1, 2, 3] {
            seen.insert(id);
        }
        assert!(!c.answer(5, &mut out), "nothing owed yet");
        // 5 names two ids we hold, one twice over two rounds, and one we
        // lack: that one is pulled, the others owed back once each.
        let advert = encode_summary_payload(false, &[3, 1, 99]);
        let outcome = c.on_summary(5, advert, &seen, 0, &mut out);
        assert_eq!(outcome, SummaryOutcome::Pulled);
        let advert = encode_summary_payload(false, &[3]);
        c.on_summary(5, advert, &seen, 0, &mut out);
        out.clear();
        assert!(!c.answer(6, &mut out), "owed to 5 only");
        assert!(c.answer(5, &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].0, out[0].1.broadcast_id), (5, SUMMARY_TAG));
        assert_eq!(held_ids(&out[0].1), Some(vec![1, 3]));
        assert_eq!(decode_summary_payload(out[0].1.payload.clone()), None);
        assert!(!c.answer(5, &mut out), "paid");

        // A held list marks what it names as held by its sender, and is
        // never answered: 6 is owed nothing and is not told about id 2.
        c.originate(&msg(2), 0, [], &mut out);
        out.clear();
        let held = encode_summary(&mut Vec::new(), 0, SUMMARY_HELD, &[2]);
        assert_eq!(
            c.on_summary(6, held, &seen, 0, &mut out),
            SummaryOutcome::Ignored
        );
        assert!(!c.answer(6, &mut out));
        assert!(!c.advertise([6], &mut out), "6 holds id 2");
        assert!(out.is_empty());
    }

    /// The ids `c` stores, oldest first, each checked against the index.
    fn stored(c: &ReliableCore<u32>) -> Vec<u64> {
        let ids: Vec<u64> = c.store.ring.iter().map(|k| k.msg.broadcast_id).collect();
        assert_eq!(c.store.index.len(), ids.len(), "one index entry per id");
        for &id in &ids {
            assert_eq!(c.store.get(id).map(|k| k.msg.broadcast_id), Some(id));
        }
        ids
    }

    #[test]
    fn retire_drops_only_what_every_given_neighbor_holds() {
        let (mut c, mut seen, mut out) = (core(cfg()), SeenSet::default(), Vec::new());
        for id in 1..=3 {
            c.originate(&msg(id), 0, [1, 2], &mut out);
        }
        // 1 acks everything, 2 only ids 1 and 2, and 3 advertises id 1.
        c.on_ack(1, encode_ack_payload(3, &[]), 0, &mut out);
        c.on_ack(2, encode_ack_payload(2, &[]), 0, &mut out);
        seen.insert(1);
        c.on_summary(3, encode_summary_payload(false, &[1]), &seen, 0, &mut out);
        c.retire([1, 2]);
        assert_eq!(stored(&c), [3], "held by 1 but not by 2");
        c.retire([1]);
        assert!(stored(&c).is_empty());

        // The store refills; FIFO eviction counts only live entries.
        for id in 4..=200 {
            c.originate(&msg(id), 0, [], &mut out);
        }
        let first = 201 - cfg().store_cap as u64;
        assert_eq!(stored(&c), (first..=200).collect::<Vec<u64>>());
    }

    #[test]
    fn an_id_remembered_twice_stays_servable_until_its_newer_copy_is_evicted() {
        let mut c = core(ReliableConfig {
            store_cap: 4,
            ..cfg()
        });
        // The dedup set is smaller than the store: it forgets id 1 while
        // the store still holds it, and id 1 comes again.
        let (mut seen, mut out) = (SeenSet::new(2), Vec::new());
        for (seq, id) in [(1, 1), (2, 2), (3, 3), (4, 1)] {
            let outcome = c.on_data(9, &msg(id).with_link_seq(seq), &mut seen, 0, [], &mut out);
            assert_eq!(outcome, DataOutcome::Fresh, "id {id}");
        }
        assert_eq!(stored(&c), [2, 3, 1], "one copy, the newer");
        let served = |c: &mut ReliableCore<u32>, out: &mut Sends<u32>| {
            let pull = encode_summary_payload(true, &[1]);
            c.on_summary(5, pull, &SeenSet::default(), 0, out)
        };
        // Ids 2 and 3 leave first; id 1 leaves when it is the oldest.
        for id in [4, 5, 6] {
            c.originate(&msg(id), 0, [], &mut out);
            assert_eq!(served(&mut c, &mut out), SummaryOutcome::Served(1));
        }
        assert_eq!(stored(&c), [1, 4, 5, 6]);
        c.originate(&msg(7), 0, [], &mut out);
        assert_eq!(served(&mut c, &mut out), SummaryOutcome::Served(0));
        assert_eq!(stored(&c), [4, 5, 6, 7]);
    }

    #[test]
    fn every_id_an_advert_names_after_retire_and_remember_can_be_pulled() {
        let mut c = core(ReliableConfig {
            store_cap: 8,
            window: 64,
            ..cfg()
        });
        let mut out = Vec::new();
        for id in 1..=6 {
            c.originate(&msg(id), 0, [1, 2], &mut out);
        }
        // 1 and 2 hold the odd ids: retiring them leaves holes mid-ring.
        for peer in [1, 2] {
            let odd = encode_summary(&mut Vec::new(), 0, SUMMARY_HELD, &[1, 3, 5]);
            c.on_summary(peer, odd, &SeenSet::default(), 0, &mut out);
        }
        c.retire([1, 2]);
        assert_eq!(stored(&c), [2, 4, 6]);
        let pull_all_named = |c: &mut ReliableCore<u32>, out: &mut Sends<u32>, want: &[u64]| {
            out.clear();
            assert!(c.advertise([3], out));
            let named = decode_summary_payload(out[0].1.payload.clone()).unwrap().1;
            assert_eq!(named, want, "a set: ascending");
            out.clear();
            let pull = encode_summary_payload(true, &named);
            let outcome = c.on_summary(3, pull, &SeenSet::default(), 0, out);
            assert_eq!(outcome, SummaryOutcome::Served(want.len() as u64));
            let served: Vec<u64> = out.iter().map(|(_, m)| m.broadcast_id).collect();
            assert_eq!(served, want, "each from its own entry");
        };
        for id in 7..=9 {
            c.originate(&msg(id), 0, [], &mut out);
        }
        assert_eq!(stored(&c), [2, 4, 6, 7, 8, 9]);
        pull_all_named(&mut c, &mut out, &[2, 4, 6, 7, 8, 9]);
        // Eviction goes on from the renumbered front.
        for id in 10..=12 {
            c.originate(&msg(id), 0, [], &mut out);
        }
        assert_eq!(stored(&c), [4, 6, 7, 8, 9, 10, 11, 12]);
        pull_all_named(&mut c, &mut out, &[4, 6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn a_reset_link_clears_the_peers_held_bit_on_every_entry() {
        let mut c = core(cfg());
        let mut out = Vec::new();
        for id in 1..=5 {
            c.originate(&msg(id), 0, [], &mut out);
        }
        let all = encode_summary(&mut Vec::new(), 0, SUMMARY_HELD, &[1, 2, 3, 4, 5]);
        for peer in [6, 7] {
            c.on_summary(peer, all.clone(), &SeenSet::default(), 0, &mut out);
        }
        let (six, seven) = (c.peers[&6].bit, c.peers[&7].bit);
        assert!(c.store.ring.iter().all(|k| k.held == six | seven));
        c.reset_link(6);
        assert!(c.store.ring.iter().all(|k| k.held == seven), "every entry");
        assert!(c.advertise([6], &mut out));
        assert!(!c.advertise([7], &mut out));
    }

    #[test]
    fn retire_keeps_everything_for_a_neighbor_with_no_slot_or_a_reset_link() {
        let (mut c, mut seen, mut out) = (core(cfg()), SeenSet::default(), Vec::new());
        c.originate(&msg(1), 0, [1, 2], &mut out);
        c.on_ack(1, encode_ack_payload(1, &[]), 0, &mut out);
        c.on_ack(2, encode_ack_payload(1, &[]), 0, &mut out);
        c.retire([1, 2, 9]);
        assert!(c.store.get(1).is_some(), "9 was never heard from");
        c.retire(std::iter::empty());
        assert!(c.store.get(1).is_some(), "nobody to hand it to");

        // 2's link resets: whoever answers may have rebooted blank. Its new
        // slot proves nothing about id 1 until it says so.
        c.reset_link(2);
        c.retire([1, 2]);
        assert!(c.store.get(1).is_some());
        c.on_data(2, &msg(5).with_link_seq(1), &mut seen, 1, [], &mut out);
        c.retire([1, 2]);
        assert!(c.store.get(1).is_some(), "2 holds id 5, not id 1");
        assert!(c.store.get(5).is_some(), "1 does not hold id 5");
        seen.insert(1);
        c.on_summary(2, encode_summary_payload(false, &[1]), &seen, 2, &mut out);
        c.retire([1, 2]);
        assert!(c.store.get(1).is_none(), "2's advert named it");
        assert_eq!(stored(&c), [5]);
    }

    #[test]
    fn a_reset_link_forgets_the_held_list_owed() {
        let (mut c, mut seen, mut out) = (core(cfg()), SeenSet::default(), Vec::new());
        seen.insert(1);
        c.on_summary(5, encode_summary_payload(false, &[1]), &seen, 0, &mut out);
        c.reset_link(5);
        assert!(!c.answer(5, &mut out));
        // At most one frame's worth is owed.
        let many: Vec<u64> = (100..100 + 2 * MAX_SUMMARY_IDS as u64).collect();
        for chunk in many.chunks(MAX_SUMMARY_IDS) {
            for &id in chunk {
                seen.insert(id);
            }
            c.on_summary(5, encode_summary_payload(false, chunk), &seen, 0, &mut out);
        }
        assert!(c.answer(5, &mut out));
        let want: Vec<u64> = many[..MAX_SUMMARY_IDS].to_vec();
        assert_eq!(held_ids(&out[0].1), Some(want));
    }

    #[test]
    fn the_in_place_reader_refuses_whatever_the_decoder_refuses() {
        // Id 0, then distances of 1.
        let payload = |mode: u8, count: u8, ids: usize, trailing: usize| {
            let mut raw = vec![mode, count];
            raw.extend((0..ids).map(|at| u8::from(at > 0)));
            raw.extend(vec![0xAB; trailing]);
            Bytes::from(raw)
        };
        let mut cases = vec![Bytes::new(), Bytes::from_static(b"\x00\x80")];
        for mode in [SUMMARY_ADVERTISE, SUMMARY_PULL, SUMMARY_HELD, 0x07] {
            for (count, ids) in [(0, 0), (1, 1), (2, 1), (1, 2), (65, 65), (64, 64)] {
                for trailing in [0, 1, 7] {
                    cases.push(payload(mode, count, ids, trailing));
                }
            }
        }
        for raw in cases {
            // A held list is read like an advertisement of the same ids.
            let mut as_advert = raw.to_vec();
            if as_advert.first() == Some(&SUMMARY_HELD) {
                as_advert[0] = SUMMARY_ADVERTISE;
            }
            let decoded = decode_summary_payload(Bytes::from(as_advert));
            let read = read_summary(&raw).map(|(_, ids)| ids.collect::<Vec<u64>>());
            assert_eq!(read, decoded.map(|(_, ids)| ids), "payload {raw:?}");
        }
    }

    /// Records `(arrival time, sender, frame id, link seq)` of every message its
    /// inner process receives, and after every event how many sequences its
    /// receivers hold above a hole.
    struct Tap {
        inner: ReliableFlooder,
        log: Log,
        above: Above,
    }

    impl Tap {
        fn count_above(&self) {
            let peers = self.inner.core.peers.values();
            self.above.set(peers.map(|p| p.rx.above.len()).sum());
        }
    }

    impl Process for Tap {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_>) {
            let entry = (ctx.now(), from, msg.broadcast_id, seq(&msg));
            self.log.borrow_mut().push(entry);
            self.inner.on_message(from, msg, ctx);
            self.count_above();
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.inner.on_timer(token, ctx);
            self.count_above();
        }
    }

    type Log = Rc<RefCell<Vec<(u64, NodeId, u64, Option<u64>)>>>;
    type Above = Rc<Cell<usize>>;

    /// Tapped flooders, the shared log, and each node's count of
    /// sequences held above a hole.
    fn tapped(
        cfg: ReliableConfig,
        schedule: &[ScheduledBroadcast],
        n: usize,
        horizon: u64,
    ) -> (Vec<Box<dyn Process>>, Log, Vec<Above>) {
        let log = Log::default();
        let aboves: Vec<Above> = (0..n).map(|_| Rc::default()).collect();
        let procs = (aboves.iter())
            .map(|above| {
                let inner = ReliableFlooder::new(cfg, schedule.to_vec(), horizon);
                let (log, above) = (Rc::clone(&log), Rc::clone(above));
                Box::new(Tap { inner, log, above }) as Box<dyn Process>
            })
            .collect();
        (procs, log, aboves)
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
        let (procs, log, _) = tapped(cfg, &schedule, n, horizon);
        let report = Simulation::new(&cycle(n), link, 5).run(procs, horizon);
        assert_eq!(report.deliveries.len(), n * schedule.len());
        let log = log.borrow();
        let data = |id: u64| id & (ACK_TAG | SUMMARY_TAG) == 0;
        assert!(log.iter().all(|e| e.2 != SUMMARY_TAG), "no summary");
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
        // The second broadcast goes long after the cut healed.
        let schedule =
            [(0x1000, 10_000), (0x2000, 400_000)].map(|(id, at_us)| ScheduledBroadcast {
                id,
                origin: 0,
                at_us,
            });
        let (procs, log, above) = tapped(cfg, &schedule, 2, 1_000_000);
        let report = sim.run(procs, 1_000_000);
        let at_1: Vec<(u64, u64)> = (report.deliveries.iter())
            .filter(|d| d.node == NodeId(1))
            .map(|d| (d.broadcast_id, d.time))
            .collect();
        assert_eq!(at_1.len(), 2, "each exactly once: {at_1:?}");
        assert_eq!(at_1[0].0, 0x1000);
        assert!(at_1[0].1 > 200_000, "by repair, after the cut");
        let log = log.borrow();
        let pulls = |from_us, to_us| {
            (log.iter())
                .filter(|e| (from_us..to_us).contains(&e.0))
                .filter(|e| e.1 == NodeId(1) && e.2 == SUMMARY_TAG)
                .count()
        };
        assert_eq!(pulls(0, 400_000), 1, "one pull answered one advertisement");

        // The sequence given up does not hold the link's cumulative ack
        // back for good. The second broadcast crosses once under its own
        // link sequence, and once more serving the pull that the summary
        // round sent with it drew (the advert names what is in flight, and
        // overtook it); each is acked and never sent again. With the link
        // wedged, each of the two sequences crossed three times. And no
        // hole is left open.
        let data = |e: &&(u64, NodeId, u64, Option<u64>)| e.2 & (ACK_TAG | SUMMARY_TAG) == 0;
        let later: Vec<(u64, Option<u64>)> = (log.iter())
            .filter(|e| e.0 > 400_000 && e.1 == NodeId(0))
            .filter(data)
            .map(|e| (e.2, e.3))
            .collect();
        assert_eq!(pulls(400_000, u64::MAX), 1);
        assert_eq!(later, [(0x2000, Some(3)), (0x2000, Some(4))]);
        assert_eq!(above[1].get(), 0, "no sequence held above a hole at rest");
    }
}
