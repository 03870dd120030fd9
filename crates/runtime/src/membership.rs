//! Who is a member, sans-IO: the part of a node the paper's guarantee is
//! about. Any k − 1 members may fail and the overlay stays k-connected, as
//! long as every replica heals around the same crashes.
//!
//! [`Membership`] is values in, effects out, like the [`NodeCore`] that
//! owns it. Its inputs are the node's own detector verdicts (`suspect`),
//! a frame from a member excommunicated here (`excommunicated_sender`),
//! what a crash or join frame says (`on_heard`, which rules on it, and
//! `on_wave` once the reliable plane hands the wave back fresh), and links
//! coming up (`on_link_up`). It appends what the node must carry out, in
//! order, to a sink the node reuses (`Effect`): waves and dead notices
//! (`Say`, which the node encodes), the replica's new view with the grace
//! and dials its churn asks for, excommunications, readmissions and
//! reconcile passes. It owns:
//!
//! * **the replica** — the overlay, the neighbors it wants, one entry per
//!   member (its incarnation, whether it crashed in it, the reports pending
//!   against it), and an epoch that moves with any of them. Entries merge
//!   as a join-semilattice: the replica is the join of the waves heard, in
//!   whatever order they came;
//! * **control waves** — crash/join announcements, each under a fresh
//!   nonce, which the node carries on its reliable plane like data: once
//!   sent, a wave arrives;
//! * **corroboration** — under a byzantine setup a remote report applies
//!   only once f+1 distinct origins vouch for the victim's incarnation and
//!   the victim is not demonstrably alive on a direct link;
//! * **healing** — `crash_many` on the replica, the churn it returns turned
//!   into grace and dials, degraded mode once ≥ k members are
//!   excommunicated (heal nothing, probe everyone);
//! * **rejoin** — the first dead notice about each incarnation answered
//!   with a `JOIN` announcement that starts the next; a notice about an
//!   incarnation already left, with that `JOIN` again, to the notifier.
//!
//! It asks its node (`Host`) what only the link records know: the time,
//! whether any link is up, and whether a member is directly live (its link
//! up, and a frame on it within the suspicion timeout).
//!
//! [`NodeCore`]: crate::core::NodeCore

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lhg_core::overlay::{ChurnReport, DynamicOverlay, MemberId};
use lhg_net::metrics::MetricsRegistry;
use lhg_trace::{EventKind, FlightRecorder};

use crate::core::{us, BootOpts};
use crate::RuntimeConfig;

/// A 32-bit crash/join wave nonce: the member's cluster-global life number
/// in the high 16 bits, its per-life wave sequence in the low 16. Lives
/// are allocated once per (re)join by the cluster, so nonces stay unique
/// across kill/rejoin cycles until the life counter itself wraps at
/// 2^16 — far beyond the dedup set's eviction horizon (see the
/// wave-nonce property tests).
#[must_use]
pub fn wave_nonce(life: u32, seq: u16) -> u32 {
    (life << 16) | u32::from(seq)
}

/// The incarnation a `JOIN` under `nonce` starts: its nonce + 1, so 0
/// (member 0's first nonce) means "never joined".
#[must_use]
pub(crate) fn incarnation(nonce: u32) -> u64 {
    u64::from(nonce) + 1
}

/// `origin` reports `victim` crashed in `incarnation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Report {
    pub origin: MemberId,
    pub victim: MemberId,
    pub incarnation: u64,
}

/// `member` (re)joined, starting `incarnation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Join {
    pub member: MemberId,
    pub incarnation: u64,
}

/// The linked peer `from` excommunicated this node in `incarnation`:
/// `first_hand` unless `from` only relays another origin's word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Notice {
    pub from: MemberId,
    pub incarnation: u64,
    pub first_hand: bool,
}

/// What a crash or join frame says, as the node decoded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heard {
    Report(Report),
    Join(Join),
    Notice(Notice),
}

/// A frame membership asks its node to write, as a value the node encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Say {
    /// `CRASH(victim)` under `nonce`, naming the victim's `incarnation` as
    /// this node knows it: a wave, or a dead notice sent to the victim.
    Crash {
        victim: MemberId,
        incarnation: u64,
        nonce: u32,
    },
    /// This node's `JOIN` under `nonce`, which starts its incarnation
    /// [`incarnation`]`(nonce)`.
    Join { nonce: u32 },
}

/// What [`Membership`] asks its node to do, in the order it must be done.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send the frame to the peer if the link is up: a dead notice, or this
    /// node's latest `JOIN` again.
    Send(MemberId, Say),
    /// Originate the wave on the reliable plane, to every live link.
    Wave(Say),
    /// Leave the link to the peer up, wanted or not, until at least then;
    /// nothing if it is not up.
    Grace(MemberId, u64),
    /// Dial the peer: a link the churn added, on the dialer side.
    Dial(MemberId),
    /// The replica changed under churn; this is the new one. A join that
    /// also lifts degraded mode changes it twice, and the node re-sizes its
    /// Bracha view to each.
    View(Arc<DynamicOverlay>),
    /// The member is excommunicated: drop its link and what was queued for it.
    Excommunicate(MemberId),
    /// The member rejoined: its link record starts afresh.
    Readmit(MemberId),
    /// Converge the links on the replica.
    Reconcile,
    /// A tick is due at once.
    Settle,
}

/// [`Membership::on_heard`]'s ruling on a crash or join frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wave {
    /// Not from this sender (another copy may come).
    Refused,
    /// For the reliable plane, and [`Membership::on_wave`] if fresh.
    Take,
    /// Old news: marked seen and acked, never stored, relayed or applied.
    Stale,
}

/// What the node lends [`Membership`] for one input: its clock, its
/// answers about its links, and the sink for what membership asks of it.
pub(crate) struct Host<'a> {
    pub now: u64,
    /// Some link is up: an announcement would reach somebody.
    pub linked: bool,
    /// Whether a member is directly live: its link is up and carried a
    /// frame within the suspicion timeout.
    pub live: &'a dyn Fn(MemberId) -> bool,
    pub out: &'a mut Vec<Effect>,
}

/// One member as this replica knows it. Entries merge by a max on
/// `(incarnation, crashed)`: a later incarnation beats anything said about
/// an earlier one, and within one `Crashed` beats `Alive`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Life {
    /// Where the latest applied `JOIN` started it ([`incarnation`]).
    incarnation: u64,
    crashed: bool,
    /// Reports short of corroboration: the highest incarnation each reporter
    /// has named that the entry does not dominate. One slot per reporter,
    /// however many incarnations it names.
    reporters: BTreeMap<MemberId, u64>,
}

impl Life {
    /// Whether merging `(incarnation, crashed)` in would change nothing.
    fn dominates(&self, incarnation: u64, crashed: bool) -> bool {
        (incarnation, crashed) <= (self.incarnation, self.crashed)
    }

    /// Merges `(incarnation, crashed)` in, dropping the reports it moves
    /// past; whether the entry moved.
    fn merge(&mut self, incarnation: u64, crashed: bool) -> bool {
        if self.dominates(incarnation, crashed) {
            return false;
        }
        let at = (incarnation, crashed);
        (self.incarnation, self.crashed) = at;
        self.reporters.retain(|_, &mut i| (i, true) > at);
        true
    }

    /// The latest incarnation at least `quorum` reporters each name, or one
    /// after it: where their reports stand, if they do.
    fn standing(&self, quorum: usize) -> Option<u64> {
        let mut named: Vec<u64> = self.reporters.values().copied().collect();
        named.sort_unstable_by(|a, b| b.cmp(a));
        named.get(quorum.checked_sub(1)?).copied()
    }
}

/// Who this node believes is a member, and what it does about it; see the
/// module docs.
pub struct Membership {
    id: MemberId,
    /// The overlay's connectivity parameter, cached at boot: ≥ k applied
    /// crashes means the failure budget is blown and healing must stop.
    k: usize,
    timeout_us: u64,
    metrics: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    /// This node's overlay replica (shared with whoever the driver
    /// published it to; copied on the next write), the neighbors it wants
    /// (cached from the replica) and each member's entry, this node's own
    /// included (none: never joined, never reported). `view_epoch` moves
    /// whenever replica or crashed members change, so a driver republishes
    /// them only then.
    overlay: Arc<DynamicOverlay>,
    desired: BTreeSet<MemberId>,
    lives: BTreeMap<MemberId, Life>,
    view_epoch: u64,
    degraded: bool,
    /// Set for the whole rejoin of a rejoin boot: until the `JOIN`
    /// announcement has gone.
    rejoining: bool,
    /// Send a `JOIN` announcement as soon as at least one link is up.
    pending_join_announce: bool,
    /// Set when a crash is first applied; cleared (and timed) once every
    /// desired link is re-established.
    healing_since: Option<u64>,
    /// The number of distinct reporters required before a crash report
    /// about one incarnation stands: f+1 under a byzantine setup (so the f
    /// traitors alone can never excommunicate anyone), 1 otherwise (the
    /// crash-only fault model trusts every report).
    crash_quorum: usize,
    life: u32,
    /// Per-life wave counter; with `life` it forms each wave's nonce.
    wave_seq: u16,
    /// Last time a dead notice went to each peer (rate limiting).
    notice_sent: BTreeMap<MemberId, u64>,
}

impl Membership {
    /// The membership half of a boot: `id` holding `overlay` as its replica.
    pub(crate) fn new(
        id: MemberId,
        overlay: DynamicOverlay,
        opts: BootOpts,
        config: &RuntimeConfig,
        metrics: Arc<MetricsRegistry>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        let desired = overlay.neighbors_of(id).unwrap_or_default();
        let mut lives = BTreeMap::<_, Life>::new();
        for &m in &opts.initial_crashes {
            lives.entry(m).or_default().merge(0, true);
        }
        Membership {
            id,
            k: overlay.k(),
            timeout_us: us(config.heartbeat_timeout),
            metrics,
            recorder,
            overlay: Arc::new(overlay),
            desired: desired.into_iter().collect(),
            lives,
            view_epoch: 1,
            degraded: false,
            rejoining: opts.announce_join,
            pending_join_announce: opts.announce_join,
            healing_since: None,
            crash_quorum: config.byzantine.as_ref().map_or(1, |s| s.f + 1),
            life: opts.life,
            wave_seq: 0,
            notice_sent: BTreeMap::new(),
        }
    }

    /// This node's overlay replica; cloning the `Arc` publishes it for free.
    #[must_use]
    pub fn overlay(&self) -> &Arc<DynamicOverlay> {
        &self.overlay
    }

    /// Members this node has declared crashed and healed around.
    #[must_use]
    pub fn crashes_applied(&self) -> BTreeSet<MemberId> {
        self.excommunicated().collect()
    }

    /// [`Self::crashes_applied`], uncollected.
    pub(crate) fn excommunicated(&self) -> impl Iterator<Item = MemberId> + '_ {
        (self.lives.iter()).filter_map(|(&m, life)| life.crashed.then_some(m))
    }

    pub(crate) fn is_excommunicated(&self, member: MemberId) -> bool {
        self.lives.get(&member).is_some_and(|life| life.crashed)
    }

    /// Moves whenever [`Self::overlay`] or [`Self::crashes_applied`] change.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch
    }

    /// `true` while ≥ k members are excommunicated and healing is suspended.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// `true` from a rejoin boot until its `JOIN` announcement has gone.
    #[must_use]
    pub fn is_rejoining(&self) -> bool {
        self.rejoining
    }

    /// The overlay neighbors the replica wants this node linked to.
    pub(crate) fn desired(&self) -> &BTreeSet<MemberId> {
        &self.desired
    }

    /// `true` while the node is repairing membership knowledge (degraded,
    /// or holding an unannounced join): its notion of "desired" cannot be
    /// trusted, so it probes **every** known member — any live peer is a
    /// way back in.
    pub(crate) fn probe_all(&self) -> bool {
        self.degraded || self.pending_join_announce
    }

    fn count(&self, name: &str) {
        self.metrics.counter(name).inc();
    }

    fn rec(&self, now: u64, kind: EventKind) {
        self.recorder.record_at(now, kind);
    }

    fn incarnation(&self, member: MemberId) -> u64 {
        self.lives.get(&member).map_or(0, |life| life.incarnation)
    }

    /// A freshly-nonced `CRASH(victim)` from this node, naming the victim's
    /// incarnation as this node knows it: a wave or a dead notice.
    fn crash_report(&mut self, victim: MemberId) -> Say {
        let (nonce, incarnation) = (self.fresh_wave_nonce(), self.incarnation(victim));
        Say::Crash {
            victim,
            incarnation,
            nonce,
        }
    }

    /// A frame from `from`, a member excommunicated here: the link is held
    /// on to, and the sender told so.
    pub(crate) fn excommunicated_sender(&mut self, from: MemberId, host: &mut Host) {
        host.out
            .push(Effect::Grace(from, host.now + self.timeout_us));
        self.dead_notice(from, host);
    }

    /// What a crash or join frame from `from` says: a dead notice starts
    /// the rejoin path, and the ruling on it as a wave comes back ([`Wave`]).
    pub(crate) fn on_heard(&mut self, from: MemberId, heard: Heard, host: &mut Host) -> Wave {
        let excommunicated = self.is_excommunicated(from);
        let dominated = |m, i, crashed| self.lives.get(&m).is_some_and(|l| l.dominates(i, crashed));
        match heard {
            // A dead notice: the sender excommunicated *us*. Never relayed,
            // never applied — it starts the rejoin path. Under corroboration
            // only a first-hand notice is a voice: a forged wave about us
            // that f+1 honest neighbors relayed is still one traitor
            // speaking.
            Heard::Notice(notice) => {
                if self.crash_quorum == 1 || notice.first_hand {
                    self.on_excommunication_notice(notice, host);
                }
                Wave::Stale
            }
            // Crash gossip from a node we excommunicated could be poison
            // (its replica is stale): refused until the sender has rejoined.
            // A revenant may only announce itself.
            Heard::Report(_) if excommunicated => Wave::Refused,
            Heard::Join(join) if excommunicated && join.member != from => Wave::Refused,
            // A report or join the member's entry dominates is old news,
            // whoever sent it and when.
            Heard::Report(r) if dominated(r.victim, r.incarnation, true) => Wave::Stale,
            Heard::Join(join) if dominated(join.member, join.incarnation, false) => Wave::Stale,
            _ => Wave::Take,
        }
    }

    /// A wave the node's reliable plane got here first, from `from`: a crash
    /// report, or a join to admit.
    pub(crate) fn on_wave(&mut self, from: MemberId, heard: Heard, host: &mut Host) {
        match heard {
            Heard::Report(report) => {
                let (victim, via) = (report.victim as u32, from as u32);
                self.rec(host.now, EventKind::CrashReport { victim, via });
                // The wave's *origin* is the reporter, not the relay: a
                // traitor flooding forged waves under fresh nonces still
                // counts as a single voice.
                self.note_crash_report(report, host);
            }
            Heard::Join(join) => {
                let member = join.member as u32;
                self.rec(host.now, EventKind::JoinAnnounce { member });
                self.apply_join(join, host);
            }
            Heard::Notice(_) => {}
        }
    }

    /// A link to `peer` came up (`dialed`: this node dialed it). The grace
    /// it is held open for, if any, and a grave probe's dead notice.
    pub(crate) fn on_link_up(&mut self, peer: MemberId, dialed: bool, host: &mut Host) {
        if self.is_excommunicated(peer) {
            // Hold the link open long enough for the rejoin handshake.
            host.out
                .push(Effect::Grace(peer, host.now + self.timeout_us));
            // A grave probe that found its target alive says so at once:
            // even if the peer's own reconcile pass tears the probe link
            // down, a healthy peer answers with a `JOIN` wave that reaches
            // us through the mesh. (Degraded nodes already probe
            // everyone.)
            if dialed && !self.probe_all() {
                self.count("runtime.grave_probes_hit");
                self.dead_notice(peer, host);
            }
        } else if !dialed && !self.desired.contains(&peer) {
            // Nobody dials outside the overlay without a reason: a grave
            // probe that found this node alive and has a dead notice to
            // deliver, a degraded node probing every member for a way
            // back in. Hanging up at once — the dialer-side teardown, when
            // this side has the lower id — would leave the caller's stale
            // exclusion standing for good.
            host.out
                .push(Effect::Grace(peer, host.now + 2 * self.timeout_us));
        }
    }

    /// The tick's share: send a pending `JOIN` announcement once a link is
    /// up, and end a rejoin whose announcement has gone.
    pub(crate) fn tick(&mut self, host: &mut Host) {
        self.try_announce_join(host);
        self.rejoining &= self.pending_join_announce;
    }

    /// Reacts to a `CRASH(self)` dead notice: the notifier is wrong about
    /// us, so announce a `JOIN`, which the notifier gets like
    /// every other replica. A degraded node answers the same way: every
    /// replica admits a joiner at the same canonical position, so its own
    /// view need not be trusted for the answer to be right.
    ///
    /// The `JOIN` starts the next incarnation, so the rest of the burst
    /// about the one it left goes unanswered. A notice about an incarnation
    /// already left comes from a replica that never heard the `JOIN` which
    /// left it (a revenant booted since): that `JOIN` goes again, to the
    /// notifier alone, whose own notices pace it.
    fn on_excommunication_notice(&mut self, notice: Notice, host: &mut Host) {
        let (own, from) = (self.incarnation(self.id), notice.from);
        if notice.incarnation < own {
            self.count("runtime.joins_resent");
            let nonce = u32::try_from(own - 1).expect("an incarnation is a u32 nonce + 1");
            host.out.push(Effect::Send(from, Say::Join { nonce }));
            return;
        }
        // Under a byzantine setup a single notice could be a traitor's
        // forgery; react only once f+1 distinct peers agree we were
        // excommunicated (a lone traitor cannot trigger rejoin flapping).
        if self
            .corroborated(self.id, notice.incarnation, from)
            .is_none()
        {
            return;
        }
        host.out.push(Effect::Settle); // the tick due now probes all, or clears the flag
        self.pending_join_announce = true;
        self.try_announce_join(host);
    }

    /// Sends this node's own `JOIN` announcement, under a fresh wave nonce,
    /// once at least one link is up (announcing into the void would reach
    /// nobody). It starts this node's next incarnation.
    fn try_announce_join(&mut self, host: &mut Host) {
        if !self.pending_join_announce || !host.linked {
            return;
        }
        self.pending_join_announce = false;
        let nonce = self.fresh_wave_nonce();
        (self.lives.entry(self.id).or_default()).merge(incarnation(nonce), false);
        self.count("runtime.join_announces");
        let member = self.id as u32;
        self.rec(host.now, EventKind::JoinAnnounce { member });
        host.out.push(Effect::Wave(Say::Join { nonce }));
    }

    /// The next control-wave nonce: this life's cluster-unique ordinal in
    /// the high half, a per-life counter in the low half. No two waves any
    /// node ever sends share a nonce (until a single life emits 2^16
    /// waves, by which time the copies of wave 0 are long drained), and one
    /// member's only grow.
    fn fresh_wave_nonce(&mut self) -> u32 {
        let nonce = wave_nonce(self.life, self.wave_seq);
        self.wave_seq = self.wave_seq.wrapping_add(1);
        nonce
    }

    /// Merges a (re)join in; if that is news, clears the member's crash
    /// state, admits it into the overlay at the canonical sorted position,
    /// and applies the churn.
    fn apply_join(&mut self, join: Join, host: &mut Host) {
        let member = join.member;
        let life = self.lives.entry(member).or_default();
        let was_crashed = life.crashed;
        if !life.merge(join.incarnation, false) {
            return;
        }
        self.view_epoch += u64::from(was_crashed);
        // A rejoined member starts afresh: heard from now, no dial backoff,
        // no grace, no notice sent — and the merge dropped its pre-join
        // crash reports as stale evidence.
        host.out.push(Effect::Readmit(member));
        self.notice_sent.remove(&member);
        if !self.overlay.contains(member) {
            if let Ok(report) = Arc::make_mut(&mut self.overlay).admit(member) {
                self.count("runtime.joins_applied");
                self.apply_churn(&report, host);
            }
        }
        self.maybe_exit_degraded(host);
        host.out.push(Effect::Reconcile);
    }

    /// Sends a direct `CRASH(peer)` *to* `peer`: "you are excommunicated
    /// here". Rate-limited so a chatty revenant gets one notice per
    /// half-timeout, not one per frame.
    fn dead_notice(&mut self, peer: MemberId, host: &mut Host) {
        let now = host.now;
        if (self.notice_sent.get(&peer)).is_some_and(|&t| now - t < self.timeout_us / 2) {
            return;
        }
        self.notice_sent.insert(peer, now);
        self.count("runtime.dead_notices");
        // Dead notices are point-to-point and never deduplicated, but a
        // fresh nonce keeps them out of any wave's identity space.
        host.out.push(Effect::Send(peer, self.crash_report(peer)));
    }

    /// A corroborated crash report vetoed because its victim was still
    /// heard on a direct link stands once that link has been silent a full
    /// timeout as well: each victim whose veto lifts now is healed around,
    /// with its own reconcile pass. Each report arrives once, and a victim
    /// outside the desired set — a link kept up past a heal — is not watched
    /// by this node's own detector, so without this the veto would be for
    /// good. An idle link is beaten once every m heartbeat-period ticks (m
    /// set by the timeout, 1 below 48 periods), so the last frame on a
    /// lingering link can trail the reporters' by two beat intervals.
    pub(crate) fn lift_stale_vetoes(&mut self, host: &mut Host) {
        let quorum = self.crash_quorum;
        let lifted: Vec<(MemberId, u64)> = (self.lives.iter())
            .filter_map(|(&v, life)| Some((v, life.standing(quorum)?)))
            .filter(|&(v, _)| !(host.live)(v))
            .collect();
        for (victim, incarnation) in lifted {
            self.apply_crash(victim, incarnation, host);
        }
    }

    /// Byz-aware corroborated suspicion: records the vote of the report's
    /// origin that its victim crashed in the incarnation it names, and
    /// applies the crash only once
    /// [`Self::crash_quorum`] distinct reporters agree **and** the victim
    /// is not demonstrably alive on a direct link (link up, frames within
    /// the suspicion timeout). Either guard alone stops a lone traitor:
    /// forged waves all share the traitor's origin (one voice), and even a
    /// corroborated-looking wave is vetoed while the victim is still heard
    /// on a direct link — until that link, too, has been silent a full
    /// timeout ([`Self::lift_stale_vetoes`]).
    fn note_crash_report(&mut self, report: Report, host: &mut Host) {
        let victim = report.victim;
        let Some(at) = self.corroborated(victim, report.incarnation, report.origin) else {
            return;
        };
        if self.crash_quorum > 1 && (host.live)(victim) {
            // Until that link falls silent too (`lift_stale_vetoes`).
            self.count("runtime.crash_vetoes");
            return;
        }
        self.apply_crash(victim, at, host);
    }

    /// Records `by`'s voice that `victim` crashed in `named` (none if the
    /// entry dominates it). The incarnation where [`Self::crash_quorum`]
    /// reporters now stand ([`Life::standing`]), if they do: a reporter
    /// that names a later incarnation vouches that the earlier ones are
    /// over, so voices stay order-free while each reporter holds one slot
    /// per victim.
    fn corroborated(&mut self, victim: MemberId, named: u64, by: MemberId) -> Option<u64> {
        let life = self.lives.entry(victim).or_default();
        if life.dominates(named, true) {
            return None;
        }
        let said = life.reporters.entry(by).or_insert(named);
        *said = (*said).max(named);
        let stands = life.standing(self.crash_quorum);
        if stands.is_none() {
            self.count("runtime.crash_reports_pending");
        }
        stands
    }

    /// Sends a freshly-nonced `CRASH(victim)` wave under this node's origin.
    pub(crate) fn crash_wave(&mut self, victim: MemberId, host: &mut Host) {
        host.out.push(Effect::Wave(self.crash_report(victim)));
    }

    /// Local suspicion: announce the crash to the cluster, then heal.
    /// Direct evidence (our own heartbeat timeout) applies immediately —
    /// corroboration guards *remote* reports, not first-hand observation.
    pub(crate) fn suspect(&mut self, victim: MemberId, host: &mut Host) {
        self.count("runtime.suspects");
        let (peer, via) = (victim as u32, self.id as u32);
        self.rec(host.now, EventKind::Suspicion { peer });
        self.rec(host.now, EventKind::CrashReport { victim: peer, via });
        self.crash_wave(victim, host);
        self.apply_crash(victim, self.incarnation(victim), host);
    }

    /// Enters or leaves degraded mode (`active` excommunications), keeping
    /// the counters, the timeline and the `runtime.degraded.n<id>` gauge in
    /// step; a no-op when already there.
    fn set_degraded(&mut self, degraded: bool, active: usize, now: u64) {
        if std::mem::replace(&mut self.degraded, degraded) == degraded {
            return;
        }
        if degraded {
            self.count("runtime.degraded_entries");
            let active = active as u32;
            self.rec(now, EventKind::Degraded { active });
        } else {
            self.count("runtime.degraded_exits");
            self.rec(now, EventKind::DegradedExit);
        }
        self.metrics
            .gauge(&format!("runtime.degraded.n{}", self.id))
            .set(i64::from(degraded));
    }

    /// Merges a crash of `victim` in `incarnation` into its entry; if that
    /// excommunicates it, removes it from the overlay replica and applies
    /// the resulting churn: drop removed links, dial added ones.
    ///
    /// When this crash pushes the suspect count to ≥ k, the node **stops
    /// healing** and degrades instead: below the k−1 budget LHG guarantees
    /// a consistent rebuild, above it a rebuild could partition the replica
    /// set (e.g. on the minority side of a network split). Degraded nodes
    /// keep probing every known member until joins bring the count back
    /// within budget ([`Self::maybe_exit_degraded`]).
    fn apply_crash(&mut self, victim: MemberId, incarnation: u64, host: &mut Host) {
        let now = host.now;
        let life = self.lives.entry(victim).or_default();
        let was_crashed = life.crashed;
        // This node's own entry holds only dead notices' voices.
        if victim == self.id || !life.merge(incarnation, true) || was_crashed {
            return;
        }
        self.count("runtime.crashes_applied");
        if self.healing_since.is_none() {
            self.healing_since = Some(now);
            let victim = victim as u32;
            self.rec(now, EventKind::HealBegin { victim });
        }
        self.view_epoch += 1;
        let active = self.excommunicated().count();
        let churn = if active >= self.k {
            self.set_degraded(true, active, now);
            None
        } else if self.overlay.contains(victim) {
            // A below-floor heal is refused atomically; we then keep the
            // stale topology minus the dead links. Defensive: the failure
            // model promises at most k-1 crashes, which never hits the
            // 2k membership floor from n ≥ 2k + (k-1) launches.
            Arc::make_mut(&mut self.overlay).crash_many(&[victim]).ok()
        } else {
            None
        };
        // Frames parked for an excommunicated peer are abandoned; if it
        // ever rejoins, anti-entropy summaries catch it up instead.
        host.out.push(Effect::Excommunicate(victim));
        if let Some(report) = churn {
            self.apply_churn(&report, host);
        }
        host.out.push(Effect::Reconcile);
    }

    /// Leaves degraded mode once joins have brought the suspect count back
    /// within the k−1 budget, then applies the heals deferred while the
    /// budget was blown; its caller, [`Self::apply_join`], reconciles.
    fn maybe_exit_degraded(&mut self, host: &mut Host) {
        if !self.degraded || self.excommunicated().count() >= self.k {
            return;
        }
        self.set_degraded(false, 0, host.now);
        let crashed = self.excommunicated();
        let stale: Vec<MemberId> = crashed.filter(|&m| self.overlay.contains(m)).collect();
        if !stale.is_empty() {
            if let Ok(report) = Arc::make_mut(&mut self.overlay).crash_many(&stale) {
                self.apply_churn(&report, host);
            }
        }
    }

    /// Applies one churn report: the new view (the node re-sizes the Bracha
    /// view to it), removed links left to linger, added ones dialed on the
    /// dialer side.
    fn apply_churn(&mut self, report: &ChurnReport, host: &mut Host) {
        self.view_epoch += 1;
        let desired = self.overlay.neighbors_of(self.id).unwrap_or_default();
        self.desired = desired.into_iter().collect();
        host.out.push(Effect::View(Arc::clone(&self.overlay)));
        // Make before break: a link the new topology has no use for lingers
        // for a moment before the reconcile pass takes it down, while the
        // node at its far end may not have healed yet. Closed at once, four
        // full-size partition seeds of the chaos sweep run past its horizon.
        let until = host.now + self.timeout_us / 2;
        let linger = report
            .removed_for(self.id)
            .map(|peer| Effect::Grace(peer, until));
        host.out.extend(linger);
        let added = report.added_for(self.id).filter(|&peer| self.id < peer);
        host.out.extend(added.map(Effect::Dial));
    }

    /// Closes the healing stopwatch once every desired link is up.
    pub(crate) fn check_healed(&mut self, links: &BTreeSet<MemberId>, now: u64) {
        let Some(t0) = self.healing_since else { return };
        if self.desired.is_subset(links) {
            let took_us = now - t0;
            self.metrics
                .histogram("runtime.reconnect_time_us")
                .record(took_us);
            self.count("runtime.heals");
            self.rec(now, EventKind::HealEnd { took_us });
            self.healing_since = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use lhg_core::Constraint;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::ByzantineSetup;

    /// `RuntimeConfig::default()`'s suspicion timeout (µs).
    const TIMEOUT: u64 = 300_000;

    /// Member 0 of K-DIAMOND(16, 3), with a traitor budget of `f`.
    fn member(f: usize) -> Membership {
        node(0, f)
    }

    /// Member `id` of K-DIAMOND(16, 3), freshly booted, with a traitor
    /// budget of `f`.
    fn node(id: MemberId, f: usize) -> Membership {
        let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 16, 3).expect("overlay");
        let traitors = Vec::new();
        let byzantine = (f > 0).then_some(ByzantineSetup { f, traitors });
        let config = RuntimeConfig {
            byzantine,
            ..RuntimeConfig::default()
        };
        let (metrics, opts) = (Arc::new(MetricsRegistry::new()), BootOpts::default());
        let recorder = Arc::new(FlightRecorder::with_capacity(0, 64, Instant::now()));
        Membership::new(id, overlay, opts, &config, metrics, recorder)
    }

    /// One input at `now`, every member `live` or none; what it emitted.
    fn run(
        m: &mut Membership,
        now: u64,
        live: bool,
        step: impl FnOnce(&mut Membership, &mut Host),
    ) -> Vec<Effect> {
        let mut out = Vec::new();
        let live = move |_| live;
        let linked = true;
        let mut host = Host {
            now,
            linked,
            live: &live,
            out: &mut out,
        };
        step(m, &mut host);
        out
    }

    /// What `say` from `sender` is to member `me`, on the link from
    /// `sender`: what the node decodes from the frame it writes.
    fn hear(me: MemberId, sender: MemberId, say: Say) -> Heard {
        match say {
            Say::Crash {
                victim,
                incarnation,
                ..
            } => crash(me, sender, victim, incarnation),
            Say::Join { nonce } => join(sender, nonce),
        }
    }

    /// `origin`'s `CRASH(victim)` naming the victim's incarnation `named`,
    /// as member `me` hears it from `origin`.
    fn crash(me: MemberId, origin: MemberId, victim: MemberId, named: u64) -> Heard {
        let (from, incarnation, first_hand) = (origin, named, true);
        if victim == me {
            return Heard::Notice(Notice {
                from,
                incarnation,
                first_hand,
            });
        }
        Heard::Report(Report {
            origin,
            victim,
            incarnation,
        })
    }

    /// `member`'s `JOIN` under `nonce`.
    fn join(member: MemberId, nonce: u32) -> Heard {
        let incarnation = incarnation(nonce);
        Heard::Join(Join {
            member,
            incarnation,
        })
    }

    /// `heard` from `from`, handed back as news when membership takes it as
    /// a wave (the node's plane has not seen it before): the ruling, and
    /// what it emitted.
    fn offer(
        m: &mut Membership,
        heard: Heard,
        from: MemberId,
        now: u64,
        live: bool,
    ) -> (Wave, Vec<Effect>) {
        let mut wave = Wave::Refused;
        let fx = run(m, now, live, |m, host| {
            wave = m.on_heard(from, heard, host);
            if wave == Wave::Take {
                m.on_wave(from, heard, host);
            }
        });
        (wave, fx)
    }

    /// `reporter`'s own wave reporting `victim` crashed in its first
    /// incarnation.
    fn report(m: &mut Membership, victim: MemberId, reporter: MemberId, live: bool) -> Vec<Effect> {
        let heard = crash(0, reporter, victim, 0);
        offer(m, heard, reporter, 1_000, live).1
    }

    fn excommunicates(effects: &[Effect], victim: MemberId) -> bool {
        (effects.iter()).any(|e| matches!(e, Effect::Excommunicate(v) if *v == victim))
    }

    /// The frames emitted, as (frame, None) for a wave and (frame, Some(to))
    /// for a direct send.
    fn frames(effects: &[Effect]) -> Vec<(Say, Option<MemberId>)> {
        (effects.iter())
            .filter_map(|e| match *e {
                Effect::Wave(say) => Some((say, None)),
                Effect::Send(to, say) => Some((say, Some(to))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_vetoed_report_stands_once_its_victim_has_been_silent_a_timeout() {
        let (mut m, victim) = (member(1), 5);
        assert!(!excommunicates(&report(&mut m, victim, 1, true), victim));
        // Two voices, but the victim is still heard on a direct link.
        assert!(!excommunicates(&report(&mut m, victim, 2, true), victim));
        assert_eq!(m.metrics.counter("runtime.crash_vetoes").get(), 1);
        let fx = run(&mut m, 2_000, true, Membership::lift_stale_vetoes);
        assert!(
            !excommunicates(&fx, victim),
            "lifted while the victim is heard"
        );
        let fx = run(
            &mut m,
            2_000 + TIMEOUT,
            false,
            Membership::lift_stale_vetoes,
        );
        assert!(excommunicates(&fx, victim) && m.crashes_applied().contains(&victim));
        assert_eq!(frames(&fx), [], "no wave of its own");
    }

    #[test]
    fn a_corroborated_crash_applies_without_a_wave_of_its_own() {
        let (mut m, victim) = (member(1), 5);
        assert!(!excommunicates(&report(&mut m, victim, 1, false), victim));
        let fx = report(&mut m, victim, 2, false);
        assert!(excommunicates(&fx, victim));
        assert_eq!(frames(&fx), []);
        // A report about the life before a join is no voice; one about a
        // later life vouches that this one is over too.
        let life = incarnation(9);
        offer(&mut m, join(6, 9), 6, 1_000, false);
        let mut said = |reporter: MemberId, named| {
            let heard = crash(0, reporter, 6, named);
            offer(&mut m, heard, reporter, 1_000, false)
        };
        assert_eq!(said(1, 0).0, Wave::Stale);
        let (wave, fx) = said(2, life + 1);
        assert!(wave == Wave::Take && !excommunicates(&fx, 6));
        assert!(excommunicates(&said(3, life).1, 6));
        // The crash stands at `life`; the later report still waits.
        assert_eq!(m.lives[&6].reporters, BTreeMap::from([(2, life + 1)]));
    }

    /// One origin naming ever new incarnations of a victim, or of this node
    /// in dead notices, holds one slot each: its highest, which is still
    /// one voice.
    #[test]
    fn a_reporter_naming_many_incarnations_holds_one_slot() {
        let mut m = member(1);
        for seq in 0..200u16 {
            for victim in [5, 0] {
                let named = u64::from(seq) * 7 + 1;
                let fx = offer(&mut m, crash(0, 3, victim, named), 3, 1_000, false).1;
                assert!(frames(&fx).is_empty() && !excommunicates(&fx, 5), "{fx:?}");
            }
        }
        for victim in [5, 0] {
            let highest = BTreeMap::from([(3, 199 * 7 + 1)]);
            assert_eq!(m.lives[&victim].reporters, highest, "victim {victim}");
        }
        assert!(m.crashes_applied().is_empty() && !m.pending_join_announce);
    }

    /// A revenant's crash gossip and a join it relays for another member
    /// are refused; its own join readmits it, and what it says after is news.
    #[test]
    fn a_revenant_is_heard_only_on_its_own_join_and_what_it_says_after() {
        let mut m = member(0);
        run(&mut m, 1_000, false, |m, host| m.suspect(7, host));
        let mut rule = |heard| offer(&mut m, heard, 7, 2_000, false).0;
        let nonce = |seq| wave_nonce(7, seq);
        assert_eq!(rule(crash(0, 7, 3, 0)), Wave::Refused);
        assert_eq!(rule(join(3, 3 << 16)), Wave::Refused);
        assert_eq!(rule(join(7, nonce(2))), Wave::Take);
        assert!(m.crashes_applied().is_empty(), "readmitted");
        let mut rule = |heard| offer(&mut m, heard, 7, 2_000, false).0;
        assert_eq!(rule(join(7, nonce(1))), Wave::Stale);
        assert_eq!(rule(crash(0, 7, 3, 0)), Wave::Take);
    }

    /// Quick partition seed 101's interleaving: a replica applies member
    /// 1's `JOIN`, then a `CRASH(1)` that a reporter which never rejoined
    /// sent about 1's earlier incarnation. The report is stale whoever sent
    /// it; one about the new incarnation is news.
    #[test]
    fn a_report_about_the_life_before_a_join_is_stale_after_it() {
        let mut m = member(0);
        let about_1 = |by: MemberId, named| crash(0, by, 1, named);
        let (_, fx) = offer(&mut m, about_1(2, 0), 2, 1_000, false);
        assert!(excommunicates(&fx, 1));
        let joined = wave_nonce(16, 0);
        let (wave, _) = offer(&mut m, join(1, joined), 1, 2_000, false);
        assert_eq!(wave, Wave::Take);
        assert!(m.crashes_applied().is_empty(), "readmitted");
        let (wave, fx) = offer(&mut m, about_1(3, 0), 3, 3_000, false);
        assert_eq!(wave, Wave::Stale);
        assert!(!excommunicates(&fx, 1) && m.crashes_applied().is_empty());
        let (wave, fx) = offer(&mut m, about_1(4, incarnation(joined)), 4, 4_000, false);
        assert_eq!(wave, Wave::Take);
        assert!(excommunicates(&fx, 1));
    }

    /// The replica is the join of the waves heard: one set of crash waves,
    /// join waves and dead notices, applied in two random orders, leaves
    /// the same entries and the same crashes applied — and the same overlay
    /// unless a replica is degraded, since degraded mode keeps whichever
    /// k-th crash came first in the overlay until a join lifts it. Members
    /// 1–9 crash and rejoin, and report each other's crashes as much as
    /// members 10–15 do; each wave comes relayed by one of 10–15, which
    /// this node never excommunicates (a wave a revenant relays is refused,
    /// and comes again by another link). A dead notice names this node's
    /// first incarnation (0), the only one a peer can know before this
    /// node has answered.
    #[test]
    fn the_replica_is_the_join_of_the_waves_heard_in_any_order() {
        let joined = |x: u32| wave_nonce(16 + x, 0);
        let life = |x| incarnation(joined(x));
        let named = [0, life(0), life(1)];
        for case in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let f = (case % 2) as usize;
            let mut waves = Vec::new();
            for _ in 0..rng.random_range(4..32u16) {
                let (relay, origin) = (rng.random_range(10..16u64), rng.random_range(1..16u64));
                let heard = match rng.random_range(0..4u32) {
                    0 | 1 => {
                        let said = named[rng.random_range(0..3usize)];
                        crash(0, origin, rng.random_range(1..10u64), said)
                    }
                    2 => join(rng.random_range(1..10u64), joined(rng.random_range(0..2))),
                    _ => crash(0, relay, 0, 0),
                };
                waves.push((heard, relay));
            }
            let mut replay = |rng: &mut StdRng| {
                waves.shuffle(rng);
                let mut m = member(f);
                for &(heard, from) in &waves {
                    offer(&mut m, heard, from, 1_000, false);
                }
                m
            };
            let (a, b) = (replay(&mut rng), replay(&mut rng));
            assert_eq!(a.lives, b.lives, "case {case}");
            assert_eq!(a.crashes_applied(), b.crashes_applied(), "case {case}");
            if !a.is_degraded() && !b.is_degraded() {
                assert_eq!(a.overlay().links(), b.overlay().links(), "case {case}");
            }
        }
    }

    #[test]
    fn a_heal_asks_grace_for_every_link_its_churn_removes() {
        let mut m = member(0);
        let before = m.desired().clone();
        let victim = *before.first().expect("a neighbor");
        let fx = run(&mut m, 1_000, false, |m, host| m.suspect(victim, host));
        let graced: BTreeSet<MemberId> = (fx.iter())
            .filter_map(|e| match *e {
                Effect::Grace(peer, until) => {
                    assert_eq!(until, 1_000 + TIMEOUT / 2);
                    Some(peer)
                }
                _ => None,
            })
            .collect();
        let removed: BTreeSet<MemberId> = before.difference(m.desired()).copied().collect();
        assert!(removed.contains(&victim));
        assert_eq!(graced, removed);
    }

    /// One `JOIN` answers every notice about the incarnation it leaves, at
    /// any time: a later notifier gets that `JOIN` again, to it alone, and
    /// no new one starts. A notice about the incarnation it starts is
    /// answered anew. Under corroboration the f+1 voices count per
    /// incarnation too.
    #[test]
    fn a_dead_notice_about_an_answered_incarnation_starts_no_new_one() {
        for f in [0, 1] {
            let mut m = member(f);
            // The `JOIN`s announced, and those sent again (to whom).
            let mut notice = |from: MemberId, named, now| {
                let heard = crash(0, from, 0, named);
                let (mut announced, mut resent) = (Vec::new(), Vec::new());
                for (say, to) in frames(&offer(&mut m, heard, from, now, false).1) {
                    match to {
                        None => announced.push(say),
                        Some(to) => resent.push((to, say)),
                    }
                }
                (announced, resent)
            };
            let none = (vec![], vec![]);
            for from in 1..=f as MemberId {
                assert_eq!(
                    notice(from, 0, 1_000),
                    none,
                    "f = {f}: one voice of {}",
                    f + 1
                );
            }
            // One announcement, which the notifier gets like everyone else.
            let first = Say::Join {
                nonce: wave_nonce(0, 0),
            };
            assert_eq!(notice(7, 0, 1_000), (vec![first], vec![]), "f = {f}");
            for from in 2..6 {
                let again = (vec![], vec![(from, first)]);
                assert_eq!(
                    notice(from, 0, from * TIMEOUT),
                    again,
                    "f = {f}: from {from}"
                );
            }
            // The first announcement (nonce 0) started incarnation 1.
            for from in 1..=f as MemberId {
                assert_eq!(notice(from, 1, 9 * TIMEOUT), none, "f = {f}");
            }
            let second = Say::Join {
                nonce: wave_nonce(0, 1),
            };
            assert_eq!(notice(8, 1, 9 * TIMEOUT), (vec![second], vec![]), "f = {f}");
            assert_eq!(notice(9, 1, 9 * TIMEOUT), (vec![], vec![(9, second)]));
        }
    }

    /// A revenant boots knowing no incarnation, so it can suspect a member
    /// that has rejoined only in that member's first life. Its crash wave
    /// is stale at every replica that applied the `JOIN`, and its dead
    /// notice gets that `JOIN` again, which readmits the member there.
    #[test]
    fn a_revenant_that_never_heard_a_join_is_sent_it_and_readmits() {
        let (mut p, mut q, mut r) = (member(0), node(4, 0), node(5, 0));
        // p's first notice starts its next life; q applies the `JOIN`.
        let fx = offer(&mut p, crash(0, 3, 0, 0), 3, 1_000, false).1;
        let Some(Effect::Wave(join)) = fx.into_iter().find(|e| matches!(e, Effect::Wave(_))) else {
            panic!("no JOIN announced");
        };
        assert_eq!(
            offer(&mut q, hear(4, 0, join), 0, 2_000, false).0,
            Wave::Take
        );
        // The revenant suspects p, in the only life it knows of.
        let fx = run(&mut r, 3_000, false, |m, host| m.suspect(0, host));
        let Some(Effect::Wave(crash)) = fx.into_iter().find(|e| matches!(e, Effect::Wave(_)))
        else {
            panic!("no crash wave");
        };
        assert_eq!(
            offer(&mut q, hear(4, 5, crash), 5, 3_000, false).0,
            Wave::Stale
        );
        assert!(q.crashes_applied().is_empty());
        // A grave probe finds p alive and tells it so.
        let fx = run(&mut r, 4_000, false, |m, host| m.on_link_up(0, true, host));
        let Some(Effect::Send(0, dead)) = fx.into_iter().find(|e| matches!(e, Effect::Send(..)))
        else {
            panic!("no dead notice");
        };
        let (wave, fx) = offer(&mut p, hear(0, 5, dead), 5, 5_000, false);
        assert_eq!(wave, Wave::Stale);
        let [Effect::Send(5, again)] = fx[..] else {
            panic!("{fx:?}");
        };
        assert_eq!(again, join, "the same `JOIN`");
        assert_eq!(p.metrics.counter("runtime.join_announces").get(), 1);
        // The revenant takes it as news and readmits p where q holds it.
        assert_eq!(
            offer(&mut r, hear(5, 0, again), 0, 6_000, false).0,
            Wave::Take
        );
        assert!(r.crashes_applied().is_empty());
        assert_eq!(r.overlay().links(), q.overlay().links());
        assert_eq!(r.lives[&0], q.lives[&0]);
    }

    #[test]
    fn k_crashes_degrade_and_a_join_back_within_budget_heals_again() {
        let mut m = member(0);
        for victim in [3, 7, 11] {
            assert!(!m.is_degraded());
            run(&mut m, 1_000, false, |m, host| m.suspect(victim, host));
        }
        // The k-th crash is not healed around.
        assert!(m.is_degraded() && m.overlay().contains(11));
        offer(&mut m, join(7, 1 << 16), 7, 2_000, false);
        // Back within budget: the deferred heal applies.
        assert!(!m.is_degraded() && !m.overlay().contains(11));
        assert_eq!(
            m.crashes_applied().iter().copied().collect::<Vec<_>>(),
            [3, 11]
        );
    }
}
