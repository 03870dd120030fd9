//! Who is a member, sans-IO: the part of a node the paper's guarantee is
//! about. Any k − 1 members may fail and the overlay stays k-connected, as
//! long as every replica heals around the same crashes.
//!
//! [`Membership`] is inputs in, effects out, like the [`NodeCore`] that owns
//! it. Its inputs are the node's own detector verdicts (`suspect`), a
//! peer's frames (`on_frame`, which also rules on crash and join waves),
//! the waves the reliable plane hands back fresh (`on_wave`), and links
//! coming up (`on_link_up`). It appends what the node must carry out, in
//! order, to a sink the node reuses (`Effect`): waves, dead notices, the
//! replica's new view with the grace and dials its churn asks for,
//! excommunications, readmissions and reconcile passes. It owns:
//!
//! * **the replica** — the overlay, the neighbors it wants, the members it
//!   has declared crashed, and an epoch that moves with any of them;
//! * **control waves** — crash/join announcements, each under a fresh
//!   nonce, which the node carries on its reliable plane like data: once
//!   sent, a wave arrives;
//! * **corroboration** — under a byzantine setup a remote report applies
//!   only once f+1 distinct origins vouch for it and the victim is not
//!   demonstrably alive on a direct link;
//! * **healing** — `crash_many` on the replica, the churn it returns turned
//!   into grace and dials, degraded mode once ≥ k members are
//!   excommunicated (heal nothing, probe everyone);
//! * **rejoin** — dead notices, each answered with a `JOIN` announcement.
//!
//! It asks its node (`Host`) what only the link records know: the time,
//! whether any link is up, and whether a member is directly live (its link
//! up, and a frame on it within the suspicion timeout).
//!
//! [`NodeCore`]: crate::core::NodeCore

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use lhg_core::overlay::{ChurnReport, DynamicOverlay, MemberId};
use lhg_net::message::Message;
use lhg_net::metrics::MetricsRegistry;
use lhg_trace::{EventKind, FlightRecorder};

use crate::core::{us, BootOpts};
use crate::wire::{self, FrameKind};
use crate::RuntimeConfig;

/// What [`Membership`] asks its node to do, in the order it must be done.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send the frame to the peer if the link is up: a dead notice.
    Send(MemberId, Message),
    /// Originate the wave on the reliable plane, to every live link.
    Wave(Message),
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

/// [`Membership::on_frame`]'s ruling on a crash or join frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wave {
    /// Not from this sender (another copy may come), or not a wave.
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
    /// (cached from the replica) and the members it has declared crashed
    /// and healed around. `view_epoch` moves whenever replica or crash set
    /// change, so a driver republishes them only then.
    overlay: Arc<DynamicOverlay>,
    desired: BTreeSet<MemberId>,
    crashed: BTreeSet<MemberId>,
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
    /// The number of distinct crash reporters required before a CRASH wave
    /// is applied: f+1 under a byzantine setup (so the f
    /// traitors alone can never excommunicate anyone), 1 otherwise (the
    /// crash-only fault model trusts every report).
    crash_quorum: usize,
    /// Corroborated suspicion: distinct wave origins that have reported
    /// each victim crashed ([`Self::note_crash_report`]).
    crash_reporters: BTreeMap<MemberId, BTreeSet<MemberId>>,
    life: u32,
    /// Per-life wave counter; with `life` it forms each wave's nonce.
    wave_seq: u16,
    /// After answering a dead notice, ignore further ones until this time
    /// (they are echoes of the state being repaired).
    rejoin_cooldown: Option<u64>,
    /// Last time a dead notice went to each peer (rate limiting).
    notice_sent: BTreeMap<MemberId, u64>,
    /// The nonce of each member's latest `JOIN` applied here: its waves
    /// under an older nonce were sent before it rejoined.
    joined: BTreeMap<MemberId, u32>,
    /// The peers that sent us a dead notice since our last answer
    /// (byzantine runs).
    notifiers: BTreeSet<MemberId>,
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
        Membership {
            id,
            k: overlay.k(),
            timeout_us: us(config.heartbeat_timeout),
            metrics,
            recorder,
            overlay: Arc::new(overlay),
            desired: desired.into_iter().collect(),
            crashed: opts.initial_crashes,
            view_epoch: 1,
            degraded: false,
            rejoining: opts.announce_join,
            pending_join_announce: opts.announce_join,
            healing_since: None,
            crash_quorum: config.byzantine.as_ref().map_or(1, |s| s.f + 1),
            crash_reporters: BTreeMap::new(),
            life: opts.life,
            wave_seq: 0,
            rejoin_cooldown: None,
            notice_sent: BTreeMap::new(),
            joined: BTreeMap::new(),
            notifiers: BTreeSet::new(),
        }
    }

    /// This node's overlay replica; cloning the `Arc` publishes it for free.
    #[must_use]
    pub fn overlay(&self) -> &Arc<DynamicOverlay> {
        &self.overlay
    }

    /// Members this node has declared crashed and healed around.
    #[must_use]
    pub fn crashes_applied(&self) -> &BTreeSet<MemberId> {
        &self.crashed
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

    /// An empty-payload control frame from this node.
    fn control(&self, id: u64) -> Message {
        Message::new(id, self.id as u32, Bytes::new())
    }

    /// A frame from `from`. An excommunicated sender is held on to and told
    /// so, and a dead notice about this node starts the rejoin path. The
    /// ruling on a crash or join frame comes back ([`Wave`]).
    pub(crate) fn on_frame(
        &mut self,
        from: MemberId,
        msg: &Message,
        kind: FrameKind,
        host: &mut Host,
    ) -> Wave {
        let excommunicated = self.crashed.contains(&from);
        if excommunicated {
            host.out
                .push(Effect::Grace(from, host.now + self.timeout_us));
            self.dead_notice(from, host);
        }
        let (origin, nonce) = (MemberId::from(msg.origin), wire::nonce_of(msg.broadcast_id));
        let stale = |m| self.joined.get(&m).is_some_and(|&n| nonce < n);
        match kind {
            // A dead notice: the sender excommunicated *us*. Never relayed,
            // never applied — it starts the rejoin path. Under corroboration
            // only a first-hand notice is a voice: a forged wave about us
            // that f+1 honest neighbors relayed is still one traitor
            // speaking.
            FrameKind::Crash(victim) if victim == self.id => {
                if self.crash_quorum == 1 || origin == from {
                    self.on_excommunication_notice(from, host);
                }
                Wave::Stale
            }
            // Crash gossip from a node we excommunicated could be poison
            // (its replica is stale): refused until the sender has rejoined.
            // A revenant may only announce itself.
            FrameKind::Crash(_) if excommunicated => Wave::Refused,
            FrameKind::Join(member) if excommunicated && member != from => Wave::Refused,
            // A wave from an origin excommunicated here, or older than its
            // latest join, was sent from a replica this node has since ruled
            // out: the reliable plane would otherwise hand it on long after.
            FrameKind::Crash(_) if self.crashed.contains(&origin) || stale(origin) => Wave::Stale,
            FrameKind::Join(member) if stale(member) => Wave::Stale,
            FrameKind::Crash(_) | FrameKind::Join(_) => Wave::Take,
            _ => Wave::Refused,
        }
    }

    /// A wave the node's reliable plane got here first, from `from`: a crash
    /// report, or a join to admit.
    pub(crate) fn on_wave(&mut self, from: MemberId, msg: &Message, host: &mut Host) {
        match wire::classify(msg.broadcast_id) {
            FrameKind::Crash(victim) => {
                let via = from as u32;
                self.rec(
                    host.now,
                    EventKind::CrashReport {
                        victim: victim as u32,
                        via,
                    },
                );
                // The wave's *origin* is the reporter, not the relay: a
                // traitor flooding forged waves under fresh nonces still
                // counts as a single voice.
                self.note_crash_report(victim, MemberId::from(msg.origin), host);
            }
            FrameKind::Join(member) => {
                let member32 = member as u32;
                self.rec(host.now, EventKind::JoinAnnounce { member: member32 });
                // Newer than any applied before: `on_frame` found it not stale.
                self.joined.insert(member, wire::nonce_of(msg.broadcast_id));
                self.apply_join(member, host);
            }
            _ => {}
        }
    }

    /// A link to `peer` came up (`dialed`: this node dialed it). The grace
    /// it is held open for, if any, and a grave probe's dead notice.
    pub(crate) fn on_link_up(&mut self, peer: MemberId, dialed: bool, host: &mut Host) {
        if self.crashed.contains(&peer) {
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

    /// Reacts to a `CRASH(self)` dead notice from `from`: the notifier is
    /// wrong about us, so announce a `JOIN`, which the notifier gets like
    /// every other replica. A degraded node answers the same way: every
    /// replica admits a joiner at the same canonical position, so its own
    /// view need not be trusted for the answer to be right.
    fn on_excommunication_notice(&mut self, from: MemberId, host: &mut Host) {
        let now = host.now;
        if self.rejoin_cooldown.is_some_and(|t| now < t) {
            return; // an earlier notice already started the repair
        }
        // Under a byzantine setup a single notice could be a traitor's
        // forgery; react only once f+1 distinct peers agree we were
        // excommunicated (a lone traitor cannot trigger rejoin flapping).
        if self.crash_quorum > 1 {
            self.notifiers.insert(from);
            if self.notifiers.len() < self.crash_quorum {
                return;
            }
            self.notifiers.clear();
        }
        self.rejoin_cooldown = Some(now + self.timeout_us);
        host.out.push(Effect::Settle); // the tick due now probes all, or clears the flag
        self.pending_join_announce = true;
        self.try_announce_join(host);
    }

    /// Sends this node's own `JOIN` announcement, under a fresh wave nonce,
    /// once at least one link is up (announcing into the void would reach
    /// nobody).
    fn try_announce_join(&mut self, host: &mut Host) {
        if !self.pending_join_announce || !host.linked {
            return;
        }
        self.pending_join_announce = false;
        let id = wire::join_id(self.id, self.fresh_wave_nonce());
        self.count("runtime.join_announces");
        let member = self.id as u32;
        self.rec(host.now, EventKind::JoinAnnounce { member });
        host.out.push(Effect::Wave(self.control(id)));
    }

    /// The next control-wave nonce: this life's cluster-unique ordinal in
    /// the high half, a per-life counter in the low half. No two waves any
    /// node ever sends share a nonce (until a single life emits 2^16
    /// waves, by which time the copies of wave 0 are long drained).
    fn fresh_wave_nonce(&mut self) -> u32 {
        let nonce = wire::wave_nonce(self.life, self.wave_seq);
        self.wave_seq = self.wave_seq.wrapping_add(1);
        nonce
    }

    /// Applies a (re)join of `member`: clear its crash state, admit it into
    /// the overlay at the canonical sorted position, and apply the churn.
    fn apply_join(&mut self, member: MemberId, host: &mut Host) {
        if self.crashed.remove(&member) {
            self.view_epoch += 1;
        }
        // A rejoined member starts afresh: heard from now, no dial backoff,
        // no grace, no notice sent — and its pre-join crash reports are
        // stale evidence.
        host.out.push(Effect::Readmit(member));
        self.notice_sent.remove(&member);
        self.crash_reporters.remove(&member);
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
        let id = wire::crash_id(peer, self.fresh_wave_nonce());
        host.out.push(Effect::Send(peer, self.control(id)));
    }

    /// A corroborated crash report vetoed because its victim was still
    /// heard on a direct link stands once that link has been silent a full
    /// timeout as well: each victim whose veto lifts now is healed around,
    /// with its own reconcile pass. Each report arrives once, and a victim
    /// outside the desired set — a link kept up past a heal — is not watched
    /// by this node's own detector, so without this the veto would be for
    /// good. Idle links beat on their node's heartbeat-period tick, so the
    /// last frame on a lingering link can trail the reporters' by two periods.
    pub(crate) fn lift_stale_vetoes(&mut self, host: &mut Host) {
        let quorum = self.crash_quorum;
        let lifted: Vec<MemberId> = (self.crash_reporters.iter())
            .filter(|(v, reporters)| reporters.len() >= quorum && !self.crashed.contains(v))
            .map(|(&v, _)| v)
            .filter(|&v| !(host.live)(v))
            .collect();
        for victim in lifted {
            self.apply_crash(victim, host);
        }
    }

    /// Byz-aware corroborated suspicion: records `reporter`'s vote that
    /// `victim` crashed and applies the crash only once
    /// [`Self::crash_quorum`] distinct reporters agree **and** the victim
    /// is not demonstrably alive on a direct link (link up, frames within
    /// the suspicion timeout). Either guard alone stops a lone traitor:
    /// forged waves all share the traitor's origin (one voice), and even a
    /// corroborated-looking wave is vetoed while the victim is still heard
    /// on a direct link — until that link, too, has been silent a full
    /// timeout ([`Self::lift_stale_vetoes`]).
    fn note_crash_report(&mut self, victim: MemberId, reporter: MemberId, host: &mut Host) {
        let quorum = self.crash_quorum;
        if quorum <= 1 {
            self.apply_crash(victim, host);
            return;
        }
        if self.crashed.contains(&victim) {
            return;
        }
        let reporters = self.crash_reporters.entry(victim).or_default();
        reporters.insert(reporter);
        if reporters.len() < quorum {
            self.count("runtime.crash_reports_pending");
            return;
        }
        if (host.live)(victim) {
            // Until that link falls silent too (`lift_stale_vetoes`).
            self.count("runtime.crash_vetoes");
            return;
        }
        self.apply_crash(victim, host);
    }

    /// Sends a freshly-nonced `CRASH(victim)` wave under this node's origin.
    pub(crate) fn crash_wave(&mut self, victim: MemberId, host: &mut Host) {
        let id = wire::crash_id(victim, self.fresh_wave_nonce());
        host.out.push(Effect::Wave(self.control(id)));
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
        self.apply_crash(victim, host);
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

    /// Removes `victim` from the overlay replica and applies the resulting
    /// churn: drop removed links, dial added ones. Idempotent per victim.
    ///
    /// When this crash pushes the suspect count to ≥ k, the node **stops
    /// healing** and degrades instead: below the k−1 budget LHG guarantees
    /// a consistent rebuild, above it a rebuild could partition the replica
    /// set (e.g. on the minority side of a network split). Degraded nodes
    /// keep probing every known member until joins bring the count back
    /// within budget ([`Self::maybe_exit_degraded`]).
    fn apply_crash(&mut self, victim: MemberId, host: &mut Host) {
        let now = host.now;
        // Dead notices (victim == self) are handled before classification.
        if victim == self.id || !self.crashed.insert(victim) {
            return;
        }
        // The reports against the victim have served.
        self.crash_reporters.remove(&victim);
        self.count("runtime.crashes_applied");
        if self.healing_since.is_none() {
            self.healing_since = Some(now);
            let victim = victim as u32;
            self.rec(now, EventKind::HealBegin { victim });
        }
        self.view_epoch += 1;
        let active = self.crashed.len();
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
        if !self.degraded || self.crashed.len() >= self.k {
            return;
        }
        self.set_degraded(false, 0, host.now);
        let crashed = self.crashed.iter().copied();
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

    use super::*;
    use crate::ByzantineSetup;

    /// `RuntimeConfig::default()`'s suspicion timeout (µs).
    const TIMEOUT: u64 = 300_000;

    /// Member 0 of K-DIAMOND(16, 3), with a traitor budget of `f`.
    fn member(f: usize) -> Membership {
        let overlay = DynamicOverlay::bootstrap(Constraint::KDiamond, 16, 3).expect("overlay");
        let traitors = Vec::new();
        let byzantine = (f > 0).then_some(ByzantineSetup { f, traitors });
        let config = RuntimeConfig {
            byzantine,
            ..RuntimeConfig::default()
        };
        let (metrics, opts) = (Arc::new(MetricsRegistry::new()), BootOpts::default());
        let recorder = Arc::new(FlightRecorder::with_capacity(0, 64, Instant::now()));
        Membership::new(0, overlay, opts, &config, metrics, recorder)
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

    /// A control frame `from` sends under its own origin, handed back as
    /// news when membership takes it as a wave (the node's plane has not
    /// seen the id before).
    fn frame(m: &mut Membership, id: u64, from: MemberId, now: u64, live: bool) -> Vec<Effect> {
        let (msg, kind) = (
            Message::new(id, from as u32, Bytes::new()),
            wire::classify(id),
        );
        run(m, now, live, |m, host| {
            if m.on_frame(from, &msg, kind, host) == Wave::Take {
                m.on_wave(from, &msg, host);
            }
        })
    }

    /// `reporter`'s own wave reporting `victim` crashed.
    fn report(m: &mut Membership, victim: MemberId, reporter: MemberId, live: bool) -> Vec<Effect> {
        frame(
            m,
            wire::crash_id(victim, reporter as u32),
            reporter,
            1_000,
            live,
        )
    }

    fn excommunicates(effects: &[Effect], victim: MemberId) -> bool {
        (effects.iter()).any(|e| matches!(e, Effect::Excommunicate(v) if *v == victim))
    }

    /// The frames emitted, as (kind, None) for a wave and (kind, Some(to))
    /// for a direct send.
    fn frames(effects: &[Effect]) -> Vec<(FrameKind, Option<MemberId>)> {
        let kind = |msg: &Message| wire::classify(msg.broadcast_id);
        (effects.iter())
            .filter_map(|e| match e {
                Effect::Wave(msg) => Some((kind(msg), None)),
                Effect::Send(to, msg) => Some((kind(msg), Some(*to))),
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
    }

    #[test]
    fn a_revenant_is_heard_only_on_its_own_join_and_what_it_says_after() {
        let mut m = member(0);
        run(&mut m, 1_000, false, |m, host| m.suspect(7, host));
        let rule = |m: &mut Membership, id: u64, origin: u32| {
            let (msg, kind) = (Message::new(id, origin, Bytes::new()), wire::classify(id));
            let mut wave = Wave::Refused;
            run(m, 2_000, false, |m, host| {
                wave = m.on_frame(7, &msg, kind, host);
                if wave == Wave::Take {
                    m.on_wave(7, &msg, host);
                }
            });
            wave
        };
        let nonce = |seq| wire::wave_nonce(7, seq);
        assert_eq!(rule(&mut m, wire::crash_id(3, nonce(0)), 7), Wave::Refused);
        assert_eq!(rule(&mut m, wire::join_id(3, 3 << 16), 3), Wave::Refused);
        assert_eq!(rule(&mut m, wire::join_id(7, nonce(2)), 7), Wave::Take);
        assert!(m.crashes_applied().is_empty(), "readmitted");
        // What it said before its join is stale; what it says after is news.
        assert_eq!(rule(&mut m, wire::crash_id(3, nonce(1)), 7), Wave::Stale);
        assert_eq!(rule(&mut m, wire::join_id(7, nonce(1)), 7), Wave::Stale);
        assert_eq!(rule(&mut m, wire::crash_id(3, nonce(3)), 7), Wave::Take);
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

    #[test]
    fn dead_notices_inside_the_cooldown_coalesce_into_one_answer() {
        let mut m = member(0);
        let mut notice = |from: MemberId, now| {
            let fx = frame(&mut m, wire::crash_id(0, from as u32), from, now, false);
            frames(&fx)
                .into_iter()
                .filter(|f| f.0 == FrameKind::Join(0))
                .count()
        };
        // One announcement, which the notifier gets like everyone else.
        assert_eq!(notice(1, 1_000), 1);
        for from in 2..6 {
            assert_eq!(notice(from, 1_000 + 1_000 * from), 0, "notice from {from}");
        }
        assert_eq!(notice(2, 1_000 + TIMEOUT), 1);
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
        frame(&mut m, wire::join_id(7, 1 << 16), 7, 2_000, false);
        // Back within budget: the deferred heal applies.
        assert!(!m.is_degraded() && !m.overlay().contains(11));
        assert_eq!(
            m.crashes_applied().iter().copied().collect::<Vec<_>>(),
            [3, 11]
        );
    }
}
