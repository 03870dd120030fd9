//! The adversary, outside the protocol. A [`Node`] is what a driver runs:
//! a [`NodeCore`] and, when the run lists the node as a traitor, the
//! [`TraitorBehavior`] script wrapped around it. Inside the core a traitor
//! is only a node without a vote exchange: it relays a first-seen `SEND`
//! down the eager tree and casts no vote. The script filters the core's
//! inputs (`Silent` drops byz frames, `SuppressHeartbeat` dead notices),
//! adds its own actions (`Replay` floods each byz frame on once more,
//! `Equivocate` and `Forge` tell their one lie of a life on the first byz
//! frame they see, `FrameCrash` floods a forged crash wave once per
//! heartbeat period) and rewrites the core's output (`SuppressHeartbeat`
//! says no heartbeat or summary). Every lie speaks under the traitor's own
//! identity (the "signed-enough" model), so each is one voice: f short of
//! the f+1 amplification and corroboration thresholds.

use std::sync::Arc;

use bytes::Bytes;

use lhg_byzantine::TraitorBehavior::{self, Equivocate, Forge, Replay, Silent, SuppressHeartbeat};
use lhg_byzantine::{digest, GossipFrame, GossipKind, UnsoundMembership, VoteEntry, VotesFrame};
use lhg_byzantine::{EQUIVOCATE_NONCE_BASE, FORGE_NONCE_BASE};
use lhg_core::overlay::MemberId;
use lhg_net::message::{ByzTag, Message};
use lhg_net::metrics::{Counter, MetricsRegistry};
use lhg_trace::FlightRecorder;

use crate::core::{Action, Boot, Event, NodeCore};
use crate::wire::{self, FrameKind};
use crate::RuntimeConfig;

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

/// A node as its driver runs it; see the module docs.
pub struct Node {
    core: NodeCore,
    id: MemberId,
    script: Option<TraitorBehavior>,
    /// A byz frame has come this life: `Equivocate` and `Forge` have lied.
    lied: bool,
    /// `FrameCrash` only: its waves, one on each heartbeat-period tick.
    waves: Option<Arc<Counter>>,
}

impl Node {
    /// [`NodeCore::new`], wrapped in the script `config` lists for `id`.
    ///
    /// # Errors
    ///
    /// As [`NodeCore::new`].
    pub fn new(
        boot: Boot,
        config: &RuntimeConfig,
        metrics: Arc<MetricsRegistry>,
        recorder: Arc<FlightRecorder>,
        now_us: u64,
    ) -> Result<Self, UnsoundMembership> {
        let id = boot.id;
        let mut traitors = config.byzantine.iter().flat_map(|s| &s.traitors);
        let script = traitors.find(|t| t.0 == id).map(|t| t.1);
        let frame_crash = script == Some(TraitorBehavior::FrameCrash);
        let waves = frame_crash.then(|| metrics.counter("runtime.forged_crash_waves"));
        Ok(Node {
            core: NodeCore::new(boot, config, metrics, recorder, now_us)?,
            id,
            script,
            lied: false,
            waves,
        })
    }

    /// The core, for its read accessors.
    #[must_use]
    pub fn core(&self) -> &NodeCore {
        &self.core
    }

    /// [`NodeCore::next_deadline`]: a `FrameCrash` wave rides the core's
    /// heartbeat-period tick.
    #[must_use]
    pub fn next_deadline(&self) -> u64 {
        self.core.next_deadline()
    }

    /// [`NodeCore::handle`] behind the script's input filter, then its own
    /// answer to a byz frame, through its output rewrite.
    pub fn handle(&mut self, event: Event, now_us: u64, out: &mut Vec<Action>) {
        let (start, mut byz) = (out.len(), None);
        if let (Some(script), Event::Frame { from, msg }) = (self.script, &event) {
            match (wire::classify(msg.broadcast_id), script) {
                (FrameKind::Byz, Silent) => return,
                (FrameKind::Crash(victim), SuppressHeartbeat) if victim == self.id => return,
                (FrameKind::Byz, _) => byz = Some((*from, msg.forwarded())),
                _ => {}
            }
        }
        self.core.handle(event, now_us, out);
        if let Some((from, fwd)) = byz {
            self.answer(from, fwd, out);
        }
        self.rewrite(start, out);
    }

    /// [`NodeCore::tick`] behind a `FrameCrash` wave, if the tick is the
    /// heartbeat-period one, through the script's output rewrite.
    pub fn tick(&mut self, now_us: u64, out: &mut Vec<Action>) {
        let start = out.len();
        if let Some(waves) = self.waves.as_ref().filter(|_| self.core.beat_due(now_us)) {
            if let Some(victim) = self.lowest_other_member() {
                waves.inc();
                self.core.announce_crash(victim, now_us, out);
            }
        }
        self.core.tick(now_us, out);
        self.rewrite(start, out);
    }

    /// What the script adds to the core's handling of a byz frame from
    /// `from` (`fwd`: the frame, hop-incremented).
    fn answer(&mut self, from: MemberId, fwd: Message, out: &mut Vec<Action>) {
        let (me, lie) = (self.id as u32, !std::mem::replace(&mut self.lied, true));
        match self.script {
            // The identical frame again, to every live link but the one it
            // came on: a replayed `SEND` dies in a correct peer's seen-set,
            // replayed votes OR in bits it holds.
            Some(Replay) => {
                let links = self.core.links().iter().filter(|&&to| to != from);
                out.extend(links.map(|&to| Action::Send {
                    to,
                    msg: fwd.clone(),
                }));
            }
            // Impersonates the lowest other member of the replica as origin,
            // to every live link.
            Some(Forge) if lie => {
                let victim = self.lowest_other_member().unwrap_or(self.id) as u32;
                let msg = forged_votes(me, victim).to_message(me);
                let links = self.core.links().iter();
                out.extend(links.map(|&to| Action::Send {
                    to,
                    msg: msg.clone(),
                }));
            }
            // One story to even-indexed live links (by member id), the
            // other to odd.
            Some(Equivocate) if lie => {
                let pair = equivocation_pair(me).map(|f| f.to_message());
                let links = self.core.links().iter().zip(pair.iter().cycle());
                let sends = links.map(|(&to, msg)| (to, msg.clone()));
                out.extend(sends.map(|(to, msg)| Action::Send { to, msg }));
            }
            _ => {}
        }
    }

    /// The victim of a forgery or a forged crash wave: the lowest member of
    /// the replica but this node.
    fn lowest_other_member(&self) -> Option<MemberId> {
        let mut members = self.core.membership().overlay().members().iter().copied();
        members.find(|&m| m != self.id)
    }

    /// Drops a `SuppressHeartbeat` traitor's heartbeats and summaries —
    /// what would prove an idle link's end alive — from the actions from
    /// `start` on.
    fn rewrite(&self, start: usize, out: &mut Vec<Action>) {
        if self.script != Some(SuppressHeartbeat) {
            return;
        }
        let mut at = 0;
        out.retain(|action| {
            at += 1;
            let Action::Send { msg, .. } = action else {
                return true;
            };
            let kind = wire::classify(msg.broadcast_id);
            at <= start || !matches!(kind, FrameKind::Heartbeat(_) | FrameKind::Summary(_))
        });
    }
}
