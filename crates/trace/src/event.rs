//! The structured event taxonomy recorded by the flight recorder.
//!
//! Every observable state transition of a runtime node maps to exactly one
//! [`EventKind`]. The taxonomy deliberately mirrors the runtime's layers:
//! link lifecycle (connect/disconnect), wire traffic (frame tx/rx,
//! heartbeat), failure handling (suspicion, crash report, heal begin/end)
//! and the broadcast data plane (accept/forward/deliver). Events are plain
//! `Copy` data — recording one is a couple of word writes, never an
//! allocation.

use std::fmt;

/// What happened. Peer/victim ids are the runtime's member ids narrowed to
/// `u32` (the runtime caps membership far below that).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A TCP link to `peer` came up (either side: dial or accept).
    Connect {
        /// The remote member.
        peer: u32,
    },
    /// The link to `peer` went down (EOF, I/O error, or teardown).
    Disconnect {
        /// The remote member.
        peer: u32,
    },
    /// One frame was written to `peer`.
    FrameTx {
        /// The remote member.
        peer: u32,
        /// Encoded frame size, including the length prefix.
        bytes: u32,
    },
    /// One frame was received from `peer`.
    FrameRx {
        /// The remote member.
        peer: u32,
        /// Encoded frame size, including the length prefix.
        bytes: u32,
    },
    /// A liveness probe from `peer` was received.
    Heartbeat {
        /// The probing member.
        peer: u32,
    },
    /// The local failure detector declared `peer` silent past the timeout.
    Suspicion {
        /// The suspected member.
        peer: u32,
    },
    /// A crash announcement for `victim` was processed; `via` is the member
    /// it was learned from (the node's own id when locally detected).
    CrashReport {
        /// The member reported crashed.
        victim: u32,
        /// Who told us (self id = local detection).
        via: u32,
    },
    /// Healing around `victim` started (overlay rebuild + link churn).
    HealBegin {
        /// The crashed member being healed around.
        victim: u32,
    },
    /// Every desired link is live again; healing took `took_us` µs.
    HealEnd {
        /// Wall-clock healing duration in microseconds.
        took_us: u64,
    },
    /// This node originated (and locally delivered) broadcast `trace_id`.
    BroadcastAccept {
        /// Trace id of the broadcast.
        trace_id: u64,
    },
    /// This node forwarded broadcast `trace_id` to its other neighbors.
    BroadcastForward {
        /// Trace id of the broadcast.
        trace_id: u64,
        /// Hop count of the copy being forwarded.
        hops: u32,
    },
    /// First receipt of broadcast `trace_id`: delivered to the application.
    BroadcastDeliver {
        /// Trace id of the broadcast.
        trace_id: u64,
        /// The neighbor the winning copy arrived from.
        from: u32,
        /// Hops the winning copy travelled.
        hops: u32,
    },
    /// `member` announced itself (back) into the overlay; this node
    /// admitted it and is flooding the join onward.
    JoinAnnounce {
        /// The joining member.
        member: u32,
    },
    /// Suspected failures exceeded k−1: the node stopped healing and
    /// entered degraded mode with `active` suspected crashes outstanding.
    Degraded {
        /// Suspected crash count when degradation began.
        active: u32,
    },
    /// Suspected failures fell back within the k−1 budget; normal healing
    /// resumed.
    DegradedExit,
    /// Fault injection removed an outbound frame to `peer` (chaos runs).
    FaultDrop {
        /// The intended recipient.
        peer: u32,
    },
}

impl EventKind {
    /// Stable snake_case name used in JSONL output and filters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Connect { .. } => "connect",
            EventKind::Disconnect { .. } => "disconnect",
            EventKind::FrameTx { .. } => "frame_tx",
            EventKind::FrameRx { .. } => "frame_rx",
            EventKind::Heartbeat { .. } => "heartbeat",
            EventKind::Suspicion { .. } => "suspicion",
            EventKind::CrashReport { .. } => "crash_report",
            EventKind::HealBegin { .. } => "heal_begin",
            EventKind::HealEnd { .. } => "heal_end",
            EventKind::BroadcastAccept { .. } => "broadcast_accept",
            EventKind::BroadcastForward { .. } => "broadcast_forward",
            EventKind::BroadcastDeliver { .. } => "broadcast_deliver",
            EventKind::JoinAnnounce { .. } => "join_announce",
            EventKind::Degraded { .. } => "degraded",
            EventKind::DegradedExit => "degraded_exit",
            EventKind::FaultDrop { .. } => "fault_drop",
        }
    }

    /// `true` for the per-frame traffic events (tx/rx/heartbeat) that
    /// dominate volume; timelines for humans usually filter these out.
    #[must_use]
    pub fn is_traffic(&self) -> bool {
        matches!(
            self,
            EventKind::FrameTx { .. }
                | EventKind::FrameRx { .. }
                | EventKind::Heartbeat { .. }
                | EventKind::FaultDrop { .. }
        )
    }

    /// The event's payload as (field, value) pairs, in JSONL field order.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::Connect { peer }
            | EventKind::Disconnect { peer }
            | EventKind::Heartbeat { peer }
            | EventKind::Suspicion { peer } => vec![("peer", u64::from(peer))],
            EventKind::FrameTx { peer, bytes } | EventKind::FrameRx { peer, bytes } => {
                vec![("peer", u64::from(peer)), ("bytes", u64::from(bytes))]
            }
            EventKind::CrashReport { victim, via } => {
                vec![("victim", u64::from(victim)), ("via", u64::from(via))]
            }
            EventKind::HealBegin { victim } => vec![("victim", u64::from(victim))],
            EventKind::HealEnd { took_us } => vec![("took_us", took_us)],
            EventKind::BroadcastAccept { trace_id } => vec![("trace_id", trace_id)],
            EventKind::BroadcastForward { trace_id, hops } => {
                vec![("trace_id", trace_id), ("hops", u64::from(hops))]
            }
            EventKind::BroadcastDeliver {
                trace_id,
                from,
                hops,
            } => vec![
                ("trace_id", trace_id),
                ("from", u64::from(from)),
                ("hops", u64::from(hops)),
            ],
            EventKind::JoinAnnounce { member } => vec![("member", u64::from(member))],
            EventKind::Degraded { active } => vec![("active", u64::from(active))],
            EventKind::DegradedExit => Vec::new(),
            EventKind::FaultDrop { peer } => vec![("peer", u64::from(peer))],
        }
    }
}

/// One recorded event: where and when, plus what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Per-recorder append sequence number (gaps mean ring overwrites).
    pub seq: u64,
    /// Microseconds since the recorder's epoch (monotonic clock).
    pub at_us: u64,
    /// The recording node's member id.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"at_us\":{},\"node\":{},\"event\":\"{}\"",
            self.seq,
            self.at_us,
            self.node,
            self.kind.name()
        );
        for (field, value) in self.kind.fields() {
            s.push_str(&format!(",\"{field}\":{value}"));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Event {
    /// Human one-liner: `[   1234µs] node  3  broadcast_deliver trace_id=.. `.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}µs] node {:>3}  {:<17}",
            self.at_us,
            self.node,
            self.kind.name()
        )?;
        for (field, value) in self.kind.fields() {
            write!(f, " {field}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_snake_case() {
        let kinds = [
            EventKind::Connect { peer: 1 },
            EventKind::Disconnect { peer: 1 },
            EventKind::FrameTx { peer: 1, bytes: 2 },
            EventKind::FrameRx { peer: 1, bytes: 2 },
            EventKind::Heartbeat { peer: 1 },
            EventKind::Suspicion { peer: 1 },
            EventKind::CrashReport { victim: 1, via: 2 },
            EventKind::HealBegin { victim: 1 },
            EventKind::HealEnd { took_us: 7 },
            EventKind::BroadcastAccept { trace_id: 9 },
            EventKind::BroadcastForward {
                trace_id: 9,
                hops: 1,
            },
            EventKind::BroadcastDeliver {
                trace_id: 9,
                from: 2,
                hops: 3,
            },
            EventKind::JoinAnnounce { member: 4 },
            EventKind::Degraded { active: 3 },
            EventKind::DegradedExit,
            EventKind::FaultDrop { peer: 6 },
        ];
        for k in kinds {
            assert!(!k.name().is_empty());
            assert!(k.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn traffic_classification() {
        assert!(EventKind::FrameTx { peer: 0, bytes: 1 }.is_traffic());
        assert!(EventKind::Heartbeat { peer: 0 }.is_traffic());
        assert!(!EventKind::Suspicion { peer: 0 }.is_traffic());
        assert!(!EventKind::BroadcastAccept { trace_id: 0 }.is_traffic());
        assert!(EventKind::FaultDrop { peer: 0 }.is_traffic());
        assert!(!EventKind::Degraded { active: 2 }.is_traffic());
        assert!(!EventKind::JoinAnnounce { member: 1 }.is_traffic());
    }

    #[test]
    fn json_rendering_is_one_flat_object() {
        let e = Event {
            seq: 5,
            at_us: 1_000,
            node: 2,
            kind: EventKind::BroadcastDeliver {
                trace_id: 42,
                from: 1,
                hops: 3,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"seq\":5,\"at_us\":1000,\"node\":2,\"event\":\"broadcast_deliver\",\
             \"trace_id\":42,\"from\":1,\"hops\":3}"
        );
    }

    #[test]
    fn display_contains_fields() {
        let e = Event {
            seq: 0,
            at_us: 12,
            node: 1,
            kind: EventKind::CrashReport { victim: 7, via: 1 },
        };
        let line = e.to_string();
        assert!(line.contains("crash_report"));
        assert!(line.contains("victim=7"));
        assert!(line.contains("via=1"));
    }
}
