//! Invariants checked against a chaos run, and the report they produce.
//!
//! The oracle asserts exactly what the stack promises — and since the
//! reliable link layer ([`lhg_net::reliable`]: per-link ack/retransmit
//! plus anti-entropy repair) sits under flooding on both engines, that
//! promise includes **strict exactly-once delivery on lossy runs**: every
//! correct node delivers every broadcast from a correct origin, whether
//! links are clean, dropping two frames in five, duplicating, or
//! reordering. There is no lossless-only carve-out; loss costs latency,
//! never delivery. Termination, dedup, hop-sanity, and convergence checks
//! apply to every family on top.

use std::fmt;

use crate::plan::Family;

/// One observed violation of a chaos invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A correct node failed to deliver a broadcast from a correct origin
    /// — on any run, lossy ones included (the reliable layer must repair
    /// loss).
    DeliveryMissed {
        /// Broadcast id that went missing.
        broadcast_id: u64,
        /// The node that should have delivered it.
        node: u32,
    },
    /// A node delivered the same broadcast id twice (dedup must make
    /// delivery exactly-once per node, even under duplication faults).
    DuplicateDelivery {
        /// The doubly-delivered broadcast id.
        broadcast_id: u64,
        /// The offending node.
        node: u32,
    },
    /// A delivery's hop count exceeded the engine-appropriate bound
    /// (the P4 logarithmic bound on calibration runs, n−1 always).
    HopBoundExceeded {
        /// Broadcast id of the offending delivery.
        broadcast_id: u64,
        /// The node that delivered it.
        node: u32,
        /// Observed hop count.
        hops: u32,
        /// The bound that was exceeded.
        bound: u32,
    },
    /// After applying the plan's crash set, the surviving overlay is not
    /// k-vertex-connected (the structural P1 guarantee was lost).
    NotKConnected {
        /// Number of crashed nodes applied.
        crashed: usize,
    },
    /// Two live replicas disagree about the membership after the run
    /// settled (crash/join waves must converge).
    ReplicaDivergence {
        /// One of the disagreeing replicas.
        node: u32,
        /// A description of the disagreement.
        detail: String,
    },
    /// A run phase failed to complete within its deadline.
    Timeout {
        /// Which phase stalled (e.g. `"heal"`, `"reconverge"`).
        phase: String,
    },
    /// Byzantine agreement broke: two correct nodes certified different
    /// payload digests for the same broadcast instance — the one thing
    /// Bracha's echo quorum exists to prevent.
    AgreementBroken {
        /// Instance nonce the nodes disagree on.
        nonce: u64,
        /// One of the disagreeing correct nodes.
        node_a: u32,
        /// The other.
        node_b: u32,
    },
    /// Byzantine validity broke: a correct origin's broadcast was never
    /// delivered by some correct node, although traitors were within the
    /// f = ⌊(k−1)/2⌋ budget.
    ValidityMissed {
        /// Instance nonce of the missing broadcast.
        nonce: u64,
        /// The correct node that never delivered it.
        node: u32,
    },
    /// Byzantine integrity broke: a correct node delivered an instance no
    /// correct origin broadcast (a forged or equivocated instance reached
    /// a delivery quorum), or delivered a scheduled instance with the
    /// wrong payload digest.
    IntegrityForged {
        /// Instance nonce of the corrupt delivery.
        nonce: u64,
        /// The deceived correct node.
        node: u32,
    },
    /// A correct node that crashed and rejoined diverged from the stable
    /// majority: after its return it must eventually agree with the
    /// always-up correct nodes on every instance they delivered —
    /// including broadcasts originated *while it was dead* (byz catch-up
    /// repairs those) — and it must never contradict integrity on
    /// instances it certified before the crash.
    RejoinDivergence {
        /// The rejoined node.
        node: u32,
        /// Instance nonce it disagrees on.
        nonce: u64,
        /// A description of the disagreement.
        detail: String,
    },
    /// A churned membership view dipped below the 3f+1 quorum floor:
    /// some node's Bracha engine refused a view bump (or a broadcast under
    /// the refused view) because the live membership could no longer
    /// support the traitor budget. Generated plans keep n − crashes well
    /// above the floor, so any occurrence is a runner or detector bug.
    QuorumUnsafe {
        /// Total `byz.unsafe_views` refusals counted across the run.
        count: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DeliveryMissed { broadcast_id, node } => {
                write!(f, "node {node} never delivered broadcast {broadcast_id:#x}")
            }
            Violation::DuplicateDelivery { broadcast_id, node } => {
                write!(f, "node {node} delivered broadcast {broadcast_id:#x} twice")
            }
            Violation::HopBoundExceeded {
                broadcast_id,
                node,
                hops,
                bound,
            } => write!(
                f,
                "broadcast {broadcast_id:#x} reached node {node} in {hops} hops (bound {bound})"
            ),
            Violation::NotKConnected { crashed } => write!(
                f,
                "survivor overlay lost k-connectivity after {crashed} crash(es)"
            ),
            Violation::ReplicaDivergence { node, detail } => {
                write!(f, "replica {node} diverged: {detail}")
            }
            Violation::Timeout { phase } => write!(f, "phase '{phase}' timed out"),
            Violation::AgreementBroken {
                nonce,
                node_a,
                node_b,
            } => write!(
                f,
                "byzantine agreement broken: nodes {node_a} and {node_b} certified \
                 different digests for instance {nonce:#x}"
            ),
            Violation::ValidityMissed { nonce, node } => write!(
                f,
                "byzantine validity missed: correct node {node} never delivered \
                 instance {nonce:#x} from a correct origin"
            ),
            Violation::IntegrityForged { nonce, node } => write!(
                f,
                "byzantine integrity forged: correct node {node} delivered \
                 instance {nonce:#x} that no correct origin broadcast"
            ),
            Violation::RejoinDivergence {
                node,
                nonce,
                detail,
            } => write!(
                f,
                "rejoin divergence: rejoined node {node} disagrees with the stable \
                 majority on instance {nonce:#x}: {detail}"
            ),
            Violation::QuorumUnsafe { count } => write!(
                f,
                "membership view dipped below the 3f+1 quorum floor \
                 ({count} unsafe-view refusal(s))"
            ),
        }
    }
}

/// Which engine executed a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Deterministic discrete-event simulator (virtual time).
    Sim,
    /// Real TCP runtime over loopback sockets (wall-clock time).
    Tcp,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Sim => "sim",
            Engine::Tcp => "tcp",
        })
    }
}

/// The outcome of executing one [`crate::plan::FaultPlan`] on one engine.
#[derive(Debug)]
pub struct ChaosReport {
    /// The reproducing seed.
    pub seed: u64,
    /// Engine that ran the plan.
    pub engine: Engine,
    /// The plan's fault family.
    pub family: Family,
    /// Cluster size of the run.
    pub n: usize,
    /// Connectivity parameter of the run.
    pub k: usize,
    /// Every invariant violation observed (empty means the run passed).
    pub violations: Vec<Violation>,
    /// Virtual or wall-clock end time of the run, µs from start.
    pub end_time_us: u64,
    /// Total deliveries observed across all nodes.
    pub deliveries: usize,
    /// The run's merged flight-recorder timeline as JSONL, captured on
    /// failure (wall-clock stamps on TCP, virtual-time stamps on the
    /// simulator); written to disk by the CLI when `--events` is given.
    pub events_jsonl: Option<String>,
    /// Pre-rendered JSON object summarizing the run's telemetry timeline
    /// (sample count, span, per-class wire costs); spliced verbatim into
    /// [`ChaosReport::to_json_line`]. The runner renders it so this module
    /// stays free of JSON dependencies.
    pub telemetry: Option<String>,
}

impl ChaosReport {
    /// True when no invariant was violated.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One JSON object per run, for machine consumption (`lhg chaos
    /// --json`). Hand-rolled — this module carries no JSON dependency —
    /// so the schema is fixed here: scalar run coordinates, a `passed`
    /// flag, the violations as rendered strings, and (when the runner
    /// captured one) the pre-rendered `telemetry` summary object.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!(
            "{{\"seed\":{},\"engine\":\"{}\",\"family\":\"{}\",\"n\":{},\"k\":{},\
             \"passed\":{},\"end_time_us\":{},\"deliveries\":{},\"violations\":[",
            self.seed,
            self.engine,
            self.family.name(),
            self.n,
            self.k,
            self.passed(),
            self.end_time_us,
            self.deliveries,
        ));
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            for c in v.to_string().chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push(']');
        if let Some(t) = &self.telemetry {
            out.push_str(",\"telemetry\":");
            out.push_str(t);
        }
        out.push('}');
        out
    }

    /// One-line summary for the chaos runner's console output.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "seed={} engine={} family={} n={} k={} deliveries={} {}",
            self.seed,
            self.engine,
            self.family.name(),
            self.n,
            self.k,
            self.deliveries,
            if self.passed() {
                "ok".to_string()
            } else {
                format!("FAILED ({} violation(s))", self.violations.len())
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_human_readable() {
        let v = Violation::DeliveryMissed {
            broadcast_id: 0x10,
            node: 3,
        };
        assert!(v.to_string().contains("node 3"));
        let t = Violation::Timeout {
            phase: "heal".into(),
        };
        assert!(t.to_string().contains("heal"));
    }

    #[test]
    fn report_summary_flags_failures() {
        let mut r = ChaosReport {
            seed: 42,
            engine: Engine::Sim,
            family: Family::Crash,
            n: 8,
            k: 3,
            violations: Vec::new(),
            end_time_us: 1_000,
            deliveries: 24,
            events_jsonl: None,
            telemetry: None,
        };
        assert!(r.passed());
        assert!(r.summary().contains("ok"));
        r.violations.push(Violation::NotKConnected { crashed: 2 });
        assert!(!r.passed());
        assert!(r.summary().contains("FAILED"));
    }

    #[test]
    fn json_line_is_well_formed() {
        let mut r = ChaosReport {
            seed: 7,
            engine: Engine::Tcp,
            family: Family::Lossy,
            n: 10,
            k: 4,
            violations: Vec::new(),
            end_time_us: 2_500,
            deliveries: 30,
            events_jsonl: None,
            telemetry: None,
        };
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"seed\":7,\"engine\":\"tcp\",\"family\":\"lossy\",\"n\":10,\"k\":4,\
             \"passed\":true,\"end_time_us\":2500,\"deliveries\":30,\"violations\":[]}"
        );
        r.violations.push(Violation::ReplicaDivergence {
            node: 2,
            detail: "said \"no\"".into(),
        });
        let line = r.to_json_line();
        assert!(line.contains("\"passed\":false"));
        assert!(line.contains("said \\\"no\\\""), "escaping: {line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_line_splices_the_telemetry_object() {
        let r = ChaosReport {
            seed: 7,
            engine: Engine::Sim,
            family: Family::Crash,
            n: 8,
            k: 3,
            violations: Vec::new(),
            end_time_us: 100,
            deliveries: 8,
            events_jsonl: None,
            telemetry: Some("{\"samples\":4,\"span_us\":100}".into()),
        };
        let line = r.to_json_line();
        assert!(
            line.ends_with(",\"telemetry\":{\"samples\":4,\"span_us\":100}}"),
            "{line}"
        );
    }
}
