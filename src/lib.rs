//! # lhg — Logarithmic Harary Graphs
//!
//! A from-scratch Rust reproduction of *Logarithmic Harary Graphs* (Jenkins
//! & Demers, ICDCS 2001) and the follow-up existence/regularity study
//! (Baldoni, Bonomi, Querzoni, Tucci Piergiovanni): k-connected,
//! link-minimal overlay topologies with logarithmic diameter, built for
//! robust deterministic flooding.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — graph substrate (storage, traversal, exact connectivity
//!   via max-flow, cuts, diameter);
//! * [`core`] — the LHG constructions (JD, K-TREE, K-DIAMOND), property
//!   validators P1–P5, EX/REG theory and the executable theorem suite;
//! * [`baselines`] — comparison topologies (classic Harary graphs,
//!   hypercubes, de Bruijn graphs, random graphs, expanders);
//! * [`flood`] — round-synchronous flooding/gossip simulator with failure
//!   injection;
//! * [`net`] — discrete-event message-passing substrate and reliable
//!   broadcast over LHG overlays;
//! * [`byzantine`] — Bracha echo/ready Byzantine reliable broadcast over
//!   the k disjoint paths, tolerating f ≤ ⌊(k−1)/2⌋ nodes that lie
//!   (equivocate, forge, replay, go silent);
//! * [`runtime`] — the node state machine (`NodeCore`: failure detection,
//!   healing, rejoin, Bracha dispatch) with its two drivers: real loopback
//!   TCP (`Cluster`) and the discrete-event simulator (`simnode`);
//! * [`trace`] — observability: per-node flight recorders (structured
//!   lifecycle events, JSONL timelines) and causal broadcast tracing
//!   (realized dissemination trees checked against the O(log n) bound);
//! * [`chaos`] — deterministic chaos engine: seeded fault plans (loss,
//!   duplication, reordering, partitions, crash/rejoin schedules) executed
//!   on the simulator and the TCP runtime under an invariant oracle;
//! * [`telemetry`] — interval deltas over a metrics registry: what every
//!   counter, gauge, histogram and wire-cost class did since the last
//!   sample.
//!
//! # Quickstart
//!
//! ```
//! use lhg::core::kdiamond::build_kdiamond;
//! use lhg::core::properties::validate;
//! use lhg::flood::engine::Protocol;
//! use lhg::flood::experiment::{run_trials, FailureMode};
//!
//! // Build a 3-connected, 3-regular LHG on 20 nodes...
//! let overlay = build_kdiamond(20, 3)?;
//! assert!(validate(overlay.graph(), 3).is_regular_lhg());
//!
//! // ...and flood it under 2 random crash failures: always delivered.
//! let stats = run_trials(
//!     overlay.graph(),
//!     Protocol::Flood,
//!     FailureMode::RandomNodes { count: 2 },
//!     20,
//!     7,
//! );
//! assert_eq!(stats.reliability, 1.0);
//! # Ok::<(), lhg::core::LhgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lhg_baselines as baselines;
pub use lhg_byzantine as byzantine;
pub use lhg_chaos as chaos;
pub use lhg_core as core;
pub use lhg_flood as flood;
pub use lhg_graph as graph;
pub use lhg_net as net;
pub use lhg_runtime as runtime;
pub use lhg_telemetry as telemetry;
pub use lhg_trace as trace;
