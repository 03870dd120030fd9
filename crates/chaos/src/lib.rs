//! Deterministic chaos engine for LHG overlays.
//!
//! The paper's claims are about behaviour *under failure*: a k-connected
//! logarithmic Harary overlay keeps flooding correct through up to k−1
//! fail-stop crashes, and the runtime layer adds partition healing and
//! node rejoin on top. This crate turns those claims into executable,
//! seeded experiments:
//!
//! * [`plan::FaultPlan`] — a declarative fault schedule (link drop /
//!   duplicate / reorder rates, directed partitions, crash + recovery
//!   times, broadcast origination times) generated deterministically from
//!   a single `u64` seed, and compiled once to the list of
//!   [`plan::Step`]s every engine executes;
//! * [`runner`] — one interpreter for that list, over a small driver trait
//!   with exactly two implementations: the TCP runtime's
//!   `lhg_runtime::Cluster` on the wall clock ([`runner::run_tcp_chaos`])
//!   and the simulator's `lhg_runtime::simnode::SimCluster` in virtual
//!   time ([`runner::run_sim_chaos`]). Both host the node state machine
//!   that ships, so the deterministic half of a sweep attacks the same
//!   failure detector, healing, rejoin and catch-up code as the
//!   wall-clock half; [`runner::run_suite`] sweeps seed ranges;
//! * [`oracle`] — the invariants checked afterwards ([`oracle::Violation`])
//!   and the per-run [`oracle::ChaosReport`].
//!
//! Every decision downstream of the seed is deterministic (hash-mixed
//! per-frame fault decisions, seeded RNGs), so a failing run reproduces
//! from its printed seed: `lhg chaos --seed <S> --seeds 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod plan;
pub mod runner;

pub use oracle::{ChaosReport, Engine, Violation};
pub use plan::{
    BroadcastSpec, CrashSpec, Family, FaultPlan, PartitionSpec, PlanOverrides, Step, TraitorSpec,
    CHAOS_BCAST_BASE,
};
pub use runner::{run_sim_chaos, run_suite, run_tcp_chaos, SuiteOutcome};
