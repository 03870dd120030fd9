//! # lhg-graph
//!
//! Undirected graph substrate for the Logarithmic Harary Graph (LHG)
//! reproduction.
//!
//! The LHG paper (Jenkins & Demers, ICDCS 2001) and its follow-up study
//! constructions whose correctness is stated in terms of exact graph
//! invariants: *k-node connectivity*, *k-link connectivity*, *link
//! minimality*, *logarithmic diameter* and *k-regularity*. This crate
//! provides everything needed to construct graphs and to check those
//! invariants exactly:
//!
//! * [`Graph`] — a mutable undirected simple graph over dense node ids, with
//!   deterministic (sorted) neighbor iteration;
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot used by the
//!   hot paths (BFS sweeps, flooding simulation);
//! * [`traversal`] — BFS/DFS primitives;
//! * [`paths`] — eccentricity, diameter, radius, average path length;
//! * [`components`] — connected components;
//! * [`flow`] — Dinic max-flow on unit-capacity networks;
//! * [`connectivity`] — exact edge and vertex connectivity via Menger's
//!   theorem (max-flow formulations on networks built once per graph),
//!   with capped `≥ k` variants;
//! * [`degree`] — degree statistics, regularity and density checks;
//! * [`subgraph`] — node/edge deletion views used for failure injection;
//! * [`io`] — DOT export and a plain edge-list text format.
//!
//! # Example
//!
//! ```
//! use lhg_graph::{Graph, NodeId};
//!
//! // Build a 4-cycle and check its basic invariants.
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(NodeId(0), NodeId(1));
//! g.add_edge(NodeId(1), NodeId(2));
//! g.add_edge(NodeId(2), NodeId(3));
//! g.add_edge(NodeId(3), NodeId(0));
//!
//! assert_eq!(g.edge_count(), 4);
//! assert!(lhg_graph::components::is_connected(&g));
//! assert_eq!(lhg_graph::paths::diameter(&g), Some(2));
//! assert_eq!(lhg_graph::connectivity::vertex_connectivity(&g), 2);
//! assert_eq!(lhg_graph::connectivity::edge_connectivity(&g), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod graph;
mod node;

pub mod betweenness;
pub mod components;
pub mod connectivity;
pub mod degree;
pub mod disjoint_paths;
pub mod flow;
pub mod io;
pub mod isomorphism;
pub mod metrics;
pub mod paths;
pub mod spectral;
pub mod subgraph;
pub mod traversal;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use node::NodeId;
