//! The five LHG properties (P1–P5) as executable validators.
//!
//! * **P1 k-node connectivity** — removing any ≤ k−1 nodes never
//!   disconnects the graph (checked exactly by flow: κ(G) ≥ k);
//! * **P2 k-link connectivity** — removing any ≤ k−1 links never
//!   disconnects the graph (λ(G) ≥ k);
//! * **P3 link minimality** — removing any single link reduces the node or
//!   link connectivity;
//! * **P4 logarithmic diameter** — diameter is O(log n); checked against
//!   the explicit bound from the follow-up's Lemma 3 (see
//!   [`p4_diameter_bound`]);
//! * **P5 k-regularity** — every node has degree exactly k (optional:
//!   marks edge-minimal LHGs).
//!
//! [`validate`] makes one pass over one pair of flow networks
//! ([`Connectivity`]). It computes the exact κ once, and λ from Whitney's
//! κ ≤ λ ≤ δ: when κ = δ (every LHG) λ = δ needs no flow, and only
//! otherwise does λ get its own sweep. P1 is κ ≥ k, P2 is λ ≥ k, and P3
//! reuses both: a link with an endpoint of degree λ drops λ when removed,
//! and any other link `e` costs two flows between its endpoints on the
//! same networks with `e`'s arcs disabled
//! ([`Connectivity::survives_removal`]).
//!
//! Besides the flow-based exact checks, [`exhaustive_node_fault_tolerance`]
//! and [`exhaustive_link_fault_tolerance`] brute-force every removal set of
//! size ≤ k−1 — exponential, but feasible for the paper-scale examples and
//! used by experiment E12 to cross-validate the flow results.

use lhg_graph::connectivity::Connectivity;
use lhg_graph::degree::{degree_stats, harary_edge_lower_bound, is_k_regular};
use lhg_graph::paths::diameter;
use lhg_graph::subgraph::SubgraphView;
use lhg_graph::{Edge, Graph, NodeId};

use crate::util::all_combinations;

/// Validation outcome for one graph against the LHG definition.
#[derive(Debug, Clone, PartialEq)]
pub struct LhgReport {
    /// Number of nodes.
    pub n: usize,
    /// Target connectivity.
    pub k: usize,
    /// P1: κ(G) ≥ k.
    pub node_connectivity_ok: bool,
    /// P2: λ(G) ≥ k.
    pub link_connectivity_ok: bool,
    /// P3: every single link removal reduces node or link connectivity.
    pub link_minimal: bool,
    /// Measured diameter (`None` if disconnected).
    pub diameter: Option<u32>,
    /// The O(log n) bound the diameter is compared against.
    pub diameter_bound: f64,
    /// P4: diameter ≤ bound.
    pub logarithmic_diameter: bool,
    /// P5: every node has degree exactly k.
    pub regular: bool,
    /// Number of edges in the graph.
    pub edge_count: usize,
    /// ⌈kn/2⌉, the minimum edges any k-connected graph needs.
    pub edge_lower_bound: usize,
}

impl LhgReport {
    /// `true` if the graph satisfies P1–P4 (the LHG definition; P5 is the
    /// optional optimality property).
    #[must_use]
    pub fn is_lhg(&self) -> bool {
        self.node_connectivity_ok
            && self.link_connectivity_ok
            && self.link_minimal
            && self.logarithmic_diameter
    }

    /// `true` if additionally k-regular (edge-minimal LHG).
    #[must_use]
    pub fn is_regular_lhg(&self) -> bool {
        self.is_lhg() && self.regular
    }
}

/// The explicit diameter bound used for P4, from the follow-up's Lemma 3:
/// any two nodes are within `2·log_{k−1}(n)` hops plus a small constant for
/// the bridging leaf. For `k ≤ 3` the log base is clamped to 2.
///
/// Note that for `k = 2` the constructions degenerate to cycles, whose
/// diameter is Θ(n); P4 genuinely fails there, matching the papers' implicit
/// assumption `k ≥ 3`.
#[must_use]
pub fn p4_diameter_bound(n: usize, k: usize) -> f64 {
    let base = (k.saturating_sub(1)).max(2) as f64;
    2.0 * (n.max(2) as f64).ln() / base.ln() + 4.0
}

/// Exact (κ, λ) of `g`, on `c`'s networks for `g`; λ comes free from
/// Whitney's κ ≤ λ ≤ δ wherever κ = δ.
fn connectivities(g: &Graph, c: &mut Connectivity<'_>) -> (usize, usize) {
    let kappa = c.vertex_connectivity();
    let delta = degree_stats(g).min;
    let lambda = if kappa == delta {
        delta
    } else {
        c.edge_connectivity()
    };
    (kappa, lambda)
}

/// P3 on the networks `c` holds for `g`, whose connectivities are κ and λ.
fn link_minimal(g: &Graph, c: &mut Connectivity<'_>, (kappa, lambda): (usize, usize)) -> bool {
    // A disconnected (or trivial) graph cannot lose connectivity.
    lambda > 0
        && g.edges().all(|e| {
            // λ(G−e) ≤ min_deg − 1 < λ(G) when an endpoint has degree λ.
            g.degree(e.a).min(g.degree(e.b)) == lambda || !c.survives_removal(e, kappa, lambda)
        })
}

/// Returns `true` if removing any single link reduces node or link
/// connectivity (LHG property P3).
///
/// Fast path: if an endpoint of the link has degree equal to λ(G), removing
/// the link forces λ below its old value. Otherwise two flows between the
/// link's endpoints, with the link disabled, decide it exactly.
#[must_use]
pub fn is_link_minimal(g: &Graph) -> bool {
    let mut c = Connectivity::new(g);
    let both = connectivities(g, &mut c);
    link_minimal(g, &mut c, both)
}

/// Validates `g` against the full LHG definition for connectivity `k`.
///
/// # Example
///
/// ```
/// use lhg_core::ktree::build_ktree;
/// use lhg_core::properties::validate;
///
/// let lhg = build_ktree(10, 3)?;
/// let report = validate(lhg.graph(), 3);
/// assert!(report.is_regular_lhg());
/// # Ok::<(), lhg_core::LhgError>(())
/// ```
#[must_use]
pub fn validate(g: &Graph, k: usize) -> LhgReport {
    let n = g.node_count();
    let d = diameter(g);
    let bound = p4_diameter_bound(n, k);
    let mut c = Connectivity::new(g);
    let (kappa, lambda) = connectivities(g, &mut c);
    LhgReport {
        n,
        k,
        node_connectivity_ok: kappa >= k,
        link_connectivity_ok: lambda >= k,
        link_minimal: link_minimal(g, &mut c, (kappa, lambda)),
        diameter: d,
        diameter_bound: bound,
        logarithmic_diameter: d.is_some_and(|d| f64::from(d) <= bound),
        regular: is_k_regular(g, k),
        edge_count: g.edge_count(),
        edge_lower_bound: harary_edge_lower_bound(n, k),
    }
}

/// Brute-force P1: removes **every** node subset of size 1..=k−1 and checks
/// the survivors stay connected. Exponential — use only for small graphs
/// (the experiments keep `C(n, k−1)` under a few million).
#[must_use]
pub fn exhaustive_node_fault_tolerance(g: &Graph, k: usize) -> bool {
    let n = g.node_count();
    for r in 1..k {
        let ok = all_combinations(n, r, |subset| {
            let view = SubgraphView::without_nodes(g, subset.iter().map(|&i| NodeId(i)));
            view.is_live_connected()
        });
        if !ok {
            return false;
        }
    }
    true
}

/// Brute-force P2: removes **every** link subset of size 1..=k−1 and checks
/// connectivity. Exponential in the same way as
/// [`exhaustive_node_fault_tolerance`].
#[must_use]
pub fn exhaustive_link_fault_tolerance(g: &Graph, k: usize) -> bool {
    let edges: Vec<Edge> = g.edges().collect();
    for r in 1..k {
        let ok = all_combinations(edges.len(), r, |subset| {
            let view = SubgraphView::without_edges(g, subset.iter().map(|&i| edges[i]));
            view.is_live_connected()
        });
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdiamond::build_kdiamond;
    use crate::ktree::build_ktree;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        g
    }

    #[test]
    fn ktree_10_3_is_a_regular_lhg() {
        let lhg = build_ktree(10, 3).unwrap();
        let r = validate(lhg.graph(), 3);
        assert!(r.node_connectivity_ok, "{r:?}");
        assert!(r.link_connectivity_ok, "{r:?}");
        assert!(r.link_minimal, "{r:?}");
        assert!(r.logarithmic_diameter, "{r:?}");
        assert!(r.regular, "{r:?}");
        assert!(r.is_regular_lhg());
        assert_eq!(r.edge_count, r.edge_lower_bound);
    }

    #[test]
    fn ktree_9_3_is_lhg_but_not_regular() {
        let lhg = build_ktree(9, 3).unwrap();
        let r = validate(lhg.graph(), 3);
        assert!(r.is_lhg(), "{r:?}");
        assert!(!r.regular);
        assert!(r.edge_count > r.edge_lower_bound);
    }

    #[test]
    fn kdiamond_8_3_is_regular_lhg() {
        let lhg = build_kdiamond(8, 3).unwrap();
        let r = validate(lhg.graph(), 3);
        assert!(r.is_regular_lhg(), "{r:?}");
        assert_eq!(r.edge_count, 12);
    }

    #[test]
    fn small_cycle_is_lhg_for_k2() {
        // Cycles are 2-connected, link-minimal and (for small n) within the
        // diameter bound.
        let g = cycle(6);
        let r = validate(&g, 2);
        assert!(r.node_connectivity_ok && r.link_connectivity_ok && r.link_minimal);
        assert!(r.regular);
    }

    #[test]
    fn large_cycle_fails_p4() {
        // Θ(n) diameter: the k=2 degenerate case documented in the papers.
        let g = cycle(200);
        let r = validate(&g, 2);
        assert!(r.node_connectivity_ok && r.link_connectivity_ok);
        assert!(
            !r.logarithmic_diameter,
            "diameter {:?} vs bound {}",
            r.diameter, r.diameter_bound
        );
        assert!(!r.is_lhg());
    }

    #[test]
    fn complete_graph_is_not_link_minimal_for_small_k() {
        // K_5 stays 4-connected after removing... actually removing any edge
        // of K_5 drops both connectivities (λ = κ = 4 = min degree), so K_5
        // IS link-minimal for its own connectivity. Use a graph with genuine
        // slack instead: K_4 checked at k = 2.
        let mut g = Graph::with_nodes(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        let r = validate(&g, 2);
        assert!(r.node_connectivity_ok && r.link_connectivity_ok);
        // κ = λ = 3: removing one edge leaves κ = λ = 2 — still *reduces*
        // its connectivity, so K_4 is link-minimal in the P3 sense.
        assert!(r.link_minimal);
    }

    #[test]
    fn graph_with_redundant_edge_is_not_link_minimal() {
        // A 4-cycle plus chord: removing the chord keeps κ = λ = 2.
        let mut g = cycle(4);
        g.add_edge(NodeId(0), NodeId(2));
        assert!(!is_link_minimal(&g));
        let r = validate(&g, 2);
        assert!(!r.is_lhg());
    }

    #[test]
    fn disconnected_graph_fails_everything() {
        let g = Graph::with_nodes(4);
        let r = validate(&g, 2);
        assert!(!r.node_connectivity_ok);
        assert!(!r.link_connectivity_ok);
        assert!(!r.link_minimal);
        assert_eq!(r.diameter, None);
        assert!(!r.logarithmic_diameter);
        assert!(!r.is_lhg());
    }

    #[test]
    fn exhaustive_checks_agree_with_flow_on_lhgs() {
        for (n, k) in [(6, 3), (8, 3), (10, 3), (12, 4)] {
            let lhg = build_ktree(n, k).unwrap();
            assert!(
                exhaustive_node_fault_tolerance(lhg.graph(), k),
                "(n={n},k={k})"
            );
            assert!(
                exhaustive_link_fault_tolerance(lhg.graph(), k),
                "(n={n},k={k})"
            );
        }
    }

    #[test]
    fn exhaustive_checks_catch_under_connected_graphs() {
        // A path is not 2-fault tolerant.
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(!exhaustive_node_fault_tolerance(&g, 2));
        assert!(!exhaustive_link_fault_tolerance(&g, 2));
        // But trivially 1-fault tolerant (no removals to try).
        assert!(exhaustive_node_fault_tolerance(&g, 1));
    }

    #[test]
    fn p4_bound_grows_logarithmically() {
        let b1 = p4_diameter_bound(100, 4);
        let b2 = p4_diameter_bound(10_000, 4);
        assert!(b2 - b1 < 2.0 * b1, "bound roughly doubles when n squares");
        assert!(p4_diameter_bound(2, 3) >= 4.0);
    }
}
