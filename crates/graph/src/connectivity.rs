//! Exact vertex and edge connectivity via Menger's theorem.
//!
//! LHG property P1 requires *k-node connectivity* and P2 *k-link
//! connectivity*. Both are computed exactly here by max-flow reductions:
//!
//! * **edge connectivity** — each undirected edge becomes a pair of opposed
//!   unit-capacity arcs; λ(s,t) is the s→t max flow, and the global value is
//!   `min over t≠0 of λ(0, t)` (any global minimum edge cut separates node 0
//!   from something).
//! * **vertex connectivity** — the standard node-splitting network (each
//!   vertex `v` becomes `v_in → v_out` with capacity 1) plus Even's pair
//!   selection: with `v` a minimum-degree vertex, the global value is the
//!   minimum of `deg(v)`, of κ(v, w) over non-neighbors `w` of `v` and of
//!   κ(x, y) over non-adjacent pairs of neighbors of `v` (`n − 1` for
//!   complete graphs, which have no such pair).
//!
//! Neither network depends on the pair (a flow from `out(s)` to `in(t)`
//! never uses the split arcs of `s` or `t`), so each sweep builds one and
//! runs every pair on it; [`Connectivity`] keeps both for one graph.
//! `is_k_*_connected` variants cap every flow at `k`.

use crate::flow::FlowNetwork;
use crate::graph::Edge;
use crate::{Graph, NodeId};

/// Returns `true` if every pair of distinct nodes is adjacent.
#[must_use]
pub fn is_complete(g: &Graph) -> bool {
    let n = g.node_count();
    g.edge_count() == n * n.saturating_sub(1) / 2
}

/// Two opposed unit arcs per edge of `g`.
pub(crate) fn edge_network(g: &Graph) -> FlowNetwork {
    let mut net = FlowNetwork::new(g.node_count());
    for e in g.edges() {
        net.add_edge(e.a.index(), e.b.index(), 1);
        net.add_edge(e.b.index(), e.a.index(), 1);
    }
    net
}

/// The node-split network: `in(v) = 2v → out(v) = 2v + 1` with capacity 1
/// for every node, then `out(a) → in(b)` and `out(b) → in(a)` with capacity
/// `edge_cap` for every edge. Unit edge arcs leave a non-adjacent pair's max
/// flow at κ(s, t) and give a direct `s`–`t` edge exactly one path.
pub(crate) fn split_network(g: &Graph, edge_cap: u64) -> FlowNetwork {
    let mut net = FlowNetwork::new(2 * g.node_count());
    for v in 0..g.node_count() {
        net.add_edge(2 * v, 2 * v + 1, 1);
    }
    for e in g.edges() {
        net.add_edge(2 * e.a.index() + 1, 2 * e.b.index(), edge_cap);
        net.add_edge(2 * e.b.index() + 1, 2 * e.a.index(), edge_cap);
    }
    net
}

/// One flow capped at `cap`, leaving `net` clean for the next.
fn flow(net: &mut FlowNetwork, s: usize, t: usize, cap: usize) -> usize {
    let f = net.max_flow_capped(s, t, cap as u64) as usize;
    net.reset();
    f
}

/// `min(λ(G), cap)` on `g`'s edge network: node 0 to every other node.
fn edge_sweep(g: &Graph, net: &mut FlowNetwork, cap: usize) -> usize {
    let mut best = cap.min(g.nodes().map(|v| g.degree(v)).min().unwrap_or(0)); // λ ≤ δ
    for t in 1..g.node_count() {
        if best == 0 {
            break;
        }
        best = best.min(flow(net, 0, t, best));
    }
    best
}

/// `min(κ(G), cap)` on `g`'s split network, over Even's pairs.
fn vertex_sweep(g: &Graph, net: &mut FlowNetwork, cap: usize) -> usize {
    let Some(v) = g.nodes().min_by_key(|&v| g.degree(v)) else {
        return 0;
    };
    let mut best = cap.min(g.degree(v)); // κ ≤ δ
    for (s, t) in even_pairs(g, v) {
        if best == 0 {
            break;
        }
        best = best.min(flow(net, 2 * s.index() + 1, 2 * t.index(), best));
    }
    best
}

// ---------------------------------------------------------------------------
// Edge connectivity
// ---------------------------------------------------------------------------

/// Maximum number of edge-disjoint paths between `s` and `t` (Menger), the
/// local edge connectivity λ(s, t). Capped at `cap` if provided.
///
/// # Panics
///
/// Panics if `s == t` or either is out of bounds.
#[must_use]
pub fn local_edge_connectivity(g: &Graph, s: NodeId, t: NodeId, cap: Option<usize>) -> usize {
    let cap = cap.unwrap_or(usize::MAX);
    flow(&mut edge_network(g), s.index(), t.index(), cap)
}

/// Global edge connectivity λ(G): the minimum number of edges whose removal
/// disconnects the graph. Returns 0 for disconnected graphs and for graphs
/// with fewer than two nodes.
#[must_use]
pub fn edge_connectivity(g: &Graph) -> usize {
    edge_sweep(g, &mut edge_network(g), usize::MAX)
}

/// Returns `true` if λ(G) ≥ k, i.e. removing any k−1 edges leaves the graph
/// connected. `k == 0` is vacuously true.
#[must_use]
pub fn is_k_edge_connected(g: &Graph, k: usize) -> bool {
    edge_sweep(g, &mut edge_network(g), k) >= k
}

/// A minimum edge cut: a smallest set of edges whose removal disconnects the
/// graph. `None` when no cut exists (fewer than two nodes); the empty vector
/// when the graph is already disconnected.
#[must_use]
pub fn min_edge_cut(g: &Graph) -> Option<Vec<Edge>> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    if !crate::components::is_connected(g) {
        return Some(Vec::new());
    }
    // Find the argmin target, then extract the cut from the residual graph.
    let mut net = edge_network(g);
    let mut best = usize::MAX;
    let mut best_t = 1;
    for t in 1..n {
        let lam = flow(&mut net, 0, t, best);
        if lam < best {
            best = lam;
            best_t = t;
        }
    }
    net.max_flow(0, best_t);
    // Residual-reachable set from the source = source side of a min cut.
    let reach = net.residual_reachable(0);
    let cut: Vec<Edge> = g
        .edges()
        .filter(|e| reach[e.a.index()] != reach[e.b.index()])
        .collect();
    debug_assert_eq!(cut.len(), best);
    Some(cut)
}

// ---------------------------------------------------------------------------
// Vertex connectivity
// ---------------------------------------------------------------------------

/// Maximum number of internally vertex-disjoint paths between non-adjacent
/// `s` and `t` (Menger), the local vertex connectivity κ(s, t). Capped at
/// `cap` if provided.
///
/// # Panics
///
/// Panics if `s == t`, if either is out of bounds, or if `s` and `t` are
/// adjacent (κ is unbounded by Menger for adjacent pairs).
#[must_use]
pub fn local_vertex_connectivity(g: &Graph, s: NodeId, t: NodeId, cap: Option<usize>) -> usize {
    assert!(
        !g.has_edge(s, t),
        "local vertex connectivity requires non-adjacent endpoints"
    );
    assert_ne!(s, t, "endpoints must be distinct");
    let (out_s, in_t, cap) = (2 * s.index() + 1, 2 * t.index(), cap.unwrap_or(usize::MAX));
    flow(&mut split_network(g, 1), out_s, in_t, cap)
}

/// The pairs Even's algorithm must inspect, given min-degree vertex `v`:
/// `v` with each non-neighbor, then the non-adjacent pairs of its neighbors.
fn even_pairs(g: &Graph, v: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    let far = g.nodes().filter(move |&w| w != v && !g.has_edge(v, w));
    let near = g.neighbors(v).flat_map(move |x| {
        g.neighbors(v)
            .filter(move |&y| x < y && !g.has_edge(x, y))
            .map(move |y| (x, y))
    });
    far.map(move |w| (v, w)).chain(near)
}

/// Global vertex connectivity κ(G): the minimum number of vertices whose
/// removal disconnects the graph (or `n − 1` for complete graphs). Returns
/// 0 for disconnected graphs and graphs with fewer than two nodes.
#[must_use]
pub fn vertex_connectivity(g: &Graph) -> usize {
    vertex_sweep(g, &mut split_network(g, 1), usize::MAX)
}

/// Returns `true` if κ(G) ≥ k, i.e. removing any k−1 vertices leaves the
/// graph connected. `k == 0` is vacuously true.
#[must_use]
pub fn is_k_vertex_connected(g: &Graph, k: usize) -> bool {
    vertex_sweep(g, &mut split_network(g, 1), k) >= k
}

/// A minimum vertex cut: a smallest vertex set whose removal disconnects the
/// graph. `None` for complete graphs and graphs with fewer than two nodes
/// (no cut exists); the empty vector when already disconnected.
#[must_use]
pub fn min_vertex_cut(g: &Graph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    if n < 2 || is_complete(g) {
        return None;
    }
    if !crate::components::is_connected(g) {
        return Some(Vec::new());
    }
    let v = g.nodes().min_by_key(|&v| g.degree(v)).expect("nonempty");
    // Edge arcs no flow can fill (n + 1 > κ): the cut lies on split arcs.
    let mut net = split_network(g, n as u64 + 1);
    let mut best = usize::MAX;
    let mut best_pair = None;
    for (s, t) in even_pairs(g, v) {
        let kappa = flow(&mut net, 2 * s.index() + 1, 2 * t.index(), best);
        if kappa < best {
            best = kappa;
            best_pair = Some((s, t));
        }
    }
    let (s, t) = best_pair.expect("non-complete connected graph has a non-adjacent pair");
    net.max_flow(2 * s.index() + 1, 2 * t.index());
    let reach = net.residual_reachable(2 * s.index() + 1);
    // A vertex v is in the cut iff its in-node is reachable but its out-node
    // is not (the unit in→out arc is saturated and crosses the cut).
    let cut: Vec<NodeId> = g
        .nodes()
        .filter(|&w| w != s && w != t && reach[2 * w.index()] && !reach[2 * w.index() + 1])
        .collect();
    debug_assert_eq!(cut.len(), best);
    Some(cut)
}

/// One graph's edge and split networks, built once and reused by every
/// question asked of that graph — what validating P1–P3 needs.
///
/// # Example
///
/// ```
/// use lhg_graph::connectivity::Connectivity;
/// use lhg_graph::{Edge, Graph, NodeId};
///
/// // A 4-cycle plus the chord 0–2, which it can lose; a cycle edge it cannot.
/// let ring = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)].map(|(a, b)| (NodeId(a), NodeId(b)));
/// let g = Graph::from_edges(4, ring);
/// let mut c = Connectivity::new(&g);
/// assert_eq!((c.vertex_connectivity(), c.edge_connectivity()), (2, 2));
/// assert!(c.survives_removal(Edge::new(NodeId(0), NodeId(2)), 2, 2));
/// assert!(!c.survives_removal(Edge::new(NodeId(0), NodeId(1)), 2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Connectivity<'g> {
    g: &'g Graph,
    vertex: FlowNetwork,
    edge: FlowNetwork,
}

impl<'g> Connectivity<'g> {
    /// Builds `g`'s two networks.
    #[must_use]
    pub fn new(g: &'g Graph) -> Self {
        Connectivity {
            g,
            vertex: split_network(g, 1),
            edge: edge_network(g),
        }
    }

    /// κ(G), as [`vertex_connectivity`].
    pub fn vertex_connectivity(&mut self) -> usize {
        vertex_sweep(self.g, &mut self.vertex, usize::MAX)
    }

    /// λ(G), as [`edge_connectivity`].
    pub fn edge_connectivity(&mut self) -> usize {
        edge_sweep(self.g, &mut self.edge, usize::MAX)
    }

    /// Whether `G − e` is still `kappa`-vertex- and `lambda`-edge-connected,
    /// for `kappa ≤ κ(G)` and `lambda ≤ λ(G)`: two flows between `e`'s
    /// endpoints `a` and `b`, on the networks of `G` itself.
    ///
    /// If `G − e` has a vertex cut `S` with `|S| < kappa ≤ κ(G)`, then
    /// `G − S` is connected and `G − S − e` is not, so `S` separates `a`
    /// from `b` in `G − e`: their local κ there is below `kappa` too. The
    /// same holds for an edge cut smaller than `lambda`, and conversely a
    /// local value below the bound bounds the global one. As `e`'s unit
    /// arc crosses every cut between its own ends, each local value in `G`
    /// is the one in `G − e` plus one.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the graph.
    pub fn survives_removal(&mut self, e: Edge, kappa: usize, lambda: usize) -> bool {
        assert!(self.g.has_edge(e.a, e.b), "{e} is not an edge of the graph");
        let (a, b) = (e.a.index(), e.b.index());
        flow(&mut self.edge, a, b, lambda + 1) > lambda
            && flow(&mut self.vertex, 2 * a + 1, 2 * b, kappa + 1) > kappa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        g
    }

    fn complete(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        g
    }

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i));
        }
        g
    }

    #[test]
    fn cycle_is_exactly_2_connected() {
        let g = cycle(8);
        assert_eq!(vertex_connectivity(&g), 2);
        assert_eq!(edge_connectivity(&g), 2);
        assert!(is_k_vertex_connected(&g, 2));
        assert!(!is_k_vertex_connected(&g, 3));
        assert!(is_k_edge_connected(&g, 2));
        assert!(!is_k_edge_connected(&g, 3));
    }

    #[test]
    fn path_is_exactly_1_connected() {
        let g = path(5);
        assert_eq!(vertex_connectivity(&g), 1);
        assert_eq!(edge_connectivity(&g), 1);
    }

    #[test]
    fn complete_graph_connectivity_is_n_minus_1() {
        for n in 2..=6 {
            let g = complete(n);
            assert_eq!(vertex_connectivity(&g), n - 1, "K_{n}");
            assert_eq!(edge_connectivity(&g), n - 1, "K_{n}");
            assert!(is_k_vertex_connected(&g, n - 1));
            assert!(!is_k_vertex_connected(&g, n));
        }
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let g = Graph::with_nodes(4);
        assert_eq!(vertex_connectivity(&g), 0);
        assert_eq!(edge_connectivity(&g), 0);
        assert!(!is_k_vertex_connected(&g, 1));
        assert!(!is_k_edge_connected(&g, 1));
    }

    #[test]
    fn trivial_graphs() {
        assert_eq!(vertex_connectivity(&Graph::new()), 0);
        assert_eq!(vertex_connectivity(&Graph::with_nodes(1)), 0);
        assert!(is_k_vertex_connected(&Graph::with_nodes(1), 0));
        assert!(!is_k_vertex_connected(&Graph::with_nodes(1), 1));
    }

    #[test]
    fn two_triangles_sharing_a_vertex_has_kappa_1_lambda_2() {
        let g = Graph::from_edges(
            0,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(4)),
                (NodeId(2), NodeId(4)),
            ],
        );
        assert_eq!(vertex_connectivity(&g), 1);
        assert_eq!(edge_connectivity(&g), 2);
        assert_eq!(min_vertex_cut(&g), Some(vec![NodeId(2)]));
    }

    #[test]
    fn complete_bipartite_k33() {
        // K_{3,3}: κ = λ = 3.
        let mut g = Graph::with_nodes(6);
        for i in 0..3 {
            for j in 3..6 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 3);
        let cut = min_vertex_cut(&g).unwrap();
        assert_eq!(cut.len(), 3);
    }

    #[test]
    fn petersen_graph_is_3_connected() {
        // Petersen graph: κ = λ = 3, 3-regular.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = Graph::with_nodes(10);
        for (a, b) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(NodeId(*a), NodeId(*b));
        }
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 3);
        assert!(is_k_vertex_connected(&g, 3));
        assert!(!is_k_vertex_connected(&g, 4));
    }

    #[test]
    fn local_edge_connectivity_on_cycle_is_2() {
        let g = cycle(6);
        assert_eq!(local_edge_connectivity(&g, NodeId(0), NodeId(3), None), 2);
        assert_eq!(
            local_edge_connectivity(&g, NodeId(0), NodeId(3), Some(1)),
            1
        );
    }

    #[test]
    fn local_vertex_connectivity_on_cycle_is_2() {
        let g = cycle(6);
        assert_eq!(local_vertex_connectivity(&g, NodeId(0), NodeId(3), None), 2);
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn local_vertex_connectivity_rejects_adjacent() {
        let g = cycle(4);
        let _ = local_vertex_connectivity(&g, NodeId(0), NodeId(1), None);
    }

    #[test]
    fn min_edge_cut_on_barbell_is_the_bridge() {
        let g = Graph::from_edges(
            0,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(4)),
                (NodeId(4), NodeId(5)),
                (NodeId(3), NodeId(5)),
            ],
        );
        assert_eq!(
            min_edge_cut(&g),
            Some(vec![Edge::new(NodeId(2), NodeId(3))])
        );
    }

    #[test]
    fn min_cut_removal_disconnects() {
        use crate::subgraph::SubgraphView;
        let g = cycle(7);
        let vcut = min_vertex_cut(&g).unwrap();
        assert_eq!(vcut.len(), 2);
        let view = SubgraphView::without_nodes(&g, vcut.iter().copied());
        assert!(!view.is_live_connected());

        let ecut = min_edge_cut(&g).unwrap();
        assert_eq!(ecut.len(), 2);
        let view = SubgraphView::without_edges(&g, ecut.iter().copied());
        assert!(!view.is_live_connected());
    }

    #[test]
    fn min_cut_of_complete_graph_is_none() {
        assert_eq!(min_vertex_cut(&complete(4)), None);
        assert!(
            min_edge_cut(&complete(4)).is_some(),
            "edge cuts exist for K_n"
        );
        assert_eq!(min_edge_cut(&complete(4)).unwrap().len(), 3);
    }

    #[test]
    fn min_cut_of_disconnected_graph_is_empty() {
        let g = Graph::with_nodes(3);
        assert_eq!(min_vertex_cut(&g), Some(Vec::new()));
        assert_eq!(min_edge_cut(&g), Some(Vec::new()));
    }

    #[test]
    fn star_graph_connectivity() {
        let mut g = Graph::with_nodes(6);
        for i in 1..6 {
            g.add_edge(NodeId(0), NodeId(i));
        }
        assert_eq!(vertex_connectivity(&g), 1);
        assert_eq!(edge_connectivity(&g), 1);
        assert_eq!(min_vertex_cut(&g), Some(vec![NodeId(0)]));
    }

    #[test]
    fn hypercube_q3_is_3_connected() {
        let mut g = Graph::with_nodes(8);
        for v in 0..8usize {
            for bit in 0..3 {
                let w = v ^ (1 << bit);
                if v < w {
                    g.add_edge(NodeId(v), NodeId(w));
                }
            }
        }
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 3);
    }

    #[test]
    fn is_complete_detects() {
        assert!(is_complete(&complete(4)));
        assert!(!is_complete(&cycle(4)));
        assert!(is_complete(&Graph::new()));
        assert!(is_complete(&Graph::with_nodes(1)));
    }
}
