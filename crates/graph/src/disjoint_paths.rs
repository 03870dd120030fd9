//! Explicit Menger witnesses: extraction of k vertex-disjoint or
//! edge-disjoint paths between two nodes.
//!
//! The LHG correctness proofs (Lemma 1 of the follow-up study) are
//! constructive: they exhibit k disjoint paths between any two nodes. This
//! module recovers such witnesses from a max-flow solution by path
//! decomposition, letting tests and experiments *show* the paths rather
//! than just count them.

use crate::connectivity::{edge_network, split_network};
use crate::flow::{FlowEdgeId, FlowNetwork};
use crate::{Graph, NodeId};

/// Each edge's two arcs in `net`, in `g.edges()` order: the one leaving
/// network node `tail(a)` for `head(b)`, then the one from `tail(b)` to
/// `head(a)`.
fn edge_arcs(
    g: &Graph,
    net: &FlowNetwork,
    tail: impl Fn(usize) -> usize,
    head: impl Fn(usize) -> usize,
) -> Vec<(FlowEdgeId, FlowEdgeId)> {
    let arc = |x: usize, y: usize| {
        net.find_edge(tail(x), head(y))
            .expect("every edge has arcs")
    };
    g.edges()
        .map(|e| (arc(e.a.index(), e.b.index()), arc(e.b.index(), e.a.index())))
        .collect()
}

/// Splits the `total` units of flow `net` carries on `pairs` (from
/// [`edge_arcs`]) into `s → t` node sequences. Opposing flow on an edge is
/// cancelled first so the decomposition cannot walk 2-cycles.
fn decompose(
    g: &Graph,
    net: &FlowNetwork,
    pairs: &[(FlowEdgeId, FlowEdgeId)],
    s: NodeId,
    t: NodeId,
    total: u64,
) -> Vec<Vec<NodeId>> {
    let mut remaining: Vec<u64> = Vec::with_capacity(2 * pairs.len());
    let mut arcs: Vec<(usize, usize)> = Vec::with_capacity(2 * pairs.len()); // (from, to)
    for (e, &(f, b)) in g.edges().zip(pairs) {
        let (ff, fb) = (net.flow_on(f), net.flow_on(b));
        let cancel = ff.min(fb);
        remaining.extend([ff - cancel, fb - cancel]);
        arcs.extend([(e.a.index(), e.b.index()), (e.b.index(), e.a.index())]);
    }

    // Adjacency over arcs with positive remaining flow.
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for (i, &(from, _)) in arcs.iter().enumerate() {
        if remaining[i] > 0 {
            out[from].push(i);
        }
    }

    let mut paths = Vec::new();
    for _ in 0..total {
        let mut path = vec![s];
        let mut cur = s.index();
        while cur != t.index() {
            let arc = out[cur]
                .iter()
                .copied()
                .find(|&i| remaining[i] > 0)
                .expect("flow conservation guarantees an outgoing arc");
            remaining[arc] -= 1;
            cur = arcs[arc].1;
            path.push(NodeId(cur));
        }
        paths.push(path);
    }
    paths
}

fn check_endpoints(g: &Graph, s: NodeId, t: NodeId) {
    assert_ne!(s, t, "endpoints must be distinct");
    let n = g.node_count();
    assert!(s.index() < n && t.index() < n, "endpoint out of bounds");
}

/// Maximum set of pairwise **edge-disjoint** paths from `s` to `t`, each
/// returned as a node sequence `s .. t`. The number of paths equals the
/// local edge connectivity λ(s, t).
///
/// # Panics
///
/// Panics if `s == t` or either endpoint is out of bounds.
#[must_use]
pub fn edge_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    check_endpoints(g, s, t);
    let mut net = edge_network(g);
    let pairs = edge_arcs(g, &net, |v| v, |v| v);
    let total = net.max_flow(s.index(), t.index());
    decompose(g, &net, &pairs, s, t, total)
}

/// `g`'s split network with unit edge arcs (so a direct `s`–`t` edge
/// carries exactly one path), and each edge's two arcs in it.
fn path_network(g: &Graph) -> (FlowNetwork, Vec<(FlowEdgeId, FlowEdgeId)>) {
    let net = split_network(g, 1);
    let pairs = edge_arcs(g, &net, |v| 2 * v + 1, |v| 2 * v);
    (net, pairs)
}

/// The vertex-disjoint paths for one pair on a [`path_network`], leaving
/// it clean for the next.
fn split_paths(
    g: &Graph,
    (net, pairs): &mut (FlowNetwork, Vec<(FlowEdgeId, FlowEdgeId)>),
    s: NodeId,
    t: NodeId,
) -> Vec<Vec<NodeId>> {
    let total = net.max_flow(2 * s.index() + 1, 2 * t.index());
    let paths = decompose(g, net, pairs, s, t, total);
    net.reset();
    paths
}

/// Maximum set of **internally vertex-disjoint** paths from `s` to `t`
/// (they share only the endpoints), each returned as a node sequence. The
/// count equals κ(s, t) for non-adjacent endpoints; for adjacent endpoints
/// the direct edge is included as one of the paths.
///
/// # Panics
///
/// Panics if `s == t` or either endpoint is out of bounds.
#[must_use]
pub fn vertex_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    check_endpoints(g, s, t);
    split_paths(g, &mut path_network(g), s, t)
}

/// [`vertex_disjoint_paths`] from `s` to every node, on one network built
/// once: entry `t` is `vertex_disjoint_paths(g, s, t)`, entry `s` is empty.
///
/// # Panics
///
/// Panics if `s` is out of bounds.
#[must_use]
pub fn vertex_disjoint_paths_from(g: &Graph, s: NodeId) -> Vec<Vec<Vec<NodeId>>> {
    assert!(s.index() < g.node_count(), "endpoint out of bounds");
    let mut network = path_network(g);
    g.nodes()
        .map(|t| {
            if t == s {
                Vec::new()
            } else {
                split_paths(g, &mut network, s, t)
            }
        })
        .collect()
}

/// Checks that `paths` are valid s→t paths in `g`, pairwise edge-disjoint,
/// and (if `vertex_disjoint`) sharing no internal vertices.
#[must_use]
pub fn verify_disjoint(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    paths: &[Vec<NodeId>],
    vertex_disjoint: bool,
) -> bool {
    let mut used_edges = std::collections::HashSet::new();
    let mut used_nodes = std::collections::HashSet::new();
    for path in paths {
        if path.first() != Some(&s) || path.last() != Some(&t) {
            return false;
        }
        for w in path.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                return false;
            }
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if !used_edges.insert(key) {
                return false;
            }
        }
        for &v in &path[1..path.len() - 1] {
            if v == s || v == t {
                return false; // endpoints cannot repeat mid-path
            }
            if vertex_disjoint && !used_nodes.insert(v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{local_edge_connectivity, vertex_connectivity};

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

    #[test]
    fn cycle_has_two_disjoint_paths() {
        let g = cycle(8);
        let paths = vertex_disjoint_paths(&g, NodeId(0), NodeId(4));
        assert_eq!(paths.len(), 2);
        assert!(verify_disjoint(&g, NodeId(0), NodeId(4), &paths, true));
        let paths = edge_disjoint_paths(&g, NodeId(0), NodeId(4));
        assert_eq!(paths.len(), 2);
        assert!(verify_disjoint(&g, NodeId(0), NodeId(4), &paths, false));
    }

    #[test]
    fn complete_graph_has_n_minus_1_vertex_disjoint_paths() {
        let g = complete(6);
        let paths = vertex_disjoint_paths(&g, NodeId(0), NodeId(5));
        assert_eq!(paths.len(), 5, "κ(K_6) = 5, direct edge included");
        assert!(verify_disjoint(&g, NodeId(0), NodeId(5), &paths, true));
        // One of them must be the direct edge.
        assert!(paths.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn path_graph_has_single_path() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let paths = vertex_disjoint_paths(&g, NodeId(0), NodeId(3));
        assert_eq!(
            paths,
            vec![vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]]
        );
    }

    #[test]
    fn disconnected_pair_has_no_paths() {
        let g = Graph::with_nodes(3);
        assert!(vertex_disjoint_paths(&g, NodeId(0), NodeId(2)).is_empty());
        assert!(edge_disjoint_paths(&g, NodeId(0), NodeId(2)).is_empty());
    }

    #[test]
    fn counts_match_connectivity_on_petersen() {
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = Graph::with_nodes(10);
        for (a, b) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(NodeId(*a), NodeId(*b));
        }
        assert_eq!(vertex_connectivity(&g), 3);
        for t in 1..10 {
            let vps = vertex_disjoint_paths(&g, NodeId(0), NodeId(t));
            assert_eq!(vps.len(), 3, "t={t}");
            assert!(
                verify_disjoint(&g, NodeId(0), NodeId(t), &vps, true),
                "t={t}"
            );
            let eps = edge_disjoint_paths(&g, NodeId(0), NodeId(t));
            assert_eq!(
                eps.len(),
                local_edge_connectivity(&g, NodeId(0), NodeId(t), None)
            );
            assert!(
                verify_disjoint(&g, NodeId(0), NodeId(t), &eps, false),
                "t={t}"
            );
        }
    }

    #[test]
    fn edge_disjoint_can_exceed_vertex_disjoint() {
        // Two triangles sharing a vertex: λ(0,4)=2 but κ-paths(0,4)=1.
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
        assert_eq!(edge_disjoint_paths(&g, NodeId(0), NodeId(4)).len(), 2);
        assert_eq!(vertex_disjoint_paths(&g, NodeId(0), NodeId(4)).len(), 1);
    }

    #[test]
    fn verify_rejects_bad_witnesses() {
        let g = cycle(6);
        // Wrong endpoint.
        assert!(!verify_disjoint(
            &g,
            NodeId(0),
            NodeId(3),
            &[vec![NodeId(0), NodeId(1)]],
            true
        ));
        // Non-edge step.
        assert!(!verify_disjoint(
            &g,
            NodeId(0),
            NodeId(3),
            &[vec![NodeId(0), NodeId(3)]],
            true
        ));
        // Shared internal vertex.
        let witness = vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        ];
        assert!(!verify_disjoint(&g, NodeId(0), NodeId(3), &witness, true));
    }

    #[test]
    fn all_destinations_of_one_origin_match_the_pairwise_paths() {
        let g = cycle(7);
        let mut h = complete(5);
        h.add_node();
        h.add_edge(NodeId(4), NodeId(5));
        for g in [g, h] {
            for s in g.nodes() {
                let from = vertex_disjoint_paths_from(&g, s);
                assert_eq!(from.len(), g.node_count());
                for t in g.nodes() {
                    let expected = if s == t {
                        Vec::new()
                    } else {
                        vertex_disjoint_paths(&g, s, t)
                    };
                    assert_eq!(from[t.index()], expected, "s={s} t={t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_endpoints_rejected() {
        let g = cycle(4);
        let _ = vertex_disjoint_paths(&g, NodeId(1), NodeId(1));
    }
}
