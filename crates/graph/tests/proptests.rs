//! Property-based tests for the graph substrate.
//!
//! The most valuable invariant here is Whitney's inequality
//! `κ(G) ≤ λ(G) ≤ δ(G)`, which ties the two flow-based connectivity
//! computations and the degree statistics together: a bug in any of the
//! three tends to break the chain on random graphs.

use proptest::prelude::*;

use lhg_graph::components::is_connected;
use lhg_graph::connectivity::{
    edge_connectivity, is_k_edge_connected, is_k_vertex_connected, min_edge_cut, min_vertex_cut,
    vertex_connectivity, Connectivity,
};
use lhg_graph::degree::degree_stats;
use lhg_graph::io::{from_edge_list, to_edge_list};
use lhg_graph::subgraph::SubgraphView;
use lhg_graph::traversal::bfs_distances;
use lhg_graph::{CsrGraph, Graph, NodeId};

/// Strategy: a graph with 1..=max_n nodes and arbitrary simple edges.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(|n| {
        let max_edges = n * n.saturating_sub(1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(3 * n)).prop_map(move |pairs| {
            let mut g = Graph::with_nodes(n);
            for (a, b) in pairs {
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handshake_lemma(g in arb_graph(30)) {
        prop_assert_eq!(g.degree_sum(), 2 * g.edge_count());
    }

    #[test]
    fn csr_round_trip(g in arb_graph(30)) {
        let csr = CsrGraph::from_graph(&g);
        prop_assert_eq!(csr.to_graph(), g);
    }

    #[test]
    fn edge_list_round_trip(g in arb_graph(30)) {
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn bfs_distance_is_symmetric(g in arb_graph(20)) {
        let n = g.node_count();
        for s in 0..n {
            let ds = bfs_distances(&g, NodeId(s));
            for (t, &dst) in ds.iter().enumerate().take(n) {
                let dt = bfs_distances(&g, NodeId(t));
                prop_assert_eq!(dst, dt[s], "d({},{}) != d({},{})", s, t, t, s);
            }
        }
    }

    #[test]
    fn whitney_inequality(g in arb_graph(16)) {
        let kappa = vertex_connectivity(&g);
        let lambda = edge_connectivity(&g);
        let delta = degree_stats(&g).min;
        if g.node_count() >= 2 {
            prop_assert!(kappa <= lambda, "kappa={kappa} > lambda={lambda}");
            prop_assert!(lambda <= delta, "lambda={lambda} > delta={delta}");
        }
    }

    #[test]
    fn is_k_connected_agrees_with_exact_value(g in arb_graph(14)) {
        let kappa = vertex_connectivity(&g);
        let lambda = edge_connectivity(&g);
        for k in 0..=(kappa + 2) {
            prop_assert_eq!(is_k_vertex_connected(&g, k), k <= kappa, "k={}", k);
        }
        for k in 0..=(lambda + 2) {
            prop_assert_eq!(is_k_edge_connected(&g, k), k <= lambda, "k={}", k);
        }
    }

    #[test]
    fn survives_removal_agrees_with_a_rebuilt_graph(g in arb_graph(12)) {
        let (kappa, lambda) = (vertex_connectivity(&g), edge_connectivity(&g));
        let mut c = Connectivity::new(&g);
        prop_assert_eq!((c.vertex_connectivity(), c.edge_connectivity()), (kappa, lambda));
        for e in g.edges() {
            let mut h = g.clone();
            h.remove_edge(e.a, e.b);
            let (kh, lh) = (vertex_connectivity(&h), edge_connectivity(&h));
            // Each bound alone, then both: every flow must answer its own part.
            for (k, l) in [(kappa, 0), (0, lambda), (kappa, lambda)] {
                prop_assert_eq!(c.survives_removal(e, k, l), kh >= k && lh >= l, "{} k={} l={}", e, k, l);
            }
        }
    }

    #[test]
    fn min_vertex_cut_disconnects_and_matches_kappa(g in arb_graph(14)) {
        if let Some(cut) = min_vertex_cut(&g) {
            if is_connected(&g) {
                prop_assert_eq!(cut.len(), vertex_connectivity(&g));
                let view = SubgraphView::without_nodes(&g, cut.iter().copied());
                prop_assert!(!view.is_live_connected());
            }
        }
    }

    #[test]
    fn min_edge_cut_disconnects_and_matches_lambda(g in arb_graph(14)) {
        if let Some(cut) = min_edge_cut(&g) {
            if is_connected(&g) && g.node_count() >= 2 {
                prop_assert_eq!(cut.len(), edge_connectivity(&g));
                let view = SubgraphView::without_edges(&g, cut.iter().copied());
                prop_assert!(!view.is_live_connected());
            }
        }
    }

    #[test]
    fn removing_fewer_than_lambda_edges_keeps_connectivity(g in arb_graph(12)) {
        let lambda = edge_connectivity(&g);
        if lambda >= 2 {
            // Remove any single edge: still connected.
            for e in g.edges() {
                let view = SubgraphView::without_edges(&g, [e]);
                prop_assert!(view.is_live_connected());
            }
        }
    }

    #[test]
    fn subgraph_view_matches_rebuilt_graph(g in arb_graph(16)) {
        if g.node_count() >= 2 {
            // Remove the highest-id node both ways and compare connectivity
            // verdicts over live nodes.
            let victim = NodeId(g.node_count() - 1);
            let view = SubgraphView::without_nodes(&g, [victim]);

            let mut rebuilt = Graph::with_nodes(g.node_count() - 1);
            for e in g.edges() {
                if e.a != victim && e.b != victim {
                    rebuilt.add_edge(e.a, e.b);
                }
            }
            prop_assert_eq!(view.is_live_connected(), is_connected(&rebuilt));
        }
    }

    #[test]
    fn fingerprint_is_edge_insertion_order_independent(g in arb_graph(16)) {
        let mut edges: Vec<_> = g.edges().map(|e| (e.a, e.b)).collect();
        edges.reverse();
        let g2 = Graph::from_edges(g.node_count(), edges);
        prop_assert_eq!(g.fingerprint(), g2.fingerprint());
    }
}
