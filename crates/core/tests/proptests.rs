//! Property-based tests for the LHG constructions and the validator.
//!
//! Random (n, k) pairs from the valid domain; every built graph must be a
//! genuine LHG, satisfy its constraint rule-by-rule, and match the
//! regularity closed form. On random graphs, and on pinned corner cases,
//! every field of `validate` must equal what the independent functions
//! compute — P3 also straight from its definition, one rebuilt graph per
//! link.

use proptest::prelude::*;

use lhg_core::checker::check_constraint;
use lhg_core::jd::{build_jd, is_jd_constructible};
use lhg_core::kdiamond::build_kdiamond;
use lhg_core::ktree::build_ktree;
use lhg_core::properties::{is_link_minimal, p4_diameter_bound, validate, LhgReport};
use lhg_core::regularity::{reg_kdiamond, reg_ktree};
use lhg_graph::connectivity::{
    edge_connectivity, is_k_edge_connected, is_k_vertex_connected, vertex_connectivity,
};
use lhg_graph::degree::{degree_stats, harary_edge_lower_bound, is_k_regular};
use lhg_graph::paths::{diameter, eccentricity};
use lhg_graph::{Graph, NodeId};

/// Valid (n, k) domain with k >= 3 (the non-degenerate diameter regime).
fn arb_params() -> impl Strategy<Value = (usize, usize)> {
    (3usize..=6).prop_flat_map(|k| ((2 * k)..=(2 * k + 60)).prop_map(move |n| (n, k)))
}

/// A graph with 0..=max_n nodes and arbitrary simple edges.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (0..=max_n).prop_flat_map(|n| {
        let pairs = proptest::collection::vec((0..n.max(1), 0..n.max(1)), 0..=3 * n);
        pairs.prop_map(move |pairs| graph(n, &pairs))
    })
}

fn graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::with_nodes(n);
    for &(a, b) in edges.iter().filter(|(a, b)| a != b) {
        g.add_edge(NodeId(a), NodeId(b));
    }
    g
}

/// P3 by definition: every link's removal lowers κ or λ (and a graph with
/// λ = 0 has nothing to lose).
fn link_minimal_by_definition(g: &Graph) -> bool {
    let (kappa, lambda) = (vertex_connectivity(g), edge_connectivity(g));
    lambda > 0
        && g.edges().all(|e| {
            let mut h = g.clone();
            h.remove_edge(e.a, e.b);
            vertex_connectivity(&h) < kappa || edge_connectivity(&h) < lambda
        })
}

/// The report the independent functions give; the diameter by one BFS per
/// node.
fn expected(g: &Graph, k: usize) -> LhgReport {
    let n = g.node_count();
    let eccentricities: Option<Vec<u32>> = g.nodes().map(|v| eccentricity(g, v)).collect();
    let d = eccentricities.map(|e| e.into_iter().max().unwrap_or(0));
    let bound = p4_diameter_bound(n, k);
    LhgReport {
        n,
        k,
        node_connectivity_ok: is_k_vertex_connected(g, k),
        link_connectivity_ok: is_k_edge_connected(g, k),
        link_minimal: is_link_minimal(g),
        diameter: d,
        diameter_bound: bound,
        logarithmic_diameter: d.is_some_and(|d| f64::from(d) <= bound),
        regular: is_k_regular(g, k),
        edge_count: g.edge_count(),
        edge_lower_bound: harary_edge_lower_bound(n, k),
    }
}

fn assert_validate_agrees(g: &Graph) {
    assert_eq!(is_link_minimal(g), link_minimal_by_definition(g), "{g:?}");
    for k in 0..=5 {
        assert_eq!(validate(g, k), expected(g, k), "k={k} {g:?}");
    }
}

#[test]
fn validate_agrees_on_the_smallest_graphs() {
    for g in [
        Graph::new(),
        Graph::with_nodes(1),
        Graph::with_nodes(2),
        graph(2, &[(0, 1)]),
    ] {
        assert_validate_agrees(&g);
    }
}

#[test]
fn validate_agrees_on_complete_graphs() {
    for n in 1..=6 {
        let pairs: Vec<_> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let g = graph(n, &pairs);
        assert!(validate(&g, n - 1).node_connectivity_ok);
        assert_validate_agrees(&g);
    }
}

/// K4 on nodes `at..at + 4`.
fn k4(at: usize) -> Vec<(usize, usize)> {
    (at..at + 4)
        .flat_map(|a| (a + 1..at + 4).map(move |b| (a, b)))
        .collect()
}

#[test]
fn validate_agrees_on_two_disjoint_k4s() {
    // δ = 3 but κ = λ = 0: Whitney is not tight.
    let g = graph(8, &[k4(0), k4(4)].concat());
    assert_eq!((vertex_connectivity(&g), edge_connectivity(&g)), (0, 0));
    assert_validate_agrees(&g);
}

#[test]
fn validate_agrees_on_two_k4s_sharing_a_vertex() {
    // κ = 1 < λ = 3 = δ: λ needs its own sweep.
    let g = graph(7, &[k4(0), k4(3)].concat());
    assert_eq!((vertex_connectivity(&g), edge_connectivity(&g)), (1, 3));
    assert_validate_agrees(&g);
}

#[test]
fn validate_agrees_where_the_p3_slow_path_runs() {
    // Each graph has a link whose endpoints both have degree above λ.
    let chorded_cycle = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
    let bridged_k4s = graph(8, &[k4(0), k4(4), vec![(3, 4)]].concat());
    // Hubs 0 and 1 joined by a link whose removal makes 2 a cut vertex:
    // minimally 2-connected, and P3 holds only through the slow path.
    let hubs = [
        (0, 1),
        (0, 3),
        (3, 2),
        (0, 4),
        (4, 2),
        (1, 5),
        (5, 2),
        (1, 6),
        (6, 2),
    ];
    let hubs = graph(7, &hubs);
    assert!(is_link_minimal(&hubs) && !is_link_minimal(&chorded_cycle));
    for g in [chorded_cycle, bridged_k4s, hubs] {
        assert_validate_agrees(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn validate_agrees_with_the_independent_functions(g in arb_graph(12)) {
        prop_assert_eq!(is_link_minimal(&g), link_minimal_by_definition(&g));
        for k in 0..=5 {
            prop_assert_eq!(validate(&g, k), expected(&g, k), "k={}", k);
        }
    }

    #[test]
    fn ktree_builds_are_lhgs((n, k) in arb_params()) {
        let lhg = build_ktree(n, k).unwrap();
        prop_assert_eq!(lhg.n(), n);
        let report = validate(lhg.graph(), k);
        prop_assert!(report.is_lhg(), "(n={}, k={}): {:?}", n, k, report);
        prop_assert_eq!(report.regular, reg_ktree(n, k));
    }

    #[test]
    fn kdiamond_builds_are_lhgs((n, k) in arb_params()) {
        let lhg = build_kdiamond(n, k).unwrap();
        prop_assert_eq!(lhg.n(), n);
        let report = validate(lhg.graph(), k);
        prop_assert!(report.is_lhg(), "(n={}, k={}): {:?}", n, k, report);
        prop_assert_eq!(report.regular, reg_kdiamond(n, k));
    }

    #[test]
    fn jd_builds_are_lhgs((n, k) in arb_params()) {
        if is_jd_constructible(n, k) {
            let lhg = build_jd(n, k).unwrap();
            let report = validate(lhg.graph(), k);
            prop_assert!(report.is_lhg(), "(n={}, k={}): {:?}", n, k, report);
        } else {
            prop_assert!(build_jd(n, k).is_err());
        }
    }

    #[test]
    fn connectivity_is_exactly_k((n, k) in arb_params()) {
        for lhg in [build_ktree(n, k).unwrap(), build_kdiamond(n, k).unwrap()] {
            prop_assert_eq!(vertex_connectivity(lhg.graph()), k);
            prop_assert_eq!(edge_connectivity(lhg.graph()), k);
            prop_assert_eq!(degree_stats(lhg.graph()).min, k);
        }
    }

    #[test]
    fn constraint_checker_accepts_all_builds((n, k) in arb_params()) {
        for lhg in [build_ktree(n, k).unwrap(), build_kdiamond(n, k).unwrap()] {
            let violations = check_constraint(&lhg);
            prop_assert!(violations.is_empty(), "(n={}, k={}): {:?}", n, k, violations);
        }
        if is_jd_constructible(n, k) {
            let lhg = build_jd(n, k).unwrap();
            prop_assert!(check_constraint(&lhg).is_empty());
        }
    }

    #[test]
    fn diameter_within_logarithmic_bound((n, k) in arb_params()) {
        for lhg in [build_ktree(n, k).unwrap(), build_kdiamond(n, k).unwrap()] {
            let d = diameter(lhg.graph()).expect("LHGs are connected");
            prop_assert!(
                f64::from(d) <= p4_diameter_bound(n, k),
                "(n={}, k={}): diameter {} > bound {}",
                n, k, d, p4_diameter_bound(n, k)
            );
        }
    }

    #[test]
    fn builds_are_deterministic((n, k) in arb_params()) {
        let a = build_ktree(n, k).unwrap();
        let b = build_ktree(n, k).unwrap();
        prop_assert_eq!(a.graph().fingerprint(), b.graph().fingerprint());
        let a = build_kdiamond(n, k).unwrap();
        let b = build_kdiamond(n, k).unwrap();
        prop_assert_eq!(a.graph().fingerprint(), b.graph().fingerprint());
    }

    #[test]
    fn regular_points_hit_edge_lower_bound((n, k) in arb_params()) {
        let lhg = build_kdiamond(n, k).unwrap();
        if reg_kdiamond(n, k) {
            prop_assert!(is_k_regular(lhg.graph(), k));
            prop_assert_eq!(lhg.graph().edge_count(), (k * n).div_ceil(2));
        } else {
            prop_assert!(lhg.graph().edge_count() > (k * n).div_ceil(2));
        }
    }

    #[test]
    fn leaf_roles_have_degree_k((n, k) in arb_params()) {
        let lhg = build_kdiamond(n, k).unwrap();
        for v in lhg.graph().nodes() {
            if lhg.role(v).is_leaf() {
                prop_assert_eq!(lhg.graph().degree(v), k, "leaf {}", v);
            }
        }
    }
}
