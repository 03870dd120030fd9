//! Breadth-first and depth-first traversal over any adjacency source.
//!
//! All higher-level algorithms (distances, components, flooding) are written
//! against the [`Adjacency`] trait so they run unchanged on a mutable
//! [`Graph`], an immutable [`CsrGraph`], or a failure-injected
//! [`SubgraphView`](crate::subgraph::SubgraphView).

use std::collections::VecDeque;

use crate::{CsrGraph, Graph, NodeId};

/// Read-only adjacency access used by every traversal algorithm.
///
/// Implementors must present nodes as dense ids `0..node_count()` and should
/// visit neighbors in a deterministic order (both provided implementations
/// visit ascending by id).
pub trait Adjacency {
    /// Number of nodes (ids are `0..node_count()`).
    fn node_count(&self) -> usize;

    /// Calls `visit` for every neighbor of `node`.
    fn for_each_neighbor(&self, node: NodeId, visit: &mut dyn FnMut(NodeId));

    /// Degree of `node`; default implementation counts neighbors.
    fn degree_of(&self, node: NodeId) -> usize {
        let mut d = 0;
        self.for_each_neighbor(node, &mut |_| d += 1);
        d
    }
}

impl Adjacency for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn for_each_neighbor(&self, node: NodeId, visit: &mut dyn FnMut(NodeId)) {
        for w in self.neighbors(node) {
            visit(w);
        }
    }

    fn degree_of(&self, node: NodeId) -> usize {
        self.degree(node)
    }
}

impl Adjacency for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn for_each_neighbor(&self, node: NodeId, visit: &mut dyn FnMut(NodeId)) {
        for &w in self.neighbors(node) {
            visit(w);
        }
    }

    fn degree_of(&self, node: NodeId) -> usize {
        self.degree(node)
    }
}

impl<T: Adjacency + ?Sized> Adjacency for &T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn for_each_neighbor(&self, node: NodeId, visit: &mut dyn FnMut(NodeId)) {
        (**self).for_each_neighbor(node, visit);
    }

    fn degree_of(&self, node: NodeId) -> usize {
        (**self).degree_of(node)
    }
}

/// BFS hop distances from `source`; unreachable nodes map to `None`.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
#[must_use]
pub fn bfs_distances<A: Adjacency + ?Sized>(adj: &A, source: NodeId) -> Vec<Option<u32>> {
    assert!(
        source.index() < adj.node_count(),
        "source {source} out of bounds"
    );
    let mut dist = vec![None; adj.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()].expect("queued nodes have distances");
        adj.for_each_neighbor(v, &mut |w| {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(dv + 1);
                queue.push_back(w);
            }
        });
    }
    dist
}

/// Nodes in BFS visit order from `source` (only reachable nodes).
#[must_use]
pub fn bfs_order<A: Adjacency + ?Sized>(adj: &A, source: NodeId) -> Vec<NodeId> {
    assert!(
        source.index() < adj.node_count(),
        "source {source} out of bounds"
    );
    let mut seen = vec![false; adj.node_count()];
    seen[source.index()] = true;
    let mut order = Vec::new();
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        adj.for_each_neighbor(v, &mut |w| {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        });
    }
    order
}

/// BFS parents from `source`: `parent[v]` is the predecessor of `v` on a
/// shortest path from `source` (`None` for the source itself and for
/// unreachable nodes).
#[must_use]
pub fn bfs_parents<A: Adjacency + ?Sized>(adj: &A, source: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = Vec::new();
    bfs_parents_into(adj, source, &mut parent, &mut Vec::new());
    parent
}

/// [`bfs_parents`] into `parent`, with `queue` as scratch: both are
/// overwritten, and neither allocates once it has room for
/// `adj.node_count()` entries.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn bfs_parents_into<A: Adjacency + ?Sized>(
    adj: &A,
    source: NodeId,
    parent: &mut Vec<Option<NodeId>>,
    queue: &mut Vec<NodeId>,
) {
    assert!(
        source.index() < adj.node_count(),
        "source {source} out of bounds"
    );
    parent.clear();
    parent.resize(adj.node_count(), None);
    queue.clear();
    queue.push(source);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        adj.for_each_neighbor(v, &mut |w| {
            if w != source && parent[w.index()].is_none() {
                parent[w.index()] = Some(v);
                queue.push(w);
            }
        });
    }
}

/// One shortest path from `source` to `target` (inclusive), or `None` if
/// `target` is unreachable.
#[must_use]
pub fn shortest_path<A: Adjacency + ?Sized>(
    adj: &A,
    source: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    assert!(
        target.index() < adj.node_count(),
        "target {target} out of bounds"
    );
    let parent = bfs_parents(adj, source);
    if source != target && parent[target.index()].is_none() {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parent[cur.index()].expect("reached nodes have parents");
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Depth-first preorder from `source` (iterative; only reachable nodes).
/// Children are visited in ascending id order.
#[must_use]
pub fn dfs_preorder<A: Adjacency + ?Sized>(adj: &A, source: NodeId) -> Vec<NodeId> {
    assert!(
        source.index() < adj.node_count(),
        "source {source} out of bounds"
    );
    let mut seen = vec![false; adj.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        // Push in reverse so the smallest-id neighbor is expanded first.
        let mut ns = Vec::new();
        adj.for_each_neighbor(v, &mut |w| ns.push(w));
        for &w in ns.iter().rev() {
            if !seen[w.index()] {
                stack.push(w);
            }
        }
    }
    order
}

/// The farthest node from `source` and its hop distance, among reachable
/// nodes (ties broken toward the smallest id).
#[must_use]
pub fn bfs_farthest<A: Adjacency + ?Sized>(adj: &A, source: NodeId) -> (NodeId, u32) {
    let dist = bfs_distances(adj, source);
    let mut best = (source, 0);
    for (i, d) in dist.iter().enumerate() {
        if let Some(d) = d {
            if *d > best.1 {
                best = (NodeId(i), *d);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// 0 - 1 - 2 - 3 plus isolated 4.
    fn path_plus_isolated() -> Graph {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_plus_isolated();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn bfs_order_visits_levels() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        assert_eq!(
            bfs_order(&g, NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn bfs_works_on_csr() {
        let g = path_plus_isolated();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(bfs_distances(&csr, NodeId(0)), bfs_distances(&g, NodeId(0)));
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = path_plus_isolated();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(shortest_path(&g, NodeId(0), NodeId(4)), None);
        assert_eq!(
            shortest_path(&g, NodeId(2), NodeId(2)),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn shortest_path_prefers_bfs_minimality() {
        // Triangle with a pendant: 0-1, 1-2, 0-2, 2-3. Path 0->3 must have 3 nodes.
        let g = Graph::from_edges(
            0,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ],
        );
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(*p.last().unwrap(), NodeId(3));
    }

    #[test]
    fn dfs_preorder_is_deterministic() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        assert_eq!(
            dfs_preorder(&g, NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)]
        );
    }

    #[test]
    fn farthest_node_on_path() {
        let g = path_plus_isolated();
        assert_eq!(bfs_farthest(&g, NodeId(0)), (NodeId(3), 3));
        assert_eq!(bfs_farthest(&g, NodeId(4)), (NodeId(4), 0));
    }

    #[test]
    fn adjacency_by_reference_works() {
        let g = path_plus_isolated();
        let r: &Graph = &g;
        assert_eq!(Adjacency::node_count(&r), 5);
        assert_eq!(Adjacency::degree_of(&r, NodeId(1)), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bfs_rejects_bad_source() {
        let g = Graph::with_nodes(1);
        let _ = bfs_distances(&g, NodeId(2));
    }
}
