//! Distance aggregates: eccentricity, diameter, radius, average path length.
//!
//! The defining property P4 of a Logarithmic Harary Graph is that the
//! *diameter* — the maximum over all pairs of the shortest-path length — is
//! `O(log n)`. These helpers compute the exact diameter by an all-sources BFS
//! sweep (`O(n · m)`) over a flat CSR copy with reused buffers, which is
//! affordable at the scales the experiments use (n up to a few tens of
//! thousands).

use crate::traversal::{bfs_distances, Adjacency};
use crate::NodeId;

/// Eccentricity of `node`: the greatest hop distance to any reachable node.
/// Returns `None` if some node is unreachable from `node` (infinite
/// eccentricity in a disconnected graph).
#[must_use]
pub fn eccentricity<A: Adjacency + ?Sized>(adj: &A, node: NodeId) -> Option<u32> {
    let dist = bfs_distances(adj, node);
    let mut max = 0;
    for d in &dist {
        match d {
            Some(d) => max = max.max(*d),
            None => return None,
        }
    }
    Some(max)
}

/// Every node's eccentricity in id order, or `None` if the graph is
/// disconnected: one BFS per source over a flat CSR copy of `adj`, all of
/// them sharing one distance buffer and one queue.
fn eccentricities<A: Adjacency + ?Sized>(adj: &A) -> Option<Vec<u32>> {
    let n = adj.node_count();
    let mut start = Vec::with_capacity(n + 1);
    let mut targets: Vec<u32> = Vec::new();
    start.push(0);
    for v in 0..n {
        adj.for_each_neighbor(NodeId(v), &mut |w| targets.push(w.index() as u32));
        start.push(targets.len());
    }
    let mut dist = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    let mut ecc = Vec::with_capacity(n);
    for source in 0..n {
        dist.fill(u32::MAX);
        dist[source] = 0;
        queue.clear();
        queue.push(source as u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let (v, next) = (v as usize, dist[v as usize] + 1);
            for &w in &targets[start[v]..start[v + 1]] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        if queue.len() < n {
            return None;
        }
        ecc.push(dist[queue[n - 1] as usize]); // BFS dequeues the farthest last
    }
    Some(ecc)
}

/// Exact diameter (max eccentricity). `None` if the graph is disconnected;
/// `Some(0)` for graphs with fewer than two nodes.
#[must_use]
pub fn diameter<A: Adjacency + ?Sized>(adj: &A) -> Option<u32> {
    Some(eccentricities(adj)?.into_iter().max().unwrap_or(0))
}

/// Exact radius (min eccentricity). `None` if the graph is disconnected;
/// `Some(0)` for graphs with fewer than two nodes.
#[must_use]
pub fn radius<A: Adjacency + ?Sized>(adj: &A) -> Option<u32> {
    Some(eccentricities(adj)?.into_iter().min().unwrap_or(0))
}

/// Average shortest-path length over all ordered pairs of distinct nodes.
/// `None` if disconnected or if the graph has fewer than two nodes.
#[must_use]
pub fn average_path_length<A: Adjacency + ?Sized>(adj: &A) -> Option<f64> {
    let n = adj.node_count();
    if n < 2 {
        return None;
    }
    let mut total: u64 = 0;
    for v in 0..n {
        for d in bfs_distances(adj, NodeId(v)) {
            total += u64::from(d?);
        }
    }
    Some(total as f64 / (n as f64 * (n as f64 - 1.0)))
}

/// Lower-cost diameter *estimate* by the double-sweep heuristic: BFS from
/// `seed`, then BFS from the farthest node found. The result is a lower
/// bound on the true diameter (exact on trees). `None` if disconnected.
#[must_use]
pub fn diameter_double_sweep<A: Adjacency + ?Sized>(adj: &A, seed: NodeId) -> Option<u32> {
    let n = adj.node_count();
    if n == 0 {
        return Some(0);
    }
    let first = bfs_distances(adj, seed);
    let mut far = (seed, 0);
    for (i, d) in first.iter().enumerate() {
        match d {
            Some(d) if *d > far.1 => far = (NodeId(i), *d),
            Some(_) => {}
            None => return None,
        }
    }
    let second = bfs_distances(adj, far.0);
    second.into_iter().map(|d| d.unwrap_or(0)).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i));
        }
        g
    }

    fn cycle(n: usize) -> Graph {
        let mut g = path(n);
        g.add_edge(NodeId(n - 1), NodeId(0));
        g
    }

    #[test]
    fn path_metrics() {
        let g = path(5);
        assert_eq!(diameter(&g), Some(4));
        assert_eq!(radius(&g), Some(2));
        assert_eq!(eccentricity(&g, NodeId(0)), Some(4));
        assert_eq!(eccentricity(&g, NodeId(2)), Some(2));
    }

    #[test]
    fn cycle_metrics() {
        assert_eq!(diameter(&cycle(6)), Some(3));
        assert_eq!(radius(&cycle(6)), Some(3));
        assert_eq!(diameter(&cycle(7)), Some(3));
    }

    #[test]
    fn disconnected_returns_none() {
        let g = Graph::with_nodes(3);
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(average_path_length(&g), None);
        assert_eq!(eccentricity(&g, NodeId(0)), None);
        assert_eq!(diameter_double_sweep(&g, NodeId(0)), None);
    }

    #[test]
    fn trivial_graphs() {
        assert_eq!(diameter(&Graph::new()), Some(0));
        assert_eq!(diameter(&Graph::with_nodes(1)), Some(0));
        assert_eq!(radius(&Graph::with_nodes(1)), Some(0));
        assert_eq!(average_path_length(&Graph::with_nodes(1)), None);
    }

    #[test]
    fn average_path_length_of_triangle_is_one() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        assert_eq!(average_path_length(&g), Some(1.0));
    }

    #[test]
    fn average_path_length_of_path3() {
        // Pairs (ordered): 0-1:1, 0-2:2, 1-0:1, 1-2:1, 2-0:2, 2-1:1 -> 8/6.
        let g = path(3);
        let apl = average_path_length(&g).unwrap();
        assert!((apl - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_lower_bound_on_cycles() {
        let g = path(9);
        assert_eq!(diameter_double_sweep(&g, NodeId(4)), Some(8));
        let c = cycle(8);
        let est = diameter_double_sweep(&c, NodeId(0)).unwrap();
        assert!(est <= diameter(&c).unwrap());
        assert!(est >= 1);
    }
}
