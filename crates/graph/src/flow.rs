//! Dinic max-flow on directed integer-capacity networks.
//!
//! Menger's theorem reduces exact vertex/edge connectivity — the quantities
//! the LHG properties P1 and P2 are stated in — to unit-capacity max-flow
//! problems, which [`FlowNetwork::max_flow_capped`] solves with an early
//! exit: connectivity checks only need to know whether the flow reaches `k`.
//!
//! A network is built once and reused for many pairs: [`FlowNetwork::reset`]
//! restores only the arcs a run pushed flow on, and the BFS and DFS scratch
//! buffers stay with the network, so a run allocates only while they grow.

/// The end of an arc list, and "no level yet".
const NONE: usize = usize::MAX;

/// Index of a directed edge inside a [`FlowNetwork`].
///
/// Returned by [`FlowNetwork::add_edge`] and usable with
/// [`FlowNetwork::flow_on`] to recover per-edge flow after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowEdgeId(usize);

#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    /// The next arc out of the same node (`NONE` ends the list).
    next: usize,
    /// Remaining residual capacity (mutated during augmentation).
    residual: u64,
    /// Capacity the edge was created with (reverse edges: 0).
    original: u64,
}

/// A directed flow network with integer capacities (Dinic's algorithm).
///
/// # Example
///
/// ```
/// use lhg_graph::flow::FlowNetwork;
///
/// // s=0 -> 1 -> t=2 with bottleneck 3.
/// let mut net = FlowNetwork::new(3);
/// net.add_edge(0, 1, 5);
/// net.add_edge(1, 2, 3);
/// assert_eq!(net.max_flow(0, 2), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    // edges[i] and edges[i^1] are a forward/backward residual pair.
    edges: Vec<FlowEdge>,
    // Per node, the first and last arc of its list (in insertion order).
    first: Vec<usize>,
    last: Vec<usize>,
    // Kept across runs: BFS, DFS positions and path, arcs that carried flow.
    level: Vec<usize>,
    queue: Vec<usize>,
    iter: Vec<usize>,
    path: Vec<usize>,
    touched: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes `0..n` and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            first: vec![NONE; n],
            last: vec![NONE; n],
            ..FlowNetwork::default()
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.first.len()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.first.push(NONE);
        self.last.push(NONE);
        self.first.len() - 1
    }

    fn push_arc(&mut self, from: usize, to: usize, capacity: u64) {
        let id = self.edges.len();
        self.edges.push(FlowEdge {
            to,
            next: NONE,
            residual: capacity,
            original: capacity,
        });
        match std::mem::replace(&mut self.last[from], id) {
            NONE => self.first[from] = id,
            tail => self.edges[tail].next = id,
        }
    }

    /// Adds a directed edge `from -> to` with the given capacity and its
    /// residual reverse edge (capacity 0). Returns the forward edge id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: u64) -> FlowEdgeId {
        assert!(from < self.first.len(), "flow edge source out of bounds");
        assert!(to < self.first.len(), "flow edge target out of bounds");
        let id = self.edges.len();
        self.push_arc(from, to, capacity);
        self.push_arc(to, from, 0);
        FlowEdgeId(id)
    }

    /// The first forward edge `from -> to` added, if any.
    #[must_use]
    pub(crate) fn find_edge(&self, from: usize, to: usize) -> Option<FlowEdgeId> {
        let mut a = self.first[from];
        while a != NONE && (a % 2 == 1 || self.edges[a].to != to) {
            a = self.edges[a].next;
        }
        (a != NONE).then_some(FlowEdgeId(a))
    }

    /// Flow currently assigned to a forward edge (after a `max_flow*` call).
    #[must_use]
    pub fn flow_on(&self, edge: FlowEdgeId) -> u64 {
        let e = &self.edges[edge.0];
        e.original - e.residual
    }

    /// Nodes reachable from `s` along positive-residual arcs.
    ///
    /// After a completed [`FlowNetwork::max_flow`] run this is the source
    /// side of a minimum cut (max-flow/min-cut theorem), which the
    /// connectivity module uses to extract explicit minimum vertex and edge
    /// cuts.
    #[must_use]
    pub fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut reach = vec![false; self.first.len()];
        reach[s] = true;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            let mut a = self.first[v];
            while a != NONE {
                let e = &self.edges[a];
                if !reach[e.to] && e.residual > 0 {
                    reach[e.to] = true;
                    stack.push(e.to);
                }
                a = e.next;
            }
        }
        reach
    }

    /// Resets all flows to zero, keeping the topology. Only the arcs the
    /// runs since the last reset pushed flow on are touched.
    pub fn reset(&mut self) {
        for &a in &self.touched {
            for e in [a, a ^ 1] {
                self.edges[e].residual = self.edges[e].original;
            }
        }
        self.touched.clear();
    }

    /// The level graph, as each node's distance to `t`: a BFS from `t`
    /// against the residual arcs, until it reaches `s`. Returns `false` when
    /// it cannot. The DFS then takes only arcs one step closer to `t`, so it
    /// walks the shortest paths alone and finds the very paths it would on
    /// a BFS from `s`, without entering the dead ends that BFS also labels.
    fn levels(&mut self, s: usize, t: usize) -> bool {
        self.level.clear();
        self.level.resize(self.first.len(), NONE);
        self.level[t] = 0;
        self.queue.clear();
        self.queue.push(t);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let mut a = self.first[v];
            while a != NONE {
                // `a` leaves `v`; its twin `a ^ 1` is the arc into `v`.
                let w = self.edges[a].to;
                if self.level[w] == NONE && self.edges[a ^ 1].residual > 0 {
                    self.level[w] = self.level[v] + 1;
                    if w == s {
                        return true;
                    }
                    self.queue.push(w);
                }
                a = self.edges[a].next;
            }
        }
        false
    }

    /// One augmenting push along the level graph (iterative path walk).
    /// Returns the amount pushed (0 when no admissible path remains).
    fn dfs_push(&mut self, s: usize, t: usize, up_to: u64) -> u64 {
        self.path.clear(); // arcs along the current path
        let mut v = s;
        loop {
            if v == t {
                let mut bottleneck = up_to;
                for &a in &self.path {
                    bottleneck = bottleneck.min(self.edges[a].residual);
                }
                debug_assert!(bottleneck > 0);
                for &a in &self.path {
                    self.edges[a].residual -= bottleneck;
                    self.edges[a ^ 1].residual += bottleneck;
                }
                self.touched.extend_from_slice(&self.path);
                return bottleneck;
            }
            // Advance v's arc iterator to a usable edge.
            let mut a = self.iter[v];
            while a != NONE {
                let e = &self.edges[a];
                if e.residual > 0 && self.level[e.to] == self.level[v] - 1 {
                    break;
                }
                a = e.next;
            }
            self.iter[v] = a;
            if a != NONE {
                self.path.push(a);
                v = self.edges[a].to;
            } else if let Some(a) = self.path.pop() {
                // Dead end: backtrack one step. The tail of `a` is the
                // reverse edge's head.
                let tail = self.edges[a ^ 1].to;
                self.iter[tail] = self.edges[a].next;
                v = tail;
            } else {
                return 0; // ... or give up at the source.
            }
        }
    }

    /// Maximum flow from `s` to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of bounds.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_capped(s, t, u64::MAX)
    }

    /// Maximum flow from `s` to `t`, stopping early once `cap` units have
    /// been pushed. Returns `min(max_flow, cap)`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of bounds.
    pub fn max_flow_capped(&mut self, s: usize, t: usize, cap: u64) -> u64 {
        assert!(
            s < self.first.len() && t < self.first.len(),
            "flow endpoint out of bounds"
        );
        assert_ne!(s, t, "max flow requires distinct endpoints");
        let mut flow = 0;
        while flow < cap && self.levels(s, t) {
            self.iter.clone_from(&self.first);
            let mut progressed = false;
            while flow < cap {
                let pushed = self.dfs_push(s, t, cap - flow);
                if pushed == 0 {
                    break;
                }
                progressed = true;
                flow += pushed;
            }
            if !progressed {
                break; // defensive: a reachable t always admits a push
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn series_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(0, 2, 3);
        net.add_edge(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.6 instance, max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn needs_residual_pushback() {
        // Flow must be rerouted through the residual of 1->2.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn zigzag_requires_undo() {
        // The classic case where an augmenting path must cancel flow:
        // 0->1, 0->2, 1->3, 2->1, 2->4, 3->5, 4->3?, build so optimum needs
        // reverse-edge traversal.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        net.add_edge(3, 5, 2);
        net.add_edge(1, 4, 1);
        net.add_edge(4, 5, 1);
        assert_eq!(net.max_flow(0, 5), 2);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 9);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn capped_flow_stops_early() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 100);
        assert_eq!(net.max_flow_capped(0, 1, 4), 4);
    }

    #[test]
    fn capped_flow_matches_when_cap_exceeds_max() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow_capped(0, 2, 10), 3);
    }

    #[test]
    fn flow_on_reports_per_edge_values() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 5);
        let b = net.add_edge(1, 2, 3);
        net.max_flow(0, 2);
        assert_eq!(net.flow_on(a), 3);
        assert_eq!(net.flow_on(b), 3);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
        net.reset();
        assert_eq!(net.max_flow(0, 2), 3);
    }

    /// A random network on `n` nodes, and the ids of its edges.
    fn random_network(seed: u64, n: usize) -> (FlowNetwork, Vec<FlowEdgeId>) {
        let (mut rng, mut net) = (StdRng::seed_from_u64(seed), FlowNetwork::new(n));
        let mut ids = Vec::new();
        for _ in 0..rng.random_range(0..=3 * n) {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            if a != b {
                ids.push(net.add_edge(a, b, rng.random_range(1..=3)));
            }
        }
        (net, ids)
    }

    #[test]
    fn a_reset_network_agrees_with_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..60 {
            let n = rng.random_range(2..=14);
            let (mut reused, ids) = random_network(seed, n);
            for _ in 0..12 {
                let (s, t) = (rng.random_range(0..n), rng.random_range(0..n));
                if s == t {
                    continue;
                }
                let full = random_network(seed, n).0.max_flow(s, t);
                // A capped run that may stop early, then an uncapped one,
                // each reset before the next.
                let cap = rng.random_range(1..=3);
                for (limit, expected) in [(cap, full.min(cap)), (u64::MAX, full)] {
                    let got = reused.max_flow_capped(s, t, limit);
                    assert_eq!(got, expected, "n={n} s={s} t={t} cap={limit}");
                    reused.reset();
                    assert!(ids.iter().all(|&e| reused.flow_on(e) == 0));
                }
            }
        }
    }

    #[test]
    fn unit_capacity_disjoint_paths() {
        // Three disjoint unit paths from 0 to 7, plus a decoy reusing node 1.
        let mut net = FlowNetwork::new(8);
        for mid in [1, 2, 3] {
            net.add_edge(0, mid, 1);
            net.add_edge(mid, 7, 1);
        }
        net.add_edge(0, 1, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn same_endpoints_panic() {
        let mut net = FlowNetwork::new(2);
        net.max_flow(1, 1);
    }

    #[test]
    fn add_node_grows_network() {
        let mut net = FlowNetwork::new(1);
        let v = net.add_node();
        assert_eq!(v, 1);
        net.add_edge(0, 1, 2);
        assert_eq!(net.max_flow(0, 1), 2);
    }

    #[test]
    fn bipartite_matching_as_flow() {
        // 3x3 bipartite with a perfect matching -> flow 3.
        let mut net = FlowNetwork::new(8);
        for l in 1..=3 {
            net.add_edge(0, l, 1);
        }
        for r in 4..=6 {
            net.add_edge(r, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    #[test]
    fn large_series_parallel_stress() {
        // 50 parallel 2-hop unit paths: flow = 50.
        let mut net = FlowNetwork::new(102);
        for i in 0..50 {
            net.add_edge(0, 2 + i, 1);
            net.add_edge(2 + i, 1, 1);
        }
        assert_eq!(net.max_flow(0, 1), 50);
    }
}
