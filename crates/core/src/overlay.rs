//! Dynamic membership: maintaining an LHG overlay under joins and leaves.
//!
//! The papers motivate LHGs by peer-to-peer settings where n is arbitrary
//! *and changing*. [`DynamicOverlay`] keeps a constraint-built LHG over a
//! live membership list: every join/leave rebuilds the topology at the new
//! n (constructions are O(n), see the `construction` bench) and reports the
//! **churn** — which member-to-member links must be torn down or
//! established. Experiment E17 measures how churn scales.
//!
//! Members carry stable ids; graph node `i` hosts `members()[i]`. A leave
//! swap-removes, so at most one surviving member changes position.

use std::collections::BTreeSet;

use lhg_graph::traversal::bfs_parents;
use lhg_graph::{Graph, NodeId};

use crate::construction::{Constraint, LhgGraph};
use crate::error::LhgError;

/// A stable member identifier (independent of graph node positions).
pub type MemberId = u64;

/// Link churn from one membership change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Member-id pairs that must be connected.
    pub added: Vec<(MemberId, MemberId)>,
    /// Member-id pairs that must be disconnected.
    pub removed: Vec<(MemberId, MemberId)>,
}

impl ChurnReport {
    /// Total links touched.
    #[must_use]
    pub fn total(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Peers `member` must newly connect to.
    pub fn added_for(&self, member: MemberId) -> impl Iterator<Item = MemberId> + '_ {
        self.added
            .iter()
            .filter_map(move |&(a, b)| pair_other(a, b, member))
    }

    /// Peers `member` must disconnect from.
    pub fn removed_for(&self, member: MemberId) -> impl Iterator<Item = MemberId> + '_ {
        self.removed
            .iter()
            .filter_map(move |&(a, b)| pair_other(a, b, member))
    }
}

fn pair_other(a: MemberId, b: MemberId, member: MemberId) -> Option<MemberId> {
    if a == member {
        Some(b)
    } else if b == member {
        Some(a)
    } else {
        None
    }
}

/// An LHG overlay maintained across membership changes.
#[derive(Debug, Clone)]
pub struct DynamicOverlay {
    k: usize,
    constraint: Constraint,
    members: Vec<MemberId>,
    next_id: MemberId,
    current: LhgGraph,
}

impl DynamicOverlay {
    /// Bootstraps an overlay with `n` initial members (ids `0..n`).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error when (n, k) is out of domain
    /// (`n ≥ 2k`, `k ≥ 2` required).
    pub fn bootstrap(constraint: Constraint, n: usize, k: usize) -> Result<Self, LhgError> {
        let current = build(constraint, n, k)?;
        Ok(DynamicOverlay {
            k,
            constraint,
            members: (0..n as MemberId).collect(),
            next_id: n as MemberId,
            current,
        })
    }

    /// Current member list, indexed by graph node position.
    #[must_use]
    pub fn members(&self) -> &[MemberId] {
        &self.members
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the overlay has no members (never happens: the domain
    /// floor is 2k).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The current topology.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.current.graph()
    }

    /// Target connectivity.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The construction constraint this overlay rebuilds with.
    #[must_use]
    pub fn constraint(&self) -> Constraint {
        self.constraint
    }

    /// `true` if `member` is currently part of the overlay.
    #[must_use]
    pub fn contains(&self, member: MemberId) -> bool {
        self.members.contains(&member)
    }

    /// The current topology's links as normalized member-id pairs
    /// (`(min, max)` per undirected link).
    #[must_use]
    pub fn links(&self) -> BTreeSet<(MemberId, MemberId)> {
        self.link_set()
    }

    /// Overlay neighbors of `member` (by stable id), or `None` if unknown.
    #[must_use]
    pub fn neighbors_of(&self, member: MemberId) -> Option<Vec<MemberId>> {
        let pos = self.members.iter().position(|&m| m == member)?;
        Some(
            self.current
                .graph()
                .neighbors(NodeId(pos))
                .map(|w| self.members[w.index()])
                .collect(),
        )
    }

    /// `member`'s children in the BFS tree rooted at `origin`, graph order
    /// breaking ties: the neighbors a broadcast from `origin` is pushed to
    /// from `member`. `None` when either is unknown or `member` is
    /// unreachable from `origin`.
    #[must_use]
    pub fn tree_children(&self, origin: MemberId, member: MemberId) -> Option<Vec<MemberId>> {
        let pos = |m| self.members.iter().position(|&x| x == m).map(NodeId);
        let (root, me) = (pos(origin)?, pos(member)?);
        let parent = bfs_parents(self.current.graph(), root);
        if me != root && parent[me.index()].is_none() {
            return None;
        }
        let children = parent
            .iter()
            .zip(&self.members)
            .filter(|(p, _)| **p == Some(me));
        Some(children.map(|(_, &m)| m).collect())
    }

    /// Member-id link set of the current topology.
    fn link_set(&self) -> BTreeSet<(MemberId, MemberId)> {
        self.current
            .graph()
            .edges()
            .map(|e| {
                let a = self.members[e.a.index()];
                let b = self.members[e.b.index()];
                (a.min(b), a.max(b))
            })
            .collect()
    }

    /// Installs a freshly built topology; `before` is the link set captured
    /// while members and graph were still consistent. Infallible: all
    /// fallible work (the build) happens before any mutation, so a failed
    /// membership change can never leave the replica torn.
    fn apply(&mut self, next: LhgGraph, before: &BTreeSet<(MemberId, MemberId)>) -> ChurnReport {
        self.current = next;
        let after = self.link_set();
        ChurnReport {
            added: after.difference(before).copied().collect(),
            removed: before.difference(&after).copied().collect(),
        }
    }

    /// Admits a new member; returns its id and the link churn.
    ///
    /// # Errors
    ///
    /// Propagates builder errors — under the JD constraint some sizes do
    /// not exist (the follow-up constraints K-TREE and K-DIAMOND cover
    /// every n ≥ 2k). The overlay is untouched on error.
    pub fn join(&mut self) -> Result<(MemberId, ChurnReport), LhgError> {
        let next = build(self.constraint, self.members.len() + 1, self.k)?;
        let before = self.link_set();
        let id = self.next_id;
        self.next_id += 1;
        self.members.push(id);
        Ok((id, self.apply(next, &before)))
    }

    /// Reconstructs an overlay replica from an explicit member list — the
    /// receiving side of a membership sync (a rejoining node installing a
    /// snapshot served by a live peer). `members` must be in the serving
    /// replica's order so both replicas map graph positions identically.
    ///
    /// # Errors
    ///
    /// [`LhgError::InvalidParams`] if `members` contains duplicates;
    /// builder errors if the constraint has no graph at this size.
    pub fn from_parts(
        constraint: Constraint,
        k: usize,
        members: Vec<MemberId>,
    ) -> Result<Self, LhgError> {
        let unique: BTreeSet<MemberId> = members.iter().copied().collect();
        if unique.len() != members.len() {
            return Err(LhgError::InvalidParams {
                n: members.len(),
                k,
                reason: "duplicate member id",
            });
        }
        let current = build(constraint, members.len(), k)?;
        let next_id = members.iter().copied().max().map_or(0, |m| m + 1);
        Ok(DynamicOverlay {
            k,
            constraint,
            members,
            next_id,
            current,
        })
    }

    /// Admits `member` under its **existing** id — the rejoin path, where
    /// every replica must converge on the same membership order without
    /// coordination. The newcomer is spliced in at the canonical position
    /// `partition_point(m < member)`, so replicas holding identical member
    /// lists place it identically regardless of when they process the join.
    ///
    /// # Errors
    ///
    /// [`LhgError::InvalidParams`] if `member` is already present; builder
    /// errors if the constraint has no graph at the larger size. The
    /// overlay is untouched on error.
    pub fn admit(&mut self, member: MemberId) -> Result<ChurnReport, LhgError> {
        if self.contains(member) {
            return Err(LhgError::InvalidParams {
                n: self.members.len(),
                k: self.k,
                reason: "member already present",
            });
        }
        let next = build(self.constraint, self.members.len() + 1, self.k)?;
        let before = self.link_set();
        let pos = self.members.partition_point(|&m| m < member);
        self.members.insert(pos, member);
        self.next_id = self.next_id.max(member + 1);
        Ok(self.apply(next, &before))
    }

    /// Removes `member`; returns the link churn.
    ///
    /// # Errors
    ///
    /// [`LhgError::InvalidParams`] if `member` is unknown, or
    /// [`LhgError::NotConstructible`] if the membership would drop below
    /// the 2k floor or the constraint has no graph at the smaller size.
    /// The overlay is untouched on error.
    pub fn leave(&mut self, member: MemberId) -> Result<ChurnReport, LhgError> {
        let Some(pos) = self.members.iter().position(|&m| m == member) else {
            return Err(LhgError::InvalidParams {
                n: self.members.len(),
                k: self.k,
                reason: "unknown member id",
            });
        };
        if self.members.len() <= 2 * self.k {
            return Err(LhgError::NotConstructible {
                n: self.members.len() - 1,
                k: self.k,
                constraint: self.constraint.name(),
            });
        }
        let next = build(self.constraint, self.members.len() - 1, self.k)?;
        let before = self.link_set();
        self.members.swap_remove(pos);
        Ok(self.apply(next, &before))
    }

    /// Removes several members at once with a **single** rebuild — the
    /// self-healing path after a failure detector flags a batch of crashed
    /// processes. Duplicates in `crashed` are ignored.
    ///
    /// The membership is untouched when an error is returned.
    ///
    /// # Errors
    ///
    /// [`LhgError::InvalidParams`] if any id is unknown, or
    /// [`LhgError::NotConstructible`] if the surviving membership would drop
    /// below the 2k floor or the constraint has no graph at the surviving
    /// size (possible under JD, whose sizes have gaps).
    pub fn crash_many(&mut self, crashed: &[MemberId]) -> Result<ChurnReport, LhgError> {
        let unique: BTreeSet<MemberId> = crashed.iter().copied().collect();
        if unique.is_empty() {
            return Ok(ChurnReport::default());
        }
        if unique.iter().any(|&m| !self.contains(m)) {
            return Err(LhgError::InvalidParams {
                n: self.members.len(),
                k: self.k,
                reason: "unknown member id",
            });
        }
        let survivors = self.members.len() - unique.len();
        if survivors < 2 * self.k {
            return Err(LhgError::NotConstructible {
                n: survivors,
                k: self.k,
                constraint: self.constraint.name(),
            });
        }
        let next = build(self.constraint, survivors, self.k)?;
        let before = self.link_set();
        self.members.retain(|m| !unique.contains(m));
        Ok(self.apply(next, &before))
    }
}

fn build(constraint: Constraint, n: usize, k: usize) -> Result<LhgGraph, LhgError> {
    match constraint {
        Constraint::KTree => crate::ktree::build_ktree(n, k),
        Constraint::KDiamond => crate::kdiamond::build_kdiamond(n, k),
        Constraint::Jd => crate::jd::build_jd(n, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhg_graph::connectivity::vertex_connectivity;

    #[test]
    fn bootstrap_builds_a_k_connected_overlay() {
        let o = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        assert_eq!(o.len(), 12);
        assert_eq!(o.k(), 3);
        assert!(!o.is_empty());
        assert_eq!(vertex_connectivity(o.graph()), 3);
    }

    #[test]
    fn join_keeps_connectivity_and_reports_churn() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 10, 3).unwrap();
        let (id, churn) = o.join().unwrap();
        assert_eq!(id, 10);
        assert_eq!(o.len(), 11);
        assert!(!churn.added.is_empty(), "the newcomer must get links");
        assert!(churn.added.iter().any(|&(a, b)| a == 10 || b == 10));
        assert_eq!(vertex_connectivity(o.graph()), 3);
    }

    #[test]
    fn leave_keeps_connectivity() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 14, 3).unwrap();
        let churn = o.leave(5).unwrap();
        assert_eq!(o.len(), 13);
        assert!(!o.members().contains(&5));
        assert!(churn.removed.iter().any(|&(a, b)| a == 5 || b == 5));
        assert!(!churn.removed.is_empty());
        assert_eq!(vertex_connectivity(o.graph()), 3);
    }

    #[test]
    fn leave_below_floor_is_rejected() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 6, 3).unwrap();
        assert!(matches!(o.leave(0), Err(LhgError::NotConstructible { .. })));
        assert_eq!(o.len(), 6, "membership unchanged on failure");
    }

    #[test]
    fn unknown_member_is_rejected() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 10, 3).unwrap();
        assert!(matches!(o.leave(99), Err(LhgError::InvalidParams { .. })));
    }

    #[test]
    fn churn_is_consistent_with_topologies() {
        // Applying the diff to the before-link-set must yield the after-set.
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 9, 3).unwrap();
        let before = o.link_set();
        let (_, churn) = o.join().unwrap();
        let mut reconstructed = before;
        for r in &churn.removed {
            assert!(reconstructed.remove(r), "removed link {r:?} was present");
        }
        for a in &churn.added {
            assert!(reconstructed.insert(*a), "added link {a:?} was absent");
        }
        assert_eq!(reconstructed, o.link_set());
    }

    #[test]
    fn join_leave_round_trip_restores_size() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 12, 3).unwrap();
        let (id, _) = o.join().unwrap();
        let _ = o.leave(id).unwrap();
        assert_eq!(o.len(), 12);
        assert_eq!(vertex_connectivity(o.graph()), 3);
    }

    #[test]
    fn crash_many_heals_with_one_rebuild() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 14, 3).unwrap();
        let before = o.links();
        let churn = o.crash_many(&[3, 9]).unwrap();
        assert_eq!(o.len(), 12);
        assert!(!o.contains(3) && !o.contains(9));
        assert_eq!(
            vertex_connectivity(o.graph()),
            3,
            "healed overlay is 3-connected"
        );
        // The diff transforms the old link set into the new one.
        let mut reconstructed = before;
        for r in &churn.removed {
            assert!(reconstructed.remove(r), "removed link {r:?} was present");
        }
        for a in &churn.added {
            assert!(reconstructed.insert(*a), "added link {a:?} was absent");
        }
        assert_eq!(reconstructed, o.links());
        // No surviving link may touch a crashed member.
        assert!(o
            .links()
            .iter()
            .all(|&(a, b)| ![a, b].contains(&3) && ![a, b].contains(&9)));
    }

    #[test]
    fn crash_many_handles_duplicates_and_empty() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        assert_eq!(o.crash_many(&[]).unwrap(), ChurnReport::default());
        let _ = o.crash_many(&[4, 4, 4]).unwrap();
        assert_eq!(o.len(), 11);
    }

    #[test]
    fn crash_many_rejects_floor_violation_atomically() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 8, 3).unwrap();
        // 8 - 3 = 5 < 6 = 2k: must refuse and leave membership untouched.
        assert!(matches!(
            o.crash_many(&[0, 1, 2]),
            Err(LhgError::NotConstructible { .. })
        ));
        assert_eq!(o.len(), 8);
        assert!(o.contains(0));
    }

    #[test]
    fn failed_rebuild_leaves_overlay_consistent() {
        // JD has no graph at (n=9, k=3): crashing one member of a 10-node
        // JD overlay must fail cleanly, leaving members and graph paired.
        let mut o = DynamicOverlay::bootstrap(Constraint::Jd, 10, 3).unwrap();
        let links_before = o.links();
        assert!(matches!(
            o.crash_many(&[4]),
            Err(LhgError::NotConstructible { .. })
        ));
        assert!(matches!(o.leave(4), Err(LhgError::NotConstructible { .. })));
        assert_eq!(o.len(), 10, "membership untouched");
        assert_eq!(o.links(), links_before, "topology untouched");
        assert_eq!(
            o.neighbors_of(9).map(|v| v.len() >= 3),
            Some(true),
            "replica still internally consistent"
        );
        // The K-TREE/K-DIAMOND constraints have no such gaps: same crash
        // heals fine there.
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 10, 3).unwrap();
        assert!(o.crash_many(&[4]).is_ok());
        assert_eq!(o.len(), 9);
    }

    #[test]
    fn crash_many_rejects_unknown_members() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 12, 3).unwrap();
        assert!(matches!(
            o.crash_many(&[2, 77]),
            Err(LhgError::InvalidParams { .. })
        ));
        assert_eq!(o.len(), 12, "membership unchanged on failure");
    }

    #[test]
    fn churn_per_member_views_partition_the_diff() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 10, 3).unwrap();
        let (id, churn) = o.join().unwrap();
        let dials: Vec<MemberId> = churn.added_for(id).collect();
        assert!(!dials.is_empty(), "newcomer has links to establish");
        for peer in dials {
            assert!(
                churn.added.contains(&(id.min(peer), id.max(peer)))
                    || churn.added.contains(&(peer.min(id), peer.max(id)))
            );
        }
        // A member not in any removed pair sees nothing to drop.
        let untouched: Vec<MemberId> = churn.removed_for(9999).collect();
        assert!(untouched.is_empty());
    }

    #[test]
    fn neighbors_of_matches_link_set() {
        let o = DynamicOverlay::bootstrap(Constraint::KTree, 12, 3).unwrap();
        let links = o.links();
        for &m in o.members() {
            let nbrs = o.neighbors_of(m).unwrap();
            assert!(nbrs.len() >= o.k(), "degree at least k");
            for p in nbrs {
                assert!(links.contains(&(m.min(p), m.max(p))));
            }
        }
        assert!(o.neighbors_of(555).is_none());
    }

    #[test]
    fn admit_restores_a_crashed_member_at_its_canonical_position() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        let _ = o.crash_many(&[5]).unwrap();
        assert!(!o.contains(5));
        let churn = o.admit(5).unwrap();
        assert!(o.contains(5));
        assert_eq!(o.len(), 12);
        assert_eq!(
            o.members(),
            (0..12).collect::<Vec<MemberId>>().as_slice(),
            "rejoin lands back at the sorted position"
        );
        assert!(churn.added.iter().any(|&(a, b)| a == 5 || b == 5));
        assert_eq!(vertex_connectivity(o.graph()), 3);
    }

    #[test]
    fn admit_converges_across_replicas_regardless_of_history() {
        // Two replicas that agree on membership must agree on the overlay
        // after admitting the same member, even with different histories.
        let mut a = DynamicOverlay::bootstrap(Constraint::KTree, 13, 3).unwrap();
        let _ = a.crash_many(&[4, 9]).unwrap();
        let mut b = DynamicOverlay::bootstrap(Constraint::KTree, 13, 3).unwrap();
        let _ = b.crash_many(&[9]).unwrap();
        let _ = b.crash_many(&[4]).unwrap();
        assert_eq!(a.members(), b.members());
        let _ = a.admit(9).unwrap();
        let _ = b.admit(9).unwrap();
        assert_eq!(a.members(), b.members());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn admit_rejects_present_member_and_keeps_state() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KTree, 10, 3).unwrap();
        let links = o.links();
        assert!(matches!(o.admit(7), Err(LhgError::InvalidParams { .. })));
        assert_eq!(o.len(), 10);
        assert_eq!(o.links(), links);
    }

    #[test]
    fn admit_bumps_next_id_past_the_admitted_member() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 10, 3).unwrap();
        o.admit(50).unwrap();
        let (id, _) = o.join().unwrap();
        assert_eq!(id, 51, "fresh ids never collide with admitted ones");
    }

    #[test]
    fn from_parts_matches_a_served_snapshot() {
        let mut server = DynamicOverlay::bootstrap(Constraint::KDiamond, 12, 3).unwrap();
        let _ = server.crash_many(&[2, 7]).unwrap();
        let replica =
            DynamicOverlay::from_parts(server.constraint(), server.k(), server.members().to_vec())
                .unwrap();
        assert_eq!(replica.members(), server.members());
        assert_eq!(replica.links(), server.links());
        assert_eq!(replica.constraint(), Constraint::KDiamond);
    }

    #[test]
    fn from_parts_rejects_duplicates() {
        assert!(matches!(
            DynamicOverlay::from_parts(Constraint::KTree, 3, vec![0, 1, 2, 3, 4, 5, 5, 6]),
            Err(LhgError::InvalidParams { .. })
        ));
    }

    #[test]
    fn long_churn_sequence_stays_k_connected() {
        let mut o = DynamicOverlay::bootstrap(Constraint::KDiamond, 10, 3).unwrap();
        for step in 0..12 {
            if step % 3 == 2 {
                let victim = o.members()[step % o.len()];
                let _ = o.leave(victim).unwrap();
            } else {
                let _ = o.join().unwrap();
            }
            assert_eq!(vertex_connectivity(o.graph()), 3, "step {step}");
        }
        assert_eq!(o.len(), 10 + 8 - 4);
    }
}
