//! Placement of ownership lists onto cluster nodes — with replicas.
//!
//! PR 4's protocol placed every ownership list on exactly one node, which
//! is the paper's sketch ("a simple distribution of the database according
//! to the representatives") but leaves two gaps the routed traffic makes
//! obvious: a hot list has no second home (balanced *storage* is not
//! balanced *traffic* — clustered query streams showed 4–9× eval skew),
//! and a failed node takes its lists' answers down with it.
//!
//! [`Placement`] closes both: each list now has a **replica set** of one
//! or more distinct nodes, and the router picks the least-loaded live
//! replica per group. Two policies build placements
//! ([`PlacementPolicy`]):
//!
//! * **single owner** — the PR 4 baseline: longest-processing-time greedy
//!   (largest list onto the lightest node, within 4/3 of the optimal
//!   makespan), one replica per list;
//! * **r-fold replication** — every list on `r` distinct nodes, copies
//!   placed LPT-style, so any single node failure leaves full coverage
//!   and the router has `r` choices for every group.

use serde::{Deserialize, Serialize};

/// Where every ownership list lives: one or more replica nodes per list.
///
/// Invariants (checked by [`validate`](Self::validate), established by the
/// constructors): every list has at least one replica, replicas of a list
/// are distinct and in range, and the per-node views are consistent with
/// the per-list view.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// `replicas_of_list[i]` is the set of nodes holding a copy of
    /// ownership list `i` — distinct, at least one, in placement order
    /// (the first entry is the primary copy).
    pub replicas_of_list: Vec<Vec<usize>>,
    /// For each node, the indices of the lists it stores a copy of.
    pub lists_of_node: Vec<Vec<usize>>,
    /// For each node, the total number of database points it stores,
    /// **including** replica copies.
    pub points_per_node: Vec<usize>,
}

/// How a [`Placement`] is built from list sizes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Every list on exactly one node, sizes balanced by LPT — the
    /// replication-free baseline.
    SingleOwner,
    /// Every list on `factor` distinct nodes (clamped to the node count),
    /// copies placed largest-first onto the lightest nodes.
    Replicated {
        /// Number of copies of every list.
        factor: usize,
    },
}

impl PlacementPolicy {
    /// Builds the placement for `list_sizes` over `nodes` nodes.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn place(&self, list_sizes: &[usize], nodes: usize) -> Placement {
        match *self {
            Self::SingleOwner => Placement::single_owner(list_sizes, nodes),
            Self::Replicated { factor } => Placement::replicated(list_sizes, nodes, factor),
        }
    }
}

/// A mutable build in progress: the greedy step of the LPT placement.
struct Builder {
    replicas_of_list: Vec<Vec<usize>>,
    lists_of_node: Vec<Vec<usize>>,
    points_per_node: Vec<usize>,
}

impl Builder {
    fn new(lists: usize, nodes: usize) -> Self {
        Self {
            replicas_of_list: vec![Vec::new(); lists],
            lists_of_node: vec![Vec::new(); nodes],
            points_per_node: vec![0usize; nodes],
        }
    }

    /// Places one copy of `list` on the lightest node (by stored points,
    /// ties toward the lower id) not already holding it. No-op when every
    /// node already has a copy.
    fn place_copy(&mut self, list: usize, size: usize) {
        let holders = &self.replicas_of_list[list];
        let Some(lightest) = (0..self.points_per_node.len())
            .filter(|nd| !holders.contains(nd))
            .min_by_key(|&nd| (self.points_per_node[nd], nd))
        else {
            return;
        };
        self.replicas_of_list[list].push(lightest);
        self.lists_of_node[lightest].push(list);
        self.points_per_node[lightest] += size;
    }

    fn finish(self) -> Placement {
        Placement {
            replicas_of_list: self.replicas_of_list,
            lists_of_node: self.lists_of_node,
            points_per_node: self.points_per_node,
        }
    }
}

/// Lists ordered largest-first — the LPT processing order.
fn largest_first(list_sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..list_sizes.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(list_sizes[i]), i));
    order
}

impl Placement {
    /// Single-owner LPT placement: every list on exactly one node, largest
    /// lists placed first onto the currently lightest node.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn single_owner(list_sizes: &[usize], nodes: usize) -> Self {
        Self::replicated(list_sizes, nodes, 1)
    }

    /// r-fold replication: every list on `min(factor, nodes).max(1)`
    /// distinct nodes, copies placed largest-first onto the lightest
    /// nodes.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn replicated(list_sizes: &[usize], nodes: usize, factor: usize) -> Self {
        assert!(nodes > 0, "cannot place lists onto zero nodes");
        let copies = factor.clamp(1, nodes);
        let mut builder = Builder::new(list_sizes.len(), nodes);
        let order = largest_first(list_sizes);
        for _ in 0..copies {
            for &list in &order {
                builder.place_copy(list, list_sizes[list]);
            }
        }
        builder.finish()
    }

    /// Number of nodes in the placement.
    pub fn nodes(&self) -> usize {
        self.lists_of_node.len()
    }

    /// Number of ownership lists placed.
    pub fn lists(&self) -> usize {
        self.replicas_of_list.len()
    }

    /// Total stored points across all nodes, replica copies included.
    pub fn stored_points(&self) -> usize {
        self.points_per_node.iter().sum()
    }

    /// Mean number of replicas per list (1.0 = no replication; 0.0 for an
    /// empty placement).
    pub fn mean_replication(&self) -> f64 {
        if self.replicas_of_list.is_empty() {
            0.0
        } else {
            let slots: usize = self.replicas_of_list.iter().map(|r| r.len()).sum();
            slots as f64 / self.replicas_of_list.len() as f64
        }
    }

    /// Stored points divided by primary points — how much extra storage
    /// replication costs (1.0 = none). `primary_points` is the sum of the
    /// list sizes (one copy of everything).
    pub fn storage_overhead(&self, primary_points: usize) -> f64 {
        if primary_points == 0 {
            1.0
        } else {
            self.stored_points() as f64 / primary_points as f64
        }
    }

    /// Ratio of the heaviest to the lightest node by stored points
    /// (1.0 = perfectly balanced). Nodes storing zero points are ignored
    /// unless all are empty.
    pub fn imbalance(&self) -> f64 {
        let max = self.points_per_node.iter().copied().max().unwrap_or(0);
        let min_nonzero = self
            .points_per_node
            .iter()
            .copied()
            .filter(|&p| p > 0)
            .min()
            .unwrap_or(0);
        if min_nonzero == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min_nonzero as f64
        }
    }

    /// Checks the placement against the structure it must cover: one entry
    /// per list, replicas distinct / non-empty / in range, and node views
    /// consistent with the list view.
    pub fn validate(&self, list_sizes: &[usize], nodes: usize) -> Result<(), String> {
        if self.replicas_of_list.len() != list_sizes.len() {
            return Err(format!(
                "placement covers {} lists, structure has {}",
                self.replicas_of_list.len(),
                list_sizes.len()
            ));
        }
        if self.nodes() != nodes {
            return Err(format!(
                "placement spans {} nodes, cluster has {nodes}",
                self.nodes()
            ));
        }
        let mut points = vec![0usize; nodes];
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (list, replicas) in self.replicas_of_list.iter().enumerate() {
            if replicas.is_empty() {
                return Err(format!("list {list} has no replica"));
            }
            let mut seen = std::collections::HashSet::new();
            for &node in replicas {
                if node >= nodes {
                    return Err(format!("list {list} placed on node {node} of {nodes}"));
                }
                if !seen.insert(node) {
                    return Err(format!("list {list} placed twice on node {node}"));
                }
                points[node] += list_sizes[list];
                lists[node].push(list);
            }
        }
        if points != self.points_per_node {
            return Err("points_per_node inconsistent with replicas_of_list".into());
        }
        for (node, mut expect) in lists.into_iter().enumerate() {
            let mut got = self.lists_of_node[node].clone();
            expect.sort_unstable();
            got.sort_unstable();
            if expect != got {
                return Err(format!(
                    "lists_of_node[{node}] inconsistent with replicas_of_list"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_owner_covers_every_list_exactly_once() {
        let sizes = vec![5, 1, 9, 3, 3, 7, 2];
        let p = Placement::single_owner(&sizes, 3);
        assert_eq!(p.nodes(), 3);
        assert_eq!(p.lists(), sizes.len());
        assert!(p.replicas_of_list.iter().all(|r| r.len() == 1));
        assert_eq!(p.stored_points(), sizes.iter().sum::<usize>());
        assert_eq!(p.mean_replication(), 1.0);
        assert_eq!(p.storage_overhead(sizes.iter().sum()), 1.0);
        p.validate(&sizes, 3)
            .expect("constructed placement is valid");
    }

    #[test]
    fn single_owner_lpt_balances_skewed_sizes() {
        let sizes: Vec<usize> = (1..=60).map(|i| (i * i) % 97 + 1).collect();
        let p = Placement::single_owner(&sizes, 6);
        assert!(
            p.imbalance() < 1.5,
            "LPT imbalance too high: {}",
            p.imbalance()
        );
    }

    #[test]
    fn balanced_input_is_perfectly_balanced() {
        let p = Placement::single_owner(&[4; 12], 4);
        assert!(p.points_per_node.iter().all(|&pts| pts == 12));
        assert_eq!(p.imbalance(), 1.0);
    }

    #[test]
    fn replicated_places_every_list_on_factor_distinct_nodes() {
        let sizes = vec![8, 3, 5, 1, 9, 2];
        let p = Placement::replicated(&sizes, 4, 2);
        for (list, replicas) in p.replicas_of_list.iter().enumerate() {
            assert_eq!(replicas.len(), 2, "list {list}");
            assert_ne!(replicas[0], replicas[1], "list {list} duplicated on a node");
        }
        assert_eq!(p.stored_points(), 2 * sizes.iter().sum::<usize>());
        assert_eq!(p.mean_replication(), 2.0);
        assert!((p.storage_overhead(sizes.iter().sum()) - 2.0).abs() < 1e-12);
        p.validate(&sizes, 4).expect("valid");
        // Replicated storage stays balanced too.
        assert!(p.imbalance() <= 2.0, "imbalance {}", p.imbalance());
    }

    #[test]
    fn replication_factor_clamps_to_the_node_count() {
        let sizes = vec![4, 4, 4];
        let p = Placement::replicated(&sizes, 2, 7);
        assert!(p.replicas_of_list.iter().all(|r| r.len() == 2));
        let full = Placement::replicated(&sizes, 1, 3);
        assert!(full.replicas_of_list.iter().all(|r| r == &vec![0]));
    }

    #[test]
    fn policy_place_dispatches_to_the_constructors() {
        let sizes = vec![3, 7, 2];
        assert_eq!(
            PlacementPolicy::SingleOwner.place(&sizes, 2),
            Placement::single_owner(&sizes, 2)
        );
        assert_eq!(
            PlacementPolicy::Replicated { factor: 2 }.place(&sizes, 2),
            Placement::replicated(&sizes, 2, 2)
        );
    }

    #[test]
    fn validate_rejects_inconsistent_placements() {
        let sizes = vec![2, 3];
        let mut p = Placement::single_owner(&sizes, 2);
        assert!(p.validate(&sizes, 3).is_err(), "node count mismatch");
        assert!(p.validate(&[2], 2).is_err(), "list count mismatch");
        p.replicas_of_list[0].clear();
        assert!(p.validate(&sizes, 2).is_err(), "empty replica set");
        let mut dup = Placement::single_owner(&sizes, 2);
        let holder = dup.replicas_of_list[0][0];
        dup.replicas_of_list[0].push(holder);
        assert!(dup.validate(&sizes, 2).is_err(), "duplicate replica");
        let mut wrong = Placement::single_owner(&sizes, 2);
        wrong.points_per_node[0] += 1;
        assert!(wrong.validate(&sizes, 2).is_err(), "points inconsistent");
    }

    #[test]
    fn more_nodes_than_lists_leaves_some_nodes_empty() {
        let p = Placement::single_owner(&[10, 20], 5);
        let nonempty = p.points_per_node.iter().filter(|&&pts| pts > 0).count();
        assert_eq!(nonempty, 2);
        assert_eq!(p.imbalance(), 2.0);
    }

    #[test]
    fn empty_list_set_is_fine() {
        let p = Placement::single_owner(&[], 3);
        assert_eq!(p.points_per_node, vec![0, 0, 0]);
        assert_eq!(p.imbalance(), 1.0);
        assert_eq!(p.mean_replication(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_rejected() {
        let _ = Placement::single_owner(&[1, 2], 0);
    }
}
