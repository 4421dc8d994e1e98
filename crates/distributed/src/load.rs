//! Per-node load accounting: who did the work, who got the bytes.
//!
//! The routed batch protocol makes load skew a first-class concern — a
//! node owning the popular ownership lists executes most of the groups
//! while the others idle. Two views are provided:
//!
//! * [`NodeLoad`] — the per-node slice of one query or batch, carried in
//!   `DistributedQueryStats::per_node` so every result reports exactly
//!   which nodes worked and how much crossed each link;
//! * [`ClusterLoad`] — cumulative lock-free counters shared behind an
//!   `Arc`, absorbed after every (batch) query, so a live serving engine
//!   can snapshot per-node totals without touching the query path (the
//!   same pattern as `rbc-serve`'s cache counters).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rbc_trace::{Collector, MetricSample};
use serde::{Deserialize, Serialize};

/// Work and traffic attributed to one cluster node by one query or batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// The node this record describes.
    pub node: usize,
    /// Query payloads delivered to this node (distinct queries whose
    /// surviving lists it owns).
    pub queries: u64,
    /// List groups (shared scans) this node executed.
    pub groups: u64,
    /// Distance evaluations this node performed.
    pub evals: u64,
    /// Bytes sent from the coordinator to this node.
    pub bytes_out: u64,
    /// Bytes this node returned to the coordinator.
    pub bytes_in: u64,
}

impl NodeLoad {
    /// An idle record for `node`.
    pub fn idle(node: usize) -> Self {
        Self {
            node,
            ..Self::default()
        }
    }

    /// Total bytes on this node's link, both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_out + self.bytes_in
    }

    /// Adds another record for the same node into this one.
    ///
    /// # Panics
    /// Panics if the records describe different nodes.
    pub fn accumulate(&mut self, other: &NodeLoad) {
        assert_eq!(self.node, other.node, "cannot merge loads of two nodes");
        self.queries += other.queries;
        self.groups += other.groups;
        self.evals += other.evals;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
    }
}

/// Ratio of the busiest node's distance evaluations to the perfectly
/// balanced share (total evaluations over all tracked nodes, idle nodes
/// included). `1.0` means every node did exactly its share; `3.0` means
/// the hottest node did three nodes' worth of work — the factor by which
/// the shard layer's critical path exceeds the ideal, and therefore the
/// parallel speedup lost to placement skew. Returns `1.0` when no work
/// was done at all.
///
/// This is the skew measure used by `shard_bench` and the serving
/// snapshot; it deliberately charges idle nodes (a node doing nothing
/// *is* the skew), unlike a busiest/least-busy-working ratio, which would
/// reward leaving nodes idle.
pub fn eval_skew(loads: &[NodeLoad]) -> f64 {
    let total: u64 = loads.iter().map(|l| l.evals).sum();
    let max = loads.iter().map(|l| l.evals).max().unwrap_or(0);
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let ideal = total as f64 / loads.len() as f64;
    max as f64 / ideal
}

#[derive(Debug, Default)]
struct NodeCounters {
    queries: AtomicU64,
    groups: AtomicU64,
    evals: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

/// Cumulative per-node counters for a shard set, shared behind an `Arc`.
///
/// A `DistributedRbc` owns one and absorbs every query's
/// [`NodeLoad`] records into it; anything holding the `Arc` (the serving
/// engine's metrics, a dashboard) can [`snapshot`](Self::snapshot) the
/// totals at any time. Counters are relaxed atomics — the snapshot is a
/// point-in-time read, not a consistent cut, exactly like the rest of the
/// serving metrics.
///
/// Beyond the per-node counters it carries two more signals of the
/// placement-and-failover layer:
///
/// * **degradation outcomes** ([`record_outcome`](Self::record_outcome)) —
///   cumulative degraded queries, re-routed groups, and lost groups, so a
///   serving snapshot shows whether failover is re-routing cleanly or
///   shedding coverage;
/// * a static **placement summary** (mean replication and storage
///   overhead), set at index build, so the same snapshot shows what the
///   redundancy costs.
#[derive(Debug)]
pub struct ClusterLoad {
    nodes: Vec<NodeCounters>,
    degraded_queries: AtomicU64,
    rerouted_groups: AtomicU64,
    lost_groups: AtomicU64,
    mean_replication: f64,
    storage_overhead: f64,
}

impl ClusterLoad {
    /// Zeroed counters for a cluster of `nodes` nodes with a
    /// replication-free placement summary.
    pub fn new(nodes: usize) -> Self {
        Self::with_placement(nodes, 1.0, 1.0)
    }

    /// Zeroed counters for `nodes` nodes, carrying the placement's static
    /// summary (mean replicas per list, stored-over-primary storage ratio).
    pub fn with_placement(nodes: usize, mean_replication: f64, storage_overhead: f64) -> Self {
        Self {
            nodes: (0..nodes).map(|_| NodeCounters::default()).collect(),
            degraded_queries: AtomicU64::new(0),
            rerouted_groups: AtomicU64::new(0),
            lost_groups: AtomicU64::new(0),
            mean_replication,
            storage_overhead,
        }
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Mean replicas per ownership list in the placement this load
    /// describes (1.0 = single-owner; set at construction).
    pub fn mean_replication(&self) -> f64 {
        self.mean_replication
    }

    /// Stored points over primary points for the placement (1.0 = no
    /// replica storage; set at construction).
    pub fn storage_overhead(&self) -> f64 {
        self.storage_overhead
    }

    /// Records one batch's degradation outcome: how many queries were
    /// flagged degraded, how many groups were re-routed after a mid-batch
    /// node failure, and how many were lost outright (no live replica).
    pub fn record_outcome(&self, degraded: u64, rerouted: u64, lost: u64) {
        self.degraded_queries.fetch_add(degraded, Ordering::Relaxed);
        self.rerouted_groups.fetch_add(rerouted, Ordering::Relaxed);
        self.lost_groups.fetch_add(lost, Ordering::Relaxed);
    }

    /// Cumulative queries answered with a flagged partial (degraded)
    /// result.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries.load(Ordering::Relaxed)
    }

    /// Cumulative groups re-routed to a surviving replica after the node
    /// first contacted failed mid-batch.
    pub fn rerouted_groups(&self) -> u64 {
        self.rerouted_groups.load(Ordering::Relaxed)
    }

    /// Cumulative groups lost because no live replica existed.
    pub fn lost_groups(&self) -> u64 {
        self.lost_groups.load(Ordering::Relaxed)
    }

    /// Adds a batch's per-node records into the cumulative counters.
    /// Records for nodes outside the tracked range are ignored (they can
    /// only come from merging stats of differently-sized clusters).
    pub fn absorb(&self, per_node: &[NodeLoad]) {
        for load in per_node {
            let Some(counters) = self.nodes.get(load.node) else {
                continue;
            };
            counters.queries.fetch_add(load.queries, Ordering::Relaxed);
            counters.groups.fetch_add(load.groups, Ordering::Relaxed);
            counters.evals.fetch_add(load.evals, Ordering::Relaxed);
            counters
                .bytes_out
                .fetch_add(load.bytes_out, Ordering::Relaxed);
            counters
                .bytes_in
                .fetch_add(load.bytes_in, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every node's totals.
    pub fn snapshot(&self) -> Vec<NodeLoad> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(node, c)| NodeLoad {
                node,
                queries: c.queries.load(Ordering::Relaxed),
                groups: c.groups.load(Ordering::Relaxed),
                evals: c.evals.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Collector for ClusterLoad {
    /// Exports the cumulative cluster counters as registry samples under
    /// the `rbc_cluster_*` namespace: per-node work/traffic counters
    /// (labelled `node="<index>"`), the degradation outcome counters, and
    /// the placement summary gauges.
    fn collect(&self) -> Vec<MetricSample> {
        let mut out = Vec::with_capacity(5 * self.nodes.len() + 5);
        for load in self.snapshot() {
            let node = load.node.to_string();
            for (name, value) in [
                ("rbc_cluster_queries_total", load.queries),
                ("rbc_cluster_groups_total", load.groups),
                ("rbc_cluster_evals_total", load.evals),
                ("rbc_cluster_bytes_out_total", load.bytes_out),
                ("rbc_cluster_bytes_in_total", load.bytes_in),
            ] {
                out.push(MetricSample::counter(name, value).with_label("node", &node));
            }
        }
        out.push(MetricSample::counter(
            "rbc_cluster_degraded_queries_total",
            self.degraded_queries(),
        ));
        out.push(MetricSample::counter(
            "rbc_cluster_rerouted_groups_total",
            self.rerouted_groups(),
        ));
        out.push(MetricSample::counter(
            "rbc_cluster_lost_groups_total",
            self.lost_groups(),
        ));
        out.push(MetricSample::gauge(
            "rbc_cluster_mean_replication",
            self.mean_replication(),
        ));
        out.push(MetricSample::gauge(
            "rbc_cluster_storage_overhead",
            self.storage_overhead(),
        ));
        out
    }
}

/// Shared liveness flags for the cluster's nodes, `Arc`-shared like
/// [`ClusterLoad`] so a test harness, a bench, or an operator thread can
/// fail and revive nodes while queries are in flight.
///
/// Two failure modes are modeled:
///
/// * [`fail`](Self::fail) — the node is down *now*: the router never
///   contacts it (its lists are served by surviving replicas, or lost);
/// * [`poison`](Self::poison) — the node dies **at its next contact**:
///   the router, having seen it live, ships it a sub-plan, the "reply"
///   never comes, and the coordinator must re-route the affected groups
///   mid-batch. This is the deterministic stand-in for a node crashing
///   between routing and execution.
#[derive(Debug)]
pub struct NodeHealth {
    live: Vec<AtomicBool>,
    poisoned: Vec<AtomicBool>,
}

impl NodeHealth {
    /// All nodes live, none poisoned.
    pub fn new(nodes: usize) -> Self {
        Self {
            live: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            poisoned: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.live.len()
    }

    /// Whether `node` is currently live. Out-of-range nodes are dead.
    pub fn is_live(&self, node: usize) -> bool {
        self.live
            .get(node)
            .is_some_and(|l| l.load(Ordering::Relaxed))
    }

    /// Marks `node` as down: the router stops contacting it immediately.
    pub fn fail(&self, node: usize) {
        if let Some(live) = self.live.get(node) {
            live.store(false, Ordering::Relaxed);
        }
    }

    /// Brings `node` back (and clears any pending poison).
    pub fn revive(&self, node: usize) {
        if let Some(live) = self.live.get(node) {
            live.store(true, Ordering::Relaxed);
        }
        if let Some(poison) = self.poisoned.get(node) {
            poison.store(false, Ordering::Relaxed);
        }
    }

    /// Arms `node` to fail at its **next contact** — the mid-batch crash:
    /// the router sees it live, sends it work, and the contact fails.
    pub fn poison(&self, node: usize) {
        if let Some(poison) = self.poisoned.get(node) {
            poison.store(true, Ordering::Relaxed);
        }
    }

    /// One liveness flag per node, a point-in-time routing view.
    pub fn live_view(&self) -> Vec<bool> {
        self.live
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    /// Attempts to deliver work to `node`; returns whether the contact
    /// succeeded. A poisoned node fails exactly here — the poison fires
    /// once, the node goes down, and the caller must re-route.
    pub fn contact(&self, node: usize) -> bool {
        let Some(poison) = self.poisoned.get(node) else {
            return false;
        };
        if poison.swap(false, Ordering::Relaxed) {
            self.live[node].store(false, Ordering::Relaxed);
            return false;
        }
        self.live[node].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_and_snapshot_reads_back() {
        let load = ClusterLoad::new(3);
        load.absorb(&[
            NodeLoad {
                node: 0,
                queries: 2,
                groups: 3,
                evals: 10,
                bytes_out: 100,
                bytes_in: 40,
            },
            NodeLoad::idle(1),
        ]);
        load.absorb(&[NodeLoad {
            node: 0,
            queries: 1,
            groups: 1,
            evals: 5,
            bytes_out: 50,
            bytes_in: 20,
        }]);
        let snap = load.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].queries, 3);
        assert_eq!(snap[0].evals, 15);
        assert_eq!(snap[0].bytes_total(), 210);
        assert_eq!(snap[1], NodeLoad::idle(1));
        assert_eq!(snap[2], NodeLoad::idle(2));
    }

    #[test]
    fn out_of_range_records_are_ignored() {
        let load = ClusterLoad::new(1);
        load.absorb(&[NodeLoad {
            node: 7,
            evals: 100,
            ..NodeLoad::default()
        }]);
        assert_eq!(load.snapshot()[0].evals, 0);
    }

    #[test]
    fn accumulate_merges_same_node_records() {
        let mut a = NodeLoad {
            node: 2,
            queries: 1,
            groups: 2,
            evals: 3,
            bytes_out: 4,
            bytes_in: 5,
        };
        a.accumulate(&NodeLoad {
            node: 2,
            queries: 10,
            groups: 20,
            evals: 30,
            bytes_out: 40,
            bytes_in: 50,
        });
        assert_eq!(a.queries, 11);
        assert_eq!(a.bytes_total(), 99);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn accumulate_rejects_mismatched_nodes() {
        let mut a = NodeLoad::idle(0);
        a.accumulate(&NodeLoad::idle(1));
    }

    #[test]
    fn list_traffic_and_outcomes_accumulate() {
        // Per-list traffic is no longer counted; the placement summary and
        // the degradation outcomes are what a load still carries.
        let load = ClusterLoad::with_placement(2, 2.0, 1.5);
        assert_eq!(load.mean_replication(), 2.0);
        assert_eq!(load.storage_overhead(), 1.5);
        load.record_outcome(3, 2, 1);
        load.record_outcome(1, 0, 0);
        assert_eq!(load.degraded_queries(), 4);
        assert_eq!(load.rerouted_groups(), 2);
        assert_eq!(load.lost_groups(), 1);
    }

    #[test]
    fn untracked_lists_report_empty_traffic() {
        // A load built without a placement reports a replication-free
        // summary and no degradation.
        let load = ClusterLoad::new(2);
        assert_eq!(load.mean_replication(), 1.0);
        assert_eq!(load.storage_overhead(), 1.0);
        assert_eq!(load.degraded_queries(), 0);
        assert_eq!(load.rerouted_groups(), 0);
        assert_eq!(load.lost_groups(), 0);
        assert_eq!(load.snapshot(), vec![NodeLoad::idle(0), NodeLoad::idle(1)]);
    }

    #[test]
    fn health_failure_and_revival_flow_through_the_routing_view() {
        let health = NodeHealth::new(3);
        assert_eq!(health.nodes(), 3);
        assert_eq!(health.live_view(), vec![true; 3]);
        health.fail(1);
        assert!(!health.is_live(1));
        assert_eq!(health.live_view(), vec![true, false, true]);
        assert!(!health.contact(1), "a dead node cannot be contacted");
        health.revive(1);
        assert!(health.contact(1));
        assert!(!health.is_live(7), "out-of-range nodes are dead");
        assert!(!health.contact(7));
    }

    #[test]
    fn poison_fires_exactly_once_at_contact_time() {
        let health = NodeHealth::new(2);
        health.poison(0);
        assert!(health.is_live(0), "poison is invisible until contact");
        assert!(!health.contact(0), "first contact fails");
        assert!(!health.is_live(0), "the node is down afterwards");
        assert!(!health.contact(0), "and stays down");
        health.revive(0);
        assert!(health.contact(0), "revival clears the poison");
    }

    #[test]
    fn eval_skew_is_the_busiest_over_the_ideal_share() {
        let loads = vec![
            NodeLoad {
                node: 0,
                evals: 90,
                ..NodeLoad::default()
            },
            NodeLoad {
                node: 1,
                evals: 30,
                ..NodeLoad::default()
            },
            NodeLoad::idle(2),
        ];
        // total 120 over 3 nodes -> ideal 40; busiest 90 -> 2.25. The
        // idle node counts: leaving a node idle IS the skew.
        assert_eq!(eval_skew(&loads), 2.25);
        let balanced = vec![
            NodeLoad {
                node: 0,
                evals: 50,
                ..NodeLoad::default()
            },
            NodeLoad {
                node: 1,
                evals: 50,
                ..NodeLoad::default()
            },
        ];
        assert_eq!(eval_skew(&balanced), 1.0);
        assert_eq!(eval_skew(&[NodeLoad::idle(0)]), 1.0);
        assert_eq!(eval_skew(&[]), 1.0);
    }
}
