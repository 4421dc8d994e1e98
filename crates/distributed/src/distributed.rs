//! The distributed RBC index and its query protocols.

use std::sync::Arc;

use rayon::prelude::*;

use rbc_bruteforce::{Neighbor, TopK};
use rbc_core::batch_plan::{BatchPlan, ListBuckets, ListGroup, PhaseExecutor};
use rbc_core::{ExactRbc, SearchIndex};
use rbc_metric::{Dataset, Dist, Metric, QueryBatch};
use serde::Serialize;

use crate::cluster::{ClusterConfig, CommCost};
use crate::load::{ClusterLoad, NodeHealth, NodeLoad};
use crate::net::codec::{QueryReply, QueryRequest, WireGroup};
use crate::net::endpoint::{InFlight, NetError, NodeEndpoint};
use crate::net::server::{LocalNode, NodeShard};
use crate::placement::{Placement, PlacementPolicy};

/// What a batch's fan-out rounds have done so far, accumulated over both
/// rounds and their failover retries.
struct Ledger {
    /// Estimated evaluations per node — its cumulative observed load
    /// (`ClusterLoad`) plus the work routed to it this batch — which the
    /// least-loaded router balances, so a hot group that spiked one replica
    /// last batch is steered to another one this batch.
    est: Vec<u64>,
    per_node: Vec<NodeLoad>,
    comm: CommCost,
    lists_scanned: u64,
    rerouted_groups: u64,
    /// Groups no live replica could take.
    lost: Vec<ListGroup>,
}

/// Work and communication performed by one distributed query (or a batch).
///
/// Serialisable so benchmark harnesses (`shard_bench`, `trajectory`) can
/// embed the raw record in their JSON reports.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct DistributedQueryStats {
    /// Ownership-list groups actually executed across all contacted
    /// nodes. Under the batched protocol each shared (list, group) scan
    /// counts once, however many queries of the batch it served; lost
    /// groups are *not* counted here (see [`lost_groups`](Self::lost_groups)).
    pub lists_scanned: u64,
    /// Distance evaluations performed on the coordinator (representative
    /// scan).
    pub coordinator_evals: u64,
    /// Distance evaluations performed on worker nodes.
    pub worker_evals: u64,
    /// Distance evaluations on the most heavily loaded contacted node —
    /// the per-query (or per-batch) critical path, since nodes work in
    /// parallel.
    pub max_node_evals: u64,
    /// The frames exchanged with worker nodes. `comm.messages_out` counts
    /// *per-round* contacts: a node contacted in a fan-out round
    /// contributes 1, however many queries it served. A batch has two
    /// rounds (the owners of the queries' nearest lists, then the rest),
    /// so a live node is contacted at most twice per batch; a failover
    /// retry contributes one more contact per re-contacted node.
    pub comm: CommCost,
    /// Queries aggregated into this record.
    pub queries: u64,
    /// Groups re-routed to a surviving replica after their first node
    /// failed mid-batch.
    pub rerouted_groups: u64,
    /// Groups lost outright: every replica of their list was dead, so the
    /// affected queries were answered with a flagged partial result.
    pub lost_groups: u64,
    /// Per-query degradation flags, one per query aggregated (in
    /// aggregation order): `true` when that query lost at least one group
    /// and its answer is the flagged, provably-correct partial described
    /// on [`DistributedRbc::query_batch_exact`].
    pub degraded: Vec<bool>,
    /// Per-node work and traffic, indexed by node (`per_node[i].node == i`),
    /// so load skew across the shards is observable. Idle nodes are
    /// present with zeroed counters.
    pub per_node: Vec<NodeLoad>,
}

impl DistributedQueryStats {
    /// Total distance evaluations across coordinator and workers.
    pub fn total_evals(&self) -> u64 {
        self.coordinator_evals + self.worker_evals
    }

    /// Queries answered with a flagged partial (degraded) result.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded.iter().filter(|&&d| d).count() as u64
    }

    /// Merges another record (e.g. one batch of a stream) into this one.
    pub fn merge(&mut self, other: &Self) {
        self.lists_scanned += other.lists_scanned;
        self.coordinator_evals += other.coordinator_evals;
        self.worker_evals += other.worker_evals;
        self.max_node_evals = self.max_node_evals.max(other.max_node_evals);
        self.comm.merge(&other.comm);
        self.queries += other.queries;
        self.rerouted_groups += other.rerouted_groups;
        self.lost_groups += other.lost_groups;
        self.degraded.extend_from_slice(&other.degraded);
        if self.per_node.len() < other.per_node.len() {
            let start = self.per_node.len();
            self.per_node
                .extend((start..other.per_node.len()).map(NodeLoad::idle));
        }
        for load in &other.per_node {
            self.per_node[load.node].accumulate(load);
        }
    }

    /// Mean number of nodes contacted per query (`comm.messages_out` over
    /// `queries`). Under the batched protocol a node serving many queries
    /// of one batch is counted once per fan-out round, so this measures
    /// fan-out messages, not query routings (see
    /// [`per_node`](Self::per_node) for the latter).
    pub fn nodes_contacted_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.comm.messages_out as f64 / self.queries as f64
        }
    }
}

/// A Random Ball Cover sharded across the nodes of a cluster by
/// representative, as sketched in the paper's conclusion — with
/// replicated, skew-aware placement and failover routing on top.
#[derive(Clone, Debug)]
pub struct DistributedRbc<D: Dataset, M> {
    rbc: ExactRbc<D, M>,
    cluster: ClusterConfig,
    placement: Placement,
    /// Number of coordinates serialized when a query is shipped to a node
    /// (the vector dimension for dense data).
    payload_coords: usize,
    /// Cumulative per-node counters; `Arc`-shared so clones of this index
    /// (and anything serving it) observe the same totals.
    load: Arc<ClusterLoad>,
    /// Shared liveness flags; `Arc`-shared so failures injected from a
    /// test, a bench, or an operator thread are seen by every clone.
    health: Arc<NodeHealth>,
    /// Node `i`'s shard of the index, by node.
    shards: Vec<Arc<NodeShard<M>>>,
    /// The endpoint each node is contacted through, by node: a
    /// [`LocalNode`] over `shards[i]`, until
    /// [`with_endpoints`](Self::with_endpoints) replaces them.
    nodes: Vec<Arc<dyn NodeEndpoint>>,
}

impl<D, M> DistributedRbc<D, M>
where
    D: Dataset<Item = [f32]>,
    M: Metric<[f32]> + Clone + Send + Sync + 'static,
{
    /// Distributes an already-built exact RBC across `cluster.nodes` nodes
    /// with the balanced single-owner (LPT) placement — the
    /// replication-free baseline.
    ///
    /// `payload_coords` is the query dimension that sizes request frames
    /// in [`DistributedQueryStats::comm`]; it never affects the answers.
    ///
    /// # Panics
    /// Panics if `cluster` has zero nodes.
    pub fn from_exact(rbc: ExactRbc<D, M>, cluster: ClusterConfig, payload_coords: usize) -> Self {
        Self::from_exact_with_policy(rbc, cluster, PlacementPolicy::SingleOwner, payload_coords)
    }

    /// Distributes an already-built exact RBC with the placement built by
    /// `policy` (cold: no traffic observed yet, so the skew-aware policy
    /// falls back to list sizes as its heat proxy — see
    /// [`repartitioned`](Self::repartitioned) for the warm path).
    ///
    /// # Panics
    /// Panics if `cluster` has zero nodes.
    pub fn from_exact_with_policy(
        rbc: ExactRbc<D, M>,
        cluster: ClusterConfig,
        policy: PlacementPolicy,
        payload_coords: usize,
    ) -> Self {
        let list_sizes: Vec<usize> = rbc.lists().iter().map(|l| l.len()).collect();
        let placement = policy.place(&list_sizes, &[], cluster.nodes);
        Self::from_exact_with_placement(rbc, cluster, placement, payload_coords)
    }

    /// Distributes an already-built exact RBC with an explicit
    /// [`Placement`] — for studying skewed placements, draining a node, or
    /// replaying a placement recorded elsewhere. Each node's shard
    /// ([`NodeShard`]) is built here and served in this process until
    /// [`with_endpoints`](Self::with_endpoints) replaces the endpoints.
    ///
    /// # Panics
    /// Panics if the placement fails [`Placement::validate`] against this
    /// structure's ownership lists and `cluster.nodes` nodes (an empty
    /// cluster included).
    pub fn from_exact_with_placement(
        rbc: ExactRbc<D, M>,
        cluster: ClusterConfig,
        placement: Placement,
        payload_coords: usize,
    ) -> Self {
        let list_sizes: Vec<usize> = rbc.lists().iter().map(|l| l.len()).collect();
        placement
            .validate(&list_sizes, cluster.nodes)
            .unwrap_or_else(|error| panic!("invalid Placement: {error}"));
        let primary_points: usize = list_sizes.iter().sum();
        let load = Arc::new(ClusterLoad::with_placement(
            cluster.nodes,
            list_sizes.len(),
            placement.mean_replication(),
            placement.storage_overhead(primary_points),
        ));
        let health = Arc::new(NodeHealth::new(cluster.nodes));
        let shards: Vec<Arc<NodeShard<M>>> = (0..cluster.nodes)
            .map(|node| Arc::new(NodeShard::from_exact(&rbc, &placement, node)))
            .collect();
        let nodes = shards
            .iter()
            .map(|shard| {
                Arc::new(LocalNode {
                    shard: Arc::clone(shard),
                    health: Arc::clone(&health),
                }) as Arc<dyn NodeEndpoint>
            })
            .collect();
        Self {
            rbc,
            cluster,
            placement,
            payload_coords,
            load,
            health,
            shards,
            nodes,
        }
    }

    /// Contacts every node through `endpoints[i]` instead of its
    /// in-process shard — one [`NodeEndpoint`] per cluster node, for
    /// example the framed-TCP clients of [`crate::net`]. The protocol,
    /// the answers and the counted frames do not change: every contact
    /// was already a [`QueryRequest`] to an endpoint.
    ///
    /// An endpoint's failure is whatever its exchange reports — over TCP
    /// a missed deadline — and the coordinator then marks the node dead.
    /// [`fail_node`](Self::fail_node) / [`revive_node`](Self::revive_node)
    /// still drain and restore nodes (routing consults the shared
    /// liveness view), but [`poison_node`](Self::poison_node) only arms
    /// the in-process endpoints, which these replace: the remote
    /// equivalent is a peer that hangs or drops, injected on the server
    /// side (see `NodeServer::arm_hang`).
    ///
    /// # Panics
    /// Panics if the endpoint count does not match the cluster size.
    pub fn with_endpoints(mut self, endpoints: Vec<Arc<dyn NodeEndpoint>>) -> Self {
        assert_eq!(
            endpoints.len(),
            self.cluster.nodes,
            "one endpoint per cluster node"
        );
        self.nodes = endpoints;
        self
    }

    /// The nodes' shards, by node.
    pub(crate) fn shards(&self) -> &[Arc<NodeShard<M>>] {
        &self.shards
    }

    /// The underlying (coordinator-side) RBC.
    pub fn rbc(&self) -> &ExactRbc<D, M> {
        &self.rbc
    }

    /// The cluster's size.
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster
    }

    /// The list-to-replica placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The cumulative per-node load counters, shared behind an `Arc` so a
    /// serving layer can snapshot them live (see
    /// `rbc_serve::ServeMetrics::track_cluster`).
    pub fn load(&self) -> Arc<ClusterLoad> {
        Arc::clone(&self.load)
    }

    /// The shared node liveness flags, for failing/poisoning/reviving
    /// nodes from outside the query path (see also the
    /// [`fail_node`](Self::fail_node) conveniences).
    pub fn health(&self) -> Arc<NodeHealth> {
        Arc::clone(&self.health)
    }

    /// Marks `node` as down: the router stops contacting it immediately
    /// and its lists are served by surviving replicas (or degraded).
    pub fn fail_node(&self, node: usize) {
        self.health.fail(node);
    }

    /// Arms `node` to fail at its next contact — the mid-batch crash: the
    /// router ships it a sub-plan, the reply never comes, and the affected
    /// groups are re-routed to surviving replicas within the same batch.
    /// Only the in-process endpoints consult the arming; endpoints attached
    /// with [`with_endpoints`](Self::with_endpoints) fail by their own
    /// transport.
    pub fn poison_node(&self, node: usize) {
        self.health.poison(node);
    }

    /// Brings `node` back into the routable set.
    pub fn revive_node(&self, node: usize) {
        self.health.revive(node);
    }

    /// Observed per-list routed-group frequencies — the traffic signal
    /// that steers skew-aware replication.
    pub fn observed_list_traffic(&self) -> Vec<u64> {
        self.load.list_traffic()
    }

    /// Splits atomic hot spots before routing. A `(list, queries)` group
    /// is the routing atom, so one hot list selected by most of the batch
    /// lands on a *single* replica however many homes the list has —
    /// replication then bounds storage skew but not work skew. When a
    /// group's estimated scan work (queries × list length) exceeds the
    /// batch's per-node fair share and its list has more than one live
    /// replica, the group's queries are partitioned into up to
    /// replica-count chunks; the least-loaded-replica router downstream
    /// then spreads the chunks across the list's homes.
    ///
    /// Answers are unchanged: each query still scans the full list
    /// exactly once (on whichever node got its chunk), and the
    /// coordinator reduce merges per-query partials from every executed
    /// sub-plan, so splitting changes *where* candidates are computed,
    /// never *which*. The cost is extra shared-tile passes over the hot
    /// list (one per chunk instead of one total), which is exactly the
    /// trade the split makes: tile sharing for critical-path parallelism.
    fn split_hot_groups(&self, plan: &BatchPlan, live: &[bool]) -> Option<BatchPlan> {
        let live_nodes = live.iter().filter(|&&up| up).count().max(1);
        let cost_of = |group: &ListGroup| self.scan_cost(group);
        let total: u64 = plan.groups.iter().map(cost_of).sum();
        let fair = (total / live_nodes as u64).max(1);
        let homes = |group: &ListGroup| {
            let replicas = self.placement.replicas_of_list[group.list_index].iter();
            replicas.filter(|&&nd| live[nd]).count()
        };
        let splittable = |group: &ListGroup| {
            group.queries.len() >= 2 && cost_of(group) > fair && homes(group) > 1
        };
        if !plan.groups.iter().any(splittable) {
            return None;
        }
        let mut groups = Vec::with_capacity(plan.groups.len() + live_nodes);
        for group in &plan.groups {
            if !splittable(group) {
                groups.push(group.clone());
                continue;
            }
            let ways = (cost_of(group).div_ceil(fair) as usize)
                .min(homes(group))
                .min(group.queries.len());
            let chunk = group.queries.len().div_ceil(ways);
            for part in group.queries.chunks(chunk) {
                groups.push(ListGroup {
                    list_index: group.list_index,
                    queries: part.to_vec(),
                });
            }
        }
        Some(BatchPlan {
            groups,
            queries: plan.queries,
        })
    }

    /// A group's estimated scan work: queries × list length (at least 1).
    fn scan_cost(&self, group: &ListGroup) -> u64 {
        (group.queries.len() * self.rbc.lists()[group.list_index].len().max(1)) as u64
    }

    /// Routes a plan's groups to replicas: each group goes to the
    /// least-loaded **live** replica of its list (load = estimated
    /// evaluations already routed this batch, accumulated in `est`; ties
    /// toward the lower node id). Oversized groups of replicated lists
    /// are first split across replicas (see
    /// [`split_hot_groups`](Self::split_hot_groups)). Groups whose
    /// replicas are all dead come back unroutable.
    fn route_parts(
        &self,
        plan: &BatchPlan,
        live: &[bool],
        est: &mut [u64],
    ) -> (Vec<BatchPlan>, Vec<ListGroup>) {
        let split = self.split_hot_groups(plan, live);
        let plan = split.as_ref().unwrap_or(plan);
        plan.split_routed(self.cluster.nodes, |group| {
            let cost = self.scan_cost(group);
            let chosen = self.placement.replicas_of_list[group.list_index]
                .iter()
                .copied()
                .filter(|&nd| live[nd])
                .min_by_key(|&nd| (est[nd], nd))?;
            est[chosen] += cost;
            Some(chosen)
        })
    }

    /// Exact distributed k-NN for one query — the batched protocol run on
    /// a batch of one: stage 1 on the coordinator, the nearest surviving
    /// list scanned on its owner, then the lists the returned threshold
    /// still admits, each routed to the least-loaded live replica, partial
    /// top-k results merged with the representative candidates. Inherits
    /// the full failover
    /// behaviour of [`query_batch_exact`](Self::query_batch_exact),
    /// including flagged partial answers when an unreplicated list's node
    /// is down.
    pub fn query_exact(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, DistributedQueryStats) {
        let (mut results, stats) = self.query_batch_exact(&QueryBatch::new(&[query]), k);
        (results.pop().expect("one query in, one answer out"), stats)
    }

    /// Batched exact distributed k-NN — the centralized search run with its
    /// two phases as fan-out rounds, and replica-aware failover.
    ///
    /// **Stage 1** runs **once** on the coordinator and is the centralized
    /// search's own ([`ExactRbc::stage1`]): each query gets a collector
    /// seeded with the representatives (threshold `γ_k`) and a row of the
    /// lists the paper's pruning rules keep. No `n_q × n_r` matrix is kept.
    ///
    /// **Stage 2** is the centralized search's driver
    /// ([`Candidates::nearest_then_rest`]) with fan-out rounds as its
    /// executor. **Round 1** sends each query's *nearest* surviving list
    /// to that list's owner, capped by `γ_k` — where Theorem 2 says its
    /// neighbours most likely are. Between the rounds the driver reads
    /// each query's `τ_q = min(γ_k, k-th candidate so far)` from the
    /// merged collectors and drops every remaining list whose run `τ_q`
    /// already empties. **Round 2** sends what is left, capped by `τ_q`.
    /// Every cut is at a strict threshold a true top-k point satisfies, so
    /// at `epsilon == 0` the answers are exact; with `epsilon > 0` every
    /// cut is `(1+ε)`-relaxed and answers honour that factor.
    ///
    /// In each round the groups are routed by policy
    /// ([`BatchPlan::split_routed`]): each group goes to the least-loaded
    /// **live** replica of its list, so a replicated hot list spreads its
    /// groups across all of its homes instead of melting one node. Every
    /// node contacted in a round receives **one** [`QueryRequest`] carrying
    /// the distinct queries its groups need; its [`NodeShard`] runs the
    /// same driver over its own pairs, with the in-process group scans
    /// ([`Stage2::nearest_then_rest`]) as the executor, and replies with
    /// per-query partial top-k results.
    ///
    /// [`Candidates::nearest_then_rest`]: rbc_core::batch_plan::Candidates::nearest_then_rest
    /// [`Stage2::nearest_then_rest`]: rbc_core::batch_plan::Stage2::nearest_then_rest
    ///
    /// **Failover.** A node that dies mid-batch (its contact fails — see
    /// [`NodeHealth::poison`]) never replies; the coordinator re-routes
    /// the lost groups to surviving replicas and retries within the same
    /// round, paying one more fan-out
    /// ([`DistributedQueryStats::rerouted_groups`]). A group whose
    /// replicas are **all** dead, in either round, is lost
    /// ([`lost_groups`](DistributedQueryStats::lost_groups)); each
    /// affected query is answered with a **flagged partial answer**
    /// (`degraded[qi] == true`): the representative candidates plus every
    /// surviving group's candidates, truncated to the distances provably
    /// unaffected by the lost lists — every point of a lost list `ℓ` is at
    /// distance `≥ ρ(q, rep_ℓ) − ψ_ℓ` by the triangle inequality (`ρ` read
    /// from the query's row, of which a lost list is always an entry), so at
    /// `epsilon == 0` every returned neighbor strictly inside that bound
    /// is guaranteed to be a true member of the exact top-k, in true rank
    /// order (the degraded answer is a *prefix* of the exact answer,
    /// possibly shorter than `k`, possibly empty). With `epsilon > 0` the
    /// surviving nodes' `(1+ε)`-shrunk cuts may legitimately substitute
    /// eligible near-neighbors inside the margin, exactly as in the
    /// non-degraded case, so the prefix guarantee is scoped to `ε = 0`
    /// like the bit-identity below.
    ///
    /// With every node live the answers are bit-identical to the
    /// centralized [`ExactRbc::query_batch_k`] (and hence to brute force)
    /// at `epsilon == 0`, **whatever the replication factor**: replication
    /// changes where a group executes, never whether; every dynamic
    /// threshold only ever prunes points strictly worse than the true k-th
    /// neighbor, and the deterministic `(distance, index)` order makes
    /// merging per-node partial top-k sets equivalent to one global top-k.
    ///
    /// Each round is one exchange with its contacted nodes on the calling
    /// thread: every request is sent ([`NodeEndpoint::send`]) before any
    /// reply is read, in contact order, so nodes that can split an
    /// exchange — over TCP, [`with_endpoints`](Self::with_endpoints) —
    /// scan at the same time. A node whose exchange fails is marked dead
    /// and its groups take the failover path above; every other exchange
    /// of the round is still read. Endpoints that cannot split an exchange
    /// (the provided `send`, which the in-process nodes keep) make their
    /// blocking calls on the rayon pool instead.
    ///
    /// Communication is counted in frames ([`DistributedQueryStats::comm`]):
    /// one request frame per contacted node per fan-out round rather than
    /// one message per `(query, node)` pair, so headers amortise and bytes
    /// on the wire grow sublinearly in batch size — at most two requests
    /// per live node per batch, plus failover retries. A contact that
    /// replies adds one reply frame; a failed contact's request is counted
    /// (the link carried it) with no reply. Each frame counts at its
    /// encoded size ([`QueryRequest::frame_bytes`],
    /// [`QueryReply::frame_bytes`]) whatever the endpoint, so over the
    /// wire the count equals the bytes the sockets carried. Per-node work
    /// and traffic are reported in [`DistributedQueryStats::per_node`].
    ///
    /// A `k` above the database size is served as `k = n`: every point,
    /// which is what any `k ≥ n` returns.
    ///
    /// # Panics
    /// Panics if `k == 0`. The request frame carries `k` and each node's
    /// query-table slots as `u16`, so it also panics if `min(k, n)` exceeds
    /// 65 535, or if one node is sent more than 65 535 distinct queries in
    /// one round.
    pub fn query_batch_exact<Q>(
        &self,
        queries: &Q,
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, DistributedQueryStats)
    where
        Q: Dataset<Item = [f32]>,
    {
        assert!(k > 0, "k must be at least 1");
        let k = k.min(self.rbc.database().len());
        let nq = queries.len();
        if nq == 0 {
            return (Vec::new(), DistributedQueryStats::default());
        }
        let lists = self.rbc.lists();

        // Stage 1, coordinator: the in-process search's own — one dense
        // BF(Q, R) whose rows meet the γ_k rules where they are scored.
        let plan_span = rbc_trace::span("dist.plan");
        let (seeds, candidates, rep_stats) = self.rbc.stage1(queries, k);
        let gamma_k: Vec<Dist> = seeds.iter().map(TopK::threshold).collect();
        drop(plan_span);

        // Stage 2: the in-process search's two phases, each a fan-out round.
        let mut rounds = Rounds {
            index: self,
            queries,
            k,
            collectors: seeds,
            ledger: Ledger {
                est: self.load.snapshot().iter().map(|l| l.evals).collect(),
                per_node: (0..self.cluster.nodes).map(NodeLoad::idle).collect(),
                comm: CommCost::default(),
                lists_scanned: 0,
                rerouted_groups: 0,
                lost: Vec::new(),
            },
        };
        let scan_span = rbc_trace::span("dist.scan");
        let shrink = 1.0 + self.rbc.config().epsilon;
        candidates.nearest_then_rest(&gamma_k, shrink, self.rbc.list_bounds(), &mut rounds);
        drop(scan_span);
        let merge_span = rbc_trace::span("dist.merge");
        let (collectors, ledger) = (rounds.collectors, rounds.ledger);

        // Degradation: queries with groups lost in either round are
        // answered with the provably-unaffected prefix. Every point of lost
        // list ℓ is at distance ≥ ρ(q, rep_ℓ) − ψ_ℓ, so candidates strictly
        // inside the smallest such bound keep their exact rank. A lost list
        // is an entry of each of its queries' rows, which hold ρ(q, rep_ℓ).
        let mut degraded = vec![false; nq];
        let mut cutoff = vec![Dist::INFINITY; nq];
        for group in &ledger.lost {
            let list = group.list_index;
            for &qi in &group.queries {
                degraded[qi] = true;
                let row = &candidates.rows[qi];
                let (_, to_rep) = row[row.partition_point(|&(l, _)| l < list)];
                cutoff[qi] = cutoff[qi].min(to_rep - lists[list].radius);
            }
        }

        // Coordinator reduce: seeds and both rounds are merged; apply the
        // degraded truncation.
        let results: Vec<Vec<Neighbor>> = collectors
            .into_iter()
            .zip(degraded.iter().zip(cutoff))
            .map(|(topk, (&degraded, cutoff))| {
                let mut sorted = topk.into_sorted();
                if degraded {
                    sorted.retain(|n| n.dist < cutoff);
                }
                sorted
            })
            .collect();
        drop(merge_span);

        let per_node = ledger.per_node;
        let stats = DistributedQueryStats {
            lists_scanned: ledger.lists_scanned,
            coordinator_evals: rep_stats.distance_evals,
            worker_evals: per_node.iter().map(|l| l.evals).sum(),
            max_node_evals: per_node.iter().map(|l| l.evals).max().unwrap_or(0),
            comm: ledger.comm,
            queries: nq as u64,
            rerouted_groups: ledger.rerouted_groups,
            lost_groups: ledger.lost.len() as u64,
            degraded,
            per_node,
        };
        self.load.absorb(&stats.per_node);
        self.load.record_outcome(
            stats.degraded_queries(),
            stats.rerouted_groups,
            stats.lost_groups,
        );
        (results, stats)
    }

    /// One fan-out round as one exchange on this thread: every contacted
    /// node's request is sent, and only then are the replies read, in
    /// contact order. Nodes that split the exchange therefore scan at the
    /// same time, and no pool thread blocks on a socket. Sends go out in
    /// ascending node order, so rounds that share endpoints take their
    /// connection locks in one order.
    ///
    /// A node whose exchange fails — a missed deadline included, most
    /// importantly from a peer that hangs mid-frame — has no reply
    /// (`None`). A failure never abandons another node's exchange: every
    /// sent request is read (or its connection dropped) before the round
    /// returns. An endpoint whose [`send`](NodeEndpoint::send) defers
    /// ([`InFlight::Deferred`]) sent nothing; its blocking call runs on
    /// the pool, under a `dist.node` span of its own.
    fn wire_round(
        &self,
        contacted: &[usize],
        requests: &[(QueryRequest, Vec<usize>)],
        scan_ctx: Option<rbc_trace::SpanCtx>,
    ) -> Vec<Option<QueryReply>> {
        let mut sent = Vec::with_capacity(contacted.len());
        let mut deferred = Vec::new();
        for (slot, (&nd, (request, _))) in contacted.iter().zip(requests).enumerate() {
            // The node's span runs from its send to its decoded reply, with
            // the exchange's `net.send` and `net.recv` under it.
            let node_span = rbc_trace::span_under("dist.node", scan_ctx);
            match self.nodes[nd].send(request) {
                InFlight::Sent(reply) => sent.push((slot, node_span, reply)),
                InFlight::Deferred(call) => {
                    node_span.discard();
                    deferred.push((slot, call));
                }
            }
        }
        let mut replies: Vec<Option<QueryReply>> = vec![None; contacted.len()];
        let called: Vec<(usize, Result<QueryReply, NetError>)> = deferred
            .into_par_iter()
            .map(|(slot, call)| {
                let _node_span = rbc_trace::span_under("dist.node", scan_ctx);
                (slot, call())
            })
            .collect();
        for (slot, result) in called {
            replies[slot] = result.ok();
        }
        for (slot, node_span, reply) in sent {
            replies[slot] = reply().ok();
            drop(node_span);
        }
        replies
    }
}

/// A batch's fan-out rounds — the cluster as the executor of the exact
/// search's two phases: each phase's pairs are routed to the nodes and
/// their replies merged into the batch's representative-seeded collectors.
/// A round's caps are the collectors' thresholds as it starts: `γ_k` in
/// round one, `τ_q` in round two.
struct Rounds<'a, D: Dataset, M, Q> {
    index: &'a DistributedRbc<D, M>,
    queries: &'a Q,
    k: usize,
    collectors: Vec<TopK>,
    ledger: Ledger,
}

impl<D, M, Q> PhaseExecutor for Rounds<'_, D, M, Q>
where
    D: Dataset<Item = [f32]>,
    M: Metric<[f32]> + Clone + Send + Sync + 'static,
    Q: Dataset<Item = [f32]>,
{
    const REPLAN_SPAN: &'static str = "dist.replan";

    /// One fan-out round: routes the phase's groups (see
    /// [`route_parts`](DistributedRbc::route_parts)), sends every contacted
    /// node its sub-plan as one [`QueryRequest`]
    /// ([`wire_round`](DistributedRbc::wire_round)) and merges every reply's
    /// per-query partial top-k into the collectors. A contact that fails
    /// (the node died after routing) yields no reply; its node is marked
    /// dead and its groups are re-routed to surviving replicas and retried
    /// until each has executed or is lost. Work, traffic and losses go to
    /// the ledger.
    fn scan(&mut self, buckets: &ListBuckets) {
        let index = self.index;
        let caps = self.thresholds();
        let plan = BatchPlan::from_pairs(buckets.pairs(), caps.len(), index.rbc.lists());
        // Node spans may close on other threads (deferred calls run on
        // rayon threads); capture the enclosing scan span's context here
        // so each one parents under it.
        let scan_ctx = rbc_trace::current();
        let mut retry: Option<BatchPlan> = None;
        loop {
            let route_span = rbc_trace::span("dist.route");
            let live = index.health.live_view();
            let round = retry.as_ref().unwrap_or(&plan);
            let (mut parts, lost) = index.route_parts(round, &live, &mut self.ledger.est);
            drop(route_span);
            self.ledger.lost.extend(lost);
            if retry.is_some() {
                let rerouted = parts.iter().map(|p| p.groups.len() as u64);
                self.ledger.rerouted_groups += rerouted.sum::<u64>();
            }
            let contacted: Vec<usize> = (0..index.cluster.nodes)
                .filter(|&nd| !parts[nd].groups.is_empty())
                .collect();
            let requests: Vec<(QueryRequest, Vec<usize>)> = contacted
                .iter()
                .map(|&nd| self.wire_request(&parts[nd], &caps))
                .collect();
            let replies = index.wire_round(&contacted, &requests, scan_ctx);

            let ledger = &mut self.ledger;
            let mut failed: Vec<ListGroup> = Vec::new();
            for ((&nd, (_, positions)), reply) in contacted.iter().zip(&requests).zip(replies) {
                let part = std::mem::take(&mut parts[nd]);
                let payload = positions.len();
                let out_bytes =
                    QueryRequest::frame_bytes(payload, index.payload_coords, part.groups.len());
                ledger.comm.messages_out += 1;
                ledger.comm.bytes_out += out_bytes;
                ledger.per_node[nd].bytes_out += out_bytes;
                let Some(reply) = reply else {
                    // The request crossed the wire; the reply never came.
                    index.health.fail(nd);
                    failed.extend(part.groups);
                    continue;
                };
                let records = reply.results.iter().map(Vec::len).sum();
                let in_bytes = QueryReply::frame_bytes(payload, records);
                ledger.comm.messages_in += 1;
                ledger.comm.bytes_in += in_bytes;
                for group in &part.groups {
                    index.load.record_list_traffic(group.list_index);
                }
                ledger.lists_scanned += part.groups.len() as u64;
                let load = &mut ledger.per_node[nd];
                load.queries += payload as u64;
                load.groups += part.groups.len() as u64;
                load.evals += reply.evals;
                load.bytes_in += in_bytes;
                for (&position, result) in positions.iter().zip(&reply.results) {
                    for &(index, dist) in result {
                        self.collectors[position].push(Neighbor::new(index as usize, dist));
                    }
                }
            }
            if failed.is_empty() {
                return;
            }
            // Re-route what the dead nodes dropped among the survivors.
            retry = Some(BatchPlan {
                groups: failed,
                queries: plan.queries,
            });
        }
    }

    fn thresholds(&self) -> Vec<Dist> {
        self.collectors.iter().map(TopK::threshold).collect()
    }
}

impl<D: Dataset<Item = [f32]>, M: Metric<[f32]>, Q: Dataset<Item = [f32]>> Rounds<'_, D, M, Q> {
    /// The request that ships one routed sub-plan, and the batch position
    /// of each of its query-table slots.
    ///
    /// The request ships each distinct query once (coordinates + its cap
    /// from `caps`: `γ_k` in round one, `τ_q` in round two) and each group
    /// as slot indices into that table; the node recomputes `ρ(q, rep_ℓ)`
    /// from its stored representative coordinates, which is bit-identical
    /// to the coordinator's stage-1 values by the SIMD kernel invariant.
    fn wire_request(&self, part: &BatchPlan, caps: &[Dist]) -> (QueryRequest, Vec<usize>) {
        let (queries, k) = (self.queries, self.k);
        let mut positions: Vec<usize> = part
            .groups
            .iter()
            .flat_map(|g| g.queries.iter().copied())
            .collect();
        positions.sort_unstable();
        positions.dedup();
        assert!(
            positions.len() <= u16::MAX as usize && k <= u16::MAX as usize,
            "the wire protocol carries query-table slots and k as u16"
        );
        let mut gammas = Vec::with_capacity(positions.len());
        let mut coords = Vec::new();
        for &p in &positions {
            gammas.push(caps[p]);
            coords.extend_from_slice(queries.get(p));
        }
        let dim = coords.len().checked_div(positions.len()).unwrap_or(0);
        let slot = |q: &usize| {
            let slot = positions.binary_search(q);
            slot.expect("group member collected into the query table") as u16
        };
        let groups: Vec<WireGroup> = part
            .groups
            .iter()
            .map(|g| {
                let mut members: Vec<u16> = g.queries.iter().map(slot).collect();
                // The wire carries member *sets* (a bitmap over the
                // query table); order within a group cannot affect
                // results — each member feeds only its own accumulator.
                members.sort_unstable();
                WireGroup {
                    list_index: g.list_index as u32,
                    members,
                }
            })
            .collect();
        let request = QueryRequest {
            k: k as u16,
            shrink: 1.0 + self.index.rbc.config().epsilon,
            dim: dim as u16,
            gammas,
            coords,
            groups,
        };
        (request, positions)
    }
}

impl<D, M> DistributedRbc<D, M>
where
    D: Dataset<Item = [f32]> + Clone,
    M: Metric<[f32]> + Clone + Send + Sync + 'static,
{
    /// A new index over the same structure whose placement is rebuilt by
    /// `policy`, **steered by this index's observed per-list traffic** —
    /// the feedback loop that turns balanced storage into balanced
    /// traffic: serve a stream, read the skew, repartition, serve on. The
    /// new index starts with fresh load counters and all nodes live.
    pub fn repartitioned(&self, policy: PlacementPolicy) -> Self {
        let list_sizes: Vec<usize> = self.rbc.lists().iter().map(|l| l.len()).collect();
        let traffic = self.load.list_traffic();
        let placement = policy.place(&list_sizes, &traffic, self.cluster.nodes);
        Self::from_exact_with_placement(
            self.rbc.clone(),
            self.cluster,
            placement,
            self.payload_coords,
        )
    }
}

/// The distributed RBC is a first-class batched [`SearchIndex`], so the
/// serving engine (`rbc-serve`) can coalesce a live request stream into
/// micro-batches and route each one through the sharded protocol — the
/// composition of the serving and sharding layers.
impl<D, M> SearchIndex for DistributedRbc<D, M>
where
    D: Dataset<Item = [f32]>,
    M: Metric<[f32]> + Clone + Send + Sync + 'static,
{
    type Query = [f32];

    fn size(&self) -> usize {
        self.rbc.database().len()
    }

    fn search(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        let (neighbors, stats) = self.query_exact(query, k);
        (neighbors, stats.total_evals())
    }

    fn search_batch(&self, queries: &[&[f32]], k: usize) -> (Vec<Vec<Neighbor>>, u64) {
        let (results, stats) = self.query_batch_exact(&QueryBatch::new(queries), k);
        (results, stats.total_evals())
    }

    /// The sharded index is the one index in the workspace that can
    /// legitimately degrade: a query whose lists were lost (no live
    /// replica) is answered with a flagged provably-correct prefix. The
    /// per-query flags come straight from
    /// [`DistributedQueryStats::degraded`].
    fn search_batch_flagged(
        &self,
        queries: &[&[f32]],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, Vec<bool>, u64) {
        let (results, stats) = self.query_batch_exact(&QueryBatch::new(queries), k);
        let evals = stats.total_evals();
        (results, stats.degraded, evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rbc_bruteforce::BruteForce;
    use rbc_core::{RbcConfig, RbcParams};
    use rbc_metric::{Euclidean, VectorSet};

    fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..12)
            .map(|_| (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
            .collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                centers[i % 12]
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.3f32..0.3))
                    .collect()
            })
            .collect();
        VectorSet::from_rows(&rows)
    }

    fn build(db: &VectorSet, nodes: usize, seed: u64) -> DistributedRbc<&VectorSet, Euclidean> {
        build_with_policy(db, nodes, seed, PlacementPolicy::SingleOwner)
    }

    fn build_with_policy(
        db: &VectorSet,
        nodes: usize,
        seed: u64,
        policy: PlacementPolicy,
    ) -> DistributedRbc<&VectorSet, Euclidean> {
        let rbc = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(db.len(), seed),
            RbcConfig::default(),
        );
        DistributedRbc::from_exact_with_policy(
            rbc,
            ClusterConfig::with_nodes(nodes),
            policy,
            db.dim(),
        )
    }

    #[test]
    fn single_owner_placement_covers_every_list_and_balances_storage() {
        let db = cloud(2000, 6, 1);
        let dist = build(&db, 8, 2);
        let p = dist.placement();
        assert_eq!(p.nodes(), 8);
        assert_eq!(p.lists(), dist.rbc().lists().len());
        assert!(p.replicas_of_list.iter().all(|r| r.len() == 1));
        assert_eq!(p.stored_points(), db.len());
        assert!(p.imbalance() < 2.0, "imbalance {}", p.imbalance());
    }

    #[test]
    fn distributed_exact_matches_brute_force() {
        let db = cloud(1500, 5, 3);
        let queries = cloud(40, 5, 4);
        let dist = build(&db, 6, 5);
        let bf = BruteForce::new();
        for k in [1usize, 4] {
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                let (got, stats) = dist.query_exact(q, k);
                let (want, _) = bf.knn_single(q, &db, &Euclidean, k);
                assert_eq!(
                    got.iter().map(|n| n.index).collect::<Vec<_>>(),
                    want.iter().map(|n| n.index).collect::<Vec<_>>(),
                    "k={k} query {qi}"
                );
                assert_eq!(stats.degraded, vec![false]);
            }
        }
    }

    #[test]
    fn batched_routing_matches_the_centralized_list_major_search() {
        let db = cloud(2000, 6, 30);
        let queries = cloud(96, 6, 31);
        let dist = build(&db, 6, 32);
        for k in [1usize, 5] {
            let (got, stats) = dist.query_batch_exact(&queries, k);
            let (want, _) = dist.rbc().query_batch_k(&queries, k);
            assert_eq!(got, want, "k={k}");
            assert_eq!(stats.queries, queries.len() as u64);
            // Per-round fan-out: at most one contact per node per round,
            // two rounds per batch, and every contact answered.
            assert!(stats.comm.messages_out <= 2 * 6);
            assert_eq!(stats.comm.messages_in, stats.comm.messages_out);
            // Per-node accounting is consistent with the aggregates.
            assert_eq!(stats.per_node.len(), 6);
            let evals: u64 = stats.per_node.iter().map(|l| l.evals).sum();
            assert_eq!(evals, stats.worker_evals);
            let bytes_out: u64 = stats.per_node.iter().map(|l| l.bytes_out).sum();
            assert_eq!(bytes_out, stats.comm.bytes_out);
            // No failures: nothing rerouted, lost or degraded.
            assert_eq!(stats.rerouted_groups, 0);
            assert_eq!(stats.lost_groups, 0);
            assert_eq!(stats.degraded_queries(), 0);
        }
    }

    #[test]
    fn replicated_placement_keeps_answers_bit_identical_when_all_nodes_live() {
        let db = cloud(2000, 6, 40);
        let queries = cloud(64, 6, 41);
        for policy in [
            PlacementPolicy::Replicated { factor: 2 },
            PlacementPolicy::Replicated { factor: 3 },
            PlacementPolicy::HottestLists {
                factor: 2,
                hot_fraction: 0.25,
            },
        ] {
            let dist = build_with_policy(&db, 5, 42, policy);
            assert!(dist.placement().mean_replication() > 1.0, "{policy:?}");
            for k in [1usize, 4] {
                let (got, stats) = dist.query_batch_exact(&queries, k);
                let (want, _) = dist.rbc().query_batch_k(&queries, k);
                assert_eq!(got, want, "{policy:?} k={k}");
                assert_eq!(stats.lost_groups, 0);
                assert_eq!(stats.degraded_queries(), 0);
            }
        }
    }

    #[test]
    fn failed_node_is_routed_around_when_replicas_exist() {
        let db = cloud(1800, 5, 50);
        let queries = cloud(48, 5, 51);
        let dist = build_with_policy(&db, 4, 52, PlacementPolicy::Replicated { factor: 2 });
        let (want, _) = dist.rbc().query_batch_k(&queries, 3);
        dist.fail_node(1);
        let (got, stats) = dist.query_batch_exact(&queries, 3);
        assert_eq!(got, want, "replication must absorb a single failure");
        assert_eq!(stats.lost_groups, 0);
        assert_eq!(stats.degraded_queries(), 0);
        // The dead node was never contacted, so it did no work and got no
        // bytes.
        assert_eq!(stats.per_node[1], NodeLoad::idle(1));
    }

    #[test]
    fn mid_batch_failure_reroutes_groups_to_surviving_replicas() {
        let db = cloud(1800, 5, 55);
        let queries = cloud(48, 5, 56);
        let dist = build_with_policy(&db, 4, 57, PlacementPolicy::Replicated { factor: 2 });
        let (want, _) = dist.rbc().query_batch_k(&queries, 2);
        // Node 0 dies on first contact — *after* routing shipped it work.
        dist.poison_node(0);
        let (got, stats) = dist.query_batch_exact(&queries, 2);
        assert_eq!(got, want, "mid-batch failover must not change answers");
        assert!(
            stats.rerouted_groups > 0,
            "the poisoned node owned groups that had to move"
        );
        assert_eq!(stats.lost_groups, 0);
        assert_eq!(stats.degraded_queries(), 0);
        assert!(!dist.health().is_live(0), "the poisoned node is down now");
        // The wasted contact is on the ledger: more fan-out messages than
        // replies.
        assert!(stats.comm.messages_out > stats.comm.messages_in);
        // Re-running with node 0 dead needs no retries.
        let (again, stats2) = dist.query_batch_exact(&queries, 2);
        assert_eq!(again, want);
        assert_eq!(stats2.rerouted_groups, 0);
    }

    #[test]
    fn unreplicated_loss_returns_flagged_prefix_answers() {
        let db = cloud(1500, 5, 60);
        let queries = cloud(40, 5, 61);
        let dist = build(&db, 4, 62); // single owner: no second homes
        let (want, _) = dist.rbc().query_batch_k(&queries, 5);
        dist.fail_node(0);
        let (got, stats) = dist.query_batch_exact(&queries, 5);
        assert!(
            stats.lost_groups > 0,
            "node 0 owned lists that are now gone"
        );
        assert!(stats.degraded_queries() > 0);
        assert_eq!(stats.degraded.len(), queries.len());
        let mut verified_prefixes = 0usize;
        for qi in 0..queries.len() {
            if stats.degraded[qi] {
                // A degraded answer is a (possibly empty, possibly full)
                // prefix of the exact answer.
                assert!(got[qi].len() <= want[qi].len());
                assert_eq!(
                    got[qi][..],
                    want[qi][..got[qi].len()],
                    "query {qi}: degraded answer must be a prefix of the truth"
                );
                verified_prefixes += 1;
            } else {
                assert_eq!(got[qi], want[qi], "undegraded query {qi} must be exact");
            }
        }
        assert!(verified_prefixes > 0);
        // Not too tight either: no point of node 0's lists is nearer than
        // m = min over them of ρ(q, rep) − ψ (from a matrix of its own), so
        // a degraded answer holds every exact neighbour strictly inside m.
        let lists = dist.rbc().lists();
        let reps = db.subset(dist.rbc().rep_indices());
        let (rep_dists, _) = BruteForce::new().pairwise(&queries, &reps, &Euclidean);
        let dead: Vec<usize> = (0..lists.len())
            .filter(|&l| dist.placement().replicas_of_list[l] == [0])
            .collect();
        for qi in (0..queries.len()).filter(|&qi| stats.degraded[qi]) {
            let row = &rep_dists[qi * lists.len()..][..lists.len()];
            let bounds = dead.iter().map(|&l| row[l] - lists[l].radius);
            let m = bounds.fold(Dist::INFINITY, Dist::min);
            let safe = want[qi].iter().filter(|n| n.dist < m).count();
            assert!(
                got[qi].len() >= safe,
                "query {qi}: {} of the {safe} neighbours inside {m}",
                got[qi].len()
            );
        }
        assert!(
            (0..queries.len()).any(|qi| stats.degraded[qi] && !got[qi].is_empty()),
            "every degraded answer is empty"
        );
        // The cumulative counters saw the degradation.
        assert_eq!(dist.load().degraded_queries(), stats.degraded_queries());
        assert_eq!(dist.load().lost_groups(), stats.lost_groups);
    }

    #[test]
    fn revived_node_restores_exact_answers() {
        let db = cloud(1000, 4, 65);
        let queries = cloud(24, 4, 66);
        let dist = build(&db, 3, 67);
        dist.fail_node(2);
        let (_, degraded_stats) = dist.query_batch_exact(&queries, 2);
        dist.revive_node(2);
        let (got, stats) = dist.query_batch_exact(&queries, 2);
        let (want, _) = dist.rbc().query_batch_k(&queries, 2);
        assert_eq!(got, want);
        assert_eq!(stats.lost_groups, 0);
        // (the earlier degraded run may or may not have lost groups,
        // depending on whether node 2 owned any surviving list)
        let _ = degraded_stats;
    }

    #[test]
    fn batched_fan_out_beats_per_query_fan_out_on_the_wire() {
        let db = cloud(3000, 8, 33);
        let queries = cloud(64, 8, 34);
        let dist = build(&db, 8, 35);
        let (_, batched) = dist.query_batch_exact(&queries, 1);
        let mut per_query = DistributedQueryStats::default();
        for qi in 0..queries.len() {
            let (_, s) = dist.query_exact(queries.point(qi), 1);
            per_query.merge(&s);
        }
        // Same answers are pinned elsewhere; here: fewer messages and
        // fewer bytes, because each node is contacted at most once per
        // round with one shared header.
        assert!(batched.comm.messages_out < per_query.comm.messages_out);
        assert!(batched.comm.bytes_out < per_query.comm.bytes_out);
    }

    #[test]
    fn distributed_exact_matches_centralized_exact_work_reduction() {
        let db = cloud(3000, 8, 6);
        let queries = cloud(50, 8, 7);
        let dist = build(&db, 8, 8);
        let (_, stats) = dist.query_batch_exact(&queries, 1);
        // Pruning must keep the batch's work far below brute force ...
        assert!(stats.total_evals() < (queries.len() * db.len()) as u64);
        assert_eq!(stats.queries, 50);
        // ... and keep most queries off most nodes: on clustered data the
        // routed payloads must be a strict subset of the all-pairs
        // (query, node) routing a pruning regression would produce.
        let routed: u64 = stats.per_node.iter().map(|l| l.queries).sum();
        assert!(routed >= stats.queries, "each query visits >= 1 node here");
        assert!(
            routed < (queries.len() * 8) as u64,
            "every query was routed to every node: routing is unpruned"
        );
    }

    #[test]
    fn hot_groups_split_across_replicas_without_changing_answers() {
        // Every query in one tight ball around a single database point:
        // pruning funnels essentially the whole batch onto that point's
        // list, producing one atomic hot group that would pin a replica.
        let db = cloud(2000, 6, 90);
        let dist = build_with_policy(&db, 4, 91, PlacementPolicy::Replicated { factor: 2 });
        let base: Vec<f32> = db.point(0).to_vec();
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                base.iter()
                    .enumerate()
                    .map(|(d, &c)| c + (i * 6 + d) as f32 * 1e-4)
                    .collect()
            })
            .collect();
        let queries = VectorSet::from_rows(&rows);
        let (got, stats) = dist.query_batch_exact(&queries, 3);
        let (want, _) = dist.rbc().query_batch_k(&queries, 3);
        assert_eq!(got, want, "splitting must not change answers");
        // The work skew is the point: without splitting, the hot list's
        // whole group sits on one node and the busiest node carries
        // nearly all worker evals; with the group split across its two
        // replicas the critical path drops well below the total.
        assert!(
            stats.worker_evals > 0 && stats.max_node_evals < stats.worker_evals,
            "hot group was not split: busiest node did all {} evals",
            stats.worker_evals
        );
        let active = stats.per_node.iter().filter(|l| l.evals > 0).count();
        assert!(active >= 2, "all scan work landed on {active} node");
    }

    #[test]
    fn communication_grows_with_nodes_contacted_but_answers_do_not_change() {
        let db = cloud(1500, 5, 15);
        let queries = cloud(25, 5, 16);
        let small = build(&db, 2, 17);
        let large = build(&db, 16, 17);
        let (a, stats_small) = small.query_batch_exact(&queries, 1);
        let (b, stats_large) = large.query_batch_exact(&queries, 1);
        assert_eq!(a, b, "the cluster size must not change the answers");
        assert!(stats_large.comm.messages_out >= stats_small.comm.messages_out);
    }

    #[test]
    fn stats_merge_and_derived_quantities() {
        let db = cloud(800, 4, 18);
        let dist = build(&db, 4, 19);
        let (_, s1) = dist.query_exact(db.point(0), 1);
        let (_, s2) = dist.query_exact(db.point(5), 1);
        let mut merged = s1.clone();
        merged.merge(&s2);
        assert_eq!(merged.queries, 2);
        assert_eq!(merged.total_evals(), s1.total_evals() + s2.total_evals());
        assert!(merged.max_node_evals >= s1.max_node_evals.min(s2.max_node_evals));
        assert!(merged.nodes_contacted_per_query() >= 1.0);
        assert_eq!(merged.degraded, vec![false, false]);
        // Per-node loads merge elementwise.
        assert_eq!(merged.per_node.len(), 4);
        for nd in 0..4 {
            assert_eq!(
                merged.per_node[nd].evals,
                s1.per_node[nd].evals + s2.per_node[nd].evals
            );
        }
    }

    #[test]
    fn cumulative_load_counters_track_every_query_path() {
        let db = cloud(900, 5, 22);
        let dist = build(&db, 4, 23);
        let queries = cloud(16, 5, 24);
        let (_, single) = dist.query_exact(queries.point(0), 1);
        let (_, batch) = dist.query_batch_exact(&queries, 1);
        let snapshot = dist.load().snapshot();
        assert_eq!(snapshot.len(), 4);
        for (nd, cumulative) in snapshot.iter().enumerate() {
            assert_eq!(
                cumulative.evals,
                single.per_node[nd].evals + batch.per_node[nd].evals,
                "node {nd}"
            );
        }
        // Per-list traffic was recorded for every executed group.
        let traffic = dist.observed_list_traffic();
        assert_eq!(traffic.len(), dist.rbc().lists().len());
        let total: u64 = traffic.iter().sum();
        assert_eq!(total, single.lists_scanned + batch.lists_scanned);
    }

    #[test]
    fn repartitioning_replicates_the_observed_hot_lists() {
        let db = cloud(1600, 5, 80);
        // A pathologically hot stream: every query near the same point.
        let hot_rows: Vec<Vec<f32>> = (0..64).map(|_| db.point(3).to_vec()).collect();
        let hot = VectorSet::from_rows(&hot_rows);
        let dist = build(&db, 4, 81);
        let (_, _) = dist.query_batch_exact(&hot, 1);
        let traffic = dist.observed_list_traffic();
        assert!(traffic.iter().any(|&t| t > 0), "traffic was recorded");
        let rebalanced = dist.repartitioned(PlacementPolicy::HottestLists {
            factor: 2,
            hot_fraction: 0.1,
        });
        // The hottest observed list is exactly what gained a replica.
        let hottest = (0..traffic.len())
            .max_by_key(|&l| (traffic[l], std::cmp::Reverse(l)))
            .unwrap();
        assert!(traffic[hottest] > 0);
        assert_eq!(
            rebalanced.placement().replicas_of_list[hottest].len(),
            2,
            "the observed hot list must be the one replicated"
        );
        assert!(rebalanced.placement().mean_replication() > 1.0);
        // Fresh index: same answers as the original.
        let queries = cloud(16, 5, 82);
        let (a, _) = dist.query_batch_exact(&queries, 2);
        let (b, _) = rebalanced.query_batch_exact(&queries, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn replication_spreads_a_hot_stream_across_replicas() {
        let db = cloud(2400, 6, 90);
        // Queries drawn from only one cluster: single-owner routing melts
        // whichever nodes own that cluster's lists, batch after batch.
        let hot_rows: Vec<Vec<f32>> = (0..96)
            .map(|i| db.point(12 * (i % 20)).to_vec()) // cluster 0 points
            .collect();
        let hot = VectorSet::from_rows(&hot_rows);
        let single = build_with_policy(&db, 4, 91, PlacementPolicy::SingleOwner);
        let replicated = build_with_policy(&db, 4, 91, PlacementPolicy::Replicated { factor: 2 });
        // Replay in micro-batches: the router steers each batch by the
        // cumulative observed load, so a group that spiked one replica
        // last batch moves to the other one this batch.
        let mut s_single = DistributedQueryStats::default();
        let mut s_rep = DistributedQueryStats::default();
        for chunk in 0..4 {
            let indices: Vec<usize> = (chunk * 24..(chunk + 1) * 24).collect();
            let batch = hot.subset(&indices);
            let (a, s1) = single.query_batch_exact(&batch, 1);
            let (b, s2) = replicated.query_batch_exact(&batch, 1);
            assert_eq!(a, b, "placement never changes answers (chunk {chunk})");
            s_single.merge(&s1);
            s_rep.merge(&s2);
        }
        let skew_single = crate::load::eval_skew(&s_single.per_node);
        let skew_rep = crate::load::eval_skew(&s_rep.per_node);
        assert!(
            skew_rep < skew_single,
            "replicated routing must spread the hot stream: {skew_rep:.2} vs {skew_single:.2}"
        );
        // The hot stream's critical path (busiest node) must shrink too.
        let busiest_single = s_single.per_node.iter().map(|l| l.evals).max().unwrap();
        let busiest_rep = s_rep.per_node.iter().map(|l| l.evals).max().unwrap();
        assert!(
            busiest_rep < busiest_single,
            "the busiest replicated node must do less work: {busiest_rep} vs {busiest_single}"
        );
    }

    #[test]
    fn replication_is_paid_in_storage() {
        let db = cloud(1000, 5, 95);
        let single = build_with_policy(&db, 4, 96, PlacementPolicy::SingleOwner);
        let replicated = build_with_policy(&db, 4, 96, PlacementPolicy::Replicated { factor: 2 });
        assert!(replicated.load().storage_overhead() > 1.9);
        assert!((single.load().storage_overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn search_index_surface_delegates_to_the_distributed_protocols() {
        let db = cloud(700, 5, 25);
        let queries = cloud(9, 5, 26);
        let dist = build(&db, 3, 27);
        let q0 = queries.point(0);
        let (via_trait, work) = SearchIndex::search(&dist, q0, 2);
        let (direct, stats) = dist.query_exact(q0, 2);
        assert_eq!(via_trait, direct);
        assert_eq!(work, stats.total_evals());
        assert_eq!(SearchIndex::size(&dist), db.len());

        let refs: Vec<&[f32]> = (0..queries.len()).map(|i| queries.point(i)).collect();
        let (batched, _) = dist.search_batch(&refs, 2);
        let (want, _) = dist.query_batch_exact(&queries, 2);
        assert_eq!(batched, want);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn an_empty_cluster_is_rejected_at_build() {
        let db = cloud(100, 3, 28);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 29),
            RbcConfig::default(),
        );
        let _ = DistributedRbc::from_exact(rbc, ClusterConfig { nodes: 0 }, db.dim());
    }

    #[test]
    #[should_panic(expected = "invalid Placement")]
    fn mismatched_placement_is_rejected() {
        let db = cloud(200, 3, 36);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 37),
            RbcConfig::default(),
        );
        let bogus = Placement::single_owner(&[1, 2, 3], 2);
        let _ = DistributedRbc::from_exact_with_placement(
            rbc,
            ClusterConfig::with_nodes(2),
            bogus,
            db.dim(),
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let db = cloud(100, 3, 20);
        let dist = build(&db, 2, 21);
        let _ = dist.query_exact(db.point(0), 0);
    }
}
