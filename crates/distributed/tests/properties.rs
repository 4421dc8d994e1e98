//! Property-based tests for the routed batch protocol.
//!
//! The essential invariants of the sharded list-major search: for any
//! clustered point cloud, any cluster size, and any `k`, the batched
//! distributed answers are **bit-identical** to the centralized
//! list-major `ExactRbc::query_batch_k` answers — sharding is a placement
//! decision, never an approximation — and that stays true under
//! replication, **whichever single node dies**, while unreplicated loss
//! degrades to correctly-flagged partial answers that are prefixes of the
//! exact top-k. On top of that, the per-node accounting must stay
//! consistent with the aggregates, including under a deliberately skewed
//! placement where one node owns almost every list.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rbc_bruteforce::BruteForce;
use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_distributed::net::{InFlight, NetError, NodeShard, ProbeAck, QueryReply, QueryRequest};
use rbc_distributed::{
    eval_skew, ClusterConfig, DistributedRbc, NodeEndpoint, NodeLoad, Placement, PlacementPolicy,
};
use rbc_metric::{Dataset, QueryBatch, VectorSet};
// The Euclidean metric lives in rbc-metric.
use rbc_metric::Euclidean;

const DIM: usize = 3;

/// Strategy for a handful of well-separated cluster centers.
fn centers() -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-40.0f32..40.0, DIM), 2..6)
}

/// Clustered rows: each point a small deterministic offset from one of the
/// centers — the workload where queries co-travel through the same
/// ownership lists, so the routed groups are non-trivial.
fn clustered(centers: &[Vec<f32>], n: usize, nq: usize, seed: u64) -> (VectorSet, VectorSet) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut offset = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
    };
    let mut point = |i: usize| -> Vec<f32> {
        centers[i % centers.len()]
            .iter()
            .map(|&c| c + offset())
            .collect()
    };
    let db: Vec<Vec<f32>> = (0..n).map(&mut point).collect();
    let queries: Vec<Vec<f32>> = (0..nq).map(|i| point(i * 7 + 3)).collect();
    (VectorSet::from_rows(&db), VectorSet::from_rows(&queries))
}

/// Uniform rows in a cube: no cluster settles a query's threshold in one
/// list, so most queries keep lists for round two.
fn uniform(n: usize, nq: usize, seed: u64) -> (VectorSet, VectorSet) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut row = || -> Vec<f32> {
        (0..DIM)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u32 << 24) as f32 * 20.0 - 10.0
            })
            .collect()
    };
    let db: Vec<Vec<f32>> = (0..n).map(|_| row()).collect();
    let queries: Vec<Vec<f32>> = (0..nq).map(|_| row()).collect();
    (VectorSet::from_rows(&db), VectorSet::from_rows(&queries))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded batched answers equal centralized list-major answers
    /// bit for bit, across node counts {1, 3, 8} on clustered data.
    #[test]
    fn sharded_batch_equals_centralized_list_major(
        cs in centers(),
        n in 8usize..120,
        nq in 2usize..24,
        n_reps in 1usize..40,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let (db, queries) = clustered(&cs, n, nq, seed);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (want, _) = rbc.query_batch_k(&queries, k);
        for nodes in [1usize, 3, 8] {
            let sharded = DistributedRbc::from_exact(
                rbc.clone(),
                ClusterConfig::with_nodes(nodes),
                db.dim(),
            );
            let (got, stats) = sharded.query_batch_exact(&queries, k);
            prop_assert_eq!(&got, &want, "nodes = {}", nodes);
            // Aggregate/per-node consistency.
            prop_assert_eq!(stats.queries, queries.len() as u64);
            prop_assert!(stats.comm.messages_out <= 2 * nodes as u64);
            prop_assert_eq!(stats.per_node.len(), nodes);
            let evals: u64 = stats.per_node.iter().map(|l| l.evals).sum();
            prop_assert_eq!(evals, stats.worker_evals);
            let max_evals = stats.per_node.iter().map(|l| l.evals).max().unwrap_or(0);
            prop_assert_eq!(max_evals, stats.max_node_evals);
            let bytes: u64 = stats.per_node.iter().map(|l| l.bytes_total()).sum();
            prop_assert_eq!(bytes, stats.comm.total_bytes());
            // Every contact of a live cluster is answered.
            prop_assert_eq!(stats.comm.messages_in, stats.comm.messages_out);
        }
    }

    /// The per-query exact protocol and the batched protocol agree with
    /// each other (both are pinned to brute force elsewhere).
    #[test]
    fn batched_and_per_query_protocols_agree(
        cs in centers(),
        n in 8usize..80,
        nq in 2usize..16,
        k in 1usize..4,
        seed in 0u64..200,
    ) {
        let (db, queries) = clustered(&cs, n, nq, seed);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), seed),
            RbcConfig::default(),
        );
        let sharded = DistributedRbc::from_exact(rbc, ClusterConfig::with_nodes(3), db.dim());
        let (batched, _) = sharded.query_batch_exact(&queries, k);
        for (qi, from_batch) in batched.iter().enumerate() {
            let (single, _) = sharded.query_exact(queries.point(qi), k);
            prop_assert_eq!(from_batch, &single, "query {}", qi);
        }
    }

    /// Failover invariant: with replication factor >= 2, killing ANY
    /// single node keeps the batched answers bit-identical to the
    /// centralized search — whether the node is down before routing
    /// (`fail`) or dies mid-batch at first contact (`poison`).
    #[test]
    fn any_single_node_failure_is_absorbed_by_replication(
        cs in centers(),
        n in 12usize..100,
        nq in 2usize..16,
        n_reps in 2usize..30,
        k in 1usize..5,
        nodes in 2usize..6,
        seed in 0u64..300,
    ) {
        let (db, queries) = clustered(&cs, n, nq, seed);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (want, _) = rbc.query_batch_k(&queries, k);
        for victim in 0..nodes {
            // Down before routing: the router never contacts the victim.
            let sharded = DistributedRbc::from_exact_with_policy(
                rbc.clone(),
                ClusterConfig::with_nodes(nodes),
                PlacementPolicy::Replicated { factor: 2 },
                db.dim(),
            );
            sharded.fail_node(victim);
            let (got, stats) = sharded.query_batch_exact(&queries, k);
            prop_assert_eq!(&got, &want, "failed node {}", victim);
            prop_assert_eq!(stats.lost_groups, 0);
            prop_assert_eq!(stats.degraded_queries(), 0);
            prop_assert_eq!(stats.per_node[victim], NodeLoad::idle(victim));

            // Down mid-batch: the victim receives its sub-plan and dies;
            // its groups must be re-routed, not lost.
            let sharded = DistributedRbc::from_exact_with_policy(
                rbc.clone(),
                ClusterConfig::with_nodes(nodes),
                PlacementPolicy::Replicated { factor: 2 },
                db.dim(),
            );
            sharded.poison_node(victim);
            let (got, stats) = sharded.query_batch_exact(&queries, k);
            prop_assert_eq!(&got, &want, "poisoned node {}", victim);
            prop_assert_eq!(stats.lost_groups, 0);
            prop_assert_eq!(stats.degraded_queries(), 0);
        }
    }

    /// Degradation contract: killing a node of an UNREPLICATED placement
    /// flags exactly the queries that lost a group, and every flagged
    /// answer is a prefix of the exact top-k (never a wrong neighbor,
    /// never out of order), while unflagged queries stay exact.
    #[test]
    fn unreplicated_loss_degrades_to_correct_prefix_answers(
        cs in centers(),
        n in 12usize..100,
        nq in 2usize..16,
        n_reps in 2usize..30,
        k in 1usize..5,
        nodes in 2usize..5,
        victim_pick in 0usize..5,
        seed in 0u64..300,
    ) {
        let (db, queries) = clustered(&cs, n, nq, seed);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (want, _) = rbc.query_batch_k(&queries, k);
        let sharded = DistributedRbc::from_exact(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            db.dim(),
        );
        let victim = victim_pick % nodes;
        sharded.fail_node(victim);
        let (got, stats) = sharded.query_batch_exact(&queries, k);
        prop_assert_eq!(stats.degraded.len(), queries.len());
        for qi in 0..queries.len() {
            if stats.degraded[qi] {
                prop_assert!(got[qi].len() <= want[qi].len());
                prop_assert_eq!(
                    &got[qi][..],
                    &want[qi][..got[qi].len()],
                    "query {}: flagged partial answer must be a prefix of the exact top-k",
                    qi
                );
            } else {
                prop_assert_eq!(&got[qi], &want[qi], "unflagged query {} must stay exact", qi);
            }
        }
        // Flags are consistent with the loss ledger: lost groups imply at
        // least one flagged query, no lost groups imply none.
        if stats.lost_groups > 0 {
            prop_assert!(stats.degraded_queries() > 0);
        } else {
            prop_assert_eq!(stats.degraded_queries(), 0);
        }
    }
}

/// Builds a placement that parks every ownership list on node 0 except
/// the last list, which goes to node 1 (node 2 stays empty) — the skewed
/// placement the balanced LPT constructors would never produce.
fn skewed_placement(list_sizes: &[usize], nodes: usize) -> Placement {
    assert!(nodes >= 2 && list_sizes.len() >= 2);
    let last = list_sizes.len() - 1;
    let replicas_of_list: Vec<Vec<usize>> = (0..list_sizes.len())
        .map(|list| vec![usize::from(list == last)])
        .collect();
    let mut lists_of_node: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    let mut points_per_node = vec![0usize; nodes];
    for (list, replicas) in replicas_of_list.iter().enumerate() {
        for &node in replicas {
            lists_of_node[node].push(list);
            points_per_node[node] += list_sizes[list];
        }
    }
    Placement {
        replicas_of_list,
        lists_of_node,
        points_per_node,
    }
}

#[test]
fn skewed_partition_keeps_answers_identical_and_makes_the_skew_observable() {
    // Clustered data so batches co-travel; one node owns (almost) all of it.
    let centers = [[-30.0f32, 0.0, 9.0], [25.0, -14.0, 3.0], [4.0, 31.0, -22.0]];
    let rows: Vec<Vec<f32>> = (0..900)
        .map(|i| {
            let c = centers[i % centers.len()];
            let wobble = (i as f32 * 0.7919).sin() * 0.4;
            vec![c[0] + wobble, c[1] - wobble * 0.5, c[2] + wobble * 0.25]
        })
        .collect();
    let db = VectorSet::from_rows(&rows);
    let query_ids: Vec<usize> = (0..db.len()).step_by(31).collect();
    let queries = db.subset(&query_ids);
    let rbc = ExactRbc::build(
        &db,
        Euclidean,
        RbcParams::standard(db.len(), 5),
        RbcConfig::default(),
    );
    let list_sizes: Vec<usize> = rbc.lists().iter().map(|l| l.len()).collect();
    assert!(list_sizes.len() >= 2, "need at least two lists to skew");

    let balanced = DistributedRbc::from_exact(rbc.clone(), ClusterConfig::with_nodes(3), db.dim());
    let skewed = DistributedRbc::from_exact_with_placement(
        rbc.clone(),
        ClusterConfig::with_nodes(3),
        skewed_placement(&list_sizes, 3),
        db.dim(),
    );

    for k in [1usize, 4] {
        let (want, _) = rbc.query_batch_k(&queries, k);
        let (from_balanced, _) = balanced.query_batch_exact(&queries, k);
        let (from_skewed, stats) = skewed.query_batch_exact(&queries, k);
        assert_eq!(from_balanced, want, "balanced placement changed answers");
        assert_eq!(from_skewed, want, "skewed placement changed answers");

        // The skew must be visible in the per-node records: node 0 does
        // (almost) all the work, node 2 none at all.
        assert_eq!(stats.per_node.len(), 3);
        assert_eq!(stats.per_node[2], NodeLoad::idle(2));
        assert!(
            stats.per_node[0].evals >= stats.per_node[1].evals,
            "the node owning most lists must do most of the work"
        );
        assert!(stats.per_node[0].groups > stats.per_node[1].groups);
        assert!(eval_skew(&stats.per_node) >= 1.0);
        assert!(
            stats.comm.messages_out <= 2 * 2,
            "node 2 owns nothing to contact; two rounds reach the other two"
        );
    }
}

#[test]
fn single_node_cluster_degenerates_to_the_centralized_search_with_one_link() {
    let rows: Vec<Vec<f32>> = (0..300)
        .map(|i| vec![(i % 17) as f32, (i % 23) as f32 * 0.5, i as f32 * 0.01])
        .collect();
    let db = VectorSet::from_rows(&rows);
    let queries = db.subset(&[3, 77, 150, 299]);
    let rbc = ExactRbc::build(
        &db,
        Euclidean,
        RbcParams::standard(db.len(), 9),
        RbcConfig::default(),
    );
    let sharded = DistributedRbc::from_exact(rbc.clone(), ClusterConfig::with_nodes(1), db.dim());
    let (got, stats) = sharded.query_batch_exact(&queries, 2);
    let (want, _) = rbc.query_batch_k(&queries, 2);
    assert_eq!(got, want);
    assert!(
        (1..=2).contains(&stats.comm.messages_out),
        "one batch, one node, one message per round"
    );
    assert_eq!(stats.comm.messages_in, stats.comm.messages_out);
}

/// Owner-first rounds are placement, never approximation: at every node
/// count from 1 to 8, single-owner and 2-fold replicated, k ∈ {1, 5, 10},
/// on clustered and on uniform data, the cluster answers equal the
/// centralized search bit for bit; with ε = 0.5 every rank stays within
/// the (1+ε) factor of brute force.
#[test]
fn two_rounds_equal_the_centralized_search_on_every_cluster_shape() {
    let centers = vec![
        vec![-30.0f32, 0.0, 9.0],
        vec![25.0, -14.0, 3.0],
        vec![4.0, 31.0, -22.0],
        vec![-9.0, -27.0, 15.0],
    ];
    let shapes = [
        ("clustered", clustered(&centers, 1200, 24, 3)),
        ("uniform", uniform(1200, 24, 4)),
    ];
    for (shape, (db, queries)) in &shapes {
        for epsilon in [0.0, 0.5] {
            let config = RbcConfig::default().with_epsilon(epsilon);
            let rbc = ExactRbc::build(db, Euclidean, RbcParams::standard(db.len(), 7), config);
            for k in [1usize, 5, 10] {
                let (want, _) = rbc.query_batch_k(queries, k);
                let (truth, _) = BruteForce::new().knn(queries, db, &Euclidean, k);
                for nodes in 1..=8 {
                    for policy in [
                        PlacementPolicy::SingleOwner,
                        PlacementPolicy::Replicated { factor: 2 },
                    ] {
                        let sharded = DistributedRbc::from_exact_with_policy(
                            rbc.clone(),
                            ClusterConfig::with_nodes(nodes),
                            policy,
                            db.dim(),
                        );
                        let (got, stats) = sharded.query_batch_exact(queries, k);
                        let cell = format!("{shape} ε={epsilon} k={k} nodes={nodes} {policy:?}");
                        assert_eq!(stats.degraded_queries(), 0, "{cell}");
                        assert!(stats.comm.messages_out <= 2 * nodes as u64, "{cell}");
                        if epsilon == 0.0 {
                            assert_eq!(got, want, "{cell}");
                            continue;
                        }
                        for (qi, (got, truth)) in got.iter().zip(&truth).enumerate() {
                            assert_eq!(got.len(), truth.len(), "{cell} query {qi}");
                            for (g, t) in got.iter().zip(truth) {
                                assert!(
                                    g.dist <= (1.0 + epsilon) * t.dist + 1e-9,
                                    "{cell} query {qi}: {} vs {}",
                                    g.dist,
                                    t.dist
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One exchange a [`Recording`] endpoint saw.
#[derive(Clone, Debug)]
enum Exchange {
    /// A round sent the node a request.
    Sent,
    /// The node replied to a request with these caps.
    Replied(Vec<f64>, QueryReply),
}

/// An in-process node — its shard, executed in this process — that logs
/// every request's caps and every reply, in the order the coordinator
/// sends and collects them.
#[derive(Debug)]
struct Recording {
    shard: NodeShard<Euclidean>,
    log: Arc<Mutex<Vec<Exchange>>>,
}

impl NodeEndpoint for Recording {
    fn node(&self) -> usize {
        self.shard.node()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        let reply = self
            .shard
            .execute(request)
            .map_err(|msg| NetError::Protocol(msg.to_owned()))?;
        let exchange = Exchange::Replied(request.gammas.clone(), reply.clone());
        self.log.lock().unwrap().push(exchange);
        Ok(reply)
    }

    fn send<'a>(&'a self, request: &'a QueryRequest) -> InFlight<'a> {
        self.log.lock().unwrap().push(Exchange::Sent);
        InFlight::Deferred(Box::new(move || self.execute(request)))
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        Ok(ProbeAck {
            node: self.shard.node() as u32,
            lists: self.shard.lists() as u32,
            points: self.shard.points() as u64,
        })
    }
}

/// A node prunes at the coordinator's bound: the round's cap (`γ_k` in
/// round one, `τ_q` in round two) bounds what its scans screen and offer,
/// so no reply row holds a distance above its query's cap (NaN excepted)
/// — over both rounds of several batches on a 4-node, 2-fold replicated
/// cluster, with the answers still those of the centralized search.
#[test]
fn node_replies_hold_only_candidates_at_or_under_the_round_cap() {
    let centers = vec![
        vec![-30.0f32, 0.0, 9.0],
        vec![25.0, -14.0, 3.0],
        vec![4.0, 31.0, -22.0],
        vec![-9.0, -27.0, 15.0],
    ];
    let shapes = [
        ("clustered", clustered(&centers, 1200, 48, 5)),
        ("uniform", uniform(1200, 48, 6)),
    ];
    for (shape, (db, queries)) in &shapes {
        let rbc = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(db.len(), 9),
            RbcConfig::default(),
        );
        let nodes = 4;
        let sharded = DistributedRbc::from_exact_with_policy(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            PlacementPolicy::Replicated { factor: 2 },
            db.dim(),
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        let endpoints = (0..nodes)
            .map(|node| {
                Arc::new(Recording {
                    shard: NodeShard::from_exact(&rbc, sharded.placement(), node),
                    log: Arc::clone(&log),
                }) as Arc<dyn NodeEndpoint>
            })
            .collect();
        let recorded = sharded.with_endpoints(endpoints);
        for k in [1usize, 5, 10] {
            let (want, _) = rbc.query_batch_k(queries, k);
            let mut got = Vec::new();
            let mut rounds = 0;
            let mut second_rounds = 0;
            for batch in 0..queries.len() / 8 {
                let rows: Vec<usize> = (batch * 8..(batch + 1) * 8).collect();
                let (answers, stats) = recorded.query_batch_exact(&queries.gather(&rows), k);
                assert_eq!(stats.degraded_queries(), 0);
                got.extend(answers);
                // A round is a run of sends, then the replies to them.
                let log = std::mem::take(&mut *log.lock().unwrap());
                let mut batch_rounds = 0;
                let mut previous_sent = false;
                for exchange in &log {
                    let sent = matches!(exchange, Exchange::Sent);
                    batch_rounds += usize::from(sent && !previous_sent);
                    previous_sent = sent;
                    let Exchange::Replied(caps, reply) = exchange else {
                        continue;
                    };
                    assert_eq!(reply.results.len(), caps.len());
                    for (row, &cap) in reply.results.iter().zip(caps) {
                        for &(index, dist) in row {
                            assert!(
                                dist.is_nan() || dist <= cap,
                                "{shape} k={k}: point {index} at {dist} replied above the cap {cap}"
                            );
                        }
                    }
                }
                rounds += batch_rounds;
                second_rounds += usize::from(batch_rounds == 2);
            }
            assert_eq!(got, want, "{shape} k={k}");
            assert!(
                rounds > 0 && second_rounds > 0,
                "{shape} k={k}: both rounds must run"
            );
        }
    }
}

/// The work the rounds exist for: on the benchmark's mixture (n = 50 000,
/// dim 16, 64 clusters) and a skewed batch of 32, four nodes do within 10 %
/// of the centralized search's list evaluations — each query's nearest list
/// is scanned on its owner before any other node scans, so no node starts
/// from a poor local witness.
#[test]
fn two_rounds_cost_about_the_centralized_search_on_the_benchmark_mixture() {
    let db = rbc_data::gaussian_mixture(50_000, 16, 64, 0.05, 2012);
    let queries = rbc_data::skewed_queries(32, 16, 64, 0.05, 1.0, 2012, 5);
    let rbc = ExactRbc::build(
        &db,
        Euclidean,
        RbcParams::standard(db.len(), 1),
        RbcConfig::default(),
    );
    let (want, central) = rbc.query_batch_k(&queries, 10);
    let sharded = DistributedRbc::from_exact_with_policy(
        rbc,
        ClusterConfig::with_nodes(4),
        PlacementPolicy::Replicated { factor: 2 },
        db.dim(),
    );
    let (got, stats) = sharded.query_batch_exact(&queries, 10);
    assert_eq!(got, want);
    assert!(
        stats.worker_evals as f64 <= 1.1 * central.list_distance_evals as f64,
        "four nodes evaluated {} list points, the centralized search {}",
        stats.worker_evals,
        central.list_distance_evals
    );
}

/// For a one-query batch on an index with no load yet: the node round one
/// contacts — the lowest-id replica of the query's nearest surviving list,
/// since the least-loaded router breaks its tie toward the lower id — and
/// the nodes that only round two contacts (read off an unpoisoned twin).
fn round_nodes(
    rbc: &ExactRbc<&VectorSet, Euclidean>,
    placement: &Placement,
    query: &[f32],
    k: usize,
) -> (Option<usize>, Vec<usize>) {
    let db = rbc.database();
    let (_, candidates, _) = rbc.stage1(&QueryBatch::new(&[query]), k);
    let rows = &candidates.rows;
    let owner = candidates.nearest[0].and_then(|at| {
        placement.replicas_of_list[rows[0][at].0]
            .iter()
            .min()
            .copied()
    });
    let twin = DistributedRbc::from_exact_with_placement(
        rbc.clone(),
        ClusterConfig::with_nodes(placement.nodes()),
        placement.clone(),
        db.dim(),
    );
    let (_, stats) = twin.query_batch_exact(&QueryBatch::new(&[query]), k);
    let later = stats
        .per_node
        .iter()
        .filter(|load| load.groups > 0 && Some(load.node) != owner)
        .map(|load| load.node)
        .collect();
    (owner, later)
}

/// A node that dies at its first contact, whether that contact is in round
/// one (it owns the query's nearest list) or in round two (it owns none of
/// it): replicated, its groups are re-routed and the answer stays exact;
/// single-owner, its groups are lost and the answer is a flagged prefix of
/// the exact one.
#[test]
fn a_node_dying_in_either_round_is_rerouted_or_flagged() {
    let (db, queries) = uniform(1500, 16, 21);
    let rbc = ExactRbc::build(
        &db,
        Euclidean,
        RbcParams::standard(db.len(), 22),
        RbcConfig::default(),
    );
    let k = 4;
    let (want, _) = rbc.query_batch_k(&queries, k);
    let nodes = 5;
    for policy in [
        PlacementPolicy::Replicated { factor: 2 },
        PlacementPolicy::SingleOwner,
    ] {
        let placement = DistributedRbc::from_exact_with_policy(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            policy,
            db.dim(),
        )
        .placement()
        .clone();
        let mut died_in = [0usize; 2];
        for (qi, want) in want.iter().enumerate() {
            let query = queries.point(qi);
            let (owner, later) = round_nodes(&rbc, &placement, query, k);
            for (round, victim) in [(0, owner), (1, later.first().copied())] {
                let Some(victim) = victim else { continue };
                died_in[round] += 1;
                let index = DistributedRbc::from_exact_with_placement(
                    rbc.clone(),
                    ClusterConfig::with_nodes(nodes),
                    placement.clone(),
                    db.dim(),
                );
                index.poison_node(victim);
                let (got, stats) = index.query_batch_exact(&QueryBatch::new(&[query]), k);
                let cell = format!("{policy:?} query {qi} node {victim} round {}", round + 1);
                assert!(!index.health().is_live(victim), "{cell}");
                assert!(stats.comm.messages_out > stats.comm.messages_in, "{cell}");
                if policy == PlacementPolicy::SingleOwner {
                    assert!(stats.lost_groups > 0, "{cell}");
                    assert_eq!(stats.degraded, vec![true], "{cell}");
                    assert!(got[0].len() <= want.len(), "{cell}");
                    assert_eq!(got[0][..], want[..got[0].len()], "{cell}");
                } else {
                    assert_eq!(&got[0], want, "{cell}");
                    assert!(stats.rerouted_groups > 0, "{cell}");
                    assert_eq!(stats.lost_groups, 0, "{cell}");
                    assert_eq!(stats.degraded, vec![false], "{cell}");
                }
            }
        }
        assert!(
            died_in.iter().all(|&n| n >= 4),
            "{policy:?}: deaths per round {died_in:?}"
        );
    }
}
