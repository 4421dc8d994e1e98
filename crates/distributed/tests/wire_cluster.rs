//! Integration tests for the framed-TCP wire transport.
//!
//! A real cluster is stood up in-process — one `NodeServer` thread per
//! node, each owning only its placed shard behind a `127.0.0.1:0`
//! socket — and `DistributedRbc` runs the routed batch protocol over
//! it. The contracts: the wire answers are **bit-identical** to the
//! in-process transport (and therefore to the centralized search and
//! brute force), worker evals match exactly (nodes recompute stage-1
//! rep distances bit-identically), and a node that *hangs mid-frame*
//! is detected by deadline alone — no oracle — feeding the existing
//! mid-batch failover (replicated: rerouted, nothing lost) and
//! flagged-prefix degradation (single-owner: correct partial answers).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_core::batch_plan::seeded_survivors;
use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_distributed::net::{
    spawn_local_cluster, CodecError, InFlight, NetConfig, NetError, NodeServer, NodeShard,
    ProbeAck, QueryReply, QueryRequest, TcpNodeClient, WireGroup,
};
use rbc_distributed::{
    ClusterConfig, DistributedQueryStats, DistributedRbc, NodeEndpoint, PlacementPolicy,
};
use rbc_metric::{Dataset, Euclidean, QueryBatch, VectorSet};

/// Clustered rows (queries co-travel through shared ownership lists,
/// so routed groups are non-trivial on every node).
fn clustered(n: usize, nq: usize, seed: u64) -> (VectorSet, VectorSet) {
    let centers = [
        [-30.0f32, 4.0, 9.0, -2.0, 16.0, 0.5],
        [25.0, -14.0, 3.0, 11.0, -8.0, -3.0],
        [4.0, 31.0, -22.0, -17.0, 2.0, 12.0],
        [-9.0, -27.0, 15.0, 6.0, -19.0, 7.0],
    ];
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

fn build_rbc(db: &VectorSet, seed: u64, n_reps: usize) -> ExactRbc<VectorSet, Euclidean> {
    let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps);
    ExactRbc::build(db.clone(), Euclidean, params, RbcConfig::default())
}

/// Builds an in-process index and a wire-transport twin over the SAME
/// placement, so any divergence is the transport's fault alone.
fn twins(
    rbc: &ExactRbc<VectorSet, Euclidean>,
    nodes: usize,
    policy: PlacementPolicy,
    dim: usize,
) -> (
    DistributedRbc<VectorSet, Euclidean>,
    DistributedRbc<VectorSet, Euclidean>,
) {
    let local = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        policy,
        dim,
    );
    let wired = DistributedRbc::from_exact_with_placement(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        local.placement().clone(),
        dim,
    );
    (local, wired)
}

/// Wire answers equal in-process answers bit for bit — across node
/// counts, k values, and both single-owner and replicated placements —
/// and the workers report exactly the same distance-eval counts.
#[test]
fn wire_transport_is_bit_identical_to_in_process() {
    let (db, queries) = clustered(500, 24, 11);
    let rbc = build_rbc(&db, 11, 22);
    let (want_central, _) = rbc.query_batch_k(&queries, 3);

    for (nodes, policy) in [
        (1usize, PlacementPolicy::SingleOwner),
        (4, PlacementPolicy::SingleOwner),
        (4, PlacementPolicy::Replicated { factor: 2 }),
    ] {
        let (local, wired) = twins(&rbc, nodes, policy, db.dim());
        let cluster =
            spawn_local_cluster(&wired, NetConfig::default(), false).expect("cluster must start");
        let wired = wired.with_endpoints(cluster.endpoints());
        assert!(wired.is_wired());

        for k in [1usize, 3, 5] {
            let (want, want_stats) = local.query_batch_exact(&queries, k);
            let (got, got_stats) = wired.query_batch_exact(&queries, k);
            assert_eq!(
                got, want,
                "wire answers diverged (nodes={nodes}, k={k}, policy={policy:?})"
            );
            if k == 3 {
                assert_eq!(got, want_central, "both transports must equal centralized");
            }
            // Over both rounds, node by node: the wire nodes recompute
            // ρ(q, rep) bit-identically, so they cut exactly where the
            // in-process shards do.
            let evals = |stats: &DistributedQueryStats| -> Vec<u64> {
                stats.per_node.iter().map(|load| load.evals).collect()
            };
            assert_eq!(
                evals(&got_stats),
                evals(&want_stats),
                "nodes must do exactly the work the in-process shards do"
            );
            assert_eq!(got_stats.nodes_contacted, want_stats.nodes_contacted);
            assert_eq!(got_stats.comm, want_stats.comm);
            assert_eq!(got_stats.degraded_queries(), 0);
            assert_eq!(got_stats.lost_groups, 0);
        }
        assert!(
            cluster.wire_bytes() > 0,
            "traffic must actually cross sockets"
        );
        cluster.shutdown();
    }
}

fn evals(stats: &DistributedQueryStats) -> Vec<u64> {
    stats.per_node.iter().map(|load| load.evals).collect()
}

/// One step of an exchange, as a logging endpoint saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Send(usize),
    Wait(usize),
}

/// Forwards `send`/`wait` to a TCP client and logs both, in the order the
/// coordinator makes them.
#[derive(Debug)]
struct Logged {
    inner: Arc<TcpNodeClient>,
    log: Arc<Mutex<Vec<Step>>>,
}

impl NodeEndpoint for Logged {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        self.send(request).wait()
    }

    fn send<'a>(&'a self, request: &'a QueryRequest) -> InFlight<'a> {
        self.log.lock().unwrap().push(Step::Send(self.node()));
        let inner = self.inner.send(request);
        InFlight::Sent(Box::new(move || {
            self.log.lock().unwrap().push(Step::Wait(self.node()));
            inner.wait()
        }))
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        self.inner.probe()
    }
}

/// Splits a log into rounds — a run of sends, then a run of waits — and
/// returns each round's sends. Panics unless every round waits on exactly
/// the nodes it sent to, in the order it sent.
fn rounds(log: &[Step]) -> Vec<Vec<usize>> {
    let mut rounds = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let mut sends = Vec::new();
        while let Some(&Step::Send(nd)) = log.get(at) {
            sends.push(nd);
            at += 1;
        }
        let mut waits = Vec::new();
        while let Some(&Step::Wait(nd)) = log.get(at) {
            waits.push(nd);
            at += 1;
        }
        assert_eq!(waits, sends, "a round reads its replies in contact order");
        rounds.push(sends);
    }
    rounds
}

/// Each fan-out round is one pipelined exchange: every request of the
/// round is sent before the first reply is awaited, and the answers and
/// per-node work are those of the in-process twin.
#[test]
fn every_round_sends_all_its_requests_before_it_reads_a_reply() {
    let (db, queries) = clustered(600, 32, 17);
    let rbc = build_rbc(&db, 17, 24);
    let mut widest = 0;
    for policy in [
        PlacementPolicy::SingleOwner,
        PlacementPolicy::Replicated { factor: 2 },
    ] {
        let (local, wired) = twins(&rbc, 4, policy, db.dim());
        let cluster =
            spawn_local_cluster(&wired, NetConfig::default(), false).expect("cluster must start");
        let log = Arc::new(Mutex::new(Vec::new()));
        let endpoints = cluster
            .clients()
            .iter()
            .map(|client| {
                Arc::new(Logged {
                    inner: Arc::clone(client),
                    log: Arc::clone(&log),
                }) as Arc<dyn NodeEndpoint>
            })
            .collect();
        let wired = wired.with_endpoints(endpoints);
        for k in [1usize, 10] {
            log.lock().unwrap().clear();
            let (want, want_stats) = local.query_batch_exact(&queries, k);
            let (got, got_stats) = wired.query_batch_exact(&queries, k);
            assert_eq!(got, want, "policy={policy:?}, k={k}");
            assert_eq!(evals(&got_stats), evals(&want_stats));

            let rounds = rounds(&log.lock().unwrap());
            assert!(
                (1..=2).contains(&rounds.len()),
                "two rounds at most, each one exchange: {rounds:?}"
            );
            let sent: usize = rounds.iter().map(Vec::len).sum();
            assert_eq!(sent as u64, got_stats.nodes_contacted);
            for round in &rounds {
                assert!(round.windows(2).all(|w| w[0] < w[1]), "{round:?}");
                widest = widest.max(round.len());
            }
        }
        cluster.shutdown();
    }
    assert!(widest >= 2, "no round contacted two nodes");
}

/// The survivors' connection counts, by node.
fn connects(clients: &[Arc<TcpNodeClient>]) -> Vec<u64> {
    clients
        .iter()
        .map(|c| c.counters().connects.load(Ordering::Relaxed))
        .collect()
}

/// A node that fails mid-round — its server stopped (case A), or the
/// first-contacted node hung so its read times out before the others are
/// read (case B) — costs only its own exchange: the round still reads every
/// other reply, the answers match the in-process twin, and through that
/// batch and the next every survivor stays live on the connection it
/// already had.
#[test]
fn a_failure_mid_round_leaves_the_other_connections_in_step() {
    let (db, queries) = clustered(600, 32, 19);
    let rbc = build_rbc(&db, 19, 24);
    let net = NetConfig {
        read_timeout: Some(Duration::from_millis(400)),
        ..NetConfig::default()
    };
    let k = 4;
    for stop_server in [true, false] {
        let (local, wired) = twins(&rbc, 4, PlacementPolicy::Replicated { factor: 2 }, db.dim());
        let mut servers: Vec<NodeServer> = (0..4)
            .map(|node| {
                let shard = NodeShard::from_exact(wired.rbc(), wired.placement(), node);
                NodeServer::spawn(shard, false).expect("node must start")
            })
            .collect();
        let clients: Vec<Arc<TcpNodeClient>> = servers
            .iter()
            .enumerate()
            .map(|(node, server)| Arc::new(TcpNodeClient::new(node, server.addr(), net)))
            .collect();
        for client in &clients {
            client.probe().expect("every node answers before the drill");
        }
        let endpoints = clients
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn NodeEndpoint>)
            .collect();
        let wired = wired.with_endpoints(endpoints);
        let (want, _) = local.query_batch_exact(&queries, k);

        // Every node is dialed once by the probes above; a survivor that
        // dials again lost its connection to the drill.
        let dialed = connects(&clients);
        let victim = if stop_server {
            servers[1].stop();
            // The victim's connection handler closes at its next poll of
            // the stop flag; until then it still serves.
            let deadline = Instant::now() + Duration::from_secs(10);
            while clients[1].probe().is_ok() {
                assert!(Instant::now() < deadline, "a stopped server kept serving");
                std::thread::sleep(Duration::from_millis(10));
            }
            1
        } else {
            servers[0].arm_hang();
            0
        };
        let (got, stats) = wired.query_batch_exact(&queries, k);
        let case = if stop_server { "stopped" } else { "hung" };
        assert_eq!(got, want, "{case} node {victim}");
        assert!(
            stats.rerouted_groups > 0,
            "{case}: the victim was contacted"
        );
        assert_eq!(stats.lost_groups, 0);
        assert!(!wired.health().is_live(victim));

        let (again, again_stats) = wired.query_batch_exact(&queries, k);
        assert_eq!(again, want, "{case}: second batch");
        assert_eq!(again_stats.rerouted_groups, 0);
        for node in (0..4).filter(|&node| node != victim) {
            assert!(wired.health().is_live(node), "{case}: survivor {node} died");
        }
        let after = connects(&clients);
        for node in (0..4).filter(|&node| node != victim) {
            assert_eq!(
                after[node], dialed[node],
                "{case}: survivor {node} re-dialed — its exchange was abandoned"
            );
        }
        for server in &mut servers {
            server.stop();
        }
    }
}

/// An endpoint that implements only `node`, `execute` and `probe`, and
/// counts its calls.
#[derive(Debug)]
struct ExecuteOnly {
    inner: Arc<TcpNodeClient>,
    calls: Arc<AtomicU64>,
}

impl NodeEndpoint for ExecuteOnly {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.execute(request)
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        self.inner.probe()
    }
}

/// An endpoint without its own `send` defers: the round makes every one of
/// its exchanges through `execute`, and the answers and per-node work do
/// not change.
#[test]
fn an_endpoint_without_send_sees_every_exchange_through_execute() {
    let (db, queries) = clustered(600, 32, 23);
    let rbc = build_rbc(&db, 23, 24);
    let (local, wired) = twins(&rbc, 4, PlacementPolicy::Replicated { factor: 2 }, db.dim());
    let cluster =
        spawn_local_cluster(&wired, NetConfig::default(), false).expect("cluster must start");
    let calls = Arc::new(AtomicU64::new(0));
    let endpoints = cluster
        .clients()
        .iter()
        .map(|client| {
            Arc::new(ExecuteOnly {
                inner: Arc::clone(client),
                calls: Arc::clone(&calls),
            }) as Arc<dyn NodeEndpoint>
        })
        .collect();
    let wired = wired.with_endpoints(endpoints);
    for k in [1usize, 10] {
        calls.store(0, Ordering::Relaxed);
        let (want, want_stats) = local.query_batch_exact(&queries, k);
        let (got, got_stats) = wired.query_batch_exact(&queries, k);
        assert_eq!(got, want, "k={k}");
        assert_eq!(evals(&got_stats), evals(&want_stats));
        assert_eq!(calls.load(Ordering::Relaxed), got_stats.nodes_contacted);
    }
    cluster.shutdown();
}

/// A shard that holds none of a query's three nearest lists starts its
/// two phases from the nearest *local* list — a poor witness — and must
/// still contribute exactly what the same request without the
/// coordinator's cap (`γ = ∞`) would: merged with the coordinator's seeds,
/// the same top-k.
#[test]
fn shard_without_a_querys_near_lists_still_contributes_exactly() {
    let (db, queries) = clustered(600, 16, 5);
    let rbc = build_rbc(&db, 5, 24);
    let index = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(4),
        PlacementPolicy::SingleOwner,
        db.dim(),
    );
    let placement = index.placement();
    let reps = db.subset(rbc.rep_indices());
    let k = 5;
    let mut checked = 0;
    for qi in 0..queries.len() {
        let query = [queries.point(qi)];
        let (rep_dists, _) =
            BruteForce::new().pairwise(&QueryBatch::new(&query), &reps, &Euclidean);
        let (seeded, rows) = seeded_survivors(&rep_dists, rbc.lists(), k, rbc.config());
        let mut by_nearness: Vec<usize> = (0..rep_dists.len()).collect();
        by_nearness.sort_by(|&a, &b| rep_dists[a].total_cmp(&rep_dists[b]));
        // Three lists have at most three owners: one of four nodes is far.
        let far = (0..4)
            .find(|node| {
                let mut near = by_nearness[..3].iter();
                near.all(|&l| !placement.replicas_of_list[l].contains(node))
            })
            .expect("single-owner placement of three lists leaves a node out");
        let groups: Vec<WireGroup> = rows[0]
            .iter()
            .filter(|&&(list, _)| placement.replicas_of_list[list].contains(&far))
            .map(|&(list, _)| WireGroup {
                list_index: list as u32,
                members: vec![0],
            })
            .collect();
        if groups.len() < 2 {
            continue; // nothing for the second phase to decide
        }
        checked += 1;
        let shard = NodeShard::from_exact(&rbc, placement, far);
        let request = |gamma: f64| QueryRequest {
            k: k as u16,
            shrink: 1.0,
            dim: db.dim() as u16,
            gammas: vec![gamma],
            coords: queries.point(qi).to_vec(),
            groups: groups.clone(),
        };
        let merged = |reply: QueryReply| {
            let mut topk = seeded[0].clone();
            for &(index, dist) in &reply.results[0] {
                topk.push(Neighbor::new(index as usize, dist));
            }
            topk.into_sorted()
        };
        let cut = shard.execute(&request(seeded[0].threshold())).unwrap();
        let full = shard.execute(&request(f64::INFINITY)).unwrap();
        assert!(cut.evals <= full.evals);
        assert_eq!(merged(cut), merged(full), "query {qi}, node {far}");
    }
    assert!(checked >= 4, "only {checked} queries exercised a far shard");
}

/// The `(1+ε)` shrink a node receives obeys the coordinator's own rule:
/// finite and at least 1. A factor below 1 would clip every run empty and
/// an infinite one would cut true neighbours away, so both the decoder
/// and the shard refuse such a request instead of answering it wrongly.
#[test]
fn a_shrink_below_one_or_not_finite_is_refused() {
    let (db, queries) = clustered(300, 1, 31);
    let rbc = build_rbc(&db, 31, 16);
    let index = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(1),
        PlacementPolicy::SingleOwner,
        db.dim(),
    );
    let shard = NodeShard::from_exact(&rbc, index.placement(), 0);
    let request = |shrink: f64| QueryRequest {
        k: 3,
        shrink,
        dim: db.dim() as u16,
        gammas: vec![f64::INFINITY],
        coords: queries.point(0).to_vec(),
        groups: (0..rbc.lists().len())
            .map(|list| WireGroup {
                list_index: list as u32,
                members: vec![0],
            })
            .collect(),
    };
    for shrink in [1.0, 1.5] {
        let request = request(shrink);
        assert_eq!(QueryRequest::decode(&request.encode()), Ok(request.clone()));
        let reply = shard.execute(&request).expect("a valid shrink executes");
        assert_eq!(reply.results[0].len(), 3, "shrink {shrink}");
    }
    for shrink in [-1.0, 0.5, f64::NAN, f64::INFINITY] {
        let request = request(shrink);
        assert!(
            matches!(
                QueryRequest::decode(&request.encode()),
                Err(CodecError::Invalid(_))
            ),
            "decode accepted shrink {shrink}"
        );
        assert!(
            shard.execute(&request).is_err(),
            "execute accepted shrink {shrink}"
        );
    }
}

/// A node that hangs mid-frame — accepts the connection, emits two
/// bytes of a reply header, then goes silent — is detected purely by
/// the read deadline, marked dead, and its groups re-route to the
/// surviving replicas within the same batch: answers stay
/// bit-identical, nothing lost, nothing degraded.
#[test]
fn hung_node_is_detected_by_deadline_and_failed_over() {
    let (db, queries) = clustered(600, 32, 7);
    let rbc = build_rbc(&db, 7, 24);
    let (local, wired) = twins(&rbc, 4, PlacementPolicy::Replicated { factor: 2 }, db.dim());
    let net = NetConfig {
        read_timeout: Some(Duration::from_millis(400)),
        ..NetConfig::default()
    };
    let cluster = spawn_local_cluster(&wired, net, false).expect("cluster must start");
    let wired = wired.with_endpoints(cluster.endpoints());
    let (want, _) = local.query_batch_exact(&queries, 4);

    let victim = 2usize;
    cluster.hang_node(victim);
    let started = Instant::now();
    let (got, stats) = wired.query_batch_exact(&queries, 4);
    let elapsed = started.elapsed();

    assert_eq!(got, want, "failover over the wire must not change answers");
    assert_eq!(stats.lost_groups, 0, "every list had a live replica");
    assert_eq!(stats.degraded_queries(), 0);
    assert!(
        stats.rerouted_groups > 0,
        "the hung node's groups must be re-routed mid-batch"
    );
    assert!(
        !wired.health().is_live(victim),
        "the missed deadline must mark the hung node dead"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "detection must be deadline-bounded, took {elapsed:?}"
    );

    // The dead node stays routed-around on the next batch (no fresh
    // timeout wait), and an administrative revive... cannot resurrect a
    // hung server; it just re-arms detection. Routing still works.
    let (again, again_stats) = wired.query_batch_exact(&queries, 4);
    assert_eq!(again, want);
    assert_eq!(again_stats.rerouted_groups, 0, "dead node is not routed to");
    cluster.shutdown();
}

/// Same hang against a single-owner placement: the victim's lists have
/// no second home, so the affected queries degrade to flagged answers
/// that are strict prefixes of the exact top-k — never wrong, never
/// out of order — while untouched queries stay exact and unflagged.
#[test]
fn hung_single_owner_degrades_to_flagged_prefixes() {
    let (db, queries) = clustered(600, 32, 13);
    let rbc = build_rbc(&db, 13, 24);
    let (local, wired) = twins(&rbc, 4, PlacementPolicy::SingleOwner, db.dim());
    let net = NetConfig {
        read_timeout: Some(Duration::from_millis(400)),
        ..NetConfig::default()
    };
    let cluster = spawn_local_cluster(&wired, net, false).expect("cluster must start");
    let wired = wired.with_endpoints(cluster.endpoints());
    let k = 4;
    let (want, _) = local.query_batch_exact(&queries, k);

    let victim = 1usize;
    cluster.hang_node(victim);
    let (got, stats) = wired.query_batch_exact(&queries, k);

    assert!(
        stats.lost_groups > 0 && stats.degraded_queries() > 0,
        "the victim owned traffic, so some queries must degrade"
    );
    for qi in 0..queries.len() {
        if stats.degraded[qi] {
            assert!(got[qi].len() <= want[qi].len());
            assert_eq!(
                &got[qi][..],
                &want[qi][..got[qi].len()],
                "query {qi}: flagged answer must be a prefix of the exact top-k"
            );
        } else {
            assert_eq!(got[qi], want[qi], "unflagged query {qi} must stay exact");
        }
    }
    cluster.shutdown();
}

/// The control channel works end to end: probes describe the shard,
/// a client-sent hang is acknowledged before taking effect, and
/// shutdown stops a server remotely.
#[test]
fn probe_hang_and_shutdown_controls() {
    let (db, _) = clustered(300, 4, 3);
    let rbc = build_rbc(&db, 3, 12);
    let index = DistributedRbc::from_exact(rbc, ClusterConfig::with_nodes(2), db.dim());
    let net = NetConfig {
        read_timeout: Some(Duration::from_millis(300)),
        ..NetConfig::default()
    };
    let cluster = spawn_local_cluster(&index, net, false).expect("cluster must start");

    // Probes describe the placement: every point lives somewhere.
    let mut points = 0u64;
    for (node, client) in cluster.clients().iter().enumerate() {
        use rbc_distributed::NodeEndpoint;
        let ack = client.probe().expect("probe must succeed");
        assert_eq!(ack.node as usize, node);
        points += ack.points;
    }
    assert_eq!(
        points as usize,
        db.len(),
        "single-owner shards partition the db"
    );

    // A hang ordered over the wire is acknowledged, then the *next*
    // call dies by deadline.
    use rbc_distributed::NodeEndpoint;
    cluster.clients()[0].hang().expect("hang must be acked");
    assert!(
        cluster.clients()[0].probe().is_err(),
        "hung node must time out"
    );

    // Remote shutdown: the healthy node acks and stops serving.
    cluster.clients()[1]
        .shutdown()
        .expect("shutdown must be acked");
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        cluster.clients()[1].probe().is_err(),
        "a stopped server must not answer"
    );
    cluster.shutdown();
}
