//! `shard_bench` — the routed batch protocol across cluster sizes,
//! placement policies, and failures.
//!
//! Not a paper artifact: the paper's conclusion sketches sharding the
//! database by representative and defers "I/O and communication costs" to
//! future work. This binary measures exactly those costs for the routed
//! list-major batch protocol (`DistributedRbc::query_batch_exact`), in
//! two sweeps:
//!
//! 1. **Cluster sweep** — the same clustered query stream replayed in
//!    micro-batches of several sizes against single-owner clusters of
//!    several node counts: worker/coordinator work, per-batch fan-out,
//!    bytes on the wire, observed skew.
//! 2. **Placement sweep** — a *skewed* stream (Zipf-weighted cluster
//!    choice via `rbc_data::adversarial::skewed_queries`, the traffic
//!    shape that melts one node under single-owner placement) replayed
//!    against single-owner and 2-fold-replicated placements, plus failure
//!    cells: one node down before the stream, and one node dying
//!    mid-batch.
//!
//! Several properties are asserted, so the binary doubles as an
//! end-to-end check in CI:
//!
//! * **bit-identity** — every all-nodes-live cell (any node count, batch
//!   size, or replication factor) equals the centralized list-major
//!   `ExactRbc::query_batch_k` answers (placement is routing, not
//!   approximation);
//! * **sublinear bytes-per-batch growth** — per-query bytes strictly
//!   shrink as batches grow, for single-owner *and* replicated routing
//!   (replication costs storage, never per-query messages);
//! * **skew reduction** — on the skewed stream, 2-fold replication with
//!   least-loaded routing cuts the eval skew at least 2× versus the
//!   single-owner baseline;
//! * **failover** — with replication 2 and one node down (or dying
//!   mid-batch), no groups are lost, no queries are degraded, and the
//!   answers stay bit-identical.
//!
//! The full grid is written as JSON under `results/shard_bench.json`.
//!
//! Usage: `shard_bench [--n N] [--queries N] [--clusters N] [--dim N]
//! [--k N] [--seed N] [--replication N] [--fail-node N] [--wire]`
//!
//! With `--replication` and/or `--fail-node` (and no `--wire`) the binary
//! runs only the focused failover smoke (build a replicated index, kill
//! the node, assert nothing is lost) — the CI failover step.
//!
//! With `--wire` the binary runs the wire smoke instead: it stands up a
//! real framed-TCP cluster (`rbc_distributed::net`), replays the stream
//! over the sockets, and asserts per cell bit-identity with the
//! in-process transport, identical worker evals, identical counted
//! frames on both transports, and **counted frame bytes equal to the
//! bytes that actually crossed the sockets**. Its placement is
//! single-owner, or `--replication N`-fold replicated. It runs no
//! failover, so `--fail-node` with `--wire` is a usage error (wired
//! failover is covered by `crates/distributed/tests/wire_cluster.rs`).

use std::time::Instant;

use serde::Serialize;

use rbc_bench::{write_json_records, Table};
use rbc_bruteforce::BfConfig;
use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_data::{gaussian_mixture, skewed_queries};
use rbc_distributed::{
    eval_skew, ClusterConfig, DistributedQueryStats, DistributedRbc, PlacementPolicy,
};
use rbc_metric::{Dataset, Euclidean, VectorSet};

/// Zipf concentration of the placement-sweep stream: heavy enough that
/// single-owner placement visibly melts (eval skew well above 1), mild
/// enough that the hot traffic spans several ownership lists so 2-fold
/// replication can actually rebalance it (the asserted excess-skew
/// halving). The `trajectory` harness records the same generator's
/// stream (at its own concentration) without asserting.
const SKEW_CONCENTRATION: f64 = 1.0;

/// Command-line configuration of the cluster and placement sweeps.
struct Options {
    /// Database size.
    n: usize,
    /// Length of each replayed query stream.
    queries: usize,
    /// Clusters in the Gaussian-mixture workload (also the cluster
    /// count the Zipf-skewed stream weights over).
    clusters: usize,
    /// Ambient dimension.
    dim: usize,
    /// Neighbors requested per query.
    k: usize,
    /// Base RNG seed for the database, streams, and representatives.
    seed: u64,
    /// Focused failover smoke: replication factor (with `fail_node`); with
    /// `wire`, the wire smoke's placement.
    replication: Option<usize>,
    /// Focused failover smoke: the node to kill.
    fail_node: Option<usize>,
    /// Wire smoke: run over a real framed-TCP cluster and check the
    /// counted frame bytes against the bytes on the sockets.
    wire: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            n: 20_000,
            queries: 256,
            clusters: 24,
            dim: 12,
            k: 1,
            seed: 0,
            replication: None,
            fail_node: None,
            wire: false,
        }
    }
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs an integer value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => opts.n = need(&mut args, "--n").max(2),
            "--queries" => opts.queries = need(&mut args, "--queries").max(16),
            "--clusters" => opts.clusters = need(&mut args, "--clusters").max(1),
            "--dim" => opts.dim = need(&mut args, "--dim").max(1),
            "--k" => opts.k = need(&mut args, "--k").max(1),
            "--seed" => opts.seed = need(&mut args, "--seed") as u64,
            "--replication" => opts.replication = Some(need(&mut args, "--replication").max(1)),
            "--fail-node" => opts.fail_node = Some(need(&mut args, "--fail-node")),
            "--wire" => opts.wire = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.wire && opts.fail_node.is_some() {
        usage("--fail-node cannot be combined with --wire: the wire smoke runs no failover");
    }
    opts
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: shard_bench [--n N] [--queries N] [--clusters N] [--dim N] [--k N] [--seed N] \
         [--replication N] [--fail-node N] [--wire]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// One cell of the sweep grids, flattened for JSON.
#[derive(Serialize)]
struct Record {
    sweep: &'static str,
    placement: String,
    nodes: usize,
    batch_size: usize,
    batches: usize,
    queries: usize,
    k: usize,
    mean_replication: f64,
    storage_overhead: f64,
    failed_nodes: usize,
    coordinator_evals: u64,
    worker_evals: u64,
    max_node_evals: u64,
    messages_out: u64,
    bytes_out: u64,
    bytes_in: u64,
    bytes_per_query: f64,
    eval_skew: f64,
    degraded_queries: u64,
    rerouted_groups: u64,
    lost_groups: u64,
    elapsed_ms: f64,
}

/// Replays the whole query stream through `index` in `batch_size` chunks,
/// merging the per-chunk stats.
fn run_sweep<D: Dataset<Item = [f32]>>(
    index: &DistributedRbc<D, Euclidean>,
    queries: &VectorSet,
    batch_size: usize,
    k: usize,
) -> (
    Vec<Vec<rbc_bruteforce::Neighbor>>,
    DistributedQueryStats,
    usize,
    f64,
) {
    let start = Instant::now();
    let mut stats = DistributedQueryStats::default();
    let mut answers = Vec::with_capacity(queries.len());
    let mut batches = 0usize;
    let mut begin = 0usize;
    while begin < queries.len() {
        let end = (begin + batch_size).min(queries.len());
        let indices: Vec<usize> = (begin..end).collect();
        let chunk = queries.subset(&indices);
        let (chunk_answers, chunk_stats) = index.query_batch_exact(&chunk, k);
        stats.merge(&chunk_stats);
        answers.extend(chunk_answers);
        batches += 1;
        begin = end;
    }
    (answers, stats, batches, start.elapsed().as_secs_f64() * 1e3)
}

#[allow(clippy::too_many_arguments)] // a flat report row
fn record<D: Dataset<Item = [f32]>>(
    sweep: &'static str,
    placement: &str,
    index: &DistributedRbc<D, Euclidean>,
    failed_nodes: usize,
    batch_size: usize,
    batches: usize,
    opts: &Options,
    stats: &DistributedQueryStats,
    elapsed_ms: f64,
) -> Record {
    Record {
        sweep,
        placement: placement.to_string(),
        nodes: index.cluster().nodes,
        batch_size,
        batches,
        queries: opts.queries,
        k: opts.k,
        mean_replication: index.placement().mean_replication(),
        storage_overhead: index.load().storage_overhead(),
        failed_nodes,
        coordinator_evals: stats.coordinator_evals,
        worker_evals: stats.worker_evals,
        max_node_evals: stats.max_node_evals,
        messages_out: stats.comm.messages_out,
        bytes_out: stats.comm.bytes_out,
        bytes_in: stats.comm.bytes_in,
        bytes_per_query: stats.comm.total_bytes() as f64 / opts.queries as f64,
        eval_skew: eval_skew(&stats.per_node),
        degraded_queries: stats.degraded_queries(),
        rerouted_groups: stats.rerouted_groups,
        lost_groups: stats.lost_groups,
        elapsed_ms,
    }
}

/// The focused failover smoke (`--replication` / `--fail-node`): build a
/// replicated index, kill the node, replay the stream, assert that no
/// query was lost and the answers stayed exact.
fn failover_smoke(opts: &Options) {
    let replication = opts.replication.unwrap_or(2);
    let victim = opts.fail_node.unwrap_or(0);
    let nodes = 8usize;
    if victim >= nodes {
        usage(&format!(
            "--fail-node must name one of the {nodes} nodes (got {victim})"
        ));
    }
    println!(
        "failover smoke: n = {}, {} queries, replication {replication}, node {victim} down\n",
        opts.n, opts.queries
    );
    let database = gaussian_mixture(opts.n, opts.dim, opts.clusters, 0.03, 7 + opts.seed);
    let queries = gaussian_mixture(opts.queries, opts.dim, opts.clusters, 0.03, 8 + opts.seed);
    let rbc = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(opts.n, 42 + opts.seed),
        RbcConfig::default(),
    );
    let (reference, _) = rbc.query_batch_k(&queries, opts.k);
    let index = DistributedRbc::from_exact_with_policy(
        rbc,
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated {
            factor: replication,
        },
        database.dim(),
    );
    index.fail_node(victim);
    let (answers, stats, batches, elapsed_ms) = run_sweep(&index, &queries, 64, opts.k);
    assert_eq!(
        stats.lost_groups, 0,
        "replication {replication} must keep full coverage with node {victim} down"
    );
    assert_eq!(stats.degraded_queries(), 0, "no query may be degraded");
    assert_eq!(
        answers, reference,
        "failover answers diverged from the centralized search"
    );
    println!(
        "survived: {} queries in {batches} batches, {:.1} ms, skew {:.2}, \
         0 lost groups, 0 degraded queries, answers bit-identical.",
        opts.queries,
        elapsed_ms,
        eval_skew(&stats.per_node)
    );
}

/// The wire smoke (`--wire`): a real framed-TCP cluster in this
/// process — node servers each owning only their shard behind
/// `127.0.0.1:0` sockets — replaying the same stream that the
/// in-process transport runs, cell by cell over node counts × batch
/// sizes, single-owner or `--replication N`-fold replicated. Asserted per
/// cell:
///
/// * **bit-identity** — wire answers equal the in-process answers and
///   the centralized list-major reference;
/// * **identical work** — worker distance evals match the in-process
///   shards exactly (nodes recompute stage-1 rep distances
///   bit-identically);
/// * **exact counts** — both transports count the same frames, and
///   `stats.comm.total_bytes()` equals the bytes that actually crossed
///   the sockets (frame headers included).
fn wire_smoke(opts: &Options) {
    use rbc_distributed::net::{spawn_local_cluster, NetConfig};
    let policy = match opts.replication {
        Some(factor) => PlacementPolicy::Replicated { factor },
        None => PlacementPolicy::SingleOwner,
    };
    println!(
        "wire smoke: n = {}, {} clustered queries (dim {}), k = {}, {policy:?}\n",
        opts.n, opts.queries, opts.dim, opts.k
    );
    let database = gaussian_mixture(opts.n, opts.dim, opts.clusters, 0.03, 7 + opts.seed);
    let queries = gaussian_mixture(opts.queries, opts.dim, opts.clusters, 0.03, 8 + opts.seed);
    let rbc = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(opts.n, 42 + opts.seed),
        RbcConfig::default(),
    );
    let (reference, _) = rbc.query_batch_k(&queries, opts.k);
    let batch_sizes: Vec<usize> = [1usize, 16, 64]
        .into_iter()
        .filter(|&b| b <= opts.queries)
        .collect();
    let mut table = Table::new(
        "wire transport: counted frame bytes equal the socket bytes",
        &["nodes", "batch", "frames", "wire B/q", "ms"],
    );
    for nodes in [2usize, 4] {
        let local = DistributedRbc::from_exact_with_policy(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            policy,
            database.dim(),
        );
        let wired = DistributedRbc::from_exact_with_placement(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            local.placement().clone(),
            database.dim(),
        );
        let cluster = spawn_local_cluster(&wired, NetConfig::default(), false)
            .expect("wire cluster must start");
        let wired = wired.with_endpoints(cluster.endpoints());
        for &batch_size in &batch_sizes {
            let (local_answers, local_stats, _, _) =
                run_sweep(&local, &queries, batch_size, opts.k);
            assert_eq!(local_answers, reference, "in-process transport diverged");
            let before = cluster.wire_bytes();
            let (answers, stats, _, elapsed_ms) = run_sweep(&wired, &queries, batch_size, opts.k);
            let measured = cluster.wire_bytes() - before;
            assert_eq!(
                answers, reference,
                "wire answers diverged from the centralized search at {nodes} nodes, \
                 batch size {batch_size}"
            );
            assert_eq!(
                stats.worker_evals, local_stats.worker_evals,
                "wire nodes must do exactly the work the in-process shards do \
                 ({nodes} nodes, batch size {batch_size})"
            );
            assert_eq!(
                stats.comm, local_stats.comm,
                "both transports must count the same frames \
                 ({nodes} nodes, batch size {batch_size})"
            );
            assert_eq!(
                stats.comm.total_bytes(),
                measured,
                "counted frame bytes must equal the socket bytes \
                 ({nodes} nodes, batch size {batch_size})"
            );
            table.row(&[
                nodes.to_string(),
                batch_size.to_string(),
                (stats.comm.messages_out + stats.comm.messages_in).to_string(),
                format!("{:.0}", measured as f64 / opts.queries as f64),
                format!("{elapsed_ms:.1}"),
            ]);
        }
        cluster.shutdown();
    }
    println!();
    table.print();
    println!(
        "\nwire answers bit-identical to the in-process transport and the centralized \
         search; counted frame bytes equal the socket bytes (asserted)."
    );
}

fn main() {
    let opts = parse_options();
    if opts.wire {
        wire_smoke(&opts);
        return;
    }
    if opts.replication.is_some() || opts.fail_node.is_some() {
        failover_smoke(&opts);
        return;
    }
    println!(
        "shard_bench: n = {}, {} clustered queries ({} clusters, dim {}), k = {}\n",
        opts.n, opts.queries, opts.clusters, opts.dim, opts.k
    );

    println!("generating clustered workload and building the exact RBC ...");
    let database = gaussian_mixture(opts.n, opts.dim, opts.clusters, 0.03, 7 + opts.seed);
    let queries = gaussian_mixture(opts.queries, opts.dim, opts.clusters, 0.03, 8 + opts.seed);
    let config = RbcConfig {
        bf: BfConfig {
            db_tile: 64,
            ..BfConfig::default()
        },
        ..RbcConfig::default()
    };
    let rbc = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(opts.n, 42 + opts.seed),
        config,
    );
    // The centralized list-major answers every sharded cell must hit bit
    // for bit (exact search: answers are chunking-independent).
    let (reference, _) = rbc.query_batch_k(&queries, opts.k);

    let batch_sizes: Vec<usize> = [1usize, 16, 64, 256]
        .into_iter()
        .filter(|&b| b <= opts.queries)
        .collect();

    let mut records = Vec::new();
    let mut table = Table::new(
        "sharded batched exact search: routed list-major protocol (single owner)",
        &[
            "nodes", "batch", "evals/q", "busiest", "msgs", "B/query", "skew", "ms",
        ],
    );

    for nodes in [1usize, 4, 8, 16] {
        let index = DistributedRbc::from_exact(
            rbc.clone(),
            ClusterConfig::with_nodes(nodes),
            database.dim(),
        );
        // (batch size, batches, bytes per query) for the sublinearity check.
        let mut bytes_curve: Vec<(usize, usize, f64)> = Vec::new();
        for &batch_size in &batch_sizes {
            let (answers, stats, batches, elapsed_ms) =
                run_sweep(&index, &queries, batch_size, opts.k);
            assert_eq!(
                answers, reference,
                "sharded answers diverged from the centralized list-major \
                 search at {nodes} nodes, batch size {batch_size}"
            );
            let bytes_per_query = stats.comm.total_bytes() as f64 / opts.queries as f64;
            bytes_curve.push((batch_size, batches, bytes_per_query));
            table.row(&[
                nodes.to_string(),
                batch_size.to_string(),
                format!("{:.0}", stats.total_evals() as f64 / opts.queries as f64),
                format!("{:.0}", stats.max_node_evals),
                stats.comm.messages_out.to_string(),
                format!("{bytes_per_query:.0}"),
                format!("{:.2}", eval_skew(&stats.per_node)),
                format!("{elapsed_ms:.1}"),
            ]);
            records.push(record(
                "cluster",
                "single-owner",
                &index,
                0,
                batch_size,
                batches,
                &opts,
                &stats,
                elapsed_ms,
            ));
        }
        assert_sublinear_bytes(&bytes_curve, nodes, "single-owner");
    }

    println!();
    table.print();
    println!(
        "\nanswers bit-identical to the centralized list-major search at \
         every node count and batch size."
    );
    println!("bytes per query shrink as batches grow (headers amortise per node per batch).");

    // ---- Placement sweep: the skewed stream. -------------------------
    //
    // `skewed_queries` reconstructs the database's own cluster centers
    // from its seed and Zipf-weights the cluster choice, so a handful of
    // clusters carry most of the traffic — the shape where balanced
    // storage is not balanced traffic. The same generator feeds the
    // `trajectory` harness, so this sweep and the committed trajectory
    // baselines stress the identical stream.
    let skewed = skewed_queries(
        opts.queries,
        opts.dim,
        opts.clusters,
        0.03,
        SKEW_CONCENTRATION,
        7 + opts.seed,
        9 + opts.seed,
    );
    let (skewed_reference, _) = rbc.query_batch_k(&skewed, opts.k);
    let nodes = 8usize;
    // The batch size the skew cells replay at — always one of the sizes
    // the replicated sweep below iterates (queries is floored at 16, so
    // the filtered sweep always contains 16), so `rep2_skew` is always
    // measured.
    let replay_batch = batch_sizes
        .iter()
        .copied()
        .filter(|&b| (16..=64).contains(&b))
        .max()
        .expect("--queries is floored at 16, so batch size 16 is always swept");
    println!(
        "\nplacement sweep: {} Zipf-skewed queries over the {} clusters, \
         {nodes} nodes, batch {replay_batch}",
        opts.queries, opts.clusters
    );

    let mut placement_table = Table::new(
        "skewed stream: placement policies and failures",
        &[
            "placement",
            "repl",
            "down",
            "skew",
            "busiest",
            "B/query",
            "rerouted",
            "lost",
            "degraded",
        ],
    );
    let mut placement_row = |name: &str,
                             index: &DistributedRbc<&VectorSet, Euclidean>,
                             failed: usize,
                             stats: &DistributedQueryStats| {
        placement_table.row(&[
            name.to_string(),
            format!("{:.2}", index.placement().mean_replication()),
            failed.to_string(),
            format!("{:.2}", eval_skew(&stats.per_node)),
            format!("{:.0}", stats.max_node_evals),
            format!(
                "{:.0}",
                stats.comm.total_bytes() as f64 / opts.queries as f64
            ),
            stats.rerouted_groups.to_string(),
            stats.lost_groups.to_string(),
            stats.degraded_queries().to_string(),
        ]);
    };

    // Single-owner baseline: hot lists concentrate on their owners.
    let single = DistributedRbc::from_exact(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        database.dim(),
    );
    let (answers, single_stats, batches, elapsed_ms) =
        run_sweep(&single, &skewed, replay_batch, opts.k);
    assert_eq!(answers, skewed_reference, "single-owner skewed stream");
    let single_skew = eval_skew(&single_stats.per_node);
    placement_row("single-owner", &single, 0, &single_stats);
    records.push(record(
        "placement",
        "single-owner",
        &single,
        0,
        replay_batch,
        batches,
        &opts,
        &single_stats,
        elapsed_ms,
    ));

    // 2-fold replication: every group picks the least-loaded live replica.
    let replicated = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated { factor: 2 },
        database.dim(),
    );
    let mut bytes_curve: Vec<(usize, usize, f64)> = Vec::new();
    let mut rep2_skew = f64::INFINITY;
    for &batch_size in batch_sizes.iter().filter(|&&b| b >= 16) {
        let (answers, stats, batches, elapsed_ms) =
            run_sweep(&replicated, &skewed, batch_size, opts.k);
        assert_eq!(
            answers, skewed_reference,
            "replication must not change answers (batch {batch_size})"
        );
        bytes_curve.push((
            batch_size,
            batches,
            stats.comm.total_bytes() as f64 / opts.queries as f64,
        ));
        if batch_size == replay_batch {
            rep2_skew = eval_skew(&stats.per_node);
            placement_row("replicated x2", &replicated, 0, &stats);
        }
        records.push(record(
            "placement",
            "replicated-2",
            &replicated,
            0,
            batch_size,
            batches,
            &opts,
            &stats,
            elapsed_ms,
        ));
    }
    assert_amortised_bytes(&bytes_curve, nodes, "replicated-2");
    // Skew reduction: the *excess* skew (how far above the perfect 1.0 the
    // busiest node sits) must at least halve — the floor-aware form of
    // "skew reduced 2x" that stays meaningful when the baseline is mild.
    // In the deeply skewed regime (baseline >= 3x, the 4-9x territory the
    // single-owner protocol showed on clustered streams) the plain ratio
    // must halve too.
    let single_excess = single_skew - 1.0;
    let rep2_excess = rep2_skew - 1.0;
    assert!(
        rep2_excess * 2.0 <= single_excess,
        "2-fold replication must cut the skewed-stream excess eval skew at least 2x: \
         single-owner {single_skew:.2} vs replicated {rep2_skew:.2}"
    );
    if single_skew >= 3.0 {
        assert!(
            rep2_skew * 2.0 <= single_skew,
            "2-fold replication must cut a deeply skewed stream's eval skew at least 2x: \
             single-owner {single_skew:.2} vs replicated {rep2_skew:.2}"
        );
    }

    // ---- Hot-list cells: the atomic-hot-spot worst case. -------------
    //
    // Every query in one tight ball on a single cluster: pruning funnels
    // essentially the whole batch onto one ownership list, and a
    // `(list, queries)` group is the routing atom — replication alone
    // cannot spread *one* group, so without fair-share group splitting
    // the busiest replica would still absorb the entire stream. Asserted:
    // splitting keeps answers bit-identical while cutting the busiest
    // node's evals well below the single-owner ceiling.
    let hot_stream = rbc_data::adversarial_ball_queries(
        opts.queries,
        opts.dim,
        opts.clusters,
        0.005,
        0,
        7 + opts.seed,
        11 + opts.seed,
    );
    let (hot_reference, _) = rbc.query_batch_k(&hot_stream, opts.k);
    let hot_single = DistributedRbc::from_exact(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        database.dim(),
    );
    let (answers, hot_single_stats, batches, elapsed_ms) =
        run_sweep(&hot_single, &hot_stream, replay_batch, opts.k);
    assert_eq!(answers, hot_reference, "hot-ball single-owner stream");
    placement_row("single hot-ball", &hot_single, 0, &hot_single_stats);
    records.push(record(
        "hot-list",
        "single-owner",
        &hot_single,
        0,
        replay_batch,
        batches,
        &opts,
        &hot_single_stats,
        elapsed_ms,
    ));
    let hot_replicated = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated { factor: 2 },
        database.dim(),
    );
    let (answers, hot_rep_stats, batches, elapsed_ms) =
        run_sweep(&hot_replicated, &hot_stream, replay_batch, opts.k);
    assert_eq!(answers, hot_reference, "hot-ball replicated stream");
    placement_row("repl x2 hot-ball", &hot_replicated, 0, &hot_rep_stats);
    records.push(record(
        "hot-list",
        "replicated-2-split",
        &hot_replicated,
        0,
        replay_batch,
        batches,
        &opts,
        &hot_rep_stats,
        elapsed_ms,
    ));
    assert!(
        (hot_rep_stats.max_node_evals as f64) <= 0.75 * hot_single_stats.max_node_evals as f64,
        "group splitting must cut the hot-ball critical path: busiest node \
         {} evals single-owner vs {} replicated x2",
        hot_single_stats.max_node_evals,
        hot_rep_stats.max_node_evals
    );

    // Failure cells: one node down before the stream, and one node dying
    // mid-batch — with replication 2 neither may lose or degrade anything.
    let failed = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated { factor: 2 },
        database.dim(),
    );
    let victim = single_stats
        .per_node
        .iter()
        .max_by_key(|l| l.evals)
        .map(|l| l.node)
        .unwrap_or(0);
    failed.fail_node(victim);
    let (answers, failed_stats, batches, elapsed_ms) =
        run_sweep(&failed, &skewed, replay_batch, opts.k);
    assert_eq!(answers, skewed_reference, "one-node-down answers");
    assert_eq!(failed_stats.lost_groups, 0, "replication 2 covers one loss");
    assert_eq!(failed_stats.degraded_queries(), 0);
    placement_row("replicated x2", &failed, 1, &failed_stats);
    records.push(record(
        "placement",
        "replicated-2-node-down",
        &failed,
        1,
        replay_batch,
        batches,
        &opts,
        &failed_stats,
        elapsed_ms,
    ));

    let poisoned = DistributedRbc::from_exact_with_policy(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated { factor: 2 },
        database.dim(),
    );
    poisoned.poison_node(victim);
    let (answers, poisoned_stats, batches, elapsed_ms) =
        run_sweep(&poisoned, &skewed, replay_batch, opts.k);
    assert_eq!(answers, skewed_reference, "mid-batch-failure answers");
    assert_eq!(poisoned_stats.lost_groups, 0);
    assert_eq!(poisoned_stats.degraded_queries(), 0);
    placement_row("repl x2 midbatch", &poisoned, 1, &poisoned_stats);
    records.push(record(
        "placement",
        "replicated-2-mid-batch",
        &poisoned,
        1,
        replay_batch,
        batches,
        &opts,
        &poisoned_stats,
        elapsed_ms,
    ));

    println!();
    placement_table.print();
    println!(
        "\nskewed-stream eval skew: single-owner {single_skew:.2} -> replicated x2 \
         {rep2_skew:.2} (excess skew at least halved, asserted)."
    );
    println!(
        "failover: node {victim} down (and dying mid-batch) with replication 2: \
         0 lost groups, 0 degraded queries, answers bit-identical."
    );

    match write_json_records("shard_bench", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write JSON records: {error}"),
    }
}

/// The endpoint form of the amortisation claim, for *replicated*
/// placements under skewed traffic: least-loaded replica steering may
/// trade a few header bytes between adjacent batch sizes (splitting a
/// hot list's groups across both replicas contacts more nodes), so the
/// window-by-window monotonicity of [`assert_sublinear_bytes`] is too
/// strong — but coalescing the whole stream into fewer fan-out rounds
/// must still cost fewer bytes per query than the smallest batching.
fn assert_amortised_bytes(bytes_curve: &[(usize, usize, f64)], nodes: usize, placement: &str) {
    let coalescing: Vec<&(usize, usize, f64)> =
        bytes_curve.iter().filter(|(b, _, _)| *b >= 16).collect();
    if let (Some((b1, rounds1, per_query1)), Some((b2, rounds2, per_query2))) =
        (coalescing.first(), coalescing.last())
    {
        if rounds2 < rounds1 {
            assert!(
                per_query2 < per_query1,
                "bytes per query did not amortise from batch {b1} to {b2} \
                 at {nodes} nodes ({placement}: {per_query1:.1} -> {per_query2:.1})"
            );
        }
    }
}

/// Per-batch fan-out makes bytes on the wire grow sublinearly in the
/// batch size: per-query bytes must strictly shrink between batch sizes
/// of 16 and up, whenever the larger size actually coalesces the stream
/// into fewer fan-out rounds.
fn assert_sublinear_bytes(bytes_curve: &[(usize, usize, f64)], nodes: usize, placement: &str) {
    for pair in bytes_curve
        .iter()
        .filter(|(b, _, _)| *b >= 16)
        .collect::<Vec<_>>()
        .windows(2)
    {
        let (b1, rounds1, per_query1) = *pair[0];
        let (b2, rounds2, per_query2) = *pair[1];
        if rounds2 < rounds1 {
            assert!(
                per_query2 < per_query1,
                "bytes per query did not shrink from batch {b1} to {b2} \
                 at {nodes} nodes ({placement}: {per_query1:.1} -> {per_query2:.1})"
            );
        }
    }
}
