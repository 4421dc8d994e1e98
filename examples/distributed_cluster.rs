//! Distributed RBC — the paper's future-work scenario.
//!
//! The paper's conclusion suggests distributing the database across nodes
//! "according to the representatives". This example builds that system on
//! a simulated cluster: an exact RBC is sharded over 2 to 16 nodes, each
//! batch of exact queries is routed to the nodes that can contain the
//! answers, and the harness reports how many nodes each query touched and
//! how much communication the protocol would have cost.
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_cluster
//! ```

use rbc::distributed::{ClusterConfig, DistributedRbc};
use rbc::prelude::*;

#[path = "util/scale.rs"]
mod util;
use util::scaled;

fn main() {
    let n = scaled(40_000);
    println!("generating {n} database points (robot-arm workload) and 400 queries ...");
    let database = rbc::data::robot_arm_trajectories(n, 7, 5);
    let queries = rbc::data::robot_arm_trajectories(400, 7, 6);
    let dim = database.dim();

    // Build the exact RBC on the "coordinator", then shard it.
    let params = RbcParams::standard(database.len(), 7)
        .with_n_reps(((database.len() as f64).sqrt() * 2.0) as usize);
    let rbc = ExactRbc::build(&database, Euclidean, params, RbcConfig::default());
    println!(
        "built the exact RBC: {} representatives over {} points",
        rbc.num_reps(),
        database.len()
    );

    for nodes in [2usize, 4, 8, 16] {
        let cluster = ClusterConfig::with_nodes(nodes);
        let index = DistributedRbc::from_exact(rbc.clone(), cluster, dim);
        let placement = index.placement();
        let (answers, stats) = index.query_batch_exact(&queries, 1);

        // Verify against local brute force on a sample of queries.
        let bf = BruteForce::new();
        let mut checked = 0;
        let mut agree = 0;
        for qi in (0..queries.len()).step_by(40) {
            checked += 1;
            let (truth, _) = bf.nn_single(queries.point(qi), &database, &Euclidean);
            if (answers[qi][0].dist - truth.dist).abs() < 1e-9 {
                agree += 1;
            }
        }

        println!(
            "\n{nodes:>2} nodes: shard imbalance {:.2}, {} / {} sampled answers exact",
            placement.imbalance(),
            agree,
            checked
        );
        println!(
            "   exact protocol : {:.2} nodes contacted per query, {:.1} KB total traffic, {:.0} modeled comm us/query",
            stats.nodes_contacted_per_query(),
            stats.comm.total_bytes() as f64 / 1024.0,
            stats.comm.modeled_time_us / queries.len() as f64
        );
        println!(
            "   work           : {:.0} distance evals/query ({:.0} on the busiest node)",
            stats.total_evals() as f64 / queries.len() as f64,
            stats.max_node_evals as f64
        );
    }
}
