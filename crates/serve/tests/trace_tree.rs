//! The observability acceptance bar: one batched query routed through
//! the serving engine over a 4-node distributed RBC must come back with
//! a *single* trace tree that explains where its latency went —
//! queue-wait, stage-1 planning, per-node scans, and the merge — and the
//! explanation must actually add up: the recorded queue-wait plus the
//! batch execution span must cover the reply's measured latency to
//! within 10%.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_distributed::net::{spawn_local_cluster, NetConfig};
use rbc_distributed::{ClusterConfig, DistributedRbc};
use rbc_metric::Euclidean;
use rbc_metric::VectorSet;
use rbc_serve::{Engine, ServeConfig};
use rbc_trace::{clear, drain, set_sampling, Sampling, SpanRecord};

/// Sampling and the span rings are process-global, so the tests here must
/// not interleave.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic pseudo-random cloud (LCG; no RNG dependency needed).
fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            row.push(((state >> 33) as f32 / u32::MAX as f32) * 10.0 - 5.0);
        }
        rows.push(row);
    }
    VectorSet::from_rows(&rows)
}

/// `true` when `record` sits (transitively) under the span with `root`'s
/// id.
fn descends_from(records: &[SpanRecord], record: &SpanRecord, root_id: u64) -> bool {
    let mut parent = record.parent;
    while let Some(id) = parent {
        if id == root_id {
            return true;
        }
        parent = records.iter().find(|r| r.id == id).and_then(|r| r.parent);
    }
    false
}

/// The four-node cluster both tests serve from.
fn four_node_cluster() -> (VectorSet, DistributedRbc<VectorSet, Euclidean>) {
    let db = cloud(600, 6, 11);
    let index = ExactRbc::build(
        db.clone(),
        Euclidean,
        RbcParams::standard(600, 9),
        RbcConfig::default(),
    );
    let sharded = DistributedRbc::from_exact(index, ClusterConfig::with_nodes(4), db.dim());
    (db, sharded)
}

/// Serves point 17 of `db` through an engine over `index` with every span
/// sampled; returns the recorded spans and the reply's measured latency.
fn trace_one_query(
    db: &VectorSet,
    index: DistributedRbc<VectorSet, Euclidean>,
) -> (Vec<SpanRecord>, Duration) {
    set_sampling(Sampling::Always);
    clear();

    // A generous linger makes queue-wait the dominant, *deliberate* cost
    // — exactly what the trace must attribute — and keeps the wall time
    // large relative to scheduling noise for the 10% accounting check.
    let engine = Engine::start(
        index,
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(16)
            .with_linger(Duration::from_millis(5)),
    )
    .expect("valid config");
    let reply = engine
        .handle()
        .submit(db.point(17).to_vec(), 3)
        .expect("submit")
        .wait()
        .expect("served");
    engine.shutdown();

    let records = drain();
    set_sampling(Sampling::Off);
    (records, reply.latency)
}

#[test]
fn one_query_through_a_four_node_cluster_yields_one_accounting_tree() {
    let _serial = serial();
    let (db, sharded) = four_node_cluster();
    let (records, latency) = trace_one_query(&db, sharded);

    // Exactly one root: the micro-batch the query rode in.
    let roots: Vec<&SpanRecord> = records.iter().filter(|r| r.parent.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "one submitted query must produce exactly one trace tree, got {roots:?}"
    );
    let root = roots[0];
    assert_eq!(root.label, "serve.batch");
    // Every recorded span belongs to that one tree.
    for record in &records {
        assert!(
            record.id == root.id || descends_from(&records, record, root.id),
            "span {record:?} is outside the batch's tree"
        );
    }

    let find_all =
        |label: &str| -> Vec<&SpanRecord> { records.iter().filter(|r| r.label == label).collect() };
    let find_one = |label: &str| -> &SpanRecord {
        let matches = find_all(label);
        assert_eq!(matches.len(), 1, "expected exactly one {label} span");
        matches[0]
    };

    // The stages the issue names, each present and correctly parented.
    let queue_wait = find_one("serve.queue_wait");
    assert_eq!(queue_wait.parent, Some(root.id));
    let search = find_one("serve.search");
    assert_eq!(search.parent, Some(root.id));
    let plan = find_one("dist.plan"); // stage-1 BF(q, R) + eq.1/eq.2 plan
    assert!(descends_from(&records, plan, search.id));
    let scan = find_one("dist.scan");
    assert!(descends_from(&records, scan, search.id));
    let merge = find_one("dist.merge");
    assert!(descends_from(&records, merge, search.id));

    // Per-node scans over two rounds: the owner of the query's nearest
    // list, then up to all four nodes for the lists its threshold still
    // admits. Every node span, and the coordinator's re-plan between the
    // rounds, sits under the one scan fan-out.
    let nodes = find_all("dist.node");
    assert!(
        (2..=5).contains(&nodes.len()),
        "expected 2..=5 per-node scan spans, got {}",
        nodes.len()
    );
    for node in &nodes {
        assert_eq!(node.parent, Some(scan.id));
    }
    let replan = find_one("dist.replan");
    assert_eq!(replan.parent, Some(scan.id));

    // The accounting adds up: the recorded queue wait plus the batch
    // execution span cover the reply's measured submit-to-completion
    // latency to within 10%.
    let covered = Duration::from_nanos(queue_wait.dur_ns + root.dur_ns);
    let wall = latency;
    let ratio = covered.as_secs_f64() / wall.as_secs_f64().max(1e-12);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "trace covers {covered:?} of {wall:?} measured latency (ratio {ratio:.3})"
    );

    // Stage durations nest sanely: children never outlast the phases
    // that contain them.
    assert!(queue_wait.dur_ns + search.dur_ns <= covered.as_nanos() as u64);
    assert!(plan.dur_ns + scan.dur_ns + merge.dur_ns <= search.dur_ns);
    for node in &nodes {
        assert!(node.dur_ns <= scan.dur_ns);
    }
    assert!(replan.dur_ns <= scan.dur_ns);
}

/// The same query over a wire cluster: each node's exchange is one
/// `dist.node` span under the scan, from its send to its decoded reply,
/// holding exactly one `net.send` and one `net.recv`, and the tree still
/// accounts for the reply's latency.
#[test]
fn one_query_through_a_four_node_wire_cluster_yields_one_accounting_tree() {
    let _serial = serial();
    let (db, sharded) = four_node_cluster();
    let cluster =
        spawn_local_cluster(&sharded, NetConfig::default(), false).expect("cluster must start");
    let wired = sharded.with_endpoints(cluster.endpoints());
    let (records, latency) = trace_one_query(&db, wired);
    cluster.shutdown();

    // The node servers run as threads of this process, and their scans
    // open trees of their own; the coordinator's tree is the one rooted
    // at the batch.
    let roots: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.parent.is_none() && r.label == "serve.batch")
        .collect();
    assert_eq!(roots.len(), 1, "one batch tree, got {roots:?}");
    let root = roots[0];
    for record in &records {
        if ["serve.", "dist.", "net."]
            .iter()
            .any(|p| record.label.starts_with(p))
        {
            assert!(
                record.id == root.id || descends_from(&records, record, root.id),
                "span {record:?} is outside the batch's tree"
            );
        }
    }
    let find_all =
        |label: &str| -> Vec<&SpanRecord> { records.iter().filter(|r| r.label == label).collect() };
    let scans = find_all("dist.scan");
    assert_eq!(scans.len(), 1);
    let scan = scans[0];

    let nodes = find_all("dist.node");
    assert!(
        (2..=5).contains(&nodes.len()),
        "expected 2..=5 per-node exchange spans, got {}",
        nodes.len()
    );
    for node in &nodes {
        assert_eq!(node.parent, Some(scan.id));
        assert!(node.start_ns >= scan.start_ns);
        assert!(node.start_ns + node.dur_ns <= scan.start_ns + scan.dur_ns);
        for label in ["net.send", "net.recv"] {
            let children: Vec<&SpanRecord> = records
                .iter()
                .filter(|r| r.label == label && r.parent == Some(node.id))
                .collect();
            assert_eq!(children.len(), 1, "{label} under {node:?}");
            let child = children[0];
            assert!(child.start_ns >= node.start_ns);
            assert!(child.start_ns + child.dur_ns <= node.start_ns + node.dur_ns);
        }
    }
    assert_eq!(
        find_all("net.send").len(),
        nodes.len(),
        "every exchange sits under a node span"
    );

    let queue_wait = find_all("serve.queue_wait");
    assert_eq!(queue_wait.len(), 1);
    let covered = Duration::from_nanos(queue_wait[0].dur_ns + root.dur_ns);
    let ratio = covered.as_secs_f64() / latency.as_secs_f64().max(1e-12);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "trace covers {covered:?} of {latency:?} measured latency (ratio {ratio:.3})"
    );
}
