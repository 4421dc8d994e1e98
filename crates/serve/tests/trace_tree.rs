//! The observability acceptance bar: one batched query routed through
//! the serving engine over a 4-node distributed RBC must come back with
//! a *single* trace tree that explains where its latency went —
//! queue-wait, stage-1 planning, per-node scans, and the merge — and the
//! explanation must actually add up: the recorded queue-wait plus the
//! batch execution span must cover the reply's measured latency to
//! within 10%.

use std::time::Duration;

use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_distributed::{ClusterConfig, DistributedRbc};
use rbc_metric::Euclidean;
use rbc_metric::VectorSet;
use rbc_serve::{Engine, ServeConfig};
use rbc_trace::{clear, drain, set_sampling, Sampling, SpanRecord};

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

#[test]
fn one_query_through_a_four_node_cluster_yields_one_accounting_tree() {
    let db = cloud(600, 6, 11);
    let index = ExactRbc::build(
        db.clone(),
        Euclidean,
        RbcParams::standard(600, 9),
        RbcConfig::default(),
    );
    let sharded = DistributedRbc::from_exact(index, ClusterConfig::with_nodes(4), db.dim());

    set_sampling(Sampling::Always);
    clear();

    // A generous linger makes queue-wait the dominant, *deliberate* cost
    // — exactly what the trace must attribute — and keeps the wall time
    // large relative to scheduling noise for the 10% accounting check.
    let engine = Engine::start(
        sharded,
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
    let wall = reply.latency;
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
