//! Workspace smoke test: the facade's re-exports compose end-to-end.
//!
//! Builds both RBC variants and the brute-force primitive purely from
//! `rbc::prelude` re-exports on a small random [`VectorSet`] and checks that
//! exact RBC agrees with brute force everywhere while one-shot answers are
//! well-formed and mostly correct. This is the first test to fail if the
//! facade wiring (crate renames, prelude contents, inter-crate versions)
//! breaks, independent of the deeper per-crate suites.

use rbc::prelude::*;

/// Deterministic pseudo-random point cloud without depending on an RNG
/// crate: a SplitMix64 stream mapped to `[-1, 1)` coordinates.
fn random_rows(n: usize, dim: usize, mut state: u64) -> Vec<Vec<f32>> {
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| ((next() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0) as f32)
                .collect()
        })
        .collect()
}

#[test]
fn exact_and_one_shot_agree_with_brute_force_via_facade() {
    let db = VectorSet::from_rows(&random_rows(600, 6, 42));
    let queries = VectorSet::from_rows(&random_rows(40, 6, 1042));
    let params = RbcParams::standard(db.len(), 7);

    let bf = BruteForce::new();
    let (truth, bf_stats) = bf.nn(&queries, &db, &Euclidean);
    assert_eq!(truth.len(), queries.len());
    assert_eq!(
        bf_stats.distance_evals,
        (db.len() * queries.len()) as u64,
        "brute force must evaluate every pair exactly once"
    );

    // Exact RBC: identical answers to brute force, for strictly less work.
    let exact = ExactRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
    let (exact_answers, exact_stats) = exact.query_batch(&queries);
    for (qi, (got, want)) in exact_answers.iter().zip(&truth).enumerate() {
        assert!(
            (got.dist - want.dist).abs() < 1e-12,
            "query {qi}: exact RBC distance {} != brute force {}",
            got.dist,
            want.dist
        );
    }
    assert!(
        exact_stats.evals_per_query() < db.len() as f64,
        "exact RBC should do less work per query than a full scan"
    );

    // One-shot RBC: probabilistic, but every answer must be a real database
    // point with a correctly reported distance, and with the standard
    // parameters most answers should be the true NN.
    let one_shot = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
    let (fast_answers, _) = one_shot.query_batch(&queries);
    let mut agree = 0;
    for (qi, (got, want)) in fast_answers.iter().zip(&truth).enumerate() {
        assert!(got.index < db.len(), "query {qi}: invalid index");
        let recomputed = Euclidean.dist(queries.point(qi), db.point(got.index));
        assert!(
            (got.dist - recomputed).abs() < 1e-12,
            "query {qi}: reported distance {} does not match the metric ({recomputed})",
            got.dist
        );
        assert!(
            got.dist >= want.dist - 1e-12,
            "query {qi}: one-shot cannot beat the true NN"
        );
        if (got.dist - want.dist).abs() < 1e-12 {
            agree += 1;
        }
    }
    assert!(
        agree * 2 > queries.len(),
        "one-shot recall collapsed: {agree}/{} queries matched brute force",
        queries.len()
    );
}

#[test]
fn facade_modules_expose_the_workspace_crates() {
    // Touch one item from every re-exported crate so a broken re-export is
    // a compile error here rather than a downstream surprise.
    let db = VectorSet::from_rows(&random_rows(64, 4, 3));
    let _ = rbc::baselines::CoverTree::build(&db, Euclidean);
    let _ = rbc::bruteforce::BruteForce::new();
    let _ = rbc::core::RbcParams::standard(64, 1);
    let _ = rbc::data::low_dim_manifold(64, 2, 4, 0.0, 5);
    let _ = rbc::distributed::ClusterConfig::with_nodes(8);
    let _ = rbc::metric::Manhattan.dist(db.point(0), db.point(1));
    let _ = rbc::serve::ServeConfig::default();
}

#[test]
fn facade_serves_an_index_end_to_end() {
    // The serving engine composed purely from prelude re-exports: submit a
    // couple of queries and check the answers against direct calls.
    let db = VectorSet::from_rows(&random_rows(400, 5, 9));
    let queries = VectorSet::from_rows(&random_rows(10, 5, 1009));
    let index = ExactRbc::build(
        db,
        Euclidean,
        RbcParams::standard(400, 11),
        RbcConfig::default(),
    );
    let engine = Engine::start(index, ServeConfig::default()).expect("valid config");
    let handle = engine.handle();
    let tickets: Vec<Ticket> = (0..queries.len())
        .map(|qi| handle.submit(queries.point(qi).to_vec(), 2).unwrap())
        .collect();
    for (qi, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().expect("served");
        let (direct, _) = engine.index().query_k(queries.point(qi), 2);
        assert_eq!(reply.neighbors, direct, "query {qi}");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 10);
}
