//! Hostile query streams: skewed, drifting, and adversarially clustered.
//!
//! The paper evaluates with queries drawn from the same distribution as
//! the database — the friendliest possible stream. Production traffic is
//! not friendly: it concentrates on a few regions (melting the nodes that
//! own them), moves over time (defeating anything tuned to yesterday's
//! distribution), or piles onto one spot (the worst case for ownership-
//! list contention and shard placement alike). This module generates
//! those streams *against* a database produced by
//! [`crate::gaussian_mixture`]: each generator
//! reconstructs the database's cluster centers from its generation seed
//! (via [`crate::mixture_centers`], a documented
//! contract) and aims queries at them deliberately.
//!
//! All generators are deterministic given their seeds and independent of
//! the parallel schedule (one RNG per point, like every generator in this
//! crate). The *stream order* is part of the output: a drifting stream's
//! early queries come from a different region than its late ones, which
//! only matters to consumers — like the micro-batching serve engine —
//! that see queries in order.
//!
//! Used by the `trajectory` perf harness and `shard_bench` in
//! `rbc-bench`; see `docs/BENCHMARKING.md`.

use rand::prelude::*;
use rand_distr::Normal;

use rbc_metric::VectorSet;

use crate::generators::{generate_rows, mixture_centers};

/// A Zipf-skewed query stream: queries are drawn around the database's
/// cluster centers, but cluster `j` is chosen with probability
/// proportional to `(j + 1)^-concentration`.
///
/// * `concentration = 0.0` reproduces the database's own uniform cluster
///   mix (a *matched* stream).
/// * `concentration ≈ 1.0` is classic web-traffic skew.
/// * `concentration ≥ 2.0` concentrates most of the stream on the first
///   couple of clusters — the regime where balanced *storage* placement
///   is maximally unbalanced *traffic* placement.
///
/// `db_seed` must be the seed the database was generated with (it
/// determines the centers); `stream_seed` varies the queries themselves.
/// Unlike [`drifting_queries`], the stream is stationary: a prefix and a
/// suffix have the same distribution.
pub fn skewed_queries(
    n: usize,
    dim: usize,
    n_clusters: usize,
    spread: f64,
    concentration: f64,
    db_seed: u64,
    stream_seed: u64,
) -> VectorSet {
    assert!(n > 0 && dim > 0 && n_clusters > 0);
    assert!(spread > 0.0, "cluster spread must be positive");
    assert!(
        concentration >= 0.0,
        "concentration must be non-negative (0 = uniform)"
    );
    let centers = mixture_centers(dim, n_clusters, db_seed);
    // Cumulative Zipf weights over clusters, normalised to [0, 1].
    let mut cumulative = Vec::with_capacity(n_clusters);
    let mut total = 0.0f64;
    for j in 0..n_clusters {
        total += ((j + 1) as f64).powf(-concentration);
        cumulative.push(total);
    }
    for c in &mut cumulative {
        *c /= total;
    }
    let normal = Normal::new(0.0f64, spread).expect("valid std dev");

    generate_rows(n, dim, stream_seed, |rng, _, row| {
        let u: f64 = rng.gen_range(0.0..1.0);
        let cluster = cumulative.partition_point(|&c| c < u).min(n_clusters - 1);
        for &coord in centers[cluster].iter().take(dim) {
            row.push(coord + rng.sample(normal) as f32);
        }
    })
}

/// A drifting (non-stationary) query stream: the hot spot moves along the
/// database's cluster-center polyline as the stream progresses.
///
/// Query `i` is drawn around the point a fraction `sweep · i / n` of the
/// way along the closed path `centers[0] → centers[1] → … → centers[0]`,
/// linearly interpolated between consecutive centers, plus Gaussian noise
/// of standard deviation `spread`. `sweep = 1.0` visits every cluster
/// once over the stream; `sweep = 0.25` drifts across the first quarter.
/// Any window of the stream is concentrated (hostile to placement), but
/// *which* region is hot changes continuously (hostile to anything tuned
/// on a prefix — the measurable mean shift between the stream's start
/// and end is what the tests pin).
pub fn drifting_queries(
    n: usize,
    dim: usize,
    n_clusters: usize,
    spread: f64,
    sweep: f64,
    db_seed: u64,
    stream_seed: u64,
) -> VectorSet {
    assert!(n > 0 && dim > 0 && n_clusters > 0);
    assert!(spread > 0.0, "cluster spread must be positive");
    assert!(sweep > 0.0, "sweep must be positive");
    let centers = mixture_centers(dim, n_clusters, db_seed);
    let normal = Normal::new(0.0f64, spread).expect("valid std dev");

    generate_rows(n, dim, stream_seed, |rng, i, row| {
        let position = sweep * i as f64 / n as f64 * n_clusters as f64;
        let from = (position.floor() as usize) % n_clusters;
        let to = (from + 1) % n_clusters;
        let frac = (position - position.floor()) as f32;
        for (a, b) in centers[from].iter().zip(&centers[to]) {
            let coord = a * (1.0 - frac) + b * frac;
            row.push(coord + rng.sample(normal) as f32);
        }
    })
}

/// An adversarially clustered query stream: every query lands in one tiny
/// ball around a single database cluster center (`centers[hot_cluster]`),
/// with isotropic Gaussian offsets of standard deviation `radius`.
///
/// This is the contention worst case: all queries share the same few
/// ownership lists, so every list-tile is maximally shared (the best case
/// for list-major batching) while the nodes owning those lists absorb the
/// entire cluster's work (the worst case for placement) and an answer
/// cache sees near-identical-but-distinct keys (no exact-match hits).
pub fn adversarial_ball_queries(
    n: usize,
    dim: usize,
    n_clusters: usize,
    radius: f64,
    hot_cluster: usize,
    db_seed: u64,
    stream_seed: u64,
) -> VectorSet {
    assert!(n > 0 && dim > 0 && n_clusters > 0);
    assert!(radius > 0.0, "ball radius must be positive");
    assert!(
        hot_cluster < n_clusters,
        "hot_cluster must name one of the {n_clusters} clusters"
    );
    let centers = mixture_centers(dim, n_clusters, db_seed);
    let center = centers[hot_cluster].clone();
    let normal = Normal::new(0.0f64, radius).expect("valid std dev");

    generate_rows(n, dim, stream_seed, |rng, _, row| {
        for &coord in center.iter().take(dim) {
            row.push(coord + rng.sample(normal) as f32);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian_mixture;
    use rbc_metric::{Euclidean, Metric};

    const DIM: usize = 8;
    const CLUSTERS: usize = 8;
    const SPREAD: f64 = 0.02;
    const DB_SEED: u64 = 7;

    fn nearest_center(point: &[f32], centers: &[Vec<f32>]) -> usize {
        centers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = Euclidean.dist(point, a.as_slice());
                let db = Euclidean.dist(point, b.as_slice());
                da.partial_cmp(&db).unwrap()
            })
            .map(|(i, _)| i)
            .unwrap()
    }

    fn mean(points: &VectorSet, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut acc = vec![0.0f64; points.dim()];
        for i in range.clone() {
            for (a, &v) in acc.iter_mut().zip(points.point(i)) {
                *a += v as f64;
            }
        }
        acc.iter().map(|a| a / range.len() as f64).collect()
    }

    #[test]
    fn generators_are_deterministic_under_fixed_seeds() {
        let a = skewed_queries(300, DIM, CLUSTERS, SPREAD, 1.5, DB_SEED, 11);
        let b = skewed_queries(300, DIM, CLUSTERS, SPREAD, 1.5, DB_SEED, 11);
        assert_eq!(a, b);
        assert_ne!(
            a,
            skewed_queries(300, DIM, CLUSTERS, SPREAD, 1.5, DB_SEED, 12)
        );

        let a = drifting_queries(300, DIM, CLUSTERS, SPREAD, 1.0, DB_SEED, 11);
        let b = drifting_queries(300, DIM, CLUSTERS, SPREAD, 1.0, DB_SEED, 11);
        assert_eq!(a, b);
        assert_ne!(
            a,
            drifting_queries(300, DIM, CLUSTERS, SPREAD, 1.0, DB_SEED, 12)
        );

        let a = adversarial_ball_queries(300, DIM, CLUSTERS, SPREAD, 0, DB_SEED, 11);
        let b = adversarial_ball_queries(300, DIM, CLUSTERS, SPREAD, 0, DB_SEED, 11);
        assert_eq!(a, b);
        assert_ne!(
            a,
            adversarial_ball_queries(300, DIM, CLUSTERS, SPREAD, 0, DB_SEED, 12)
        );
    }

    #[test]
    fn skew_matches_the_requested_concentration() {
        let n = 4000;
        let centers = mixture_centers(DIM, CLUSTERS, DB_SEED);

        // Zipf s = 1.5 over 8 clusters: the head cluster's expected share
        // is 1 / H where H = Σ (j+1)^-1.5.
        let s = 1.5f64;
        let h: f64 = (0..CLUSTERS).map(|j| ((j + 1) as f64).powf(-s)).sum();
        let expected_head = 1.0 / h;

        let stream = skewed_queries(n, DIM, CLUSTERS, SPREAD, s, DB_SEED, 21);
        let mut counts = [0usize; CLUSTERS];
        for p in stream.iter() {
            counts[nearest_center(p, &centers)] += 1;
        }
        let head_share = counts[0] as f64 / n as f64;
        assert!(
            (head_share - expected_head).abs() < 0.04,
            "head share {head_share:.3} should match the Zipf expectation {expected_head:.3}"
        );
        // The tail must be a tail: the head cluster strictly dominates the
        // last cluster by the Zipf ratio (9^1.5 ≈ 22x; allow wide slack).
        assert!(counts[0] > 5 * counts[CLUSTERS - 1].max(1));

        // Concentration 0 reproduces the database's uniform mix.
        let uniform = skewed_queries(n, DIM, CLUSTERS, SPREAD, 0.0, DB_SEED, 21);
        let mut counts = [0usize; CLUSTERS];
        for p in uniform.iter() {
            counts[nearest_center(p, &centers)] += 1;
        }
        let expected = n / CLUSTERS;
        for (j, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "cluster {j} got {c} of {n} queries under concentration 0"
            );
        }
    }

    #[test]
    fn drift_moves_the_query_distribution() {
        let n = 2000;
        let stream = drifting_queries(n, DIM, CLUSTERS, SPREAD, 1.0, DB_SEED, 31);
        let early = mean(&stream, 0..n / 4);
        let late = mean(&stream, 3 * n / 4..n);
        let shift: f64 = early
            .iter()
            .zip(&late)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        // Cluster centers are uniform in the unit cube, so distinct
        // clusters sit O(1) apart; the mean shift must dwarf the noise.
        assert!(
            shift > 10.0 * SPREAD,
            "mean shift {shift:.4} is not measurably larger than the spread {SPREAD}"
        );

        // A stationary stream of the same shape must NOT shift: the same
        // statistic on a skewed (but stationary) stream stays at noise
        // level, pinning that the drift is real and not an artifact of
        // the measurement.
        let stationary = skewed_queries(n, DIM, CLUSTERS, SPREAD, 1.5, DB_SEED, 31);
        let early = mean(&stationary, 0..n / 4);
        let late = mean(&stationary, 3 * n / 4..n);
        let stationary_shift: f64 = early
            .iter()
            .zip(&late)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            shift > 5.0 * stationary_shift,
            "drifting shift {shift:.4} should dominate the stationary baseline \
             {stationary_shift:.4}"
        );
    }

    #[test]
    fn drifting_queries_stay_near_the_center_path() {
        // With sweep 1.0 every query interpolates between two consecutive
        // database centers; its distance to the nearer of the two is
        // bounded by half the segment length plus noise.
        let n = 500;
        let centers = mixture_centers(DIM, CLUSTERS, DB_SEED);
        let stream = drifting_queries(n, DIM, CLUSTERS, SPREAD, 1.0, DB_SEED, 41);
        for (i, p) in stream.iter().enumerate() {
            let position = i as f64 / n as f64 * CLUSTERS as f64;
            let from = (position.floor() as usize) % CLUSTERS;
            let to = (from + 1) % CLUSTERS;
            let segment = Euclidean.dist(centers[from].as_slice(), centers[to].as_slice());
            let d = Euclidean
                .dist(p, centers[from].as_slice())
                .min(Euclidean.dist(p, centers[to].as_slice()));
            assert!(
                d <= segment / 2.0 + 8.0 * SPREAD * (DIM as f64).sqrt(),
                "query {i} strayed {d:.3} from its drift segment"
            );
        }
    }

    #[test]
    fn adversarial_ball_is_tight_around_its_target() {
        let n = 1000;
        let radius = 0.01f64;
        let hot = 3;
        let centers = mixture_centers(DIM, CLUSTERS, DB_SEED);
        let stream = adversarial_ball_queries(n, DIM, CLUSTERS, radius, hot, DB_SEED, 51);
        // Every query is within a few standard deviations of the target
        // center, and the ball is tiny relative to inter-center spacing.
        let bound = 6.0 * radius * (DIM as f64).sqrt();
        for p in stream.iter() {
            let d = Euclidean.dist(p, centers[hot].as_slice());
            assert!(d < bound, "query strayed {d:.4} from the target ball");
            assert_eq!(nearest_center(p, &centers), hot);
        }
    }

    #[test]
    fn streams_aim_at_the_database_actually_generated() {
        // The whole point of the db_seed parameter: a hostile stream lands
        // inside the database's occupied regions, not off in empty space.
        let db = gaussian_mixture(2000, DIM, CLUSTERS, SPREAD, DB_SEED);
        let stream = skewed_queries(200, DIM, CLUSTERS, SPREAD, 2.0, DB_SEED, 61);
        for q in stream.iter() {
            let nearest = db
                .iter()
                .map(|p| Euclidean.dist(q, p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 10.0 * SPREAD * (DIM as f64).sqrt(),
                "skewed query fell {nearest:.3} away from every database point"
            );
        }
    }

    #[test]
    #[should_panic(expected = "hot_cluster must name")]
    fn ball_rejects_out_of_range_cluster() {
        let _ = adversarial_ball_queries(10, 4, 4, 0.1, 4, 1, 2);
    }

    #[test]
    #[should_panic(expected = "concentration must be non-negative")]
    fn skew_rejects_negative_concentration() {
        let _ = skewed_queries(10, 4, 4, 0.1, -1.0, 1, 2);
    }
}
