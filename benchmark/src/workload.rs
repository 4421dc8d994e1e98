//! What the four workloads share: inputs made from `--seed`, brute-force
//! truth, the driver interface, and the measurement protocol (warm-up, rounds
//! of fixed work, interleaved brute-force reference rounds, calm quarter).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_metric::{Euclidean, VectorSet};

use crate::check::Tally;
use crate::estimator::{self, Round, Summary};
use crate::host;
use crate::refscan::{self, HostProbe};
use crate::report::Metrics;
use crate::rng::sub_seed;
use crate::run::{Checks, TracedPass};
use crate::spans::SpanRec;

/// Shape of every database: `gaussian_mixture(n, 16, 64, 0.05, ·)`.
pub const DIM: usize = 16;
pub const CLUSTERS: usize = 64;
pub const SPREAD: f64 = 0.05;

/// The product's own representative-sampling seed: fixed, never `--seed`.
pub const PRODUCT_SEED: u64 = 1;

/// Set-ups per end-to-end run; `setup_s` is their median. A set-up that
/// takes tens of milliseconds is repeated more often, until the set-ups
/// together took [`SETUP_MIN_TOTAL_S`], because one scheduling hiccup is a
/// large share of it.
pub const SETUP_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 15;
const SETUP_MIN_TOTAL_S: f64 = 1.0;
/// Warm-up rounds before anything is timed.
const WARMUP_ROUNDS: usize = 8;
/// One brute-force reference round after this many measured rounds.
const MEASURED_PER_BRUTE: usize = 2;
/// Highest percentile the end-to-end metrics report.
pub const TOP_PERCENTILE: f64 = 0.95;

/// The database is the same for every `--seed`; the seed draws the traffic.
/// With the database drawn from the seed too, the built index (how evenly
/// the points of a cluster split among its few representatives) changed the
/// work per query by several percent from seed to seed: `speedup_vs_brute`
/// on `exact_batch` spread 8 % over ten seeds where ten runs of one seed
/// spread 2.4 %. A gate needs the system under test to be one object.
const DATABASE_SEED: u64 = 2012;

pub fn database(n: usize) -> VectorSet {
    rbc_data::gaussian_mixture(n, DIM, CLUSTERS, SPREAD, DATABASE_SEED)
}

/// Queries from the database's own distribution (`concentration = 0`) or
/// Zipf-skewed over its clusters (`concentration > 0`).
pub fn queries(count: usize, concentration: f64, seed: u64) -> VectorSet {
    rbc_data::skewed_queries(
        count,
        DIM,
        CLUSTERS,
        SPREAD,
        concentration,
        DATABASE_SEED,
        sub_seed(seed, 2),
    )
}

pub fn rows(set: &VectorSet) -> Vec<&[f32]> {
    (0..set.len()).map(|i| set.point(i)).collect()
}

/// Brute-force k-NN of every query: the oracle all answers are checked
/// against. A sample of it is re-derived with the benchmark's own frozen
/// scan, so a product change that broke `BruteForce` and the indexes alike
/// would still be caught.
pub fn truth(db: &VectorSet, queries: &VectorSet, k: usize) -> Result<Vec<Vec<Neighbor>>, String> {
    let (truth, _) = BruteForce::new().knn(queries, db, &Euclidean, k);
    let sample = 16.min(queries.len());
    for s in 0..sample {
        let qi = s * queries.len() / sample;
        let reference = refscan::knn(db.as_flat(), DIM, queries.point(qi), k);
        let agrees = reference.len() == truth[qi].len()
            && reference.iter().zip(&truth[qi]).all(|(r, t)| {
                (r.0 == t.index || (r.1 - t.dist).abs() <= 1e-9) && (r.1 - t.dist).abs() <= 1e-6
            });
        if !agrees {
            return Err(format!(
                "brute-force truth of query {qi} disagrees with the frozen reference scan"
            ));
        }
    }
    Ok(truth)
}

/// One workload, ready to run: the system under test plus its load generator.
pub trait Driver {
    /// One measured round of fixed work; answers are checked against truth.
    fn round(&mut self) -> Round;
    /// One brute-force reference round: `BruteForce::knn` on the same
    /// database, same `k`, the workload's batch size.
    fn brute_round(&mut self) -> Round;
    /// Every distinct query once, checked; returns recall.
    fn verify(&mut self) -> f64;
    fn tally(&self) -> Tally;
    /// Benchmark-side spans recorded since the last call (traced rounds).
    fn take_spans(&mut self) -> Vec<SpanRec>;
    /// Starts the counters the per-layer metrics are deltas of.
    fn begin_accounting(&mut self) {}
    /// One extra traced round with request capture and byte accounting on;
    /// it is not part of any timing.
    fn capture_round(&mut self) {}
    /// This workload's per-layer metrics, from the traced pass and from
    /// probes that call the layers' public functions directly.
    fn layer_metrics(&mut self, pass: &TracedPass, metrics: &mut Metrics, checks: &mut Checks);
}

/// Runs `build` on a fresh copy of the database `repeats` times (more for a
/// cheap set-up when `repeats > 1`, see [`SETUP_REPEATS`]), tearing all but
/// the last down again; returns the last system, the seconds each set-up
/// took and the minor page faults each caused. Every repeat starts from a
/// `VectorSet` that has no cached blocked mirror, as a first start would.
pub fn timed_setups<S>(
    repeats: usize,
    flat: &[f32],
    mut build: impl FnMut(VectorSet) -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>, Vec<u64>) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut faults = Vec::with_capacity(repeats);
    let mut kept = None;
    while seconds.len() < repeats
        || (repeats > 1
            && seconds.len() < SETUP_MAX_REPEATS
            && seconds.iter().sum::<f64>() < SETUP_MIN_TOTAL_S)
    {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let fresh = VectorSet::from_flat(flat.to_vec(), DIM);
        let faults_before = host::minor_faults();
        let start = Instant::now();
        kept = Some(build(fresh));
        seconds.push(start.elapsed().as_secs_f64());
        faults.push(host::minor_faults() - faults_before);
    }
    (kept.expect("at least one set-up"), seconds, faults)
}

/// Measured and reference rounds of one timed region.
pub struct TimedRegion {
    pub measured: Vec<Round>,
    pub brute: Vec<Round>,
    /// Host probes (ns per point), one after every brute round.
    pub host_ns_per_point: Vec<f64>,
}

pub fn warm_up(driver: &mut dyn Driver) {
    for i in 0..WARMUP_ROUNDS {
        black_box(driver.round());
        if i % 4 == 3 {
            black_box(driver.brute_round());
        }
    }
}

/// The end-to-end timed region: rounds back to back for `budget`, a brute
/// round after every two measured ones so host drift cancels in the ratio.
pub fn timed_region(driver: &mut dyn Driver, host: &HostProbe, budget: Duration) -> TimedRegion {
    let mut region = TimedRegion {
        measured: Vec::new(),
        brute: Vec::new(),
        host_ns_per_point: Vec::new(),
    };
    let deadline = Instant::now() + budget;
    let mut slot = 0usize;
    while Instant::now() < deadline {
        if slot % (MEASURED_PER_BRUTE + 1) == MEASURED_PER_BRUTE {
            region.brute.push(driver.brute_round());
            region.host_ns_per_point.push(host.ns_per_point());
        } else {
            region.measured.push(driver.round());
        }
        slot += 1;
    }
    region
}

/// The timing half of the end-to-end metrics.
pub struct Timing {
    pub measured: Summary,
    pub brute: Summary,
    pub lat_p50_us: f64,
    pub lat_top_us: f64,
    pub speedup_vs_brute: f64,
    /// Host probe, mean of the fastest quarter (ns per point).
    pub host_ns_per_point: f64,
}

pub fn summarize_timing(region: &TimedRegion) -> Result<Timing, String> {
    let needed = estimator::samples_needed(TOP_PERCENTILE);
    let measured = estimator::summarize(&region.measured, needed).map_err(|e| {
        format!(
            "run too short: {} latency samples over {} rounds, p{} needs {}",
            e.samples,
            region.measured.len(),
            (TOP_PERCENTILE * 100.0) as u32,
            e.needed
        )
    })?;
    let brute = estimator::summarize(&region.brute, 0)
        .map_err(|_| "run too short: no brute-force reference round completed".to_string())?;
    let p50 = estimator::percentile(&measured.calm_lat_ns, 0.5).expect("pool is not empty");
    let top = estimator::percentile(&measured.calm_lat_ns, TOP_PERCENTILE)
        .expect("pool was sized for it");
    Ok(Timing {
        lat_p50_us: p50 as f64 / 1e3,
        lat_top_us: top as f64 / 1e3,
        speedup_vs_brute: measured.qps / brute.qps,
        host_ns_per_point: estimator::calm_mean(&region.host_ns_per_point),
        measured,
        brute,
    })
}

/// Runs `work` (returning how many units it did) repeatedly for `budget`
/// and at least `min_rounds` times; nanoseconds per unit over the calm
/// quarter of those rounds. The probe behind most per-layer numbers.
pub fn calm_ns_per_unit(budget: Duration, min_rounds: usize, mut work: impl FnMut() -> u64) -> f64 {
    let mut rounds = Vec::new();
    let deadline = Instant::now() + budget;
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let start = Instant::now();
        let units = work();
        rounds.push(Round {
            wall_ns: start.elapsed().as_nanos() as u64,
            queries: units,
            lat_ns: Vec::new(),
        });
    }
    let summary = estimator::summarize(&rounds, 0).expect("at least one round ran");
    1e9 / summary.qps
}

/// Times `a` and `b` alternately (so drift hits both alike) for `budget` and
/// at least `min_pairs` times each; calm-quarter time of `a` ÷ that of `b`.
pub fn calm_time_ratio(
    budget: Duration,
    min_pairs: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> f64 {
    let (mut a_ns, mut b_ns) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + budget;
    while a_ns.len() < min_pairs || Instant::now() < deadline {
        let start = Instant::now();
        a();
        a_ns.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        b();
        b_ns.push(start.elapsed().as_nanos() as f64);
    }
    estimator::calm_mean(&a_ns) / estimator::calm_mean(&b_ns)
}
