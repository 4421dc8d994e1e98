//! Estimators that survive a shared host: the calm quarter, the percentile
//! rule, and the quartile spread the stability report uses.
//!
//! Interference from a noisy neighbour only ever *adds* time to a round, so
//! the fastest rounds of a run are the ones closest to what the program
//! itself costs. Every timing metric of the benchmark is computed over the
//! **calm quarter**: the fastest 25 % of rounds, ranked by wall time per
//! query. All rounds of one kind do identical work, so the ranking picks
//! quiet moments, not cheap inputs.

/// Share of rounds that form the calm set.
pub const CALM_SHARE: f64 = 0.25;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// One round of fixed work.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall time of the whole round.
    pub wall_ns: u64,
    /// Queries answered in the round.
    pub queries: u64,
    /// Latency samples taken inside the round (may be empty).
    pub lat_ns: Vec<u64>,
}

impl Round {
    fn ns_per_query(&self) -> f64 {
        self.wall_ns as f64 / self.queries.max(1) as f64
    }
}

/// Indices of all rounds, fastest (per query) first.
fn ranked(rounds: &[Round]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| {
        rounds[a]
            .ns_per_query()
            .total_cmp(&rounds[b].ns_per_query())
            .then(a.cmp(&b))
    });
    order
}

/// Number of rounds in the calm quarter of `n` rounds (at least one).
pub fn calm_count(n: usize) -> usize {
    ((n as f64 * CALM_SHARE).ceil() as usize).clamp(1, n.max(1))
}

/// Indices of the calm quarter: the fastest `ceil(n / 4)` rounds.
#[cfg(test)]
fn calm_indices(rounds: &[Round]) -> Vec<usize> {
    let mut order = ranked(rounds);
    order.truncate(calm_count(rounds.len()));
    order
}

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub needed: usize,
}

/// Samples a pool must hold before `p` (in `0..1`) may be reported: the
/// smallest `n` with at least [`MIN_BEYOND`] samples beyond the nearest-rank
/// percentile.
pub fn samples_needed(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Nearest-rank percentile of an ascending slice. Refuses a percentile with
/// fewer than [`MIN_BEYOND`] samples beyond it; the median (`p <= 0.5`) only
/// needs a non-empty pool.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let needed = if p <= 0.5 { 1 } else { samples_needed(p) };
    if n == 0 || (p > 0.5 && n - rank < MIN_BEYOND) {
        return Err(TooFewSamples { samples: n, needed });
    }
    Ok(sorted[rank - 1])
}

/// Queries per second over a set of rounds.
fn qps_over(rounds: &[Round], picked: &[usize]) -> f64 {
    let queries: u64 = picked.iter().map(|&i| rounds[i].queries).sum();
    let wall: u64 = picked.iter().map(|&i| rounds[i].wall_ns).sum();
    queries as f64 * 1e9 / wall.max(1) as f64
}

/// What one kind of round says about a run.
#[derive(Clone, Debug)]
pub struct Summary {
    pub rounds: usize,
    pub calm_rounds: usize,
    /// Queries per second over the calm set.
    pub qps: f64,
    /// Queries per second over every round, for spotting a disturbed run.
    pub qps_all: f64,
    /// All-rounds time per query ÷ calm time per query (1.0 on a quiet host).
    pub round_spread: f64,
    /// Ascending pooled latency samples of the calm set.
    pub calm_lat_ns: Vec<u64>,
    /// Wall time per query of every round, in run order (ns).
    pub series_ns_per_query: Vec<f64>,
}

/// Summarises rounds over their calm quarter. When `min_lat_samples` is
/// non-zero and the quarter's pooled latency samples fall short of it, the
/// calm set is widened, fastest rounds first, only until the pool is large
/// enough (so a slightly slow run still reports the same percentile);
/// `Err` when even every round together cannot support it.
pub fn summarize(rounds: &[Round], min_lat_samples: usize) -> Result<Summary, TooFewSamples> {
    let order = ranked(rounds);
    let mut take = calm_count(rounds.len()).min(order.len());
    let pooled =
        |take: usize| -> usize { order[..take].iter().map(|&i| rounds[i].lat_ns.len()).sum() };
    while take < order.len() && pooled(take) < min_lat_samples {
        take += 1;
    }
    if pooled(take) < min_lat_samples || rounds.is_empty() {
        return Err(TooFewSamples {
            samples: pooled(take),
            needed: min_lat_samples.max(1),
        });
    }
    let picked = &order[..take];
    let mut calm_lat_ns: Vec<u64> = picked
        .iter()
        .flat_map(|&i| rounds[i].lat_ns.iter().copied())
        .collect();
    calm_lat_ns.sort_unstable();
    let qps = qps_over(rounds, picked);
    let qps_all = qps_over(rounds, &order);
    Ok(Summary {
        rounds: rounds.len(),
        calm_rounds: take,
        qps,
        qps_all,
        round_spread: qps / qps_all,
        calm_lat_ns,
        series_ns_per_query: rounds.iter().map(Round::ns_per_query).collect(),
    })
}

/// Mean of the smallest quarter of a sample (the calm quarter of plain
/// durations).
pub fn calm_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(calm_count(sorted.len()));
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_ns: u64, queries: u64, lat: &[u64]) -> Round {
        Round {
            wall_ns,
            queries,
            lat_ns: lat.to_vec(),
        }
    }

    #[test]
    fn calm_quarter_is_the_fastest_quarter_per_query() {
        // Eight rounds of 100 queries; two are quiet, the rest disturbed.
        let mut rounds: Vec<Round> = (0..8).map(|i| round(2_000 + 100 * i, 100, &[])).collect();
        rounds[5] = round(1_000, 100, &[]);
        rounds[2] = round(1_100, 100, &[]);
        let calm = calm_indices(&rounds);
        assert_eq!(calm, vec![5, 2]);
        let s = summarize(&rounds, 0).unwrap();
        assert_eq!(s.calm_rounds, 2);
        // 200 queries in 2100 ns.
        assert!((s.qps - 200.0 * 1e9 / 2100.0).abs() < 1e-3);
        assert!(
            s.round_spread > 1.5,
            "disturbed rounds must show: {}",
            s.round_spread
        );
    }

    #[test]
    fn calm_quarter_ranks_by_time_per_query_not_wall() {
        // A long round of many queries is calmer than a short round of few.
        let rounds = vec![
            round(4_000, 400, &[]),
            round(2_000, 100, &[]),
            round(3_000, 100, &[]),
            round(3_500, 100, &[]),
        ];
        assert_eq!(calm_indices(&rounds), vec![0]);
    }

    #[test]
    fn quiet_host_means_calm_and_all_rounds_coincide() {
        let rounds: Vec<Round> = (0..12).map(|_| round(1_000, 10, &[])).collect();
        let s = summarize(&rounds, 0).unwrap();
        assert_eq!(s.calm_rounds, 3);
        assert!((s.round_spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calm_set_widens_only_until_the_latency_pool_suffices() {
        // 8 rounds × 30 samples: the quarter (2 rounds) pools 60 samples;
        // asking for 100 widens to 4 rounds, no further.
        let rounds: Vec<Round> = (0..8).map(|i| round(1_000 + i, 10, &vec![7; 30])).collect();
        let s = summarize(&rounds, 100).unwrap();
        assert_eq!(s.calm_rounds, 4);
        assert_eq!(s.calm_lat_ns.len(), 120);
        assert_eq!(
            summarize(&rounds, 1_000).unwrap_err(),
            TooFewSamples {
                samples: 240,
                needed: 1_000
            }
        );
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let pool: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&pool, 0.95), Ok(190));
        assert_eq!(percentile(&pool, 0.50), Ok(100));
        // 199 samples leave only 9 beyond the 95th percentile.
        assert_eq!(
            percentile(&pool[..199], 0.95),
            Err(TooFewSamples {
                samples: 199,
                needed: 200
            })
        );
        // p99 needs 1000.
        assert_eq!(samples_needed(0.99), 1000);
        assert!(percentile(&pool, 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&[5], 0.5), Ok(5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3.0, 1.0, 2.0, 10.0, 4.0], n=4) == [1.5, 3.0, 7.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0, 10.0, 4.0]) - 3.0).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calm_mean_averages_the_fastest_quarter() {
        assert_eq!(calm_mean(&[9.0, 1.0, 8.0, 3.0, 7.0, 6.0, 5.0, 4.0]), 2.0);
        assert_eq!(calm_mean(&[]), 0.0);
    }
}
