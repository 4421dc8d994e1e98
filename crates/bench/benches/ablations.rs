//! Ablation benches for the exact-search design choices the paper calls
//! out: the two representative pruning rules (eq. 1 and eq. 2 / Lemma 1)
//! and the sorted-ownership-list cut (the "4γ" observation after Claim 2).

use criterion::{criterion_group, criterion_main, Criterion};

use rbc_bench::PreparedWorkload;
use rbc_core::{ExactRbc, RbcConfig, RbcParams};
use rbc_data::standard_catalog;
use rbc_metric::Euclidean;

fn bench_pruning_ablations(c: &mut Criterion) {
    let mut spec = standard_catalog(0.01)
        .into_iter()
        .find(|s| s.name == "cov")
        .expect("catalog entry");
    spec.n_queries = 64;
    let w = PreparedWorkload::generate(&spec).truncated(6_000, 32);
    let n = w.n();
    let params = RbcParams::standard(n, 31);

    let configs: Vec<(&str, RbcConfig)> = vec![
        ("full", RbcConfig::default()),
        (
            "no_radius_bound",
            RbcConfig {
                use_radius_bound: false,
                ..RbcConfig::default()
            },
        ),
        (
            "no_lemma1_bound",
            RbcConfig {
                use_lemma1_bound: false,
                ..RbcConfig::default()
            },
        ),
        (
            "no_sorted_list_cut",
            RbcConfig {
                sorted_list_pruning: false,
                ..RbcConfig::default()
            },
        ),
        (
            "no_pruning_at_all",
            RbcConfig {
                sorted_list_pruning: false,
                ..RbcConfig::default().without_pruning()
            },
        ),
        ("approx_eps_0.5", RbcConfig::default().with_epsilon(0.5)),
    ];

    let mut group = c.benchmark_group("ablations/exact_query_batch");
    for (name, config) in configs {
        let rbc = ExactRbc::build(&w.database, Euclidean, params.clone(), config);
        group.bench_function(name, |b| {
            b.iter(|| rbc.query_batch(&w.queries));
        });
    }
    group.finish();
}

fn bench_one_shot_list_size_ablation(c: &mut Criterion) {
    use rbc_core::OneShotRbc;
    let mut spec = standard_catalog(0.01)
        .into_iter()
        .find(|s| s.name == "bio")
        .expect("catalog entry");
    spec.n_queries = 64;
    let w = PreparedWorkload::generate(&spec).truncated(6_000, 32);
    let n = w.n();
    let sqrt_n = (n as f64).sqrt().ceil() as usize;

    let mut group = c.benchmark_group("ablations/one_shot_list_size");
    for (name, nr, s) in [
        ("nr=s=sqrt_n", sqrt_n, sqrt_n),
        ("nr=sqrt_n_s=4sqrt_n", sqrt_n, 4 * sqrt_n),
        ("nr=4sqrt_n_s=sqrt_n", 4 * sqrt_n, sqrt_n),
    ] {
        let params = RbcParams::standard(n, 37)
            .with_n_reps(nr.min(n))
            .with_list_size(s.min(n));
        let rbc = OneShotRbc::build(&w.database, Euclidean, params, RbcConfig::default());
        group.bench_function(name, |b| {
            b.iter(|| rbc.query_batch(&w.queries));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pruning_ablations, bench_one_shot_list_size_ablation
}
criterion_main!(benches);
