//! Figure 2 — exact search speedup over brute force.
//!
//! The paper's Figure 2 is a bar chart: for each dataset, the speedup of
//! the exact RBC search over parallel brute force on a 48-core server,
//! reaching one to two orders of magnitude. This binary reproduces the
//! bars as a table. Both algorithms run inside one thread pool with as many
//! threads as the host has (not 48: oversubscribing a smaller host measures
//! nothing), so the wall-clock ratio isolates the algorithmic saving; the
//! work speedup is printed alongside because it is the machine-independent
//! quantity the theory predicts (≈ √n / c^{3/2}).

use serde::Serialize;

use rbc_bench::{brute_force_batch, exact_rbc_batch, BenchOptions, PreparedWorkload, Table};
use rbc_bruteforce::BfConfig;
use rbc_core::{RbcConfig, RbcParams};

#[derive(Serialize)]
struct Record {
    dataset: String,
    n: usize,
    dim: usize,
    n_reps: usize,
    work_speedup: f64,
    time_speedup: f64,
    brute_seconds: f64,
    rbc_seconds: f64,
    build_seconds: f64,
}

fn main() {
    let opts = BenchOptions::from_env();
    let threads = rayon::current_num_threads();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's builder cannot fail");
    println!(
        "Figure 2 reproduction: exact RBC speedup over brute force ({threads} threads, the host's \
         own count; the paper used 48 cores; scale = {})\n",
        opts.scale
    );

    let mut table = Table::new(
        "Figure 2: exact search speedup over brute force",
        &["dataset", "n", "dim", "nr", "work speedup", "time speedup"],
    );
    let mut records = Vec::new();

    for spec in opts.catalog() {
        let workload = PreparedWorkload::generate(&spec);
        let n = workload.n();
        // The paper notes the exact algorithm is not very sensitive to the
        // representative count (Appendix C); 4·√n sits in the flat part of
        // that curve for every catalogue entry (see the fig3 binary), which
        // is the analogue of the authors picking a reasonable fixed value.
        let nr = (((n as f64).sqrt() * 4.0).ceil() as usize).clamp(1, n);
        let params = RbcParams::standard(n, 29 + spec.seed).with_n_reps(nr);

        let (brute, (rbc, build_time)) = pool.install(|| {
            let brute = brute_force_batch(&workload, BfConfig::default());
            let rbc = exact_rbc_batch(&workload, params.clone(), RbcConfig::default());
            (brute, rbc)
        });

        // The exact structure must agree with brute force on every query.
        for (a, b) in rbc.answers.iter().zip(brute.answers.iter()) {
            assert!(
                (a.dist - b.dist).abs() < 1e-9,
                "exact RBC diverged from brute force on {}",
                spec.name
            );
        }

        table.row(&[
            spec.name.clone(),
            format!("{n}"),
            format!("{}", spec.dim),
            format!("{nr}"),
            format!("{:.1}x", rbc.work_speedup_over(&brute)),
            format!("{:.1}x", rbc.time_speedup_over(&brute)),
        ]);
        records.push(Record {
            dataset: spec.name.clone(),
            n,
            dim: spec.dim,
            n_reps: nr,
            work_speedup: rbc.work_speedup_over(&brute),
            time_speedup: rbc.time_speedup_over(&brute),
            brute_seconds: brute.elapsed.as_secs_f64(),
            rbc_seconds: rbc.elapsed.as_secs_f64(),
            build_seconds: build_time.as_secs_f64(),
        });
    }

    table.print();
    match rbc_bench::write_json_records("fig2", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }
}
