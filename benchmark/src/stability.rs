//! `--stability N`: does the benchmark agree with itself? Two sets of N full
//! end-to-end runs of the same build, alternating (A, B, A, B, …) so slow
//! drift of the host lands on both sets alike. Run `i` of either set uses
//! seed `base + i`. Per metric × workload the report gives both medians,
//! how much worse B's is than A's, each set's quartile spread, and the
//! bound; the exit code is non-zero if any difference exceeds its bound.

use std::process::ExitCode;

use serde::Value;

use crate::contract::{self, Better, END_TO_END};
use crate::estimator::{median, quartile_spread};
use crate::report::{as_f64, list, num, obj, render_pretty, text, uint};
use crate::{host, run_child, Args};

fn metric_of(line: &Value, name: &str) -> Option<f64> {
    as_f64(line.get("metrics")?.get(name)?.get("value")?)
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let workloads = contract::workload_names();
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; workloads.len()]; 2];
    let mut unclean = 0u64;
    for i in 0..runs {
        for set in 0..2 {
            for (w, workload) in workloads.iter().enumerate() {
                let seed = args.seed + i as u64;
                eprintln!(
                    "stability: set {} run {} of {runs}: {workload} (seed {seed})",
                    ["A", "B"][set],
                    i + 1
                );
                match run_child(workload, seed, args.seconds, false, &args.out_dir) {
                    Ok(line) => {
                        for (m, def) in END_TO_END.iter().enumerate() {
                            match metric_of(&line, def.name) {
                                Some(value) => values[set][w][m].push(value),
                                None => unclean += 1,
                            }
                        }
                    }
                    Err(message) => {
                        eprintln!("stability: {message}");
                        unclean += 1;
                    }
                }
            }
        }
    }

    let mut rows = Vec::new();
    let mut over = 0u64;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (median_a, median_b) = (median(a), median(b));
            // Positive = the second set is worse.
            let worse = match def.better {
                Better::Higher => (median_a - median_b) / median_a,
                Better::Lower => (median_b - median_a) / median_a,
            };
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            // `setup_s` is held to its bound between sets, not within one.
            let spread_gated = def.name != "setup_s";
            let exceeded =
                worse.abs() > def.bound || (spread_gated && spread_a.max(spread_b) > def.bound);
            over += u64::from(exceeded);
            eprintln!(
                "{workload:<14} {:<18} A {median_a:>12.4} B {median_b:>12.4} diff {:>+7.2}% spread {:>5.2}% / {:>5.2}% bound {:>4.1}%{}",
                def.name,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                def.bound * 100.0,
                if exceeded { "  EXCEEDED" } else { "" }
            );
            rows.push(obj(vec![
                ("workload", text(workload)),
                ("metric", text(def.name)),
                ("unit", text(def.unit)),
                ("median_a", num(median_a)),
                ("median_b", num(median_b)),
                ("b_worse_by", num(worse)),
                ("spread_a", num(spread_a)),
                ("spread_b", num(spread_b)),
                ("bound", num(def.bound)),
                ("within_bound", Value::Bool(!exceeded)),
                ("values_a", list(a.iter().map(|&v| num(v)))),
                ("values_b", list(b.iter().map(|&v| num(v)))),
            ]));
        }
    }
    let report = obj(vec![
        ("host", host::block(args.seed)),
        ("runs_per_set", uint(runs as u64)),
        ("run_seconds", num(args.seconds)),
        ("first_seed", uint(args.seed)),
        ("failed_or_missing", uint(unclean)),
        ("exceeded", uint(over)),
        ("rows", list(rows)),
    ]);
    println!("{}", render_pretty(&report));
    if over == 0 && unclean == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
