//! The repo's benchmark: four workloads over the whole stack, measured from
//! outside the product crates. See `benchmark/README.md`.
//!
//! ```text
//! rbc-stack-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! rbc-stack-bench --all             [--seed N] [--seconds S]
//! rbc-stack-bench --stability N     [--seed N] [--seconds S]
//! rbc-stack-bench --print-contract
//! ```
//!
//! `--hold-out` is `--seed` with the seed kept aside for checking claims.
//!
//! A run's last line on standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything else a run has
//! to say goes to standard error and to `benchmark/out/`.

mod check;
mod contract;
mod estimator;
mod host;
mod offline;
mod refscan;
mod report;
mod rng;
mod run;
mod serve;
mod spans;
mod stability;
mod workload;
mod wrappers;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::report::{num, obj, render, render_pretty, text, uint};

pub struct Args {
    workload: Option<String>,
    all: bool,
    stability: Option<usize>,
    print_contract: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        stability: None,
        print_contract: false,
        seed: contract::DEFAULT_SEED,
        seconds: contract::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--print-contract" => args.print_contract = true,
            "--stability" => {
                let n: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--stability: {e}"))?;
                if n < 5 {
                    return Err("--stability needs at least 5 runs per set".into());
                }
                args.stability = Some(n);
            }
            "--hold-out" => args.seed = contract::HOLD_OUT_SEED,
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.stability.is_some())
        + usize::from(args.print_contract);
    if modes != 1 {
        return Err(
            "give exactly one of --workload <name>, --all, --stability <n>, --print-contract"
                .into(),
        );
    }
    Ok(args)
}

/// The result line of the contract.
fn result_line(output: &run::RunOutput) -> Value {
    let metrics = output
        .metrics
        .iter()
        .map(|(def, value)| {
            (
                def.name,
                obj(vec![("value", num(*value)), ("unit", text(def.unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(output.correct)),
        ("attempted", uint(output.tally.attempted)),
        ("failed", uint(output.tally.failed)),
        ("metrics", obj(metrics)),
    ])
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    // The product reads these at start-up; a stray value would change what
    // is measured.
    for var in ["RBC_TILE_POLICY", "RBC_FORCE_SCALAR", "RBC_TRACE"] {
        std::env::remove_var(var);
    }
    let output = match run::run(workload, args.seed, args.seconds, args.trace, &args.out_dir) {
        Ok(output) => output,
        Err(message) => {
            eprintln!("rbc-stack-bench: {message}");
            return ExitCode::from(2);
        }
    };
    let pass = if args.trace { "layers" } else { "e2e" };
    for (def, value) in &output.metrics {
        eprintln!("{workload:<14} {:<32} {value:>16.4} {}", def.name, def.unit);
    }
    let line = result_line(&output);
    let detail = obj(vec![
        ("result", line.clone()),
        ("detail", output.detail.clone()),
    ]);
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        std::fs::write(
            args.out_dir.join(format!("{workload}.{pass}.json")),
            render_pretty(&detail),
        )
    });
    if let Err(error) = written {
        eprintln!(
            "rbc-stack-bench: cannot write under {}: {error}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    println!("{}", render(&line));
    if output.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rbc-stack-bench: {workload}: {} of {} operations failed or a conservation check did not hold",
            output.tally.failed, output.tally.attempted
        );
        ExitCode::from(1)
    }
}

/// Runs one workload in a fresh child process and parses its result line.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &std::path::Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(line)
}

fn run_all(args: &Args) -> ExitCode {
    let mut workloads = Vec::new();
    let mut failed = false;
    for workload in contract::workload_names() {
        let mut passes = Vec::new();
        for (pass, trace) in [("end_to_end", false), ("per_layer", true)] {
            match run_child(workload, args.seed, args.seconds, trace, &args.out_dir) {
                Ok(line) => passes.push((pass, line)),
                Err(message) => {
                    eprintln!("rbc-stack-bench: {message}");
                    failed = true;
                }
            }
        }
        workloads.push((workload, obj(passes)));
    }
    let report = obj(vec![
        ("host", host::block(args.seed)),
        ("workloads", obj(workloads)),
    ]);
    println!("{}", render_pretty(&report));
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("rbc-stack-bench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        println!("{}", render_pretty(&contract::benchmark_json()));
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = args.stability {
        return stability::run(&args, runs);
    }
    if args.all {
        return run_all(&args);
    }
    let workload = args.workload.clone().expect("one mode is set");
    run_one(&args, &workload)
}
