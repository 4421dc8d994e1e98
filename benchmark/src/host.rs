//! The machine a result was measured on, and this process's own memory and
//! page-fault counters (read from `/proc`, Linux only; zero elsewhere).

use std::process::Command;

use serde::Value;

use crate::report::{obj, text, uint};

/// Threads the product's parallel loops will use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout in the working directory, read straight from
/// `.git` (no subprocess, nothing outside the checkout); "unknown" when the
/// checkout is not a git repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head,
    }
}

/// The `host` block every JSON output carries.
pub fn block(seed: u64) -> Value {
    obj(vec![
        ("nproc", uint(nproc() as u64)),
        ("simd_kernel", text(rbc_metric::active_kernel().name())),
        ("rustc", text(&rustc_version())),
        ("git_rev", text(&git_rev())),
        ("seed", uint(seed)),
    ])
}

fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") as f64 / 1024.0
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name are space separated;
            // minflt is the 8th of those.
            let rest = stat.rsplit_once(')')?.1;
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}
