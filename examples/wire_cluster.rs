//! A real multi-process wire cluster: four node **processes** owning
//! their shards behind framed TCP, a coordinator routing batches over
//! the sockets, and a mid-stream *hang* detected by deadline alone.
//!
//! This binary plays both roles. Run with no flags and it is the
//! coordinator: it re-executes itself four times with `--node <i>`,
//! each child deterministically rebuilds the same exact RBC and the
//! same placement, stands up its `NodeServer` on `127.0.0.1:0`, and
//! publishes the OS-chosen address on stdout (no fixed ports — the
//! smoke can run in parallel CI shards without collisions). The
//! coordinator then:
//!
//! 1. **bit-identity** — replays a clustered query stream over the
//!    wire and asserts every answer equals an untouched in-process
//!    twin of the same placement (and therefore the centralized
//!    search), and that the frames the coordinator counted are exactly
//!    the bytes the replay put on the sockets;
//! 2. **hang drill** — orders one node to *hang mid-frame* (it keeps
//!    the socket open and goes silent halfway through a reply header;
//!    nothing ever "closes" to signal failure), replays the stream
//!    again, and asserts the coordinator detected the peer purely by
//!    read deadline, failed it over mid-batch, and completed within a
//!    deadline-bounded wall clock — with the affected queries
//!    degraded to flagged answers that are exact-prefix-correct, the
//!    single-owner degradation contract end to end over real sockets.
//!
//! `--no-timeouts` is the negative control: it disables the connect /
//! read / write deadlines, so the hang drill blocks forever on the
//! silent peer. CI runs that variant under `timeout` and requires it
//! to *fail* — proving the deadlines are what makes detection work.
//!
//! Node stderr and the coordinator's frame log land in `wire_logs/`
//! (uploaded as a CI artifact on failure). Set `RBC_TRACE_PROM=<path>`
//! to export the metric registry — including the `rbc_net_*` families
//! — as Prometheus text.
//!
//! Run with:
//! ```text
//! cargo run --release --example wire_cluster
//! ```

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbc::distributed::net::{NetConfig, NodeEndpoint, NodeServer, NodeShard, TcpNodeClient};
use rbc::distributed::{ClusterConfig, DistributedRbc};
use rbc::prelude::*;

#[path = "util/scale.rs"]
mod util;
use util::scaled;

const NODES: usize = 4;
const DIM: usize = 12;
const CLUSTERS: usize = 24;
const K: usize = 3;
const BATCH: usize = 64;

/// The deterministic build every process performs: same data, same
/// representatives, same LPT placement — so a child's shard is exactly
/// the slice of the index the coordinator routes to it.
fn build_index(n: usize) -> DistributedRbc<VectorSet, Euclidean> {
    let database = rbc::data::gaussian_mixture(n, DIM, CLUSTERS, 0.03, 7);
    let dim = database.dim();
    let rbc = ExactRbc::build(
        database,
        Euclidean,
        RbcParams::standard(n, 42),
        RbcConfig::default(),
    );
    DistributedRbc::from_exact(rbc, ClusterConfig::with_nodes(NODES), dim)
}

/// Child role: own shard `node`, serve it until the coordinator's
/// `Shutdown` frame (or until the process is killed — a hung node
/// cannot be dismissed politely).
fn run_node(node: usize, n: usize) -> ! {
    let index = build_index(n);
    let shard = NodeShard::from_exact(index.rbc(), index.placement(), node);
    eprintln!(
        "node {node}: shard ready ({} lists, {} points)",
        shard.lists(),
        shard.points()
    );
    let server = NodeServer::spawn(Arc::new(shard), true).expect("node must bind 127.0.0.1:0");
    // The contract with the coordinator: one line, the actual address.
    println!("WIRE-NODE {node} {}", server.addr());
    std::io::stdout().flush().expect("publish address");
    while !server.is_stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("node {node}: dismissed");
    std::process::exit(0);
}

/// Kills every still-running child on drop, so a panicking assertion
/// never leaves orphan node processes behind.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn main() {
    let mut no_timeouts = false;
    let mut node: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--node" => {
                node = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--node needs an index"),
                );
            }
            "--no-timeouts" => no_timeouts = true,
            other => panic!("unknown flag {other}"),
        }
    }
    // `RBC_TRACE=on` samples the `net.send` / `net.recv` / `net.timeout`
    // spans into the stage histograms alongside the `rbc_net_*` counters.
    rbc::trace::init_from_env();
    let n = scaled(20_000);
    if let Some(node) = node {
        run_node(node, n);
    }

    std::fs::create_dir_all("wire_logs").expect("create wire_logs/");
    println!("spawning {NODES} node processes (each rebuilds its shard of {n} points) ...");
    let exe = std::env::current_exe().expect("own executable path");
    let mut children = Children(Vec::new());
    let mut addrs = vec![String::new(); NODES];
    for i in 0..NODES {
        let log =
            std::fs::File::create(format!("wire_logs/node-{i}.log")).expect("create node log");
        let child = Command::new(&exe)
            .arg("--node")
            .arg(i.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .expect("spawn node process");
        children.0.push(child);
    }
    for (i, child) in children.0.iter_mut().enumerate() {
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("node address line");
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("WIRE-NODE"), "bad hello: {line:?}");
        assert_eq!(parts.next(), Some(i.to_string().as_str()));
        addrs[i] = parts.next().expect("address").to_string();
        println!("  node {i} listening on {}", addrs[i]);
    }

    let net = if no_timeouts {
        println!("NEGATIVE CONTROL: deadlines disabled — a hung peer will block forever.");
        NetConfig {
            read_timeout: None,
            write_timeout: None,
            ..NetConfig::default()
        }
    } else {
        NetConfig::default()
    };
    let local = build_index(n);
    let wired = build_index(n);
    assert_eq!(
        local.placement(),
        wired.placement(),
        "the deterministic build must reproduce one placement everywhere"
    );
    let clients: Vec<Arc<TcpNodeClient>> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Arc::new(TcpNodeClient::new(
                i,
                addr.parse().expect("socket address"),
                net,
            ))
        })
        .collect();
    let mut points = 0u64;
    for (i, client) in clients.iter().enumerate() {
        let ack = client
            .probe()
            .unwrap_or_else(|e| panic!("probe node {i}: {e}"));
        points += ack.points;
    }
    assert_eq!(points as usize, n, "the shards must partition the database");
    let socket_bytes = || -> u64 { clients.iter().map(|c| c.counters().total_bytes()).sum() };
    let probed = socket_bytes();
    let wired = wired.with_endpoints(
        clients
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn NodeEndpoint>)
            .collect(),
    );

    let query_pool = rbc::data::gaussian_mixture(256, DIM, CLUSTERS, 0.03, 8);
    let run = |index: &DistributedRbc<VectorSet, Euclidean>| {
        let mut answers = Vec::new();
        let mut stats = rbc::distributed::DistributedQueryStats::default();
        let mut begin = 0;
        while begin < query_pool.len() {
            let end = (begin + BATCH).min(query_pool.len());
            let indices: Vec<usize> = (begin..end).collect();
            let chunk = query_pool.subset(&indices);
            let (a, s) = index.query_batch_exact(&chunk, K);
            answers.extend(a);
            stats.merge(&s);
            begin = end;
        }
        (answers, stats)
    };

    // ---- Phase 1: bit-identity over real sockets. --------------------
    let (want, _) = run(&local);
    let started = Instant::now();
    let (got, stats) = run(&wired);
    let replayed = socket_bytes() - probed;
    assert_eq!(got, want, "wire answers diverged from the in-process twin");
    assert_eq!(stats.degraded_queries(), 0);
    assert_eq!(
        stats.comm.total_bytes(),
        replayed,
        "the counted frames must be exactly the replay's socket bytes"
    );
    println!(
        "phase 1: {} queries over the wire in {:.0} ms — bit-identical to the \
         in-process twin; {} B counted = {} B on the sockets.",
        query_pool.len(),
        started.elapsed().as_secs_f64() * 1e3,
        stats.comm.total_bytes(),
        replayed,
    );

    // ---- Phase 2: the hang drill. ------------------------------------
    let victim = 1usize;
    println!("phase 2: ordering node {victim} to hang mid-frame, then replaying the stream ...");
    clients[victim].hang().expect("hang order must be acked");
    let started = Instant::now();
    let (got, stats) = run(&wired);
    let elapsed = started.elapsed();
    assert!(
        !wired.health().is_live(victim),
        "the silent peer must be detected by read deadline"
    );
    assert!(
        stats.degraded_queries() > 0,
        "single-owner placement: the hung node's lists must degrade queries"
    );
    let mut checked = 0usize;
    for qi in 0..query_pool.len() {
        if stats.degraded[qi] {
            assert!(got[qi].len() <= want[qi].len());
            assert_eq!(
                &got[qi][..],
                &want[qi][..got[qi].len()],
                "query {qi}: degraded answer must be an exact-top-k prefix"
            );
            checked += 1;
        } else {
            assert_eq!(got[qi], want[qi], "unflagged query {qi} must stay exact");
        }
    }
    // One read deadline fires once for the hung node; everything after
    // routes around it. Generous bound: well under CI's 120 s timeout,
    // impossible without deadline-based detection.
    assert!(
        elapsed < Duration::from_secs(30),
        "detection must be deadline-bounded, took {elapsed:?}"
    );
    println!(
        "  detected by deadline and completed in {:.1} s: {} queries degraded to \
         verified exact prefixes, {} stayed exact, 0 wrong answers.",
        elapsed.as_secs_f64(),
        checked,
        query_pool.len() - checked,
    );

    // ---- Logs, metrics, dismissal. -----------------------------------
    let mut log = String::new();
    for (i, client) in clients.iter().enumerate() {
        let c = client.counters();
        log.push_str(&format!(
            "node {i}: frames out/in {}/{}, bytes out/in {}/{}, timeouts {}, connects {}\n",
            c.frames_out.load(std::sync::atomic::Ordering::Relaxed),
            c.frames_in.load(std::sync::atomic::Ordering::Relaxed),
            c.bytes_out.load(std::sync::atomic::Ordering::Relaxed),
            c.bytes_in.load(std::sync::atomic::Ordering::Relaxed),
            c.timeouts.load(std::sync::atomic::Ordering::Relaxed),
            c.connects.load(std::sync::atomic::Ordering::Relaxed),
        ));
        for entry in c.frame_log() {
            log.push_str("  ");
            log.push_str(&entry);
            log.push('\n');
        }
    }
    std::fs::write("wire_logs/coordinator.log", &log).expect("write coordinator log");
    println!("wrote wire_logs/coordinator.log and wire_logs/node-*.log");
    if let Ok(path) = std::env::var("RBC_TRACE_PROM") {
        let exposition = rbc::trace::prometheus_snapshot();
        match std::fs::write(&path, &exposition) {
            Ok(()) => println!("wrote Prometheus exposition to {path}"),
            Err(error) => eprintln!("could not write {path}: {error}"),
        }
    }
    for (i, client) in clients.iter().enumerate() {
        if i != victim {
            client
                .shutdown()
                .unwrap_or_else(|e| panic!("dismiss node {i}: {e}"));
        }
    }
    // The hung node cannot process a Shutdown frame; Children's Drop
    // kills it (and reaps the dismissed ones).
    drop(children);
    println!("\nwire cluster smoke passed: real processes, real sockets, real deadlines.");
}
