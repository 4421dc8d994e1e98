//! One run of one workload: set-up, truth, verification, then either the
//! end-to-end pass (`--trace 0`: everything off, no wrappers) or the traced
//! pass (`--trace 1`: timers on the public seams, `rbc_trace` sampling every
//! request, layer probes).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbc_bruteforce::{BfConfig, BruteForce};
use rbc_core::RbcConfig;
use rbc_metric::{BlockedVectors, Dataset, Euclidean, QueryBatch, VectorSet, LANES};
use rbc_trace::Sampling;
use serde::Value;

use crate::check::Tally;
use crate::contract::{MetricDef, END_TO_END, PER_LAYER};
use crate::estimator::{self, Round, Summary};
use crate::host;
use crate::offline::{OfflineDriver, OfflineIndex, OfflineSpec, EXACT_BATCH, ONESHOT_BATCH};
use crate::refscan::{HostProbe, REF_NS_PER_POINT};
use crate::report::{list, num, obj, text, uint, Metrics};
use crate::serve::{ServeDriver, ServeSpec, Stack, SERVE_LOCAL, SERVE_WIRE};
use crate::spans::{self, Layer, SpanRec, TraceCtl, LAYERS};
use crate::workload::{self, calm_ns_per_unit, calm_time_ratio, Driver, DIM, SETUP_REPEATS};

/// Share of `--seconds` the traced pass spends alternating untraced and
/// traced rounds; the probes get the rest.
const ALTERNATING_SHARE: f64 = 0.45;
/// Spans and product records of at most this many trailing traced rounds go
/// into the trace file.
const TRACE_FILE_RECORDS: usize = 20_000;

/// Conservation checks of the traced pass. A hard failure (a count that
/// must hold exactly does not) makes the run incorrect; a soft one (two
/// timings that should agree do not, which a disturbed host can cause) is
/// counted in `trace.conservation_violations` and printed.
#[derive(Default)]
pub struct Checks {
    pub hard: Vec<String>,
    pub soft: Vec<String>,
}

impl Checks {
    pub fn hard(&mut self, what: String) {
        eprintln!("conservation check FAILED: {what}");
        self.hard.push(what);
    }

    pub fn soft(&mut self, what: String) {
        eprintln!("conservation check off: {what}");
        self.soft.push(what);
    }
}

/// What the alternating phase of a traced pass measured.
pub struct TracedPass {
    pub untraced: Summary,
    pub traced: Summary,
    pub brute: Summary,
    /// Benchmark-side spans of every traced round.
    pub spans: Vec<SpanRec>,
    pub traced_wall_ns: u64,
    pub traced_queries: u64,
    /// `rbc_trace` stage label → (spans, total ns, self ns) over the traced rounds.
    pub stages: BTreeMap<&'static str, (u64, u64, u64)>,
    pub product_records: u64,
    /// `rbc_trace` records of the last traced round, for the trace file.
    pub last_records: Vec<rbc_trace::SpanRecord>,
    pub dropped_records: u64,
    /// Host probes (ns per point), interleaved with the rounds.
    pub host_ns_per_point: Vec<f64>,
    /// Duration of one host probe at one nanosecond per point (ms).
    pub probe_ms_per_ns: f64,
    /// Time one layer probe may take.
    pub probe_slice: Duration,
}

impl TracedPass {
    pub fn stage_total_ns(&self, label: &str) -> u64 {
        self.stages.get(label).map_or(0, |s| s.1)
    }
}

pub struct RunOutput {
    pub correct: bool,
    pub tally: Tally,
    /// The metrics the contract asks for in this mode, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Everything else worth keeping: sample counts, all-rounds values, host.
    pub detail: Value,
}

enum Spec {
    Offline(OfflineSpec),
    Serve(ServeSpec),
}

fn spec_of(workload: &str) -> Option<Spec> {
    match workload {
        "exact_batch" => Some(Spec::Offline(EXACT_BATCH)),
        "oneshot_batch" => Some(Spec::Offline(ONESHOT_BATCH)),
        "serve_local" => Some(Spec::Serve(SERVE_LOCAL)),
        "serve_wire" => Some(Spec::Serve(SERVE_WIRE)),
        _ => None,
    }
}

/// What set-up left behind, whichever workload it was for.
enum System {
    Offline(OfflineIndex),
    Serve(Stack),
}

impl System {
    fn database(&self) -> &VectorSet {
        match self {
            System::Offline(index) => index.database(),
            System::Serve(stack) => stack.database(),
        }
    }

    fn build_evals(&self) -> u64 {
        match self {
            System::Offline(index) => index.build_evals(),
            System::Serve(stack) => stack.build_evals(),
        }
    }

    fn stop(self) {
        if let System::Serve(stack) = self {
            stack.stop();
        }
    }
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &std::path::Path,
) -> Result<RunOutput, String> {
    let spec = spec_of(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let (n, k, concentration, distinct) = match &spec {
        Spec::Offline(s) => (s.n, s.k, 0.0, s.distinct_queries()),
        Spec::Serve(s) => (s.n, s.k, s.concentration, s.pool),
    };

    // Inputs: a fixed database, traffic from the seed alone.
    let db = workload::database(n);
    let queries = workload::queries(distinct, concentration, seed);

    // How fast is the host right now? One probe before the set-ups, so a
    // slow set-up can be told from a slow machine.
    let host_probe = HostProbe::new(db.as_flat(), DIM);
    let host_at_setup = host_probe.ns_per_point();

    // Set-up: data in memory → ready to answer. Three times in the
    // end-to-end pass (the metric is their median), once in the traced pass.
    let ctl = Arc::new(TraceCtl::new());
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let (system, setup_s, setup_faults) = workload::timed_setups(
        repeats,
        db.as_flat(),
        |fresh| match &spec {
            Spec::Offline(s) => {
                System::Offline(OfflineIndex::build(s, fresh, RbcConfig::default()))
            }
            Spec::Serve(s) => System::Serve(Stack::start(s, fresh, trace.then_some(&ctl))),
        },
        System::stop,
    );

    let truth = workload::truth(&db, &queries, k)?;
    let mut driver: Box<dyn Driver + '_> = match (&spec, &system) {
        (Spec::Offline(s), System::Offline(index)) => Box::new(OfflineDriver::new(
            *s,
            index,
            &queries,
            truth,
            Arc::clone(&ctl),
        )),
        (Spec::Serve(s), System::Serve(stack)) => Box::new(ServeDriver::new(
            *s,
            stack,
            &queries,
            truth,
            seed,
            Arc::clone(&ctl),
        )),
        _ => unreachable!("set-up builds the system its spec names"),
    };
    let recall = driver.verify();
    workload::warm_up(driver.as_mut());

    let mut metrics = Metrics::default();
    let mut detail = vec![
        ("workload", text(workload)),
        ("host", host::block(seed)),
        ("setup_s_each", list(setup_s.iter().map(|&s| num(s)))),
        (
            "setup_minor_faults_each",
            list(setup_faults.iter().map(|&f| uint(f))),
        ),
        ("host_ns_per_point_at_setup", num(host_at_setup)),
    ];
    let mut correct = true;
    let table: &'static [MetricDef] = if trace {
        let budget = Duration::from_secs_f64(seconds);
        let pass = alternating_phase(driver.as_mut(), &ctl, &host_probe, budget)?;
        let mut checks = Checks::default();
        trace_metrics(&pass, &mut metrics, &mut checks);
        driver.layer_metrics(&pass, &mut metrics, &mut checks);
        shared_probes(&pass, &system, &queries, k, &mut metrics);
        metrics.set("core.build_evals", system.build_evals() as f64);
        metrics.set("core.build_s", setup_s[0]);
        metrics.set("core.build_minor_faults", setup_faults[0] as f64);
        metrics.set(
            "trace.conservation_violations",
            (checks.hard.len() + checks.soft.len()) as f64,
        );
        correct &= checks.hard.is_empty();
        detail.push((
            "conservation_failed",
            list(checks.hard.iter().map(|s| text(s))),
        ));
        detail.push((
            "conservation_off",
            list(checks.soft.iter().map(|s| text(s))),
        ));
        detail.push(("rounds", rounds_json(&pass.untraced, &pass.brute)));
        detail.push(("traced_rounds", uint(pass.traced.rounds as u64)));
        write_trace_file(out_dir, workload, &pass)
            .map_err(|e| format!("cannot write the trace file: {e}"))?;
        PER_LAYER
    } else {
        let budget = Duration::from_secs_f64(seconds);
        let region = workload::timed_region(driver.as_mut(), &host_probe, budget);
        end_to_end_metrics(&region, &setup_s, recall, &mut metrics, &mut detail)?;
        END_TO_END
    };

    let tally = driver.tally();
    drop(driver);
    system.stop();
    if !trace {
        metrics.set("peak_rss_mb", host::peak_rss_mib());
    }
    // An exact workload must match truth everywhere; the one-shot workload
    // must be sound and repeat itself (its misses show in `recall`).
    correct &= tally.failed == 0 && tally.attempted > 0;
    detail.push(("recall", num(recall)));
    detail.push((
        "failed_share",
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
    ));

    let values = table
        .iter()
        .map(|def| {
            // A layer this workload does not exercise did no work: 0.
            let value = metrics.get(def.name).unwrap_or(0.0);
            assert!(
                trace || metrics.get(def.name).is_some(),
                "{} was not measured",
                def.name
            );
            (def, value)
        })
        .collect();
    Ok(RunOutput {
        correct,
        tally,
        metrics: values,
        detail: obj(detail),
    })
}

/// The end-to-end metrics of a timed region (all but `peak_rss_mb`, which is
/// read when the run ends). The timing metrics are reported at the reference
/// host speed: a host the probe finds 20 % slow has its times shortened by
/// 20 %. The raw values go to the detail file.
fn end_to_end_metrics(
    region: &workload::TimedRegion,
    setup_s: &[f64],
    recall: f64,
    metrics: &mut Metrics,
    detail: &mut Vec<(&str, Value)>,
) -> Result<(), String> {
    let timing = workload::summarize_timing(region)?;
    let slowdown = timing.host_ns_per_point / REF_NS_PER_POINT;
    let setup_median = estimator::median(setup_s);
    metrics.set("qps", timing.measured.qps * slowdown);
    metrics.set("lat_p50_us", timing.lat_p50_us / slowdown);
    metrics.set("lat_p95_us", timing.lat_top_us / slowdown);
    metrics.set("speedup_vs_brute", timing.speedup_vs_brute);
    metrics.set("recall", recall);
    metrics.set("setup_s", setup_median / slowdown);
    detail.extend([
        ("host_slowdown", num(slowdown)),
        ("qps_raw", num(timing.measured.qps)),
        ("lat_p50_us_raw", num(timing.lat_p50_us)),
        ("lat_p95_us_raw", num(timing.lat_top_us)),
        ("setup_s_raw", num(setup_median)),
        ("rounds", rounds_json(&timing.measured, &timing.brute)),
        ("qps_all_rounds", num(timing.measured.qps_all)),
        ("round_spread", num(timing.measured.round_spread)),
        ("brute_qps", num(timing.brute.qps)),
        ("host_ns_per_point", num(timing.host_ns_per_point)),
        (
            "host_ns_per_point_each",
            list(
                region
                    .host_ns_per_point
                    .iter()
                    .map(|&v| num((v * 100.0).round() / 100.0)),
            ),
        ),
    ]);
    Ok(())
}

fn rounds_json(measured: &Summary, brute: &Summary) -> Value {
    obj(vec![
        ("rounds", uint(measured.rounds as u64)),
        ("calm_rounds", uint(measured.calm_rounds as u64)),
        ("lat_samples", uint(measured.calm_lat_ns.len() as u64)),
        ("brute_rounds", uint(brute.rounds as u64)),
        ("brute_calm_rounds", uint(brute.calm_rounds as u64)),
        (
            "ns_per_query_each_round",
            list(measured.series_ns_per_query.iter().map(|&v| num(v.round()))),
        ),
        (
            "brute_ns_per_query_each_round",
            list(brute.series_ns_per_query.iter().map(|&v| num(v.round()))),
        ),
    ])
}

/// Untraced and traced rounds of the same work, alternating so drift hits
/// both alike, with brute-force and frozen-reference rounds in between.
fn alternating_phase(
    driver: &mut dyn Driver,
    ctl: &Arc<TraceCtl>,
    host: &HostProbe,
    budget: Duration,
) -> Result<TracedPass, String> {
    let (mut untraced, mut traced, mut brute) = (Vec::new(), Vec::new(), Vec::new());
    let mut host_ns_per_point = Vec::new();
    let mut all_spans = Vec::new();
    let mut stages: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut product_records = 0u64;
    let mut last_records = Vec::new();
    let dropped_before = rbc_trace::dropped_records();
    rbc_trace::clear();
    driver.take_spans();
    driver.begin_accounting();

    let deadline = Instant::now() + budget.mul_f64(ALTERNATING_SHARE);
    let mut pair = 0usize;
    while traced.len() < 8 || Instant::now() < deadline {
        untraced.push(driver.round());

        ctl.set_enabled(true);
        rbc_trace::set_sampling(Sampling::Always);
        let round: Round = driver.round();
        rbc_trace::set_sampling(Sampling::Off);
        ctl.set_enabled(false);
        traced.push(round);
        let records = rbc_trace::drain();
        product_records += records.len() as u64;
        for stage in rbc_trace::stage_breakdown(&records) {
            let entry = stages.entry(stage.label).or_default();
            entry.0 += stage.count;
            entry.1 += stage.total.as_nanos() as u64;
            entry.2 += stage.self_total.as_nanos() as u64;
        }
        last_records = records;
        all_spans.extend(driver.take_spans());

        if pair % 2 == 1 {
            brute.push(driver.brute_round());
            host_ns_per_point.push(host.ns_per_point());
        }
        pair += 1;
    }
    driver.capture_round();
    driver.take_spans();
    rbc_trace::clear();

    let too_short = |_| "traced pass too short to summarise".to_string();
    let traced_wall_ns = traced.iter().map(|r| r.wall_ns).sum();
    let traced_queries = traced.iter().map(|r| r.queries).sum();
    let pass = TracedPass {
        untraced: estimator::summarize(&untraced, 0).map_err(too_short)?,
        traced: estimator::summarize(&traced, 0).map_err(too_short)?,
        brute: estimator::summarize(&brute, 0).map_err(too_short)?,
        spans: all_spans,
        traced_wall_ns,
        traced_queries,
        stages,
        product_records,
        last_records,
        dropped_records: rbc_trace::dropped_records() - dropped_before,
        host_ns_per_point,
        probe_ms_per_ns: host.points_per_probe() as f64 / 1e6,
        // What is left of the budget, over the dozen probes a workload runs.
        probe_slice: budget.mul_f64((1.0 - ALTERNATING_SHARE) / 14.0),
    };
    Ok(pass)
}

/// `host.*` and `trace.*`: what the alternating phase says by itself.
fn trace_metrics(pass: &TracedPass, m: &mut Metrics, checks: &mut Checks) {
    let host_ns = estimator::calm_mean(&pass.host_ns_per_point);
    m.set("host.ref_scan_ms", host_ns * pass.probe_ms_per_ns);
    m.set("host.slowdown", host_ns / REF_NS_PER_POINT);
    m.set("host.round_spread", pass.untraced.round_spread);
    m.set("host.nproc", host::nproc() as f64);
    m.set(
        "trace.overhead_share",
        1.0 - pass.traced.qps / pass.untraced.qps,
    );
    m.set(
        "trace.spans_per_query",
        pass.product_records as f64 / pass.traced_queries.max(1) as f64,
    );
    m.set("trace.dropped_records", pass.dropped_records as f64);
    let totals = spans::attribute(&pass.spans);
    m.set(
        "trace.unattributed_share",
        spans::unattributed_share(&totals),
    );
    // Conservation: a span lies inside the span that caused it. Clock
    // reads on two threads may disagree by a little.
    let outside = spans::containment_violations(&pass.spans, 50_000);
    if outside > 0 {
        checks.hard(format!("{outside} spans lie outside their parent span"));
    }
    // The rounds' own clocks and the round spans must agree on the wall.
    let span_wall: u64 = pass
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Round)
        .map(SpanRec::dur_ns)
        .sum();
    if span_wall.abs_diff(pass.traced_wall_ns) > pass.traced_wall_ns / 100 {
        checks.hard(format!(
            "round spans cover {span_wall} ns, the traced rounds lasted {} ns",
            pass.traced_wall_ns
        ));
    }
}

/// `metric.*` and `bf.*`: the two lowest layers, probed directly on this
/// workload's database with its `k`. They are both sides of
/// `speedup_vs_brute`, so every workload reports them.
fn shared_probes(
    pass: &TracedPass,
    system: &System,
    queries: &VectorSet,
    k: usize,
    m: &mut Metrics,
) {
    let db = system.database();
    let n = db.len() as u64;
    let rows = workload::rows(queries);
    let slice = pass.probe_slice;

    // rbc-metric: the lane kernel over a blocked copy, one thread.
    let mut build_ns = Vec::new();
    let mut blocked = BlockedVectors::from_flat(db.as_flat(), DIM);
    for _ in 0..4 {
        let start = Instant::now();
        blocked = BlockedVectors::from_flat(db.as_flat(), DIM);
        build_ns.push(start.elapsed().as_nanos() as f64);
    }
    m.set(
        "metric.blocked_build_ms",
        estimator::median(&build_ns) / 1e6,
    );
    let lanes_ns = calm_ns_per_unit(slice, 8, || {
        let mut out = [0.0f64; LANES];
        for query in &rows[..8] {
            for g in 0..blocked.num_groups() {
                rbc_metric::squared_l2_lanes(query, blocked.group(g), &mut out);
                black_box(&out);
            }
        }
        8 * n
    });
    m.set("metric.lanes_ns_per_eval", lanes_ns);
    // Computed, not measured, bytes: n·d·4 per sweep of the database.
    m.set("metric.lanes_gbps", (DIM * 4) as f64 / lanes_ns);

    // rbc-bruteforce: the dense scan at two batch sizes, the stage-1 shape,
    // and what the second thread buys.
    let bf = BruteForce::new();
    let dense = |bf: &BruteForce, batch: usize| {
        black_box(bf.knn(&QueryBatch::new(&rows[..batch]), db, &Euclidean, k));
        batch as u64 * n
    };
    let big = 256.min(rows.len());
    m.set(
        "bf.dense_ns_per_eval",
        calm_ns_per_unit(slice, 4, || dense(&bf, big)),
    );
    m.set(
        "bf.dense_b32_ns_per_eval",
        calm_ns_per_unit(slice, 4, || dense(&bf, 32)),
    );
    let (reps, rep_blocks) = match system {
        System::Offline(index) => (index.rep_indices(), index.rep_blocked()),
        System::Serve(stack) => stack.rep_table(),
    };
    let rep_view = db.subset(reps);
    m.set(
        "bf.pairwise_ns_per_eval",
        calm_ns_per_unit(slice, 4, || {
            black_box(bf.pairwise_with_blocks(
                &QueryBatch::new(&rows[..big]),
                &rep_view,
                &Euclidean,
                rep_blocks,
            ));
            (big * reps.len()) as u64
        }),
    );
    let sequential = BruteForce::with_config(BfConfig::sequential());
    let sequential_over_parallel = calm_time_ratio(
        slice * 2,
        3,
        || {
            dense(&sequential, big);
        },
        || {
            dense(&bf, big);
        },
    );
    m.set(
        "bf.par_efficiency",
        sequential_over_parallel / host::nproc() as f64,
    );
}

/// Writes `<out>/<workload>.trace.json`: the benchmark's spans and layer
/// self times next to the product's own stage breakdown.
fn write_trace_file(
    out_dir: &std::path::Path,
    workload: &str,
    pass: &TracedPass,
) -> std::io::Result<()> {
    let totals = spans::attribute(&pass.spans);
    let layer_names = [
        "unattributed",
        "engine",
        "index_call",
        "inner_call",
        "endpoint",
    ];
    let self_times = LAYERS
        .iter()
        .map(|&layer| (layer_names[layer as usize], uint(totals[layer as usize])))
        .collect();
    // The file holds the trailing rounds only; the totals above are over all.
    let tail_from = pass.spans.len().saturating_sub(TRACE_FILE_RECORDS);
    let stages = pass.stages.iter().map(|(label, &(count, total, self_ns))| {
        obj(vec![
            ("label", text(label)),
            ("count", uint(count)),
            ("total_ns", uint(total)),
            ("self_ns", uint(self_ns)),
        ])
    });
    let file = obj(vec![
        ("workload", text(workload)),
        ("traced_rounds", uint(pass.traced.rounds as u64)),
        ("traced_wall_ns", uint(pass.traced_wall_ns)),
        ("layer_self_time_ns", obj(self_times)),
        (
            "unattributed_share",
            num(spans::unattributed_share(&totals)),
        ),
        ("rbc_trace_stage_breakdown", list(stages)),
        (
            "rbc_trace_records_last_round",
            list(pass.last_records.iter().take(TRACE_FILE_RECORDS).map(|r| {
                obj(vec![
                    ("id", uint(r.id)),
                    ("parent", uint(r.parent.unwrap_or(0))),
                    ("label", text(r.label)),
                    ("thread", uint(r.thread)),
                    ("start_ns", uint(r.start_ns)),
                    ("dur_ns", uint(r.dur_ns)),
                ])
            })),
        ),
        (
            "spans",
            list(pass.spans[tail_from..].iter().map(SpanRec::to_json)),
        ),
    ]);
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("{workload}.trace.json")),
        crate::report::render(&file),
    )
}
