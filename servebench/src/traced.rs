//! The traced pass: per-layer metrics and the layer ledger.
//!
//! It replays a fixed prefix of the workload's request stream through
//! the server three times (untraced, traced with a client span per
//! request, and pipelined), then replays the same requests in process
//! through each crate's public functions, recording a span at each call
//! boundary. The program itself is not instrumented: every span wraps a
//! call the benchmark makes. The `kernel` span inside a search cannot be
//! timed call by call without instrumenting the trees, so it is
//! synthesized from the search's exact distance count times the kernel
//! cost per distance measured on the same data.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vantage_core::prelude::{
    BoundedMetric, Counted, DistanceRole, Euclidean, LinearScan, Metric as _, MetricIndex,
    Neighbor, QueryProfile, Threads,
};
use vantage_mvptree::{ConcurrentMvpTree, MvpParams, MvpTree};
use vantage_persist::{self as persist, F64Vectors};
use vantage_telemetry::{
    CostDelta, IndexMetrics, MetricsRegistry, OpKind as TelemetryOp, SloSurface,
};
use vantage_vptree::{VpTree, VpTreeParams};

use crate::run::{read_op, stats_totals, Ctx, Metric, OpTotals, Tally};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile};
use crate::workload::{reply_line, OpKind, Request, Workload, KNN_K, RANGE_RADIUS};

/// Run length the traced pass plans its stream for, whatever
/// `--seconds` says, so every tail percentile has enough samples.
pub const PLAN_SECONDS: u64 = 10;

/// Requests in flight on the pipelined connection.
const PIPELINE_DEPTH: usize = 16;

/// `PING` round trips timed for the transport baseline.
const PINGS: usize = 2_000;

/// Queries each in-process tree layer is timed on.
const LAYER_QUERIES: usize = 400;

/// Queries the linear-scan layer is timed on.
const SCAN_QUERIES: usize = 200;

/// Query/item pairs per kernel timing.
const KERNEL_PAIRS: usize = 100_000;

/// Items the kernel timing cycles through (about 200 KB of vectors).
const KERNEL_WINDOW: usize = 1_024;

/// Writes sent to a `serve --data` server on the static workloads.
const STATIC_WRITES: usize = 1_200;

/// Request ids of the in-process ingest replay on the static workloads
/// start here, so its spans never share an id with the served replay.
const INGEST_IDS: u64 = 1 << 32;

type Probe = Counted<Euclidean>;

/// Which end-to-end metric each layer should move, on which workload,
/// and where it should stay flat.
pub const LAYER_MAP: &[(&str, &str, &str, &str)] = &[
    ("cli serve", "serve.ping_rtt_us serve.overhead_us serve.reply_bytes", "read_p50_ms, ops_per_cpu_s on clustered-range", "uniform-knn"),
    ("cli serve", "serve.read_p99_ms serve.wall_ops_s (ungated)", "-", "-"),
    ("cli serve", "serve.write_p50_ms serve.write_p99_ms", "ops_per_cpu_s on dynamic-ingest", "uniform-knn, clustered-range"),
    ("telemetry", "telemetry.record_ns", "ops_per_cpu_s on clustered-range", "uniform-knn"),
    ("persist", "persist.save_ms persist.open_ms persist.bytes_per_item", "setup_s, peak_rss_mb on uniform-knn, clustered-range", "dynamic-ingest"),
    ("vptree", "vptree.build_ms vptree.build_dists", "setup_s on uniform-knn", "clustered-range"),
    ("vptree", "vptree.knn_us vptree.dists_per_knn vptree.nodes_per_knn vptree.traversal_ns_per_dist vptree.knn_vs_scan", "read_p50_ms, ops_per_cpu_s on uniform-knn", "clustered-range"),
    ("mvptree", "mvptree.build_ms mvptree.build_dists", "setup_s on clustered-range, dynamic-ingest", "uniform-knn"),
    ("mvptree", "mvptree.range_us mvptree.dists_per_range mvptree.nodes_per_range mvptree.leaf_filter_frac mvptree.traversal_ns_per_dist mvptree.range_vs_scan", "read_p50_ms, ops_per_cpu_s, dist_per_read on clustered-range", "uniform-knn"),
    ("mvptree concurrent", "concurrent.insert_us concurrent.remove_us concurrent.rebuilds concurrent.rebuild_ms concurrent.rebuild_dists concurrent.read_us concurrent.overflow_dist_frac", "ops_per_cpu_s, read_p50_ms on dynamic-ingest", "uniform-knn, clustered-range"),
    ("core metrics/simd", "kernel.l2_ns kernel.l2_within_ns kernel.abandon_frac", "read_p50_ms, ops_per_cpu_s on uniform-knn", "clustered-range"),
    ("core linear/knn", "linear.knn_us linear.ns_per_dist collector.ns_per_dist", "read_p50_ms on uniform-knn", "clustered-range"),
    ("benchmark", "trace.overhead_pct ledger.unexplained_frac", "-", "-"),
];

/// Requests of the measured stream the traced pass replays: enough
/// reads for a p99 with ten samples beyond it, and on dynamic-ingest
/// enough inserts to cross the overflow rebuild.
fn prefix_len(workload: Workload) -> usize {
    match workload {
        Workload::UniformKnn => 1_040,
        Workload::ClusteredRange => 5_000,
        Workload::DynamicIngest => 12_000,
    }
}

fn mvp_params() -> MvpParams {
    MvpParams::paper(3, 80, 5).seed(0).threads(Threads::Auto)
}

fn vp_params() -> VpTreeParams {
    VpTreeParams::binary().seed(0).threads(Threads::Auto)
}

pub fn run(
    ctx: &mut Ctx,
    tally: &mut Tally,
    seed: u64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let workload = ctx.workload();
    let n = prefix_len(workload).min(ctx.plan.measured.len());
    let prefix: Vec<Request> = ctx.plan.measured[..n].to_vec();
    let is_read: Vec<bool> = prefix.iter().map(|r| r.op == OpKind::Read).collect();

    // Through the server: untraced, traced, pipelined, and the write path.
    let started = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "servebench: {what} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let untraced = server_pass(ctx, tally, &prefix, None)?;
    let mut log = SpanLog::new();
    let traced = server_pass(ctx, tally, &prefix, Some(&mut log))?;
    let wall_ops_s = pipelined_pass(ctx, tally, &prefix)?;
    let write_ns: Vec<f64> = if workload == Workload::DynamicIngest {
        select(&untraced.rtt_ns, &is_read, false)
    } else {
        static_write_pass(ctx, tally, seed)?
    };
    progress("server passes");

    // In process, through the public APIs.
    let plan = &ctx.plan;
    let items = &plan.data.items;
    let layer_queries: Vec<Vec<f64>> = prefix
        .iter()
        .filter(|r| r.op == OpKind::Read)
        .take(LAYER_QUERIES)
        .map(|r| plan.queries[r.arg].clone())
        .collect();
    let scan = linear_layer(
        items,
        &layer_queries[..SCAN_QUERIES.min(layer_queries.len())],
    );
    let knn_bounds = scan.knn_bounds.clone();
    let range_bounds = vec![RANGE_RADIUS; knn_bounds.len()];
    let kernel_knn = kernel_layer(items, &layer_queries, &knn_bounds);
    let kernel_range = kernel_layer(items, &layer_queries, &range_bounds);
    let vp = vp_layer(items, &ctx.work.join("layer-vp.vsnap"), &layer_queries)?;
    let mvp = mvp_layer(items, &ctx.work.join("layer-mvp.vsnap"), &layer_queries)?;
    let record_ns = telemetry_layer();
    progress("layer timings");

    let telemetry = Telemetry::new(workload);
    let served = match workload {
        Workload::UniformKnn => {
            let snap = untraced
                .snapshot
                .as_deref()
                .ok_or("no snapshot was served")?;
            let tree =
                persist::open_vp_tree::<F64Vectors, Probe>(snap).map_err(|e| e.to_string())?;
            let view = tree.view();
            let kernel_ns = vp.kernel_ns_per_dist(&kernel_knn);
            let mut search = |q: &Vec<f64>| view.knn(q, KNN_K);
            served_replay(
                &mut log,
                &prefix,
                tree.metric(),
                &mut search,
                &telemetry,
                kernel_ns,
                tally,
            )?
        }
        Workload::ClusteredRange => {
            let snap = untraced
                .snapshot
                .as_deref()
                .ok_or("no snapshot was served")?;
            let tree =
                persist::open_mvp_tree::<F64Vectors, Probe>(snap).map_err(|e| e.to_string())?;
            let view = tree.view();
            let kernel_ns = mvp.kernel_ns_per_dist(&kernel_range);
            let mut search = |q: &Vec<f64>| {
                let mut v = view.range(q, RANGE_RADIUS);
                v.sort_unstable();
                v
            };
            served_replay(
                &mut log,
                &prefix,
                tree.metric(),
                &mut search,
                &telemetry,
                kernel_ns,
                tally,
            )?
        }
        Workload::DynamicIngest => {
            let kernel_ns = mvp.kernel_ns_per_dist(&kernel_range);
            let data = &plan.data;
            ingest_replay(
                &data.items,
                &data.held_out,
                &prefix,
                &mut log,
                0,
                &telemetry,
                kernel_ns,
                Some(&mut *tally),
            )?
        }
    };
    let ingest = if workload == Workload::DynamicIngest {
        served.clone()
    } else {
        let (base, stream) = plan.ingest_stream(seed);
        let kernel_ns = mvp.kernel_ns_per_dist(&kernel_range);
        let held_out = &plan.data.held_out;
        ingest_replay(
            &items[..base],
            held_out,
            &stream,
            &mut log,
            INGEST_IDS,
            &telemetry,
            kernel_ns,
            None,
        )?
    };

    progress("in-process replays");

    // The paper's cost measure must agree exactly between the server's
    // STATS and the in-process `Counted` replay of the same reads.
    if untraced.stats.distances != served.read_dists || traced.stats != untraced.stats {
        tally.fail(format!(
            "distance counts disagree: STATS {} (traced pass {}), in-process Counted {}",
            untraced.stats.distances, traced.stats.distances, served.read_dists
        ));
    }

    let read_rtt = select(&untraced.rtt_ns, &is_read, true);
    let traced_rtt = select(&traced.rtt_ns, &is_read, true);
    let overhead_ns: Vec<f64> = read_rtt
        .iter()
        .zip(&served.read_search_ns)
        .map(|(rtt, search)| rtt - *search as f64)
        .collect();
    let reply_bytes: Vec<f64> = untraced
        .reply_bytes
        .iter()
        .zip(&is_read)
        .filter(|(_, r)| **r)
        .map(|(b, _)| *b as f64)
        .collect();
    let p99 = |v: &[f64], what: &str| {
        percentile(v, 0.99).ok_or_else(|| format!("{what}: too few samples for a p99"))
    };
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let trace_overhead_pct = span_cost_ns() / med(&traced_rtt) * 100.0;

    // The ledger: what the layers' self times explain of one traced read,
    // each layer and the round trip taken as a median over the reads, so
    // a few reads stalled by the host do not dominate it.
    let ping = med(&untraced.ping_ns);
    let ledger_ids: HashSet<u64> = if workload == Workload::DynamicIngest {
        (0..prefix.len() as u64)
            .filter(|&i| is_read[i as usize])
            .collect()
    } else {
        (0..prefix.len() as u64).collect()
    };
    let by_layer: Vec<(&str, f64, usize)> = log
        .self_times_by_name(|s| ledger_ids.contains(&s.request) && s.name != "serve.request")
        .into_iter()
        .map(|(name, own)| (name, med(&own), own.len()))
        .collect();
    let explained_ns = ping + by_layer.iter().map(|(_, ns, _)| ns).sum::<f64>();
    let traced_median = med(&traced_rtt);
    let unexplained = 1.0 - explained_ns / traced_median;

    let spans_path = Path::new(".bench_work")
        .join("spans")
        .join(format!("{}-{seed}.jsonl", workload.name()));
    log.write_jsonl(&spans_path)?;

    let persist_layer = if workload == Workload::UniformKnn {
        &vp
    } else {
        &mvp
    };
    let read_kernel = if workload == Workload::UniformKnn {
        &kernel_knn
    } else {
        &kernel_range
    };
    let m = Metric::new;
    let metrics = vec![
        m("serve.ping_rtt_us", med(&untraced.ping_ns) / 1e3, "us"),
        m("serve.overhead_us", med(&overhead_ns) / 1e3, "us"),
        m(
            "serve.reply_bytes",
            mean(&reply_bytes).unwrap_or(0.0),
            "bytes",
        ),
        m("serve.read_p99_ms", p99(&read_rtt, "reads")? / 1e6, "ms"),
        m("serve.wall_ops_s", wall_ops_s, "1/s"),
        m("serve.write_p50_ms", med(&write_ns) / 1e6, "ms"),
        m("serve.write_p99_ms", p99(&write_ns, "writes")? / 1e6, "ms"),
        m("telemetry.record_ns", record_ns, "ns"),
        m("persist.save_ms", persist_layer.save_ms, "ms"),
        m("persist.open_ms", persist_layer.open_ms, "ms"),
        m(
            "persist.bytes_per_item",
            persist_layer.bytes_per_item,
            "bytes",
        ),
        m("vptree.build_ms", vp.build_ms, "ms"),
        m("vptree.build_dists", vp.build_dists, "count"),
        m("vptree.knn_us", vp.query_us, "us"),
        m("vptree.dists_per_knn", vp.dists, "count"),
        m("vptree.nodes_per_knn", vp.nodes, "count"),
        m(
            "vptree.traversal_ns_per_dist",
            vp.traversal_ns_per_dist(&kernel_knn),
            "ns",
        ),
        m("vptree.knn_vs_scan", vp.query_us / scan.knn_us, "ratio"),
        m("mvptree.build_ms", mvp.build_ms, "ms"),
        m("mvptree.build_dists", mvp.build_dists, "count"),
        m("mvptree.range_us", mvp.query_us, "us"),
        m("mvptree.dists_per_range", mvp.dists, "count"),
        m("mvptree.nodes_per_range", mvp.nodes, "count"),
        m("mvptree.leaf_filter_frac", mvp.leaf_filter_frac, "ratio"),
        m(
            "mvptree.traversal_ns_per_dist",
            mvp.traversal_ns_per_dist(&kernel_range),
            "ns",
        ),
        m(
            "mvptree.range_vs_scan",
            mvp.query_us / scan.range_us,
            "ratio",
        ),
        m("concurrent.insert_us", med(&ingest.insert_ns) / 1e3, "us"),
        m("concurrent.remove_us", med(&ingest.remove_ns) / 1e3, "us"),
        m(
            "concurrent.rebuilds",
            ingest.rebuild_ns.len() as f64,
            "count",
        ),
        m("concurrent.rebuild_ms", med(&ingest.rebuild_ns) / 1e6, "ms"),
        m(
            "concurrent.rebuild_dists",
            ingest.rebuild_dists as f64,
            "count",
        ),
        m(
            "concurrent.read_us",
            med(&as_f64(&ingest.read_search_ns)) / 1e3,
            "us",
        ),
        m(
            "concurrent.overflow_dist_frac",
            ingest.overflow_dists as f64 / ingest.read_dists as f64,
            "ratio",
        ),
        m("kernel.l2_ns", read_kernel.full_ns, "ns"),
        m("kernel.l2_within_ns", read_kernel.within_ns, "ns"),
        m("kernel.abandon_frac", read_kernel.abandon_frac, "ratio"),
        m("linear.knn_us", scan.knn_us, "us"),
        m("linear.ns_per_dist", scan.ns_per_dist, "ns"),
        m(
            "collector.ns_per_dist",
            scan.ns_per_dist - kernel_knn.within_ns,
            "ns",
        ),
        m("trace.overhead_pct", trace_overhead_pct, "%"),
        m("ledger.unexplained_frac", unexplained, "ratio"),
    ];

    let mut notes = vec![
        format!(
            "traced pass: {} requests ({} reads) replayed untraced, traced and pipelined (depth {PIPELINE_DEPTH}); {} writes timed",
            prefix.len(),
            read_rtt.len(),
            write_ns.len()
        ),
        format!(
            "distances: STATS {} = in-process Counted {} over {} reads; rebuild distances {} are not in STATS",
            untraced.stats.distances, served.read_dists, read_rtt.len(), ingest.rebuild_dists
        ),
        format!("spans: {} written to {}", log.spans().len(), spans_path.display()),
        format!(
            "read round trip medians: untraced pass {:.1} us, traced pass {:.1} us",
            med(&read_rtt) / 1e3,
            med(&traced_rtt) / 1e3
        ),
        format!(
            "ledger per read (medians): traced round trip {:.1} us; transport (PING) {:.1} us; layer self times:",
            traced_median / 1e3,
            ping / 1e3
        ),
    ];
    for (name, ns, count) in &by_layer {
        notes.push(format!(
            "    {name:<12} {:>10.2} us over {count} spans",
            ns / 1e3
        ));
    }
    notes.push("layer -> end-to-end map (layer | metrics | moves | flat on):".to_string());
    for (layer, names, moves, flat) in LAYER_MAP {
        notes.push(format!("    {layer} | {names} | {moves} | {flat}"));
    }
    Ok((metrics, notes))
}

/// What recording one `serve.request` span costs the traced pass: two
/// clock reads and a push, timed in a loop. Timing the two passes'
/// round trips against each other would instead measure how the host's
/// speed moved between them, which is many times larger.
fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut log = SpanLog::new();
    let start = Instant::now();
    for i in 0..N {
        let a = log.now();
        let b = log.now();
        log.push("serve.request", i, None, a, b, 0);
    }
    black_box(log.spans().len());
    start.elapsed().as_nanos() as f64 / N as f64
}

fn as_f64(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&v| v as f64).collect()
}

/// Values of `samples` whose request is (or is not) a read, as `f64`.
fn select(samples: &[u64], is_read: &[bool], reads: bool) -> Vec<f64> {
    samples
        .iter()
        .zip(is_read)
        .filter(|(_, r)| **r == reads)
        .map(|(v, _)| *v as f64)
        .collect()
}

/// What one replay through the server observed.
struct ServerPass {
    rtt_ns: Vec<u64>,
    reply_bytes: Vec<usize>,
    stats: OpTotals,
    ping_ns: Vec<f64>,
    snapshot: Option<std::path::PathBuf>,
}

/// Sets up a fresh server, warms it up, and replays `prefix` at depth 1,
/// recording a `serve.request` span per request when `log` is given.
/// Untraced passes also time `PING` round trips.
fn server_pass(
    ctx: &mut Ctx,
    tally: &mut Tally,
    prefix: &[Request],
    mut log: Option<&mut SpanLog>,
) -> Result<ServerPass, String> {
    let warmup = ctx.plan.warmup.clone();
    let (server, mut conn, _, snapshot) = ctx.setup(&warmup[0], tally)?;
    for request in &warmup[1..] {
        let (reply, _) = conn.call(&request.line)?;
        tally.check(request, &reply);
    }
    let op = read_op(ctx.workload());
    let before = stats_totals(&mut conn, op)?;
    let mut rtt_ns = Vec::with_capacity(prefix.len());
    let mut reply_bytes = Vec::with_capacity(prefix.len());
    for (i, request) in prefix.iter().enumerate() {
        let start = log.as_ref().map(|l| l.now());
        let (reply, ns) = conn.call(&request.line)?;
        if let (Some(l), Some(start)) = (log.as_mut(), start) {
            let end = l.now();
            l.push(
                "serve.request",
                i as u64,
                None,
                start,
                end,
                reply.len() as u64,
            );
        }
        tally.check(request, &reply);
        rtt_ns.push(ns);
        reply_bytes.push(reply.len() + 1);
    }
    let after = stats_totals(&mut conn, op)?;
    let mut ping_ns = Vec::new();
    if log.is_none() {
        let ping = Request {
            op: OpKind::Read,
            line: "PING".into(),
            expect: crate::workload::Expect::Exact("OK pong".into()),
            arg: 0,
        };
        for _ in 0..PINGS {
            let (reply, ns) = conn.call(&ping.line)?;
            tally.check(&ping, &reply);
            ping_ns.push(ns as f64);
        }
    }
    server.shutdown(conn)?;
    Ok(ServerPass {
        rtt_ns,
        reply_bytes,
        stats: OpTotals {
            count: after.count - before.count,
            distances: after.distances - before.distances,
        },
        ping_ns,
        snapshot,
    })
}

/// Wall-clock throughput of `prefix` on one connection with
/// [`PIPELINE_DEPTH`] requests in flight, on a fresh server.
fn pipelined_pass(ctx: &mut Ctx, tally: &mut Tally, prefix: &[Request]) -> Result<f64, String> {
    let warmup = ctx.plan.warmup.clone();
    let (server, mut conn, _, _) = ctx.setup(&warmup[0], tally)?;
    let start = Instant::now();
    let (mut sent, mut done) = (0, 0);
    while done < prefix.len() {
        while sent < prefix.len() && sent - done < PIPELINE_DEPTH {
            conn.send(&prefix[sent].line)?;
            sent += 1;
        }
        let reply = conn.recv()?;
        tally.check(&prefix[done], &reply);
        done += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    server.shutdown(conn)?;
    Ok(prefix.len() as f64 / secs)
}

/// Write latencies on the static workloads: the base of their ingest
/// stream served with `serve --data`, then the stream's writes.
fn static_write_pass(ctx: &mut Ctx, tally: &mut Tally, seed: u64) -> Result<Vec<f64>, String> {
    let (base, stream) = ctx.plan.ingest_stream(seed);
    let writes: Vec<&Request> = stream
        .iter()
        .filter(|r| r.op != OpKind::Read)
        .take(STATIC_WRITES)
        .collect();
    let items = ctx.plan.data.items[..base].to_vec();
    let (server, mut conn) = ctx.start_data_server(&items)?;
    let mut ns = Vec::with_capacity(writes.len());
    for request in &writes {
        let (reply, t) = conn.call(&request.line)?;
        tally.check(request, &reply);
        ns.push(t as f64);
    }
    server.shutdown(conn)?;
    Ok(ns)
}

/// The telemetry calls the server makes per read.
struct Telemetry {
    metrics: Arc<IndexMetrics>,
    slo: SloSurface,
    op: TelemetryOp,
}

impl Telemetry {
    fn new(workload: Workload) -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new().index("servebench"),
            slo: SloSurface::new(),
            op: if workload == Workload::UniformKnn {
                TelemetryOp::Knn
            } else {
                TelemetryOp::Range
            },
        }
    }
}

/// Nanoseconds per `IndexMetrics::record` + `SloSurface::record` pair.
fn telemetry_layer() -> f64 {
    let tel = Telemetry::new(Workload::ClusteredRange);
    let reps: Vec<f64> = (0..5)
        .map(|rep| {
            let start = Instant::now();
            for i in 0..200_000u64 {
                let ns = 50_000 + (i * 7919 + rep) % 100_000;
                let cost = CostDelta {
                    computations: 100 + i % 200,
                    ..CostDelta::default()
                };
                tel.metrics.record(tel.op, Duration::from_nanos(ns), cost);
                tel.slo.record(tel.op, ns, i);
            }
            start.elapsed().as_nanos() as f64 / 200_000.0
        })
        .collect();
    median(&reps).expect("five repetitions")
}

/// One read replayed in process the way the server answers it: parse
/// the request line, search, record telemetry, encode the reply. Returns
/// the reply, the search time and its distance count.
fn served_read(
    log: &mut SpanLog,
    id: u64,
    line: &str,
    probe: &Probe,
    search: &mut dyn FnMut(&Vec<f64>) -> Vec<Neighbor>,
    tel: &Telemetry,
    kernel_ns: f64,
) -> Result<(String, u64, u64), String> {
    let t0 = log.now();
    let root = log.push("request", id, None, t0, t0, 0);
    let text = line.splitn(3, ' ').nth(2).ok_or("read line has no query")?;
    let query: Vec<f64> = text
        .split(',')
        .map(|c| c.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad query in `{line}`"))?;
    let t1 = log.now();
    let before = probe.count();
    let answer = black_box(search(&query));
    let t2 = log.now();
    let dists = probe.count() - before;
    let cost = CostDelta {
        computations: dists,
        ..CostDelta::default()
    };
    tel.metrics
        .record(tel.op, Duration::from_nanos(t2 - t1), cost);
    tel.slo.record(tel.op, t2 - t0, id);
    let t3 = log.now();
    let reply = reply_line(&answer);
    let t4 = log.now();
    log.push("parse", id, Some(root), t0, t1, 0);
    let search_span = log.push("search", id, Some(root), t1, t2, dists);
    let kernel_end = t1 + ((dists as f64 * kernel_ns) as u64).min(t2 - t1);
    log.push("kernel", id, Some(search_span), t1, kernel_end, dists);
    log.push("telemetry", id, Some(root), t2, t3, 0);
    log.push("encode", id, Some(root), t3, t4, reply.len() as u64);
    log.finish(root, t4, 0);
    Ok((reply, t2 - t1, dists))
}

/// What an in-process replay observed.
#[derive(Clone, Default)]
struct Replay {
    /// Search time per read, in stream order.
    read_search_ns: Vec<u64>,
    /// Distances of the reads (the figure `STATS` must match).
    read_dists: u64,
    insert_ns: Vec<f64>,
    remove_ns: Vec<f64>,
    rebuild_ns: Vec<f64>,
    rebuild_dists: u64,
    /// Read distances spent scanning the overflow buffer.
    overflow_dists: u64,
}

/// Replays the reads of `prefix` against a static tree in process.
fn served_replay(
    log: &mut SpanLog,
    prefix: &[Request],
    probe: &Probe,
    search: &mut dyn FnMut(&Vec<f64>) -> Vec<Neighbor>,
    tel: &Telemetry,
    kernel_ns: f64,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    for (i, request) in prefix.iter().enumerate() {
        let (reply, ns, dists) =
            served_read(log, i as u64, &request.line, probe, search, tel, kernel_ns)?;
        tally.check(request, &reply);
        out.read_search_ns.push(ns);
        out.read_dists += dists;
    }
    Ok(out)
}

/// Replays an ingest stream against a `ConcurrentMvpTree` over a
/// `Counted` metric, built as `serve --data` builds it. A write that
/// computes distances is a rebuild: plain inserts and deletes compute
/// none. Replies are checked when `tally` is given.
#[allow(clippy::too_many_arguments)]
fn ingest_replay(
    base: &[Vec<f64>],
    held_out: &[Vec<f64>],
    stream: &[Request],
    log: &mut SpanLog,
    id_base: u64,
    tel: &Telemetry,
    kernel_ns: f64,
    mut tally: Option<&mut Tally>,
) -> Result<Replay, String> {
    let probe = Counted::new(Euclidean);
    let tree = ConcurrentMvpTree::with_items(base.to_vec(), probe.clone(), mvp_params())
        .map_err(|e| e.to_string())?;
    let mut out = Replay::default();
    let mut overflow: HashSet<usize> = HashSet::new();
    for (i, request) in stream.iter().enumerate() {
        let id = id_base + i as u64;
        if request.op == OpKind::Read {
            let scanned = overflow.len() as u64;
            let mut search = |q: &Vec<f64>| {
                let mut v = tree.read().range(q, RANGE_RADIUS);
                v.sort_unstable();
                v
            };
            let (reply, ns, dists) =
                served_read(log, id, &request.line, &probe, &mut search, tel, kernel_ns)?;
            if let Some(t) = tally.as_deref_mut() {
                t.check(request, &reply);
            }
            out.read_search_ns.push(ns);
            out.read_dists += dists;
            out.overflow_dists += scanned;
            continue;
        }
        let before = probe.count();
        let t0 = log.now();
        let (reply, name) = if request.op == OpKind::Insert {
            let item = held_out[request.arg].clone();
            let new_id = tree.insert(item);
            overflow.insert(new_id);
            (format!("OK id={new_id} "), "concurrent.insert")
        } else {
            let removed = tree.remove(request.arg);
            overflow.remove(&request.arg);
            (format!("OK removed={removed} "), "concurrent.remove")
        };
        let t1 = log.now();
        let dists = probe.count() - before;
        log.push(name, id, None, t0, t1, dists);
        let ns = (t1 - t0) as f64;
        if dists > 0 {
            out.rebuild_ns.push(ns);
            out.rebuild_dists += dists;
            overflow.clear();
        } else if request.op == OpKind::Insert {
            out.insert_ns.push(ns);
        } else {
            out.remove_ns.push(ns);
        }
        if let Some(t) = tally.as_deref_mut() {
            t.check(request, &reply);
        }
    }
    Ok(out)
}

/// Linear-scan timings on the layer queries.
struct ScanLayer {
    knn_us: f64,
    range_us: f64,
    ns_per_dist: f64,
    /// Each query's k-th nearest distance: the bound a kNN search ends on.
    knn_bounds: Vec<f64>,
}

fn linear_layer(items: &[Vec<f64>], queries: &[Vec<f64>]) -> ScanLayer {
    let scan = LinearScan::new(items.to_vec(), Euclidean);
    let mut knn_ns = Vec::new();
    let mut range_ns = Vec::new();
    let mut knn_bounds = Vec::new();
    for q in queries {
        let start = Instant::now();
        let nn = black_box(scan.knn(q, KNN_K));
        knn_ns.push(start.elapsed().as_nanos() as f64);
        knn_bounds.push(nn.last().map_or(f64::INFINITY, |n| n.distance));
        let start = Instant::now();
        black_box(scan.range(q, RANGE_RADIUS));
        range_ns.push(start.elapsed().as_nanos() as f64);
    }
    let knn = median(&knn_ns).unwrap_or(f64::NAN);
    ScanLayer {
        knn_us: knn / 1e3,
        range_us: median(&range_ns).unwrap_or(f64::NAN) / 1e3,
        ns_per_dist: knn / items.len() as f64,
        knn_bounds,
    }
}

/// The 20-d L2 kernel, full and bounded, on query/item pairs.
struct KernelLayer {
    full_ns: f64,
    within_ns: f64,
    abandon_frac: f64,
}

/// Times the kernel on each query (bounded by its entry in `bounds`)
/// against a cache-resident window of [`KERNEL_WINDOW`] items, scanned
/// in order as a leaf or a linear scan reads them: the compute cost of a
/// distance, not the cost of fetching its item from memory.
fn kernel_layer(items: &[Vec<f64>], queries: &[Vec<f64>], bounds: &[f64]) -> KernelLayer {
    let window = &items[..KERNEL_WINDOW.min(items.len())];
    let nq = bounds.len().min(queries.len()).max(1);
    let passes = KERNEL_PAIRS / window.len();
    let time = |f: &dyn Fn(&mut f64, usize)| {
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let mut acc = 0.0;
                for pass in 0..passes {
                    f(&mut acc, pass % nq);
                }
                black_box(acc);
                start.elapsed().as_nanos() as f64 / (passes * window.len()) as f64
            })
            .collect();
        median(&reps).expect("five repetitions")
    };
    let full_ns = time(&|acc, q| {
        for x in window {
            *acc += Euclidean.distance(&queries[q], x);
        }
    });
    let within_ns = time(&|acc, q| {
        for x in window {
            *acc += Euclidean
                .distance_within(&queries[q], x, bounds[q])
                .unwrap_or(0.0);
        }
    });
    let counted = Counted::new(Euclidean);
    for pass in 0..passes {
        let q = pass % nq;
        for x in window {
            black_box(counted.distance_within(&queries[q], x, bounds[q]));
        }
    }
    KernelLayer {
        full_ns,
        within_ns,
        abandon_frac: counted.abandoned() as f64 / counted.count() as f64,
    }
}

/// Build, persistence and query figures of one tree structure.
#[derive(Default)]
struct TreeLayer {
    build_ms: f64,
    build_dists: f64,
    save_ms: f64,
    open_ms: f64,
    bytes_per_item: f64,
    query_us: f64,
    query_mean_ns: f64,
    dists: f64,
    nodes: f64,
    vantage_frac: f64,
    leaf_filter_frac: f64,
}

impl TreeLayer {
    /// Kernel cost per distance of this tree's searches: vantage-point
    /// distances run the full kernel, leaf candidates the bounded one.
    fn kernel_ns_per_dist(&self, kernel: &KernelLayer) -> f64 {
        self.vantage_frac * kernel.full_ns + (1.0 - self.vantage_frac) * kernel.within_ns
    }

    /// Search time per distance beyond the kernel's share.
    fn traversal_ns_per_dist(&self, kernel: &KernelLayer) -> f64 {
        self.query_mean_ns / self.dists - self.kernel_ns_per_dist(kernel)
    }
}

/// Median build time over three builds, with the build's distances.
fn timed_builds<T>(items: &[Vec<f64>], build: impl Fn(Vec<Vec<f64>>, Probe) -> T) -> (T, f64, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let mut dists = 0;
    for _ in 0..3 {
        let owned = items.to_vec();
        let probe = Counted::new(Euclidean);
        let start = Instant::now();
        let tree = build(owned, probe.clone());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        dists = probe.count();
        last = Some(tree);
    }
    let ms = median(&times).expect("three builds");
    (last.expect("three builds"), ms, dists as f64)
}

/// Median of `reps` timings of `f`, in milliseconds.
fn timed_ms<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((last.expect("reps > 0"), median(&times).expect("reps > 0")))
}

/// Per-query time, distances and descent profile.
fn profile_queries(
    layer: &mut TreeLayer,
    queries: &[Vec<f64>],
    probe: &Probe,
    plain: &dyn Fn(&[f64]) -> usize,
    traced: &dyn Fn(&[f64], &mut QueryProfile),
) {
    let mut ns = Vec::new();
    let before = probe.count();
    for q in queries {
        let start = Instant::now();
        black_box(plain(q));
        ns.push(start.elapsed().as_nanos() as f64);
    }
    let dists = probe.count() - before;
    let mut total = QueryProfile::new();
    for q in queries {
        let mut p = QueryProfile::new();
        traced(q, &mut p);
        total.merge(&p);
    }
    let nq = queries.len().max(1) as f64;
    layer.query_us = median(&ns).unwrap_or(f64::NAN) / 1e3;
    layer.query_mean_ns = mean(&ns).unwrap_or(f64::NAN);
    layer.dists = dists as f64 / nq;
    layer.nodes = total.nodes_visited() as f64 / nq;
    let all = total.total_distances().max(1) as f64;
    layer.vantage_frac = total.distances(DistanceRole::Vantage) as f64 / all;
    let rejected = total.candidates_rejected() as f64;
    let candidates = total.distances(DistanceRole::Candidate) as f64;
    layer.leaf_filter_frac = rejected / (rejected + candidates).max(1.0);
}

/// Builds a tree three times, saves it three times and opens the
/// snapshot five times, all timed; returns the build and persistence
/// figures and the opened snapshot.
fn persisted_layer<T, Mapped>(
    items: &[Vec<f64>],
    path: &Path,
    build: impl Fn(Vec<Vec<f64>>, Probe) -> T,
    save: impl Fn(&T, &Path) -> vantage_core::Result<u64>,
    open: impl Fn(&Path) -> vantage_core::Result<Mapped>,
) -> Result<(TreeLayer, Mapped), String> {
    let (tree, build_ms, build_dists) = timed_builds(items, build);
    let (bytes, save_ms) = timed_ms(3, || save(&tree, path).map_err(|e| e.to_string()))?;
    drop(tree);
    let (mapped, open_ms) = timed_ms(5, || open(path).map_err(|e| e.to_string()))?;
    let layer = TreeLayer {
        build_ms,
        build_dists,
        save_ms,
        open_ms,
        bytes_per_item: bytes as f64 / items.len() as f64,
        ..TreeLayer::default()
    };
    Ok((layer, mapped))
}

fn vp_layer(items: &[Vec<f64>], path: &Path, queries: &[Vec<f64>]) -> Result<TreeLayer, String> {
    let (mut layer, mapped) = persisted_layer(
        items,
        path,
        |v, probe| VpTree::build(v, probe, vp_params()).expect("vp parameters are valid"),
        |tree, path| persist::save_vp_tree(tree, path),
        |path| persist::open_vp_tree::<F64Vectors, Probe>(path),
    )?;
    let view = mapped.view();
    profile_queries(
        &mut layer,
        queries,
        mapped.metric(),
        &|q| view.knn(q, KNN_K).len(),
        &|q, p| {
            view.knn_traced(q, KNN_K, p);
        },
    );
    Ok(layer)
}

fn mvp_layer(items: &[Vec<f64>], path: &Path, queries: &[Vec<f64>]) -> Result<TreeLayer, String> {
    let (mut layer, mapped) = persisted_layer(
        items,
        path,
        |v, probe| MvpTree::build(v, probe, mvp_params()).expect("mvp parameters are valid"),
        |tree, path| persist::save_mvp_tree(tree, path),
        |path| persist::open_mvp_tree::<F64Vectors, Probe>(path),
    )?;
    let view = mapped.view();
    profile_queries(
        &mut layer,
        queries,
        mapped.metric(),
        &|q| view.range(q, RANGE_RADIUS).len(),
        &|q, p| {
            view.range_traced(q, RANGE_RADIUS, p);
        },
    );
    Ok(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Plan;

    #[test]
    fn the_dynamic_stream_crosses_the_overflow_rebuild_three_times() {
        let plan = Plan::new(Workload::DynamicIngest, 1, 20);
        // Reads do not change the store, so the writes alone decide the
        // rebuilds.
        let writes: Vec<Request> = plan
            .measured
            .iter()
            .filter(|r| r.op != OpKind::Read)
            .cloned()
            .collect();
        let data = &plan.data;
        let telemetry = Telemetry::new(Workload::DynamicIngest);
        let mut log = SpanLog::new();
        let mut tally = Tally::default();
        let replay = ingest_replay(
            &data.items,
            &data.held_out,
            &writes,
            &mut log,
            0,
            &telemetry,
            0.0,
            Some(&mut tally),
        )
        .expect("replay runs");
        assert_eq!((tally.attempted, tally.failed), (writes.len() as u64, 0));
        assert!(
            replay.rebuild_ns.len() >= 3,
            "{} rebuilds",
            replay.rebuild_ns.len()
        );
    }
}
