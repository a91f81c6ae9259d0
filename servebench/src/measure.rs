//! The untraced run that yields the end-to-end metrics.
//!
//! One process drives one connection in a closed loop: each request is
//! sent only after the previous reply arrived. The measured stream is
//! replayed in rounds, each on a freshly set-up server (one round for the
//! static workloads, one per ten seconds of run for dynamic-ingest), and
//! cut into slices: [`STATIC_SLICES`] contiguous slices of the static
//! workloads' stream, whose reads all cost alike, and one slice per round
//! of dynamic-ingest, whose reads slow down as the overflow buffer fills
//! and speed up after each rebuild, so only a whole round is comparable
//! with another.
//!
//! A slice's CPU time is read to the nanosecond from the server's
//! threads; the run fails if their sum falls short of the process's own
//! tick count, which would mean threads exited mid-slice. The timing
//! metrics are corrected for the host's speed during the slice (see
//! [`crate::hostspeed`]) and reported as medians over the slices, so a
//! host that slows for part of a run moves a few slices, not the reported
//! value. The uncorrected figures are printed beside them. Set-ups are
//! spread across the run: those that start a round, and throwaway servers
//! that are set up and stopped between slices while the measured one
//! idles.

use std::time::Instant;

use crate::hostspeed::{self, Reference, BURST_EVERY, NOMINAL_NS, SENSITIVITY};
use crate::run::{read_op, stats_totals, Ctx, Metric, Tally};
use crate::stats::median;
use crate::workload::{OpKind, Workload};

/// Slices of a static workload's stream.
const STATIC_SLICES: usize = 32;

/// Set-ups timed in a run, counting those that start a round: more
/// where one is cheap (`serve --data` of 10 000 items takes ~50 ms).
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::DynamicIngest => 16,
        _ => 8,
    }
}

/// One slice, measured stretch by stretch: a stretch is the requests
/// between two timings of the reference loop, and its server CPU time and
/// read latencies are corrected by the mean of the two timings.
struct SliceMeter {
    /// The loop timing that opened the current stretch, ns per distance.
    opened_ns: f64,
    /// Server thread CPU-seconds when the current stretch opened.
    opened_cpu: f64,
    /// Read latencies of the current stretch, ms.
    pending_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    corrected_ms: Vec<f64>,
    raw_cpu: f64,
    corrected_cpu: f64,
}

impl SliceMeter {
    fn new(timing_ns: f64, cpu: f64) -> SliceMeter {
        SliceMeter {
            opened_ns: timing_ns,
            opened_cpu: cpu,
            pending_ms: Vec::new(),
            raw_ms: Vec::new(),
            corrected_ms: Vec::new(),
            raw_cpu: 0.0,
            corrected_cpu: 0.0,
        }
    }

    /// Closes the current stretch with the loop timing and the server's
    /// CPU-seconds taken after its last request, and opens the next.
    fn close_stretch(&mut self, timing_ns: f64, cpu: f64) {
        let slowness = hostspeed::slowness(self.opened_ns, timing_ns);
        self.raw_cpu += cpu - self.opened_cpu;
        self.corrected_cpu += (cpu - self.opened_cpu) / slowness;
        for ms in self.pending_ms.drain(..) {
            self.raw_ms.push(ms);
            self.corrected_ms.push(ms / slowness);
        }
        self.opened_ns = timing_ns;
        self.opened_cpu = cpu;
    }
}

pub fn run(ctx: &mut Ctx, tally: &mut Tally) -> Result<(Vec<Metric>, Vec<String>), String> {
    let workload = ctx.workload();
    let rounds = ctx.plan.rounds;
    let per_round = if workload == Workload::DynamicIngest {
        1
    } else {
        STATIC_SLICES
    };
    let slices = rounds * per_round;
    let throwaways = setups(workload).saturating_sub(rounds);
    let warmup = ctx.plan.warmup.clone();
    let stream = std::mem::take(&mut ctx.plan.measured);
    let op = read_op(workload);
    hostspeed::pin_client_and_servers()?;
    let reference = Reference::new();

    // Set-up times in seconds, corrected and raw.
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    // Per slice, corrected and raw: operations per server CPU-second, and
    // the read median in ms.
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    let (mut p50s, mut raw_p50s) = (Vec::new(), Vec::new());
    // Every timing of the reference loop, ns per distance.
    let mut loop_ns = Vec::new();
    // Server CPU-seconds over the slices: from the threads, from the ticks.
    let (mut cpu, mut cpu_ticks) = (0.0, 0.0);
    let (mut ops, mut reads, mut stats_reads, mut distances) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_rss: f64 = 0.0;
    for round in 0..rounds {
        let before_setup = reference.time_on_server_cpu()?;
        let (server, mut conn, secs, _snapshot) =
            ctx.setup(&warmup[round % warmup.len()], tally)?;
        let slowness = hostspeed::slowness(before_setup, reference.time_on_server_cpu()?);
        raw_setups.push(secs);
        setups.push(secs / slowness);
        for request in &warmup[1..] {
            let (reply, _) = conn.call(&request.line)?;
            tally.check(request, &reply);
        }
        let before = stats_totals(&mut conn, op)?;
        // The timing at a slice boundary closes one slice's last stretch
        // and opens the next slice's first.
        let mut edge = reference.time_on_server_cpu()?;
        loop_ns.push(edge);
        for s in 0..per_round {
            let lo = s * stream.len() / per_round;
            let hi = (s + 1) * stream.len() / per_round;
            let ticks_start = server.cpu_seconds()?;
            let mut meter = SliceMeter::new(edge, server.thread_cpu_seconds()?);
            let mut last_timing = Instant::now();
            for request in &stream[lo..hi] {
                let (reply, ns) = conn.call(&request.line)?;
                tally.check(request, &reply);
                if request.op == OpKind::Read {
                    meter.pending_ms.push(ns as f64 / 1e6);
                }
                if last_timing.elapsed() >= BURST_EVERY {
                    let timing = reference.time_on_server_cpu()?;
                    meter.close_stretch(timing, server.thread_cpu_seconds()?);
                    loop_ns.push(timing);
                    last_timing = Instant::now();
                }
            }
            edge = reference.time_on_server_cpu()?;
            meter.close_stretch(edge, server.thread_cpu_seconds()?);
            loop_ns.push(edge);
            cpu_ticks += server.cpu_seconds()? - ticks_start;
            if meter.raw_cpu > 0.0 {
                raw_rates.push((hi - lo) as f64 / meter.raw_cpu);
                rates.push((hi - lo) as f64 / meter.corrected_cpu);
            }
            raw_p50s.extend(median(&meter.raw_ms));
            p50s.extend(median(&meter.corrected_ms));
            cpu += meter.raw_cpu;
            ops += (hi - lo) as u64;
            reads += meter.raw_ms.len() as u64;
            // Throwaway set-ups after this slice, spread evenly over the run.
            let done = round * per_round + s + 1;
            let due = done * throwaways / slices - (done - 1) * throwaways / slices;
            for k in 0..due {
                let first = &warmup[(done + k) % warmup.len()];
                let before_setup = reference.time_on_server_cpu()?;
                let secs = ctx.throwaway_setup(first, tally)?;
                let slowness = hostspeed::slowness(before_setup, reference.time_on_server_cpu()?);
                raw_setups.push(secs);
                setups.push(secs / slowness);
            }
        }
        let after = stats_totals(&mut conn, op)?;
        stats_reads += after.count - before.count;
        distances += after.distances - before.distances;
        peak_rss = peak_rss.max(server.peak_rss_mib()?);
        server.shutdown(conn)?;
    }

    if stats_reads != reads {
        tally.fail(format!(
            "STATS counted {stats_reads} reads, the client sent {reads}"
        ));
    }
    // Tick accounting samples; allow it a tenth and a few ticks of slack.
    if cpu < 0.9 * cpu_ticks - 0.05 {
        return Err(format!(
            "server threads ran {cpu:.2} CPU-seconds but the process {cpu_ticks:.2}: threads exited mid-slice"
        ));
    }
    let none = || "the server used no measurable CPU time".to_string();
    let ops_per_cpu_s = median(&rates).ok_or_else(none)?;
    let read_p50 = median(&p50s).ok_or("no reads were measured")?;
    let loop_median = median(&loop_ns).expect("the loop was timed");
    let setup_s = median(&setups).expect("at least one set-up ran");
    let raw_setup_s = median(&raw_setups).expect("at least one set-up ran");
    let notes = vec![
        format!(
            "ops_per_cpu_s: median over {} slices; {ops} ops ({reads} reads) in {rounds} round(s) over {cpu:.2} server CPU-seconds ({cpu_ticks:.2} in ticks)",
            rates.len()
        ),
        format!(
            "read_p50_ms: median of {} slice medians over {reads} depth-1 reads",
            p50s.len()
        ),
        format!(
            "setup_s: median of {} set-ups (uncorrected): {:?}",
            setups.len(),
            raw_setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
        ),
        format!(
            "host speed: reference loop timed {} times, median {loop_median:.2} ns per distance (nominal {NOMINAL_NS}, sensitivity {SENSITIVITY})",
            loop_ns.len()
        ),
        format!(
            "uncorrected: ops_per_cpu_s {:.6}, read_p50_ms {:.6}, setup_s {raw_setup_s:.6}",
            median(&raw_rates).ok_or_else(none)?,
            median(&raw_p50s).ok_or("no reads were measured")?
        ),
    ];
    let metrics = vec![
        Metric::new("ops_per_cpu_s", ops_per_cpu_s, "1/s"),
        Metric::new("read_p50_ms", read_p50, "ms"),
        Metric::new("dist_per_read", distances as f64 / reads as f64, "count"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok((metrics, notes))
}
