//! `servebench`: the loopback benchmark for `vantage serve`.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--vantage PATH]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one untraced
//! run; with `--trace 1` the per-layer metrics of the traced pass. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any reply that
//! disagrees with the `LinearScan` oracle makes the exit code non-zero.
//! `servebench/run.sh` builds the release `vantage` binary and this
//! program, then runs it from the repository root.

mod client;
mod hostspeed;
mod measure;
mod run;
mod server;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Ctx, Metric, Tally};
use workload::{Plan, Workload};

/// Longest accepted `--seconds`: the dynamic-ingest stream inserts held
/// out points and the pool holds enough for this long a run.
const MAX_SECONDS: u64 = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    vantage: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut vantage = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` ({})", names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds must be an integer")?;
                if s == 0 || s > MAX_SECONDS {
                    return Err(format!("--seconds must be in 1..={MAX_SECONDS}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--vantage" => vantage = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        vantage: vantage.unwrap_or_else(|| PathBuf::from(target).join("release/vantage")),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.vantage.is_file() {
        eprintln!(
            "servebench: no `vantage` binary at {} (build it, or pass --vantage)",
            args.vantage.display()
        );
        return ExitCode::from(2);
    }
    match execute(&args) {
        Ok(ok) if ok => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark and prints its report; returns whether every reply
/// was correct.
fn execute(args: &Args) -> Result<bool, String> {
    // Read before a measured run pins this thread to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let plan_seconds = if args.trace {
        traced::PLAN_SECONDS.max(args.seconds)
    } else {
        args.seconds
    };
    let plan = Plan::new(args.workload, args.seed, plan_seconds);
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut ctx = Ctx::new(plan, args.vantage.clone(), work)?;
    let mut tally = Tally::default();
    let (metrics, notes) = if args.trace {
        traced::run(&mut ctx, &mut tally, args.seed)?
    } else {
        measure::run(&mut ctx, &mut tally)?
    };
    println!(
        "servebench {} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc
    );
    for note in &notes {
        println!("  {note}");
    }
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for mismatch in &tally.mismatches {
        println!("  MISMATCH {mismatch}");
    }
    let correct = tally.failed == 0;
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(correct)
}

/// The final JSON line. Values print in shortest round-trip form, so
/// every measured digit is kept.
fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value:?}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
        }];
        let tally = Tally {
            attempted: 7,
            failed: 0,
            mismatches: Vec::new(),
        };
        let line = result_line(true, &tally, &metrics);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload uniform-knn --seed 1 --seconds 2 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload uniform-knn --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload uniform-knn --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload uniform-knn --seed 1 --seconds 2")).is_err());
    }
}
