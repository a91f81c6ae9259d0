//! Self-tests of the benchmark against the real `vantage` binary: short
//! runs of every workload complete with every reply correct, the metric
//! names and units match `BENCHMARK.json`, and the distance count per
//! read repeats exactly for a fixed seed.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path servebench/Cargo.toml`; the
//! first test to need it builds the release `vantage` binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use vantage_telemetry::Json;

const WORKLOADS: [&str; 3] = ["uniform-knn", "clustered-range", "dynamic-ingest"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Builds the release `vantage` binary once and returns its path.
fn vantage() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(|t| root.join(t))
            .unwrap_or_else(|| root.join("target"));
        let status = Command::new(env!("CARGO"))
            .current_dir(&root)
            .args([
                "build",
                "--release",
                "--locked",
                "-p",
                "vantage-cli",
                "--target-dir",
            ])
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building vantage failed");
        target.join("release/vantage")
    })
}

/// Runs the benchmark and returns its exit status and parsed last line.
fn run(workload: &str, seed: u64, seconds: u64, trace: u8) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(repo_root())
        .arg("--vantage")
        .arg(vantage())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), json)
}

/// `name -> unit` of the metrics in one `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name -> unit` of the metrics a run printed.
fn printed(result: &Json) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn assert_clean(ok: bool, result: &Json, what: &str) {
    assert!(ok, "{what}: non-zero exit");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
}

#[test]
fn short_runs_of_every_workload_print_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 3, 1, 0);
        assert_clean(ok, &result, workload);
        assert_eq!(printed(&result), want, "{workload}");
    }
}

#[test]
fn traced_runs_of_every_workload_print_the_declared_per_layer_metrics() {
    let want = declared("per_layer");
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 4, 1, 1);
        assert_clean(ok, &result, workload);
        assert_eq!(printed(&result), want, "{workload}");
    }
}

#[test]
fn distances_per_read_repeat_exactly_for_a_seed() {
    let dist = |result: &Json| {
        result
            .get("metrics")
            .and_then(|m| m.get("dist_per_read"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("dist_per_read")
    };
    let (ok_a, a) = run("dynamic-ingest", 9, 1, 0);
    let (ok_b, b) = run("dynamic-ingest", 9, 1, 0);
    assert_clean(ok_a, &a, "first run");
    assert_clean(ok_b, &b, "second run");
    assert_eq!(dist(&a).to_bits(), dist(&b).to_bits());
    // The traced pass fails the run unless the server's STATS count
    // equals the in-process `Counted` replay of the same reads.
    let (ok, traced) = run("dynamic-ingest", 9, 1, 1);
    assert_clean(ok, &traced, "traced run");
}
