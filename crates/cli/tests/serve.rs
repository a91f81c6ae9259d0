//! End-to-end tests for `vantage serve`: a real TCP server on an
//! ephemeral port, concurrent smoke clients issuing queries during live
//! `RELOAD` swaps, the dynamic ingest mode, the typed metric-mismatch
//! errors on every snapshot-loading path, and hostile request lines.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use vantage_telemetry::export;

fn run(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    match vantage_cli::run(&argv, &mut out) {
        Ok(()) => Ok(out),
        Err(e) => Err(e.to_string()),
    }
}

fn run_ok(argv: &[&str]) -> String {
    run(argv).unwrap_or_else(|e| panic!("cli failed: {e}"))
}

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("vantage-serve-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Spawns `vantage serve` on an ephemeral port in a background thread and
/// returns `(addr, join handle)` once the server has published its
/// address.
fn spawn_server(
    mut argv: Vec<String>,
) -> (String, std::thread::JoinHandle<Result<String, String>>) {
    let addr_file = temp_path(&format!("addr-{:?}", std::thread::current().id()));
    let _ = std::fs::remove_file(&addr_file);
    argv.extend(["--addr".into(), "127.0.0.1:0".into()]);
    argv.extend(["--addr-file".into(), addr_file.clone()]);
    let handle = std::thread::spawn(move || {
        let mut out = String::new();
        vantage_cli::run(&argv, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string())
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                let _ = std::fs::remove_file(&addr_file);
                return (addr, handle);
            }
        }
        assert!(
            Instant::now() < deadline,
            "server did not publish its address in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn client(addr: &str, cmd: &str) -> String {
    run_ok(&["client", "--addr", addr, "--cmd", cmd])
        .trim_end()
        .to_string()
}

/// Sends `lines` over one connection and returns one reply per line; a
/// dropped connection fails the test instead of yielding a reply.
fn session(addr: &str, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").expect("send request");
            let mut reply = String::new();
            let n = reader.read_line(&mut reply).expect("read reply");
            assert!(n > 0, "connection dropped after `{line}`");
            reply.trim_end().to_string()
        })
        .collect()
}

#[test]
fn smoke_clients_stay_bit_identical_across_live_reloads() {
    let data = temp_path("smoke-data.csv");
    let snap = temp_path("smoke-index.vantage");
    let metrics_out = temp_path("smoke-metrics.json");
    run_ok(&[
        "generate", "uniform", "--n", "250", "--dim", "4", "--seed", "7", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--metrics-out".into(),
        metrics_out.clone(),
    ]);

    // 4 client threads replay a scripted workload (KNN/RANGE/KFN derived
    // from the snapshot's own items) while 2 RELOADs swap the index live;
    // every reply must match a direct run against the decoded snapshot
    // byte-for-byte, with zero failures.
    let smoke = run_ok(&[
        "serve-smoke",
        "--addr",
        &addr,
        "--index",
        &snap,
        "--threads",
        "4",
        "--queries",
        "160",
        "--reloads",
        "2",
    ]);
    assert!(smoke.contains("PASS"), "{smoke}");
    assert!(smoke.contains("threads=4"), "{smoke}");
    assert!(smoke.contains("reloads=2"), "{smoke}");

    // A reload whose snapshot holds a different metric is refused with a
    // typed mismatch error on the wire — the old generation keeps serving.
    let wrong = temp_path("smoke-wrong-metric.vantage");
    run_ok(&["build", "--data", &data, "--save", &wrong, "--metric", "l1"]);
    let reply = client(&addr, &format!("RELOAD {wrong}"));
    assert!(
        reply.starts_with("ERR") && reply.contains("snapshot metric mismatch"),
        "{reply}"
    );
    let info = client(&addr, "INFO");
    assert!(
        info.contains("mode=static") && info.contains("generation=2"),
        "{info}"
    );

    assert!(client(&addr, "PING") == "OK pong");
    let stats = client(&addr, "STATS");
    assert!(stats.starts_with("OK {"), "{stats}");

    let reply = client(&addr, "SHUTDOWN");
    assert_eq!(reply, "OK bye");
    let out = server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    assert!(out.contains("shut down cleanly"), "{out}");

    // The flushed metrics snapshot carries per-generation serving labels
    // and the swap/generation gauges.
    let text = std::fs::read_to_string(&metrics_out).expect("metrics snapshot written");
    let snapshot = export::from_json(&text).expect("metrics snapshot parses");
    assert_eq!(snapshot.gauge("serve/generation"), Some(2));
    assert_eq!(snapshot.gauge("serve/swaps"), Some(2));
    assert_eq!(snapshot.gauge("serve/in_flight"), Some(0));
    assert!(
        snapshot.index("serve/gen0").is_some(),
        "per-generation label missing"
    );
    assert!(
        snapshot.index("serve/gen2").is_some(),
        "post-reload label missing"
    );

    for p in [&data, &snap, &wrong, &metrics_out] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sharded_server_replies_are_bit_identical_to_the_unsharded_snapshot() {
    let data = temp_path("shard-data.csv");
    let snap = temp_path("shard-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "220", "--dim", "4", "--seed", "13", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--shards".into(),
        "4".into(),
    ]);

    let info = client(&addr, "INFO");
    assert!(
        info.contains("mode=static") && info.contains("shards=4"),
        "{info}"
    );

    // The smoke harness computes every expected reply from a direct,
    // *unsharded* run against the decoded snapshot — so a passing run is
    // exactly the tentpole's bit-identity guarantee, across live RELOAD
    // swaps (which rebuild the sharded layout) too.
    let smoke = run_ok(&[
        "serve-smoke",
        "--addr",
        &addr,
        "--index",
        &snap,
        "--threads",
        "4",
        "--queries",
        "120",
        "--reloads",
        "1",
    ]);
    assert!(smoke.contains("PASS"), "{smoke}");

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");

    // The dynamic engine has no sharded mode: refuse, don't mis-serve.
    let e = run(&["serve", "--data", &data, "--shards", "2"]).expect_err("must refuse");
    assert!(e.contains("snapshot (--index) mode"), "{e}");

    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dynamic_mode_serves_ingest_and_far_queries() {
    let data = temp_path("dyn-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "60", "--dim", "3", "--seed", "3", "--out", &data,
    ]);

    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--data".into(),
        data.clone(),
        "--metric".into(),
        "l2".into(),
    ]);

    let info = client(&addr, "INFO");
    assert!(
        info.contains("mode=dynamic") && info.contains("items=60"),
        "{info}"
    );

    // Insert a far-away point: it must be its own nearest neighbor.
    let reply = client(&addr, "INSERT 9,9,9");
    assert!(reply.starts_with("OK id=60"), "{reply}");
    let knn = client(&addr, "KNN 1 9,9,9");
    assert!(knn.starts_with("OK 1 60:0"), "{knn}");
    // And the farthest point from the origin-ish corner of the cube.
    let kfn = client(&addr, "KFN 1 0,0,0");
    assert!(kfn.starts_with("OK 1 60:"), "{kfn}");

    // Delete it: queries stop seeing the id immediately.
    let reply = client(&addr, "DELETE 60");
    assert!(reply.starts_with("OK removed=true"), "{reply}");
    let knn = client(&addr, "KNN 3 9,9,9");
    assert!(!knn.contains(" 60:"), "{knn}");
    assert!(client(&addr, "BEYOND 100 0,0,0") == "OK 0");

    // Static-only commands are typed errors, not panics.
    let reply = client(&addr, "RELOAD /tmp/nope");
    assert!(reply.starts_with("ERR"), "{reply}");

    // REINDEX rebuilds and publishes a fresh generation.
    let reply = client(&addr, "REINDEX");
    assert!(reply.starts_with("OK generation="), "{reply}");
    let info = client(&addr, "INFO");
    assert!(info.contains("items=60"), "{info}");

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn metric_mismatch_is_a_typed_error_on_every_snapshot_path() {
    let data = temp_path("mismatch-data.csv");
    let snap = temp_path("mismatch-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "40", "--dim", "3", "--seed", "1", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let cases: [&[&str]; 4] = [
        &[
            "serve",
            "--index",
            &snap,
            "--metric",
            "l1",
            "--addr",
            "127.0.0.1:0",
        ],
        &[
            "query", "--index", &snap, "--metric", "l1", "--query", "0,0,0", "--knn", "3",
        ],
        &[
            "explain", "--index", &snap, "--metric", "l1", "--query", "0,0,0", "--knn", "3",
        ],
        &["stats", "--index", &snap, "--metric", "l1"],
    ];
    for argv in cases {
        let e = run(argv).expect_err("mismatched metric must fail");
        assert!(
            e.contains("snapshot metric mismatch")
                && e.contains("snapshot has `l2`")
                && e.contains("expected `l1`"),
            "{argv:?}: {e}"
        );
    }

    // The matching metric flag is accepted everywhere.
    run_ok(&[
        "query", "--index", &snap, "--metric", "l2", "--query", "0,0,0", "--knn", "3",
    ]);
    run_ok(&["stats", "--index", &snap, "--metric", "l2"]);

    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

/// Wrong-arity vectors, non-finite coordinates and a k far beyond any
/// allocation each get a reply on the same connection, and a refused
/// `INSERT` leaves later reads working — in the dynamic engine and on a
/// mapped snapshot.
#[test]
fn hostile_request_lines_get_replies_and_keep_the_connection() {
    let data = temp_path("hostile-data.csv");
    let snap = temp_path("hostile-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "200", "--dim", "6", "--seed", "5", "--out", &data,
    ]);
    run_ok(&[
        "build",
        "--data",
        &data,
        "--save",
        &snap,
        "--structure",
        "vp",
    ]);
    let q = "0.5,0.5,0.5,0.5,0.5,0.5";
    let huge_k = 1_000_000_000_000u64;
    for (mode, source) in [("--data", &data), ("--index", &snap)] {
        let (addr, server) = spawn_server(vec!["serve".into(), mode.into(), source.clone()]);
        let lines: Vec<String> = vec![
            "INSERT 0.5,0.5".into(),
            format!("KNN 3 {q}"),
            "KNN 3 0.5,0.5".into(),
            "KNN 3 NaN,0.5,0.5,0.5,0.5,0.5".into(),
            "INSERT inf,0.5,0.5,0.5,0.5,0.5".into(),
            "RANGE 0.5 0.5,0.5,0.5,0.5,0.5,0.5,0.5".into(),
            "KFN 2 0.5".into(),
            format!("KNN {huge_k} {q}"),
            format!("KFN {huge_k} {q}"),
            "PING".into(),
        ];
        let replies = session(&addr, &lines);
        let expect_err = |i: usize| {
            assert!(
                replies[i].starts_with("ERR "),
                "{mode}: `{}` -> {}",
                lines[i],
                replies[i]
            );
        };
        expect_err(0);
        assert!(replies[1].starts_with("OK 3 "), "{mode}: {}", replies[1]);
        for i in 2..7 {
            expect_err(i);
        }
        assert!(replies[2].contains("6-dimensional"), "{}", replies[2]);
        assert!(replies[3].contains("finite"), "{}", replies[3]);
        assert!(replies[7].starts_with("OK 200 "), "{mode}: {}", replies[7]);
        assert!(replies[8].starts_with("OK 200 "), "{mode}: {}", replies[8]);
        assert_eq!(replies[9], "OK pong");
        // The refused INSERT changed nothing: the read before it and the
        // read after it agree.
        assert_eq!(client(&addr, &format!("KNN 3 {q}")), replies[1]);

        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
    }

    // An empty start takes its arity from the first INSERT.
    let empty = temp_path("hostile-empty.csv");
    std::fs::write(&empty, "").unwrap();
    let (addr, server) = spawn_server(vec!["serve".into(), "--data".into(), empty.clone()]);
    let lines: Vec<String> = ["INSERT 1,2,3", "INSERT 1,2", "KNN 1 1,2", "KNN 1 1,2,3"]
        .map(String::from)
        .to_vec();
    let replies = session(&addr, &lines);
    assert!(replies[0].starts_with("OK id=0 "), "{}", replies[0]);
    assert!(replies[1].contains("3-dimensional"), "{}", replies[1]);
    assert!(replies[2].contains("3-dimensional"), "{}", replies[2]);
    assert_eq!(replies[3], "OK 1 0:0");
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap, &empty] {
        let _ = std::fs::remove_file(p);
    }
}
