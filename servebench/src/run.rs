//! Shared run machinery: the working directory, timed set-ups, the reply
//! tally and `STATS` parsing.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vantage_telemetry::Json;

use crate::client::Conn;
use crate::server::{run_vantage, Server};
use crate::workload::{self, Plan, Request, Workload};

/// One metric as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Requests sent and replies that disagreed with the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Counts one request and checks its reply.
    pub fn check(&mut self, request: &Request, reply: &str) {
        self.attempted += 1;
        if !request.expect.matches(reply) {
            self.fail(format!("`{}` got `{}`", clip(&request.line), clip(reply)));
        }
    }

    /// Counts one failure that no single reply shows.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

fn clip(s: &str) -> String {
    if s.len() <= 120 {
        s.to_string()
    } else {
        format!(
            "{}...",
            &s[..s.char_indices().nth(117).map_or(s.len(), |(i, _)| i)]
        )
    }
}

/// Everything a run needs: the plan, the `vantage` binary and a private
/// working directory that is removed when the run ends.
pub struct Ctx {
    pub plan: Plan,
    vantage: PathBuf,
    pub work: PathBuf,
    csv: PathBuf,
    setups: usize,
}

impl Ctx {
    pub fn new(plan: Plan, vantage: PathBuf, work: PathBuf) -> Result<Ctx, String> {
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let csv = work.join("items.csv");
        std::fs::write(&csv, plan.data.csv()).map_err(|e| format!("{}: {e}", csv.display()))?;
        Ok(Ctx {
            plan,
            vantage,
            work,
            csv,
            setups: 0,
        })
    }

    pub fn workload(&self) -> Workload {
        self.plan.workload
    }

    /// Sets up one server from scratch, timed from the start of
    /// `vantage build --save` (or of `serve --data`) to the first
    /// oracle-correct reply, which is the reply to `first`. Returns the
    /// server, its connection, the set-up time in seconds and the
    /// snapshot path (static workloads).
    pub fn setup(
        &mut self,
        first: &Request,
        tally: &mut Tally,
    ) -> Result<(Server, Conn, f64, Option<PathBuf>), String> {
        let addr_file = self.next_addr_file();
        let csv = path_str(&self.csv);
        let start = Instant::now();
        let (server, snapshot) = match self.workload().structure() {
            Some(structure) => {
                let snap = self.work.join(format!("index-{}.vsnap", self.setups));
                let snap_arg = path_str(&snap);
                run_vantage(
                    &self.vantage,
                    &[
                        "build",
                        "--data",
                        &csv,
                        "--metric",
                        "l2",
                        "--structure",
                        structure,
                        "--save",
                        &snap_arg,
                    ],
                )?;
                let server = Server::start(&self.vantage, &["--index", &snap_arg], addr_file)?;
                (server, Some(snap))
            }
            None => {
                let args = ["--data", csv.as_str(), "--metric", "l2"];
                (Server::start(&self.vantage, &args, addr_file)?, None)
            }
        };
        let mut conn = Conn::connect(&server.addr, Duration::from_secs(30))?;
        let (reply, _) = conn.call(&first.line)?;
        let elapsed = start.elapsed().as_secs_f64();
        tally.check(first, &reply);
        Ok((server, conn, elapsed, snapshot))
    }

    /// Serves `items` with `serve --data`, untimed.
    pub fn start_data_server(&mut self, items: &[Vec<f64>]) -> Result<(Server, Conn), String> {
        let addr_file = self.next_addr_file();
        let csv = self.work.join(format!("data-{}.csv", self.setups));
        std::fs::write(&csv, workload::csv(items))
            .map_err(|e| format!("{}: {e}", csv.display()))?;
        let csv = path_str(&csv);
        let server = Server::start(
            &self.vantage,
            &["--data", &csv, "--metric", "l2"],
            addr_file,
        )?;
        let conn = Conn::connect(&server.addr, Duration::from_secs(30))?;
        Ok((server, conn))
    }

    /// A fresh file for the next server to publish its address in.
    fn next_addr_file(&mut self) -> PathBuf {
        self.setups += 1;
        self.work.join(format!("addr-{}.txt", self.setups))
    }

    /// A set-up whose server is stopped straight away.
    pub fn throwaway_setup(&mut self, first: &Request, tally: &mut Tally) -> Result<f64, String> {
        let (server, conn, secs, snapshot) = self.setup(first, tally)?;
        server.shutdown(conn)?;
        if let Some(snap) = snapshot {
            let _ = std::fs::remove_file(snap);
        }
        Ok(secs)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

pub fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Request count and distance computations the server has recorded for
/// one operation kind (`knn`, `range`), summed over its indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    pub count: u64,
    pub distances: u64,
}

/// Reads the server's `STATS` totals for `op`.
pub fn stats_totals(conn: &mut Conn, op: &str) -> Result<OpTotals, String> {
    let (reply, _) = conn.call("STATS")?;
    let json = reply
        .strip_prefix("OK ")
        .ok_or_else(|| format!("STATS failed: {reply}"))?;
    parse_op_totals(json, op)
}

fn parse_op_totals(json: &str, op: &str) -> Result<OpTotals, String> {
    let root = Json::parse(json).map_err(|e| format!("STATS is not JSON: {e}"))?;
    let mut totals = OpTotals::default();
    let indexes = root
        .get("indexes")
        .and_then(Json::as_array)
        .ok_or("STATS has no indexes")?;
    for index in indexes {
        for entry in index.get("ops").and_then(Json::as_array).unwrap_or(&[]) {
            if entry.get("op").and_then(Json::as_str) != Some(op) {
                continue;
            }
            totals.count += entry.get("count").and_then(Json::as_u64).unwrap_or(0);
            totals.distances += entry
                .get("distances")
                .and_then(|d| d.get("sum"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
    }
    Ok(totals)
}

/// The telemetry op name the workload's reads are recorded under.
pub fn read_op(workload: Workload) -> &'static str {
    match workload {
        Workload::UniformKnn => "knn",
        _ => "range",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Expect;

    #[test]
    fn stats_totals_sum_one_op_kind() {
        let json = r#"{"gauges":[],"indexes":[{"label":"serve/gen0","ops":[
            {"count":3,"distances":{"count":3,"sum":310},"op":"range"},
            {"count":1,"distances":{"count":1,"sum":999},"op":"snapshot_load"}]}],"version":1}"#;
        let t = parse_op_totals(json, "range").unwrap();
        assert_eq!(
            t,
            OpTotals {
                count: 3,
                distances: 310
            }
        );
        assert_eq!(parse_op_totals(json, "knn").unwrap(), OpTotals::default());
    }

    #[test]
    fn a_corrupted_reply_is_caught_by_the_oracle() {
        let plan = Plan::new(Workload::DynamicIngest, 2, 1);
        let read = plan
            .measured
            .iter()
            .find(|r| matches!(&r.expect, Expect::Exact(s) if s.contains(':')))
            .expect("a read with a neighbor");
        let Expect::Exact(good) = &read.expect else {
            unreachable!("reads expect an exact reply")
        };
        let mut tally = Tally::default();
        tally.check(read, good);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        let mut last_digit_changed = good.to_string();
        let last = last_digit_changed.pop().expect("non-empty reply");
        last_digit_changed.push(if last == '1' { '2' } else { '1' });
        let first_id_changed = good.replacen(' ', " 9", 2);
        let one_neighbor_dropped = good[..good.rfind(' ').expect("neighbors")].to_string();
        for corrupt in [
            last_digit_changed,
            first_id_changed,
            one_neighbor_dropped,
            "ERR unknown command".to_string(),
        ] {
            tally.check(read, &corrupt);
        }
        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }
}
