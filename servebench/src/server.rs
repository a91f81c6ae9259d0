//! Starting, observing and stopping `vantage` processes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Linux reports `utime`/`stime` in `/proc/<pid>/stat` in units of
/// `USER_HZ`, which is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// How long a server may take to bind and publish its address.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a server may take to exit after `SHUTDOWN`.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `vantage <args>` to completion, failing on a non-zero exit.
pub fn run_vantage(vantage: &Path, args: &[&str]) -> Result<(), String> {
    let mut cmd = Command::new(vantage);
    crate::hostspeed::place(&mut cmd, false);
    let status = cmd
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", vantage.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`vantage {}` failed: {status}", args.join(" ")))
    }
}

/// A running `vantage serve` process. Dropping it kills and reaps the
/// process if [`Server::shutdown`] did not already stop it.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    /// Starts `vantage serve <args>` on an ephemeral loopback port and
    /// waits until it has published the bound address.
    pub fn start(vantage: &Path, args: &[&str], addr_file: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&addr_file);
        let addr_arg = addr_file.to_string_lossy().into_owned();
        let mut cmd = Command::new(vantage);
        crate::hostspeed::place(&mut cmd, true);
        let child = cmd
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--addr-file", &addr_arg])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", vantage.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let start = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    server.addr = text.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(status) = server.try_exit()? {
                return Err(format!("`vantage serve` exited during start-up: {status}"));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("`vantage serve` did not publish its address".to_string());
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn try_exit(&mut self) -> Result<Option<std::process::ExitStatus>, String> {
        match self.child.as_mut() {
            Some(child) => child.try_wait().map_err(|e| format!("wait failed: {e}")),
            None => Ok(None),
        }
    }

    /// CPU seconds (user + system) the whole process has used so far,
    /// exited threads included.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_stat_cpu_ticks(&text)
            .map(|ticks| ticks as f64 / USER_HZ)
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// CPU seconds the server's live threads have run so far, to the
    /// nanosecond: the sum of `/proc/<pid>/task/*/schedstat`. A thread
    /// that has exited no longer counts, so this is for differences over
    /// a span in which the server keeps its threads; [`Server::cpu_seconds`]
    /// (in 10 ms ticks) counts exited threads too.
    pub fn thread_cpu_seconds(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let mut ns = 0u64;
        for task in tasks {
            let path = task
                .map_err(|e| format!("{dir}: {e}"))?
                .path()
                .join("schedstat");
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    ns += parse_schedstat_ns(&text)
                        .ok_or_else(|| format!("{}: unexpected format", path.display()))?
                }
                // The thread exited after the directory was listed.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("{}: {e}", path.display())),
            }
        }
        Ok(ns as f64 / 1e9)
    }

    /// The process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_status_kib(&text, "VmHWM:")
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks the server to drain and exit over `conn`, then reaps it.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let reply = conn.call("SHUTDOWN").map(|(r, _)| r);
        drop(conn);
        let start = Instant::now();
        loop {
            if let Some(status) = self.try_exit()? {
                self.child = None;
                reply?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("`vantage serve` exited with {status}"))
                };
            }
            if start.elapsed() > STOP_TIMEOUT {
                return Err("`vantage serve` did not exit after SHUTDOWN".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// contain spaces and parentheses, so fields are counted after the last
/// `)`: `utime` and `stime` are the 12th and 13th fields after it.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds on the CPU: the first field of a `schedstat` line.
fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// The kB value of the `key` line in `/proc/<pid>/status`.
fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (vantage (x) y) S 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(175));
    }

    #[test]
    fn schedstat_starts_with_nanoseconds_on_the_cpu() {
        assert_eq!(
            parse_schedstat_ns("2619215527 237014953 16998\n"),
            Some(2_619_215_527)
        );
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_lines_are_read_in_kib() {
        let status = "Name:\tvantage\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(4096));
    }
}
