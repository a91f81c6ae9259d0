//! Host-speed correction for the timing metrics.
//!
//! The benchmark runs on a few vCPUs of a shared machine whose speed
//! moves by a third or more over minutes, and CPU time per operation
//! moves with it. So a measured run pins the server to one CPU and the
//! client to another, and every [`BURST_EVERY`] of measured stream the
//! client steps onto the server's CPU while the server idles and times a
//! fixed loop of its own there: a 20-d L2 distance over 20 000 points
//! visited in a shuffled order, the same kind of work as the served
//! reads; the loop is also timed just before and after every set-up.
//! Server CPU time and latencies between two timings, and a set-up's
//! time, are then reported at the loop's [`NOMINAL_NS`] per distance:
//! they are divided by [`slowness`], the mean of the two timings ÷
//! `NOMINAL_NS` raised to [`SENSITIVITY`]. The loop is the
//! benchmark's own code, so a change to the program moves the corrected
//! metrics exactly as it moves the raw ones.

use std::hint::black_box;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How often the loop is timed during a measured stream.
pub const BURST_EVERY: Duration = Duration::from_millis(100);

/// How long one timing of the loop runs.
const BURST: Duration = Duration::from_millis(5);

/// Nanoseconds per distance of the loop that the corrected metrics are
/// reported at: about its median on the build host (Intel Xeon, 2 vCPUs).
pub const NOMINAL_NS: f64 = 36.0;

/// How strongly the served work follows the loop when the host's speed
/// moves, as an exponent. The loop is all cache-missing distance
/// computations, and the host's slow spells hit those hardest: over runs
/// on the build host whose loop timings ranged from 31 to 62 ns, the
/// server's CPU per operation moved by 0.5 to 0.8 of the loop's change
/// on a log scale, and dividing by the loop's full change over-corrected.
pub const SENSITIVITY: f64 = 0.75;

/// The host's slowness over a stretch opened and closed by the loop
/// timings `a` and `b` (ns per distance): what server time measured
/// over the stretch is divided by to report it at nominal speed.
pub fn slowness(a: f64, b: f64) -> f64 {
    ((a + b) / 2.0 / NOMINAL_NS).powf(SENSITIVITY)
}

/// Points and dimension of the loop's data (3.2 MB, beyond one core's L2).
const POINTS: usize = 20_000;
const DIM: usize = 20;

/// A CPU set as `sched_setaffinity` takes it (1 024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's (`pid` 0) or a process's allowed CPUs.
fn get_affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restricts the calling thread to `set`. Async-signal-safe, so it may
/// run between `fork` and `exec`.
fn set_affinity(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

fn single(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// Where a measured run's processes run: the client on the first allowed
/// CPU, servers on the last, everything else (`vantage build`) anywhere
/// it was allowed to start with. One CPU serves as both when only one is
/// allowed.
struct Placement {
    client: CpuSet,
    server: CpuSet,
    all: CpuSet,
}

static PLACEMENT: OnceLock<Placement> = OnceLock::new();

/// Pins the calling thread as the client and makes servers started from
/// now on run on the server CPU.
pub fn pin_client_and_servers() -> Result<(), String> {
    let all = get_affinity()?;
    let cpus: Vec<usize> = (0..all.len() * 64)
        .filter(|&c| all[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let (first, last) = match (cpus.first(), cpus.last()) {
        (Some(&f), Some(&l)) => (f, l),
        _ => return Err("no CPU is allowed".to_string()),
    };
    let placement = Placement {
        client: single(first),
        server: single(last),
        all,
    };
    set_affinity(&placement.client).map_err(|e| format!("sched_setaffinity: {e}"))?;
    let _ = PLACEMENT.set(placement);
    Ok(())
}

/// Makes `cmd` start on the server CPU (`server`) or on every CPU the
/// benchmark was allowed, once [`pin_client_and_servers`] has run.
pub fn place(cmd: &mut Command, server: bool) {
    use std::os::unix::process::CommandExt;
    if let Some(p) = PLACEMENT.get() {
        let set = if server { p.server } else { p.all };
        // SAFETY: the closure only calls `sched_setaffinity`, which is
        // async-signal-safe, on a copied mask.
        unsafe {
            cmd.pre_exec(move || set_affinity(&set));
        }
    }
}

/// The fixed loop.
pub struct Reference {
    points: Vec<f64>,
    order: Vec<u32>,
    query: [f64; DIM],
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let points: Vec<f64> = (0..POINTS * DIM)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let mut order: Vec<u32> = (0..POINTS as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut query = [0.0; DIM];
        query.copy_from_slice(&points[..DIM]);
        Reference {
            points,
            order,
            query,
        }
    }

    /// Times the loop on the server CPU (where the measured server idles
    /// meanwhile) and returns nanoseconds per distance.
    pub fn time_on_server_cpu(&self) -> Result<f64, String> {
        let placement = PLACEMENT.get();
        if let Some(p) = placement {
            set_affinity(&p.server).map_err(|e| format!("sched_setaffinity: {e}"))?;
        }
        let start = Instant::now();
        let mut distances = 0u64;
        while start.elapsed() < BURST {
            let mut sum = 0.0;
            for &i in &self.order {
                let row = &self.points[i as usize * DIM..(i as usize + 1) * DIM];
                let mut d2 = 0.0;
                for (a, b) in row.iter().zip(&self.query) {
                    let e = a - b;
                    d2 += e * e;
                }
                sum += d2.sqrt();
            }
            black_box(sum);
            distances += POINTS as u64;
        }
        let ns = start.elapsed().as_nanos() as f64 / distances as f64;
        if let Some(p) = placement {
            set_affinity(&p.client).map_err(|e| format!("sched_setaffinity: {e}"))?;
        }
        Ok(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_times_a_positive_cost_per_distance() {
        let ns = Reference::new().time_on_server_cpu().unwrap();
        assert!(ns > 0.0 && ns.is_finite(), "{ns}");
    }

    #[test]
    fn single_cpu_sets_one_bit() {
        assert_eq!(single(0)[0], 1);
        assert_eq!(single(65)[1], 2);
    }
}
