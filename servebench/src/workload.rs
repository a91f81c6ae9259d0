//! The three workloads: their datasets, request streams and the
//! `LinearScan` oracle every reply is checked against.

use std::fmt::Write as _;
use std::sync::Arc;

use vantage_core::prelude::{Euclidean, LinearScan, MetricIndex, Neighbor};
use vantage_datasets::{clustered_vectors, uniform_vectors, ClusteredConfig};

/// Every workload datasets are generated at this seed: clustered density
/// varies by several percent across generator seeds, so the workload
/// seed drives only the queries, the request order and the write stream.
pub const DATASET_SEED: u64 = 0;

/// Vector dimensionality of every workload.
pub const DIM: usize = 20;

/// `k` of the `KNN` reads.
pub const KNN_K: usize = 10;

/// Radius of the `RANGE` reads.
pub const RANGE_RADIUS: f64 = 0.2;

/// Served items the ingest stream of a static workload starts from: the
/// size of dynamic-ingest's store.
pub const INGEST_BASE: usize = 10_000;

/// Requests of an ingest stream the traced pass replays: 6 000 writes,
/// whose net growth of the overflow buffer crosses the rebuild threshold
/// of a 10 000-item store.
pub const INGEST_OPS: usize = 12_000;

/// Longest dynamic-ingest stream one round replays: about 13 500
/// inserts and 4 500 deletes, which grow the store from 10 000 to about
/// 19 000 items and cross the overflow rebuild three times, the third
/// after about 30 500 requests (a 30 000-request stream crosses it only
/// twice).
pub const INGEST_STREAM: usize = 36_000;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `KNN 10` over a vp-tree snapshot of uniform points: the
    /// concentration regime, where nearly every distance is computed.
    UniformKnn,
    /// `RANGE 0.2` over an mvp-tree snapshot of clustered points: the
    /// pruning regime, where the wire and traversal dominate.
    ClusteredRange,
    /// `serve --data` with reads alternating with inserts and deletes.
    DynamicIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::UniformKnn,
        Workload::ClusteredRange,
        Workload::DynamicIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformKnn => "uniform-knn",
            Workload::ClusteredRange => "clustered-range",
            Workload::DynamicIngest => "dynamic-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--structure` a static workload's snapshot is built with.
    pub fn structure(self) -> Option<&'static str> {
        match self {
            Workload::UniformKnn => Some("vp"),
            Workload::ClusteredRange => Some("mvp"),
            Workload::DynamicIngest => None,
        }
    }

    /// Measured requests per `--seconds` of run length, fixed so that a
    /// seed always replays the same stream (and `dist_per_read` repeats
    /// exactly). Each workload takes about a second per second on a
    /// 2-vCPU host.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::UniformKnn => 110,
            Workload::ClusteredRange => 6_000,
            Workload::DynamicIngest => 3_600,
        }
    }

    /// How many times a run of `seconds` replays the measured stream,
    /// each time on a fresh server. Dynamic-ingest's stream is a write
    /// history whose reads slow down as the overflow buffer fills, so a
    /// longer run replays more rounds of it rather than a longer history:
    /// a round is at most [`INGEST_STREAM`] requests, one per ten seconds
    /// of run.
    pub fn rounds(self, seconds: u64) -> usize {
        match self {
            Workload::DynamicIngest => (seconds / 10).max(1) as usize,
            _ => 1,
        }
    }

    /// Requests of one round's measured stream in a run of `seconds`.
    pub fn round_len(self, seconds: u64) -> usize {
        let total = self.ops_per_second() * seconds.max(1) as usize;
        match self {
            Workload::DynamicIngest => (total / self.rounds(seconds)).min(INGEST_STREAM),
            _ => total,
        }
    }

    /// Distinct read queries a run draws from.
    fn pool_size(self) -> usize {
        match self {
            Workload::UniformKnn => 256,
            Workload::ClusteredRange => 2_048,
            Workload::DynamicIngest => 1_024,
        }
    }

    /// The read verb and argument.
    pub fn read_prefix(self) -> String {
        match self {
            Workload::UniformKnn => format!("KNN {KNN_K}"),
            _ => format!("RANGE {RANGE_RADIUS}"),
        }
    }
}

/// A workload's fixed data: the served items, and held-out items of the
/// same distribution that the write stream inserts.
pub struct Dataset {
    pub items: Vec<Vec<f64>>,
    pub held_out: Vec<Vec<f64>>,
}

impl Dataset {
    pub fn generate(workload: Workload) -> Dataset {
        let (all, base) = match workload {
            Workload::UniformKnn => (uniform_vectors(30_000, DIM, DATASET_SEED), 20_000),
            // Clusters are emitted in order, so the first 50 (or 10) are
            // exactly the dataset a 50- (10-) cluster run would give, and
            // the rest are whole clusters the served store has never seen:
            // more than one round of the dynamic-ingest stream inserts.
            Workload::ClusteredRange => (clustered(75), 50_000),
            Workload::DynamicIngest => (clustered(60), 10_000),
        };
        let mut items = all;
        let held_out = items.split_off(base);
        Dataset { items, held_out }
    }

    /// The served items as the CSV `vantage` reads.
    pub fn csv(&self) -> String {
        csv(&self.items)
    }
}

/// Vectors as the CSV `vantage` reads (round-trip `f64` formatting, so
/// the server parses back identical values).
pub fn csv(items: &[Vec<f64>]) -> String {
    let mut s = String::new();
    for v in items {
        s.push_str(&wire(v));
        s.push('\n');
    }
    s
}

fn clustered(clusters: usize) -> Vec<Vec<f64>> {
    let config = ClusteredConfig {
        clusters,
        cluster_size: 1_000,
        dim: DIM,
        epsilon: 0.15,
        seed: DATASET_SEED,
    };
    clustered_vectors(&config).expect("the clustered configuration is valid")
}

/// SplitMix64: a small, fixed generator so streams repeat on every
/// platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Formats a vector in wire form.
pub fn wire(v: &[f64]) -> String {
    let mut s = String::with_capacity(v.len() * 20);
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s
}

/// Renders neighbors exactly as `vantage serve` replies.
pub fn reply_line(neighbors: &[Neighbor]) -> String {
    let mut s = format!("OK {}", neighbors.len());
    for n in neighbors {
        let _ = write!(s, " {}:{}", n.id, n.distance);
    }
    s
}

/// What a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Insert,
    Delete,
}

/// The reply a request must get.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The whole reply line.
    Exact(Arc<str>),
    /// A reply starting with this text (writes carry a generation
    /// number the benchmark does not predict).
    Prefix(Arc<str>),
}

impl Expect {
    pub fn matches(&self, reply: &str) -> bool {
        match self {
            Expect::Exact(s) => reply == &**s,
            Expect::Prefix(p) => reply.starts_with(&**p),
        }
    }
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: OpKind,
    /// Shared: a read of a pool query sends the same line every time.
    pub line: Arc<str>,
    pub expect: Expect,
    /// Read: index into the query pool. Insert: index into the held-out
    /// items. Delete: the stable id removed.
    pub arg: usize,
}

/// A workload instance for one seed: the data, the query pool with its
/// oracle answers (computed by `LinearScan` before anything is timed),
/// and the request streams.
pub struct Plan {
    pub workload: Workload,
    pub data: Dataset,
    pub queries: Vec<Vec<f64>>,
    /// `LinearScan` answer per pool query, over the served items plus
    /// every held-out item (ids in insertion order), sorted as served.
    oracle: Vec<Vec<Neighbor>>,
    /// Request line per pool query.
    lines: Vec<Arc<str>>,
    /// Reply per pool query while no write has happened.
    replies: Vec<Arc<str>>,
    /// Reads used for warm-up and for the first reply of each set-up.
    pub warmup: Vec<Request>,
    /// The measured stream (one round of it).
    pub measured: Vec<Request>,
    /// How many times the measured stream is replayed.
    pub rounds: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let data = Dataset::generate(workload);
        let mut rng = Rng::new(seed);
        let queries: Vec<Vec<f64>> = match workload {
            // Fresh uniform draws: the paper's vector-query protocol.
            Workload::UniformKnn => (0..workload.pool_size())
                .map(|_| {
                    (0..DIM)
                        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
                        .collect()
                })
                .collect(),
            // Dataset members, so every range read has at least one hit,
            // one drawn from each of `pool_size` equal strata of the
            // items: clusters are contiguous, so every cluster is queried
            // in proportion and seeds differ only within clusters.
            _ => {
                let (n, pool) = (data.items.len(), workload.pool_size());
                (0..pool)
                    .map(|i| {
                        let (lo, hi) = (i * n / pool, (i + 1) * n / pool);
                        data.items[lo + rng.below(hi - lo)].clone()
                    })
                    .collect()
            }
        };
        let oracle = oracle_answers(workload, &data, &queries);
        let lines = queries
            .iter()
            .map(|q| Arc::from(format!("{} {}", workload.read_prefix(), wire(q))))
            .collect();
        let base = data.items.len();
        let replies = oracle
            .iter()
            .map(|answer| {
                let live: Vec<Neighbor> = answer.iter().copied().filter(|n| n.id < base).collect();
                Arc::from(reply_line(&live))
            })
            .collect();
        let mut plan = Plan {
            workload,
            data,
            queries,
            oracle,
            lines,
            replies,
            warmup: Vec::new(),
            measured: Vec::new(),
            rounds: workload.rounds(seconds),
        };
        let warmup_reads = 16 + workload.round_len(seconds) / 50;
        let mut stream = StreamState::new(plan.data.items.len(), plan.data.held_out.len());
        plan.warmup = (0..warmup_reads)
            .map(|_| {
                let q = rng.below(plan.queries.len());
                plan.read(q, &stream)
            })
            .collect();
        let total = workload.round_len(seconds);
        plan.measured = plan.stream(&mut rng, &mut stream, total);
        plan
    }

    fn read(&self, q: usize, state: &StreamState) -> Request {
        let expect = if state.inserted == 0 {
            Arc::clone(&self.replies[q])
        } else {
            let answer: Vec<Neighbor> = self.oracle[q]
                .iter()
                .copied()
                .filter(|n| state.is_live(n.id))
                .collect();
            Arc::from(reply_line(&answer))
        };
        Request {
            op: OpKind::Read,
            line: Arc::clone(&self.lines[q]),
            expect: Expect::Exact(expect),
            arg: q,
        }
    }

    /// `total` requests continuing `state`: reads only for the static
    /// workloads; for `dynamic-ingest`, reads alternating with writes.
    fn stream(&self, rng: &mut Rng, state: &mut StreamState, total: usize) -> Vec<Request> {
        (0..total)
            .map(|i| {
                if self.workload != Workload::DynamicIngest || i % 2 == 0 {
                    let q = rng.below(self.queries.len());
                    self.read(q, state)
                } else {
                    state.next_write(rng, &self.data.held_out)
                }
            })
            .collect()
    }

    /// The ingest stream the traced pass replays on this workload's
    /// data, with the number of served items it starts from: the
    /// measured stream itself on `dynamic-ingest`; on the static
    /// workloads, the same read/write mix over their first
    /// [`INGEST_BASE`] items, inserting their held-out items. Reads of the
    /// static workloads have no oracle answer.
    pub fn ingest_stream(&self, seed: u64) -> (usize, Vec<Request>) {
        if self.workload == Workload::DynamicIngest {
            let n = INGEST_OPS.min(self.measured.len());
            return (self.data.items.len(), self.measured[..n].to_vec());
        }
        let base = INGEST_BASE.min(self.data.items.len());
        let mut rng = Rng::new(seed ^ 0xC0C0);
        let mut state = StreamState::new(base, self.data.held_out.len());
        let stream = (0..INGEST_OPS)
            .map(|i| {
                if i % 2 == 0 {
                    let q = rng.below(self.queries.len());
                    Request {
                        op: OpKind::Read,
                        line: Arc::from(format!("RANGE {RANGE_RADIUS} {}", wire(&self.queries[q]))),
                        expect: Expect::Prefix(Arc::from("")),
                        arg: q,
                    }
                } else {
                    state.next_write(&mut rng, &self.data.held_out)
                }
            })
            .collect();
        (base, stream)
    }
}

/// Which stable ids are live at a point in a stream.
struct StreamState {
    base: usize,
    inserted: usize,
    inserted_live: Vec<usize>,
    dead: Vec<bool>,
}

impl StreamState {
    fn new(base: usize, held_out: usize) -> StreamState {
        StreamState {
            base,
            inserted: 0,
            inserted_live: Vec::new(),
            dead: vec![false; base + held_out],
        }
    }

    fn is_live(&self, id: usize) -> bool {
        id < self.base + self.inserted && !self.dead[id]
    }

    /// The next write: three quarters inserts of the next held-out item,
    /// one quarter deletes of a live inserted id. The server assigns
    /// stable ids in insertion order, so the new id is predictable.
    fn next_write(&mut self, rng: &mut Rng, held_out: &[Vec<f64>]) -> Request {
        if rng.below(4) == 0 && !self.inserted_live.is_empty() {
            let at = rng.below(self.inserted_live.len());
            let id = self.inserted_live.swap_remove(at);
            self.dead[id] = true;
            return Request {
                op: OpKind::Delete,
                line: Arc::from(format!("DELETE {id}")),
                expect: Expect::Prefix(Arc::from("OK removed=true ")),
                arg: id,
            };
        }
        let k = self.inserted;
        let item = held_out
            .get(k)
            .expect("run length is capped to the held-out pool");
        let id = self.base + k;
        self.inserted += 1;
        self.inserted_live.push(id);
        Request {
            op: OpKind::Insert,
            line: Arc::from(format!("INSERT {}", wire(item))),
            expect: Expect::Prefix(Arc::from(format!("OK id={id} "))),
            arg: k,
        }
    }
}

/// `LinearScan` answers for every pool query over the served items and
/// all held-out items, split across two threads.
fn oracle_answers(workload: Workload, data: &Dataset, queries: &[Vec<f64>]) -> Vec<Vec<Neighbor>> {
    let mut all = data.items.clone();
    if workload == Workload::DynamicIngest {
        all.extend(data.held_out.iter().cloned());
    }
    let scan = LinearScan::new(all, Euclidean);
    let answer = |q: &Vec<f64>| match workload {
        Workload::UniformKnn => scan.knn(q, KNN_K),
        _ => {
            let mut v = scan.range(q, RANGE_RADIUS);
            v.sort_unstable();
            v
        }
    };
    let half = queries.len() / 2;
    std::thread::scope(|s| {
        let first = s.spawn(|| queries[..half].iter().map(answer).collect::<Vec<_>>());
        let mut second: Vec<Vec<Neighbor>> = queries[half..].iter().map(answer).collect();
        let mut out = first.join().expect("oracle thread panicked");
        out.append(&mut second);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_gives_the_same_stream() {
        let a = Plan::new(Workload::DynamicIngest, 7, 1);
        let b = Plan::new(Workload::DynamicIngest, 7, 1);
        let lines = |p: &Plan| {
            p.measured
                .iter()
                .map(|r| r.line.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&a), lines(&b));
        let c = Plan::new(Workload::DynamicIngest, 8, 1);
        assert_ne!(lines(&a), lines(&c));
    }

    #[test]
    fn ingest_alternates_reads_with_mostly_inserts() {
        let plan = Plan::new(Workload::DynamicIngest, 3, 2);
        let count = |op| plan.measured.iter().filter(|r| r.op == op).count();
        assert_eq!(count(OpKind::Read), plan.measured.len() / 2);
        let (ins, del) = (count(OpKind::Insert), count(OpKind::Delete));
        assert!(ins > 2 * del && del > 0, "{ins} inserts, {del} deletes");
    }

    #[test]
    fn deleted_ids_leave_later_read_answers() {
        let plan = Plan::new(Workload::DynamicIngest, 5, 2);
        let mut dead = std::collections::HashSet::new();
        for r in &plan.measured {
            match (r.op, &r.expect) {
                (OpKind::Delete, _) => {
                    dead.insert(r.arg);
                }
                (OpKind::Read, Expect::Exact(line)) => {
                    for id in &dead {
                        assert!(!line.contains(&format!(" {id}:")), "{line}");
                    }
                }
                _ => {}
            }
        }
        assert!(!dead.is_empty());
    }
}
