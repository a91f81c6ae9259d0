//! Spans recorded by the traced pass around the benchmark's own calls
//! into each layer. They stay in memory and are written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: a layer boundary crossed by one request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one request.
    pub request: u64,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (distances, nodes, bytes).
    pub count: u64,
}

/// An append-only span log with one time origin.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            count,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with an end equal to its start, once its
    /// children are recorded.
    pub fn finish(&mut self, index: usize, end_ns: u64, count: u64) {
        let span = &mut self.spans[index];
        span.end_ns = end_ns.max(span.start_ns);
        span.count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self times per span name, over spans accepted by `keep`.
    pub fn self_times_by_name(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if keep(s) {
                out.entry(s.name).or_default().push(own as f64);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"id":{i},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{},"count":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut log = SpanLog::new();
        let root = log.push("request", 1, None, 0, 100, 0);
        log.push("search", 1, Some(root), 10, 60, 0);
        // Overlaps the first child by 10 ns; that part is not subtracted twice.
        let kernel = log.push("encode", 1, Some(root), 50, 70, 0);
        log.push("inner", 1, Some(kernel), 55, 65, 0);
        assert_eq!(log.self_times(), vec![40, 50, 10, 10]);
        let by_name = log.self_times_by_name(|s| s.request == 1);
        assert_eq!(by_name["request"], vec![40.0]);
    }
}
