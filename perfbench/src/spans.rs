//! In-memory span recording and self-time attribution for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (and, for requests over the wire, rebuilt from the phase timings the
//! server returns). Nothing is written until [`SpanLog::write_jsonl`] runs
//! at the end of the benchmark.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval: a layer boundary crossed by one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one benchmark run, ids equal to their index.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(name, parent, request, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span; returns its result.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Write at most `limit` spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once, and only the part
/// inside the parent counts). Indexed like `spans`, whose ids must equal
/// their positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // request [0,100) with parse [10,20), simulate [20,70) and an encode
        // [60,80) overlapping simulate; simulate has a child [30,40).
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "parse", 10, 20),
            span(2, Some(0), "simulate", 20, 70),
            span(3, Some(0), "encode", 60, 80),
            span(4, Some(2), "mc", 30, 40),
        ];
        // Children of the request cover [10,80) = 70.
        assert_eq!(self_times(&spans), vec![30, 10, 40, 20, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, None, "request", 10, 50),
            span(1, Some(0), "late", 40, 90),
            span(2, Some(0), "early", 0, 15),
        ];
        // Covered: [10,15) + [40,50) = 15.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn self_time_totals_group_by_name() {
        let spans = vec![
            span(0, None, "request", 0, 10),
            span(1, Some(0), "parse", 0, 4),
            span(2, None, "request", 20, 30),
            span(3, Some(2), "parse", 20, 23),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], (13, 2));
        assert_eq!(by_name["parse"], (7, 2));
    }
}
