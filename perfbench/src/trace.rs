//! In-memory span recorder. Spans are opened and closed by the benchmark
//! around each public library call, kept in memory, and written out when
//! the run ends. A layer's self time is the time its spans cover minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// `layer.operation`, e.g. `core.bfs`.
    pub name: &'static str,
    /// The key or query the span works for; spans of one key share it.
    pub trace_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Token for an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// One rank's recorder. When disabled, `open` and `close` do nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { enabled: false, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside an open span");
        self.enabled = on;
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, trace_id: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.stack.last().copied();
        self.spans.push(Span { id, parent, name, trace_id, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Some(id)
    }

    /// Close the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open) {
        let Some(id) = open else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans read while one is open");
        self.spans
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it that its children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.get_mut(&s.id).map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        *out.entry(layer(s.name).to_string()).or_default() += dur - kids.min(dur);
    }
    out
}

/// The spans of every rank as one JSON document.
pub fn to_json(per_rank: &[Vec<Span>]) -> Json {
    let mut rows = Vec::new();
    for (rank, spans) in per_rank.iter().enumerate() {
        for s in spans {
            rows.push(Json::obj([
                ("rank", Json::Num(rank as f64)),
                ("id", Json::Num(f64::from(s.id))),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                ("name", Json::Str(s.name.to_string())),
                ("trace_id", Json::Num(s.trace_id as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]));
        }
    }
    Json::obj([("spans", Json::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, trace_id: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, "bench.run", 0, 100),
            // two overlapping children cover [10, 40) and one sits at [60, 70)
            span(1, Some(0), "core.bfs", 10, 30),
            span(2, Some(0), "core.validate", 20, 40),
            span(3, Some(0), "comm.all_reduce", 60, 70),
            // a grandchild counts against its parent only
            span(4, Some(1), "comm.all_reduce", 12, 15),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 100 - 30 - 10);
        // core.bfs 20 - 3, core.validate 20
        assert_eq!(t["core"], 17 + 20);
        assert_eq!(t["comm"], 10 + 3);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span(0, None, "a.x", 10, 20), span(1, Some(0), "b.y", 5, 15)];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["a"], 5);
        assert_eq!(t["b"], 10);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut tr = Tracer::new(Instant::now());
        assert_eq!(tr.open("core.bfs", 1), None);
        tr.close(None);
        tr.set_enabled(true);
        let root = tr.open("bench.run", 0);
        let child = tr.open("core.bfs", 7);
        let grandchild = tr.open("comm.all_reduce", 7);
        tr.close(grandchild);
        tr.close(child);
        let sibling = tr.open("core.validate", 7);
        tr.close(sibling);
        tr.close(root);
        let spans = &tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[1].trace_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // properly nested spans: self times partition the root
        let total: u64 = self_time_by_layer(spans).values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(layer("admission.start_batch"), "admission");
    }
}
