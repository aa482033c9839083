//! In-memory spans recorded around the harness's calls into a layer.
//!
//! A traced run re-drives a workload step by step so that every span sits
//! on a layer boundary. Spans are kept in memory and written out once the
//! run is over; nothing is recorded during untraced (end-to-end) runs.

use crate::host;
use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `netsim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation (one sweep row,
    /// one fuzz scenario, one canonical run, one figure).
    pub op: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children never overlap one another (spans are opened
/// and closed in stack order on one thread), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Fold spans into per-name totals.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Total milliseconds per span name, divided by `passes`.
pub fn ms_by_name(spans: &[Span], passes: usize) -> BTreeMap<&'static str, f64> {
    layer_totals(spans)
        .into_iter()
        .map(|(name, t)| (name, t.total_ns as f64 / 1e6 / passes.max(1) as f64))
        .collect()
}

/// Records spans for one traced run.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { t0: host::host_now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl SpanLog {
    /// Start the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Continue (or start) the operation with this id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// An empty log on the same time base, for a worker thread. Its spans
    /// join this log through [`SpanLog::adopt`].
    pub fn fork(&self) -> SpanLog {
        SpanLog { t0: self.t0, spans: Vec::new(), open: Vec::new(), op: self.op }
    }

    /// Append a forked log's spans. Its root spans become children of
    /// `parent`; links inside it are re-based.
    pub fn adopt(&mut self, child: SpanLog, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Open a span under whichever span is currently open.
    pub fn open_span(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: host::nanos_since(self.t0),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn close_span(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the reverse of the order they opened");
        self.spans[id].end_ns = host::nanos_since(self.t0);
    }

    /// Time one call into a layer.
    pub fn timed<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.open_span(name);
        let out = call();
        self.close_span(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file body: per-layer table plus the first `keep` raw
    /// spans (a cached sweep re-run produces millions; the totals cover
    /// all of them).
    pub fn trace_document(&self, keep: usize) -> Json {
        let layers = layer_totals(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        let raw = self
            .spans
            .iter()
            .take(keep)
            .map(|s| {
                obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("span_count", Json::Num(self.spans.len() as f64)),
            ("layers", Json::Arr(layers)),
            ("spans", Json::Arr(raw)),
        ])
    }
}

/// Call into a layer, under a span when a log is present. Untraced runs
/// pass `None` and pay nothing: no clock read, no allocation.
pub fn timed<T>(log: &mut Option<&mut SpanLog>, name: &'static str, call: impl FnOnce() -> T) -> T {
    match log {
        Some(l) => l.timed(name, call),
        None => call(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // row [0,100] ── sim [10,70] ── cca [20,30]
        //             └─ write [80,95]
        let spans = vec![
            span("row", 0, 100, None),
            span("sim", 10, 70, Some(0)),
            span("cca", 20, 30, Some(1)),
            span("write", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 10, 10, 15]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["row"], LayerTotal { count: 1, total_ns: 100, self_ns: 25 });
        assert_eq!(totals["sim"].self_ns, 50);
        // Self times partition the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn sibling_spans_of_one_name_accumulate() {
        let spans = vec![
            span("op", 0, 50, None),
            span("step", 0, 10, Some(0)),
            span("step", 10, 30, Some(0)),
            span("op", 50, 60, None),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["step"], LayerTotal { count: 2, total_ns: 30, self_ns: 30 });
        assert_eq!(totals["op"], LayerTotal { count: 2, total_ns: 60, self_ns: 30 });
    }

    #[test]
    fn recorder_links_parents_and_operations() {
        let mut log = SpanLog::default();
        let op = log.next_op();
        let outer = log.open_span("outer");
        let v = log.timed("inner", || 7);
        log.close_span(outer);
        assert_eq!(v, 7);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.op == op && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut worker = log.fork();
        worker.begin_op(9);
        worker.timed("w.outer", || ());
        let adopted_under = log.open_span("pool");
        log.close_span(adopted_under);
        log.adopt(worker, Some(adopted_under));
        let last = log.spans().last().expect("adopted span");
        assert_eq!((last.name, last.parent, last.op), ("w.outer", Some(adopted_under), 9));
        let spans = log.spans();

        let file = log.trace_document(1);
        assert_eq!(file.member("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(file.member("span_count").and_then(Json::as_f64), Some(spans.len() as f64));
    }
}
