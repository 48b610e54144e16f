//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! (name, start, end, parent span, run id). Spans stay in memory and are
//! written out once, when the run ends. A layer's *self time* is its
//! spans' durations minus the part of each interval its child spans
//! cover. A disabled tracer records nothing, so untraced runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Handle returned by [`Tracer::enter`], closed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), run: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id; spans opened from now on carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close innermost
    /// first; closing out of order is a bug in the benchmark.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        out
    }
}

/// Self time per span name, in nanoseconds, with the number of spans of
/// that name: each span's duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_within(kids, s.start_ns, s.end_ns);
        let entry = out.entry(s.name).or_default();
        entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        entry.1 += 1;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a.inner [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (100 - 30 - 40, 1));
        assert_eq!(t["a"], (30 - 10, 1));
        assert_eq!(t["a.inner"], (10, 1));
        assert_eq!(t["b"], (40, 1));
        // Self times partition the root interval exactly.
        assert_eq!(t.values().map(|v| v.0).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans =
            vec![span("p", 0, 50, None), span("c", 10, 30, Some(0)), span("c", 20, 60, Some(0))];
        let t = self_times(&spans);
        // Children cover [10, 50) within the parent: 40 ns.
        assert_eq!(t["p"], (10, 1));
        assert_eq!(t["c"], (20 + 40, 2));
    }

    #[test]
    fn tracer_links_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_run();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].run, 1);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        let o = off.enter("x");
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
