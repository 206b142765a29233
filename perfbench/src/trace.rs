//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written out once the run ends. With tracing off, [`Tracer::span`]
//! only calls its closure: no clock reads, no allocation.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`SpanId::ROOT`] means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One recorded call. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Codec variant the call ran, or `""`.
    pub tag: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was made (the span time base).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        self.span_named(tag, parent, request, |id| (f(id), name))
    }

    /// Like [`Tracer::span`], but the closure names the span once it knows
    /// the outcome (a region read is a hit or a miss only afterwards).
    pub fn span_named<T>(
        &self,
        tag: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> (T, &'static str),
    ) -> T {
        if !self.on {
            return f(SpanId::ROOT).0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (value, name) = f(SpanId(id));
        let end_ns = self.now_ns();
        let span = Span { id, parent: parent.0, name, tag, request, start_ns, end_ns };
        self.spans.lock().expect("a span recorder panicked").push(span);
        value
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Write the spans as JSON lines.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.lock().expect("a span recorder panicked").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.tag, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length covered by the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (children on parallel threads may overlap
/// each other; covered time counts once).
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let covered =
                children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (k, s.duration_ns() - covered)
        })
        .collect()
}

/// Summed self time in seconds per `(name, tag)`.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (k, ns) in self_times(spans) {
        *out.entry((spans[k].name, spans[k].tag)).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Share of `[lo, hi)` that no span covers.
pub fn unattributed_share(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let mut all: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    1.0 - covered_ns(&mut all, lo, hi) as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, tag: "", request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_and_counts_overlap_once() {
        let spans = vec![
            span(1, 0, "outer", 0, 100),
            // Two children on parallel threads overlapping on [30, 40).
            span(2, 1, "child", 10, 40),
            span(3, 1, "child", 30, 60),
            span(4, 3, "grandchild", 35, 45),
        ];
        let own: Vec<u64> = self_times(&spans).into_iter().map(|(_, ns)| ns).collect();
        // outer: 100 - |[10, 60)| = 50; grandchildren are not subtracted
        // from the outer span, only from their own parent.
        assert_eq!(own, vec![50, 30, 20, 10]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name[&("child", "")] - 50e-9).abs() < 1e-18);
    }

    #[test]
    fn child_time_outside_the_parent_is_not_subtracted() {
        let spans = vec![span(1, 0, "outer", 10, 20), span(2, 1, "child", 0, 15)];
        assert_eq!(self_times(&spans)[0].1, 5);
    }

    #[test]
    fn unattributed_share_is_the_uncovered_part_of_the_window() {
        let spans = vec![span(1, 0, "a", 0, 25), span(2, 0, "b", 20, 50), span(3, 0, "c", 90, 120)];
        assert!((unattributed_share(&spans, 0, 100) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x", "", SpanId::ROOT, 0, |id| {
            assert_eq!(id, SpanId::ROOT);
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        on.span("outer", "", SpanId::ROOT, 3, |id| on.span("inner", "t", id, 3, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].tag, "t");
    }
}
