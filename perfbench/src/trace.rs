//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span holds a name, start, end, the span that caused it and a request
//! id; the spans of one sampled update or query share the id. Spans on one
//! thread nest through a thread-local parent stack; spans that cross
//! threads (an update seen by a delta monitor) are recorded with an
//! explicit parent. Nothing is written until the run ends. A disabled
//! tracer reads no clock and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// Id of the causing span, or [`ROOT`].
    pub parent: u64,
    /// Request id shared by the spans of one update or query.
    pub req: u64,
    /// Layer-qualified name, e.g. `core.update`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static PARENTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span on this thread; it closes when the guard drops and
    /// becomes the parent of spans opened on this thread meanwhile.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            let parent = p.last().copied().unwrap_or(ROOT);
            p.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                req,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Record a finished span measured elsewhere (e.g. on another thread).
    pub fn record(&self, name: &'static str, req: u64, parent: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, s: Span) {
        self.spans.lock().expect("span list poisoned").push(s);
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
}

impl SpanGuard<'_> {
    /// The span's id ([`ROOT`] when tracing is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(ROOT, |o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            if let Some(i) = p.iter().rposition(|&x| x == o.id) {
                p.remove(i);
            }
        });
        let t = o.tracer;
        t.push(Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            start_ns: t.ns(o.start),
            end_ns: t.ns(end),
        });
    }
}

/// Per-name totals: count, wall and self time.
#[derive(Debug, Clone)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations, in microseconds.
    pub total_us: f64,
    /// Sum of self times (duration minus the part covered by children).
    pub self_us: f64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it, in microseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |c| {
                c.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in c.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                covered
            });
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e3)
        })
        .collect()
}

/// Totals per span name, sorted by self time, largest first.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let t = by.entry(s.name).or_insert(NameTotals {
            name: s.name,
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
        });
        t.count += 1;
        t.total_us += s.micros();
        t.self_us += selfs[&s.id];
    }
    let mut v: Vec<NameTotals> = by.into_values().collect();
    v.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.name.cmp(b.name)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: if parent == ROOT { "outer" } else { "inner" },
            start_ns: a * 1000,
            end_ns: b * 1000,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 µs; children 10..30, 20..40 (overlap) and 90..120
        // (clipped to 90..100): covered 30 + 10 = 40 µs.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60.0);
        assert_eq!(st[&2], 20.0);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0].name, "inner");
        assert_eq!(totals[0].count, 3);
        assert_eq!(totals[1].self_us, 60.0);
    }

    #[test]
    fn nested_guards_link_parent_and_share_request_ids() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 7);
            let _inner = t.span("inner", 7);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, ROOT);
        assert_eq!(inner.req, outer.req);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x", 1);
        assert_eq!(g.id(), ROOT);
        drop(g);
        t.record("y", 1, ROOT, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
