//! Benchmark-side tracing: spans around the calls into each layer, kept
//! in memory and written out when the run ends, plus a gated allocation
//! counter.
//!
//! A span records its name, start, end, parent span and the operation it
//! belongs to (one id per timed operation). A layer's self time is its
//! spans' durations minus the part their child spans cover. With tracing
//! off nothing is recorded and [`Tracer::span`] is a plain call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use warlock::json::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    next_op: u64,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            next_id: 1,
            next_op: 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh recording tracer on the same clock, for work whose spans
    /// are examined on their own before being absorbed.
    pub fn fork(&self) -> Tracer {
        Tracer::new(true, self.epoch)
    }

    /// Starts a new operation: spans opened until the next call share
    /// its id.
    pub fn begin_op(&mut self) {
        self.next_op += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            id,
            op: self.next_op,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        result
    }

    /// Moves another tracer's spans into this one,
    /// renumbering span and operation ids so they stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let id_base = self.next_id;
        let op_base = self.next_op;
        for mut span in other.spans {
            span.id += id_base;
            span.parent = span.parent.map(|p| p + id_base);
            span.op += op_base;
            self.spans.push(span);
        }
        self.next_id += other.next_id;
        self.next_op += other.next_op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(total self time in ms, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_insert(0) += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns)
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            let entry = out.entry(span.name).or_insert((0.0, 0));
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span, one JSON object per line, to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let line = Json::object([
                ("id", Json::Int(s.id as i64)),
                ("op", Json::Int(s.op as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::Str(s.name.to_owned())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        std::fs::write(path, text)
    }

    /// The self-time table as JSON, for the run's detail line.
    pub fn self_times_json(&self) -> Json {
        Json::object(self.self_times().into_iter().map(|(name, (ms, n))| {
            (
                name,
                Json::object([("self_ms", Json::Num(ms)), ("spans", Json::Int(n as i64))]),
            )
        }))
    }
}

/// A pass-through allocator that counts allocations and the peak of
/// live heap bytes, but only inside [`count_allocations`] —
/// untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let size = layout.size() as i64;
            let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

/// Counts what a closure allocates: `(result, allocations, peak bytes
/// live beyond the start)`. Frees of memory allocated before the window
/// lower the live count, so the peak is the net high-water growth.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        result,
        ALLOCATIONS.load(Ordering::Relaxed),
        PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = t.self_times();
        let (outer, _) = times["outer"];
        let (inner, _) = times["inner"];
        assert!(inner >= 2.0);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, Some(t.spans()[1].id));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
