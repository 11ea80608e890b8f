//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the span that was open on the same thread when it started
//! (its parent), and the epoch or submission it belongs to. Spans stay in
//! memory while the workload runs and are written out as JSONL at the end.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    None,
    Epoch(u64),
    Seq(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub key: Key,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost span open on this thread.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; closing it records it and makes its parent current again.
#[must_use = "a span is recorded only when finished"]
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    key: Key,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the span open on this thread.
    pub fn start(&self, name: &'static str, key: Key) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        Open {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            key,
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let key = match s.key {
                Key::None => String::new(),
                Key::Epoch(e) => format!(",\"epoch\":{e}"),
                Key::Seq(q) => format!(",\"seq\":{q}"),
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}{key}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

impl Open<'_> {
    /// Records the span and returns its duration in seconds.
    pub fn finish(self) -> f64 {
        let end_ns = self.tracer.now_ns();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            key: self.key,
        };
        self.tracer
            .spans
            .lock()
            .expect("span store poisoned")
            .push(record);
        (end_ns - self.start_ns) as f64 / 1e9
    }
}

impl Drop for Open<'_> {
    /// A span dropped on an error path is not recorded, but its parent
    /// becomes current again either way.
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.parent));
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel work) or
/// stick out of the parent; only the union of their intervals clipped to
/// the parent is subtracted.
pub fn self_time_ns(parent: &SpanRecord, children: &[SpanRecord]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Total self time of every span named `name`.
pub fn total_self_time_ns(spans: &[SpanRecord], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|parent| {
            let children: Vec<SpanRecord> = spans
                .iter()
                .filter(|c| c.parent == Some(parent.id))
                .copied()
                .collect();
            self_time_ns(parent, &children)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            key: Key::None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, None, 0, 100);
        // [10,40) and [30,60) overlap: together they cover 50, not 60.
        // [90,120) sticks out of the parent: only 10 of it counts.
        let children = [
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_time_ns(&parent, &children), 100 - 50 - 10);
        // A child nested inside another adds nothing.
        let nested = [span(2, Some(1), 10, 60), span(3, Some(1), 20, 30)];
        assert_eq!(self_time_ns(&parent, &nested), 50);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn spans_nest_on_a_thread_and_find_their_parent() {
        let tracer = Tracer::new();
        let outer = tracer.start("outer", Key::Epoch(3));
        let inner = tracer.start("inner", Key::Epoch(3));
        inner.finish();
        let sibling = tracer.start("sibling", Key::Seq(9));
        sibling.finish();
        outer.finish();
        let after = tracer.start("after", Key::None);
        after.finish();
        let spans = tracer.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
        assert_eq!(by_name("after").parent, None);
        assert!(total_self_time_ns(&spans, "outer") <= outer.duration_ns());
    }
}
