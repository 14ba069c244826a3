//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans around the calls it makes into each
//! crate's public functions; nothing inside the crates is traced. A
//! span carries its name, start, end, parent and thread. Spans stay in
//! memory until the run ends, when [`take`] hands them to the caller
//! for the self-time table and the `spans.jsonl` artifact.
//!
//! Disabled (the untraced runs), [`span`] costs one relaxed load and
//! records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `span.dw`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// True when spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        };
        // a poisoned buffer only loses this span; Drop must not panic
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(record);
        }
    }
}

/// Opens a span named `name` under the thread's current span, or
/// returns `None` when recording is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    span_under(name, current())
}

/// Opens a span under `parent`, which may belong to another thread
/// (see [`current`]): worker spans nest under their spawner's span.
pub fn span_under(name: &'static str, parent: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Some(Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    })
}

/// The id of the innermost open span on this thread (0 when none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer poisoned by a panicking thread"),
    )
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it
    /// that its children cover, nanoseconds.
    pub self_ns: u64,
}

impl LayerTime {
    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Self time per span name. A child's interval is clipped to its
/// parent's, and overlapping children (worker threads running under
/// one parent) count once.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = by_id.get(&s.parent) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[SpanRecord], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, 0, "root", 0, 100),
            rec(2, 1, "child", 10, 40),
            // overlaps the first child (another thread): counted once
            rec(3, 1, "child", 30, 60),
            // sticks out past the parent: clipped
            rec(4, 1, "child", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 50 - 10);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].total_ns, 30 + 30 + 30);
        assert_eq!(t["child"].self_ns, 90);
    }
}
