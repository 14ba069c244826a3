//! Structured telemetry for the fault-expansion workspace: spans,
//! counters, and log-scale histograms behind a near-zero-cost
//! disabled path.
//!
//! Every instrumentation site pays exactly **one relaxed atomic
//! load** when its target is disabled — no allocation, no clock
//! read, no lock. Targets are enabled per-subsystem through the
//! `FXNET_TRACE` environment variable (see [`set_filter`] for the
//! grammar) or programmatically in tests.
//!
//! Three primitives:
//!
//! - [`Span`]: a scoped RAII timer with parent linkage (a
//!   thread-local current-span register) and a stable thread id —
//!   enough to reconstruct the full call tree in a Chrome
//!   trace-event viewer.
//! - [`Counter`]: a `const`-constructible monotonically increasing
//!   `u64`, registered lazily on first increment.
//! - [`Histogram`]: 64 base-2 buckets plus count/sum/min/max, for
//!   hot-path value and latency distributions.
//!
//! Collected data is drained with [`take_snapshot`] and written by
//! the sinks: [`write_jsonl`] (one JSON record per line, via
//! `fx-json`) and [`write_chrome`] (a `chrome://tracing` /
//! Perfetto-loadable trace-event file).

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fx_json::Json;

/// Instrumented subsystems. Each has an independent level (0 = off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Target {
    /// Parallel maps (`fx_graph::par`): one `job` span per call that
    /// starts helper threads, and the `jobs`/`items` counters.
    Par = 0,
    /// Campaign orchestration (spec expansion, journal, aggregation).
    Campaign = 1,
    /// Per-cell execution phases (build / fault / algorithm).
    Cell = 2,
    /// Overlay network maintenance (zone splits/merges, churn).
    Overlay = 3,
    /// Percolation sweeps and Monte-Carlo trials.
    Percolation = 4,
    /// Fault-model sampling.
    Faults = 5,
    /// Chaos fault injection (`fx-chaos` sites firing).
    Chaos = 6,
    /// Offline dynamic connectivity (`fx_graph::dyncon` solves).
    Dyncon = 7,
    /// The content-addressed cell-result store (`fx-store`).
    Store = 8,
    /// Span estimation (`fx-span`): how each compact set was decided.
    Span = 9,
}

/// Number of distinct [`Target`]s.
pub const NUM_TARGETS: usize = 10;

impl Target {
    /// All targets, in discriminant order.
    pub const ALL: [Target; NUM_TARGETS] = [
        Target::Par,
        Target::Campaign,
        Target::Cell,
        Target::Overlay,
        Target::Percolation,
        Target::Faults,
        Target::Chaos,
        Target::Dyncon,
        Target::Store,
        Target::Span,
    ];

    /// The filter-grammar name of this target.
    pub fn as_str(self) -> &'static str {
        match self {
            Target::Par => "par",
            Target::Campaign => "campaign",
            Target::Cell => "cell",
            Target::Overlay => "overlay",
            Target::Percolation => "percolation",
            Target::Faults => "faults",
            Target::Chaos => "chaos",
            Target::Dyncon => "dyncon",
            Target::Store => "store",
            Target::Span => "span",
        }
    }

    fn from_name(name: &str) -> Option<Target> {
        Target::ALL.iter().copied().find(|t| t.as_str() == name)
    }
}

// `const` on purpose: it exists only as an array-initializer seed
// (each array slot gets its own AtomicU8).
#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU8 = AtomicU8::new(0);
#[allow(clippy::borrow_interior_mutable_const)]
static LEVELS: [AtomicU8; NUM_TARGETS] = [ATOMIC_ZERO; NUM_TARGETS];
static INITIALIZED: AtomicBool = AtomicBool::new(false);

/// The current level of `target` (0 = disabled). One relaxed load.
#[inline(always)]
pub fn level(target: Target) -> u8 {
    LEVELS[target as usize].load(Ordering::Relaxed)
}

/// True when `target` is enabled at any level. One relaxed load.
#[inline(always)]
pub fn enabled(target: Target) -> bool {
    level(target) != 0
}

fn apply_filter(spec: &str) {
    let mut levels = [0u8; NUM_TARGETS];
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, lvl) = match clause.split_once('=') {
            Some((n, l)) => (n.trim(), l.trim().parse::<u8>().unwrap_or(1)),
            None => (clause, 1),
        };
        match name {
            "all" | "*" => levels = [lvl; NUM_TARGETS],
            "off" | "none" => levels = [0; NUM_TARGETS],
            _ => {
                if let Some(t) = Target::from_name(name) {
                    levels[t as usize] = lvl;
                }
                // Unknown names are ignored: a filter must never
                // make the tool fail.
            }
        }
    }
    for (slot, lvl) in LEVELS.iter().zip(levels) {
        slot.store(lvl, Ordering::Relaxed);
    }
}

/// Sets the trace filter programmatically and marks tracing as
/// initialized (so a later [`init_from_env`] will not clobber it).
///
/// Grammar: a comma-separated list of clauses, each
/// `target[=level]`. A bare target means level 1 (spans and
/// counters); level ≥ 2 additionally enables fine-grained hot-path
/// histograms. `all` (or `*`) sets every target; `off` clears every
/// target; later clauses override earlier ones. Unknown target
/// names and malformed levels are ignored.
///
/// Examples: `all`, `all=2`, `par=2,cell`, `campaign,percolation=2`.
pub fn set_filter(spec: &str) {
    INITIALIZED.store(true, Ordering::SeqCst);
    apply_filter(spec);
}

/// Applies the `FXNET_TRACE` environment variable, once per process.
///
/// The first caller wins; subsequent calls (and calls after
/// [`set_filter`]) are no-ops, so library entry points can call this
/// unconditionally without overriding test configuration.
pub fn init_from_env() {
    if INITIALIZED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("FXNET_TRACE") {
        apply_filter(&spec);
    }
}

// ---------------------------------------------------------------------------
// Time base and thread identity
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// A small stable id for the calling thread (1, 2, … in first-use
/// order; independent of OS thread ids).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A finished span, as recorded in the global buffer.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Unique span id (process-wide, starts at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// The subsystem that opened the span.
    pub target: Target,
    /// Static span name (e.g. `"cell"`, `"phase.build"`).
    pub name: &'static str,
    /// Stable trace thread id (see [`thread_id`]).
    pub tid: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static SPAN_BUF: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static DROPPED_SPANS: AtomicU64 = AtomicU64::new(0);

/// Hard cap on buffered span events; beyond it spans are counted in
/// `Snapshot::dropped_spans` instead of stored (a run that leaks
/// spans must not exhaust memory).
pub const SPAN_CAP: usize = 1 << 20;

struct SpanInner {
    id: u64,
    parent: u64,
    target: Target,
    name: &'static str,
    tid: u64,
    start: Instant,
    start_ns: u64,
}

/// A scoped RAII timer. Created with [`Span::enter`]; records a
/// [`SpanEvent`] when dropped. When the target is disabled this is a
/// no-op carrying no data.
pub struct Span(Option<SpanInner>);

impl Span {
    /// Opens a span if `target` is enabled (one relaxed load
    /// otherwise). The span becomes the thread's current span until
    /// dropped; spans must be dropped in LIFO order per thread
    /// (guaranteed by normal scoping).
    #[inline]
    pub fn enter(target: Target, name: &'static str) -> Span {
        if !enabled(target) {
            return Span(None);
        }
        Span::enter_slow(target, name)
    }

    #[cold]
    fn enter_slow(target: Target, name: &'static str) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        let start = Instant::now();
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        Span(Some(SpanInner {
            id,
            parent,
            target,
            name,
            tid: thread_id(),
            start,
            start_ns,
        }))
    }

    /// This span's id (0 for a disabled no-op span).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        CURRENT_SPAN.with(|c| c.set(inner.parent));
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        let event = SpanEvent {
            id: inner.id,
            parent: inner.parent,
            target: inner.target,
            name: inner.name,
            tid: inner.tid,
            start_ns: inner.start_ns,
            dur_ns,
        };
        let mut buf = SPAN_BUF.lock().unwrap();
        if buf.len() < SPAN_CAP {
            buf.push(event);
        } else {
            DROPPED_SPANS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static HISTS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A monotonically increasing `u64`, `const`-constructible so call
/// sites can declare `static STEALS: Counter = Counter::new(…)`.
/// Registered in the global snapshot registry on first increment.
#[derive(Debug)]
pub struct Counter {
    target: Target,
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter for `target`, identified by `name`.
    pub const fn new(target: Target, name: &'static str) -> Counter {
        Counter {
            target,
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` when the target is enabled (one relaxed load
    /// otherwise).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled(self.target) {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one (see [`Counter::add`]).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    #[cold]
    fn register(&'static self) {
        let mut reg = COUNTERS.lock().unwrap();
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }
}

/// A lock-free log-scale histogram: 64 base-2 buckets (bucket `b`
/// holds values with `floor(log2(v)) + 1 == b`; zero lands in bucket
/// 0) plus exact count/sum/min/max. `const`-constructible like
/// [`Counter`].
#[derive(Debug)]
pub struct Histogram {
    target: Target,
    name: &'static str,
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram for `target`, identified by `name`.
    pub const fn new(target: Target, name: &'static str) -> Histogram {
        // array-initializer seed: each bucket gets its own atomic
        #[allow(clippy::declare_interior_mutable_const)]
        const B: AtomicU64 = AtomicU64::new(0);
        Histogram {
            target,
            name,
            buckets: [B; 64],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records `v` when the target is enabled (one relaxed load
    /// otherwise).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled(self.target) {
            return;
        }
        self.record_always(v);
    }

    /// Records `v` unconditionally — for call sites that already
    /// checked [`level`] (e.g. level ≥ 2 gates).
    pub fn record_always(&'static self, v: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        let b = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[b.min(63)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        let mut reg = HISTS.lock().unwrap();
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A counter's value at snapshot time.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// The counter's subsystem.
    pub target: Target,
    /// The counter's name.
    pub name: &'static str,
    /// Accumulated value since the previous snapshot.
    pub value: u64,
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// The histogram's subsystem.
    pub target: Target,
    /// The histogram's name.
    pub name: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty base-2 buckets as `(bucket_index, count)`; values
    /// in bucket `b > 0` satisfy `2^(b-1) <= v < 2^b`.
    pub buckets: Vec<(u8, u64)>,
}

/// Everything collected since the previous [`take_snapshot`] call.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Finished spans, in completion order.
    pub spans: Vec<SpanEvent>,
    /// Non-zero counters.
    pub counters: Vec<CounterSnapshot>,
    /// Non-empty histograms.
    pub hists: Vec<HistSnapshot>,
    /// Spans discarded because the buffer hit [`SPAN_CAP`].
    pub dropped_spans: u64,
}

/// Drains all collected telemetry and resets counters and
/// histograms to zero. Concurrent recording is safe but racing
/// increments may land in either snapshot.
pub fn take_snapshot() -> Snapshot {
    let spans = std::mem::take(&mut *SPAN_BUF.lock().unwrap());
    let dropped_spans = DROPPED_SPANS.swap(0, Ordering::Relaxed);
    let mut counters = Vec::new();
    for c in COUNTERS.lock().unwrap().iter() {
        let value = c.value.swap(0, Ordering::Relaxed);
        if value != 0 {
            counters.push(CounterSnapshot {
                target: c.target,
                name: c.name,
                value,
            });
        }
    }
    let mut hists = Vec::new();
    for h in HISTS.lock().unwrap().iter() {
        let count = h.count.swap(0, Ordering::Relaxed);
        let sum = h.sum.swap(0, Ordering::Relaxed);
        let min = h.min.swap(u64::MAX, Ordering::Relaxed);
        let max = h.max.swap(0, Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in h.buckets.iter().enumerate() {
            let n = b.swap(0, Ordering::Relaxed);
            if n != 0 {
                buckets.push((i as u8, n));
            }
        }
        if count != 0 {
            hists.push(HistSnapshot {
                target: h.target,
                name: h.name,
                count,
                sum,
                min: if min == u64::MAX { 0 } else { min },
                max,
                buckets,
            });
        }
    }
    counters.sort_by_key(|c| (c.target as usize, c.name));
    hists.sort_by_key(|h| (h.target as usize, h.name));
    Snapshot {
        spans,
        counters,
        hists,
        dropped_spans,
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn span_record(e: &SpanEvent) -> Json {
    obj(vec![
        ("type", Json::Str("span".into())),
        ("id", Json::UInt(e.id)),
        ("parent", Json::UInt(e.parent)),
        ("target", Json::Str(e.target.as_str().into())),
        ("name", Json::Str(e.name.into())),
        ("tid", Json::UInt(e.tid)),
        ("start_ns", Json::UInt(e.start_ns)),
        ("dur_ns", Json::UInt(e.dur_ns)),
    ])
}

/// Writes a snapshot as JSON Lines: one record per span, counter,
/// and histogram, each with a `type` discriminator, preceded by a
/// `meta` record carrying the dropped-span count.
pub fn write_jsonl<W: Write>(snapshot: &Snapshot, out: &mut W) -> std::io::Result<()> {
    let meta = obj(vec![
        ("type", Json::Str("meta".into())),
        ("format", Json::Str("fx-trace/1".into())),
        ("dropped_spans", Json::UInt(snapshot.dropped_spans)),
        ("spans", Json::UInt(snapshot.spans.len() as u64)),
    ]);
    writeln!(out, "{}", fx_json::to_string(&meta))?;
    for e in &snapshot.spans {
        writeln!(out, "{}", fx_json::to_string(&span_record(e)))?;
    }
    for c in &snapshot.counters {
        let rec = obj(vec![
            ("type", Json::Str("counter".into())),
            ("target", Json::Str(c.target.as_str().into())),
            ("name", Json::Str(c.name.into())),
            ("value", Json::UInt(c.value)),
        ]);
        writeln!(out, "{}", fx_json::to_string(&rec))?;
    }
    for h in &snapshot.hists {
        let buckets = Json::Arr(
            h.buckets
                .iter()
                .map(|&(b, n)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(n)]))
                .collect(),
        );
        let rec = obj(vec![
            ("type", Json::Str("hist".into())),
            ("target", Json::Str(h.target.as_str().into())),
            ("name", Json::Str(h.name.into())),
            ("count", Json::UInt(h.count)),
            ("sum", Json::UInt(h.sum)),
            ("min", Json::UInt(h.min)),
            ("max", Json::UInt(h.max)),
            ("buckets", buckets),
        ]);
        writeln!(out, "{}", fx_json::to_string(&rec))?;
    }
    Ok(())
}

/// Writes a snapshot in the Chrome trace-event format (complete
/// events, `ph: "X"`, microsecond timestamps) loadable by
/// `chrome://tracing` and Perfetto. Counters are emitted as final
/// counter (`ph: "C"`) samples.
pub fn write_chrome<W: Write>(snapshot: &Snapshot, out: &mut W) -> std::io::Result<()> {
    let mut events: Vec<Json> = Vec::with_capacity(snapshot.spans.len() + 1);
    for e in &snapshot.spans {
        events.push(obj(vec![
            ("name", Json::Str(e.name.into())),
            ("cat", Json::Str(e.target.as_str().into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(e.start_ns as f64 / 1000.0)),
            ("dur", Json::Num(e.dur_ns as f64 / 1000.0)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(e.tid)),
            (
                "args",
                obj(vec![
                    ("id", Json::UInt(e.id)),
                    ("parent", Json::UInt(e.parent)),
                ]),
            ),
        ]));
    }
    let end_ts = snapshot
        .spans
        .iter()
        .map(|e| e.start_ns + e.dur_ns)
        .max()
        .unwrap_or(0) as f64
        / 1000.0;
    for c in &snapshot.counters {
        events.push(obj(vec![
            (
                "name",
                Json::Str(format!("{}/{}", c.target.as_str(), c.name)),
            ),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Num(end_ts)),
            ("pid", Json::UInt(1)),
            ("args", obj(vec![("value", Json::UInt(c.value))])),
        ]));
    }
    let doc = obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ]);
    write!(out, "{}", fx_json::to_string(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests that touch it serialize
    // on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn reset() {
        apply_filter("off");
        take_snapshot();
    }

    #[test]
    fn filter_grammar() {
        let _g = TEST_LOCK.lock().unwrap();
        set_filter("all");
        for t in Target::ALL {
            assert_eq!(level(t), 1, "{t:?}");
        }
        set_filter("all=2,par=0");
        assert_eq!(level(Target::Par), 0);
        assert_eq!(level(Target::Cell), 2);
        set_filter("par=2, cell");
        assert_eq!(level(Target::Par), 2);
        assert_eq!(level(Target::Cell), 1);
        assert!(!enabled(Target::Overlay));
        set_filter("bogus,par=xyz");
        assert_eq!(level(Target::Par), 1, "malformed level defaults to 1");
        assert!(!enabled(Target::Cell));
        set_filter("off");
        assert!(Target::ALL.iter().all(|&t| !enabled(t)));
        reset();
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_filter("cell");
        {
            let outer = Span::enter(Target::Cell, "outer");
            assert_ne!(outer.id(), 0);
            {
                let _inner = Span::enter(Target::Cell, "inner");
            }
            let _disabled = Span::enter(Target::Par, "nope");
        }
        let snap = take_snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.tid, outer.tid);
        assert!(outer.dur_ns >= inner.dur_ns);
        reset();
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        let s = Span::enter(Target::Percolation, "off");
        assert_eq!(s.id(), 0);
        drop(s);
        assert!(take_snapshot().spans.is_empty());
    }

    #[test]
    fn counters_and_histograms() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        static STEALS: Counter = Counter::new(Target::Par, "steals");
        static LAT: Histogram = Histogram::new(Target::Par, "latency");
        STEALS.add(5); // disabled: dropped
        set_filter("par=2");
        STEALS.add(3);
        STEALS.incr();
        LAT.record(0);
        LAT.record(1);
        LAT.record(7);
        LAT.record(1024);
        let snap = take_snapshot();
        let c = snap.counters.iter().find(|c| c.name == "steals").unwrap();
        assert_eq!(c.value, 4);
        let h = snap.hists.iter().find(|h| h.name == "latency").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1032);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 → bucket 0, 1 → bucket 1, 7 → bucket 3, 1024 → bucket 11
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 1), (11, 1)]);
        // snapshot resets state
        let again = take_snapshot();
        assert!(again.counters.is_empty() && again.hists.is_empty());
        reset();
    }

    #[test]
    fn sinks_emit_valid_json() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_filter("overlay=2");
        static OPS: Counter = Counter::new(Target::Overlay, "ops");
        static SIZES: Histogram = Histogram::new(Target::Overlay, "sizes");
        {
            let _s = Span::enter(Target::Overlay, "churn");
            OPS.add(2);
            SIZES.record(17);
        }
        let snap = take_snapshot();
        let mut jsonl = Vec::new();
        write_jsonl(&snap, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 4, "meta + span + counter + hist");
        for line in &lines {
            let v = Json::parse(line).expect("each line parses");
            assert!(v.get("type").is_some());
        }
        assert_eq!(
            Json::parse(lines[0])
                .unwrap()
                .get("spans")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let mut chrome = Vec::new();
        write_chrome(&snap, &mut chrome).unwrap();
        let doc = Json::parse(&String::from_utf8(chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2, "one span + one counter sample");
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert!(events[0].get("dur").unwrap().as_f64().unwrap() >= 0.0);
        reset();
    }
}
