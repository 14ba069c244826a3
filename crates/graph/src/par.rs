//! Persistent deterministic work-stealing executor.
//!
//! The Monte-Carlo experiments (percolation sweeps, span sampling,
//! prune success rates) and the campaign engine are embarrassingly
//! parallel over independent work items. Earlier revisions spawned
//! scoped threads per call; this module keeps a **persistent** pool of
//! workers (started lazily on first parallel call, sized by
//! [`default_threads`] / the largest request seen, parked on a condvar
//! when idle) so the fine-grained Monte-Carlo paths pay no spawn cost
//! per batch.
//!
//! Semantics are unchanged and deterministic: item `i` is always
//! computed from the same inputs regardless of thread count or pool
//! age, and [`par_map`] returns results in index order, so seeded
//! experiments are reproducible on any machine and a reused pool can
//! never perturb seed derivation (the `parallel_scaling` ablation
//! bench measures the harness itself).
//!
//! Work distribution is dynamic (an atomic cursor over the index
//! space) so stragglers — e.g. percolation trials near criticality —
//! don't serialize the batch. Jobs may borrow the caller's stack: the
//! submitting thread participates in its own job and does not return
//! until every item has completed, which is what makes handing
//! borrowed closures to `'static` workers sound (the same reasoning as
//! scoped threads, enforced by a completion latch).
//!
//! Cooperative cancellation lives in [`CancelToken`] (explicit flag
//! and/or deadline): long-running kernels (exact span enumeration,
//! critical-probability searches) poll it, which is how fx-campaign
//! implements per-cell `timeout_ms` without blocking a worker forever.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fx_trace::{Counter, Histogram, Span, Target};

// Executor telemetry (`FXNET_TRACE=par` / `par=2`). Each site costs
// one relaxed atomic load while tracing is disabled.
static TRACE_JOBS: Counter = Counter::new(Target::Par, "jobs");
static TRACE_CHUNKS: Counter = Counter::new(Target::Par, "chunks");
static TRACE_ITEMS: Counter = Counter::new(Target::Par, "items");
static TRACE_WORKER_JOINS: Counter = Counter::new(Target::Par, "worker_joins");
static TRACE_QUEUE_DEPTH: Histogram = Histogram::new(Target::Par, "queue_depth");
static TRACE_PARK_NS: Histogram = Histogram::new(Target::Par, "park_ns");

/// The `slow` chaos site: with `FXNET_CHAOS=slow:p[,ms]` a claimed
/// chunk is delayed by the configured latency before it executes —
/// straggler injection that perturbs the steal schedule without
/// touching any result (the determinism contract makes schedules
/// result-invariant, which is exactly what chaos runs verify). Off
/// path: one relaxed atomic load.
#[inline]
fn chaos_slow(chunk_start: usize) {
    if fx_chaos::enabled(fx_chaos::Site::Slow)
        && fx_chaos::should_fire(fx_chaos::Site::Slow, chunk_start as u64, 0)
    {
        std::thread::sleep(Duration::from_millis(fx_chaos::slow_ms()));
    }
}

/// Default worker count: `FXNET_THREADS` when set (≥ 1), otherwise
/// available parallelism capped at 16.
///
/// The cap keeps default runs polite on large shared machines; set
/// `FXNET_THREADS` (or pass `--threads` to `fxnet`) to use more — or
/// fewer — workers.
pub fn default_threads() -> usize {
    threads_from(std::env::var("FXNET_THREADS").ok().as_deref())
}

/// Resolves a requested thread count: `0` means "use the default"
/// ([`default_threads`], i.e. `FXNET_THREADS` / available cores).
///
/// This is the single funnel every consumer (CLI `--threads`, campaign
/// `RunOptions::threads`, `MonteCarlo::threads`, analyzer configs)
/// routes through, so one resolved setting governs the whole run
/// instead of each call site re-deriving its own.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// [`default_threads`] with the env value passed explicitly (pure, so
/// tests never have to mutate process-global environment state).
fn threads_from(env_override: Option<&str>) -> usize {
    if let Some(raw) = env_override {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        // Fall through on unparsable/zero values rather than panic:
        // a bad env var should not kill long experiment runs.
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(16)
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cooperative cancellation token: an explicit flag plus an optional
/// deadline.
///
/// Cheap to clone (shared state behind an `Arc`) and cheap to poll.
/// Long-running kernels (exact span enumeration, percolation
/// searches) poll it inside their own loops. Once observed cancelled
/// it stays cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Set when a poll *returned* cancelled — i.e. some cancellation
    /// point actually reacted (and truncated work).
    observed: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is
    /// called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that auto-cancels `timeout` from now (and can still be
    /// cancelled explicitly before that).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                observed: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancelled (explicitly or past the deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            self.inner.observed.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                // latch, so later polls skip the clock read
                self.inner.cancelled.store(true, Ordering::Relaxed);
                self.inner.observed.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// True when some cancellation point *observed* the fired token —
    /// i.e. work was actually truncated, as opposed to the deadline
    /// merely elapsing after everything completed. This is what
    /// distinguishes "timed out" from "complete but slow".
    pub fn was_observed(&self) -> bool {
        self.inner.observed.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// The persistent executor
// ---------------------------------------------------------------------

/// Hard ceiling on spawned workers (a guard against absurd `--threads`
/// values; the pool never shrinks, so this bounds its footprint).
const MAX_WORKERS: usize = 256;

/// Scheduling state of one in-flight job, shared between the
/// submitting thread and any helping workers. Deliberately untyped:
/// everything a worker touches *after* its last claimed item lives
/// here (inside an `Arc`), never in the caller's stack frame.
struct JobSlot {
    id: u64,
    len: usize,
    batch: usize,
    /// Next unclaimed index.
    cursor: AtomicUsize,
    /// Items not yet accounted for, **plus one participation token
    /// per thread currently inside the job** (the submitter holds one
    /// from construction; helpers acquire one via [`JobSlot::join`]).
    /// The submitter returns only when this reaches 0, so no
    /// participant can still be touching the caller's stack — not the
    /// typed harness behind `data`, and not a worker-local state
    /// mid-drop — after `run_job` returns.
    pending: AtomicUsize,
    /// Helper participations still available.
    slots: AtomicUsize,
    /// The typed harness on the submitter's stack.
    data: *const (),
    /// Type-erased steal loop for `data`.
    participate: unsafe fn(*const (), &JobSlot),
    done_mutex: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// Safety: `data` is only dereferenced by participants holding a
// `pending` token (see `JobSlot::pending`); the submitting thread,
// which owns the pointee, blocks until `pending == 0`.
unsafe impl Send for JobSlot {}
unsafe impl Sync for JobSlot {}

impl JobSlot {
    /// Acquires a participation token: increments `pending` iff it is
    /// still non-zero. A `false` return means the job is (or may be
    /// about to be) fully accounted — the submitter could already be
    /// returning, so the caller must not touch `data` at all.
    fn join(&self) -> bool {
        let mut p = self.pending.load(Ordering::Acquire);
        while p > 0 {
            match self
                .pending
                .compare_exchange_weak(p, p + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => p = actual,
            }
        }
        false
    }

    /// Accounts for `k` items (completed or drained) or a released
    /// participation token. Signals the submitter when the job is
    /// fully accounted.
    fn complete(&self, k: usize) {
        if self.pending.fetch_sub(k, Ordering::AcqRel) == k {
            let _guard = self.done_mutex.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every item is accounted for.
    fn wait_done(&self) {
        let mut guard = self.done_mutex.lock().unwrap();
        while self.pending.load(Ordering::Acquire) > 0 {
            guard = self.done_cv.wait(guard).unwrap();
        }
    }

    /// Stops handing out work (panic propagation): jumps the cursor to
    /// the end and accounts for the skipped tail.
    fn drain(&self) {
        let prev = self.cursor.swap(self.len, Ordering::Relaxed).min(self.len);
        if prev < self.len {
            self.complete(self.len - prev);
        }
    }

    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A chunked parallel job: per-participant local state plus a chunk
/// body. The executor guarantees every index in `0..len` is passed to
/// exactly one `chunk` call (in exactly one contiguous range).
trait ParJob: Sync {
    /// Per-participant state, created once per participating thread
    /// and reused across its chunks (scratch arenas live here).
    type Local;
    /// Creates a participant's local state.
    fn make_local(&self) -> Self::Local;
    /// Processes indices `start..end`.
    fn chunk(&self, local: &mut Self::Local, start: usize, end: usize);
}

/// The steal loop, shared by the submitting thread and helpers.
///
/// Safety contract: the caller must hold a `pending` participation
/// token (the submitter's built-in one, or one acquired via
/// [`JobSlot::join`]) for the whole call — that token is what keeps
/// `data` (and anything the per-participant local state borrows)
/// alive until this function has returned *and dropped the local
/// state*. The token is released by the caller afterwards.
unsafe fn participate_erased<H: ParJob>(data: *const (), slot: &JobSlot) {
    let job = &*(data as *const H);
    let mut local: Option<H::Local> = None;
    loop {
        let start = slot.cursor.fetch_add(slot.batch, Ordering::Relaxed);
        if start >= slot.len {
            return;
        }
        TRACE_CHUNKS.incr();
        chaos_slow(start);
        let end = (start + slot.batch).min(slot.len);
        // make_local runs inside the catch too: a panicking init must
        // still account for the claimed chunk (no deadlock) and must
        // not kill a pool worker
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let local = local.get_or_insert_with(|| job.make_local());
            job.chunk(local, start, end)
        }));
        if let Err(payload) = outcome {
            slot.store_panic(payload);
            slot.drain();
        }
        TRACE_ITEMS.add((end - start) as u64);
        slot.complete(end - start);
    }
}

struct ExecState {
    queue: Vec<Arc<JobSlot>>,
    workers: usize,
    next_job_id: u64,
}

/// The process-wide persistent pool.
struct Executor {
    state: Mutex<ExecState>,
    work_available: Condvar,
}

impl Executor {
    fn global() -> &'static Executor {
        static EXECUTOR: OnceLock<Executor> = OnceLock::new();
        EXECUTOR.get_or_init(|| Executor {
            state: Mutex::new(ExecState {
                queue: Vec::new(),
                workers: 0,
                next_job_id: 0,
            }),
            work_available: Condvar::new(),
        })
    }

    /// Queues a job wanting `helpers` helping workers, lazily growing
    /// the worker set up to that demand (never shrinking — workers
    /// park on the condvar when idle).
    fn submit(&self, slot: Arc<JobSlot>, helpers: usize) {
        let mut state = self.state.lock().unwrap();
        let target = helpers.min(MAX_WORKERS);
        while state.workers < target {
            let name = format!("fxnet-worker-{}", state.workers);
            std::thread::Builder::new()
                .name(name)
                .spawn(|| Executor::global().worker_loop())
                .expect("spawning pool worker");
            state.workers += 1;
        }
        state.queue.push(slot);
        TRACE_JOBS.incr();
        TRACE_QUEUE_DEPTH.record(state.queue.len() as u64);
        drop(state);
        self.work_available.notify_all();
    }

    fn next_id(&self) -> u64 {
        let mut state = self.state.lock().unwrap();
        state.next_job_id += 1;
        state.next_job_id
    }

    /// Removes a finished job from the queue.
    fn retire(&self, id: u64) {
        let mut state = self.state.lock().unwrap();
        state.queue.retain(|j| j.id != id);
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().unwrap();
                loop {
                    // prune exhausted jobs while holding the lock
                    state
                        .queue
                        .retain(|j| j.cursor.load(Ordering::Relaxed) < j.len);
                    if let Some(job) = claim_slot(&state.queue) {
                        break job;
                    }
                    if fx_trace::enabled(Target::Par) {
                        let t0 = Instant::now();
                        state = self.work_available.wait(state).unwrap();
                        TRACE_PARK_NS.record(t0.elapsed().as_nanos() as u64);
                    } else {
                        state = self.work_available.wait(state).unwrap();
                    }
                }
            };
            TRACE_WORKER_JOINS.incr();
            let busy = Span::enter(Target::Par, "worker_participate");
            // Safety: claim_slot acquired a participation token for
            // this worker, so the submitter cannot return — and `data`
            // cannot dangle — until the token is released below, after
            // the participation (and its local state's drop) finished.
            unsafe { (job.participate)(job.data, &job) };
            drop(busy);
            job.complete(1); // release the participation token
        }
    }
}

/// Picks the first queued job with work and a free helper slot, and
/// acquires a participation token on it (the returned job is safe to
/// participate in; the caller must `complete(1)` when done).
fn claim_slot(queue: &[Arc<JobSlot>]) -> Option<Arc<JobSlot>> {
    for job in queue {
        if job.cursor.load(Ordering::Relaxed) >= job.len {
            continue;
        }
        let mut slots = job.slots.load(Ordering::Relaxed);
        while slots > 0 {
            match job.slots.compare_exchange_weak(
                slots,
                slots - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // the helper slot is ours; joining can still fail
                    // if the job got fully accounted in the meantime —
                    // then the job must not be touched at all
                    if job.join() {
                        return Some(job.clone());
                    }
                    break;
                }
                Err(actual) => slots = actual,
            }
        }
    }
    None
}

/// Runs `job` over `0..len` with up to `threads` participants (the
/// calling thread plus helpers from the persistent pool). Blocks until
/// every item is accounted for; propagates the first panic.
fn run_job<H: ParJob>(threads: usize, len: usize, batch: usize, job: &H) {
    if len == 0 {
        return;
    }
    let threads = threads.clamp(1, len);
    let batch = batch.max(1);
    if threads == 1 {
        // inline: no queue traffic, no atomics
        let mut local = job.make_local();
        let mut start = 0;
        while start < len {
            let end = (start + batch).min(len);
            chaos_slow(start);
            job.chunk(&mut local, start, end);
            start = end;
        }
        return;
    }
    let executor = Executor::global();
    let slot = Arc::new(JobSlot {
        id: executor.next_id(),
        len,
        batch,
        cursor: AtomicUsize::new(0),
        // `len` item accounts + the submitter's participation token
        pending: AtomicUsize::new(len + 1),
        slots: AtomicUsize::new(threads - 1),
        data: job as *const H as *const (),
        participate: participate_erased::<H>,
        done_mutex: Mutex::new(()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    executor.submit(slot.clone(), threads - 1);
    let job_span = Span::enter(Target::Par, "job");
    // The submitter is participant 0: it always drives its own job to
    // completion even if every worker is busy elsewhere, so parallel
    // sections can never deadlock on pool starvation.
    unsafe { (slot.participate)(slot.data, &slot) };
    slot.complete(1); // release the submitter's participation token
    slot.wait_done();
    drop(job_span);
    executor.retire(slot.id);
    let payload = slot.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------
// Job harnesses
// ---------------------------------------------------------------------

/// Index-ordered output cells, written lock-free: each index is
/// claimed by exactly one participant.
struct SharedOut<T> {
    cells: *mut Option<T>,
}

unsafe impl<T: Send> Send for SharedOut<T> {}
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    /// Safety: each `i` must be written at most once, by the chunk
    /// that claimed it (exclusive access to cell `i`).
    unsafe fn write(&self, i: usize, value: T) {
        *self.cells.add(i) = Some(value);
    }
}

struct MapJob<'a, T, S, I, F> {
    init: I,
    f: F,
    out: &'a SharedOut<T>,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<T, S, I, F> ParJob for MapJob<'_, T, S, I, F>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    type Local = S;
    fn make_local(&self) -> S {
        (self.init)()
    }
    fn chunk(&self, local: &mut S, start: usize, end: usize) {
        for i in start..end {
            // Safety: exclusive claim on i (every index is written
            // exactly once).
            unsafe { self.out.write(i, (self.f)(local, i)) };
        }
    }
}

struct ForEachJob<'a, T, S> {
    inner: &'a S,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, S> ParJob for ForEachJob<'_, T, S>
where
    T: Send,
    S: ForEach<T> + Sync,
{
    type Local = ();
    fn make_local(&self) {}
    fn chunk(&self, _local: &mut (), start: usize, end: usize) {
        let batch: Vec<(usize, T)> = (start..end).map(|i| (i, self.inner.work(i))).collect();
        self.inner.sink(start, batch);
    }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// A handle onto the persistent executor: a thread count and a steal
/// batch size.
///
/// `Pool` values are cheap descriptors — the worker threads behind
/// them are process-wide, started lazily, and reused across calls.
/// Reuse cannot perturb results: scheduling only decides *who*
/// computes an item, never *what* it computes.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Participating threads; `0`/`1` runs inline (no queue traffic).
    pub threads: usize,
    /// Indices claimed per steal; amortizes the atomic without losing
    /// dynamic balance.
    pub batch: usize,
}

impl Pool {
    /// Pool handle with `threads` participants and the default batch
    /// size.
    pub fn new(threads: usize) -> Self {
        Pool { threads, batch: 4 }
    }

    /// Pool handle sized by [`default_threads`].
    pub fn auto() -> Self {
        Pool::new(default_threads())
    }

    /// Runs `f(i)` for every `i in 0..len` and returns the results in
    /// index order. `f` is called exactly once per index.
    pub fn map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_init(len, || (), |(), i| f(i))
    }

    /// [`Pool::map`] with per-participant local state: `init` runs
    /// once per participating thread, and `f` receives that state for
    /// every item the thread claims. This is the allocation-free hot
    /// path — scratch arenas created O(threads) times instead of
    /// O(items).
    ///
    /// Determinism contract: `f` must not let `state` influence the
    /// result of item `i` (reset any carried buffers before use).
    pub fn map_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        // Option cells rather than MaybeUninit: when a participant
        // panics and the unwind escapes run_job, `out` drops as a
        // plain Vec<Option<T>>, running destructors for every result
        // already computed (no leaks on the panic path).
        let mut out: Vec<Option<T>> = Vec::with_capacity(len);
        out.resize_with(len, || None);
        let shared = SharedOut {
            cells: out.as_mut_ptr(),
        };
        let job = MapJob {
            init,
            f,
            out: &shared,
            _marker: std::marker::PhantomData,
        };
        run_job(self.threads, len, self.batch, &job);
        out.into_iter()
            .map(|v| v.expect("every index computed"))
            .collect()
    }

    /// Runs `f(i)` for every `i in 0..len`, handing each completed
    /// batch of `(index, value)` pairs to `sink` as soon as the batch
    /// finishes.
    ///
    /// This is the streaming primitive under [`Pool::map`] and the
    /// campaign engine's journal: `sink` observes completions promptly
    /// (crash-safe checkpointing) rather than after the whole batch.
    /// `sink` may be called concurrently from several workers; callers
    /// serialize internally (typically with a `Mutex`).
    pub fn for_each<T, S>(&self, len: usize, work_sink: S)
    where
        T: Send,
        S: ForEach<T> + Sync,
    {
        let job = ForEachJob {
            inner: &work_sink,
            _marker: std::marker::PhantomData,
        };
        run_job(self.threads, len, self.batch, &job);
    }
}

/// Work + sink pair consumed by [`Pool::for_each`].
///
/// Implemented for `(work, sink)` closure tuples so call sites read
/// `pool.for_each(len, (work, sink))`.
pub trait ForEach<T> {
    /// Computes item `i`.
    fn work(&self, i: usize) -> T;
    /// Receives a completed batch (first index, `(index, value)`
    /// pairs). May run concurrently on several workers.
    fn sink(&self, first_index: usize, batch: Vec<(usize, T)>);
}

impl<T, W, S> ForEach<T> for (W, S)
where
    W: Fn(usize) -> T + Sync,
    S: Fn(usize, Vec<(usize, T)>) + Sync,
{
    fn work(&self, i: usize) -> T {
        (self.0)(i)
    }
    fn sink(&self, first_index: usize, batch: Vec<(usize, T)>) {
        (self.1)(first_index, batch)
    }
}

/// Applies `f` to every index in `0..len`, in parallel over `threads`
/// participants, and returns results in index order.
///
/// `f` must be `Sync` (shared across workers) and is called exactly
/// once per index. `threads == 0` or `1` runs inline (no pool
/// traffic).
pub fn par_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if threads.clamp(1, len) == 1 {
        return (0..len).map(f).collect();
    }
    Pool::new(threads).map(len, f)
}

/// [`par_map`] with per-participant scratch state: `init()` runs once
/// per participating thread, `f(&mut state, i)` computes item `i`.
///
/// The Monte-Carlo harnesses use this to reuse visited-sets, queues,
/// and union-find arenas across a worker's trials, so a 10k-trial
/// sweep allocates O(threads) scratch instead of O(trials·n).
///
/// Determinism contract: `f` must reset any carried state it reads, so
/// item `i`'s result never depends on which participant computed it.
pub fn par_map_init<T, S, I, F>(len: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if threads.clamp(1, len) == 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    Pool::new(threads).map_init(len, init, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn map_matches_serial() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        let parallel = par_map(1000, 8, |i| (i as u64) * 3 + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_thread_inline() {
        let r = par_map(10, 1, |i| i * i);
        assert_eq!(r[3], 9);
    }

    #[test]
    fn empty_input() {
        let r: Vec<u32> = par_map(0, 4, |_| unreachable!());
        assert!(r.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let r = par_map(3, 16, |i| i + 1);
        assert_eq!(r, vec![1, 2, 3]);
    }

    #[test]
    fn pool_for_each_streams_every_index_once() {
        let seen = Mutex::new(vec![0u32; 200]);
        Pool::new(4).for_each(
            200,
            (
                |i: usize| i * 2,
                |_first: usize, batch: Vec<(usize, usize)>| {
                    let mut guard = seen.lock();
                    for (i, v) in batch {
                        assert_eq!(v, i * 2);
                        guard[i] += 1;
                    }
                },
            ),
        );
        assert!(seen.into_inner().iter().all(|&c| c == 1));
    }

    #[test]
    fn env_var_overrides_thread_default() {
        // exercised through the pure helper: mutating FXNET_THREADS
        // via set_var would race other tests in this process
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 5 ")), 5);
        assert_eq!(threads_from(Some("64")), 64); // env may exceed the cap
        for bad in [Some("not-a-number"), Some("0"), Some(""), None] {
            let fallback = threads_from(bad);
            assert!((1..=16).contains(&fallback), "{bad:?} -> {fallback}");
        }
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    /// The tentpole determinism contract: bit-identical results across
    /// thread counts AND across repeated calls on the same persistent
    /// pool (a reused pool must not perturb anything).
    #[test]
    fn persistent_pool_reuse_is_deterministic() {
        let reference: Vec<u64> = (0..777)
            .map(|i| {
                let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 29;
                z
            })
            .collect();
        for _round in 0..3 {
            for threads in [1usize, 2, 8] {
                let got = par_map(777, threads, |i| {
                    let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z ^= z >> 29;
                    z
                });
                assert_eq!(got, reference, "threads = {threads}");
            }
        }
    }

    #[test]
    fn map_init_reuses_state_per_participant_without_changing_results() {
        let serial: Vec<usize> = (0..500).map(|i| i + 1).collect();
        for threads in [1usize, 2, 8] {
            let allocs = std::sync::atomic::AtomicUsize::new(0);
            let got = par_map_init(
                500,
                threads,
                || {
                    allocs.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.clear(); // reset: results independent of reuse
                    scratch.push(i);
                    scratch[0] + 1
                },
            );
            assert_eq!(got, serial);
            // lazily created: at most one state per participant
            assert!(allocs.load(Ordering::Relaxed) <= threads.max(1));
        }
    }

    #[test]
    fn cancel_token_flag_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());

        let d = CancelToken::with_deadline(Duration::from_millis(5));
        let clone = d.clone();
        assert!(!d.is_cancelled() || d.is_cancelled()); // no panic either way
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.is_cancelled());
        assert!(clone.is_cancelled(), "clones share cancellation state");
    }

    #[test]
    fn panicking_init_closure_does_not_deadlock() {
        let result = std::panic::catch_unwind(|| {
            par_map_init(100, 4, || -> usize { panic!("init boom") }, |_s, i| i)
        });
        assert!(result.is_err(), "init panic must propagate, not hang");
        let after = par_map(8, 4, |i| i + 1);
        assert_eq!(after, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            par_map(64, 4, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must propagate");
        // the pool survives a panicked job
        let after = par_map(16, 4, |i| i * 2);
        assert_eq!(after[8], 16);
    }
}
