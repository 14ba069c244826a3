//! Deterministic parallel map over an index range.
//!
//! The campaign engine's cells and the Monte-Carlo harnesses
//! (percolation sweeps, prune success rates) are embarrassingly
//! parallel over independent items. [`par_map`] and [`par_map_init`]
//! run them on the calling thread plus scoped helper threads, started
//! for the call and joined before it returns. Every participant claims
//! indices one at a time from a shared atomic cursor, so stragglers
//! (e.g. percolation trials near criticality) never serialize the
//! batch.
//!
//! Results come back in index order, and item `i` is always computed
//! from the same inputs, so seeded experiments are reproducible at any
//! thread count: scheduling only decides *who* computes an item, never
//! *what* it computes.
//!
//! Cooperative cancellation lives in [`CancelToken`] (explicit flag
//! and/or deadline): long-running kernels (exact span enumeration,
//! critical-probability searches) poll it, which is how fx-campaign
//! implements per-cell `timeout_ms` without blocking a thread forever.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fx_trace::{Counter, Span, Target};

// `FXNET_TRACE=par`: parallel calls and the items they covered. Each
// site costs one relaxed atomic load while tracing is disabled.
static TRACE_JOBS: Counter = Counter::new(Target::Par, "jobs");
static TRACE_ITEMS: Counter = Counter::new(Target::Par, "items");

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

/// Ceiling on the threads of one call, a guard against absurd
/// `--threads` values.
const MAX_PARTICIPANTS: usize = 256;

/// Threads that take part in a call over `len` items at `threads`:
/// the caller plus `participants − 1` helpers. At least 1, at most one
/// per item and at most [`MAX_PARTICIPANTS`].
fn participants(threads: usize, len: usize) -> usize {
    threads.min(len).clamp(1, MAX_PARTICIPANTS)
}

/// Applies `f` to every index in `0..len`, in parallel over `threads`
/// participants, and returns results in index order.
///
/// `f` must be `Sync` (shared across threads) and is called exactly
/// once per index. `threads == 0` or `1` runs inline.
pub fn par_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_init(len, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-participant scratch state: `init()` runs once
/// per participating thread, at its first claimed item, and
/// `f(&mut state, i)` computes item `i`.
///
/// The Monte-Carlo harnesses use this to reuse visited-sets, queues,
/// and union-find arenas across a thread's trials, so a 10k-trial
/// sweep allocates O(threads) scratch instead of O(trials·n).
///
/// Determinism contract: `f` must reset any carried state it reads, so
/// item `i`'s result never depends on which participant computed it.
///
/// A panic in `init` or `f` stops further claims and is re-raised on
/// the calling thread with its original payload once every helper has
/// returned.
pub fn par_map_init<T, S, I, F>(len: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let participants = participants(threads, len);
    if participants == 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    TRACE_JOBS.incr();
    TRACE_ITEMS.add(len as u64);
    let _job = Span::enter(Target::Par, "job");
    // publishes no data (results travel through the joins), so
    // relaxed claims suffice
    let cursor = AtomicUsize::new(0);
    // one participant: its (index, value) pairs, or the payload of the
    // panic that ended it after pushing the cursor past the end
    let participate = || -> Result<Vec<(usize, T)>, Box<dyn Any + Send>> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut state = None;
            let mut out = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return out;
                }
                out.push((i, f(state.get_or_insert_with(&init), i)));
            }
        }))
        .inspect_err(|_| cursor.store(len, Ordering::Relaxed))
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants)
            .map(|_| scope.spawn(participate))
            .collect();
        let mut outcomes = vec![participate()];
        outcomes.extend(helpers.into_iter().map(|h| {
            h.join()
                .expect("a participant catches its own panic, so joins succeed")
        }));
        outcomes
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    for outcome in outcomes {
        for (i, value) in outcome.unwrap_or_else(|payload| resume_unwind(payload)) {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn par_map_calls_every_index_once() {
        let seen: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let got = par_map(200, 4, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(got, (0..200).map(|i| i * 2).collect::<Vec<_>>());
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Pure: no thread is started.
    #[test]
    fn participants_clamp_to_items_floor_and_ceiling() {
        assert_eq!(participants(8, 3), 3, "one participant per item at most");
        assert_eq!(participants(2, 100), 2);
        assert_eq!(participants(0, 100), 1, "floor of one");
        assert_eq!(participants(4, 0), 1, "floor of one");
        assert_eq!(participants(100_000, 1 << 40), MAX_PARTICIPANTS);
        assert_eq!(participants(usize::MAX, usize::MAX), 256);
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

    /// The determinism contract: bit-identical results across thread
    /// counts and across repeated calls.
    #[test]
    fn repeated_calls_are_deterministic() {
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
        // later calls are unaffected
        let after = par_map(16, 4, |i| i * 2);
        assert_eq!(after[8], 16);
    }

    /// A helper's panic reaches the caller with its own payload, and
    /// no item is claimed after it.
    #[test]
    fn helper_panic_reaches_caller_and_stops_claims() {
        // set when the panicking helper thread exits, after its panic
        // was caught and claims were stopped
        static HELPER_EXITED: AtomicBool = AtomicBool::new(false);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                HELPER_EXITED.store(true, Ordering::Release);
            }
        }
        std::thread_local!(static ON_EXIT: std::cell::OnceCell<OnExit> = const { std::cell::OnceCell::new() });
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            par_map(1000, 2, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() != caller {
                    ON_EXIT.with(|cell| {
                        cell.get_or_init(|| OnExit);
                    });
                    panic!("helper boom");
                }
                // hold the caller's item until the helper has exited;
                // without the stop it would then claim all the rest
                while !HELPER_EXITED.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
        // the helper's item, plus at most the one the caller held
        assert!(
            started.load(Ordering::Relaxed) <= 2,
            "claims stop at the panic"
        );
    }
}
