//! # fx-chaos — seeded, deterministic fault injection
//!
//! A process-global registry of chaos *sites*: named places in the
//! execution stack where a fault can be injected (a cell panic, a
//! journal I/O error, a slow cell). Each site carries an
//! independent probability, configured through the `FXNET_CHAOS`
//! environment variable; with the variable unset every site is off and
//! the only cost at an injection point is **one relaxed atomic load**,
//! mirroring the fx-trace contract.
//!
//! ## Grammar
//!
//! `FXNET_CHAOS` is a comma-separated list of clauses:
//!
//! ```text
//! FXNET_CHAOS=cell_panic:p,io_error:p,slow:p[,ms],seed:n
//! ```
//!
//! * `cell_panic:p` — with probability `p`, a cell's execution panics
//!   (before or after the algorithm phase, chosen deterministically).
//! * `io_error:p` — with probability `p`, a journal append fails with
//!   an I/O error.
//! * `store_io:p` — with probability `p`, a cell-store read or append
//!   fails with an I/O error (the store degrades to a cache miss and
//!   recomputes; it never serves a torn read).
//! * `slow:p[,ms]` — with probability `p`, a campaign cell is delayed
//!   by `ms` milliseconds (default 5) before it runs. The optional
//!   bare-number token after `slow:p` is the delay.
//! * `seed:n` — reseeds the decision function (default 0). Two runs
//!   with the same seed inject faults at exactly the same places.
//!
//! Probabilities are clamped to `[0, 1]`; unknown clause names are
//! ignored (a chaos filter must never make the tool fail).
//!
//! ## Determinism
//!
//! Whether a site fires is a pure function of
//! `(seed, site, identity, attempt)` — no RNG state, no wall clock.
//! Callers pass a stable 64-bit `identity` (e.g. the FNV-1a hash of a
//! cell key) and a monotonically increasing `attempt` number, so a
//! retried cell sees a fresh, but reproducible, decision on every
//! attempt. This is what lets the chaos invariant hold: a chaos run
//! with retries converges to the same results as a clean run.
//!
//! Every fired injection increments both a process-local tally
//! (readable through [`fired`], used by tests and health reports) and
//! an fx-trace counter under the `chaos` target, so
//! `FXNET_TRACE=chaos` surfaces injection counts in trace sinks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fx_trace::{Counter, Target};

/// A place in the execution stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// Panic inside a cell's execution (`fx_campaign::exec`).
    CellPanic = 0,
    /// I/O error on a journal append (`fx_campaign::journal`).
    IoError = 1,
    /// Artificial delay before a campaign cell runs
    /// (`fx_campaign::engine`).
    Slow = 2,
    /// I/O error on a cell-store read or append (`fx_store`).
    StoreIo = 3,
}

/// Number of distinct [`Site`]s.
pub const NUM_SITES: usize = 4;

impl Site {
    /// All sites, in discriminant order.
    pub const ALL: [Site; NUM_SITES] = [Site::CellPanic, Site::IoError, Site::Slow, Site::StoreIo];

    /// The `FXNET_CHAOS` clause name of this site.
    pub fn as_str(self) -> &'static str {
        match self {
            Site::CellPanic => "cell_panic",
            Site::IoError => "io_error",
            Site::Slow => "slow",
            Site::StoreIo => "store_io",
        }
    }

    fn from_name(name: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.as_str() == name)
    }
}

// `const` on purpose: array-initializer seeds (each slot gets its own
// atomic).
#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);
// Per-site probability as raw f64 bits; 0 (i.e. +0.0) means off, so
// the disabled check is a single relaxed load against zero.
#[allow(clippy::borrow_interior_mutable_const)]
static P_BITS: [AtomicU64; NUM_SITES] = [ATOMIC_ZERO; NUM_SITES];
#[allow(clippy::borrow_interior_mutable_const)]
static FIRED: [AtomicU64; NUM_SITES] = [ATOMIC_ZERO; NUM_SITES];
static SLOW_MS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_MS);
static SEED: AtomicU64 = AtomicU64::new(0);
static INITIALIZED: AtomicBool = AtomicBool::new(false);

/// Default worker delay for the `slow` site, in milliseconds.
pub const DEFAULT_SLOW_MS: u64 = 5;

static TRACE_FIRED_CELL_PANIC: Counter = Counter::new(Target::Chaos, "fired_cell_panic");
static TRACE_FIRED_IO_ERROR: Counter = Counter::new(Target::Chaos, "fired_io_error");
static TRACE_FIRED_SLOW: Counter = Counter::new(Target::Chaos, "fired_slow");
static TRACE_FIRED_STORE_IO: Counter = Counter::new(Target::Chaos, "fired_store_io");

fn trace_counter(site: Site) -> &'static Counter {
    match site {
        Site::CellPanic => &TRACE_FIRED_CELL_PANIC,
        Site::IoError => &TRACE_FIRED_IO_ERROR,
        Site::Slow => &TRACE_FIRED_SLOW,
        Site::StoreIo => &TRACE_FIRED_STORE_IO,
    }
}

/// True when `site` has a non-zero probability. One relaxed load —
/// this is the entire cost of an injection point in a chaos-free run.
#[inline(always)]
pub fn enabled(site: Site) -> bool {
    P_BITS[site as usize].load(Ordering::Relaxed) != 0
}

/// The configured probability of `site` (0.0 when off).
pub fn probability(site: Site) -> f64 {
    f64::from_bits(P_BITS[site as usize].load(Ordering::Relaxed))
}

/// The configured delay of the `slow` site, in milliseconds.
pub fn slow_ms() -> u64 {
    SLOW_MS.load(Ordering::Relaxed)
}

/// How many times `site` has fired in this process.
pub fn fired(site: Site) -> u64 {
    FIRED[site as usize].load(Ordering::Relaxed)
}

// splitmix64: the same finalizer fx-campaign uses for cell seeds — a
// single pass is a high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Decides — deterministically — whether `site` fires for the given
/// `(identity, attempt)` pair, and records the injection when it does.
///
/// One relaxed load when the site is off. `identity` is any stable
/// 64-bit label of the work unit (a key hash, a chunk index);
/// `attempt` distinguishes retries of the same unit so each retry gets
/// an independent decision.
#[inline]
pub fn should_fire(site: Site, identity: u64, attempt: u64) -> bool {
    let p_bits = P_BITS[site as usize].load(Ordering::Relaxed);
    if p_bits == 0 {
        return false;
    }
    let p = f64::from_bits(p_bits);
    let fire = p >= 1.0 || {
        let seed = SEED.load(Ordering::Relaxed);
        let z = splitmix64(seed ^ splitmix64(identity ^ splitmix64((site as u64) << 32 | attempt)));
        // uniform in [0, 1): top 53 bits as a double
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    };
    if fire {
        FIRED[site as usize].fetch_add(1, Ordering::Relaxed);
        trace_counter(site).incr();
    }
    fire
}

/// A secondary deterministic coin for a site that already fired — e.g.
/// exec uses it to pick pre- vs post-algo panics. Pure function of the
/// same inputs; does not count as an injection.
pub fn aux_bit(site: Site, identity: u64, attempt: u64) -> bool {
    let seed = SEED.load(Ordering::Relaxed);
    let z = splitmix64(!seed ^ splitmix64(identity ^ splitmix64((site as u64) << 32 | attempt)));
    z & 1 == 1
}

fn apply_config(spec: &str) {
    let mut p = [0.0f64; NUM_SITES];
    let mut slow_ms = DEFAULT_SLOW_MS;
    let mut seed = 0u64;
    let mut last_site = None;
    for token in spec.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        match token.split_once(':') {
            Some((name, value)) => {
                let (name, value) = (name.trim(), value.trim());
                if name == "seed" {
                    seed = value.parse().unwrap_or(0);
                    last_site = None;
                } else if let Some(site) = Site::from_name(name) {
                    // `"nan"` parses to NaN, which clamp preserves —
                    // map anything non-finite to off
                    let parsed = value.parse::<f64>().unwrap_or(0.0);
                    let parsed = if parsed.is_finite() { parsed } else { 0.0 };
                    p[site as usize] = parsed.clamp(0.0, 1.0);
                    last_site = Some(site);
                } else {
                    // Unknown names are ignored: a chaos filter must
                    // never make the tool fail.
                    last_site = None;
                }
            }
            // A bare number right after `slow:p` is the delay in ms.
            None if last_site == Some(Site::Slow) => {
                if let Ok(ms) = token.parse::<u64>() {
                    slow_ms = ms;
                }
                last_site = None;
            }
            None => last_site = None,
        }
    }
    SEED.store(seed, Ordering::Relaxed);
    SLOW_MS.store(slow_ms, Ordering::Relaxed);
    for (slot, p) in P_BITS.iter().zip(p) {
        // store the canonical +0.0 bit pattern (0) for "off"
        slot.store(if p == 0.0 { 0 } else { p.to_bits() }, Ordering::Relaxed);
    }
}

/// Sets the chaos configuration programmatically and marks chaos as
/// initialized (so a later [`init_from_env`] will not clobber it).
/// An empty string turns every site off. See the crate docs for the
/// grammar.
pub fn set_config(spec: &str) {
    INITIALIZED.store(true, Ordering::SeqCst);
    apply_config(spec);
}

/// Applies the `FXNET_CHAOS` environment variable, once per process.
///
/// The first caller wins; subsequent calls (and calls after
/// [`set_config`]) are no-ops, so library entry points can call this
/// unconditionally without overriding test configuration.
pub fn init_from_env() {
    if INITIALIZED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("FXNET_CHAOS") {
        apply_config(&spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Chaos state is process-global; tests serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn off_by_default_and_after_empty_config() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("");
        for site in Site::ALL {
            assert!(!enabled(site), "{site:?}");
            assert!(!should_fire(site, 42, 0));
        }
        assert_eq!(slow_ms(), DEFAULT_SLOW_MS);
    }

    #[test]
    fn grammar_parses_sites_seed_and_slow_ms() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("cell_panic:0.25, io_error:0.5, slow:0.1,20, seed:7");
        assert_eq!(probability(Site::CellPanic), 0.25);
        assert_eq!(probability(Site::IoError), 0.5);
        assert_eq!(probability(Site::Slow), 0.1);
        assert_eq!(slow_ms(), 20);
        assert_eq!(SEED.load(Ordering::Relaxed), 7);
        set_config("");
    }

    #[test]
    fn grammar_ignores_junk_and_clamps() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("bogus:0.9,cell_panic:7.5,io_error:-1,slow:nan,99");
        assert_eq!(probability(Site::CellPanic), 1.0, "clamped to 1");
        assert!(!enabled(Site::IoError), "negative clamps to off");
        assert!(!enabled(Site::Slow), "nan parses to off");
        // `99` follows `slow:nan` so it is still the delay operand
        assert_eq!(slow_ms(), 99);
        set_config("");
    }

    #[test]
    fn decisions_are_deterministic_and_roughly_match_p() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("cell_panic:0.3,seed:11");
        let first: Vec<bool> = (0..500)
            .map(|i| should_fire(Site::CellPanic, i, 0))
            .collect();
        let second: Vec<bool> = (0..500)
            .map(|i| should_fire(Site::CellPanic, i, 0))
            .collect();
        assert_eq!(
            first, second,
            "same (seed, identity, attempt) → same decision"
        );
        let hits = first.iter().filter(|&&b| b).count();
        assert!((80..220).contains(&hits), "~30% of 500, got {hits}");
        set_config("");
    }

    #[test]
    fn attempts_get_independent_decisions() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("cell_panic:0.5,seed:3");
        let by_attempt: Vec<bool> = (0..64)
            .map(|a| should_fire(Site::CellPanic, 123, a))
            .collect();
        assert!(by_attempt.iter().any(|&b| b));
        assert!(by_attempt.iter().any(|&b| !b));
        set_config("");
    }

    #[test]
    fn probability_one_always_fires_and_counts() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("io_error:1");
        let before = fired(Site::IoError);
        for i in 0..10 {
            assert!(should_fire(Site::IoError, i, i));
        }
        assert_eq!(fired(Site::IoError) - before, 10);
        set_config("");
    }

    #[test]
    fn seed_changes_decisions() {
        let _g = TEST_LOCK.lock().unwrap();
        set_config("cell_panic:0.5,seed:1");
        let a: Vec<bool> = (0..64)
            .map(|i| should_fire(Site::CellPanic, i, 0))
            .collect();
        set_config("cell_panic:0.5,seed:2");
        let b: Vec<bool> = (0..64)
            .map(|i| should_fire(Site::CellPanic, i, 0))
            .collect();
        assert_ne!(a, b);
        set_config("");
    }
}
