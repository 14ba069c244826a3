//! # fx-store — a content-addressed cell-result store
//!
//! A campaign cell is a pure function of its identity-derived seed, so
//! its result can be memoized forever: same identity ⇒ same bits. This
//! crate is the shared cache that exploits that — a durable map from a
//! 64-bit **content address** (FNV-1a over the canonical cell identity
//! string, built by `fx-campaign`) to the cell's result record
//! (a single-line JSON payload, opaque to this crate).
//!
//! The crate also owns the checksummed record [`log`] that both this
//! store and the campaign journal are built on.
//!
//! ## Layout
//!
//! A store is a directory of [`SHARDS`] record logs (`cells-NN.jsonl`,
//! shard = mixed key mod [`SHARDS`]) plus an in-memory index built at
//! [`Store::open`]. Each line is a keyed log record,
//!
//! ```text
//! {"crc":"<16-hex fnv1a>","key":"<16-hex>","cell":<payload>}
//! ```
//!
//! where the CRC covers `"<key-hex>|<payload>"`, so a bit flip in
//! either the address or the value is caught.
//!
//! ## Crash safety
//!
//! Recovery is the [`log`] module's: a torn final line (the classic
//! power-loss artifact) is ignored and truncated away before the
//! shard's next append; an *interior* corrupt line, or a line without a
//! key, is skipped and counted in [`Store::corrupt`] — the cell simply
//! recomputes and republishes. A corrupt entry is **never served**.
//!
//! ## Chaos
//!
//! Reads and appends are `store_io` chaos injection points
//! (`FXNET_CHAOS=store_io:p`). A chaos-failed read degrades to a cache
//! miss (the caller recomputes — bits unchanged); a chaos-failed
//! append is retried like a journal append and, if it still fails, the
//! result is simply not memoized. Chaos can therefore change *where
//! time is spent*, never *what is computed*.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use fx_chaos::Site;
use fx_trace::{Counter, Target};

pub mod log;

pub use log::fnv1a;
use log::{Line, RecordLog};

/// Number of append-only log shards in a store directory.
pub const SHARDS: usize = 8;

// Distinct salts so read- and append-side chaos decisions for the same
// key are independent coins.
const CHAOS_GET_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;
const CHAOS_PUT_SALT: u64 = 0x0F0F_F0F0_69D2_B96C;

static TRACE_HITS: Counter = Counter::new(Target::Store, "hits");
static TRACE_MISSES: Counter = Counter::new(Target::Store, "misses");
static TRACE_PUBLISHES: Counter = Counter::new(Target::Store, "publishes");
static TRACE_CORRUPT: Counter = Counter::new(Target::Store, "corrupt_skipped");
static TRACE_CHAOS_MISSES: Counter = Counter::new(Target::Store, "chaos_misses");

// splitmix64 finalizer: spreads sequential/low-entropy keys across
// shards.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard index a key lives in.
pub fn shard_of(key: u64) -> usize {
    (mix(key) % SHARDS as u64) as usize
}

/// A content-addressed result store: sharded checksummed append-only
/// logs under one directory, fronted by an in-memory index.
///
/// All methods take `&self`; the store is safe to share across
/// threads.
pub struct Store {
    dir: PathBuf,
    index: Mutex<HashMap<u64, String>>,
    shards: [RecordLog; SHARDS],
    corrupt: u64,
}

impl Store {
    /// Opens the store at `dir`, loading every shard log under the
    /// [`log`] recovery rules; corrupt lines are counted in
    /// [`Store::corrupt`]. Later entries for the same key win (a
    /// republish after a corrupt read supersedes). Opening creates
    /// nothing: the directory and each shard file appear with the
    /// shard's first [`Store::put`].
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        let shards: [RecordLog; SHARDS] =
            std::array::from_fn(|s| RecordLog::new(shard_path(dir, s), log::DEFAULT_IO_RETRIES));
        let mut index = HashMap::new();
        let mut corrupt = 0;
        for shard in &shards {
            corrupt += shard.read(|line| match log::unseal(line)? {
                Line::Keyed { key, payload } => {
                    index.insert(key, payload.to_string());
                    Ok(())
                }
                Line::Keyless(_) => Err("not a keyed store record".to_string()),
            })? as u64;
        }
        if corrupt > 0 {
            TRACE_CORRUPT.add(corrupt);
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
            shards,
            corrupt,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`. A `store_io` chaos firing degrades the lookup
    /// to a miss — the caller recomputes, so chaos can never change
    /// what is served, only whether the cache helped.
    pub fn get(&self, key: u64) -> Option<String> {
        if fx_chaos::should_fire(Site::StoreIo, key ^ CHAOS_GET_SALT, 0) {
            TRACE_CHAOS_MISSES.incr();
            TRACE_MISSES.incr();
            return None;
        }
        let hit = self.index.lock().unwrap().get(&key).cloned();
        match &hit {
            Some(_) => TRACE_HITS.incr(),
            None => TRACE_MISSES.incr(),
        }
        hit
    }

    /// Publishes `payload` under `key`, appending a checksummed line
    /// to the key's shard and updating the index. `payload` must be a
    /// single-line JSON value (no raw newline) — store lines are the
    /// recovery unit.
    ///
    /// Appends retry up to [`log::DEFAULT_IO_RETRIES`] times around
    /// real or chaos-injected (`store_io`) I/O errors; a final failure
    /// leaves the result unmemoized but is otherwise harmless, so
    /// callers may treat the error as non-fatal.
    pub fn put(&self, key: u64, payload: &str) -> std::io::Result<()> {
        debug_assert!(!payload.contains('\n'), "store payloads are single-line");
        self.shards[shard_of(key)].append(key, payload, Site::StoreIo, key ^ CHAOS_PUT_SALT)?;
        self.index.lock().unwrap().insert(key, payload.to_string());
        TRACE_PUBLISHES.incr();
        Ok(())
    }

    /// Number of distinct keys in the index.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupt lines skipped (and counted) during [`Store::open`].
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("cells-{shard:02}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fx-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.is_empty());
            for k in 0..100u64 {
                store.put(k, &format!("{{\"v\":{k}}}")).unwrap();
            }
            assert_eq!(store.len(), 100);
            assert_eq!(store.get(7), Some("{\"v\":7}".to_string()));
            assert_eq!(store.get(1000), None);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 100);
        assert_eq!(store.corrupt(), 0);
        assert_eq!(store.get(99), Some("{\"v\":99}".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_entries_win_on_reload() {
        let dir = temp_dir("republish");
        {
            let store = Store::open(&dir).unwrap();
            store.put(1, "{\"v\":1}").unwrap();
            store.put(1, "{\"v\":2}").unwrap();
            assert_eq!(store.len(), 1);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1), Some("{\"v\":2}".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_spread_across_shards() {
        let dir = temp_dir("shards");
        {
            let store = Store::open(&dir).unwrap();
            for k in 0..200u64 {
                store.put(k, "{}").unwrap();
            }
        }
        let populated = (0..SHARDS)
            .filter(|&s| shard_path(&dir, s).exists())
            .count();
        assert!(populated > 1, "200 keys landed in {populated} shard(s)");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_of_the_last_record_recovers() {
        let dir = temp_dir("truncate");
        // three keys of one shard: a and b written, c put after each cut
        let mut same = (0..).filter(|&k| shard_of(k) == shard_of(0));
        let [a, b, c]: [u64; 3] = std::array::from_fn(|_| same.next().unwrap());
        let v = |k: u64| format!("{{\"v\":{k}}}");
        {
            let store = Store::open(&dir).unwrap();
            store.put(a, &v(a)).unwrap();
            store.put(b, &v(b)).unwrap();
        }
        let shard = shard_path(&dir, shard_of(a));
        let full = std::fs::read(&shard).unwrap();
        let b_start = full.iter().position(|&x| x == b'\n').unwrap() + 1;
        // a kill mid-write can cut the shard anywhere: sweep every cut
        // from losing a's newline through losing only b's
        for cut in (b_start - 1)..full.len() {
            std::fs::write(&shard, &full[..cut]).unwrap();
            // the torn record is neither served nor counted...
            let kept = (cut >= b_start).then(|| v(a));
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.get(a), kept.clone(), "cut={cut}");
            assert_eq!((store.get(b), store.corrupt()), (None, 0), "cut={cut}");
            // ...and the next put truncates it first, so c lands on a
            // line of its own
            store.put(c, &v(c)).unwrap();
            drop(store);
            let store = Store::open(&dir).unwrap();
            assert_eq!((store.get(a), store.corrupt()), (kept, 0), "cut={cut}");
            assert_eq!(store.get(c), Some(v(c)), "cut={cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_bit_flips_are_skipped_and_counted() {
        let dir = temp_dir("bitflip");
        {
            let store = Store::open(&dir).unwrap();
            store.put(1, "{\"v\":1}").unwrap();
        }
        let shard = shard_path(&dir, shard_of(1));
        let mut bytes = std::fs::read(&shard).unwrap();
        // Flip a bit inside the payload (past the fixed prefix) so the
        // line still parses structurally but fails its CRC.
        let target = bytes.len() - 3;
        bytes[target] ^= 0x01;
        // and a line that verifies but carries no key
        bytes.extend_from_slice(b"{\"crc\":\"0000000000000000\",\"cell\":{\"v\":1}}\n");
        std::fs::write(&shard, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.corrupt(), 2, "flip and keyless line are counted");
        assert_eq!(store.get(1), None, "corrupt entry is never served");
        // Republish repairs the store.
        store.put(1, "{\"v\":1}").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1), Some("{\"v\":1}".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_catches_a_value_swap_that_still_parses() {
        // Each CRC covers `key|payload`, so re-keying a line or
        // swapping its payload without re-sealing is caught.
        let line = log::seal(1, "{\"v\":1}");
        let rekeyed = line.replace(
            "\"key\":\"0000000000000001\"",
            "\"key\":\"0000000000000002\"",
        );
        let swapped = line.replace("{\"v\":1}", "{\"v\":2}");
        for forged in [rekeyed, swapped] {
            assert_ne!(forged, line);
            assert!(log::unseal(&forged).is_err(), "{forged}");
        }
    }

    #[test]
    fn concurrent_publishes_from_many_threads() {
        let dir = temp_dir("concurrent");
        let store = std::sync::Arc::new(Store::open(&dir).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let k = t * 100 + i;
                    store.put(k, &format!("{{\"v\":{k}}}")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 200);
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 200);
        assert_eq!(store.corrupt(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_matches_the_journal_constants() {
        // Golden values pin the hash so the store's addresses can
        // never silently diverge from the campaign's key hashing.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }
}
