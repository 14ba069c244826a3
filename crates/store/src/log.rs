//! The checksummed record log under both the campaign journal and the
//! cell store: an append-only file holding one sealed JSON record per
//! line.
//!
//! ## Line format
//!
//! ```text
//! {"crc":"<16-hex>","key":"<16-hex>","cell":<payload>}
//! ```
//!
//! The CRC is [`fnv1a`] over `"<key-hex>|<payload>"`, so a bit flip in
//! either the address or the value is caught. [`unseal`] also
//! recognizes a line without a key — a bare payload, or one sealed as
//! `{"crc":"<16-hex>","cell":<payload>}` — so a reader can tell records
//! written before its lines were keyed from damaged ones.
//!
//! ## Recovery
//!
//! * Bytes after the last newline are a torn tail (a kill mid-write).
//!   A read ignores them without counting them, and the first append
//!   truncates them so the next record starts on a line of its own.
//! * A complete line its reader rejects (checksum mismatch, malformed
//!   seal, bit rot) is skipped, reported and counted. The surviving
//!   records stay usable, so damage only ever costs the records it hit.
//!
//! ## Appending
//!
//! Each record is one `write_all` of the line and its newline, which is
//! kill-safe on its own. The file is also `sync_data`'d every
//! `FXNET_JOURNAL_SYNC` records (default [`DEFAULT_SYNC_EVERY`], `0`
//! disables periodic sync) and once more on drop, which bounds what a
//! host crash can lose. A failed sync never fails the append, so a
//! record is never written twice. A failing write — a real I/O error
//! or the caller's chaos site firing — is retried up to the log's
//! budget.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use fx_chaos::Site;

/// Default number of appended records between `sync_data` calls.
pub const DEFAULT_SYNC_EVERY: usize = 64;

/// Default number of retries for a failed append: I/O errors are
/// transient more often than not.
pub const DEFAULT_IO_RETRIES: usize = 2;

/// FNV-1a over `bytes`: the record checksum, the store's content
/// address and the campaign's cell-identity hash.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn checksum(key: u64, payload: &str) -> u64 {
    fnv1a(format!("{key:016x}|{payload}").as_bytes())
}

/// Seals a single-line JSON `payload` under `key` into one log line
/// (without the trailing newline).
pub fn seal(key: u64, payload: &str) -> String {
    let crc = checksum(key, payload);
    format!("{{\"crc\":\"{crc:016x}\",\"key\":\"{key:016x}\",\"cell\":{payload}}}")
}

/// One line of a log, as [`unseal`] reads it.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// A keyed record whose checksum verifies.
    Keyed {
        /// The record's key.
        key: u64,
        /// The record's JSON payload.
        payload: &'a str,
    },
    /// A line without a key: the payload of a keyless seal, or the
    /// whole line when it has no seal. Unverified; what it holds is
    /// left to the caller.
    Keyless(&'a str),
}

/// Verifies one line. A keyed line that fails verification is an
/// error.
pub fn unseal(line: &str) -> Result<Line<'_>, &'static str> {
    let Some(rest) = line.strip_prefix("{\"crc\":\"") else {
        return Ok(Line::Keyless(line));
    };
    let (crc, rest) = hex_field(rest)?;
    if let Some(payload) = cell_field(rest) {
        return Ok(Line::Keyless(payload));
    }
    let rest = rest.strip_prefix("\"key\":\"").ok_or("malformed seal")?;
    let (key, rest) = hex_field(rest)?;
    let payload = cell_field(rest).ok_or("malformed seal")?;
    if checksum(key, payload) != crc {
        return Err("checksum mismatch (torn or bit-flipped record)");
    }
    Ok(Line::Keyed { key, payload })
}

/// The payload of a seal's `"cell":<payload>}` tail.
fn cell_field(s: &str) -> Option<&str> {
    s.strip_prefix("\"cell\":")?.strip_suffix('}')
}

/// Splits a 16-hex-digit value and its closing `",` off the front of
/// `s`.
fn hex_field(s: &str) -> Result<(u64, &str), &'static str> {
    let value = s
        .get(..16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("malformed seal")?;
    let rest = s[16..].strip_prefix("\",").ok_or("malformed seal")?;
    Ok((value, rest))
}

/// Length of the complete lines at the front of `bytes`: everything up
/// to and including the last newline.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// The `FXNET_JOURNAL_SYNC` window: records between `sync_data` calls,
/// [`DEFAULT_SYNC_EVERY`] when unset or invalid, `0` for none.
fn sync_every(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_SYNC_EVERY)
}

/// An append-only file of sealed records. Creating one touches nothing
/// on disk; the file and its directory appear with the first append.
///
/// All methods take `&self`, so one log can be shared across threads.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    io_retries: usize,
    writer: Mutex<Option<Writer>>,
}

#[derive(Debug)]
struct Writer {
    file: File,
    sync_every: usize,
    since_sync: usize,
}

impl Writer {
    /// Opens `path` for appending (creating it and its directory) and
    /// truncates a torn tail.
    fn open(path: &Path) -> io::Result<Writer> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let keep = complete_len(&bytes);
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
            eprintln!(
                "{}: truncated a torn final record ({} bytes)",
                path.display(),
                bytes.len() - keep
            );
        }
        Ok(Writer {
            file,
            sync_every: sync_every(std::env::var("FXNET_JOURNAL_SYNC").ok().as_deref()),
            since_sync: 0,
        })
    }

    fn write(&mut self, record: &[u8]) -> io::Result<()> {
        self.file.write_all(record)?;
        self.since_sync += 1;
        if self.sync_every > 0 && self.since_sync >= self.sync_every {
            self.since_sync = 0;
            // the write above is already kill-safe; the sync only
            // narrows what a host crash can lose
            let _ = self.file.sync_data();
        }
        Ok(())
    }
}

impl RecordLog {
    /// The log at `path`, retrying a failed append `io_retries` times.
    pub fn new(path: PathBuf, io_retries: usize) -> RecordLog {
        RecordLog {
            path,
            io_retries,
            writer: Mutex::new(None),
        }
    }

    /// The log's file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the log under the recovery rules: `visit` sees every
    /// complete non-blank line (trimmed), the torn tail is ignored, and
    /// each line `visit` rejects is reported on stderr and counted.
    /// Returns that count. An absent log reads as empty.
    pub fn read(&self, mut visit: impl FnMut(&str) -> Result<(), String>) -> io::Result<usize> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        // lossy: a flipped high bit must cost one record, not the log
        let text = String::from_utf8_lossy(&bytes[..complete_len(&bytes)]);
        let mut corrupt = 0;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Err(e) = visit(line) {
                corrupt += 1;
                eprintln!(
                    "{}:{}: skipping corrupt record: {e}",
                    self.path.display(),
                    i + 1
                );
            }
        }
        Ok(corrupt)
    }

    /// Opens the file for appending now rather than at the first
    /// append, so a log that cannot be written fails before any record
    /// is computed for it.
    pub fn open_for_append(&self) -> io::Result<()> {
        self.with_writer(|_| Ok(()))
    }

    /// Seals `payload` under `key` and appends it. A try fails without
    /// touching the file when the chaos `site` fires for
    /// `(identity, attempt)`; failed tries are retried up to the log's
    /// budget, after which the last error is returned.
    pub fn append(&self, key: u64, payload: &str, site: Site, identity: u64) -> io::Result<()> {
        let mut record = seal(key, payload);
        record.push('\n');
        let mut last_err = None;
        for attempt in 0..=self.io_retries as u64 {
            // one relaxed load when chaos is off
            if fx_chaos::should_fire(site, identity, attempt) {
                last_err = Some(io::Error::other(format!(
                    "chaos: injected {} fault (attempt {attempt})",
                    site.as_str()
                )));
                continue;
            }
            match self.with_writer(|w| w.write(record.as_bytes())) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("the loop makes at least one attempt"))
    }

    /// Runs `f` on the append handle, opening it on first use.
    fn with_writer<T>(&self, f: impl FnOnce(&mut Writer) -> io::Result<T>) -> io::Result<T> {
        // every update leaves the writer valid, so a poisoned lock is
        // safe to keep using
        let mut slot = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = match &mut *slot {
            Some(writer) => writer,
            empty => empty.insert(Writer::open(&self.path)?),
        };
        f(writer)
    }
}

impl Drop for RecordLog {
    fn drop(&mut self) {
        // close out the last (possibly partial) sync window
        let slot = self
            .writer
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(writer) = slot {
            let _ = writer.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "{\"v\":\"a\"}";
    const B: &str = "{\"v\":\"b\"}";
    const C: &str = "{\"v\":\"c\"}";

    /// The verified payloads of `log` (keyless lines rejected) and the
    /// corrupt count.
    fn payloads(log: &RecordLog) -> (Vec<String>, usize) {
        let mut out = Vec::new();
        let corrupt = log
            .read(|line| match unseal(line)? {
                Line::Keyed { payload, .. } => {
                    out.push(payload.to_string());
                    Ok(())
                }
                Line::Keyless(_) => Err("keyless".into()),
            })
            .unwrap();
        (out, corrupt)
    }

    /// A store line as earlier releases wrote it verifies, and sealing
    /// its key and payload again reproduces it byte for byte. A
    /// journal line from before journal lines were keyed, and a bare
    /// payload, read as keyless.
    #[test]
    fn seals_reproduce_the_existing_formats_byte_for_byte() {
        let cell = r#"{"key":"torus:4,4|none|expansion-cert|r0","graph":"torus:4,4","fault":"none","algo":"expansion-cert","replicate":0,"seed":4564166207218524731,"metrics":[["n",16],["faults",0],["gamma",1],["alpha_lower",0.75],["alpha_upper",0.75],["alpha_e_lower",1],["alpha_e_upper",1]],"wall_ms":1.262465,"phase_ms":[["build",0.013989],["fault",0.002771],["algo",1.24358]],"failed":0,"error":"","attempts":1,"cache_hit":0}"#;
        let store =
            format!(r#"{{"crc":"162f28b59c54f358","key":"6c29c1a376792ba0","cell":{cell}}}"#);
        let key = 0x6c29_c1a3_7679_2ba0;
        assert_eq!(unseal(&store), Ok(Line::Keyed { key, payload: cell }));
        assert_eq!(seal(key, cell), store);
        let journal = format!(r#"{{"crc":"404552bce15503a0","cell":{cell}}}"#);
        assert_eq!(unseal(&journal), Ok(Line::Keyless(cell)));
        assert_eq!(unseal(cell), Ok(Line::Keyless(cell)));
    }

    #[test]
    fn bit_flips_at_every_byte_of_the_first_record_are_skipped_and_counted() {
        // the truncation sweeps run against the journal and the store
        // themselves
        let name = format!("fx-store-log-flip-{}.jsonl", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        let log = RecordLog::new(path.clone(), DEFAULT_IO_RETRIES);
        for payload in [A, B, C] {
            log.append(7, payload, Site::StoreIo, 0).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.iter().position(|&b| b == b'\n').unwrap() {
            for bit in [0x01u8, 0x80] {
                let mut damaged = full.clone();
                damaged[i] ^= bit;
                std::fs::write(&path, &damaged).unwrap();
                // never fatal: the damaged record either still
                // verifies intact or is skipped and counted
                let (got, corrupt) = payloads(&log);
                assert!(
                    corrupt <= 1 && got == [A, B, C][corrupt..],
                    "byte {i}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn sync_window_is_trimmed_and_falls_back_to_the_default() {
        assert_eq!(sync_every(None), DEFAULT_SYNC_EVERY);
        assert_eq!(sync_every(Some(" 8\n")), 8);
        assert_eq!(sync_every(Some("0")), 0);
        assert_eq!(sync_every(Some("-1")), DEFAULT_SYNC_EVERY);
        assert_eq!(sync_every(Some("often")), DEFAULT_SYNC_EVERY);
    }
}
