//! JSONL checkpoint journal: one [`CellResult`] per line, appended as
//! cells complete, so a killed campaign loses at most the cells that
//! were mid-flight — `resume` skips everything already on disk.
//!
//! The journal is a keyed [`fx_store::log`] record log: each line
//! carries its cell's [`store_key`](crate::store_key::store_key),
//! which covers the canonical scenario, fault, algorithm, replicate,
//! cell seed and every result-affecting parameter, so a record only
//! ever matches the cell that produced it. The log owns the line format
//! (`{"crc":"…","key":"…","cell":{…}}`), crash recovery (torn tail
//! ignored and truncated, corrupt lines skipped and counted), append
//! retries and the `FXNET_JOURNAL_SYNC` fsync window. A skipped cell
//! simply re-runs on resume, like an unseen cell. This module adds
//! what is particular to the journal:
//! * a record without a key (every line of a journal written before
//!   lines were keyed) cannot show which seed and params produced it:
//!   it is skipped without counting as corrupt, and its cell re-runs;
//! * duplicate keys: a **successful** record always beats a
//!   quarantined (`failed = 1`) one; among successes the **first**
//!   occurrence wins (cells are pure functions of their identity, so
//!   any duplicate is an identical re-run); among failures the record
//!   with the most cumulative `attempts` wins, so resume keeps
//!   advancing the retry clock;
//! * merging shard journals.

use crate::exec::CellResult;
use fx_chaos::Site;
use fx_store::log::{self, Line, RecordLog, DEFAULT_IO_RETRIES};
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};

/// A campaign's journal file.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    /// Salt for the `io_error` chaos decisions of appends.
    salt: u64,
}

/// What [`Journal::load_report`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// The deduplicated journaled results.
    pub results: Vec<CellResult>,
    /// The store key each of `results` was journaled under.
    pub keys: Vec<u64>,
    /// Complete lines skipped because they were corrupt (checksum
    /// mismatch or unparseable). Their cells re-run on resume.
    pub corrupt: usize,
}

impl LoadReport {
    /// Adds `r`, journaled under `key`, under the journal's duplicate
    /// rule: success beats failure; first success wins; the
    /// most-attempted failure wins. `index` maps keys to positions.
    fn insert(&mut self, index: &mut HashMap<u64, usize>, key: u64, r: CellResult) {
        match index.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(self.results.len());
                self.results.push(r);
                self.keys.push(key);
            }
            Entry::Occupied(slot) => {
                let current = &mut self.results[*slot.get()];
                if current.failed != 0 && (r.failed == 0 || r.attempts > current.attempts) {
                    *current = r;
                }
            }
        }
    }
}

/// Parses one journal line: `Some` for a keyed record, `None` for a
/// keyless one. A line that holds no record is an error.
fn parse_line(line: &str) -> Result<Option<(u64, CellResult)>, String> {
    match log::unseal(line)? {
        Line::Keyed { key, payload } => Ok(Some((key, fx_json::from_str(payload)?))),
        Line::Keyless(record) => fx_json::from_str::<CellResult>(record).map(|_| None),
    }
}

impl Journal {
    /// Journal at `path` (conventionally `<output>/journal.jsonl`),
    /// with the default append retry budget. The file is created by
    /// the first append.
    pub fn new(path: PathBuf) -> Self {
        Journal {
            log: RecordLog::new(path, DEFAULT_IO_RETRIES),
            salt: 0,
        }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Loads all journaled results (empty when the file is absent).
    pub fn load(&self) -> Result<Vec<CellResult>, String> {
        self.load_report().map(|r| r.results)
    }

    /// Loads all journaled results with their keys, plus the
    /// corrupt-line tally (surfaced by `report --health`).
    pub fn load_report(&self) -> Result<LoadReport, String> {
        let mut report = LoadReport::default();
        let mut index = HashMap::new();
        let corrupt = self
            .log
            .read(|line| {
                if let Some((key, r)) = parse_line(line)? {
                    report.insert(&mut index, key, r);
                }
                Ok(())
            })
            .map_err(|e| format!("cannot read {}: {e}", self.path().display()))?;
        report.corrupt = corrupt;
        Ok(report)
    }

    /// This journal, opened for appending now (creating parent
    /// directories and truncating a torn tail) with an explicit append
    /// retry budget and a decision `salt` for the `io_error` chaos
    /// site. The engine passes the number of already-journaled records
    /// as the salt, so a resumed run draws fresh injection decisions
    /// instead of deterministically replaying the append failures that
    /// lost a cell in the first place.
    pub fn appender_with(&self, io_retries: usize, salt: u64) -> Result<Journal, String> {
        let journal = Journal {
            log: RecordLog::new(self.path().to_path_buf(), io_retries),
            salt,
        };
        journal
            .log
            .open_for_append()
            .map_err(|e| format!("cannot open {}: {e}", self.path().display()))?;
        Ok(journal)
    }

    /// Replaces the journal's contents with `loaded`'s records, each
    /// sealed under its key — the repair that drops corrupt and
    /// keyless lines, and the output step of [`merge_journals`]. The
    /// text goes to a temporary file renamed over the journal, so an
    /// interrupted rewrite never leaves it truncated: journal lines are
    /// paid-for work.
    pub fn rewrite(&self, loaded: &LoadReport) -> Result<(), String> {
        let path = self.path();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        let mut text = String::new();
        for (key, r) in loaded.keys.iter().zip(&loaded.results) {
            text.push_str(&log::seal(*key, &fx_json::to_string(r)));
            text.push('\n');
        }
        let tmp = path.with_extension("jsonl.rewrite-tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot move rewritten journal into {}: {e}", path.display()))
    }

    /// Appends one result under its cell's store `key`. A failing
    /// write — real or injected through the `io_error` chaos site — is
    /// retried up to the journal's I/O budget; after exhaustion the
    /// error is returned and the caller decides (the engine warns and
    /// moves on: the cell simply re-runs on resume).
    pub fn append(&self, key: u64, result: &CellResult) -> Result<(), String> {
        let identity = fx_store::fnv1a(result.key.as_bytes()) ^ self.salt;
        self.log
            .append(key, &fx_json::to_string(result), Site::IoError, identity)
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

/// What [`merge_journals`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Result lines read across all input journals.
    pub read: usize,
    /// Unique cells written to the merged journal.
    pub unique: usize,
    /// Indices (into the input list) of journals that were absent and
    /// merged around. Empty for a complete merge.
    pub missing: Vec<usize>,
}

/// Merges shard journals into one with the default lenient policy:
/// absent inputs are warned about and merged around (their indices
/// are listed in [`MergeSummary::missing`]) — a lost shard machine
/// must not invalidate the shards that did report.
pub fn merge_journals(inputs: &[PathBuf], output: &Path) -> Result<MergeSummary, String> {
    merge_journals_checked(inputs, output, false)
}

/// Merges shard journals into one: reads every present input
/// (tolerating torn/corrupt lines and dropping keyless ones like
/// [`Journal::load`]), dedups by key under the journal duplicate rule
/// (success beats failure, first success wins), and writes the union
/// to `output`, each record under its key. Inputs are read fully
/// before the output is written, so `output` may be one of the inputs.
///
/// `require_complete` restores the hard failure on absent inputs
/// (the `--require-complete` CLI flag).
pub fn merge_journals_checked(
    inputs: &[PathBuf],
    output: &Path,
    require_complete: bool,
) -> Result<MergeSummary, String> {
    let missing: Vec<usize> = inputs
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.exists())
        .map(|(i, _)| i)
        .collect();
    if !missing.is_empty() {
        let listing = missing
            .iter()
            .map(|&i| format!("{} ({})", i, inputs[i].display()))
            .collect::<Vec<_>>()
            .join(", ");
        if require_complete {
            return Err(format!(
                "missing shard journal(s): {listing} (drop --require-complete to merge without them)"
            ));
        }
        eprintln!("campaign: merging without missing shard journal(s): {listing}");
    }
    let mut read = 0usize;
    let mut index = HashMap::new();
    let mut merged = LoadReport::default();
    for (i, input) in inputs.iter().enumerate() {
        if missing.contains(&i) {
            continue;
        }
        let loaded = Journal::new(input.clone()).load_report()?;
        read += loaded.results.len();
        for (key, r) in loaded.keys.into_iter().zip(loaded.results) {
            merged.insert(&mut index, key, r);
        }
    }
    let unique = merged.results.len();
    Journal::new(output.to_path_buf()).rewrite(&merged)?;
    Ok(MergeSummary {
        read,
        unique,
        missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(key: &str, x: f64) -> CellResult {
        CellResult {
            key: key.to_string(),
            graph: "torus:4,4".into(),
            fault: "none".into(),
            algo: "span".into(),
            replicate: 0,
            seed: 1,
            metrics: vec![("x".into(), x)],
            wall_ms: 0.5,
            phase_ms: vec![("build".into(), 0.1), ("algo".into(), 0.4)],
            attempts: 1,
            ..CellResult::default()
        }
    }

    fn failed_result(key: &str, attempts: u64) -> CellResult {
        let mut r = result(key, 0.0);
        r.metrics.clear();
        r.failed = 1;
        r.error = "boom".into();
        r.attempts = attempts;
        r
    }

    /// A record's store key in these tests: a hash of its cell key.
    fn key_of(r: &CellResult) -> u64 {
        fx_store::fnv1a(r.key.as_bytes())
    }

    fn append(j: &Journal, r: &CellResult) {
        j.append(key_of(r), r).unwrap();
    }

    fn sealed(r: &CellResult) -> String {
        log::seal(key_of(r), &fx_json::to_string(r))
    }

    fn temp_journal(name: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("fx-campaign-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::new(dir.join("journal.jsonl"))
    }

    /// Removes the directories of `journals`, once a test has passed.
    fn remove(journals: &[&Journal]) {
        for j in journals {
            let _ = std::fs::remove_dir_all(j.path().parent().unwrap());
        }
    }

    /// The loaded keys of `j` and its corrupt-line count.
    fn keys(j: &Journal) -> (Vec<String>, usize) {
        let report = j.load_report().unwrap();
        let keys = report.results.into_iter().map(|r| r.key).collect();
        (keys, report.corrupt)
    }

    #[test]
    fn append_load_roundtrip_with_dedup() {
        let j = temp_journal("roundtrip");
        append(&j, &result("a", 1.0));
        append(&j, &result("b", 2.0));
        append(&j, &result("a", 99.0)); // duplicate: first wins
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].key, "a");
        assert_eq!(loaded[0].metric("x"), Some(1.0));
        assert_eq!(loaded[1].key, "b");
        remove(&[&j]);
    }

    #[test]
    fn missing_file_is_empty() {
        let j = temp_journal("missing");
        assert!(j.load().unwrap().is_empty());
    }

    #[test]
    fn success_beats_failure_and_failures_keep_max_attempts() {
        let j = temp_journal("quarantine-dedup");
        append(&j, &failed_result("a", 3));
        append(&j, &result("a", 5.0)); // later success wins
        append(&j, &failed_result("b", 3));
        append(&j, &failed_result("b", 6)); // more attempts wins
        append(&j, &failed_result("b", 4)); // stale: ignored
        append(&j, &result("c", 1.0));
        append(&j, &failed_result("c", 9)); // failure never beats success
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 3);
        let by_key = |k: &str| loaded.iter().find(|r| r.key == k).unwrap();
        assert_eq!(by_key("a").failed, 0);
        assert_eq!(by_key("a").metric("x"), Some(5.0));
        assert_eq!(by_key("b").failed, 1);
        assert_eq!(by_key("b").attempts, 6);
        assert_eq!(by_key("c").failed, 0);
        remove(&[&j]);
    }

    #[test]
    fn appender_truncates_torn_line_so_resume_appends_cleanly() {
        let j = temp_journal("torn-append");
        append(&j, &result("a", 1.0));
        // kill mid-append: torn fragment with no trailing newline
        let mut raw = std::fs::read(j.path()).unwrap();
        raw.extend_from_slice(b"{\"crc\":\"0123456789abcdef\",\"cell\":{\"key\":\"b\",\"gra");
        std::fs::write(j.path(), &raw).unwrap();
        // resume: opening the appender drops the fragment at once, so
        // the next record cannot merge onto it
        let w = j.appender_with(DEFAULT_IO_RETRIES, 0).unwrap();
        assert!(std::fs::read(j.path()).unwrap().ends_with(b"\n"));
        append(&w, &result("c", 3.0));
        assert_eq!(keys(&j), (vec!["a".into(), "c".into()], 0));
        remove(&[&j]);
    }

    #[test]
    fn resume_survives_truncation_at_every_byte_of_the_last_record() {
        let j = temp_journal("exhaustive-trunc");
        append(&j, &result("a", 1.0));
        append(&j, &result("b", 2.0));
        let full = std::fs::read(j.path()).unwrap();
        let b_start = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // a kill mid-write can cut the file anywhere: sweep every cut
        // from losing a's newline through losing only b's
        for cut in (b_start - 1)..full.len() {
            std::fs::write(j.path(), &full[..cut]).unwrap();
            // the torn tail is neither kept nor counted...
            let kept = vec!["a".to_string(); usize::from(cut >= b_start)];
            assert_eq!(keys(&j), (kept.clone(), 0), "cut={cut}");
            // ...and resuming truncates it first, so c lands on a line
            // of its own
            let w = j.appender_with(DEFAULT_IO_RETRIES, 0).unwrap();
            append(&w, &result("c", 3.0));
            let expect = [kept, vec!["c".into()]].concat();
            assert_eq!(keys(&j), (expect, 0), "cut={cut}");
        }
        remove(&[&j]);
    }

    #[test]
    fn merge_unions_shard_journals_first_wins() {
        let a = temp_journal("merge-a");
        append(&a, &result("x", 1.0));
        append(&a, &result("y", 2.0));
        let b = temp_journal("merge-b");
        append(&b, &result("y", 99.0)); // duplicate of a's y
        append(&b, &result("z", 3.0));

        let out = temp_journal("merge-out");
        let summary = merge_journals(
            &[a.path().to_path_buf(), b.path().to_path_buf()],
            out.path(),
        )
        .unwrap();
        assert_eq!(
            summary,
            MergeSummary {
                read: 4,
                unique: 3,
                missing: vec![]
            }
        );
        let merged = out.load_report().unwrap();
        assert_eq!(merged.results.len(), 3);
        assert_eq!(merged.results[1].key, "y");
        assert_eq!(
            merged.results[1].metric("x"),
            Some(2.0),
            "first occurrence wins"
        );
        let carried: Vec<u64> = merged.results.iter().map(key_of).collect();
        assert_eq!(merged.keys, carried, "each record keeps its key");

        // merging in place (output == input) is safe
        let summary = merge_journals(
            &[out.path().to_path_buf(), a.path().to_path_buf()],
            out.path(),
        )
        .unwrap();
        assert_eq!(summary.unique, 3);
        assert_eq!(out.load().unwrap().len(), 3);
        remove(&[&a, &b, &out]);
    }

    #[test]
    fn merge_tolerates_missing_shards_unless_complete_required() {
        let a = temp_journal("merge-lenient-a");
        append(&a, &result("x", 1.0));
        let ghost = temp_journal("merge-lenient-ghost"); // never written
        let out = temp_journal("merge-lenient-out");
        let inputs = [
            a.path().to_path_buf(),
            ghost.path().to_path_buf(),
            ghost.path().with_extension("jsonl2"),
        ];
        let summary = merge_journals(&inputs, out.path()).unwrap();
        assert_eq!(summary.read, 1);
        assert_eq!(summary.unique, 1);
        assert_eq!(summary.missing, vec![1, 2], "absent inputs are listed");
        assert_eq!(out.load().unwrap().len(), 1);

        let err = merge_journals_checked(&inputs, out.path(), true).unwrap_err();
        assert!(err.contains("missing shard journal"), "{err}");
        remove(&[&a, &out]);
    }

    /// A record from before records were checksummed — a plain line,
    /// here also from before `phase_ms` existed — has no key, so it
    /// cannot show which seed and params produced it: it is skipped,
    /// not counted as corrupt, and its cell re-runs.
    #[test]
    fn pre_checksum_records_are_skipped_without_counting_as_corrupt() {
        let j = temp_journal("pre-phase-ms");
        std::fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        let mut line = fx_json::to_string(&result("a", 1.0));
        let cut = line.find(",\"phase_ms\"").unwrap();
        line.truncate(cut);
        line.push('}');
        std::fs::write(j.path(), format!("{line}\n")).unwrap();
        assert_eq!(keys(&j), (vec![], 0));
        // the re-run's keyed record is the one that loads
        append(&j, &result("a", 2.0));
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].metric("x"), Some(2.0));
        remove(&[&j]);
    }

    /// Every line of a journal written before journal lines were keyed
    /// — plain or sealed without a key — is skipped without counting
    /// as corrupt; keyed lines beside them load.
    #[test]
    fn keyless_records_are_skipped_and_keyed_ones_load() {
        let j = temp_journal("mixed-schema");
        std::fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        let plain = fx_json::to_string(&result("plain", 1.0));
        // as journals sealed lines before they carried keys
        let payload = fx_json::to_string(&result("keyless", 2.0));
        let crc = fx_store::fnv1a(payload.as_bytes());
        let keyless = format!("{{\"crc\":\"{crc:016x}\",\"cell\":{payload}}}");
        let keyed = sealed(&result("new", 3.0));
        std::fs::write(j.path(), format!("{plain}\n{keyless}\n{keyed}\n")).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].key, "new");
        assert_eq!(report.keys, vec![key_of(&report.results[0])]);
        remove(&[&j]);
    }

    #[test]
    fn torn_final_line_is_ignored_and_interior_corruption_is_skipped() {
        let j = temp_journal("torn");
        append(&j, &result("a", 1.0));
        // simulate a kill mid-write
        let mut raw = std::fs::read_to_string(j.path()).unwrap();
        raw.push_str("{\"crc\":\"00ff\",\"cell\":{\"key\":\"b\",");
        std::fs::write(j.path(), &raw).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 1);

        // interior corruption is skipped and counted, never fatal —
        // including a sealed line whose damaged seal makes it read as
        // keyless and then holds no record
        let good = sealed(&result("c", 3.0));
        let unsealed = good.replacen("crc", "crb", 1);
        std::fs::write(j.path(), format!("not json\n{unsealed}\n{good}\n")).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 2);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].key, "c");
        remove(&[&j]);
    }

    #[test]
    fn checksum_catches_a_value_swap_that_still_parses() {
        // a bit flip inside a JSON number yields a *parseable* record
        // with wrong data — exactly what the checksum exists to catch
        let j = temp_journal("value-swap");
        append(&j, &result("a", 1.0));
        append(&j, &result("b", 2.0));
        let text = std::fs::read_to_string(j.path()).unwrap();
        let tampered = text.replacen("\"seed\":1", "\"seed\":7", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(j.path(), tampered).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 1, "swap must be detected, not trusted");
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].key, "b");
        remove(&[&j]);
    }

    // NOTE: the bit-flip sweep runs in `fx_store::log`; the store runs
    // its own truncation sweep. Tests that turn chaos ON live in the root
    // package's `tests/chaos_invariant.rs` binary — the fx-chaos
    // config is process-global, and this unit-test binary runs tests
    // in parallel threads that must never see injected faults.
}
