//! JSONL checkpoint journal: one [`CellResult`] per line, appended as
//! cells complete, so a killed campaign loses at most the cells that
//! were mid-flight — `resume` skips everything already on disk.
//!
//! The journal is a keyless [`fx_store::log`] record log, which owns
//! the line format (`{"crc":"…","cell":{…}}`), crash recovery (torn
//! tail ignored and truncated, corrupt lines skipped and counted),
//! append retries and the `FXNET_JOURNAL_SYNC` fsync window. A
//! skipped cell simply re-runs on resume, like an unseen cell. This
//! module adds what is particular to the journal:
//! * pre-checksum journals (plain records) still load, so old
//!   campaigns resume unchanged;
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
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A campaign's journal file.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    /// Salt for the `io_error` chaos decisions of appends.
    salt: u64,
}

/// What [`Journal::load_report`] found on disk.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The deduplicated journaled results.
    pub results: Vec<CellResult>,
    /// Complete lines skipped because they were corrupt (checksum
    /// mismatch or unparseable). Their cells re-run on resume.
    pub corrupt: usize,
}

/// Parses one journal line: a sealed record, or a legacy plain record
/// from before records were checksummed.
fn parse_line(line: &str) -> Result<CellResult, String> {
    match log::unseal(line)? {
        Line::Sealed { payload, .. } => fx_json::from_str(payload),
        Line::Unsealed(plain) => fx_json::from_str(plain),
    }
}

/// Inserts `r` into the deduplicated result list under the journal's
/// duplicate rule: success beats failure; first success wins; the
/// most-attempted failure wins.
fn dedup_insert(seen: &mut HashMap<String, usize>, out: &mut Vec<CellResult>, r: CellResult) {
    match seen.get(&r.key) {
        None => {
            seen.insert(r.key.clone(), out.len());
            out.push(r);
        }
        Some(&i) => {
            let current = &out[i];
            let replace = if current.failed != 0 {
                r.failed == 0 || r.attempts > current.attempts
            } else {
                false
            };
            if replace {
                out[i] = r;
            }
        }
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

    /// Loads all journaled results plus the corrupt-line tally
    /// (surfaced by `report --health`).
    pub fn load_report(&self) -> Result<LoadReport, String> {
        let mut results: Vec<CellResult> = Vec::new();
        let mut seen: HashMap<String, usize> = HashMap::new();
        let corrupt = self
            .log
            .read(|line| {
                dedup_insert(&mut seen, &mut results, parse_line(line)?);
                Ok(())
            })
            .map_err(|e| format!("cannot read {}: {e}", self.path().display()))?;
        Ok(LoadReport { results, corrupt })
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

    /// Appends one result. A failing write — real or injected through
    /// the `io_error` chaos site — is retried up to the journal's I/O
    /// budget; after exhaustion the error is returned and the caller
    /// decides (the engine warns and moves on: the cell simply re-runs
    /// on resume).
    pub fn append(&self, result: &CellResult) -> Result<(), String> {
        let identity = fx_store::fnv1a(result.key.as_bytes()) ^ self.salt;
        self.log
            .append(None, &fx_json::to_string(result), Site::IoError, identity)
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
/// (tolerating torn/corrupt lines like [`Journal::load`]), dedups by
/// cell key under the journal duplicate rule (success beats failure,
/// first success wins), and writes the union to `output` in the
/// checksummed line format. Inputs are read fully before the output
/// is written, so `output` may be one of the inputs.
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
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut merged: Vec<CellResult> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if missing.contains(&i) {
            continue;
        }
        let results = Journal::new(input.clone()).load()?;
        read += results.len();
        for r in results {
            dedup_insert(&mut seen, &mut merged, r);
        }
    }
    let unique = merged.len();
    if let Some(parent) = output.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let mut text = String::new();
    for r in &merged {
        text.push_str(&log::seal(None, &fx_json::to_string(r)));
        text.push('\n');
    }
    // write-then-rename: an interrupted merge must never leave the
    // output (possibly one of the inputs) truncated — journal lines
    // are paid-for work
    let tmp = output.with_extension("jsonl.merge-tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, output)
        .map_err(|e| format!("cannot move merged journal into {}: {e}", output.display()))?;
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
            failed: 0,
            error: String::new(),
            attempts: 1,
            cache_hit: 0,
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

    fn sealed(r: &CellResult) -> String {
        log::seal(None, &fx_json::to_string(r))
    }

    fn temp_journal(name: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("fx-campaign-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::new(dir.join("journal.jsonl"))
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
        j.append(&result("a", 1.0)).unwrap();
        j.append(&result("b", 2.0)).unwrap();
        j.append(&result("a", 99.0)).unwrap(); // duplicate: first wins
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].key, "a");
        assert_eq!(loaded[0].metric("x"), Some(1.0));
        assert_eq!(loaded[1].key, "b");
    }

    #[test]
    fn missing_file_is_empty() {
        let j = temp_journal("missing");
        assert!(j.load().unwrap().is_empty());
    }

    #[test]
    fn success_beats_failure_and_failures_keep_max_attempts() {
        let j = temp_journal("quarantine-dedup");
        j.append(&failed_result("a", 3)).unwrap();
        j.append(&result("a", 5.0)).unwrap(); // later success wins
        j.append(&failed_result("b", 3)).unwrap();
        j.append(&failed_result("b", 6)).unwrap(); // more attempts wins
        j.append(&failed_result("b", 4)).unwrap(); // stale: ignored
        j.append(&result("c", 1.0)).unwrap();
        j.append(&failed_result("c", 9)).unwrap(); // failure never beats success
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 3);
        let by_key = |k: &str| loaded.iter().find(|r| r.key == k).unwrap();
        assert_eq!(by_key("a").failed, 0);
        assert_eq!(by_key("a").metric("x"), Some(5.0));
        assert_eq!(by_key("b").failed, 1);
        assert_eq!(by_key("b").attempts, 6);
        assert_eq!(by_key("c").failed, 0);
    }

    #[test]
    fn appender_truncates_torn_line_so_resume_appends_cleanly() {
        let j = temp_journal("torn-append");
        j.append(&result("a", 1.0)).unwrap();
        // kill mid-append: torn fragment with no trailing newline
        let mut raw = std::fs::read(j.path()).unwrap();
        raw.extend_from_slice(b"{\"crc\":\"0123456789abcdef\",\"cell\":{\"key\":\"b\",\"gra");
        std::fs::write(j.path(), &raw).unwrap();
        // resume: opening the appender drops the fragment at once, so
        // the next record cannot merge onto it
        let w = j.appender_with(DEFAULT_IO_RETRIES, 0).unwrap();
        assert!(std::fs::read(j.path()).unwrap().ends_with(b"\n"));
        w.append(&result("c", 3.0)).unwrap();
        assert_eq!(keys(&j), (vec!["a".into(), "c".into()], 0));
    }

    #[test]
    fn resume_survives_truncation_at_every_byte_of_the_last_record() {
        let j = temp_journal("exhaustive-trunc");
        j.append(&result("a", 1.0)).unwrap();
        j.append(&result("b", 2.0)).unwrap();
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
            w.append(&result("c", 3.0)).unwrap();
            let expect = [kept, vec!["c".into()]].concat();
            assert_eq!(keys(&j), (expect, 0), "cut={cut}");
        }
    }

    #[test]
    fn merge_unions_shard_journals_first_wins() {
        let a = temp_journal("merge-a");
        a.append(&result("x", 1.0)).unwrap();
        a.append(&result("y", 2.0)).unwrap();
        let b = temp_journal("merge-b");
        b.append(&result("y", 99.0)).unwrap(); // duplicate of a's y
        b.append(&result("z", 3.0)).unwrap();

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
        let merged = out.load().unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[1].key, "y");
        assert_eq!(merged[1].metric("x"), Some(2.0), "first occurrence wins");

        // merging in place (output == input) is safe
        let summary = merge_journals(
            &[out.path().to_path_buf(), a.path().to_path_buf()],
            out.path(),
        )
        .unwrap();
        assert_eq!(summary.unique, 3);
        assert_eq!(out.load().unwrap().len(), 3);
    }

    #[test]
    fn merge_tolerates_missing_shards_unless_complete_required() {
        let a = temp_journal("merge-lenient-a");
        a.append(&result("x", 1.0)).unwrap();
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
    }

    #[test]
    fn journals_without_phase_ms_still_load() {
        // a journal written before phase_ms existed — resume must not
        // orphan its cells. Legacy journals are also pre-checksum:
        // plain records with no crc wrapper.
        let j = temp_journal("pre-phase-ms");
        std::fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        let mut line = fx_json::to_string(&result("a", 1.0));
        let cut = line.find(",\"phase_ms\"").unwrap();
        line.truncate(cut);
        line.push('}');
        std::fs::write(j.path(), format!("{line}\n")).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].key, "a");
        assert!(loaded[0].phase_ms.is_empty());
        assert_eq!(loaded[0].failed, 0, "legacy records are successes");
    }

    #[test]
    fn legacy_plain_records_load_alongside_checksummed_ones() {
        let j = temp_journal("mixed-schema");
        std::fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        // a legacy line followed by a v2 line
        let legacy = fx_json::to_string(&result("old", 1.0));
        let v2 = sealed(&result("new", 2.0));
        std::fs::write(j.path(), format!("{legacy}\n{v2}\n")).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].key, "old");
        assert_eq!(report.results[1].key, "new");
    }

    #[test]
    fn torn_final_line_is_ignored_and_interior_corruption_is_skipped() {
        let j = temp_journal("torn");
        j.append(&result("a", 1.0)).unwrap();
        // simulate a kill mid-write
        let mut raw = std::fs::read_to_string(j.path()).unwrap();
        raw.push_str("{\"crc\":\"00ff\",\"cell\":{\"key\":\"b\",");
        std::fs::write(j.path(), &raw).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.len(), 1);

        // interior corruption is skipped and counted, never fatal —
        // including a sealed line whose damaged seal sends it down the
        // legacy plain-record path
        let good = sealed(&result("c", 3.0));
        let unsealed = good.replacen("crc", "crb", 1);
        std::fs::write(j.path(), format!("not json\n{unsealed}\n{good}\n")).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 2);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].key, "c");
    }

    #[test]
    fn checksum_catches_a_value_swap_that_still_parses() {
        // a bit flip inside a JSON number yields a *parseable* record
        // with wrong data — exactly what the checksum exists to catch
        let j = temp_journal("value-swap");
        j.append(&result("a", 1.0)).unwrap();
        j.append(&result("b", 2.0)).unwrap();
        let text = std::fs::read_to_string(j.path()).unwrap();
        let tampered = text.replacen("\"seed\":1", "\"seed\":7", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(j.path(), tampered).unwrap();
        let report = j.load_report().unwrap();
        assert_eq!(report.corrupt, 1, "swap must be detected, not trusted");
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].key, "b");
    }

    // NOTE: the bit-flip sweep runs in `fx_store::log`, for keyed and
    // keyless lines; the keyed truncation sweep runs against the
    // store. Tests that turn chaos ON live in the root
    // package's `tests/chaos_invariant.rs` binary — the fx-chaos
    // config is process-global, and this unit-test binary runs tests
    // in parallel threads that must never see injected faults.
}
