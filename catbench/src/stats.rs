//! Small measurement helpers: percentiles, process memory, and the
//! provenance every result records.

use fx_store::fnv1a;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of repeated measurements, leaving out the first when at
/// least three ran: the first repetition in a process also pays for
/// first-touch page faults and allocator growth.
pub fn warm_median(values: &[f64]) -> f64 {
    median(if values.len() >= 3 {
        &values[1..]
    } else {
        values
    })
}

/// Times `f` repeatedly — at least `min_samples` times and until
/// `min_secs` have passed, at most `max_samples` times — and returns
/// the median duration in seconds.
pub fn median_secs(
    min_samples: usize,
    max_samples: usize,
    min_secs: f64,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_samples
        && (samples.len() < min_samples || started.elapsed().as_secs_f64() < min_secs)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a over the sources the benchmark builds (`crates/`,
    /// `vendor/`, `specs/`): identifies the program version where no
    /// git metadata exists.
    pub source_digest: String,
    /// The bench ledger's host fingerprint: FNV-1a of host name, CPU
    /// model and core count (`results/BENCH_e2e.json` keys machines by
    /// it).
    pub host_fingerprint: String,
    /// Cores the process may use.
    pub nproc: usize,
}

impl Provenance {
    /// Collects the provenance of a run started from `root`.
    pub fn collect(root: &Path) -> Provenance {
        // only ask git inside a git checkout: elsewhere it would walk up
        // into whatever repository encloses the directory
        let git_rev = root
            .join(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(root)
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let mut files = Vec::new();
        for dir in ["crates", "vendor", "specs"] {
            collect_files(&root.join(dir), &mut files);
        }
        files.sort();
        let mut digest_input = Vec::new();
        for f in &files {
            digest_input.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            digest_input.extend_from_slice(&std::fs::read(f).unwrap_or_default());
        }
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        Provenance {
            git_rev,
            source_digest: format!("{:016x}", fnv1a(&digest_input)),
            host_fingerprint: host_fingerprint(nproc),
            nproc,
        }
    }
}

/// Regular files under `dir`, skipping build output directories.
fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// The ledger's host fingerprint (same inputs and hash as the
/// `criterion` shim's ledger key).
fn host_fingerprint(cores: usize) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown-cpu".to_string());
    format!(
        "{:016x}",
        fnv1a(format!("{host}\x1f{cpu}\x1f{cores}").as_bytes())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(warm_median(&[9.0, 1.0]), 5.0);
        assert_eq!(warm_median(&[9.0, 1.0, 2.0]), 1.5);
    }
}
