//! Streaming aggregation: Welford mean/variance per
//! `(group, metric)` with normal-approximation 95% confidence
//! intervals.
//!
//! Aggregates are always computed by replaying results in sorted
//! `(group, replicate)` order, so the floating-point accumulation
//! order — and therefore every output bit — is independent of the
//! execution schedule. This is what makes
//! `run → kill → resume → aggregate` bit-identical to an uninterrupted
//! run.

use crate::exec::CellResult;
use std::collections::BTreeMap;

// The Welford accumulator lives in `fx_graph::stats` — one streaming
// statistics implementation shared with the percolation Monte-Carlo
// layer — and is re-exported here for spec stability.
pub use fx_graph::stats::Welford;

/// Aggregated statistics of one metric within one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAggregate {
    /// Group key (`graph|fault|algo`).
    pub group: String,
    /// Metric name.
    pub metric: String,
    /// The accumulated statistics.
    pub stats: Welford,
}

/// Aggregates results by `(group, metric)` in deterministic order.
///
/// Results are first sorted by `(group, replicate, key)`; every call
/// with the same result *set* therefore produces bit-identical
/// statistics, regardless of the order cells completed in.
///
/// **Failed-cell rule:** quarantined records (`failed != 0`) are
/// excluded entirely — they carry no metrics, only an error message,
/// and must not contribute rows (or zero-count groups) to the
/// aggregates. A campaign whose quarantined cells are later re-run to
/// success therefore aggregates bit-identically to one that never
/// failed.
pub fn aggregate(results: &[CellResult]) -> Vec<GroupAggregate> {
    let mut sorted: Vec<&CellResult> = results.iter().filter(|r| r.failed == 0).collect();
    sorted.sort_by(|a, b| (a.group(), a.replicate, &a.key).cmp(&(b.group(), b.replicate, &b.key)));
    // BTreeMap keyed by (group, metric-insertion-rank, metric): keeps
    // the output grouped and sorted, with metrics in first-seen order
    // inside each group so tables read like the cell metrics do.
    let mut rank: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut acc: BTreeMap<(String, usize, String), Welford> = BTreeMap::new();
    for r in sorted {
        let group = r.group();
        for (metric, value) in &r.metrics {
            if !value.is_finite() {
                continue; // a null/NaN metric must not poison the mean
            }
            let next_rank = rank.len();
            let metric_rank = *rank
                .entry((group.clone(), metric.clone()))
                .or_insert(next_rank);
            acc.entry((group.clone(), metric_rank, metric.clone()))
                .or_default()
                .push(*value);
        }
    }
    acc.into_iter()
        .map(|((group, _, metric), stats)| GroupAggregate {
            group,
            metric,
            stats,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(key: &str, graph: &str, replicate: usize, metrics: &[(&str, f64)]) -> CellResult {
        CellResult {
            key: key.to_string(),
            graph: graph.to_string(),
            fault: "none".into(),
            algo: "span".into(),
            replicate,
            seed: 0,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            wall_ms: 1.0,
            attempts: 1,
            ..CellResult::default()
        }
    }

    #[test]
    fn quarantined_results_are_excluded() {
        let mut results = vec![
            result("a|r0", "a", 0, &[("x", 1.0)]),
            result("a|r1", "a", 1, &[("x", 3.0)]),
        ];
        results[1].failed = 1;
        results[1].metrics.clear();
        results[1].error = "chaos: injected pre-algo panic".into();
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].stats.count, 1, "failed cell contributes nothing");
        assert_eq!(aggs[0].stats.mean(), 1.0);
    }

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert!(w.ci95_half_width() > 0.0);
    }

    #[test]
    fn aggregation_is_order_independent() {
        let mut results = vec![
            result("a|r0", "a", 0, &[("x", 1.0), ("y", 10.0)]),
            result("a|r1", "a", 1, &[("x", 2.0), ("y", 20.0)]),
            result("a|r2", "a", 2, &[("x", 4.0), ("y", 40.0)]),
            result("b|r0", "b", 0, &[("x", 7.0)]),
        ];
        let forward = aggregate(&results);
        results.reverse();
        let backward = aggregate(&results);
        assert_eq!(forward, backward, "must be schedule-independent");
        let x_a = forward
            .iter()
            .find(|a| a.group.starts_with("a|") && a.metric == "x")
            .unwrap();
        assert_eq!(x_a.stats.count, 3);
        assert!((x_a.stats.mean() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_keep_first_seen_order_within_group() {
        let results = vec![result("a|r0", "a", 0, &[("zeta", 1.0), ("alpha", 2.0)])];
        let aggs = aggregate(&results);
        assert_eq!(aggs[0].metric, "zeta");
        assert_eq!(aggs[1].metric, "alpha");
    }

    #[test]
    fn non_finite_metrics_are_skipped() {
        let results = vec![
            result("a|r0", "a", 0, &[("x", f64::NAN)]),
            result("a|r1", "a", 1, &[("x", 3.0)]),
        ];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].stats.count, 1);
        assert_eq!(aggs[0].stats.mean(), 3.0);
    }
}
