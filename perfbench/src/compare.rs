//! The compare step: two result files (parent and change), one verdict per
//! workload and metric.
//!
//! The rule for timed metrics: runs are paired by seed. The change has
//! *improved* a metric when it wins at least nine tenths of the pairs (ties
//! count for neither side) and its median differs from the parent's in the
//! better direction by more than the parent's own interquartile range. It
//! is *no-worse* when its median is within the metric's bound of the
//! parent's — unless either side's interquartile range is wider than the
//! bound, in which case the metric is *unresolved* (the runs cannot tell),
//! except when every change run reads better than every parent run. A
//! median worse by more than the bound is *regressed*. Per-layer timings
//! have no bound: they are improved, regressed (the mirror of the improved
//! rule) or unresolved. With fewer than ten pairs a timed metric is
//! unresolved. Sim-time figures and work counts are compared for exact
//! equality per seed.

use std::collections::BTreeMap;

use rome_server::json::{parse, Json};

use crate::metrics::{self, Better, Metric};

/// One run's metric values, as the result file records them.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub values: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Unresolved,
    Regressed,
    Identical,
    Changed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
            Verdict::Identical => "identical",
            Verdict::Changed => "changed",
        }
    }
}

/// Read a result file: one JSON record per line.
pub fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = parse(line).map_err(|e| format!("{path}: {e}"))?;
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: record without a workload"))?;
            let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
            let mut values = BTreeMap::new();
            if let Some(Json::Obj(members)) = v.get("metrics") {
                for (name, m) in members {
                    if let Some(x) = m.get("value").and_then(Json::as_f64) {
                        values.insert(name.clone(), x);
                    }
                }
            }
            Ok(Run {
                workload: workload.to_string(),
                seed,
                values,
            })
        })
        .collect()
}

/// Fewest seed pairs on which a timed metric gets a verdict.
const MIN_PAIRS: usize = 10;

fn is_better(m: &Metric, a: f64, b: f64) -> bool {
    match m.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Verdict for one metric from the seed-paired values of both sides.
pub fn verdict(m: &Metric, pairs: &[(f64, f64)]) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    if m.deterministic {
        return if pairs.iter().all(|(a, b)| a == b) {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let (mp, mc) = (metrics::median(&parent), metrics::median(&change));
    let iqr = |v: &[f64]| {
        let (q1, q3) = metrics::quartiles(v);
        q3 - q1
    };
    if pairs.len() < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (spread_p, spread_c) = (iqr(&parent), iqr(&change));
    let n = pairs.len() as f64;
    let wins = pairs.iter().filter(|(p, c)| is_better(m, *c, *p)).count() as f64;
    let losses = pairs.iter().filter(|(p, c)| is_better(m, *p, *c)).count() as f64;
    if wins >= 0.9 * n && is_better(m, mc, mp) && (mc - mp).abs() > spread_p {
        return Verdict::Improved;
    }
    let Some(bound) = m.bound else {
        return if losses >= 0.9 * n && is_better(m, mp, mc) && (mc - mp).abs() > spread_c {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    };
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| is_better(m, *c, *p)));
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    if (spread_p / scale > bound || spread_c / scale > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match m.better {
        Better::Lower => (mc - mp) / scale,
        Better::Higher => (mp - mc) / scale,
    };
    if worse_by <= bound || all_better {
        Verdict::NoWorse
    } else {
        Verdict::Regressed
    }
}

/// Compare two loaded result sets; returns the report lines and whether any
/// metric regressed or a work count changed.
pub fn compare(parent: &[Run], change: &[Run]) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<14} {:<30} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "parent_med", "change_med", "wins"
    )];
    let mut flagged = false;
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let by_seed = |runs: &[Run]| -> BTreeMap<u64, f64> {
                runs.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.values.get(m.name).map(|v| (r.seed, *v)))
                    .collect()
            };
            let (p, c) = (by_seed(parent), by_seed(change));
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(seed, a)| c.get(seed).map(|b| (*a, *b)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let v = verdict(m, &pairs);
            flagged |= matches!(v, Verdict::Regressed | Verdict::Changed);
            let wins = pairs.iter().filter(|(a, b)| is_better(m, *b, *a)).count();
            let med = |side: usize| {
                metrics::median(
                    &pairs
                        .iter()
                        .map(|x| if side == 0 { x.0 } else { x.1 })
                        .collect::<Vec<_>>(),
                )
            };
            lines.push(format!(
                "{:<14} {:<30} {:>14.6} {:>14.6} {:>3}/{:<3}  {}",
                workload,
                m.name,
                med(0),
                med(1),
                wins,
                pairs.len(),
                v.as_str()
            ));
        }
    }
    (lines, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        metrics::find(name).unwrap()
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let faster: Vec<f64> = BASE.iter().map(|x| x * 0.7).collect();
        let m = metric("rtt_p50_ms");
        assert_eq!(verdict(m, &pairs(&BASE, &faster)), Verdict::Improved);
        // The same shift on a higher-is-better metric is a loss.
        let t = metric("throughput_rps");
        assert_eq!(verdict(t, &pairs(&BASE, &faster)), Verdict::Regressed);
    }

    #[test]
    fn small_shifts_within_the_bound_are_no_worse() {
        let slower: Vec<f64> = BASE.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(metric("rtt_p50_ms"), &pairs(&BASE, &slower)),
            Verdict::NoWorse
        );
    }

    #[test]
    fn a_gain_that_loses_pairs_is_not_improved() {
        // Median moves down, but the change wins only 6 of 10 pairs.
        let mixed = [
            80.0, 80.0, 80.0, 80.0, 80.0, 80.0, 120.0, 120.0, 120.0, 120.0,
        ];
        let v = verdict(metric("rtt_p50_ms"), &pairs(&BASE, &mixed));
        assert_ne!(v, Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 100.0, 100.0,
        ];
        assert_eq!(
            verdict(metric("rtt_p50_ms"), &pairs(&BASE, &noisy)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        let slower: Vec<f64> = BASE.iter().map(|x| x * 1.5).collect();
        assert_eq!(
            verdict(metric("rtt_p50_ms"), &pairs(&BASE, &slower)),
            Verdict::Regressed
        );
    }

    #[test]
    fn per_layer_timings_without_a_bound() {
        let m = metric("mc.host_ns_per_req");
        let slower: Vec<f64> = BASE.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(m, &pairs(&BASE, &slower)), Verdict::Regressed);
        let same: Vec<f64> = BASE.iter().rev().copied().collect();
        assert_eq!(verdict(m, &pairs(&BASE, &same)), Verdict::Unresolved);
    }

    #[test]
    fn fewer_than_ten_pairs_resolve_nothing() {
        let slower: Vec<f64> = BASE.iter().map(|x| x * 2.0).collect();
        let m = metric("rtt_p50_ms");
        assert_eq!(
            verdict(m, &pairs(&BASE[..9], &slower[..9])),
            Verdict::Unresolved
        );
        assert_eq!(verdict(m, &pairs(&BASE, &slower)), Verdict::Regressed);
    }

    #[test]
    fn work_counts_compare_exactly() {
        let m = metric("engine.events_per_req");
        assert_eq!(
            verdict(m, &pairs(&[5.0, 7.0], &[5.0, 7.0])),
            Verdict::Identical
        );
        assert_eq!(
            verdict(m, &pairs(&[5.0, 7.0], &[5.0, 7.5])),
            Verdict::Changed
        );
    }

    #[test]
    fn compare_pairs_runs_by_workload_and_seed() {
        let run = |workload: &str, seed: u64, v: f64| Run {
            workload: workload.into(),
            seed,
            values: [("rtt_p50_ms".to_string(), v)].into_iter().collect(),
        };
        let parent: Vec<Run> = (0..10)
            .map(|s| run("hbm4_lines", s, BASE[s as usize]))
            .collect();
        let change: Vec<Run> = (0..10)
            .map(|s| run("hbm4_lines", s, BASE[s as usize] * 2.0))
            .collect();
        let (lines, flagged) = compare(&parent, &change);
        assert!(flagged);
        assert!(lines[1].contains("rtt_p50_ms") && lines[1].ends_with("regressed"));
    }
}
