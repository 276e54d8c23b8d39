//! `perfbench compare PARENT.json… -- CHANGE.json…`: the regression and
//! gain verdicts of a change against its parent, one row per workload and
//! end-to-end metric.
//!
//! Each results file is one invocation of the harness, so each contributes
//! one reported value per (workload, metric) — the statistic the metric
//! names, as on the harness's JSON line. Files are paired in the order
//! given: run parent and change alternately and list them in that order.
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither side) and the medians differ by more than the
//!   parent's own spread (the distance between its quartiles);
//! * **unresolved** — the run-to-run spread of either side is wider than
//!   the metric's bound, and not every change run beats every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound (and by more than the metric's absolute floor);
//! * **no worse** — otherwise.

use crate::manifest::{Manifest, MetricDef};
use crate::stats::{Bound, RunResult, Summary};
use serde_json::Value;

/// A verdict for one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairs rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison of one metric's per-file values.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Summary of the parent's values.
    pub parent: Summary,
    /// Summary of the change's values.
    pub change: Summary,
    /// Share of pairs the change won.
    pub won: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares per-run values of a metric under `bound`.
pub fn judge(parent: &[f64], change: &[f64], bound: &Bound) -> Option<Comparison> {
    let (ps, cs) = (Summary::of(parent)?, Summary::of(change)?);
    let better = |c: f64, p: f64| bound.better.worsening(p, c) < 0.0;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let won = wins as f64 / pairs as f64;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if won >= 0.9
        && better(cs.median, ps.median)
        && (cs.median - ps.median).abs() > ps.q3 - ps.q1
    {
        Verdict::Improved
    } else if (ps.spread() > bound.share || cs.spread() > bound.share) && !all_better {
        Verdict::Unresolved
    } else if bound.exceeded(ps.median, cs.median) {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    Some(Comparison {
        parent: ps,
        change: cs,
        won,
        verdict,
    })
}

fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    v["runs"]
        .as_array()
        .ok_or(format!("{path}: no 'runs' list"))?
        .iter()
        .map(|r| RunResult::from_json(r).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// The reported value of `def` in the untraced run of `workload` in each
/// file.
fn values(files: &[Vec<RunResult>], workload: &str, def: &MetricDef) -> Vec<f64> {
    files
        .iter()
        .filter_map(|runs| {
            let run = runs.iter().find(|r| r.workload == workload && !r.trace)?;
            Some(run.metric(&def.name)?.value).filter(|v| v.is_finite())
        })
        .collect()
}

/// Prints the verdict table; `Ok(false)` when any metric regressed.
pub fn compare(parent: &[String], change: &[String], manifest: &Manifest) -> Result<bool, String> {
    let parent = parent
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let change = change
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "{:<12} {:<15} {:<5} {:>32} {:>32} {:>8} {:>5}  verdict",
        "workload",
        "metric",
        "unit",
        "parent: median [q1, q3]",
        "change: median [q1, q3]",
        "change",
        "won"
    );
    let mut clean = true;
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let (pv, cv) = (
                values(&parent, workload, def),
                values(&change, workload, def),
            );
            let Some(c) = judge(&pv, &cv, &bound) else {
                println!(
                    "{workload:<12} {:<15} {:<5} not in both sides",
                    def.name, def.unit
                );
                continue;
            };
            clean &= c.verdict != Verdict::Regressed;
            let side =
                |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
            println!(
                "{workload:<12} {:<15} {:<5} {:>32} {:>32} {:>+7.1}% {:>4.0}%  {}",
                def.name,
                def.unit,
                side(&c.parent),
                side(&c.change),
                (c.change.median / c.parent.median - 1.0) * 100.0,
                c.won * 100.0,
                c.verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        share: 0.10,
        floor: 0.0,
    };

    #[test]
    fn verdicts_follow_the_pairs_and_bound_rules() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&parent, &faster, &LOWER).unwrap().verdict,
            Verdict::Improved
        );
        let same: Vec<f64> = parent.iter().map(|x| x * 1.01).collect();
        let c = judge(&parent, &same, &LOWER).unwrap();
        assert_eq!(c.verdict, Verdict::NoWorse);
        assert_eq!(c.won, 0.0);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &slower, &LOWER).unwrap().verdict,
            Verdict::Regressed
        );
        // A parent spread wider than the bound leaves a 5% change unresolved...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&noisy, &shifted, &LOWER).unwrap().verdict,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let apart: Vec<f64> = noisy.iter().map(|_| 6.0).collect();
        assert_eq!(
            judge(&noisy, &apart, &LOWER).unwrap().verdict,
            Verdict::Improved
        );
        assert!(judge(&[], &parent, &LOWER).is_none());
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let higher = Bound {
            better: Better::Higher,
            ..LOWER
        };
        let parent = [100.0; 10];
        let up = [130.0; 10];
        assert_eq!(
            judge(&parent, &up, &higher).unwrap().verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&up, &parent, &higher).unwrap().verdict,
            Verdict::Regressed
        );
    }
}
