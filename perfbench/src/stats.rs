//! Sample statistics, regression bounds and the results-file format.
//!
//! Every metric keeps its raw samples and their distribution: the median,
//! the quartiles, the sample count, and — once there are enough samples —
//! the highest percentile that still has at least ten samples beyond it.
//! Its reported value is one named statistic of what was measured.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so numbers printed here agree with any
//! script that re-derives them from the raw samples.

use serde_json::{Map, Number, Value};

/// Summary of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(p, value)` of the highest integer percentile with at least ten
    /// samples beyond it; `None` below eleven samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let median = median_sorted(&xs)?;
        let (q1, q3) = quartiles_sorted(&xs);
        Some(Summary {
            n: xs.len(),
            median,
            q1,
            q3,
            tail: tail_percentile_sorted(&xs),
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn median_sorted(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles`. One sample is its own quartiles.
fn quartiles_sorted(xs: &[f64]) -> (f64, f64) {
    let ld = xs.len();
    if ld < 2 {
        return (xs[0], xs[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest integer percentile `p` whose value (linear interpolation
/// between closest ranks) has at least ten samples strictly beyond its
/// rank. With ten or fewer samples no percentile qualifies.
fn tail_percentile_sorted(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    (1..100u32).rev().find_map(|p| {
        // Rank p/100 × (n − 1), kept in integer hundredths so the
        // qualifying cut-off is exact.
        let hundredths = p as usize * n.checked_sub(1)?;
        let below = hundredths / 100;
        (n - (below + 1) >= 10).then(|| {
            let frac = (hundredths % 100) as f64 / 100.0;
            let hi = xs[(below + 1).min(n - 1)];
            (p, xs[below] + (hi - xs[below]) * frac)
        })
    })
}

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `change` is than `parent`, in the metric's unit
    /// (positive = worse).
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        }
    }
}

/// A regression bound: the share of the parent's median by which a metric
/// may worsen, plus an absolute floor below which a worsening is noise
/// whatever its share (a 5 ms set-up that takes 6 ms is not a regression).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Direction of improvement.
    pub better: Better,
    /// Allowed relative worsening.
    pub share: f64,
    /// Allowed absolute worsening, in the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// Whether moving from `parent` to `change` exceeds the bound: the
    /// worsening must beat both the relative share and the absolute floor.
    pub fn exceeded(&self, parent: f64, change: f64) -> bool {
        let worse = self.better.worsening(parent, change);
        worse > self.share * parent.abs() && worse > self.floor
    }
}

/// The smallest of `xs` (NaN when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Given one row of per-item times per iteration, the sum over items of
/// each item's fastest time. On a shared host contention only ever adds
/// time, and it comes in bursts that hit some items of an iteration and
/// spare others; each item's minimum is the steadiest estimate of what
/// that item costs, and their sum of what an iteration costs.
pub fn item_min_sum(rows: &[Vec<f64>]) -> f64 {
    let items = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..items)
        .map(|i| {
            min(&rows
                .iter()
                .filter_map(|r| r.get(i).copied())
                .collect::<Vec<_>>())
        })
        .sum()
}

/// One metric in a results file: its reported value, the statistic that
/// value is, and the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSamples {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// How `value` derives from the measurements, e.g. `median`.
    pub statistic: String,
    /// The reported value.
    pub value: f64,
    /// Raw samples, in measurement order.
    pub samples: Vec<f64>,
}

/// One benchmark run (one workload, traced or not) in a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Whether every output matched.
    pub correct: bool,
    /// Items attempted (evaluations, cells or experiments).
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
    /// Every metric, in report order.
    pub metrics: Vec<MetricSamples>,
}

impl RunResult {
    /// The samples of metric `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricSamples> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// JSON form: raw samples plus their summary, so a reader needs no
    /// statistics code of its own.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut o = Map::new();
            o.insert("unit", Value::String(m.unit.clone()));
            o.insert("statistic", Value::String(m.statistic.clone()));
            o.insert("value", num(m.value));
            o.insert(
                "samples",
                Value::Array(m.samples.iter().map(|&x| num(x)).collect()),
            );
            if let Some(s) = Summary::of(&m.samples) {
                o.insert("n", Value::Number(Number::PosInt(s.n as u64)));
                o.insert("median", num(s.median));
                o.insert("q1", num(s.q1));
                o.insert("q3", num(s.q3));
                if let Some((p, v)) = s.tail {
                    o.insert(format!("p{p}"), num(v));
                }
            }
            metrics.insert(m.name.clone(), Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("workload", Value::String(self.workload.clone()));
        o.insert("trace", Value::Bool(self.trace));
        o.insert("correct", Value::Bool(self.correct));
        o.insert("attempted", Value::Number(Number::PosInt(self.attempted)));
        o.insert("failed", Value::Number(Number::PosInt(self.failed)));
        o.insert("metrics", Value::Object(metrics));
        Value::Object(o)
    }

    /// Parses [`RunResult::to_json`] output (summaries are recomputed from
    /// the samples).
    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run is missing '{k}'"));
        let metrics = field("metrics")?
            .as_object()
            .ok_or("'metrics' is not an object")?
            .iter()
            .map(|(name, m)| {
                let unit = m["unit"].as_str().ok_or(format!("{name}: no unit"))?;
                let statistic = m["statistic"]
                    .as_str()
                    .ok_or(format!("{name}: no statistic"))?;
                let value = m["value"].as_f64().ok_or(format!("{name}: no value"))?;
                let samples = m["samples"]
                    .as_array()
                    .ok_or(format!("{name}: no samples"))?
                    .iter()
                    .map(|x| x.as_f64().ok_or(format!("{name}: non-numeric sample")))
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(MetricSamples {
                    name: name.clone(),
                    unit: unit.to_string(),
                    statistic: statistic.to_string(),
                    value,
                    samples,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("'workload' is not a string")?
                .to_string(),
            trace: field("trace")?.as_bool().ok_or("'trace' is not a bool")?,
            correct: field("correct")?
                .as_bool()
                .ok_or("'correct' is not a bool")?,
            attempted: field("attempted")?.as_u64().ok_or("bad 'attempted'")?,
            failed: field("failed")?.as_u64().ok_or("bad 'failed'")?,
            metrics,
        })
    }
}

/// A JSON number for a measured value.
pub fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 2.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.spread() - 2.5 / 2.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        for n in 0..=10 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail_percentile_sorted(&xs), None, "n = {n}");
        }
        // Eleven samples: rank p/100 × 10 must stay below 1, so p = 9.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let (p, v) = tail_percentile_sorted(&xs).unwrap();
        assert_eq!(p, 9);
        assert!((v - 0.9).abs() < 1e-12);
        // 1000 samples: p99 sits at rank 989.01, leaving indices 990..=999
        // (ten samples) beyond it.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, v) = tail_percentile_sorted(&xs).unwrap();
        assert_eq!(p, 99);
        assert!((v - 989.01).abs() < 1e-9);
        // 902 is the smallest count with a p99: at 901 the rank is exactly
        // 891.00, leaving only indices 892..=900 (nine samples) beyond.
        let xs: Vec<f64> = (0..902).map(f64::from).collect();
        assert_eq!(tail_percentile_sorted(&xs).unwrap().0, 99);
        let xs: Vec<f64> = (0..901).map(f64::from).collect();
        assert_eq!(tail_percentile_sorted(&xs).unwrap().0, 98);
    }

    #[test]
    fn bounds_need_both_share_and_floor() {
        let b = Bound {
            better: Better::Lower,
            share: 0.10,
            floor: 0.02,
        };
        assert!(!b.exceeded(1.0, 1.09), "within share");
        assert!(b.exceeded(1.0, 1.11), "beyond share and floor");
        assert!(
            !b.exceeded(0.05, 0.06),
            "20% worse but under the 0.02 floor"
        );
        assert!(!b.exceeded(1.0, 0.5), "improvement");
        let h = Bound {
            better: Better::Higher,
            share: 0.10,
            floor: 0.0,
        };
        assert!(h.exceeded(100.0, 89.0));
        assert!(!h.exceeded(100.0, 120.0));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }

    #[test]
    fn item_minima_are_summed_across_iterations() {
        // Item 0 is fastest in the second iteration, item 1 in the first:
        // the sum (1.0 + 2.0) beats every whole iteration (3.5 and 3.25).
        let rows = vec![vec![1.5, 2.0], vec![1.0, 2.25]];
        assert_eq!(item_min_sum(&rows), 3.0);
        assert_eq!(item_min_sum(&[vec![0.5]]), 0.5);
        assert_eq!(item_min_sum(&[]), 0.0);
        assert_eq!(min(&[2.0, 0.5, 1.0]), 0.5);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn run_results_round_trip_through_json() {
        let run = RunResult {
            workload: "grid".into(),
            trace: false,
            correct: true,
            attempted: 40_000,
            failed: 0,
            metrics: vec![
                MetricSamples {
                    name: "wall_min_s".into(),
                    unit: "s".into(),
                    statistic: "sum of per-item minima".into(),
                    value: 3.0,
                    samples: vec![3.25, 3.5, 3.125],
                },
                MetricSamples {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    statistic: "median".into(),
                    value: 0.25,
                    samples: vec![0.25],
                },
            ],
        };
        let text = serde_json::to_string(&run.to_json()).unwrap();
        let back = RunResult::from_json(&serde_json::from_str::<Value>(&text).unwrap()).unwrap();
        assert_eq!(back, run);
        let v: Value = serde_json::from_str(&text).unwrap();
        let wall = &v["metrics"]["wall_min_s"];
        assert_eq!(wall["value"].as_f64(), Some(3.0));
        assert_eq!(wall["median"].as_f64(), Some(3.25));
        assert_eq!(wall["n"].as_u64(), Some(3));
        assert!(RunResult::from_json(&Value::Null).is_err());
    }
}
