//! `BENCHMARK.json`, compiled in: the workloads and metrics this harness
//! must produce, with each end-to-end metric's direction and bound.

use crate::stats::{Better, Bound};
use serde_json::Value;

/// The manifest text, as built.
pub const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One metric of the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction and bound (end-to-end metrics only).
    pub bound: Option<Bound>,
}

/// The parsed manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricDef>,
}

/// Smallest worsening that counts as a regression, per end-to-end metric,
/// whatever its share of the parent: timer and allocator noise on a short
/// set-up or a small heap is not a regression.
fn absolute_floor(name: &str) -> f64 {
    match name {
        "setup_s" => 0.02,
        "peak_rss_min_mb" => 4.0,
        _ => 0.0,
    }
}

fn metric_defs(v: &Value, key: &str, bounded: bool) -> Result<Vec<MetricDef>, String> {
    v[key]
        .as_array()
        .ok_or(format!("'{key}' is not a list"))?
        .iter()
        .map(|m| {
            let name = m["name"]
                .as_str()
                .ok_or(format!("{key}: metric without a name"))?;
            let unit = m["unit"].as_str().ok_or(format!("{name}: no unit"))?;
            let bound = if bounded {
                let better = m["better"].as_str().and_then(Better::parse);
                let share = m["bound"].as_f64();
                match (better, share) {
                    (Some(better), Some(share)) => Some(Bound {
                        better,
                        share,
                        floor: absolute_floor(name),
                    }),
                    _ => return Err(format!("{name}: needs 'better' and 'bound'")),
                }
            } else {
                None
            };
            Ok(MetricDef {
                name: name.to_string(),
                unit: unit.to_string(),
                bound,
            })
        })
        .collect()
}

impl Manifest {
    /// Parses manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let workloads = v["workloads"]
            .as_array()
            .ok_or("'workloads' is not a list")?
            .iter()
            .map(|w| w["name"].as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload has no name")?;
        Ok(Manifest {
            workloads,
            run_seconds: v["run_seconds"].as_f64().ok_or("no 'run_seconds'")?,
            end_to_end: metric_defs(&v, "end_to_end", true)?,
            per_layer: metric_defs(&v, "per_layer", false)?,
        })
    }

    /// The compiled-in manifest.
    pub fn built_in() -> Manifest {
        Manifest::parse(TEXT).expect("BENCHMARK.json is valid (checked by the smoke test)")
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
