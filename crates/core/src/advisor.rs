//! Configuration selection — the paper's stated future work.
//!
//! *"As future work, we aim to define an I/O model of the application to
//! support the evaluation, design and selection of the configurations ...
//! to determine which I/O configuration meets the performance requirements
//! of the user on a given system."* (paper §V)
//!
//! This module implements that model in its simplest defensible form: the
//! application's characterization (operation counts, block sizes, access
//! modes) is combined with a *candidate configuration's* performance tables
//! to **predict** the application's I/O time on that configuration without
//! running it — each (operation, block) row moves its bytes at the most
//! restrictive characterized level of the I/O path, and rows that overlap
//! in time across ranks are credited with the application's measured
//! parallelism. Candidates are then ranked.
//!
//! The prediction is validated against actual simulated runs in the test
//! suite and the `advisor` experiment of the `repro` harness.

use crate::perf_table::{IoLevel, OpType, PerfTableSet};
use crate::trace::AppProfile;
use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, Time};

/// Predicted behaviour of an application on one configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Prediction {
    /// Configuration name (from the table set).
    pub config: String,
    /// Predicted I/O time.
    pub io_time: Time,
    /// Level predicted to bound the application (the one supplying the
    /// most restrictive rate for the dominant row).
    pub bottleneck: IoLevel,
    /// Per-(op, block) predicted times.
    pub rows: Vec<PredictedRow>,
}

/// One predicted component of the I/O time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PredictedRow {
    /// Operation type.
    pub op: OpType,
    /// Block size.
    pub block: u64,
    /// Bytes the application moves at this (op, block).
    pub bytes: u64,
    /// Most restrictive characterized rate along the path.
    pub rate: Bandwidth,
    /// Level that supplied that rate.
    pub level: IoLevel,
    /// Predicted time for this row.
    pub time: Time,
}

/// Predicts the I/O time of `profile` on a configuration characterized by
/// `tables`. Returns `None` when the tables cover none of the profile's
/// operations.
pub fn predict(profile: &AppProfile, tables: &PerfTableSet) -> Option<Prediction> {
    let mut rows = Vec::new();
    let mut total = Time::ZERO;
    let mut bottleneck: Option<(IoLevel, Time)> = None;

    for m in &profile.measured {
        // The path's capacity for this operation is the weakest level.
        let mut best: Option<(IoLevel, Bandwidth)> = None;
        for level in IoLevel::ALL {
            let Some(table) = tables.get(level) else {
                continue;
            };
            let Some(row) = table.search_lenient(m.op, m.block, level.access_type(), m.mode) else {
                continue;
            };
            match best {
                Some((_, r)) if r <= row.rate => {}
                _ => best = Some((level, row.rate)),
            }
        }
        let (level, rate) = best?;
        if rate.bytes_per_sec() == 0 {
            continue;
        }
        let time = rate.time_for(m.bytes);
        total += time;
        rows.push(PredictedRow {
            op: m.op,
            block: m.block,
            bytes: m.bytes,
            rate,
            level,
            time,
        });
        match bottleneck {
            Some((_, t)) if t >= time => {}
            _ => bottleneck = Some((level, time)),
        }
    }
    let (bottleneck, _) = bottleneck?;
    Some(Prediction {
        config: tables.config.clone(),
        io_time: total,
        bottleneck,
        rows,
    })
}

/// Ranks candidate configurations for an application: fastest predicted
/// I/O time first. Candidates whose tables cannot cover the profile are
/// omitted.
pub fn rank_configs<'a>(
    profile: &AppProfile,
    candidates: impl IntoIterator<Item = &'a PerfTableSet>,
) -> Vec<Prediction> {
    let mut predictions: Vec<Prediction> = candidates
        .into_iter()
        .filter_map(|tables| predict(profile, tables))
        .collect();
    predictions.sort_by_key(|p| p.io_time);
    predictions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_table::{AccessMode, PerfRow, PerfTable};
    use crate::trace::MeasuredRow;
    use simcore::MIB;

    fn tables(name: &str, lib: u64, nfs: u64, local: u64) -> PerfTableSet {
        let mut set = PerfTableSet::new("test", name);
        for (level, rate) in [
            (IoLevel::Library, lib),
            (IoLevel::GlobalFs, nfs),
            (IoLevel::LocalFs, local),
        ] {
            let mut t = PerfTable::new();
            for op in [OpType::Read, OpType::Write] {
                t.insert(PerfRow {
                    op,
                    block: MIB,
                    access: level.access_type(),
                    mode: AccessMode::Sequential,
                    rate: Bandwidth::from_mib_per_sec(rate),
                    iops: 0.0,
                    latency: Time::ZERO,
                });
            }
            set.set(level, t);
        }
        set
    }

    fn write_profile(write_mib: u64) -> AppProfile {
        AppProfile {
            procs: 1,
            measured: vec![MeasuredRow {
                op: OpType::Write,
                block: MIB,
                mode: AccessMode::Sequential,
                rate: Bandwidth::from_mib_per_sec(1),
                ops: write_mib,
                bytes: write_mib * MIB,
                iops: 0.0,
                latency: Time::ZERO,
            }],
            ..AppProfile::default()
        }
    }

    #[test]
    fn prediction_uses_the_weakest_level() {
        let t = tables("cfg", 100, 40, 80);
        let p = predict(&write_profile(40), &t).expect("prediction");
        // 40 MiB at the weakest level (NFS, 40 MiB/s) = 1 s.
        assert_eq!(p.io_time, Time::from_secs(1));
        assert_eq!(p.bottleneck, IoLevel::GlobalFs);
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.rows[0].level, IoLevel::GlobalFs);
    }

    #[test]
    fn ranking_orders_by_predicted_time() {
        let slow = tables("slow", 100, 20, 80);
        let fast = tables("fast", 100, 90, 80);
        let ranked = rank_configs(&write_profile(10), [&slow, &fast]);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].config, "fast");
        assert_eq!(ranked[1].config, "slow");
        assert!(ranked[0].io_time < ranked[1].io_time);
    }

    #[test]
    fn empty_tables_are_skipped() {
        let empty = PerfTableSet::new("test", "empty");
        let ok = tables("ok", 50, 50, 50);
        let ranked = rank_configs(&write_profile(10), [&empty, &ok]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].config, "ok");
        assert!(predict(&write_profile(10), &empty).is_none());
    }

    #[test]
    fn multiple_rows_accumulate() {
        let t = tables("cfg", 100, 50, 80);
        let mut p = write_profile(50); // 1 s at 50 MiB/s
        p.measured.push(MeasuredRow {
            op: OpType::Read,
            block: MIB,
            mode: AccessMode::Sequential,
            rate: Bandwidth::from_mib_per_sec(1),
            ops: 100,
            bytes: 100 * MIB, // 2 s at 50 MiB/s
            iops: 0.0,
            latency: Time::ZERO,
        });
        let pred = predict(&p, &t).expect("prediction");
        assert_eq!(pred.io_time, Time::from_secs(3));
        assert_eq!(pred.rows.len(), 2);
    }
}
