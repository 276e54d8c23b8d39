//! Phase 3 — evaluation (paper §III-C, Figs. 9–11).
//!
//! Runs the application on a configuration, collects the paper's metrics
//! (execution time, I/O time, IOPs, latency, throughput), and generates the
//! **used-percentage table**: for every application-level measurement the
//! characterized transfer rate is looked up at each I/O-path level
//! (Fig. 11 search) and the usage is `measured / characterized × 100`
//! (Fig. 10). Values above 100% mean the application is not limited at
//! that level (e.g. it is served from buffer/cache, or aggregates several
//! components the single-level characterization cannot see).

use crate::perf_table::{IoLevel, OpType, PerfTableSet};
use crate::trace::{AppProfile, ProfileSink};
use cluster::{ClusterMachine, ClusterSpec, ConfigError, IoConfig};
use mpisim::Runtime;
use serde::{Deserialize, Serialize};
use simcore::{Abort, Bandwidth, Fault, FaultEvent, FaultSchedule, Time, WatchdogSpec};
use storage::RebuildReport;
use workloads::Scenario;

/// Why an evaluation could not produce a report.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The cluster configuration failed validation.
    Config(ConfigError),
    /// The application run was aborted by the watchdog.
    Aborted {
        /// The application that was running.
        app: String,
        /// Why the watchdog stopped it.
        abort: Abort,
    },
    /// The op program was structurally invalid — it referenced unknown
    /// ranks, mismatched its placement, or deadlocked. Deterministic:
    /// retrying the same program cannot succeed, so campaign workers
    /// classify this as a permanent cell failure without burning their
    /// panic-retry budget.
    Program {
        /// The application whose program was invalid.
        app: String,
        /// The structural defect.
        fault: mpisim::ProgramFault,
    },
}

impl From<ConfigError> for EvalError {
    fn from(e: ConfigError) -> Self {
        EvalError::Config(e)
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            EvalError::Aborted { app, abort } => {
                write!(f, "evaluation of '{app}' aborted: {abort}")
            }
            EvalError::Program { app, fault } => {
                write!(f, "invalid op program in '{app}': {fault}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The fault condition an evaluation runs under — the resilience axis of
/// the methodology. `Healthy` reproduces the paper's measurements; the
/// other variants re-run the same workload while the I/O system is
/// recovering from a component failure, so the report can state how much
/// of the healthy capacity survives.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum FaultScenario {
    /// No faults (the paper's baseline).
    #[default]
    Healthy,
    /// A member disk of the server volume fails at `at` and is never
    /// replaced: the array serves the whole run degraded.
    Degraded {
        /// Member index within the server volume.
        disk: usize,
        /// When the member fails.
        at: Time,
    },
    /// A member fails at `fail_at` and a replacement arrives at
    /// `replace_at`: the background rebuild competes with the workload.
    Rebuilding {
        /// Member index within the server volume.
        disk: usize,
        /// When the member fails.
        fail_at: Time,
        /// When the hot-spare arrives and the resilver starts.
        replace_at: Time,
    },
    /// A PFS I/O server fails at `at` and never comes back: reads and
    /// writes fail over to surviving replica holders for the whole run.
    PfsDegraded {
        /// Index of the failing PFS server.
        server: usize,
        /// When the server fails.
        at: Time,
    },
    /// A PFS I/O server fails at `fail_at` and recovers at `recover_at`:
    /// the recovered server resyncs the writes it missed.
    PfsRecovered {
        /// Index of the failing PFS server.
        server: usize,
        /// When the server fails.
        fail_at: Time,
        /// When the server comes back and the resync runs.
        recover_at: Time,
    },
    /// Any explicit schedule (stall windows, limping disks, lossy
    /// networks, ...), with a label for the report.
    Custom {
        /// Report label, e.g. `"stall 2s"`.
        label: String,
        /// The events to inject.
        schedule: FaultSchedule,
    },
}

impl FaultScenario {
    /// Report label for this scenario.
    pub fn label(&self) -> &str {
        match self {
            FaultScenario::Healthy => "healthy",
            FaultScenario::Degraded { .. } => "degraded",
            FaultScenario::Rebuilding { .. } => "rebuilding",
            FaultScenario::PfsDegraded { .. } => "pfs-degraded",
            FaultScenario::PfsRecovered { .. } => "pfs-recovered",
            FaultScenario::Custom { label, .. } => label,
        }
    }

    /// The fault schedule this scenario injects.
    pub fn schedule(&self) -> FaultSchedule {
        match self {
            FaultScenario::Healthy => FaultSchedule::none(),
            FaultScenario::Degraded { disk, at } => FaultSchedule::new(vec![FaultEvent {
                at: *at,
                fault: Fault::DiskFail { disk: *disk },
            }]),
            FaultScenario::Rebuilding {
                disk,
                fail_at,
                replace_at,
            } => FaultSchedule::new(vec![
                FaultEvent {
                    at: *fail_at,
                    fault: Fault::DiskFail { disk: *disk },
                },
                FaultEvent {
                    at: *replace_at,
                    fault: Fault::DiskReplace { disk: *disk },
                },
            ]),
            FaultScenario::PfsDegraded { server, at } => FaultSchedule::new(vec![FaultEvent {
                at: *at,
                fault: Fault::PfsServerFail { server: *server },
            }]),
            FaultScenario::PfsRecovered {
                server,
                fail_at,
                recover_at,
            } => FaultSchedule::new(vec![
                FaultEvent {
                    at: *fail_at,
                    fault: Fault::PfsServerFail { server: *server },
                },
                FaultEvent {
                    at: *recover_at,
                    fault: Fault::PfsServerRecover { server: *server },
                },
            ]),
            FaultScenario::Custom { schedule, .. } => schedule.clone(),
        }
    }
}

/// Evaluation options.
#[derive(Clone, Debug, Default)]
pub struct EvalOptions {
    /// Fault condition to run under (default: healthy).
    pub faults: FaultScenario,
    /// Watchdog budgets applied to the run (`None`: none).
    pub watchdog: Option<WatchdogSpec>,
}

/// One row of the used-percentage table.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UsageRow {
    /// Operation type.
    pub op: OpType,
    /// Application block size.
    pub block: u64,
    /// Bytes the application moved at this block size.
    pub bytes: u64,
    /// Application-level measured rate.
    pub measured: Bandwidth,
    /// I/O-path level compared against.
    pub level: IoLevel,
    /// Characterized rate selected by the Fig. 11 search.
    pub characterized: Bandwidth,
    /// `measured / characterized × 100`, or `None` when the characterized
    /// rate is zero (a fully degraded level): the ratio is undefined and
    /// renders as `n/a`, never `inf`/`NaN`.
    pub used_pct: Option<f64>,
}

/// Usage of one workload-labelled section (MADbench2 S/W/C) at one level.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MarkerUsageRow {
    /// Marker id.
    pub marker: u32,
    /// Operation type.
    pub op: OpType,
    /// Mean block size within the section.
    pub block: u64,
    /// Measured rate within the section.
    pub measured: Bandwidth,
    /// Level compared against.
    pub level: IoLevel,
    /// Characterized rate.
    pub characterized: Bandwidth,
    /// Usage percentage; `None` when the characterized rate is zero (see
    /// [`UsageRow::used_pct`]).
    pub used_pct: Option<f64>,
}

/// A typed annotation the evaluation attaches to its report when a value
/// could not be computed (rather than silently rendering a bogus number).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EvalNote {
    /// The Fig. 11 search selected a characterized row whose transfer rate
    /// is zero (a fully degraded level), so the used percentage for this
    /// `(op, block, level)` cell is undefined and renders `n/a`.
    ZeroCharacterizedRate {
        /// Operation type of the affected usage row.
        op: OpType,
        /// Application block size of the affected usage row.
        block: u64,
        /// I/O-path level whose characterized rate was zero.
        level: IoLevel,
    },
}

impl std::fmt::Display for EvalNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalNote::ZeroCharacterizedRate { op, block, level } => write!(
                f,
                "characterized {op} rate at {} is zero for {} blocks: usage is n/a",
                level.label(),
                simcore::fmt_bytes(*block)
            ),
        }
    }
}

/// The outcome of evaluating one application on one configuration.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Cluster name.
    pub cluster: String,
    /// Configuration name.
    pub config: String,
    /// Application name.
    pub app: String,
    /// The application profile collected during the run.
    pub profile: AppProfile,
    /// Execution time (wall).
    pub exec_time: Time,
    /// I/O time of the slowest rank.
    pub io_time: Time,
    /// Application-level aggregate write rate.
    pub write_rate: Bandwidth,
    /// Application-level aggregate read rate.
    pub read_rate: Bandwidth,
    /// Per-(op, block, level) usage rows.
    pub usage: Vec<UsageRow>,
    /// Per-marker usage rows.
    pub marker_usage: Vec<MarkerUsageRow>,
    /// Label of the fault scenario the run executed under.
    pub scenario: String,
    /// mdtest-class metadata operations executed across all ranks (zero
    /// for pure data-path workloads).
    pub meta_ops: u64,
    /// I/O operations that exhausted their NFS retry budget.
    pub io_errors: u64,
    /// RPC retransmissions across all clients (NFS and PFS).
    pub client_retries: u64,
    /// PFS operations that fell back to a surviving replica holder.
    pub pfs_failovers: u64,
    /// Bytes replayed to recovered PFS servers by background resync.
    pub pfs_resync_bytes: u64,
    /// Rebuild progress, if the scenario replaced a failed member. The
    /// rebuild is driven to completion after the workload finishes, so
    /// `finished` is always set and `duration` reports the full window.
    pub rebuild: Option<RebuildReport>,
    /// Typed annotations for values the run could not compute (e.g. a
    /// zero-rate characterized row making a used percentage undefined).
    /// Empty for every healthy, fully characterized run.
    pub notes: Vec<EvalNote>,
}

// Serialization is hand-written (not derived) for one reason: `notes`,
// `meta_ops`, `pfs_failovers`, and `pfs_resync_bytes` are omitted when
// empty/zero.
// Fault-free runs therefore serialize byte-identically to reports produced
// before the fields existed, which keeps persisted campaign checkpoints
// stable, and older checkpoint payloads (no such keys) still deserialize.
impl Serialize for EvalReport {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("cluster", Serialize::to_value(&self.cluster));
        m.insert("config", Serialize::to_value(&self.config));
        m.insert("app", Serialize::to_value(&self.app));
        m.insert("profile", Serialize::to_value(&self.profile));
        m.insert("exec_time", Serialize::to_value(&self.exec_time));
        m.insert("io_time", Serialize::to_value(&self.io_time));
        m.insert("write_rate", Serialize::to_value(&self.write_rate));
        m.insert("read_rate", Serialize::to_value(&self.read_rate));
        m.insert("usage", Serialize::to_value(&self.usage));
        m.insert("marker_usage", Serialize::to_value(&self.marker_usage));
        m.insert("scenario", Serialize::to_value(&self.scenario));
        if self.meta_ops != 0 {
            m.insert("meta_ops", Serialize::to_value(&self.meta_ops));
        }
        m.insert("io_errors", Serialize::to_value(&self.io_errors));
        m.insert("client_retries", Serialize::to_value(&self.client_retries));
        if self.pfs_failovers != 0 {
            m.insert("pfs_failovers", Serialize::to_value(&self.pfs_failovers));
        }
        if self.pfs_resync_bytes != 0 {
            m.insert(
                "pfs_resync_bytes",
                Serialize::to_value(&self.pfs_resync_bytes),
            );
        }
        m.insert("rebuild", Serialize::to_value(&self.rebuild));
        if !self.notes.is_empty() {
            m.insert("notes", Serialize::to_value(&self.notes));
        }
        serde::Value::Object(m)
    }
}

impl Deserialize for EvalReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| v.get(name).unwrap_or(&serde::Value::Null);
        Ok(EvalReport {
            cluster: Deserialize::from_value(field("cluster"))?,
            config: Deserialize::from_value(field("config"))?,
            app: Deserialize::from_value(field("app"))?,
            profile: Deserialize::from_value(field("profile"))?,
            exec_time: Deserialize::from_value(field("exec_time"))?,
            io_time: Deserialize::from_value(field("io_time"))?,
            write_rate: Deserialize::from_value(field("write_rate"))?,
            read_rate: Deserialize::from_value(field("read_rate"))?,
            usage: Deserialize::from_value(field("usage"))?,
            marker_usage: Deserialize::from_value(field("marker_usage"))?,
            scenario: Deserialize::from_value(field("scenario"))?,
            meta_ops: match field("meta_ops") {
                serde::Value::Null => 0,
                other => Deserialize::from_value(other)?,
            },
            io_errors: Deserialize::from_value(field("io_errors"))?,
            client_retries: Deserialize::from_value(field("client_retries"))?,
            pfs_failovers: match field("pfs_failovers") {
                serde::Value::Null => 0,
                other => Deserialize::from_value(other)?,
            },
            pfs_resync_bytes: match field("pfs_resync_bytes") {
                serde::Value::Null => 0,
                other => Deserialize::from_value(other)?,
            },
            rebuild: Deserialize::from_value(field("rebuild"))?,
            notes: match field("notes") {
                serde::Value::Null => Vec::new(),
                other => Deserialize::from_value(other)?,
            },
        })
    }
}

impl EvalReport {
    /// Bytes-weighted mean usage for an operation at a level — the single
    /// number the paper's Tables III/IV/VI/VII report per cell. Rows whose
    /// usage is undefined (zero characterized rate) are excluded from the
    /// mean; the summary is `None` when no row has a defined usage.
    pub fn usage_summary(&self, op: OpType, level: IoLevel) -> Option<f64> {
        let rows: Vec<(&UsageRow, f64)> = self
            .usage
            .iter()
            .filter(|u| u.op == op && u.level == level)
            .filter_map(|u| u.used_pct.map(|pct| (u, pct)))
            .collect();
        if rows.is_empty() {
            return None;
        }
        let total: u64 = rows.iter().map(|(u, _)| u.bytes).sum();
        if total == 0 {
            return None;
        }
        Some(
            rows.iter()
                .map(|(u, pct)| pct * u.bytes as f64 / total as f64)
                .sum(),
        )
    }

    /// Whether any usage row exists for `(op, level)` — distinguishes "not
    /// measured" (`-` in tables) from "measured but undefined" (`n/a`).
    pub fn has_usage_rows(&self, op: OpType, level: IoLevel) -> bool {
        self.usage.iter().any(|u| u.op == op && u.level == level)
    }

    /// Usage of a marker section at a level (paper Tables IX/X/XI cells).
    /// `None` when the section was not measured at this level *or* its
    /// usage is undefined (zero characterized rate).
    pub fn marker_usage_of(&self, marker: u32, op: OpType, level: IoLevel) -> Option<f64> {
        self.marker_usage
            .iter()
            .find(|m| m.marker == marker && m.op == op && m.level == level)
            .and_then(|m| m.used_pct)
    }

    /// Whether a marker usage row exists for `(marker, op, level)` — see
    /// [`Self::has_usage_rows`].
    pub fn has_marker_usage_row(&self, marker: u32, op: OpType, level: IoLevel) -> bool {
        self.marker_usage
            .iter()
            .any(|m| m.marker == marker && m.op == op && m.level == level)
    }

    /// Aggregate metadata rate in operations per second over the whole
    /// run — the number an mdtest row reports. Zero when the workload
    /// performed no metadata operations.
    pub fn meta_ops_per_sec(&self) -> f64 {
        if self.exec_time == Time::ZERO {
            0.0
        } else {
            self.meta_ops as f64 / self.exec_time.as_secs_f64()
        }
    }

    /// The fraction of execution time spent in I/O.
    pub fn io_fraction(&self) -> f64 {
        if self.exec_time == Time::ZERO {
            0.0
        } else {
            self.io_time.as_secs_f64() / self.exec_time.as_secs_f64()
        }
    }
}

/// Generates the usage rows for a profile against characterized tables —
/// the Fig. 10 algorithm, separated from the run for testability.
pub fn usage_table(profile: &AppProfile, tables: &PerfTableSet) -> Vec<UsageRow> {
    let mut out = Vec::new();
    for m in &profile.measured {
        for level in IoLevel::ALL {
            let Some(table) = tables.get(level) else {
                continue;
            };
            let Some(row) = table.search_lenient(m.op, m.block, level.access_type(), m.mode) else {
                continue;
            };
            let characterized = row.rate;
            // A zero characterized rate (fully degraded level) makes the
            // ratio undefined: report `None`, never inf/NaN.
            let used_pct = (characterized.bytes_per_sec() != 0).then(|| {
                m.rate.bytes_per_sec() as f64 / characterized.bytes_per_sec() as f64 * 100.0
            });
            out.push(UsageRow {
                op: m.op,
                block: m.block,
                bytes: m.bytes,
                measured: m.rate,
                level,
                characterized,
                used_pct,
            });
        }
    }
    out
}

/// Generates per-marker usage rows.
pub fn marker_usage_table(profile: &AppProfile, tables: &PerfTableSet) -> Vec<MarkerUsageRow> {
    let mut out = Vec::new();
    for m in &profile.per_marker {
        if m.ops == 0 {
            continue;
        }
        let block = m.bytes / m.ops;
        let mode = match m.op {
            OpType::Read => profile.mode_read,
            OpType::Write => profile.mode_write,
        };
        for level in IoLevel::ALL {
            let Some(table) = tables.get(level) else {
                continue;
            };
            let Some(row) = table.search_lenient(m.op, block, level.access_type(), mode) else {
                continue;
            };
            let used_pct = (row.rate.bytes_per_sec() != 0)
                .then(|| m.rate.bytes_per_sec() as f64 / row.rate.bytes_per_sec() as f64 * 100.0);
            out.push(MarkerUsageRow {
                marker: m.marker,
                op: m.op,
                block,
                measured: m.rate,
                level,
                characterized: row.rate,
                used_pct,
            });
        }
    }
    out
}

/// Phase 3: runs `scenario` on `(spec, config)` and evaluates it against
/// the configuration's characterized `tables`.
pub fn evaluate(
    spec: &ClusterSpec,
    config: &IoConfig,
    scenario: Scenario,
    tables: &PerfTableSet,
    opts: &EvalOptions,
) -> Result<EvalReport, EvalError> {
    let app = scenario.name.clone();
    let ranks = scenario.ranks();
    let mut machine = ClusterMachine::try_new(spec, config)?;
    machine.install_faults(opts.faults.schedule())?;
    let programs = scenario.install(&mut machine);
    let placement = spec.placement(ranks);
    let mut sink = ProfileSink::new(ranks);
    let stats = Runtime::default()
        .run_supervised(
            &mut machine,
            &placement,
            programs,
            &mut sink,
            opts.watchdog.as_ref().map(WatchdogSpec::arm),
        )
        .map_err(|e| match e {
            mpisim::RunError::Aborted(abort) => EvalError::Aborted {
                app: app.clone(),
                abort,
            },
            mpisim::RunError::Invalid(fault) => EvalError::Program {
                app: app.clone(),
                fault,
            },
        })?;
    let meta_ops: u64 = stats.per_rank.iter().map(|r| r.meta_ops).sum();
    let profile = sink.finish();

    // Settle faults scheduled after the last I/O op (e.g. a replacement
    // or PFS server recovery arriving once the workload is quiescent),
    // then let any in-progress resilver drain so the report shows a
    // finite rebuild window.
    let settle_at = opts
        .faults
        .schedule()
        .events()
        .iter()
        .map(|e| e.at)
        .max()
        .map_or(profile.exec_time, |last| last.max(profile.exec_time));
    machine.apply_faults_up_to(settle_at);
    let rebuild = match machine.rebuild_report() {
        Some(r) if r.finished.is_none() => {
            machine.finish_rebuild(settle_at);
            machine.rebuild_report()
        }
        other => other,
    };

    let usage = usage_table(&profile, tables);
    let marker_usage = marker_usage_table(&profile, tables);
    let notes = usage_notes(&usage, &marker_usage);
    Ok(EvalReport {
        cluster: spec.name.clone(),
        config: config.name.clone(),
        app,
        exec_time: profile.exec_time,
        io_time: profile.io_time,
        write_rate: profile.write_rate(),
        read_rate: profile.read_rate(),
        usage,
        marker_usage,
        profile,
        scenario: opts.faults.label().to_string(),
        meta_ops,
        io_errors: machine.io_errors(),
        client_retries: machine.client_retries(),
        pfs_failovers: machine.pfs_failovers(),
        pfs_resync_bytes: machine.pfs_resync_bytes(),
        rebuild,
        notes,
    })
}

/// The typed notes implied by undefined usage rows (deduplicated, in row
/// order).
pub fn usage_notes(usage: &[UsageRow], marker_usage: &[MarkerUsageRow]) -> Vec<EvalNote> {
    let mut notes: Vec<EvalNote> = Vec::new();
    let undefined = usage
        .iter()
        .filter(|u| u.used_pct.is_none())
        .map(|u| (u.op, u.block, u.level))
        .chain(
            marker_usage
                .iter()
                .filter(|m| m.used_pct.is_none())
                .map(|m| (m.op, m.block, m.level)),
        );
    for (op, block, level) in undefined {
        let note = EvalNote::ZeroCharacterizedRate { op, block, level };
        if !notes.contains(&note) {
            notes.push(note);
        }
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charact::{characterize_system, CharacterizeOptions};
    use crate::perf_table::{AccessMode, AccessType, PerfRow, PerfTable};
    use crate::trace::MeasuredRow;
    use cluster::{presets, DeviceLayout, IoConfigBuilder};
    use simcore::MIB;
    use workloads::{BtClass, BtIo, BtSubtype};

    fn fake_tables(rate_mib: u64) -> PerfTableSet {
        let mut set = PerfTableSet::new("test", "JBOD");
        for level in IoLevel::ALL {
            let mut t = PerfTable::new();
            for op in [OpType::Read, OpType::Write] {
                for mode in [
                    AccessMode::Sequential,
                    AccessMode::Strided,
                    AccessMode::Random,
                ] {
                    t.insert(PerfRow {
                        op,
                        block: MIB,
                        access: level.access_type(),
                        mode,
                        rate: Bandwidth::from_mib_per_sec(rate_mib),
                        iops: 0.0,
                        latency: Time::ZERO,
                    });
                }
            }
            set.set(level, t);
        }
        set
    }

    fn fake_profile(rate_mib: u64) -> AppProfile {
        AppProfile {
            procs: 1,
            measured: vec![MeasuredRow {
                op: OpType::Write,
                block: MIB,
                mode: AccessMode::Sequential,
                rate: Bandwidth::from_mib_per_sec(rate_mib),
                ops: 10,
                bytes: 10 * MIB,
                iops: 10.0,
                latency: Time::from_millis(1),
            }],
            ..AppProfile::default()
        }
    }

    #[test]
    fn usage_is_measured_over_characterized() {
        let tables = fake_tables(100);
        let profile = fake_profile(50);
        let rows = usage_table(&profile, &tables);
        assert_eq!(rows.len(), 3, "one row per level");
        for r in &rows {
            let pct = r.used_pct.expect("nonzero characterized rate");
            assert!((pct - 50.0).abs() < 1e-9, "usage {pct}");
        }
    }

    #[test]
    fn usage_above_100_when_cache_beats_characterization() {
        let tables = fake_tables(100);
        let profile = fake_profile(250);
        let rows = usage_table(&profile, &tables);
        assert!(rows
            .iter()
            .all(|r| (r.used_pct.unwrap() - 250.0).abs() < 1e-9));
    }

    #[test]
    fn zero_characterized_rate_yields_undefined_usage_not_nan() {
        let tables = fake_tables(0);
        let profile = fake_profile(50);
        let rows = usage_table(&profile, &tables);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.used_pct.is_none()));
        let notes = usage_notes(&rows, &[]);
        assert_eq!(notes.len(), 3, "one note per level: {notes:?}");
        assert!(matches!(
            notes[0],
            EvalNote::ZeroCharacterizedRate {
                op: OpType::Write,
                ..
            }
        ));
        // The rendered form never contains inf/NaN.
        let text = notes.iter().map(|n| n.to_string()).collect::<String>();
        assert!(text.contains("n/a"), "{text}");
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
    }

    #[test]
    fn usage_summary_skips_undefined_rows() {
        let mut report = ior_read_eval(FaultScenario::Healthy);
        report.usage = usage_table(&fake_profile(50), &fake_tables(100));
        // Poison one level with an undefined row: the other levels still
        // summarize, the poisoned one returns None.
        for u in report.usage.iter_mut() {
            if u.level == IoLevel::GlobalFs {
                u.used_pct = None;
            }
        }
        assert!(report
            .usage_summary(OpType::Write, IoLevel::Library)
            .is_some());
        assert!(report
            .usage_summary(OpType::Write, IoLevel::GlobalFs)
            .is_none());
        assert!(report.has_usage_rows(OpType::Write, IoLevel::GlobalFs));
        assert!(!report.has_usage_rows(OpType::Read, IoLevel::GlobalFs));
    }

    #[test]
    fn empty_notes_are_omitted_from_serialized_reports() {
        let report = ior_read_eval(FaultScenario::Healthy);
        assert!(report.notes.is_empty());
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("\"notes\""),
            "healthy reports serialize without a notes key (checkpoint byte stability)"
        );
        // Round trip (also the path for pre-notes checkpoint payloads).
        let back: EvalReport = serde_json::from_str(&json).unwrap();
        assert!(back.notes.is_empty());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn nonempty_notes_round_trip() {
        let mut report = ior_read_eval(FaultScenario::Healthy);
        report.notes = vec![EvalNote::ZeroCharacterizedRate {
            op: OpType::Write,
            block: MIB,
            level: IoLevel::GlobalFs,
        }];
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"notes\""), "{json}");
        let back: EvalReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.notes, report.notes);
    }

    #[test]
    fn end_to_end_btio_eval_on_test_cluster() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick()).unwrap();
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(4)
            .gflops(50.0);
        let report = evaluate(
            &spec,
            &config,
            bt.scenario(),
            &tables,
            &EvalOptions::default(),
        )
        .expect("healthy evaluation succeeds");
        assert!(report.exec_time > Time::ZERO);
        assert!(report.io_time > Time::ZERO);
        assert!(report.io_time <= report.exec_time);
        assert!(report.write_rate.bytes_per_sec() > 0);
        assert!(!report.usage.is_empty());
        let s = report.usage_summary(OpType::Write, IoLevel::Library);
        assert!(s.is_some());
        assert!(s.unwrap() > 0.0);
        assert!(report.io_fraction() > 0.0 && report.io_fraction() <= 1.0);
    }

    #[test]
    fn full_subtype_beats_simple_on_io_time() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let tables = fake_tables(100); // usage table irrelevant here
        let run = |subtype| {
            let bt = BtIo::new(BtClass::S, 4, subtype).with_dumps(4).gflops(50.0);
            evaluate(
                &spec,
                &config,
                bt.scenario(),
                &tables,
                &EvalOptions::default(),
            )
            .expect("evaluation succeeds")
        };
        let full = run(BtSubtype::Full);
        let simple = run(BtSubtype::Simple);
        assert!(
            simple.io_time > full.io_time,
            "simple {:?} must exceed full {:?} (paper's headline result)",
            simple.io_time,
            full.io_time
        );
        assert!(simple.exec_time > full.exec_time);
    }

    #[test]
    fn marker_usage_lookup() {
        let tables = fake_tables(100);
        let mut profile = fake_profile(50);
        profile.per_marker = vec![crate::trace::MarkerRates {
            marker: 1,
            op: OpType::Write,
            rate: Bandwidth::from_mib_per_sec(25),
            bytes: 10 * MIB,
            ops: 10,
        }];
        let rows = marker_usage_table(&profile, &tables);
        assert_eq!(rows.len(), 3);
        assert!((rows[0].used_pct.unwrap() - 25.0).abs() < 1e-9);
        assert_eq!(rows[0].block, MIB);
    }

    #[test]
    fn usage_handles_missing_tables_gracefully() {
        let mut tables = fake_tables(100);
        tables.tables.remove(&IoLevel::LocalFs);
        let rows = usage_table(&fake_profile(50), &tables);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn access_type_is_exported() {
        // Silence the unused-import lint meaningfully: levels map to types.
        assert_eq!(IoLevel::LocalFs.access_type(), AccessType::Local);
    }

    #[test]
    fn fault_scenarios_compile_to_schedules() {
        assert!(FaultScenario::Healthy.schedule().is_empty());
        assert_eq!(FaultScenario::default(), FaultScenario::Healthy);
        let d = FaultScenario::Degraded {
            disk: 2,
            at: Time::from_secs(1),
        };
        assert_eq!(d.label(), "degraded");
        assert_eq!(d.schedule().events().len(), 1);
        let r = FaultScenario::Rebuilding {
            disk: 0,
            fail_at: Time::from_secs(1),
            replace_at: Time::from_secs(3),
        };
        assert_eq!(r.label(), "rebuilding");
        let events = r.schedule().events().to_vec();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].fault,
            simcore::Fault::DiskFail { disk: 0 }
        ));
        assert!(matches!(
            events[1].fault,
            simcore::Fault::DiskReplace { disk: 0 }
        ));
        let c = FaultScenario::Custom {
            label: "stall 2s".to_string(),
            schedule: FaultSchedule::none(),
        };
        assert_eq!(c.label(), "stall 2s");
        let pd = FaultScenario::PfsDegraded {
            server: 1,
            at: Time::from_secs(1),
        };
        assert_eq!(pd.label(), "pfs-degraded");
        assert!(matches!(
            pd.schedule().events()[0].fault,
            simcore::Fault::PfsServerFail { server: 1 }
        ));
        let pr = FaultScenario::PfsRecovered {
            server: 1,
            fail_at: Time::from_secs(1),
            recover_at: Time::from_secs(3),
        };
        assert_eq!(pr.label(), "pfs-recovered");
        let events = pr.schedule().events().to_vec();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[1].fault,
            simcore::Fault::PfsServerRecover { server: 1 }
        ));
    }

    fn ior_read_eval(faults: FaultScenario) -> EvalReport {
        use workloads::{Ior, IorOp};
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper()).build();
        let ior = Ior::new(4, fs::FileId(40), 32 * MIB, IorOp::Read);
        let opts = EvalOptions {
            faults,
            ..EvalOptions::default()
        };
        evaluate(&spec, &config, ior.scenario(), &fake_tables(100), &opts)
            .expect("evaluation succeeds")
    }

    fn pfs_ior_eval(faults: FaultScenario) -> EvalReport {
        use cluster::Mount;
        use workloads::{Ior, IorOp};
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .pfs(2)
            .pfs_replicas(2)
            .build();
        let ior = Ior::new(4, fs::FileId(43), 32 * MIB, IorOp::Write).on(Mount::Pfs);
        let opts = EvalOptions {
            faults,
            ..EvalOptions::default()
        };
        evaluate(&spec, &config, ior.scenario(), &fake_tables(100), &opts)
            .expect("evaluation succeeds")
    }

    #[test]
    fn pfs_degraded_eval_fails_over_without_losing_bytes() {
        let healthy = pfs_ior_eval(FaultScenario::Healthy);
        assert_eq!(healthy.io_errors, 0);
        assert_eq!(healthy.client_retries, 0);
        assert_eq!(healthy.pfs_failovers, 0);
        let degraded = pfs_ior_eval(FaultScenario::PfsDegraded {
            server: 1,
            at: Time::from_millis(1),
        });
        assert_eq!(degraded.scenario, "pfs-degraded");
        assert_eq!(degraded.io_errors, 0, "replicas absorb the outage");
        assert!(
            degraded.client_retries > 0,
            "detection burns a retry budget"
        );
        assert_eq!(
            degraded.profile.bytes_written, healthy.profile.bytes_written,
            "every workload byte lands despite the dead server"
        );
    }

    #[test]
    fn pfs_recovered_eval_reports_resynced_bytes() {
        let report = pfs_ior_eval(FaultScenario::PfsRecovered {
            server: 1,
            fail_at: Time::from_millis(1),
            recover_at: Time::from_secs(3600),
        });
        assert_eq!(report.scenario, "pfs-recovered");
        assert_eq!(report.io_errors, 0);
        assert!(
            report.pfs_resync_bytes > 0,
            "the recovered server must replay missed writes"
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"pfs_resync_bytes\""), "{json}");
        let back: EvalReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pfs_resync_bytes, report.pfs_resync_bytes);
    }

    #[test]
    fn pfs_fault_on_nonpfs_config_is_a_typed_eval_error() {
        use workloads::{Ior, IorOp};
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper()).build();
        let ior = Ior::new(2, fs::FileId(44), MIB, IorOp::Write);
        let opts = EvalOptions {
            faults: FaultScenario::PfsDegraded {
                server: 0,
                at: Time::ZERO,
            },
            ..EvalOptions::default()
        };
        let err = evaluate(&spec, &config, ior.scenario(), &fake_tables(100), &opts)
            .expect_err("PFS fault without a PFS deployment must fail");
        assert!(
            matches!(
                err,
                EvalError::Config(ConfigError::FaultPfsServerOutOfRange { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn watchdog_abort_surfaces_as_typed_eval_error() {
        use workloads::{Ior, IorOp};
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let ior = Ior::new(2, fs::FileId(41), 8 * MIB, IorOp::Write);
        let opts = EvalOptions {
            watchdog: Some(WatchdogSpec::sim_deadline(Time(1))),
            ..EvalOptions::default()
        };
        let err = evaluate(&spec, &config, ior.scenario(), &fake_tables(100), &opts)
            .expect_err("deadline must trip");
        match err {
            EvalError::Aborted { app, abort } => {
                assert!(!app.is_empty());
                assert!(matches!(abort, Abort::SimDeadline { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_a_typed_eval_error() {
        use workloads::{Ior, IorOp};
        let spec = presets::test_cluster();
        let bad = IoConfigBuilder::new(DeviceLayout::Raid5 {
            disks: 1,
            stripe: 1,
        })
        .build();
        let ior = Ior::new(2, fs::FileId(42), MIB, IorOp::Write);
        let err = evaluate(
            &spec,
            &bad,
            ior.scenario(),
            &fake_tables(100),
            &EvalOptions::default(),
        )
        .expect_err("invalid config must fail");
        assert!(matches!(err, EvalError::Config(_)), "{err:?}");
    }

    #[test]
    fn degraded_eval_retains_less_read_throughput() {
        let healthy = ior_read_eval(FaultScenario::Healthy);
        let degraded = ior_read_eval(FaultScenario::Degraded {
            disk: 1,
            at: Time::ZERO,
        });
        assert_eq!(healthy.scenario, "healthy");
        assert_eq!(degraded.scenario, "degraded");
        assert_eq!(healthy.io_errors, 0);
        assert_eq!(
            degraded.io_errors, 0,
            "degraded reads reconstruct, not fail"
        );
        assert!(healthy.rebuild.is_none());
        assert!(
            degraded.read_rate.bytes_per_sec() < healthy.read_rate.bytes_per_sec(),
            "degraded {} must trail healthy {}",
            degraded.read_rate,
            healthy.read_rate
        );
    }

    #[test]
    fn rebuilding_eval_reports_a_finite_rebuild_window() {
        let report = ior_read_eval(FaultScenario::Rebuilding {
            disk: 1,
            fail_at: Time::from_millis(1),
            replace_at: Time::from_millis(50),
        });
        let rebuild = report.rebuild.expect("replacement must start a rebuild");
        assert!(rebuild.finished.is_some(), "rebuild must complete");
        assert_eq!(rebuild.bytes_done, rebuild.bytes_total);
        assert!(rebuild.bytes_total > 0);
        assert!(rebuild.duration(report.exec_time) > Time::ZERO);
    }

    #[test]
    fn same_seed_evaluations_are_identical() {
        let scenario = FaultScenario::Degraded {
            disk: 0,
            at: Time::from_millis(10),
        };
        let a = ior_read_eval(scenario.clone());
        let b = ior_read_eval(scenario);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "fault-injected runs must stay deterministic"
        );
    }
}
