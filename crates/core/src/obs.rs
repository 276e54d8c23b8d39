//! I/O-path metrics and trace export on top of [`simcore::obs`].
//!
//! [`Collector`] is the methodology's standard sink: it accumulates
//! per-level counters/histograms ([`ObsMetrics`]) and retains the raw
//! event stream (capped) for export. Exports are a schema-versioned
//! JSONL stream ([`to_jsonl`], validated by `scripts/validate_trace.py`)
//! and a Chrome-trace view ([`to_chrome`]) loadable in
//! `chrome://tracing` / Perfetto. [`phase_timeline`] joins the event
//! stream with the traced [`AppProfile`] phases into the paper's Fig. 16
//! per-phase utilization picture.
//!
//! Everything here is deterministic: times are integer nanoseconds of
//! simulated time, and metrics merge in key order, so a campaign's
//! aggregated metrics are identical under `jobs=1` and `jobs=N`.

use crate::perf_table::IoLevel;
use crate::report::TextTable;
use crate::trace::{AppProfile, PhaseClass};
use simcore::obs::{ObsEvent, ObsSink};
use simcore::stats::{OnlineStats, SizeHistogram};
use simcore::{fmt_bytes, Bandwidth, Time};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Mutex;

/// Version of the JSONL trace schema (`schema` field of the header line).
/// Bump when a line shape changes incompatibly.
pub const TRACE_SCHEMA: u32 = 1;

/// Default cap on retained raw events per collector. Metrics keep
/// accumulating past the cap; only the event log stops growing (the
/// number of dropped events is reported in the export header).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// Accumulators for one I/O-path level.
#[derive(Clone, Debug, Default)]
pub struct LevelMetrics {
    /// Completed operations.
    pub ops: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Sum of operation durations (overlapping operations counted fully).
    pub busy: Time,
    /// Per-operation service time, seconds.
    pub service: OnlineStats,
    /// Request-size mix.
    pub sizes: SizeHistogram,
}

impl LevelMetrics {
    fn record(&mut self, bytes: u64, start: Time, end: Time) {
        let dur = end.saturating_sub(start);
        self.ops += 1;
        self.bytes += bytes;
        self.busy = self.busy.saturating_add(dur);
        self.service.push(dur.as_secs_f64());
        self.sizes.record(bytes);
    }

    /// Folds another level's accumulators into this one.
    pub fn merge(&mut self, other: &LevelMetrics) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.busy = self.busy.saturating_add(other.busy);
        self.service.merge(&other.service);
        self.sizes.merge(&other.sizes);
    }

    /// Mean outstanding operations over `elapsed` (Little's law:
    /// `L = total busy time / elapsed`) — the queue-depth figure of the
    /// metrics table.
    pub fn mean_depth(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Aggregate throughput over `elapsed`.
    pub fn rate(&self, elapsed: Time) -> Bandwidth {
        Bandwidth::measured(self.bytes, elapsed)
    }
}

/// Aggregated counters out of one (or many merged) observed runs.
#[derive(Clone, Debug, Default)]
pub struct ObsMetrics {
    /// Per-level accumulators (Library = MPI-IO data ops, GlobalFs =
    /// fabric transfers, LocalFs = volume grants).
    pub levels: BTreeMap<IoLevel, LevelMetrics>,
    /// Page-cache bytes served from memory.
    pub cache_hit_bytes: u64,
    /// Page-cache bytes fetched from the device.
    pub cache_miss_bytes: u64,
    /// Dirty bytes evicted under memory pressure.
    pub cache_evict_bytes: u64,
    /// Bytes written back by throttling/fsync/sync drains.
    pub writeback_bytes: u64,
    /// NFS RPC retransmissions.
    pub nfs_retries: u64,
    /// Fabric messages delivered.
    pub net_messages: u64,
    /// Storage runs served by the closed-form bulk path.
    pub bulk_runs: u64,
    /// Storage runs that fell back to the event-granular loop.
    pub granular_runs: u64,
    /// PFS client RPC retransmissions.
    pub pfs_retries: u64,
    /// PFS spans served by a surviving replica after a server failure.
    pub pfs_failovers: u64,
    /// Recovered-PFS-server catch-up episodes.
    pub pfs_resyncs: u64,
    /// Bytes replayed onto recovered PFS servers.
    pub pfs_resync_bytes: u64,
    /// Fault-schedule events applied.
    pub faults: u64,
}

impl ObsMetrics {
    /// Folds one event into the counters.
    pub fn record(&mut self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::MpiOp {
                start, end, kind, ..
            } => {
                if kind.io() {
                    self.level(IoLevel::Library)
                        .record(kind.bytes(), start, end);
                }
            }
            ObsEvent::NetSend {
                bytes, start, end, ..
            } => {
                self.net_messages += 1;
                self.level(IoLevel::GlobalFs).record(bytes, start, end);
            }
            ObsEvent::NfsRetry { .. } => self.nfs_retries += 1,
            ObsEvent::CacheAccess {
                hit_bytes,
                miss_bytes,
                ..
            } => {
                self.cache_hit_bytes += hit_bytes;
                self.cache_miss_bytes += miss_bytes;
            }
            ObsEvent::CacheEvict { bytes, .. } => self.cache_evict_bytes += bytes,
            ObsEvent::Writeback { bytes, .. } => self.writeback_bytes += bytes,
            ObsEvent::StorageRun {
                bytes,
                start,
                end,
                bulk,
                ..
            } => {
                if bulk {
                    self.bulk_runs += 1;
                } else {
                    self.granular_runs += 1;
                }
                self.level(IoLevel::LocalFs).record(bytes, start, end);
            }
            ObsEvent::StorageIo {
                bytes, start, end, ..
            } => {
                self.level(IoLevel::LocalFs).record(bytes, start, end);
            }
            ObsEvent::PfsRetry { .. } => self.pfs_retries += 1,
            ObsEvent::PfsFailover { .. } => self.pfs_failovers += 1,
            ObsEvent::PfsResync { bytes, .. } => {
                self.pfs_resyncs += 1;
                self.pfs_resync_bytes += bytes;
            }
            ObsEvent::MetaOp { start, end, .. } => {
                self.level(IoLevel::Metadata).record(0, start, end);
            }
            ObsEvent::FaultApplied { .. } => self.faults += 1,
        }
    }

    fn level(&mut self, level: IoLevel) -> &mut LevelMetrics {
        self.levels.entry(level).or_default()
    }

    /// Folds another run's metrics into this one.
    pub fn merge(&mut self, other: &ObsMetrics) {
        for (level, m) in &other.levels {
            self.levels.entry(*level).or_default().merge(m);
        }
        self.cache_hit_bytes += other.cache_hit_bytes;
        self.cache_miss_bytes += other.cache_miss_bytes;
        self.cache_evict_bytes += other.cache_evict_bytes;
        self.writeback_bytes += other.writeback_bytes;
        self.nfs_retries += other.nfs_retries;
        self.net_messages += other.net_messages;
        self.bulk_runs += other.bulk_runs;
        self.granular_runs += other.granular_runs;
        self.pfs_retries += other.pfs_retries;
        self.pfs_failovers += other.pfs_failovers;
        self.pfs_resyncs += other.pfs_resyncs;
        self.pfs_resync_bytes += other.pfs_resync_bytes;
        self.faults += other.faults;
    }

    /// Total operations across all levels.
    pub fn total_ops(&self) -> u64 {
        self.levels.values().map(|m| m.ops).sum()
    }
}

/// Everything one collector gathered.
#[derive(Clone, Debug)]
pub struct ObsData {
    /// Aggregated counters (never capped).
    pub metrics: ObsMetrics,
    /// Raw events in emission order, up to the cap.
    pub events: Vec<ObsEvent>,
    /// Events beyond the cap (counted, not retained).
    pub dropped: u64,
    max_events: usize,
}

impl ObsData {
    fn new(max_events: usize) -> ObsData {
        ObsData {
            metrics: ObsMetrics::default(),
            events: Vec::new(),
            dropped: 0,
            max_events,
        }
    }
}

/// The standard collecting sink. Create one, [`Collector::install`] it
/// for the duration of a run, then read [`Collector::take`] — the
/// collector and its installed handle share state via `Rc`, so results
/// survive the guard.
#[derive(Clone)]
pub struct Collector {
    shared: Rc<RefCell<ObsData>>,
}

struct Handle(Rc<RefCell<ObsData>>);

impl ObsSink for Handle {
    fn event(&mut self, ev: &ObsEvent) {
        let mut d = self.0.borrow_mut();
        d.metrics.record(ev);
        if d.events.len() < d.max_events {
            d.events.push(*ev);
        } else {
            d.dropped += 1;
        }
    }
}

impl Collector {
    /// A collector retaining up to [`DEFAULT_MAX_EVENTS`] raw events.
    pub fn new() -> Collector {
        Collector::with_capacity(DEFAULT_MAX_EVENTS)
    }

    /// A collector retaining up to `max_events` raw events (metrics are
    /// always complete).
    pub fn with_capacity(max_events: usize) -> Collector {
        Collector {
            shared: Rc::new(RefCell::new(ObsData::new(max_events))),
        }
    }

    /// Installs this collector as the current thread's sink; events
    /// accumulate until the returned guard drops.
    pub fn install(&self) -> simcore::obs::ObsGuard {
        simcore::obs::install(Box::new(Handle(self.shared.clone())))
    }

    /// Takes everything collected so far, leaving the collector empty
    /// (same cap).
    pub fn take(&self) -> ObsData {
        let cap = self.shared.borrow().max_events;
        std::mem::replace(&mut *self.shared.borrow_mut(), ObsData::new(cap))
    }

    /// A copy of the aggregated metrics.
    pub fn metrics(&self) -> ObsMetrics {
        self.shared.borrow().metrics.clone()
    }
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

/// Deterministic cross-thread aggregation of per-cell metrics, used by
/// the campaign scheduler: each cell contributes under its identity key,
/// and [`MetricsHub::aggregate`] merges in key order — so `jobs=1` and
/// `jobs=N` campaigns aggregate identically.
#[derive(Debug, Default)]
pub struct MetricsHub {
    cells: Mutex<BTreeMap<String, ObsMetrics>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Contributes one cell's metrics under `key` (last write wins, so a
    /// retried cell does not double-count).
    pub fn add(&self, key: impl Into<String>, metrics: ObsMetrics) {
        self.cells
            .lock()
            .expect("metrics hub lock")
            .insert(key.into(), metrics);
    }

    /// Number of contributed cells.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("metrics hub lock").len()
    }

    /// Whether no cell has contributed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges all contributions in key order.
    pub fn aggregate(&self) -> ObsMetrics {
        let cells = self.cells.lock().expect("metrics hub lock");
        let mut out = ObsMetrics::default();
        for m in cells.values() {
            out.merge(m);
        }
        out
    }
}

/// One row of the per-phase utilization timeline: the I/O-path activity
/// that fell inside one traced [`AppProfile`] phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseUtilization {
    /// Phase class from the trace.
    pub class: PhaseClass,
    /// Phase start (equals the traced burst's start).
    pub start: Time,
    /// Phase end (equals the traced burst's end).
    pub end: Time,
    /// MPI-IO data bytes whose operation began in the phase.
    pub mpi_bytes: u64,
    /// MPI-IO data operations begun in the phase.
    pub mpi_ops: u64,
    /// Fabric bytes sent during the phase.
    pub net_bytes: u64,
    /// Volume bytes granted during the phase.
    pub storage_bytes: u64,
}

/// Joins the raw event stream with the traced phases: each event is
/// attributed to the phase containing its start instant. Phase bounds are
/// copied verbatim from `profile.phases`, so the timeline reproduces the
/// traced phase boundaries exactly.
pub fn phase_timeline(events: &[ObsEvent], profile: &AppProfile) -> Vec<PhaseUtilization> {
    let mut rows: Vec<PhaseUtilization> = profile
        .phases
        .bursts
        .iter()
        .map(|b| PhaseUtilization {
            class: b.class,
            start: b.start,
            end: b.end,
            mpi_bytes: 0,
            mpi_ops: 0,
            net_bytes: 0,
            storage_bytes: 0,
        })
        .collect();
    for ev in events {
        let (at, mpi, net, storage) = match *ev {
            ObsEvent::MpiOp { start, kind, .. } if kind.io() => (start, kind.bytes(), 0, 0),
            ObsEvent::NetSend { start, bytes, .. } => (start, 0, bytes, 0),
            ObsEvent::StorageRun { start, bytes, .. }
            | ObsEvent::StorageIo { start, bytes, .. } => (start, 0, 0, bytes),
            _ => continue,
        };
        // Phases are few (tens); linear scan keeps this simple. A burst
        // interval is [start, end).
        if let Some(row) = rows.iter_mut().find(|r| r.start <= at && at < r.end) {
            row.mpi_bytes += mpi;
            row.mpi_ops += u64::from(mpi > 0);
            row.net_bytes += net;
            row.storage_bytes += storage;
        }
    }
    rows
}

/// Renders the per-phase utilization timeline as a table (the textual
/// Fig. 16: which layers were busy in which traced phase).
pub fn render_phase_utilization(rows: &[PhaseUtilization]) -> String {
    let mut t = TextTable::new(vec!["phase", "start", "end", "mpi_io", "fabric", "storage"]);
    for r in rows {
        let class = match r.class {
            PhaseClass::Write => "write",
            PhaseClass::Read => "read",
            PhaseClass::NonIo => "compute",
        };
        t.row(vec![
            class.to_string(),
            format!("{}", r.start),
            format!("{}", r.end),
            fmt_bytes(r.mpi_bytes),
            fmt_bytes(r.net_bytes),
            fmt_bytes(r.storage_bytes),
        ]);
    }
    t.render()
}

/// Renders the metrics table appended to reports by `--metrics`.
pub fn render_obs_metrics(m: &ObsMetrics, elapsed: Time) -> String {
    let mut t = TextTable::new(vec![
        "level",
        "ops",
        "bytes",
        "rate",
        "mean_svc",
        "max_svc",
        "mean_depth",
    ]);
    for (level, lm) in &m.levels {
        t.row(vec![
            level.label().to_string(),
            lm.ops.to_string(),
            fmt_bytes(lm.bytes),
            format!("{}", lm.rate(elapsed)),
            format!("{}", Time::from_secs_f64(lm.service.mean())),
            format!("{}", Time::from_secs_f64(lm.service.max())),
            format!("{:.2}", lm.mean_depth(elapsed)),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "cache: hit {} / miss {} / evicted {}; writeback {}\n\
         nfs retries {}; fabric msgs {}; storage runs {} bulk / {} granular; faults {}\n",
        fmt_bytes(m.cache_hit_bytes),
        fmt_bytes(m.cache_miss_bytes),
        fmt_bytes(m.cache_evict_bytes),
        fmt_bytes(m.writeback_bytes),
        m.nfs_retries,
        m.net_messages,
        m.bulk_runs,
        m.granular_runs,
        m.faults,
    ));
    if m.pfs_retries + m.pfs_failovers + m.pfs_resyncs > 0 {
        out.push_str(&format!(
            "pfs: retries {}; failovers {}; resyncs {} ({})\n",
            m.pfs_retries,
            m.pfs_failovers,
            m.pfs_resyncs,
            fmt_bytes(m.pfs_resync_bytes),
        ));
    }
    out
}

/// Identity of one traced run (the JSONL header line).
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// Cluster name.
    pub cluster: String,
    /// Configuration name.
    pub config: String,
    /// Application / cell label.
    pub app: String,
    /// Fault-scenario label.
    pub scenario: String,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes one run to schema-versioned JSONL: a header line, then one
/// line per event. All times are integer nanoseconds of simulated time,
/// so the output is byte-deterministic.
pub fn to_jsonl(data: &ObsData, meta: &TraceMeta) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\":\"header\",\"schema\":{},\"cluster\":\"{}\",\"config\":\"{}\",\"app\":\"{}\",\"scenario\":\"{}\",\"events\":{},\"dropped\":{}}}\n",
        TRACE_SCHEMA,
        esc(&meta.cluster),
        esc(&meta.config),
        esc(&meta.app),
        esc(&meta.scenario),
        data.events.len(),
        data.dropped,
    ));
    for ev in &data.events {
        out.push_str(&event_jsonl(ev));
        out.push('\n');
    }
    out
}

fn event_jsonl(ev: &ObsEvent) -> String {
    let kind = ev.kind();
    match *ev {
        ObsEvent::MpiOp {
            rank,
            start,
            end,
            kind: op,
        } => format!(
            "{{\"kind\":\"{kind}\",\"rank\":{rank},\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"io\":{}}}",
            op.label(),
            start.as_nanos(),
            end.as_nanos(),
            op.bytes(),
            op.io()
        ),
        ObsEvent::NetSend {
            from,
            to,
            bytes,
            start,
            end,
        } => format!(
            "{{\"kind\":\"{kind}\",\"from\":{from},\"to\":{to},\"bytes\":{bytes},\"start_ns\":{},\"end_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::NfsRetry { op, at, attempt } => format!(
            "{{\"kind\":\"{kind}\",\"op\":\"{op}\",\"at_ns\":{},\"attempt\":{attempt}}}",
            at.as_nanos()
        ),
        ObsEvent::CacheAccess {
            hit_bytes,
            miss_bytes,
            at,
        } => format!(
            "{{\"kind\":\"{kind}\",\"hit_bytes\":{hit_bytes},\"miss_bytes\":{miss_bytes},\"at_ns\":{}}}",
            at.as_nanos()
        ),
        ObsEvent::CacheEvict { bytes, at } => format!(
            "{{\"kind\":\"{kind}\",\"bytes\":{bytes},\"at_ns\":{}}}",
            at.as_nanos()
        ),
        ObsEvent::Writeback { bytes, start, end } => format!(
            "{{\"kind\":\"{kind}\",\"bytes\":{bytes},\"start_ns\":{},\"end_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::StorageRun {
            volume,
            write,
            bytes,
            ops,
            start,
            end,
            bulk,
        } => format!(
            "{{\"kind\":\"{kind}\",\"volume\":\"{}\",\"write\":{write},\"bytes\":{bytes},\"ops\":{ops},\"start_ns\":{},\"end_ns\":{},\"bulk\":{bulk}}}",
            esc(volume),
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::StorageIo {
            volume,
            write,
            bytes,
            start,
            end,
        } => format!(
            "{{\"kind\":\"{kind}\",\"volume\":\"{}\",\"write\":{write},\"bytes\":{bytes},\"start_ns\":{},\"end_ns\":{}}}",
            esc(volume),
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::PfsRetry {
            op,
            server,
            at,
            attempt,
        } => format!(
            "{{\"kind\":\"{kind}\",\"op\":\"{op}\",\"server\":{server},\"at_ns\":{},\"attempt\":{attempt}}}",
            at.as_nanos()
        ),
        ObsEvent::PfsFailover { op, from, to, at } => format!(
            "{{\"kind\":\"{kind}\",\"op\":\"{op}\",\"from\":{from},\"to\":{to},\"at_ns\":{}}}",
            at.as_nanos()
        ),
        ObsEvent::PfsResync {
            server,
            bytes,
            start,
            end,
        } => format!(
            "{{\"kind\":\"{kind}\",\"server\":{server},\"bytes\":{bytes},\"start_ns\":{},\"end_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::MetaOp { op, start, end } => format!(
            "{{\"kind\":\"{kind}\",\"op\":\"{op}\",\"start_ns\":{},\"end_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos()
        ),
        ObsEvent::FaultApplied { kind: fault, at } => format!(
            "{{\"kind\":\"{kind}\",\"fault\":\"{fault}\",\"at_ns\":{}}}",
            at.as_nanos()
        ),
    }
}

/// Serializes one or more runs as a Chrome trace (JSON array of complete
/// `ph:"X"` and instant `ph:"i"` events; timestamps in integer
/// microseconds). Load in `chrome://tracing` or Perfetto. Layers map to
/// `pid`s; MPI events use the rank as `tid`. A run that outgrew its
/// collector's cap ends with one instant event naming the dropped count.
pub fn to_chrome(runs: &[(TraceMeta, ObsData)]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (meta, data) in runs {
        let name_prefix = if meta.app.is_empty() {
            String::new()
        } else {
            format!("{}/", esc(&meta.app))
        };
        let dropped = (data.dropped > 0).then(|| {
            let name = format!(
                "{name_prefix}[{} events dropped past the cap]",
                data.dropped
            );
            chrome_instant(name, 0, Time::ZERO, String::new())
        });
        for line in data
            .events
            .iter()
            .map(|ev| chrome_event(ev, &name_prefix))
            .chain(dropped)
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&line);
        }
    }
    out.push_str("\n]\n");
    out
}

fn chrome_instant(name: String, pid: u32, at: Time, args: String) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{{args}}}}}",
        at.as_nanos() / 1_000
    )
}

fn chrome_event(ev: &ObsEvent, prefix: &str) -> String {
    let us = |t: Time| t.as_nanos() / 1_000;
    let complete = |name: String, pid: u32, tid: usize, start: Time, end: Time, args: String| {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            us(start),
            us(end.saturating_sub(start)).max(1)
        )
    };
    // pid 1 = MPI ranks, 2 = fabric, 3 = filesystem, 4 = storage, 5 = faults.
    match *ev {
        ObsEvent::MpiOp {
            rank,
            start,
            end,
            kind,
        } => complete(
            format!("{prefix}{}", kind.label()),
            1,
            rank as usize,
            start,
            end,
            format!("\"bytes\":{}", kind.bytes()),
        ),
        ObsEvent::NetSend {
            from,
            to,
            bytes,
            start,
            end,
        } => complete(
            format!("{prefix}send {from}->{to}"),
            2,
            from,
            start,
            end,
            format!("\"bytes\":{bytes}"),
        ),
        ObsEvent::NfsRetry { op, at, attempt } => chrome_instant(
            format!("{prefix}nfs retry {op}"),
            3,
            at,
            format!("\"attempt\":{attempt}"),
        ),
        ObsEvent::CacheAccess {
            hit_bytes,
            miss_bytes,
            at,
        } => chrome_instant(
            format!("{prefix}cache"),
            3,
            at,
            format!("\"hit_bytes\":{hit_bytes},\"miss_bytes\":{miss_bytes}"),
        ),
        ObsEvent::CacheEvict { bytes, at } => chrome_instant(
            format!("{prefix}evict"),
            3,
            at,
            format!("\"bytes\":{bytes}"),
        ),
        ObsEvent::Writeback { bytes, start, end } => complete(
            format!("{prefix}writeback"),
            3,
            0,
            start,
            end,
            format!("\"bytes\":{bytes}"),
        ),
        ObsEvent::StorageRun {
            volume,
            write,
            bytes,
            ops,
            start,
            end,
            bulk,
        } => complete(
            format!("{prefix}{} run", esc(volume)),
            4,
            usize::from(write),
            start,
            end,
            format!("\"bytes\":{bytes},\"ops\":{ops},\"bulk\":{bulk}"),
        ),
        ObsEvent::StorageIo {
            volume,
            write,
            bytes,
            start,
            end,
        } => complete(
            format!("{prefix}{} io", esc(volume)),
            4,
            usize::from(write),
            start,
            end,
            format!("\"bytes\":{bytes}"),
        ),
        ObsEvent::PfsRetry {
            op,
            server,
            at,
            attempt,
        } => chrome_instant(
            format!("{prefix}pfs retry {op}"),
            3,
            at,
            format!("\"server\":{server},\"attempt\":{attempt}"),
        ),
        ObsEvent::PfsFailover { op, from, to, at } => chrome_instant(
            format!("{prefix}pfs failover {op}"),
            3,
            at,
            format!("\"from\":{from},\"to\":{to}"),
        ),
        ObsEvent::PfsResync {
            server,
            bytes,
            start,
            end,
        } => complete(
            format!("{prefix}pfs resync"),
            3,
            server,
            start,
            end,
            format!("\"bytes\":{bytes}"),
        ),
        ObsEvent::MetaOp { op, start, end } => complete(
            format!("{prefix}meta {op}"),
            3,
            0,
            start,
            end,
            String::new(),
        ),
        ObsEvent::FaultApplied { kind, at } => {
            chrome_instant(format!("{prefix}fault {kind}"), 5, at, String::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, PhaseReport};

    fn mpi(rank: u32, start_s: u64, bytes: u64) -> ObsEvent {
        ObsEvent::MpiOp {
            rank,
            start: Time::from_secs(start_s),
            end: Time::from_secs(start_s + 1),
            kind: simcore::obs::TraceKind::Write {
                file: 1,
                offset: 0,
                len: bytes,
                collective: false,
            },
        }
    }

    #[test]
    fn collector_accumulates_and_caps() {
        let col = Collector::with_capacity(2);
        {
            let _g = col.install();
            for i in 0..4 {
                simcore::obs::emit(|| mpi(0, i, 100));
            }
        }
        let data = col.take();
        assert_eq!(data.events.len(), 2, "cap respected");
        assert_eq!(data.dropped, 2);
        let lib = &data.metrics.levels[&IoLevel::Library];
        assert_eq!(lib.ops, 4, "metrics are never capped");
        assert_eq!(lib.bytes, 400);
        assert_eq!(lib.service.count(), 4);
        // take() left it empty.
        assert_eq!(col.metrics().total_ops(), 0);
    }

    #[test]
    fn metrics_merge_is_order_independent() {
        let (mut a, mut b) = (ObsMetrics::default(), ObsMetrics::default());
        a.record(&mpi(0, 0, 10));
        a.record(&ObsEvent::NfsRetry {
            op: "WRITE",
            at: Time::ZERO,
            attempt: 1,
        });
        b.record(&mpi(1, 1, 20));
        b.record(&ObsEvent::CacheEvict {
            bytes: 5,
            at: Time::ZERO,
        });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.total_ops(), ba.total_ops());
        assert_eq!(ab.nfs_retries, 1);
        assert_eq!(ab.cache_evict_bytes, 5);
        assert_eq!(
            ab.levels[&IoLevel::Library].bytes,
            ba.levels[&IoLevel::Library].bytes
        );
    }

    #[test]
    fn hub_aggregate_is_key_ordered_and_jobs_invariant() {
        let mk = |n: u64| {
            let mut m = ObsMetrics::default();
            m.record(&mpi(0, 0, n));
            m
        };
        let h1 = MetricsHub::new();
        h1.add("a", mk(1));
        h1.add("b", mk(2));
        let h2 = MetricsHub::new();
        h2.add("b", mk(2)); // reversed insertion order
        h2.add("a", mk(1));
        assert_eq!(h1.len(), 2);
        assert!(!h1.is_empty());
        let (m1, m2) = (h1.aggregate(), h2.aggregate());
        assert_eq!(
            m1.levels[&IoLevel::Library].bytes,
            m2.levels[&IoLevel::Library].bytes
        );
        assert_eq!(m1.total_ops(), 2);
    }

    #[test]
    fn phase_timeline_reproduces_traced_boundaries() {
        let profile = AppProfile {
            exec_time: Time::from_secs(10),
            phases: PhaseReport {
                bursts: vec![
                    Phase {
                        class: PhaseClass::Write,
                        start: Time::ZERO,
                        end: Time::from_secs(5),
                        ops: 1,
                        bytes: 1,
                        marker: u32::MAX,
                    },
                    Phase {
                        class: PhaseClass::NonIo,
                        start: Time::from_secs(5),
                        end: Time::from_secs(10),
                        ops: 0,
                        bytes: 0,
                        marker: u32::MAX,
                    },
                ],
            },
            ..AppProfile::default()
        };
        let events = vec![
            mpi(0, 1, 100),
            ObsEvent::NetSend {
                from: 0,
                to: 1,
                bytes: 50,
                start: Time::from_secs(6),
                end: Time::from_secs(7),
            },
            ObsEvent::StorageRun {
                volume: "JBOD",
                write: true,
                bytes: 70,
                ops: 2,
                start: Time::from_secs(2),
                end: Time::from_secs(3),
                bulk: true,
            },
        ];
        let rows = phase_timeline(&events, &profile);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].start, Time::ZERO);
        assert_eq!(rows[0].end, Time::from_secs(5));
        assert_eq!(rows[0].mpi_bytes, 100);
        assert_eq!(rows[0].mpi_ops, 1);
        assert_eq!(rows[0].storage_bytes, 70);
        assert_eq!(rows[0].net_bytes, 0);
        assert_eq!(rows[1].net_bytes, 50);
        let rendered = render_phase_utilization(&rows);
        assert!(rendered.contains("write"), "{rendered}");
        assert!(rendered.contains("compute"), "{rendered}");
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let col = Collector::new();
        {
            let _g = col.install();
            simcore::obs::emit(|| mpi(3, 0, 42));
            simcore::obs::emit(|| ObsEvent::FaultApplied {
                kind: "disk_fail",
                at: Time::from_secs(2),
            });
        }
        let data = col.take();
        let meta = TraceMeta {
            cluster: "Aohyper".into(),
            config: "RAID 5".into(),
            app: "ior".into(),
            scenario: "healthy".into(),
        };
        let text = to_jsonl(&data, &meta);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"header\""), "{}", lines[0]);
        assert!(
            lines[0].contains(&format!("\"schema\":{TRACE_SCHEMA}")),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"rank\":3"), "{}", lines[1]);
        assert!(lines[2].contains("\"fault\":\"disk_fail\""), "{}", lines[2]);
        // Every line is valid JSON (vendored parser).
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect(line);
            assert!(v.get("kind").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let col = Collector::new();
        {
            let _g = col.install();
            simcore::obs::emit(|| mpi(0, 0, 10));
            simcore::obs::emit(|| ObsEvent::Writeback {
                bytes: 10,
                start: Time::from_secs(1),
                end: Time::from_secs(2),
            });
        }
        let runs = vec![(TraceMeta::default(), col.take())];
        let text = to_chrome(&runs);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0]["ph"], "X");
    }

    #[test]
    fn chrome_trace_reports_the_drop_count() {
        let col = Collector::with_capacity(2);
        {
            let _g = col.install();
            for i in 0..5 {
                simcore::obs::emit(|| mpi(0, i, 10));
            }
        }
        let text = to_chrome(&[(TraceMeta::default(), col.take())]);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 3, "two kept events and the drop notice");
        assert!(arr[2]["name"]
            .as_str()
            .unwrap()
            .contains("3 events dropped"));
    }

    #[test]
    fn chrome_trace_of_a_small_run_has_one_lane_per_rank() {
        use cluster::{presets, ClusterMachine, DeviceLayout, IoConfigBuilder};
        use workloads::{BtClass, BtIo, BtSubtype};

        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let sc = BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(2)
            .gflops(50.0)
            .scenario();
        let col = Collector::new();
        {
            let _g = col.install();
            let mut machine = ClusterMachine::try_new(&spec, &config).expect("valid config");
            let programs = sc.install(&mut machine);
            mpisim::Runtime::default().run(
                &mut machine,
                &spec.placement(4),
                programs,
                &mut simcore::obs::NoSink,
            );
        }
        let data = col.take();
        assert_eq!(data.dropped, 0);
        let text = to_chrome(&[(TraceMeta::default(), data)]);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let mpi: Vec<&serde_json::Value> = v
            .as_array()
            .expect("array")
            .iter()
            .filter(|e| e["pid"] == 1)
            .collect();
        assert!(mpi.len() > 100, "trace captured {} MPI slices", mpi.len());
        let lanes: std::collections::BTreeSet<u64> =
            mpi.iter().filter_map(|e| e["tid"].as_u64()).collect();
        assert_eq!(lanes.len(), 4);
    }

    #[test]
    fn meta_ops_land_in_the_metadata_level() {
        let mut m = ObsMetrics::default();
        let ev = ObsEvent::MetaOp {
            op: "create",
            start: Time::from_secs(1),
            end: Time::from_secs(2),
        };
        m.record(&ev);
        m.record(&mpi(0, 0, 10));
        let md = &m.levels[&IoLevel::Metadata];
        assert_eq!(md.ops, 1);
        assert_eq!(md.bytes, 0, "metadata moves no payload bytes");
        assert_eq!(md.busy, Time::from_secs(1));
        // The data-path level is untouched by the metadata op.
        assert_eq!(m.levels[&IoLevel::Library].ops, 1);
        let rendered = render_obs_metrics(&m, Time::from_secs(2));
        assert!(rendered.contains("Metadata"), "{rendered}");
        // JSONL and Chrome lines are well-formed.
        let line = event_jsonl(&ev);
        let v: serde_json::Value = serde_json::from_str(&line).expect(&line);
        assert_eq!(v["kind"], "meta_op");
        assert_eq!(v["op"], "create");
        let chrome = chrome_event(&ev, "");
        let v: serde_json::Value = serde_json::from_str(&chrome).expect(&chrome);
        assert_eq!(v["pid"], 3);
    }

    #[test]
    fn metrics_render_mentions_every_level_seen() {
        let mut m = ObsMetrics::default();
        m.record(&mpi(0, 0, 10));
        m.record(&ObsEvent::StorageIo {
            volume: "JBOD",
            write: false,
            bytes: 4096,
            start: Time::ZERO,
            end: Time::from_millis(1),
        });
        let s = render_obs_metrics(&m, Time::from_secs(1));
        assert!(s.contains("I/O Lib"), "{s}");
        assert!(s.contains("Local FS"), "{s}");
        assert!(s.contains("nfs retries 0"), "{s}");
    }
}
