//! Application characterization from traces (the PAS2P-IO substitute).
//!
//! [`ProfileSink`] is an [`ObsSink`]: passed to a run, it consumes the
//! runtime's [`ObsEvent::MpiOp`] stream *streaming* (no event log is
//! materialized, so multi-million-operation applications characterize in
//! bounded memory) and produces an [`AppProfile`]:
//!
//! * operation counts and distinct block sizes (paper Tables II/V/VIII);
//! * detected access modes per operation type (sequential / strided /
//!   random), from per-(rank, file) offset-stream analysis;
//! * application-level measured transfer rates per (operation, block size)
//!   — the left column of the Fig. 10 used-percentage algorithm;
//! * per-marker rates (MADbench2's S/W/C functions);
//! * an I/O **phase report** (bursts of I/O separated by computation or
//!   communication — the structure visible in the paper's Figs. 8/16),
//!   with repetition counts as phase weights.

use crate::perf_table::{AccessMode, OpType};
use serde::{Deserialize, Serialize};
use simcore::obs::{ObsEvent, ObsSink, TraceKind};
use simcore::{Bandwidth, FxHashMap, Time};
use std::collections::BTreeMap;

/// Classification of a phase burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PhaseClass {
    /// Consecutive write operations.
    Write,
    /// Consecutive read operations.
    Read,
    /// Computation / communication / metadata between I/O bursts.
    NonIo,
}

/// One burst on the representative rank's timeline.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Phase {
    /// Burst class.
    pub class: PhaseClass,
    /// Burst start.
    pub start: Time,
    /// Burst end.
    pub end: Time,
    /// Operations merged into the burst.
    pub ops: u64,
    /// Bytes moved (0 for non-I/O).
    pub bytes: u64,
    /// Marker id active when the burst began (`u32::MAX` when none).
    pub marker: u32,
}

/// The phase structure of the application (paper Figs. 8/16).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Bursts of the representative rank, in time order.
    pub bursts: Vec<Phase>,
}

impl PhaseReport {
    /// Only the I/O bursts.
    pub fn io_phases(&self) -> impl Iterator<Item = &Phase> {
        self.bursts.iter().filter(|p| p.class != PhaseClass::NonIo)
    }

    /// Repetition analysis: distinct I/O phase signatures
    /// (class, per-burst bytes bucketed to powers of two) with their
    /// occurrence counts — the "significant phases and their weights".
    pub fn signature_weights(&self) -> Vec<(PhaseClass, u64, u64)> {
        let mut counts: BTreeMap<(PhaseClass, u64), u64> = BTreeMap::new();
        for p in self.io_phases() {
            let bucket = if p.bytes < 2 {
                p.bytes
            } else {
                1u64 << (63 - p.bytes.leading_zeros())
            };
            *counts.entry((p.class, bucket)).or_insert(0) += 1;
        }
        counts.into_iter().map(|((c, b), n)| (c, b, n)).collect()
    }
}

/// Per-(op, block-size) application-level measurement.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MeasuredRow {
    /// Operation type.
    pub op: OpType,
    /// Block size (exact application request size).
    pub block: u64,
    /// Detected access mode for this op type.
    pub mode: AccessMode,
    /// Achieved application-level transfer rate.
    pub rate: Bandwidth,
    /// Operations.
    pub ops: u64,
    /// Bytes.
    pub bytes: u64,
    /// Achieved IOPs.
    pub iops: f64,
    /// Mean latency.
    pub latency: Time,
}

/// Per-marker (workload-labelled section) rates.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MarkerRates {
    /// Marker id (e.g. MADbench2 S/W/C).
    pub marker: u32,
    /// Operation type.
    pub op: OpType,
    /// Achieved rate within the section.
    pub rate: Bandwidth,
    /// Bytes moved.
    pub bytes: u64,
    /// Operations.
    pub ops: u64,
}

/// The application characterization (paper Tables II/V/VIII).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AppProfile {
    /// Number of processes.
    pub procs: usize,
    /// Distinct files touched.
    pub num_files: usize,
    /// Total read operations.
    pub numio_read: u64,
    /// Total write operations.
    pub numio_write: u64,
    /// Total opens.
    pub numio_open: u64,
    /// Total closes.
    pub numio_close: u64,
    /// Total explicit syncs.
    pub numio_sync: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Distinct read block sizes with counts (size-ascending).
    pub read_sizes: Vec<(u64, u64)>,
    /// Distinct write block sizes with counts.
    pub write_sizes: Vec<(u64, u64)>,
    /// Detected read access mode.
    pub mode_read: AccessMode,
    /// Detected write access mode.
    pub mode_write: AccessMode,
    /// Wall time (latest event end).
    pub exec_time: Time,
    /// I/O time of the slowest rank.
    pub io_time: Time,
    /// Per-(op, block) measurements.
    pub measured: Vec<MeasuredRow>,
    /// Per-marker rates.
    pub per_marker: Vec<MarkerRates>,
    /// Phase structure of the representative rank.
    pub phases: PhaseReport,
}

impl AppProfile {
    /// Aggregate application read rate.
    pub fn read_rate(&self) -> Bandwidth {
        agg_rate(self.measured.iter().filter(|m| m.op == OpType::Read))
    }

    /// Aggregate application write rate.
    pub fn write_rate(&self) -> Bandwidth {
        agg_rate(self.measured.iter().filter(|m| m.op == OpType::Write))
    }
}

fn agg_rate<'a>(rows: impl Iterator<Item = &'a MeasuredRow>) -> Bandwidth {
    let mut bytes = 0u64;
    let mut secs = 0f64;
    for r in rows {
        bytes += r.bytes;
        if r.rate.bytes_per_sec() > 0 {
            secs += r.bytes as f64 / r.rate.bytes_per_sec() as f64;
        }
    }
    if secs == 0.0 {
        Bandwidth(0)
    } else {
        Bandwidth((bytes as f64 / secs) as u64)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StreamState {
    last_end: Option<u64>,
    last_offset: Option<u64>,
    last_delta: Option<i64>,
    seq: u64,
    strided: u64,
    random: u64,
}

impl StreamState {
    fn observe(&mut self, offset: u64, len: u64) {
        if let (Some(end), Some(last_off)) = (self.last_end, self.last_offset) {
            if offset == end {
                self.seq += 1;
            } else {
                let delta = offset as i64 - last_off as i64;
                if self.last_delta == Some(delta) {
                    self.strided += 1;
                } else {
                    self.random += 1;
                }
                self.last_delta = Some(delta);
            }
        }
        self.last_offset = Some(offset);
        self.last_end = Some(offset + len);
    }
}

#[derive(Clone, Debug, Default)]
struct MeasAgg {
    bytes: u64,
    ops: u64,
    dur: Time,
    /// Per-rank in-op time; the aggregate rate divides by the busiest
    /// rank's time so that P concurrent ranks yield an aggregate rate
    /// (matching how the system characterization measures rates).
    dur_by_rank: Vec<Time>,
}

impl MeasAgg {
    fn add(&mut self, rank: usize, world: usize, bytes: u64, dur: Time) {
        if self.dur_by_rank.is_empty() {
            self.dur_by_rank = vec![Time::ZERO; world];
        }
        self.bytes += bytes;
        self.ops += 1;
        self.dur += dur;
        self.dur_by_rank[rank] += dur;
    }

    fn busiest(&self) -> Time {
        self.dur_by_rank.iter().copied().max().unwrap_or(Time::ZERO)
    }
}

/// Streaming trace consumer building an [`AppProfile`].
pub struct ProfileSink {
    world: usize,
    rep_rank: usize,
    counts: AppProfile,
    files: std::collections::BTreeSet<u64>,
    streams: FxHashMap<(usize, u64, OpType), StreamState>,
    measured: BTreeMap<(OpType, u64), MeasAgg>,
    per_marker: BTreeMap<(u32, OpType), MeasAgg>,
    marker_of_rank: Vec<u32>,
    io_time_per_rank: Vec<Time>,
    // Phase accumulation on the representative rank.
    cur_burst: Option<Phase>,
    bursts: Vec<Phase>,
}

impl ProfileSink {
    /// A sink for a `world`-rank run; rank 0 is the phase representative.
    pub fn new(world: usize) -> ProfileSink {
        ProfileSink {
            world,
            rep_rank: 0,
            counts: AppProfile {
                procs: world,
                mode_read: AccessMode::Sequential,
                mode_write: AccessMode::Sequential,
                ..AppProfile::default()
            },
            files: Default::default(),
            streams: FxHashMap::default(),
            measured: BTreeMap::new(),
            per_marker: BTreeMap::new(),
            marker_of_rank: vec![u32::MAX; world],
            io_time_per_rank: vec![Time::ZERO; world],
            cur_burst: None,
            bursts: Vec::new(),
        }
    }

    /// Extends the representative rank's current burst with one op.
    fn push_burst_event(&mut self, kind: TraceKind, start: Time, end: Time) {
        let class = match kind {
            TraceKind::Write { .. } => PhaseClass::Write,
            TraceKind::Read { .. } => PhaseClass::Read,
            _ => PhaseClass::NonIo,
        };
        let bytes = if kind.io() { kind.bytes() } else { 0 };
        let marker = self.marker_of_rank[self.rep_rank];
        match &mut self.cur_burst {
            Some(b) if b.class == class => {
                b.end = end;
                b.ops += 1;
                b.bytes += bytes;
            }
            _ => {
                if let Some(b) = self.cur_burst.take() {
                    self.bursts.push(b);
                }
                self.cur_burst = Some(Phase {
                    class,
                    start,
                    end,
                    ops: 1,
                    bytes,
                    marker,
                });
            }
        }
    }

    fn record_io(&mut self, rank: usize, dur: Time, op: OpType, file: u64, offset: u64, len: u64) {
        self.files.insert(file);
        self.io_time_per_rank[rank] += dur;
        match op {
            OpType::Read => {
                self.counts.numio_read += 1;
                self.counts.bytes_read += len;
            }
            OpType::Write => {
                self.counts.numio_write += 1;
                self.counts.bytes_written += len;
            }
        }
        self.streams
            .entry((rank, file, op))
            .or_default()
            .observe(offset, len);
        let world = self.world;
        self.measured
            .entry((op, len))
            .or_default()
            .add(rank, world, len, dur);
        let marker = self.marker_of_rank[rank];
        if marker != u32::MAX {
            self.per_marker
                .entry((marker, op))
                .or_default()
                .add(rank, world, len, dur);
        }
    }

    /// Finalizes the profile.
    pub fn finish(mut self) -> AppProfile {
        if let Some(b) = self.cur_burst.take() {
            self.bursts.push(b);
        }
        let mut profile = self.counts.clone();
        profile.num_files = self.files.len();
        profile.io_time = self
            .io_time_per_rank
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);

        // Access-mode votes per op type across all streams.
        let mode_of = |op: OpType, streams: &FxHashMap<(usize, u64, OpType), StreamState>| {
            let (mut seq, mut strided, mut random) = (0u64, 0u64, 0u64);
            for ((_, _, o), s) in streams {
                if *o == op {
                    seq += s.seq;
                    strided += s.strided;
                    random += s.random;
                }
            }
            if seq >= strided && seq >= random {
                AccessMode::Sequential
            } else if strided >= random {
                AccessMode::Strided
            } else {
                AccessMode::Random
            }
        };
        profile.mode_read = mode_of(OpType::Read, &self.streams);
        profile.mode_write = mode_of(OpType::Write, &self.streams);

        for ((op, block), agg) in &self.measured {
            let mode = match op {
                OpType::Read => profile.mode_read,
                OpType::Write => profile.mode_write,
            };
            profile.measured.push(MeasuredRow {
                op: *op,
                block: *block,
                mode,
                rate: Bandwidth::measured(agg.bytes, agg.busiest()),
                ops: agg.ops,
                bytes: agg.bytes,
                iops: if agg.dur == Time::ZERO {
                    0.0
                } else {
                    agg.ops as f64 / agg.dur.as_secs_f64()
                },
                latency: if agg.ops == 0 {
                    Time::ZERO
                } else {
                    agg.dur / agg.ops
                },
            });
        }
        for ((marker, op), agg) in &self.per_marker {
            profile.per_marker.push(MarkerRates {
                marker: *marker,
                op: *op,
                rate: Bandwidth::measured(agg.bytes, agg.busiest()),
                bytes: agg.bytes,
                ops: agg.ops,
            });
        }
        let sizes = |op: OpType, measured: &BTreeMap<(OpType, u64), MeasAgg>| {
            measured
                .iter()
                .filter(|((o, _), _)| *o == op)
                .map(|((_, b), a)| (*b, a.ops))
                .collect::<Vec<_>>()
        };
        profile.read_sizes = sizes(OpType::Read, &self.measured);
        profile.write_sizes = sizes(OpType::Write, &self.measured);
        profile.phases = PhaseReport {
            bursts: self.bursts,
        };
        profile
    }
}

impl ObsSink for ProfileSink {
    fn event(&mut self, ev: &ObsEvent) {
        let ObsEvent::MpiOp {
            rank,
            start,
            end,
            kind,
        } = *ev
        else {
            return;
        };
        let rank = rank as usize;
        self.counts.exec_time = self.counts.exec_time.max(end);
        let dur = end.saturating_sub(start);
        match kind {
            TraceKind::Write {
                file, offset, len, ..
            } => self.record_io(rank, dur, OpType::Write, file, offset, len),
            TraceKind::Read {
                file, offset, len, ..
            } => self.record_io(rank, dur, OpType::Read, file, offset, len),
            TraceKind::Open { .. } => self.counts.numio_open += 1,
            TraceKind::Close { .. } => self.counts.numio_close += 1,
            TraceKind::Sync { .. } => self.counts.numio_sync += 1,
            TraceKind::Marker(id) => {
                self.marker_of_rank[rank] = id;
                if rank == self.rep_rank {
                    // A marker always breaks the current burst.
                    if let Some(b) = self.cur_burst.take() {
                        self.bursts.push(b);
                    }
                }
                return;
            }
            _ => {}
        }
        if rank == self.rep_rank {
            self.push_burst_event(kind, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, t0: u64, t1: u64, kind: TraceKind) -> ObsEvent {
        ObsEvent::MpiOp {
            rank,
            start: Time::from_micros(t0),
            end: Time::from_micros(t1),
            kind,
        }
    }

    fn write(rank: u32, t0: u64, t1: u64, offset: u64, len: u64) -> ObsEvent {
        ev(
            rank,
            t0,
            t1,
            TraceKind::Write {
                file: 1,
                offset,
                len,
                collective: false,
            },
        )
    }

    fn read(rank: u32, t0: u64, t1: u64, offset: u64, len: u64) -> ObsEvent {
        ev(
            rank,
            t0,
            t1,
            TraceKind::Read {
                file: 1,
                offset,
                len,
                collective: false,
            },
        )
    }

    #[test]
    fn counts_and_sizes() {
        let mut sink = ProfileSink::new(2);
        sink.event(&ev(
            0,
            0,
            1,
            TraceKind::Open {
                file: 1,
                create: true,
            },
        ));
        sink.event(&write(0, 1, 2, 0, 100));
        sink.event(&write(0, 2, 3, 100, 100));
        sink.event(&write(1, 1, 2, 200, 50));
        sink.event(&read(0, 3, 5, 0, 100));
        sink.event(&ev(0, 5, 6, TraceKind::Close { file: 1 }));
        let p = sink.finish();
        assert_eq!(p.numio_write, 3);
        assert_eq!(p.numio_read, 1);
        assert_eq!(p.numio_open, 1);
        assert_eq!(p.numio_close, 1);
        assert_eq!(p.bytes_written, 250);
        assert_eq!(p.bytes_read, 100);
        assert_eq!(p.num_files, 1);
        assert_eq!(p.write_sizes, vec![(50, 1), (100, 2)]);
        assert_eq!(p.read_sizes, vec![(100, 1)]);
        assert_eq!(p.procs, 2);
    }

    #[test]
    fn sequential_mode_detection() {
        let mut sink = ProfileSink::new(1);
        for i in 0..10u64 {
            sink.event(&write(0, i, i + 1, i * 100, 100));
        }
        let p = sink.finish();
        assert_eq!(p.mode_write, AccessMode::Sequential);
    }

    #[test]
    fn strided_mode_detection() {
        let mut sink = ProfileSink::new(1);
        for i in 0..10u64 {
            sink.event(&write(0, i, i + 1, i * 1000, 100));
        }
        let p = sink.finish();
        assert_eq!(p.mode_write, AccessMode::Strided);
    }

    #[test]
    fn random_mode_detection() {
        let offs = [0u64, 5000, 200, 9000, 100, 7000, 3000, 8000];
        let mut sink = ProfileSink::new(1);
        for (i, &o) in offs.iter().enumerate() {
            sink.event(&read(0, i as u64, i as u64 + 1, o, 10));
        }
        let p = sink.finish();
        assert_eq!(p.mode_read, AccessMode::Random);
    }

    #[test]
    fn measured_rates_per_block_size() {
        let mut sink = ProfileSink::new(1);
        // Two 1 MiB writes, each taking 10 ms → 2 MiB / 20 ms = 100 MiB/s.
        sink.event(&write(0, 0, 10_000, 0, 1 << 20));
        sink.event(&write(0, 10_000, 20_000, 1 << 20, 1 << 20));
        let p = sink.finish();
        assert_eq!(p.measured.len(), 1);
        let m = &p.measured[0];
        assert_eq!(m.block, 1 << 20);
        assert_eq!(m.ops, 2);
        assert!((m.rate.as_mib_per_sec() - 100.0).abs() < 1.0);
        assert!((m.iops - 100.0).abs() < 1.0);
        assert_eq!(m.latency, Time::from_millis(10));
        assert!((p.write_rate().as_mib_per_sec() - 100.0).abs() < 1.0);
    }

    #[test]
    fn io_time_is_slowest_rank() {
        let mut sink = ProfileSink::new(2);
        sink.event(&write(0, 0, 1_000, 0, 10));
        sink.event(&write(1, 0, 5_000, 0, 10));
        let p = sink.finish();
        assert_eq!(p.io_time, Time::from_millis(5));
        assert_eq!(p.exec_time, Time::from_millis(5));
    }

    #[test]
    fn bursts_separate_io_from_compute() {
        let mut sink = ProfileSink::new(1);
        sink.event(&write(0, 0, 1, 0, 10));
        sink.event(&write(0, 1, 2, 10, 10));
        sink.event(&ev(0, 2, 10, TraceKind::Compute));
        sink.event(&read(0, 10, 11, 0, 10));
        let p = sink.finish();
        let classes: Vec<PhaseClass> = p.phases.bursts.iter().map(|b| b.class).collect();
        assert_eq!(
            classes,
            vec![PhaseClass::Write, PhaseClass::NonIo, PhaseClass::Read]
        );
        assert_eq!(p.phases.bursts[0].ops, 2);
        assert_eq!(p.phases.bursts[0].bytes, 20);
        assert_eq!(p.phases.io_phases().count(), 2);
    }

    #[test]
    fn signature_weights_count_repetitions() {
        let mut sink = ProfileSink::new(1);
        for rep in 0..5u64 {
            let t = rep * 100;
            sink.event(&write(0, t, t + 1, rep * 1000, 512));
            sink.event(&ev(0, t + 1, t + 50, TraceKind::Compute));
        }
        let p = sink.finish();
        let w = p.phases.signature_weights();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, PhaseClass::Write);
        assert_eq!(w[0].2, 5, "five repetitions of the same write phase");
    }

    #[test]
    fn markers_segment_rates() {
        let mut sink = ProfileSink::new(1);
        sink.event(&ev(0, 0, 0, TraceKind::Marker(7)));
        sink.event(&write(0, 0, 1000, 0, 1 << 20));
        sink.event(&ev(0, 1000, 1000, TraceKind::Marker(8)));
        sink.event(&read(0, 1000, 3000, 0, 1 << 20));
        let p = sink.finish();
        assert_eq!(p.per_marker.len(), 2);
        assert_eq!(p.per_marker[0].marker, 7);
        assert_eq!(p.per_marker[0].op, OpType::Write);
        assert_eq!(p.per_marker[1].marker, 8);
        assert_eq!(p.per_marker[1].op, OpType::Read);
        assert_eq!(p.per_marker[1].bytes, 1 << 20);
    }
}
