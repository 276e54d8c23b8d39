//! The [`Volume`] abstraction shared by JBOD, RAID engines and caches.

use crate::req::{BlockReq, IoGrant};
use serde::{Deserialize, Serialize};
use simcore::stats::TransferMeter;
use simcore::Time;
use std::fmt;

/// Typed errors for volume configuration and fault operations.
///
/// Configuration mistakes (too few members, zero stripe) and fault
/// injections the volume cannot honour surface here instead of panicking,
/// so evaluation campaigns can reject bad configs gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeError {
    /// The volume kind does not support the requested fault operation
    /// (e.g. failing a member of a JBOD, which has no redundancy).
    Unsupported(&'static str),
    /// The layout needs more member disks than were supplied.
    TooFewMembers {
        /// Volume kind (e.g. `"RAID 5"`).
        kind: &'static str,
        /// Minimum member count for the layout.
        need: usize,
        /// Members actually supplied.
        got: usize,
    },
    /// The stripe chunk size must be nonzero.
    ZeroStripe,
    /// A member index beyond the array width.
    UnknownMember {
        /// The offending index.
        disk: usize,
        /// Number of members in the array.
        members: usize,
    },
    /// The array already lost a member; a second failure is data loss.
    AlreadyDegraded {
        /// The member that already failed.
        failed: usize,
    },
    /// The member is healthy, so there is nothing to replace.
    NotFailed {
        /// The offending index.
        disk: usize,
    },
    /// A replacement is already being rebuilt onto.
    RebuildInProgress,
}

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeError::Unsupported(kind) => {
                write!(f, "{kind} does not support this fault operation")
            }
            VolumeError::TooFewMembers { kind, need, got } => {
                write!(f, "{kind} needs at least {need} members, got {got}")
            }
            VolumeError::ZeroStripe => write!(f, "stripe chunk size must be nonzero"),
            VolumeError::UnknownMember { disk, members } => {
                write!(f, "member {disk} out of range (array has {members})")
            }
            VolumeError::AlreadyDegraded { failed } => {
                write!(
                    f,
                    "member {failed} already failed; a second failure loses data"
                )
            }
            VolumeError::NotFailed { disk } => {
                write!(f, "member {disk} has not failed; nothing to replace")
            }
            VolumeError::RebuildInProgress => {
                write!(f, "a rebuild is already in progress")
            }
        }
    }
}

impl std::error::Error for VolumeError {}

/// Progress of a background rebuild onto a replacement member.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RebuildReport {
    /// When the replacement arrived and the rebuild began.
    pub started: Time,
    /// When the rebuild completed (`None` while still running).
    pub finished: Option<Time>,
    /// Member-local bytes already written to the replacement.
    pub bytes_done: u64,
    /// Member-local bytes the rebuild must cover in total.
    pub bytes_total: u64,
}

impl RebuildReport {
    /// Length of the rebuild window so far (or in total once finished),
    /// measured from `started` to `finished`/`now`.
    pub fn duration(&self, now: Time) -> Time {
        self.finished.unwrap_or(now).saturating_sub(self.started)
    }
}

/// One read a volume served: when it arrived, what it asked for and when
/// it ran. A read train's period is a list of these (DESIGN §5e.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedRead {
    /// Arrival instant of the request.
    pub arrival: Time,
    /// The request.
    pub req: BlockReq,
    /// Its completion times.
    pub grant: IoGrant,
}

/// Limits a volume puts on a read train (see
/// [`Volume::read_train_state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadTrainBounds {
    /// The volume's fault horizon: every read of a train completes before
    /// it, so fault windows see event-granular traffic.
    pub horizon: Option<Time>,
    /// Every read of a train ends before this offset.
    pub end: u64,
}

/// Transfer accounting for a volume, split by direction.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VolumeMeter {
    /// Read-side meter (bytes, rate, IOPs, latency).
    pub reads: TransferMeter,
    /// Write-side meter.
    pub writes: TransferMeter,
    /// Number of physical disk operations issued (parity and mirror
    /// traffic included), for write-amplification analysis.
    pub disk_ios: u64,
}

impl VolumeMeter {
    /// Records a logical request outcome.
    pub fn record(&mut self, req: &BlockReq, arrival: Time, grant: &IoGrant) {
        let meter = if req.op.is_write() {
            &mut self.writes
        } else {
            &mut self.reads
        };
        meter.record(req.len, grant.latency(arrival));
    }

    /// Records the same outcome `n` times.
    pub fn record_n(&mut self, req: &BlockReq, arrival: Time, grant: &IoGrant, n: u64) {
        let meter = if req.op.is_write() {
            &mut self.writes
        } else {
            &mut self.reads
        };
        meter.record_n(req.len, grant.latency(arrival), n);
    }
}

/// A block volume: a logical byte address space with timed access.
///
/// Implementations must tolerate requests arriving in nondecreasing
/// simulation time; within that contract completion times are exact FIFO
/// queueing results.
pub trait Volume {
    /// Submits a request arriving at `now`; returns its completion times.
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant;

    /// Submits a logical request as `⌈len/chunk⌉` chunk-sized sub-requests
    /// all arriving at `now` and returns the joined grant envelope — the
    /// chunked submission pattern filesystem writeback uses. Volumes with a
    /// closed-form bulk path ([`Volume::try_bulk_run`]) collapse eligible
    /// runs to O(members) arithmetic; the grants, meters and member state
    /// are identical either way.
    fn submit_run(&mut self, now: Time, req: BlockReq, chunk: u64) -> IoGrant {
        debug_assert!(req.len > 0 && chunk > 0, "empty chunked run");
        // One aggregate event per run, from either path below. The closed
        // form and the granular loop produce identical grant envelopes, so
        // the trace aggregates identically with fast paths on or off (only
        // the `bulk` flag differs).
        let emit_run = |grant: &IoGrant, bulk: bool, kind: &'static str| {
            simcore::obs::emit(|| simcore::obs::ObsEvent::StorageRun {
                volume: kind,
                write: req.op.is_write(),
                bytes: req.len,
                ops: req.len.div_ceil(chunk),
                start: grant.start,
                end: grant.ack,
                bulk,
            });
        };
        if let Some(grant) = self.try_bulk_run(now, req, chunk) {
            emit_run(&grant, true, self.kind());
            return grant;
        }
        let mut grant: Option<IoGrant> = None;
        let mut pos = 0;
        while pos < req.len {
            let take = chunk.min(req.len - pos);
            let g = self.submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: req.offset + pos,
                    len: take,
                },
            );
            grant = Some(match grant {
                Some(acc) => acc.join(g),
                None => g,
            });
            pos += take;
        }
        let grant = grant.expect("nonzero request produced no chunks");
        emit_run(&grant, false, self.kind());
        grant
    }

    /// Attempts the closed-form bulk path for a chunked run; `None` makes
    /// [`Volume::submit_run`] fall back to the event-granular loop.
    /// Implementations must produce exactly the grants, meter updates and
    /// member-disk state the granular loop would, and must decline whenever
    /// a fault window ([`Volume::set_fault_horizon`]) could overlap the
    /// transfer. Wrapper volumes with per-chunk state of their own (e.g.
    /// the controller write cache) keep the default so every chunk passes
    /// through their `submit`.
    fn try_bulk_run(&mut self, _now: Time, _req: BlockReq, _chunk: u64) -> Option<IoGrant> {
        None
    }

    /// Read-train support (DESIGN §5e.6). Appends to `out` what a
    /// sequential read starting at `offset`, arriving at or after `now`,
    /// reads of this volume and a move in time and offset would not leave
    /// equal: member free instants relative to `now`, member choices.
    /// Returns the bounds a train of such reads must stay within, or `None`
    /// when the next read does not move with time and offset (a head away
    /// from `offset` draws a random positioning time; a rebuild works on
    /// its own clock). Reads leave a controller write cache alone, so JBOD,
    /// RAID 1 and [`crate::CachedVolume`] over either implement it; every
    /// other volume declines.
    fn read_train_state(
        &self,
        _now: Time,
        _offset: u64,
        _out: &mut Vec<u64>,
    ) -> Option<ReadTrainBounds> {
        None
    }

    /// Applies `n` more repetitions of a read train's period `reads`, the
    /// j-th `j × period` later and `j × stride` bytes further on: the
    /// member timelines, heads and meters that as many more
    /// [`Volume::submit`] calls would leave. Called only when
    /// [`Volume::read_train_state`] gave equal states before and after the
    /// period and the repetitions stay within its bounds.
    fn repeat_reads(&mut self, _reads: &[TimedRead], _period: Time, _stride: u64, _n: u64) {
        unreachable!("{} has no read trains", self.kind());
    }

    /// Installs the *fault horizon*: the instant of the next scheduled
    /// fault, if any. Bulk fast paths refuse runs whose completion bound
    /// crosses it, so fault windows always see event-granular traffic.
    fn set_fault_horizon(&mut self, _horizon: Option<Time>) {}

    /// Enables or disables this volume's bulk fast path (diagnostics and
    /// equivalence tests).
    fn set_bulk_enabled(&mut self, _on: bool) {}

    /// `(hits, misses)` of the bulk fast path: runs served in closed form
    /// vs. chunked runs that fell back to the granular loop.
    fn bulk_run_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Forces all previously acknowledged writes to stable media; returns
    /// the instant everything submitted so far is durable.
    fn flush(&mut self, now: Time) -> Time;

    /// Usable capacity in bytes (parity/mirror overhead excluded).
    fn capacity(&self) -> u64;

    /// Volume kind for reports (e.g. `"RAID 5"`).
    fn kind(&self) -> &'static str;

    /// Access statistics.
    fn meter(&self) -> &VolumeMeter;

    // --- Fault hooks -----------------------------------------------------
    //
    // Default implementations reject every fault: a volume participates in
    // fault injection only by overriding the hooks it can honour. Wrapper
    // volumes (caches, adapters) must forward all of them.

    /// Marks member `disk` as failed; redundant volumes keep serving in
    /// degraded mode.
    fn fail_disk(&mut self, _disk: usize) -> Result<(), VolumeError> {
        Err(VolumeError::Unsupported(self.kind()))
    }

    /// Hot-swaps the failed member `disk` for a fresh drive at `now` and
    /// starts a background rebuild onto it.
    fn replace_disk(&mut self, _now: Time, _disk: usize) -> Result<(), VolumeError> {
        Err(VolumeError::Unsupported(self.kind()))
    }

    /// Multiplies member `disk`'s service times by `factor` (a "limping"
    /// drive; `1.0` restores nominal service).
    fn set_disk_slowdown(&mut self, _disk: usize, _factor: f64) -> Result<(), VolumeError> {
        Err(VolumeError::Unsupported(self.kind()))
    }

    /// Advances background work (rebuild) whose issue instants fall at or
    /// before `now`. Called by the volume itself on every foreground
    /// request; exposed so idle periods can also be covered.
    fn pump(&mut self, _now: Time) {}

    /// Progress of the current (or last) rebuild, if any ever ran.
    fn rebuild_report(&self) -> Option<RebuildReport> {
        None
    }

    /// Drives any in-flight rebuild to completion and returns the instant
    /// it finishes (`now` when nothing is rebuilding).
    fn finish_rebuild(&mut self, now: Time) -> Time {
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::BlockOp;

    #[test]
    fn meter_splits_directions() {
        let mut m = VolumeMeter::default();
        let g = IoGrant {
            start: Time::ZERO,
            ack: Time::from_millis(1),
            durable: Time::from_millis(1),
        };
        m.record(&BlockReq::read(0, 100), Time::ZERO, &g);
        m.record(&BlockReq::write(0, 300), Time::ZERO, &g);
        m.record(&BlockReq::write(300, 300), Time::ZERO, &g);
        assert_eq!(m.reads.bytes(), 100);
        assert_eq!(m.reads.ops(), 1);
        assert_eq!(m.writes.bytes(), 600);
        assert_eq!(m.writes.ops(), 2);
        assert!(!BlockOp::Read.is_write());
    }
}
