//! JBOD and RAID volume engines.
//!
//! * [`Jbod`] — a single disk exposed as a volume (the paper's "JBOD
//!   configuration is single disk without redundancy").
//! * [`Raid0`] — striping, no redundancy.
//! * [`Raid1`] — mirroring; writes go to both members, reads are balanced
//!   across members with sequential affinity (a sequential stream stays on
//!   one member; concurrent streams spread over both).
//! * [`Raid5`] — block-interleaved distributed parity with the
//!   *left-symmetric* layout. Full-stripe writes update parity in place;
//!   small writes pay the classic read-modify-write penalty. Sequential
//!   partial writes are *coalesced*: parity for a stripe row is written once
//!   when the row fills (the job of a controller stripe cache), while
//!   abandoned partial rows are settled with an RMW.
//!
//! Address mapping is exact and property-tested ([`raid5_locate`]); command
//! *submission* aggregates per-disk contiguous spans so a 162 MB request
//! costs a handful of disk commands instead of hundreds, without changing
//! the timing model (the spans are physically contiguous on each member).

use crate::disk::Disk;
use crate::inline::InlineVec;
use crate::req::{BlockOp, BlockReq, IoGrant};
use crate::volume::{RebuildReport, Volume, VolumeError, VolumeMeter};
use simcore::Time;

/// Member-local bytes reconstructed per background rebuild pass.
const REBUILD_BATCH: u64 = 4 * 1024 * 1024;

/// Inline capacity for per-member scratch arrays: sized to the widest
/// arrays in the evaluated configurations so striping never allocates.
const MAX_INLINE_MEMBERS: usize = 8;

/// Per-member outcome of a closed-form bulk run: the normally positioned
/// first command plus the uniform service time of its sequential followers.
#[derive(Clone, Copy, Debug, Default)]
struct MemberRun {
    start: Time,
    first_ack: Time,
    service: Time,
}

impl MemberRun {
    /// Completion of the member's `i`-th command (0-based).
    fn ack(&self, i: u64) -> Time {
        self.first_ack + self.service * i
    }

    /// Start of the member's `i`-th command; followers run back-to-back.
    fn start_of(&self, i: u64) -> Time {
        if i == 0 {
            self.start
        } else {
            self.ack(i - 1)
        }
    }
}

/// Issues `count` equal chunk commands per member `(disk, first offset,
/// piece length)`: the first through [`Disk::submit`] (normal positioning
/// and RNG), the remaining `count - 1` collapsed through
/// [`Disk::submit_seq_run`]. Members are visited in the order given — the
/// order the granular loop submits in — so per-disk command sequences and
/// RNG draws are identical to `count` chunked submissions.
fn run_members<'a>(
    members: impl Iterator<Item = (&'a mut Disk, u64, u64)>,
    now: Time,
    op: BlockOp,
    count: u64,
) -> InlineVec<MemberRun, MAX_INLINE_MEMBERS> {
    let mut runs = InlineVec::new();
    for (disk, off, piece) in members {
        let first = disk.submit(
            now,
            BlockReq {
                op,
                offset: off,
                len: piece,
            },
        );
        let service = if count > 1 {
            disk.submit_seq_run(now, op, off + piece, piece, count - 1)
                .service
        } else {
            Time::ZERO
        };
        runs.push(MemberRun {
            start: first.start,
            first_ack: first.ack,
            service,
        });
    }
    runs
}

/// Replays the per-chunk logical grants the granular loop would have
/// recorded (identical arrivals, identical join order) and returns the
/// envelope grant of the whole run.
fn record_chunks(
    meter: &mut VolumeMeter,
    runs: &[MemberRun],
    now: Time,
    op: BlockOp,
    offset: u64,
    chunk: u64,
    count: u64,
) -> IoGrant {
    let mut envelope: Option<IoGrant> = None;
    for i in 0..count {
        let mut grant: Option<IoGrant> = None;
        for r in runs {
            let part = IoGrant {
                start: r.start_of(i),
                ack: r.ack(i),
                durable: r.ack(i),
            };
            grant = Some(match grant {
                Some(acc) => acc.join(part),
                None => part,
            });
        }
        let grant = grant.expect("bulk run has members");
        meter.record(
            &BlockReq {
                op,
                offset: offset + i * chunk,
                len: chunk,
            },
            now,
            &grant,
        );
        meter.disk_ios += runs.len() as u64;
        envelope = Some(match envelope {
            Some(acc) => acc.join(grant),
            None => grant,
        });
    }
    envelope.expect("bulk run has chunks")
}

/// Conservative completion bound for a member running `count` commands of
/// `piece` bytes from `now`: one worst-case positioning (the sequential
/// followers position for free) plus per-command overhead and media time.
/// Used only to keep closed-form runs from crossing the fault horizon;
/// overshooting merely falls back to the granular path.
fn member_bound(disk: &Disk, now: Time, op: BlockOp, piece: u64, count: u64) -> Time {
    let p = disk.params();
    let bw = if op.is_write() { p.write_bw } else { p.read_bw };
    now.max(disk.free_at())
        + p.avg_seek * 2
        + p.full_revolution
        + (p.cmd_overhead + bw.time_for(piece)) * count
}

/// Whether a run bounded by `bound` stays clear of the fault horizon.
fn horizon_allows(horizon: Option<Time>, bound: Time) -> bool {
    horizon.is_none_or(|h| bound < h)
}

/// Number of `x` in `[a, b]` with `x % n == m`.
fn count_mod(a: u64, b: u64, n: u64, m: u64) -> u64 {
    if a > b {
        return 0;
    }
    let first = a + (m + n - a % n) % n;
    if first > b {
        0
    } else {
        (b - first) / n + 1
    }
}

/// Background rebuild of a replacement member.
///
/// Rebuild I/O is *lazily pumped*: whenever foreground work observes
/// simulated time `now`, all rebuild batches whose issue instants fall at
/// or before `now` are submitted first. Each batch reads the batch extent
/// from every surviving member, writes the reconstructed data to the
/// replacement, and schedules the next batch at its completion — so
/// rebuild traffic competes with foreground I/O on the member FIFO
/// timelines exactly as a `md`-style resync does, while submissions stay
/// nondecreasing in time.
///
/// Only the written extent of the array is resilvered (bitmap-assisted
/// resync), so rebuild duration is proportional to the data footprint.
#[derive(Clone, Copy, Debug)]
struct Rebuilder {
    /// Member being rebuilt onto.
    target: usize,
    /// Next member-local offset to reconstruct.
    next_off: u64,
    /// Issue instant of the next batch (completion of the previous one).
    next_issue: Time,
    /// Externally visible progress.
    report: RebuildReport,
}

impl Rebuilder {
    fn new(target: usize, total: u64, now: Time) -> Rebuilder {
        Rebuilder {
            target,
            next_off: 0,
            next_issue: now,
            report: RebuildReport {
                started: now,
                finished: None,
                bytes_done: 0,
                bytes_total: total,
            },
        }
    }

    fn running(&self) -> bool {
        self.report.finished.is_none()
    }
}

/// Location of one logical byte range inside a RAID 5 array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Raid5Chunk {
    /// Stripe row index.
    pub row: u64,
    /// Member disk holding the data.
    pub disk: usize,
    /// Byte offset on that member disk.
    pub disk_offset: u64,
    /// Member disk holding the row's parity.
    pub parity_disk: usize,
}

/// Maps a logical byte offset to its RAID 5 location (left-symmetric layout:
/// parity rotates from the last disk downward; data chunks follow the parity
/// disk cyclically).
///
/// Geometry is assumed valid; configuration paths validate through
/// [`try_raid5_locate`] or [`Raid5::try_new`] instead of panicking.
pub fn raid5_locate(offset: u64, stripe: u64, n_disks: usize) -> Raid5Chunk {
    try_raid5_locate(offset, stripe, n_disks).expect("invalid RAID 5 geometry")
}

/// Fallible form of [`raid5_locate`]: rejects arrays of fewer than three
/// members and zero stripe sizes with a typed error instead of panicking.
pub fn try_raid5_locate(
    offset: u64,
    stripe: u64,
    n_disks: usize,
) -> Result<Raid5Chunk, VolumeError> {
    if n_disks < 3 {
        return Err(VolumeError::TooFewMembers {
            kind: "RAID 5",
            need: 3,
            got: n_disks,
        });
    }
    if stripe == 0 {
        return Err(VolumeError::ZeroStripe);
    }
    let n = n_disks as u64;
    let row_width = (n - 1) * stripe;
    let row = offset / row_width;
    let within = offset % row_width;
    let chunk = within / stripe;
    let off_in_chunk = within % stripe;
    let parity = (n - 1) - (row % n);
    let disk = (parity + 1 + chunk) % n;
    Ok(Raid5Chunk {
        row,
        disk: disk as usize,
        disk_offset: row * stripe + off_in_chunk,
        parity_disk: parity as usize,
    })
}

/// A single-disk volume.
pub struct Jbod {
    disk: Disk,
    meter: VolumeMeter,
    fault_horizon: Option<Time>,
    bulk_enabled: bool,
    bulk_hits: u64,
    bulk_misses: u64,
}

impl Jbod {
    /// Wraps `disk` as a volume.
    pub fn new(disk: Disk) -> Jbod {
        Jbod {
            disk,
            meter: VolumeMeter::default(),
            fault_horizon: None,
            bulk_enabled: true,
            bulk_hits: 0,
            bulk_misses: 0,
        }
    }
}

impl Volume for Jbod {
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        let grant = self.disk.submit(now, req);
        self.meter.record(&req, now, &grant);
        self.meter.disk_ios += 1;
        grant
    }

    fn try_bulk_run(&mut self, now: Time, req: BlockReq, chunk: u64) -> Option<IoGrant> {
        let full = req.len / chunk;
        let ok = self.bulk_enabled
            && full >= 2
            && self.disk.slow_factor() == 1.0
            && horizon_allows(
                self.fault_horizon,
                member_bound(&self.disk, now, req.op, chunk, full),
            );
        if !ok {
            self.bulk_misses += 1;
            return None;
        }
        self.bulk_hits += 1;
        let runs = run_members(
            std::iter::once((&mut self.disk, req.offset, chunk)),
            now,
            req.op,
            full,
        );
        let mut grant = record_chunks(&mut self.meter, &runs, now, req.op, req.offset, chunk, full);
        let tail = req.len % chunk;
        if tail > 0 {
            grant = grant.join(self.submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: req.offset + full * chunk,
                    len: tail,
                },
            ));
        }
        Some(grant)
    }

    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.fault_horizon = horizon;
    }

    fn set_bulk_enabled(&mut self, on: bool) {
        self.bulk_enabled = on;
    }

    fn bulk_run_stats(&self) -> (u64, u64) {
        (self.bulk_hits, self.bulk_misses)
    }

    fn flush(&mut self, _now: Time) -> Time {
        self.disk.free_at()
    }

    fn capacity(&self) -> u64 {
        self.disk.params().capacity
    }

    fn kind(&self) -> &'static str {
        "JBOD"
    }

    fn meter(&self) -> &VolumeMeter {
        &self.meter
    }

    // JBOD has no redundancy: a member failure is data loss, so only the
    // slow-down fault is honoured.
    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        if disk != 0 {
            return Err(VolumeError::UnknownMember { disk, members: 1 });
        }
        self.disk.set_slow_factor(factor);
        Ok(())
    }
}

/// A striped (RAID 0) volume.
pub struct Raid0 {
    disks: Vec<Disk>,
    stripe: u64,
    meter: VolumeMeter,
    fault_horizon: Option<Time>,
    bulk_enabled: bool,
    bulk_hits: u64,
    bulk_misses: u64,
}

impl Raid0 {
    /// Builds a stripe set over `disks` with the given chunk size.
    ///
    /// Panics on invalid geometry; configuration paths should prefer
    /// [`Raid0::try_new`].
    pub fn new(disks: Vec<Disk>, stripe: u64) -> Raid0 {
        Raid0::try_new(disks, stripe).expect("invalid RAID 0 geometry")
    }

    /// Fallible constructor: rejects fewer than two members or a zero
    /// stripe with a typed error.
    pub fn try_new(disks: Vec<Disk>, stripe: u64) -> Result<Raid0, VolumeError> {
        if disks.len() < 2 {
            return Err(VolumeError::TooFewMembers {
                kind: "RAID 0",
                need: 2,
                got: disks.len(),
            });
        }
        if stripe == 0 {
            return Err(VolumeError::ZeroStripe);
        }
        Ok(Raid0 {
            disks,
            stripe,
            meter: VolumeMeter::default(),
            fault_horizon: None,
            bulk_enabled: true,
            bulk_hits: 0,
            bulk_misses: 0,
        })
    }

    /// Per-disk contiguous spans covering `req` (member, offset, len), in
    /// member order. Closed form: the stripe chunks member `d` serves form
    /// an arithmetic progression, so its span is delimited by its first and
    /// last owned chunk — no per-chunk walk, and no allocation for arrays
    /// of up to `MAX_INLINE_MEMBERS` (8) members.
    pub fn spans(&self, req: &BlockReq) -> InlineVec<(usize, u64, u64), MAX_INLINE_MEMBERS> {
        let n = self.disks.len() as u64;
        let end = req.end();
        let c0 = req.offset / self.stripe;
        let c1 = (end - 1) / self.stripe;
        let mut out = InlineVec::new();
        for d in 0..n {
            // First and last chunk indices in [c0, c1] owned by member d
            // (chunk c lives on member c % n).
            let first = c0 + (d + n - c0 % n) % n;
            if first > c1 {
                continue;
            }
            let last = c1 - (c1 % n + n - d) % n;
            let start = (first / n) * self.stripe
                + if first == c0 {
                    req.offset % self.stripe
                } else {
                    0
                };
            let stop = (last / n) * self.stripe
                + if last == c1 {
                    (end - 1) % self.stripe + 1
                } else {
                    self.stripe
                };
            out.push((d as usize, start, stop - start));
        }
        out
    }
}

impl Volume for Raid0 {
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        let mut grant: Option<IoGrant> = None;
        for &(disk, off, len) in self.spans(&req).iter() {
            let g = self.disks[disk].submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: off,
                    len,
                },
            );
            self.meter.disk_ios += 1;
            grant = Some(match grant {
                Some(acc) => acc.join(g),
                None => g,
            });
        }
        let grant = grant.expect("nonzero request produced no spans");
        self.meter.record(&req, now, &grant);
        grant
    }

    fn flush(&mut self, _now: Time) -> Time {
        self.disks
            .iter()
            .map(|d| d.free_at())
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn capacity(&self) -> u64 {
        self.disks.iter().map(|d| d.params().capacity).sum()
    }

    fn kind(&self) -> &'static str {
        "RAID 0"
    }

    fn meter(&self) -> &VolumeMeter {
        &self.meter
    }

    fn try_bulk_run(&mut self, now: Time, req: BlockReq, chunk: u64) -> Option<IoGrant> {
        let n = self.disks.len() as u64;
        let width = n * self.stripe;
        let full = req.len / chunk;
        let piece = chunk / n;
        let ok = self.bulk_enabled
            && full >= 2
            && req.offset.is_multiple_of(width)
            && chunk.is_multiple_of(width)
            && self.disks.iter().all(|d| d.slow_factor() == 1.0)
            && horizon_allows(
                self.fault_horizon,
                self.disks
                    .iter()
                    .map(|d| member_bound(d, now, req.op, piece, full))
                    .max()
                    .unwrap_or(now),
            );
        if !ok {
            self.bulk_misses += 1;
            return None;
        }
        self.bulk_hits += 1;
        // Width-aligned chunks split evenly: every member serves piece
        // `chunk / n` at member offset `req.offset / n`, per chunk.
        let base = req.offset / n;
        let runs = run_members(
            self.disks.iter_mut().map(|d| (d, base, piece)),
            now,
            req.op,
            full,
        );
        let mut grant = record_chunks(&mut self.meter, &runs, now, req.op, req.offset, chunk, full);
        let tail = req.len % chunk;
        if tail > 0 {
            grant = grant.join(self.submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: req.offset + full * chunk,
                    len: tail,
                },
            ));
        }
        Some(grant)
    }

    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.fault_horizon = horizon;
    }

    fn set_bulk_enabled(&mut self, on: bool) {
        self.bulk_enabled = on;
    }

    fn bulk_run_stats(&self) -> (u64, u64) {
        (self.bulk_hits, self.bulk_misses)
    }

    // RAID 0 has no redundancy either; only slow-downs are injectable.
    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        match self.disks.get_mut(disk) {
            Some(d) => {
                d.set_slow_factor(factor);
                Ok(())
            }
            None => Err(VolumeError::UnknownMember {
                disk,
                members: self.disks.len(),
            }),
        }
    }
}

/// A mirrored (RAID 1) volume over two members.
pub struct Raid1 {
    disks: [Box<Disk>; 2],
    meter: VolumeMeter,
    last_read_end: [Option<u64>; 2],
    /// Rolling best reader: `(end offset, member)` of the most recent read,
    /// with the scan's member-0 tie rule already applied. A sequential
    /// stream hits this without rescanning the members.
    seq_hint: Option<(u64, usize)>,
    /// A failed member (degraded mode), if any.
    failed: Option<usize>,
    rebuild: Option<Rebuilder>,
    /// Highest logical byte ever addressed — the extent a rebuild covers.
    high_water: u64,
    fault_horizon: Option<Time>,
    bulk_enabled: bool,
    bulk_hits: u64,
    bulk_misses: u64,
}

impl Raid1 {
    /// Builds a mirror pair.
    pub fn new(primary: Disk, mirror: Disk) -> Raid1 {
        Raid1 {
            disks: [Box::new(primary), Box::new(mirror)],
            meter: VolumeMeter::default(),
            last_read_end: [None, None],
            seq_hint: None,
            failed: None,
            rebuild: None,
            high_water: 0,
            fault_horizon: None,
            bulk_enabled: true,
            bulk_hits: 0,
            bulk_misses: 0,
        }
    }

    /// The failed member, if any.
    pub fn failed_disk(&self) -> Option<usize> {
        self.failed
    }

    /// Cumulative command counts per member (mirror balance analysis).
    pub fn member_ios(&self) -> [u64; 2] {
        [self.disks[0].ios(), self.disks[1].ios()]
    }

    /// Read balancing: a dead member never serves; otherwise prefer the
    /// member whose head is already positioned (sequential affinity), then
    /// the member that frees up earliest. The rolling `seq_hint` answers
    /// the common sequential-stream case in O(1); the scan below only runs
    /// on hint misses and is behaviour-identical to checking both members
    /// in index order.
    fn pick_reader(&self, offset: u64) -> usize {
        if let Some(f) = self.failed {
            return 1 - f;
        }
        if let Some((end, d)) = self.seq_hint {
            if end == offset {
                return d;
            }
        }
        for (i, end) in self.last_read_end.iter().enumerate() {
            if *end == Some(offset) {
                return i;
            }
        }
        if self.disks[0].free_at() <= self.disks[1].free_at() {
            0
        } else {
            1
        }
    }

    /// Updates the rolling reader hint after a read on member `d` ending at
    /// `end`, applying the scan's tie rule (member 0 wins when both heads
    /// sit at `end`) so a later hint hit picks the same member the scan
    /// would have.
    fn note_read(&mut self, d: usize, end: u64) {
        let hint = if d == 1 && self.last_read_end[0] == Some(end) {
            0
        } else {
            d
        };
        self.seq_hint = Some((end, hint));
        self.last_read_end[d] = Some(end);
    }
}

impl Volume for Raid1 {
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        self.pump(now);
        self.high_water = self.high_water.max(req.end());
        let grant = match req.op {
            BlockOp::Write => match self.failed {
                // Degraded: only the survivor takes the write.
                Some(f) => {
                    let g = self.disks[1 - f].submit(now, req);
                    self.meter.disk_ios += 1;
                    g
                }
                None => {
                    // Both members must be written; ack when both complete.
                    let g0 = self.disks[0].submit(now, req);
                    let g1 = self.disks[1].submit(now, req);
                    self.meter.disk_ios += 2;
                    g0.join(g1)
                }
            },
            BlockOp::Read => {
                let d = self.pick_reader(req.offset);
                let g = self.disks[d].submit(now, req);
                self.note_read(d, req.end());
                self.meter.disk_ios += 1;
                g
            }
        };
        self.meter.record(&req, now, &grant);
        grant
    }

    fn flush(&mut self, now: Time) -> Time {
        self.pump(now);
        self.disks[0].free_at().max(self.disks[1].free_at())
    }

    fn capacity(&self) -> u64 {
        self.disks[0]
            .params()
            .capacity
            .min(self.disks[1].params().capacity)
    }

    fn kind(&self) -> &'static str {
        "RAID 1"
    }

    fn meter(&self) -> &VolumeMeter {
        &self.meter
    }

    fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        if disk >= 2 {
            return Err(VolumeError::UnknownMember { disk, members: 2 });
        }
        if let Some(failed) = self.failed {
            return Err(VolumeError::AlreadyDegraded { failed });
        }
        self.failed = Some(disk);
        self.last_read_end[disk] = None;
        if self.seq_hint.is_some_and(|(_, d)| d == disk) {
            self.seq_hint = None;
        }
        Ok(())
    }

    fn replace_disk(&mut self, now: Time, disk: usize) -> Result<(), VolumeError> {
        if disk >= 2 {
            return Err(VolumeError::UnknownMember { disk, members: 2 });
        }
        if self.rebuild.is_some_and(|rb| rb.running()) {
            return Err(VolumeError::RebuildInProgress);
        }
        if self.failed != Some(disk) {
            return Err(VolumeError::NotFailed { disk });
        }
        self.disks[disk].swap_fresh();
        let total = self.high_water;
        let mut rb = Rebuilder::new(disk, total, now);
        if total == 0 {
            rb.report.finished = Some(now);
            self.failed = None;
        }
        self.rebuild = Some(rb);
        Ok(())
    }

    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        if disk >= 2 {
            return Err(VolumeError::UnknownMember { disk, members: 2 });
        }
        self.disks[disk].set_slow_factor(factor);
        Ok(())
    }

    fn try_bulk_run(&mut self, now: Time, req: BlockReq, chunk: u64) -> Option<IoGrant> {
        let full = req.len / chunk;
        let ok = self.bulk_enabled
            && req.op.is_write()
            && full >= 2
            && self.failed.is_none()
            && !self.rebuild.is_some_and(|rb| rb.running())
            && self.disks.iter().all(|d| d.slow_factor() == 1.0)
            && horizon_allows(
                self.fault_horizon,
                self.disks
                    .iter()
                    .map(|d| member_bound(d, now, req.op, chunk, full))
                    .max()
                    .unwrap_or(now),
            );
        if !ok {
            self.bulk_misses += 1;
            return None;
        }
        self.bulk_hits += 1;
        // pump() is a no-op here (no running rebuild, by eligibility).
        self.high_water = self.high_water.max(req.offset + full * chunk);
        let runs = run_members(
            self.disks.iter_mut().map(|d| (&mut **d, req.offset, chunk)),
            now,
            req.op,
            full,
        );
        let mut grant = record_chunks(&mut self.meter, &runs, now, req.op, req.offset, chunk, full);
        let tail = req.len % chunk;
        if tail > 0 {
            grant = grant.join(self.submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: req.offset + full * chunk,
                    len: tail,
                },
            ));
        }
        Some(grant)
    }

    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.fault_horizon = horizon;
    }

    fn set_bulk_enabled(&mut self, on: bool) {
        self.bulk_enabled = on;
    }

    fn bulk_run_stats(&self) -> (u64, u64) {
        (self.bulk_hits, self.bulk_misses)
    }

    fn pump(&mut self, now: Time) {
        let Some(mut rb) = self.rebuild else { return };
        if !rb.running() {
            return;
        }
        while rb.next_off < rb.report.bytes_total && rb.next_issue <= now {
            let take = REBUILD_BATCH.min(rb.report.bytes_total - rb.next_off);
            let issue = rb.next_issue;
            let r = self.disks[1 - rb.target].submit(issue, BlockReq::read(rb.next_off, take));
            let w = self.disks[rb.target].submit(r.ack, BlockReq::write(rb.next_off, take));
            self.meter.disk_ios += 2;
            rb.next_off += take;
            rb.report.bytes_done += take;
            rb.next_issue = w.ack;
        }
        if rb.next_off >= rb.report.bytes_total {
            rb.report.finished = Some(rb.next_issue);
            self.failed = None;
        }
        self.rebuild = Some(rb);
    }

    fn rebuild_report(&self) -> Option<RebuildReport> {
        self.rebuild.map(|rb| rb.report)
    }

    fn finish_rebuild(&mut self, now: Time) -> Time {
        self.pump(Time::MAX);
        match self.rebuild {
            Some(rb) => rb.report.finished.map_or(now, |f| f.max(now)),
            None => now,
        }
    }
}

/// A partially filled stripe row awaiting its parity write.
#[derive(Clone, Copy, Debug)]
struct OpenRow {
    row: u64,
    /// Covered byte range within the row (relative to row start).
    covered_from: u64,
    covered_to: u64,
}

/// A RAID 5 volume with distributed parity.
pub struct Raid5 {
    disks: Vec<Disk>,
    stripe: u64,
    meter: VolumeMeter,
    open_row: Option<OpenRow>,
    /// Whether sequential partial writes defer parity until the row fills
    /// (controller stripe-cache behaviour). Disabled → every partial write
    /// pays an immediate RMW.
    coalesce: bool,
    /// Count of read-modify-write parity settlements (for ablation reports).
    rmw_count: u64,
    /// A failed member (degraded mode), if any.
    failed: Option<usize>,
    rebuild: Option<Rebuilder>,
    /// Highest logical byte ever addressed — the extent a rebuild covers.
    high_water: u64,
    fault_horizon: Option<Time>,
    bulk_enabled: bool,
    bulk_hits: u64,
    bulk_misses: u64,
}

impl Raid5 {
    /// Builds an array over `disks` (≥ 3) with the given stripe chunk size.
    ///
    /// Panics on invalid geometry; configuration paths should prefer
    /// [`Raid5::try_new`].
    pub fn new(disks: Vec<Disk>, stripe: u64, coalesce: bool) -> Raid5 {
        Raid5::try_new(disks, stripe, coalesce).expect("invalid RAID 5 geometry")
    }

    /// Fallible constructor: rejects fewer than three members or a zero
    /// stripe with a typed error.
    pub fn try_new(disks: Vec<Disk>, stripe: u64, coalesce: bool) -> Result<Raid5, VolumeError> {
        if disks.len() < 3 {
            return Err(VolumeError::TooFewMembers {
                kind: "RAID 5",
                need: 3,
                got: disks.len(),
            });
        }
        if stripe == 0 {
            return Err(VolumeError::ZeroStripe);
        }
        Ok(Raid5 {
            disks,
            stripe,
            meter: VolumeMeter::default(),
            open_row: None,
            coalesce,
            rmw_count: 0,
            failed: None,
            rebuild: None,
            high_water: 0,
            fault_horizon: None,
            bulk_enabled: true,
            bulk_hits: 0,
            bulk_misses: 0,
        })
    }

    /// Number of parity read-modify-write settlements performed.
    pub fn rmw_count(&self) -> u64 {
        self.rmw_count
    }

    /// The failed member, if any.
    pub fn failed_disk(&self) -> Option<usize> {
        self.failed
    }

    /// Cumulative command counts per member (used by the degraded-mode
    /// property tests to check exactly the survivors are touched).
    pub fn member_ios(&self) -> InlineVec<u64, MAX_INLINE_MEMBERS> {
        let mut ios = InlineVec::new();
        for d in &self.disks {
            ios.push(d.ios());
        }
        ios
    }

    /// Per-member byte shares of a read span, in closed form: the at most
    /// two partial rows at the edges are chunk-walked, while the full rows
    /// in between contribute `stripe` bytes per row to every member except
    /// where the row's parity lands (left-symmetric: row `r`'s parity sits
    /// on member `n - 1 - (r % n)`). Totals are identical to walking the
    /// whole span chunk by chunk.
    fn read_shares(&self, req: &BlockReq) -> InlineVec<u64, MAX_INLINE_MEMBERS> {
        let n = self.disks.len();
        let rw = self.row_width();
        let end = req.end();
        let mut per_disk = InlineVec::filled(0u64, n);
        let walk = |per_disk: &mut InlineVec<u64, MAX_INLINE_MEMBERS>, from: u64, to: u64| {
            let mut pos = from;
            while pos < to {
                let loc = raid5_locate(pos, self.stripe, n);
                let take = (self.stripe - (pos % self.stripe)).min(to - pos);
                per_disk[loc.disk] += take;
                pos += take;
            }
        };
        // Rows [first_full, full_end) are fully covered by the span.
        let first_full = req.offset.div_ceil(rw);
        let full_end = end / rw;
        if first_full < full_end {
            walk(&mut per_disk, req.offset, first_full * rw);
            let rows = full_end - first_full;
            for (d, share) in per_disk.iter_mut().enumerate() {
                let parity_rows = count_mod(first_full, full_end - 1, n as u64, (n - 1 - d) as u64);
                *share += self.stripe * (rows - parity_rows);
            }
            walk(&mut per_disk, full_end * rw, end);
        } else {
            walk(&mut per_disk, req.offset, end);
        }
        per_disk
    }

    /// Member-local extent a rebuild must cover for the current write
    /// high-water mark: every stripe row that carries addressed data.
    fn member_extent(&self) -> u64 {
        self.high_water.div_ceil(self.row_width()) * self.stripe
    }

    fn n(&self) -> u64 {
        self.disks.len() as u64
    }

    fn row_width(&self) -> u64 {
        (self.n() - 1) * self.stripe
    }

    fn parity_disk(&self, row: u64) -> usize {
        ((self.n() - 1) - (row % self.n())) as usize
    }

    /// Writes the parity chunk of `row` (skipped when the parity member is
    /// the failed disk — the row is then unprotected, as on real arrays).
    fn write_parity(&mut self, now: Time, row: u64) -> IoGrant {
        let p = self.parity_disk(row);
        if Some(p) == self.failed {
            return IoGrant::immediate(now);
        }
        let g = self.disks[p].submit(now, BlockReq::write(row * self.stripe, self.stripe));
        self.meter.disk_ios += 1;
        g
    }

    /// Settles an abandoned partial row with a read-modify-write: read old
    /// parity and one old data chunk, then write the new parity.
    fn settle_rmw(&mut self, now: Time, row: OpenRow) -> Time {
        self.rmw_count += 1;
        let p = self.parity_disk(row.row);
        if Some(p) == self.failed {
            // No surviving parity for this row: nothing to settle.
            return now;
        }
        let touched = raid5_locate(
            row.row * self.row_width() + row.covered_from,
            self.stripe,
            self.disks.len(),
        );
        let r1 = self.disks[p].submit(now, BlockReq::read(row.row * self.stripe, self.stripe));
        self.meter.disk_ios += 1;
        let mut ready = r1.ack;
        if Some(touched.disk) != self.failed {
            let r2 = self.disks[touched.disk]
                .submit(now, BlockReq::read(row.row * self.stripe, self.stripe));
            self.meter.disk_ios += 1;
            ready = ready.max(r2.ack);
        }
        let w = self.disks[p].submit(ready, BlockReq::write(row.row * self.stripe, self.stripe));
        self.meter.disk_ios += 1;
        w.ack
    }

    /// Closes the open row if `keep` does not refer to it.
    fn settle_open_row_unless(&mut self, now: Time, keep: Option<u64>) {
        if let Some(open) = self.open_row {
            if keep != Some(open.row) {
                self.open_row = None;
                self.settle_rmw(now, open);
            }
        }
    }

    /// Handles the partially covered head/tail row of a write.
    fn write_partial_row(&mut self, now: Time, row: u64, from: u64, to: u64) -> IoGrant {
        // Write the new data chunks (exact chunk-level submission).
        let mut grant: Option<IoGrant> = None;
        let mut pos = from;
        while pos < to {
            let loc = raid5_locate(row * self.row_width() + pos, self.stripe, self.disks.len());
            let take = (self.stripe - (pos % self.stripe)).min(to - pos);
            if Some(loc.disk) != self.failed {
                let g = self.disks[loc.disk].submit(now, BlockReq::write(loc.disk_offset, take));
                self.meter.disk_ios += 1;
                grant = Some(match grant {
                    Some(acc) => acc.join(g),
                    None => g,
                });
            }
            pos += take;
        }
        let data_grant = grant.unwrap_or(IoGrant::immediate(now));

        if !self.coalesce {
            let done = self.settle_rmw(
                now,
                OpenRow {
                    row,
                    covered_from: from,
                    covered_to: to,
                },
            );
            return IoGrant {
                start: data_grant.start,
                ack: data_grant.ack.max(done),
                durable: data_grant.durable.max(done),
            };
        }

        // Coalescing: extend or open the pending row.
        match &mut self.open_row {
            Some(open) if open.row == row && open.covered_to == from => {
                open.covered_to = to;
            }
            Some(open) if open.row == row && to == open.covered_from => {
                open.covered_from = from;
            }
            Some(_) => {
                let old = self.open_row.take().expect("checked above");
                self.settle_rmw(now, old);
                self.open_row = Some(OpenRow {
                    row,
                    covered_from: from,
                    covered_to: to,
                });
            }
            None => {
                self.open_row = Some(OpenRow {
                    row,
                    covered_from: from,
                    covered_to: to,
                });
            }
        }
        // Row completed by this extension → write parity, close it.
        if let Some(open) = self.open_row {
            if open.covered_from == 0 && open.covered_to == self.row_width() {
                self.open_row = None;
                let pg = self.write_parity(now, open.row);
                return data_grant.join(pg);
            }
        }
        data_grant
    }
}

impl Volume for Raid5 {
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        // Rebuild batches due by `now` go in first so member submissions
        // stay nondecreasing and foreground work queues behind them.
        self.pump(now);
        self.high_water = self.high_water.max(req.end());
        let rw = self.row_width();
        let first_row = req.offset / rw;
        let last_row = (req.end() - 1) / rw;

        let grant = match req.op {
            BlockOp::Read => {
                // Settle any pending parity before reads of the same area
                // would observe stale parity; cheap conservatism.
                self.settle_open_row_unless(now, None);
                // Aggregate per-disk: each member holds (n-1)/n of the span
                // as physically contiguous data+gap regions; issue one span
                // per member sized by its share (computed in closed form).
                let per_disk = self.read_shares(&req);
                let base = first_row * self.stripe;
                let mut grant: Option<IoGrant> = None;
                // Degraded mode: the failed member's share is rebuilt from
                // parity, which costs an equal-sized read on every survivor.
                let rebuild = self.failed.map(|f| per_disk[f]).unwrap_or(0);
                for (d, bytes) in per_disk.iter().enumerate() {
                    if Some(d) == self.failed {
                        continue;
                    }
                    let amount = bytes + rebuild;
                    if amount == 0 {
                        continue;
                    }
                    let g = self.disks[d].submit(now, BlockReq::read(base, amount));
                    self.meter.disk_ios += 1;
                    grant = Some(match grant {
                        Some(acc) => acc.join(g),
                        None => g,
                    });
                }
                grant.expect("nonzero read produced no spans")
            }
            BlockOp::Write => {
                // A write to some other row abandons the open partial row.
                self.settle_open_row_unless(now, Some(first_row));

                let mut grant: Option<IoGrant> = None;
                let join = |acc: &mut Option<IoGrant>, g: IoGrant| {
                    *acc = Some(match acc.take() {
                        Some(a) => a.join(g),
                        None => g,
                    });
                };

                // Head partial row.
                let head_from = req.offset % rw;
                let mut full_first = first_row;
                if head_from != 0 || req.end() < (first_row + 1) * rw {
                    let to = (req.end() - first_row * rw).min(rw);
                    let g = self.write_partial_row(now, first_row, head_from, to);
                    join(&mut grant, g);
                    full_first += 1;
                }

                // Tail partial row (distinct from head).
                let tail_to = req.end() % rw;
                let mut full_last = last_row;
                if last_row >= full_first && tail_to != 0 {
                    let g = self.write_partial_row(now, last_row, 0, tail_to);
                    join(&mut grant, g);
                    full_last = last_row.saturating_sub(1);
                }

                // Full rows [full_first, full_last]: every member writes one
                // contiguous span (data chunks + its rotating parity chunks).
                if full_first <= full_last {
                    let rows = full_last - full_first + 1;
                    let base = full_first * self.stripe;
                    let len = rows * self.stripe;
                    for d in 0..self.disks.len() {
                        if Some(d) == self.failed {
                            continue;
                        }
                        let g = self.disks[d].submit(now, BlockReq::write(base, len));
                        self.meter.disk_ios += 1;
                        join(&mut grant, g);
                    }
                }
                grant.expect("nonzero write produced no spans")
            }
        };
        self.meter.record(&req, now, &grant);
        grant
    }

    fn flush(&mut self, now: Time) -> Time {
        self.pump(now);
        self.settle_open_row_unless(now, None);
        self.disks
            .iter()
            .map(|d| d.free_at())
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn capacity(&self) -> u64 {
        let min = self
            .disks
            .iter()
            .map(|d| d.params().capacity)
            .min()
            .unwrap_or(0);
        min * (self.n() - 1)
    }

    fn kind(&self) -> &'static str {
        "RAID 5"
    }

    fn meter(&self) -> &VolumeMeter {
        &self.meter
    }

    fn try_bulk_run(&mut self, now: Time, req: BlockReq, chunk: u64) -> Option<IoGrant> {
        let rw = self.row_width();
        let full = req.len / chunk;
        // A row-multiple chunk lands `chunk / rw` full rows — `stripe`
        // bytes per row — on every member, parity included.
        let piece = (chunk / rw) * self.stripe;
        let ok = self.bulk_enabled
            && req.op.is_write()
            && full >= 2
            && chunk.is_multiple_of(rw)
            && req.offset.is_multiple_of(rw)
            && self.open_row.is_none()
            && self.failed.is_none()
            && !self.rebuild.is_some_and(|rb| rb.running())
            && self.disks.iter().all(|d| d.slow_factor() == 1.0)
            && horizon_allows(
                self.fault_horizon,
                self.disks
                    .iter()
                    .map(|d| member_bound(d, now, req.op, piece, full))
                    .max()
                    .unwrap_or(now),
            );
        if !ok {
            self.bulk_misses += 1;
            return None;
        }
        self.bulk_hits += 1;
        // pump() and settle_open_row_unless() are no-ops here (no running
        // rebuild, no open row, by eligibility).
        self.high_water = self.high_water.max(req.offset + full * chunk);
        let base = (req.offset / rw) * self.stripe;
        let runs = run_members(
            self.disks.iter_mut().map(|d| (d, base, piece)),
            now,
            req.op,
            full,
        );
        let mut grant = record_chunks(&mut self.meter, &runs, now, req.op, req.offset, chunk, full);
        let tail = req.len % chunk;
        if tail > 0 {
            grant = grant.join(self.submit(
                now,
                BlockReq {
                    op: req.op,
                    offset: req.offset + full * chunk,
                    len: tail,
                },
            ));
        }
        Some(grant)
    }

    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.fault_horizon = horizon;
    }

    fn set_bulk_enabled(&mut self, on: bool) {
        self.bulk_enabled = on;
    }

    fn bulk_run_stats(&self) -> (u64, u64) {
        (self.bulk_hits, self.bulk_misses)
    }

    /// Marks a member disk as failed. The array keeps serving requests in
    /// *degraded mode*: chunks of the failed member are reconstructed by
    /// reading every surviving member of the row — the availability price
    /// the paper's configuration analysis weighs against JBOD.
    fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        if disk >= self.disks.len() {
            return Err(VolumeError::UnknownMember {
                disk,
                members: self.disks.len(),
            });
        }
        if let Some(failed) = self.failed {
            // RAID 5 survives exactly one failure.
            return Err(VolumeError::AlreadyDegraded { failed });
        }
        self.failed = Some(disk);
        Ok(())
    }

    fn replace_disk(&mut self, now: Time, disk: usize) -> Result<(), VolumeError> {
        if disk >= self.disks.len() {
            return Err(VolumeError::UnknownMember {
                disk,
                members: self.disks.len(),
            });
        }
        if self.rebuild.is_some_and(|rb| rb.running()) {
            return Err(VolumeError::RebuildInProgress);
        }
        if self.failed != Some(disk) {
            return Err(VolumeError::NotFailed { disk });
        }
        self.disks[disk].swap_fresh();
        let total = self.member_extent();
        let mut rb = Rebuilder::new(disk, total, now);
        if total == 0 {
            rb.report.finished = Some(now);
            self.failed = None;
        }
        self.rebuild = Some(rb);
        Ok(())
    }

    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        match self.disks.get_mut(disk) {
            Some(d) => {
                d.set_slow_factor(factor);
                Ok(())
            }
            None => Err(VolumeError::UnknownMember {
                disk,
                members: self.disks.len(),
            }),
        }
    }

    /// Issues every rebuild batch whose instant falls at or before `now`:
    /// read the batch extent from all `n-1` survivors, write the
    /// reconstruction to the replacement, schedule the next batch at its
    /// completion. The member stays logically failed (writes skip it,
    /// reads reconstruct) until the resilver covers the whole extent.
    fn pump(&mut self, now: Time) {
        let Some(mut rb) = self.rebuild else { return };
        if !rb.running() {
            return;
        }
        while rb.next_off < rb.report.bytes_total && rb.next_issue <= now {
            let take = REBUILD_BATCH.min(rb.report.bytes_total - rb.next_off);
            let issue = rb.next_issue;
            let mut ready = issue;
            for d in 0..self.disks.len() {
                if d == rb.target {
                    continue;
                }
                let g = self.disks[d].submit(issue, BlockReq::read(rb.next_off, take));
                self.meter.disk_ios += 1;
                ready = ready.max(g.ack);
            }
            let w = self.disks[rb.target].submit(ready, BlockReq::write(rb.next_off, take));
            self.meter.disk_ios += 1;
            rb.next_off += take;
            rb.report.bytes_done += take;
            rb.next_issue = w.ack;
        }
        if rb.next_off >= rb.report.bytes_total {
            rb.report.finished = Some(rb.next_issue);
            self.failed = None;
        }
        self.rebuild = Some(rb);
    }

    fn rebuild_report(&self) -> Option<RebuildReport> {
        self.rebuild.map(|rb| rb.report)
    }

    fn finish_rebuild(&mut self, now: Time) -> Time {
        self.pump(Time::MAX);
        match self.rebuild {
            Some(rb) => rb.report.finished.map_or(now, |f| f.max(now)),
            None => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use simcore::{Bandwidth, SplitMix64, KIB, MIB};

    fn disk(seed: u64) -> Disk {
        Disk::new(DiskParams::sata_7200(150, 72), seed)
    }

    fn disks(n: usize) -> Vec<Disk> {
        (0..n).map(|i| disk(i as u64 + 1)).collect()
    }

    const STRIPE: u64 = 256 * KIB;

    #[test]
    fn raid5_locate_left_symmetric_layout() {
        // 5 disks, row 0: parity on disk 4, data on 0..3.
        let c = raid5_locate(0, STRIPE, 5);
        assert_eq!(c.row, 0);
        assert_eq!(c.parity_disk, 4);
        assert_eq!(c.disk, 0);
        assert_eq!(c.disk_offset, 0);
        // Second chunk of row 0 → disk 1.
        let c = raid5_locate(STRIPE, STRIPE, 5);
        assert_eq!(c.disk, 1);
        // Row 1: parity rotates to disk 3; first data chunk on disk 4.
        let c = raid5_locate(4 * STRIPE, STRIPE, 5);
        assert_eq!(c.row, 1);
        assert_eq!(c.parity_disk, 3);
        assert_eq!(c.disk, 4);
        assert_eq!(c.disk_offset, STRIPE);
    }

    #[test]
    fn raid5_locate_never_maps_data_to_parity_disk() {
        for off in (0..100 * MIB).step_by((STRIPE / 2) as usize) {
            let c = raid5_locate(off, STRIPE, 5);
            assert_ne!(c.disk, c.parity_disk, "offset {off}");
        }
    }

    #[test]
    fn raid0_spans_cover_request_exactly() {
        let r = Raid0::new(disks(4), STRIPE);
        let req = BlockReq::read(STRIPE / 2, 5 * STRIPE);
        let spans = r.spans(&req);
        let total: u64 = spans.iter().map(|(_, _, l)| l).sum();
        assert_eq!(total, req.len);
        // 5.5 stripes starting mid-chunk touch at most all 4 disks.
        assert!(spans.len() <= 4);
    }

    #[test]
    fn raid0_sequential_read_scales_with_members() {
        let mut single = Jbod::new(disk(9));
        let mut striped = Raid0::new(disks(4), STRIPE);
        let measure = |v: &mut dyn Volume| {
            let mut now = v.submit(Time::ZERO, BlockReq::read(0, 4 * MIB)).ack;
            let start = now;
            for i in 1..64u64 {
                now = v.submit(now, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(63 * 4 * MIB, now - start).as_mib_per_sec()
        };
        let s = measure(&mut single);
        let m = measure(&mut striped);
        assert!(m > s * 2.5, "raid0 {m} vs single {s}");
    }

    #[test]
    fn raid1_write_hits_both_members_read_hits_one() {
        let mut r = Raid1::new(disk(1), disk(2));
        r.submit(Time::ZERO, BlockReq::write(0, MIB));
        assert_eq!(r.meter().disk_ios, 2);
        r.submit(Time::from_secs(1), BlockReq::read(0, MIB));
        assert_eq!(r.meter().disk_ios, 3);
    }

    #[test]
    fn raid1_concurrent_readers_use_both_members() {
        let mut r = Raid1::new(disk(1), disk(2));
        // Two interleaved sequential streams issued at the same instants.
        let mut now = Time::ZERO;
        let warm_a = r.submit(now, BlockReq::read(0, MIB));
        let warm_b = r.submit(now, BlockReq::read(1000 * MIB, MIB));
        now = warm_a.ack.max(warm_b.ack);
        let start = now;
        let mut done = now;
        for i in 1..33u64 {
            let a = r.submit(now, BlockReq::read(i * MIB, MIB));
            let b = r.submit(now, BlockReq::read((1000 + i) * MIB, MIB));
            now = a.ack.max(b.ack);
            done = now;
        }
        let rate = Bandwidth::measured(2 * 32 * MIB, done - start).as_mib_per_sec();
        // Two streams on two members ≈ 2× media rate; require > 1.5×.
        assert!(rate > 1.5 * 72.0, "aggregate mirror read rate {rate}");
    }

    #[test]
    fn raid1_single_stream_keeps_sequential_affinity() {
        let mut r = Raid1::new(disk(1), disk(2));
        let mut now = r.submit(Time::ZERO, BlockReq::read(0, MIB)).ack;
        let start = now;
        for i in 1..65u64 {
            now = r.submit(now, BlockReq::read(i * MIB, MIB)).ack;
        }
        let rate = Bandwidth::measured(64 * MIB, now - start).as_mib_per_sec();
        assert!(rate > 0.85 * 72.0, "single-stream mirror read rate {rate}");
    }

    #[test]
    fn raid5_full_stripe_write_uses_all_members_once() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        let row = 4 * STRIPE; // full row width for 5 disks
        r.submit(Time::ZERO, BlockReq::write(0, row));
        assert_eq!(r.meter().disk_ios, 5);
        assert_eq!(r.rmw_count(), 0);
    }

    #[test]
    fn raid5_sequential_write_outpaces_single_disk() {
        let mut r5 = Raid5::new(disks(5), STRIPE, true);
        let mut jbod = Jbod::new(disk(7));
        let measure = |v: &mut dyn Volume| {
            let mut now = v.submit(Time::ZERO, BlockReq::write(0, 4 * MIB)).ack;
            let start = now;
            for i in 1..64u64 {
                now = v.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(63 * 4 * MIB, now - start).as_mib_per_sec()
        };
        let r5_rate = measure(&mut r5);
        let jbod_rate = measure(&mut jbod);
        assert!(
            r5_rate > jbod_rate * 2.0,
            "raid5 seq write {r5_rate} vs jbod {jbod_rate}"
        );
    }

    #[test]
    fn raid5_random_small_writes_pay_rmw() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        let mut rng = SplitMix64::new(11);
        let mut now = Time::ZERO;
        for _ in 0..50 {
            let row = rng.next_below(10_000);
            let off = row * 4 * STRIPE + 4096;
            now = r.submit(now, BlockReq::write(off, 4096)).ack;
        }
        // Every write lands on a different row, abandoning the previous
        // partial row → RMW settlements accumulate (the last row stays open).
        assert!(r.rmw_count() >= 48, "rmw_count = {}", r.rmw_count());
    }

    #[test]
    fn raid5_sequential_small_writes_coalesce_parity() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        let mut now = Time::ZERO;
        let mut off = 0;
        // 64 KiB sequential writes over 8 full rows.
        while off < 8 * 4 * STRIPE {
            now = r.submit(now, BlockReq::write(off, 64 * KIB)).ack;
            off += 64 * KIB;
        }
        assert_eq!(r.rmw_count(), 0, "sequential stream must not RMW");
    }

    #[test]
    fn raid5_no_coalesce_pays_rmw_per_partial_write() {
        let mut r = Raid5::new(disks(5), STRIPE, false);
        let mut now = Time::ZERO;
        for i in 0..10u64 {
            now = r.submit(now, BlockReq::write(i * 64 * KIB, 64 * KIB)).ack;
        }
        assert_eq!(r.rmw_count(), 10);
    }

    #[test]
    fn raid5_flush_settles_open_row() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        r.submit(Time::ZERO, BlockReq::write(0, 64 * KIB));
        assert_eq!(r.rmw_count(), 0);
        r.flush(Time::from_secs(1));
        assert_eq!(r.rmw_count(), 1);
    }

    #[test]
    fn raid5_read_faster_than_single_disk() {
        let mut r5 = Raid5::new(disks(5), STRIPE, true);
        let mut jbod = Jbod::new(disk(3));
        let measure = |v: &mut dyn Volume| {
            let mut now = v.submit(Time::ZERO, BlockReq::read(0, 4 * MIB)).ack;
            let start = now;
            for i in 1..64u64 {
                now = v.submit(now, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(63 * 4 * MIB, now - start).as_mib_per_sec()
        };
        let a = measure(&mut r5);
        let b = measure(&mut jbod);
        assert!(a > b * 2.0, "raid5 read {a} vs jbod {b}");
    }

    #[test]
    fn capacities() {
        assert_eq!(Jbod::new(disk(1)).capacity(), 150 * 1024 * 1024 * 1024);
        assert_eq!(
            Raid1::new(disk(1), disk(2)).capacity(),
            150 * 1024 * 1024 * 1024
        );
        assert_eq!(
            Raid5::new(disks(5), STRIPE, true).capacity(),
            4 * 150 * 1024 * 1024 * 1024
        );
        assert_eq!(
            Raid0::new(disks(4), STRIPE).capacity(),
            4 * 150 * 1024 * 1024 * 1024
        );
        assert_eq!(Raid5::new(disks(5), STRIPE, true).kind(), "RAID 5");
    }

    #[test]
    fn raid5_write_then_read_roundtrip_grants_are_ordered() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        let w = r.submit(Time::ZERO, BlockReq::write(0, 8 * MIB));
        let rd = r.submit(w.ack, BlockReq::read(0, 8 * MIB));
        assert!(rd.start >= w.ack || rd.start >= w.start);
        assert!(rd.ack > w.ack);
    }

    #[test]
    fn raid5_degraded_reads_cost_reconstruction() {
        let measure = |fail: bool| {
            let mut r = Raid5::new(disks(5), STRIPE, true);
            if fail {
                r.fail_disk(2).unwrap();
            }
            let mut now = r.submit(Time::ZERO, BlockReq::read(0, 4 * MIB)).ack;
            let start = now;
            for i in 1..32u64 {
                now = r.submit(now, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(31 * 4 * MIB, now - start).as_mib_per_sec()
        };
        let healthy = measure(false);
        let degraded = measure(true);
        assert!(
            degraded < healthy * 0.75,
            "degraded {degraded} vs healthy {healthy}: reconstruction must cost"
        );
        assert!(degraded > 20.0, "degraded array still serves reads");
    }

    #[test]
    fn raid5_degraded_writes_complete() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        r.fail_disk(0).unwrap();
        assert_eq!(r.failed_disk(), Some(0));
        let g = r.submit(Time::ZERO, BlockReq::write(0, 8 * MIB));
        assert!(g.ack > Time::ZERO);
        // Small writes + flush still settle without touching the dead disk.
        let g2 = r.submit(g.ack, BlockReq::write(100 * MIB, 64 * KIB));
        r.flush(g2.ack);
    }

    #[test]
    fn raid5_second_failure_rejected() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        r.fail_disk(0).unwrap();
        assert_eq!(
            r.fail_disk(1),
            Err(VolumeError::AlreadyDegraded { failed: 0 })
        );
        assert_eq!(
            r.fail_disk(9),
            Err(VolumeError::UnknownMember {
                disk: 9,
                members: 5
            })
        );
    }

    #[test]
    fn constructors_reject_bad_geometry() {
        assert_eq!(
            Raid5::try_new(disks(2), STRIPE, true).err(),
            Some(VolumeError::TooFewMembers {
                kind: "RAID 5",
                need: 3,
                got: 2
            })
        );
        assert_eq!(
            Raid5::try_new(disks(5), 0, true).err(),
            Some(VolumeError::ZeroStripe)
        );
        assert_eq!(
            Raid0::try_new(disks(1), STRIPE).err(),
            Some(VolumeError::TooFewMembers {
                kind: "RAID 0",
                need: 2,
                got: 1
            })
        );
        assert_eq!(
            try_raid5_locate(0, STRIPE, 2).err(),
            Some(VolumeError::TooFewMembers {
                kind: "RAID 5",
                need: 3,
                got: 2
            })
        );
        assert_eq!(
            try_raid5_locate(0, 0, 5).err(),
            Some(VolumeError::ZeroStripe)
        );
        assert!(try_raid5_locate(0, STRIPE, 5).is_ok());
    }

    #[test]
    fn jbod_rejects_failure_but_accepts_slowdown() {
        let mut j = Jbod::new(disk(1));
        assert_eq!(j.fail_disk(0), Err(VolumeError::Unsupported("JBOD")));
        assert!(j.set_disk_slowdown(0, 3.0).is_ok());
        assert_eq!(
            j.set_disk_slowdown(1, 3.0),
            Err(VolumeError::UnknownMember {
                disk: 1,
                members: 1
            })
        );
    }

    #[test]
    fn slow_member_drags_the_array() {
        let measure = |slow: bool| {
            let mut r = Raid5::new(disks(5), STRIPE, true);
            if slow {
                r.set_disk_slowdown(2, 4.0).unwrap();
            }
            let mut now = r.submit(Time::ZERO, BlockReq::read(0, 4 * MIB)).ack;
            let start = now;
            for i in 1..32u64 {
                now = r.submit(now, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(31 * 4 * MIB, now - start).as_mib_per_sec()
        };
        let nominal = measure(false);
        let limping = measure(true);
        assert!(
            limping < nominal * 0.5,
            "limping member: {limping} vs nominal {nominal}"
        );
    }

    #[test]
    fn raid1_degraded_reads_route_to_survivor() {
        let mut r = Raid1::new(disk(1), disk(2));
        r.fail_disk(0).unwrap();
        assert_eq!(r.failed_disk(), Some(0));
        let before = r.member_ios();
        let mut now = Time::ZERO;
        for i in 0..8u64 {
            now = r.submit(now, BlockReq::read(i * MIB, MIB)).ack;
        }
        let after = r.member_ios();
        assert_eq!(after[0], before[0], "dead member must not serve reads");
        assert_eq!(after[1], before[1] + 8);
    }

    #[test]
    fn raid1_degraded_writes_hit_survivor_only() {
        let mut r = Raid1::new(disk(1), disk(2));
        r.fail_disk(1).unwrap();
        let g = r.submit(Time::ZERO, BlockReq::write(0, MIB));
        assert!(g.ack > Time::ZERO);
        assert_eq!(r.member_ios(), [1, 0]);
        assert_eq!(
            r.fail_disk(0),
            Err(VolumeError::AlreadyDegraded { failed: 1 })
        );
    }

    #[test]
    fn raid1_rebuild_restores_the_mirror() {
        let mut r = Raid1::new(disk(1), disk(2));
        let mut now = Time::ZERO;
        for i in 0..16u64 {
            now = r.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
        }
        r.fail_disk(0).unwrap();
        assert_eq!(
            r.replace_disk(now, 1),
            Err(VolumeError::NotFailed { disk: 1 })
        );
        r.replace_disk(now, 0).unwrap();
        let done = r.finish_rebuild(now);
        assert!(done > now, "rebuild must take simulated time");
        let report = r.rebuild_report().unwrap();
        assert_eq!(report.bytes_done, 64 * MIB);
        assert_eq!(report.finished, Some(done));
        assert_eq!(r.failed_disk(), None, "array healthy after rebuild");
    }

    #[test]
    fn raid5_rebuild_completes_and_competes_with_foreground() {
        let mut r = Raid5::new(disks(5), STRIPE, true);
        let mut now = Time::ZERO;
        for i in 0..64u64 {
            now = r.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
        }
        let healthy_rate = {
            let start = now;
            let mut t = now;
            for i in 0..16u64 {
                t = r.submit(t, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            now = t;
            Bandwidth::measured(16 * 4 * MIB, t - start).as_mib_per_sec()
        };
        r.fail_disk(3).unwrap();
        r.replace_disk(now, 3).unwrap();
        // Foreground reads during the rebuild window are slower than healthy:
        // they are reconstructed AND queue behind resilver batches.
        let window_rate = {
            let start = now;
            let mut t = now;
            for i in 0..16u64 {
                t = r.submit(t, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            now = t;
            Bandwidth::measured(16 * 4 * MIB, t - start).as_mib_per_sec()
        };
        assert!(
            window_rate < healthy_rate * 0.8,
            "rebuild window {window_rate} vs healthy {healthy_rate}"
        );
        let done = r.finish_rebuild(now);
        assert!(done > now);
        let report = r.rebuild_report().unwrap();
        assert_eq!(report.finished, Some(done));
        assert!(
            report.bytes_total >= 64 * MIB / 4,
            "extent covers written rows"
        );
        assert_eq!(report.bytes_done, report.bytes_total);
        assert_eq!(r.failed_disk(), None, "array healthy after rebuild");
        // Reads after the rebuild are full-speed again (no reconstruction).
        let after_rate = {
            let start = done;
            let mut t = done;
            for i in 0..16u64 {
                t = r.submit(t, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            Bandwidth::measured(16 * 4 * MIB, t - start).as_mib_per_sec()
        };
        assert!(
            after_rate > window_rate,
            "post-rebuild {after_rate} vs window {window_rate}"
        );
    }

    #[test]
    fn raid0_spans_match_chunk_walk_reference() {
        // The closed form must agree with a chunk-by-chunk reference walk
        // for a grid of alignments and lengths.
        let r = Raid0::new(disks(4), STRIPE);
        let reference = |req: &BlockReq| -> Vec<(usize, u64, u64)> {
            let n = 4u64;
            let mut per_disk: Vec<Option<(u64, u64)>> = vec![None; 4];
            let mut pos = req.offset;
            while pos < req.end() {
                let chunk = pos / STRIPE;
                let disk = (chunk % n) as usize;
                let disk_off = (chunk / n) * STRIPE + pos % STRIPE;
                let take = (STRIPE - pos % STRIPE).min(req.end() - pos);
                match &mut per_disk[disk] {
                    Some((_, len)) => *len += take,
                    None => per_disk[disk] = Some((disk_off, take)),
                }
                pos += take;
            }
            per_disk
                .into_iter()
                .enumerate()
                .filter_map(|(d, s)| s.map(|(o, l)| (d, o, l)))
                .collect()
        };
        for off in [0, 1, STRIPE / 2, STRIPE, 3 * STRIPE + 17, 9 * STRIPE] {
            for len in [1, STRIPE - 1, STRIPE, 2 * STRIPE + 3, 13 * STRIPE, 64 * MIB] {
                let req = BlockReq::read(off, len);
                assert_eq!(
                    r.spans(&req).to_vec(),
                    reference(&req),
                    "off={off} len={len}"
                );
            }
        }
    }

    #[test]
    fn raid5_read_shares_match_chunk_walk_reference() {
        for n in [3usize, 5, 8] {
            let r = Raid5::new(disks(n), STRIPE, true);
            let rw = (n as u64 - 1) * STRIPE;
            for off in [0, STRIPE / 2, rw - 1, rw, 3 * rw + STRIPE, 7 * rw] {
                for len in [1, STRIPE, rw, rw + 1, 5 * rw - STRIPE / 2, 48 * MIB] {
                    let req = BlockReq::read(off, len);
                    let mut reference = vec![0u64; n];
                    let mut pos = req.offset;
                    while pos < req.end() {
                        let loc = raid5_locate(pos, STRIPE, n);
                        let take = (STRIPE - (pos % STRIPE)).min(req.end() - pos);
                        reference[loc.disk] += take;
                        pos += take;
                    }
                    assert_eq!(
                        r.read_shares(&req).to_vec(),
                        reference,
                        "n={n} off={off} len={len}"
                    );
                }
            }
        }
    }

    /// Runs the same chunked workload through a bulk-enabled and a
    /// bulk-disabled twin and asserts every observable is identical.
    fn assert_bulk_equivalence<V: Volume>(mut bulk: V, mut granular: V, reqs: &[(BlockReq, u64)]) {
        bulk.set_bulk_enabled(true);
        granular.set_bulk_enabled(false);
        let mut now = Time::ZERO;
        for &(req, chunk) in reqs {
            let a = bulk.submit_run(now, req, chunk);
            let b = granular.submit_run(now, req, chunk);
            assert_eq!(a, b, "grant mismatch for {req:?} chunk {chunk}");
            now = a.ack;
        }
        assert_eq!(bulk.flush(now), granular.flush(now));
        assert_eq!(bulk.meter().disk_ios, granular.meter().disk_ios);
        // The Debug render covers each direction's bytes, op count and
        // summed latency: it matches only if the fast path recorded as
        // many grants as the granular loop, with the same total latency.
        // Recording order is not observable, so it is not compared.
        assert_eq!(
            format!("{:?}", bulk.meter()),
            format!("{:?}", granular.meter())
        );
        let (hits, _) = bulk.bulk_run_stats();
        assert!(hits > 0, "fast path never engaged");
        let (g_hits, _) = granular.bulk_run_stats();
        assert_eq!(g_hits, 0, "disabled twin must stay granular");
    }

    #[test]
    fn jbod_bulk_run_matches_granular_loop() {
        let reqs = [
            (BlockReq::write(0, 64 * MIB), MIB),
            (BlockReq::read(16 * MIB, 32 * MIB + 123), 4 * MIB),
            (BlockReq::write(200 * MIB, 8 * MIB + 4 * KIB), MIB),
        ];
        assert_bulk_equivalence(Jbod::new(disk(5)), Jbod::new(disk(5)), &reqs);
    }

    #[test]
    fn raid0_bulk_run_matches_granular_loop() {
        let width = 4 * STRIPE;
        let reqs = [
            (BlockReq::write(0, 64 * MIB), width),
            (
                BlockReq::read(8 * width, 32 * width + STRIPE / 2),
                2 * width,
            ),
        ];
        assert_bulk_equivalence(
            Raid0::new(disks(4), STRIPE),
            Raid0::new(disks(4), STRIPE),
            &reqs,
        );
    }

    #[test]
    fn raid1_bulk_run_matches_granular_loop() {
        let reqs = [
            (BlockReq::write(0, 48 * MIB), MIB),
            (BlockReq::write(100 * MIB, 16 * MIB + 777), 2 * MIB),
        ];
        assert_bulk_equivalence(
            Raid1::new(disk(1), disk(2)),
            Raid1::new(disk(1), disk(2)),
            &reqs,
        );
    }

    #[test]
    fn raid5_bulk_run_matches_granular_loop() {
        let rw = 4 * STRIPE;
        let reqs = [
            (BlockReq::write(0, 64 * MIB), rw),
            (BlockReq::write(16 * rw, 32 * rw + STRIPE), 4 * rw),
        ];
        assert_bulk_equivalence(
            Raid5::new(disks(5), STRIPE, true),
            Raid5::new(disks(5), STRIPE, true),
            &reqs,
        );
    }

    #[test]
    fn bulk_run_declines_misaligned_degraded_and_small_runs() {
        let rw = 4 * STRIPE;
        let mut r = Raid5::new(disks(5), STRIPE, true);
        // Misaligned offset.
        r.submit_run(Time::ZERO, BlockReq::write(STRIPE, 8 * rw), rw);
        // Single full chunk.
        let t = r.flush(Time::ZERO);
        r.submit_run(t, BlockReq::write(0, rw + 1), rw);
        assert_eq!(r.bulk_run_stats().0, 0, "ineligible runs must miss");
        assert!(r.bulk_run_stats().1 >= 2);
        // Degraded array declines even aligned runs.
        let t = r.flush(t);
        r.fail_disk(2).unwrap();
        r.submit_run(t, BlockReq::write(0, 8 * rw), rw);
        assert_eq!(r.bulk_run_stats().0, 0);
    }

    #[test]
    fn bulk_run_respects_the_fault_horizon() {
        let rw = 4 * STRIPE;
        let mut near = Raid5::new(disks(5), STRIPE, true);
        let mut far = Raid5::new(disks(5), STRIPE, true);
        near.set_fault_horizon(Some(Time::from_millis(1)));
        far.set_fault_horizon(Some(Time::from_secs(3600)));
        let req = BlockReq::write(0, 32 * rw);
        let a = near.submit_run(Time::ZERO, req, rw);
        let b = far.submit_run(Time::ZERO, req, rw);
        // A fault window inside the transfer forces the granular path…
        assert_eq!(near.bulk_run_stats(), (0, 1));
        // …a distant horizon permits the closed form…
        assert_eq!(far.bulk_run_stats(), (1, 0));
        // …and both paths produce the same timings regardless.
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_toggle_gates_the_closed_form() {
        let mut r = Jbod::new(disk(3));
        r.set_bulk_enabled(false);
        r.submit_run(Time::ZERO, BlockReq::write(0, 16 * MIB), MIB);
        r.set_bulk_enabled(true);
        let t = r.flush(Time::ZERO);
        r.submit_run(t, BlockReq::write(16 * MIB, 16 * MIB), MIB);
        let (hits, misses) = r.bulk_run_stats();
        assert_eq!(hits, 1, "re-enabled toggle must restore the fast path");
        assert!(misses >= 1, "disabled toggle must force the granular path");
    }

    #[test]
    fn raid1_pick_reader_keeps_affinity_via_rolling_hint() {
        let mut r = Raid1::new(disk(1), disk(2));
        // Stream A starts on member 0 (free_at tie prefers 0).
        let a0 = r.submit(Time::ZERO, BlockReq::read(0, MIB));
        // Stream B arrives while member 0 is busy → member 1.
        r.submit(Time::ZERO, BlockReq::read(500 * MIB, MIB));
        assert_eq!(r.member_ios(), [1, 1]);
        // A continues sequentially: the rolling hint was overwritten by B,
        // so the scan fallback must still pin A to member 0…
        let a1 = r.submit(a0.ack, BlockReq::read(MIB, MIB));
        assert_eq!(r.member_ios(), [2, 1]);
        // …and now the hint itself answers the next sequential read.
        assert_eq!(r.pick_reader(2 * MIB), 0);
        r.submit(a1.ack, BlockReq::read(2 * MIB, MIB));
        assert_eq!(r.member_ios(), [3, 1]);
    }

    #[test]
    fn raid1_hint_tie_prefers_member_zero_like_the_scan() {
        let mut r = Raid1::new(disk(1), disk(2));
        // Both members end a read at the same offset: member 0 first…
        let g = r.submit(Time::ZERO, BlockReq::read(0, MIB));
        // …then member 1 (member 0 is busy at arrival time zero).
        r.submit(Time::ZERO, BlockReq::read(0, MIB));
        assert_eq!(r.member_ios(), [1, 1]);
        // The scan would pick member 0; the hint must agree.
        assert_eq!(r.pick_reader(MIB), 0);
        r.submit(g.ack, BlockReq::read(MIB, MIB));
        assert_eq!(r.member_ios(), [2, 1]);
    }

    #[test]
    fn rebuild_is_deterministic() {
        let run = || {
            let mut r = Raid5::new(disks(5), STRIPE, true);
            let mut now = Time::ZERO;
            for i in 0..32u64 {
                now = r.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
            }
            r.fail_disk(1).unwrap();
            r.replace_disk(now, 1).unwrap();
            for i in 0..8u64 {
                now = r.submit(now, BlockReq::read(i * 4 * MIB, 4 * MIB)).ack;
            }
            r.finish_rebuild(now)
        };
        assert_eq!(run(), run());
    }
}
