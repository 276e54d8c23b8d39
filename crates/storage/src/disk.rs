//! A mechanical (rotating) disk model.
//!
//! Service time of one request = command overhead + positioning + media
//! transfer. Positioning is skipped when the request is sequential with the
//! previous one (offset equals the previous request's end), which is what
//! lets bandwidth-vs-blocksize curves rise toward the media rate as block
//! size grows — the shape IOzone measures in the paper's Fig. 5/13.
//!
//! Seek time scales with the square root of the seek distance fraction
//! (classic Ruemmler–Wilkes approximation); rotational delay is uniform in
//! `[0, full_revolution)` drawn from a deterministic per-disk RNG.

use crate::req::{BlockOp, BlockReq, IoGrant};
use crate::volume::TimedRead;
use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, FifoResource, SplitMix64, Time};

/// Grant of a closed-form sequential command run
/// (see [`Disk::submit_seq_run`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqRunGrant {
    /// Start instant of the first command in the run.
    pub start: Time,
    /// Completion of the first command.
    pub first_ack: Time,
    /// Service time of each command in the run.
    pub service: Time,
    /// Completion of the last command.
    pub last_ack: Time,
}

impl SeqRunGrant {
    /// Completion instant of command `i` (0-based) within the run.
    pub fn ack(&self, i: u64) -> Time {
        self.first_ack + self.service * i
    }
}

/// Physical parameters of a disk.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskParams {
    /// Media transfer rate for reads.
    pub read_bw: Bandwidth,
    /// Media transfer rate for writes.
    pub write_bw: Bandwidth,
    /// Average (one-third-stroke) seek time.
    pub avg_seek: Time,
    /// Track-to-track (minimum) seek time.
    pub track_to_track: Time,
    /// Time of one full platter revolution (7200 rpm → 8.33 ms).
    pub full_revolution: Time,
    /// Per-command controller/protocol overhead.
    pub cmd_overhead: Time,
    /// Addressable capacity in bytes.
    pub capacity: u64,
}

impl DiskParams {
    /// A 7200 rpm SATA disk of `capacity_gib` GiB with the given sequential
    /// media rate, typical of the 2007–2011 clusters in the paper.
    pub fn sata_7200(capacity_gib: u64, seq_mib_per_sec: u64) -> DiskParams {
        DiskParams {
            read_bw: Bandwidth::from_mib_per_sec(seq_mib_per_sec),
            // Writes on these drives are marginally slower than reads.
            write_bw: Bandwidth::from_mib_per_sec_f64(seq_mib_per_sec as f64 * 0.94),
            avg_seek: Time::from_millis_f64(8.5),
            track_to_track: Time::from_millis_f64(1.0),
            full_revolution: Time::from_micros_f64(8333.0),
            cmd_overhead: Time::from_micros(60),
            capacity: capacity_gib * 1024 * 1024 * 1024,
        }
    }
}

/// A single disk with a FIFO command queue.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Disk {
    params: DiskParams,
    timeline: FifoResource,
    /// End offset of the last serviced request, for sequential detection.
    last_end: Option<u64>,
    rng: SplitMix64,
    ios: u64,
    /// Service-time multiplier (1.0 nominal; > 1.0 models a limping drive
    /// suffering media retries or thermal recalibration storms).
    slow_factor: f64,
}

impl Disk {
    /// Creates a disk; `seed` determines its rotational-phase stream.
    pub fn new(params: DiskParams, seed: u64) -> Disk {
        Disk {
            params,
            timeline: FifoResource::new(),
            last_end: None,
            rng: SplitMix64::new(seed),
            ios: 0,
            slow_factor: 1.0,
        }
    }

    /// The disk's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Number of commands serviced.
    pub fn ios(&self) -> u64 {
        self.ios
    }

    /// When the command queue drains.
    pub fn free_at(&self) -> Time {
        self.timeline.free_at()
    }

    /// Where the head sits: the end of the last command, `None` on a cold
    /// or freshly swapped drive. A command starting there skips
    /// positioning.
    pub fn head(&self) -> Option<u64> {
        self.last_end
    }

    /// Applies `n` more repetitions of the sequential reads `reads` this
    /// disk served, the j-th `j × period` later and `j × stride` bytes
    /// further on: the queue moves `n × period`, the head `n × stride`, and
    /// busy time and command counts grow `n`-fold. Exact when the reads
    /// kept the head in place (no positioning, so no random draw) and moved
    /// the queue by `period` each time.
    pub fn repeat_reads(&mut self, reads: &[TimedRead], period: Time, stride: u64, n: u64) {
        let busy = reads
            .iter()
            .fold(Time::ZERO, |b, r| b + (r.grant.ack - r.grant.start));
        let commands = reads.len() as u64 * n;
        self.timeline
            .shift(period * n, busy.saturating_mul(n), commands);
        self.last_end = self.last_end.map(|end| end + stride * n);
        self.ios += commands;
    }

    /// Total busy time (for utilization reports).
    pub fn busy_time(&self) -> Time {
        self.timeline.busy_time()
    }

    /// Current service-time multiplier.
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Sets the service-time multiplier. `1.0` restores nominal service;
    /// values `> 1.0` model a limping member. Non-positive inputs are
    /// clamped to nominal.
    pub fn set_slow_factor(&mut self, factor: f64) {
        self.slow_factor = if factor > 0.0 { factor } else { 1.0 };
    }

    /// Replaces the physical drive with a factory-fresh one (hot swap):
    /// the command queue, head position and any slow-down are discarded.
    /// The RNG stream and cumulative IO count carry over so traces stay
    /// deterministic and meters keep counting.
    pub fn swap_fresh(&mut self) {
        self.timeline.reset();
        self.last_end = None;
        self.slow_factor = 1.0;
    }

    /// Positioning time for a request starting at `offset` given the head
    /// position implied by the previous request.
    fn positioning(&mut self, offset: u64) -> Time {
        match self.last_end {
            Some(end) if end == offset => Time::ZERO,
            Some(end) => {
                let dist = end.abs_diff(offset);
                let frac = (dist as f64 / self.params.capacity.max(1) as f64).min(1.0);
                let t2t = self.params.track_to_track.as_secs_f64();
                let avg = self.params.avg_seek.as_secs_f64();
                // avg_seek corresponds to a one-third-stroke seek; scale so
                // frac == 1/3 reproduces avg_seek exactly.
                let seek = t2t + (avg - t2t) * (frac * 3.0).sqrt().min(1.5);
                let rot = self
                    .rng
                    .range_f64(0.0, self.params.full_revolution.as_secs_f64());
                Time::from_secs_f64(seek + rot)
            }
            // Cold start: a full positioning operation.
            None => {
                let rot = self
                    .rng
                    .range_f64(0.0, self.params.full_revolution.as_secs_f64());
                self.params.avg_seek + Time::from_secs_f64(rot)
            }
        }
    }

    /// Submits one command; returns its grant. Sequential requests skip
    /// positioning entirely (the head is already there).
    pub fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        debug_assert!(req.len > 0, "zero-length disk request");
        let positioning = self.positioning(req.offset);
        let bw = if req.op.is_write() {
            self.params.write_bw
        } else {
            self.params.read_bw
        };
        let mut service = self.params.cmd_overhead + positioning + bw.time_for(req.len);
        if self.slow_factor != 1.0 {
            service = Time::from_secs_f64(service.as_secs_f64() * self.slow_factor);
        }
        let grant = self.timeline.submit(now, service);
        self.last_end = Some(req.end());
        self.ios += 1;
        IoGrant {
            start: grant.start,
            ack: grant.end,
            durable: grant.end,
        }
    }

    /// Submits `count` equal-sized sequential commands, all arriving at
    /// `now`, starting at `offset` — which must equal the previous
    /// command's end. Every command in the run therefore skips positioning
    /// and draws no rotational RNG, exactly as `count` individual
    /// sequential [`Disk::submit`] calls would, so the whole run collapses
    /// to one [`FifoResource::submit_run`]. Only valid on a nominal-speed
    /// member (`slow_factor == 1.0`); bulk callers gate on that.
    pub fn submit_seq_run(
        &mut self,
        now: Time,
        op: BlockOp,
        offset: u64,
        len: u64,
        count: u64,
    ) -> SeqRunGrant {
        debug_assert!(len > 0 && count > 0, "empty sequential run");
        debug_assert_eq!(
            self.last_end,
            Some(offset),
            "sequential run must continue the head position"
        );
        debug_assert_eq!(
            self.slow_factor, 1.0,
            "bulk runs are gated to nominal-speed members"
        );
        let bw = if op.is_write() {
            self.params.write_bw
        } else {
            self.params.read_bw
        };
        let service = self.params.cmd_overhead + bw.time_for(len);
        let grant = self.timeline.submit_run(now, service, count);
        self.last_end = Some(offset + len * count);
        self.ios += count;
        SeqRunGrant {
            start: grant.start,
            first_ack: grant.start + service,
            service,
            last_ack: grant.end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MIB;

    fn disk() -> Disk {
        Disk::new(DiskParams::sata_7200(150, 72), 1)
    }

    #[test]
    fn sequential_stream_approaches_media_rate() {
        let mut d = disk();
        // Warm up positioning.
        let mut now = d.submit(Time::ZERO, BlockReq::read(0, MIB)).ack;
        let start = now;
        let mut offset = MIB;
        let total = 256 * MIB;
        while offset < total + MIB {
            let g = d.submit(now, BlockReq::read(offset, MIB));
            now = g.ack;
            offset += MIB;
        }
        let rate = Bandwidth::measured(total, now - start);
        let media = d.params().read_bw.as_mib_per_sec();
        assert!(
            rate.as_mib_per_sec() > media * 0.9,
            "sequential rate {} far below media {}",
            rate,
            media
        );
    }

    #[test]
    fn random_access_is_iops_bound() {
        let mut d = disk();
        let mut now = Time::ZERO;
        let mut rng = SplitMix64::new(7);
        let n = 200;
        let start = now;
        for _ in 0..n {
            let off = rng.next_below(140 * 1024) * MIB; // scattered over 140 GiB
            let g = d.submit(now, BlockReq::read(off, 4096));
            now = g.ack;
        }
        let iops = n as f64 / (now - start).as_secs_f64();
        // 7200 rpm + 8.5 ms seeks: 60–130 IOPs is the physical range.
        assert!(iops > 50.0 && iops < 150.0, "random IOPs = {iops}");
    }

    #[test]
    fn larger_blocks_give_higher_random_bandwidth() {
        let rate_for = |block: u64| {
            let mut d = disk();
            let mut rng = SplitMix64::new(3);
            let mut now = Time::ZERO;
            let start = now;
            let n = 100;
            for _ in 0..n {
                let off = rng.next_below(100_000) * block;
                now = d.submit(now, BlockReq::read(off, block)).ack;
            }
            Bandwidth::measured(n * block, now - start).as_mib_per_sec()
        };
        let small = rate_for(32 * 1024);
        let large = rate_for(16 * MIB);
        assert!(
            large > small * 10.0,
            "expected strong block-size scaling: 32KiB={small}, 16MiB={large}"
        );
    }

    #[test]
    fn writes_slightly_slower_than_reads() {
        let p = DiskParams::sata_7200(150, 72);
        assert!(p.write_bw < p.read_bw);
    }

    #[test]
    fn queueing_is_fifo_across_submitters() {
        let mut d = disk();
        let a = d.submit(Time::ZERO, BlockReq::read(0, MIB));
        let b = d.submit(Time::ZERO, BlockReq::read(MIB, MIB));
        assert!(b.start >= a.ack, "second request must wait");
        assert_eq!(d.ios(), 2);
    }

    #[test]
    fn seq_run_matches_repeated_sequential_submits() {
        let mut bulk = disk();
        let mut granular = disk();
        // Identical warm-up so both heads sit at the same position with the
        // same RNG state.
        let now = bulk.submit(Time::ZERO, BlockReq::write(0, MIB)).ack;
        granular.submit(Time::ZERO, BlockReq::write(0, MIB));
        let run = bulk.submit_seq_run(now, BlockOp::Write, MIB, MIB, 7);
        let mut last = None;
        for i in 0..7u64 {
            last = Some(granular.submit(now, BlockReq::write(MIB + i * MIB, MIB)));
        }
        assert_eq!(run.last_ack, last.unwrap().ack);
        assert_eq!(run.ack(6), run.last_ack);
        assert_eq!(bulk.free_at(), granular.free_at());
        assert_eq!(bulk.busy_time(), granular.busy_time());
        assert_eq!(bulk.ios(), granular.ios());
        // Both heads end at the same place: the next random submit draws
        // the same positioning.
        let a = bulk.submit(run.last_ack, BlockReq::read(500 * MIB, MIB));
        let b = granular.submit(run.last_ack, BlockReq::read(500 * MIB, MIB));
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut d = disk();
            let mut rng = SplitMix64::new(5);
            let mut now = Time::ZERO;
            for _ in 0..50 {
                let off = rng.next_below(1000) * MIB;
                now = d.submit(now, BlockReq::write(off, 64 * 1024)).ack;
            }
            now
        };
        assert_eq!(run(), run());
    }
}
