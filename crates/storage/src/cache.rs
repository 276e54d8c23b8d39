//! Controller write-back cache.
//!
//! The paper's RAID arrays run "with write-cache enabled (write back)": the
//! controller acknowledges writes once they land in its battery-backed RAM
//! and destages them to the member disks in the background. [`CachedVolume`]
//! models exactly that:
//!
//! * A write is destaged to the backing volume immediately (keeping the
//!   backing timeline accurate) but **acknowledged** at controller speed as
//!   long as the cache has room for it.
//! * Cache occupancy is the set of writes whose destage has not yet
//!   completed; when the cache is full, acknowledgment degrades to the
//!   destage completion time — sustained throughput converges to the backing
//!   volume's rate while bursts up to the cache size run at controller speed.
//! * Reads pass through (read caching belongs to the filesystem page cache).

use crate::req::{BlockOp, BlockReq, IoGrant};
use crate::volume::{ReadTrainBounds, RebuildReport, TimedRead, Volume, VolumeError, VolumeMeter};
use serde::{Deserialize, Serialize};
use simcore::{Bandwidth, FifoResource, Time};
use std::collections::VecDeque;

/// Parameters of a controller write-back cache.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WriteCacheParams {
    /// Cache capacity in bytes.
    pub size: u64,
    /// Rate at which the controller absorbs data into cache RAM.
    pub absorb_bw: Bandwidth,
    /// Fixed per-request controller latency.
    pub latency: Time,
}

impl WriteCacheParams {
    /// A typical battery-backed controller cache of `mib` MiB.
    pub fn controller(mib: u64) -> WriteCacheParams {
        WriteCacheParams {
            size: mib * 1024 * 1024,
            absorb_bw: Bandwidth::from_mib_per_sec(800),
            latency: Time::from_micros(25),
        }
    }
}

/// A write-back cache in front of a backing volume.
pub struct CachedVolume<V> {
    params: WriteCacheParams,
    inner: V,
    /// Front-end acknowledgment pipeline (the controller itself is serial).
    front: FifoResource,
    /// Writes whose destage is still in flight: (destage completion, bytes).
    in_flight: VecDeque<(Time, u64)>,
    occupied: u64,
    meter: VolumeMeter,
}

impl<V: Volume> CachedVolume<V> {
    /// Wraps `inner` with a write-back cache.
    pub fn new(params: WriteCacheParams, inner: V) -> Self {
        CachedVolume {
            params,
            inner,
            front: FifoResource::new(),
            in_flight: VecDeque::new(),
            occupied: 0,
            meter: VolumeMeter::default(),
        }
    }

    /// Access to the backing volume (e.g. for its meter).
    pub fn inner(&self) -> &V {
        &self.inner
    }

    /// Bytes currently dirty in cache as of the last submission.
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// Releases cache space for destages that completed by `now`.
    fn expire(&mut self, now: Time) {
        while let Some(&(done, bytes)) = self.in_flight.front() {
            if done <= now {
                self.occupied -= bytes;
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// The instant at which `need` bytes of cache space become available,
    /// assuming destages complete in FIFO order. Returns `now` if space is
    /// already available.
    fn space_available_at(&self, now: Time, need: u64) -> Time {
        if self.occupied + need <= self.params.size {
            return now;
        }
        let mut freed = 0u64;
        for &(done, bytes) in &self.in_flight {
            freed += bytes;
            if self.occupied - freed + need <= self.params.size {
                return done.max(now);
            }
        }
        // Even draining everything is not enough (request bigger than the
        // cache): ack tracks the destage itself.
        Time::MAX
    }
}

impl<V: Volume> Volume for CachedVolume<V> {
    fn submit(&mut self, now: Time, req: BlockReq) -> IoGrant {
        match req.op {
            BlockOp::Read => {
                // Reads must observe pending writes; the backing volume's
                // FIFO timelines already order them correctly.
                let g = self.inner.submit(now, req);
                self.meter.record(&req, now, &g);
                g
            }
            BlockOp::Write => {
                self.expire(now);
                // Destage keeps the backing timeline accurate regardless of
                // when the host sees the ack.
                let destage = self.inner.submit(now, req);
                let admitted_at = self.space_available_at(now, req.len);

                let ack = if admitted_at == Time::MAX {
                    // Larger than the whole cache: effectively write-through.
                    destage.durable
                } else {
                    let service = self.params.latency + self.params.absorb_bw.time_for(req.len);
                    self.front.submit(admitted_at, service).end
                };

                self.in_flight.push_back((destage.durable, req.len));
                self.occupied += req.len;

                let g = IoGrant {
                    start: destage.start.min(ack),
                    ack: ack.min(destage.durable),
                    durable: destage.durable,
                };
                self.meter.record(&req, now, &g);
                g
            }
        }
    }

    fn flush(&mut self, now: Time) -> Time {
        let t = self.inner.flush(now);
        self.expire(t);
        t
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn meter(&self) -> &VolumeMeter {
        &self.meter
    }

    // Reads pass through and leave the cache alone, so a read train is
    // the backing volume's.
    fn read_train_state(
        &self,
        now: Time,
        offset: u64,
        out: &mut Vec<u64>,
    ) -> Option<ReadTrainBounds> {
        self.inner.read_train_state(now, offset, out)
    }

    fn repeat_reads(&mut self, reads: &[TimedRead], period: Time, stride: u64, n: u64) {
        self.inner.repeat_reads(reads, period, stride, n);
        for r in reads {
            self.meter.record_n(&r.req, r.arrival, &r.grant, n);
        }
    }

    // The write cache acknowledges every chunk individually, so chunked
    // runs keep the default granular `submit_run` (each chunk interacts
    // with the cache) — `try_bulk_run` is deliberately NOT overridden.
    // The bulk diagnostics and the fault horizon forward to the backing
    // volume, which only ever sees per-chunk submissions from the cache.
    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.inner.set_fault_horizon(horizon);
    }

    fn set_bulk_enabled(&mut self, on: bool) {
        self.inner.set_bulk_enabled(on);
    }

    fn bulk_run_stats(&self) -> (u64, u64) {
        self.inner.bulk_run_stats()
    }

    // Fault hooks pass straight through to the backing volume.
    fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        self.inner.fail_disk(disk)
    }

    fn replace_disk(&mut self, now: Time, disk: usize) -> Result<(), VolumeError> {
        self.inner.replace_disk(now, disk)
    }

    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        self.inner.set_disk_slowdown(disk, factor)
    }

    fn pump(&mut self, now: Time) {
        self.inner.pump(now);
    }

    fn rebuild_report(&self) -> Option<RebuildReport> {
        self.inner.rebuild_report()
    }

    fn finish_rebuild(&mut self, now: Time) -> Time {
        self.inner.finish_rebuild(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, DiskParams};
    use crate::raid::Jbod;
    use simcore::MIB;

    fn cached(cache_mib: u64) -> CachedVolume<Jbod> {
        CachedVolume::new(
            WriteCacheParams::controller(cache_mib),
            Jbod::new(Disk::new(DiskParams::sata_7200(150, 72), 1)),
        )
    }

    #[test]
    fn burst_within_cache_acks_at_controller_speed() {
        let mut v = cached(256);
        let mut now = Time::ZERO;
        let start = now;
        // 128 MiB burst fits in a 256 MiB cache.
        for i in 0..32u64 {
            now = v.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
        }
        let rate = Bandwidth::measured(128 * MIB, now - start).as_mib_per_sec();
        assert!(rate > 300.0, "burst absorbed at {rate} MiB/s");
    }

    #[test]
    fn sustained_stream_converges_to_disk_rate() {
        let mut v = cached(64);
        let mut now = Time::ZERO;
        let total_mb = 2048u64;
        for i in 0..(total_mb / 4) {
            now = v.submit(now, BlockReq::write(i * 4 * MIB, 4 * MIB)).ack;
        }
        let rate = Bandwidth::measured(total_mb * MIB, now).as_mib_per_sec();
        // Disk media rate for writes ≈ 72 * 0.94 ≈ 67.7 MiB/s; the cache can
        // only add its 64 MiB of slack.
        assert!(rate < 75.0, "sustained {rate} must approach disk rate");
        assert!(rate > 55.0, "sustained {rate} collapsed below disk rate");
    }

    #[test]
    fn durable_lags_ack() {
        let mut v = cached(256);
        let g = v.submit(Time::ZERO, BlockReq::write(0, 16 * MIB));
        assert!(g.durable > g.ack, "write-back must ack before durability");
    }

    #[test]
    fn read_passes_through() {
        let mut v = cached(256);
        let g = v.submit(Time::ZERO, BlockReq::read(0, MIB));
        assert_eq!(g.ack, g.durable);
        assert_eq!(v.meter().reads.ops(), 1);
    }

    #[test]
    fn flush_returns_backing_drain_time() {
        let mut v = cached(256);
        let g = v.submit(Time::ZERO, BlockReq::write(0, 16 * MIB));
        let t = v.flush(g.ack);
        assert!(t >= g.durable);
        assert_eq!(v.occupied(), 0);
    }

    #[test]
    fn oversized_request_degrades_to_write_through() {
        let mut v = cached(8);
        let g = v.submit(Time::ZERO, BlockReq::write(0, 64 * MIB));
        assert_eq!(g.ack, g.durable);
    }

    #[test]
    fn occupancy_expires_as_destage_completes() {
        let mut v = cached(256);
        let g = v.submit(Time::ZERO, BlockReq::write(0, 16 * MIB));
        assert_eq!(v.occupied(), 16 * MIB);
        // Submitting long after the destage completed releases the space.
        v.submit(
            g.durable + Time::from_secs(1),
            BlockReq::write(32 * MIB, MIB),
        );
        assert_eq!(v.occupied(), MIB);
    }
}
