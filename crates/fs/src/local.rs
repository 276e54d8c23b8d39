//! An ext4-like local filesystem model.
//!
//! The model captures the behaviours the paper's evaluation depends on:
//!
//! * **Page-cached writes** complete at memory-copy speed until the dirty
//!   limit is reached, after which writers throttle to device speed
//!   (Linux `dirty_ratio` behaviour).
//! * **Page-cached reads** hit at memory speed; misses are rounded up to the
//!   readahead window for sequential streams, so small sequential records
//!   reach near-device bandwidth while random access pays full positioning.
//! * **Extent allocation**: files grow in large contiguous extents from a
//!   bump allocator (fresh-filesystem assumption), so the device sees the
//!   sequential patterns ext4's delayed allocation produces.
//! * **fsync/close** semantics and metadata operation costs.

use crate::file::FileId;
use crate::meta::{MetaOps, MetaVerb};
use crate::range_cache::{RangeCache, RangeRef};
use simcore::stats::TransferMeter;
use simcore::{Bandwidth, FxHashMap, Time};
use storage::{BlockReq, InlineVec, ReadTrainBounds, TimedRead, Volume};

/// Tunables of a local filesystem.
#[derive(Clone, Debug)]
pub struct LocalFsParams {
    /// Page-cache copy bandwidth (one stream).
    pub mem_bw: Bandwidth,
    /// Cost of a metadata operation (open/create/close/stat).
    pub meta_op: Time,
    /// Page-cache capacity in bytes.
    pub cache_capacity: u64,
    /// Dirty bytes beyond which writers throttle (Linux `dirty_ratio`).
    pub dirty_limit: u64,
    /// Dirty level writeback drains down to once throttled.
    pub dirty_background: u64,
    /// Largest single device request issued by writeback.
    pub writeback_chunk: u64,
    /// Readahead window for sequential reads.
    pub readahead: u64,
    /// Extent allocation granularity.
    pub alloc_extent: u64,
}

impl LocalFsParams {
    /// An ext4-like configuration for a node with `ram` bytes of memory.
    pub fn ext4(ram: u64) -> LocalFsParams {
        let cache = ram / 10 * 8; // the OS keeps ~80% of RAM as page cache
        LocalFsParams {
            mem_bw: Bandwidth::from_mib_per_sec(1600),
            meta_op: Time::from_micros(150),
            cache_capacity: cache,
            dirty_limit: cache / 5,
            dirty_background: cache / 10,
            writeback_chunk: 4 * 1024 * 1024,
            readahead: 1024 * 1024,
            alloc_extent: 256 * 1024 * 1024,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct FileMeta {
    size: u64,
    /// `(file_offset, volume_offset, len)` extents, offset-sorted.
    extents: Vec<(u64, u64, u64)>,
    /// End of the last read, which a sequential read starts at.
    last_read_end: Option<u64>,
}

/// Per-direction filesystem-level transfer statistics.
#[derive(Clone, Debug, Default)]
pub struct FsMeter {
    /// Read-side statistics.
    pub reads: TransferMeter,
    /// Write-side statistics.
    pub writes: TransferMeter,
    /// Metadata operations served.
    pub meta_ops: u64,
}

/// What one [`LocalFs`] read did: the NFS read train (DESIGN §5e.6)
/// repeats it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReadTrace {
    /// When the read began.
    pub(crate) at: Time,
    /// When the data was in the caller's buffer.
    pub(crate) done: Time,
    /// Bytes the page cache held.
    pub(crate) hit: u64,
    /// Bytes it missed, readahead included.
    pub(crate) miss: u64,
    /// The volume read, if it made any (the last one).
    pub(crate) vol: Option<TimedRead>,
    /// At most one volume read and no eviction: a read a train repeats.
    pub(crate) simple: bool,
}

/// The page cache ahead of a sequential reader.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// The reader's position is cached without a gap up to here.
    pub(crate) cover: u64,
    /// The first cached byte after `cover` (`u64::MAX` if none).
    pub(crate) next: u64,
}

/// Where a read train's next volume read starts, and how far it may go.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VolumeFront {
    /// Volume offset of the frontier.
    pub(crate) voff: u64,
    /// File offset where the frontier's extent ends: the volume offset
    /// moves with the file offset only up to there.
    pub(crate) extent_end: u64,
    /// The volume's own limits.
    pub(crate) bounds: ReadTrainBounds,
}

/// `n` more periods of a read train (see [`LocalFs::repeat_reads`]).
pub(crate) struct ReadRepeat<'a> {
    /// The file read.
    pub(crate) file: FileId,
    /// Offset of the next read.
    pub(crate) pos: u64,
    /// The page cache's frontier at `pos`.
    pub(crate) cover: u64,
    /// Whether the period read the volume, filling the cache past
    /// `cover`; otherwise every read hit.
    pub(crate) fill: bool,
    /// Bytes per read.
    pub(crate) len: u64,
    /// How long each read of the period took.
    pub(crate) took: &'a [Time],
    /// The period's volume reads.
    pub(crate) reads: &'a [TimedRead],
    /// Time from one period to the next.
    pub(crate) period: Time,
    /// Bytes from one period to the next.
    pub(crate) stride: u64,
    /// Periods to apply.
    pub(crate) n: u64,
}

/// An ext4-like filesystem over a block volume.
pub struct LocalFs {
    params: LocalFsParams,
    cache: RangeCache,
    vol: Box<dyn Volume>,
    files: FxHashMap<FileId, FileMeta>,
    next_vol_off: u64,
    meter: FsMeter,
}

impl LocalFs {
    /// Mounts a filesystem on `vol`.
    pub fn new(params: LocalFsParams, vol: Box<dyn Volume>) -> LocalFs {
        let cache = RangeCache::new(params.cache_capacity);
        LocalFs {
            params,
            cache,
            vol,
            files: FxHashMap::default(),
            next_vol_off: 0,
            meter: FsMeter::default(),
        }
    }

    /// The filesystem parameters.
    pub fn params(&self) -> &LocalFsParams {
        &self.params
    }

    /// Filesystem-level statistics.
    pub fn meter(&self) -> &FsMeter {
        &self.meter
    }

    /// Device-level statistics of the backing volume.
    pub fn volume_meter(&self) -> &storage::VolumeMeter {
        self.vol.meter()
    }

    /// The backing volume's kind (for reports).
    pub fn volume_kind(&self) -> &'static str {
        self.vol.kind()
    }

    /// The backing volume (e.g. for rebuild progress).
    pub fn volume(&self) -> &dyn Volume {
        &*self.vol
    }

    /// Mutable access to the backing volume (fault injection, rebuild
    /// control).
    pub fn volume_mut(&mut self) -> &mut dyn Volume {
        &mut *self.vol
    }

    /// Current size of `file` (0 if unknown).
    pub fn file_size(&self, file: FileId) -> u64 {
        self.files.get(&file).map(|m| m.size).unwrap_or(0)
    }

    /// Bytes currently dirty in the page cache.
    pub fn dirty_bytes(&self) -> u64 {
        self.cache.dirty()
    }

    /// The page cache.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &RangeCache {
        &self.cache
    }

    /// Creates (or truncates) a file; returns completion time.
    pub fn create(&mut self, now: Time, file: FileId) -> Time {
        self.cache.drop_file(file);
        self.files.insert(file, FileMeta::default());
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Opens an existing file (creating it lazily if unknown, as the
    /// simulated workloads often pre-exist their inputs).
    pub fn open(&mut self, now: Time, file: FileId) -> Time {
        self.files.entry(file).or_default();
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Closes a file. Local-filesystem close does not imply flush.
    pub fn close(&mut self, now: Time, _file: FileId) -> Time {
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Looks up a file's attributes (`stat`); fixed metadata cost.
    pub fn stat(&mut self, now: Time, _file: FileId) -> Time {
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Removes a file: drops its cached pages and extent map.
    pub fn unlink(&mut self, now: Time, file: FileId) -> Time {
        self.cache.drop_file(file);
        self.files.remove(&file);
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Creates a directory entry. Directories are not separately modeled,
    /// so this is a fixed-cost namespace update.
    pub fn mkdir(&mut self, now: Time, _dir: FileId) -> Time {
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Lists a directory; fixed metadata cost.
    pub fn readdir(&mut self, now: Time, _dir: FileId) -> Time {
        self.meter.meta_ops += 1;
        now + self.params.meta_op
    }

    /// Declares that `file` exists with `size` bytes of valid content
    /// (allocated but uncached), e.g. pre-existing benchmark input.
    pub fn preallocate(&mut self, file: FileId, size: u64) {
        let meta = self.ensure_extents(file, 0, size);
        meta.size = meta.size.max(size);
    }

    /// Grows the extent list to cover `[start, end)`.
    fn ensure_extents(&mut self, file: FileId, _start: u64, end: u64) -> &mut FileMeta {
        let align = self.params.alloc_extent;
        let meta = self.files.entry(file).or_default();
        let mut covered: u64 = meta.extents.iter().map(|&(_, _, l)| l).sum();
        while covered < end {
            let len = align;
            meta.extents.push((covered, self.next_vol_off, len));
            self.next_vol_off += len;
            covered += len;
        }
        meta
    }

    /// Maps a file byte range to volume ranges. Extents are huge (256 MiB),
    /// so a mapping rarely crosses more than two of them.
    fn map(&mut self, file: FileId, start: u64, end: u64) -> InlineVec<(u64, u64), 4> {
        let meta = self.ensure_extents(file, start, end);
        let mut out = InlineVec::new();
        for &(foff, voff, len) in &meta.extents {
            let e_end = foff + len;
            if e_end <= start || foff >= end {
                continue;
            }
            let from = start.max(foff);
            let to = end.min(e_end);
            out.push((voff + (from - foff), to - from));
        }
        out
    }

    /// Writes `ranges` to the device, chunked; returns the completion time.
    /// All chunks are issued at `now` (device-level parallelism is the
    /// volume's concern); completion is the last acknowledgment. The whole
    /// chunked run goes down as one call so eligible volumes can take the
    /// bulk fast path — by construction the grant envelope is identical to
    /// submitting each chunk individually.
    fn writeback(&mut self, now: Time, ranges: &[RangeRef]) -> Time {
        let chunk = self.params.writeback_chunk;
        let mut done = now;
        let mut total = 0u64;
        for r in ranges {
            for &(voff, len) in self.map(r.file, r.start, r.end).iter() {
                let g = self.vol.submit_run(now, BlockReq::write(voff, len), chunk);
                done = done.max(g.ack);
                total += len;
            }
            self.cache.mark_clean(r.file, r.start, r.end);
        }
        if total > 0 {
            simcore::obs::emit(|| simcore::obs::ObsEvent::Writeback {
                bytes: total,
                start: now,
                end: done,
            });
        }
        done
    }

    /// Writes `len` bytes at `offset`; returns the instant the caller may
    /// continue (page-cache copy, plus any throttling).
    pub fn write(&mut self, now: Time, file: FileId, offset: u64, len: u64) -> Time {
        assert!(len > 0, "zero-length write");
        let mut t = now;

        // Make room; evicted dirty ranges must hit the device first.
        let must_flush = self.cache.ensure_room(len.min(self.cache.capacity()));
        if !must_flush.is_empty() {
            let evict_start = t;
            let mut evicted = 0u64;
            // These are detached from the cache already; write them out.
            let chunk = self.params.writeback_chunk;
            for r in &must_flush {
                // Arrival advances per chunk here (the writer waits on each
                // ack), so this loop stays event-granular by design.
                for &(voff, l) in self.map(r.file, r.start, r.end).iter() {
                    let mut pos = 0;
                    while pos < l {
                        let take = chunk.min(l - pos);
                        let g = self.vol.submit(t, BlockReq::write(voff + pos, take));
                        t = t.max(g.ack);
                        pos += take;
                    }
                    evicted += l;
                }
            }
            simcore::obs::emit(|| simcore::obs::ObsEvent::CacheEvict {
                bytes: evicted,
                at: evict_start,
            });
        }

        // Copy into the cache.
        t += self.params.mem_bw.time_for(len);
        self.cache.insert(file, offset, offset + len, true);
        let meta = self.files.entry(file).or_default();
        meta.size = meta.size.max(offset + len);

        // Dirty throttling: drain to the background level at device speed.
        if self.cache.dirty() > self.params.dirty_limit {
            let excess = self.cache.dirty() - self.params.dirty_background;
            let ranges = self.cache.dirty_ranges(excess);
            t = self.writeback(t, &ranges);
        }

        self.meter.writes.record(len, t - now);
        t
    }

    /// Bytes the page cache takes before it evicts.
    pub(crate) fn cache_room(&self) -> u64 {
        self.cache.capacity().saturating_sub(self.cache.used())
    }

    /// How many back-to-back [`LocalFs::write`]s of `len` bytes fit in the
    /// page cache as it stands with none of them evicting or throttling:
    /// each one's room check and dirty check pass even if none overwrote
    /// cached data.
    pub(crate) fn plain_writes(&self, len: u64) -> u64 {
        let room = self.cache.capacity().saturating_sub(self.cache.used());
        let dirty_room = self.params.dirty_limit.saturating_sub(self.cache.dirty());
        room.min(dirty_room) / len.max(1)
    }

    /// The state `n` calls `write(_, file, start + k·len, len)` (k = 0…n−1)
    /// leave when [`LocalFs::plain_writes`] allows all `n`: each is a page
    /// cache copy and nothing else, so their ranges go in as one insert.
    /// Time is the caller's concern (each call takes one copy time).
    pub(crate) fn write_plain_run(&mut self, file: FileId, start: u64, len: u64, n: u64) {
        debug_assert!(
            n <= self.plain_writes(len),
            "the run would evict or throttle"
        );
        let end = start + len * n;
        self.cache.insert(file, start, end, true);
        let meta = self.files.entry(file).or_default();
        meta.size = meta.size.max(end);
        let copy = self.params.mem_bw.time_for(len);
        self.meter.writes.record_n(len, copy, n);
    }

    /// Reads `len` bytes at `offset`; returns the instant the data is in
    /// the caller's buffer.
    pub fn read(&mut self, now: Time, file: FileId, offset: u64, len: u64) -> Time {
        self.read_traced(now, file, offset, len, None)
    }

    /// [`LocalFs::read`], telling `trace`, if any, what it did.
    pub(crate) fn read_traced(
        &mut self,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
        trace: Option<&mut ReadTrace>,
    ) -> Time {
        assert!(len > 0, "zero-length read");
        let end = offset + len;
        let (hit_bytes, mut misses) = self.cache.lookup(file, offset, end);

        // Sequential streams extend the final miss by the readahead window.
        let last_read_end = &mut self.files.entry(file).or_default().last_read_end;
        let sequential = *last_read_end == Some(offset);
        *last_read_end = Some(end);
        if sequential && self.params.readahead > 0 {
            if let Some(last) = misses.last_mut() {
                if last.end == end {
                    last.end += self.params.readahead;
                }
            }
        }

        let mut device_done = now;
        let miss_bytes: u64 = misses.iter().map(|m| m.len()).sum();
        simcore::obs::emit(|| simcore::obs::ObsEvent::CacheAccess {
            hit_bytes,
            miss_bytes,
            at: now,
        });
        let mut simple = misses.len() <= 1;
        let mut vol = None;
        for m in misses.iter() {
            let need = m.len();
            let used = self.cache.used();
            let flush = self.cache.ensure_room(need.min(self.cache.capacity()));
            simple &= self.cache.used() == used;
            if !flush.is_empty() {
                device_done = self.writeback(device_done, &flush);
            }
            for (i, &(voff, l)) in self.map(m.file, m.start, m.end).iter().enumerate() {
                let req = BlockReq::read(voff, l);
                let g = self.vol.submit(now, req);
                simple &= i == 0;
                vol = Some(TimedRead {
                    arrival: now,
                    req,
                    grant: g,
                });
                device_done = device_done.max(g.ack);
                simcore::obs::emit(|| simcore::obs::ObsEvent::StorageIo {
                    volume: self.vol.kind(),
                    write: false,
                    bytes: l,
                    start: now,
                    end: g.ack,
                });
            }
            self.cache.insert(m.file, m.start, m.end, false);
        }

        let copy = self.params.mem_bw.time_for(len);
        let t = device_done.max(now) + copy;
        self.meter.reads.record(len, t - now);
        if let Some(trace) = trace {
            *trace = ReadTrace {
                at: now,
                done: t,
                hit: hit_bytes,
                miss: miss_bytes,
                vol,
                simple,
            };
        }
        t
    }

    /// The page cache ahead of a sequential reader of `file` at `pos`.
    pub(crate) fn frontier(&self, file: FileId, pos: u64) -> Frontier {
        let (cover, next) = self.cache.run_from(file, pos);
        Frontier { cover, next }
    }

    /// The volume's read-train state (appended to `out`, instants relative
    /// to `now`) for a read of `file` from `offset` on, where `offset` sits
    /// in the volume and how far its extent goes; `None` when `offset` is
    /// not allocated or the volume declines
    /// ([`Volume::read_train_state`]).
    pub(crate) fn volume_front(
        &self,
        file: FileId,
        offset: u64,
        now: Time,
        out: &mut Vec<u64>,
    ) -> Option<VolumeFront> {
        let meta = self.files.get(&file)?;
        let &(foff, voff, len) = meta
            .extents
            .iter()
            .find(|&&(foff, _, len)| foff <= offset && offset < foff + len)?;
        let voff = voff + (offset - foff);
        let bounds = self.vol.read_train_state(now, voff, out)?;
        Some(VolumeFront {
            voff,
            extent_end: foff + len,
            bounds,
        })
    }

    /// Applies `r.n` more periods of a read train: the state as many more
    /// [`LocalFs::read`]s would leave, each period moved `r.period` later
    /// and `r.stride` bytes on. The caller guarantees that they evict
    /// nothing and that no byte past `r.cover` is cached where they fill,
    /// so their lookups touch the cached run `[r.pos, r.cover)` in offset
    /// order and their fills, contiguous and clean, merge into one insert.
    pub(crate) fn repeat_reads(&mut self, r: &ReadRepeat<'_>) {
        let span = r.stride * r.n;
        let reach = r.pos + span;
        if r.cover > r.pos {
            self.cache.lookup(r.file, r.pos, r.cover.min(reach));
        }
        if r.fill {
            self.cache.insert(r.file, r.cover, r.cover + span, false);
            self.vol.repeat_reads(r.reads, r.period, r.stride, r.n);
        }
        self.files.entry(r.file).or_default().last_read_end = Some(reach);
        for &took in r.took {
            self.meter.reads.record_n(r.len, took, r.n);
        }
    }

    /// Flushes `file`'s dirty data and the device caches; returns the
    /// instant everything is durable.
    pub fn fsync(&mut self, now: Time, file: FileId) -> Time {
        let ranges = self.cache.dirty_ranges_of(file);
        let t = self.writeback(now, &ranges);
        let t = self.vol.flush(t).max(t);
        self.meter.meta_ops += 1;
        t
    }

    /// Flushes everything (unmount/sync); returns the durable instant.
    pub fn sync_all(&mut self, now: Time) -> Time {
        let ranges = self.cache.dirty_ranges(u64::MAX);
        let t = self.writeback(now, &ranges);
        self.vol.flush(t).max(t)
    }
}

impl MetaOps for LocalFs {
    type Ctx<'a> = ();
    type Error = std::convert::Infallible;

    fn meta(
        &mut self,
        _ctx: (),
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, Self::Error> {
        Ok(match verb {
            MetaVerb::Create => self.create(now, target),
            MetaVerb::Stat => self.stat(now, target),
            MetaVerb::Unlink => self.unlink(now, target),
            MetaVerb::Mkdir => self.mkdir(now, dir),
            MetaVerb::Readdir => self.readdir(now, dir),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{GIB, MIB};
    use storage::{CachedVolume, Disk, DiskParams, Jbod, WriteCacheParams};

    fn fs_with(ram_gib: u64) -> LocalFs {
        let disk = Disk::new(DiskParams::sata_7200(150, 72), 1);
        LocalFs::new(
            LocalFsParams::ext4(ram_gib * GIB),
            Box::new(Jbod::new(disk)),
        )
    }

    const F: FileId = FileId(1);

    #[test]
    fn cached_writes_run_at_memory_speed() {
        let mut fs = fs_with(2);
        let mut now = fs.create(Time::ZERO, F);
        let start = now;
        // 64 MiB total — far below the ~327 MiB dirty limit of a 2 GiB node.
        for i in 0..16u64 {
            now = fs.write(now, F, i * 4 * MIB, 4 * MIB);
        }
        let rate = Bandwidth::measured(64 * MIB, now - start).as_mib_per_sec();
        assert!(rate > 800.0, "cached writes at {rate} MiB/s");
        assert!(fs.dirty_bytes() > 0);
    }

    #[test]
    fn sustained_writes_throttle_to_device_speed() {
        let mut fs = fs_with(2);
        let mut now = fs.create(Time::ZERO, F);
        let start = now;
        let total = 4 * GIB; // 2× RAM, the paper's IOzone rule
        let mut off = 0;
        while off < total {
            now = fs.write(now, F, off, 4 * MIB);
            off += 4 * MIB;
        }
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        assert!(
            rate > 40.0 && rate < 90.0,
            "sustained write rate {rate} should approach the ~68 MiB/s disk"
        );
    }

    #[test]
    fn reread_within_cache_is_memory_fast() {
        let mut fs = fs_with(2);
        let mut now = fs.create(Time::ZERO, F);
        for i in 0..8u64 {
            now = fs.write(now, F, i * 4 * MIB, 4 * MIB);
        }
        let start = now;
        let mut t = now;
        for i in 0..8u64 {
            t = fs.read(t, F, i * 4 * MIB, 4 * MIB);
        }
        let rate = Bandwidth::measured(32 * MIB, t - start).as_mib_per_sec();
        assert!(rate > 500.0, "cached reads at {rate} MiB/s");
    }

    #[test]
    fn cold_sequential_read_approaches_device_speed() {
        let mut fs = fs_with(2);
        fs.preallocate(F, 2 * GIB);
        let mut now = Time::ZERO;
        let start = now;
        let total = GIB;
        let mut off = 0;
        while off < total {
            now = fs.read(now, F, off, MIB);
            off += MIB;
        }
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        assert!(
            rate > 45.0 && rate < 85.0,
            "cold sequential read at {rate} MiB/s vs 72 MiB/s disk"
        );
    }

    #[test]
    fn small_sequential_reads_benefit_from_readahead() {
        let mut fs = fs_with(2);
        fs.preallocate(F, 2 * GIB);
        let mut now = Time::ZERO;
        let start = now;
        let total = 256 * MIB;
        let block = 32 * 1024;
        let mut off = 0;
        while off < total {
            now = fs.read(now, F, off, block);
            off += block;
        }
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        // Without readahead each 32 KiB read would pay positioning;
        // with it the stream must stay within 2× of device speed.
        assert!(rate > 35.0, "32 KiB sequential reads at {rate} MiB/s");
    }

    #[test]
    fn random_reads_are_much_slower_than_sequential() {
        let mut fs = fs_with(2);
        fs.preallocate(F, 8 * GIB);
        let mut now = Time::from_secs(1);
        let start = now;
        let n = 64u64;
        for i in 0..n {
            // Large prime stride scatters accesses far beyond readahead.
            let off = (i * 997 * MIB) % (8 * GIB - MIB);
            now = fs.read(now, F, off, 64 * 1024);
        }
        let rnd = Bandwidth::measured(n * 64 * 1024, now - start).as_mib_per_sec();
        assert!(rnd < 30.0, "random 64 KiB reads at {rnd} MiB/s");
    }

    #[test]
    fn fsync_forces_durability() {
        let mut fs = fs_with(2);
        let now = fs.create(Time::ZERO, F);
        let t_write = fs.write(now, F, 0, 64 * MIB);
        assert!(fs.dirty_bytes() == 64 * MIB);
        let t_sync = fs.fsync(t_write, F);
        assert!(t_sync > t_write, "fsync must wait for the device");
        assert_eq!(fs.dirty_bytes(), 0);
        // 64 MiB at ~68 MiB/s ≈ 0.95 s of device time.
        let dur = (t_sync - now).as_secs_f64();
        assert!(dur > 0.5, "fsync took {dur}s, device work unaccounted");
    }

    #[test]
    fn file_size_tracks_writes() {
        let mut fs = fs_with(2);
        let now = fs.create(Time::ZERO, F);
        fs.write(now, F, 10 * MIB, MIB);
        assert_eq!(fs.file_size(F), 11 * MIB);
        assert_eq!(fs.file_size(FileId(99)), 0);
    }

    #[test]
    fn create_truncates_cache_state() {
        let mut fs = fs_with(2);
        let now = fs.create(Time::ZERO, F);
        let t = fs.write(now, F, 0, MIB);
        assert!(fs.dirty_bytes() > 0);
        fs.create(t, F);
        assert_eq!(fs.dirty_bytes(), 0);
        assert_eq!(fs.file_size(F), 0);
    }

    #[test]
    fn meta_ops_have_fixed_cost() {
        let mut fs = fs_with(2);
        let t1 = fs.create(Time::ZERO, F);
        let t2 = fs.open(t1, F);
        let t3 = fs.close(t2, F);
        assert_eq!(t3 - Time::ZERO, fs.params().meta_op * 3);
        assert_eq!(fs.meter().meta_ops, 3);
    }

    #[test]
    fn unlink_drops_file_state() {
        let mut fs = fs_with(2);
        let now = fs.create(Time::ZERO, F);
        let t = fs.write(now, F, 0, MIB);
        assert!(fs.dirty_bytes() > 0);
        let t2 = fs.unlink(t, F);
        assert_eq!(t2 - t, fs.params().meta_op);
        assert_eq!(fs.dirty_bytes(), 0);
        assert_eq!(fs.file_size(F), 0);
    }

    #[test]
    fn meta_ops_trait_dispatches_all_verbs() {
        use crate::meta::{MetaOps, MetaVerb};
        let mut fs = fs_with(2);
        let dir = FileId(40);
        let mut t = Time::ZERO;
        for v in MetaVerb::ALL {
            t = fs.meta((), t, v, dir, F).unwrap();
        }
        assert_eq!(t - Time::ZERO, fs.params().meta_op * 5);
        assert_eq!(fs.meter().meta_ops, 5);
    }

    #[test]
    fn works_with_cached_raid_volume() {
        let disks: Vec<Disk> = (0..5)
            .map(|i| Disk::new(DiskParams::sata_7200(150, 72), i + 10))
            .collect();
        let raid = storage::Raid5::new(disks, 256 * 1024, true);
        let vol = CachedVolume::new(WriteCacheParams::controller(256), raid);
        let mut fs = LocalFs::new(LocalFsParams::ext4(2 * GIB), Box::new(vol));
        let mut now = fs.create(Time::ZERO, F);
        let start = now;
        let total = 4 * GIB;
        let mut off = 0;
        while off < total {
            now = fs.write(now, F, off, 4 * MIB);
            off += 4 * MIB;
        }
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        // RAID 5 over 5 disks sustains several× a single disk.
        assert!(rate > 120.0, "RAID 5 backed fs writes at {rate} MiB/s");
    }

    #[test]
    fn sequential_write_read_cycle_is_deterministic() {
        let run = || {
            let mut fs = fs_with(2);
            let mut now = fs.create(Time::ZERO, F);
            for i in 0..128u64 {
                now = fs.write(now, F, i * MIB, MIB);
            }
            for i in 0..128u64 {
                now = fs.read(now, F, i * MIB, MIB);
            }
            now
        };
        assert_eq!(run(), run());
    }
}
