//! A byte-accurate LRU cache of file ranges with clean/dirty state.
//!
//! The Linux page cache tracks 4 KiB pages; tracking *byte ranges* instead
//! keeps the model exact for sub-page operations while using memory
//! proportional to the number of distinct extents, not the number of pages.
//! Sequential streams coalesce into single segments; strided small writes
//! stay separate — both exactly what the costing needs.
//!
//! Invariants (property-tested):
//! * segments of a file never overlap;
//! * adjacent segments with equal dirty state are merged;
//! * `used()` equals the summed length of all segments and never exceeds
//!   capacity after [`RangeCache::ensure_room`];
//! * every segment is indexed by a unique LRU stamp.

use crate::file::FileId;
use simcore::FxHashMap;
use storage::InlineVec;

/// A cached byte range of some file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Seg {
    end: u64,
    dirty: bool,
    stamp: u64,
}

/// Per-file segment list, sorted by start offset. Sequential streams
/// coalesce, so these lists are short and a sorted vector with binary
/// search beats a tree both in lookups and in cache locality.
type SegList = Vec<(u64, Seg)>;

/// Index of the first segment starting at or after `start`.
fn seg_idx(segs: &SegList, start: u64) -> usize {
    segs.partition_point(|&(s, _)| s < start)
}

/// One recency-ordered cache entry. Entries are appended in stamp order
/// and deleted lazily (tombstoned), so recency updates are O(1) amortized
/// instead of a tree rebalance per touch.
#[derive(Clone, Copy, Debug)]
struct LruEntry {
    stamp: u64,
    file: u64,
    start: u64,
    alive: bool,
}

/// Recency index over all segments: a stamp-sorted vector with lazy
/// deletion. Stamps are allocated monotonically, so insertions append;
/// the only out-of-order inserts are punch/mark-clean left remnants that
/// keep their original (older) stamp, and those either resurrect their
/// own tombstone or pay a rare mid-vector insert.
#[derive(Clone, Debug, Default)]
struct Lru {
    /// Stamp-ascending entries, dead ones tombstoned in place.
    entries: Vec<LruEntry>,
    /// Entries before this index are all dead (advanced by `oldest`).
    head: usize,
    /// Total dead entries; compaction triggers when they dominate.
    dead: usize,
}

impl Lru {
    fn insert(&mut self, stamp: u64, file: u64, start: u64) {
        let fresh = LruEntry {
            stamp,
            file,
            start,
            alive: true,
        };
        match self.entries.last() {
            Some(last) if last.stamp >= stamp => {
                let idx = self.entries.partition_point(|e| e.stamp < stamp);
                if let Some(e) = self.entries.get_mut(idx) {
                    if e.stamp == stamp {
                        debug_assert!(!e.alive, "duplicate live LRU stamp");
                        *e = fresh;
                        self.dead -= 1;
                        self.head = self.head.min(idx);
                        return;
                    }
                }
                self.entries.insert(idx, fresh);
                self.head = self.head.min(idx);
            }
            _ => self.entries.push(fresh),
        }
    }

    fn remove(&mut self, stamp: u64) {
        let idx = self.entries.partition_point(|e| e.stamp < stamp);
        let e = &mut self.entries[idx];
        debug_assert!(e.stamp == stamp && e.alive, "remove of unknown LRU stamp");
        e.alive = false;
        self.dead += 1;
        if self.dead >= 64 && self.dead * 2 > self.entries.len() {
            self.entries.retain(|e| e.alive);
            self.head = 0;
            self.dead = 0;
        }
    }

    /// The least-recently-used live entry, if any.
    fn oldest(&mut self) -> Option<(u64, u64, u64)> {
        while let Some(e) = self.entries.get(self.head) {
            if e.alive {
                return Some((e.stamp, e.file, e.start));
            }
            self.head += 1;
        }
        None
    }

    /// Live `(file, start)` pairs in recency order, oldest first.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries[self.head.min(self.entries.len())..]
            .iter()
            .filter(|e| e.alive)
            .map(|e| (e.file, e.start))
    }
}

/// A (file, start, end) triple returned by flush/evict operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeRef {
    /// Owning file.
    pub file: FileId,
    /// Inclusive start offset.
    pub start: u64,
    /// Exclusive end offset.
    pub end: u64,
}

impl RangeRef {
    /// Range length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// LRU cache of byte ranges; see the module docs.
#[derive(Clone, Debug)]
pub struct RangeCache {
    capacity: u64,
    used: u64,
    dirty: u64,
    next_stamp: u64,
    files: FxHashMap<u64, SegList>,
    lru: Lru,
}

impl RangeCache {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> RangeCache {
        RangeCache {
            capacity,
            used: 0,
            dirty: 0,
            next_stamp: 0,
            files: FxHashMap::default(),
            lru: Lru::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently dirty.
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Removes the segment starting at `start` from all indexes.
    fn detach(&mut self, file: u64, start: u64) -> Seg {
        let segs = self.files.get_mut(&file).expect("detach of unknown file");
        let idx = seg_idx(segs, start);
        debug_assert!(
            idx < segs.len() && segs[idx].0 == start,
            "detach of unknown segment"
        );
        let (_, seg) = segs.remove(idx);
        self.lru.remove(seg.stamp);
        self.used -= seg.end - start;
        if seg.dirty {
            self.dirty -= seg.end - start;
        }
        seg
    }

    /// Adds a segment to all indexes (no overlap/merge handling).
    fn attach(&mut self, file: u64, start: u64, seg: Seg) {
        debug_assert!(seg.end > start);
        self.used += seg.end - start;
        if seg.dirty {
            self.dirty += seg.end - start;
        }
        self.lru.insert(seg.stamp, file, start);
        let segs = self.files.entry(file).or_default();
        let idx = seg_idx(segs, start);
        debug_assert!(
            idx == segs.len() || segs[idx].0 != start,
            "attach over an existing segment"
        );
        segs.insert(idx, (start, seg));
    }

    /// Segments of `file` overlapping `[start, end)`. Sequential access
    /// overlaps at most a couple of segments, so the snapshot stays inline.
    fn overlapping(&self, file: u64, start: u64, end: u64) -> InlineVec<(u64, Seg), 4> {
        let mut out = InlineVec::new();
        let Some(segs) = self.files.get(&file) else {
            return out;
        };
        let mut idx = seg_idx(segs, start);
        // The predecessor segment may extend into [start, end).
        if idx > 0 && segs[idx - 1].1.end > start {
            out.push(segs[idx - 1]);
        }
        while idx < segs.len() && segs[idx].0 < end {
            out.push(segs[idx]);
            idx += 1;
        }
        out
    }

    /// Removes `[start, end)` from the cache, keeping remnants of partially
    /// overlapped segments. Returns the number of previously-dirty bytes
    /// that were punched out (callers deciding to *discard* dirty data —
    /// only `insert(dirty=true)` over dirty data does — rely on this).
    fn punch(&mut self, file: u64, start: u64, end: u64) -> u64 {
        let mut lost_dirty = 0;
        let overlaps = self.overlapping(file, start, end);
        for &(s, seg) in overlaps.iter() {
            self.detach(file, s);
            let cut_from = s.max(start);
            let cut_to = seg.end.min(end);
            if seg.dirty {
                lost_dirty += cut_to - cut_from;
            }
            if s < start {
                // Left remnant keeps the original stamp.
                self.attach(
                    file,
                    s,
                    Seg {
                        end: start,
                        dirty: seg.dirty,
                        stamp: seg.stamp,
                    },
                );
            }
            if seg.end > end {
                // Right remnant needs a fresh stamp (one stamp per segment).
                let stamp = self.stamp();
                self.attach(
                    file,
                    end,
                    Seg {
                        end: seg.end,
                        dirty: seg.dirty,
                        stamp,
                    },
                );
            }
        }
        lost_dirty
    }

    /// Merges the segment at `start` with adjacent same-state neighbours.
    fn coalesce(&mut self, file: u64, mut start: u64) {
        let segs = self.files.get(&file).expect("coalesce on unknown file");
        let idx = seg_idx(segs, start);
        debug_assert!(
            idx < segs.len() && segs[idx].0 == start,
            "coalesce on unknown segment"
        );
        let seg = segs[idx].1;
        // Merge with predecessor.
        if idx > 0 {
            let (ps, pseg) = segs[idx - 1];
            if pseg.end == start && pseg.dirty == seg.dirty {
                self.detach(file, ps);
                let seg = self.detach(file, start);
                let stamp = self.stamp();
                self.attach(
                    file,
                    ps,
                    Seg {
                        end: seg.end,
                        dirty: seg.dirty,
                        stamp,
                    },
                );
                start = ps;
            }
        }
        // Merge with successor.
        let segs = self.files.get(&file).expect("segment vanished");
        let idx = seg_idx(segs, start);
        debug_assert!(
            idx < segs.len() && segs[idx].0 == start,
            "segment vanished during coalesce"
        );
        let seg = segs[idx].1;
        if idx + 1 < segs.len() {
            let (ns, nseg) = segs[idx + 1];
            if seg.end == ns && nseg.dirty == seg.dirty {
                let nseg = self.detach(file, ns);
                self.detach(file, start);
                let stamp = self.stamp();
                self.attach(
                    file,
                    start,
                    Seg {
                        end: nseg.end,
                        dirty: seg.dirty,
                        stamp,
                    },
                );
            }
        }
    }

    /// Inserts `[start, end)` of `file` with the given dirty state,
    /// replacing any overlapped content. Returns the number of dirty bytes
    /// that were overwritten (nonzero only when rewriting dirty data).
    pub fn insert(&mut self, file: FileId, start: u64, end: u64, dirty: bool) -> u64 {
        assert!(end > start, "empty insert");
        let lost = self.punch(file.0, start, end);
        let stamp = self.stamp();
        self.attach(file.0, start, Seg { end, dirty, stamp });
        self.coalesce(file.0, start);
        lost
    }

    /// Splits `[start, end)` of `file` into cached and missing subranges.
    /// Cached segments are touched (made most-recently-used). The returned
    /// lists are offset-sorted and disjoint; together they cover the range.
    pub fn lookup(&mut self, file: FileId, start: u64, end: u64) -> (Vec<RangeRef>, Vec<RangeRef>) {
        assert!(end > start, "empty lookup");
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        let mut pos = start;
        let overlaps = self.overlapping(file.0, start, end);
        for &(s, seg) in overlaps.iter() {
            let h_from = s.max(start);
            let h_to = seg.end.min(end);
            if h_from > pos {
                misses.push(RangeRef {
                    file,
                    start: pos,
                    end: h_from,
                });
            }
            hits.push(RangeRef {
                file,
                start: h_from,
                end: h_to,
            });
            pos = h_to;
            // Refresh the LRU stamp in place (no segment-list churn).
            let stamp = self.stamp();
            let segs = self.files.get_mut(&file.0).expect("hit on unknown file");
            let idx = seg_idx(segs, s);
            self.lru.remove(segs[idx].1.stamp);
            segs[idx].1.stamp = stamp;
            self.lru.insert(stamp, file.0, s);
        }
        if pos < end {
            misses.push(RangeRef {
                file,
                start: pos,
                end,
            });
        }
        (hits, misses)
    }

    /// Marks `[start, end)` clean where cached (after a successful
    /// writeback). Leaves LRU order unchanged.
    pub fn mark_clean(&mut self, file: FileId, start: u64, end: u64) {
        let overlaps = self.overlapping(file.0, start, end);
        for &(s, seg) in overlaps.iter() {
            if !seg.dirty {
                continue;
            }
            let from = s.max(start);
            let to = seg.end.min(end);
            self.detach(file.0, s);
            if s < from {
                self.attach(
                    file.0,
                    s,
                    Seg {
                        end: from,
                        dirty: true,
                        stamp: seg.stamp,
                    },
                );
            }
            let stamp = self.stamp();
            self.attach(
                file.0,
                from,
                Seg {
                    end: to,
                    dirty: false,
                    stamp,
                },
            );
            if seg.end > to {
                let stamp = self.stamp();
                self.attach(
                    file.0,
                    to,
                    Seg {
                        end: seg.end,
                        dirty: true,
                        stamp,
                    },
                );
            }
            self.coalesce(file.0, from);
        }
    }

    /// Collects up to `max_bytes` of dirty ranges in LRU order, expanding
    /// each pick to its whole file's offset-ordered dirty set for sequential
    /// writeback (what the flusher threads do). Ranges stay dirty until
    /// [`Self::mark_clean`]. Returns offset-sorted ranges per pass.
    pub fn dirty_ranges(&self, max_bytes: u64) -> Vec<RangeRef> {
        let mut out = Vec::new();
        let mut budget = max_bytes;
        let mut files_seen = Vec::new();
        for (file, _) in self.lru.iter() {
            if budget == 0 {
                break;
            }
            if files_seen.contains(&file) {
                continue;
            }
            files_seen.push(file);
            let Some(segs) = self.files.get(&file) else {
                continue;
            };
            for &(s, seg) in segs.iter() {
                if !seg.dirty {
                    continue;
                }
                let len = seg.end - s;
                out.push(RangeRef {
                    file: FileId(file),
                    start: s,
                    end: seg.end,
                });
                budget = budget.saturating_sub(len);
                if budget == 0 {
                    break;
                }
            }
        }
        out
    }

    /// All dirty ranges of `file`, offset-sorted.
    pub fn dirty_ranges_of(&self, file: FileId) -> Vec<RangeRef> {
        self.files
            .get(&file.0)
            .map(|segs| {
                segs.iter()
                    .filter(|(_, seg)| seg.dirty)
                    .map(|&(s, seg)| RangeRef {
                        file,
                        start: s,
                        end: seg.end,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Evicts least-recently-used segments until `need` additional bytes
    /// fit. Clean segments are dropped silently; dirty segments are
    /// returned — the caller must write them out (they are already removed
    /// from the cache and from the dirty count).
    pub fn ensure_room(&mut self, need: u64) -> Vec<RangeRef> {
        let mut must_flush = Vec::new();
        while self.used + need > self.capacity {
            let Some((stamp, file, start)) = self.lru.oldest() else {
                break; // nothing left to evict
            };
            debug_assert_eq!(
                self.files
                    .get(&file)
                    .and_then(|segs| segs.get(seg_idx(segs, start)))
                    .map(|&(s, seg)| (s, seg.stamp)),
                Some((start, stamp))
            );
            let seg = self.detach(file, start);
            if seg.dirty {
                must_flush.push(RangeRef {
                    file: FileId(file),
                    start,
                    end: seg.end,
                });
            }
        }
        must_flush
    }

    /// Drops every cached range of `file` (e.g. on delete). Dirty data is
    /// discarded; returns how many dirty bytes were lost.
    pub fn drop_file(&mut self, file: FileId) -> u64 {
        let Some(segs) = self.files.remove(&file.0) else {
            return 0;
        };
        let mut lost = 0;
        for (s, seg) in segs {
            self.lru.remove(seg.stamp);
            self.used -= seg.end - s;
            if seg.dirty {
                self.dirty -= seg.end - s;
                lost += seg.end - s;
            }
        }
        lost
    }

    /// Number of cached segments (for tests and diagnostics).
    pub fn segments(&self) -> usize {
        self.files.values().map(|segs| segs.len()).sum()
    }
}
