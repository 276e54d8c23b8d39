//! A byte-accurate LRU cache of file ranges with clean/dirty state.
//!
//! The Linux page cache tracks 4 KiB pages; tracking *byte ranges* instead
//! keeps the model exact for sub-page operations while using memory
//! proportional to the number of distinct extents, not the number of pages.
//! Sequential streams coalesce into single segments; strided small writes
//! stay separate — both exactly what the costing needs.
//!
//! Every call but the whole-file ones (`drop_file`, the dirty-range scans)
//! costs O(1) amortized for streaming and strided access, because such
//! callers touch the last few segments of a file:
//! * each file's segments live in one offset-sorted vector. A call finds
//!   its overlap window once, galloping back from the tail, then edits the
//!   window in place: an `insert` replaces it with at most three segments
//!   (left remnant, the new range merged with equal-state neighbours, right
//!   remnant), and an append that merges with its predecessor only extends
//!   that segment's end;
//! * recency is an intrusive doubly-linked list over a slab of nodes, one
//!   per segment: a touch moves the node to the most-recently-used tail,
//!   eviction pops the head, and nothing is searched or compacted;
//! * each file counts its dirty segments, so a dirty-range scan of a file
//!   holding none returns at once, and one of a file whose dirty data is
//!   recent walks back from the tail only as far as that data.
//!
//! Recency follows one rule: a segment that is created (a new range, a
//! merge, the right remnant of a split, a cleaned range) or looked up
//! becomes the most recently used, in the order of those events; a left
//! remnant keeps its place. Eviction order and [`RangeCache::dirty_ranges`]
//! order follow from it.
//!
//! Invariants (property-tested):
//! * segments of a file never overlap;
//! * adjacent segments with equal dirty state are merged;
//! * `used()` equals the summed length of all segments and never exceeds
//!   capacity after [`RangeCache::ensure_room`];
//! * every segment owns exactly one node of the recency list.

use crate::file::FileId;
use simcore::FxHashMap;
use storage::InlineVec;

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// A cached byte range of some file.
#[derive(Clone, Copy, Debug)]
struct Seg {
    start: u64,
    end: u64,
    /// This segment's node in the recency list.
    node: u32,
    dirty: bool,
}

/// One file's cached segments, sorted by start offset, and how many of
/// them are dirty.
#[derive(Clone, Debug, Default)]
struct FileSegs {
    segs: Vec<Seg>,
    dirty_segs: usize,
}

impl FileSegs {
    /// Index of the first segment starting at or after `start`. Streams
    /// and strided writers land at or near the tail, so the search gallops
    /// back from there: O(1) for them, O(log n) anywhere else.
    fn seg_idx(&self, start: u64) -> usize {
        let segs = &self.segs;
        // Every segment from `hi` on starts at or after `start`.
        let mut hi = segs.len();
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if segs[probe].start < start {
                return probe + 1 + segs[probe + 1..hi].partition_point(|s| s.start < start);
            }
            hi = probe;
            step *= 2;
        }
        0
    }

    /// The index range of the segments overlapping `[start, end)`.
    fn window(&self, start: u64, end: u64) -> (usize, usize) {
        let segs = &self.segs;
        let p = self.seg_idx(start);
        // The predecessor segment may extend into [start, end).
        let i = if p > 0 && segs[p - 1].end > start {
            p - 1
        } else {
            p
        };
        let mut j = p;
        while j < segs.len() && segs[j].start < end {
            j += 1;
        }
        (i, j)
    }

    /// Replaces `segs[lo..hi]` with `with`.
    fn replace(&mut self, lo: usize, hi: usize, with: &[Seg]) {
        let was_dirty = self.segs[lo..hi].iter().filter(|s| s.dirty).count();
        self.dirty_segs = self.dirty_segs + with.iter().filter(|s| s.dirty).count() - was_dirty;
        // The common edits, a merge into one segment and a new segment,
        // skip the splice machinery.
        match (hi - lo, with) {
            (1, &[seg]) => self.segs[lo] = seg,
            (0, &[seg]) => self.segs.insert(lo, seg),
            _ => {
                self.segs.splice(lo..hi, with.iter().copied());
            }
        }
    }

    /// The dirty segments, offset-sorted. They are found walking back from
    /// the tail, and the walk stops at the last one.
    fn dirty(&self) -> impl Iterator<Item = &Seg> + '_ {
        let mut left = self.dirty_segs;
        let first = if left == 0 {
            self.segs.len()
        } else {
            self.segs
                .iter()
                .rposition(|s| {
                    left -= usize::from(s.dirty);
                    left == 0
                })
                .expect("dirty segment count out of step")
        };
        self.segs[first..].iter().filter(|s| s.dirty)
    }
}

/// One segment's place in the recency list, and where to find it.
#[derive(Clone, Copy, Debug)]
struct Node {
    file: u64,
    start: u64,
    prev: u32,
    next: u32,
}

/// Recency order over all segments: a doubly-linked list threaded through
/// a slab, least recently used at the head. Freed nodes form a free list
/// (linked through `next`) that later pushes reuse.
#[derive(Clone, Debug)]
struct Recency {
    nodes: Vec<Node>,
    free: u32,
    head: u32,
    tail: u32,
}

impl Default for Recency {
    fn default() -> Self {
        Recency {
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
        }
    }
}

impl Recency {
    /// A new most-recently-used node for the segment at `(file, start)`.
    fn push(&mut self, file: u64, start: u64) -> u32 {
        let node = Node {
            file,
            start,
            prev: NIL,
            next: NIL,
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("recency list overflow");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.link_tail(idx);
        idx
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn link_tail(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.prev = self.tail;
        node.next = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.nodes[self.tail as usize].next = idx;
        }
        self.tail = idx;
    }

    /// Makes `idx` the most recently used.
    fn touch(&mut self, idx: u32) {
        if idx != self.tail {
            self.unlink(idx);
            self.link_tail(idx);
        }
    }

    /// Frees `idx`.
    fn remove(&mut self, idx: u32) {
        self.unlink(idx);
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
    }

    /// The least-recently-used segment as `(file, start)`, if any.
    fn oldest(&self) -> Option<(u64, u64)> {
        (self.head != NIL).then(|| {
            let node = &self.nodes[self.head as usize];
            (node.file, node.start)
        })
    }

    /// The owning file of every segment, oldest first.
    fn files(&self) -> impl Iterator<Item = u64> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(idx as usize)?;
            idx = node.next;
            Some(node.file)
        })
    }
}

/// A (file, start, end) triple returned by lookup/flush/evict operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The uncached parts of a looked-up range. A lookup inside a stream or a
/// strided pattern misses in at most a couple of places, so these stay
/// inline.
pub type Misses = InlineVec<RangeRef, 4>;

/// LRU cache of byte ranges; see the module docs.
#[derive(Clone, Debug)]
pub struct RangeCache {
    capacity: u64,
    used: u64,
    dirty: u64,
    files: FxHashMap<u64, FileSegs>,
    lru: Recency,
}

impl RangeCache {
    /// A cache holding at most `capacity` bytes. Allocates nothing until
    /// the first insert.
    pub fn new(capacity: u64) -> RangeCache {
        RangeCache {
            capacity,
            used: 0,
            dirty: 0,
            files: FxHashMap::default(),
            lru: Recency::default(),
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

    /// Inserts `[start, end)` of `file` with the given dirty state,
    /// replacing any overlapped content. Returns the number of dirty bytes
    /// that were overwritten (nonzero only when rewriting dirty data).
    pub fn insert(&mut self, file: FileId, start: u64, end: u64, dirty: bool) -> u64 {
        assert!(end > start, "empty insert");
        let list = self.files.entry(file.0).or_default();
        let (i, j) = list.window(start, end);
        let segs = &list.segs;
        // A left remnant keeps its node; a right remnant gets a fresh one.
        let left = (i < j && segs[i].start < start).then(|| Seg {
            end: start,
            ..segs[i]
        });
        let right = (i < j && segs[j - 1].end > end).then(|| segs[j - 1]);
        let mut lost = 0;
        for (k, seg) in segs[i..j].iter().enumerate() {
            let cut = seg.end.min(end) - seg.start.max(start);
            self.used -= cut;
            if seg.dirty {
                self.dirty -= cut;
                lost += cut;
            }
            if k > 0 || left.is_none() {
                self.lru.remove(seg.node);
            }
        }
        self.used += end - start;
        if dirty {
            self.dirty += end - start;
        }

        // Merge with equal-state neighbours: the left remnant or the
        // untouched predecessor, the right remnant or the untouched
        // successor. `out` is what replaces `segs[lo..hi]`.
        let (mut lo, mut hi) = (i, j);
        let mut new = Seg {
            start,
            end,
            node: NIL,
            dirty,
        };
        let mut out = [new; 3];
        let mut n = 0;
        match left {
            Some(l) if l.dirty == dirty => {
                new.start = l.start;
                new.node = l.node;
            }
            Some(l) => {
                out[0] = l;
                n = 1;
            }
            None if i > 0 && segs[i - 1].end == start && segs[i - 1].dirty == dirty => {
                lo = i - 1;
                new.start = segs[lo].start;
                new.node = segs[lo].node;
            }
            None => {}
        }
        let mut rest = None;
        match right {
            Some(r) if r.dirty == dirty => new.end = r.end,
            Some(r) => {
                rest = Some(Seg {
                    start: end,
                    end: r.end,
                    node: self.lru.push(file.0, end),
                    dirty: r.dirty,
                });
            }
            None if j < segs.len() && segs[j].start == end && segs[j].dirty == dirty => {
                new.end = segs[j].end;
                self.lru.remove(segs[j].node);
                hi = j + 1;
            }
            None => {}
        }
        if new.node == NIL {
            new.node = self.lru.push(file.0, new.start);
        } else {
            self.lru.touch(new.node);
        }
        out[n] = new;
        n += 1;
        if let Some(r) = rest {
            out[n] = r;
            n += 1;
        }
        list.replace(lo, hi, &out[..n]);
        lost
    }

    /// Splits `[start, end)` of `file` into cached and missing bytes.
    /// Cached segments are touched (made most-recently-used). Returns the
    /// number of cached bytes and the missing subranges, offset-sorted.
    pub fn lookup(&mut self, file: FileId, start: u64, end: u64) -> (u64, Misses) {
        assert!(end > start, "empty lookup");
        let mut hit = 0;
        let mut misses = Misses::new();
        let mut pos = start;
        if let Some(list) = self.files.get(&file.0) {
            let (i, j) = list.window(start, end);
            for seg in &list.segs[i..j] {
                let from = seg.start.max(start);
                let to = seg.end.min(end);
                if from > pos {
                    misses.push(RangeRef {
                        file,
                        start: pos,
                        end: from,
                    });
                }
                hit += to - from;
                pos = to;
                self.lru.touch(seg.node);
            }
        }
        if pos < end {
            misses.push(RangeRef {
                file,
                start: pos,
                end,
            });
        }
        (hit, misses)
    }

    /// The cached run at `pos` of `file`: `(end, next)`, where `[pos, end)`
    /// is cached without a gap (`end == pos` when `pos` is not cached) and
    /// `next` is the start of the first cached byte after `end`
    /// (`u64::MAX` if none). A run spanning more than `RUN_SEGMENTS`
    /// segments is cut there, `next` then equal to `end`: a lower bound on
    /// the run, and no room after it.
    pub(crate) fn run_from(&self, file: FileId, pos: u64) -> (u64, u64) {
        /// Segments a run walks at most.
        const RUN_SEGMENTS: usize = 64;
        let Some(list) = self.files.get(&file.0) else {
            return (pos, u64::MAX);
        };
        let segs = &list.segs;
        let p = list.seg_idx(pos);
        let mut k = if p > 0 && segs[p - 1].end > pos {
            p - 1
        } else {
            p
        };
        let mut end = pos;
        let last = segs.len().min(k + RUN_SEGMENTS);
        while k < last && segs[k].start <= end {
            end = segs[k].end;
            k += 1;
        }
        (end, segs.get(k).map_or(u64::MAX, |s| s.start))
    }

    /// Marks `[start, end)` clean where cached (after a successful
    /// writeback). A cleaned range becomes most-recently-used, then merges
    /// with clean neighbours.
    pub fn mark_clean(&mut self, file: FileId, start: u64, end: u64) {
        let Some(list) = self.files.get_mut(&file.0) else {
            return;
        };
        if end <= start || list.dirty_segs == 0 {
            return;
        }
        let (mut k, _) = list.window(start, end);
        while k < list.segs.len() && list.segs[k].start < end {
            let segs = &list.segs;
            let seg = segs[k];
            if !seg.dirty {
                k += 1;
                continue;
            }
            let from = seg.start.max(start);
            let to = seg.end.min(end);
            self.dirty -= to - from;
            let (mut lo, mut hi) = (k, k + 1);
            // The cleaned middle; a left remnant keeps the original node.
            let mut mid = Seg {
                start: from,
                end: to,
                node: seg.node,
                dirty: false,
            };
            let mut out = [mid; 3];
            let mut n = 0;
            if seg.start < from {
                out[0] = Seg { end: from, ..seg };
                n = 1;
                mid.node = self.lru.push(file.0, from);
            } else {
                self.lru.touch(seg.node);
            }
            let right = (seg.end > to).then(|| Seg {
                start: to,
                end: seg.end,
                node: self.lru.push(file.0, to),
                dirty: true,
            });
            // Only a clean neighbour merges, so never a dirty remnant.
            if seg.start == from && k > 0 && segs[k - 1].end == from && !segs[k - 1].dirty {
                lo = k - 1;
                self.lru.remove(mid.node);
                mid.start = segs[lo].start;
                mid.node = segs[lo].node;
                self.lru.touch(mid.node);
            }
            if right.is_none()
                && k + 1 < segs.len()
                && segs[k + 1].start == to
                && !segs[k + 1].dirty
            {
                hi = k + 2;
                mid.end = segs[k + 1].end;
                self.lru.remove(segs[k + 1].node);
                self.lru.touch(mid.node);
            }
            out[n] = mid;
            n += 1;
            if let Some(r) = right {
                out[n] = r;
                n += 1;
            }
            list.replace(lo, hi, &out[..n]);
            k = lo + n;
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
        for file in self.lru.files() {
            if budget == 0 {
                break;
            }
            if files_seen.contains(&file) {
                continue;
            }
            files_seen.push(file);
            let list = self
                .files
                .get(&file)
                .expect("a recency node's file has segments");
            for seg in list.dirty() {
                out.push(RangeRef {
                    file: FileId(file),
                    start: seg.start,
                    end: seg.end,
                });
                budget = budget.saturating_sub(seg.end - seg.start);
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
            .map(|list| {
                list.dirty()
                    .map(|seg| RangeRef {
                        file,
                        start: seg.start,
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
            let Some((file, start)) = self.lru.oldest() else {
                break; // nothing left to evict
            };
            let list = self.files.get_mut(&file).expect("evicting an unknown file");
            let k = list.seg_idx(start);
            let seg = list.segs[k];
            debug_assert_eq!(
                seg.start, start,
                "recency node out of step with its segment"
            );
            list.replace(k, k + 1, &[]);
            self.lru.remove(seg.node);
            self.used -= seg.end - seg.start;
            if seg.dirty {
                self.dirty -= seg.end - seg.start;
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
        let Some(list) = self.files.remove(&file.0) else {
            return 0;
        };
        let mut lost = 0;
        for seg in list.segs {
            self.lru.remove(seg.node);
            self.used -= seg.end - seg.start;
            if seg.dirty {
                self.dirty -= seg.end - seg.start;
                lost += seg.end - seg.start;
            }
        }
        lost
    }

    /// Number of cached segments (for tests and diagnostics).
    pub fn segments(&self) -> usize {
        self.files.values().map(|list| list.segs.len()).sum()
    }

    /// Every segment as `(file, start, end, dirty)`, least recently used
    /// first: the whole observable state, free of slab indices.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Vec<(u64, u64, u64, bool)> {
        let mut out = Vec::new();
        let mut idx = self.lru.head;
        while idx != NIL {
            let node = &self.lru.nodes[idx as usize];
            let list = &self.files[&node.file];
            let seg = list.segs[list.seg_idx(node.start)];
            out.push((node.file, seg.start, seg.end, seg.dirty));
            idx = node.next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(1);
    const G: FileId = FileId(2);

    fn cache() -> RangeCache {
        RangeCache::new(1 << 20)
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut c = cache();
        c.insert(F, 100, 200, false);
        let (hit, misses) = c.lookup(F, 50, 250);
        assert_eq!(hit, 100);
        assert_eq!(misses.len(), 2);
        assert_eq!((misses[0].start, misses[0].end), (50, 100));
        assert_eq!((misses[1].start, misses[1].end), (200, 250));
        assert_eq!(c.used(), 100);
    }

    #[test]
    fn adjacent_same_state_segments_merge() {
        let mut c = cache();
        c.insert(F, 0, 100, false);
        c.insert(F, 100, 200, false);
        assert_eq!(c.segments(), 1);
        let (hit, misses) = c.lookup(F, 0, 200);
        assert_eq!(hit, 200);
        assert!(misses.is_empty());
    }

    #[test]
    fn adjacent_different_state_segments_do_not_merge() {
        let mut c = cache();
        c.insert(F, 0, 100, false);
        c.insert(F, 100, 200, true);
        assert_eq!(c.segments(), 2);
        assert_eq!(c.dirty(), 100);
    }

    #[test]
    fn overwrite_splits_partial_overlaps() {
        let mut c = cache();
        c.insert(F, 0, 300, false);
        c.insert(F, 100, 200, true);
        assert_eq!(c.segments(), 3);
        assert_eq!(c.used(), 300);
        assert_eq!(c.dirty(), 100);
        let (hit, misses) = c.lookup(F, 0, 300);
        assert_eq!(hit, 300);
        assert!(misses.is_empty());
    }

    #[test]
    fn dirty_overwrite_reports_lost_bytes() {
        let mut c = cache();
        c.insert(F, 0, 100, true);
        let lost = c.insert(F, 50, 150, true);
        assert_eq!(lost, 50);
        assert_eq!(c.dirty(), 150);
    }

    #[test]
    fn mark_clean_converts_dirty_ranges() {
        let mut c = cache();
        c.insert(F, 0, 1000, true);
        c.mark_clean(F, 200, 700);
        assert_eq!(c.dirty(), 500);
        assert_eq!(c.used(), 1000);
        // Ranges [0,200) and [700,1000) remain dirty.
        let d = c.dirty_ranges_of(F);
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].start, d[0].end), (0, 200));
        assert_eq!((d[1].start, d[1].end), (700, 1000));
    }

    #[test]
    fn mark_clean_is_idempotent() {
        let mut c = cache();
        c.insert(F, 0, 100, true);
        c.mark_clean(F, 0, 100);
        c.mark_clean(F, 0, 100);
        assert_eq!(c.dirty(), 0);
        assert_eq!(c.used(), 100);
        assert_eq!(c.segments(), 1);
    }

    #[test]
    fn files_are_independent() {
        let mut c = cache();
        c.insert(F, 0, 100, true);
        c.insert(G, 0, 100, false);
        let (hit, _) = c.lookup(G, 0, 100);
        assert_eq!(hit, 100);
        assert_eq!(c.dirty(), 100);
        assert_eq!(c.drop_file(F), 100);
        assert_eq!(c.dirty(), 0);
        assert_eq!(c.used(), 100);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = RangeCache::new(300);
        c.insert(F, 0, 100, false);
        c.insert(F, 1000, 1100, false);
        c.insert(F, 2000, 2100, false);
        // Touch the first range so the second is now oldest.
        c.lookup(F, 0, 100);
        let flush = c.ensure_room(100);
        assert!(flush.is_empty());
        assert_eq!(c.used(), 200);
        let (hit, misses) = c.lookup(F, 1000, 1100);
        assert_eq!(hit, 0, "oldest range must be evicted");
        assert_eq!(misses.len(), 1);
    }

    #[test]
    fn eviction_returns_dirty_ranges_for_flush() {
        let mut c = RangeCache::new(100);
        c.insert(F, 0, 100, true);
        let flush = c.ensure_room(50);
        assert_eq!(flush.len(), 1);
        assert_eq!((flush[0].start, flush[0].end), (0, 100));
        assert_eq!(c.dirty(), 0);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn ensure_room_stops_when_empty() {
        let mut c = RangeCache::new(10);
        let flush = c.ensure_room(100); // bigger than capacity
        assert!(flush.is_empty());
    }

    #[test]
    fn dirty_ranges_respects_budget_and_order() {
        let mut c = cache();
        c.insert(F, 0, 100, true);
        c.insert(F, 500, 600, true);
        c.insert(F, 200, 300, true);
        let all = c.dirty_ranges(u64::MAX);
        let offs: Vec<u64> = all.iter().map(|r| r.start).collect();
        assert_eq!(offs, vec![0, 200, 500], "offset-sorted within file");
        let some = c.dirty_ranges(150);
        assert_eq!(some.len(), 2, "budget cuts the list");
    }

    #[test]
    fn range_ref_len() {
        let r = RangeRef {
            file: F,
            start: 10,
            end: 30,
        };
        assert_eq!(r.len(), 20);
        assert!(!r.is_empty());
    }

    #[test]
    fn strided_small_writes_stay_separate() {
        let mut c = cache();
        for i in 0..100u64 {
            c.insert(F, i * 4096, i * 4096 + 1600, true);
        }
        assert_eq!(c.segments(), 100);
        assert_eq!(c.dirty(), 100 * 1600);
    }

    #[test]
    fn sequential_writes_coalesce_to_one_segment() {
        let mut c = cache();
        for i in 0..100u64 {
            c.insert(F, i * 1600, (i + 1) * 1600, true);
        }
        assert_eq!(c.segments(), 1);
        assert_eq!(c.dirty(), 100 * 1600);
    }

    #[test]
    fn lookup_touch_protects_from_eviction() {
        let mut c = RangeCache::new(200);
        c.insert(F, 0, 100, false);
        c.insert(F, 1000, 1100, false);
        // Touch the first (oldest) range; insertion pressure must now evict
        // the second one instead.
        c.lookup(F, 0, 100);
        c.ensure_room(100);
        c.insert(F, 5000, 5100, false);
        let (hit, _) = c.lookup(F, 0, 100);
        assert_eq!(hit, 100, "recently touched range survived");
    }
}
