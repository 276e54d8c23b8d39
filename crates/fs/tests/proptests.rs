//! Property tests of the range-cache invariants the filesystem models
//! depend on, and of its equivalence with the reference implementation.

use fs::{FileId, RangeCache};
use proptest::prelude::*;

/// The stamp-indexed range cache that [`RangeCache`] replaced, kept
/// unchanged (minus its unit tests) as the reference every public result
/// is checked against.
#[allow(dead_code)]
#[path = "reference/range_cache.rs"]
mod reference;

/// Lets the reference resolve `crate::file::FileId` as it did in `fs`.
mod file {
    pub use fs::FileId;
}

/// An operation against the cache.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        file: u64,
        start: u64,
        len: u64,
        dirty: bool,
    },
    Lookup {
        file: u64,
        start: u64,
        len: u64,
    },
    MarkClean {
        file: u64,
        start: u64,
        len: u64,
    },
    EnsureRoom {
        need: u64,
    },
    DropFile {
        file: u64,
    },
    DirtyRanges {
        budget: u64,
    },
    DirtyRangesOf {
        file: u64,
    },
    /// `count` inserts of `len` bytes, `gap` bytes apart: a strided
    /// writer when `gap > 0`, a stream when `gap == 0`. With `alternate`
    /// the dirty state flips every insert, so even a stream leaves one
    /// segment per insert.
    Run {
        file: u64,
        start: u64,
        len: u64,
        gap: u64,
        count: u64,
        dirty: bool,
        alternate: bool,
    },
}

impl Op {
    /// The inserts of a run as `(start, end, dirty)`.
    fn pieces(
        start: u64,
        len: u64,
        gap: u64,
        count: u64,
        dirty: bool,
        alternate: bool,
    ) -> impl Iterator<Item = (u64, u64, bool)> {
        (0..count).map(move |k| {
            let s = start + k * (len + gap);
            (s, s + len, dirty ^ (alternate && k % 2 == 1))
        })
    }
}

/// One op: mostly single calls, with about one long run per hundred ops.
fn op_strategy() -> impl Strategy<Value = Op> {
    let call = prop_oneof![
        (0u64..3, 0u64..10_000, 1u64..2_000, any::<bool>()).prop_map(
            |(file, start, len, dirty)| Op::Insert {
                file,
                start,
                len,
                dirty
            }
        ),
        (0u64..3, 0u64..10_000, 1u64..2_000).prop_map(|(file, start, len)| Op::Lookup {
            file,
            start,
            len
        }),
        (0u64..3, 0u64..10_000, 1u64..2_000).prop_map(|(file, start, len)| Op::MarkClean {
            file,
            start,
            len
        }),
        (0u64..5_000).prop_map(|need| Op::EnsureRoom { need }),
        (0u64..3).prop_map(|file| Op::DropFile { file }),
        prop_oneof![0u64..20_000, Just(u64::MAX)].prop_map(|budget| Op::DirtyRanges { budget }),
        (0u64..3).prop_map(|file| Op::DirtyRangesOf { file }),
    ];
    // Runs start where the single calls land, so later calls hit them far
    // from their tail as well as at it.
    let run = (
        (0u64..3, 0u64..10_000, 1u64..24),
        (
            prop_oneof![Just(0u64), 1u64..24],
            10_000u64..10_500,
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((file, start, len), (gap, count, dirty, alternate))| Op::Run {
                file,
                start,
                len,
                gap,
                count,
                dirty,
                alternate,
            },
        );
    (0u32..100, call, run).prop_map(|(pick, call, run)| if pick == 0 { run } else { call })
}

/// A reference range as the `(file, start, end)` the tests compare.
fn span(r: &reference::RangeRef) -> (u64, u64, u64) {
    (r.file.0, r.start, r.end)
}

/// A range as the `(file, start, end)` the tests compare.
fn span_of(r: &fs::range_cache::RangeRef) -> (u64, u64, u64) {
    (r.file.0, r.start, r.end)
}

/// Runs `op` against both caches and fails on the first differing result.
fn check_equivalent(
    cache: &mut RangeCache,
    model: &mut reference::RangeCache,
    op: &Op,
) -> Result<(), TestCaseError> {
    let capacity = cache.capacity();
    let insert = |cache: &mut RangeCache,
                  model: &mut reference::RangeCache,
                  (file, start, end, dirty): (u64, u64, u64, bool)|
     -> Result<(), TestCaseError> {
        let need = (end - start).min(capacity);
        let flush: Vec<_> = cache.ensure_room(need).iter().map(span_of).collect();
        let want: Vec<_> = model.ensure_room(need).iter().map(span).collect();
        prop_assert_eq!(flush, want, "ensure_room before insert");
        prop_assert_eq!(
            cache.insert(FileId(file), start, end, dirty),
            model.insert(FileId(file), start, end, dirty),
            "insert lost bytes"
        );
        Ok(())
    };
    match *op {
        Op::Insert {
            file,
            start,
            len,
            dirty,
        } => insert(cache, model, (file, start, start + len, dirty))?,
        Op::Lookup { file, start, len } => {
            let (hit, misses) = cache.lookup(FileId(file), start, start + len);
            let (want_hits, want_misses) = model.lookup(FileId(file), start, start + len);
            prop_assert_eq!(hit, want_hits.iter().map(|r| r.len()).sum::<u64>());
            let misses: Vec<_> = misses.iter().map(span_of).collect();
            let want_misses: Vec<_> = want_misses.iter().map(span).collect();
            prop_assert_eq!(misses, want_misses, "lookup misses");
        }
        Op::MarkClean { file, start, len } => {
            cache.mark_clean(FileId(file), start, start + len);
            model.mark_clean(FileId(file), start, start + len);
        }
        Op::EnsureRoom { need } => {
            let flush: Vec<_> = cache.ensure_room(need).iter().map(span_of).collect();
            let want: Vec<_> = model.ensure_room(need).iter().map(span).collect();
            prop_assert_eq!(flush, want, "ensure_room");
        }
        Op::DropFile { file } => {
            prop_assert_eq!(cache.drop_file(FileId(file)), model.drop_file(FileId(file)));
        }
        Op::DirtyRanges { budget } => {
            let got: Vec<_> = cache.dirty_ranges(budget).iter().map(span_of).collect();
            let want: Vec<_> = model.dirty_ranges(budget).iter().map(span).collect();
            prop_assert_eq!(got, want, "dirty_ranges");
        }
        Op::DirtyRangesOf { file } => {
            let got: Vec<_> = cache
                .dirty_ranges_of(FileId(file))
                .iter()
                .map(span_of)
                .collect();
            let want: Vec<_> = model
                .dirty_ranges_of(FileId(file))
                .iter()
                .map(span)
                .collect();
            prop_assert_eq!(got, want, "dirty_ranges_of");
        }
        Op::Run {
            file,
            start,
            len,
            gap,
            count,
            dirty,
            alternate,
        } => {
            for (s, e, d) in Op::pieces(start, len, gap, count, dirty, alternate) {
                insert(cache, model, (file, s, e, d))?;
            }
        }
    }
    prop_assert_eq!(cache.used(), model.used(), "used");
    prop_assert_eq!(cache.dirty(), model.dirty(), "dirty");
    prop_assert_eq!(cache.segments(), model.segments(), "segments");
    Ok(())
}

proptest! {
    /// Under arbitrary op sequences: `used ≤ capacity` after every
    /// `ensure_room`, `dirty ≤ used` always, a lookup's hit bytes and its
    /// sorted, disjoint misses partition its range, and dirty ranges are
    /// disjoint and within the dirty count.
    #[test]
    fn cache_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let capacity = 8_000u64;
        let mut cache = RangeCache::new(capacity);
        let insert = |cache: &mut RangeCache,
                      (file, start, end, dirty): (u64, u64, u64, bool)|
         -> Result<(), TestCaseError> {
            let flush = cache.ensure_room((end - start).min(capacity));
            for r in &flush {
                prop_assert!(!r.is_empty());
            }
            cache.insert(FileId(file), start, end, dirty);
            Ok(())
        };
        for op in ops {
            match op {
                Op::Insert { file, start, len, dirty } => {
                    insert(&mut cache, (file, start, start + len, dirty))?;
                }
                Op::Run { file, start, len, gap, count, dirty, alternate } => {
                    for (s, e, d) in Op::pieces(start, len, gap, count, dirty, alternate) {
                        insert(&mut cache, (file, s, e, d))?;
                    }
                }
                Op::Lookup { file, start, len } => {
                    let (hit, misses) = cache.lookup(FileId(file), start, start + len);
                    let mut pos = start;
                    let mut missed = 0u64;
                    for m in misses.iter() {
                        prop_assert!(m.start >= pos, "misses overlap or are unsorted");
                        prop_assert!(m.end > m.start);
                        missed += m.len();
                        pos = m.end;
                    }
                    prop_assert!(pos <= start + len);
                    prop_assert_eq!(hit + missed, len, "hits and misses must partition the range");
                }
                Op::MarkClean { file, start, len } => {
                    cache.mark_clean(FileId(file), start, start + len);
                }
                Op::EnsureRoom { need } => {
                    cache.ensure_room(need.min(capacity));
                    prop_assert!(
                        cache.used() + need.min(capacity) <= capacity
                            || cache.used() == 0,
                        "ensure_room left used={} need={}",
                        cache.used(),
                        need
                    );
                }
                Op::DropFile { file } => {
                    cache.drop_file(FileId(file));
                }
                Op::DirtyRanges { budget } => {
                    let ranges = cache.dirty_ranges(budget);
                    let bytes: u64 = ranges.iter().map(|r| r.len()).sum();
                    prop_assert!(bytes <= cache.dirty());
                }
                Op::DirtyRangesOf { file } => {
                    let ranges = cache.dirty_ranges_of(FileId(file));
                    for pair in ranges.windows(2) {
                        prop_assert!(pair[0].end <= pair[1].start, "unsorted or overlapping");
                    }
                }
            }
            prop_assert!(cache.dirty() <= cache.used(), "dirty exceeds used");
        }
    }

    /// After inserting a range, looking it up is a full hit; after
    /// drop_file it is a full miss.
    #[test]
    fn insert_then_lookup_hits(start in 0u64..100_000, len in 1u64..10_000) {
        let mut cache = RangeCache::new(u64::MAX);
        cache.insert(FileId(1), start, start + len, false);
        let (hit, misses) = cache.lookup(FileId(1), start, start + len);
        prop_assert!(misses.is_empty());
        prop_assert_eq!(hit, len);

        cache.drop_file(FileId(1));
        let (hit, misses) = cache.lookup(FileId(1), start, start + len);
        prop_assert_eq!(hit, 0);
        prop_assert_eq!(misses.iter().map(|r| r.len()).sum::<u64>(), len);
    }

    /// Dirty accounting: inserting dirty then cleaning the same range
    /// always returns the cache to zero dirty bytes.
    #[test]
    fn dirty_roundtrip(ranges in proptest::collection::vec((0u64..50_000, 1u64..5_000), 1..40)) {
        let mut cache = RangeCache::new(u64::MAX);
        for &(s, l) in &ranges {
            cache.insert(FileId(1), s, s + l, true);
        }
        for r in cache.dirty_ranges(u64::MAX) {
            cache.mark_clean(r.file, r.start, r.end);
        }
        prop_assert_eq!(cache.dirty(), 0);
        prop_assert!(cache.used() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cache returns what the reference returns on every call, for
    /// the same op sequence: lost bytes, hits and misses, evictions, dirty
    /// ranges (budgeted and per file), dropped bytes, and the `used`,
    /// `dirty` and `segments` counts after each op. A final full eviction
    /// compares the remaining recency order.
    #[test]
    fn matches_reference_implementation(
        capacity in 4_000u64..600_000,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut cache = RangeCache::new(capacity);
        let mut model = reference::RangeCache::new(capacity);
        for op in &ops {
            check_equivalent(&mut cache, &mut model, op)?;
        }
        check_equivalent(&mut cache, &mut model, &Op::EnsureRoom { need: capacity })?;
        prop_assert_eq!(cache.used(), 0);
    }
}
