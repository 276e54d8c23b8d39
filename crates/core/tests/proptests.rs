//! Property tests of the Fig. 11 search rule, usage arithmetic, and the
//! parallel campaign's deterministic merge.

use ioeval_core::campaign::{run_campaign, AppFactory, CellAttempt, CellMerger, CellOutcome};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::perf_table::{AccessMode, AccessType, OpType, PerfRow, PerfTable};
use ioeval_core::store::{Key, Kind, Store};
use proptest::prelude::*;
use simcore::{Bandwidth, Time};
use std::sync::OnceLock;

fn table_from(blocks: &[u64]) -> PerfTable {
    let mut t = PerfTable::new();
    for &b in blocks {
        t.insert(PerfRow {
            op: OpType::Write,
            block: b,
            access: AccessType::Global,
            mode: AccessMode::Sequential,
            rate: Bandwidth::from_bytes_per_sec(b + 1), // distinct per block
            iops: 1.0,
            latency: Time::from_micros(1),
        });
    }
    t
}

proptest! {
    /// The Fig. 11 selection rule, verified against an oracle: below min →
    /// min; above max → max; otherwise the smallest characterized block
    /// that is ≥ the searched block.
    #[test]
    fn search_matches_fig11_oracle(
        mut blocks in proptest::collection::btree_set(1u64..1_000_000, 1..20),
        probe in 0u64..2_000_000,
    ) {
        let blocks: Vec<u64> = std::mem::take(&mut blocks).into_iter().collect();
        let t = table_from(&blocks);
        let found = t
            .search(OpType::Write, probe, AccessType::Global, AccessMode::Sequential)
            .expect("non-empty table always resolves");
        let min = *blocks.first().unwrap();
        let max = *blocks.last().unwrap();
        let expected = if probe <= min {
            min
        } else if probe >= max {
            max
        } else {
            *blocks.iter().find(|&&b| b >= probe).unwrap()
        };
        prop_assert_eq!(found.block, expected);
    }

    /// Insertion order never affects search results.
    #[test]
    fn insertion_order_is_irrelevant(
        blocks in proptest::collection::btree_set(1u64..100_000, 2..15),
        probe in 0u64..200_000,
        seed in any::<u64>(),
    ) {
        let sorted: Vec<u64> = blocks.iter().copied().collect();
        let mut shuffled = sorted.clone();
        let mut rng = simcore::SplitMix64::new(seed);
        rng.shuffle(&mut shuffled);
        let a = table_from(&sorted);
        let b = table_from(&shuffled);
        let ra = a.search(OpType::Write, probe, AccessType::Global, AccessMode::Sequential);
        let rb = b.search(OpType::Write, probe, AccessType::Global, AccessMode::Sequential);
        prop_assert_eq!(ra.map(|r| r.block), rb.map(|r| r.block));
    }

    /// Reinserting a key replaces instead of duplicating: table size equals
    /// the number of distinct keys.
    #[test]
    fn insert_is_idempotent_per_key(blocks in proptest::collection::vec(1u64..1000, 1..50)) {
        let t = table_from(&blocks);
        let distinct: std::collections::BTreeSet<u64> = blocks.iter().copied().collect();
        prop_assert_eq!(t.len(), distinct.len());
    }
}

// ---------------------------------------------------------------------------
// Deterministic-merge properties of the parallel campaign scheduler.
// ---------------------------------------------------------------------------

const APPS: [&str; 3] = ["app-a", "app-b", "app-c"];
const CONFIGS: [&str; 2] = ["cfg-x", "cfg-y"];

/// One genuine `Ok` outcome (with a real report and prediction), computed
/// once and relabeled per cell — the merger only inspects the variant and
/// the cell identity, but feeding it realistic payloads keeps the property
/// honest about persistence.
fn ok_template() -> &'static CellOutcome {
    static CELL: OnceLock<CellOutcome> = OnceLock::new();
    CELL.get_or_init(|| {
        use cluster::{presets, DeviceLayout, IoConfigBuilder};
        use workloads::{BtClass, BtIo, BtSubtype};
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let bt = || {
            BtIo::new(BtClass::S, 4, BtSubtype::Full)
                .with_dumps(2)
                .gflops(20.0)
                .scenario()
        };
        let apps: Vec<AppFactory> = vec![("template", &bt)];
        let c = run_campaign(&spec, &configs, &apps, &CharacterizeOptions::quick());
        c.outcomes.into_iter().next().expect("one cell ran")
    })
}

/// Builds the attempt a worker would offer for cell `idx`, from a small
/// generated code: 0 = ok, 1 = failed, 2 = timed out, 3 = not run.
fn attempt_for(idx: usize, code: u8) -> CellAttempt {
    let app = APPS[idx / CONFIGS.len()].to_string();
    let config = CONFIGS[idx % CONFIGS.len()].to_string();
    match code % 4 {
        0 => {
            let mut cell = match ok_template() {
                CellOutcome::Ok(c) => (**c).clone(),
                other => panic!("template must be Ok, got {other:?}"),
            };
            cell.app.clone_from(&app);
            cell.config.clone_from(&config);
            CellAttempt::Ran {
                outcome: CellOutcome::Ok(Box::new(cell)),
                from_store: false,
            }
        }
        1 => CellAttempt::Ran {
            outcome: CellOutcome::Failed {
                app,
                config,
                error: format!("injected failure in cell {idx}"),
                attempts: 1,
            },
            from_store: false,
        },
        2 => CellAttempt::Ran {
            outcome: CellOutcome::TimedOut {
                app,
                config,
                abort: simcore::Abort::Stalled {
                    events: 7,
                    at: Time::from_secs(1),
                },
                attempts: 1,
            },
            from_store: false,
        },
        _ => CellAttempt::NotRun {
            reason: "campaign wall-clock budget exhausted".to_string(),
        },
    }
}

/// A checkpoint-backed store in a fresh temp directory (removed by the
/// caller), so merged cells persist exactly as a campaign's do.
fn temp_store() -> (Store, std::path::PathBuf) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ioeval-merge-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).expect("open temp store"), dir)
}

fn cell_key(idx: usize) -> Key {
    Key::of(Kind::Cell, &idx)
}

/// Offers every cell in `order`, merging after each offer, and returns the
/// merged outcomes plus everything the store persisted.
fn merge_in_order(
    codes: &[u8],
    order: &[usize],
    quarantine_after: u32,
) -> (Vec<String>, Vec<String>) {
    let quarantined = vec![None; CONFIGS.len()];
    let mut merger = CellMerger::new(&APPS, &CONFIGS, quarantined, quarantine_after);
    let (store, dir) = temp_store();
    for &idx in order {
        merger.offer(idx, attempt_for(idx, codes[idx]));
        merger.merge_ready(|i, o| store.put(cell_key(i), o));
    }
    let outcomes: Vec<String> = merger
        .finish()
        .iter()
        .map(|o| serde_json::to_string(o).expect("outcome serializes"))
        .collect();
    let persisted = (0..outcomes.len())
        .filter_map(|idx| store.get::<CellOutcome>(cell_key(idx)))
        .map(|o| serde_json::to_string(&o).expect("outcome serializes"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (outcomes, persisted)
}

proptest! {
    /// Whatever completion order workers offer their attempts in, the
    /// merged campaign — final outcomes *and* persisted checkpoints — is
    /// identical to the sequential (input-order) merge. This is the merge
    /// half of the jobs-invariance contract; quarantine decisions
    /// (including which later cells get skipped) are part of the compared
    /// output, so they must trigger identically under any schedule.
    #[test]
    fn merge_is_invariant_under_offer_order(
        codes in proptest::collection::vec(0u8..4, APPS.len() * CONFIGS.len()),
        seed in any::<u64>(),
        quarantine_after in 1u32..4,
    ) {
        let n = APPS.len() * CONFIGS.len();
        let sequential: Vec<usize> = (0..n).collect();
        let mut shuffled = sequential.clone();
        simcore::SplitMix64::new(seed).shuffle(&mut shuffled);

        let (seq_out, seq_saved) = merge_in_order(&codes, &sequential, quarantine_after);
        let (shf_out, shf_saved) = merge_in_order(&codes, &shuffled, quarantine_after);
        prop_assert_eq!(seq_out, shf_out, "outcomes diverged for order {:?}", shuffled);
        prop_assert_eq!(seq_saved, shf_saved, "persisted cells diverged");
    }

    /// Failure accounting is per configuration and strictly input-ordered:
    /// once a configuration accumulates `quarantine_after` consecutive
    /// failures, every later cell on it merges as `Skipped` — even when
    /// its worker already produced a result — and skipped cells are never
    /// persisted.
    #[test]
    fn quarantine_is_column_monotone(
        codes in proptest::collection::vec(0u8..4, APPS.len() * CONFIGS.len()),
        seed in any::<u64>(),
    ) {
        let n = APPS.len() * CONFIGS.len();
        let mut order: Vec<usize> = (0..n).collect();
        simcore::SplitMix64::new(seed).shuffle(&mut order);

        let quarantined = vec![None; CONFIGS.len()];
        let mut merger = CellMerger::new(&APPS, &CONFIGS, quarantined, 1);
        let (store, dir) = temp_store();
        for &idx in &order {
            merger.offer(idx, attempt_for(idx, codes[idx]));
            merger.merge_ready(|i, o| store.put(cell_key(i), o));
        }
        let outcomes = merger.finish();

        let mut poisoned = [false; CONFIGS.len()];
        for (idx, outcome) in outcomes.iter().enumerate() {
            let ci = idx % CONFIGS.len();
            if poisoned[ci] {
                prop_assert!(
                    matches!(outcome, CellOutcome::Skipped { reason, .. }
                        if reason.contains("quarantined")),
                    "cell {idx} after quarantine must be Skipped, got {outcome:?}"
                );
                prop_assert!(
                    store.get::<CellOutcome>(cell_key(idx)).is_none(),
                    "skipped cell {idx} must not be persisted"
                );
            }
            if matches!(outcome, CellOutcome::Failed { .. } | CellOutcome::TimedOut { .. }) {
                poisoned[ci] = true; // quarantine_after = 1
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
