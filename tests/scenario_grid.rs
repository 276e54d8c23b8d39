//! End-to-end determinism of the sampled scenario grid.
//!
//! The campaign front-end promises: (1) grammar sampling under a fixed
//! seed is byte-reproducible — the variant list is identical across runs
//! and independent of whether variants are drawn one at a time or in a
//! batch; (2) the rendered grid is byte-identical for any worker count;
//! (3) a killed-and-resumed grid replays its checkpointed cells and
//! renders digest-identical output without re-evaluating anything.

use bench::{Repro, Scale};
use proptest::prelude::*;
use workloads::grammar::{Grammar, EXAMPLE};

proptest! {
    /// Sampling the example grammar twice under the same seed yields the
    /// same variant list byte-for-byte, and per-index resolution agrees
    /// with batch sampling — the property that makes work distribution
    /// across campaign workers (and resumption from any cell) safe.
    #[test]
    fn sampling_is_byte_reproducible(seed in any::<u64>(), n in 1usize..24) {
        let g = Grammar::parse(EXAMPLE).unwrap();
        let a: Vec<String> = g.sample(seed, n).iter().map(|v| v.describe()).collect();
        let b: Vec<String> = g.sample(seed, n).iter().map(|v| v.describe()).collect();
        prop_assert_eq!(&a, &b);
        for (i, d) in a.iter().enumerate() {
            prop_assert_eq!(&g.variant(seed, i).describe(), d);
        }
    }

    /// A variant's digest pins its resolved program: equal digests mean
    /// equal described bodies across arbitrary seeds and indices.
    #[test]
    fn digest_pins_resolved_program(s1 in any::<u64>(), s2 in any::<u64>(), i in 0usize..64, j in 0usize..64) {
        let g = Grammar::parse(EXAMPLE).unwrap();
        let a = g.variant(s1, i);
        let b = g.variant(s2, j);
        let strip = |d: String| d.split_once(' ').unwrap().1.to_string();
        if a.digest == b.digest {
            prop_assert_eq!(strip(a.describe()), strip(b.describe()));
        } else {
            prop_assert_ne!(strip(a.describe()), strip(b.describe()));
        }
    }
}

/// One worker and four workers must render the identical grid: the
/// deterministic merge applies to grammar-generated apps exactly as it
/// does to hand-coded ones.
#[test]
fn one_and_four_workers_render_identical_grids() {
    let mut r1 = Repro::new(Scale::Quick)
        .with_jobs(1)
        .with_scenario_sample(8);
    let a = bench::scenario_grid::scenario(&mut r1);
    let mut r4 = Repro::new(Scale::Quick)
        .with_jobs(4)
        .with_scenario_sample(8);
    let b = bench::scenario_grid::scenario(&mut r4);
    assert!(
        a.contains("8 variants x 4 configurations = 32 cells"),
        "{a}"
    );
    assert_eq!(a, b, "worker count changed the rendered grid");
}

/// A resumed grid replays every checkpointed cell: the second run renders
/// byte-identically *and* performs no characterization work of its own
/// (no phase is simulated on resume — everything loads from the store).
#[test]
fn killed_and_resumed_grid_replays_byte_identically() {
    let dir = std::env::temp_dir().join(format!("ioeval-scenario-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut first = Repro::new(Scale::Quick)
        .with_scenario_sample(6)
        .with_checkpoint(&dir)
        .expect("open checkpoint dir");
    let a = bench::scenario_grid::scenario(&mut first);
    drop(first); // the "kill": this process's in-memory state is gone

    let mut resumed = Repro::new(Scale::Quick)
        .with_scenario_sample(6)
        .with_checkpoint(&dir)
        .expect("reopen checkpoint dir");
    let b = bench::scenario_grid::scenario(&mut resumed);
    assert_eq!(a, b, "resumed grid must render byte-identically");
    assert_eq!(
        resumed.memo_phase_stats().map(|(_, misses)| misses),
        Some(0),
        "no phase simulated on resume"
    );
    assert_eq!(
        resumed.store().kind_stats(ioeval_core::store::Kind::Cell),
        (24, 0),
        "every cell replays from the checkpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-scale grid: 2500 sampled variants × 4 configurations =
/// 10,000 cells, swept under one worker and four, byte-identical.
/// 3.4 s in release on a 2-core host, far longer in debug, so opt-in.
#[test]
#[ignore = "10k-cell acceptance grid; run explicitly with --ignored"]
fn ten_thousand_cell_grid_is_worker_count_invariant() {
    let mut r1 = Repro::new(Scale::Quick)
        .with_jobs(1)
        .with_scenario_sample(2500);
    let a = bench::scenario_grid::scenario(&mut r1);
    assert!(
        a.contains("2500 variants x 4 configurations = 10000 cells"),
        "{}",
        a.lines().next().unwrap_or("")
    );
    assert!(a.contains("outcomes: 10000 ok"), "grid must complete");
    let mut r4 = Repro::new(Scale::Quick)
        .with_jobs(4)
        .with_scenario_sample(2500);
    let b = bench::scenario_grid::scenario(&mut r4);
    assert_eq!(a, b, "worker count changed the 10k-cell render");
}
