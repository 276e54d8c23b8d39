//! Wall-clock speedup of the parallel campaign scheduler.
//!
//! Ignored by default (it is a timing measurement, not a correctness
//! gate); run explicitly in release mode:
//!
//! ```text
//! cargo test --release -p bench --test parallel_speedup -- --ignored --nocapture
//! ```
//!
//! Measured figures are recorded in `EXPERIMENTS.md`.

use cluster::{config as ioconfig, presets};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::store::Store;
use simcore::{KIB, MIB};
use std::time::Instant;
use workloads::{BtClass, BtIo, BtSubtype, FileType, MadBench};

/// BT-IO dumps and MADbench2 kilopixels per cell: enough simulated work
/// that one jobs=1 leg takes over 0.3 s in release, so host noise of a few
/// milliseconds cannot decide the speedup gate.
const DUMPS: usize = 32;
const KPIX: u64 = 8;

fn charact_opts() -> CharacterizeOptions {
    let mut o = CharacterizeOptions::quick();
    o.records = vec![64 * KIB, MIB];
    o.iozone_file_size = Some(128 * MIB);
    o.ior_blocks = vec![MIB];
    o.ior_ranks = 2;
    o
}

/// A 12-cell campaign (4 applications × aohyper's 3 configurations) at a
/// given worker count; returns (render, wall-clock seconds).
fn timed_campaign(jobs: usize) -> (String, f64) {
    let spec = presets::aohyper();
    let configs = ioconfig::aohyper_configs();
    let bt_full = || {
        BtIo::new(BtClass::A, 4, BtSubtype::Full)
            .with_dumps(DUMPS)
            .gflops(20.0)
            .scenario()
    };
    let bt_simple = || {
        BtIo::new(BtClass::A, 4, BtSubtype::Simple)
            .with_dumps(DUMPS)
            .gflops(20.0)
            .scenario()
    };
    let mb_unique = || {
        MadBench::new(4, FileType::Unique)
            .with_kpix(KPIX)
            .scenario()
    };
    let mb_shared = || {
        MadBench::new(4, FileType::Shared)
            .with_kpix(KPIX)
            .scenario()
    };
    let apps: Vec<AppFactory> = vec![
        ("btio-full", &bt_full),
        ("btio-simple", &bt_simple),
        ("madbench-unique", &mb_unique),
        ("madbench-shared", &mb_shared),
    ];
    let sup = SuperviseOptions::default().with_jobs(jobs);
    let t0 = Instant::now();
    let campaign = run_campaign_supervised(
        &spec,
        &configs,
        &apps,
        &charact_opts(),
        &sup,
        &Store::memory(),
    );
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(campaign.outcomes.len(), 12, "4 apps x 3 configs");
    assert!(!campaign.is_degraded());
    (campaign.render(), elapsed)
}

/// The fastest of three legs at each worker count, the legs alternating
/// between the two so a burst of host contention slows both sides alike;
/// returns (jobs=1 render, jobs=1 seconds, jobs=4 render, jobs=4 seconds).
fn fastest_legs() -> (String, f64, String, f64) {
    let (mut seq, mut par) = ((String::new(), f64::MAX), (String::new(), f64::MAX));
    for _ in 0..3 {
        for (jobs, best) in [(1, &mut seq), (4, &mut par)] {
            let (render, secs) = timed_campaign(jobs);
            println!("jobs={jobs}: {secs:.3}s");
            if secs < best.1 {
                *best = (render, secs);
            }
        }
    }
    (seq.0, seq.1, par.0, par.1)
}

#[test]
#[ignore = "timing measurement; run in release mode with --ignored"]
fn four_workers_beat_one_on_a_twelve_cell_campaign() {
    // Warm-up run so page cache / lazy init don't skew the sequential leg.
    let _ = timed_campaign(1);
    let (seq_render, seq_secs, par_render, par_secs) = fastest_legs();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "cores={cores}  fastest jobs=1: {seq_secs:.2}s  jobs=4: {par_secs:.2}s  speedup: {:.2}x",
        seq_secs / par_secs
    );
    assert_eq!(seq_render, par_render, "speedup must not change results");
    if cores >= 2 {
        // A conservative gate: on a multi-core host four workers must beat
        // one by a measurable margin.
        assert!(
            par_secs < seq_secs * 0.9,
            "jobs=4 ({par_secs:.2}s) not measurably faster than jobs=1 ({seq_secs:.2}s)"
        );
    } else {
        // A single core cannot speed up, but the worker pool must not
        // slow the campaign down much either (lock + thread overhead).
        assert!(
            par_secs < seq_secs * 1.5,
            "jobs=4 ({par_secs:.2}s) overhead too high vs jobs=1 ({seq_secs:.2}s) on one core"
        );
    }
}
