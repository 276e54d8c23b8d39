//! Hot-path microbenchmark harness (no external bench framework).
//!
//! Measures the three quantities the simulation engine's fast paths exist
//! for, and serializes them to `BENCH_hotpath.json` so every PR leaves a
//! perf trajectory behind:
//!
//! * **event-queue throughput** — schedule/pop Mops/s of the slab-indexed
//!   four-ary heap in `simcore`;
//! * **striping ns/op** — cost of mapping one volume request onto member
//!   extents (`Raid0::spans`, the allocation-free [`storage::InlineVec`]
//!   path);
//! * **pinned-cell wall time** — a pinned IOR characterization sweep
//!   (library level, 1 MiB / 16 MiB blocks, 4 ranks, 256 KiB transfers)
//!   per Aohyper configuration, the cell the release profile was taken
//!   on;
//! * **memo cold/warm** — the same characterization campaign run twice
//!   against one [`ioeval_core::CharactMemo`]: the second run replays
//!   every point from the memo;
//! * **scale full/collapsed** — a 1024-rank IOR sweep on the leaf-spine
//!   scale testbed, run with rank-group collapsing off and on; the ratio
//!   is the scale-out fast-path speedup (CI gates it at ≥ 10×).
//!
//! The `hotpath` binary runs the full sizes and writes the JSON; the
//! `hotpath` integration test runs a smoke-sized version to pin the
//! schema. Timings are wall-clock and host-dependent — the committed
//! baseline is compared with generous tolerance (CI allows 25%
//! regression on the pinned cell), never byte-for-byte.

use cluster::{ClusterSpec, IoConfig};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, NoStore, SuperviseOptions};
use ioeval_core::charact::{characterize_system, CharacterizeOptions};
use ioeval_core::memo::CharactMemo;
use ioeval_core::perf_table::IoLevel;
use serde::{Deserialize, Serialize};
use simcore::{EventQueue, Time, KIB, MIB};
use std::sync::Arc;
use std::time::Instant;

/// Work sizes for one harness run.
#[derive(Clone, Copy, Debug)]
pub struct HotpathConfig {
    /// Events scheduled in the queue benchmark.
    pub events: u64,
    /// Striping requests mapped.
    pub striping_iters: u64,
    /// Repetitions per characterization cell (best-of is reported, which
    /// filters scheduler noise).
    pub cell_reps: u32,
    /// Ranks of the scale-out IOR sweep (the 1024-rank cell).
    pub scale_ranks: usize,
    /// Per-rank block of the scale-out sweep's largest point.
    pub scale_block: u64,
}

impl HotpathConfig {
    /// The published sizes (used by the `hotpath` binary and baseline).
    pub fn full() -> HotpathConfig {
        HotpathConfig {
            events: 4_000_000,
            striping_iters: 2_000_000,
            cell_reps: 5,
            scale_ranks: 1024,
            scale_block: 64 * MIB,
        }
    }

    /// Tiny sizes for schema/smoke tests (sub-second in debug builds).
    /// The scale cell keeps its full 1024 ranks — the rank-group collapse
    /// is exactly what makes that affordable — and shrinks only the
    /// per-rank block.
    pub fn smoke() -> HotpathConfig {
        HotpathConfig {
            events: 20_000,
            striping_iters: 10_000,
            cell_reps: 1,
            scale_ranks: 1024,
            scale_block: 4 * MIB,
        }
    }
}

/// Wall time of one pinned characterization cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellTime {
    /// Configuration name.
    pub config: String,
    /// Best-of-reps wall time, milliseconds.
    pub ms: f64,
}

/// One harness run, as serialized to `BENCH_hotpath.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HotpathReport {
    /// Schema version of this JSON shape.
    pub schema: u32,
    /// Event-queue schedule+pop throughput, million ops per second.
    pub event_queue_mops: f64,
    /// Striping cost per request (`Raid0::spans`), nanoseconds.
    pub striping_ns_per_op: f64,
    /// Pinned IOR sweep wall time per Aohyper configuration.
    pub cells: Vec<CellTime>,
    /// Sum of the per-configuration cell times — the single number the CI
    /// smoke job compares against the committed baseline.
    pub pinned_cell_ms: f64,
    /// Wall time of the characterization campaign with an empty memo.
    pub memo_cold_ms: f64,
    /// Wall time of the same campaign replayed from the filled memo.
    pub memo_warm_ms: f64,
    /// `memo_cold_ms / memo_warm_ms`.
    pub memo_speedup: f64,
    /// Wall time of the 1024-rank IOR sweep with rank-group collapsing
    /// disabled (full per-rank execution).
    pub scale_full_ms: f64,
    /// Wall time of the same sweep with collapsing enabled.
    pub scale_collapsed_ms: f64,
    /// `scale_full_ms / scale_collapsed_ms` — the speedup the rank-group
    /// fast path buys at scale (CI gates this at ≥ 10×).
    pub scale_speedup: f64,
}

impl HotpathReport {
    /// Pretty JSON rendering (what the binary writes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// The pinned IOR sweep: library level only, 1 MiB and 16 MiB blocks,
/// 4 ranks, 256 KiB transfers, against the paper's Aohyper cluster.
pub fn pinned_sweep_options() -> CharacterizeOptions {
    CharacterizeOptions {
        records: vec![],
        iozone_file_size: None,
        modes: vec![],
        ior_blocks: vec![MIB, 16 * MIB],
        ior_ranks: 4,
        ior_transfer: 256 * KIB,
        levels: vec![IoLevel::Library],
        watchdog: None,
    }
}

fn aohyper() -> (ClusterSpec, Vec<IoConfig>) {
    (
        cluster::presets::aohyper(),
        cluster::config::aohyper_configs(),
    )
}

/// Schedule `events` timestamped events (popping every fourth), then
/// drain; returns million ops per second over the combined
/// schedule+pop count.
pub fn event_queue_mops(events: u64) -> f64 {
    let mut q = EventQueue::new();
    let t0 = Instant::now();
    for i in 0..events {
        q.schedule_after(Time::from_nanos((i * 7919) % 100_000), i);
        if i % 4 == 3 {
            std::hint::black_box(q.pop());
        }
    }
    while q.pop().is_some() {}
    (2 * events) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Map `iters` striped requests (mixed offsets/lengths across an 8-disk
/// RAID 0) to member extents; returns nanoseconds per request.
pub fn striping_ns_per_op(iters: u64) -> f64 {
    use storage::{BlockReq, Disk, DiskParams, Raid0};
    let disks = (0..8)
        .map(|i| Disk::new(DiskParams::sata_7200(230, 75), i + 1))
        .collect();
    let raid = Raid0::new(disks, 64 * KIB);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        let offset = (i.wrapping_mul(37) * KIB) % (512 * MIB);
        let len = 192 * KIB + (i % 7) * KIB;
        let spans = raid.spans(&BlockReq::write(offset, len));
        acc = acc
            .wrapping_add(spans.len() as u64)
            .wrapping_add(spans[0].2);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Best-of-`reps` wall time of the pinned sweep on every Aohyper
/// configuration.
pub fn pinned_cell_times(reps: u32) -> Vec<CellTime> {
    let (spec, configs) = aohyper();
    let opts = pinned_sweep_options();
    configs
        .iter()
        .map(|config| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let set = characterize_system(&spec, config, &opts).expect("characterize");
                assert!(set.get(IoLevel::Library).is_some());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            CellTime {
                config: config.name.clone(),
                ms: best,
            }
        })
        .collect()
}

/// Runs the pinned characterization campaign twice against one shared
/// memo; returns `(cold_ms, warm_ms)`. The first run computes every
/// point, the second replays all of them from the memo — the ratio is
/// the repeated-point campaign speedup the memo buys.
pub fn memo_campaign_ms() -> (f64, f64) {
    let (spec, configs) = aohyper();
    let opts = pinned_sweep_options();
    let memo = Arc::new(CharactMemo::new());
    let sup = SuperviseOptions {
        memo: Some(memo.clone()),
        ..SuperviseOptions::default()
    };
    let apps: &[AppFactory] = &[];
    let run = || {
        let t0 = Instant::now();
        let campaign = run_campaign_supervised(&spec, &configs, apps, &opts, &sup, &mut NoStore);
        assert_eq!(campaign.tables.len(), configs.len());
        t0.elapsed().as_secs_f64() * 1e3
    };
    let cold = run();
    let warm = run();
    let (hits, misses) = memo.stats();
    assert_eq!(
        (hits, misses),
        (configs.len() as u64, configs.len() as u64),
        "second campaign should replay every point"
    );
    (cold, warm)
}

/// Wall time of the scale-out IOR sweep: `ranks` ranks on the 1024-host
/// leaf-spine testbed, writing then reading at two block sizes, with the
/// rank-group collapse toggled by `collapse`. The harness toggle is the
/// only difference between the two timings — collapse provably changes
/// speed, never results (see `mpisim::collapse`). Asserts that every run
/// took the path the toggle asks for.
pub fn scale_sweep_ms(ranks: usize, block: u64, collapse: bool) -> f64 {
    use workloads::ior::{Ior, IorOp};
    let spec = cluster::scale::scale_1024();
    let placement = spec.placement(ranks);
    let t0 = Instant::now();
    for b in [block / 4, block] {
        for op in [IorOp::Write, IorOp::Read] {
            // The scenario's mounts/prealloc are ClusterMachine concerns;
            // the scale machine models the PFS itself, so the rank
            // programs run on it directly.
            let programs = Ior::new(ranks, fs::FileId(0x5CA1E), b, op)
                .scenario()
                .programs;
            let mut machine = spec.machine();
            let stats = mpisim::Runtime::default().with_collapse(collapse).run(
                &mut machine,
                &placement,
                programs,
                &mut simcore::obs::NoSink,
            );
            assert_eq!(
                stats.collapsed, collapse,
                "the scale sweep must take the rank-group fast path exactly when enabled"
            );
            assert_eq!(stats.per_rank.len(), ranks);
            assert!(stats.wall_time > Time::ZERO);
        }
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// One full harness run at the given sizes.
pub fn run(cfg: &HotpathConfig) -> HotpathReport {
    let event_queue_mops = event_queue_mops(cfg.events);
    let striping_ns_per_op = striping_ns_per_op(cfg.striping_iters);
    let cells = pinned_cell_times(cfg.cell_reps);
    let pinned_cell_ms = cells.iter().map(|c| c.ms).sum();
    let (memo_cold_ms, memo_warm_ms) = memo_campaign_ms();
    let scale_full_ms = scale_sweep_ms(cfg.scale_ranks, cfg.scale_block, false);
    let scale_collapsed_ms = scale_sweep_ms(cfg.scale_ranks, cfg.scale_block, true);
    HotpathReport {
        schema: 1,
        event_queue_mops,
        striping_ns_per_op,
        cells,
        pinned_cell_ms,
        memo_cold_ms,
        memo_warm_ms,
        memo_speedup: memo_cold_ms / memo_warm_ms.max(1e-6),
        scale_full_ms,
        scale_collapsed_ms,
        scale_speedup: scale_full_ms / scale_collapsed_ms.max(1e-6),
    }
}
