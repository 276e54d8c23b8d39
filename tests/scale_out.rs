//! Scale-out regression: a 1024-rank characterization campaign renders
//! byte-identically under `jobs = 1` and `jobs = 4`. Parallelism trades
//! wall-clock for cores, never output.

use cluster::{presets, DeviceLayout, IoConfigBuilder};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::perf_table::IoLevel;
use ioeval_core::store::Store;
use simcore::KIB;
use workloads::ior::{Ior, IorOp};

/// A library-level-only sweep at 1024 ranks: one 256 KiB block per rank,
/// the paper's transfer size, no filesystem-level sweeps (those scale
/// with file size, not rank count).
fn ranks_1024_options() -> CharacterizeOptions {
    CharacterizeOptions {
        records: vec![],
        iozone_file_size: None,
        modes: vec![],
        ior_blocks: vec![256 * KIB],
        ior_ranks: 1024,
        ior_transfer: 256 * KIB,
        levels: vec![IoLevel::Library],
        watchdog: None,
    }
}

#[test]
fn campaign_at_1024_ranks_renders_byte_identical_across_jobs() {
    let spec = presets::test_cluster();
    let configs = vec![
        IoConfigBuilder::new(DeviceLayout::Jbod).build(),
        IoConfigBuilder::new(DeviceLayout::Raid1).build(),
    ];
    let ior_app = || Ior::new(1024, fs::FileId(0x10A), 256 * KIB, IorOp::Write).scenario();
    let apps: Vec<AppFactory> = vec![("ior-1024", &ior_app)];
    let opts = ranks_1024_options();
    let run = |jobs: usize| {
        let sup = SuperviseOptions::default().with_jobs(jobs);
        let c = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &Store::memory());
        let tables: Vec<String> = c.tables.iter().map(|t| t.to_json()).collect();
        (c.render(), tables)
    };
    let (sequential, seq_tables) = run(1);
    assert!(sequential.contains("ior-1024"));
    assert_eq!(seq_tables.len(), 2, "both configurations characterized");
    let (parallel, par_tables) = run(4);
    assert_eq!(sequential, parallel, "jobs=4 render differs at 1024 ranks");
    assert_eq!(seq_tables, par_tables, "jobs=4 tables differ at 1024 ranks");
}
