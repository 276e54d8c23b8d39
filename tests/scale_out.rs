//! Scale-out regression suite: 1024-rank campaigns and the rank-group
//! collapsed IOR sweep.
//!
//! Two guarantees are pinned here. First, a 1024-rank characterization
//! campaign renders byte-identically under `jobs = 1` and `jobs = 4` —
//! parallelism trades wall-clock for cores, never output. Second, the
//! collapsed execution of a 1024-rank IOR sweep on the leaf-spine scale
//! testbed produces *exactly* the table a full per-rank execution does,
//! and that table is pinned as a golden snapshot
//! (`tests/golden/scale_ior.txt`; regenerate an intended model change
//! with `IOEVAL_REGEN_GOLDEN=1 cargo test --test scale_out`).

use cluster::scale::scale_1024;
use cluster::{presets, DeviceLayout, IoConfigBuilder};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::perf_table::IoLevel;
use ioeval_core::store::Store;
use simcore::{Bandwidth, KIB, MIB};
use std::fmt::Write as _;
use std::path::PathBuf;
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

/// Runs the 1024-rank IOR sweep on the scale testbed and renders one line
/// per point, with the collapse toggle under test; asserts every point
/// took the path the toggle asks for.
fn scale_ior_table(collapse: bool) -> String {
    let spec = scale_1024();
    let placement = spec.placement(1024);
    let mut out = String::from(
        "# cluster=scale-1024 sweep=IOR ranks=1024 transfer=256K\n\
         # OperationType | Blocksize | transferRate\n",
    );
    for block in [MIB, 4 * MIB] {
        for op in [IorOp::Write, IorOp::Read] {
            let programs = Ior::new(1024, fs::FileId(0x5CA1E), block, op)
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
                "the 1024-rank sweep must engage the rank-group fast path exactly when enabled"
            );
            let _ = writeln!(
                out,
                "{op:?} | {} | {}",
                simcore::fmt_bytes(block),
                Bandwidth::measured(stats.total_bytes(), stats.wall_time),
            );
        }
    }
    out
}

#[test]
fn golden_collapsed_scale_ior_table() {
    let full = scale_ior_table(false);
    let collapsed = scale_ior_table(true);
    // Equivalence first: the collapsed table IS the full table.
    assert_eq!(full, collapsed, "collapsed execution drifted from granular");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scale_ior.txt");
    if std::env::var_os("IOEVAL_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &collapsed).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with IOEVAL_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == collapsed,
        "collapsed scale IOR table drifted from {}.\n\
         If the model change is intended, regenerate with IOEVAL_REGEN_GOLDEN=1 \
         and review the diff.\n--- expected ---\n{expected}\n--- actual ---\n{collapsed}",
        path.display()
    );
}
