//! Scale-out regression suite: 1024-rank campaigns and the rank-group
//! collapsed IOR sweep.
//!
//! Three guarantees are pinned here. First, a 1024-rank characterization
//! campaign renders byte-identically under `jobs = 1` and `jobs = 4` —
//! parallelism trades wall-clock for cores, never output. Second, the
//! collapsed execution of a 1024-rank IOR sweep on the leaf-spine scale
//! testbed produces *exactly* the table a full per-rank execution does,
//! and that table is pinned as a golden snapshot
//! (`tests/golden/scale_ior.txt`; regenerate an intended model change
//! with `IOEVAL_REGEN_GOLDEN=1 cargo test --test scale_out`). Third, the
//! collapsed sweep is at least 10× cheaper, counted in ops pulled from
//! the rank programs rather than timed, so the gate is deterministic.

use cluster::scale::scale_1024;
use cluster::{presets, DeviceLayout, IoConfigBuilder};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::perf_table::IoLevel;
use ioeval_core::store::Store;
use mpisim::{MpiOp, OpStream, StreamSignature};
use simcore::{Bandwidth, KIB, MIB};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
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

/// An [`OpStream`] wrapper that counts the ops the runtime pulls from it
/// into a counter shared by every rank of one sweep. It forwards the
/// signature, so the wrapped programs execute exactly as the bare ones
/// do.
struct Counted {
    inner: Box<dyn OpStream>,
    pulled: Rc<Cell<u64>>,
}

impl OpStream for Counted {
    fn next_op(&mut self) -> Option<MpiOp> {
        let op = self.inner.next_op();
        if op.is_some() {
            self.pulled.set(self.pulled.get() + 1);
        }
        op
    }

    fn signature(&self) -> Option<StreamSignature> {
        self.inner.signature()
    }
}

/// Runs the 1024-rank IOR sweep on the scale testbed, unobserved, and
/// renders one line per point, with the collapse toggle under test;
/// asserts every point took the path the toggle asks for. Also returns
/// how many ops the runtime pulled from the rank programs over the whole
/// sweep: the simulation work the run did.
fn scale_ior_table(collapse: bool) -> (String, u64) {
    let spec = scale_1024();
    let placement = spec.placement(1024);
    let pulled = Rc::new(Cell::new(0));
    let mut out = String::from(
        "# cluster=scale-1024 sweep=IOR ranks=1024 transfer=256K\n\
         # OperationType | Blocksize | transferRate\n",
    );
    for block in [MIB, 4 * MIB] {
        for op in [IorOp::Write, IorOp::Read] {
            let programs = Ior::new(1024, fs::FileId(0x5CA1E), block, op)
                .scenario()
                .programs
                .into_iter()
                .map(|inner| {
                    Box::new(Counted {
                        inner,
                        pulled: Rc::clone(&pulled),
                    }) as Box<dyn OpStream>
                })
                .collect();
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
    (out, pulled.get())
}

#[test]
fn golden_collapsed_scale_ior_table() {
    let (full, full_ops) = scale_ior_table(false);
    let (collapsed, collapsed_ops) = scale_ior_table(true);
    // Equivalence first: the collapsed table IS the full table.
    assert_eq!(full, collapsed, "collapsed execution drifted from granular");
    // Then the work it saved. An unobserved collapsed run steps one
    // representative per cohort and never the members, so it must pull
    // at most a tenth of the ops the granular run pulls.
    assert!(
        collapsed_ops > 0 && collapsed_ops * 10 <= full_ops,
        "collapse pulled {collapsed_ops} ops against {full_ops} granular; \
         the 1024-rank sweep must be at least 10x cheaper collapsed"
    );

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
