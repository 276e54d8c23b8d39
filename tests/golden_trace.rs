//! Golden-trace regression suite for the observability layer.
//!
//! Pins the exact JSONL event stream one small, fixed IOR cell emits
//! (2 ranks writing 1 MiB blocks in 256 KiB transfers over NFS on the
//! test cluster's JBOD configuration). The simulation is deterministic
//! and trace times are integer nanoseconds, so the export is
//! byte-stable; any unintended change to instrumentation points, event
//! shapes, or the models underneath shows up as a readable line diff.
//!
//! To regenerate after an *intended* change:
//!
//! ```text
//! IOEVAL_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the diff under `tests/golden/` like any other code change.

use cluster::{presets, ClusterMachine, DeviceLayout, IoConfigBuilder};
use fs::FileId;
use ioeval_core::obs::{to_jsonl, Collector, TraceMeta, TRACE_SCHEMA};
use mpisim::Runtime;
use simcore::obs::NoSink;
use simcore::MIB;
use std::path::PathBuf;
use workloads::{Ior, IorOp};

/// Runs the pinned cell under a collector and returns its JSONL export.
fn traced_cell_jsonl() -> String {
    let spec = presets::test_cluster();
    let config = IoConfigBuilder::new(DeviceLayout::Jbod)
        .write_cache_mib(0)
        .build();
    let scenario = Ior::new(2, FileId(7), MIB, IorOp::Write).scenario();
    let ranks = scenario.ranks();

    let collector = Collector::new();
    {
        let _guard = collector.install();
        let mut machine = ClusterMachine::try_new(&spec, &config).expect("machine builds");
        let programs = scenario.install(&mut machine);
        let placement = spec.placement(ranks);
        Runtime::default().run(&mut machine, &placement, programs, &mut NoSink);
    }
    let data = collector.take();
    assert_eq!(data.dropped, 0, "pinned cell must fit the event cap");
    let meta = TraceMeta {
        cluster: spec.name.clone(),
        config: config.name.clone(),
        app: "ior-2r-1MiB-write".to_string(),
        scenario: "healthy".to_string(),
    };
    to_jsonl(&data, &meta)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_ior.jsonl")
}

#[test]
fn golden_ior_trace() {
    let actual = traced_cell_jsonl();
    let path = golden_path();
    if std::env::var_os("IOEVAL_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with IOEVAL_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "the traced IOR cell drifted from {}.\n\
         If the change is intended, regenerate with IOEVAL_REGEN_GOLDEN=1 \
         and review the diff.\nexpected {} lines, got {}",
        path.display(),
        expected.lines().count(),
        actual.lines().count()
    );
}

#[test]
fn golden_trace_covers_the_io_path() {
    // The pinned stream must stay non-trivial: a schema-versioned header
    // followed by events from every layer the cell exercises (MPI-IO ops,
    // fabric sends, storage runs).
    let text = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("missing golden trace: {e}"));
    let header = text.lines().next().expect("non-empty golden");
    assert!(header.contains("\"kind\":\"header\""), "{header}");
    assert!(
        header.contains(&format!("\"schema\":{TRACE_SCHEMA}")),
        "{header}"
    );
    for kind in [
        "\"kind\":\"mpi_op\"",
        "\"kind\":\"net_send\"",
        "\"kind\":\"storage_run\"",
    ] {
        assert!(text.contains(kind), "golden trace lacks {kind}");
    }
    assert!(text.lines().count() > 10, "suspiciously small golden trace");
}

#[test]
fn traced_and_untraced_runs_are_identical() {
    // Observation must be pure: running the same cell twice under a
    // collector yields byte-identical traces (determinism), and the
    // collector itself never perturbs the simulation.
    assert_eq!(traced_cell_jsonl(), traced_cell_jsonl());
}
