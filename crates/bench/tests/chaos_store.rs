//! Fault-by-fault recovery behavior of the self-healing checkpoint store
//! and the tolerant artifact writer, driven by `simcore::chaos` injection.
//! Each test arms its plan on its own store.

use bench::{Repro, Scale};
use ioeval_core::checkpoint::CheckpointDir;
use ioeval_core::store::Store;
use simcore::chaos::{ChaosAction, ChaosSite, HostFaultPlan, Injection};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ioeval-chaos-store-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A store over `root` with `plan` armed.
fn armed(root: &Path, plan: HostFaultPlan) -> Store {
    Store::open(root).unwrap().with_host_faults(plan)
}

/// A plan failing every write attempt of the first save (three attempts).
fn kill_first_save(action: ChaosAction) -> HostFaultPlan {
    HostFaultPlan::from_injections(
        (0..3)
            .map(|nth| Injection {
                site: ChaosSite::CheckpointWrite,
                nth,
                action,
            })
            .collect(),
    )
}

#[test]
fn single_write_failure_heals_by_retrying() {
    let store = armed(
        &scratch("retry"),
        HostFaultPlan::single(ChaosSite::CheckpointWrite, 0, ChaosAction::Fail),
    );
    let dir = store.dir().unwrap();
    dir.save("k", "payload");
    let health = dir.health();
    assert_eq!(health.write_retries, 1, "first attempt failed, second won");
    assert_eq!(health.write_failures, 0);
    assert!(!health.degraded);
    assert_eq!(dir.load("k").as_deref(), Some("payload"));
    assert_eq!(dir.len(), 1, "the durable file exists");
}

#[test]
fn exhausted_enospc_retries_degrade_to_memory_and_replay() {
    let root = scratch("enospc");
    let store = armed(&root, kill_first_save(ChaosAction::Enospc));
    let dir = store.dir().unwrap();
    dir.save("k", "precious");
    let health = dir.health();
    assert_eq!(health.write_retries, 2);
    assert_eq!(health.write_failures, 1);
    assert!(health.degraded, "store degraded to in-memory");
    // The artifact still replays in-process from the overlay...
    assert_eq!(dir.load("k").as_deref(), Some("precious"));
    // ...but is not durable: a fresh store over the same root misses.
    assert_eq!(dir.len(), 0);
    let fresh = CheckpointDir::new(&root).unwrap();
    assert_eq!(fresh.load("k"), None);
    // A later successful save drops the degraded copy and heals the key.
    dir.save("k", "precious");
    assert_eq!(dir.len(), 1);
    assert_eq!(
        CheckpointDir::new(&root).unwrap().load("k").as_deref(),
        Some("precious")
    );
}

#[test]
fn torn_write_leaves_damage_a_fresh_store_quarantines() {
    let root = scratch("torn");
    // Every attempt tears mid-write: damage lands *in place* on the target
    // file (a torn write bypasses temp+rename by design).
    let store = armed(&root, kill_first_save(ChaosAction::Torn { sixteenths: 8 }));
    let dir = store.dir().unwrap();
    dir.save("k", "half of me will be missing");
    assert!(dir.health().degraded);
    // The wounded store itself replays from the overlay.
    assert_eq!(dir.load("k").as_deref(), Some("half of me will be missing"));
    // A fresh store (post-crash resume) finds the torn file, refuses to
    // trust it, quarantines it aside, and reports a miss.
    let fresh = CheckpointDir::new(&root).unwrap();
    assert_eq!(fresh.load("k"), None);
    assert_eq!(fresh.health().quarantined, 1);
    assert!(
        fs::read_dir(&root)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e
                .file_name()
                .to_string_lossy()
                .ends_with(".json.quarantined")),
        "torn file kept aside for forensics"
    );
    // Recomputing heals: the key saves and loads cleanly again.
    fresh.save("k", "recomputed");
    assert_eq!(fresh.load("k").as_deref(), Some("recomputed"));
}

#[test]
fn serialization_faults_are_counted_not_fatal() {
    let store = armed(
        &scratch("ser"),
        HostFaultPlan::single(ChaosSite::StoreSerialize, 0, ChaosAction::Fail),
    );
    let dir = store.dir().unwrap();
    dir.save("k", "never serialized");
    dir.save("k2", "fine");
    let health = dir.health();
    assert_eq!(health.serialize_errors, 1);
    assert_eq!(health.write_failures, 0, "the write layer never ran for k");
    assert_eq!(dir.load("k"), None, "k was skipped, not torn");
    assert_eq!(dir.load("k2").as_deref(), Some("fine"));
}

#[test]
fn artifact_write_faults_never_poison_the_caller() {
    let root = scratch("artifact");
    fs::create_dir_all(&root).unwrap();
    let path = root.join("trace.json");
    let repro = Repro::new(Scale::Quick).with_host_faults(HostFaultPlan::single(
        ChaosSite::TraceWrite,
        0,
        ChaosAction::Fail,
    ));
    assert!(
        !repro.write_artifact("trace", &path, "{}"),
        "the injected failure is reported, not thrown"
    );
    assert!(!path.exists());
    // The next export (injection spent) succeeds.
    assert!(repro.write_artifact("trace", &path, "{}"));
    assert_eq!(fs::read_to_string(&path).unwrap(), "{}");
}
