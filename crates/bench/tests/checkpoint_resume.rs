//! Kill-and-resume correctness for supervised campaigns.
//!
//! A campaign checkpointed to disk, interrupted at any point (simulated by
//! deleting a suffix of its checkpoint files), then resumed, must render
//! byte-identically to an uninterrupted same-seed run. A checkpoint that
//! was torn mid-write (truncated) or corrupted on disk (bit flip) must be
//! detected by its digest and recomputed, not trusted.

use cluster::{config as ioconfig, presets};
use ioeval_core::campaign::Campaign;
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::store::Store;
use simcore::{KIB, MIB};
use std::fs;
use std::path::PathBuf;
use workloads::{BtClass, BtIo, BtSubtype};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ioeval-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn charact_opts() -> CharacterizeOptions {
    let mut o = CharacterizeOptions::quick();
    o.records = vec![64 * KIB, MIB];
    o.iozone_file_size = Some(64 * MIB);
    o.ior_blocks = vec![MIB];
    o.ior_ranks = 2;
    o
}

fn run_campaign_jobs(store: &Store, jobs: usize) -> Campaign {
    let spec = presets::aohyper();
    let configs = ioconfig::aohyper_configs();
    let bt = || {
        BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(3)
            .gflops(20.0)
            .scenario()
    };
    let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
    run_campaign_supervised(
        &spec,
        &configs,
        &apps,
        &charact_opts(),
        &SuperviseOptions::default().with_jobs(jobs),
        store,
    )
}

fn run_campaign_with(store: &Store) -> Campaign {
    run_campaign_jobs(store, 1)
}

/// A stable digest of a checkpoint directory: file names and contents.
fn dir_digest(dir: &PathBuf) -> Vec<(String, u64)> {
    let mut entries: Vec<(String, u64)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            let digest = simcore::fnv1a64(&fs::read(e.path()).unwrap());
            (name, digest)
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn interrupted_campaign_resumes_byte_identically() {
    let dir = scratch("kill");

    // The reference: one uninterrupted, storeless run.
    let reference = run_campaign_with(&Store::memory()).render();

    // A checkpointed run; every characterization and cell lands on disk.
    let store = Store::open(&dir).unwrap();
    let first = run_campaign_with(&store).render();
    assert_eq!(first, reference, "checkpointing must not change results");
    let files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        files.len() >= 6,
        "3 characterizations' phases + 3 cells expected, got {}",
        files.len()
    );

    // "Kill" the campaign mid-stream: erase part of its progress (one cell
    // and one characterization phase), as if the process died before
    // writing them.
    let mut sorted = files.clone();
    sorted.sort();
    fs::remove_file(&sorted[0]).unwrap();
    fs::remove_file(sorted.last().unwrap()).unwrap();

    // Resume: missing artifacts recompute, present ones replay.
    let store = Store::open(&dir).unwrap();
    let resumed = run_campaign_with(&store).render();
    assert_eq!(resumed, reference, "resume must be byte-identical");
}

#[test]
fn corrupt_checkpoints_are_detected_and_recomputed() {
    let dir = scratch("corrupt");
    let store = Store::open(&dir).unwrap();
    let reference = run_campaign_with(&store).render();

    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();

    // Truncate one checkpoint (torn write) and flip a byte in another
    // (silent corruption).
    let torn = &files[0];
    let full = fs::read(torn).unwrap();
    fs::write(torn, &full[..full.len() / 3]).unwrap();

    let flipped = files.last().unwrap();
    let mut bytes = fs::read(flipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(flipped, &bytes).unwrap();

    // The resumed campaign must notice both (digest/parse mismatch),
    // recompute them, and still render byte-identically.
    let store = Store::open(&dir).unwrap();
    let resumed = run_campaign_with(&store).render();
    assert_eq!(
        resumed, reference,
        "corrupt checkpoints must be recomputed, not trusted"
    );

    // And the recomputed artifacts must have been re-persisted intact.
    let reloaded = fs::read(torn).unwrap();
    assert!(
        reloaded.len() > full.len() / 3,
        "torn checkpoint must be rewritten"
    );
}

#[test]
fn quarantine_state_survives_checkpoint_and_resume() {
    let dir = scratch("quarantine");
    let store = Store::open(&dir).unwrap();
    let reference = run_campaign_with(&store).render();

    // Tear one checkpoint mid-write.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let torn = &files[0];
    let full = fs::read(torn).unwrap();
    fs::write(torn, &full[..full.len() / 2]).unwrap();

    // The resume quarantines the torn file (kept aside for forensics),
    // recomputes the artifact, and renders byte-identically — quarantines
    // are successful healing, so they must never leak into the rendering.
    let store = Store::open(&dir).unwrap();
    let resumed = run_campaign_with(&store).render();
    assert_eq!(resumed, reference, "healing must be invisible in results");
    assert_eq!(store.health().quarantined, 1);
    let quarantined: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".json.quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "torn file kept aside");

    // The quarantine survives a further checkpoint/resume cycle: the next
    // resume replays every (recomputed) checkpoint, quarantines nothing
    // new, and leaves the forensic copy untouched.
    let aside_bytes = fs::read(&quarantined[0]).unwrap();
    let store = Store::open(&dir).unwrap();
    let again = run_campaign_with(&store).render();
    assert_eq!(again, reference);
    assert_eq!(store.health().quarantined, 0, "nothing left to heal");
    assert_eq!(
        fs::read(&quarantined[0]).unwrap(),
        aside_bytes,
        "the quarantined file must survive resume untouched"
    );
}

#[test]
fn parallel_checkpoints_are_digest_identical_to_sequential() {
    // A --jobs 4 campaign must leave *exactly* the same checkpoint
    // directory behind as a --jobs 1 campaign: same file names, same
    // bytes. Store writes are serialized through the input-ordered
    // merger, so worker scheduling cannot leak into what is persisted.
    let seq_dir = scratch("digest-seq");
    let seq_store = Store::open(&seq_dir).unwrap();
    let seq_render = run_campaign_jobs(&seq_store, 1).render();

    let par_dir = scratch("digest-par");
    let par_store = Store::open(&par_dir).unwrap();
    let par_render = run_campaign_jobs(&par_store, 4).render();

    assert_eq!(seq_render, par_render, "rendered campaigns must match");
    assert_eq!(
        dir_digest(&seq_dir),
        dir_digest(&par_dir),
        "checkpoint directories must be digest-identical"
    );
}

#[test]
fn interrupted_parallel_campaign_resumes_byte_identically() {
    // Kill-and-resume across modes: a parallel campaign is interrupted
    // (a suffix of its checkpoints erased), then resumed *sequentially*,
    // and still converges to the reference — the store replays cells
    // written by workers and recomputes the erased ones.
    let dir = scratch("kill-par");
    let reference = run_campaign_with(&Store::memory()).render();

    let store = Store::open(&dir).unwrap();
    let first = run_campaign_jobs(&store, 4).render();
    assert_eq!(first, reference, "parallel run must match the reference");

    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 6, "expected >= 6 checkpoints");
    fs::remove_file(&files[1]).unwrap();
    fs::remove_file(files.last().unwrap()).unwrap();

    let store = Store::open(&dir).unwrap();
    let resumed_seq = run_campaign_with(&store).render();
    assert_eq!(resumed_seq, reference, "sequential resume of parallel run");

    // And the other direction: interrupt again, resume in parallel.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    fs::remove_file(&files[0]).unwrap();
    let store = Store::open(&dir).unwrap();
    let resumed_par = run_campaign_jobs(&store, 4).render();
    assert_eq!(resumed_par, reference, "parallel resume of interrupted run");
}
