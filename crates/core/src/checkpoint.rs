//! The disk tier of the result [`Store`](crate::store::Store):
//! versioned, digest-verified, atomic, self-healing checkpoint files.
//!
//! Every artifact (a characterization phase, an eval report, a cell
//! outcome, a finished experiment's output) is one file under the
//! checkpoint directory, wrapped in an envelope carrying a format version
//! and an FNV-1a digest of the payload. Writes go through a temp file and
//! an atomic rename, so a `kill -9` mid-write leaves either the previous
//! complete checkpoint or none — never a torn file. Loads verify version and
//! digest and treat *any* mismatch (truncated file, flipped byte, future
//! format) as a cache miss: the artifact is recomputed, never trusted.
//!
//! On top of that, the store heals rather than aborts:
//!
//! * a corrupt checkpoint found on load is **quarantined** — renamed to
//!   `*.json.quarantined` (kept for forensics, invisible to the store) —
//!   and recomputed;
//! * a failed write is retried with bounded, deterministically jittered
//!   backoff, then **degrades to an in-memory overlay**: the campaign
//!   still completes and can replay the artifact within the process, it
//!   just cannot resume it after a crash;
//! * every failure is counted in the store's
//!   [`StoreHealth`] so campaigns can surface — and `--strict-store` can
//!   gate on — exactly what went wrong.
//!
//! All write and load paths are instrumented for
//! [`simcore::chaos`] host-fault injection, which is how the recovery
//! behavior above is actually tested (see `tests/chaos.rs`).

use crate::store::StoreHealth;
use serde::{Deserialize, Serialize};
use simcore::chaos::{ChaosAction, ChaosSite, HostFaults};
use simcore::{fnv1a64, SplitMix64};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bump when the on-disk layout of any payload changes; older checkpoints
/// are then recomputed instead of misparsed. Version 2 names files by
/// content key (`{kind}-{digest:016x}.json`) instead of by label.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The on-disk wrapper around every checkpointed payload.
#[derive(Serialize, Deserialize)]
struct Envelope {
    version: u32,
    digest: String,
    payload: String,
}

/// Write attempts per checkpoint save (first try included).
const WRITE_ATTEMPTS: u32 = 3;
/// Base backoff before the first write retry; doubles per retry, plus
/// jitter in `[0, WRITE_BACKOFF)` drawn from a [`SplitMix64`] seeded by
/// `(JITTER_SEED, key, attempt)` — deterministic per write attempt
/// regardless of thread interleaving, so chaos runs replay exactly.
const WRITE_BACKOFF: Duration = Duration::from_micros(500);
const JITTER_SEED: u64 = 0x636b_7074; // "ckpt"

/// A directory of digest-verified checkpoint files.
pub struct CheckpointDir {
    root: PathBuf,
    /// Payloads whose writes exhausted their retries: the store degrades
    /// to memory rather than losing the artifact mid-campaign. Entries
    /// shadow whatever (possibly stale or torn) file is on disk.
    overlay: Mutex<HashMap<String, String>>,
    serialize_errors: AtomicU64,
    write_retries: AtomicU64,
    write_failures: AtomicU64,
    quarantined: AtomicU64,
    degraded: AtomicBool,
    saves: AtomicU64,
    /// The owning store's armed host faults.
    pub(crate) faults: Option<Arc<HostFaults>>,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<CheckpointDir> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CheckpointDir {
            root,
            overlay: Mutex::new(HashMap::new()),
            serialize_errors: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            saves: AtomicU64::new(0),
            faults: None,
        })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the host-side failure counters.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            serialize_errors: self.serialize_errors.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    fn file_for(&self, key: &str) -> PathBuf {
        self.root.join(format!("{}.json", sanitize(key)))
    }

    /// Atomically checkpoints `payload` under `key`: the envelope is
    /// written to a temp file first and renamed into place, so an
    /// interrupted save never corrupts an existing checkpoint. A failed
    /// write is retried with seeded backoff; exhausting the retries
    /// degrades this artifact to the in-memory overlay — the campaign
    /// still completes and replays it in-process, it just cannot resume
    /// it after a crash.
    pub fn save(&self, key: &str, payload: &str) {
        let envelope = Envelope {
            version: CHECKPOINT_VERSION,
            digest: format!("{:016x}", fnv1a64(payload.as_bytes())),
            payload: payload.to_string(),
        };
        let Some(bytes) = self.lossy_serialize(key, serde_json::to_string(&envelope)) else {
            return;
        };
        let target = self.file_for(key);
        // A per-save temp name, so concurrent saves of one key (identical
        // payloads from two workers) never rename each other's file away.
        let n = self.saves.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!(".{}.{n}.tmp", sanitize(key)));
        for attempt in 0..WRITE_ATTEMPTS {
            match self.write_attempt(&tmp, &target, bytes.as_bytes()) {
                Ok(()) => {
                    // A durable copy exists again; drop any degraded one.
                    self.overlay.lock().expect("overlay lock").remove(key);
                    return;
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    if attempt + 1 == WRITE_ATTEMPTS {
                        self.write_failures.fetch_add(1, Ordering::Relaxed);
                        self.degraded.store(true, Ordering::Relaxed);
                        self.overlay
                            .lock()
                            .expect("overlay lock")
                            .insert(key.to_string(), payload.to_string());
                        eprintln!(
                            "[checkpoint] cannot save {} after {WRITE_ATTEMPTS} attempts \
                             (kept in memory; a resumed run recomputes it): {e}",
                            target.display()
                        );
                    } else {
                        self.write_retries.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[checkpoint] save {} failed (attempt {}/{WRITE_ATTEMPTS}), retrying: {e}",
                            target.display(),
                            attempt + 1
                        );
                        std::thread::sleep(self.backoff_delay(key, attempt));
                    }
                }
            }
        }
    }

    /// One physical write attempt, or an injected chaos failure. The
    /// `Torn` action writes a prefix of the bytes *directly to the target
    /// file* — deliberately bypassing the temp+rename protocol — because
    /// that is the damage pattern (in-place torn write, e.g. by a dying
    /// NFS client) the digest-verified loader must survive.
    fn write_attempt(&self, tmp: &Path, target: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(action) = self.decide(ChaosSite::CheckpointWrite) {
            return Err(match action {
                ChaosAction::Torn { sixteenths } => {
                    let cut = bytes.len() * sixteenths as usize / 16;
                    let _ = fs::write(target, &bytes[..cut]);
                    io::Error::other("injected torn checkpoint write")
                }
                ChaosAction::Enospc => io::Error::other("injected ENOSPC: no space left on device"),
                ChaosAction::Fail => io::Error::other("injected checkpoint write failure"),
            });
        }
        fs::write(tmp, bytes).and_then(|()| fs::rename(tmp, target))
    }

    /// One hit of `site` against the armed host faults, if any.
    fn decide(&self, site: ChaosSite) -> Option<ChaosAction> {
        self.faults.as_ref().and_then(|f| f.decide(site))
    }

    /// Exponential backoff (base × 2^attempt) plus deterministic jitter in
    /// `[0, base)` drawn from `(JITTER_SEED, key, attempt)`.
    fn backoff_delay(&self, key: &str, attempt: u32) -> Duration {
        let mut rng = SplitMix64::new(JITTER_SEED ^ fnv1a64(key.as_bytes()) ^ attempt as u64);
        let jitter = Duration::from_nanos(rng.next_below(WRITE_BACKOFF.as_nanos() as u64));
        WRITE_BACKOFF.saturating_mul(1 << attempt.min(16)) + jitter
    }

    /// Loads and verifies the checkpoint under `key`. Missing, truncated,
    /// corrupt (including non-UTF-8), or version-mismatched files all
    /// return `None`; a present but corrupt file is additionally
    /// quarantined (renamed aside) so the damage is kept for forensics and
    /// never re-read. Artifacts that degraded to the in-memory overlay
    /// replay from there.
    pub fn load(&self, key: &str) -> Option<String> {
        if let Some(v) = self.overlay.lock().expect("overlay lock").get(key) {
            return Some(v.clone());
        }
        let path = self.file_for(key);
        let bytes = fs::read(&path).ok()?;
        match std::str::from_utf8(&bytes).ok().and_then(verify_envelope) {
            Some(payload) => Some(payload),
            None => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Moves a corrupt checkpoint aside as `*.json.quarantined` (which
    /// [`CheckpointDir::len`] ignores), falling back to deletion if even
    /// the rename fails. Either way the corrupt bytes can never be
    /// re-served.
    fn quarantine(&self, path: &Path) {
        let aside = path.with_extension("json.quarantined");
        if fs::rename(path, &aside).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "[checkpoint] quarantined corrupt checkpoint {} (recomputing)",
            path.display()
        );
    }

    /// Number of checkpoint files present (tests and progress reporting).
    /// Quarantined files do not count.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether no checkpoints exist yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store failures are uniformly non-fatal: a serialization error
    /// (real, or injected at [`ChaosSite::StoreSerialize`]) is counted,
    /// logged against the key it would have checkpointed, and the campaign
    /// continues (it just cannot resume that artifact), matching the
    /// behavior of exhausted I/O retries in [`CheckpointDir::save`].
    fn lossy_serialize(
        &self,
        key: &str,
        result: Result<String, serde_json::Error>,
    ) -> Option<String> {
        let result = match result {
            Ok(_) if self.decide(ChaosSite::StoreSerialize).is_some() => {
                Err("injected serialization failure".to_string())
            }
            Ok(s) => Ok(s),
            Err(e) => Err(e.to_string()),
        };
        match result {
            Ok(s) => Some(s),
            Err(e) => {
                self.serialize_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[checkpoint] cannot serialize {key} (continuing uncheckpointed): {e}");
                None
            }
        }
    }
}

/// Parses and digest-verifies one envelope; `None` means corrupt, torn,
/// or from a different format version.
fn verify_envelope(text: &str) -> Option<String> {
    let envelope: Envelope = serde_json::from_str(text).ok()?;
    if envelope.version != CHECKPOINT_VERSION {
        return None;
    }
    if envelope.digest != format!("{:016x}", fnv1a64(envelope.payload.as_bytes())) {
        return None;
    }
    Some(envelope.payload)
}

/// Keys become file names; keep them portable.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ioeval-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = CheckpointDir::new(scratch("roundtrip")).unwrap();
        assert!(dir.is_empty());
        dir.save("alpha", "payload one");
        assert_eq!(dir.load("alpha").as_deref(), Some("payload one"));
        assert_eq!(dir.len(), 1);
        // Overwrite is atomic and replaces.
        dir.save("alpha", "payload two");
        assert_eq!(dir.load("alpha").as_deref(), Some("payload two"));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.health(), StoreHealth::default());
    }

    #[test]
    fn truncated_and_corrupt_files_are_quarantined_cache_misses() {
        let dir = CheckpointDir::new(scratch("corrupt")).unwrap();
        dir.save("x", "the payload");
        let path = dir.file_for("x");

        // Truncate: torn write.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(dir.load("x"), None);
        // The torn file was quarantined: moved aside, not re-readable, and
        // no longer counted as a checkpoint.
        assert_eq!(dir.len(), 0);
        assert!(path.with_extension("json.quarantined").exists());
        assert_eq!(dir.health().quarantined, 1);

        // Restore, then flip a payload byte: digest mismatch.
        fs::write(&path, &full).unwrap();
        let tampered = String::from_utf8(full.clone())
            .unwrap()
            .replace("the payload", "thE payload");
        fs::write(&path, tampered).unwrap();
        assert_eq!(dir.load("x"), None);

        // Unknown future version: recompute rather than misparse.
        fs::write(
            &path,
            String::from_utf8(full).unwrap().replacen(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":999",
                1,
            ),
        )
        .unwrap();
        assert_eq!(dir.load("x"), None);
        assert_eq!(dir.health().quarantined, 3);

        // A fresh save heals the key completely.
        dir.save("x", "recomputed");
        assert_eq!(dir.load("x").as_deref(), Some("recomputed"));
    }

    #[test]
    fn missing_key_is_none() {
        let dir = CheckpointDir::new(scratch("missing")).unwrap();
        assert_eq!(dir.load("nope"), None);
        assert_eq!(dir.health().quarantined, 0, "missing is not corrupt");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let dir = CheckpointDir::new(scratch("backoff")).unwrap();
        let a = dir.backoff_delay("k", 0);
        assert_eq!(a, dir.backoff_delay("k", 0), "same key+attempt, same delay");
        assert_ne!(
            a,
            dir.backoff_delay("k2", 0),
            "jitter differs across keys (no thundering herd)"
        );
        let base = WRITE_BACKOFF;
        // base * 2^attempt <= delay < base * (2^attempt + 1)
        for attempt in 0..3u32 {
            let d = dir.backoff_delay("k", attempt);
            let floor = base * (1 << attempt);
            assert!(d >= floor && d < floor + base, "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn keys_are_sanitized_to_portable_file_names() {
        let dir = CheckpointDir::new(scratch("sanitize")).unwrap();
        dir.save("cell-BT-IO full/16p::RAID 5", "v");
        assert_eq!(
            dir.load("cell-BT-IO full/16p::RAID 5").as_deref(),
            Some("v")
        );
        for entry in fs::read_dir(dir.root()).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "unportable file name {name}"
            );
        }
    }
}
