//! The result store: one content-addressed cache for every artifact the
//! methodology computes once and reuses.
//!
//! The paper characterizes each I/O configuration once and reuses its
//! performance tables and application traces across every evaluation
//! (phases 1→3). [`Store`] is where those results live. A [`Key`] is a
//! [`Kind`] plus an FNV-1a digest of the `Debug` rendering of every input
//! that shapes the result, so a value computed under one set of inputs can
//! never be replayed under another — a changed sweep, watchdog, scale or
//! fault profile moves the key and the result is recomputed.
//!
//! Two tiers:
//!
//! * **memory** — a map of digest-verified JSON payloads for the kinds
//!   that are reused within a process (measurement phases and eval
//!   reports; an application profile is its healthy report's `profile`).
//!   A payload whose digest no longer matches (real corruption, or an
//!   injected [`ChaosSite::MemoLoad`] fault) is quarantined and reported
//!   as a miss;
//! * **disk** — an optional [`CheckpointDir`] behind the memory map. Every
//!   kind is written there when a directory is attached, so an interrupted
//!   run resumes from what it finished. Cell outcomes and experiment
//!   outputs live on disk only: without a directory they are never built
//!   into payloads at all ([`Store::holds`]).
//!
//! The store is a pure cache: a hit replays exactly the value a
//! recomputation would produce, so output is byte-identical with or
//! without it. Hit/miss counters are kept per kind.
//!
//! A store may carry an armed host-fault plan ([`Store::with_host_faults`]).
//! It is the plan's only owner: the memory tier, the disk tier and every
//! campaign run through the store count their hits against it, and no
//! other store in the process sees it.

use crate::checkpoint::CheckpointDir;
use serde::{Deserialize, Serialize};
use simcore::chaos::{ChaosSite, HostFaultPlan, HostFaults};
use simcore::fnv1a64;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a stored value is; part of every [`Key`] and of every file name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One characterization measurement (`PerfRow`).
    Phase,
    /// One evaluation (`EvalReport`).
    Report,
    /// One campaign cell (`CellOutcome`); disk only.
    Cell,
    /// One finished experiment's rendered output; disk only.
    Exp,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Phase, Kind::Report, Kind::Cell, Kind::Exp];

    /// The file-name prefix.
    fn name(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Report => "report",
            Kind::Cell => "cell",
            Kind::Exp => "exp",
        }
    }

    /// Whether values of this kind are kept in the memory tier. Cells stay
    /// out: a campaign never revisits its own cells, and serializing
    /// thousands of multi-KB reports would cost more than it saves.
    fn in_memory(self) -> bool {
        matches!(self, Kind::Phase | Kind::Report)
    }
}

/// A content key: a kind plus a digest of every input shaping the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    kind: Kind,
    digest: u64,
}

/// FNV-1a digest of the `Debug` rendering of `inputs` (every input type
/// derives exhaustive `Debug`). Pass a tuple to digest several at once.
pub(crate) fn digest(inputs: &impl fmt::Debug) -> u64 {
    fnv1a64(format!("{inputs:?}").as_bytes())
}

impl Key {
    /// The key of a `kind` value computed from `inputs`, digested through
    /// their `Debug` rendering.
    pub fn of(kind: Kind, inputs: &impl fmt::Debug) -> Key {
        Key {
            kind,
            digest: digest(inputs),
        }
    }

    fn file_stem(&self) -> String {
        format!("{}-{:016x}", self.kind.name(), self.digest)
    }
}

/// Typed health counters for a [`Store`]: what went wrong on the host side
/// while persisting or loading artifacts. Store failures are never fatal
/// (the self-healing paths retry, quarantine, or degrade to memory), but
/// they must not be silent either — the counters are surfaced in the
/// campaign summary and drive the `--strict-store` exit code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Artifacts that could not be serialized (never reached disk).
    pub serialize_errors: u64,
    /// Write attempts that failed and were retried with backoff.
    pub write_retries: u64,
    /// Writes that exhausted their retries (artifact kept in memory only).
    pub write_failures: u64,
    /// Corrupt entries quarantined on load (checkpoint files renamed aside,
    /// memory entries evicted) and recomputed.
    pub quarantined: u64,
    /// Whether the store degraded to in-memory operation for at least one
    /// artifact — a resumed run will recompute those artifacts.
    pub degraded: bool,
}

impl StoreHealth {
    /// Whether anything at all went wrong.
    pub fn any(&self) -> bool {
        self.serialize_errors > 0
            || self.write_retries > 0
            || self.write_failures > 0
            || self.quarantined > 0
            || self.degraded
    }

    /// One line of counters, e.g.
    /// `1 serialize error, 2 write retries, 1 write failure (degraded to in-memory), 1 quarantined checkpoint`.
    pub fn summary(&self) -> String {
        fn part(n: u64, one: &str, many: &str) -> Option<String> {
            (n > 0).then(|| format!("{n} {}", if n == 1 { one } else { many }))
        }
        let mut parts: Vec<String> = Vec::new();
        parts.extend(part(
            self.serialize_errors,
            "serialize error",
            "serialize errors",
        ));
        parts.extend(part(self.write_retries, "write retry", "write retries"));
        if let Some(mut s) = part(self.write_failures, "write failure", "write failures") {
            if self.degraded {
                s.push_str(" (degraded to in-memory)");
            }
            parts.push(s);
        } else if self.degraded {
            parts.push("degraded to in-memory".to_string());
        }
        parts.extend(part(
            self.quarantined,
            "quarantined checkpoint",
            "quarantined checkpoints",
        ));
        if parts.is_empty() {
            "healthy".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// One memory-tier payload plus the digest captured when it was stored.
struct Entry {
    digest: u64,
    payload: String,
}

/// Hit/miss counters of one kind.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The content-addressed result store (see the module docs). Shared by
/// reference across campaign worker threads.
#[derive(Default)]
pub struct Store {
    memory: Mutex<HashMap<Key, Entry>>,
    disk: Option<CheckpointDir>,
    counters: [Counters; 4],
    quarantined: AtomicU64,
    serialize_errors: AtomicU64,
    faults: Option<Arc<HostFaults>>,
}

impl Store {
    /// A memory-only store.
    pub fn memory() -> Store {
        Store::default()
    }

    /// A store with a checkpoint directory at `path` (created if needed)
    /// behind the memory tier.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Store> {
        Store::memory().with_checkpoint(path)
    }

    /// Attaches a checkpoint directory at `path` (created if needed) behind
    /// the memory tier, keeping what the store already holds and its armed
    /// host faults.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> std::io::Result<Store> {
        let mut dir = CheckpointDir::new(path)?;
        dir.faults = self.faults.clone();
        self.disk = Some(dir);
        Ok(self)
    }

    /// Arms `plan` on this store: its checkpoint writes and serializations,
    /// its memory-tier loads and the cells of every campaign run through it
    /// fire the plan's faults, counting hits from zero.
    pub fn with_host_faults(mut self, plan: HostFaultPlan) -> Store {
        let faults = Arc::new(HostFaults::new(plan));
        if let Some(dir) = &mut self.disk {
            dir.faults = Some(faults.clone());
        }
        self.faults = Some(faults);
        self
    }

    /// The armed host faults, if any.
    pub fn host_faults(&self) -> Option<&HostFaults> {
        self.faults.as_deref()
    }

    /// The disk tier, when a directory is attached.
    pub fn dir(&self) -> Option<&CheckpointDir> {
        self.disk.as_ref()
    }

    /// Whether values of `kind` can be stored at all. When this is false,
    /// [`Store::get`] and [`Store::put`] are no-ops, so callers skip
    /// building keys for them.
    pub fn holds(&self, kind: Kind) -> bool {
        kind.in_memory() || self.disk.is_some()
    }

    /// The value stored under `key`, counting a hit or a miss. Corrupt
    /// memory entries are evicted and fall through to disk; corrupt files
    /// are quarantined by the disk tier; a payload that does not decode as
    /// `T` is a miss. A corrupt cache can cost time, never correctness.
    pub fn get<T: Deserialize>(&self, key: Key) -> Option<T> {
        if !self.holds(key.kind) {
            return None;
        }
        let value = self
            .load(key)
            .and_then(|payload| serde_json::from_str(&payload).ok());
        let c = &self.counters[key.kind as usize];
        match value {
            Some(_) => c.hits.fetch_add(1, Ordering::Relaxed),
            None => c.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    fn load(&self, key: Key) -> Option<String> {
        if key.kind.in_memory() {
            let mut memory = self.memory.lock().expect("store lock");
            if let Some(entry) = memory.get(&key) {
                let mut digest = fnv1a64(entry.payload.as_bytes());
                if self
                    .host_faults()
                    .and_then(|f| f.decide(ChaosSite::MemoLoad))
                    .is_some()
                {
                    // Injected corruption: flip the digest so the entry
                    // fails verification exactly as a real bit-flip would.
                    digest ^= 1;
                }
                if digest == entry.digest {
                    return Some(entry.payload.clone());
                }
                memory.remove(&key);
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[store] quarantined corrupt {} entry (digest mismatch); recomputing",
                    key.file_stem()
                );
            }
        }
        let payload = self.disk.as_ref()?.load(&key.file_stem())?;
        if key.kind.in_memory() {
            self.remember(key, payload.clone());
        }
        Some(payload)
    }

    fn remember(&self, key: Key, payload: String) {
        let digest = fnv1a64(payload.as_bytes());
        self.memory
            .lock()
            .expect("store lock")
            .insert(key, Entry { digest, payload });
    }

    /// Stores a freshly computed value: into memory for memory-resident
    /// kinds, and to disk (atomically, with retry) when a directory is
    /// attached.
    pub fn put<T: Serialize>(&self, key: Key, value: &T) {
        if !self.holds(key.kind) {
            return;
        }
        let payload = match serde_json::to_string(value) {
            Ok(p) => p,
            Err(e) => {
                self.serialize_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[store] cannot serialize {}: {e}", key.file_stem());
                return;
            }
        };
        if let Some(dir) = &self.disk {
            dir.save(&key.file_stem(), &payload);
        }
        if key.kind.in_memory() {
            self.remember(key, payload);
        }
    }

    /// `(hits, misses)` over every kind.
    pub fn stats(&self) -> (u64, u64) {
        Kind::ALL
            .iter()
            .map(|&k| self.kind_stats(k))
            .fold((0, 0), |(h, m), (kh, km)| (h + kh, m + km))
    }

    /// `(hits, misses)` of one kind.
    pub fn kind_stats(&self, kind: Kind) -> (u64, u64) {
        let c = &self.counters[kind as usize];
        (
            c.hits.load(Ordering::Relaxed),
            c.misses.load(Ordering::Relaxed),
        )
    }

    /// Host-side failure counters of both tiers.
    pub fn health(&self) -> StoreHealth {
        let mut health = self
            .disk
            .as_ref()
            .map_or_else(StoreHealth::default, |d| d.health());
        health.quarantined += self.quarantined.load(Ordering::Relaxed);
        health.serialize_errors += self.serialize_errors.load(Ordering::Relaxed);
        health
    }

    /// Flips the stored digest of a memory entry, simulating in-memory
    /// corruption (tests only).
    #[cfg(test)]
    fn corrupt(&self, key: Key) {
        if let Some(entry) = self.memory.lock().expect("store lock").get_mut(&key) {
            entry.digest ^= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charact::CharacterizeOptions;
    use crate::perf_table::{AccessMode, AccessType, OpType, PerfRow};
    use proptest::prelude::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ioeval-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_row() -> PerfRow {
        PerfRow {
            op: OpType::Write,
            block: 1024,
            access: AccessType::Local,
            mode: AccessMode::Sequential,
            rate: simcore::Bandwidth::from_mib_per_sec(42),
            iops: 17.5,
            latency: simcore::Time::from_micros(90),
        }
    }

    fn same(a: &PerfRow, b: &PerfRow) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn digest_distinguishes_every_input() {
        let spec = cluster::presets::test_cluster();
        let mut spec2 = spec.clone();
        spec2.seed ^= 1;
        let config = cluster::IoConfigBuilder::new(cluster::DeviceLayout::Jbod).build();
        let config2 = cluster::IoConfigBuilder::new(cluster::DeviceLayout::Raid1).build();
        let opts = CharacterizeOptions::quick();
        let mut opts2 = opts.clone();
        opts2.ior_ranks += 1;

        let key = |s, c, o| Key::of(Kind::Phase, &(s, c, o));
        let base = key(&spec, &config, &opts);
        assert_eq!(base, key(&spec, &config, &opts));
        assert_ne!(base, key(&spec2, &config, &opts));
        assert_ne!(base, key(&spec, &config2, &opts));
        assert_ne!(base, key(&spec, &config, &opts2));
        // Same inputs, different kind: a different key and file.
        let report = Key::of(Kind::Report, &(&spec, &config, &opts));
        assert_eq!(report.digest, base.digest);
        assert_ne!(report, base);
        assert_ne!(report.file_stem(), base.file_stem());
    }

    #[test]
    fn get_and_put_count_hits_and_misses() {
        let store = Store::memory();
        let key = Key::of(Kind::Report, &"table3");
        assert!(store.get::<String>(key).is_none());
        store.put(key, &"report".to_string());
        assert_eq!(store.get::<String>(key).as_deref(), Some("report"));
        assert_eq!(store.stats(), (1, 1));
        assert_eq!(store.kind_stats(Kind::Report), (1, 1));
    }

    #[test]
    fn phase_get_and_put_count_phase_hits_and_misses() {
        let store = Store::memory();
        let key = Key::of(Kind::Phase, &"spec|config|fs|LocalFs|1024|Sequential|Write");
        assert!(store.get::<PerfRow>(key).is_none());
        store.put(key, &sample_row());
        let replay: PerfRow = store.get(key).expect("stored phase");
        assert!(same(&replay, &sample_row()));
        assert_eq!(store.kind_stats(Kind::Phase), (1, 1));
        // Other kinds' counters are untouched by phase traffic.
        assert_eq!(store.kind_stats(Kind::Report), (0, 0));
        assert_eq!(store.stats(), (1, 1));
    }

    #[test]
    fn disk_only_kinds_are_dropped_without_a_directory() {
        let store = Store::memory();
        assert!(!store.holds(Kind::Cell) && !store.holds(Kind::Exp));
        let key = Key::of(Kind::Exp, &"table1");
        store.put(key, &"output".to_string());
        assert_eq!(store.get::<String>(key), None);
        // Neither counted nor kept: the calls never reach a tier.
        assert_eq!(store.stats(), (0, 0));
        assert_eq!(store.memory.lock().unwrap().len(), 0);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let store = Store::memory();
        let key = Key::of(Kind::Report, &7);
        store.put(key, &"report".to_string());
        store.corrupt(key);
        assert!(
            store.get::<String>(key).is_none(),
            "corrupt entry must not be served"
        );
        assert_eq!(store.health().quarantined, 1);
        // The entry was evicted: a recomputed value replays cleanly.
        store.put(key, &"report".to_string());
        assert!(store.get::<String>(key).is_some());
        assert_eq!(store.health().quarantined, 1);
    }

    #[test]
    fn corrupt_phase_entries_are_quarantined_not_served() {
        let store = Store::memory();
        let key = Key::of(Kind::Phase, &11);
        store.put(key, &sample_row());
        store.corrupt(key);
        assert!(
            store.get::<PerfRow>(key).is_none(),
            "corrupt phase must not be served"
        );
        assert_eq!(store.health().quarantined, 1);
        store.put(key, &sample_row());
        assert!(store.get::<PerfRow>(key).is_some());
        assert_eq!(store.health().quarantined, 1);
    }

    #[test]
    fn corrupt_memory_entries_heal_from_disk() {
        let dir = scratch("heal");
        let store = Store::open(&dir).unwrap();
        let key = Key::of(Kind::Phase, &11);
        store.put(key, &sample_row());
        store.corrupt(key);
        let healed: PerfRow = store.get(key).expect("disk copy replays");
        assert!(same(&healed, &sample_row()));
        assert_eq!(store.health().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn values_persist_across_stores_under_content_named_files() {
        let dir = scratch("persist");
        let key = Key::of(Kind::Cell, &("spec", "config", "app"));
        Store::open(&dir).unwrap().put(key, &sample_row());
        let name = format!("cell-{:016x}.json", key.digest);
        assert!(dir.join(&name).exists(), "{name} missing");
        let fresh = Store::open(&dir).unwrap();
        let replay: PerfRow = fresh.get(key).expect("replayed from disk");
        assert!(same(&replay, &sample_row()));
        assert_eq!(fresh.kind_stats(Kind::Cell), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_files_load_as_quarantined_misses() {
        let dir = scratch("nested");
        let key = Key::of(Kind::Report, &"deep");
        let path = dir.join(format!("{}.json", key.file_stem()));
        let store = Store::open(&dir).unwrap();
        fs::write(&path, "[".repeat(1 << 20)).unwrap();
        assert!(store.get::<PerfRow>(key).is_none());
        assert_eq!(store.health().quarantined, 1);
        assert!(!path.exists(), "damaged file must be moved aside");
        let _ = fs::remove_dir_all(&dir);
    }

    /// How a proptest case damages the one file in the directory.
    #[derive(Clone, Debug)]
    enum Damage {
        Replace(Vec<u8>),
        Truncate(usize),
        FlipBit(usize, u8),
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256).prop_map(Damage::Replace),
            any::<usize>().prop_map(Damage::Truncate),
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipBit(at, bit)),
        ]
    }

    proptest! {
        /// The disk loader never panics on a damaged file: arbitrary bytes,
        /// a truncated envelope or a single flipped bit all load as a miss,
        /// and the damaged file is quarantined (moved aside, never re-read).
        #[test]
        fn damaged_files_load_as_quarantined_misses(d in damage(), case in any::<u32>()) {
            let dir = scratch(&format!("fuzz-{case}"));
            let key = Key::of(Kind::Phase, &case);
            Store::open(&dir).unwrap().put(key, &sample_row());
            let path = dir.join(format!("{}.json", key.file_stem()));
            let good = fs::read(&path).unwrap();
            let bad = match d {
                Damage::Replace(bytes) => bytes,
                Damage::Truncate(at) => good[..at % good.len()].to_vec(),
                Damage::FlipBit(at, bit) => {
                    let mut b = good.clone();
                    b[at % good.len()] ^= 1 << bit;
                    b
                }
            };
            prop_assume!(bad != good);
            fs::write(&path, &bad).unwrap();

            let fresh = Store::open(&dir).unwrap();
            prop_assert!(fresh.get::<PerfRow>(key).is_none());
            prop_assert_eq!(fresh.kind_stats(Kind::Phase), (0, 1));
            prop_assert_eq!(fresh.health().quarantined, 1);
            prop_assert!(!path.exists(), "damaged file must be moved aside");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
