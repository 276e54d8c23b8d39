//! Phase 1 — characterization (paper §III-A).
//!
//! *System side*: run IOzone-like sweeps against the local-filesystem level
//! (the I/O node's devices, accessed locally) and the network-filesystem
//! level (through an NFS mount), and IOR-like sweeps against the I/O
//! library level, recording transfer rate / IOPs / latency per
//! (operation, block size, access mode) into [`PerfTable`]s. Every
//! measurement point runs on a *fresh* machine ("the characterized values
//! were measured under stressed I/O system" — and with cold caches, the
//! 2×RAM file-size rule doing the stressing).
//!
//! *Application side*: run the application once with a [`ProfileSink`]
//! attached and collect its [`AppProfile`].

use crate::perf_table::{AccessMode, IoLevel, OpType, PerfRow, PerfTable, PerfTableSet};
use crate::store::{Key, Kind, Store};
use crate::trace::{AppProfile, ProfileSink};
use cluster::{ClusterMachine, ClusterSpec, ConfigError, IoConfig, Mount};
use fs::FileId;
use mpisim::{RunStats, Runtime};
use simcore::obs::{NoSink, ObsSink};
use simcore::{Abort, Bandwidth, Time, WatchdogSpec, KIB, MIB};
use workloads::ior::{paper_block_sweep, Ior, IorOp};
use workloads::iozone::{paper_record_sweep, IozonePattern, IozoneRun};
use workloads::Scenario;

/// Why a characterization could not produce a table set.
#[derive(Clone, Debug, PartialEq)]
pub enum CharactError {
    /// The cluster configuration failed validation.
    Config(ConfigError),
    /// A measurement run was aborted by the watchdog.
    Aborted {
        /// The workload that was running.
        workload: String,
        /// Why the watchdog stopped it.
        abort: Abort,
    },
    /// A required level is absent from a table set (e.g. a checkpoint
    /// written by an older sweep that skipped it).
    MissingLevel {
        /// The absent level.
        level: IoLevel,
    },
}

impl From<ConfigError> for CharactError {
    fn from(e: ConfigError) -> Self {
        CharactError::Config(e)
    }
}

impl std::fmt::Display for CharactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CharactError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            CharactError::Aborted { workload, abort } => {
                write!(f, "characterization run '{workload}' aborted: {abort}")
            }
            CharactError::MissingLevel { level } => {
                write!(f, "characterization is missing the {level:?} level")
            }
        }
    }
}

impl std::error::Error for CharactError {}

/// The `level` table of `set`, or a typed [`CharactError::MissingLevel`] —
/// so an incomplete characterization fails its cell instead of the process.
pub fn require_level(set: &PerfTableSet, level: IoLevel) -> Result<&PerfTable, CharactError> {
    set.get(level).ok_or(CharactError::MissingLevel { level })
}

/// What to sweep during system characterization.
#[derive(Clone, Debug)]
pub struct CharacterizeOptions {
    /// IOzone record sizes.
    pub records: Vec<u64>,
    /// IOzone file size; `None` applies the paper's 2×RAM rule.
    pub iozone_file_size: Option<u64>,
    /// Access modes to sweep at the filesystem levels.
    pub modes: Vec<AccessMode>,
    /// IOR per-rank block sizes.
    pub ior_blocks: Vec<u64>,
    /// IOR process count (the paper uses 8).
    pub ior_ranks: usize,
    /// IOR transfer size (the paper uses 256 KiB).
    pub ior_transfer: u64,
    /// Levels to characterize.
    pub levels: Vec<IoLevel>,
    /// Watchdog budgets applied to every measurement run (`None`: none).
    pub watchdog: Option<WatchdogSpec>,
}

impl CharacterizeOptions {
    /// The paper's published sweep: records 32 KiB–16 MiB, file 2×RAM,
    /// sequential access (the mode the paper's Figs. 5/6/13/14 report),
    /// IOR blocks 1 MiB–1 GiB at 256 KiB transfers with 8 processes, all
    /// three levels. Use [`Self::all_modes`] to add the strided/random
    /// sweeps Table I's `AccessesMode` attribute supports.
    pub fn paper() -> CharacterizeOptions {
        CharacterizeOptions {
            records: paper_record_sweep(),
            iozone_file_size: None,
            modes: vec![AccessMode::Sequential],
            ior_blocks: paper_block_sweep(),
            ior_ranks: 8,
            ior_transfer: 256 * KIB,
            levels: IoLevel::ALL.to_vec(),
            watchdog: None,
        }
    }

    /// Extends the sweep to every access mode of Table I.
    pub fn all_modes(mut self) -> CharacterizeOptions {
        self.modes = vec![
            AccessMode::Sequential,
            AccessMode::Strided,
            AccessMode::Random,
        ];
        self
    }

    /// A reduced sweep for tests and doctests.
    pub fn quick() -> CharacterizeOptions {
        CharacterizeOptions {
            records: vec![64 * KIB, MIB],
            iozone_file_size: Some(64 * MIB),
            modes: vec![AccessMode::Sequential],
            ior_blocks: vec![4 * MIB],
            ior_ranks: 2,
            ior_transfer: 256 * KIB,
            levels: IoLevel::ALL.to_vec(),
            watchdog: None,
        }
    }

    /// Sets the per-run watchdog budgets.
    pub fn with_watchdog(mut self, watchdog: WatchdogSpec) -> CharacterizeOptions {
        self.watchdog = Some(watchdog);
        self
    }
}

/// File ids reserved for characterization workloads.
const CHARACT_FILE: FileId = FileId(0xC4A2);

/// Runs one scenario on a fresh machine into `sink`; returns the run
/// stats.
fn run_fresh(
    spec: &ClusterSpec,
    config: &IoConfig,
    scenario: Scenario,
    watchdog: Option<&WatchdogSpec>,
    sink: &mut dyn ObsSink,
) -> Result<RunStats, CharactError> {
    let ranks = scenario.ranks();
    let workload = scenario.name.clone();
    let mut machine = ClusterMachine::try_new(spec, config)?;
    let programs = scenario.install(&mut machine);
    let placement = spec.placement(ranks);
    Runtime::default()
        .run_supervised(
            &mut machine,
            &placement,
            programs,
            sink,
            watchdog.map(WatchdogSpec::arm),
        )
        .map_err(|e| match e {
            mpisim::RunError::Aborted(abort) => CharactError::Aborted { workload, abort },
            // An invalid program is a bug in the generator that built it,
            // not an input error: reported by panic, as `Runtime::run`
            // does.
            mpisim::RunError::Invalid(fault) => {
                panic!("characterization workload '{workload}' built an invalid program: {fault}")
            }
        })
}

/// Extracts (rate, iops, latency) from a measurement run.
fn point_metrics(stats: &RunStats) -> (Bandwidth, f64, Time) {
    let bytes: u64 = stats.total_bytes();
    let rate = Bandwidth::measured(bytes, stats.wall_time);
    let ops: u64 = stats.per_rank.iter().map(|r| r.io_ops).sum();
    let io_time: Time = stats.per_rank.iter().map(|r| r.io_time).sum();
    let iops = if stats.max_io_time() == Time::ZERO {
        0.0
    } else {
        ops as f64 / stats.max_io_time().as_secs_f64()
    };
    let latency = if ops == 0 { Time::ZERO } else { io_time / ops };
    (rate, iops, latency)
}

fn iozone_pattern(op: OpType, mode: AccessMode) -> IozonePattern {
    match (op, mode) {
        (OpType::Write, AccessMode::Sequential) => IozonePattern::SeqWrite,
        (OpType::Read, AccessMode::Sequential) => IozonePattern::SeqRead,
        (OpType::Write, AccessMode::Strided) => IozonePattern::StridedWrite,
        (OpType::Read, AccessMode::Strided) => IozonePattern::StridedRead,
        (OpType::Write, AccessMode::Random) => IozonePattern::RandWrite,
        (OpType::Read, AccessMode::Random) => IozonePattern::RandRead,
    }
}

/// Characterizes one filesystem level with the IOzone sweep. `machine` is
/// the digest of everything the sweep's points share (see
/// [`characterize_system_memo`]).
fn characterize_fs_level(
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
    level: IoLevel,
    machine: u64,
    store: &Store,
) -> Result<PerfTable, CharactError> {
    let mount = match level {
        IoLevel::LocalFs => Mount::ServerLocal,
        // The global-filesystem level is whatever shared filesystem the
        // configuration deploys: the NFS export, or the parallel FS when
        // one is configured.
        IoLevel::GlobalFs if config.pfs_servers > 0 => Mount::Pfs,
        IoLevel::GlobalFs => Mount::Nfs,
        IoLevel::Library => unreachable!("library level uses IOR"),
        IoLevel::Metadata => unreachable!("metadata level has no bandwidth sweep"),
    };
    // The paper's rule: a file twice the main memory of the machine under
    // test, so the page cache cannot hide the device.
    let ram = match level {
        IoLevel::LocalFs => spec.io_node_ram,
        _ => spec.node_ram.max(spec.io_node_ram),
    };
    let file_size = opts.iozone_file_size.unwrap_or(2 * ram);

    let mut table = PerfTable::new();
    for &record in &opts.records {
        if record > file_size {
            continue;
        }
        for &mode in &opts.modes {
            for op in [OpType::Write, OpType::Read] {
                // The phase key names everything that shapes this one
                // measurement: the machine and the point.
                let key = Key::of(
                    Kind::Phase,
                    &("fs", machine, level, mode, op, record, file_size),
                );
                if let Some(row) = store.get(key) {
                    table.insert(row);
                    continue;
                }
                let run = IozoneRun::new(CHARACT_FILE, file_size, record, iozone_pattern(op, mode))
                    .on(mount);
                let stats = run_fresh(
                    spec,
                    config,
                    run.scenario(),
                    opts.watchdog.as_ref(),
                    &mut NoSink,
                )?;
                let (rate, iops, latency) = point_metrics(&stats);
                let row = PerfRow {
                    op,
                    block: record,
                    access: level.access_type(),
                    mode,
                    rate,
                    iops,
                    latency,
                };
                store.put(key, &row);
                table.insert(row);
            }
        }
    }
    Ok(table)
}

/// Characterizes the I/O library level with the IOR sweep.
fn characterize_library_level(
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
    machine: u64,
    store: &Store,
) -> Result<PerfTable, CharactError> {
    let mut table = PerfTable::new();
    for &block in &opts.ior_blocks {
        for op in [OpType::Write, OpType::Read] {
            let key = Key::of(
                Kind::Phase,
                &("lib", machine, op, block, opts.ior_ranks, opts.ior_transfer),
            );
            if let Some(row) = store.get(key) {
                table.insert(row);
                continue;
            }
            let ior = Ior {
                ranks: opts.ior_ranks,
                file: CHARACT_FILE,
                block,
                transfer: opts.ior_transfer,
                collective: false,
                op: if op == OpType::Write {
                    IorOp::Write
                } else {
                    IorOp::Read
                },
                // The library level is MPI-IO: on NFS it pays the ROMIO
                // discipline (locking, synchronous transfers); on a
                // parallel FS it runs natively.
                mount: if config.pfs_servers > 0 {
                    Mount::Pfs
                } else {
                    Mount::NfsDirect
                },
            };
            let stats = run_fresh(
                spec,
                config,
                ior.scenario(),
                opts.watchdog.as_ref(),
                &mut NoSink,
            )?;
            let (rate, iops, latency) = point_metrics(&stats);
            let row = PerfRow {
                op,
                block,
                access: IoLevel::Library.access_type(),
                mode: AccessMode::Sequential,
                rate,
                iops,
                latency,
            };
            store.put(key, &row);
            table.insert(row);
        }
    }
    Ok(table)
}

/// Phase 1a: characterizes the I/O system of `spec` under `config` at every
/// requested level (paper Figs. 3, 5, 6, 13, 14).
pub fn characterize_system(
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
) -> Result<PerfTableSet, CharactError> {
    characterize_system_memo(spec, config, opts, &Store::memory())
}

/// [`characterize_system`] with phase-granular memoization: each
/// `(workload, point)` measurement consults `store` before simulating and
/// stores its row after. A hit replays the exact row a recomputation would
/// produce (digest-verified on load), so memoized and fresh
/// characterizations render byte-identically — including across sweeps
/// that only partially overlap, which share the points they have in
/// common.
pub fn characterize_system_memo(
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
    store: &Store,
) -> Result<PerfTableSet, CharactError> {
    // What every point of the sweep shares — the machine and the watchdog
    // budget (an aborted sweep must not alias a finished one) — digested
    // once instead of once per phase.
    let machine = crate::store::digest(&(spec, config, &opts.watchdog));
    let mut set = PerfTableSet::new(spec.name.clone(), config.name.clone());
    for &level in &opts.levels {
        let table = match level {
            IoLevel::Library => characterize_library_level(spec, config, opts, machine, store)?,
            IoLevel::GlobalFs | IoLevel::LocalFs => {
                characterize_fs_level(spec, config, opts, level, machine, store)?
            }
            // The metadata path is rate-characterized by the mdtest
            // workloads, not the IOzone/IOR bandwidth sweep.
            IoLevel::Metadata => continue,
        };
        set.set(level, table);
    }
    Ok(set)
}

/// Phase 1b: characterizes an application by running its scenario under
/// `config` with the tracing sink attached (paper Fig. 7; Tables II/V/VIII),
/// under `watchdog`'s budgets when given. The healthy evaluation of the
/// same run carries the identical profile ([`crate::eval::EvalReport`]).
pub fn characterize_app(
    spec: &ClusterSpec,
    config: &IoConfig,
    scenario: Scenario,
    watchdog: Option<&WatchdogSpec>,
) -> Result<AppProfile, CharactError> {
    let mut sink = ProfileSink::new(scenario.ranks());
    run_fresh(spec, config, scenario, watchdog, &mut sink)?;
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{presets, DeviceLayout, IoConfigBuilder};
    use workloads::{BtClass, BtIo, BtSubtype};

    fn quick_setup() -> (ClusterSpec, IoConfig) {
        (
            presets::test_cluster(),
            IoConfigBuilder::new(DeviceLayout::Jbod).build(),
        )
    }

    #[test]
    fn quick_characterization_produces_all_levels() {
        let (spec, config) = quick_setup();
        let set = characterize_system(&spec, &config, &CharacterizeOptions::quick())
            .expect("characterization succeeds");
        for level in IoLevel::ALL {
            let t = require_level(&set, level).expect("level characterized");
            assert!(!t.is_empty(), "{level:?} table is empty");
            for row in t.rows() {
                assert!(
                    row.rate.bytes_per_sec() > 0,
                    "{level:?} {:?} {} has zero rate",
                    row.op,
                    row.block
                );
            }
        }
        assert_eq!(set.cluster, "test");
        assert_eq!(set.config, "JBOD");
    }

    #[test]
    fn local_fs_is_at_least_as_fast_as_nfs_for_streaming() {
        let (spec, config) = quick_setup();
        let set = characterize_system(&spec, &config, &CharacterizeOptions::quick())
            .expect("characterization succeeds");
        let local = set
            .get(IoLevel::LocalFs)
            .unwrap()
            .search(
                OpType::Read,
                MIB,
                crate::perf_table::AccessType::Local,
                AccessMode::Sequential,
            )
            .unwrap()
            .rate;
        let nfs = set
            .get(IoLevel::GlobalFs)
            .unwrap()
            .search(
                OpType::Read,
                MIB,
                crate::perf_table::AccessType::Global,
                AccessMode::Sequential,
            )
            .unwrap()
            .rate;
        assert!(
            local.bytes_per_sec() >= nfs.bytes_per_sec(),
            "local {local} vs nfs {nfs}: NFS cannot beat its own backend"
        );
    }

    #[test]
    fn app_characterization_matches_generator_counts() {
        let (spec, config) = quick_setup();
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Simple)
            .with_dumps(2)
            .gflops(50.0);
        let expected_writes: u64 = (0..4).map(|r| bt.simple_ops_per_rank_per_dump(r) * 2).sum();
        let profile =
            characterize_app(&spec, &config, bt.scenario(), None).expect("profiling succeeds");
        assert_eq!(profile.numio_write, expected_writes);
        assert_eq!(profile.numio_read, expected_writes);
        assert_eq!(profile.procs, 4);
        assert_eq!(profile.num_files, 1);
        assert!(profile.exec_time > Time::ZERO);
        assert!(profile.io_time > Time::ZERO);
        // Class S / 4 procs: line sizes 5×8×12 = 480 bytes only.
        assert_eq!(profile.write_sizes.len(), 1);
        assert_eq!(profile.write_sizes[0].0, 480);
    }

    #[test]
    fn healthy_evaluation_carries_the_characterize_app_profile() {
        use crate::eval::{evaluate, EvalOptions};
        use workloads::{FileType, MadBench, Workload};
        let (spec, config) = quick_setup();
        let tables = PerfTableSet::new(spec.name.clone(), config.name.clone());
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Full).with_dumps(2);
        let mb = MadBench::new(4, FileType::Unique).with_kpix(1);
        for app in [&bt as &dyn Workload, &mb] {
            let profile = characterize_app(&spec, &config, app.scenario(), None).unwrap();
            let report = evaluate(
                &spec,
                &config,
                app.scenario(),
                &tables,
                &EvalOptions::default(),
            )
            .unwrap();
            assert_eq!(
                serde_json::to_string(&report.profile).unwrap(),
                serde_json::to_string(&profile).unwrap(),
                "{}",
                report.app
            );
        }
    }

    #[test]
    fn app_characterization_honours_the_watchdog() {
        let (spec, config) = quick_setup();
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Full).with_dumps(2);
        let deadline = WatchdogSpec::sim_deadline(Time(1));
        let err = characterize_app(&spec, &config, bt.scenario(), Some(&deadline))
            .expect_err("a 1 ns deadline aborts the run");
        assert!(matches!(err, CharactError::Aborted { .. }), "{err}");
    }

    #[test]
    fn deterministic_characterization() {
        let (spec, config) = quick_setup();
        let a = characterize_system(&spec, &config, &CharacterizeOptions::quick()).unwrap();
        let b = characterize_system(&spec, &config, &CharacterizeOptions::quick()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn memoized_characterization_renders_byte_identical_and_hits_phases() {
        let (spec, config) = quick_setup();
        let opts = CharacterizeOptions::quick();
        let fresh = characterize_system(&spec, &config, &opts).unwrap();

        let store = Store::memory();
        let first = characterize_system_memo(&spec, &config, &opts, &store).unwrap();
        let (h0, m0) = store.kind_stats(Kind::Phase);
        assert_eq!(h0, 0, "cold store cannot hit");
        assert!(m0 > 0, "every point is a phase miss on a cold store");
        let warm = characterize_system_memo(&spec, &config, &opts, &store).unwrap();
        let (h1, m1) = store.kind_stats(Kind::Phase);
        assert_eq!(h1, m0, "warm rerun must replay every point");
        assert_eq!(m1, m0);

        assert_eq!(fresh.to_json(), first.to_json());
        assert_eq!(fresh.to_json(), warm.to_json());
    }

    #[test]
    fn partially_overlapping_sweeps_share_phases() {
        let (spec, config) = quick_setup();
        let store = Store::memory();
        let narrow = CharacterizeOptions::quick();
        characterize_system_memo(&spec, &config, &narrow, &store).unwrap();
        let (_, misses) = store.kind_stats(Kind::Phase);

        // A wider sweep sharing the narrow one's points: the shared points
        // replay, only the new block pays a simulation.
        let mut wide = CharacterizeOptions::quick();
        wide.ior_blocks = vec![2 * MIB, 4 * MIB];
        let set = characterize_system_memo(&spec, &config, &wide, &store).unwrap();
        let (hits2, misses2) = store.kind_stats(Kind::Phase);
        assert_eq!(hits2, misses, "every shared point must be a phase hit");
        assert_eq!(misses2 - misses, 2, "only the new block's two ops run");

        // And the store-assisted wide sweep matches a fresh wide sweep.
        let fresh = characterize_system(&spec, &config, &wide).unwrap();
        assert_eq!(fresh.to_json(), set.to_json());
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let spec = presets::test_cluster();
        let bad = IoConfigBuilder::new(DeviceLayout::Raid5 {
            disks: 1,
            stripe: 1,
        })
        .build();
        let err = characterize_system(&spec, &bad, &CharacterizeOptions::quick())
            .expect_err("invalid config must fail");
        assert!(matches!(err, CharactError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("invalid cluster configuration"));
    }

    #[test]
    fn missing_level_is_a_typed_error() {
        let set = PerfTableSet::new("test", "JBOD");
        let err = require_level(&set, IoLevel::Library).expect_err("empty set has no levels");
        assert_eq!(
            err,
            CharactError::MissingLevel {
                level: IoLevel::Library
            }
        );
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn watchdog_abort_surfaces_as_typed_charact_error() {
        let (spec, config) = quick_setup();
        // A 1ns simulated deadline: the very first measurement run aborts.
        let opts = CharacterizeOptions::quick().with_watchdog(WatchdogSpec::sim_deadline(Time(1)));
        let err = characterize_system(&spec, &config, &opts).expect_err("deadline must trip");
        match err {
            CharactError::Aborted { workload, abort } => {
                assert!(!workload.is_empty());
                assert!(abort.is_deterministic());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
