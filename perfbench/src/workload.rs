//! The four workloads: set-up, the timed iteration, and the replica of
//! `evaluate` the traced run times layer by layer.

use crate::trace::{CallCounts, TimedMachine, Tracer};
use bench::{Repro, Scale};
use cluster::{ClusterMachine, ClusterSpec, DeviceLayout, IoConfig, IoConfigBuilder};
use ioeval_core::charact::{characterize_system, CharacterizeOptions};
use ioeval_core::eval::{
    evaluate, marker_usage_table, usage_notes, usage_table, EvalOptions, EvalReport,
};
use ioeval_core::perf_table::{IoLevel, PerfTableSet};
use ioeval_core::trace::ProfileSink;
use mpisim::{RunStats, Runtime};
use simcore::{FaultSchedule, KIB, MIB};
use std::time::Instant;
use workloads::grammar::{Grammar, EXAMPLE};
use workloads::{BtClass, BtIo, BtSubtype, FileType, MadBench, Scenario, Variant};

/// The seed that reproduces the repository's presets and pinned outputs.
pub const DEFAULT_SEED: u64 = 42;

/// Grid variants sampled per iteration (× 4 configurations = 10,000 cells).
const GRID_SAMPLE: usize = 2_500;
/// BT-IO solution dumps per evaluation (of the benchmark's 40): keeps an
/// iteration near a second, so a run holds enough iterations for each
/// evaluation's fastest time to be a steady figure (see the crate docs),
/// with the same per-layer split as 20 dumps.
const BTIO_DUMPS: usize = 6;
/// Grid variants the traced replica evaluates (× 4 = the first 1,000 cells).
const REPLICA_VARIANTS: usize = 250;
/// `repro-quick` experiments run at `--smoke` size: one without
/// simulation, one characterization, one fault-injection table.
const SMOKE_EXPERIMENTS: [&str; 3] = ["fig4", "table1", "resilience"];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// NAS BT-IO class B *simple* on Aohyper's three configurations.
    BtioSimple,
    /// MADbench2 UNIQUE and SHARED on Aohyper's three configurations.
    Madbench,
    /// The 10,000-cell sampled scenario grid.
    Grid,
    /// Every `repro` experiment at quick scale.
    ReproQuick,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::BtioSimple,
        Workload::Madbench,
        Workload::Grid,
        Workload::ReproQuick,
    ];

    /// CLI and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BtioSimple => "btio-simple",
            Workload::Madbench => "madbench",
            Workload::Grid => "grid",
            Workload::ReproQuick => "repro-quick",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What every workload function is parameterised by.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Input seed ([`DEFAULT_SEED`] keeps the presets untouched).
    pub seed: u64,
    /// Tiny inputs, for the in-crate smoke test and debug builds.
    pub smoke: bool,
    /// Campaign worker threads for the grid.
    pub jobs: usize,
}

impl Params {
    /// The cluster spec the workload runs on: `spec`, with any seed other
    /// than [`DEFAULT_SEED`] mixed into its device seed.
    fn seeded(&self, mut spec: ClusterSpec) -> ClusterSpec {
        if self.seed != DEFAULT_SEED {
            spec.seed = simcore::seed_for(spec.seed ^ self.seed, "perfbench");
        }
        spec
    }

    fn grid_sample(&self) -> usize {
        if self.smoke {
            2
        } else {
            GRID_SAMPLE
        }
    }
}

/// One checked output: a digest of what the program produced for one
/// labelled item, standing for `weight` attempted items.
#[derive(Clone, Debug)]
pub struct Output {
    /// Item label (configuration, cell, experiment id, or `render`).
    pub label: String,
    /// 64-bit FNV-1a of the output text.
    pub digest: u64,
    /// How many attempted items this output covers.
    pub weight: u64,
}

/// Characterization-memo counters of a `Repro` context.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoStats {
    /// Whole-triple hits.
    pub hits: u64,
    /// Whole-triple misses.
    pub misses: u64,
    /// Per-point hits.
    pub phase_hits: u64,
    /// Per-point misses.
    pub phase_misses: u64,
}

/// What one iteration (or one replica pass) did.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Items attempted.
    pub attempted: u64,
    /// Items that panicked, returned an error, or ended in a non-`Ok` cell.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Digests of everything produced.
    pub outputs: Vec<Output>,
    /// Host seconds of each item (an evaluation, the grid's campaign, an
    /// experiment), in the same order every iteration.
    pub item_s: Vec<f64>,
    /// `RunStats` data I/O ops (timing replica only).
    pub io_ops: u64,
    /// `RunStats` metadata ops (timing replica only).
    pub meta_ops: u64,
    /// Memo counters of the iteration's context (grid, repro-quick).
    pub memo: Option<MemoStats>,
    /// `(Ok cells, other cells)` of the grid's campaign.
    pub cells: Option<(u64, u64)>,
}

impl Iteration {
    /// Runs one item in a span named `name`, catching a panic, and records
    /// its host time.
    fn item<R>(
        &mut self,
        tr: &mut Tracer,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> Result<R, String> {
        let t = Instant::now();
        let r = tr.catch(name, f);
        self.item_s.push(t.elapsed().as_secs_f64());
        r
    }

    fn fail(&mut self, label: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        self.errors.push(format!("{label}: {why}"));
    }
}

struct Pair {
    spec: ClusterSpec,
    config: IoConfig,
    tables: PerfTableSet,
}

/// Everything the iterations and checks read: the characterized
/// configurations the workload runs on, and the grid variants the replica
/// evaluates.
pub struct Setup {
    pairs: Vec<Pair>,
    variants: Vec<Variant>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn level_name(level: IoLevel) -> &'static str {
    match level {
        IoLevel::LocalFs => "localfs",
        IoLevel::GlobalFs => "globalfs",
        IoLevel::Library => "library",
        IoLevel::Metadata => "metadata",
    }
}

/// The span name of one level's characterization in set-up.
pub fn charact_span(level: IoLevel) -> String {
    format!("core.charact.{}", level_name(level))
}

/// The levels set-up characterizes, in order.
pub const CHARACT_LEVELS: [IoLevel; 3] = [IoLevel::LocalFs, IoLevel::GlobalFs, IoLevel::Library];

fn charact_options(repro: &Repro, spec: &ClusterSpec, smoke: bool) -> CharacterizeOptions {
    let mut o = repro.charact_options(spec);
    if smoke {
        o.records = vec![64 * KIB];
        o.iozone_file_size = Some(4 * MIB);
        o.ior_blocks = vec![MIB];
        o.ior_ranks = 2;
    }
    o
}

/// The grid's four configurations, as `bench::scenario_grid` builds them.
fn grid_configs(repro: &Repro) -> Vec<IoConfig> {
    let mut configs = repro.aohyper_configs();
    configs.push(
        IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .write_cache_mib(0)
            .name("RAID 5 wc-off")
            .build(),
    );
    configs
}

/// Characterizes one configuration a level at a time (one span per
/// level), giving the same tables `characterize_system` gives at once.
fn characterize(
    tr: &mut Tracer,
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
) -> Result<PerfTableSet, String> {
    let mut set = PerfTableSet::new(spec.name.clone(), config.name.clone());
    for level in CHARACT_LEVELS {
        let one = CharacterizeOptions {
            levels: vec![level],
            ..opts.clone()
        };
        let mut got = tr
            .span(charact_span(level), |_| {
                characterize_system(spec, config, &one)
            })
            .map_err(|e| format!("characterizing {} / {}: {e}", spec.name, config.name))?;
        let table = got
            .tables
            .remove(&level)
            .ok_or_else(|| format!("{} / {}: no {level:?} table", spec.name, config.name))?;
        set.set(level, table);
    }
    Ok(set)
}

/// Builds the workload's inputs from the seed: characterization tables of
/// every configuration it runs on (the methodology's phase 1) and, for the
/// grid, the sampled variants the traced replica evaluates. `repro-quick`
/// recomputes its tables inside each fresh context; its set-up
/// characterizes the same four (cluster, configuration) pairs so set-up
/// time tracks the phase-1 cost on every workload.
pub fn setup(w: Workload, p: &Params, tr: &mut Tracer) -> Result<Setup, String> {
    tr.span("setup", |tr| {
        let repro = Repro::new(Scale::Quick);
        let targets: Vec<(ClusterSpec, IoConfig)> = match w {
            Workload::BtioSimple | Workload::Madbench => {
                let spec = p.seeded(repro.aohyper());
                repro
                    .aohyper_configs()
                    .into_iter()
                    .map(|c| (spec.clone(), c))
                    .collect()
            }
            Workload::Grid => grid_configs(&repro)
                .into_iter()
                .map(|c| (repro.aohyper(), c))
                .collect(),
            Workload::ReproQuick => {
                let mut t: Vec<_> = repro
                    .aohyper_configs()
                    .into_iter()
                    .map(|c| (repro.aohyper(), c))
                    .collect();
                t.push((repro.cluster_a(), repro.cluster_a_config()));
                t
            }
        };
        let pairs = targets
            .into_iter()
            .map(|(spec, config)| {
                let opts = charact_options(&repro, &spec, p.smoke);
                let tables = characterize(tr, &spec, &config, &opts)?;
                Ok(Pair {
                    spec,
                    config,
                    tables,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let variants = if w == Workload::Grid {
            tr.span("workloads.gen", |_| {
                let grammar = Grammar::parse(EXAMPLE).map_err(|e| e.to_string())?;
                let n = REPLICA_VARIANTS.min(p.grid_sample());
                Ok::<_, String>(grammar.sample(p.seed, n))
            })?
        } else {
            Vec::new()
        };
        Ok(Setup { pairs, variants })
    })
}

/// Number of characterized rows in `s` (the `core.charact.points` count).
pub fn charact_points(s: &Setup) -> u64 {
    s.pairs
        .iter()
        .flat_map(|p| p.tables.tables.values())
        .map(|t| t.len() as u64)
        .sum()
}

/// One evaluation the iteration or the replica runs.
struct Cell<'a> {
    label: String,
    pair: &'a Pair,
    scenario: Box<dyn Fn() -> Scenario + 'a>,
}

/// The evaluations of `w` that go through `evaluate` one by one: the whole
/// iteration for btio-simple and madbench, the first 1,000 cells for the
/// grid, and for repro-quick the six BT-IO evaluations behind `fig12`.
fn cells<'a>(w: Workload, s: &'a Setup, p: &Params) -> Vec<Cell<'a>> {
    let mut out = Vec::new();
    match w {
        Workload::BtioSimple => {
            for pair in &s.pairs {
                let bt = if p.smoke {
                    BtIo::new(BtClass::S, 4, BtSubtype::Simple).with_dumps(2)
                } else {
                    BtIo::new(BtClass::B, 16, BtSubtype::Simple).with_dumps(BTIO_DUMPS)
                };
                out.push(Cell {
                    label: pair.config.name.clone(),
                    pair,
                    scenario: Box::new(move || bt.scenario()),
                });
            }
        }
        Workload::Madbench => {
            for pair in &s.pairs {
                for (ft, name) in [(FileType::Unique, "unique"), (FileType::Shared, "shared")] {
                    let mb = if p.smoke {
                        MadBench::new(4, ft).with_kpix(1)
                    } else {
                        MadBench::new(16, ft)
                    };
                    out.push(Cell {
                        label: format!("{}/{name}", pair.config.name),
                        pair,
                        scenario: Box::new(move || mb.scenario()),
                    });
                }
            }
        }
        // Campaign order: variant-major, configuration-minor.
        Workload::Grid => {
            for v in &s.variants {
                for pair in &s.pairs {
                    out.push(Cell {
                        label: format!("{}@{}", v.label, pair.config.name),
                        pair,
                        scenario: Box::new(move || v.scenario()),
                    });
                }
            }
        }
        Workload::ReproQuick => {
            let repro = Repro::new(Scale::Quick);
            let aohyper = repro.aohyper().name;
            for pair in s.pairs.iter().filter(|pair| pair.spec.name == aohyper) {
                for subtype in [BtSubtype::Full, BtSubtype::Simple] {
                    let bt = if p.smoke {
                        BtIo::new(BtClass::S, 4, subtype).with_dumps(2)
                    } else {
                        repro.btio(16, subtype)
                    };
                    out.push(Cell {
                        label: format!("{}/{subtype:?}", pair.config.name),
                        pair,
                        scenario: Box::new(move || bt.scenario()),
                    });
                }
            }
        }
    }
    out
}

fn report_digest(report: &EvalReport) -> u64 {
    fnv1a(&serde_json::to_string(report).expect("EvalReport serializes"))
}

/// `evaluate` step by step, with a span around each layer's part and the
/// machine wrapped to time every call across the `Machine` boundary.
/// Healthy runs only: no fault schedule, no rebuild to settle.
fn timed_evaluate(tr: &mut Tracer, cell: &Cell) -> Result<(EvalReport, RunStats), String> {
    let Pair {
        spec,
        config,
        tables,
    } = cell.pair;
    let scenario = tr.span("workloads.gen", |_| (cell.scenario)());
    let app = scenario.name.clone();
    let ranks = scenario.ranks();
    let mut machine = tr
        .span("cluster.build", |_| {
            let mut m = ClusterMachine::try_new(spec, config)?;
            m.install_faults(FaultSchedule::none())?;
            Ok::<_, cluster::ConfigError>(m)
        })
        .map_err(|e| e.to_string())?;
    let programs = tr.span("workloads.install", |_| scenario.install(&mut machine));
    let placement = spec.placement(ranks);
    let mut sink = ProfileSink::new(ranks);
    let stats = tr
        .span("mpisim.run", |tr| {
            let mut timed = TimedMachine::new(&mut machine);
            let r = Runtime::default()
                .run_supervised(&mut timed, &placement, programs, &mut sink, None);
            let counts: CallCounts = timed.counts;
            tr.add_calls(&counts);
            r
        })
        .map_err(|e| e.to_string())?;
    let profile = tr.span("core.profile", |_| sink.finish());
    machine.apply_faults_up_to(profile.exec_time);
    let (usage, marker_usage) = tr.span("core.usage_search", |_| {
        (
            usage_table(&profile, tables),
            marker_usage_table(&profile, tables),
        )
    });
    let notes = usage_notes(&usage, &marker_usage);
    let report = EvalReport {
        cluster: spec.name.clone(),
        config: config.name.clone(),
        app,
        exec_time: profile.exec_time,
        io_time: profile.io_time,
        write_rate: profile.write_rate(),
        read_rate: profile.read_rate(),
        usage,
        marker_usage,
        profile,
        scenario: EvalOptions::default().faults.label().to_string(),
        meta_ops: stats.per_rank.iter().map(|r| r.meta_ops).sum(),
        io_errors: machine.io_errors(),
        client_retries: machine.client_retries(),
        pfs_failovers: machine.pfs_failovers(),
        pfs_resync_bytes: machine.pfs_resync_bytes(),
        rebuild: machine.rebuild_report(),
        notes,
    };
    Ok((report, stats))
}

/// Runs [`cells`] of `w` through `evaluate` (`timed == false`) or through
/// its timed replica.
pub fn replica(w: Workload, s: &Setup, p: &Params, tr: &mut Tracer, timed: bool) -> Iteration {
    let cells = cells(w, s, p);
    let name = if timed { "replica.timed" } else { "replica" };
    tr.span(name, |tr| {
        let mut it = Iteration::default();
        for cell in &cells {
            it.attempted += 1;
            let result = it.item(tr, "item", |tr| {
                if timed {
                    timed_evaluate(tr, cell).map(|(report, stats)| (report, Some(stats)))
                } else {
                    let Pair {
                        spec,
                        config,
                        tables,
                    } = cell.pair;
                    evaluate(
                        spec,
                        config,
                        (cell.scenario)(),
                        tables,
                        &EvalOptions::default(),
                    )
                    .map(|report| (report, None))
                    .map_err(|e| e.to_string())
                }
            });
            match result {
                Ok(Ok((report, stats))) => {
                    if let Some(stats) = stats {
                        it.io_ops += stats.per_rank.iter().map(|r| r.io_ops).sum::<u64>();
                        it.meta_ops += stats.per_rank.iter().map(|r| r.meta_ops).sum::<u64>();
                    }
                    it.outputs.push(Output {
                        label: cell.label.clone(),
                        digest: report_digest(&report),
                        weight: 1,
                    });
                }
                Ok(Err(e)) => it.fail(&cell.label, e),
                Err(panic) => it.fail(&cell.label, format!("panic: {panic}")),
            }
        }
        it
    })
}

/// One end-to-end iteration of `w`. The grid runs its campaign on `jobs`
/// worker threads; everything else is single-threaded.
pub fn iterate(w: Workload, s: &Setup, p: &Params, jobs: usize, tr: &mut Tracer) -> Iteration {
    tr.span("iteration", |tr| match w {
        Workload::BtioSimple | Workload::Madbench => replica(w, s, p, tr, false),
        Workload::Grid => grid(s, p, jobs, tr),
        Workload::ReproQuick => repro_quick(p, tr),
    })
}

fn memo_stats(r: &Repro) -> Option<MemoStats> {
    let (hits, misses) = r.memo_stats()?;
    let (phase_hits, phase_misses) = r.memo_phase_stats()?;
    Some(MemoStats {
        hits,
        misses,
        phase_hits,
        phase_misses,
    })
}

/// `(ok, other)` from the grid render's `outcomes: N ok, N failed, N timed
/// out, N skipped` line.
fn parse_outcomes(render: &str) -> Option<(u64, u64)> {
    let line = render.lines().find_map(|l| l.strip_prefix("outcomes: "))?;
    let mut ok = None;
    let mut other = 0;
    for part in line.split(", ") {
        let (count, what) = part.split_once(' ')?;
        let count: u64 = count.parse().ok()?;
        if what == "ok" {
            ok = Some(count);
        } else {
            other += count;
        }
    }
    Some((ok?, other))
}

fn grid(s: &Setup, p: &Params, jobs: usize, tr: &mut Tracer) -> Iteration {
    let cells = (p.grid_sample() * s.pairs.len()) as u64;
    let mut it = Iteration {
        attempted: cells,
        ..Iteration::default()
    };
    let mut r = Repro::new(Scale::Quick)
        .with_jobs(jobs)
        .with_scenario_sample(p.grid_sample())
        .with_scenario_seed(p.seed);
    match it.item(tr, "item", |_| bench::scenario_grid::scenario(&mut r)) {
        Ok(render) => match parse_outcomes(&render) {
            Some((ok, other)) if ok + other == cells => {
                it.failed = other;
                if other > 0 {
                    it.errors.push(format!("grid: {other} cells not Ok"));
                }
                it.cells = Some((ok, other));
                it.outputs.push(Output {
                    label: "render".to_string(),
                    digest: fnv1a(&render),
                    weight: cells,
                });
            }
            _ => {
                it.failed = cells;
                it.errors.push(format!(
                    "grid: no outcome line for {cells} cells in the render"
                ));
            }
        },
        Err(panic) => {
            it.failed = cells;
            it.errors.push(format!("grid: panic: {panic}"));
        }
    }
    it.memo = memo_stats(&r);
    it
}

fn repro_quick(p: &Params, tr: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();
    let mut r = Repro::new(Scale::Quick)
        .with_jobs(1)
        .with_scenario_seed(p.seed);
    for (id, _, run) in bench::experiments::registry() {
        if p.smoke && !SMOKE_EXPERIMENTS.contains(&id) {
            continue;
        }
        it.attempted += 1;
        match it.item(tr, format!("bench.exp.{id}"), |_| run(&mut r)) {
            Ok(text) => it.outputs.push(Output {
                label: id.to_string(),
                digest: fnv1a(&text),
                weight: 1,
            }),
            Err(panic) => it.fail(id, format!("panic: {panic}")),
        }
    }
    it.memo = memo_stats(&r);
    it
}

/// Every `repro` experiment id, in registry order.
pub fn experiment_ids() -> Vec<&'static str> {
    bench::experiments::registry()
        .into_iter()
        .map(|(id, _, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Params {
        Params {
            seed: DEFAULT_SEED,
            smoke: true,
            jobs: 1,
        }
    }

    #[test]
    fn level_by_level_characterization_equals_the_whole() {
        let repro = Repro::new(Scale::Quick);
        let spec = repro.aohyper();
        let config = repro.aohyper_configs().remove(0);
        let opts = charact_options(&repro, &spec, true);
        let mut tr = Tracer::new();
        let split = characterize(&mut tr, &spec, &config, &opts).unwrap();
        let whole = characterize_system(&spec, &config, &opts).unwrap();
        assert_eq!(split.to_json(), whole.to_json());
        assert_eq!(tr.spans().len(), CHARACT_LEVELS.len());
    }

    #[test]
    fn timed_replica_reports_equal_evaluate_reports() {
        for w in Workload::ALL {
            let p = smoke();
            let mut tr = Tracer::new();
            let s = setup(w, &p, &mut tr).unwrap();
            let plain = replica(w, &s, &p, &mut tr, false);
            let timed = replica(w, &s, &p, &mut tr, true);
            assert_eq!(plain.failed, 0, "{:?}", plain.errors);
            assert!(!plain.outputs.is_empty());
            let digests = |it: &Iteration| {
                it.outputs
                    .iter()
                    .map(|o| (o.label.clone(), o.digest))
                    .collect::<Vec<_>>()
            };
            assert_eq!(digests(&plain), digests(&timed), "{}", w.name());
            assert!(timed.io_ops > 0, "{}", w.name());
        }
    }

    #[test]
    fn grid_outcome_line_parses() {
        let render = "x\noutcomes: 7 ok, 1 failed, 0 timed out, 2 skipped\n";
        assert_eq!(parse_outcomes(render), Some((7, 3)));
        assert_eq!(parse_outcomes("no outcomes here"), None);
        assert_eq!(parse_outcomes("outcomes: lots ok"), None);
    }

    #[test]
    fn seed_mixes_into_the_spec_only_off_default() {
        let spec = cluster::presets::aohyper();
        let base = Params {
            seed: DEFAULT_SEED,
            smoke: false,
            jobs: 1,
        };
        assert_eq!(base.seeded(spec.clone()).seed, spec.seed);
        let other = Params { seed: 7, ..base };
        assert_ne!(other.seeded(spec.clone()).seed, spec.seed);
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
