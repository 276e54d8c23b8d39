//! Shared experiment context: scales, the result store, and runs.

use cluster::{config as ioconfig, presets, ClusterSpec, IoConfig};
use ioeval_core::campaign::{strip_store_health, SuperviseOptions};
use ioeval_core::charact::{characterize_system_memo, CharacterizeOptions};
use ioeval_core::eval::{evaluate, EvalOptions, EvalReport, FaultScenario};
use ioeval_core::obs::{Collector, MetricsHub, ObsData, TraceMeta};
use ioeval_core::perf_table::{AccessMode, PerfTableSet};
use ioeval_core::store::{Key, Kind, Store, StoreHealth};
use simcore::chaos::{ChaosSite, HostFaultPlan};
use simcore::{Time, WatchdogSpec, KIB, MIB};
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;
use workloads::{BtClass, BtIo, BtSubtype, FileType, MadBench, Workload};

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters, same structure (seconds of host time).
    Quick,
    /// The paper's parameters (minutes of host time).
    Paper,
}

impl Scale {
    /// Parses `"quick"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Which PFS fault rows the resilience experiment runs alongside its
/// nominal row (selected by `repro --pfs-profile`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PfsFaultProfile {
    /// One-server-down *and* recover-mid-run (the full comparison).
    #[default]
    Full,
    /// One-server-down only.
    Fail,
    /// Recover-mid-run only.
    Recover,
    /// No PFS rows at all: the experiment renders exactly its pre-PFS
    /// RAID-only table.
    Off,
}

impl PfsFaultProfile {
    /// Parses `"full"` / `"fail"` / `"recover"` / `"none"`.
    pub fn parse(s: &str) -> Option<PfsFaultProfile> {
        match s {
            "full" => Some(PfsFaultProfile::Full),
            "fail" => Some(PfsFaultProfile::Fail),
            "recover" => Some(PfsFaultProfile::Recover),
            "none" => Some(PfsFaultProfile::Off),
            _ => None,
        }
    }

    /// Stable label (the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            PfsFaultProfile::Full => "full",
            PfsFaultProfile::Fail => "fail",
            PfsFaultProfile::Recover => "recover",
            PfsFaultProfile::Off => "none",
        }
    }
}

/// Experiment context: clusters, configurations, and one result [`Store`]
/// shared between related experiments (Tables II/III/IV and Figs. 8/12
/// reuse the same BT-IO runs, Table VIII and Fig. 18 the same MADbench2
/// runs, exactly like the paper).
///
/// Every stored result is keyed by the inputs that shape it, so changing
/// the scale, watchdog, PFS profile or scenario grid never replays a stale
/// one. With a checkpoint directory attached, results are also persisted
/// (digest-verified, atomically) and restored across processes, so an
/// interrupted `repro` run resumes instead of restarting.
pub struct Repro {
    /// Selected scale.
    pub scale: Scale,
    store: Store,
    watchdog: Option<WatchdogSpec>,
    jobs: usize,
    obs: Option<ReproObs>,
    pfs_profile: PfsFaultProfile,
    scenario_grammar: Option<String>,
    scenario_sample: Option<usize>,
    scenario_seed: u64,
}

/// Default sampler seed of the `scenario` experiment (pinned so default
/// runs and the golden grid agree).
pub const SCENARIO_SEED: u64 = 42;

/// Observability state of a tracing-enabled context.
struct ReproObs {
    /// Per-cell metrics, shared with campaign workers.
    hub: Arc<MetricsHub>,
    /// Raw event streams of directly evaluated runs, in run order.
    traces: Vec<(TraceMeta, ObsData)>,
    /// Summed simulated execution time of the directly traced runs
    /// (denominator for aggregate rates / queue depths).
    traced_exec: Time,
}

impl Repro {
    /// A fresh context. The campaign worker count defaults to the
    /// `IOEVAL_JOBS` environment variable (when set to a positive
    /// integer), else 1 — parallelism is opt-in, so published outputs
    /// stay reproducible by default. Parallel campaigns are
    /// byte-identical to sequential ones anyway; the knob only trades
    /// wall-clock for cores.
    pub fn new(scale: Scale) -> Repro {
        let jobs = std::env::var("IOEVAL_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or(1);
        Repro {
            scale,
            store: Store::memory(),
            watchdog: None,
            jobs,
            obs: None,
            pfs_profile: PfsFaultProfile::default(),
            scenario_grammar: None,
            scenario_sample: None,
            scenario_seed: SCENARIO_SEED,
        }
    }

    /// Overrides the scenario grammar the `scenario` experiment sweeps
    /// (`repro scenario --grammar FILE`). Defaults to the worked example,
    /// [`workloads::grammar::EXAMPLE`].
    pub fn with_scenario_grammar(mut self, src: impl Into<String>) -> Repro {
        self.scenario_grammar = Some(src.into());
        self
    }

    /// The grammar source override, if any.
    pub fn scenario_grammar(&self) -> Option<&str> {
        self.scenario_grammar.as_deref()
    }

    /// Overrides how many variants the scenario sampler draws (`--sample
    /// N`). Defaults per scale (see `scenario_grid`).
    pub fn with_scenario_sample(mut self, n: usize) -> Repro {
        self.scenario_sample = Some(n.max(1));
        self
    }

    /// The sample-count override, if any.
    pub fn scenario_sample(&self) -> Option<usize> {
        self.scenario_sample
    }

    /// Sets the scenario sampler seed (`--seed S`).
    pub fn with_scenario_seed(mut self, seed: u64) -> Repro {
        self.scenario_seed = seed;
        self
    }

    /// The scenario sampler seed.
    pub fn scenario_seed(&self) -> u64 {
        self.scenario_seed
    }

    /// Selects which PFS fault rows the resilience experiment runs.
    pub fn with_pfs_profile(mut self, profile: PfsFaultProfile) -> Repro {
        self.pfs_profile = profile;
        self
    }

    /// The selected PFS fault profile.
    pub fn pfs_profile(&self) -> PfsFaultProfile {
        self.pfs_profile
    }

    /// Enables I/O-path observability: every evaluation this context runs
    /// (directly or through campaign supervision) is collected — raw event
    /// streams for [`Repro::traces`] and per-level metrics aggregated
    /// across cells for [`Repro::metrics_report`]. Pure observation: all
    /// rendered experiment output stays byte-identical.
    pub fn with_tracing(mut self) -> Repro {
        self.obs = Some(ReproObs {
            hub: Arc::new(MetricsHub::new()),
            traces: Vec::new(),
            traced_exec: Time::ZERO,
        });
        self
    }

    /// Whether observability collection is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// The raw event streams of directly evaluated runs (empty unless
    /// [`Repro::with_tracing`] was called). Memoized re-evaluations do not
    /// re-trace: each distinct cell appears once.
    pub fn traces(&self) -> &[(TraceMeta, ObsData)] {
        self.obs.as_ref().map_or(&[], |o| o.traces.as_slice())
    }

    /// Renders the aggregated per-level metrics table, when tracing is
    /// enabled and at least one cell was observed. Rates and queue depths
    /// are computed over the summed execution time of the directly traced
    /// runs (campaign-supervised cells contribute counters only).
    pub fn metrics_report(&self) -> Option<String> {
        let obs = self.obs.as_ref().filter(|o| !o.hub.is_empty())?;
        let agg = obs.hub.aggregate();
        Some(format!(
            "I/O-path metrics over {} cells ({} traced directly):\n{}",
            obs.hub.len(),
            obs.traces.len(),
            ioeval_core::obs::render_obs_metrics(&agg, obs.traced_exec),
        ))
    }

    /// `(hits, misses)` of the result store over every kind.
    pub fn memo_stats(&self) -> Option<(u64, u64)> {
        Some(self.store.stats())
    }

    /// `(hits, misses)` of the result store's characterization phases.
    pub fn memo_phase_stats(&self) -> Option<(u64, u64)> {
        Some(self.store.kind_stats(Kind::Phase))
    }

    /// Sets the campaign worker count (clamped to at least 1); overrides
    /// `IOEVAL_JOBS`.
    pub fn with_jobs(mut self, jobs: usize) -> Repro {
        self.jobs = jobs.max(1);
        self
    }

    /// The campaign worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches a durable checkpoint directory behind the result store:
    /// every result persists there and is restored on the next run.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> std::io::Result<Repro> {
        self.store = std::mem::take(&mut self.store).with_checkpoint(path)?;
        Ok(self)
    }

    /// Arms a host-fault plan on the result store (see
    /// [`Store::with_host_faults`]); trace exports through
    /// [`Repro::write_artifact`] fire its faults too.
    pub fn with_host_faults(mut self, plan: HostFaultPlan) -> Repro {
        self.store = std::mem::take(&mut self.store).with_host_faults(plan);
        self
    }

    /// Applies watchdog budgets to every simulation this context runs.
    pub fn with_watchdog(mut self, watchdog: WatchdogSpec) -> Repro {
        self.watchdog = Some(watchdog);
        self
    }

    /// The watchdog budgets, if any.
    pub fn watchdog(&self) -> Option<&WatchdogSpec> {
        self.watchdog.as_ref()
    }

    /// The result store (campaign experiments run their cells through it).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Host-side store health for this context. All-zero (default) when
    /// nothing went wrong — the `--strict-store` exit code gates on
    /// [`StoreHealth::any`].
    pub fn store_health(&self) -> StoreHealth {
        self.store.health()
    }

    /// The key of experiment `id`'s rendered output: the id plus every
    /// input of this context that can change what an experiment prints.
    fn experiment_key(&self, id: &str) -> Key {
        let grid = crate::scenario_grid::grid_key(self);
        let inputs = (id, self.scale, self.pfs_profile, &self.watchdog, grid);
        Key::of(Kind::Exp, &inputs)
    }

    /// The checkpointed output of experiment `id`, when a checkpoint
    /// directory holds one written under this context's inputs.
    pub fn restore_experiment(&self, id: &str) -> Option<String> {
        if !self.store.holds(Kind::Exp) {
            return None;
        }
        self.store.get(self.experiment_key(id))
    }

    /// Checkpoints experiment `id`'s output (a no-op without a checkpoint
    /// directory). The store-health footer is stripped: it is this
    /// process's operational state, and replaying it would report old
    /// trouble in a healthy resume.
    pub fn save_experiment(&self, id: &str, output: &str) {
        if self.store.holds(Kind::Exp) {
            let results = strip_store_health(output).to_string();
            self.store.put(self.experiment_key(id), &results);
        }
    }

    /// Supervision policy for campaign experiments: the context's watchdog
    /// plus default retry/quarantine limits.
    pub fn supervise_options(&self) -> SuperviseOptions {
        SuperviseOptions {
            watchdog: self.watchdog.clone(),
            metrics: self.obs.as_ref().map(|o| o.hub.clone()),
            ..SuperviseOptions::default()
        }
        .with_jobs(self.jobs)
    }

    /// The Aohyper spec.
    pub fn aohyper(&self) -> ClusterSpec {
        presets::aohyper()
    }

    /// The Cluster A spec.
    pub fn cluster_a(&self) -> ClusterSpec {
        presets::cluster_a()
    }

    /// Aohyper's three configurations (paper Fig. 4).
    pub fn aohyper_configs(&self) -> Vec<IoConfig> {
        ioconfig::aohyper_configs()
    }

    /// Cluster A's configuration.
    pub fn cluster_a_config(&self) -> IoConfig {
        ioconfig::cluster_a_config()
    }

    /// Characterization sweep for the scale.
    pub fn charact_options(&self, spec: &ClusterSpec) -> CharacterizeOptions {
        let mut o = match self.scale {
            Scale::Paper => {
                // The paper's published sweep (sequential, full record and
                // block ranges); applications' strided/random operations
                // resolve through the lenient mode fallback, as the
                // paper's usage tables do against its sequential curves.
                let _ = spec;
                CharacterizeOptions::paper()
            }
            Scale::Quick => {
                let mut o = CharacterizeOptions::quick();
                o.records = vec![64 * KIB, MIB, 16 * MIB];
                o.iozone_file_size = Some(256 * MIB);
                o.ior_blocks = vec![MIB, 16 * MIB];
                o.ior_ranks = 4;
                o.modes = vec![AccessMode::Sequential];
                o
            }
        };
        o.watchdog = self.watchdog.clone();
        o
    }

    /// System characterization of `(spec, config)` at this scale, phase by
    /// phase through the result store: stored points replay, the rest are
    /// measured and stored.
    pub fn characterize(&self, spec: &ClusterSpec, config: &IoConfig) -> PerfTableSet {
        let opts = self.charact_options(spec);
        characterize_system_memo(spec, config, &opts, &self.store).unwrap_or_else(|e| {
            panic!(
                "characterization of {} / {} failed: {e}",
                spec.name, config.name
            )
        })
    }

    /// A BT-IO instance at the scale.
    pub fn btio(&self, procs: usize, subtype: BtSubtype) -> BtIo {
        match self.scale {
            Scale::Paper => BtIo::new(BtClass::C, procs, subtype),
            Scale::Quick => BtIo::new(BtClass::A, procs, subtype).with_dumps(8),
        }
    }

    /// A MADbench2 instance at the scale.
    pub fn madbench(&self, procs: usize, filetype: FileType) -> MadBench {
        match self.scale {
            Scale::Paper => MadBench::new(procs, filetype),
            Scale::Quick => MadBench::new(procs, filetype).with_kpix(4),
        }
    }

    /// Memoized healthy evaluation of `workload` on `(spec, config)`. Its
    /// `profile` is the application characterization of that run (paper
    /// phase 1b), so characterization tables and evaluation figures of the
    /// same run share one simulation.
    pub fn eval(
        &mut self,
        spec: &ClusterSpec,
        config: &IoConfig,
        workload: &(impl Workload + Debug),
    ) -> EvalReport {
        self.eval_under(spec, config, workload, FaultScenario::Healthy)
    }

    /// Memoized evaluation under a fault scenario. The store key is every
    /// input of the run — scale, cluster, configuration, the workload
    /// value itself, faults and watchdog — so the same workload can be
    /// compared healthy vs degraded vs rebuilding without re-running
    /// either, and two experiments asking for the same run share it.
    pub fn eval_under(
        &mut self,
        spec: &ClusterSpec,
        config: &IoConfig,
        workload: &(impl Workload + Debug),
        faults: FaultScenario,
    ) -> EvalReport {
        let store_key = Key::of(
            Kind::Report,
            &(self.scale, spec, config, workload, &faults, &self.watchdog),
        );
        if let Some(r) = self.store.get(store_key) {
            return r;
        }
        let tables = self.characterize(spec, config);
        let scenario_label = faults.label().to_string();
        let opts = EvalOptions {
            faults,
            watchdog: self.watchdog.clone(),
            ..EvalOptions::default()
        };
        let collector = self.obs.as_ref().map(|_| Collector::new());
        let report = {
            let _guard = collector.as_ref().map(Collector::install);
            evaluate(spec, config, workload.scenario(), &tables, &opts)
                .unwrap_or_else(|e| panic!("{e} (on {} / {})", spec.name, config.name))
        };
        if let (Some(obs), Some(col)) = (self.obs.as_mut(), collector) {
            let data = col.take();
            // The store key keeps two distinct runs of one app apart.
            let cell = format!(
                "{}::{}::{}::{scenario_label}::{store_key:?}",
                spec.name, config.name, report.app
            );
            obs.hub.add(cell, data.metrics.clone());
            obs.traced_exec = obs.traced_exec.saturating_add(report.profile.exec_time);
            obs.traces.push((
                TraceMeta {
                    cluster: spec.name.clone(),
                    config: config.name.clone(),
                    app: report.app.clone(),
                    scenario: scenario_label,
                },
                data,
            ));
        }
        self.store.put(store_key, &report);
        report
    }

    /// Best-effort write of a *secondary* artifact (trace export, metrics
    /// dump). Export failures — real or injected at
    /// [`ChaosSite::TraceWrite`] by the store's armed host faults — must
    /// never poison the evaluation results, so errors are reported to
    /// stderr and swallowed. Returns whether the artifact reached disk.
    /// Primary results (`--out`) do not go through here; losing those is
    /// an error worth dying for.
    pub fn write_artifact(&self, label: &str, path: &std::path::Path, content: &str) -> bool {
        let injected = self
            .store
            .host_faults()
            .and_then(|f| f.decide(ChaosSite::TraceWrite));
        let result = match injected {
            Some(_) => Err(std::io::Error::other("injected trace write failure")),
            None => std::fs::write(path, content),
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "[repro] cannot write {label} {} (evaluation results unaffected): {e}",
                    path.display()
                );
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("x"), None);
    }

    #[test]
    fn pfs_profile_parsing() {
        assert_eq!(PfsFaultProfile::parse("full"), Some(PfsFaultProfile::Full));
        assert_eq!(PfsFaultProfile::parse("fail"), Some(PfsFaultProfile::Fail));
        assert_eq!(
            PfsFaultProfile::parse("recover"),
            Some(PfsFaultProfile::Recover)
        );
        assert_eq!(PfsFaultProfile::parse("none"), Some(PfsFaultProfile::Off));
        assert_eq!(PfsFaultProfile::parse("x"), None);
        assert_eq!(PfsFaultProfile::default(), PfsFaultProfile::Full);
        assert_eq!(PfsFaultProfile::Off.label(), "none");
        let r = Repro::new(Scale::Quick).with_pfs_profile(PfsFaultProfile::Fail);
        assert_eq!(r.pfs_profile(), PfsFaultProfile::Fail);
    }

    #[test]
    fn btio_scales() {
        let quick = Repro::new(Scale::Quick).btio(16, BtSubtype::Full);
        assert_eq!(quick.dumps, 8);
        let paper = Repro::new(Scale::Paper).btio(16, BtSubtype::Full);
        assert_eq!(paper.dumps, 40);
        assert_eq!(paper.class.size(), 162);
    }

    #[test]
    fn jobs_default_and_override() {
        // The env default is read in `new`; the builder wins over it and
        // clamps to at least one worker.
        let r = Repro::new(Scale::Quick).with_jobs(4);
        assert_eq!(r.jobs(), 4);
        assert_eq!(r.supervise_options().jobs, 4);
        assert_eq!(Repro::new(Scale::Quick).with_jobs(0).jobs(), 1);
    }

    #[test]
    fn characterization_is_memoized() {
        let r = Repro::new(Scale::Quick);
        let spec = presets::test_cluster();
        let config = r.aohyper_configs().remove(0);
        let a = r.characterize(&spec, &config);
        let (_, points) = r.memo_phase_stats().unwrap();
        let b = r.characterize(&spec, &config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(
            r.memo_phase_stats(),
            Some((points, points)),
            "the second characterization replays every point"
        );
    }

    #[test]
    fn characterization_persists_across_contexts_via_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ioeval-repro-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = presets::test_cluster();

        let first = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        let config = first.aohyper_configs().remove(0);
        let a = first.characterize(&spec, &config);
        assert!(!first.store().dir().unwrap().is_empty());

        // A fresh context (empty memory tier) restores from disk — the
        // restored tables are byte-identical to the computed ones, and no
        // phase is simulated again.
        let second = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        let b = second.characterize(&spec, &config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(second.memo_phase_stats().unwrap().1, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ioeval-repro-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn experiment_checkpoints_replay_only_under_the_same_inputs() {
        let dir = scratch("exp-inputs");
        let writer = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        writer.save_experiment("resilience", "full-profile output\n");
        let reopen = |r: Repro| r.with_checkpoint(&dir).unwrap();

        let same = reopen(Repro::new(Scale::Quick));
        assert_eq!(
            same.restore_experiment("resilience").as_deref(),
            Some("full-profile output\n")
        );
        assert_eq!(same.restore_experiment("table1"), None);
        let stale = [
            reopen(Repro::new(Scale::Quick).with_pfs_profile(PfsFaultProfile::Off)),
            reopen(Repro::new(Scale::Paper)),
            reopen(Repro::new(Scale::Quick).with_watchdog(WatchdogSpec::default())),
            reopen(Repro::new(Scale::Quick).with_scenario_seed(SCENARIO_SEED + 1)),
        ];
        for r in stale {
            assert_eq!(
                r.restore_experiment("resilience"),
                None,
                "output written under other inputs must not replay"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn characterization_checkpoints_replay_only_under_the_same_watchdog() {
        let dir = scratch("phase-inputs");
        let spec = presets::test_cluster();
        let writer = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        let config = writer.aohyper_configs().remove(0);
        writer.characterize(&spec, &config);
        let (_, points) = writer.memo_phase_stats().unwrap();

        let guarded = Repro::new(Scale::Quick)
            .with_watchdog(WatchdogSpec::default().with_stall_limit(1 << 40))
            .with_checkpoint(&dir)
            .unwrap();
        guarded.characterize(&spec, &config);
        assert_eq!(
            guarded.memo_phase_stats(),
            Some((0, points)),
            "phases measured under another watchdog must be re-measured"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
