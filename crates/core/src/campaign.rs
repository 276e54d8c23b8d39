//! A full methodology campaign in one call — supervised and resumable.
//!
//! The paper's workflow (Fig. 1) iterates: characterize each candidate
//! configuration, characterize the application(s), evaluate every
//! (application × configuration) pair, and read the used-percentage tables
//! to pick a configuration. [`run_campaign`] packages that loop; the
//! [`Campaign`] result carries every intermediate artifact plus the
//! advisor's prediction quality, so the whole study is reproducible from
//! one value.
//!
//! Real campaigns of this shape are long-running and frequently
//! interrupted, so the runner is *supervised*: every cell executes isolated
//! (a panic costs one cell, not the campaign), under optional watchdog
//! budgets (a livelocked or runaway simulation becomes a
//! [`CellOutcome::TimedOut`] cell), with bounded retry and per-configuration
//! quarantine, and with every completed artifact offered to a [`Store`] so
//! a killed campaign resumes instead of restarting. The campaign always
//! completes with whatever cells survived — graceful degradation to partial
//! results, reported in the outcome table.

use crate::advisor::{predict, Prediction};
use crate::charact::{characterize_system_memo, CharacterizeOptions};
use crate::eval::{evaluate, EvalError, EvalOptions, EvalReport, FaultScenario};
use crate::perf_table::PerfTableSet;
use crate::report::{render_metrics, TextTable};
use crate::store::{Key, Kind, Store, StoreHealth};
use crate::supervise::run_isolated;
use cluster::{ClusterSpec, IoConfig};
use serde::{Deserialize, Serialize};
use simcore::chaos::{is_host_fault_panic, ChaosSite, HostFaults};
use simcore::{Abort, FaultProfile, FaultSchedule, Time, WatchdogSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::Workload;

/// A named application: campaigns run each workload on several
/// configurations (possibly from several worker threads at once), so the
/// [`Workload`] builds a fresh scenario per cell, from any thread.
pub type AppFactory<'a> = (&'a str, &'a dyn Workload);

/// One successfully evaluated (application × configuration) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Application label.
    pub app: String,
    /// Configuration name.
    pub config: String,
    /// The full evaluation report.
    pub report: EvalReport,
    /// The advisor's prediction for this cell (from the tables alone).
    pub prediction: Option<Prediction>,
}

impl CampaignCell {
    /// Relative error of the predicted I/O time vs the simulated one
    /// (`None` when no prediction was possible).
    pub fn prediction_error(&self) -> Option<f64> {
        let p = self.prediction.as_ref()?;
        let actual = self.report.io_time.as_secs_f64();
        if actual == 0.0 {
            return None;
        }
        Some((p.io_time.as_secs_f64() - actual).abs() / actual)
    }
}

/// What happened to one campaign cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell evaluated successfully.
    Ok(Box<CampaignCell>),
    /// The cell failed (panic or invalid configuration) after `attempts`
    /// tries.
    Failed {
        /// Application label.
        app: String,
        /// Configuration name.
        config: String,
        /// What went wrong (panic message or typed-error rendering).
        error: String,
        /// How many times the cell was attempted.
        attempts: u32,
    },
    /// The watchdog aborted the cell's run.
    TimedOut {
        /// Application label.
        app: String,
        /// Configuration name.
        config: String,
        /// Why the watchdog stopped the run.
        abort: Abort,
        /// How many times the cell was attempted.
        attempts: u32,
    },
    /// The cell never ran (quarantined configuration, failed
    /// characterization, or exhausted campaign wall budget).
    Skipped {
        /// Application label.
        app: String,
        /// Configuration name.
        config: String,
        /// Why the cell was skipped.
        reason: String,
    },
}

impl CellOutcome {
    /// Application label of the cell.
    pub fn app(&self) -> &str {
        match self {
            CellOutcome::Ok(c) => &c.app,
            CellOutcome::Failed { app, .. }
            | CellOutcome::TimedOut { app, .. }
            | CellOutcome::Skipped { app, .. } => app,
        }
    }

    /// Configuration name of the cell.
    pub fn config(&self) -> &str {
        match self {
            CellOutcome::Ok(c) => &c.config,
            CellOutcome::Failed { config, .. }
            | CellOutcome::TimedOut { config, .. }
            | CellOutcome::Skipped { config, .. } => config,
        }
    }

    /// Whether the cell produced a report.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// Short status label for the outcome table.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::TimedOut { .. } => "timed out",
            CellOutcome::Skipped { .. } => "skipped",
        }
    }

    /// Whether a checkpoint may record this outcome. `Skipped` cells and
    /// wall-clock aborts depend on host conditions, not the simulation, so
    /// persisting them would make a resumed campaign diverge from an
    /// uninterrupted one; they are recomputed on resume instead.
    pub fn is_persistable(&self) -> bool {
        match self {
            CellOutcome::Skipped { .. } => false,
            CellOutcome::TimedOut { abort, .. } => abort.is_deterministic(),
            CellOutcome::Ok(_) | CellOutcome::Failed { .. } => true,
        }
    }
}

/// Per-cell fault injection for stochastic resilience campaigns: every
/// (application × configuration) cell draws its own [`FaultSchedule`] from
/// a seed derived from the campaign seed and the cell's identity
/// (`"app::config"`), never from a shared RNG stream. Cells are therefore
/// order-independent — evaluating them in any order, on any number of
/// worker threads, injects identical faults per cell.
#[derive(Clone, Debug)]
pub struct CellFaultPolicy {
    /// Campaign-level base seed.
    pub seed: u64,
    /// Simulated-time window faults are drawn over.
    pub horizon: Time,
    /// What kinds of faults to draw, and how many.
    pub profile: FaultProfile,
}

impl CellFaultPolicy {
    /// The fault scenario for one named cell.
    fn scenario_for(&self, app: &str, config: &str) -> FaultScenario {
        FaultScenario::Custom {
            label: "injected".to_string(),
            schedule: FaultSchedule::random_for(
                self.seed,
                &format!("{app}::{config}"),
                self.horizon,
                &self.profile,
            ),
        }
    }
}

/// Supervision policy for a campaign.
#[derive(Clone, Debug)]
pub struct SuperviseOptions {
    /// Watchdog budgets applied to every characterization and evaluation
    /// run (`None`: none). A `CharacterizeOptions`/`EvalOptions` watchdog,
    /// when set, takes precedence for its phase.
    pub watchdog: Option<WatchdogSpec>,
    /// How many times a panicking cell is retried before it is recorded as
    /// `Failed` (typed errors and aborts are deterministic and never
    /// retried).
    pub max_retries: u32,
    /// Quarantine a configuration after this many *consecutive* failed or
    /// timed-out cells: its remaining cells are skipped instead of burning
    /// the rest of the campaign's budget.
    pub quarantine_after: u32,
    /// Optional wall-clock budget for the whole campaign; once exhausted,
    /// remaining cells are skipped (and never persisted, so a resumed run
    /// computes them).
    pub wall_budget: Option<Duration>,
    /// Worker threads evaluating cells (and characterizing configurations).
    /// `1` (the default) runs strictly sequentially on the caller's thread;
    /// any higher value runs a bounded pool of scoped workers whose merged
    /// output is byte-identical to the sequential run (see
    /// [`CellMerger`]).
    pub jobs: usize,
    /// Optional per-cell stochastic fault injection (seeded by cell
    /// identity, so parallel and sequential campaigns inject identically).
    pub cell_faults: Option<CellFaultPolicy>,
    /// Optional observability aggregation: when set, every evaluation cell
    /// runs under a [`crate::obs::Collector`] and contributes its
    /// per-level metrics to the hub keyed by cell identity, so
    /// [`crate::obs::MetricsHub::aggregate`] is identical for `jobs = 1`
    /// and `jobs = N`. Pure observation — campaign results render and
    /// checkpoint byte-identically with or without it.
    pub metrics: Option<Arc<crate::obs::MetricsHub>>,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            watchdog: None,
            max_retries: 1,
            quarantine_after: 3,
            wall_budget: None,
            jobs: 1,
            cell_faults: None,
            metrics: None,
        }
    }
}

impl SuperviseOptions {
    /// Sets the per-run watchdog budgets.
    pub fn with_watchdog(mut self, watchdog: WatchdogSpec) -> SuperviseOptions {
        self.watchdog = Some(watchdog);
        self
    }

    /// Sets the whole-campaign wall-clock budget.
    pub fn with_wall_budget(mut self, budget: Duration) -> SuperviseOptions {
        self.wall_budget = Some(budget);
        self
    }

    /// Sets the worker-pool width (`0` is treated as `1`).
    pub fn with_jobs(mut self, jobs: usize) -> SuperviseOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables per-cell stochastic fault injection.
    pub fn with_cell_faults(mut self, policy: CellFaultPolicy) -> SuperviseOptions {
        self.cell_faults = Some(policy);
        self
    }
}

/// The outcome of a whole methodology campaign.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Cluster name.
    pub cluster: String,
    /// Characterizations of the successfully characterized configurations,
    /// in input order.
    pub tables: Vec<PerfTableSet>,
    /// Successfully evaluated cells, application-major (the `Ok` subset of
    /// `outcomes`).
    pub cells: Vec<CampaignCell>,
    /// Every cell's outcome, application-major.
    pub outcomes: Vec<CellOutcome>,
    /// Configurations whose characterization failed, with the reason.
    pub charact_errors: Vec<(String, String)>,
    /// Host-side store failure counters for the run (see [`StoreHealth`]).
    /// All-zero for a healthy store; surfaced in
    /// [`Campaign::render`] only when something went wrong, so healthy runs
    /// render byte-identically to runs of older versions.
    pub store_health: StoreHealth,
}

impl Campaign {
    /// The fastest configuration for `app` by simulated execution time.
    pub fn best_config(&self, app: &str) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .filter(|c| c.app == app)
            .min_by_key(|c| c.report.exec_time)
    }

    /// Mean advisor prediction error across all predicted cells.
    pub fn mean_prediction_error(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .cells
            .iter()
            .filter_map(|c| c.prediction_error())
            .collect();
        if errs.is_empty() {
            None
        } else {
            Some(errs.iter().sum::<f64>() / errs.len() as f64)
        }
    }

    /// Whether any cell failed, timed out, or was skipped — i.e. the
    /// campaign degraded to partial results.
    pub fn is_degraded(&self) -> bool {
        !self.charact_errors.is_empty() || self.outcomes.iter().any(|o| !o.is_ok())
    }

    /// One line counting outcomes by kind, e.g. `3 ok, 1 failed,
    /// 1 timed out, 2 skipped`.
    pub fn error_summary(&self) -> String {
        let count = |label: &str| self.outcomes.iter().filter(|o| o.label() == label).count();
        format!(
            "{} ok, {} failed, {} timed out, {} skipped",
            count("ok"),
            count("failed"),
            count("timed out"),
            count("skipped")
        )
    }

    /// Renders the campaign summary: metrics per cell plus the winner and
    /// prediction quality per application; degraded campaigns additionally
    /// report every failed/timed-out/skipped cell.
    pub fn render(&self) -> String {
        let mut out = format!("=== Campaign on {} ===\n", self.cluster);
        let mut apps: Vec<&str> = self.cells.iter().map(|c| c.app.as_str()).collect();
        apps.dedup();
        for app in apps {
            let rows: Vec<(&str, &str, &EvalReport)> = self
                .cells
                .iter()
                .filter(|c| c.app == app)
                .map(|c| (c.config.as_str(), "", &c.report))
                .collect();
            out.push_str(&format!("\n-- {app} --\n{}", render_metrics(&rows)));
            if let Some(best) = self.best_config(app) {
                out.push_str(&format!(
                    "fastest configuration: {} ({})\n",
                    best.config, best.report.exec_time
                ));
            }
            let mut t = TextTable::new(vec!["config", "predicted io", "simulated io", "error"]);
            for c in self.cells.iter().filter(|c| c.app == app) {
                if let (Some(p), Some(e)) = (&c.prediction, c.prediction_error()) {
                    t.row(vec![
                        c.config.clone(),
                        format!("{}", p.io_time),
                        format!("{}", c.report.io_time),
                        format!("{:.1}%", e * 100.0),
                    ]);
                }
            }
            if !t.is_empty() {
                out.push_str("advisor check:\n");
                out.push_str(&t.render());
            }
        }
        if self.is_degraded() {
            out.push_str(&format!(
                "\n-- degraded campaign: partial results ({}) --\n",
                self.error_summary()
            ));
            for (config, error) in &self.charact_errors {
                out.push_str(&format!("characterization of {config} failed: {error}\n"));
            }
            let mut t = TextTable::new(vec!["app", "config", "outcome", "detail"]);
            for o in self.outcomes.iter().filter(|o| !o.is_ok()) {
                let detail = match o {
                    CellOutcome::Failed {
                        error, attempts, ..
                    } => format!("{error} (attempt {attempts})"),
                    CellOutcome::TimedOut {
                        abort, attempts, ..
                    } => format!("{abort} (attempt {attempts})"),
                    CellOutcome::Skipped { reason, .. } => reason.clone(),
                    CellOutcome::Ok(_) => unreachable!("filtered"),
                };
                t.row(vec![
                    o.app().to_string(),
                    o.config().to_string(),
                    o.label().to_string(),
                    detail,
                ]);
            }
            if !t.is_empty() {
                out.push_str(&t.render());
            }
        }
        // Quarantine-on-load is *successful healing* of damage left by an
        // earlier run: the quarantined artifact is recomputed to an
        // identical value, so it must not perturb the rendered campaign
        // (resume-after-fault renders byte-identical to an uninterrupted
        // run). It is logged when it happens and still counts toward
        // `store_health.any()` for `--strict-store`.
        let rendered = StoreHealth {
            quarantined: 0,
            ..self.store_health
        };
        if rendered.any() {
            out.push_str(&format!("{STORE_HEALTH_MARKER}{} --\n", rendered.summary()));
        }
        out
    }
}

/// Opening marker of the store-health footer appended by
/// [`Campaign::render`]. The footer is operational state of the process
/// that rendered it — artifact caches that persist rendered output should
/// strip it (see [`strip_store_health`]), or a later healthy run would
/// replay a long-gone store problem.
pub const STORE_HEALTH_MARKER: &str = "\n-- store health: ";

/// `rendered` without its trailing store-health footer, if any.
pub fn strip_store_health(rendered: &str) -> &str {
    rendered
        .rfind(STORE_HEALTH_MARKER)
        .map_or(rendered, |i| &rendered[..i])
}

/// Identity of a sampled scenario grid: the grammar's source digest, the
/// sampler seed, and the sample count. Everything that determines which
/// workload variants a campaign sweeps is pinned by these three values,
/// so the rendered key is safe to use as a checkpoint namespace — change
/// the grammar text (beyond comments/whitespace), the seed, or the count
/// and the key moves with it, keeping stale checkpoints from replaying
/// into a different grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridKey {
    /// Normalized-source digest of the grammar (see
    /// `workloads::grammar::Grammar::digest`).
    pub grammar: u64,
    /// Sampler seed.
    pub seed: u64,
    /// Number of variants drawn.
    pub sample: usize,
}

impl std::fmt::Display for GridKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario-{:016x}-s{}-n{}",
            self.grammar, self.seed, self.sample
        )
    }
}

/// What a worker learned about one cell, before the deterministic merge.
/// Workers never decide a cell's *final* outcome — that is the
/// [`CellMerger`]'s job, performed strictly in input order so the merged
/// campaign is independent of completion order.
#[derive(Clone, Debug)]
pub enum CellAttempt {
    /// The worker produced an outcome, either by running the cell or by
    /// replaying a checkpointed one (`from_store`).
    Ran {
        /// The outcome the worker computed or replayed.
        outcome: CellOutcome,
        /// Whether it came from the [`Store`] (replays are never
        /// re-persisted).
        from_store: bool,
    },
    /// The worker skipped the cell without running it (it observed a
    /// confirmed quarantine, or the campaign wall budget was exhausted at
    /// dispatch time).
    NotRun {
        /// Why the worker did not run the cell.
        reason: String,
    },
}

/// Deterministic, input-ordered merge of per-cell worker results.
///
/// Cells are indexed application-major (`idx = app_index × configs +
/// config_index`), exactly the order a sequential campaign evaluates them.
/// Workers [`offer`](CellMerger::offer) attempts in *any* completion
/// order; [`merge_ready`](CellMerger::merge_ready) consumes the ready
/// prefix in input order, applying the sequential campaign's quarantine
/// semantics (consecutive-failure counting, permanent per-configuration
/// poisoning) and handing every newly computed deterministic outcome to
/// the single caller-provided persist callback. Because quarantine is decided only from
/// already-merged (strictly earlier) cells, and a confirmed quarantine is
/// permanent, the merged outcome vector — and the set of persisted
/// checkpoints — is byte-identical whatever order attempts arrive in.
pub struct CellMerger {
    /// `(app, config)` labels per cell, input order.
    ids: Vec<(String, String)>,
    configs: usize,
    quarantine_after: u32,
    quarantined: Vec<Option<String>>,
    consecutive_failures: Vec<u32>,
    pending: Vec<Option<CellAttempt>>,
    merged: Vec<CellOutcome>,
}

impl CellMerger {
    /// A merger over `apps × configs` cells. `quarantined` carries the
    /// per-configuration poisoning decided before evaluation began
    /// (failed characterizations, exhausted budget).
    pub fn new(
        apps: &[&str],
        configs: &[&str],
        quarantined: Vec<Option<String>>,
        quarantine_after: u32,
    ) -> CellMerger {
        assert_eq!(quarantined.len(), configs.len());
        let ids: Vec<(String, String)> = apps
            .iter()
            .flat_map(|a| configs.iter().map(|c| (a.to_string(), c.to_string())))
            .collect();
        let pending = ids.iter().map(|_| None).collect();
        CellMerger {
            ids,
            configs: configs.len(),
            quarantine_after,
            quarantined,
            consecutive_failures: vec![0; configs.len()],
            pending,
            merged: Vec::new(),
        }
    }

    /// Total number of cells.
    pub fn total(&self) -> usize {
        self.ids.len()
    }

    /// Number of cells merged so far.
    pub fn merged_count(&self) -> usize {
        self.merged.len()
    }

    /// The *confirmed* quarantine reason for a configuration — confirmed
    /// means decided by merged (input-order-earlier) cells only, so a
    /// worker consulting it before dispatch can never skip a cell the
    /// sequential campaign would have run.
    pub fn quarantine_reason(&self, ci: usize) -> Option<&str> {
        self.quarantined[ci].as_deref()
    }

    /// Records a worker's attempt for cell `idx`. Each cell may be offered
    /// exactly once.
    pub fn offer(&mut self, idx: usize, attempt: CellAttempt) {
        assert!(
            self.pending[idx].is_none() && idx >= self.merged.len(),
            "cell {idx} offered twice"
        );
        self.pending[idx] = Some(attempt);
    }

    /// Merges every ready cell in input order, handing newly computed
    /// deterministic outcomes to `persist(idx, outcome)` (the single
    /// serialized writer). Returns the number of cells merged by this call.
    pub fn merge_ready(&mut self, mut persist: impl FnMut(usize, &CellOutcome)) -> usize {
        let mut n = 0;
        while self.merged.len() < self.ids.len() {
            let idx = self.merged.len();
            if self.pending[idx].is_none() {
                break;
            }
            let attempt = self.pending[idx].take().expect("checked above");
            let (app, cfg) = self.ids[idx].clone();
            let ci = idx % self.configs;
            let outcome = if let Some(reason) = self.quarantined[ci].clone() {
                // Quarantine wins even when a racing worker already ran the
                // cell: the sequential campaign would have skipped it.
                CellOutcome::Skipped {
                    app,
                    config: cfg,
                    reason,
                }
            } else {
                match attempt {
                    CellAttempt::NotRun { reason } => CellOutcome::Skipped {
                        app,
                        config: cfg,
                        reason,
                    },
                    CellAttempt::Ran {
                        outcome,
                        from_store,
                    } => {
                        if !from_store && outcome.is_persistable() {
                            persist(idx, &outcome);
                        }
                        outcome
                    }
                }
            };
            match &outcome {
                CellOutcome::Ok(_) => self.consecutive_failures[ci] = 0,
                CellOutcome::Failed { .. } | CellOutcome::TimedOut { .. } => {
                    self.consecutive_failures[ci] += 1;
                    if self.consecutive_failures[ci] >= self.quarantine_after {
                        self.quarantined[ci] = Some(format!(
                            "quarantined after {} consecutive failures",
                            self.consecutive_failures[ci]
                        ));
                    }
                }
                CellOutcome::Skipped { .. } => {}
            }
            self.merged.push(outcome);
            n += 1;
        }
        n
    }

    /// The merged outcome vector; panics unless every cell was merged.
    pub fn finish(self) -> Vec<CellOutcome> {
        assert_eq!(
            self.merged.len(),
            self.ids.len(),
            "merger finished with unmerged cells"
        );
        self.merged
    }
}

/// Runs `work(i)` for every `i in 0..total` on a pool of `jobs` scoped
/// worker threads pulling indices from a shared counter. `jobs <= 1` runs
/// inline on the caller's thread (identical code path, no spawn).
fn for_each_cell(total: usize, jobs: usize, work: &(impl Fn(usize) + Sync)) {
    let jobs = jobs.clamp(1, total.max(1));
    if jobs == 1 {
        for i in 0..total {
            work(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                work(i);
            });
        }
    });
}

/// Runs one evaluation cell (isolated, watchdog-supervised, with bounded
/// panic retry) to a [`CellOutcome`]. Pure with respect to campaign state:
/// workers call this concurrently, each constructing its own
/// `ClusterMachine` inside [`evaluate`] (machines are not `Sync`).
#[allow(clippy::too_many_arguments)]
fn evaluate_cell(
    spec: &ClusterSpec,
    config: &IoConfig,
    workload: &dyn Workload,
    tset: &PerfTableSet,
    sup: &SuperviseOptions,
    faults: Option<&HostFaults>,
    app: &str,
    cfg: &str,
) -> CellOutcome {
    let eopts = EvalOptions {
        watchdog: sup.watchdog.clone(),
        faults: sup
            .cell_faults
            .as_ref()
            .map(|p| p.scenario_for(app, cfg))
            .unwrap_or_default(),
        ..EvalOptions::default()
    };
    // Each attempt observes into a fresh thread-local collector; only the
    // successful attempt's metrics reach the hub (keyed by cell identity,
    // so a retry never double-counts).
    let collector = sup.metrics.as_ref().map(|_| crate::obs::Collector::new());
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let result = {
            let _guard = collector.as_ref().map(crate::obs::Collector::install);
            run_isolated(|| {
                // Chaos cell boundary: the store's armed host faults may kill
                // this worker here, exactly as a crashed worker thread would.
                if let Some(faults) = faults {
                    faults.panic_point(ChaosSite::WorkerPanic);
                }
                evaluate(spec, config, workload.scenario(), tset, &eopts)
            })
        };
        let observed = collector.as_ref().map(|c| c.take());
        match result {
            Ok(Ok(report)) => {
                if let (Some(hub), Some(data)) = (&sup.metrics, observed) {
                    hub.add(format!("{app}::{cfg}"), data.metrics);
                }
                let prediction = predict(&report.profile, tset);
                break CellOutcome::Ok(Box::new(CampaignCell {
                    app: app.to_string(),
                    config: cfg.to_string(),
                    report,
                    prediction,
                }));
            }
            Ok(Err(EvalError::Aborted { abort, .. })) => {
                break CellOutcome::TimedOut {
                    app: app.to_string(),
                    config: cfg.to_string(),
                    abort,
                    attempts,
                };
            }
            // Config and program errors are deterministic: the same cell
            // fails identically on every attempt, so they break straight to
            // a typed failure without touching the panic-retry budget.
            Ok(Err(e @ (EvalError::Config(_) | EvalError::Program { .. }))) => {
                break CellOutcome::Failed {
                    app: app.to_string(),
                    config: cfg.to_string(),
                    error: e.to_string(),
                    attempts,
                };
            }
            // Injected host faults are transient by construction (a plan is
            // a finite set of hit indices, so the retry terminates): always
            // re-run, and keep the retry invisible to attempt accounting so
            // outcomes — and anything persisted from them — are identical
            // to a fault-free run.
            Err(panic) if is_host_fault_panic(&panic) => {
                attempts -= 1;
                continue;
            }
            // Panics may be transient (e.g. a capacity race in a model):
            // bounded retry.
            Err(_) if attempts <= sup.max_retries => continue,
            Err(panic) => {
                break CellOutcome::Failed {
                    app: app.to_string(),
                    config: cfg.to_string(),
                    error: format!("panic: {panic}"),
                    attempts,
                };
            }
        }
    }
}

/// Runs the full methodology: characterize every configuration, evaluate
/// every application on every configuration, and validate the advisor's
/// table-only predictions against the simulated outcomes.
///
/// Equivalent to [`run_campaign_supervised`] with default supervision and
/// a fresh memory-only store: cells are still panic-isolated, so a bad
/// cell degrades the campaign instead of aborting it.
pub fn run_campaign(
    spec: &ClusterSpec,
    configs: &[IoConfig],
    apps: &[AppFactory<'_>],
    opts: &CharacterizeOptions,
) -> Campaign {
    run_campaign_supervised(
        spec,
        configs,
        apps,
        opts,
        &SuperviseOptions::default(),
        &Store::memory(),
    )
}

/// What a worker learned about one configuration's characterization.
enum CharAttempt {
    /// The table set (measured, or replayed phase by phase from the store).
    Done(PerfTableSet),
    /// Characterization failed (typed error or panic message).
    Failed(String),
    /// The campaign wall budget was exhausted before this configuration
    /// was dispatched.
    Budget,
}

/// Runs a supervised, resumable, optionally parallel campaign.
///
/// Per configuration, the characterization runs through `store`: every
/// measurement phase already stored (in memory, or on disk from an earlier
/// run) replays, the rest are computed (isolated, watchdog-supervised) and
/// stored. Per cell, a stored outcome is replayed; otherwise the
/// evaluation runs isolated with bounded retry, and the resulting outcome
/// is stored when deterministic (cells persist only when the store has a
/// checkpoint directory). A configuration whose characterization fails —
/// or that accumulates `quarantine_after` consecutive cell failures — is
/// quarantined: its remaining cells are skipped. The campaign always
/// returns; inspect [`Campaign::is_degraded`] and [`Campaign::outcomes`]
/// for what survived.
///
/// With `sup.jobs > 1` the independent cells run on a bounded pool of
/// scoped worker threads. Each worker constructs its own machines (they
/// are not `Sync`); quarantine/retry state sits behind one mutex; and
/// every result flows through the input-ordered [`CellMerger`], so the
/// rendered campaign and the persisted checkpoints are byte-identical to a
/// `jobs = 1` run. The only permitted divergence is wasted work: a worker
/// may *evaluate* a cell that merge-order quarantine then discards
/// (recorded as `Skipped`, never persisted), and may read the store for
/// such a cell; outputs never differ. Wall-budget skips remain
/// host-dependent in either mode and are never persisted.
pub fn run_campaign_supervised(
    spec: &ClusterSpec,
    configs: &[IoConfig],
    apps: &[AppFactory<'_>],
    opts: &CharacterizeOptions,
    sup: &SuperviseOptions,
    store: &Store,
) -> Campaign {
    let started = Instant::now();
    let over_budget = || {
        sup.wall_budget
            .map(|b| started.elapsed() >= b)
            .unwrap_or(false)
    };
    const BUDGET_REASON: &str = "campaign wall-clock budget exhausted";

    let mut copts = opts.clone();
    if copts.watchdog.is_none() {
        copts.watchdog = sup.watchdog.clone();
    }

    // Phase 1: characterize every configuration. Each configuration is
    // independent, so the pool fans out over them; the input-order merge
    // below rebuilds the exact sequential bookkeeping.
    let char_attempts: Vec<Option<CharAttempt>> = {
        let slots: Mutex<Vec<Option<CharAttempt>>> =
            Mutex::new((0..configs.len()).map(|_| None).collect());
        for_each_cell(configs.len(), sup.jobs, &|ci| {
            let attempt = if over_budget() {
                CharAttempt::Budget
            } else {
                match run_isolated(|| characterize_system_memo(spec, &configs[ci], &copts, store)) {
                    Ok(Ok(t)) => CharAttempt::Done(t),
                    Ok(Err(e)) => CharAttempt::Failed(e.to_string()),
                    Err(panic) => CharAttempt::Failed(format!("panic: {panic}")),
                }
            };
            slots.lock().expect("slot lock")[ci] = Some(attempt);
        });
        slots.into_inner().expect("workers joined")
    };

    let mut tables: Vec<PerfTableSet> = Vec::new();
    let mut table_of: Vec<Option<usize>> = Vec::with_capacity(configs.len());
    let mut charact_errors: Vec<(String, String)> = Vec::new();
    let mut quarantined: Vec<Option<String>> = vec![None; configs.len()];
    for (ci, attempt) in char_attempts.into_iter().enumerate() {
        match attempt.expect("every config characterized") {
            CharAttempt::Done(t) => {
                table_of.push(Some(tables.len()));
                tables.push(t);
            }
            CharAttempt::Failed(e) => {
                charact_errors.push((configs[ci].name.clone(), e));
                quarantined[ci] = Some("characterization failed".to_string());
                table_of.push(None);
            }
            CharAttempt::Budget => {
                quarantined[ci] = Some(BUDGET_REASON.to_string());
                table_of.push(None);
            }
        }
    }

    // Cell keys: the inputs shaping a cell outcome are the configuration's
    // (machine, sweep, evaluation policy) plus the app label. The
    // per-configuration part is digested once, and only when cells can be
    // stored at all: without a checkpoint directory nothing per cell is
    // formatted or hashed.
    let config_digests: Option<Vec<u64>> = store.holds(Kind::Cell).then(|| {
        configs
            .iter()
            .map(|config| {
                let inputs = (
                    spec,
                    config,
                    &copts,
                    &sup.watchdog,
                    &sup.cell_faults,
                    sup.max_retries,
                );
                crate::store::digest(&inputs)
            })
            .collect()
    });
    let cell_key = |idx: usize| {
        let digests = config_digests.as_ref()?;
        let app = apps[idx / configs.len()].0;
        Some(Key::of(Kind::Cell, &(digests[idx % configs.len()], app)))
    };

    // Phase 3: evaluate every (application × configuration) cell,
    // application-major. Workers pull cells from a shared counter; all
    // quarantine state sits behind one mutex; the merger replays results
    // in input order (see `CellMerger`), so the parallel output is
    // byte-identical to the sequential one.
    let app_names: Vec<&str> = apps.iter().map(|(n, _)| *n).collect();
    let config_names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    let merger = CellMerger::new(&app_names, &config_names, quarantined, sup.quarantine_after);
    let total = merger.total();
    let merger = Mutex::new(merger);
    let faults = store.host_faults();
    for_each_cell(total, sup.jobs, &|idx| {
        let (ai, ci) = (idx / configs.len(), idx % configs.len());
        let (app, workload) = apps[ai];
        let config = &configs[ci];
        let cfg = config.name.as_str();
        let early = {
            let m = merger.lock().expect("merger lock");
            if let Some(reason) = m.quarantine_reason(ci) {
                Some(reason.to_string())
            } else if over_budget() {
                Some(BUDGET_REASON.to_string())
            } else {
                None
            }
        };
        let attempt = match early {
            Some(reason) => CellAttempt::NotRun { reason },
            None => match cell_key(idx).and_then(|k| store.get::<CellOutcome>(k)) {
                Some(stored) => CellAttempt::Ran {
                    outcome: stored,
                    from_store: true,
                },
                None => {
                    let tset =
                        &tables[table_of[ci].expect("non-quarantined configs are characterized")];
                    CellAttempt::Ran {
                        outcome: evaluate_cell(spec, config, workload, tset, sup, faults, app, cfg),
                        from_store: false,
                    }
                }
            },
        };
        let mut m = merger.lock().expect("merger lock");
        m.offer(idx, attempt);
        m.merge_ready(|i, outcome| {
            if let Some(k) = cell_key(i) {
                store.put(k, outcome);
            }
        });
    });
    let outcomes = merger.into_inner().expect("workers joined").finish();
    let store_health = store.health();

    let cells = outcomes
        .iter()
        .filter_map(|o| match o {
            CellOutcome::Ok(c) => Some((**c).clone()),
            _ => None,
        })
        .collect();
    Campaign {
        cluster: spec.name.clone(),
        tables,
        cells,
        outcomes,
        charact_errors,
        store_health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{presets, DeviceLayout, IoConfigBuilder};
    use mpisim::{MpiOp, OpStream};
    use simcore::KIB;
    use workloads::{BtClass, BtIo, BtSubtype, Scenario};

    fn quick_configs() -> Vec<IoConfig> {
        vec![
            IoConfigBuilder::new(DeviceLayout::Jbod)
                .write_cache_mib(0)
                .build(),
            IoConfigBuilder::new(DeviceLayout::Raid5 {
                disks: 5,
                stripe: 256 * KIB,
            })
            .build(),
        ]
    }

    fn bt_scenario() -> Scenario {
        BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(3)
            .gflops(20.0)
            .scenario()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ioeval-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `(file name, bytes)` of every file in `dir`, sorted by name.
    fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("store dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).expect("readable"))
            })
            .collect();
        files.sort();
        files
    }

    fn quick_campaign() -> Campaign {
        let spec = presets::test_cluster();
        let configs = quick_configs();
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
        run_campaign(&spec, &configs, &apps, &CharacterizeOptions::quick())
    }

    #[test]
    fn campaign_covers_every_cell() {
        let c = quick_campaign();
        assert_eq!(c.tables.len(), 2);
        assert_eq!(c.cells.len(), 2);
        assert!(c.cells.iter().all(|cell| cell.app == "btio-full"));
        assert!(c.best_config("btio-full").is_some());
        assert!(c.best_config("unknown").is_none());
        assert!(!c.is_degraded());
        assert_eq!(c.outcomes.len(), 2);
        assert!(c.outcomes.iter().all(CellOutcome::is_ok));
    }

    #[test]
    fn predictions_are_present_and_bounded() {
        let c = quick_campaign();
        for cell in &c.cells {
            assert!(
                cell.prediction.is_some(),
                "no prediction for {}",
                cell.config
            );
        }
        let err = c.mean_prediction_error().expect("errors computed");
        // The advisor models only the I/O path; an order of magnitude is
        // the sanity bound, typical errors are far smaller.
        assert!(err < 10.0, "mean prediction error {err}");
    }

    #[test]
    fn render_contains_all_sections() {
        let c = quick_campaign();
        let s = c.render();
        assert!(s.contains("Campaign on test"));
        assert!(s.contains("btio-full"));
        assert!(s.contains("fastest configuration"));
        assert!(s.contains("advisor check"));
        assert!(
            !s.contains("degraded campaign"),
            "healthy campaign must not report degradation"
        );
    }

    /// A rank that forever yields zero-cost ops: a livelocked cell.
    struct LivelockStream;

    impl OpStream for LivelockStream {
        fn next_op(&mut self) -> Option<MpiOp> {
            Some(MpiOp::Marker(0))
        }
    }

    fn livelock_scenario() -> Scenario {
        Scenario {
            name: "livelock".into(),
            programs: vec![Box::new(LivelockStream)],
            mounts: vec![],
            prealloc: vec![],
        }
    }

    fn panic_scenario() -> Scenario {
        panic!("injected factory failure")
    }

    #[test]
    fn panicking_and_livelocked_cells_degrade_not_abort() {
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let healthy = bt_scenario;
        let bad = panic_scenario;
        let locked = livelock_scenario;
        let apps: Vec<AppFactory> = vec![
            ("btio-full", &healthy),
            ("bad-app", &bad),
            ("livelocked-app", &locked),
        ];
        let sup = SuperviseOptions::default()
            .with_watchdog(WatchdogSpec::default().with_stall_limit(100_000));
        let c = run_campaign_supervised(
            &spec,
            &configs,
            &apps,
            &CharacterizeOptions::quick(),
            &sup,
            &Store::memory(),
        );
        assert!(c.is_degraded());
        assert_eq!(c.outcomes.len(), 3);
        assert_eq!(c.cells.len(), 1, "only the healthy cell produced a report");
        assert_eq!(c.cells[0].app, "btio-full");
        let by_app = |app: &str| {
            c.outcomes
                .iter()
                .find(|o| o.app() == app)
                .expect("outcome present")
        };
        match by_app("bad-app") {
            CellOutcome::Failed {
                error, attempts, ..
            } => {
                assert!(error.contains("injected factory failure"), "{error}");
                assert_eq!(*attempts, 2, "one retry by default");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        match by_app("livelocked-app") {
            CellOutcome::TimedOut { abort, .. } => {
                assert!(matches!(abort, Abort::Stalled { .. }), "{abort:?}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        let rendered = c.render();
        assert!(rendered.contains("degraded campaign"));
        assert!(rendered.contains("1 ok, 1 failed, 1 timed out, 0 skipped"));
        assert!(rendered.contains("injected factory failure"));
    }

    /// One rank blocks on a receive that can never match: a structurally
    /// broken program, the kind a buggy scenario grammar could emit.
    fn deadlock_scenario() -> Scenario {
        Scenario {
            name: "deadlock".into(),
            programs: vec![Box::new(mpisim::VecStream::new(vec![MpiOp::Recv {
                src: 0,
                tag: 9,
            }]))],
            mounts: vec![],
            prealloc: vec![],
        }
    }

    #[test]
    fn invalid_program_cell_fails_typed_without_burning_retries() {
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let bad = deadlock_scenario;
        let apps: Vec<AppFactory> = vec![("generated-bad", &bad)];
        let sup = SuperviseOptions::default(); // max_retries = 1
        let c = run_campaign_supervised(
            &spec,
            &configs,
            &apps,
            &CharacterizeOptions::quick(),
            &sup,
            &Store::memory(),
        );
        match &c.outcomes[0] {
            CellOutcome::Failed {
                error, attempts, ..
            } => {
                assert!(error.contains("deadlock"), "{error}");
                assert!(error.contains("invalid op program"), "{error}");
                assert_eq!(
                    *attempts, 1,
                    "typed program faults are deterministic: no retry"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn failed_characterization_quarantines_the_config() {
        let spec = presets::test_cluster();
        let configs = vec![
            IoConfigBuilder::new(DeviceLayout::Raid5 {
                disks: 1,
                stripe: 1,
            })
            .build(),
            IoConfigBuilder::new(DeviceLayout::Jbod).build(),
        ];
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
        let c = run_campaign(&spec, &configs, &apps, &CharacterizeOptions::quick());
        assert_eq!(c.tables.len(), 1, "only the valid config characterized");
        assert_eq!(c.charact_errors.len(), 1);
        assert!(c.charact_errors[0]
            .1
            .contains("invalid cluster configuration"));
        assert_eq!(c.cells.len(), 1);
        assert!(matches!(
            c.outcomes[0],
            CellOutcome::Skipped { ref reason, .. } if reason.contains("characterization failed")
        ));
        assert!(c.render().contains("characterization of"));
    }

    #[test]
    fn resumed_campaign_replays_checkpointed_cells_byte_identically() {
        let spec = presets::test_cluster();
        let configs = quick_configs();
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
        let opts = CharacterizeOptions::quick();
        let sup = SuperviseOptions::default();

        let dir = scratch("resume");
        let store = Store::open(&dir).unwrap();
        let first = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &store);
        assert_eq!(store.kind_stats(Kind::Cell), (0, 2), "both cells computed");
        let (_, phases) = store.kind_stats(Kind::Phase);
        assert!(phases > 0, "a cold store measures every phase");

        // A fresh store over the same directory: the in-process state is
        // gone, the checkpoints are not.
        let store = Store::open(&dir).unwrap();
        let resumed = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &store);
        assert_eq!(
            store.kind_stats(Kind::Phase),
            (phases, 0),
            "no phase simulated"
        );
        assert_eq!(store.kind_stats(Kind::Cell), (2, 0), "outcomes replayed");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            first.render(),
            resumed.render(),
            "resume must be byte-identical"
        );
    }

    #[test]
    fn quarantine_after_consecutive_failures() {
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let bad = panic_scenario;
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![
            ("bad-1", &bad),
            ("bad-2", &bad),
            ("late-healthy", &bt), // skipped: config quarantined by then
        ];
        let sup = SuperviseOptions {
            max_retries: 0,
            quarantine_after: 2,
            ..SuperviseOptions::default()
        };
        let c = run_campaign_supervised(
            &spec,
            &configs,
            &apps,
            &CharacterizeOptions::quick(),
            &sup,
            &Store::memory(),
        );
        assert_eq!(c.outcomes.len(), 3);
        assert!(matches!(
            c.outcomes[0],
            CellOutcome::Failed { attempts: 1, .. }
        ));
        assert!(matches!(c.outcomes[1], CellOutcome::Failed { .. }));
        assert!(matches!(
            c.outcomes[2],
            CellOutcome::Skipped { ref reason, .. } if reason.contains("quarantined")
        ));
        assert!(c.cells.is_empty());
    }

    #[test]
    fn exhausted_wall_budget_skips_remaining_cells() {
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
        let sup = SuperviseOptions::default().with_wall_budget(Duration::ZERO);
        let c = run_campaign_supervised(
            &spec,
            &configs,
            &apps,
            &CharacterizeOptions::quick(),
            &sup,
            &Store::memory(),
        );
        assert!(c.cells.is_empty());
        assert!(c.outcomes.iter().all(
            |o| matches!(o, CellOutcome::Skipped { reason, .. } if reason.contains("budget"))
        ));
        // Budget skips are host-dependent: never checkpointed.
        assert!(!c.outcomes[0].is_persistable());
    }

    #[test]
    fn parallel_jobs_render_byte_identical_to_sequential() {
        let spec = presets::test_cluster();
        let configs = quick_configs();
        let healthy = bt_scenario;
        let bad = panic_scenario;
        // A failing app in the middle exercises quarantine bookkeeping
        // under concurrency, not just the happy path.
        let apps: Vec<AppFactory> = vec![
            ("btio-full", &healthy),
            ("bad-app", &bad),
            ("btio-late", &healthy),
        ];
        let opts = CharacterizeOptions::quick();
        let run = |jobs: usize| {
            let sup = SuperviseOptions {
                max_retries: 0,
                quarantine_after: 1,
                ..SuperviseOptions::default()
            }
            .with_jobs(jobs);
            let dir = scratch(&format!("jobs-{jobs}"));
            let store = Store::open(&dir).unwrap();
            let c = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &store);
            let persisted = dir_files(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (c.render(), persisted)
        };
        let (seq_render, seq_persisted) = run(1);
        for jobs in [4, 8] {
            let (render, persisted) = run(jobs);
            assert_eq!(seq_render, render, "jobs={jobs} render differs");
            assert_eq!(
                seq_persisted, persisted,
                "jobs={jobs} persisted checkpoints differ"
            );
        }
        // The quarantine actually bit: everything after bad-app's failure
        // on each config is skipped, in both modes.
        assert!(seq_render.contains("quarantined"));
    }

    #[test]
    fn parallel_jobs_aggregate_identical_metrics() {
        let spec = presets::test_cluster();
        let configs = quick_configs();
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-a", &bt), ("btio-b", &bt)];
        let opts = CharacterizeOptions::quick();
        let run = |jobs: usize| {
            let hub = Arc::new(crate::obs::MetricsHub::new());
            let sup = SuperviseOptions {
                metrics: Some(hub.clone()),
                ..SuperviseOptions::default()
            }
            .with_jobs(jobs);
            let c = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &Store::memory());
            assert_eq!(c.cells.len(), hub.len(), "one hub entry per cell");
            crate::obs::render_obs_metrics(&hub.aggregate(), simcore::Time::from_secs(1))
        };
        let seq = run(1);
        assert!(seq.contains("I/O Lib"), "{seq}");
        assert_eq!(seq, run(4), "metrics aggregate must not depend on jobs");
    }

    #[test]
    fn cell_fault_policy_is_jobs_invariant() {
        let spec = presets::test_cluster();
        let configs = vec![IoConfigBuilder::new(DeviceLayout::Jbod).build()];
        let bt = bt_scenario;
        let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
        let opts = CharacterizeOptions::quick();
        let policy = CellFaultPolicy {
            seed: 11,
            horizon: simcore::Time::from_secs(20),
            profile: FaultProfile {
                disks: 4,
                slowdowns: 1,
                ..FaultProfile::default()
            },
        };
        let run = |jobs: usize| {
            let sup = SuperviseOptions::default()
                .with_jobs(jobs)
                .with_cell_faults(policy.clone());
            run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &Store::memory()).render()
        };
        assert_eq!(
            run(1),
            run(4),
            "per-cell fault injection must not depend on jobs"
        );
    }

    #[test]
    fn outcomes_roundtrip_through_serde() {
        let o = CellOutcome::TimedOut {
            app: "a".into(),
            config: "c".into(),
            abort: Abort::Stalled {
                events: 9,
                at: simcore::Time(5),
            },
            attempts: 1,
        };
        let json = serde_json::to_string(&o).unwrap();
        let back: CellOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.app(), "a");
        assert_eq!(back.label(), "timed out");
        assert!(back.is_persistable());
    }
}
