//! One benchmark run of one workload: set-up, warm-up, measured
//! iterations (untraced) or the counting and timing passes (traced), the
//! output checks, and the metrics they yield.

use crate::manifest::MetricDef;
use crate::stats::{self, MetricSamples, RunResult, Summary};
use crate::trace::{CallCounts, CallKind, Tracer};
use crate::workload::{self, Iteration, Params, Setup, Workload, CHARACT_LEVELS};
use ioeval_core::obs::{Collector, ObsMetrics};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest measured iterations (or timing passes) per run, however short
/// `--seconds`.
pub const MIN_ROUNDS: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed, size and worker threads.
    pub params: Params,
    /// How long the measured part runs, in seconds.
    pub seconds: f64,
    /// Traced (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// What a run produced.
pub struct RunOutcome {
    /// Metrics and item counts.
    pub result: RunResult,
    /// First digest seen per output label.
    pub outputs: BTreeMap<String, u64>,
    /// One line per failed or mismatching item.
    pub errors: Vec<String>,
    /// Every span recorded.
    pub tracer: Tracer,
}

/// Compares every output with the pinned digest for its label, or else
/// with the first digest seen for that label in this run, so iterations
/// must agree with each other and traced passes with untraced ones.
struct Checker<'a> {
    expected: Option<&'a BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(expected: Option<&'a BTreeMap<String, u64>>) -> Checker<'a> {
        Checker {
            expected,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn check(&mut self, it: &Iteration) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        self.errors.extend(it.errors.iter().cloned());
        for o in &it.outputs {
            let want = self
                .expected
                .and_then(|e| e.get(&o.label))
                .or_else(|| self.seen.get(&o.label))
                .copied();
            if let Some(want) = want.filter(|&d| d != o.digest) {
                self.failed += o.weight;
                self.errors.push(format!(
                    "{}: output digest {:016x}, expected {want:016x}",
                    o.label, o.digest
                ));
            }
            self.seen.entry(o.label.clone()).or_insert(o.digest);
        }
    }

    /// Pinned labels that no iteration produced.
    fn missing(&self) -> Vec<String> {
        self.expected
            .into_iter()
            .flat_map(|e| e.keys())
            .filter(|label| !self.seen.contains_key(*label))
            .map(|label| format!("{label}: pinned output never produced"))
            .collect()
    }
}

/// Metric samples under construction.
#[derive(Default)]
struct Metrics(Vec<MetricSamples>);

impl Metrics {
    fn push(
        &mut self,
        name: impl Into<String>,
        unit: &str,
        statistic: &str,
        value: f64,
        samples: Vec<f64>,
    ) {
        self.0.push(MetricSamples {
            name: name.into(),
            unit: unit.to_string(),
            statistic: statistic.to_string(),
            value,
            samples,
        });
    }

    /// A metric reported as the median of `samples`.
    fn median(&mut self, name: impl Into<String>, unit: &str, samples: Vec<f64>) {
        self.push(name, unit, "median", median(&samples), samples);
    }

    /// A metric measured once.
    fn one(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.median(name, unit, vec![value]);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map_or(0.0, |s| s.median)
}

/// Restarts the peak-resident-set count at the current resident set
/// (Linux: writing `5` to the process's own `clear_refs`). Where that is
/// not possible the peak keeps counting from process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Set-up times, and the characterization time per level within each.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<f64>,
    charact_s: [Vec<f64>; CHARACT_LEVELS.len()],
}

impl SetupSamples {
    /// Sets `w` up once more and records how long it took.
    fn measure(&mut self, w: Workload, p: &Params, tr: &mut Tracer) -> Result<Setup, String> {
        let from = tr.spans().len();
        let t = Instant::now();
        let s = workload::setup(w, p, tr)?;
        self.setup_s.push(secs(t));
        for (samples, level) in self.charact_s.iter_mut().zip(CHARACT_LEVELS) {
            let name = workload::charact_span(level);
            let ns: u64 = tr.spans()[from..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ns())
                .sum();
            samples.push(ns as f64 / 1e9);
        }
        Ok(s)
    }
}

/// The layer spans of one `evaluate` replica, in call order.
const LAYER_SPANS: [&str; 6] = [
    "workloads.gen",
    "cluster.build",
    "workloads.install",
    "mpisim.run",
    "core.profile",
    "core.usage_search",
];
const RUN: usize = 3;

/// Host time of one replica pass, by layer.
#[derive(Default)]
struct PassLayers {
    /// Summed `item` spans: the pass's evaluations end to end.
    item_ns: u64,
    /// Summed spans per [`LAYER_SPANS`] entry.
    layer_ns: [u64; LAYER_SPANS.len()],
    /// `Machine` calls under `mpisim.run`.
    calls: CallCounts,
}

impl PassLayers {
    /// Sums the spans recorded since span index `from`.
    fn since(tr: &Tracer, from: usize) -> PassLayers {
        let mut p = PassLayers::default();
        for s in &tr.spans()[from..] {
            if s.name == "item" {
                p.item_ns += s.ns();
            } else if let Some(i) = LAYER_SPANS.iter().position(|&n| n == s.name) {
                p.layer_ns[i] += s.ns();
            }
        }
        for c in tr.calls().iter().filter(|c| c.parent >= from) {
            p.calls.calls[c.kind as usize] += c.calls;
            p.calls.ns[c.kind as usize] += c.ns;
        }
        p
    }

    fn item_s(&self) -> f64 {
        self.item_ns as f64 / 1e9
    }

    fn self_ns(&self) -> u64 {
        self.layer_ns[RUN].saturating_sub(self.calls.total_ns())
    }

    fn share(&self, ns: u64) -> f64 {
        ratio(ns as f64, self.item_ns as f64)
    }
}

/// The state of one run: its checks, spans, set-up samples and metrics.
struct Ctx<'a> {
    cfg: &'a RunConfig,
    tr: Tracer,
    check: Checker<'a>,
    setups: SetupSamples,
    m: Metrics,
}

/// Runs one workload and checks every output; `defs` names the metrics
/// to report and `expected` the pinned output digests, if any.
pub fn run(
    cfg: &RunConfig,
    defs: &[MetricDef],
    expected: Option<&BTreeMap<String, u64>>,
) -> Result<RunOutcome, String> {
    let mut c = Ctx {
        cfg,
        tr: Tracer::new(),
        check: Checker::new(expected),
        setups: SetupSamples::default(),
        m: Metrics::default(),
    };
    let (w, p) = (cfg.workload, &cfg.params);
    let s = c.setups.measure(w, p, &mut c.tr)?;
    let warm = workload::iterate(w, &s, p, p.jobs, &mut c.tr);
    c.check.check(&warm);
    if cfg.trace {
        traced(&mut c, &s, &warm)?;
    } else {
        untraced(&mut c, &s)?;
    }

    let mut errors = c.check.errors.clone();
    errors.extend(c.check.missing());
    let mut produced = c.m.0;
    let mut metrics = Vec::new();
    for def in defs {
        match produced.iter().position(|x| x.name == def.name) {
            Some(i) if produced[i].unit == def.unit => metrics.push(produced.remove(i)),
            Some(i) => errors.push(format!(
                "{}: measured in {}, BENCHMARK.json says {}",
                def.name, produced[i].unit, def.unit
            )),
            None => errors.push(format!(
                "{}: listed in BENCHMARK.json, not measured",
                def.name
            )),
        }
    }
    for extra in produced {
        eprintln!(
            "note: {} is measured but not listed in BENCHMARK.json",
            extra.name
        );
    }
    Ok(RunOutcome {
        result: RunResult {
            workload: w.name().to_string(),
            trace: cfg.trace,
            correct: errors.is_empty() && c.check.failed == 0,
            attempted: c.check.attempted,
            failed: c.check.failed,
            metrics,
        },
        outputs: c.check.seen,
        errors,
        tracer: c.tr,
    })
}

/// Iterations until `--seconds` have passed, each after one more set-up,
/// so set-up times are sampled across the whole run rather than in one
/// burst. The resident-set peak restarts at each iteration; what the
/// allocator retains from earlier iterations, and how the grid's two
/// workers happen to interleave, only ever add to an iteration's peak.
fn untraced(c: &mut Ctx, s: &Setup) -> Result<(), String> {
    let (w, p) = (c.cfg.workload, &c.cfg.params);
    let (mut items, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while items.len() < MIN_ROUNDS || secs(start) < c.cfg.seconds {
        c.setups.measure(w, p, &mut c.tr)?;
        reset_peak_rss();
        let it = workload::iterate(w, s, p, p.jobs, &mut c.tr);
        rss.extend(peak_rss_mib());
        c.check.check(&it);
        items.push(it.item_s);
    }
    let walls = items.iter().map(|row| row.iter().sum()).collect();
    let floor = stats::item_min_sum(&items);
    c.m.push("wall_min_s", "s", "sum of per-item minima", floor, walls);
    c.m.median("setup_s", "s", std::mem::take(&mut c.setups.setup_s));
    if !rss.is_empty() {
        c.m.push("peak_rss_min_mb", "MiB", "min", stats::min(&rss), rss);
    }
    Ok(())
}

/// The per-layer passes: workload-specific extra iterations, one counting
/// pass, then timing passes until `--seconds` have passed since the first
/// of them.
fn traced(c: &mut Ctx, s: &Setup, warm: &Iteration) -> Result<(), String> {
    let (w, p) = (c.cfg.workload, &c.cfg.params);
    let start = Instant::now();
    // The grid's campaign once more on its workers and once on one thread,
    // both warm, for the parallel-efficiency figure.
    let mut jobs_walls = None;
    if w == Workload::Grid {
        let t = Instant::now();
        c.check
            .check(&workload::iterate(w, s, p, p.jobs, &mut c.tr));
        let at_jobs = secs(t);
        let t = Instant::now();
        c.check.check(&workload::iterate(w, s, p, 1, &mut c.tr));
        jobs_walls = Some((at_jobs, secs(t)));
    }
    // repro-quick: one more iteration whose experiment spans give each
    // experiment's share of the wall time.
    let mut exp_share = BTreeMap::new();
    if w == Workload::ReproQuick {
        let from = c.tr.spans().len();
        c.check
            .check(&workload::iterate(w, s, p, p.jobs, &mut c.tr));
        let spans = &c.tr.spans()[from..];
        let wall = spans[0].ns() as f64;
        for span in spans {
            if let Some(id) = span.name.strip_prefix("bench.exp.") {
                exp_share.insert(id.to_string(), span.ns() as f64 / wall);
            }
        }
    }

    // Counting pass: the replica with the observability collector
    // installed, kept apart from the timing passes so counting never
    // inflates a timing.
    let collector = Collector::with_capacity(0);
    let counted = {
        let _guard = collector.install();
        workload::replica(w, s, p, &mut c.tr, false)
    };
    c.check.check(&counted);

    // Timing passes: the replica through `evaluate`, then through the
    // timed copy of its steps, alternating until the time is up.
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    let mut ops = (0, 0);
    while timed.len() < MIN_ROUNDS || secs(start) < c.cfg.seconds {
        c.setups.measure(w, p, &mut c.tr)?;
        let from = c.tr.spans().len();
        c.check.check(&workload::replica(w, s, p, &mut c.tr, false));
        plain.push(PassLayers::since(&c.tr, from));
        let from = c.tr.spans().len();
        let it = workload::replica(w, s, p, &mut c.tr, true);
        c.check.check(&it);
        ops = (it.io_ops, it.meta_ops);
        timed.push(PassLayers::since(&c.tr, from));
    }
    let plain_s: Vec<f64> = plain.iter().map(PassLayers::item_s).collect();
    let timed_s: Vec<f64> = timed.iter().map(PassLayers::item_s).collect();

    let m = &mut c.m;
    let per_pass = |f: &dyn Fn(&PassLayers) -> f64| timed.iter().map(f).collect::<Vec<_>>();
    m.median(
        "mpisim.self.share",
        "ratio",
        per_pass(&|t| t.share(t.self_ns())),
    );
    m.median(
        "mpisim.self_ns_per_op",
        "ns",
        per_pass(&|t| ratio(t.self_ns() as f64, ops.0 as f64)),
    );
    m.one("mpisim.io_ops", "count", ops.0 as f64);
    m.one("mpisim.meta_ops", "count", ops.1 as f64);
    let calls = timed.last().expect("at least one timing pass").calls;
    for kind in CallKind::ALL {
        let (k, label) = (kind as usize, kind.label());
        m.one(format!("{label}.calls"), "count", calls.calls[k] as f64);
        m.median(
            format!("{label}.share"),
            "ratio",
            per_pass(&|t| t.share(t.calls.ns[k])),
        );
        if matches!(kind, CallKind::IoWrite | CallKind::IoRead) {
            m.median(
                format!("{label}.ns_per_call"),
                "ns",
                per_pass(&|t| ratio(t.calls.ns[k] as f64, t.calls.calls[k] as f64)),
            );
        }
    }
    for (i, name) in LAYER_SPANS.iter().enumerate().filter(|&(i, _)| i != RUN) {
        m.median(
            format!("{name}.share"),
            "ratio",
            per_pass(&|t| t.share(t.layer_ns[i])),
        );
    }
    m.median("harness.timed_wall_s", "s", timed_s.clone());
    m.median(
        "harness.accounted_ratio",
        "ratio",
        per_pass(&|t| t.share(t.layer_ns.iter().sum())),
    );
    m.one(
        "harness.trace_overhead",
        "ratio",
        median(&timed_s) / median(&plain_s) - 1.0,
    );

    counting_metrics(m, &collector.metrics());

    for (samples, level) in std::mem::take(&mut c.setups.charact_s)
        .into_iter()
        .zip(CHARACT_LEVELS)
    {
        m.median(format!("{}_s", workload::charact_span(level)), "s", samples);
    }
    m.one(
        "core.charact.points",
        "count",
        workload::charact_points(s) as f64,
    );

    let memo = warm.memo.unwrap_or_default();
    m.one("core.memo.hits", "count", memo.hits as f64);
    m.one("core.memo.misses", "count", memo.misses as f64);
    m.one("core.memo.phase_hits", "count", memo.phase_hits as f64);
    m.one("core.memo.phase_misses", "count", memo.phase_misses as f64);
    m.one(
        "core.memo.phase_hit_ratio",
        "ratio",
        ratio(
            memo.phase_hits as f64,
            (memo.phase_hits + memo.phase_misses) as f64,
        ),
    );

    let (ok, not_ok) = warm.cells.unwrap_or_default();
    m.one("core.campaign.cells_ok", "count", ok as f64);
    m.one("core.campaign.cells_failed", "count", not_ok as f64);
    let (efficiency, overhead) = jobs_walls.map_or((0.0, 0.0), |(at_jobs, one)| {
        let per_cell = one / warm.attempted as f64;
        let replica_per_cell = median(&plain_s) / counted.attempted as f64;
        (
            one / (p.jobs as f64 * at_jobs),
            per_cell / replica_per_cell - 1.0,
        )
    });
    m.one("core.campaign.parallel_efficiency", "ratio", efficiency);
    m.one("core.campaign.overhead_ratio", "ratio", overhead);

    for id in workload::experiment_ids() {
        let share = exp_share.get(id).copied().unwrap_or(0.0);
        m.one(format!("bench.exp.{id}.share"), "ratio", share);
    }
    Ok(())
}

/// The counting pass's per-layer counters.
fn counting_metrics(m: &mut Metrics, obs: &ObsMetrics) {
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    m.one("netsim.messages", "count", obs.net_messages as f64);
    m.one("storage.bulk_runs", "count", obs.bulk_runs as f64);
    m.one("storage.granular_runs", "count", obs.granular_runs as f64);
    m.one(
        "storage.bulk_ratio",
        "ratio",
        ratio(
            obs.bulk_runs as f64,
            (obs.bulk_runs + obs.granular_runs) as f64,
        ),
    );
    m.one(
        "fs.cache.hit_ratio",
        "ratio",
        ratio(
            obs.cache_hit_bytes as f64,
            (obs.cache_hit_bytes + obs.cache_miss_bytes) as f64,
        ),
    );
    m.one("fs.cache.miss_mib", "MiB", mib(obs.cache_miss_bytes));
    m.one("fs.cache.evict_mib", "MiB", mib(obs.cache_evict_bytes));
    m.one("fs.writeback_mib", "MiB", mib(obs.writeback_bytes));
    m.one("fs.nfs.retries", "count", obs.nfs_retries as f64);
}
