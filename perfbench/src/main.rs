//! # perfbench — end-to-end and per-layer benchmark of the methodology
//!
//! The methodology has three phases — characterize the system,
//! characterize the application, evaluate it on every configuration — and
//! users wait on whole runs of them: a BT-IO evaluation, a campaign grid,
//! `repro all`. This harness times those runs end to end with tracing off,
//! breaks them down by layer in a separate traced run, and checks every
//! output it times.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--seed S] [--workload NAME]... [--seconds T] [--out FILE] [--trace-out FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed S --seconds T --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! Without `--trace`, every named workload (default: all four) runs in a
//! child process of its own, one at a time: first untraced, then traced.
//! The parent prints each metric with its unit, reported value, n, median
//! and quartiles, and writes the combined results (`--out`) and spans
//! (`--trace-out`). With `--trace`, one workload runs in this process and
//! the last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (each metric's reported value with
//! its unit). `compare` applies the verdict rules of [`compare`] to
//! results files of two commits.
//!
//! Each child runs at most `min(2, available_parallelism)` threads and
//! ignores `IOEVAL_JOBS`. A debug build refuses to time anything except
//! with `--smoke`, which shrinks every input to seconds of debug time.
//!
//! ## Workloads
//!
//! | name | one iteration | why |
//! |---|---|---|
//! | `btio-simple` | `evaluate` of NAS BT-IO class B *simple*, 16 processes, 6 dumps, on Aohyper JBOD, RAID 1 and RAID 5 (about 0.9 s on a 2-vCPU VM) | The paper's worst case: about 0.5M strided 0.8–1.6 KiB MPI-IO operations per configuration over NFS. Stresses MPI dispatch in `mpisim` and the small-RPC path of `fs`/`netsim`. |
//! | `madbench` | `evaluate` of MADbench2, 16 processes, 18 KPIX, UNIQUE and SHARED, on the same three configurations (about 2.2 s) | 512 synchronous 162 MiB reads and writes per evaluation, so reads and writes both pass through the page cache and storage volumes (at 12 KPIX reads never leave the cache): host time sits below the `Machine` boundary and `mpisim` self time is near zero. The negative control for any dispatch or small-RPC change. |
//! | `grid` | a fresh quick-scale `bench::Repro` running the `scenario` experiment over 2,500 sampled variants × 4 configurations (10,000 cells, cold memo) on `min(2, nproc)` workers (about 0.7 s) | Host time goes to per-cell overhead — scheduling, memo, evaluation set-up, usage search, rendering — not to simulation. The only parallel workload, and the one with the largest heap. |
//! | `repro-quick` | a fresh `Repro::new(Scale::Quick).with_jobs(1)` running every registry experiment in order: what `repro all --scale quick` prints (about 2.9 s) | The paper-regeneration command users run; the only workload where duplicated work across experiments shows. |
//!
//! Set-up characterizes every configuration the workload runs on at the
//! quick sweep (the methodology's phase 1), and samples the grid's
//! variants; `btio-simple` and `madbench` evaluate against those tables.
//! The first set-up feeds the iterations; one more runs before every
//! measured iteration, so set-up times are sampled across the whole run.
//!
//! ## Seeds and output checks
//!
//! `--seed` (default 42) makes the inputs. Seed 42 leaves the cluster
//! presets and the scenario seed as the repository ships them; any other
//! seed is mixed into `ClusterSpec::seed` (btio-simple, madbench) and
//! becomes the scenario sampler seed (grid, and repro-quick's `scenario`
//! experiment). Every output is digested with 64-bit FNV-1a: each
//! `EvalReport` JSON, the grid render, each experiment's text. For seed 42
//! the digests must equal `perfbench/expected.json`; for every seed each
//! iteration must equal the first, and traced passes must equal untraced
//! ones. A mismatch counts as failed items and makes the exit code
//! nonzero. After a deliberate output change, copy the new digests from
//! the `outputs` section of a seed-42 `--out` file.
//!
//! ## End-to-end metrics (untraced run)
//!
//! * `wall_min_s` (s) — host seconds of one iteration with every item at
//!   its fastest: each item (an evaluation, the grid's campaign, an
//!   experiment) is timed on its own, and the metric is the sum over
//!   items of each item's fastest time in the run. One warm-up iteration,
//!   then iterations until `--seconds` have passed (at least three).
//! * `setup_s` (s) — median host seconds of one set-up.
//! * `peak_rss_min_mb` (MiB) — the lowest, over iterations, of the
//!   process's peak resident set (`VmHWM`) during one iteration; the peak
//!   restarts at the resident set held when each iteration begins.
//!
//! Why minima: on a VM that shares its cores with other machines,
//! contention arrives in bursts of seconds that slow the simulator (not an
//! ALU-only loop) by up to 2×, and no allocator or page-fault setting
//! removes them. Over 20-second windows of one-second iterations, the
//! median moved 12% (interquartile range over median) between windows
//! while the fastest iteration moved 2–3%; runs of six 3-second
//! repro-quick iterations sometimes met no quiet iteration at all, which
//! timing each item on its own avoids. Contention only ever adds time, so
//! each item's fastest time is the steadiest estimate of what its work
//! costs. Memory behaves alike: what the allocator retains and how the
//! grid's workers interleave only ever add to a peak, and the grid's median
//! per-iteration peak moved 5% between runs while its lowest moved 1%. The
//! samples behind each value — whole-iteration times for `wall_min_s` —
//! are printed with n, median and quartiles (and, from eleven samples on,
//! the highest percentile with ten samples beyond it) and kept in `--out`.
//!
//! Failures are not a metric: they are the `failed` count against
//! `attempted` items (an evaluation, a grid cell or an experiment).
//!
//! ## Per-layer metrics (traced run)
//!
//! Layers are timed only from outside, at their public boundaries. The
//! traced run repeats each workload's *replica* — the evaluations it runs
//! through `evaluate`: all of them for btio-simple and madbench, the grid's
//! first 1,000 cells, and the six BT-IO evaluations behind repro-quick's
//! `fig12` — in three forms: through `evaluate` untraced, through
//! `evaluate` with `ioeval_core::obs::Collector` installed (the counting
//! pass, once), and through a copy of `evaluate`'s steps with a span around
//! each and the machine wrapped in [`trace::TimedMachine`] (the timing
//! pass). Timing and counting never share a pass. Time metrics are shares
//! of the timing pass's evaluation time (`harness.timed_wall_s`), so a
//! layer a workload never calls reads 0 rather than a meaningless time.
//!
//! | metric | measured by | should move | on | flat on |
//! |---|---|---|---|---|
//! | `mpisim.self.share`, `mpisim.self_ns_per_op` | `Runtime::run` span minus the wrapped `Machine` calls; per `RunStats` data op | `wall_min_s` | btio-simple | madbench |
//! | `mpisim.io_ops`, `mpisim.meta_ops` | `RunStats` of the timing pass (exact repeats) | — | all | — |
//! | `netsim.mpi_send.{calls,share}` | wrapped `Machine::mpi_send` | `wall_min_s` | btio-simple | madbench |
//! | `cluster.io_{write,read}.{calls,share,ns_per_call}`, `cluster.io_other.{calls,share}` | wrapped `Machine::io_*` (`cluster` routing and everything under it: `fs`, `storage`, NFS traffic in `netsim`) | `wall_min_s` | btio-simple (small RPCs), madbench (bulk) | grid |
//! | `netsim.messages` | counting pass, `ObsMetrics::net_messages` | `wall_min_s` | btio-simple | madbench |
//! | `storage.{bulk_runs,granular_runs,bulk_ratio}` | counting pass | `wall_min_s` | madbench | btio-simple |
//! | `fs.cache.{hit_ratio,miss_mib,evict_mib}`, `fs.writeback_mib` | counting pass | `wall_min_s` | madbench | btio-simple |
//! | `fs.nfs.retries` | counting pass (0 when healthy) | failures | all | — |
//! | `workloads.gen.share`, `cluster.build.share`, `workloads.install.share` | spans around `scenario()`, `ClusterMachine::try_new`, `Scenario::install` | `wall_min_s` | grid | btio-simple |
//! | `core.profile.share`, `core.usage_search.share` | spans around `ProfileSink::finish`, `usage_table` + `marker_usage_table` | `wall_min_s` | grid | btio-simple |
//! | `core.charact.{localfs_s,globalfs_s,library_s,points}` | set-up: `characterize_system` one level at a time on the workload's configurations | `setup_s` | all | — |
//! | `core.memo.{hits,misses,phase_hits,phase_misses,phase_hit_ratio}` | `Repro::memo_stats`, `memo_phase_stats` after the warm-up iteration (0 without a `Repro`) | `wall_min_s` | repro-quick, grid | — |
//! | `core.campaign.{cells_ok,cells_failed}` | the grid render's outcome line | failures | grid | — |
//! | `core.campaign.parallel_efficiency` | one-worker wall ÷ (workers × multi-worker wall) | `wall_min_s` | grid | — |
//! | `core.campaign.overhead_ratio` | one-worker grid time per cell ÷ untraced replica evaluation time per cell − 1 | `wall_min_s` | grid | — |
//! | `bench.exp.<id>.share` (one per experiment) | each registry call's share of a warm repro-quick iteration | `wall_min_s` | repro-quick | others |
//! | `harness.timed_wall_s`, `harness.accounted_ratio` | summed evaluation spans of a timing pass; the share of them the layer spans cover | — | all | — |
//! | `harness.trace_overhead` | evaluation time of the timing pass ÷ that of the untraced replica − 1 | — | all | — |
//!
//! Metrics that do not apply to a workload read 0. `simcore`'s event queue
//! and the `ProfileSink` fall inside `mpisim.self.share` until spans exist
//! inside the program.
//!
//! ## Reading the trace
//!
//! `--trace-out FILE` writes, per workload, every span as `{id, parent,
//! name, start_ns, end_ns, self_ns}` (ns since the run began; `self_ns` is
//! the duration minus child spans and aggregated calls) and every call
//! aggregate as `{parent, kind, calls, ns}`. Spans nest `setup` →
//! `core.charact.<level>`; `iteration` → `item` or `bench.exp.<id>`;
//! `replica` / `replica.timed` → `item` → the layer spans, with the
//! `Machine` calls aggregated under `mpisim.run`.
//!
//! ## What the traced run binds to
//!
//! A change to any of these public APIs must keep this harness compiling:
//! `ioeval_core::eval::{evaluate, usage_table, marker_usage_table,
//! usage_notes, EvalReport}`, `ioeval_core::trace::ProfileSink`,
//! `ioeval_core::charact::characterize_system`, `ioeval_core::obs::Collector`,
//! `cluster::ClusterMachine::{try_new, install_faults, apply_faults_up_to}`,
//! `mpisim::{Machine, Runtime::run_supervised, RunStats}`,
//! `workloads::{Scenario::install, BtIo, MadBench, grammar::Grammar}`, and
//! `bench::{Repro, scenario_grid::scenario, experiments::registry}`.

mod compare;
mod manifest;
mod run;
mod stats;
mod trace;
mod workload;

use manifest::Manifest;
use run::{RunConfig, RunOutcome};
use serde_json::{Map, Number, Value};
use stats::{num, RunResult, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Params, Workload, DEFAULT_SEED};

/// Pinned seed-42 output digests.
const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str = "usage: perfbench [--seed S] [--workload NAME]... [--seconds T] \
[--trace 0|1] [--out FILE] [--trace-out FILE] [--smoke]\n       \
perfbench compare PARENT.json... -- CHANGE.json...";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        out: None,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a
                .workloads
                .push(Workload::parse(value).ok_or(format!("unknown workload {value}"))?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Worker threads a run may use: at most two, and no more than the host
/// has.
fn thread_cap() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(2))
}

/// The commit being measured, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let rev = read(&git.join("HEAD")).and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
            }),
    });
    rev.unwrap_or_else(|| "unknown".to_string())
}

fn header(a: &Args, seconds: f64) -> Map {
    let (nproc, jobs) = thread_cap();
    let n = |x: u64| Value::Number(Number::PosInt(x));
    let mut h = Map::new();
    h.insert("schema", n(1));
    h.insert("nproc", n(nproc as u64));
    h.insert("jobs", n(jobs as u64));
    h.insert("seed", n(a.seed));
    h.insert("seconds", num(seconds));
    h.insert("smoke", Value::Bool(a.smoke));
    h.insert(
        "build",
        Value::String(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    );
    h.insert("git_rev", Value::String(git_rev()));
    h
}

/// The pinned digests of `w`, when `seed` and size have pinned outputs.
fn expected_for(w: Workload, a: &Args) -> Result<Option<BTreeMap<String, u64>>, String> {
    if a.seed != DEFAULT_SEED || a.smoke {
        return Ok(None);
    }
    let v: Value = serde_json::from_str(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let outputs = v["outputs"][w.name()]
        .as_object()
        .ok_or(format!("expected.json has no outputs for {}", w.name()))?;
    outputs
        .iter()
        .map(|(label, d)| {
            let d = d
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(format!("expected.json: bad digest for {label}"))?;
            Ok((label.clone(), d))
        })
        .collect::<Result<_, String>>()
        .map(Some)
}

fn outputs_json(outputs: &BTreeMap<String, u64>) -> Value {
    let mut o = Map::new();
    for (label, d) in outputs {
        o.insert(label.clone(), Value::String(format!("{d:016x}")));
    }
    Value::Object(o)
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_table(runs: &[RunResult]) {
    println!(
        "{:<12} {:<38} {:<6} {:>14} {:>3} {:>14} {:>14} {:>14}  tail",
        "workload", "metric", "unit", "value", "n", "median", "q1", "q3"
    );
    for r in runs {
        for m in &r.metrics {
            let Some(s) = Summary::of(&m.samples) else {
                continue;
            };
            let tail = s
                .tail
                .map_or("-".to_string(), |(p, v)| format!("p{p} {v:.6}"));
            println!(
                "{:<12} {:<38} {:<6} {:>14.6} {:>3} {:>14.6} {:>14.6} {:>14.6}  {tail}",
                r.workload, m.name, m.unit, m.value, s.n, s.median, s.q1, s.q3
            );
        }
        println!(
            "{:<12} {:<38} {}/{} items failed, outputs {}",
            r.workload,
            if r.trace {
                "(traced run)"
            } else {
                "(untraced run)"
            },
            r.failed,
            r.attempted,
            if r.correct { "correct" } else { "WRONG" }
        );
    }
}

/// One workload in this process: the driver protocol.
fn single(a: &Args, manifest: &Manifest, trace: bool) -> Result<bool, String> {
    let [w] = a.workloads[..] else {
        return Err("--trace runs exactly one --workload".to_string());
    };
    let seconds = a.seconds.unwrap_or(manifest.run_seconds);
    let cfg = RunConfig {
        workload: w,
        params: Params {
            seed: a.seed,
            smoke: a.smoke,
            jobs: thread_cap().1,
        },
        seconds,
        trace,
    };
    let expected = expected_for(w, a)?;
    let RunOutcome {
        result,
        outputs,
        errors,
        tracer,
    } = run::run(&cfg, manifest.metrics(trace), expected.as_ref())?;
    for e in &errors {
        eprintln!("{}: {e}", w.name());
    }
    print_table(std::slice::from_ref(&result));
    if let Some(path) = &a.out {
        let mut o = header(a, seconds);
        o.insert("runs", Value::Array(vec![result.to_json()]));
        let mut outs = Map::new();
        outs.insert(w.name(), outputs_json(&outputs));
        o.insert("outputs", Value::Object(outs));
        write_json(path, &Value::Object(o))?;
    }
    if let Some(path) = &a.trace_out {
        let mut o = Map::new();
        o.insert(w.name(), tracer.to_json());
        write_json(path, &Value::Object(o))?;
    }
    let mut metrics = Map::new();
    for m in &result.metrics {
        let mut o = Map::new();
        o.insert("value", num(m.value));
        o.insert("unit", Value::String(m.unit.clone()));
        metrics.insert(m.name.clone(), Value::Object(o));
    }
    let mut line = Map::new();
    line.insert("correct", Value::Bool(result.correct));
    line.insert("attempted", Value::Number(Number::PosInt(result.attempted)));
    line.insert("failed", Value::Number(Number::PosInt(result.failed)));
    line.insert("metrics", Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())?
    );
    Ok(result.correct)
}

/// Every named workload, untraced then traced, each in a child process.
fn orchestrate(a: &Args, manifest: &Manifest) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let seconds = a.seconds.unwrap_or(manifest.run_seconds);
    let base = a
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("perfbench-results.json"));
    let part = |w: Workload, trace: bool, kind: &str| {
        let mut p = base.clone().into_os_string();
        p.push(format!(".{}.{}.{kind}.part", w.name(), u8::from(trace)));
        PathBuf::from(p)
    };
    let mut ok = true;
    let (mut runs, mut outputs, mut spans) = (Vec::new(), Map::new(), Map::new());
    for &w in &workloads {
        for trace in [false, true] {
            let (out, tout) = (part(w, trace, "out"), part(w, trace, "trace"));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace"])
                .arg(if trace { "1" } else { "0" })
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null());
            if trace && a.trace_out.is_some() {
                cmd.arg("--trace-out").arg(&tout);
            }
            if a.smoke {
                cmd.arg("--smoke");
            }
            eprintln!(
                "perfbench: {} ({})",
                w.name(),
                if trace { "traced" } else { "untraced" }
            );
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            let Ok(v) = read_json(&out) else {
                eprintln!("perfbench: {} produced no results ({status})", w.name());
                continue;
            };
            let _ = std::fs::remove_file(&out);
            for r in v["runs"].as_array().into_iter().flatten() {
                runs.push(RunResult::from_json(r)?);
            }
            if !trace {
                outputs.insert(w.name(), v["outputs"][w.name()].clone());
            }
            if let Ok(t) = read_json(&tout) {
                let _ = std::fs::remove_file(&tout);
                spans.insert(w.name(), t[w.name()].clone());
            }
        }
    }
    print_table(&runs);
    ok &= runs.iter().all(|r| r.correct) && runs.len() == 2 * workloads.len();
    if let Some(path) = &a.out {
        let mut o = header(a, seconds);
        o.insert(
            "runs",
            Value::Array(runs.iter().map(RunResult::to_json).collect()),
        );
        o.insert("outputs", Value::Object(outputs));
        write_json(path, &Value::Object(o))?;
    }
    if let Some(path) = &a.trace_out {
        write_json(path, &Value::Object(spans))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::built_in();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match args[1..].iter().position(|a| a == "--") {
            Some(split) if split > 0 && split + 2 < args.len() => {
                compare::compare(&args[1..split + 1], &args[split + 2..], &manifest)
            }
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&args).and_then(|a| {
            if cfg!(debug_assertions) && !a.smoke {
                return Err("refusing to time a debug build; use --release (or --smoke)".into());
            }
            match a.trace {
                Some(trace) => single(&a, &manifest, trace),
                None => orchestrate(&a, &manifest),
            }
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_the_harness_workloads() {
        let m = Manifest::built_in();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(m.workloads, names);
        assert!(m.end_to_end.iter().any(|d| d.name == "setup_s"));
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
    }

    #[test]
    fn pinned_digests_cover_every_workload() {
        let a = parse_args(&[]).unwrap();
        for w in Workload::ALL {
            let e = expected_for(w, &a).unwrap().unwrap();
            assert!(!e.is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&["--workload", "grid", "--seed", "7", "--trace", "1"])).unwrap();
        assert_eq!(a.workloads, vec![Workload::Grid]);
        assert_eq!((a.seed, a.trace), (7, Some(true)));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_args(&s(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload at `--smoke` size, untraced and traced: every metric
    /// `BENCHMARK.json` names is reported and finite, and nothing fails.
    #[test]
    fn smoke_every_workload_reports_every_listed_metric() {
        let manifest = Manifest::built_in();
        for w in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: w,
                    params: Params {
                        seed: DEFAULT_SEED,
                        smoke: true,
                        jobs: thread_cap().1,
                    },
                    seconds: 0.0,
                    trace,
                };
                let out = run::run(&cfg, manifest.metrics(trace), None).unwrap();
                let r = &out.result;
                assert!(r.correct, "{} trace={trace}: {:?}", w.name(), out.errors);
                assert_eq!(r.failed, 0);
                assert!(r.attempted > 0);
                for def in manifest.metrics(trace) {
                    let m = r
                        .metric(&def.name)
                        .unwrap_or_else(|| panic!("{}: {} missing", w.name(), def.name));
                    assert!(
                        !m.samples.is_empty() && m.samples.iter().all(|x| x.is_finite()),
                        "{}: {} = {:?}",
                        w.name(),
                        def.name,
                        m.samples
                    );
                }
            }
        }
    }
}
