//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale quick|paper] [--out FILE] [--checkpoint DIR | --resume DIR]
//!       [--deadline SECS] [--wall-budget SECS] [--jobs N]
//!       [--trace-out FILE] [--trace-format jsonl|chrome] [--metrics]
//!       [--chaos-seed N] [--chaos-profile NAME] [--chaos-repro TOKEN]
//!       [--pfs-profile full|fail|recover|none] [--strict-store]
//!       [--grammar FILE] [--sample N] [--seed S]
//!       <experiment>... | all | list
//! ```
//!
//! `--grammar FILE`, `--sample N`, and `--seed S` parameterize the
//! `scenario` experiment: the grammar file describes a workload *space*
//! (see `DESIGN.md` §5k), the sampler draws `N` concrete variants under
//! seed `S`, and the variant × configuration grid runs as one supervised
//! campaign — 10k+ cells sweep fine under `--jobs`, with byte-identical
//! output for any worker count. A grammar file that does not parse (bad
//! syntax, or more work than `grammar::MAX_RANK_OPS`) is rejected with
//! its line-numbered error and exit code 2 before any experiment runs, as
//! is a `--sample` above `scenario_grid::MAX_SAMPLE` (16,384 variants).
//!
//! Experiments are named after the paper's artifacts (`table3`, `fig12`,
//! ...); `all` runs the full evaluation section in order. `--scale paper`
//! uses the paper's exact parameters (class C BT-IO, 18 KPIX MADbench2,
//! full sweeps); `--scale quick` (default) runs a structurally identical
//! reduced version in seconds.
//!
//! Every result a run computes — characterization phases, evaluation
//! reports (whose profiles are the application characterizations),
//! campaign cells, finished experiment outputs — goes through one
//! content-addressed result store, keyed by a digest of every input that
//! shapes it (scale, watchdog, PFS profile, scenario grid, cluster,
//! configuration and workload). Within a process, repeated phases and
//! reports replay from memory; the store is a pure cache, so output is
//! byte-identical either way, and its hit/miss counts go to stderr at the
//! end of the run.
//!
//! `--checkpoint DIR` makes the run *resumable*: the store also writes
//! every result to `DIR` (digest-verified, written atomically), and a
//! later run with `--resume DIR` (or the same `--checkpoint DIR`) replays
//! finished work from disk instead of recomputing it — a `kill -9`
//! mid-campaign costs at most the cell in flight, and the resumed output
//! is byte-identical to an uninterrupted run. A result written under other
//! inputs (another scale, PFS profile, ...) never replays: its key
//! differs, so it is recomputed. Corrupt or truncated checkpoint files are
//! detected, quarantined and recomputed.
//!
//! `--deadline SECS` arms a simulated-time watchdog on every run of every
//! experiment (a livelocked or runaway simulation aborts instead of
//! hanging the campaign); `--wall-budget SECS` adds a host-time ceiling
//! per run. An experiment that fails (a watchdog aborted one of its runs,
//! say) prints `[repro] <id> failed: <message>` to stderr and stops the
//! run; the experiments finished before it are still printed and
//! checkpointed, `--out`, `--metrics` and `--trace-out` are still
//! written, and `repro` exits with code 4.
//!
//! `--jobs N` runs campaign experiments on N worker threads (default 1,
//! or the `IOEVAL_JOBS` environment variable). Parallel campaigns merge
//! deterministically: the rendered output and every checkpoint file are
//! byte-identical to a sequential run — `--jobs` only trades wall-clock
//! for cores.
//!
//! `--trace-out FILE` records the I/O-path event stream of every directly
//! evaluated run and writes it at exit: schema-versioned JSONL by default
//! (one header line per run, then one line per event; all times integer
//! nanoseconds of simulated time), or a Chrome trace loadable in
//! `chrome://tracing` / Perfetto with `--trace-format chrome`.
//! `--metrics` appends an aggregated per-level metrics table (ops, bytes,
//! rate, service time, mean queue depth per I/O-path level) to the report.
//! Both are pure observation: experiment tables stay byte-identical.
//! Experiments and reports restored from the store are not re-run, so
//! they contribute no events — use a fresh run for a complete trace.
//!
//! `--pfs-profile` selects which PFS fault rows the `resilience`
//! experiment adds to its RAID table: `full` (default) runs
//! one-server-down *and* recover-mid-run against the replicated PVFS
//! deployment, `fail` / `recover` run just one of them, and `none` skips
//! the PFS table entirely (the experiment renders exactly its RAID-only
//! output).
//!
//! `--chaos-seed N` arms a deterministic host-fault plan drawn under
//! `--chaos-profile` (`store`, `panic`, `memo`, `trace`, or the default
//! `mixed`) that injects failures into the campaign *runtime* — torn or
//! failed checkpoint writes, ENOSPC, worker panics at cell boundaries,
//! result-store corruption, trace-export errors. The runtime heals every
//! one of them (retry, quarantine-and-recompute, degrade to in-memory),
//! and resuming an interrupted chaos run with `--resume` renders output
//! byte-identical to an uninterrupted fault-free run. `--chaos-repro
//! TOKEN` replays an exact fault schedule (the token is printed by every
//! chaos run and by the shrinker). `--strict-store` turns surviving
//! store-level damage (serialize errors, write failures, quarantines)
//! into exit code 3 after all output is written.

use bench::experiments::registry;
use bench::scenario_grid::MAX_SAMPLE;
use bench::{PfsFaultProfile, Repro, Scale};
use ioeval_core::supervise::run_isolated;
use simcore::chaos::{ChaosProfile, HostFaultPlan};
use simcore::{Time, WatchdogSpec};
use std::io::Write as _;
use workloads::Grammar;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut out_file: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut deadline_secs: Option<u64> = None;
    let mut wall_budget_secs: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_chrome = false;
    let mut metrics = false;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<String> = None;
    let mut chaos_repro: Option<String> = None;
    let mut strict_store = false;
    let mut pfs_profile = PfsFaultProfile::default();
    let mut grammar_file: Option<String> = None;
    let mut scenario_sample: Option<usize> = None;
    let mut scenario_seed: Option<u64> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("expected --scale quick|paper"));
            }
            "--out" => {
                i += 1;
                out_file = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --out FILE")),
                );
            }
            "--checkpoint" | "--resume" => {
                i += 1;
                checkpoint = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --checkpoint DIR")),
                );
            }
            "--deadline" => {
                i += 1;
                deadline_secs = Some(parse_secs(args.get(i), "--deadline"));
            }
            "--wall-budget" => {
                i += 1;
                wall_budget_secs = Some(parse_secs(args.get(i), "--wall-budget"));
            }
            "--jobs" => {
                i += 1;
                jobs = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&j| j >= 1)
                        .unwrap_or_else(|| die("expected --jobs N (N >= 1)")),
                );
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --trace-out FILE")),
                );
            }
            "--trace-format" => {
                i += 1;
                trace_chrome = match args.get(i).map(String::as_str) {
                    Some("jsonl") => false,
                    Some("chrome") => true,
                    _ => die("expected --trace-format jsonl|chrome"),
                };
            }
            "--metrics" => metrics = true,
            "--chaos-seed" => {
                i += 1;
                chaos_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| die("expected --chaos-seed N")),
                );
            }
            "--chaos-profile" => {
                i += 1;
                chaos_profile = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --chaos-profile NAME")),
                );
            }
            "--chaos-repro" => {
                i += 1;
                chaos_repro = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --chaos-repro TOKEN")),
                );
            }
            "--pfs-profile" => {
                i += 1;
                pfs_profile = args
                    .get(i)
                    .and_then(|s| PfsFaultProfile::parse(s))
                    .unwrap_or_else(|| die("expected --pfs-profile full|fail|recover|none"));
            }
            "--strict-store" => strict_store = true,
            "--grammar" => {
                i += 1;
                grammar_file = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --grammar FILE")),
                );
            }
            "--sample" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("expected --sample N (N >= 1)"));
                if n > MAX_SAMPLE {
                    die(&format!(
                        "--sample {n} exceeds the ceiling of {MAX_SAMPLE} variants (MAX_SAMPLE)"
                    ));
                }
                scenario_sample = Some(n);
            }
            "--seed" => {
                i += 1;
                scenario_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| die("expected --seed N")),
                );
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }

    if selected.is_empty() {
        usage();
        return;
    }
    if selected.iter().any(|s| s == "list") {
        for (id, desc, _) in registry() {
            println!("{id:<8} {desc}");
        }
        return;
    }

    let reg = registry();
    let to_run: Vec<&(&str, &str, bench::experiments::ExperimentFn)> =
        if selected.iter().any(|s| s == "all") {
            reg.iter().collect()
        } else {
            selected
                .iter()
                .map(|want| {
                    reg.iter().find(|(id, _, _)| id == want).unwrap_or_else(|| {
                        die(&format!("unknown experiment '{want}' (try 'list')"))
                    })
                })
                .collect()
        };

    // Host-fault injection: a replay token wins over a seeded draw. The
    // plan is printed up front so any chaos run is reproducible verbatim.
    let plan = match (&chaos_repro, chaos_seed) {
        (Some(token), _) => Some(
            HostFaultPlan::parse(token)
                .unwrap_or_else(|e| die(&format!("bad --chaos-repro token: {e}"))),
        ),
        (None, Some(seed)) => {
            let name = chaos_profile.as_deref().unwrap_or("mixed");
            let profile = ChaosProfile::named(name).unwrap_or_else(|| {
                die(&format!(
                    "unknown --chaos-profile '{name}' (store|panic|memo|trace|mixed)"
                ))
            });
            Some(HostFaultPlan::random(seed, &profile))
        }
        (None, None) if chaos_profile.is_some() => {
            die("--chaos-profile requires --chaos-seed (or use --chaos-repro TOKEN)")
        }
        (None, None) => None,
    };

    let mut repro = Repro::new(scale).with_pfs_profile(pfs_profile);
    if let Some(plan) = plan {
        eprintln!("[chaos] arming host-fault plan: {}", plan.token());
        repro = repro.with_host_faults(plan);
    }
    if let Some(path) = &grammar_file {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read --grammar {path}: {e}")));
        if let Err(e) = Grammar::parse(&src) {
            die(&format!("bad --grammar {path}: {e}"));
        }
        repro = repro.with_scenario_grammar(src);
    }
    if let Some(n) = scenario_sample {
        repro = repro.with_scenario_sample(n);
    }
    if let Some(s) = scenario_seed {
        repro = repro.with_scenario_seed(s);
    }
    if trace_out.is_some() || metrics {
        repro = repro.with_tracing();
    }
    if let Some(j) = jobs {
        repro = repro.with_jobs(j);
    }
    if deadline_secs.is_some() || wall_budget_secs.is_some() {
        let mut w = WatchdogSpec::default();
        if let Some(s) = deadline_secs {
            w.sim_deadline = Some(Time::from_secs(s));
        }
        if let Some(s) = wall_budget_secs {
            w = w.with_wall_budget_ms(s.saturating_mul(1000));
        }
        repro = repro.with_watchdog(w);
    }
    if let Some(dir) = &checkpoint {
        repro = repro
            .with_checkpoint(dir)
            .unwrap_or_else(|e| die(&format!("cannot open checkpoint dir {dir}: {e}")));
    }

    let mut full_output = String::new();
    let mut failed = false;
    for (id, desc, f) in to_run {
        let output = match repro.restore_experiment(id) {
            Some(cached) => {
                eprintln!("[repro] {id} restored from checkpoint");
                cached
            }
            None => {
                eprintln!("[repro] running {id} ({desc}, scale {scale:?}) ...");
                let t0 = std::time::Instant::now();
                match run_isolated(|| f(&mut repro)) {
                    Ok(output) => {
                        eprintln!("[repro] {id} done in {:.1}s", t0.elapsed().as_secs_f64());
                        repro.save_experiment(id, &output);
                        output
                    }
                    Err(message) => {
                        eprintln!("[repro] {id} failed: {message}");
                        failed = true;
                        break;
                    }
                }
            }
        };
        println!("\n######## {id} ########\n{output}");
        full_output.push_str(&format!("\n######## {id} ########\n{output}"));
    }
    if metrics {
        let block = match repro.metrics_report() {
            Some(table) => format!("\n######## metrics ########\n{table}"),
            None => "\n######## metrics ########\n(no cells observed)\n".to_string(),
        };
        println!("{block}");
        full_output.push_str(&block);
    }
    if let Some(path) = trace_out {
        let runs = repro.traces();
        let text = if trace_chrome {
            ioeval_core::obs::to_chrome(runs)
        } else {
            runs.iter()
                .map(|(meta, data)| ioeval_core::obs::to_jsonl(data, meta))
                .collect::<String>()
        };
        // A trace is a secondary artifact: a failed export (real or
        // injected) is reported and swallowed — it never poisons the
        // evaluation results or the exit code.
        if repro.write_artifact("trace", std::path::Path::new(&path), &text) {
            let events: usize = runs.iter().map(|(_, d)| d.events.len()).sum();
            eprintln!(
                "[repro] wrote {} ({} runs, {events} events)",
                path,
                runs.len()
            );
        }
    }
    let (hits, misses) = repro.store().stats();
    let (ph, pm) = repro.store().kind_stats(ioeval_core::store::Kind::Phase);
    eprintln!(
        "[repro] result store: {hits} hits, {misses} misses ({ph} phase hits, {pm} phase misses)"
    );
    if let Some(path) = out_file {
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        f.write_all(full_output.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("[repro] wrote {path}");
    }
    if let Some(faults) = repro.store().host_faults() {
        let fired = faults.fired();
        let count = fired.len();
        let token = HostFaultPlan::from_injections(fired).token();
        eprintln!(
            "[chaos] {count} of the planned injections fired (replay what fired: --chaos-repro '{token}')"
        );
    }
    let health = repro.store_health();
    if health.any() {
        eprintln!("[repro] store health: {}", health.summary());
    }
    if failed {
        std::process::exit(4);
    }
    if health.any() && strict_store {
        eprintln!("repro: exiting non-zero (--strict-store)");
        std::process::exit(3);
    }
}

fn parse_secs(arg: Option<&String>, flag: &str) -> u64 {
    arg.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("expected {flag} SECS")))
}

fn usage() {
    eprintln!(
        "usage: repro [--scale quick|paper] [--out FILE] [--checkpoint DIR | --resume DIR]\n\
         \x20            [--deadline SECS] [--wall-budget SECS] [--jobs N]\n\
         \x20            [--trace-out FILE] [--trace-format jsonl|chrome] [--metrics]\n\
         \x20            [--chaos-seed N] [--chaos-profile store|panic|memo|trace|mixed]\n\
         \x20            [--chaos-repro TOKEN] [--pfs-profile full|fail|recover|none]\n\
         \x20            [--strict-store] [--grammar FILE] [--sample N] [--seed S]\n\
         \x20            <experiment>... | all | list\n\
         experiments regenerate the paper's tables/figures; see 'repro list'.\n\
         --checkpoint/--resume persist every result to DIR and replay it on a rerun\n\
         with the same inputs (results are keyed by scale, watchdog, PFS profile,\n\
         scenario grid, cluster, configuration and workload; phases and reports\n\
         are also reused in memory, hit/miss counts go to stderr);\n\
         --deadline arms a simulated-time watchdog, --wall-budget a host-time ceiling;\n\
         an experiment that fails prints '[repro] <id> failed: ...' and exits 4;\n\
         --jobs runs campaign cells on N workers (deterministic merge: output is\n\
         byte-identical to --jobs 1; defaults to $IOEVAL_JOBS, else 1);\n\
         --trace-out records the I/O-path event stream of every evaluated run\n\
         (schema-versioned JSONL; --trace-format chrome for chrome://tracing);\n\
         --metrics appends an aggregated per-level metrics table to the report;\n\
         --chaos-seed/--chaos-profile inject deterministic host faults (torn\n\
         checkpoint writes, ENOSPC, worker panics, store corruption, trace errors)\n\
         to exercise recovery; --chaos-repro TOKEN replays an exact schedule;\n\
         --pfs-profile picks the PFS fault rows of the resilience experiment\n\
         (full = fail + recover, none = RAID-only table);\n\
         --strict-store exits 3 if store-level damage survived the run;\n\
         --grammar/--sample/--seed parameterize the scenario experiment: a\n\
         grammar file describing a workload space, how many variants to draw,\n\
         and the sampler seed (grid identity keys the checkpoint); a grammar\n\
         that does not parse, or a --sample above 16384, exits 2 before any\n\
         experiment runs."
    );
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
