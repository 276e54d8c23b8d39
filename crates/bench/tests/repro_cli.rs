//! The `repro` binary end to end: its exit codes and its recovery from
//! host faults.
//!
//! * An experiment whose run cannot finish under the watchdog fails
//!   cleanly — one line on stderr, exit code 4, no panic backtrace — and
//!   the experiments before it still print and checkpoint. Every
//!   experiment that simulates honours `--deadline`.
//! * A checkpointed `io500` run under seeded host-fault plans completes,
//!   and a chaos-free resume of what it left on disk prints output
//!   byte-identical to a clean run.
//! * `--strict-store` turns surviving store damage into exit code 3; a
//!   failed trace export is reported and never changes the exit code.
//! * A `--grammar` file that does not parse, or a `--sample` above the
//!   ceiling, exits 2 before any experiment.
//! * A checkpointed run killed with SIGKILL mid-campaign resumes to output
//!   byte-identical to a clean run, and so does a custom grammar grid.
//! * `--trace-out` writes the JSONL schema `obs::to_jsonl` defines, line
//!   by line, and `--trace-format chrome` writes one JSON array.

use bench::scenario_grid::MAX_SAMPLE;
use ioeval_core::obs::TRACE_SCHEMA;
use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ioeval-repro-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `repro --scale quick --jobs 1` with `args`.
fn repro_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--scale", "quick", "--jobs", "1"]).args(args);
    cmd
}

fn repro(args: &[&str]) -> Output {
    repro_cmd(args).output().expect("repro runs")
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn a_failing_experiment_exits_4_after_printing_the_ones_before_it() {
    let dir = scratch("deadline");
    let run = |args: &[&str]| {
        let mut all = vec!["--deadline", "1", "--checkpoint", path(&dir)];
        all.extend(args);
        repro(&all)
    };

    let out = run(&["fig4", "table2", "fig5"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr:\n{stderr}");
    let failed: Vec<&str> = stderr.lines().filter(|l| l.contains("failed")).collect();
    assert_eq!(failed.len(), 1, "{stderr}");
    assert!(
        failed[0].starts_with("[repro] table2 failed: ") && failed[0].contains("aborted"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"));
    assert!(stdout.contains("######## fig4 ########"), "{stdout}");
    assert!(!stdout.contains("table2 ########") && !stdout.contains("fig5 ########"));

    let resumed = run(&["fig4"]);
    assert_eq!(resumed.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("fig4 restored from checkpoint"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_simulating_experiment_honours_the_deadline() {
    let list = repro(&["list"]);
    assert_eq!(list.status.code(), Some(0));
    let list = String::from_utf8_lossy(&list.stdout);
    let ids: Vec<&str> = list
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(ids.len() > 30, "{list}");
    for id in ids {
        let out = repro(&["--deadline", "1", id]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        match id {
            // Simulates nothing.
            "fig4" => assert_eq!(out.status.code(), Some(0), "{id}: {stderr}"),
            // Campaigns degrade: every cell is skipped because its
            // configuration's characterization aborted.
            "campaign" | "io500" | "scenario" => {
                assert_eq!(out.status.code(), Some(0), "{id}: {stderr}");
                assert!(stdout.contains("0 ok,"), "{id}: {stdout}");
            }
            _ => {
                assert_eq!(out.status.code(), Some(4), "{id} ignored the deadline");
                let failed: Vec<&str> = stderr
                    .lines()
                    .filter(|l| l.starts_with(&format!("[repro] {id} failed:")))
                    .collect();
                assert_eq!(failed.len(), 1, "{id}: {stderr}");
            }
        }
    }
}

#[test]
fn resume_after_seeded_host_faults_is_byte_identical() {
    let work = scratch("chaos");
    let clean = work.join("clean.txt");
    assert!(repro(&["--out", path(&clean), "io500"]).status.success());
    let clean = fs::read_to_string(&clean).unwrap();
    for seed in ["1", "2"] {
        for profile in ["store", "mixed"] {
            let tag = format!("{profile}-{seed}");
            let ckpt = work.join(format!("ckpt-{tag}"));
            let wounded = repro(&[
                "--chaos-seed",
                seed,
                "--chaos-profile",
                profile,
                "--checkpoint",
                path(&ckpt),
                "io500",
            ]);
            let stderr = String::from_utf8_lossy(&wounded.stderr);
            assert!(wounded.status.success(), "{tag}:\n{stderr}");
            assert!(
                stderr.contains("arming host-fault plan"),
                "{tag}:\n{stderr}"
            );
            assert!(!stderr.contains("[chaos] 0 of"), "{tag}: nothing fired");
            if tag == "mixed-1" {
                // Hits count per site across the whole run, as they always have.
                assert!(
                    stderr.contains("--chaos-repro 'ckpt@0:enospc,ckpt@1:enospc,ser@2,panic@1'"),
                    "{stderr}"
                );
            }
            // Drop the whole-experiment output so the resume re-renders
            // from the cell-level checkpoints the wounded run left behind.
            for entry in fs::read_dir(&ckpt).unwrap() {
                let file = entry.unwrap().path();
                let name = file.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with("exp-") && name.ends_with(".json") {
                    fs::remove_file(file).unwrap();
                }
            }
            let resumed = work.join(format!("resumed-{tag}.txt"));
            let out = repro(&["--resume", path(&ckpt), "--out", path(&resumed), "io500"]);
            assert!(out.status.success(), "{tag}");
            assert_eq!(
                fs::read_to_string(&resumed).unwrap(),
                clean,
                "resume after chaos ({tag}) differs from the clean run"
            );
        }
    }
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn strict_store_exits_3_on_surviving_store_damage() {
    let work = scratch("strict");
    let out = repro(&[
        "--chaos-repro",
        "ser@0",
        "--strict-store",
        "--checkpoint",
        path(&work),
        "table1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("store health"), "{stderr}");
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn a_failed_trace_export_is_reported_and_exits_0() {
    let work = scratch("trace");
    let trace = work.join("trace.jsonl");
    let out = repro(&[
        "--chaos-repro",
        "trace@0",
        "--trace-out",
        path(&trace),
        "table1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("cannot write trace"), "{stderr}");
    assert!(!trace.exists());
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn an_oversized_grammar_exits_2_with_its_line() {
    let work = scratch("grammar");
    for (i, src) in [
        "scenario s\nranks 99999999999\nphase p { barrier }\n",
        "scenario s\nphase p repeat 4000000000 { barrier }\n",
        "scenario s\nphase p { choose 18446744073709551615 { barrier } or 1 { barrier } }\n",
    ]
    .into_iter()
    .enumerate()
    {
        let file = work.join(format!("g{i}.grammar"));
        fs::write(&file, src).unwrap();
        let out = repro(&["--grammar", path(&file), "table1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{src}: {stderr}");
        assert!(stderr.contains("line 2"), "{src}: {stderr}");
        assert!(out.stdout.is_empty(), "no experiment may run");
    }
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn a_sample_above_the_ceiling_exits_2() {
    for n in [MAX_SAMPLE + 1, 99_999_999_999_999] {
        let out = repro(&["--sample", &n.to_string(), "scenario"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--sample {n}: {stderr}");
        assert!(stderr.contains(&format!("ceiling of {MAX_SAMPLE}")));
        assert!(out.stdout.is_empty(), "no experiment may run");
    }
}

fn has_checkpoint(dir: &Path) -> bool {
    let json = |e: fs::DirEntry| e.path().extension().is_some_and(|x| x == "json");
    fs::read_dir(dir).is_ok_and(|mut entries| entries.any(|e| e.is_ok_and(json)))
}

#[test]
fn a_sigkilled_run_resumes_byte_identically() {
    // `resilience` checkpoints characterization phases and reports,
    // `io500` campaign cells: the kill lands in the first, the resume
    // replays both tiers.
    let work = scratch("kill");
    let (clean, resumed, ckpt) = (work.join("clean"), work.join("resumed"), work.join("ckpt"));
    fn args(flags: [&str; 2]) -> Vec<&str> {
        [&flags[..], &["resilience", "io500"]].concat()
    }
    assert!(repro(&args(["--out", path(&clean)])).status.success());
    let clean = fs::read_to_string(&clean).unwrap();
    let phases = "ior-easy-write|ior-hard-read|mdtest-easy|mdtest-hard|bandwidth score:";
    let rest = "metadata score:|backend: NFS RAID5|backend: PVFS x4 r2|PFS resilience";
    for needle in phases.split('|').chain(rest.split('|')) {
        assert!(clean.contains(needle), "missing {needle} in:\n{clean}");
    }
    assert_eq!(clean.matches("io500 score:").count(), 2, "one per backend");
    assert!(!clean.contains("degraded campaign"), "{clean}");

    let mut child = repro_cmd(&args(["--checkpoint", path(&ckpt)]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro starts");
    // A quick run can finish before the kill lands; the resume then
    // replays everything from disk, which is still a resume.
    while child.try_wait().unwrap().is_none() {
        if has_checkpoint(&ckpt) {
            child.kill().unwrap();
            child.wait().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut resume = args(["--resume", path(&ckpt)]);
    resume.extend(["--out", path(&resumed)]);
    assert!(repro(&resume).status.success());
    assert_eq!(fs::read_to_string(&resumed).unwrap(), clean, "resume");
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn a_custom_grammar_grid_completes_and_resumes_byte_identically() {
    let work = scratch("grid");
    let grammar = work.join("custom.grammar");
    let src = "scenario smoke\nranks 2\nfile f\nphase p repeat 1..2 {\n\
               \x20 write f block 64K..256K pow2 count 2\n  barrier\n  read f block 64K count 2\n}\n";
    fs::write(&grammar, src).unwrap();
    let ckpt = work.join("ckpt");
    let run = |out: &Path| {
        let mut args = vec!["--grammar", path(&grammar), "--sample", "5", "--seed", "9"];
        args.extend(["--checkpoint", path(&ckpt), "--out", path(out), "scenario"]);
        repro(&args)
    };
    let (first, second) = (work.join("first"), work.join("second"));
    assert!(run(&first).status.success());
    let first = fs::read_to_string(&first).unwrap();
    for needle in [
        "grammar 'smoke'",
        "5 variants x 4 configurations = 20 cells",
        "-s9-n5",
        "outcomes: 20 ok, 0 failed, 0 timed out, 0 skipped",
    ] {
        assert!(first.contains(needle), "missing {needle} in:\n{first}");
    }
    let out = run(&second);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && stderr.contains("scenario restored from checkpoint"));
    assert_eq!(fs::read_to_string(&second).unwrap(), first);
    let _ = fs::remove_dir_all(&work);
}

/// The header line `obs::to_jsonl` writes before each run's events.
const HEADER: &str =
    "header schema:int cluster:str config:str app:str scenario:str events:int dropped:int";

/// Every `ObsEvent::kind()` label, then the fields `obs::event_jsonl`
/// writes after `kind`. An `int` is a non-negative integer.
const EVENTS: [&str; 13] = [
    "mpi_op rank:int label:str start_ns:int end_ns:int bytes:int io:bool",
    "net_send from:int to:int bytes:int start_ns:int end_ns:int",
    "nfs_retry op:str at_ns:int attempt:int",
    "cache_access hit_bytes:int miss_bytes:int at_ns:int",
    "cache_evict bytes:int at_ns:int",
    "writeback bytes:int start_ns:int end_ns:int",
    "storage_run volume:str write:bool bytes:int ops:int start_ns:int end_ns:int bulk:bool",
    "storage_io volume:str write:bool bytes:int start_ns:int end_ns:int",
    "pfs_retry op:str server:int at_ns:int attempt:int",
    "pfs_failover op:str from:int to:int at_ns:int",
    "pfs_resync server:int bytes:int start_ns:int end_ns:int",
    "meta_op op:str start_ns:int end_ns:int",
    "fault fault:str at_ns:int",
];

/// Checks that line `n` is an object holding exactly `kind` and the
/// fields `schema` names after it, each of its type, with `start_ns <=
/// end_ns`.
fn check_line(n: usize, line: &Value, schema: &str) {
    let fields = schema
        .split(' ')
        .skip(1)
        .map(|f| f.split_once(':').unwrap());
    assert_eq!(
        line.as_object().unwrap().len(),
        schema.split(' ').count(),
        "line {n}"
    );
    for (name, ty) in fields {
        let v = &line[name];
        let ok = match ty {
            "int" => v.as_u64().is_some(),
            "str" => v.as_str().is_some(),
            _ => v.as_bool().is_some(),
        };
        assert!(ok, "line {n}: {name} is not {ty} in {line:?}");
    }
    if let (Some(start), Some(end)) = (line["start_ns"].as_u64(), line["end_ns"].as_u64()) {
        assert!(start <= end, "line {n}: start_ns > end_ns in {line:?}");
    }
}

#[test]
fn trace_exports_follow_the_schema() {
    let work = scratch("trace-schema");
    let (trace, chrome) = (work.join("trace.jsonl"), work.join("trace.json"));
    let out = repro(&["--trace-out", path(&trace), "--metrics", "resilience"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("I/O-path metrics over"));

    let text = fs::read_to_string(&trace).unwrap();
    assert!(text.ends_with('\n'), "a torn final line");
    let (mut runs, mut owed) = (0, 0);
    let mut seen = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("line {n}: {e}"));
        let kind = v["kind"].as_str().unwrap_or_default();
        if kind == "header" {
            assert_eq!(owed, 0, "line {n}: the previous run is short");
            check_line(n, &v, HEADER);
            assert_eq!(v["schema"].as_u64(), Some(u64::from(TRACE_SCHEMA)));
            owed = v["events"].as_u64().unwrap();
            runs += 1;
            continue;
        }
        assert!(owed > 0, "line {n}: an event its header did not declare");
        owed -= 1;
        let schema = (EVENTS.iter().find(|s| s.split(' ').next() == Some(kind)))
            .unwrap_or_else(|| panic!("line {n}: unknown event kind {kind:?}"));
        check_line(n, &v, schema);
        seen.insert(kind.to_string());
    }
    assert!(runs > 0 && owed == 0, "the last run is short {owed} events");
    for kind in ["fault", "pfs_retry", "pfs_failover", "pfs_resync"] {
        assert!(seen.contains(kind), "no {kind} event in {seen:?}");
    }

    let mut args = vec!["--trace-format", "chrome", "--pfs-profile", "none"];
    args.extend(["--trace-out", path(&chrome), "resilience"]);
    assert!(repro(&args).status.success());
    let v: Value = serde_json::from_str(&fs::read_to_string(&chrome).unwrap()).unwrap();
    assert!(!v.as_array().expect("a JSON array").is_empty());
    let _ = fs::remove_dir_all(&work);
}
