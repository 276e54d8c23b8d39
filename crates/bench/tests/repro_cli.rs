//! The `repro` binary end to end: its exit codes and its recovery from
//! host faults.
//!
//! * An experiment whose run cannot finish under the watchdog fails
//!   cleanly — one line on stderr, exit code 4, no panic backtrace — and
//!   the experiments before it still print and checkpoint.
//! * A checkpointed `io500` run under seeded host-fault plans completes,
//!   and a chaos-free resume of what it left on disk prints output
//!   byte-identical to a clean run.
//! * `--strict-store` turns surviving store damage into exit code 3; a
//!   failed trace export is reported and never changes the exit code.
//! * A `--grammar` file that does not parse exits 2 before any experiment.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ioeval-repro-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro --scale quick --jobs 1` with `args`.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "quick", "--jobs", "1"])
        .args(args)
        .output()
        .expect("repro runs")
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
