//! The `ioeval` binary's argument checks: a `--procs` value the workload
//! generators cannot build exits 2 with a one-line message, before any
//! tables file is read and without a panic.

use std::process::{Command, Output};

/// A tables path that does not exist: reaching it means `--procs` passed.
const NO_TABLES: &str = "ioeval-cli-no-such-tables.json";

/// `ioeval evaluate` and `ioeval advise` on `app` with `--procs procs`.
fn both(app: &str, procs: &str) -> [(String, Output); 2] {
    ["evaluate --config jbod", "advise"].map(|cmd| {
        let line = format!("{cmd} --cluster test --app {app} --procs {procs} --tables {NO_TABLES}");
        let out = Command::new(env!("CARGO_BIN_EXE_ioeval"))
            .args(line.split(' '))
            .output()
            .expect("ioeval runs");
        (line, out)
    })
}

#[test]
fn procs_the_generators_cannot_build_exit_2() {
    for (app, procs) in [
        ("btio-full", "3"),
        ("btio-full", "0"),
        ("btio-simple", "8"),
        ("madbench-unique", "3"),
        ("madbench-unique", "5"),
        ("madbench-shared", "0"),
        ("ior-write", "0"),
        ("flash-io", "0"),
        ("ior-read", "many"),
    ] {
        for (line, out) in both(app, procs) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
            assert!(stderr.starts_with("ioeval: --procs"), "{line}: {stderr}");
            assert!(out.stdout.is_empty(), "{line}: nothing may run");
        }
    }
}

#[test]
fn valid_procs_reach_the_tables_file() {
    for (app, procs) in [
        ("btio-full", "9"),
        ("madbench-shared", "1"),
        ("ior-read", "3"),
    ] {
        for (line, out) in both(app, procs) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
            assert!(
                stderr.contains(&format!("cannot read {NO_TABLES}")),
                "{line}: {stderr}"
            );
        }
    }
}
