//! The `repro` binary's failure path: an experiment whose run cannot
//! finish under the watchdog fails cleanly — one line on stderr, exit code
//! 4, no panic backtrace — and the experiments before it still print and
//! checkpoint.

use std::process::Command;

#[test]
fn a_failing_experiment_exits_4_after_printing_the_ones_before_it() {
    let dir = std::env::temp_dir().join(format!("ioeval-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "quick", "--deadline", "1", "--checkpoint"])
            .arg(&dir)
            .args(args)
            .output()
            .expect("repro runs")
    };

    let out = repro(&["fig4", "table2", "fig5"]);
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

    let resumed = repro(&["fig4"]);
    assert_eq!(resumed.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("fig4 restored from checkpoint"));
    let _ = std::fs::remove_dir_all(&dir);
}
