//! Smoke test: every registered experiment runs at quick scale and
//! produces non-trivial output.
//!
//! Ignored by default because it executes the full harness (3.7 s in
//! release on a 2-core host; considerably longer in debug). CI runs it
//! with the other ignored tests:
//!
//! ```text
//! cargo test --release -q -- --ignored
//! ```

use bench::experiments::registry;
use bench::{Repro, Scale};

#[test]
#[ignore = "runs the whole quick-scale harness (~4 s in release)"]
fn every_experiment_runs_at_quick_scale() {
    let mut repro = Repro::new(Scale::Quick);
    for (id, _desc, f) in registry() {
        let out = f(&mut repro);
        assert!(
            out.len() > 100,
            "experiment {id} produced suspiciously little output:\n{out}"
        );
        assert!(
            !out.contains("NaN") && !out.contains("inf"),
            "experiment {id} produced non-finite numbers"
        );
    }
}

#[test]
fn single_cheap_experiment_runs_in_debug() {
    // fig4 needs no simulation — safe for the default test pass.
    let mut repro = Repro::new(Scale::Quick);
    let out = bench::experiments::fig4(&mut repro);
    assert!(out.contains("JBOD") && out.contains("RAID 5"));
}
