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
use ioeval_core::store::Kind;

#[test]
#[ignore = "runs the whole quick-scale harness (~4 s in release)"]
fn every_experiment_runs_at_quick_scale() {
    let mut repro = Repro::new(Scale::Quick);
    for (id, _desc, f) in registry() {
        let before = repro.store().kind_stats(Kind::Report);
        let out = f(&mut repro);
        if id == "campaign" {
            // Its six cells are fig12's runs, replayed from the store.
            let (hits, misses) = repro.store().kind_stats(Kind::Report);
            assert_eq!((hits - before.0, misses - before.1), (6, 0));
        }
        assert!(
            out.len() > 100,
            "experiment {id} produced suspiciously little output:\n{out}"
        );
        assert!(
            !out.contains("NaN") && !out.contains("inf"),
            "experiment {id} produced non-finite numbers"
        );
    }
    // Each distinct evaluation is simulated once: one miss per report key.
    let (_, misses) = repro.store().kind_stats(Kind::Report);
    assert_eq!(misses, repro.store().kind_len(Kind::Report) as u64);
}

#[test]
fn single_cheap_experiment_runs_in_debug() {
    // fig4 needs no simulation — safe for the default test pass.
    let mut repro = Repro::new(Scale::Quick);
    let out = bench::experiments::fig4(&mut repro);
    assert!(out.contains("JBOD") && out.contains("RAID 5"));
}
