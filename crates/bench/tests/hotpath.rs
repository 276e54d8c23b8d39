//! Smoke tests for the hot-path microbenchmark harness.
//!
//! The real harness is the `hotpath` binary:
//!
//! ```text
//! cargo run --release -p bench --bin hotpath
//! ```
//!
//! which writes `BENCH_hotpath.json` (see README.md §"Hot-path
//! benchmarks"). These tests run the same code at smoke sizes so the
//! report schema — which the CI bench job and the committed baseline
//! depend on — stays pinned by a fast, always-on test.

use bench::hotpath::{run, HotpathConfig, HotpathReport};

#[test]
fn report_schema_is_stable() {
    let report = run(&HotpathConfig::smoke());
    assert_eq!(report.schema, 1);
    assert!(report.event_queue_mops > 0.0);
    assert!(report.striping_ns_per_op > 0.0);
    assert_eq!(report.cells.len(), 3, "three Aohyper configurations");
    assert!(report.cells.iter().all(|c| c.ms > 0.0));
    let sum: f64 = report.cells.iter().map(|c| c.ms).sum();
    assert!((report.pinned_cell_ms - sum).abs() < 1e-9);
    assert!(report.memo_cold_ms > 0.0 && report.memo_warm_ms > 0.0);
    assert!(report.scale_full_ms > 0.0 && report.scale_collapsed_ms > 0.0);
    assert!(report.scale_speedup > 0.0);

    // The JSON round-trips, and the fields the CI smoke job parses are
    // present under their exact names.
    let json = report.to_json();
    let back: HotpathReport = serde_json::from_str(&json).expect("round-trip");
    assert_eq!(back.schema, 1);
    let value: serde_json::Value = serde_json::from_str(&json).expect("parse");
    for field in [
        "schema",
        "pinned_cell_ms",
        "event_queue_mops",
        "memo_speedup",
        "scale_full_ms",
        "scale_collapsed_ms",
        "scale_speedup",
    ] {
        assert!(value.get(field).is_some(), "missing field {field}");
    }
}

#[test]
fn hotpath_gate_runs_with_observability_disabled() {
    // The CI bench gate times the pinned sweep with no sink installed:
    // the observability layer must stay on its zero-cost NoSink path for
    // the committed baseline (and its 25% tolerance) to stay meaningful.
    assert!(
        !simcore::obs::enabled(),
        "no sink must be installed when the gate starts"
    );
    let cells = bench::hotpath::pinned_cell_times(1);
    assert_eq!(cells.len(), 3);
    assert!(
        !simcore::obs::enabled(),
        "the pinned sweep must not leave a sink installed"
    );
}

#[test]
fn characterization_is_identical_with_and_without_collector() {
    // Observation is pure: a characterization run under a collector
    // produces byte-identical tables to an unobserved run, and the
    // collector actually saw the sweep's events.
    use cluster::{presets, DeviceLayout, IoConfigBuilder};
    use ioeval_core::charact::{characterize_system, CharacterizeOptions};
    use ioeval_core::obs::Collector;

    let spec = presets::test_cluster();
    let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
    let opts = CharacterizeOptions::quick();

    let plain = characterize_system(&spec, &config, &opts).expect("characterize");
    let collector = Collector::new();
    let observed = {
        let _guard = collector.install();
        characterize_system(&spec, &config, &opts).expect("characterize observed")
    };
    assert_eq!(
        plain.to_json(),
        observed.to_json(),
        "a collector must not perturb characterization"
    );
    assert!(
        collector.metrics().total_ops() > 0,
        "the collector should have observed the sweep"
    );
}

#[test]
fn memo_warm_replay_beats_cold_compute() {
    // Even at smoke sizes the warm campaign only replays phases out of the
    // store, so it must not be slower than the cold one by more than noise.
    let (cold, warm) = bench::hotpath::memo_campaign_ms();
    assert!(cold > 0.0 && warm > 0.0);
    assert!(
        warm <= cold * 1.5,
        "warm replay ({warm:.2} ms) slower than cold compute ({cold:.2} ms)"
    );
}
