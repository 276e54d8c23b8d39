//! Observation-purity tests for the characterization sweep: an observer
//! sees the sweep without perturbing it, and an unobserved sweep stays on
//! the zero-cost `NoSink` path from start to end.

use cluster::{presets, DeviceLayout, IoConfigBuilder};
use ioeval_core::charact::{characterize_system, CharacterizeOptions};

#[test]
fn unobserved_characterization_leaves_no_observer_installed() {
    // An unobserved characterization neither needs nor leaves an observer
    // installed, so timings taken without a sink measure the NoSink path.
    assert!(!simcore::obs::enabled(), "no observer installed at start");
    let spec = presets::test_cluster();
    let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
    let tables =
        characterize_system(&spec, &config, &CharacterizeOptions::quick()).expect("characterize");
    assert!(!tables.to_json().is_empty());
    assert!(
        !simcore::obs::enabled(),
        "an unobserved characterization must not leave an observer installed"
    );
}

#[test]
fn characterization_is_identical_with_and_without_collector() {
    // Observation is pure: a characterization run under a collector
    // produces byte-identical tables to an unobserved run, and the
    // collector actually saw the sweep's events.
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
