//! Resilience campaign: the same IOR-style read stream on a RAID 5
//! server while the array is healthy, one-disk degraded, and rebuilding.
//!
//! Degraded cold reads must pay the reconstruction penalty (strictly
//! below the healthy rate), the rebuild must complete in finite simulated
//! time, and two same-seed campaigns must render byte-identical reports.
//!
//! A second campaign runs an IOR write stream on a replicated PVFS
//! deployment while one I/O server is down (writes fail over to the
//! surviving replica holders) and while the server recovers mid-run (the
//! resync replays the writes it missed) — no workload byte may be lost
//! either way.
//!
//! The `resilience` experiment renders both tables (only the RAID one
//! under `--pfs-profile none`), identically for any worker count.

use bench::{PfsFaultProfile, Repro, Scale};
use cluster::{presets, DeviceLayout, IoConfigBuilder, Mount};
use ioeval_core::eval::{evaluate, EvalOptions, EvalReport, FaultScenario};
use ioeval_core::perf_table::PerfTableSet;
use ioeval_core::report::render_resilience_table;
use simcore::{Time, MIB};
use workloads::{Ior, IorOp};

fn run(faults: FaultScenario) -> EvalReport {
    let spec = presets::test_cluster();
    let config = IoConfigBuilder::new(DeviceLayout::raid5_paper()).build();
    let ior = Ior::new(4, fs::FileId(7), 32 * MIB, IorOp::Read);
    // Usage tables are irrelevant to the resilience comparison.
    let tables = PerfTableSet::new("test", "RAID 5");
    let opts = EvalOptions {
        faults,
        ..EvalOptions::default()
    };
    evaluate(&spec, &config, ior.scenario(), &tables, &opts).expect("evaluation")
}

fn campaign() -> Vec<EvalReport> {
    vec![
        run(FaultScenario::Healthy),
        run(FaultScenario::Degraded {
            disk: 1,
            at: Time::ZERO,
        }),
        run(FaultScenario::Rebuilding {
            disk: 1,
            fail_at: Time::from_millis(1),
            replace_at: Time::from_millis(500),
        }),
    ]
}

#[test]
fn degraded_reads_trail_healthy_and_rebuild_is_finite() {
    let reports = campaign();
    let (healthy, degraded, rebuilding) = (&reports[0], &reports[1], &reports[2]);

    assert!(
        degraded.read_rate.bytes_per_sec() < healthy.read_rate.bytes_per_sec(),
        "degraded {} must be strictly below healthy {}",
        degraded.read_rate,
        healthy.read_rate
    );
    assert!(degraded.exec_time > healthy.exec_time);
    assert!(healthy.rebuild.is_none());

    let rebuild = rebuilding
        .rebuild
        .expect("replacement must start a rebuild");
    assert!(rebuild.finished.is_some(), "rebuild must finish");
    assert_eq!(rebuild.bytes_done, rebuild.bytes_total);
    assert!(rebuild.bytes_total > 0);
    assert!(rebuild.duration(rebuilding.exec_time) > Time::ZERO);
    assert!(rebuild.duration(rebuilding.exec_time) < Time::from_secs(3600));

    let refs: Vec<&EvalReport> = reports.iter().collect();
    let table = render_resilience_table(&refs);
    for needle in ["healthy", "degraded", "rebuilding", "w_retained", "rebuild"] {
        assert!(table.contains(needle), "missing {needle} in:\n{table}");
    }
}

fn pfs_run(faults: FaultScenario) -> EvalReport {
    let spec = presets::test_cluster();
    let config = IoConfigBuilder::new(DeviceLayout::raid5_paper())
        .pfs(2)
        .pfs_replicas(2)
        .build();
    let ior = Ior::new(4, fs::FileId(8), 32 * MIB, IorOp::Write).on(Mount::Pfs);
    let tables = PerfTableSet::new("test", "PVFS x2");
    let opts = EvalOptions {
        faults,
        ..EvalOptions::default()
    };
    evaluate(&spec, &config, ior.scenario(), &tables, &opts).expect("evaluation")
}

fn pfs_campaign() -> Vec<EvalReport> {
    vec![
        pfs_run(FaultScenario::Healthy),
        pfs_run(FaultScenario::PfsDegraded {
            server: 1,
            at: Time::from_millis(1),
        }),
        pfs_run(FaultScenario::PfsRecovered {
            server: 1,
            fail_at: Time::from_millis(1),
            recover_at: Time::from_millis(500),
        }),
    ]
}

#[test]
fn pfs_failover_campaign_loses_no_bytes() {
    let reports = pfs_campaign();
    let (healthy, degraded, recovered) = (&reports[0], &reports[1], &reports[2]);

    assert_eq!(healthy.io_errors, 0);
    assert_eq!(healthy.client_retries, 0, "fault-free runs never retry");
    assert_eq!(healthy.pfs_failovers, 0);

    for r in [degraded, recovered] {
        assert_eq!(
            r.profile.bytes_written, healthy.profile.bytes_written,
            "{}: every workload byte must land despite the dead server",
            r.scenario
        );
        assert_eq!(r.io_errors, 0, "{}: replicas absorb the outage", r.scenario);
        assert!(r.client_retries > 0, "{}: detection retries", r.scenario);
        assert!(r.pfs_failovers > 0, "{}: writes fail over", r.scenario);
    }
    assert_eq!(degraded.pfs_resync_bytes, 0, "no recovery, no resync");
    assert!(
        recovered.pfs_resync_bytes > 0,
        "the recovered server must replay missed writes"
    );

    let refs: Vec<&EvalReport> = reports.iter().collect();
    let table = render_resilience_table(&refs);
    for needle in ["pfs-degraded", "pfs-recovered", "failovers", "resync"] {
        assert!(table.contains(needle), "missing {needle} in:\n{table}");
    }
}

#[test]
fn same_seed_pfs_campaigns_render_identically() {
    let a = pfs_campaign();
    let b = pfs_campaign();
    let render = |reports: &[EvalReport]| {
        let refs: Vec<&EvalReport> = reports.iter().collect();
        render_resilience_table(&refs)
    };
    assert_eq!(
        render(&a),
        render(&b),
        "PFS failover campaigns must be deterministic"
    );
}

#[test]
fn same_seed_campaigns_render_identically() {
    let a = campaign();
    let b = campaign();
    let render = |reports: &[EvalReport]| {
        let refs: Vec<&EvalReport> = reports.iter().collect();
        render_resilience_table(&refs)
    };
    assert_eq!(
        render(&a),
        render(&b),
        "fault-injected campaigns must be deterministic"
    );
}

#[test]
fn resilience_experiment_renders_the_full_table() {
    let render = |profile: PfsFaultProfile| {
        let mut repro = Repro::new(Scale::Quick).with_pfs_profile(profile);
        bench::experiments::resilience(&mut repro)
    };
    let out = render(PfsFaultProfile::Full);
    for needle in [
        "Resilience",
        "healthy",
        "degraded",
        "rebuilding",
        "PFS resilience",
        "pfs-degraded",
        "pfs-recovered",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
    assert!(!out.contains("NaN") && !out.contains("inf"));

    // `--pfs-profile none` keeps the RAID table and drops the PFS one.
    let raid_only = render(PfsFaultProfile::Off);
    assert!(raid_only.contains("rebuilding"), "{raid_only}");
    for needle in ["PFS resilience", "pfs-degraded"] {
        assert!(!raid_only.contains(needle), "{needle} in:\n{raid_only}");
    }
    assert_ne!(raid_only, out);
}

#[test]
fn resilience_experiment_is_byte_identical_across_jobs() {
    let run = |jobs: usize| {
        let mut repro = Repro::new(Scale::Quick).with_jobs(jobs);
        bench::experiments::resilience(&mut repro)
    };
    assert_eq!(
        run(1),
        run(4),
        "the PFS failover campaign must render identically under --jobs 1 and --jobs 4"
    );
}
