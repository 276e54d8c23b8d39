//! Cross-crate integration tests: the full characterize → evaluate pipeline
//! on scaled-down scenarios, asserting the paper's qualitative findings.

use cluster_io_eval::prelude::*;

fn test_spec() -> ClusterSpec {
    cluster::presets::test_cluster()
}

fn jbod() -> IoConfig {
    IoConfigBuilder::new(DeviceLayout::Jbod).build()
}

#[test]
fn characterization_covers_all_levels_with_positive_rates() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    for level in IoLevel::ALL {
        let t = tables.get(level).expect("level characterized");
        assert!(!t.is_empty());
        for row in t.rows() {
            assert!(row.rate.bytes_per_sec() > 0, "{level:?} zero rate");
            assert!(row.iops > 0.0, "{level:?} zero IOPs");
            assert!(row.latency > Time::ZERO, "{level:?} zero latency");
        }
    }
}

#[test]
fn performance_tables_roundtrip_through_json_files() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    let json = tables.to_json();
    let back = PerfTableSet::from_json(&json).expect("parse back");
    assert_eq!(back.to_json(), json);
}

#[test]
fn btio_full_beats_simple_end_to_end() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    let run = |subtype| {
        let bt = BtIo::new(BtClass::S, 4, subtype).with_dumps(4).gflops(20.0);
        evaluate(
            &spec,
            &config,
            bt.scenario(),
            &tables,
            &EvalOptions::default(),
        )
        .expect("evaluation")
    };
    let full = run(BtSubtype::Full);
    let simple = run(BtSubtype::Simple);

    // The paper's headline: collective buffering exploits the I/O system;
    // tiny strided independent operations do not.
    assert!(simple.exec_time > full.exec_time * 2);
    assert!(simple.io_fraction() > full.io_fraction());
    let lib_full = full
        .usage_summary(OpType::Write, IoLevel::Library)
        .expect("usage");
    let lib_simple = simple
        .usage_summary(OpType::Write, IoLevel::Library)
        .expect("usage");
    assert!(
        lib_full > lib_simple * 3.0,
        "full {lib_full}% vs simple {lib_simple}%"
    );
}

#[test]
fn btio_profile_matches_table_geometry() {
    let spec = test_spec();
    let config = jbod();
    let bt = BtIo::new(BtClass::S, 4, BtSubtype::Simple)
        .with_dumps(3)
        .gflops(20.0);
    let expected: u64 = (0..4).map(|r| bt.simple_ops_per_rank_per_dump(r) * 3).sum();
    let profile = characterize_app(&spec, &config, bt.scenario(), None).expect("profile");
    assert_eq!(profile.numio_write, expected);
    assert_eq!(profile.numio_read, expected);
    assert_eq!(profile.num_files, 1);
    assert_eq!(profile.procs, 4);
    // One write size for class S/4 procs (24/2 = 12-point lines).
    assert_eq!(profile.write_sizes.len(), 1);
    assert_eq!(profile.write_sizes[0].0, 480);
    // Strided access detected for the simple subtype.
    assert_eq!(profile.mode_write, AccessMode::Strided);
}

#[test]
fn madbench_unique_rereads_hit_the_cache_shared_reads_do_too() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    // Small matrices: everything fits in the client caches (the paper's
    // "reading operations are done on buffer/cache" situation).
    let mb = MadBench::new(4, FileType::Unique).with_kpix(1);
    let rep = evaluate(
        &spec,
        &config,
        mb.scenario(),
        &tables,
        &EvalOptions::default(),
    )
    .expect("evaluation");
    let w_r = rep
        .marker_usage_of(1, OpType::Read, IoLevel::LocalFs)
        .expect("W_r usage");
    assert!(w_r > 100.0, "cached re-reads must exceed 100% (got {w_r}%)");
}

#[test]
fn madbench_phase_structure_is_captured() {
    let spec = test_spec();
    let config = jbod();
    let mb = MadBench::new(4, FileType::Shared).with_kpix(1);
    let profile = characterize_app(&spec, &config, mb.scenario(), None).expect("profile");
    // 8 writes (S) + 8 reads + 8 writes (W) + 8 reads (C) per process.
    assert_eq!(profile.numio_write, 4 * 16);
    assert_eq!(profile.numio_read, 4 * 16);
    assert_eq!(profile.numio_sync, 4 * 16);
    // Marker rates present for all four paper columns.
    let has = |marker, op| {
        profile
            .per_marker
            .iter()
            .any(|m| m.marker == marker && m.op == op)
    };
    assert!(has(0, OpType::Write), "S_w");
    assert!(has(1, OpType::Write), "W_w");
    assert!(has(1, OpType::Read), "W_r");
    assert!(has(2, OpType::Read), "C_r");
}

#[test]
fn raid5_config_beats_jbod_for_streaming_writes() {
    let spec = test_spec();
    let raid5 = IoConfigBuilder::new(DeviceLayout::Raid5 {
        disks: 5,
        stripe: 256 * KIB,
    })
    .build();
    let opts = CharacterizeOptions::quick();
    let t_jbod = characterize_system(&spec, &jbod(), &opts).expect("characterization");
    let t_raid5 = characterize_system(&spec, &raid5, &opts).expect("characterization");
    let rate = |t: &PerfTableSet| {
        t.get(IoLevel::LocalFs)
            .unwrap()
            .search(
                OpType::Write,
                MIB,
                AccessType::Local,
                AccessMode::Sequential,
            )
            .unwrap()
            .rate
    };
    assert!(
        rate(&t_raid5).bytes_per_sec() > rate(&t_jbod).bytes_per_sec() * 2,
        "RAID 5 {} vs JBOD {}",
        rate(&t_raid5),
        rate(&t_jbod)
    );
}

#[test]
fn evaluation_is_deterministic() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    let run = || {
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(3)
            .gflops(20.0);
        let rep = evaluate(
            &spec,
            &config,
            bt.scenario(),
            &tables,
            &EvalOptions::default(),
        )
        .expect("evaluation");
        (rep.exec_time, rep.io_time, format!("{:?}", rep.usage))
    };
    assert_eq!(run(), run());
}

#[test]
fn usage_search_follows_fig11_on_real_tables() {
    let spec = test_spec();
    let config = jbod();
    let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
        .expect("characterization");
    let t = tables.get(IoLevel::LocalFs).unwrap();
    // Quick options characterize 64 KiB and 1 MiB records. A 100 KiB
    // application block must resolve to the closest upper row (1 MiB).
    let row = t
        .search(
            OpType::Read,
            100 * KIB,
            AccessType::Local,
            AccessMode::Sequential,
        )
        .expect("row");
    assert_eq!(row.block, MIB);
    // Below the minimum → the minimum row.
    let row = t
        .search(OpType::Read, 1, AccessType::Local, AccessMode::Sequential)
        .expect("row");
    assert_eq!(row.block, 64 * KIB);
    // Above the maximum → the maximum row.
    let row = t
        .search(OpType::Read, GIB, AccessType::Local, AccessMode::Sequential)
        .expect("row");
    assert_eq!(row.block, MIB);
}

#[test]
fn shared_network_hurts_io_heavy_apps() {
    let spec = test_spec();
    let split = IoConfigBuilder::new(DeviceLayout::Jbod).build();
    let shared = IoConfigBuilder::new(DeviceLayout::Jbod)
        .network(NetworkLayout::Shared)
        .build();
    // An app that communicates while doing I/O suffers when the traffic
    // shares one fabric; quantify with BT-IO full (comm-heavy).
    let run = |config: &IoConfig| {
        let bt = BtIo::new(BtClass::A, 4, BtSubtype::Full)
            .with_dumps(4)
            .gflops(20.0);
        let mut machine =
            cluster::ClusterMachine::try_new(&spec, config).expect("valid cluster configuration");
        let programs = bt.scenario().install(&mut machine);
        let placement = spec.placement(4);
        let stats = cluster_io_eval::mpisim::Runtime::default().run(
            &mut machine,
            &placement,
            programs,
            &mut cluster_io_eval::simcore::obs::NoSink,
        );
        stats.wall_time
    };
    let t_split = run(&split);
    let t_shared = run(&shared);
    assert!(
        t_shared >= t_split,
        "shared network {t_shared:?} cannot beat dedicated {t_split:?}"
    );
}

#[test]
fn advisor_ranking_matches_simulation_order() {
    use cluster_io_eval::methodology::advisor::rank_configs;
    let spec = test_spec();
    let configs = [
        IoConfigBuilder::new(DeviceLayout::Jbod)
            .write_cache_mib(0)
            .build(),
        IoConfigBuilder::new(DeviceLayout::Raid5 {
            disks: 5,
            stripe: 256 * KIB,
        })
        .build(),
    ];
    let opts = CharacterizeOptions::quick();
    let table_sets: Vec<PerfTableSet> = configs
        .iter()
        .map(|c| characterize_system(&spec, c, &opts).expect("characterization"))
        .collect();

    // A write-heavy checkpoint app: server-device-bound once past caches.
    let app = || {
        MadBench::new(4, FileType::Shared).with_kpix(2) // 32 MiB components
    };
    let profile = characterize_app(&spec, &configs[0], app().scenario(), None).expect("profile");

    let ranked = rank_configs(&profile, table_sets.iter());
    assert_eq!(ranked.len(), 2);

    // Simulate both; the advisor's order must match the simulated order.
    let simulated: Vec<(String, Time)> = configs
        .iter()
        .zip(&table_sets)
        .map(|(c, t)| {
            let rep = evaluate(&spec, c, app().scenario(), t, &EvalOptions::default())
                .expect("evaluation");
            (c.name.clone(), rep.io_time)
        })
        .collect();
    let best = simulated.iter().map(|&(_, t)| t).min().expect("nonempty");
    let picked = simulated
        .iter()
        .find(|(name, _)| *name == ranked[0].config)
        .map(|&(_, t)| t)
        .expect("advisor picked a known config");
    // The advisor's pick must be competitive with the simulated best
    // (exact order can flip on near-ties; a bad pick would be far off).
    assert!(
        picked.as_secs_f64() <= best.as_secs_f64() * 1.25,
        "advisor picked {} ({picked:?}) but the best simulated is {best:?}",
        ranked[0].config
    );
}

#[test]
fn parallel_fs_rescues_the_simple_subtype() {
    let spec = test_spec();
    let nfs_config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
    let pfs_config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
    let run = |config: &IoConfig, mount| {
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Simple)
            .with_dumps(4)
            .gflops(20.0)
            .on(mount);
        characterize_app(&spec, config, bt.scenario(), None).expect("profile")
    };
    let on_nfs = run(&nfs_config, Mount::NfsDirect);
    let on_pfs = run(&pfs_config, Mount::Pfs);
    // PVFS needs no per-op locking, so the tiny strided operations escape
    // the lockd serialization that dominates them on NFS.
    assert!(
        on_pfs.io_time.as_secs_f64() < on_nfs.io_time.as_secs_f64() * 0.5,
        "PFS {:?} vs NFS {:?}",
        on_pfs.io_time,
        on_nfs.io_time
    );
    assert_eq!(on_pfs.numio_write, on_nfs.numio_write, "same workload");
}

#[test]
fn pfs_configs_characterize_their_own_architecture() {
    let spec = test_spec();
    let pfs_config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
    let tables = characterize_system(&spec, &pfs_config, &CharacterizeOptions::quick())
        .expect("characterization");
    // All three levels characterized against the PFS deployment.
    for level in IoLevel::ALL {
        assert!(tables.get(level).is_some(), "{level:?} missing");
    }
    // Evaluating a PFS-mounted app against its own characterization closes
    // the loop: usage must be in a sane range, not wildly off-scale.
    let bt = BtIo::new(BtClass::S, 4, BtSubtype::Full)
        .with_dumps(4)
        .gflops(20.0)
        .on(Mount::Pfs);
    let rep = evaluate(
        &spec,
        &pfs_config,
        bt.scenario(),
        &tables,
        &EvalOptions::default(),
    )
    .expect("evaluation");
    let lib = rep
        .usage_summary(OpType::Write, IoLevel::Library)
        .expect("library usage");
    assert!(lib > 10.0 && lib < 1000.0, "PFS library usage = {lib}%");
}

#[test]
fn supervised_campaign_is_jobs_invariant() {
    // CI runs this test twice: once in the default lane and once with
    // IOEVAL_JOBS=4. The campaign under the environment's worker count
    // must render byte-identically to the sequential reference — the
    // parallel scheduler's whole contract in one assertion.
    let spec = test_spec();
    let configs = vec![
        IoConfigBuilder::new(DeviceLayout::Jbod)
            .write_cache_mib(0)
            .build(),
        IoConfigBuilder::new(DeviceLayout::Raid5 {
            disks: 5,
            stripe: 256 * KIB,
        })
        .build(),
    ];
    let full = || {
        BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(3)
            .gflops(20.0)
            .scenario()
    };
    let simple = || {
        BtIo::new(BtClass::S, 4, BtSubtype::Simple)
            .with_dumps(2)
            .gflops(20.0)
            .scenario()
    };
    let apps: Vec<AppFactory> = vec![("btio-full", &full), ("btio-simple", &simple)];
    let opts = CharacterizeOptions::quick();
    let env_jobs = std::env::var("IOEVAL_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);

    let run = |jobs: usize| {
        let sup = SuperviseOptions::default().with_jobs(jobs);
        run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &Store::memory())
    };
    let reference = run(1);
    assert_eq!(reference.outcomes.len(), 4);
    assert!(!reference.is_degraded());
    if env_jobs > 1 {
        let parallel = run(env_jobs);
        assert_eq!(
            reference.render(),
            parallel.render(),
            "IOEVAL_JOBS={env_jobs} diverged from sequential"
        );
    }
}

#[test]
fn io500_style_campaign_and_metadata_metrics_are_jobs_invariant() {
    // The io500 experiment fans its ior + mdtest phases out through the
    // parallel campaign scheduler; both the rendered campaign (including
    // the metadata ops/s lines) and the aggregated per-level metrics —
    // Metadata level included — must be byte-identical however many
    // workers run the cells.
    use std::sync::Arc;
    use workloads::Mdtest;
    let spec = test_spec();
    let configs = vec![
        IoConfigBuilder::new(DeviceLayout::raid5_paper()).build(),
        IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .pfs(4)
            .name("raid5-pfs4")
            .build(),
    ];
    let ior = || {
        Ior::new(4, cluster_io_eval::fs::FileId(701), 4 * MIB, IorOp::Write)
            .on(Mount::Nfs)
            .scenario()
    };
    let md_easy = || Mdtest::easy(4, 10).scenario();
    let md_hard = || Mdtest::hard(4, 10).scenario();
    let apps: Vec<AppFactory> = vec![
        ("ior-easy-write", &ior),
        ("mdtest-easy", &md_easy),
        ("mdtest-hard", &md_hard),
    ];
    let opts = CharacterizeOptions::quick();
    let run = |jobs: usize| {
        let hub = Arc::new(ioeval_core::obs::MetricsHub::new());
        let sup = SuperviseOptions {
            metrics: Some(hub.clone()),
            ..SuperviseOptions::default()
        }
        .with_jobs(jobs);
        let campaign =
            run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, &Store::memory());
        assert!(!campaign.is_degraded());
        let metrics = ioeval_core::obs::render_obs_metrics(&hub.aggregate(), Time::from_secs(1));
        (campaign.render(), metrics)
    };
    let (seq_render, seq_metrics) = run(1);
    // The metadata level was actually observed and rendered.
    assert!(seq_render.contains("metadata: "), "{seq_render}");
    assert!(seq_metrics.contains("Metadata"), "{seq_metrics}");
    let (par_render, par_metrics) = run(4);
    assert_eq!(seq_render, par_render, "campaign render diverged at jobs=4");
    assert_eq!(
        seq_metrics, par_metrics,
        "metadata metrics diverged at jobs=4"
    );
}

#[test]
fn bonnie_tests_have_expected_cost_ordering() {
    use workloads::{Bonnie, BonnieTest};
    let spec = test_spec();
    let config = jbod();
    let run = |test| {
        let b = Bonnie::new(cluster_io_eval::fs::FileId(31), 64 * MIB, test);
        characterize_app(&spec, &config, b.scenario(), None).expect("profile")
    };
    let output = run(BonnieTest::SeqOutput);
    let input = run(BonnieTest::SeqInput);
    let rewrite = run(BonnieTest::Rewrite);
    let seeks = run(BonnieTest::RandomSeeks);

    // Rewrite moves 2× the bytes of a single pass and mixes directions.
    assert_eq!(rewrite.bytes_read, 64 * MIB);
    assert_eq!(rewrite.bytes_written, 64 * MIB);
    assert!(rewrite.io_time > input.io_time);
    assert!(output.exec_time > Time::ZERO);

    // The seek test produces an IOPs figure in a mechanical-disk range
    // (the 64 MiB test file allows partial caching, so it can beat raw
    // spindle IOPs but must stay far below memory speed).
    let m = seeks
        .measured
        .iter()
        .find(|m| m.op == OpType::Read)
        .expect("seek reads measured");
    assert!(
        m.iops > 20.0 && m.iops < 20_000.0,
        "random-seek IOPs = {}",
        m.iops
    );
}

#[test]
fn ior_collective_and_independent_both_complete() {
    let spec = test_spec();
    let config = jbod();
    for collective in [false, true] {
        let mut ior = Ior::new(
            4,
            cluster_io_eval::fs::FileId(77),
            4 * MIB,
            workloads::ior::IorOp::Write,
        );
        if collective {
            ior = ior.collective();
        }
        let profile = characterize_app(&spec, &config, ior.scenario(), None).expect("profile");
        assert_eq!(profile.bytes_written, 16 * MIB, "collective={collective}");
        assert!(profile.exec_time > Time::ZERO);
    }
}
