//! End-to-end chaos harness for the campaign runtime.
//!
//! The recovery invariant under test: a campaign that suffered *any*
//! injected host fault — failed/torn/ENOSPC checkpoint writes, store
//! serialization errors, worker panics at cell boundaries, result-store
//! corruption — completes, and a chaos-free resume over the same
//! checkpoint directory renders **byte-identically** to an uninterrupted
//! run. The sweep below proves it for 28 distinct seeded fault schedules;
//! the shrinker test proves a failing schedule bisects to a 1-minimal
//! replayable `--chaos-repro` token. Each test arms its plan on its own
//! [`Store`], so the tests run in parallel and a clean store beside an
//! armed one stays clean.

use cluster::{config as ioconfig, presets};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, SuperviseOptions};
use ioeval_core::charact::CharacterizeOptions;
use ioeval_core::store::{Store, StoreHealth};
use simcore::chaos::{self, ChaosAction, ChaosProfile, ChaosSite, HostFaultPlan, Injection};
use simcore::{KIB, MIB};
use std::fs;
use std::path::PathBuf;
use workloads::{BtClass, BtIo, BtSubtype};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ioeval-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn charact_opts() -> CharacterizeOptions {
    let mut o = CharacterizeOptions::quick();
    o.records = vec![64 * KIB, MIB];
    o.iozone_file_size = Some(64 * MIB);
    o.ior_blocks = vec![MIB];
    o.ior_ranks = 2;
    o
}

/// One pinned small campaign (aohyper, 3 configs, one BT-IO app),
/// rendered. A warm `store` replays characterization phases in-process.
fn run(store: &Store) -> String {
    let spec = presets::aohyper();
    let configs = ioconfig::aohyper_configs();
    let bt = || {
        BtIo::new(BtClass::S, 4, BtSubtype::Full)
            .with_dumps(3)
            .gflops(20.0)
            .scenario()
    };
    let apps: Vec<AppFactory> = vec![("btio-full", &bt)];
    let opts = SuperviseOptions::default();
    run_campaign_supervised(&spec, &configs, &apps, &charact_opts(), &opts, store).render()
}

#[test]
fn resume_after_any_injected_fault_is_byte_identical() {
    let reference = run(&Store::memory());

    // 28 distinct seeded schedules across the profiles whose sites a plain
    // supervised campaign hits (memo-load injection needs a warm memo and
    // has its own test below; trace export is a CLI-side site).
    let sweep: &[(&str, u64)] = &[("store", 10), ("panic", 8), ("mixed", 10)];
    let mut schedules = 0usize;
    let mut fired_total = 0usize;
    for &(profile_name, seeds) in sweep {
        let profile = ChaosProfile::named(profile_name).expect("known profile");
        for seed in 0..seeds {
            let plan = HostFaultPlan::random(seed, &profile);
            assert!(
                !plan.is_empty(),
                "profile {profile_name} drew an empty plan"
            );
            schedules += 1;
            let dir = scratch(&format!("sweep-{profile_name}-{seed}"));

            // The wounded run: injected faults, must still complete.
            let store = Store::open(&dir).unwrap().with_host_faults(plan.clone());
            let wounded = run(&store);
            fired_total += store.host_faults().unwrap().fired().len();

            // Self-healing: results are unharmed — at most a store-health
            // footer is appended to the uninterrupted rendering.
            assert!(
                wounded.starts_with(&reference),
                "profile {profile_name} seed {seed} (plan {}): faults must not \
                 alter campaign results",
                plan.token()
            );

            // The recovery invariant: a chaos-free resume over whatever the
            // wounded run left on disk is byte-identical to an
            // uninterrupted run.
            let store = Store::open(&dir).unwrap();
            let resumed = run(&store);
            assert_eq!(
                resumed,
                reference,
                "profile {profile_name} seed {seed} (plan {}): resume must be \
                 byte-identical",
                plan.token()
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
    assert!(schedules >= 25, "only {schedules} schedules swept");
    assert!(
        fired_total >= schedules,
        "sweep too tame: {fired_total} injections fired over {schedules} schedules"
    );
}

#[test]
fn memo_corruption_is_quarantined_and_recomputed() {
    let reference = run(&Store::memory());

    // Warm the store, then replay the campaign from it under injected
    // memory-tier corruption: every poisoned entry must be quarantined and
    // recomputed, never served, and the rendering must not change.
    let store = Store::memory();
    let warm = run(&store);
    assert_eq!(warm, reference);

    let plan = HostFaultPlan::from_injections(vec![
        Injection {
            site: ChaosSite::MemoLoad,
            nth: 0,
            action: ChaosAction::Fail,
        },
        Injection {
            site: ChaosSite::MemoLoad,
            nth: 2,
            action: ChaosAction::Fail,
        },
    ]);
    let store = store.with_host_faults(plan);
    let replayed = run(&store);
    let fired = store.host_faults().unwrap().fired().len();
    assert_eq!(
        replayed, reference,
        "memo corruption must not leak into results"
    );
    assert_eq!(fired, 2, "both corruptions must have fired");
    assert_eq!(
        store.health().quarantined,
        2,
        "corrupt entries are quarantined"
    );
}

#[test]
fn store_faults_surface_in_the_campaign_health_footer() {
    let reference = run(&Store::memory());
    let dir = scratch("health-footer");
    let store = Store::open(&dir)
        .unwrap()
        .with_host_faults(HostFaultPlan::single(
            ChaosSite::StoreSerialize,
            0,
            ChaosAction::Fail,
        ));
    let wounded = run(&store);
    assert!(wounded.starts_with(&reference));
    assert!(
        wounded.contains("-- store health: 1 serialize error --"),
        "the typed counter must be surfaced:\n{}",
        &wounded[reference.len()..]
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shrinker_bisects_a_failing_schedule_to_a_replayable_minimal_repro() {
    // The failure being hunted: a checkpoint key degrades to memory, which
    // takes all three write attempts of one save failing — exactly the
    // injections ckpt@0, ckpt@1, ckpt@2. Bury them in 14 irrelevant
    // injections and let the shrinker dig them out.
    let mut noisy = vec![];
    for nth in 0..3 {
        noisy.push(Injection {
            site: ChaosSite::CheckpointWrite,
            nth,
            action: ChaosAction::Fail,
        });
    }
    for nth in 3..9 {
        noisy.push(Injection {
            site: ChaosSite::CheckpointWrite,
            nth,
            action: ChaosAction::Enospc,
        });
    }
    for nth in 0..4 {
        noisy.push(Injection {
            site: ChaosSite::WorkerPanic,
            nth,
            action: ChaosAction::Fail,
        });
        noisy.push(Injection {
            site: ChaosSite::MemoLoad,
            nth,
            action: ChaosAction::Fail,
        });
    }
    let plan = HostFaultPlan::from_injections(noisy);

    // Deterministic predicate: does this schedule make the store degrade?
    let runs = std::cell::Cell::new(0u32);
    let mut fails = |candidate: &HostFaultPlan| {
        runs.set(runs.get() + 1);
        let store = Store::open(scratch("shrink"))
            .unwrap()
            .with_host_faults(candidate.clone());
        let dir = store.dir().unwrap();
        dir.save("tables-shrink", "payload under test");
        dir.health().write_failures > 0
    };

    let minimal = chaos::shrink(&plan, &mut fails);
    assert_eq!(
        minimal.token(),
        "ckpt@0,ckpt@1,ckpt@2",
        "1-minimal repro: the three attempts of the first save"
    );
    assert!(
        runs.get() < 200,
        "shrinker exploded: {} predicate runs",
        runs.get()
    );

    // The emitted token replays: parse it back and reproduce the failure.
    let parsed = HostFaultPlan::parse(&minimal.token()).unwrap();
    assert_eq!(parsed, minimal);
    assert!(fails(&parsed), "the minimal repro must still reproduce");
}

#[test]
fn a_plan_fires_only_in_the_run_whose_store_carries_it() {
    let reference = run(&Store::memory());
    let (armed_dir, clean_dir) = (scratch("per-run-armed"), scratch("per-run-clean"));
    let armed = Store::open(&armed_dir)
        .unwrap()
        .with_host_faults(HostFaultPlan::random(1, &ChaosProfile::mixed()));
    let clean = Store::open(&clean_dir).unwrap();

    // Both campaigns run at once, in one process.
    let (wounded, healthy) = std::thread::scope(|s| {
        let wounded = s.spawn(|| run(&armed));
        let healthy = s.spawn(|| run(&clean));
        (wounded.join().unwrap(), healthy.join().unwrap())
    });

    assert!(
        !armed.host_faults().unwrap().fired().is_empty(),
        "the armed run must have taken faults"
    );
    assert!(wounded.starts_with(&reference));
    assert_eq!(healthy, reference, "the clean run saw another run's plan");
    assert_eq!(clean.health(), StoreHealth::default());
    let _ = fs::remove_dir_all(&armed_dir);
    let _ = fs::remove_dir_all(&clean_dir);
}
