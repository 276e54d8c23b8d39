//! `ioeval` — apply the methodology from the command line.
//!
//! ```text
//! ioeval characterize --cluster aohyper --config raid5 [--quick] [--out tables.json]
//! ioeval evaluate     --cluster aohyper --config raid5 --tables tables.json --app btio-full [--procs 16]
//! ioeval advise       --cluster aohyper --app madbench-shared --tables a.json b.json ...
//! ioeval list
//! ```
//!
//! `characterize` produces a performance-table JSON file (the artifact the
//! paper's evaluation phase consumes); `evaluate` runs an application on a
//! configuration and prints the metrics plus the used-percentage table;
//! `advise` ranks previously characterized configurations for an
//! application without running it on each.

use cluster_io_eval::prelude::*;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    match cmd.as_str() {
        "characterize" => characterize(&args[1..]),
        "evaluate" => evaluate_cmd(&args[1..]),
        "advise" => advise(&args[1..]),
        "list" => list(),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("ioeval: unknown command '{other}'");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "usage:\n  ioeval characterize --cluster <name> --config <name> [--quick] [--out FILE]\n  \
         ioeval evaluate --cluster <name> --config <name> --tables FILE --app <name> [--procs N] [--trace FILE]\n  \
         ioeval advise --cluster <name> --app <name> [--procs N] --tables FILE...\n  \
         ioeval list"
    );
}

fn list() {
    println!("clusters:  aohyper | cluster-a | test");
    println!("configs:   jbod | raid1 | raid5 | raid5-shared-net | raid5-pfs4");
    println!(
        "apps:      btio-full | btio-simple | madbench-unique | madbench-shared | flash-io | ior-write | ior-read"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn die(msg: &str) -> ! {
    eprintln!("ioeval: {msg}");
    exit(2);
}

fn cluster_by_name(name: &str) -> ClusterSpec {
    match name {
        "aohyper" => cluster::presets::aohyper(),
        "cluster-a" | "cluster_a" => cluster::presets::cluster_a(),
        "test" => cluster::presets::test_cluster(),
        other => die(&format!("unknown cluster '{other}' (see 'ioeval list')")),
    }
}

fn config_by_name(name: &str) -> IoConfig {
    match name {
        "jbod" => IoConfigBuilder::new(DeviceLayout::Jbod)
            .write_cache_mib(0)
            .build(),
        "raid1" => IoConfigBuilder::new(DeviceLayout::Raid1).build(),
        "raid5" => IoConfigBuilder::new(DeviceLayout::raid5_paper()).build(),
        "raid5-shared-net" => IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .network(NetworkLayout::Shared)
            .name("raid5-shared-net")
            .build(),
        "raid5-pfs4" => IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .pfs(4)
            .name("raid5-pfs4")
            .build(),
        other => die(&format!("unknown config '{other}' (see 'ioeval list')")),
    }
}

/// `--procs N` (default 16) for `app`, checked before any tables file is
/// read: at least 1, and a perfect square for the BT-IO and MADbench2
/// process grids.
fn procs_for(args: &[String], app: &str) -> usize {
    let procs: usize = flag(args, "--procs")
        .map(|p| {
            p.parse()
                .unwrap_or_else(|_| die("--procs must be a number"))
        })
        .unwrap_or(16);
    if procs == 0 {
        die("--procs must be at least 1");
    }
    // The same square test `BtIo::new` and `MadBench::new` assert.
    let side = (procs as f64).sqrt() as usize;
    if (app.starts_with("btio-") || app.starts_with("madbench-")) && side * side != procs {
        die(&format!(
            "--procs {procs}: {app} needs a square process count (1, 4, 9, 16, ...)"
        ));
    }
    procs
}

fn app_by_name(name: &str, procs: usize, quick: bool) -> Scenario {
    match name {
        "btio-full" | "btio-simple" => {
            let subtype = if name.ends_with("full") {
                BtSubtype::Full
            } else {
                BtSubtype::Simple
            };
            let bt = if quick {
                BtIo::new(BtClass::A, procs, subtype).with_dumps(8)
            } else {
                BtIo::new(BtClass::C, procs, subtype)
            };
            bt.scenario()
        }
        "madbench-unique" | "madbench-shared" => {
            let ft = if name.ends_with("unique") {
                FileType::Unique
            } else {
                FileType::Shared
            };
            let mb = if quick {
                MadBench::new(procs, ft).with_kpix(4)
            } else {
                MadBench::new(procs, ft)
            };
            mb.scenario()
        }
        "flash-io" => {
            let f = if quick {
                cluster_io_eval::workloads::FlashIo::new(procs).quick()
            } else {
                cluster_io_eval::workloads::FlashIo::new(procs)
            };
            f.scenario()
        }
        "ior-write" | "ior-read" => {
            let op = if name.ends_with("write") {
                workloads::ior::IorOp::Write
            } else {
                workloads::ior::IorOp::Read
            };
            Ior::new(
                procs,
                cluster_io_eval::fs::FileId(0x10AD),
                if quick { 16 * MIB } else { 256 * MIB },
                op,
            )
            .scenario()
        }
        other => die(&format!("unknown app '{other}' (see 'ioeval list')")),
    }
}

fn characterize(args: &[String]) {
    let spec =
        cluster_by_name(&flag(args, "--cluster").unwrap_or_else(|| die("--cluster required")));
    let config =
        config_by_name(&flag(args, "--config").unwrap_or_else(|| die("--config required")));
    let opts = if has(args, "--quick") {
        CharacterizeOptions::quick()
    } else {
        CharacterizeOptions::paper()
    };
    eprintln!(
        "[ioeval] characterizing {} / {} ({} records x {} modes + {} IOR blocks) ...",
        spec.name,
        config.name,
        opts.records.len(),
        opts.modes.len(),
        opts.ior_blocks.len()
    );
    let tables = characterize_system(&spec, &config, &opts)
        .unwrap_or_else(|e| die(&format!("characterization failed: {e}")));
    println!("{}", report::render_table_set(&tables));
    if let Some(path) = flag(args, "--out") {
        std::fs::write(&path, tables.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("[ioeval] wrote {path}");
    }
}

fn load_tables(path: &str) -> PerfTableSet {
    let s =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    PerfTableSet::from_json(&s).unwrap_or_else(|e| die(&format!("bad tables file {path}: {e}")))
}

fn evaluate_cmd(args: &[String]) {
    let spec =
        cluster_by_name(&flag(args, "--cluster").unwrap_or_else(|| die("--cluster required")));
    let config =
        config_by_name(&flag(args, "--config").unwrap_or_else(|| die("--config required")));
    let app_name = flag(args, "--app").unwrap_or_else(|| die("--app required"));
    let procs = procs_for(args, &app_name);
    let tables = load_tables(&flag(args, "--tables").unwrap_or_else(|| die("--tables required")));
    let app = app_by_name(&app_name, procs, has(args, "--quick"));
    let name = app.name.clone();
    eprintln!(
        "[ioeval] evaluating {name} on {} / {} ...",
        spec.name, config.name
    );
    // Optional Chrome-trace capture of the run (open in ui.perfetto.dev).
    if let Some(trace_path) = flag(args, "--trace") {
        use cluster_io_eval::methodology::obs::{to_chrome, Collector, TraceMeta};
        use cluster_io_eval::mpisim::Runtime;
        use cluster_io_eval::simcore::obs::NoSink;
        let collector = Collector::with_capacity(2_000_000);
        {
            let _guard = collector.install();
            let mut machine =
                ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
            let programs = app.install(&mut machine);
            Runtime::default().run(&mut machine, &spec.placement(procs), programs, &mut NoSink);
        }
        let data = collector.take();
        let (events, dropped) = (data.events.len(), data.dropped);
        std::fs::write(&trace_path, to_chrome(&[(TraceMeta::default(), data)]))
            .unwrap_or_else(|e| die(&format!("cannot write {trace_path}: {e}")));
        eprintln!(
            "[ioeval] wrote {trace_path} ({events} events{}) — open in chrome://tracing or ui.perfetto.dev",
            if dropped > 0 {
                format!(", {dropped} dropped")
            } else {
                String::new()
            }
        );
        return;
    }
    let rep = evaluate(&spec, &config, app, &tables, &EvalOptions::default())
        .unwrap_or_else(|e| die(&format!("evaluation failed: {e}")));
    println!("application:   {name}");
    println!(
        "execution {}   I/O {} ({:.1}% of runtime)   write {}   read {}",
        rep.exec_time,
        rep.io_time,
        rep.io_fraction() * 100.0,
        rep.write_rate,
        rep.read_rate
    );
    println!(
        "\ntimeline:\n{}",
        report::render_phase_timeline(&rep.profile, 100)
    );
    println!("used percentage of characterized capacity:");
    for op in [OpType::Write, OpType::Read] {
        for level in IoLevel::ALL {
            if let Some(pct) = rep.usage_summary(op, level) {
                println!("  {op:<5} @ {:<8} {pct:>8.1}%", level.label());
            }
        }
    }
}

fn advise(args: &[String]) {
    let spec =
        cluster_by_name(&flag(args, "--cluster").unwrap_or_else(|| die("--cluster required")));
    let app_name = flag(args, "--app").unwrap_or_else(|| die("--app required"));
    let procs = procs_for(args, &app_name);
    // All positional values after --tables are table files.
    let ti = args
        .iter()
        .position(|a| a == "--tables")
        .unwrap_or_else(|| die("--tables required"));
    let table_files: Vec<&String> = args[ti + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    if table_files.is_empty() {
        die("--tables needs at least one file");
    }
    let sets: Vec<PerfTableSet> = table_files.iter().map(|p| load_tables(p)).collect();

    // Profile the application once on the first configuration's cluster
    // (the paper: the application characterization transfers).
    let app = app_by_name(&app_name, procs, has(args, "--quick"));
    let any_config = config_by_name("jbod");
    eprintln!("[ioeval] profiling {app_name} ...");
    let profile = characterize_app(&spec, &any_config, app, None)
        .unwrap_or_else(|e| die(&format!("profiling failed: {e}")));

    let ranked = cluster_io_eval::methodology::advisor::rank_configs(&profile, sets.iter());
    if ranked.is_empty() {
        die("no candidate tables cover this application");
    }
    println!("ranking for {app_name} (best first):");
    for (i, p) in ranked.iter().enumerate() {
        println!(
            "  {}. {:<18} predicted I/O time {:>12}  bottleneck: {}",
            i + 1,
            p.config,
            format!("{}", p.io_time),
            p.bottleneck.label()
        );
    }
}
