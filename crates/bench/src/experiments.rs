//! One function per table/figure of the paper (see DESIGN.md §4).

use crate::context::Repro;
use cluster::ClusterSpec;
use ioeval_core::eval::EvalReport;
use ioeval_core::perf_table::{AccessMode, IoLevel, OpType, PerfTableSet};
use ioeval_core::report::{
    render_app_profile, render_metrics, render_phase_timeline, render_usage_matrix, TextTable,
};
use ioeval_core::trace::PhaseClass;
use simcore::fmt_bytes;
use workloads::madbench::markers;
use workloads::{BtSubtype, FileType};

fn rate_cell(set: &PerfTableSet, level: IoLevel, op: OpType, block: u64) -> String {
    set.get(level)
        .and_then(|t| t.search_lenient(op, block, level.access_type(), AccessMode::Sequential))
        .map(|r| format!("{:.1}", r.rate.as_mib_per_sec()))
        .unwrap_or_else(|| "-".into())
}

/// Table I: the performance-table data structure, demonstrated on a live
/// characterization.
pub fn table1(r: &mut Repro) -> String {
    let spec = r.aohyper();
    let config = &r.aohyper_configs()[0];
    let set = r.characterize(&spec, config);
    let mut out = String::from(
        "Table I — data structure of the I/O performance table\n\
         Attributes: OperationType {read(0), write(1)}, Blocksize (bytes),\n\
         AccessType {Local(0), Global(1)}, AccessesMode {Sequential, Strided,\n\
         Random}, transferRate (MiB/s) — plus measured IOPs and latency.\n\n\
         Sample rows (Aohyper / JBOD / local filesystem level):\n\n",
    );
    if let Some(t) = set.get(IoLevel::LocalFs) {
        out.push_str(&ioeval_core::report::render_perf_table(t));
    }
    out
}

/// Fig. 4: the I/O configurations of the cluster Aohyper.
pub fn fig4(r: &mut Repro) -> String {
    let spec = r.aohyper();
    let mut t = TextTable::new(vec!["configuration", "devices", "network", "write cache"]);
    for c in r.aohyper_configs() {
        t.row(vec![
            c.name.clone(),
            format!("{:?}", c.devices),
            format!("{:?}", c.network),
            if c.write_cache_mib > 0 {
                format!("{} MiB write-back", c.write_cache_mib)
            } else {
                "none".into()
            },
        ]);
    }
    format!(
        "Fig. 4 — I/O configurations of the cluster {} \
         ({} compute nodes, {} RAM each; I/O node {} RAM):\n\n{}",
        spec.name,
        spec.compute_nodes,
        fmt_bytes(spec.node_ram),
        fmt_bytes(spec.io_node_ram),
        t.render()
    )
}

fn fs_characterization_figure(r: &mut Repro, spec: &ClusterSpec, title: &str) -> String {
    let configs = if spec.name == "Aohyper" {
        r.aohyper_configs()
    } else {
        vec![r.cluster_a_config()]
    };
    let records = r.charact_options(spec).records;
    let mut out = format!("{title}\n");
    for config in &configs {
        let set = r.characterize(spec, config);
        let mut t = TextTable::new(vec![
            "record",
            "localFS write MiB/s",
            "localFS read MiB/s",
            "NFS write MiB/s",
            "NFS read MiB/s",
        ]);
        for &rec in &records {
            t.row(vec![
                fmt_bytes(rec),
                rate_cell(&set, IoLevel::LocalFs, OpType::Write, rec),
                rate_cell(&set, IoLevel::LocalFs, OpType::Read, rec),
                rate_cell(&set, IoLevel::GlobalFs, OpType::Write, rec),
                rate_cell(&set, IoLevel::GlobalFs, OpType::Read, rec),
            ]);
        }
        out.push_str(&format!(
            "\n-- configuration: {} --\n{}",
            config.name,
            t.render()
        ));
    }
    out
}

/// Fig. 5: local and network filesystem characterization of Aohyper
/// (sequential IOzone sweep; the paper's curves).
pub fn fig5(r: &mut Repro) -> String {
    let spec = r.aohyper();
    fs_characterization_figure(
        r,
        &spec,
        "Fig. 5 — Aohyper local/network filesystem characterization \
         (IOzone, file = 2x RAM, sequential):",
    )
}

fn library_characterization_figure(r: &mut Repro, spec: &ClusterSpec, title: &str) -> String {
    let configs = if spec.name == "Aohyper" {
        r.aohyper_configs()
    } else {
        vec![r.cluster_a_config()]
    };
    let blocks = r.charact_options(spec).ior_blocks;
    let mut out = format!("{title}\n");
    for config in &configs {
        let set = r.characterize(spec, config);
        let mut t = TextTable::new(vec!["block", "write MiB/s", "read MiB/s"]);
        for &b in &blocks {
            t.row(vec![
                fmt_bytes(b),
                rate_cell(&set, IoLevel::Library, OpType::Write, b),
                rate_cell(&set, IoLevel::Library, OpType::Read, b),
            ]);
        }
        out.push_str(&format!(
            "\n-- configuration: {} --\n{}",
            config.name,
            t.render()
        ));
    }
    out
}

/// Fig. 6: I/O library characterization of Aohyper (IOR sweep).
pub fn fig6(r: &mut Repro) -> String {
    let spec = r.aohyper();
    library_characterization_figure(
        r,
        &spec,
        "Fig. 6 — Aohyper I/O library characterization \
         (IOR, 8 procs, 256 KiB transfers):",
    )
}

/// Table II: NAS BT-IO characterization, class C, 16 processes.
pub fn table2(r: &mut Repro) -> String {
    btio_characterization_table(r, 16, "Table II — NAS BT-IO characterization, 16 processes")
}

/// Table V: NAS BT-IO characterization, class C, 64 processes.
pub fn table5(r: &mut Repro) -> String {
    btio_characterization_table(r, 64, "Table V — NAS BT-IO characterization, 64 processes")
}

fn btio_characterization_table(r: &mut Repro, procs: usize, title: &str) -> String {
    let spec = r.aohyper();
    let config = &r.aohyper_configs()[0];
    let mut out = format!("{title}\n");
    for subtype in [BtSubtype::Full, BtSubtype::Simple] {
        let bt = r.btio(procs, subtype);
        let profile = r.eval(&spec, config, &bt).profile;
        out.push_str(&format!("\n-- subtype: {subtype:?} --\n"));
        out.push_str(&render_app_profile(&profile));
    }
    out
}

fn phase_figure(title: &str, profile: &ioeval_core::trace::AppProfile) -> String {
    let mut t = TextTable::new(vec!["phase", "class", "ops", "bytes", "start", "duration"]);
    // Show at most the first 20 I/O bursts plus a summary.
    for (i, p) in profile.phases.io_phases().take(20).enumerate() {
        t.row(vec![
            format!("{i}"),
            format!("{:?}", p.class),
            p.ops.to_string(),
            fmt_bytes(p.bytes),
            format!("{}", p.start),
            format!("{}", p.end.saturating_sub(p.start)),
        ]);
    }
    let mut sig = TextTable::new(vec!["class", "bytes bucket", "repetitions (weight)"]);
    for (class, bucket, n) in profile.phases.signature_weights() {
        sig.row(vec![format!("{class:?}"), fmt_bytes(bucket), n.to_string()]);
    }
    let writes = profile
        .phases
        .io_phases()
        .filter(|p| p.class == PhaseClass::Write)
        .count();
    let reads = profile
        .phases
        .io_phases()
        .filter(|p| p.class == PhaseClass::Read)
        .count();
    format!(
        "{title}\n\nI/O phases on the representative rank: {writes} write, {reads} read\n\n\
         timeline:\n{}\nfirst bursts:\n{}\nphase signatures (repetitive behaviour):\n{}",
        render_phase_timeline(profile, 100),
        t.render(),
        sig.render()
    )
}

/// Fig. 8: BT-IO trace phases (write phases interleaved with
/// communication, one read phase at the end).
pub fn fig8(r: &mut Repro) -> String {
    let spec = r.aohyper();
    let config = &r.aohyper_configs()[0];
    let mut out = String::new();
    for subtype in [BtSubtype::Full, BtSubtype::Simple] {
        let bt = r.btio(16, subtype);
        let profile = r.eval(&spec, config, &bt).profile;
        out.push_str(&phase_figure(
            &format!("Fig. 8 — NAS BT-IO {subtype:?} subtype traces (16 processes)"),
            &profile,
        ));
        out.push('\n');
    }
    out
}

/// Runs BT-IO over every Aohyper configuration (memoized); returns
/// `(config name, subtype label, report)` triples.
fn btio_aohyper_runs(r: &mut Repro, procs: usize) -> Vec<(String, String, EvalReport)> {
    let spec = r.aohyper();
    let mut out = Vec::new();
    for config in r.aohyper_configs() {
        for subtype in [BtSubtype::Full, BtSubtype::Simple] {
            let bt = r.btio(procs, subtype);
            let report = r.eval(&spec, &config, &bt);
            out.push((
                config.name.clone(),
                format!("{subtype:?}").to_uppercase(),
                report,
            ));
        }
    }
    out
}

/// Fig. 12: BT-IO class C / 16 procs on the three Aohyper configurations —
/// execution time, I/O time and throughput.
pub fn fig12(r: &mut Repro) -> String {
    let runs = btio_aohyper_runs(r, 16);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    format!(
        "Fig. 12 — NAS BT-IO 16 processes on Aohyper:\n\n{}",
        render_metrics(&refs)
    )
}

/// Table III: % of I/O system used by BT-IO writes on Aohyper.
pub fn table3(r: &mut Repro) -> String {
    let runs = btio_aohyper_runs(r, 16);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    render_usage_matrix(
        "Table III — % of I/O system use for NAS BT-IO on Aohyper",
        OpType::Write,
        &refs,
    )
}

/// Table IV: % of I/O system used by BT-IO reads on Aohyper.
pub fn table4(r: &mut Repro) -> String {
    let runs = btio_aohyper_runs(r, 16);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    render_usage_matrix(
        "Table IV — % of I/O system use for NAS BT-IO on Aohyper",
        OpType::Read,
        &refs,
    )
}

/// Fig. 13: cluster A local/network filesystem characterization.
pub fn fig13(r: &mut Repro) -> String {
    let spec = r.cluster_a();
    fs_characterization_figure(
        r,
        &spec,
        "Fig. 13 — Cluster A local/network filesystem characterization:",
    )
}

/// Fig. 14: cluster A I/O library characterization.
pub fn fig14(r: &mut Repro) -> String {
    let spec = r.cluster_a();
    library_characterization_figure(
        r,
        &spec,
        "Fig. 14 — Cluster A I/O library characterization (IOR):",
    )
}

/// Runs BT-IO on cluster A for 16 and 64 procs.
fn btio_cluster_a_runs(r: &mut Repro) -> Vec<(String, String, EvalReport)> {
    let spec = r.cluster_a();
    let config = r.cluster_a_config();
    let mut out = Vec::new();
    for procs in [16usize, 64] {
        for subtype in [BtSubtype::Full, BtSubtype::Simple] {
            let bt = r.btio(procs, subtype).gflops(2.0); // faster Xeons
            let report = r.eval(&spec, &config, &bt);
            out.push((
                format!("{procs}"),
                format!("{subtype:?}").to_uppercase(),
                report,
            ));
        }
    }
    out
}

/// Fig. 15: BT-IO on cluster A for 16 and 64 processes.
pub fn fig15(r: &mut Repro) -> String {
    let runs = btio_cluster_a_runs(r);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    format!(
        "Fig. 15 — NAS BT-IO on Cluster A (rows: processes):\n\n{}",
        render_metrics(&refs)
    )
}

/// Table VI: % use, BT-IO writes on cluster A.
pub fn table6(r: &mut Repro) -> String {
    let runs = btio_cluster_a_runs(r);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    render_usage_matrix(
        "Table VI — % of I/O system use for NAS BT-IO on Cluster A (rows: processes)",
        OpType::Write,
        &refs,
    )
}

/// Table VII: % use, BT-IO reads on cluster A.
pub fn table7(r: &mut Repro) -> String {
    let runs = btio_cluster_a_runs(r);
    let refs: Vec<(&str, &str, &EvalReport)> = runs
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    render_usage_matrix(
        "Table VII — % of I/O system use for NAS BT-IO on Cluster A (rows: processes)",
        OpType::Read,
        &refs,
    )
}

/// Fig. 16: MADbench2 trace phases, cross-checked against the I/O-path
/// event stream: the traced phase boundaries bin the observed MPI-IO,
/// fabric and storage activity into a per-phase utilization timeline.
pub fn fig16(r: &mut Repro) -> String {
    use ioeval_core::obs::{phase_timeline, render_phase_utilization, Collector};
    let spec = r.aohyper();
    let config = &r.aohyper_configs()[0];
    let mut out = String::new();
    for ft in [FileType::Unique, FileType::Shared] {
        let mb = r.madbench(16, ft);
        let collector = Collector::new();
        let profile = {
            let _guard = collector.install();
            ioeval_core::charact::characterize_app(&spec, config, mb.scenario(), r.watchdog())
                .expect("MADbench2 characterization on a preset configuration")
        };
        out.push_str(&phase_figure(
            &format!("Fig. 16 — MADbench2 traces, 16 processes, {ft:?} filetype"),
            &profile,
        ));
        let timeline = phase_timeline(&collector.take().events, &profile);
        out.push_str(&format!(
            "per-phase I/O-path utilization (observed events binned into the traced phases):\n{}",
            render_phase_utilization(&timeline)
        ));
        out.push('\n');
    }
    out
}

/// Table VIII: MADbench2 characterization, 16 and 64 processes.
pub fn table8(r: &mut Repro) -> String {
    let spec = r.cluster_a();
    let config = r.cluster_a_config();
    let mut out = String::from("Table VIII — MADbench2 characterization\n");
    for procs in [16usize, 64] {
        for ft in [FileType::Unique, FileType::Shared] {
            let mb = r.madbench(procs, ft);
            let profile = r.eval(&spec, &config, &mb).profile;
            out.push_str(&format!("\n-- {procs} processes, {ft:?} --\n"));
            out.push_str(&render_app_profile(&profile));
        }
    }
    out
}

const MARKER_COLS: [(&str, u32, OpType); 4] = [
    ("W_r", markers::W, OpType::Read),
    ("C_r", markers::C, OpType::Read),
    ("S_w", markers::S, OpType::Write),
    ("W_w", markers::W, OpType::Write),
];

fn marker_usage_matrix(
    title: &str,
    level: IoLevel,
    runs: &[(String, String, EvalReport)],
) -> String {
    let mut t = TextTable::new(vec![
        "I/O configuration".to_string(),
        "W_r %".to_string(),
        "C_r %".to_string(),
        "S_w %".to_string(),
        "W_w %".to_string(),
        "FILETYPE".to_string(),
    ]);
    for (config, variant, report) in runs {
        let mut cells = vec![config.clone()];
        for (_, marker, op) in MARKER_COLS {
            cells.push(match report.marker_usage_of(marker, op, level) {
                Some(v) => format!("{v:.1}"),
                None if report.has_marker_usage_row(marker, op, level) => "n/a".into(),
                None => "-".into(),
            });
        }
        cells.push(variant.clone());
        t.row(cells);
    }
    format!("=== {title} ===\n{}", t.render())
}

fn madbench_marker_metrics(runs: &[(String, String, EvalReport)]) -> String {
    let mut t = TextTable::new(vec![
        "config",
        "filetype",
        "exec",
        "io_time",
        "S_w MiB/s",
        "W_w MiB/s",
        "W_r MiB/s",
        "C_r MiB/s",
    ]);
    for (config, variant, r) in runs {
        let rate = |marker: u32, op: OpType| {
            r.profile
                .per_marker
                .iter()
                .find(|m| m.marker == marker && m.op == op)
                .map(|m| format!("{:.1}", m.rate.as_mib_per_sec()))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            config.clone(),
            variant.clone(),
            format!("{}", r.exec_time),
            format!("{}", r.io_time),
            rate(markers::S, OpType::Write),
            rate(markers::W, OpType::Write),
            rate(markers::W, OpType::Read),
            rate(markers::C, OpType::Read),
        ]);
    }
    t.render()
}

/// Runs MADbench2 on the three Aohyper configurations.
fn madbench_aohyper_runs(r: &mut Repro) -> Vec<(String, String, EvalReport)> {
    let spec = r.aohyper();
    let mut out = Vec::new();
    for config in r.aohyper_configs() {
        for ft in [FileType::Unique, FileType::Shared] {
            let mb = r.madbench(16, ft);
            let report = r.eval(&spec, &config, &mb);
            out.push((
                config.name.clone(),
                format!("{ft:?}").to_uppercase(),
                report,
            ));
        }
    }
    out
}

/// Fig. 17: MADbench2 on Aohyper — per-phase times and transfer rates.
pub fn fig17(r: &mut Repro) -> String {
    let runs = madbench_aohyper_runs(r);
    format!(
        "Fig. 17 — MADbench2 on Aohyper (16 processes):\n\n{}",
        madbench_marker_metrics(&runs)
    )
}

/// Table IX: % used by MADbench2 on the local filesystem level (Aohyper).
pub fn table9(r: &mut Repro) -> String {
    let runs = madbench_aohyper_runs(r);
    marker_usage_matrix(
        "Table IX — % of use for MADbench2 on local filesystem (Aohyper)",
        IoLevel::LocalFs,
        &runs,
    )
}

/// Runs MADbench2 on cluster A for 16 and 64 procs.
fn madbench_cluster_a_runs(r: &mut Repro) -> Vec<(String, String, EvalReport)> {
    let spec = r.cluster_a();
    let config = r.cluster_a_config();
    let mut out = Vec::new();
    for procs in [16usize, 64] {
        for ft in [FileType::Unique, FileType::Shared] {
            let mb = r.madbench(procs, ft);
            let report = r.eval(&spec, &config, &mb);
            out.push((format!("{procs}"), format!("{ft:?}").to_uppercase(), report));
        }
    }
    out
}

/// Fig. 18: MADbench2 on cluster A.
pub fn fig18(r: &mut Repro) -> String {
    let runs = madbench_cluster_a_runs(r);
    format!(
        "Fig. 18 — MADbench2 on Cluster A (rows: processes):\n\n{}",
        madbench_marker_metrics(&runs)
    )
}

/// Table X: % used by MADbench2 at the network-filesystem level (cluster A).
pub fn table10(r: &mut Repro) -> String {
    let runs = madbench_cluster_a_runs(r);
    marker_usage_matrix(
        "Table X — % used by MADbench2 on network filesystem (Cluster A; rows: processes)",
        IoLevel::GlobalFs,
        &runs,
    )
}

/// Table XI: % used by MADbench2 at the local-filesystem level (cluster A).
pub fn table11(r: &mut Repro) -> String {
    let runs = madbench_cluster_a_runs(r);
    marker_usage_matrix(
        "Table XI — % used by MADbench2 on local filesystem (Cluster A; rows: processes)",
        IoLevel::LocalFs,
        &runs,
    )
}

/// Ablation: the shared-vs-dedicated-network factor the paper lists among
/// the configurable factors but could not vary on its testbeds.
pub fn ablation_network(r: &mut Repro) -> String {
    use cluster::{IoConfigBuilder, NetworkLayout};
    let spec = r.aohyper();
    let mut rows = Vec::new();
    for (label, layout) in [
        ("dedicated data network", NetworkLayout::Split),
        ("shared single network", NetworkLayout::Shared),
    ] {
        let config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .network(layout)
            .name(label)
            .build();
        let bt = r.btio(16, BtSubtype::Full);
        let report = r.eval(&spec, &config, &bt);
        rows.push((label.to_string(), "FULL".to_string(), report));
    }
    let refs: Vec<(&str, &str, &EvalReport)> = rows
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    format!(
        "Ablation — network layout (BT-IO full, 16 procs, RAID 5):\n\n{}",
        render_metrics(&refs)
    )
}

/// Ablation: controller write-back cache on/off (the paper's arrays run
/// "with write-cache enabled (write back)").
pub fn ablation_write_cache(r: &mut Repro) -> String {
    use cluster::IoConfigBuilder;
    let spec = r.aohyper();
    let mut rows = Vec::new();
    for (label, mib) in [("write-back 256MiB", 256u64), ("write-through (off)", 0)] {
        let config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .write_cache_mib(mib)
            .name(label)
            .build();
        let mb = r.madbench(16, FileType::Shared);
        let report = r.eval(&spec, &config, &mb);
        rows.push((label.to_string(), "SHARED".to_string(), report));
    }
    format!(
        "Ablation — RAID 5 controller write cache (MADbench2, 16 procs):\n\n{}",
        madbench_marker_metrics(&rows)
    )
}

/// Ablation: RAID 5 sequential parity coalescing (stripe cache) on/off.
pub fn ablation_coalesce(r: &mut Repro) -> String {
    use cluster::IoConfigBuilder;
    use ioeval_core::charact::{characterize_system_memo, CharacterizeOptions};
    use simcore::{KIB, MIB};
    let spec = r.aohyper();
    let mut out =
        String::from("Ablation — RAID 5 stripe coalescing (local-FS characterized write rates):\n");
    for (label, on) in [("coalescing on", true), ("coalescing off", false)] {
        let config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .raid5_coalesce(on)
            .name(label)
            .build();
        // This ablation needs the random-mode sweep, which the paper-scale
        // (sequential) characterization does not produce; run a dedicated
        // reduced sweep covering both modes.
        let mut opts = CharacterizeOptions::quick().all_modes();
        opts.records = vec![64 * KIB, MIB, 16 * MIB];
        opts.iozone_file_size = Some(512 * MIB);
        opts.watchdog = r.watchdog().cloned();
        let set = characterize_system_memo(&spec, &config, &opts, r.store())
            .expect("coalescing ablation characterization");
        let records = opts.records.clone();
        let mut t = TextTable::new(vec!["record", "seq write MiB/s", "rand write MiB/s"]);
        for &rec in &records {
            t.row(vec![
                fmt_bytes(rec),
                rate_cell(&set, IoLevel::LocalFs, OpType::Write, rec),
                set.get(IoLevel::LocalFs)
                    .and_then(|tb| {
                        tb.search_lenient(
                            OpType::Write,
                            rec,
                            IoLevel::LocalFs.access_type(),
                            AccessMode::Random,
                        )
                    })
                    .map(|r| format!("{:.1}", r.rate.as_mib_per_sec()))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&format!("\n-- {label} --\n{}", t.render()));
    }
    out
}

/// Extension: the alternative I/O *architecture* the paper planned to study
/// with the SIMCAN simulator — a parallel filesystem with multiple I/O
/// servers vs. the single NFS node. BT-IO runs with its file on each
/// architecture; the `simple` subtype is where the architecture matters
/// most (PVFS needs no locking, so its tiny strided operations avoid the
/// `lockd` serialization that strangles them on NFS).
pub fn ablation_pfs(r: &mut Repro) -> String {
    use cluster::{IoConfigBuilder, Mount};
    let spec = r.aohyper();
    let mut rows = Vec::new();
    for subtype in [BtSubtype::Full, BtSubtype::Simple] {
        // NFS architecture (the paper's RAID 5 I/O node).
        let nfs_config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper()).build();
        let bt = r.btio(16, subtype);
        let report = r.eval(&spec, &nfs_config, &bt);
        rows.push((
            "NFS, 1 I/O node".to_string(),
            format!("{subtype:?}").to_uppercase(),
            report,
        ));
        // PVFS architecture: 4 I/O servers on compute nodes.
        let pfs_config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .pfs(4)
            .name("PVFS x4")
            .build();
        let bt = r.btio(16, subtype).on(Mount::Pfs);
        let report = r.eval(&spec, &pfs_config, &bt);
        rows.push((
            "PVFS, 4 I/O servers".to_string(),
            format!("{subtype:?}").to_uppercase(),
            report,
        ));
    }
    let refs: Vec<(&str, &str, &EvalReport)> = rows
        .iter()
        .map(|(c, v, rep)| (c.as_str(), v.as_str(), rep))
        .collect();
    format!(
        "Ablation — I/O architecture: single NFS node vs parallel FS \
         (BT-IO, 16 procs):\n\n{}",
        render_metrics(&refs)
    )
}

/// The paper's future work, validated: predict each application's I/O time
/// on every Aohyper configuration from the performance tables alone, rank
/// the configurations, and compare the ranking with the actually simulated
/// I/O times.
pub fn advisor(r: &mut Repro) -> String {
    use ioeval_core::advisor::rank_configs;
    let spec = r.aohyper();
    let configs = r.aohyper_configs();

    let mut out =
        String::from("Advisor (paper §V future work) — predicted vs simulated I/O time:\n");
    let cases: Vec<(String, Vec<(String, EvalReport)>)> = vec![
        (
            "BT-IO full 16p".to_string(),
            configs
                .iter()
                .map(|c| {
                    let bt = r.btio(16, BtSubtype::Full);
                    (c.name.clone(), r.eval(&spec, c, &bt))
                })
                .collect(),
        ),
        (
            "MADbench2 SHARED 16p".to_string(),
            configs
                .iter()
                .map(|c| {
                    let mb = r.madbench(16, FileType::Shared);
                    (c.name.clone(), r.eval(&spec, c, &mb))
                })
                .collect(),
        ),
    ];

    for (app, runs) in cases {
        let table_sets: Vec<ioeval_core::perf_table::PerfTableSet> =
            configs.iter().map(|c| r.characterize(&spec, c)).collect();
        // Use the first configuration's profile as the application model
        // (the paper: "it is not necessary to re-characterize the
        // application in other system for the same class and processes").
        let profile = &runs[0].1.profile;
        let ranked = rank_configs(profile, table_sets.iter());

        let mut t = TextTable::new(vec!["config", "predicted io", "bottleneck", "simulated io"]);
        for p in &ranked {
            let actual = runs
                .iter()
                .find(|(name, _)| *name == p.config)
                .map(|(_, rep)| format!("{}", rep.io_time))
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                p.config.clone(),
                format!("{}", p.io_time),
                p.bottleneck.label().to_string(),
                actual,
            ]);
        }
        out.push_str(&format!(
            "\n-- {app} (ranked best-first) --\n{}",
            t.render()
        ));
    }
    out
}

/// Beyond the paper: the same IOR-style read campaign on the RAID 5
/// configuration while the array is healthy, one-disk degraded, and
/// rebuilding onto a hot-spare. Degraded cold reads reconstruct the dead
/// member's chunks from every survivor, and the resilver competes with the
/// foreground stream — the table reports how much of the healthy transfer
/// rate each condition retains and how long the rebuild window lasts.
///
/// A second table runs an IOR write campaign on the replicated PVFS
/// deployment (4 I/O servers, 2 replicas per stripe) under the context's
/// [`PfsFaultProfile`](crate::context::PfsFaultProfile): nominal vs
/// one-server-down (writes fail over to the surviving replica holders) vs
/// recover-mid-run (the returning server resyncs the writes it missed).
/// `--pfs-profile none` skips the second table entirely, rendering exactly
/// the RAID-only output.
pub fn resilience(r: &mut Repro) -> String {
    use crate::context::PfsFaultProfile;
    use cluster::{IoConfigBuilder, Mount};
    use ioeval_core::eval::FaultScenario;
    use ioeval_core::report::render_resilience_table;
    use simcore::{Time, MIB};
    use workloads::{Ior, IorOp};

    let spec = r.aohyper();
    let config = r.aohyper_configs().remove(2); // RAID 5
    let (ranks, block) = match r.scale {
        crate::context::Scale::Paper => (8, 256 * MIB),
        crate::context::Scale::Quick => (4, 32 * MIB),
    };
    let ior = Ior::new(ranks, fs::FileId(90), block, IorOp::Read);

    let scenarios = [
        FaultScenario::Healthy,
        FaultScenario::Degraded {
            disk: 1,
            at: Time::from_millis(100),
        },
        FaultScenario::Rebuilding {
            disk: 1,
            fail_at: Time::from_millis(100),
            replace_at: Time::from_millis(500),
        },
    ];
    let reports: Vec<EvalReport> = scenarios
        .iter()
        .map(|f| r.eval_under(&spec, &config, &ior, f.clone()))
        .collect();
    let refs: Vec<&EvalReport> = reports.iter().collect();
    let mut out = format!(
        "Resilience — {} on {} / {}: healthy vs degraded vs rebuilding:\n\n{}",
        reports[0].app,
        spec.name,
        config.name,
        render_resilience_table(&refs)
    );

    let fail_at = Time::from_millis(100);
    let recover_at = Time::from_millis(500);
    let pfs_faults: Vec<FaultScenario> = match r.pfs_profile() {
        PfsFaultProfile::Off => Vec::new(),
        PfsFaultProfile::Fail => vec![FaultScenario::PfsDegraded {
            server: 1,
            at: fail_at,
        }],
        PfsFaultProfile::Recover => vec![FaultScenario::PfsRecovered {
            server: 1,
            fail_at,
            recover_at,
        }],
        PfsFaultProfile::Full => vec![
            FaultScenario::PfsDegraded {
                server: 1,
                at: fail_at,
            },
            FaultScenario::PfsRecovered {
                server: 1,
                fail_at,
                recover_at,
            },
        ],
    };
    if !pfs_faults.is_empty() {
        let pfs_config = IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .pfs(4)
            .pfs_replicas(2)
            .name("PVFS x4 r2")
            .build();
        let pfs_ior = Ior::new(ranks, fs::FileId(91), block, IorOp::Write).on(Mount::Pfs);
        let pfs_reports: Vec<EvalReport> = std::iter::once(FaultScenario::Healthy)
            .chain(pfs_faults)
            .map(|f| r.eval_under(&spec, &pfs_config, &pfs_ior, f))
            .collect();
        let pfs_refs: Vec<&EvalReport> = pfs_reports.iter().collect();
        out.push_str(&format!(
            "\n\nPFS resilience — {} on {} / {} (2 replicas): nominal vs server faults:\n\n{}",
            pfs_reports[0].app,
            spec.name,
            pfs_config.name,
            render_resilience_table(&pfs_refs)
        ));
    }
    out
}

/// Beyond the paper: the whole methodology as one *supervised* campaign —
/// every Aohyper configuration characterized, BT-IO evaluated on each, the
/// advisor's table-only predictions validated against the simulated runs.
/// Cells run panic-isolated under the context's watchdog budgets; with a
/// checkpoint directory attached (`repro --checkpoint DIR`), every
/// finished characterization and cell persists to disk as it completes,
/// so a killed run resumes from the last finished cell and renders
/// byte-identically to an uninterrupted one.
pub fn campaign(r: &mut Repro) -> String {
    use ioeval_core::campaign::{run_campaign_supervised, AppFactory};
    let spec = r.aohyper();
    let configs = r.aohyper_configs();
    let opts = r.charact_options(&spec);
    let sup = r.supervise_options();
    let full = r.btio(16, BtSubtype::Full);
    let simple = r.btio(16, BtSubtype::Simple);
    let apps: Vec<AppFactory> = vec![("btio-full-16p", &full), ("btio-simple-16p", &simple)];
    let campaign = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, r.store());
    format!(
        "Campaign — supervised methodology run (paper Fig. 1 end to end):\n\n{}",
        campaign.render()
    )
}

/// Geometric mean of strictly positive samples (`None` when empty or any
/// sample is non-positive — a zero phase score voids an IO500 submission
/// rather than silently inflating the mean).
fn geomean(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() || vals.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
}

/// Beyond the paper: an IO500-style flagship run — the bandwidth phases
/// (ior-easy: large sequential transfers; ior-hard: small 47008-byte
/// interleaved transfers into a shared file) and the metadata phases
/// (mdtest-easy: unique directory per rank; mdtest-hard: one shared
/// directory), executed as one supervised campaign per storage backend
/// (single NFS node vs replicated PVFS). Each backend's score is the
/// IO500 composite: the geometric mean of the ior rates (MiB/s), the
/// geometric mean of the mdtest rates (kIOPS), and the square root of
/// their product. With a checkpoint directory attached the campaign cells
/// persist and resume exactly like the `campaign` experiment.
pub fn io500(r: &mut Repro) -> String {
    use cluster::{IoConfigBuilder, Mount};
    use ioeval_core::campaign::{run_campaign_supervised, AppFactory};
    use simcore::MIB;
    use workloads::{Ior, IorOp, Mdtest};

    let spec = r.aohyper();
    let (ranks, easy_block, hard_block, files) = match r.scale {
        crate::context::Scale::Paper => (8usize, 64 * MIB, 8 * MIB, 200usize),
        crate::context::Scale::Quick => (4, 8 * MIB, MIB, 25),
    };
    let backends: [(cluster::IoConfig, Mount); 2] = [
        (
            IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
                .name("NFS RAID5")
                .build(),
            Mount::NfsDirect,
        ),
        (
            IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
                .pfs(4)
                .pfs_replicas(2)
                .name("PVFS x4 r2")
                .build(),
            Mount::Pfs,
        ),
    ];

    let mut out = String::from(
        "IO500 — flagship composite: ior bandwidth + mdtest metadata phases per backend:\n",
    );
    for (config, mount) in backends {
        // ior-hard uses the IO500's odd 47008-byte transfers, so the last
        // transfer of every rank is a ragged remainder.
        let mut ior_hard_w = Ior::new(ranks, fs::FileId(700), hard_block, IorOp::Write).on(mount);
        ior_hard_w.transfer = 47_008;
        let mut ior_hard_r = Ior::new(ranks, fs::FileId(700), hard_block, IorOp::Read).on(mount);
        ior_hard_r.transfer = 47_008;
        let ior_easy_w = Ior::new(ranks, fs::FileId(701), easy_block, IorOp::Write).on(mount);
        let ior_easy_r = Ior::new(ranks, fs::FileId(701), easy_block, IorOp::Read).on(mount);
        let md_easy = Mdtest::easy(ranks, files).on(mount).base(fs::FileId(6000));
        let md_hard = Mdtest::hard(ranks, files).on(mount).base(fs::FileId(7000));

        let apps: Vec<AppFactory> = vec![
            ("ior-easy-write", &ior_easy_w),
            ("ior-easy-read", &ior_easy_r),
            ("ior-hard-write", &ior_hard_w),
            ("ior-hard-read", &ior_hard_r),
            ("mdtest-easy", &md_easy),
            ("mdtest-hard", &md_hard),
        ];
        let opts = r.charact_options(&spec);
        let sup = r.supervise_options();
        let configs = [config];
        let campaign = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, r.store());

        // A phase that completed without moving any bytes (or metadata
        // ops) has a zero — or, with a zero-duration run, NaN — rate.
        // Feeding that into the geometric mean would void the whole
        // composite with no explanation (or worse, propagate NaN/-inf
        // into the score line), so undefined phases render `n/a` with the
        // reason, are excluded from their mean, and are named next to the
        // composite — the same discipline `EvalNote` applies to zero
        // characterized rates.
        let mut t = TextTable::new(vec!["phase", "result"]);
        let mut bw = Vec::new();
        let mut md = Vec::new();
        let mut undefined: Vec<String> = Vec::new();
        for (app, _) in &apps {
            let cell = campaign.cells.iter().find(|c| c.app == *app);
            let result = match cell {
                Some(c) if app.starts_with("ior") => {
                    let rate = c.report.write_rate.max(c.report.read_rate).as_mib_per_sec();
                    if rate.is_finite() && rate > 0.0 {
                        bw.push(rate);
                        format!("{rate:.1} MiB/s")
                    } else {
                        undefined.push(app.to_string());
                        "n/a (zero I/O rate)".into()
                    }
                }
                Some(c) => {
                    let kiops = c.report.meta_ops_per_sec() / 1000.0;
                    if kiops.is_finite() && kiops > 0.0 {
                        md.push(kiops);
                        format!("{kiops:.3} kIOPS")
                    } else {
                        undefined.push(app.to_string());
                        "n/a (zero metadata rate)".into()
                    }
                }
                None => {
                    undefined.push(app.to_string());
                    "n/a (cell did not complete)".into()
                }
            };
            t.row(vec![app.to_string(), result]);
        }
        out.push_str(&format!(
            "\n-- backend: {} ({} ranks) --\n{}",
            configs[0].name,
            ranks,
            t.render()
        ));
        match (geomean(&bw), geomean(&md)) {
            (Some(b), Some(m)) => {
                out.push_str(&format!(
                    "bandwidth score: {b:.1} MiB/s (geometric mean of {} ior phases)\n\
                     metadata score: {m:.3} kIOPS (geometric mean of {} mdtest phases)\n\
                     io500 score: {:.3} (sqrt of bandwidth x metadata)\n",
                    bw.len(),
                    md.len(),
                    (b * m).sqrt()
                ));
                if !undefined.is_empty() {
                    out.push_str(&format!(
                        "note: composite over defined phases only; n/a: {}\n",
                        undefined.join(", ")
                    ));
                }
            }
            _ => out.push_str(&format!(
                "io500 score: incomplete (every {} phase is n/a: {})\n",
                if bw.is_empty() {
                    "bandwidth"
                } else {
                    "metadata"
                },
                undefined.join(", ")
            )),
        }
        if campaign.is_degraded() {
            out.push_str(&format!(
                "degraded campaign: {}\n",
                campaign.error_summary()
            ));
        }
    }
    out
}

/// The experiment registry: (id, description, function).
pub type ExperimentFn = fn(&mut Repro) -> String;

/// All experiments in paper order.
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        (
            "table1",
            "performance-table schema with sample rows",
            table1,
        ),
        ("fig4", "Aohyper I/O configurations", fig4),
        (
            "fig5",
            "Aohyper local/NFS filesystem characterization",
            fig5,
        ),
        ("fig6", "Aohyper I/O library characterization", fig6),
        ("table2", "BT-IO characterization, 16 procs", table2),
        ("fig8", "BT-IO trace phases", fig8),
        ("fig12", "BT-IO metrics on Aohyper", fig12),
        ("table3", "BT-IO write usage on Aohyper", table3),
        ("table4", "BT-IO read usage on Aohyper", table4),
        ("fig13", "Cluster A filesystem characterization", fig13),
        ("fig14", "Cluster A library characterization", fig14),
        ("table5", "BT-IO characterization, 64 procs", table5),
        ("fig15", "BT-IO metrics on Cluster A", fig15),
        ("table6", "BT-IO write usage on Cluster A", table6),
        ("table7", "BT-IO read usage on Cluster A", table7),
        ("fig16", "MADbench2 trace phases", fig16),
        ("table8", "MADbench2 characterization", table8),
        ("fig17", "MADbench2 metrics on Aohyper", fig17),
        ("table9", "MADbench2 local-FS usage on Aohyper", table9),
        ("fig18", "MADbench2 metrics on Cluster A", fig18),
        ("table10", "MADbench2 NFS usage on Cluster A", table10),
        ("table11", "MADbench2 local-FS usage on Cluster A", table11),
        // Extensions beyond the paper's artifacts:
        (
            "ablation-net",
            "shared vs dedicated data network",
            ablation_network,
        ),
        (
            "ablation-wcache",
            "controller write cache on/off",
            ablation_write_cache,
        ),
        (
            "ablation-coalesce",
            "RAID 5 stripe coalescing on/off",
            ablation_coalesce,
        ),
        (
            "ablation-pfs",
            "single NFS node vs parallel FS",
            ablation_pfs,
        ),
        (
            "advisor",
            "predicted vs simulated config ranking (paper §V)",
            advisor,
        ),
        (
            "resilience",
            "RAID 5 healthy vs degraded vs rebuilding",
            resilience,
        ),
        (
            "campaign",
            "supervised, resumable methodology campaign",
            campaign,
        ),
        (
            "io500",
            "IO500-style composite: ior + mdtest, NFS vs PFS",
            io500,
        ),
        (
            "scenario",
            "sampled scenario-grammar what-if grid",
            crate::scenario_grid::scenario,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        for required in [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
            "table9", "table10", "table11", "fig4", "fig5", "fig6", "fig8", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "fig18", "io500",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
    }

    #[test]
    fn marker_columns_cover_the_papers_four() {
        let names: Vec<&str> = MARKER_COLS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["W_r", "C_r", "S_w", "W_w"]);
    }

    #[test]
    fn table2_and_fig8_trace_each_btio_run_once() {
        use ioeval_core::store::Kind;
        let mut r = Repro::new(Scale::Quick);
        table2(&mut r);
        assert_eq!(
            r.store().kind_stats(Kind::Report),
            (0, 2),
            "table2 runs BT-IO full and simple"
        );
        fig8(&mut r);
        assert_eq!(
            r.store().kind_stats(Kind::Report),
            (2, 2),
            "fig8 reuses table2's runs"
        );
    }

    #[test]
    fn fig18_reuses_table8s_madbench_runs() {
        use ioeval_core::store::Kind;
        let mut r = Repro::new(Scale::Quick);
        table8(&mut r);
        assert_eq!(r.store().kind_stats(Kind::Report), (0, 4));
        fig18(&mut r);
        assert_eq!(
            r.store().kind_stats(Kind::Report),
            (4, 4),
            "fig18's four runs are table8's"
        );
    }

    #[test]
    fn runs_are_keyed_by_the_workload_value() {
        use ioeval_core::store::Kind;
        let mut r = Repro::new(Scale::Quick);
        let spec = cluster::presets::test_cluster();
        let config = r.aohyper_configs().remove(0);
        let bt = workloads::BtIo::new(workloads::BtClass::S, 4, BtSubtype::Full).with_dumps(2);
        r.eval(&spec, &config, &bt.clone().gflops(1.0));
        r.eval(&spec, &config, &bt.gflops(2.0));
        assert_eq!(
            r.store().kind_stats(Kind::Report),
            (0, 2),
            "workloads differing only in gflops are distinct runs"
        );
    }

    #[test]
    fn table2_honours_the_watchdog() {
        use simcore::{Time, WatchdogSpec};
        let mut r =
            Repro::new(Scale::Quick).with_watchdog(WatchdogSpec::sim_deadline(Time::from_secs(1)));
        let err = ioeval_core::supervise::run_isolated(|| table2(&mut r))
            .expect_err("a 1 s simulated deadline cannot fit table2's runs");
        assert!(err.contains("aborted"), "{err}");
    }

    #[test]
    fn fig4_renders_three_configs() {
        let mut r = Repro::new(Scale::Quick);
        let s = fig4(&mut r);
        assert!(s.contains("JBOD"));
        assert!(s.contains("RAID 1"));
        assert!(s.contains("RAID 5"));
    }
}
