//! The `scenario` experiment — campaign-scale what-if exploration over a
//! sampled workload grid.
//!
//! A [`workloads::grammar::Grammar`] describes a *space* of workloads;
//! this experiment draws `sample` concrete variants from it under a fixed
//! seed and sweeps every variant across every Aohyper storage
//! configuration (plus a PVFS deployment) as one supervised campaign —
//! the same scheduler, result store, and retry/quarantine policy every
//! other campaign experiment uses. The grid
//! easily reaches thousands of cells (`--sample 2500` × 4 configurations
//! = 10k), and renders byte-identically for any `--jobs` value.
//!
//! Checkpoint namespacing: a campaign cell's store key names its workload
//! by app label, so every app label carries a grid tag derived from the
//! [`GridKey`] (grammar digest × seed × sample count). Changing the
//! grammar text, the seed, or the sample count moves the tag and no stale
//! cell can replay into the new grid.

use crate::context::Repro;
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, CellOutcome, GridKey};
use ioeval_core::report::TextTable;
use workloads::grammar::{source_digest, Grammar, EXAMPLE};
use workloads::Workload;

/// Ceiling on the sample count `repro --sample` accepts: 2^14 variants ×
/// 4 configurations = 65,536 cells. The sampler expands every variant up
/// front, so an unbounded count would abort on allocation instead of
/// failing as a bad argument.
pub const MAX_SAMPLE: usize = 1 << 14;

/// Default variant counts per scale: 16 variants × 4 configurations is
/// the pinned 64-cell golden grid; paper scale quadruples the sample.
fn default_sample(r: &Repro) -> usize {
    match r.scale {
        crate::context::Scale::Paper => 64,
        crate::context::Scale::Quick => 16,
    }
}

/// The grid identity of the scenario run this context would perform —
/// grammar source digest (parse not required), sampler seed, sample
/// count. Experiment checkpoints are keyed by this, so
/// `--grammar`/`--seed`/`--sample` changes never replay a stale output.
pub fn grid_key(r: &Repro) -> GridKey {
    GridKey {
        grammar: source_digest(r.scenario_grammar().unwrap_or(EXAMPLE)),
        seed: r.scenario_seed(),
        sample: r.scenario_sample().unwrap_or_else(|| default_sample(r)),
    }
}

/// Short per-grid tag baked into campaign app labels (see module docs).
fn grid_tag(key: &GridKey) -> String {
    let h = simcore::fnv1a64(key.to_string().as_bytes());
    format!("{:08x}", (h ^ (h >> 32)) as u32)
}

/// Beyond the paper: the methodology as a *what-if engine*. Samples the
/// scenario grammar (the worked example by default, `--grammar FILE` to
/// bring your own), compiles every variant to an op program, and runs the
/// variant × configuration grid as one supervised campaign. Per-variant
/// rows show the simulated execution time under every configuration and
/// the advisor's pick; the sampler is seeded, so the whole grid is
/// byte-reproducible and the quick-scale default is pinned as a golden
/// table.
pub fn scenario(r: &mut Repro) -> String {
    let src = r.scenario_grammar().unwrap_or(EXAMPLE).to_string();
    let grammar = match Grammar::parse(&src) {
        Ok(g) => g,
        Err(e) => return format!("Scenario grid: cannot compile grammar: {e}\n"),
    };
    let sample = r.scenario_sample().unwrap_or_else(|| default_sample(r));
    let seed = r.scenario_seed();
    let key = GridKey {
        grammar: grammar.digest,
        seed,
        sample,
    };
    let tag = grid_tag(&key);

    let spec = r.aohyper();
    // The three paper configurations plus a write-cache-off RAID 5 — a
    // fourth axis the paper's tables never sweep, which is the point of a
    // what-if grid. (A PFS deployment would be a no-op column here:
    // grammar files without an explicit `on pfs` mount route to NFS.)
    let mut configs = r.aohyper_configs();
    configs.push(
        cluster::IoConfigBuilder::new(cluster::DeviceLayout::raid5_paper())
            .write_cache_mib(0)
            .name("RAID 5 wc-off")
            .build(),
    );

    let variants = grammar.sample(seed, sample);
    let labels: Vec<String> = variants
        .iter()
        .map(|v| format!("{}@{tag}", v.label))
        .collect();
    let apps: Vec<AppFactory> = labels
        .iter()
        .zip(&variants)
        .map(|(label, v)| (label.as_str(), v as &dyn Workload))
        .collect();

    let opts = r.charact_options(&spec);
    let sup = r.supervise_options();
    let campaign = run_campaign_supervised(&spec, &configs, &apps, &opts, &sup, r.store());

    let mut out = format!(
        "Scenario grid — grammar '{}' ({key}): {sample} variants x {} configurations = {} cells on {}:\n",
        grammar.name,
        configs.len(),
        sample * configs.len(),
        spec.name,
    );
    let distinct: std::collections::BTreeSet<u64> = variants.iter().map(|v| v.digest).collect();
    let (rmin, rmax) = variants.iter().fold((usize::MAX, 0), |(lo, hi), v| {
        (lo.min(v.ranks), hi.max(v.ranks))
    });
    out.push_str(&format!(
        "variant space: {} distinct resolved programs, ranks {rmin}..{rmax}\n\n",
        distinct.len()
    ));

    // One row per variant, one execution-time column per configuration —
    // the what-if grid itself.
    let mut header = vec![
        "variant".to_string(),
        "ranks".to_string(),
        "ops".to_string(),
    ];
    header.extend(configs.iter().map(|c| c.name.clone()));
    header.push("fastest".to_string());
    let mut t = TextTable::new(header.iter().map(String::as_str).collect());
    for (vi, v) in variants.iter().enumerate() {
        let mut row = vec![
            v.label.clone(),
            v.ranks.to_string(),
            v.ops_per_rank().to_string(),
        ];
        let mut best: Option<(&str, simcore::Time)> = None;
        for (ci, config) in configs.iter().enumerate() {
            let outcome = &campaign.outcomes[vi * configs.len() + ci];
            match outcome {
                CellOutcome::Ok(cell) => {
                    let exec = cell.report.exec_time;
                    if best.is_none_or(|(_, b)| exec < b) {
                        best = Some((&config.name, exec));
                    }
                    row.push(format!("{exec}"));
                }
                other => row.push(other.label().to_string()),
            }
        }
        row.push(best.map_or("-".to_string(), |(name, _)| name.to_string()));
        t.row(row);
    }
    out.push_str(&t.render());

    out.push_str(&format!("\noutcomes: {}\n", campaign.error_summary()));
    if let Some(err) = campaign.mean_prediction_error() {
        out.push_str(&format!(
            "advisor mean prediction error over the grid: {:.1}%\n",
            err * 100.0
        ));
    }
    if campaign.is_degraded() {
        for (config, error) in &campaign.charact_errors {
            out.push_str(&format!("characterization of {config} failed: {error}\n"));
        }
        let mut t = TextTable::new(vec!["variant", "config", "outcome", "detail"]);
        for o in campaign.outcomes.iter().filter(|o| !o.is_ok()) {
            t.row(vec![
                o.app().to_string(),
                o.config().to_string(),
                o.label().to_string(),
                o.detail(),
            ]);
        }
        out.push_str(&t.render());
    }
    out.push_str(&campaign.store_health_footer());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn grid_key_tracks_grammar_seed_and_sample() {
        let base = grid_key(&Repro::new(Scale::Quick));
        let reseeded = grid_key(&Repro::new(Scale::Quick).with_scenario_seed(7));
        assert_ne!(base, reseeded);
        let resampled = grid_key(&Repro::new(Scale::Quick).with_scenario_sample(99));
        assert_ne!(base, resampled);
        let regrammar = grid_key(
            &Repro::new(Scale::Quick).with_scenario_grammar("scenario x\nphase p { barrier }"),
        );
        assert_ne!(base, regrammar);
        // Comments and whitespace do not move the grid.
        let reformatted = grid_key(
            &Repro::new(Scale::Quick)
                .with_scenario_grammar(workloads::grammar::EXAMPLE.to_string() + "\n# trailing\n"),
        );
        assert_eq!(base, reformatted);
        assert_ne!(grid_tag(&base), grid_tag(&reseeded));
    }

    #[test]
    fn bad_grammar_renders_a_typed_error_not_a_panic() {
        let mut r = Repro::new(Scale::Quick).with_scenario_grammar("scenario s\nphase p {");
        let out = scenario(&mut r);
        assert!(out.contains("cannot compile grammar"), "{out}");
        assert!(out.contains("grammar error"), "{out}");
    }

    #[test]
    fn oversized_grammars_render_a_line_numbered_error_not_an_abort() {
        for (src, line) in [
            ("scenario s\nranks 99999999999\nphase p { barrier }", 2),
            ("scenario s\nphase p repeat 4000000000 { barrier }\n", 2),
        ] {
            let mut r = Repro::new(Scale::Quick).with_scenario_grammar(src);
            let out = scenario(&mut r);
            assert!(out.contains("cannot compile grammar"), "{out}");
            assert!(
                out.contains(&format!("grammar error at line {line}: workload too large")),
                "{out}"
            );
        }
    }

    #[test]
    fn tiny_grid_runs_and_reports_every_cell() {
        let mut r = Repro::new(Scale::Quick).with_scenario_sample(2);
        let out = scenario(&mut r);
        assert!(
            out.contains("2 variants x 4 configurations = 8 cells"),
            "{out}"
        );
        assert!(out.contains("mixed/v0000"), "{out}");
        assert!(out.contains("mixed/v0001"), "{out}");
        assert!(
            out.contains("8 ok, 0 failed, 0 timed out, 0 skipped"),
            "{out}"
        );
    }
}
