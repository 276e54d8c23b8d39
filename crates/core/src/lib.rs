//! # ioeval-core — the CLUSTER 2011 methodology
//!
//! The paper's contribution: a three-phase methodology to evaluate the I/O
//! system of a computer cluster along its I/O path.
//!
//! 1. **Characterization** ([`charact`]):
//!    * *system* — measure transfer rate / IOPs / latency at the three I/O
//!      path levels (I/O library, network filesystem, local filesystem /
//!      devices) with IOzone-like and IOR-like workloads, producing one
//!      [`perf_table::PerfTable`] per level per configuration (paper
//!      Table I, Figs. 5/6/13/14);
//!    * *application* — trace every MPI-IO primitive ([`trace`]) and build
//!      an [`trace::AppProfile`]: operation counts, block sizes, access
//!      modes and repetitive I/O phases (Tables II/V/VIII, Figs. 8/16).
//! 2. **I/O configuration analysis** — enumerate configurable factors and
//!    candidate configurations (`cluster::config`; JBOD/RAID 1/RAID 5 in
//!    the paper).
//! 3. **Evaluation** ([`eval`]): run the application on each configuration,
//!    measure execution time / I/O time / throughput, and compute the
//!    **percentage of the characterized capacity actually used** at every
//!    level, via the table-generation algorithm of Fig. 10 and the
//!    performance-table search of Fig. 11 (Tables III/IV/VI/VII/IX/X/XI).
//!
//! [`report`] renders every table as aligned text for the `repro` harness.
//! [`advisor`] implements the paper's stated *future work*: predicting an
//! application's I/O time on candidate configurations from the performance
//! tables alone, and ranking the candidates.

pub mod advisor;
pub mod campaign;
pub mod charact;
pub mod checkpoint;
pub mod eval;
pub mod obs;
pub mod perf_table;
pub mod report;
pub mod store;
pub mod supervise;
pub mod trace;

pub use advisor::{predict, rank_configs, Prediction};
pub use campaign::{
    run_campaign, run_campaign_supervised, Campaign, CampaignCell, CellAttempt, CellMerger,
    CellOutcome, SuperviseOptions,
};
pub use charact::{
    characterize_app, characterize_system, characterize_system_memo, require_level, CharactError,
    CharacterizeOptions,
};
pub use eval::{evaluate, EvalError, EvalOptions, EvalReport, FaultScenario, UsageRow};
pub use obs::{Collector, MetricsHub, ObsData, ObsMetrics, TraceMeta};
pub use perf_table::{AccessMode, AccessType, IoLevel, OpType, PerfRow, PerfTable, PerfTableSet};
pub use report::render_resilience_table;
pub use store::{Key, Kind, Store, StoreHealth};
pub use supervise::run_isolated;
pub use trace::{AppProfile, PhaseReport, ProfileSink};
