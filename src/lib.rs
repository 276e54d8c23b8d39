//! # cluster-io-eval
//!
//! A full reproduction of *"Methodology for Performance Evaluation of the
//! Input/Output System on Computer Clusters"* (Méndez, Rexachs, Luque —
//! IEEE CLUSTER 2011) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API so examples and
//! downstream users need a single dependency:
//!
//! * [`simcore`] — discrete-event simulation kernel.
//! * [`storage`] — disks, write-back caches, JBOD/RAID volumes.
//! * [`netsim`] — cluster interconnect models.
//! * [`fs`] — page cache, local filesystem, NFS client/server.
//! * [`mpisim`] — simulated MPI runtime with MPI-IO.
//! * [`cluster`] — node/cluster specs and the paper's two cluster presets.
//! * [`workloads`] — IOzone/IOR-like characterization workloads, NAS BT-IO,
//!   MADbench2.
//! * [`methodology`] (crate `ioeval-core`) — the paper's contribution:
//!   performance tables, characterization, tracing, evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use cluster_io_eval::prelude::*;
//!
//! // A small cluster so doctests stay fast.
//! let spec = cluster::presets::test_cluster();
//! let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
//!
//! // Phase 1a: characterize the system's I/O path levels. Both phases
//! // return typed errors (bad configuration, watchdog abort) instead of
//! // panicking.
//! let tables = characterize_system(&spec, &config, &CharacterizeOptions::quick())
//!     .expect("valid configuration, no watchdog");
//! assert!(tables.get(IoLevel::LocalFs).is_some());
//!
//! // Phase 3: evaluate an application against the characterization.
//! let app = workloads::BtIo::new(workloads::BtClass::S, 4, workloads::BtSubtype::Full)
//!     .with_dumps(2)
//!     .gflops(50.0);
//! let report = evaluate(&spec, &config, app.scenario(), &tables, &EvalOptions::default())
//!     .expect("valid configuration, no watchdog");
//! assert!(report.usage_summary(OpType::Write, IoLevel::Library).is_some());
//! ```

pub use cluster;
pub use fs;
pub use ioeval_core as methodology;
pub use mpisim;
pub use netsim;
pub use simcore;
pub use storage;
pub use workloads;

/// Convenience re-exports for examples and applications.
pub mod prelude {
    pub use crate::cluster::{
        self, ClusterMachine, ClusterSpec, DeviceLayout, IoConfig, IoConfigBuilder, Mount,
        NetworkLayout,
    };
    pub use crate::methodology::advisor::{predict, rank_configs, Prediction};
    pub use crate::methodology::campaign::{
        run_campaign, run_campaign_supervised, AppFactory, Campaign, CampaignCell, CellOutcome,
        SuperviseOptions,
    };
    pub use crate::methodology::charact::{
        characterize_app, characterize_system, CharactError, CharacterizeOptions,
    };
    pub use crate::methodology::eval::{evaluate, EvalError, EvalOptions, EvalReport, UsageRow};
    pub use crate::methodology::perf_table::{
        AccessMode, AccessType, IoLevel, OpType, PerfRow, PerfTable, PerfTableSet,
    };
    pub use crate::methodology::report;
    pub use crate::methodology::store::Store;
    pub use crate::methodology::trace::{AppProfile, PhaseReport, ProfileSink};
    pub use crate::simcore::{Abort, Bandwidth, Time, Watchdog, WatchdogSpec, GIB, KIB, MIB};
    pub use crate::workloads::{
        self, BtClass, BtIo, BtSubtype, FileType, Ior, IorOp, IozonePattern, IozoneRun, MadBench,
        Mdtest, MdtestVariant, Scenario, Workload,
    };
}
