//! # workloads — characterization benchmarks and the paper's applications
//!
//! * [`iozone`] — an IOzone-like filesystem exerciser: one process sweeping
//!   record sizes over a file of twice the node's RAM ("a file size which
//!   doubles the main memory size"), in sequential / strided / random read
//!   and write modes. Used to characterize the local and network filesystem
//!   levels (paper Figs. 5 and 13).
//! * [`ior`] — an IOR-like MPI-IO benchmark: N ranks, per-rank blocks
//!   written/read in fixed transfer units, independent or collective. Used
//!   to characterize the I/O library level (Figs. 6 and 14).
//! * [`btio`] — synthetic NAS BT-IO (class A–D, *full* and *simple*
//!   subtypes) reproducing the exact operation counts and block sizes of
//!   paper Tables II and V, including the diagonal multi-partitioning
//!   communication pattern (120 messages per write phase at 16 processes).
//! * [`flashio`] — a FLASH3-IO-like checkpoint kernel (the third benchmark
//!   family in the paper's related work): mixed tiny-metadata / large-data
//!   collective writes across checkpoint and plot files.
//! * [`madbench`] — synthetic MADbench2 (IO mode): the S/W/C function
//!   structure with 8 writes / 8 writes + 8 reads / 8 reads per process of
//!   162 MB (16p) or 40.5 MB (64p) components, UNIQUE or SHARED filetypes
//!   (Table VIII, Figs. 16–18).
//! * [`mdtest`] — an mdtest-like metadata exerciser in the IO500 easy
//!   (unique directory per rank) and hard (single shared directory)
//!   patterns: per-rank create/stat/unlink populations with barriers
//!   between verb phases, driving the metadata level instead of the data
//!   path.
//!
//! Each generator returns a [`scenario::Scenario`]: per-rank op streams
//! plus file-mount routing and preallocation directives for the
//! [`cluster::ClusterMachine`]. The generators also implement
//! [`Workload`], the value campaigns and result stores run and key by.
//!
//! Beyond the hand-coded generators, [`grammar`] provides a declarative
//! scenario grammar — phases, loops, probabilistic branches, and
//! size/count distributions — whose seeded sampler draws thousands of
//! concrete workload variants byte-reproducibly for campaign-scale
//! what-if exploration.

pub mod btio;
pub mod flashio;
pub mod grammar;
pub mod ior;
pub mod iozone;
pub mod madbench;
pub mod mdtest;
pub mod scenario;

pub use btio::{BtClass, BtIo, BtSubtype};
pub use flashio::FlashIo;
pub use grammar::{source_digest, Dist, Grammar, GrammarError, Variant};
pub use ior::{Ior, IorOp};
pub use iozone::{IozonePattern, IozoneRun};
pub use madbench::{FileType, MadBench};
pub use mdtest::{Mdtest, MdtestVariant};
pub use scenario::{Scenario, Workload};

/// The generators are workloads through their inherent `scenario`.
macro_rules! workload_impls {
    ($($t:ty),*) => {$(
        impl Workload for $t {
            fn scenario(&self) -> Scenario {
                <$t>::scenario(self)
            }
        }
    )*};
}

workload_impls!(BtIo, MadBench, Ior, Mdtest, Variant);
