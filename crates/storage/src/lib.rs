//! # storage — block-device and volume models
//!
//! Substrate for the I/O-device level of the paper's I/O path:
//!
//! * [`disk::Disk`] — a mechanical disk with seek/rotation/transfer timing
//!   and sequential-access detection; IOPs limits *emerge* from positioning
//!   costs instead of being configured.
//! * [`raid`] — JBOD, RAID 0, RAID 1 and RAID 5 volume engines over member
//!   disks, including RAID 5 parity placement (left-symmetric), full-stripe
//!   writes and the read-modify-write small-write penalty, with lazy parity
//!   coalescing for sequential streams (what a controller stripe cache does).
//! * [`cache::CachedVolume`] — a controller write-back cache in front of any
//!   volume, matching the paper's "write-cache enabled (write back)" RAID
//!   arrays: bursts are acknowledged at controller speed until the cache
//!   fills, sustained throughput converges to the backing volume.
//!
//! All engines implement the [`Volume`] trait, submit requests to member
//! disks through `simcore` timeline resources, and keep transfer meters so
//! characterization can read device-level rates.

pub mod cache;
pub mod disk;
pub mod inline;
pub mod raid;
pub mod req;
pub mod volume;

pub use cache::{CachedVolume, WriteCacheParams};
pub use disk::{Disk, DiskParams, SeqRunGrant};
pub use inline::InlineVec;
pub use raid::{Jbod, Raid0, Raid1, Raid5};
pub use req::{BlockOp, BlockReq, IoGrant};
pub use volume::{RebuildReport, Volume, VolumeError, VolumeMeter};
