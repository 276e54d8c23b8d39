//! # fs — filesystem models
//!
//! The middle levels of the paper's I/O path:
//!
//! * [`range_cache::RangeCache`] — a byte-accurate page-cache model: an LRU
//!   set of cached byte ranges per file with clean/dirty state. Byte-range
//!   (rather than fixed-page) tracking keeps tiny strided writes — the NAS
//!   BT-IO *simple* subtype's 1.6 KB operations — costed exactly.
//! * [`local::LocalFs`] — an ext4-like local filesystem: extent allocation,
//!   page-cached reads with readahead, write-back with a dirty limit
//!   (writers throttle to device speed once the limit is hit), `fsync`,
//!   and metadata operation costs.
//! * [`pfs`] — a PVFS-like parallel filesystem: files striped across
//!   multiple I/O servers, no client caching, no locking — the alternative
//!   I/O architecture the paper's configurable factor "number and
//!   placement of I/O node" points at.
//! * [`nfs`] — an NFSv3-like network filesystem: the client caches data,
//!   streams WRITE/READ RPCs of `wsize`/`rsize` bytes with a bounded
//!   in-flight window over the storage network, and commits on close/fsync;
//!   the server services RPCs from a daemon pool on top of its own
//!   [`local::LocalFs`].
//!
//! Together these reproduce the effects the paper's evaluation hinges on:
//! reads served "on buffer/cache and not physically on the disk" exceed the
//! characterized device bandwidth (usage > 100%), IOzone-style 2×RAM files
//! defeat the cache, and NFS throughput is bounded by the data network and
//! the server's device level.

pub mod file;
pub mod local;
pub mod meta;
pub mod nfs;
pub mod pfs;
pub mod range_cache;
mod train;

pub use file::FileId;
pub use local::{LocalFs, LocalFsParams};
pub use meta::{MetaOps, MetaVerb};
pub use nfs::{NfsClient, NfsClientParams, NfsError, NfsRetryParams, NfsServer, NfsServerParams};
pub use pfs::{PfsError, PfsParams, PfsSystem};
pub use range_cache::RangeCache;
