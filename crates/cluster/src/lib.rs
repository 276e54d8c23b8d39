//! # cluster — cluster composition and the paper's testbeds
//!
//! Assembles the substrate crates into complete machines:
//!
//! * [`spec::ClusterSpec`] — hardware description (nodes, RAM, disks,
//!   fabric) with presets for the paper's two testbeds:
//!   [`presets::aohyper`] (8 × dual-core nodes, 2 GB RAM, NFS server with
//!   JBOD / RAID 1 / RAID 5 and dual Gigabit Ethernet) and
//!   [`presets::cluster_a`] (32 × quad-core nodes, 12 GB RAM, NFS front-end
//!   with RAID 5).
//! * [`config::IoConfig`] — one point in the paper's *I/O configuration
//!   analysis* space: device layout (JBOD/RAID levels), controller
//!   write-back cache, network layout (shared or dedicated data network).
//! * [`machine::ClusterMachine`] — the [`mpisim::Machine`] implementation:
//!   routes each file to its mount (node-local filesystem, the NFS export,
//!   or directly to the I/O node's local filesystem for device-level
//!   characterization) and carries MPI traffic over the right fabric.
//!   Nodes share the NFS server and the networks, and that contention is
//!   what the methodology measures.

pub mod config;
pub mod machine;
pub mod presets;
pub mod spec;

pub use config::{ConfigError, DeviceLayout, IoConfig, IoConfigBuilder, NetworkLayout};
pub use machine::{ClusterMachine, Mount};
pub use spec::ClusterSpec;
