//! # bench — the paper-reproduction harness
//!
//! One function per table and figure of the paper's evaluation section;
//! the `repro` binary dispatches to them. Each experiment renders the same
//! rows/series the paper reports (see `DESIGN.md` §4 for the index).
//!
//! Two scales are supported:
//!
//! * [`Scale::Paper`] — the paper's exact parameters (class C BT-IO,
//!   18 KPIX MADbench2, full characterization sweeps). Minutes of host
//!   time; used to produce `EXPERIMENTS.md`.
//! * [`Scale::Quick`] — reduced parameters with the same structure, for CI
//!   and smoke-testing the harness end to end in seconds.
//!
//! This crate times nothing itself: host-time measurement lives in the
//! separate `perfbench` package that `BENCHMARK.json` runs, which drives
//! these experiments as its `repro-quick` and `grid` workloads.

pub mod context;
pub mod experiments;
pub mod scenario_grid;

pub use context::{PfsFaultProfile, Repro, Scale};
