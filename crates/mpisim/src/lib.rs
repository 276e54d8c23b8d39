//! # mpisim — a simulated MPI runtime with MPI-IO
//!
//! Ranks execute *op programs* ([`op::MpiOp`]) on a [`machine::Machine`]
//! (the cluster model): compute burns simulated time, point-to-point
//! messages match eagerly or by rendezvous, barriers synchronize the world,
//! and MPI-IO operations run either *independently* (each rank hits its
//! node's mount directly — the BT-IO `simple` subtype) or *collectively*
//! with two-phase collective buffering (data is exchanged to per-node
//! aggregators which issue large contiguous file accesses — the `full`
//! subtype).
//!
//! Every primitive is reported as one [`simcore::obs::ObsEvent::MpiOp`]
//! to the run's [`simcore::obs::ObsSink`] and to the thread's installed
//! observer. That is exactly the information the paper's PAS2P-IO
//! tracing library captures via `LD_PRELOAD`; the methodology crate
//! builds application characterizations (paper Tables II/V/VIII) and
//! phase diagrams (Figs. 8/16) from it.
//!
//! Programs are consumed through [`op::OpStream`], so workloads with
//! millions of operations (NAS BT-IO *simple* issues 4.2 × 10⁶ writes at
//! class C) can generate ops on the fly without materializing them.

pub mod machine;
pub mod op;
pub mod runtime;

pub use machine::Machine;
pub use op::{ChainStream, ChunkedStream, GenStream, MpiOp, OpStream, VecStream};
pub use runtime::{ProgramFault, RunError, RunStats, Runtime, RuntimeParams};
