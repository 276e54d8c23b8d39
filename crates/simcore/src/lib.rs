//! # simcore — discrete-event simulation kernel
//!
//! Foundations shared by every simulated subsystem in the workspace:
//!
//! * [`Time`] / [`Bandwidth`] — nanosecond-resolution simulated time and
//!   byte-per-second rates with overflow-safe conversions.
//! * [`EventQueue`] — a slab-backed four-ary-heap event queue with stable FIFO ordering for
//!   events scheduled at the same instant.
//! * [`FifoResource`] / [`MultiResource`] — *timeline resources*: a request
//!   arriving at `t` starts at `max(t, free_at)` and occupies the resource for
//!   its service time. When requests are issued in nondecreasing simulation
//!   time this is an exact FIFO (resp. `k`-server) queueing model without any
//!   callback machinery.
//! * [`rng::SplitMix64`] — deterministic RNG so identical scenarios produce
//!   identical traces.
//! * [`stats`] — online statistics, histograms and utilization meters used by
//!   the characterization reports.
//! * [`Watchdog`] — supervised-run budgets (simulated-time deadline,
//!   wall-clock budget, livelock/stall detection) so runaway simulations
//!   abort with a typed [`Abort`] instead of hanging a campaign.
//! * [`chaos`] — deterministic host-fault injection (torn checkpoint
//!   writes, worker panics, store errors, ENOSPC) for exercising the
//!   campaign runtime's recovery paths.

pub mod chaos;
pub mod faults;
pub mod hash;
pub mod obs;
pub mod progress;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use chaos::{ChaosAction, ChaosProfile, ChaosSite, HostFaultPlan};
pub use faults::{Fault, FaultEvent, FaultProfile, FaultSchedule, NetClass};
pub use hash::{fnv1a64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher64};
pub use progress::{Abort, Watchdog, WatchdogSpec};
pub use queue::{EventHandle, EventQueue};
pub use resource::{FifoResource, MultiResource};
pub use rng::{seed_for, SplitMix64};
pub use time::{Bandwidth, Time};

/// Number of bytes in a kibibyte.
pub const KIB: u64 = 1024;
/// Number of bytes in a mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in a gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Formats a byte count using binary units (e.g. `256KiB`, `1.5MiB`).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{}GiB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{}MiB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{}KiB", bytes / KIB)
    } else if bytes >= GIB {
        format!("{:.2}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.2}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{}B", bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting_uses_binary_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(1024), "1KiB");
        assert_eq!(fmt_bytes(256 * KIB), "256KiB");
        assert_eq!(fmt_bytes(MIB), "1MiB");
        assert_eq!(fmt_bytes(3 * GIB), "3GiB");
        assert_eq!(fmt_bytes(MIB + MIB / 2), "1536KiB");
        assert_eq!(fmt_bytes(MIB + 1), "1.00MiB");
    }
}
