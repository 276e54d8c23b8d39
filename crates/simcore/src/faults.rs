//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s describing
//! *when* components of the simulated I/O path misbehave: a RAID member
//! dies or limps, the NFS server stalls, a traffic class starts dropping
//! or duplicating messages. The schedule itself is inert data — the
//! machine layers poll [`FaultSchedule::due`] as simulated time advances
//! and apply each event to the owning component, so the same schedule
//! always produces the same trace.

use crate::time::Time;
use serde::{Deserialize, Serialize};

/// A network traffic class, mirrored here so the fault vocabulary does not
/// depend on the network simulator (which sits above `simcore`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetClass {
    /// Compute (MPI) traffic.
    Mpi,
    /// Storage (NFS/PFS) traffic.
    Storage,
}

/// One injectable fault.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// A volume member disk fails hard; the array runs degraded.
    DiskFail {
        /// Member index within the server volume.
        disk: usize,
    },
    /// A failed member is hot-swapped for a fresh disk; the array starts
    /// rebuilding onto it.
    DiskReplace {
        /// Member index within the server volume.
        disk: usize,
    },
    /// A member disk limps: every service time is multiplied by `factor`.
    DiskSlow {
        /// Member index within the server volume.
        disk: usize,
        /// Service-time multiplier (> 1.0 slows the member down).
        factor: f64,
    },
    /// A limping member returns to nominal service times.
    DiskRecover {
        /// Member index within the server volume.
        disk: usize,
    },
    /// The cluster's **NFS server** (the I/O node's `nfsd` pool) stops
    /// dispatching RPCs for `duration` (daemon pause, failover window, deep
    /// firmware hiccup). Targets only the NFS export — parallel-filesystem
    /// I/O servers have their own `PfsServer*` faults.
    ServerStall {
        /// Length of the stall window.
        duration: Time,
    },
    /// A parallel-filesystem I/O server crashes: it stops answering RPCs
    /// and stays down until a matching [`Fault::PfsServerRecover`].
    PfsServerFail {
        /// PFS I/O server index (`0 .. pfs_servers`).
        server: usize,
    },
    /// A crashed PFS I/O server rejoins and resyncs the writes it missed
    /// from its surviving replica peers (storage-class catch-up traffic).
    PfsServerRecover {
        /// PFS I/O server index.
        server: usize,
    },
    /// A PFS I/O server limps: its RPC dispatch and disk service times are
    /// multiplied by `factor` (1.0 restores nominal service).
    PfsServerSlow {
        /// PFS I/O server index.
        server: usize,
        /// Service-time multiplier (> 1.0 slows the server down).
        factor: f64,
    },
    /// A traffic class starts dropping and/or duplicating messages.
    NetDegrade {
        /// Which fabric class degrades.
        class: NetClass,
        /// Probability a message's first copy is lost.
        drop: f64,
        /// Probability a message is sent twice.
        duplicate: f64,
    },
    /// A degraded traffic class returns to lossless service.
    NetHeal {
        /// Which fabric class heals.
        class: NetClass,
    },
}

/// A fault bound to the simulated instant it occurs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Time,
    /// What happens.
    pub fault: Fault,
}

/// A deterministic, time-sorted fault schedule.
///
/// The schedule is immutable after construction; consumers track their own
/// cursor and call [`due`](FaultSchedule::due) with nondecreasing `now`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule with no faults (the healthy baseline).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit events; events are stably sorted by
    /// time, so same-instant events keep their authoring order.
    pub fn new(mut events: Vec<FaultEvent>) -> FaultSchedule {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// All events, time-sorted.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule carries no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that have become due by `now`, starting at `*cursor`.
    /// Advances the cursor past the returned slice, so each event is
    /// delivered exactly once per cursor.
    pub fn due<'a>(&'a self, cursor: &mut usize, now: Time) -> &'a [FaultEvent] {
        let start = (*cursor).min(self.events.len());
        let mut end = start;
        while end < self.events.len() && self.events[end].at <= now {
            end += 1;
        }
        *cursor = end;
        &self.events[start..end]
    }

    /// Instant of the next event at or after `cursor`, if any — the *fault
    /// horizon* closed-form fast paths must not simulate past.
    pub fn next_at(&self, cursor: usize) -> Option<Time> {
        self.events.get(cursor).map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_sorts_by_time() {
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: Time::from_secs(2),
                fault: Fault::DiskFail { disk: 1 },
            },
            FaultEvent {
                at: Time::from_secs(1),
                fault: Fault::ServerStall {
                    duration: Time::from_millis(10),
                },
            },
        ]);
        assert_eq!(s.events()[0].at, Time::from_secs(1));
        assert_eq!(s.events()[1].at, Time::from_secs(2));
    }

    #[test]
    fn due_delivers_each_event_once() {
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: Time::from_secs(1),
                fault: Fault::DiskFail { disk: 0 },
            },
            FaultEvent {
                at: Time::from_secs(3),
                fault: Fault::DiskReplace { disk: 0 },
            },
        ]);
        let mut cursor = 0;
        assert!(s.due(&mut cursor, Time::from_millis(500)).is_empty());
        assert_eq!(s.due(&mut cursor, Time::from_secs(2)).len(), 1);
        assert!(s.due(&mut cursor, Time::from_secs(2)).is_empty());
        assert_eq!(s.due(&mut cursor, Time::from_secs(10)).len(), 1);
        assert!(s.due(&mut cursor, Time::from_secs(100)).is_empty());
    }

    #[test]
    fn same_instant_events_keep_author_order() {
        let t = Time::from_secs(1);
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: t,
                fault: Fault::DiskFail { disk: 0 },
            },
            FaultEvent {
                at: t,
                fault: Fault::DiskReplace { disk: 0 },
            },
        ]);
        assert!(matches!(s.events()[0].fault, Fault::DiskFail { .. }));
        assert!(matches!(s.events()[1].fault, Fault::DiskReplace { .. }));
    }
}
