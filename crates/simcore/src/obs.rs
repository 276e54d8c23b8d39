//! Observability: a lightweight event stream out of the simulated I/O path.
//!
//! Every layer of the path (MPI runtime, fabric, NFS, local filesystem,
//! volumes) calls [`emit`] at its chokepoints. The call is free when no
//! sink is installed — a thread-local `bool` is checked before the event
//! is even constructed, so the hot paths (the slab event queue, the bulk
//! closed forms) pay one predictable branch and nothing else. Installing
//! a sink is per-thread and scoped by an RAII [`ObsGuard`], which makes
//! collection safe under the parallel campaign scheduler: each campaign
//! cell runs wholly on one worker thread and observes only itself.
//!
//! The closed-form bulk paths emit **aggregate** events (`ops > 1`)
//! carrying the same totals the event-granular loop would have produced
//! one event at a time, so a trace taken with fast paths on and off
//! aggregates identically.
//!
//! [`ObsEvent::MpiOp`] is also the application trace — the PAS2P-IO
//! record of every MPI/MPI-IO primitive. The MPI runtime hands each one
//! both to the thread's installed sink and to the [`ObsSink`] passed to
//! the run, so always-on counters and a streaming application profile are
//! two consumers of one event stream.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// One mdtest-style metadata verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetaVerb {
    /// Create an (empty) file in a directory.
    Create,
    /// Look up a file's attributes.
    Stat,
    /// Remove a file from a directory.
    Unlink,
    /// Create a directory.
    Mkdir,
    /// List a directory.
    Readdir,
}

impl MetaVerb {
    /// All verbs, in mdtest phase order.
    pub const ALL: [MetaVerb; 5] = [
        MetaVerb::Mkdir,
        MetaVerb::Create,
        MetaVerb::Stat,
        MetaVerb::Unlink,
        MetaVerb::Readdir,
    ];

    /// Stable label (used in traces and rendered metrics).
    pub fn label(self) -> &'static str {
        match self {
            MetaVerb::Create => "create",
            MetaVerb::Stat => "stat",
            MetaVerb::Unlink => "unlink",
            MetaVerb::Mkdir => "mkdir",
            MetaVerb::Readdir => "readdir",
        }
    }

    /// Whether the verb mutates the namespace (vs. a pure lookup).
    pub fn mutates(self) -> bool {
        matches!(self, MetaVerb::Create | MetaVerb::Unlink | MetaVerb::Mkdir)
    }
}

/// The MPI primitive an [`ObsEvent::MpiOp`] reports. Ranks are `u32`
/// world ranks; files and directories are raw file ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Local computation.
    Compute,
    /// Message sent (payload size, destination).
    Send {
        /// Destination rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Message received (source).
    Recv {
        /// Source rank.
        src: u32,
    },
    /// Barrier participation.
    Barrier,
    /// Broadcast participation.
    Bcast {
        /// Root rank.
        root: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// All-reduce participation.
    Allreduce {
        /// Per-rank contribution bytes.
        bytes: u64,
    },
    /// `MPI_Waitall` over the rank's outstanding nonblocking requests.
    Wait,
    /// File open (`create` true for creation).
    Open {
        /// File.
        file: u64,
        /// Created/truncated?
        create: bool,
    },
    /// File close.
    Close {
        /// File.
        file: u64,
    },
    /// A write at application level.
    Write {
        /// File.
        file: u64,
        /// Offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Was this a collective (`_all`) operation?
        collective: bool,
    },
    /// A read at application level.
    Read {
        /// File.
        file: u64,
        /// Offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Was this a collective (`_all`) operation?
        collective: bool,
    },
    /// Explicit file sync.
    Sync {
        /// File.
        file: u64,
    },
    /// A workload-defined section marker.
    Marker(u32),
    /// An mdtest-class metadata operation.
    Meta {
        /// The metadata verb.
        verb: MetaVerb,
        /// Containing directory.
        dir: u64,
        /// Target file (the directory itself for mkdir/readdir).
        file: u64,
    },
}

impl TraceKind {
    /// Stable label of the primitive (trace exports, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::Send { .. } => "send",
            TraceKind::Recv { .. } => "recv",
            TraceKind::Barrier => "barrier",
            TraceKind::Bcast { .. } => "bcast",
            TraceKind::Allreduce { .. } => "allreduce",
            TraceKind::Wait => "wait",
            TraceKind::Open { .. } => "open",
            TraceKind::Close { .. } => "close",
            TraceKind::Write { .. } => "write",
            TraceKind::Read { .. } => "read",
            TraceKind::Sync { .. } => "sync",
            TraceKind::Marker(_) => "marker",
            TraceKind::Meta { verb, .. } => match verb {
                MetaVerb::Create => "meta_create",
                MetaVerb::Stat => "meta_stat",
                MetaVerb::Unlink => "meta_unlink",
                MetaVerb::Mkdir => "meta_mkdir",
                MetaVerb::Readdir => "meta_readdir",
            },
        }
    }

    /// Payload bytes the primitive moved (0 for control/compute).
    pub fn bytes(&self) -> u64 {
        match self {
            TraceKind::Send { bytes, .. }
            | TraceKind::Bcast { bytes, .. }
            | TraceKind::Allreduce { bytes } => *bytes,
            TraceKind::Write { len, .. } | TraceKind::Read { len, .. } => *len,
            _ => 0,
        }
    }

    /// Whether this is a file I/O data operation (read or write).
    pub fn io(&self) -> bool {
        matches!(self, TraceKind::Write { .. } | TraceKind::Read { .. })
    }
}

/// One event out of the simulated I/O path.
///
/// Variants carry plain data only (no references into the simulation), so
/// sinks may retain them. Times are simulated time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObsEvent {
    /// An MPI-level primitive completed on a rank (begin = `start`,
    /// end = `end`).
    MpiOp {
        /// Executing rank.
        rank: u32,
        /// When the primitive began.
        start: Time,
        /// When it completed.
        end: Time,
        /// The primitive.
        kind: TraceKind,
    },
    /// A fabric message was delivered (`from == to` is loopback). A
    /// dropped-and-retransmitted message emits once per wire crossing.
    NetSend {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Message bytes.
        bytes: u64,
        /// When the send was issued.
        start: Time,
        /// When the last byte (plus link latency) arrived.
        end: Time,
    },
    /// An NFS RPC was retransmitted after a minor timeout.
    NfsRetry {
        /// RPC procedure (`"WRITE"`, `"READ"`, ...).
        op: &'static str,
        /// When the expired timeout's deadline passed.
        at: Time,
        /// The attempt that timed out (1-based).
        attempt: u32,
    },
    /// A local-filesystem page-cache lookup was served (fully, partially
    /// or not at all) from memory.
    CacheAccess {
        /// Bytes found in the cache.
        hit_bytes: u64,
        /// Bytes that had to come from the device.
        miss_bytes: u64,
        /// Lookup instant.
        at: Time,
    },
    /// Dirty ranges were evicted from the page cache to make room and had
    /// to reach the device before the evictor could continue.
    CacheEvict {
        /// Dirty bytes written out.
        bytes: u64,
        /// Eviction instant.
        at: Time,
    },
    /// The local filesystem wrote dirty ranges back to its volume
    /// (throttling drain, fsync, sync).
    Writeback {
        /// Bytes written back.
        bytes: u64,
        /// When the writeback started.
        start: Time,
        /// When the device acknowledged the last range.
        end: Time,
    },
    /// A volume granted a chunked transfer run. `ops` is the number of
    /// chunk grants the run decomposed into: the closed-form bulk path
    /// emits one aggregate event with `ops > 1`, the granular loop emits
    /// the identical aggregate after its last chunk.
    StorageRun {
        /// Volume kind (`"RAID 5"`, `"JBOD"`, ...).
        volume: &'static str,
        /// Whether the run was a write.
        write: bool,
        /// Total bytes across all chunks.
        bytes: u64,
        /// Chunk grants in the run.
        ops: u64,
        /// Arrival of the run.
        start: Time,
        /// Acknowledgement of the last chunk.
        end: Time,
        /// Whether the closed-form bulk path served the run.
        bulk: bool,
    },
    /// A single volume grant outside a chunked run (cache-miss reads,
    /// evictions, metadata).
    StorageIo {
        /// Volume kind.
        volume: &'static str,
        /// Whether the request was a write.
        write: bool,
        /// Request bytes.
        bytes: u64,
        /// Arrival.
        start: Time,
        /// Acknowledgement.
        end: Time,
    },
    /// A PFS client RPC to an unresponsive I/O server was retransmitted
    /// after a minor timeout.
    PfsRetry {
        /// RPC procedure (`"WRITE"`, `"READ"`, `"META"`).
        op: &'static str,
        /// The unresponsive I/O server.
        server: usize,
        /// When the expired timeout's deadline passed.
        at: Time,
        /// The attempt that timed out (1-based).
        attempt: u32,
    },
    /// A PFS span was served by a surviving replica holder after its
    /// preferred server was declared dead.
    PfsFailover {
        /// RPC procedure that failed over (`"READ"`, `"META"`).
        op: &'static str,
        /// The dead preferred server.
        from: usize,
        /// The surviving replica holder that served the span.
        to: usize,
        /// When the failed-over RPC was issued.
        at: Time,
    },
    /// A recovered PFS I/O server caught up the writes it missed from its
    /// replica peers.
    PfsResync {
        /// The recovered server.
        server: usize,
        /// Bytes replayed onto it.
        bytes: u64,
        /// When the catch-up started.
        start: Time,
        /// When the last missed extent was durable again.
        end: Time,
    },
    /// A filesystem-level metadata operation (mdtest verb) completed on
    /// its backend. Emitted by the cluster machine after routing the verb
    /// to the directory's mount, so one op emits exactly one event.
    MetaOp {
        /// Verb label (`"create"`, `"stat"`, `"unlink"`, `"mkdir"`,
        /// `"readdir"`).
        op: &'static str,
        /// When the operation was issued.
        start: Time,
        /// When the backend completed it.
        end: Time,
    },
    /// A fault-schedule event was applied to the I/O system.
    FaultApplied {
        /// Fault label (`"disk_fail"`, `"disk_replace"`, ...).
        kind: &'static str,
        /// Injection instant.
        at: Time,
    },
}

impl ObsEvent {
    /// Schema label of the variant (stable across versions of the JSONL
    /// export; see `core::obs`).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::MpiOp { .. } => "mpi_op",
            ObsEvent::NetSend { .. } => "net_send",
            ObsEvent::NfsRetry { .. } => "nfs_retry",
            ObsEvent::CacheAccess { .. } => "cache_access",
            ObsEvent::CacheEvict { .. } => "cache_evict",
            ObsEvent::Writeback { .. } => "writeback",
            ObsEvent::StorageRun { .. } => "storage_run",
            ObsEvent::StorageIo { .. } => "storage_io",
            ObsEvent::PfsRetry { .. } => "pfs_retry",
            ObsEvent::PfsFailover { .. } => "pfs_failover",
            ObsEvent::PfsResync { .. } => "pfs_resync",
            ObsEvent::MetaOp { .. } => "meta_op",
            ObsEvent::FaultApplied { .. } => "fault",
        }
    }
}

/// Consumer of [`ObsEvent`]s. Implementations live on the thread that
/// runs the simulation; events arrive in emission order (events of one
/// rank in program order, different ranks interleaved).
pub trait ObsSink {
    /// Records one event.
    fn event(&mut self, ev: &ObsEvent);

    /// Whether this sink observes anything at all. Only [`NoSink`] says
    /// no, which lets producers skip building its events: the MPI runtime
    /// then builds no per-op event when no observer is installed either.
    fn observes(&self) -> bool {
        true
    }
}

/// The one "observe nothing" sink: ignores everything and says so via
/// [`ObsSink::observes`]. Passing it to a run keeps every fast path open;
/// installing it leaves [`enabled`] false, exactly like installing
/// nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSink;

impl ObsSink for NoSink {
    fn event(&mut self, _ev: &ObsEvent) {}

    fn observes(&self) -> bool {
        false
    }
}

/// Keeps every event in arrival order (small runs and tests only).
impl ObsSink for Vec<ObsEvent> {
    fn event(&mut self, ev: &ObsEvent) {
        self.push(*ev);
    }
}

thread_local! {
    /// Fast flag checked by [`emit`] before anything else. Kept separate
    /// from `SINK` so the disabled path never touches the `RefCell`.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Box<dyn ObsSink>>> = const { RefCell::new(None) };
}

/// Whether a sink is installed on the current thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Emits an event to the current thread's sink. `build` runs only when a
/// sink is installed, so instrumentation points pay a single predictable
/// branch when observation is off.
#[inline]
pub fn emit(build: impl FnOnce() -> ObsEvent) {
    if enabled() {
        deliver(build());
    }
}

#[cold]
fn deliver(ev: ObsEvent) {
    SINK.with(|s| {
        // Re-entrant emits (a sink whose event handler itself emits) find
        // the RefCell borrowed; drop them instead of panicking.
        if let Ok(mut slot) = s.try_borrow_mut() {
            if let Some(sink) = slot.as_mut() {
                sink.event(&ev);
            }
        }
    });
}

/// Installs `sink` as the current thread's observer; returns a guard that
/// restores the previous sink (usually none) when dropped. Share state
/// with the sink (e.g. via `Rc<RefCell<..>>`) to read results back after
/// the guard is gone. A sink that does not [`ObsSink::observes`] leaves
/// observation off for the guard's scope.
#[must_use = "the sink is uninstalled when the guard drops"]
pub fn install(sink: Box<dyn ObsSink>) -> ObsGuard {
    let on = sink.observes();
    let prev = SINK.with(|s| s.borrow_mut().replace(sink));
    let was_enabled = ENABLED.with(|e| e.replace(on));
    ObsGuard { prev, was_enabled }
}

/// RAII scope of an installed sink (see [`install`]).
pub struct ObsGuard {
    prev: Option<Box<dyn ObsSink>>,
    was_enabled: bool,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        ENABLED.with(|e| e.set(self.was_enabled));
        SINK.with(|s| {
            *s.borrow_mut() = self.prev.take();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sink that counts into shared state.
    struct Counter(Rc<RefCell<Vec<&'static str>>>);

    impl ObsSink for Counter {
        fn event(&mut self, ev: &ObsEvent) {
            self.0.borrow_mut().push(ev.kind());
        }
    }

    fn fault_event() -> ObsEvent {
        ObsEvent::FaultApplied {
            kind: "disk_fail",
            at: Time::from_secs(1),
        }
    }

    #[test]
    fn emit_without_sink_is_a_no_op() {
        assert!(!enabled());
        emit(|| panic!("event must not be built when disabled"));
    }

    #[test]
    fn install_scopes_delivery_to_the_guard() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        {
            let _guard = install(Box::new(Counter(seen.clone())));
            assert!(enabled());
            emit(fault_event);
            emit(|| ObsEvent::CacheEvict {
                bytes: 4096,
                at: Time::ZERO,
            });
        }
        assert!(!enabled());
        emit(|| panic!("uninstalled after guard drop"));
        assert_eq!(*seen.borrow(), vec!["fault", "cache_evict"]);
    }

    #[test]
    fn nested_install_restores_the_outer_sink() {
        let outer = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::new(RefCell::new(Vec::new()));
        let _g1 = install(Box::new(Counter(outer.clone())));
        {
            let _g2 = install(Box::new(Counter(inner.clone())));
            emit(fault_event);
        }
        emit(fault_event);
        assert_eq!(inner.borrow().len(), 1);
        assert_eq!(outer.borrow().len(), 1);
    }

    #[test]
    fn installed_no_sink_keeps_observation_off() {
        let mut s = NoSink;
        s.event(&fault_event());
        assert!(!s.observes());
        let _guard = install(Box::new(NoSink));
        assert!(!enabled());
        emit(|| panic!("NoSink must not make emit build events"));
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(fault_event().kind(), "fault");
        let e = ObsEvent::MpiOp {
            rank: 0,
            start: Time::ZERO,
            end: Time::from_secs(1),
            kind: TraceKind::Barrier,
        };
        assert_eq!(e.kind(), "mpi_op");
    }

    #[test]
    fn mpi_primitives_classify_and_label() {
        let w = TraceKind::Write {
            file: 1,
            offset: 0,
            len: 10,
            collective: false,
        };
        assert_eq!((w.label(), w.bytes(), w.io()), ("write", 10, true));
        let s = TraceKind::Send { dst: 1, bytes: 64 };
        assert_eq!((s.label(), s.bytes(), s.io()), ("send", 64, false));
        let m = TraceKind::Meta {
            verb: MetaVerb::Stat,
            dir: 2,
            file: 3,
        };
        assert_eq!((m.label(), m.bytes(), m.io()), ("meta_stat", 0, false));
        assert!(!TraceKind::Marker(1).io());
    }

    #[test]
    fn event_size_is_pinned() {
        // Every MPI primitive travels by value through the sinks; growing
        // the event grows the per-primitive cost of the runtime. The rank
        // is a `u32` so it shares the first word with the discriminant.
        assert_eq!(std::mem::size_of::<TraceKind>(), 32);
        assert_eq!(std::mem::size_of::<ObsEvent>(), 56);
    }
}
