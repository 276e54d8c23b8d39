//! An NFSv3-like network filesystem.
//!
//! * [`NfsServer`] — an I/O node: a daemon pool (`nfsd` threads) serving
//!   RPCs on top of a [`LocalFs`] (which supplies the server page cache and
//!   the RAID/JBOD device level below it).
//! * [`NfsClient`] — one mount on a compute node: a client page cache with
//!   write-behind (WRITE RPCs of `wsize` bytes, a bounded in-flight window
//!   providing back-pressure), pipelined READ RPCs of `rsize` bytes with
//!   readahead, close-to-open consistency (flush on close, cache
//!   invalidation on open) and COMMIT on fsync.
//!
//! Client methods borrow the [`Network`] and the server explicitly — the
//! cluster owns both and the simulation issues operations in global time
//! order, which keeps every underlying timeline exact.

use crate::file::FileId;
use crate::local::{FsMeter, LocalFs};
use crate::meta::{MetaOps, MetaVerb};
use crate::range_cache::{RangeCache, RangeRef};
use netsim::{Network, NodeId, TrafficClass};
use simcore::{Bandwidth, FifoResource, FxHashMap, MultiResource, SplitMix64, Time};
use std::collections::VecDeque;
use std::fmt;

/// NFS RPC header/trailer size on the wire.
const RPC_HEADER: u64 = 136;
/// Size of a reply that carries no data payload.
const RPC_REPLY: u64 = 112;

/// A client-visible NFS failure.
///
/// The simulated client behaves like a `soft` mount: an RPC whose reply does
/// not arrive within the (exponentially backed-off) retransmission budget
/// surfaces as an error instead of hanging the application forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NfsError {
    /// The retransmission budget was exhausted without a reply.
    MajorTimeout {
        /// RPC procedure that gave up (`"WRITE"`, `"READ"`, ...).
        op: &'static str,
        /// File the operation targeted.
        file: FileId,
        /// Instant the client gave up (the final retransmission deadline).
        at: Time,
        /// RPC attempts made (first send plus retransmissions).
        attempts: u32,
    },
}

impl NfsError {
    /// The simulated instant the error was observed by the caller; lets the
    /// application layer keep its clock moving past a failed operation.
    pub fn at(&self) -> Time {
        match *self {
            NfsError::MajorTimeout { at, .. } => at,
        }
    }
}

impl fmt::Display for NfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfsError::MajorTimeout {
                op,
                file,
                at,
                attempts,
            } => write!(
                f,
                "nfs: {op} on file {} major timeout after {attempts} attempts at {:.3}s",
                file.0,
                at.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for NfsError {}

/// RPC retransmission discipline of a mount (the `timeo`/`retrans` options).
#[derive(Clone, Copy, Debug)]
pub struct NfsRetryParams {
    /// Initial per-RPC timeout; multiplied by `backoff_mult` on every
    /// retransmission (doubles by default).
    pub timeo: Time,
    /// Retransmissions after the first send before a major timeout.
    pub retrans: u32,
    /// Ceiling for the backed-off timeout.
    pub max_timeo: Time,
    /// Deterministic jitter added to each retransmission instant, as a
    /// fraction of the current timeout (desynchronizes client herds).
    pub jitter_frac: f64,
    /// Multiplier applied to the timeout after each retransmission
    /// (classic exponential backoff doubles; values below 1 are treated
    /// as 1, i.e. a constant timeout).
    pub backoff_mult: u32,
    /// Base seed of the mount's jitter stream; XORed with the node id at
    /// mount time so every mount draws a distinct deterministic sequence.
    pub jitter_seed: u64,
}

impl NfsRetryParams {
    /// Linux NFS-over-TCP defaults: `timeo=600` (60 s), `retrans=2`.
    /// Healthy RPCs never get near the timeout, so retransmission cost is
    /// strictly an under-fault behaviour.
    pub fn linux_tcp() -> NfsRetryParams {
        NfsRetryParams {
            timeo: Time::from_secs(60),
            retrans: 2,
            max_timeo: Time::from_secs(600),
            jitter_frac: 0.1,
            backoff_mult: 2,
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }

    /// An impatient discipline for fault drills: short initial timeout and
    /// a bounded budget, so stall windows are observable in test-sized runs.
    pub fn impatient(timeo: Time, retrans: u32) -> NfsRetryParams {
        NfsRetryParams {
            timeo,
            retrans,
            max_timeo: Time::from_secs(60),
            jitter_frac: 0.1,
            backoff_mult: 2,
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }
}

/// Default base seed of every mount's jitter stream (`b"NFSC"` as a word).
const DEFAULT_JITTER_SEED: u64 = 0x4e46_5343;

impl Default for NfsRetryParams {
    fn default() -> NfsRetryParams {
        NfsRetryParams::linux_tcp()
    }
}

/// Server-side parameters.
#[derive(Clone, Debug)]
pub struct NfsServerParams {
    /// Number of `nfsd` daemons (concurrent RPC executions).
    pub daemons: usize,
    /// CPU cost of decoding/dispatching one RPC.
    pub rpc_overhead: Time,
}

impl Default for NfsServerParams {
    fn default() -> Self {
        NfsServerParams {
            daemons: 8,
            rpc_overhead: Time::from_micros(90),
        }
    }
}

/// An NFS server on an I/O node.
pub struct NfsServer {
    /// The cluster node hosting the server.
    pub node: NodeId,
    params: NfsServerParams,
    fs: LocalFs,
    pool: MultiResource,
    /// The lock manager: `lockd` is a single daemon, so byte-range lock
    /// traffic from all clients serializes here — the choke point that
    /// strangles fine-grained MPI-IO on NFS.
    lockd: FifoResource,
    rpcs: u64,
    /// No RPC dispatches before this instant (fault-injected stall window).
    stall_until: Time,
}

impl NfsServer {
    /// Exports `fs` from `node`.
    pub fn new(node: NodeId, params: NfsServerParams, fs: LocalFs) -> NfsServer {
        let pool = MultiResource::new(params.daemons);
        NfsServer {
            node,
            params,
            fs,
            pool,
            lockd: FifoResource::new(),
            rpcs: 0,
            stall_until: Time::ZERO,
        }
    }

    /// The exported filesystem (for meters and direct characterization).
    pub fn fs(&self) -> &LocalFs {
        &self.fs
    }

    /// Mutable access to the exported filesystem.
    pub fn fs_mut(&mut self) -> &mut LocalFs {
        &mut self.fs
    }

    /// RPCs served.
    pub fn rpcs(&self) -> u64 {
        self.rpcs
    }

    fn dispatch(&mut self, arrival: Time) -> Time {
        self.rpcs += 1;
        // Stalled daemons pick nothing up until the window passes.
        let arrival = arrival.max(self.stall_until);
        self.pool.submit(arrival, self.params.rpc_overhead).end
    }

    /// Serves a WRITE RPC; returns when the reply may be sent.
    pub fn serve_write(&mut self, arrival: Time, file: FileId, offset: u64, len: u64) -> Time {
        let t = self.dispatch(arrival);
        self.fs.write(t, file, offset, len)
    }

    /// Serves a READ RPC; returns when the data is ready to send back.
    pub fn serve_read(&mut self, arrival: Time, file: FileId, offset: u64, len: u64) -> Time {
        let t = self.dispatch(arrival);
        self.fs.read(t, file, offset, len)
    }

    /// Serves a metadata RPC (LOOKUP/CREATE/GETATTR/...).
    pub fn serve_meta(&mut self, arrival: Time, file: FileId, create: bool) -> Time {
        let t = self.dispatch(arrival);
        if create {
            self.fs.create(t, file)
        } else {
            self.fs.open(t, file)
        }
    }

    /// Serves an mdtest-class metadata RPC (CREATE / GETATTR / REMOVE /
    /// MKDIR / READDIR) against the exported filesystem.
    pub fn serve_meta_op(
        &mut self,
        arrival: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        let t = self.dispatch(arrival);
        match verb {
            MetaVerb::Create => self.fs.create(t, target),
            MetaVerb::Stat => self.fs.stat(t, target),
            MetaVerb::Unlink => self.fs.unlink(t, target),
            MetaVerb::Mkdir => self.fs.mkdir(t, dir),
            MetaVerb::Readdir => self.fs.readdir(t, dir),
        }
    }

    /// Serves a COMMIT RPC: makes `file` durable on the server.
    pub fn serve_commit(&mut self, arrival: Time, file: FileId) -> Time {
        let t = self.dispatch(arrival);
        self.fs.fsync(t, file)
    }

    /// Serves a lock/unlock-class RPC. The lock manager (`lockd`) is its
    /// own *single-threaded* daemon with its own queue: it does not contend
    /// on the `nfsd` pool, but concurrent clients serialize on it — with
    /// millions of fine-grained locked operations this is the bottleneck
    /// (the BT-IO *simple* pathology).
    pub fn serve_null(&mut self, arrival: Time) -> Time {
        self.rpcs += 1;
        let arrival = arrival.max(self.stall_until);
        self.lockd.submit(arrival, self.params.rpc_overhead).end
    }

    /// Injects a service stall: no RPC dispatches before `from + duration`
    /// (daemon pause, failover window, deep firmware hiccup). Requests keep
    /// arriving and queue; overlapping stalls extend the window.
    pub fn stall(&mut self, from: Time, duration: Time) {
        self.stall_until = self.stall_until.max(from + duration);
    }

    /// The instant the current stall window ends (`Time::ZERO` if none was
    /// ever injected).
    pub fn stalled_until(&self) -> Time {
        self.stall_until
    }
}

/// Client-side (mount) parameters.
#[derive(Clone, Debug)]
pub struct NfsClientParams {
    /// READ RPC payload size.
    pub rsize: u64,
    /// WRITE RPC payload size.
    pub wsize: u64,
    /// Maximum outstanding RPCs per client (write-behind / readahead window).
    pub max_inflight: usize,
    /// Client page-cache capacity.
    pub cache_capacity: u64,
    /// Dirty bytes beyond which the writer throttles.
    pub dirty_limit: u64,
    /// Dirty level the flusher drains to.
    pub dirty_background: u64,
    /// Client memory-copy bandwidth.
    pub mem_bw: Bandwidth,
    /// Sequential readahead window.
    pub readahead: u64,
    /// Flush dirty data on close (close-to-open consistency).
    pub close_to_open: bool,
    /// Attribute-cache validity window (`acregmin`): a GETATTR within this
    /// window of a previous lookup is answered from the client's attribute
    /// cache without an RPC. Engaged only by the metadata path ([`stat`]);
    /// data operations never consult it.
    ///
    /// [`stat`]: NfsClient::stat
    pub attr_timeo: Time,
    /// RPC timeout/retransmission discipline.
    pub retry: NfsRetryParams,
}

impl NfsClientParams {
    /// A typical Linux NFSv3 mount of the paper's era on a node with `ram`
    /// bytes of memory (rsize/wsize 32 KiB, 16 slot RPC table).
    pub fn linux_default(ram: u64) -> NfsClientParams {
        let cache = ram / 10 * 8;
        NfsClientParams {
            rsize: 32 * 1024,
            wsize: 32 * 1024,
            max_inflight: 16,
            cache_capacity: cache,
            dirty_limit: cache / 5,
            dirty_background: cache / 10,
            mem_bw: Bandwidth::from_mib_per_sec(1600),
            readahead: 512 * 1024,
            close_to_open: true,
            attr_timeo: Time::from_secs(3),
            retry: NfsRetryParams::linux_tcp(),
        }
    }
}

/// One NFS mount on a compute node.
pub struct NfsClient {
    /// The cluster node this mount lives on.
    pub node: NodeId,
    params: NfsClientParams,
    cache: RangeCache,
    inflight: VecDeque<Time>,
    last_read_end: FxHashMap<FileId, u64>,
    /// Attribute cache: per-file instant until which cached attributes are
    /// considered fresh (populated by `stat`/`create`, dropped by `unlink`).
    attr_valid: FxHashMap<FileId, Time>,
    meter: FsMeter,
    /// Jitter stream for retransmission backoff (seeded from the node id,
    /// so every mount has its own deterministic stream).
    rng: SplitMix64,
    retries: u64,
}

impl NfsClient {
    /// Mounts the export on `node`.
    pub fn new(node: NodeId, params: NfsClientParams) -> NfsClient {
        let cache = RangeCache::new(params.cache_capacity);
        let rng = SplitMix64::new(params.retry.jitter_seed ^ node as u64);
        NfsClient {
            node,
            params,
            cache,
            inflight: VecDeque::new(),
            last_read_end: FxHashMap::default(),
            attr_valid: FxHashMap::default(),
            meter: FsMeter::default(),
            rng,
            retries: 0,
        }
    }

    /// Client-observed transfer statistics.
    pub fn meter(&self) -> &FsMeter {
        &self.meter
    }

    /// RPC retransmissions this mount has performed (0 while healthy).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Diagnostic view of the client page cache: (used, dirty, segments).
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        (self.cache.used(), self.cache.dirty(), self.cache.segments())
    }

    /// Client mount parameters.
    pub fn params(&self) -> &NfsClientParams {
        &self.params
    }

    /// Waits for a window slot if the RPC table is full; returns the
    /// earliest instant a new RPC may be issued at or after `now`.
    fn window_gate(&mut self, now: Time) -> Time {
        while self.inflight.front().is_some_and(|&t| t <= now) {
            self.inflight.pop_front();
        }
        if self.inflight.len() >= self.params.max_inflight {
            let t = self.inflight.pop_front().expect("nonempty");
            t.max(now)
        } else {
            now
        }
    }

    /// Runs one RPC under the mount's timeout/retransmission discipline.
    ///
    /// `send(t)` performs a full round trip issued at `t` (request wire +
    /// server service + reply wire) and returns the reply instant; every
    /// retransmission is a real RPC that burns wire and daemon time. A reply
    /// arriving within the current timeout completes the call (the earliest
    /// reply wins — duplicate replies are discarded by XID matching). Each
    /// timeout scales the next one by `backoff_mult` (doubling by default)
    /// up to `max_timeo` and fires the retransmission at the deadline plus
    /// deterministic jitter; exhausting the budget surfaces a soft-mount
    /// [`NfsError::MajorTimeout`].
    fn retry_rpc<F>(
        &mut self,
        op: &'static str,
        file: FileId,
        first_issue: Time,
        mut send: F,
    ) -> Result<Time, NfsError>
    where
        F: FnMut(Time) -> Time,
    {
        let retry = self.params.retry;
        let attempts = retry.retrans + 1;
        let mut timeout = retry.timeo;
        let mut issue = first_issue;
        let mut best: Option<Time> = None;
        for attempt in 1..=attempts {
            let reply = send(issue);
            let best_reply = best.map_or(reply, |b| b.min(reply));
            best = Some(best_reply);
            let deadline = issue + timeout;
            if best_reply <= deadline {
                return Ok(best_reply);
            }
            if attempt == attempts {
                return Err(NfsError::MajorTimeout {
                    op,
                    file,
                    at: deadline,
                    attempts,
                });
            }
            self.retries += 1;
            simcore::obs::emit(|| simcore::obs::ObsEvent::NfsRetry {
                op,
                at: deadline,
                attempt,
            });
            let jitter = timeout.as_secs_f64() * retry.jitter_frac * self.rng.next_f64();
            issue = deadline + Time::from_secs_f64(jitter);
            timeout = Time::from_nanos(
                timeout
                    .as_nanos()
                    .saturating_mul(retry.backoff_mult.max(1) as u64),
            )
            .min(retry.max_timeo);
        }
        unreachable!("retry loop returns on success or exhaustion");
    }

    /// Issues one WRITE RPC (asynchronously); returns the instant the
    /// client may continue issuing.
    fn rpc_write(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, NfsError> {
        let t_issue = self.window_gate(now);
        let node = self.node;
        let reply = self.retry_rpc("WRITE", file, t_issue, |t| {
            let arrive = net.send(t, node, srv.node, len + RPC_HEADER, TrafficClass::Storage);
            let ready = srv.serve_write(arrive, file, offset, len);
            net.send(ready, srv.node, node, RPC_REPLY, TrafficClass::Storage)
        })?;
        self.inflight.push_back(reply);
        Ok(t_issue)
    }

    /// Issues one READ RPC; returns the instant the data is at the client.
    fn rpc_read(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, NfsError> {
        let t_issue = self.window_gate(now);
        let node = self.node;
        let reply = self.retry_rpc("READ", file, t_issue, |t| {
            let arrive = net.send(t, node, srv.node, RPC_HEADER, TrafficClass::Storage);
            let ready = srv.serve_read(arrive, file, offset, len);
            net.send(
                ready,
                srv.node,
                node,
                len + RPC_REPLY,
                TrafficClass::Storage,
            )
        })?;
        self.inflight.push_back(reply);
        Ok(reply)
    }

    /// Streams `ranges` to the server as WRITE RPCs; returns the instant
    /// the last RPC was *issued* (write-behind, window-gated).
    fn flush_ranges(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        ranges: &[RangeRef],
    ) -> Result<Time, NfsError> {
        let mut t = now;
        for r in ranges {
            let mut pos = r.start;
            while pos < r.end {
                let take = self.params.wsize.min(r.end - pos);
                t = self.rpc_write(net, srv, t, r.file, pos, take)?;
                pos += take;
            }
            self.cache.mark_clean(r.file, r.start, r.end);
        }
        Ok(t)
    }

    /// Waits for every outstanding RPC; returns the drain instant.
    fn drain_inflight(&mut self, now: Time) -> Time {
        let t = self.inflight.iter().copied().fold(now, |a, b| a.max(b));
        self.inflight.clear();
        t
    }

    /// Creates (or opens) a file over the mount.
    pub fn open(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        create: bool,
    ) -> Result<Time, NfsError> {
        // Close-to-open consistency: revalidate by dropping cached pages of
        // this file so reads observe other clients' writes.
        self.cache.drop_file(file);
        self.last_read_end.remove(&file);
        let node = self.node;
        let reply = self.retry_rpc("META", file, now, |t| {
            let arrive = net.send(t, node, srv.node, RPC_HEADER, TrafficClass::Storage);
            let ready = srv.serve_meta(arrive, file, create);
            net.send(ready, srv.node, node, RPC_REPLY, TrafficClass::Storage)
        })?;
        self.meter.meta_ops += 1;
        Ok(reply)
    }

    /// Writes through the mount; returns when the caller may continue.
    pub fn write(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, NfsError> {
        assert!(len > 0, "zero-length write");
        let mut t = now;

        let evicted = self.cache.ensure_room(len.min(self.cache.capacity()));
        if !evicted.is_empty() {
            // Evicted dirty pages must be on the wire before we can reuse
            // their memory; mark_clean is a no-op for detached ranges.
            for r in &evicted {
                let mut pos = r.start;
                while pos < r.end {
                    let take = self.params.wsize.min(r.end - pos);
                    t = self.rpc_write(net, srv, t, r.file, pos, take)?;
                    pos += take;
                }
            }
        }

        t += self.params.mem_bw.time_for(len);
        self.cache.insert(file, offset, offset + len, true);

        if self.cache.dirty() > self.params.dirty_limit {
            let excess = self.cache.dirty() - self.params.dirty_background;
            let ranges = self.cache.dirty_ranges(excess);
            t = self.flush_ranges(net, srv, t, &ranges)?;
        }

        self.meter.writes.record(len, t - now);
        Ok(t)
    }

    /// Reads through the mount; returns when the data is at the caller.
    pub fn read(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, NfsError> {
        assert!(len > 0, "zero-length read");
        let end = offset + len;
        let (_, mut misses) = self.cache.lookup(file, offset, end);

        let sequential = self.last_read_end.get(&file) == Some(&offset);
        if sequential && self.params.readahead > 0 {
            if let Some(last) = misses.last_mut() {
                if last.end == end {
                    last.end += self.params.readahead;
                }
            }
        }
        self.last_read_end.insert(file, end);

        let mut data_ready = now;
        for m in misses.iter() {
            let evicted = self.cache.ensure_room(m.len().min(self.cache.capacity()));
            let mut t = now;
            for r in &evicted {
                let mut pos = r.start;
                while pos < r.end {
                    let take = self.params.wsize.min(r.end - pos);
                    t = self.rpc_write(net, srv, t, r.file, pos, take)?;
                    pos += take;
                }
            }
            let mut pos = m.start;
            while pos < m.end {
                let take = self.params.rsize.min(m.end - pos);
                let ready = self.rpc_read(net, srv, t.max(now), m.file, pos, take)?;
                // Only chunks inside the requested range gate completion;
                // readahead beyond `end` is speculative.
                if pos < end {
                    data_ready = data_ready.max(ready);
                }
                pos += take;
            }
            self.cache.insert(m.file, m.start, m.end, false);
        }

        let t = data_ready + self.params.mem_bw.time_for(len);
        self.meter.reads.record(len, t - now);
        Ok(t)
    }

    /// `fsync`: flushes dirty data, waits for the window, COMMITs.
    ///
    /// COMMIT is exempt from the retransmission timer: its reply time is
    /// dominated by legitimate server-side flushing (possibly far beyond
    /// `timeo`), and the Linux client keeps waiting as long as the
    /// connection makes progress rather than re-driving the flush.
    pub fn fsync(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
    ) -> Result<Time, NfsError> {
        let ranges = self.cache.dirty_ranges_of(file);
        let t = self.flush_ranges(net, srv, now, &ranges)?;
        let t = self.drain_inflight(t);
        let arrive = net.send(t, self.node, srv.node, RPC_HEADER, TrafficClass::Storage);
        let ready = srv.serve_commit(arrive, file);
        Ok(net.send(ready, srv.node, self.node, RPC_REPLY, TrafficClass::Storage))
    }

    /// The byte-range-lock + attribute-revalidation round trips ROMIO
    /// performs around every MPI-IO data operation on NFS (`noac` mounts
    /// with `fcntl` locking). Two sequential small RPCs.
    ///
    /// Lock manager traffic travels on its own connection (NLM/lockd) and
    /// its frames are tiny, so switch fair queuing keeps it from waiting
    /// behind other hosts' bulk transfers: the wire cost is plain
    /// propagation+stack latency, while the *server dispatch* still
    /// contends on the daemon pool (the real choke point at scale).
    pub fn lock_roundtrips(&mut self, net: &mut Network, srv: &mut NfsServer, now: Time) -> Time {
        let p = net.fabric(TrafficClass::Storage).params();
        let hop = p.per_msg_overhead + p.link.latency;
        let mut t = self.window_gate(now);
        for _ in 0..2 {
            let arrive = t + hop;
            let ready = srv.serve_null(arrive);
            t = ready + hop;
        }
        t
    }

    /// Synchronous write-through — the discipline ROMIO imposes for MPI-IO
    /// on NFS (no write-behind; data must be visible at the server when the
    /// call returns): the data is shipped as `wsize` RPCs and the call
    /// returns only when every RPC has been answered. Like a write-through
    /// cache, the written range is left *clean* in the client page cache,
    /// so the process's own re-reads can hit locally — the buffer/cache
    /// effect behind the paper's >100% read-usage cells.
    pub fn write_direct(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, NfsError> {
        assert!(len > 0, "zero-length write");
        let mut t = now;
        // Make room for the write-through fill; dirty evictions (possible
        // when a cached mount shares this client) must be on the wire.
        let evicted = self.cache.ensure_room(len.min(self.cache.capacity()));
        for r in &evicted {
            let mut pos = r.start;
            while pos < r.end {
                let take = self.params.wsize.min(r.end - pos);
                t = self.rpc_write(net, srv, t, r.file, pos, take)?;
                pos += take;
            }
        }
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let take = self.params.wsize.min(end - pos);
            t = self.rpc_write(net, srv, t, file, pos, take)?;
            pos += take;
        }
        let t = self.drain_inflight(t);
        self.cache.insert(file, offset, end, false);
        self.meter.writes.record(len, t - now);
        Ok(t)
    }

    /// Closes the file; with close-to-open semantics this flushes first.
    pub fn close(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
    ) -> Result<Time, NfsError> {
        self.meter.meta_ops += 1;
        if self.params.close_to_open {
            self.fsync(net, srv, now, file)
        } else {
            let node = self.node;
            self.retry_rpc("META", file, now, |t| {
                let arrive = net.send(t, node, srv.node, RPC_HEADER, TrafficClass::Storage);
                let ready = srv.serve_meta(arrive, file, false);
                net.send(ready, srv.node, node, RPC_REPLY, TrafficClass::Storage)
            })
        }
    }

    /// Runs one mdtest-class metadata verb over the mount, under the same
    /// timeout/retransmission discipline as the data path.
    ///
    /// `Stat` consults the attribute cache first: within `attr_timeo` of a
    /// previous lookup the call is answered locally, with no RPC — the
    /// `acregmin` behaviour that makes NFS stat-heavy phases cache-bound
    /// rather than wire-bound. `Create` and `Stat` refresh the cached
    /// attributes; `Unlink` drops them along with any cached pages.
    pub fn meta_verb(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, NfsError> {
        if verb == MetaVerb::Stat
            && self
                .attr_valid
                .get(&target)
                .is_some_and(|&until| now < until)
        {
            self.meter.meta_ops += 1;
            return Ok(now);
        }
        let op = match verb {
            MetaVerb::Create => "CREATE",
            MetaVerb::Stat => "GETATTR",
            MetaVerb::Unlink => "REMOVE",
            MetaVerb::Mkdir => "MKDIR",
            MetaVerb::Readdir => "READDIR",
        };
        let node = self.node;
        let reply = self.retry_rpc(op, target, now, |t| {
            let arrive = net.send(t, node, srv.node, RPC_HEADER, TrafficClass::Storage);
            let ready = srv.serve_meta_op(arrive, verb, dir, target);
            net.send(ready, srv.node, node, RPC_REPLY, TrafficClass::Storage)
        })?;
        match verb {
            MetaVerb::Create | MetaVerb::Stat => {
                self.attr_valid
                    .insert(target, reply + self.params.attr_timeo);
            }
            MetaVerb::Unlink => {
                self.attr_valid.remove(&target);
                self.cache.drop_file(target);
                self.last_read_end.remove(&target);
            }
            MetaVerb::Mkdir | MetaVerb::Readdir => {}
        }
        self.meter.meta_ops += 1;
        Ok(reply)
    }

    /// Stats `file` (GETATTR through the attribute cache).
    pub fn stat(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
    ) -> Result<Time, NfsError> {
        self.meta_verb(net, srv, now, MetaVerb::Stat, file, file)
    }
}

impl MetaOps for NfsClient {
    type Ctx<'a> = (&'a mut Network, &'a mut NfsServer);
    type Error = NfsError;

    fn meta(
        &mut self,
        (net, srv): Self::Ctx<'_>,
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, NfsError> {
        self.meta_verb(net, srv, now, verb, dir, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFsParams;
    use netsim::FabricParams;
    use simcore::{GIB, MIB};
    use storage::{Disk, DiskParams, Jbod};

    const F: FileId = FileId(1);

    struct Rig {
        net: Network,
        srv: NfsServer,
        client: NfsClient,
    }

    fn rig() -> Rig {
        // Node 0: client; node 1: server.
        let net = Network::split(2, FabricParams::gigabit_ethernet());
        let disk = Disk::new(DiskParams::sata_7200(230, 72), 42);
        let fs = LocalFs::new(LocalFsParams::ext4(2 * GIB), Box::new(Jbod::new(disk)));
        let srv = NfsServer::new(1, NfsServerParams::default(), fs);
        let client = NfsClient::new(0, NfsClientParams::linux_default(2 * GIB));
        Rig { net, srv, client }
    }

    #[test]
    fn open_write_close_makes_data_durable_on_server() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let t = r
            .client
            .write(&mut r.net, &mut r.srv, t, F, 0, 8 * MIB)
            .unwrap();
        let t = r.client.close(&mut r.net, &mut r.srv, t, F).unwrap();
        assert!(t > Time::ZERO);
        assert_eq!(r.srv.fs().file_size(F), 8 * MIB);
        assert_eq!(r.srv.fs().dirty_bytes(), 0, "close commits on the server");
    }

    #[test]
    fn small_cached_writes_are_fast_until_flush() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let start = t;
        let mut now = t;
        for i in 0..64u64 {
            now = r
                .client
                .write(&mut r.net, &mut r.srv, now, F, i * MIB, MIB)
                .unwrap();
        }
        let rate = Bandwidth::measured(64 * MIB, now - start).as_mib_per_sec();
        assert!(rate > 400.0, "client-cached writes at {rate} MiB/s");
    }

    #[test]
    fn sustained_write_is_bounded_by_wire_and_disk() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let start = t;
        let mut now = t;
        let total = 4 * GIB; // 2× client RAM
        let mut off = 0;
        while off < total {
            now = r
                .client
                .write(&mut r.net, &mut r.srv, now, F, off, 4 * MIB)
                .unwrap();
            off += 4 * MIB;
        }
        now = r.client.fsync(&mut r.net, &mut r.srv, now, F).unwrap();
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        // GigE wire ≈ 112 MiB/s; server disk ≈ 68 MiB/s → disk bound.
        assert!(rate < 112.0, "NFS write rate {rate} cannot beat the wire");
        assert!(rate > 35.0, "NFS write rate {rate} collapsed");
    }

    #[test]
    fn cold_sequential_read_streams_near_bottleneck() {
        let mut r = rig();
        r.srv.fs_mut().preallocate(F, 2 * GIB);
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, false)
            .unwrap();
        let mut now = t;
        let start = t;
        let total = GIB;
        let mut off = 0;
        while off < total {
            now = r
                .client
                .read(&mut r.net, &mut r.srv, now, F, off, MIB)
                .unwrap();
            off += MIB;
        }
        let rate = Bandwidth::measured(total, now - start).as_mib_per_sec();
        // Bounded by server disk (~72 MiB/s); pipelining must keep us near it.
        assert!(rate > 35.0 && rate < 112.0, "NFS cold read at {rate} MiB/s");
    }

    #[test]
    fn client_cache_serves_rereads_at_memory_speed() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let mut now = r
            .client
            .write(&mut r.net, &mut r.srv, t, F, 0, 64 * MIB)
            .unwrap();
        let start = now;
        now = r
            .client
            .read(&mut r.net, &mut r.srv, now, F, 0, 64 * MIB)
            .unwrap();
        let rate = Bandwidth::measured(64 * MIB, now - start).as_mib_per_sec();
        assert!(rate > 500.0, "client cache re-read at {rate} MiB/s");
    }

    #[test]
    fn reopen_invalidates_client_cache() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let t = r
            .client
            .write(&mut r.net, &mut r.srv, t, F, 0, 8 * MIB)
            .unwrap();
        let t = r.client.close(&mut r.net, &mut r.srv, t, F).unwrap();
        let t = r.client.open(&mut r.net, &mut r.srv, t, F, false).unwrap();
        let start = t;
        let t_end = r
            .client
            .read(&mut r.net, &mut r.srv, t, F, 0, 8 * MIB)
            .unwrap();
        let rate = Bandwidth::measured(8 * MIB, t_end - start).as_mib_per_sec();
        // Must traverse the network again (≤ wire), not the client cache.
        assert!(
            rate < 150.0,
            "post-reopen read at {rate} MiB/s bypassed CTO"
        );
    }

    #[test]
    fn two_clients_share_one_file_through_server() {
        let mut net = Network::split(3, FabricParams::gigabit_ethernet());
        let disk = Disk::new(DiskParams::sata_7200(230, 72), 42);
        let fs = LocalFs::new(LocalFsParams::ext4(2 * GIB), Box::new(Jbod::new(disk)));
        let mut srv = NfsServer::new(2, NfsServerParams::default(), fs);
        let mut c0 = NfsClient::new(0, NfsClientParams::linux_default(2 * GIB));
        let mut c1 = NfsClient::new(1, NfsClientParams::linux_default(2 * GIB));

        let t0 = c0.open(&mut net, &mut srv, Time::ZERO, F, true).unwrap();
        let t1 = c1.open(&mut net, &mut srv, Time::ZERO, F, false).unwrap();
        let t0 = c0.write(&mut net, &mut srv, t0, F, 0, 4 * MIB).unwrap();
        let t1 = c1
            .write(&mut net, &mut srv, t1, F, 4 * MIB, 4 * MIB)
            .unwrap();
        let t0 = c0.close(&mut net, &mut srv, t0, F).unwrap();
        let t1 = c1.close(&mut net, &mut srv, t1, F).unwrap();
        assert_eq!(srv.fs().file_size(F), 8 * MIB);

        // Client 0 re-opens and reads client 1's half through the server.
        let t = c0.open(&mut net, &mut srv, t0.max(t1), F, false).unwrap();
        let t_end = c0.read(&mut net, &mut srv, t, F, 4 * MIB, 4 * MIB).unwrap();
        assert!(t_end > t);
    }

    #[test]
    fn rpc_window_limits_inflight() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        // Force flushing by writing beyond the dirty limit in one burst.
        let mut now = t;
        let total = r.client.params().dirty_limit + 64 * MIB;
        let mut off = 0;
        while off < total {
            now = r
                .client
                .write(&mut r.net, &mut r.srv, now, F, off, 4 * MIB)
                .unwrap();
            off += 4 * MIB;
        }
        assert!(
            r.client.inflight.len() <= r.client.params().max_inflight,
            "window exceeded: {}",
            r.client.inflight.len()
        );
    }

    #[test]
    fn write_direct_is_synchronous_and_fills_cache() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let start = t;
        let t = r
            .client
            .write_direct(&mut r.net, &mut r.srv, t, F, 0, 64 * MIB)
            .unwrap();
        // Synchronous: bounded by the wire (112 MiB/s), no write-behind.
        let rate = Bandwidth::measured(64 * MIB, t - start).as_mib_per_sec();
        assert!(rate < 112.0, "direct write at {rate} beat the wire");
        assert!(rate > 40.0, "direct write at {rate} collapsed");
        // The server saw everything already (no dirty client state).
        assert_eq!(r.srv.fs().file_size(F), 64 * MIB);
        let (used, dirty, _) = r.client.cache_stats();
        assert_eq!(used, 64 * MIB, "write-through fill");
        assert_eq!(dirty, 0, "write-through leaves nothing dirty");
        // Re-read hits the client cache at memory speed.
        let t2 = r
            .client
            .read(&mut r.net, &mut r.srv, t, F, 0, 64 * MIB)
            .unwrap();
        let reread = Bandwidth::measured(64 * MIB, t2 - t).as_mib_per_sec();
        assert!(reread > 500.0, "re-read after write-through at {reread}");
    }

    #[test]
    fn lock_roundtrips_cost_is_small_and_serializes_on_lockd() {
        let mut r = rig();
        let t1 = r.client.lock_roundtrips(&mut r.net, &mut r.srv, Time::ZERO);
        // Two round trips of ~(100us + 90us + 100us).
        assert!(t1 > Time::from_micros(400) && t1 < Time::from_millis(2));
        // A second client's locks queue behind the first on lockd.
        let mut c2 = NfsClient::new(0, NfsClientParams::linux_default(2 * GIB));
        let t2 = c2.lock_roundtrips(&mut r.net, &mut r.srv, Time::ZERO);
        assert!(t2 > t1, "lockd must serialize concurrent lock traffic");
    }

    #[test]
    fn healthy_runs_never_retransmit() {
        let mut r = rig();
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let mut now = t;
        for i in 0..64u64 {
            now = r
                .client
                .write(&mut r.net, &mut r.srv, now, F, i * MIB, MIB)
                .unwrap();
        }
        r.client.fsync(&mut r.net, &mut r.srv, now, F).unwrap();
        assert_eq!(r.client.retries(), 0, "healthy path must not retransmit");
    }

    #[test]
    fn stalled_server_triggers_retransmissions_then_recovers() {
        let mut r = rig();
        r.client.params.retry = NfsRetryParams::impatient(Time::from_millis(50), 5);
        r.srv.fs_mut().preallocate(F, 64 * MIB);
        let stall = Time::from_millis(400);
        r.srv.stall(Time::ZERO, stall);
        let t = r
            .client
            .read(&mut r.net, &mut r.srv, Time::ZERO, F, 0, 32 * 1024)
            .unwrap();
        assert!(t >= stall, "reply cannot precede the stall window end");
        assert!(
            r.client.retries() > 0,
            "a 400ms stall must beat a 50ms timeo"
        );
        // The mount keeps working after the window passes, without retries.
        let before = r.client.retries();
        let t2 = r
            .client
            .read(&mut r.net, &mut r.srv, t, F, MIB, 32 * 1024)
            .unwrap();
        assert!(t2 > t);
        assert_eq!(r.client.retries(), before, "post-stall RPCs are clean");
    }

    #[test]
    fn backoff_doubles_deterministically_until_major_timeout() {
        let trace = || {
            let mut c = NfsClient::new(0, NfsClientParams::linux_default(2 * GIB));
            c.params.retry = NfsRetryParams::impatient(Time::from_millis(10), 4);
            let mut issues = Vec::new();
            let err = c
                .retry_rpc("READ", F, Time::ZERO, |t| {
                    issues.push(t);
                    Time::MAX // the reply never makes any deadline
                })
                .unwrap_err();
            (issues, err)
        };
        let (issues, err) = trace();
        assert_eq!(issues.len(), 5, "first send plus four retransmissions");
        // Gaps double (10, 20, 40, 80 ms) within the 10% jitter allowance.
        for (k, pair) in issues.windows(2).enumerate() {
            let gap = (pair[1] - pair[0]).as_secs_f64();
            let timeo = 0.010 * (1u64 << k) as f64;
            assert!(
                gap >= timeo && gap <= timeo * 1.1,
                "gap {k} = {gap}s outside [{timeo}, {}]",
                timeo * 1.1
            );
        }
        match err {
            NfsError::MajorTimeout { op, attempts, .. } => {
                assert_eq!(op, "READ");
                assert_eq!(attempts, 5);
            }
        }
        // Same seed, same trace.
        assert_eq!(trace().0, issues);
    }

    #[test]
    fn backoff_mult_and_jitter_seed_are_configurable() {
        let trace = |retry: NfsRetryParams| {
            let mut params = NfsClientParams::linux_default(2 * GIB);
            params.retry = retry;
            let mut c = NfsClient::new(0, params);
            let mut issues = Vec::new();
            let _ = c.retry_rpc("READ", F, Time::ZERO, |t| {
                issues.push(t);
                Time::MAX
            });
            issues
        };
        // A tripling discipline: gaps grow 10, 30, 90, 270 ms within the
        // 10% jitter allowance.
        let mut tripling = NfsRetryParams::impatient(Time::from_millis(10), 4);
        tripling.backoff_mult = 3;
        let issues = trace(tripling);
        assert_eq!(issues.len(), 5);
        for (k, pair) in issues.windows(2).enumerate() {
            let gap = (pair[1] - pair[0]).as_secs_f64();
            let timeo = 0.010 * 3u64.pow(k as u32) as f64;
            assert!(
                gap >= timeo && gap <= timeo * 1.1,
                "gap {k} = {gap}s outside [{timeo}, {}]",
                timeo * 1.1
            );
        }
        assert_eq!(trace(tripling), issues, "same params, same trace");

        // A different jitter seed draws a different (still deterministic)
        // jitter sequence under the same timeout schedule.
        let mut reseeded = tripling;
        reseeded.jitter_seed ^= 0xDEAD_BEEF;
        let other = trace(reseeded);
        assert_ne!(other, issues, "distinct seeds must not share a trace");
        assert_eq!(trace(reseeded), other);
    }

    #[test]
    fn unreachable_server_surfaces_major_timeout_error() {
        let mut r = rig();
        r.client.params.retry = NfsRetryParams::impatient(Time::from_millis(10), 2);
        r.srv.fs_mut().preallocate(F, 64 * MIB);
        r.srv.stall(Time::ZERO, Time::from_secs(10));
        let err = r
            .client
            .read(&mut r.net, &mut r.srv, Time::ZERO, F, 0, 32 * 1024)
            .unwrap_err();
        let NfsError::MajorTimeout {
            op,
            file,
            at,
            attempts,
        } = err;
        assert_eq!(op, "READ");
        assert_eq!(file, F);
        assert_eq!(attempts, 3);
        // The client gives up long before the stall clears (soft mount).
        assert!(at < Time::from_secs(1), "gave up at {:?}", at);
        assert_eq!(err.at(), at);
    }

    #[test]
    fn stall_applies_backpressure_through_the_rpc_window() {
        let mut r = rig();
        r.srv.fs_mut().preallocate(F, GIB);
        let stall = Time::from_secs(2);
        r.srv.stall(Time::ZERO, stall);
        // Synchronous write-through must wait out the stall: with the
        // default patient (Linux TCP) discipline nothing retransmits, the
        // window just fills and blocks until the stalled replies drain.
        let t = r
            .client
            .write_direct(&mut r.net, &mut r.srv, Time::ZERO, F, 0, 4 * MIB)
            .unwrap();
        assert!(t > stall, "completion {t:?} must absorb the stall window");
        assert_eq!(r.client.retries(), 0, "60s timeo outlasts a 2s stall");
    }

    #[test]
    fn stat_within_attr_window_skips_the_rpc() {
        let mut r = rig();
        let dir = FileId(30);
        let t = r
            .client
            .meta_verb(&mut r.net, &mut r.srv, Time::ZERO, MetaVerb::Create, dir, F)
            .unwrap();
        let rpcs_after_create = r.srv.rpcs();
        // First stat is inside the window populated by CREATE: no RPC, no time.
        let t2 = r.client.stat(&mut r.net, &mut r.srv, t, F).unwrap();
        assert_eq!(t2, t, "attribute-cache hit must be free");
        assert_eq!(r.srv.rpcs(), rpcs_after_create, "no RPC on a hit");
        // Past the window the client revalidates with a real GETATTR.
        let later = t + r.client.params().attr_timeo + Time::from_micros(1);
        let t3 = r.client.stat(&mut r.net, &mut r.srv, later, F).unwrap();
        assert!(t3 > later, "expired attributes force a GETATTR round trip");
        assert_eq!(r.srv.rpcs(), rpcs_after_create + 1);
    }

    #[test]
    fn unlink_invalidates_attributes_and_pages() {
        let mut r = rig();
        let dir = FileId(30);
        let t = r
            .client
            .meta_verb(&mut r.net, &mut r.srv, Time::ZERO, MetaVerb::Create, dir, F)
            .unwrap();
        let t = r
            .client
            .meta_verb(&mut r.net, &mut r.srv, t, MetaVerb::Unlink, dir, F)
            .unwrap();
        let rpcs = r.srv.rpcs();
        // Attributes were dropped: the next stat must go to the server.
        let t2 = r.client.stat(&mut r.net, &mut r.srv, t, F).unwrap();
        assert!(t2 > t);
        assert_eq!(r.srv.rpcs(), rpcs + 1);
        assert_eq!(r.srv.fs().file_size(F), 0, "server dropped the file");
    }

    #[test]
    fn mdtest_cycle_is_deterministic_and_counts_meta_ops() {
        let run = || {
            let mut r = rig();
            let dir = FileId(30);
            let mut t = r
                .client
                .meta_verb(
                    &mut r.net,
                    &mut r.srv,
                    Time::ZERO,
                    MetaVerb::Mkdir,
                    dir,
                    dir,
                )
                .unwrap();
            for i in 0..16u64 {
                let f = FileId(100 + i);
                t = r
                    .client
                    .meta_verb(&mut r.net, &mut r.srv, t, MetaVerb::Create, dir, f)
                    .unwrap();
            }
            for i in 0..16u64 {
                let f = FileId(100 + i);
                t = r.client.stat(&mut r.net, &mut r.srv, t, f).unwrap();
            }
            for i in 0..16u64 {
                let f = FileId(100 + i);
                t = r
                    .client
                    .meta_verb(&mut r.net, &mut r.srv, t, MetaVerb::Unlink, dir, f)
                    .unwrap();
            }
            t = r
                .client
                .meta_verb(&mut r.net, &mut r.srv, t, MetaVerb::Readdir, dir, dir)
                .unwrap();
            (t, r.client.meter().meta_ops, r.client.retries())
        };
        let (t, meta_ops, retries) = run();
        assert!(t > Time::ZERO);
        assert_eq!(meta_ops, 1 + 16 * 3 + 1);
        assert_eq!(retries, 0, "healthy metadata path never retransmits");
        assert_eq!(run(), (t, meta_ops, retries));
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut r = rig();
            let t = r
                .client
                .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
                .unwrap();
            let mut now = t;
            for i in 0..256u64 {
                now = r
                    .client
                    .write(&mut r.net, &mut r.srv, now, F, i * MIB, MIB)
                    .unwrap();
            }
            let now = r.client.fsync(&mut r.net, &mut r.srv, now, F).unwrap();
            let mut t = r
                .client
                .open(&mut r.net, &mut r.srv, now, F, false)
                .unwrap();
            for i in 0..256u64 {
                t = r
                    .client
                    .read(&mut r.net, &mut r.srv, t, F, i * MIB, MIB)
                    .unwrap();
            }
            t
        };
        assert_eq!(run(), run());
    }
}
