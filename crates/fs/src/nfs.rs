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
use crate::local::{Frontier, FsMeter, LocalFs, ReadRepeat, ReadTrace};
use crate::meta::{MetaOps, MetaVerb};
use crate::range_cache::{RangeCache, RangeRef};
use crate::train::{hash, Dir, Record, Rpc, Snap, Train, MIN_JUMP, MIN_TRAIN, WATCH};
use netsim::{Network, NodeId, Sent, TrafficClass};
use simcore::obs::{self, ObsEvent};
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
        self.serve_read_traced(arrival, file, offset, len, None)
    }

    /// [`NfsServer::serve_read`], telling `trace`, if any, what the
    /// filesystem did.
    fn serve_read_traced(
        &mut self,
        arrival: Time,
        file: FileId,
        offset: u64,
        len: u64,
        trace: Option<&mut ReadTrace>,
    ) -> Time {
        let t = self.dispatch(arrival);
        self.fs.read_traced(t, file, offset, len, trace)
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

/// How [`NfsClient`] drives a run of RPCs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Drive {
    /// Jump ahead in closed form once the run is steady.
    Train,
    /// Every RPC one by one: the reference the closed form must equal,
    /// which only tests drive.
    #[cfg_attr(not(test), allow(dead_code))]
    Granular,
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
    /// The memory of the last watched run of RPCs, kept for the next one.
    train: Option<Box<Train>>,
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
            train: None,
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

    /// Issues one WRITE RPC (asynchronously); returns its instants, `issue`
    /// being the instant the client may continue issuing.
    fn rpc_write(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Rpc, NfsError> {
        let issue = self.window_gate(now);
        let node = self.node;
        let mut rpc = Rpc {
            issue,
            ..Rpc::default()
        };
        rpc.reply = self.retry_rpc("WRITE", file, issue, |t| {
            rpc.arrive = net.send(t, node, srv.node, len + RPC_HEADER, TrafficClass::Storage);
            rpc.ready = srv.serve_write(rpc.arrive, file, offset, len);
            net.send(rpc.ready, srv.node, node, RPC_REPLY, TrafficClass::Storage)
        })?;
        self.inflight.push_back(rpc.reply);
        Ok(rpc)
    }

    /// Issues one READ RPC at or after `now`, the server telling `served`,
    /// if any, what its filesystem did; returns its instants and whether a full
    /// window alone set its issue instant: the oldest RPC in flight
    /// answered after `now`, and no other had answered by `now`.
    #[allow(clippy::too_many_arguments)]
    fn rpc_read(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
        mut served: Option<&mut ReadTrace>,
    ) -> Result<(Rpc, bool), NfsError> {
        let held = self.inflight.len();
        let issue = self.window_gate(now);
        let gated = held == self.inflight.len() + 1 && issue > now;
        let node = self.node;
        let mut rpc = Rpc {
            issue,
            ..Rpc::default()
        };
        rpc.reply = self.retry_rpc("READ", file, issue, |t| {
            rpc.arrive = net.send(t, node, srv.node, RPC_HEADER, TrafficClass::Storage);
            rpc.ready = srv.serve_read_traced(rpc.arrive, file, offset, len, served.as_deref_mut());
            net.send(
                rpc.ready,
                srv.node,
                node,
                len + RPC_REPLY,
                TrafficClass::Storage,
            )
        })?;
        self.inflight.push_back(rpc.reply);
        Ok((rpc, gated))
    }

    /// Streams `ranges` to the server as WRITE RPCs and marks them clean
    /// (a no-op for ranges already evicted); returns the instant the last
    /// RPC was *issued* (write-behind, window-gated).
    fn flush_ranges(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        ranges: &[RangeRef],
        drive: Drive,
    ) -> Result<Time, NfsError> {
        let mut t = now;
        for r in ranges {
            t = self
                .write_run_as(net, srv, t, r.file, r.start, r.end, drive)?
                .0;
            self.cache.mark_clean(r.file, r.start, r.end);
        }
        Ok(t)
    }

    /// Sends `[start, end)` of `file` as back-to-back `wsize` WRITE RPCs,
    /// driven as `drive` says; returns the instant the last one was issued
    /// and how many RPCs ran one by one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write_run_as(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        start: u64,
        end: u64,
        drive: Drive,
    ) -> Result<(Time, u64), NfsError> {
        self.run_as(net, srv, Dir::Write, now, file, start, end, 0, drive)
    }

    /// Runs `[start, end)` of `file` as back-to-back RPCs of direction
    /// `dir`; returns how many ran one by one, and for a WRITE run the
    /// instant the last RPC was issued (each issued once the last one was),
    /// for a READ run the latest reply of an RPC starting before `gate`
    /// (`Time::ZERO` if none; all issued at `now` and spaced by the
    /// in-flight window alone). Once the run reaches a steady state it
    /// jumps ahead in closed form (DESIGN §5e.6).
    ///
    /// Every watched RPC (of a run long enough to settle, with a full
    /// chunk left after it) gets a digest of its own spacings and server
    /// outcome; when that repeats one at most 64 RPCs back, the state after
    /// it gets a digest too. When a state digest repeats the one `m` RPCs
    /// back, the run snapshots every instant the next RPC reads: the four
    /// storage links of the round trip, the server's daemon pool and the
    /// in-flight window, relative to the RPC's issue instant, and for a
    /// READ the server cache's frontier and, after a volume read, the
    /// volume's state there. When the snapshot `m` RPCs later equals it and
    /// each RPC in between was clean, the next `m` RPCs repeat those `m`,
    /// `Δ` later and `m` chunks further on, and so does every period after
    /// them: the run applies `n` periods at once, `n` as large as the
    /// guards allow.
    #[allow(clippy::too_many_arguments)]
    fn run_as(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        dir: Dir,
        now: Time,
        file: FileId,
        start: u64,
        end: u64,
        gate: u64,
        drive: Drive,
    ) -> Result<(Time, u64), NfsError> {
        let len = end - start;
        if len > self.chunk(dir) {
            return self.run_many(net, srv, dir, now, file, start, end, gate, drive);
        }
        // One RPC: nothing to watch.
        let t = match dir {
            Dir::Write => self.rpc_write(net, srv, now, file, start, len)?.issue,
            Dir::Read => {
                let (rpc, _) = self.rpc_read(net, srv, now, file, start, len, None)?;
                if start < gate {
                    rpc.reply
                } else {
                    Time::ZERO
                }
            }
        };
        Ok((t, 1))
    }

    /// [`NfsClient::run_as`] for a run of more than one RPC.
    #[allow(clippy::too_many_arguments)]
    fn run_many(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        dir: Dir,
        now: Time,
        file: FileId,
        start: u64,
        end: u64,
        gate: u64,
        drive: Drive,
    ) -> Result<(Time, u64), NfsError> {
        let chunk = self.chunk(dir);
        // WRITE: the last issue instant. READ: the latest gating reply.
        let mut t = match dir {
            Dir::Write => now,
            Dir::Read => Time::ZERO,
        };
        let mut pos = start;
        let mut granular = 0;
        let mut train: Option<Box<Train>> = None;
        // A short run, or the last RPC of one, pays this test only.
        let shortest = match dir {
            Dir::Write => MIN_JUMP + 4,
            Dir::Read => MIN_TRAIN * self.params.max_inflight.max(srv.params.daemons) as u64,
        };
        let long = drive == Drive::Train && end - start >= shortest.saturating_mul(chunk);
        let mut served = ReadTrace::default();
        while pos < end {
            let take = chunk.min(end - pos);
            let watched = train.as_ref().is_none_or(|tr| tr.count - tr.since < WATCH);
            // A full chunk left after this one makes this one full too.
            let eligible = long && watched && end - pos - take >= chunk;
            // Checked before a WRITE: whether the server copies it into its
            // page cache and does nothing else.
            let plain = dir == Dir::Read || eligible && srv.fs.plain_writes(take) >= 1;
            let retries = self.retries;
            let (rpc, gated) = match dir {
                Dir::Write => (self.rpc_write(net, srv, t, file, pos, take)?, true),
                Dir::Read => {
                    let trace = eligible.then_some(&mut served);
                    self.rpc_read(net, srv, now, file, pos, take, trace)?
                }
            };
            granular += 1;
            match dir {
                Dir::Write => t = rpc.issue,
                Dir::Read if pos < gate => t = t.max(rpc.reply),
                Dir::Read => {}
            }
            pos += take;
            if !eligible {
                continue;
            }
            // Sent once (no jitter draw), past any stall, over a lossless
            // class, gated as a steady state gates it, and on a READ one
            // volume read at most and no eviction.
            let clean = retries == self.retries
                && srv.stall_until <= rpc.arrive
                && !net.is_degraded(TrafficClass::Storage)
                && gated
                && plain
                && (dir == Dir::Write || served.simple);
            let tr = train.get_or_insert_with(|| Train::start(self.train.take()));
            let rec = Record { rpc, served };
            let k = tr.push(rec, clean);
            // A clean RPC that hit inside the frontier leaves it in place.
            let hit = clean && served.miss == 0 && k > 0;
            tr.front = tr.front.filter(|f| hit && f.cover >= pos);
            let due = tr.due(k);
            // Only a state after an RPC that repeats one's spacings may
            // repeat a state: the cheap test keeps the rest from paying for
            // a signature.
            let repeated = tr.moved(k, rec.moves());
            let sig = (due.is_some() || repeated).then(|| self.signature(net, srv, &rec));
            let mut taken = false;
            if let (Some(i), Some(sig)) = (due, sig) {
                let mut cur = std::mem::take(&mut tr.cur);
                let front = tr.frontier(dir, &srv.fs, file, pos);
                self.snapshot(&mut cur, net, srv, dir, file, k, &rec, pos, front);
                tr.cur = cur;
                taken = true;
                tr.anchors[i].live = false;
                let first = &tr.anchors[i].snap;
                let (m, period) = ((k - first.at) as usize, tr.cur.issue - first.issue);
                if let Some(fill) = tr.repeats(first, m, dir) {
                    let n = self.train_len(tr, first, net, srv, dir, k, m, fill, pos, end, gate);
                    if n > 0 {
                        let reply =
                            self.jump(tr, net, srv, dir, k, m, period, fill, file, pos, n, sig);
                        match dir {
                            Dir::Write => t += period * n,
                            Dir::Read if pos < gate => t = t.max(reply),
                            Dir::Read => {}
                        }
                        pos += chunk * m as u64 * n;
                        continue;
                    }
                }
            }
            for a in &mut tr.anchors {
                a.live &= a.due > k;
            }
            // A state seen a period back is worth a snapshot, to compare
            // with the state a period on.
            let Some(sig) = sig.filter(|_| repeated) else {
                continue;
            };
            let ahead = match dir {
                Dir::Write => u64::MAX,
                Dir::Read => (tr.frontier(dir, &srv.fs, file, pos).cover - pos) / chunk,
            };
            let Some(m) = tr.lookup(k, sig).filter(|&m| tr.worth(k, m, ahead)) else {
                continue;
            };
            let mut cur = std::mem::take(&mut tr.cur);
            if !taken {
                let front = tr.frontier(dir, &srv.fs, file, pos);
                self.snapshot(&mut cur, net, srv, dir, file, k, &rec, pos, front);
            }
            tr.anchor(k + m as u64, &mut cur);
            tr.cur = cur;
        }
        self.train = train.or(self.train.take());
        Ok((t, granular))
    }

    /// A digest of the state after `rec` that moves with time: the links,
    /// the sums of the pool's and the window's instants, each relative to
    /// `rec`'s issue, and what the server did. Equal states have equal
    /// signatures.
    fn signature(&self, net: &Network, srv: &NfsServer, rec: &Record) -> u64 {
        let issue = rec.rpc.issue.as_nanos();
        let rel = |i: Time| i.as_nanos().wrapping_sub(issue);
        let sum = |instants: &mut dyn Iterator<Item = Time>| {
            instants.fold(0, |sum: u64, i| sum.wrapping_add(rel(i)))
        };
        let links = (self.node != srv.node).then(|| {
            let fabric = net.fabric(TrafficClass::Storage);
            let [ctx, crx] = fabric.links(self.node);
            let [stx, srx] = fabric.links(srv.node);
            [ctx, crx, stx, srx].map(rel)
        });
        let [a, b, c, d] = links.unwrap_or_default();
        hash([
            a,
            b,
            c,
            d,
            sum(&mut srv.pool.free_instants()),
            sum(&mut self.inflight.iter().copied()),
            self.inflight.len() as u64,
            rec.served.miss,
            u64::from(rec.served.vol.is_some()),
        ])
    }

    /// The payload of one RPC of direction `dir`.
    fn chunk(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Write => self.params.wsize,
            Dir::Read => self.params.rsize,
        }
    }

    /// Takes into `s` the snapshot after RPC `at`, `rec`, which left the
    /// next RPC at `pos` and, on a READ, the server cache's frontier at
    /// `front`.
    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        s: &mut Snap,
        net: &Network,
        srv: &NfsServer,
        dir: Dir,
        file: FileId,
        at: u64,
        rec: &Record,
        pos: u64,
        front: Frontier,
    ) {
        let rpc = rec.rpc;
        s.at = at;
        s.issue = rpc.issue;
        s.pos = pos;
        let rel = |i: Time| i.as_nanos().wrapping_sub(rpc.issue.as_nanos());
        s.rel.clear();
        s.rel.extend(self.timelines(net, srv).map(rel));
        s.vol_rel.clear();
        let read = dir == Dir::Read;
        s.front = front;
        s.vol = (read && rec.served.vol.is_some())
            .then(|| {
                srv.fs
                    .volume_front(file, s.front.cover, rpc.issue, &mut s.vol_rel)
            })
            .flatten();
    }

    /// Every instant the next RPC reads: the client's and server's storage
    /// links unless they share a node, the daemon pool, then the in-flight
    /// window.
    fn timelines<'a>(
        &'a self,
        net: &'a Network,
        srv: &'a NfsServer,
    ) -> impl Iterator<Item = Time> + 'a {
        let links = (self.node != srv.node).then(|| {
            let fabric = net.fabric(TrafficClass::Storage);
            let [ctx, crx] = fabric.links(self.node);
            let [stx, srx] = fabric.links(srv.node);
            [ctx, crx, stx, srx]
        });
        links
            .into_iter()
            .flatten()
            .chain(srv.pool.free_instants())
            .chain(self.inflight.iter().copied())
    }

    /// How many periods of the `m` RPCs ending with RPC `k` may repeat in
    /// closed form, the period reading the volume if `fill` and starting
    /// after the snapshot `first`: whole periods of full chunks up to `end`
    /// and on one side of `gate`, with every instant of the jump below
    /// [`Time::MAX`] (a saturated sum does not shift). A WRITE train stops
    /// where the server's page cache would evict or throttle. A READ train
    /// that hit throughout stops where the cached run ends; one that read
    /// the volume stops before cached bytes ahead, an eviction, the end of
    /// the extent or the volume's bounds.
    #[allow(clippy::too_many_arguments)]
    fn train_len(
        &self,
        tr: &Train,
        first: &Snap,
        net: &Network,
        srv: &NfsServer,
        dir: Dir,
        k: u64,
        m: usize,
        fill: bool,
        pos: u64,
        end: u64,
        gate: u64,
    ) -> u64 {
        let cur = &tr.cur;
        let period = cur.issue - first.issue;
        let stride = self.chunk(dir) * m as u64;
        // Periods that keep an instant now at `hi` below `limit`.
        let below = |limit: Time, hi: Time| match period.as_nanos() {
            _ if hi >= limit => 0,
            0 => u64::MAX,
            p => (limit.as_nanos() - 1 - hi.as_nanos()) / p,
        };
        let timeo = self.params.retry.timeo;
        let mut hi = self.timelines(net, srv).max().unwrap_or(Time::ZERO);
        for r in tr.period(k, m) {
            hi = hi.max(r.rpc.reply).max(r.rpc.issue.saturating_add(timeo));
            if let Some(v) = r.served.vol {
                hi = hi.max(v.grant.ack).max(v.grant.durable);
            }
        }
        let mut n = ((end - pos) / stride).min(below(Time::MAX, hi));
        match dir {
            Dir::Write => n = n.min(srv.fs.plain_writes(self.chunk(dir)) / m as u64),
            Dir::Read => {
                if pos < gate {
                    n = n.min((gate - pos) / stride);
                }
                let f = cur.front;
                let room = if fill {
                    let (Some(from), Some(here)) = (first.vol, cur.vol) else {
                        unreachable!("a filling period starts and ends at a volume read");
                    };
                    let acks = tr.period(k, m).filter_map(|r| r.served.vol);
                    let last = acks.map(|v| v.grant.ack).max().unwrap_or(Time::ZERO);
                    if let Some(h) = here.bounds.horizon {
                        n = n.min(below(h, last));
                    }
                    (f.next.min(from.extent_end).saturating_sub(f.cover))
                        .min(srv.fs.cache_room())
                        .min(here.bounds.end.saturating_sub(here.voff + 1))
                } else {
                    f.cover - pos
                };
                n = n.min(room / stride);
            }
        }
        if n * (m as u64) < MIN_JUMP {
            0
        } else {
            n
        }
    }

    /// Applies `n` more periods of the `m` RPCs ending with RPC `k`, which
    /// read the volume if `fill`, each `period` after the last and `m`
    /// chunks of `file` further on from `pos`: to the storage links and
    /// meter, the daemon pool, the server's RPC count and filesystem, and
    /// the in-flight window, emitting the events the RPCs would when
    /// observed; the state after RPC `k`, of signature `sig`, moved along,
    /// awaits the next period. Returns the latest reply of the jump.
    #[allow(clippy::too_many_arguments)]
    fn jump(
        &mut self,
        tr: &mut Train,
        net: &mut Network,
        srv: &mut NfsServer,
        dir: Dir,
        k: u64,
        m: usize,
        period: Time,
        fill: bool,
        file: FileId,
        pos: u64,
        n: u64,
        sig: u64,
    ) -> Time {
        let chunk = self.chunk(dir);
        let (ask, answer) = match dir {
            Dir::Write => (chunk + RPC_HEADER, RPC_REPLY),
            Dir::Read => (RPC_HEADER, chunk + RPC_REPLY),
        };
        let (mut sends, mut took, mut reads) = (
            std::mem::take(&mut tr.sends),
            std::mem::take(&mut tr.took),
            std::mem::take(&mut tr.reads),
        );
        sends.clear();
        took.clear();
        reads.clear();
        let mut last = Time::ZERO;
        for r in tr.period(k, m) {
            sends.push(Sent {
                from: self.node,
                to: srv.node,
                bytes: ask,
                start: r.rpc.issue,
                end: r.rpc.arrive,
            });
            sends.push(Sent {
                from: srv.node,
                to: self.node,
                bytes: answer,
                start: r.rpc.ready,
                end: r.rpc.reply,
            });
            took.push(r.served.done - r.served.at);
            reads.extend(r.served.vol);
            last = last.max(r.rpc.reply);
        }
        net.repeat_sends(TrafficClass::Storage, &sends, period, n);
        let shift = period * n;
        let stride = chunk * m as u64;
        srv.rpcs += m as u64 * n;
        srv.pool.shift(shift);
        match dir {
            Dir::Write => srv.fs.write_plain_run(file, pos, chunk, m as u64 * n),
            Dir::Read => srv.fs.repeat_reads(&ReadRepeat {
                file,
                pos,
                cover: tr.cur.front.cover,
                fill,
                len: chunk,
                took: &took,
                reads: &reads,
                period,
                stride,
                n,
            }),
        }
        for reply in &mut self.inflight {
            *reply += shift;
        }
        if obs::enabled() {
            let volume = srv.fs.volume_kind();
            for j in 1..=n {
                let by = period * j;
                for (r, pair) in tr.period(k, m).zip(sends.chunks(2)) {
                    pair[0].emit_shifted(by);
                    if dir == Dir::Read {
                        let s = r.served;
                        obs::emit(|| ObsEvent::CacheAccess {
                            hit_bytes: s.hit,
                            miss_bytes: s.miss,
                            at: s.at + by,
                        });
                        if let Some(v) = s.vol {
                            obs::emit(|| ObsEvent::StorageIo {
                                volume,
                                write: false,
                                bytes: v.req.len,
                                start: v.arrival + by,
                                end: v.grant.ack + by,
                            });
                        }
                    }
                    pair[1].emit_shifted(by);
                }
            }
        }
        (tr.sends, tr.took, tr.reads) = (sends, took, reads);
        tr.skip(k, m, n, period, stride, fill, sig);
        last + shift
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

        // Evicted dirty pages must be on the wire before we can reuse their
        // memory.
        let evicted = self.cache.ensure_room(len.min(self.cache.capacity()));
        t = self.flush_ranges(net, srv, t, &evicted, Drive::Train)?;

        t += self.params.mem_bw.time_for(len);
        self.cache.insert(file, offset, offset + len, true);

        if self.cache.dirty() > self.params.dirty_limit {
            let excess = self.cache.dirty() - self.params.dirty_background;
            let ranges = self.cache.dirty_ranges(excess);
            t = self.flush_ranges(net, srv, t, &ranges, Drive::Train)?;
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
        self.read_as(net, srv, now, file, offset, len, Drive::Train)
            .map(|(t, _)| t)
    }

    /// [`NfsClient::read`], its RPC runs driven as `drive` says; also
    /// returns how many RPCs ran one by one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_as(
        &mut self,
        net: &mut Network,
        srv: &mut NfsServer,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
        drive: Drive,
    ) -> Result<(Time, u64), NfsError> {
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
        let mut granular = 0;
        for m in misses.iter() {
            let evicted = self.cache.ensure_room(m.len().min(self.cache.capacity()));
            let t = self.flush_ranges(net, srv, now, &evicted, drive)?;
            // Only chunks inside the requested range gate completion;
            // readahead beyond `end` is speculative.
            let (ready, one_by_one) = self.run_as(
                net,
                srv,
                Dir::Read,
                t.max(now),
                m.file,
                m.start,
                m.end,
                end,
                drive,
            )?;
            data_ready = data_ready.max(ready);
            granular += one_by_one;
            self.cache.insert(m.file, m.start, m.end, false);
        }

        let t = data_ready + self.params.mem_bw.time_for(len);
        self.meter.reads.record(len, t - now);
        Ok((t, granular))
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
        let t = self.flush_ranges(net, srv, now, &ranges, Drive::Train)?;
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
        // Make room for the write-through fill; dirty evictions (possible
        // when a cached mount shares this client) must be on the wire.
        let evicted = self.cache.ensure_room(len.min(self.cache.capacity()));
        let t = self.flush_ranges(net, srv, now, &evicted, Drive::Train)?;
        let end = offset + len;
        let (t, _) = self.write_run_as(net, srv, t, file, offset, end, Drive::Train)?;
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
    use simcore::obs::{ObsEvent, ObsSink};
    use simcore::Bandwidth;
    use simcore::{GIB, MIB};
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage::{
        BlockReq, CachedVolume, Disk, DiskParams, Jbod, Raid1, Raid5, Volume, WriteCacheParams,
    };

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

    /// A 162 MiB synchronous write, the size of one MADbench2 matrix
    /// block, runs all but a few of its RPCs in closed form.
    #[test]
    fn a_madbench_sized_write_runs_almost_every_rpc_in_closed_form() {
        let mut r = rig();
        let len = 162 * MIB;
        let t = r
            .client
            .open(&mut r.net, &mut r.srv, Time::ZERO, F, true)
            .unwrap();
        let (_, granular) = r
            .client
            .write_run_as(&mut r.net, &mut r.srv, t, F, 0, len, Drive::Train)
            .unwrap();
        let rpcs = len / r.client.params().wsize;
        assert_eq!(r.srv.rpcs(), 1 + rpcs);
        assert_eq!(r.srv.fs().file_size(F), len);
        assert!(
            granular * 100 < rpcs,
            "{granular} of {rpcs} RPCs ran one by one"
        );
    }

    /// A 162 MiB cold read, the size of one MADbench2 matrix block, runs
    /// all but a few of its RPCs in closed form on JBOD and on RAID 1
    /// behind a controller cache: the server's 1 MiB readahead makes a
    /// period of 33 RPCs, one of them a volume read.
    #[test]
    fn a_madbench_sized_read_runs_almost_every_rpc_in_closed_form() {
        let volumes: [Box<dyn Volume>; 2] = [
            Box::new(Jbod::new(Disk::new(DiskParams::sata_7200(230, 72), 42))),
            Box::new(CachedVolume::new(
                WriteCacheParams::controller(256),
                Raid1::new(
                    Disk::new(DiskParams::sata_7200(230, 72), 42),
                    Disk::new(DiskParams::sata_7200(230, 72), 43),
                ),
            )),
        ];
        for vol in volumes {
            let mut r = rig();
            r.srv.fs = LocalFs::new(LocalFsParams::ext4(2 * GIB), vol);
            let len = 162 * MIB;
            r.srv.fs.preallocate(F, len);
            let t = r
                .client
                .open(&mut r.net, &mut r.srv, Time::ZERO, F, false)
                .unwrap();
            let (_, granular) = r
                .client
                .read_as(&mut r.net, &mut r.srv, t, F, 0, len, Drive::Train)
                .unwrap();
            let rpcs = len / r.client.params().rsize;
            assert_eq!(r.srv.rpcs(), 1 + rpcs);
            assert!(r.srv.fs.volume_meter().reads.bytes() > len);
            assert!(
                granular * 20 < rpcs,
                "{}: {granular} of {rpcs} RPCs ran one by one",
                r.srv.fs.volume_kind()
            );
        }
    }

    /// Everything a WRITE run reads or writes, randomized: sizes, window,
    /// pool, link rate, pre-busy timelines, server cache contents and
    /// limits, stalls, loss and observation.
    #[derive(Clone, Debug)]
    struct TrainCase {
        wsize: u64,
        start: u64,
        chunks: u64,
        tail: u64,
        max_inflight: usize,
        daemons: usize,
        overhead_us: u64,
        link_mib: u64,
        loopback: bool,
        cache_chunks: u64,
        dirty_chunks: u64,
        slack: u64,
        busy: Vec<(u8, u64, u64)>,
        cached: Vec<(u64, u64, bool)>,
        stall: Option<(u64, u64)>,
        degrade: bool,
        impatient: bool,
        observe: bool,
    }

    /// Draws a case from `seed`, weighting the values where the train's
    /// guards sit: exact cache boundaries, instants far in the future,
    /// retransmitting mounts.
    fn train_case(seed: u64) -> TrainCase {
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: u64| rng.next_below(n);
        let wsize = [4 * 1024, 32 * 1024, 100 * 1024][below(3) as usize];
        let mut case = TrainCase {
            wsize,
            start: below(4) * wsize / 2,
            chunks: below(300),
            tail: if below(2) == 0 { 0 } else { below(wsize) },
            max_inflight: 1 + below(24) as usize,
            daemons: 1 + below(9) as usize,
            overhead_us: if below(4) == 0 { 0 } else { below(200) },
            link_mib: if below(2) == 0 { 110 } else { 10 + below(400) },
            loopback: below(4) == 0,
            cache_chunks: 1 + below(400),
            dirty_chunks: 1 + below(400),
            slack: [0, 1, 4095][below(3) as usize],
            busy: Vec::new(),
            cached: Vec::new(),
            stall: None,
            degrade: below(7) == 0,
            impatient: below(4) == 0,
            observe: below(2) == 0,
        };
        for _ in 0..below(6) {
            let at = match below(8) {
                0 => 1_000_000 + below(10),
                1 | 2 => 10_000 + below(10),
                _ => below(40),
            };
            case.busy.push((below(5) as u8, at, 1 + below(400_000)));
        }
        for _ in 0..below(5) {
            case.cached
                .push((below(300), 1 + below(8 * wsize), below(2) == 0));
        }
        if below(3) == 0 {
            case.stall = Some((below(60), 1 + below(30)));
        }
        case
    }

    const G: FileId = FileId(2);

    fn train_rig(c: &TrainCase) -> Rig {
        let mut fabric = FabricParams::gigabit_ethernet();
        fabric.link.bandwidth = Bandwidth::from_mib_per_sec(c.link_mib);
        let mut net = Network::split(3, fabric);
        let mut params = LocalFsParams::ext4(2 * GIB);
        params.cache_capacity = c.cache_chunks * c.wsize + c.slack;
        params.dirty_limit = c.dirty_chunks * c.wsize + c.slack;
        params.dirty_background = params.dirty_limit / 2;
        let disk = Disk::new(DiskParams::sata_7200(230, 72), 42);
        let fs = LocalFs::new(params, Box::new(Jbod::new(disk)));
        let server = NfsServerParams {
            daemons: c.daemons,
            rpc_overhead: Time::from_micros(c.overhead_us),
        };
        let mut srv = NfsServer::new(1, server, fs);
        let mut params = NfsClientParams::linux_default(2 * GIB);
        params.wsize = c.wsize;
        params.max_inflight = c.max_inflight;
        if c.impatient {
            params.retry = NfsRetryParams::impatient(Time::from_millis(4), 2);
        }
        let node = if c.loopback { 1 } else { 0 };
        let mut client = NfsClient::new(node, params);
        for &(chunk, len, dirty) in &c.cached {
            let offset = chunk * c.wsize / 2;
            if dirty {
                srv.fs.write(Time::ZERO, F, offset, len);
            } else {
                srv.fs.read(Time::ZERO, F, offset, len);
            }
        }
        for &(what, at, amount) in &c.busy {
            let at = Time::from_millis(at);
            match what {
                0 => {
                    net.send(at, node, 1, amount, TrafficClass::Storage);
                }
                1 => {
                    net.send(at, 1, node, amount, TrafficClass::Storage);
                }
                2 => {
                    net.send(at, 2, 1, amount, TrafficClass::Storage);
                }
                3 => {
                    srv.pool.submit(at, Time::from_micros(amount % 5000));
                }
                _ => {
                    let len = 1 + amount % c.wsize;
                    let _ = client.rpc_write(&mut net, &mut srv, at, G, amount, len);
                }
            }
        }
        if let Some((from, duration)) = c.stall {
            srv.stall(Time::from_millis(from), Time::from_millis(duration));
        }
        if c.degrade {
            net.set_degradation(TrafficClass::Storage, 0.05, 0.05, 7);
        }
        Rig { net, srv, client }
    }

    /// Keeps every event in a buffer the test reads back.
    struct Events(Rc<RefCell<Vec<ObsEvent>>>);

    impl ObsSink for Events {
        fn event(&mut self, ev: &ObsEvent) {
            self.0.borrow_mut().push(*ev);
        }
    }

    /// Runs the case's WRITE run as `drive` says; returns the result, the
    /// whole state it leaves and the events it emitted.
    fn run_train(
        c: &TrainCase,
        drive: Drive,
    ) -> (Result<(Time, u64), NfsError>, String, Vec<ObsEvent>) {
        let mut r = train_rig(c);
        let events = Rc::default();
        let guard = c
            .observe
            .then(|| simcore::obs::install(Box::new(Events(Rc::clone(&events)))));
        let end = c.start + c.chunks * c.wsize + c.tail + 1;
        let out = r.client.write_run_as(
            &mut r.net,
            &mut r.srv,
            Time::from_millis(1),
            F,
            c.start,
            end,
            drive,
        );
        drop(guard);
        let cache = r.srv.fs.cache();
        let state = format!(
            "{:?}\n{:?} {} {:?}\n{:?} {} {}\n{} {:?}\n{:?} {} {:?} {:?}",
            r.net.fabric(TrafficClass::Storage),
            r.srv.pool.free_instants().collect::<Vec<_>>(),
            r.srv.rpcs,
            r.srv.fs.meter(),
            cache.layout(),
            cache.used(),
            cache.dirty(),
            r.srv.fs.file_size(F),
            r.srv.fs.volume_meter(),
            r.client.inflight,
            r.client.retries,
            r.client.rng,
            r.client.meter,
        );
        (out, state, events.take())
    }

    /// The closed-form WRITE train and the RPC-by-RPC loop return the same
    /// instant and error, leave the same links, meters, pool, window,
    /// server page cache and volume, and emit the same events; returns how
    /// many RPCs the train ran one by one, if it ran.
    fn check_write_train(seed: u64) -> Option<u64> {
        let c = train_case(seed);
        let (train, train_state, train_events) = run_train(&c, Drive::Train);
        let (reference, reference_state, reference_events) = run_train(&c, Drive::Granular);
        assert_eq!(train.map(|r| r.0), reference.map(|r| r.0), "{c:?}");
        assert_eq!(train_state, reference_state, "{c:?}");
        assert!(
            train_events == reference_events,
            "event streams differ: {c:?}"
        );
        let (Ok((_, fast)), Ok((_, all))) = (train, reference) else {
            return None;
        };
        assert!(fast <= all, "{c:?}");
        Some(fast)
    }

    /// A latency-bound WRITE run, paced by its window of 6 rather than its
    /// link, repeats every 6 RPCs: most of it runs in closed form.
    #[test]
    fn a_window_bound_write_run_repeats_every_max_inflight_rpcs() {
        let c = TrainCase {
            wsize: 4 * 1024,
            start: 0,
            chunks: 60,
            tail: 0,
            max_inflight: 6,
            daemons: 6,
            overhead_us: 90,
            link_mib: 110,
            loopback: false,
            cache_chunks: 400,
            dirty_chunks: 400,
            slack: 0,
            busy: Vec::new(),
            cached: Vec::new(),
            stall: None,
            degrade: false,
            impatient: false,
            observe: false,
        };
        let (fast, state, _) = run_train(&c, Drive::Train);
        let (all, reference, _) = run_train(&c, Drive::Granular);
        let ((t, fast), (t_ref, all)) = (fast.unwrap(), all.unwrap());
        assert_eq!((t, &state), (t_ref, &reference));
        assert_eq!(all, 61);
        assert!(fast * 2 < all, "{fast} of {all} RPCs ran one by one");
    }

    /// Everything a READ run reads or writes, randomized: sizes, window,
    /// pool, link rate, volumes and their faults, extents, pre-busy
    /// timelines, server and client cache contents and limits, stalls,
    /// loss and observation.
    #[derive(Clone, Debug)]
    struct ReadCase {
        rsize: u64,
        start: u64,
        chunks: u64,
        tail: u64,
        max_inflight: usize,
        daemons: usize,
        overhead_us: u64,
        link_mib: u64,
        loopback: bool,
        /// 0 JBOD, 1 RAID 1 behind a controller cache, 2 bare RAID 1,
        /// 3 RAID 5 behind a controller cache.
        volume: u8,
        /// RAID 1: fail member 0 or 1, and maybe rebuild it from an
        /// instant (ms).
        failed: Option<(usize, Option<u64>)>,
        slow: bool,
        horizon_ms: Option<u64>,
        readahead: u64,
        client_readahead: u64,
        extent_chunks: u64,
        interleave: bool,
        cache_chunks: u64,
        slack: u64,
        busy: Vec<(u8, u64, u64)>,
        cached: Vec<(u64, u64, bool)>,
        client_cached: Vec<(u64, u64)>,
        stall: Option<(u64, u64)>,
        degrade: bool,
        impatient: bool,
        observe: bool,
    }

    /// Draws a READ case from `seed`, weighting the values where the
    /// train's guards sit.
    fn read_case(seed: u64) -> ReadCase {
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: u64| rng.next_below(n);
        let rsize = [4 * 1024, 32 * 1024, 100 * 1024][below(3) as usize];
        let mut case = ReadCase {
            rsize,
            start: below(4) * rsize / 2,
            chunks: below(300),
            tail: if below(2) == 0 { 0 } else { below(rsize) },
            max_inflight: 1 + below(24) as usize,
            daemons: 1 + below(9) as usize,
            overhead_us: if below(4) == 0 { 0 } else { below(200) },
            link_mib: if below(2) == 0 { 110 } else { 10 + below(400) },
            loopback: below(5) == 0,
            volume: below(4) as u8,
            failed: None,
            slow: below(8) == 0,
            horizon_ms: (below(4) == 0).then(|| below(400)),
            readahead: [0, 64 * 1024, MIB, 3 * rsize + 5][below(4) as usize],
            client_readahead: [0, 512 * 1024][below(2) as usize],
            extent_chunks: [0, 8, 40, 1 + below(64)][below(4) as usize],
            interleave: below(2) == 0,
            cache_chunks: 1 + below(600),
            slack: [0, 1, 4095][below(3) as usize],
            busy: Vec::new(),
            cached: Vec::new(),
            client_cached: Vec::new(),
            stall: (below(4) == 0).then(|| (below(60), 1 + below(30))),
            degrade: below(8) == 0,
            impatient: below(4) == 0,
            observe: below(2) == 0,
        };
        if below(4) == 0 {
            case.failed = Some((below(2) as usize, (below(2) == 0).then(|| below(100))));
        }
        for _ in 0..below(6) {
            let at = match below(8) {
                0 => 1_000_000 + below(10),
                1 | 2 => 10_000 + below(10),
                _ => below(40),
            };
            case.busy.push((below(6) as u8, at, 1 + below(400_000)));
        }
        for _ in 0..below(5) {
            case.cached
                .push((below(400), 1 + below(40 * rsize), below(3) == 0));
        }
        for _ in 0..below(3) {
            case.client_cached.push((below(300), 1 + below(8 * rsize)));
        }
        case
    }

    fn read_rig(c: &ReadCase) -> Rig {
        let mut fabric = FabricParams::gigabit_ethernet();
        fabric.link.bandwidth = Bandwidth::from_mib_per_sec(c.link_mib);
        let mut net = Network::split(3, fabric);
        let mut params = LocalFsParams::ext4(2 * GIB);
        params.cache_capacity = c.cache_chunks * c.rsize + c.slack;
        params.dirty_limit = params.cache_capacity;
        params.dirty_background = params.dirty_limit / 2;
        params.readahead = c.readahead;
        if c.extent_chunks > 0 {
            params.alloc_extent = c.extent_chunks * c.rsize;
        }
        let disk = |seed| Disk::new(DiskParams::sata_7200(230, 72), seed);
        let mut vol: Box<dyn Volume> = match c.volume {
            0 => Box::new(Jbod::new(disk(42))),
            1 => Box::new(CachedVolume::new(
                WriteCacheParams::controller(1),
                Raid1::new(disk(42), disk(43)),
            )),
            2 => Box::new(Raid1::new(disk(42), disk(43))),
            _ => Box::new(CachedVolume::new(
                WriteCacheParams::controller(1),
                Raid5::new((0..4).map(disk).collect(), 64 * 1024, true),
            )),
        };
        if c.slow {
            vol.set_disk_slowdown(0, 1.7).unwrap();
        }
        let mut fs = LocalFs::new(params, vol);
        let size = 2 * c.start + (c.chunks + 8) * c.rsize + 4 * MIB;
        let step = if c.interleave {
            fs.params().alloc_extent
        } else {
            size
        };
        let mut have = 0;
        while have < size {
            have = (have + step).min(size);
            fs.preallocate(F, have);
            fs.preallocate(G, have);
        }
        let server = NfsServerParams {
            daemons: c.daemons,
            rpc_overhead: Time::from_micros(c.overhead_us),
        };
        let mut srv = NfsServer::new(1, server, fs);
        let mut params = NfsClientParams::linux_default(2 * GIB);
        params.rsize = c.rsize;
        params.max_inflight = c.max_inflight;
        params.readahead = c.client_readahead;
        if c.impatient {
            params.retry = NfsRetryParams::impatient(Time::from_millis(4), 2);
        }
        let node = if c.loopback { 1 } else { 0 };
        let mut client = NfsClient::new(node, params);
        for &(chunk, len, dirty) in &c.cached {
            let offset = chunk * c.rsize / 2;
            if dirty {
                srv.fs.write(Time::ZERO, F, offset, len);
            } else {
                srv.fs.read(Time::ZERO, F, offset, len);
            }
        }
        for &(chunk, len) in &c.client_cached {
            let offset = chunk * c.rsize / 2;
            client.cache.insert(F, offset, offset + len, false);
        }
        if let Some((member, rebuild)) = c.failed {
            let vol = srv.fs.volume_mut();
            if vol.fail_disk(member).is_ok() {
                if let Some(at) = rebuild {
                    vol.replace_disk(Time::from_millis(at), member).unwrap();
                }
            }
        }
        for &(what, at, amount) in &c.busy {
            let at = Time::from_millis(at);
            match what {
                0 => {
                    net.send(at, node, 1, amount, TrafficClass::Storage);
                }
                1 => {
                    net.send(at, 1, node, amount, TrafficClass::Storage);
                }
                2 => {
                    net.send(at, 2, 1, amount, TrafficClass::Storage);
                }
                3 => {
                    srv.pool.submit(at, Time::from_micros(amount % 5000));
                }
                4 => {
                    srv.fs
                        .read(at, G, amount * 4096, 1 + amount % (4 * c.rsize));
                }
                _ => {
                    let len = 1 + amount % c.rsize;
                    let _ = client.rpc_read(&mut net, &mut srv, at, G, amount, len, None);
                }
            }
        }
        if let Some(h) = c.horizon_ms {
            srv.fs
                .volume_mut()
                .set_fault_horizon(Some(Time::from_millis(h)));
        }
        if let Some((from, duration)) = c.stall {
            srv.stall(Time::from_millis(from), Time::from_millis(duration));
        }
        if c.degrade {
            net.set_degradation(TrafficClass::Storage, 0.05, 0.05, 7);
        }
        Rig { net, srv, client }
    }

    /// Everything observable about a rig: links, pool, meters, both page
    /// caches in recency order, window and retry state, then what a few
    /// probes of the server filesystem and volume return, which reads the
    /// disks' queues, heads and random streams and RAID 1's reader choice.
    fn rig_state(r: &mut Rig) -> String {
        let cache = r.srv.fs.cache();
        let mut state = format!(
            "{:?}\n{:?} {} {:?}\n{:?} {} {}\n{:?} {:?} {:?}\n{:?} {:?} {} {:?} {:?}",
            r.net.fabric(TrafficClass::Storage),
            r.srv.pool.free_instants().collect::<Vec<_>>(),
            r.srv.rpcs,
            r.srv.fs.meter(),
            cache.layout(),
            cache.used(),
            cache.dirty(),
            r.srv.fs.volume_meter(),
            r.srv.fs.volume().bulk_run_stats(),
            r.srv.fs.volume().rebuild_report(),
            r.client.cache.layout(),
            r.client.inflight,
            r.client.retries,
            r.client.rng,
            r.client.meter,
        );
        let late = Time::from_secs(5_000);
        for (at, offset) in [(Time::ZERO, 0), (late, 0), (late, 3 * MIB)] {
            let t = r.srv.fs.read(at, F, offset, 3 * r.client.params.rsize);
            state += &format!("\n{t:?} {:?}", r.srv.fs.frontier(F, offset));
        }
        let vol = r.srv.fs.volume_mut();
        for req in [BlockReq::read(0, 4096), BlockReq::write(7 * MIB, 4096)] {
            state += &format!("\n{:?}", vol.submit(late, req));
        }
        state
    }

    /// Runs the case's client READ as `drive` says; returns the result, the
    /// state it leaves and the events it emitted.
    fn run_read(
        c: &ReadCase,
        drive: Drive,
    ) -> (Result<(Time, u64), NfsError>, String, Vec<ObsEvent>) {
        let mut r = read_rig(c);
        let events = Rc::default();
        let guard = c
            .observe
            .then(|| simcore::obs::install(Box::new(Events(Rc::clone(&events)))));
        let len = c.chunks * c.rsize + c.tail + 1;
        let now = Time::from_millis(1);
        let mut out = r
            .client
            .read_as(&mut r.net, &mut r.srv, now, F, c.start, len, drive);
        // A sequential follow-up reads the state the run left behind.
        if let Ok((t, _)) = out {
            let next = r.client.read_as(
                &mut r.net,
                &mut r.srv,
                t,
                F,
                c.start + len,
                2 * c.rsize,
                drive,
            );
            out = next.map(|(t2, n)| (t2.max(t), out.map_or(0, |o| o.1) + n));
        }
        drop(guard);
        let state = rig_state(&mut r);
        (out, state, events.take())
    }

    /// The closed-form READ train and the RPC-by-RPC loop agree on
    /// everything; returns how many RPCs the train ran one by one, if it
    /// ran.
    fn check_read_train(seed: u64) -> Option<u64> {
        let c = read_case(seed);
        let (train, train_state, train_events) = run_read(&c, Drive::Train);
        let (reference, reference_state, reference_events) = run_read(&c, Drive::Granular);
        assert_eq!(train.map(|r| r.0), reference.map(|r| r.0), "{c:?}");
        assert_eq!(train_state, reference_state, "{c:?}");
        assert!(
            train_events == reference_events,
            "event streams differ: {c:?}"
        );
        let (Ok((_, fast)), Ok((_, all))) = (train, reference) else {
            return None;
        };
        assert!(fast <= all, "{c:?}");
        Some(fast)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The closed-form train and the RPC-by-RPC loop return the same
        /// instant and error, leave the same links, meters, pool, window,
        /// server page cache and volume, and emit the same events.
        #[test]
        fn write_trains_equal_the_granular_loop(seed in proptest::prelude::any::<u64>()) {
            check_write_train(seed);
        }

        /// The same for READ runs: JBOD, RAID 1 and RAID 5 servers,
        /// periods with volume reads, partly cached read-ahead spans,
        /// eviction and extent caps, fault horizons, stalls, loss,
        /// retransmissions and an observer.
        #[test]
        fn read_trains_equal_the_granular_loop(seed in proptest::prelude::any::<u64>()) {
            check_read_train(seed);
        }
    }

    /// Both train proofs over 8,192 seeds each, enough to reach the rare
    /// guards; too slow for a debug build.
    #[test]
    #[ignore]
    fn trains_equal_the_granular_loop_over_many_seeds() {
        let mut rng = SplitMix64::new(0x7261_696e);
        let (mut writes, mut reads) = (0, 0);
        for _ in 0..8192 {
            writes += u64::from(check_write_train(rng.next_u64()).is_some());
            reads += u64::from(check_read_train(rng.next_u64()).is_some());
        }
        assert!(
            writes > 4096 && reads > 4096,
            "{writes} and {reads} runs completed"
        );
    }
}
