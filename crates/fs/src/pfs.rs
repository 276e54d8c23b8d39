//! A PVFS-like parallel filesystem.
//!
//! The paper's related work revolves around parallel filesystems (PVFS,
//! GPFS, Lustre) and its configuration analysis lists "number and placement
//! of I/O node" as a configurable factor its testbeds could not vary. This
//! model makes that factor real: files are striped round-robin across `N`
//! I/O servers (PVFS default stripe 64 KiB); clients talk to all servers in
//! parallel over the storage network.
//!
//! Faithful PVFS semantics, which are what make it interesting next to NFS:
//!
//! * **no client-side data caching** — every operation moves bytes;
//! * **no locking** — MPI-IO runs natively (non-overlapping writes are the
//!   application's contract), so there is no `lockd` serialization;
//! * metadata lives on server 0 (create/open/close are one RPC there,
//!   failing over to the next live server when server 0 is down).
//!
//! # Replication and failover
//!
//! With [`PfsParams::replicas`] `= R > 1` every stripe chunk is stored on
//! `R` servers in chained-declustered placement: replica rank `r` of chunk
//! `c` lives on server `(c % N + r) % N`, in a per-rank shadow file, at the
//! same server-local offset as the primary — so per-server spans stay
//! contiguous for every rank. Writes go to all live holders; reads are
//! served by the first live holder in rank order.
//!
//! Server faults are injected with [`PfsSystem::fail_server`] /
//! [`PfsSystem::recover_server`] / [`PfsSystem::set_server_slow`]. A client
//! RPC to a dead-but-undetected server burns the full
//! [`NfsRetryParams`]-style retransmission budget (request wire time per
//! attempt, exponential backoff, seeded jitter) before the client marks the
//! server down; marked servers are skipped instantly. When every holder of
//! a span is down the operation surfaces a typed [`PfsError::Unavailable`]
//! instead of panicking. Writes that miss a dead holder are recorded as
//! missed extents and replayed from a surviving replica when the server
//! recovers (background catch-up traffic on the storage class). The retry
//! machinery engages only for servers that are actually down, so
//! fault-free runs are byte-identical to the pre-replication model.

use crate::file::FileId;
use crate::local::{FsMeter, LocalFs};
use crate::meta::{MetaOps, MetaVerb};
use crate::nfs::NfsRetryParams;
use netsim::{Network, NodeId, TrafficClass};
use simcore::{FifoResource, MultiResource, SplitMix64, Time};
use std::fmt;

/// RPC framing overhead on the wire.
const RPC_HEADER: u64 = 120;
/// Data-less reply size.
const RPC_REPLY: u64 = 96;

/// Default base seed of the PFS client's retry-jitter stream (`b"PFSC"`
/// as a word). The stream is drawn from only when a retransmission
/// actually fires, so fault-free runs never consume it.
const DEFAULT_JITTER_SEED: u64 = 0x5046_5343;

/// A client-visible PFS failure: a span (or metadata object) whose every
/// replica holder is down. The degraded-mode contract is a typed error,
/// never a panic — the application layer decides whether to abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PfsError {
    /// All replica holders of the targeted data were unreachable.
    Unavailable {
        /// RPC procedure that gave up (`"WRITE"`, `"READ"`, `"META"`, ...).
        op: &'static str,
        /// File the operation targeted.
        file: FileId,
        /// Instant the client gave up (the last detection deadline).
        at: Time,
        /// Preferred (rank-0) server of the unreachable data.
        server: usize,
    },
}

impl PfsError {
    /// The simulated instant the error was observed by the caller; lets the
    /// application layer keep its clock moving past a failed operation.
    pub fn at(&self) -> Time {
        match *self {
            PfsError::Unavailable { at, .. } => at,
        }
    }
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::Unavailable {
                op,
                file,
                at,
                server,
            } => write!(
                f,
                "pfs: {op} on file {} unavailable at {:.3}s (server {server} and all replicas down)",
                file.0,
                at.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for PfsError {}

/// Parameters of a parallel filesystem deployment.
#[derive(Clone, Debug)]
pub struct PfsParams {
    /// Stripe unit (PVFS default: 64 KiB).
    pub stripe: u64,
    /// Per-server daemon concurrency.
    pub daemons: usize,
    /// Per-RPC server dispatch cost.
    pub rpc_overhead: Time,
    /// Largest single network transfer (larger spans are pipelined in
    /// messages of this size).
    pub max_msg: u64,
    /// Copies of every stripe chunk (1 = no replication). Replica rank `r`
    /// of a chunk lands on the server `r` places after its primary.
    pub replicas: usize,
    /// Timeout/retransmission discipline of client RPCs to unresponsive
    /// servers (same shape as an NFS mount's `timeo`/`retrans`). Healthy
    /// servers never engage it.
    pub retry: NfsRetryParams,
}

impl PfsParams {
    /// The default PFS retry discipline: an impatient 2 s initial timeout
    /// with two retransmissions — parallel-FS clients detect dead servers
    /// quickly so failover is cheap relative to NFS soft-mount budgets.
    pub fn default_retry() -> NfsRetryParams {
        NfsRetryParams {
            timeo: Time::from_secs(2),
            retrans: 2,
            max_timeo: Time::from_secs(60),
            jitter_frac: 0.1,
            backoff_mult: 2,
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }
}

impl Default for PfsParams {
    fn default() -> Self {
        PfsParams {
            stripe: 64 * 1024,
            daemons: 8,
            rpc_overhead: Time::from_micros(70),
            max_msg: 4 * 1024 * 1024,
            replicas: 1,
            retry: PfsParams::default_retry(),
        }
    }
}

/// The rank-`r` shadow file of `file`: rank 0 is the file itself (so an
/// unreplicated deployment touches exactly the legacy on-server objects),
/// higher ranks use a disjoint id namespace.
fn rfile(file: FileId, rank: usize) -> FileId {
    if rank == 0 {
        file
    } else {
        FileId(file.0.wrapping_add((rank as u64) << 48))
    }
}

/// Stretches a server-side service interval by the server's slowdown
/// factor. Exactly the identity at factor 1.0 (no float math), so healthy
/// timelines are bit-for-bit unchanged.
fn stretch(slow: f64, arrive: Time, done: Time) -> Time {
    if slow == 1.0 {
        done
    } else {
        arrive + Time::from_secs_f64((done - arrive).as_secs_f64() * slow)
    }
}

/// A write that could not reach a (dead) replica holder; replayed from a
/// surviving holder at recovery.
#[derive(Clone, Copy, Debug)]
struct Missed {
    file: FileId,
    /// Replica rank the dead server holds for this span.
    rank: usize,
    /// Server-local offset of the span (identical on every rank's holder).
    off: u64,
    len: u64,
    /// Rank-0 server of the span (source holders are `(s0 + r') % N`).
    s0: usize,
}

struct PfsServer {
    node: NodeId,
    pool: MultiResource,
    fs: LocalFs,
    /// Ground truth: the server process is running.
    up: bool,
    /// Client view: the retry budget against this server was exhausted and
    /// clients skip it without waiting. Implies `!up`; cleared on recovery.
    marked: bool,
    /// Service-time multiplier (1.0 = nominal).
    slow: f64,
    /// Writes this server missed while down, pending resync.
    missed: Vec<Missed>,
    /// Dir-entry lock of the namespace shard homed here: every mdtest-class
    /// metadata verb holds it for its service interval, so concurrent
    /// updates to directories of this shard serialize FIFO.
    dirlock: FifoResource,
}

/// Burns the full retransmission budget against a down server: every
/// attempt sends the request bytes onto the wire (the server never
/// replies), backing off with seeded jitter between attempts. Marks the
/// server down and returns the final deadline — the instant the client
/// gives up and fails over.
#[allow(clippy::too_many_arguments)]
fn detect_down(
    net: &mut Network,
    srv: &mut PfsServer,
    rng: &mut SplitMix64,
    retry: &NfsRetryParams,
    retries: &mut u64,
    op: &'static str,
    server: usize,
    client: NodeId,
    now: Time,
    req_bytes: u64,
) -> Time {
    let attempts = retry.retrans + 1;
    let mut timeout = retry.timeo;
    let mut issue = now;
    let mut deadline = now;
    for attempt in 1..=attempts {
        net.send(issue, client, srv.node, req_bytes, TrafficClass::Storage);
        deadline = issue + timeout;
        if attempt == attempts {
            break;
        }
        *retries += 1;
        simcore::obs::emit(|| simcore::obs::ObsEvent::PfsRetry {
            op,
            server,
            at: deadline,
            attempt,
        });
        let jitter = timeout.as_secs_f64() * retry.jitter_frac * rng.next_f64();
        issue = deadline + Time::from_secs_f64(jitter);
        timeout = Time::from_nanos(
            timeout
                .as_nanos()
                .saturating_mul(retry.backoff_mult.max(1) as u64),
        )
        .min(retry.max_timeo);
    }
    srv.marked = true;
    deadline
}

/// Two distinct mutable elements of a slice.
fn index_pair<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// A deployed parallel filesystem: `N` I/O servers, each with its own
/// backing [`LocalFs`] (dedicated data disks on the server nodes).
pub struct PfsSystem {
    params: PfsParams,
    servers: Vec<PfsServer>,
    meter: FsMeter,
    rng: SplitMix64,
    retries: u64,
    failovers: u64,
    resyncs: u64,
    resync_bytes: u64,
}

impl PfsSystem {
    /// Deploys servers on `server_nodes`, one backing filesystem each.
    ///
    /// Panic audit (campaign-worker reachability): the constructor asserts
    /// below restate what `IoConfig::validate` already rejects with typed
    /// `ConfigError`s (`TooManyPfsServers`, `TooManyPfsReplicas`) before
    /// any machine is built — `ClusterMachine::try_new` validates first —
    /// so no configuration a campaign cell can carry reaches them. They
    /// stay asserts to guard direct (test/embedding) construction.
    pub fn new(params: PfsParams, server_nodes: Vec<NodeId>, backends: Vec<LocalFs>) -> PfsSystem {
        assert!(!server_nodes.is_empty(), "a PFS needs at least one server");
        assert_eq!(server_nodes.len(), backends.len(), "one backend per server");
        assert!(params.replicas >= 1, "a PFS stores at least one copy");
        assert!(
            params.replicas <= server_nodes.len(),
            "more replicas than servers"
        );
        let rng = SplitMix64::new(params.retry.jitter_seed);
        let servers = server_nodes
            .into_iter()
            .zip(backends)
            .map(|(node, fs)| PfsServer {
                node,
                pool: MultiResource::new(params.daemons),
                fs,
                up: true,
                marked: false,
                slow: 1.0,
                missed: Vec::new(),
                dirlock: FifoResource::new(),
            })
            .collect();
        PfsSystem {
            params,
            servers,
            meter: FsMeter::default(),
            rng,
            retries: 0,
            failovers: 0,
            resyncs: 0,
            resync_bytes: 0,
        }
    }

    /// Number of I/O servers.
    pub fn servers(&self) -> usize {
        self.servers.len()
    }

    /// Client-observed transfer statistics.
    pub fn meter(&self) -> &FsMeter {
        &self.meter
    }

    /// A server's backing filesystem (for meters).
    pub fn server_fs(&self, idx: usize) -> &LocalFs {
        &self.servers[idx].fs
    }

    /// Whether server `idx` is running.
    pub fn server_up(&self, idx: usize) -> bool {
        self.servers[idx].up
    }

    /// Client RPC retransmissions so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Spans served by a non-primary replica holder so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Completed recovery catch-up episodes.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bytes replayed onto recovered servers.
    pub fn resync_bytes(&self) -> u64 {
        self.resync_bytes
    }

    /// Writes recorded for replay once server `idx` recovers.
    pub fn missed_extents(&self, idx: usize) -> usize {
        self.servers[idx].missed.len()
    }

    /// Kills server `idx`: it stops replying to RPCs. Clients discover
    /// this lazily through their retry budget.
    pub fn fail_server(&mut self, idx: usize) {
        self.servers[idx].up = false;
    }

    /// Multiplies server `idx`'s service times by `factor` (1.0 restores
    /// nominal speed).
    pub fn set_server_slow(&mut self, idx: usize, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.servers[idx].slow = factor;
    }

    /// Restarts server `idx` and deterministically replays the writes it
    /// missed from surviving replica holders (server-to-server catch-up
    /// traffic on the storage class). Returns the catch-up completion
    /// instant and the bytes replayed. Extents with no live source stay
    /// queued for a later recovery.
    pub fn recover_server(&mut self, net: &mut Network, now: Time, idx: usize) -> (Time, u64) {
        let n = self.servers.len();
        self.servers[idx].up = true;
        self.servers[idx].marked = false;
        let missed = std::mem::take(&mut self.servers[idx].missed);
        let overhead = self.params.rpc_overhead;
        let reps = self.params.replicas;
        let mut t = now;
        let mut bytes = 0u64;
        let mut requeue = Vec::new();
        for m in missed {
            let mut src = None;
            for r2 in 0..reps {
                if r2 == m.rank {
                    continue;
                }
                let cand = (m.s0 + r2) % n;
                if cand != idx && self.servers[cand].up {
                    src = Some((cand, r2));
                    break;
                }
            }
            let Some((src_idx, src_rank)) = src else {
                requeue.push(m);
                continue;
            };
            let (src_srv, dst) = index_pair(&mut self.servers, src_idx, idx);
            let t_read = src_srv.fs.read(t, rfile(m.file, src_rank), m.off, m.len);
            let t_read = stretch(src_srv.slow, t, t_read);
            let arrive = net.send(
                t_read,
                src_srv.node,
                dst.node,
                m.len + RPC_HEADER,
                TrafficClass::Storage,
            );
            let t2 = dst.pool.submit(arrive, overhead).end;
            t = dst.fs.write(t2, rfile(m.file, m.rank), m.off, m.len);
            bytes += m.len;
        }
        self.servers[idx].missed = requeue;
        if bytes > 0 {
            self.resyncs += 1;
            self.resync_bytes += bytes;
            let (server, start, end) = (idx, now, t);
            simcore::obs::emit(|| simcore::obs::ObsEvent::PfsResync {
                server,
                bytes,
                start,
                end,
            });
        }
        (t, bytes)
    }

    /// Splits `[offset, offset+len)` into per-server contiguous spans in
    /// the servers' own address spaces: chunk `c` of the file lives on
    /// server `c % N` at server-local offset `(c / N) × stripe + within`.
    /// Replica rank `r` of a span lives on server `(s + r) % N` at the
    /// identical local offsets (in the rank's shadow file).
    fn spans(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let n = self.servers.len() as u64;
        let stripe = self.params.stripe;
        let mut per: Vec<Option<(u64, u64)>> = vec![None; self.servers.len()];
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let chunk = pos / stripe;
            let server = (chunk % n) as usize;
            let local = (chunk / n) * stripe + pos % stripe;
            let take = (stripe - pos % stripe).min(end - pos);
            match &mut per[server] {
                Some((_, l)) => *l += take,
                None => per[server] = Some((local, take)),
            }
            pos += take;
        }
        per.into_iter()
            .enumerate()
            .filter_map(|(s, v)| v.map(|(o, l)| (s, o, l)))
            .collect()
    }

    /// One metadata RPC to the first live server (server 0 when healthy).
    fn meta_rpc<F>(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
        op: &'static str,
        mut apply: F,
    ) -> Result<Time, PfsError>
    where
        F: FnMut(&mut LocalFs, Time) -> Time,
    {
        let overhead = self.params.rpc_overhead;
        let retry = self.params.retry;
        let mut issue = now;
        for idx in 0..self.servers.len() {
            let srv = &mut self.servers[idx];
            if srv.up && !srv.marked {
                let arrive = net.send(issue, client, srv.node, RPC_HEADER, TrafficClass::Storage);
                let t = srv.pool.submit(arrive, overhead).end;
                let done = apply(&mut srv.fs, t);
                let done = stretch(srv.slow, arrive, done);
                self.meter.meta_ops += 1;
                let reply = net.send(done, srv.node, client, RPC_REPLY, TrafficClass::Storage);
                if idx > 0 {
                    self.failovers += 1;
                    let at = issue;
                    simcore::obs::emit(|| simcore::obs::ObsEvent::PfsFailover {
                        op,
                        from: 0,
                        to: idx,
                        at,
                    });
                }
                return Ok(reply);
            }
            if !srv.marked {
                issue = detect_down(
                    net,
                    srv,
                    &mut self.rng,
                    &retry,
                    &mut self.retries,
                    op,
                    idx,
                    client,
                    issue,
                    RPC_HEADER,
                );
            }
        }
        Err(PfsError::Unavailable {
            op,
            file,
            at: issue,
            server: 0,
        })
    }

    /// Creates (or opens) `file`: one metadata RPC to the metadata server.
    pub fn open(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
        create: bool,
    ) -> Result<Time, PfsError> {
        self.meta_rpc(net, client, now, file, "META", move |fs, t| {
            if create {
                fs.create(t, file)
            } else {
                fs.open(t, file)
            }
        })
    }

    /// Closes `file` (metadata RPC; PVFS close does not flush — servers
    /// persist on their own schedule, `sync` forces it).
    pub fn close(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
    ) -> Result<Time, PfsError> {
        self.meta_rpc(net, client, now, file, "META", move |fs, t| {
            fs.close(t, file)
        })
    }

    /// The home server of `dir`'s namespace shard: a seed-stable FNV-1a
    /// hash of the directory id modulo the server count. Replica `r` of
    /// the shard lives `r` places after the home in ring order, mirroring
    /// the data path's chained-declustered placement.
    pub fn meta_home(&self, dir: FileId) -> usize {
        (simcore::fnv1a64(&dir.0.to_le_bytes()) % self.servers.len() as u64) as usize
    }

    /// One mdtest-class metadata verb against `dir`'s namespace shard.
    ///
    /// The verb is served by the first live replica holder in ring order
    /// from the shard's home server ([`meta_home`]); dead-but-unmarked
    /// holders burn the retry budget first, exactly like the data path.
    /// On the serving server the namespace update holds the shard's
    /// dir-entry lock (a FIFO resource) for its service interval — a
    /// single shared directory funnels every rank through one queue
    /// (mdtest-hard), unique per-rank directories spread across shards
    /// (mdtest-easy). With every holder down the verb surfaces a typed
    /// [`PfsError::Unavailable`].
    ///
    /// [`meta_home`]: PfsSystem::meta_home
    pub fn meta_verb(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, PfsError> {
        let n = self.servers.len();
        let reps = self.params.replicas.max(1);
        let overhead = self.params.rpc_overhead;
        let retry = self.params.retry;
        let home = self.meta_home(dir);
        let op = match verb {
            MetaVerb::Create => "CREATE",
            MetaVerb::Stat => "STAT",
            MetaVerb::Unlink => "UNLINK",
            MetaVerb::Mkdir => "MKDIR",
            MetaVerb::Readdir => "READDIR",
        };
        let mut issue = now;
        for k in 0..reps {
            let idx = (home + k) % n;
            let srv = &mut self.servers[idx];
            if srv.up && !srv.marked {
                let arrive = net.send(issue, client, srv.node, RPC_HEADER, TrafficClass::Storage);
                let t = srv.pool.submit(arrive, overhead).end;
                let done = match verb {
                    MetaVerb::Create => srv.fs.create(t, target),
                    MetaVerb::Stat => srv.fs.stat(t, target),
                    MetaVerb::Unlink => srv.fs.unlink(t, target),
                    MetaVerb::Mkdir => srv.fs.mkdir(t, dir),
                    MetaVerb::Readdir => srv.fs.readdir(t, dir),
                };
                // The namespace update serializes on the shard's dir-entry
                // lock for its service interval (no-op when uncontended).
                let done = srv.dirlock.submit(t, done - t).end;
                let done = stretch(srv.slow, arrive, done);
                self.meter.meta_ops += 1;
                let reply = net.send(done, srv.node, client, RPC_REPLY, TrafficClass::Storage);
                if k > 0 {
                    self.failovers += 1;
                    let at = issue;
                    simcore::obs::emit(|| simcore::obs::ObsEvent::PfsFailover {
                        op,
                        from: home,
                        to: idx,
                        at,
                    });
                }
                return Ok(reply);
            }
            if !srv.marked {
                issue = detect_down(
                    net,
                    srv,
                    &mut self.rng,
                    &retry,
                    &mut self.retries,
                    op,
                    idx,
                    client,
                    issue,
                    RPC_HEADER,
                );
            }
        }
        Err(PfsError::Unavailable {
            op,
            file: target,
            at: issue,
            server: home,
        })
    }

    /// Writes `[offset, offset+len)`: per-server spans move in parallel to
    /// every live replica holder; the call completes when every holder has
    /// acknowledged. Holders that are down get the span recorded for
    /// resync; a span with no live holder at all is an error.
    pub fn write(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, PfsError> {
        // Panic audit: `ClusterMachine::{io_write,io_read}` filter
        // zero-length transfers as no-ops before dispatching here, so this
        // invariant is unreachable from op programs; it guards direct
        // embeddings against a division-free but meaningless span walk.
        assert!(len > 0, "zero-length write");
        let n = self.servers.len();
        let reps = self.params.replicas;
        let max_msg = self.params.max_msg;
        let overhead = self.params.rpc_overhead;
        let retry = self.params.retry;
        let mut done = now;
        for (s0, local_off, span) in self.spans(offset, len) {
            let mut wrote_any = false;
            let mut missed_ranks: Vec<usize> = Vec::new();
            let mut give_up = now;
            for r in 0..reps {
                let holder = (s0 + r) % n;
                let srv = &mut self.servers[holder];
                if srv.up && !srv.marked {
                    let f = rfile(file, r);
                    let mut pos = 0;
                    let mut server_done = now;
                    while pos < span {
                        let take = max_msg.min(span - pos);
                        let arrive = net.send(
                            now,
                            client,
                            srv.node,
                            take + RPC_HEADER,
                            TrafficClass::Storage,
                        );
                        let t = srv.pool.submit(arrive, overhead).end;
                        let t = srv.fs.write(t, f, local_off + pos, take);
                        let t = stretch(srv.slow, arrive, t);
                        let reply = net.send(t, srv.node, client, RPC_REPLY, TrafficClass::Storage);
                        server_done = server_done.max(reply);
                        pos += take;
                    }
                    done = done.max(server_done);
                    wrote_any = true;
                } else if !srv.marked {
                    let probe = max_msg.min(span) + RPC_HEADER;
                    let deadline = detect_down(
                        net,
                        srv,
                        &mut self.rng,
                        &retry,
                        &mut self.retries,
                        "WRITE",
                        holder,
                        client,
                        now,
                        probe,
                    );
                    give_up = give_up.max(deadline);
                    done = done.max(deadline);
                    missed_ranks.push(r);
                } else {
                    missed_ranks.push(r);
                }
            }
            if !wrote_any {
                return Err(PfsError::Unavailable {
                    op: "WRITE",
                    file,
                    at: give_up,
                    server: s0,
                });
            }
            // The primary holder missed the span but a surviving replica
            // holder absorbed it: that is a write failover.
            if missed_ranks.contains(&0) {
                if let Some(to) = (0..reps)
                    .find(|r| !missed_ranks.contains(r))
                    .map(|r| (s0 + r) % n)
                {
                    self.failovers += 1;
                    simcore::obs::emit(|| simcore::obs::ObsEvent::PfsFailover {
                        op: "WRITE",
                        from: s0,
                        to,
                        at: now,
                    });
                }
            }
            for r in missed_ranks {
                let holder = (s0 + r) % n;
                self.servers[holder].missed.push(Missed {
                    file,
                    rank: r,
                    off: local_off,
                    len: span,
                    s0,
                });
            }
        }
        self.meter.writes.record(len, done - now);
        Ok(done)
    }

    /// Reads `[offset, offset+len)` from all servers in parallel; every
    /// span is served by its first live replica holder in rank order,
    /// failing over past dead servers.
    pub fn read(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Time, PfsError> {
        // Panic audit: unreachable from op programs — see the write-side
        // note; zero-length reads are filtered upstream as no-ops.
        assert!(len > 0, "zero-length read");
        let n = self.servers.len();
        let reps = self.params.replicas;
        let max_msg = self.params.max_msg;
        let overhead = self.params.rpc_overhead;
        let retry = self.params.retry;
        let mut done = now;
        for (s0, local_off, span) in self.spans(offset, len) {
            let mut issue = now;
            let mut served = false;
            for r in 0..reps {
                let holder = (s0 + r) % n;
                let srv = &mut self.servers[holder];
                if srv.up && !srv.marked {
                    let f = rfile(file, r);
                    let mut pos = 0;
                    let mut server_done = issue;
                    while pos < span {
                        let take = max_msg.min(span - pos);
                        let arrive =
                            net.send(issue, client, srv.node, RPC_HEADER, TrafficClass::Storage);
                        let t = srv.pool.submit(arrive, overhead).end;
                        let t = srv.fs.read(t, f, local_off + pos, take);
                        let t = stretch(srv.slow, arrive, t);
                        let reply =
                            net.send(t, srv.node, client, take + RPC_REPLY, TrafficClass::Storage);
                        server_done = server_done.max(reply);
                        pos += take;
                    }
                    if r > 0 {
                        self.failovers += 1;
                        let at = issue;
                        simcore::obs::emit(|| simcore::obs::ObsEvent::PfsFailover {
                            op: "READ",
                            from: s0,
                            to: holder,
                            at,
                        });
                    }
                    done = done.max(server_done);
                    served = true;
                    break;
                }
                if !srv.marked {
                    issue = detect_down(
                        net,
                        srv,
                        &mut self.rng,
                        &retry,
                        &mut self.retries,
                        "READ",
                        holder,
                        client,
                        issue,
                        RPC_HEADER,
                    );
                }
            }
            if !served {
                return Err(PfsError::Unavailable {
                    op: "READ",
                    file,
                    at: issue,
                    server: s0,
                });
            }
        }
        self.meter.reads.record(len, done - now);
        Ok(done)
    }

    /// Forces everything durable on every live server (dead servers are
    /// skipped — their state is reconciled at recovery).
    pub fn sync(
        &mut self,
        net: &mut Network,
        client: NodeId,
        now: Time,
        file: FileId,
    ) -> Result<Time, PfsError> {
        let overhead = self.params.rpc_overhead;
        let retry = self.params.retry;
        let reps = self.params.replicas;
        let mut done = now;
        let mut any = false;
        for idx in 0..self.servers.len() {
            let srv = &mut self.servers[idx];
            if srv.up && !srv.marked {
                let arrive = net.send(now, client, srv.node, RPC_HEADER, TrafficClass::Storage);
                let mut t = srv.pool.submit(arrive, overhead).end;
                for r in 0..reps {
                    t = srv.fs.fsync(t, rfile(file, r));
                }
                let t = stretch(srv.slow, arrive, t);
                let reply = net.send(t, srv.node, client, RPC_REPLY, TrafficClass::Storage);
                done = done.max(reply);
                any = true;
            } else if !srv.marked {
                let deadline = detect_down(
                    net,
                    srv,
                    &mut self.rng,
                    &retry,
                    &mut self.retries,
                    "SYNC",
                    idx,
                    client,
                    now,
                    RPC_HEADER,
                );
                done = done.max(deadline);
            }
        }
        if !any {
            return Err(PfsError::Unavailable {
                op: "SYNC",
                file,
                at: done,
                server: 0,
            });
        }
        Ok(done)
    }

    /// Declares pre-existing content (striped across servers; every
    /// replica rank holds a full copy).
    pub fn preallocate(&mut self, file: FileId, size: u64) {
        let n = self.servers.len() as u64;
        let per_server = size.div_ceil(n);
        for r in 0..self.params.replicas {
            let f = rfile(file, r);
            for srv in &mut self.servers {
                srv.fs.preallocate(f, per_server);
            }
        }
    }
}

impl MetaOps for PfsSystem {
    type Ctx<'a> = (&'a mut Network, NodeId);
    type Error = PfsError;

    fn meta(
        &mut self,
        (net, client): Self::Ctx<'_>,
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, PfsError> {
        self.meta_verb(net, client, now, verb, dir, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalFsParams;
    use netsim::FabricParams;
    use simcore::{Bandwidth, GIB, KIB, MIB};
    use storage::{Disk, DiskParams, Jbod};

    const F: FileId = FileId(5);

    fn pfs_with(n: usize, params: PfsParams) -> (Network, PfsSystem) {
        let net = Network::split(8, FabricParams::gigabit_ethernet());
        let backends: Vec<LocalFs> = (0..n)
            .map(|i| {
                LocalFs::new(
                    LocalFsParams::ext4(2 * GIB),
                    Box::new(Jbod::new(Disk::new(
                        DiskParams::sata_7200(160, 80),
                        i as u64 + 1,
                    ))),
                )
            })
            .collect();
        let system = PfsSystem::new(params, (0..n).collect(), backends);
        (net, system)
    }

    fn pfs(n: usize) -> (Network, PfsSystem) {
        pfs_with(n, PfsParams::default())
    }

    fn replicated(n: usize) -> (Network, PfsSystem) {
        pfs_with(
            n,
            PfsParams {
                replicas: 2,
                ..PfsParams::default()
            },
        )
    }

    #[test]
    fn spans_cover_request_round_robin() {
        let (_, p) = pfs(4);
        let spans = p.spans(0, 256 * KIB + 100);
        let total: u64 = spans.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total, 256 * KIB + 100);
        // 64 KiB stripes: first four chunks land on servers 0..3, the tail
        // (100 B of chunk 4) wraps to server 0.
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].0, 0);
        assert_eq!(spans[0].2, 64 * KIB + 100);
    }

    #[test]
    fn server_local_offsets_are_compacted() {
        let (_, p) = pfs(2);
        // Chunk 2 of the file (offset 128 KiB) is chunk 1 on server 0.
        let spans = p.spans(128 * KIB, 64 * KIB);
        assert_eq!(spans, vec![(0, 64 * KIB, 64 * KIB)]);
    }

    #[test]
    fn striping_scales_aggregate_bandwidth() {
        let measure = |n: usize| {
            let (mut net, mut p) = pfs(n);
            let client = 7; // a node that hosts no server
            let t = p.open(&mut net, client, Time::ZERO, F, true).unwrap();
            let start = t;
            let mut now = t;
            let total = 512 * MIB;
            let mut off = 0;
            while off < total {
                now = p.write(&mut net, client, now, F, off, 16 * MIB).unwrap();
                off += 16 * MIB;
            }
            Bandwidth::measured(total, now - start).as_mib_per_sec()
        };
        let one = measure(1);
        let four = measure(4);
        // One client is wire-bound (~112 MiB/s) either way; with one server
        // it is also disk-bound. Four servers must not be slower.
        assert!(four >= one, "4 servers {four} vs 1 server {one}");
        assert!(four > 80.0, "striped writes at {four} MiB/s");
    }

    #[test]
    fn multiple_clients_exceed_single_wire_speed() {
        let (mut net, mut p) = pfs(4);
        // Clients 5, 6, 7 write disjoint regions concurrently; drive them
        // round-robin so operations interleave in simulation time (the MPI
        // runtime's yielding does this automatically).
        let t = p.open(&mut net, 5, Time::ZERO, F, true).unwrap();
        let start = t;
        let clients = [5usize, 6, 7];
        let mut clocks = [t; 3];
        for round in 0..16u64 {
            for (i, &client) in clients.iter().enumerate() {
                let base = i as u64 * 256 * MIB + round * 16 * MIB;
                clocks[i] = p
                    .write(&mut net, client, clocks[i], F, base, 16 * MIB)
                    .unwrap();
            }
        }
        let done = clocks.into_iter().max().unwrap();
        let agg = Bandwidth::measured(3 * 256 * MIB, done - start).as_mib_per_sec();
        // Three client links into four server links: the aggregate must
        // beat a single GigE link — the whole point of a parallel FS.
        assert!(agg > 150.0, "aggregate {agg} MiB/s");
    }

    #[test]
    fn read_after_write_roundtrip() {
        let (mut net, mut p) = pfs(3);
        let t = p.open(&mut net, 4, Time::ZERO, F, true).unwrap();
        let t = p.write(&mut net, 4, t, F, 0, 8 * MIB).unwrap();
        let t = p.sync(&mut net, 4, t, F).unwrap();
        let t2 = p.read(&mut net, 4, t, F, 0, 8 * MIB).unwrap();
        assert!(t2 > t);
        assert_eq!(p.meter().writes.bytes(), 8 * MIB);
        assert_eq!(p.meter().reads.bytes(), 8 * MIB);
    }

    #[test]
    fn preallocate_feeds_all_servers() {
        let (mut net, mut p) = pfs(2);
        p.preallocate(F, 10 * MIB);
        let t = p.read(&mut net, 3, Time::ZERO, F, 0, 10 * MIB).unwrap();
        assert!(t > Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_deployment_rejected() {
        PfsSystem::new(PfsParams::default(), vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "more replicas than servers")]
    fn over_replication_rejected() {
        pfs_with(
            2,
            PfsParams {
                replicas: 3,
                ..PfsParams::default()
            },
        );
    }

    #[test]
    fn failed_server_reads_fail_over_to_replicas() {
        let (mut net, mut p) = replicated(3);
        p.preallocate(F, 12 * MIB);
        p.fail_server(1);
        let t = p.read(&mut net, 5, Time::ZERO, F, 0, 12 * MIB).unwrap();
        assert!(t > Time::ZERO);
        // Every byte arrived despite the dead server...
        assert_eq!(p.meter().reads.bytes(), 12 * MIB);
        // ...after the retry budget detected it and spans failed over.
        assert!(p.retries() > 0, "detection burns retransmissions");
        assert!(p.failovers() > 0, "replica holders served the dead spans");
        // Detection is paid once: a second read skips the marked server.
        let retries = p.retries();
        let t2 = p.read(&mut net, 5, t, F, 0, 12 * MIB).unwrap();
        assert!(t2 > t);
        assert_eq!(p.retries(), retries, "marked servers are skipped");
    }

    #[test]
    fn degraded_writes_record_missed_extents_and_resync_on_recovery() {
        let (mut net, mut p) = replicated(3);
        let t = p.open(&mut net, 6, Time::ZERO, F, true).unwrap();
        p.fail_server(2);
        let t = p.write(&mut net, 6, t, F, 0, 6 * MIB).unwrap();
        assert_eq!(p.meter().writes.bytes(), 6 * MIB);
        assert!(p.missed_extents(2) > 0, "dead holder owes writes");
        let (t2, replayed) = p.recover_server(&mut net, t, 2);
        assert!(replayed > 0, "recovery replays the missed bytes");
        assert!(t2 > t, "catch-up traffic takes time");
        assert_eq!(p.missed_extents(2), 0);
        assert_eq!(p.resyncs(), 1);
        assert_eq!(p.resync_bytes(), replayed);
    }

    #[test]
    fn losing_every_replica_is_a_typed_error() {
        let (mut net, mut p) = replicated(2);
        p.preallocate(F, 4 * MIB);
        p.fail_server(0);
        p.fail_server(1);
        let err = p.read(&mut net, 5, Time::ZERO, F, 0, 4 * MIB).unwrap_err();
        match err {
            PfsError::Unavailable { op, file, at, .. } => {
                assert_eq!(op, "READ");
                assert_eq!(file, F);
                assert!(at > Time::ZERO, "the client waited out its budget");
            }
        }
    }

    #[test]
    fn unreplicated_deployment_survives_nothing() {
        let (mut net, mut p) = pfs(2);
        p.preallocate(F, 4 * MIB);
        p.fail_server(0);
        assert!(p.read(&mut net, 5, Time::ZERO, F, 0, 4 * MIB).is_err());
    }

    #[test]
    fn metadata_fails_over_past_a_dead_server_zero() {
        let (mut net, mut p) = replicated(2);
        p.fail_server(0);
        let t = p.open(&mut net, 5, Time::ZERO, F, true).unwrap();
        assert!(t > Time::ZERO);
        assert!(p.failovers() > 0, "server 1 served the metadata RPC");
    }

    #[test]
    fn slow_server_stretches_degraded_reads_only() {
        let elapsed = |slow: Option<f64>| {
            let (mut net, mut p) = pfs(2);
            p.preallocate(F, 8 * MIB);
            if let Some(f) = slow {
                p.set_server_slow(1, f);
            }
            p.read(&mut net, 5, Time::ZERO, F, 0, 8 * MIB).unwrap()
        };
        let nominal = elapsed(None);
        let unit = elapsed(Some(1.0));
        let dragging = elapsed(Some(8.0));
        assert_eq!(nominal, unit, "factor 1.0 is exactly a no-op");
        assert!(dragging > nominal, "an 8x slowdown shows up end-to-end");
    }

    /// Finds a directory id homed on shard `want` (4-server deployment).
    fn dir_on_shard(p: &PfsSystem, want: usize) -> FileId {
        (0..256u64)
            .map(|i| FileId(1000 + i))
            .find(|&d| p.meta_home(d) == want)
            .expect("some id lands on every shard")
    }

    #[test]
    fn meta_verbs_shard_across_servers() {
        let (mut net, mut p) = pfs(4);
        let homes: std::collections::BTreeSet<usize> =
            (0..16u64).map(|i| p.meta_home(FileId(1000 + i))).collect();
        assert!(homes.len() > 1, "hashing must spread dirs across shards");
        // Every verb completes on a healthy deployment and counts once.
        let dir = dir_on_shard(&p, 2);
        let mut t = Time::ZERO;
        for v in MetaVerb::ALL {
            t = p.meta_verb(&mut net, 5, t, v, dir, F).unwrap();
        }
        assert!(t > Time::ZERO);
        assert_eq!(p.meter().meta_ops, 5);
        assert_eq!(p.retries(), 0, "healthy metadata path never retransmits");
        assert_eq!(p.failovers(), 0);
        // The shard's home server did the work.
        assert_eq!(p.server_fs(2).meter().meta_ops, 5);
    }

    #[test]
    fn shared_dir_serializes_on_the_shard_lock() {
        // Two clients issue a create at the same instant: into the same
        // directory the second op queues on the shard's dir-entry lock,
        // into dirs on different shards both proceed in parallel.
        let makespan = |same_dir: bool| {
            let (mut net, mut p) = pfs(4);
            let d1 = dir_on_shard(&p, 0);
            let d2 = if same_dir { d1 } else { dir_on_shard(&p, 1) };
            let t1 = p
                .meta_verb(&mut net, 5, Time::ZERO, MetaVerb::Create, d1, FileId(7000))
                .unwrap();
            let t2 = p
                .meta_verb(&mut net, 6, Time::ZERO, MetaVerb::Create, d2, FileId(7001))
                .unwrap();
            t1.max(t2)
        };
        let contended = makespan(true);
        let spread = makespan(false);
        assert!(
            contended > spread,
            "shared-dir ops ({contended:?}) must queue behind the shard lock vs spread dirs ({spread:?})"
        );
    }

    #[test]
    fn metadata_fails_over_to_the_shard_replica() {
        let (mut net, mut p) = replicated(4);
        let dir = dir_on_shard(&p, 1);
        p.fail_server(1);
        let t = p
            .meta_verb(&mut net, 5, Time::ZERO, MetaVerb::Mkdir, dir, dir)
            .unwrap();
        assert!(t > Time::ZERO);
        assert!(p.retries() > 0, "detection burns the retry budget");
        assert!(p.failovers() > 0, "the next ring server served the shard");
        // Server 2 (home + 1) holds replica 1 of shard 1.
        assert_eq!(p.server_fs(2).meter().meta_ops, 1);
    }

    #[test]
    fn unreplicated_shard_outage_is_a_typed_error() {
        let (mut net, mut p) = pfs(4);
        let dir = dir_on_shard(&p, 3);
        p.fail_server(3);
        let err = p
            .meta_verb(&mut net, 5, Time::ZERO, MetaVerb::Create, dir, F)
            .unwrap_err();
        match err {
            PfsError::Unavailable { op, server, at, .. } => {
                assert_eq!(op, "CREATE");
                assert_eq!(server, 3, "the error names the shard's home");
                assert!(at > Time::ZERO);
            }
        }
    }

    proptest::proptest! {
        /// With replicas >= 2, any single-server failure leaves every
        /// metadata verb able to complete successfully (degraded via
        /// failover, never failed) — the metadata mirror of the
        /// full-byte-count degraded-read property below.
        #[test]
        fn degraded_metadata_ops_always_succeed(
            dead in 0usize..4,
            dir_id in 0u64..64,
            n_files in 1u64..16,
        ) {
            let (mut net, mut p) = replicated(4);
            p.fail_server(dead);
            let dir = FileId(1000 + dir_id);
            let mut t = p
                .meta_verb(&mut net, 5, Time::ZERO, MetaVerb::Mkdir, dir, dir)
                .unwrap();
            for i in 0..n_files {
                let f = FileId(2000 + dir_id * 100 + i);
                t = p.meta_verb(&mut net, 5, t, MetaVerb::Create, dir, f).unwrap();
                t = p.meta_verb(&mut net, 5, t, MetaVerb::Stat, dir, f).unwrap();
                t = p.meta_verb(&mut net, 5, t, MetaVerb::Unlink, dir, f).unwrap();
            }
            t = p.meta_verb(&mut net, 5, t, MetaVerb::Readdir, dir, dir).unwrap();
            proptest::prop_assert!(t > Time::ZERO);
            proptest::prop_assert_eq!(p.meter().meta_ops, 2 + 3 * n_files);
        }
    }

    proptest::proptest! {
        /// With replicas >= 2, any single-server failure leaves every read
        /// able to return its full byte count (degraded, never short).
        #[test]
        fn degraded_reads_return_full_byte_counts(
            dead in 0usize..4,
            offset_kib in 0u64..512,
            len_kib in 1u64..1024,
        ) {
            let (mut net, mut p) = replicated(4);
            p.preallocate(F, 2 * GIB);
            p.fail_server(dead);
            let len = len_kib * KIB;
            let t = p
                .read(&mut net, 5, Time::ZERO, F, offset_kib * KIB, len)
                .unwrap();
            proptest::prop_assert!(t > Time::ZERO);
            proptest::prop_assert_eq!(p.meter().reads.bytes(), len);
        }
    }
}
