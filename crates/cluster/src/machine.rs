//! The concrete [`Machine`] implementation for a configured cluster.

use crate::config::{ConfigError, DeviceLayout, IoConfig, NetworkLayout};
use crate::spec::ClusterSpec;
use fs::{
    FileId, LocalFs, LocalFsParams, MetaOps, MetaVerb, NfsClient, NfsClientParams, NfsError,
    NfsServer, NfsServerParams, PfsError, PfsParams, PfsSystem,
};
use mpisim::Machine;
use netsim::{Network, NodeId, TrafficClass};
use simcore::{Fault, FaultEvent, FaultSchedule, FxHashMap, NetClass, Time};
use storage::{
    CachedVolume, Disk, Jbod, Raid0, Raid1, Raid5, RebuildReport, Volume, VolumeError,
    WriteCacheParams,
};

/// Where a file lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mount {
    /// The NFS export of the I/O node (shared access).
    Nfs,
    /// The local filesystem of the node performing the operation
    /// (independent access; a rank only sees its own node's disk).
    Local,
    /// The NFS export accessed the way ROMIO drives MPI-IO on NFS:
    /// attribute caching off (`noac`), synchronous uncached data transfer.
    /// Application workloads (BT-IO, MADbench2, IOR) use this.
    NfsDirect,
    /// The parallel filesystem (requires `IoConfig::pfs_servers > 0`).
    Pfs,
    /// The I/O node's filesystem accessed locally on the I/O node —
    /// used to characterize the device level below NFS.
    ServerLocal,
}

use serde::{Deserialize, Serialize};

/// Builds the I/O node's volume for a configuration.
fn build_server_volume(spec: &ClusterSpec, config: &IoConfig) -> Box<dyn Volume> {
    let disk = |i: u64| -> Disk { Disk::new(spec.server_disk.clone(), spec.seed ^ (0x5151 + i)) };
    let raw: Box<dyn Volume> = match config.devices {
        DeviceLayout::Jbod => Box::new(Jbod::new(disk(0))),
        DeviceLayout::Raid1 => Box::new(Raid1::new(disk(0), disk(1))),
        DeviceLayout::Raid5 { disks, stripe } => Box::new(Raid5::new(
            (0..disks as u64).map(disk).collect(),
            stripe,
            config.raid5_coalesce,
        )),
        DeviceLayout::Raid0 { disks, stripe } => {
            Box::new(Raid0::new((0..disks as u64).map(disk).collect(), stripe))
        }
    };
    if config.write_cache_mib > 0 {
        Box::new(CachedVolume::new(
            WriteCacheParams::controller(config.write_cache_mib),
            BoxedVolume(raw),
        ))
    } else {
        raw
    }
}

/// Maps the simcore fault vocabulary onto the network simulator's classes.
fn traffic_class(class: NetClass) -> TrafficClass {
    match class {
        NetClass::Mpi => TrafficClass::Mpi,
        NetClass::Storage => TrafficClass::Storage,
    }
}

/// Adapter: `CachedVolume` is generic over `V: Volume`; this lets it wrap a
/// boxed volume.
struct BoxedVolume(Box<dyn Volume>);

impl Volume for BoxedVolume {
    fn submit(&mut self, now: Time, req: storage::BlockReq) -> storage::IoGrant {
        self.0.submit(now, req)
    }
    fn flush(&mut self, now: Time) -> Time {
        self.0.flush(now)
    }
    fn capacity(&self) -> u64 {
        self.0.capacity()
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn meter(&self) -> &storage::VolumeMeter {
        self.0.meter()
    }
    fn submit_run(&mut self, now: Time, req: storage::BlockReq, chunk: u64) -> storage::IoGrant {
        self.0.submit_run(now, req, chunk)
    }
    fn try_bulk_run(
        &mut self,
        now: Time,
        req: storage::BlockReq,
        chunk: u64,
    ) -> Option<storage::IoGrant> {
        self.0.try_bulk_run(now, req, chunk)
    }
    fn read_train_state(
        &self,
        now: Time,
        offset: u64,
        out: &mut Vec<u64>,
    ) -> Option<storage::ReadTrainBounds> {
        self.0.read_train_state(now, offset, out)
    }
    fn repeat_reads(&mut self, reads: &[storage::TimedRead], period: Time, stride: u64, n: u64) {
        self.0.repeat_reads(reads, period, stride, n)
    }
    fn set_fault_horizon(&mut self, horizon: Option<Time>) {
        self.0.set_fault_horizon(horizon)
    }
    fn set_bulk_enabled(&mut self, on: bool) {
        self.0.set_bulk_enabled(on)
    }
    fn bulk_run_stats(&self) -> (u64, u64) {
        self.0.bulk_run_stats()
    }
    fn fail_disk(&mut self, disk: usize) -> Result<(), VolumeError> {
        self.0.fail_disk(disk)
    }
    fn replace_disk(&mut self, now: Time, disk: usize) -> Result<(), VolumeError> {
        self.0.replace_disk(now, disk)
    }
    fn set_disk_slowdown(&mut self, disk: usize, factor: f64) -> Result<(), VolumeError> {
        self.0.set_disk_slowdown(disk, factor)
    }
    fn pump(&mut self, now: Time) {
        self.0.pump(now)
    }
    fn rebuild_report(&self) -> Option<RebuildReport> {
        self.0.rebuild_report()
    }
    fn finish_rebuild(&mut self, now: Time) -> Time {
        self.0.finish_rebuild(now)
    }
}

/// A configured cluster: compute nodes with local disks and NFS mounts, an
/// I/O node exporting the configured volume, and the configured network(s).
pub struct ClusterMachine {
    spec: ClusterSpec,
    config: IoConfig,
    net: Network,
    server: NfsServer,
    local: Vec<LocalFs>,
    clients: Vec<NfsClient>,
    pfs: Option<PfsSystem>,
    mounts: FxHashMap<FileId, Mount>,
    /// Injected fault schedule; applied lazily as simulated time advances.
    faults: FaultSchedule,
    fault_cursor: usize,
    /// Human-readable trace of applied faults and surfaced I/O errors.
    fault_log: Vec<(Time, String)>,
    io_errors: u64,
}

impl ClusterMachine {
    /// Builds the machine for `spec` under `config`, validating first.
    pub fn try_new(spec: &ClusterSpec, config: &IoConfig) -> Result<ClusterMachine, ConfigError> {
        config.validate(spec)?;
        Ok(ClusterMachine::build(spec, config))
    }

    fn build(spec: &ClusterSpec, config: &IoConfig) -> ClusterMachine {
        let nodes = spec.total_nodes();
        let net = match config.network {
            NetworkLayout::Shared => Network::shared(nodes, spec.fabric),
            NetworkLayout::Split => Network::split(nodes, spec.fabric),
        };
        let server_fs = LocalFs::new(
            LocalFsParams::ext4(spec.io_node_ram),
            build_server_volume(spec, config),
        );
        let server = NfsServer::new(spec.io_node(), NfsServerParams::default(), server_fs);
        let local = (0..spec.compute_nodes)
            .map(|i| {
                let disk = Disk::new(spec.node_disk.clone(), spec.seed ^ (0x10c0 + i as u64));
                LocalFs::new(
                    LocalFsParams::ext4(spec.node_ram),
                    Box::new(Jbod::new(disk)),
                )
            })
            .collect();
        let clients = (0..spec.compute_nodes)
            .map(|i| NfsClient::new(i, NfsClientParams::linux_default(spec.node_ram)))
            .collect();
        let pfs = if config.pfs_servers > 0 {
            assert!(
                config.pfs_servers <= spec.compute_nodes,
                "more PFS servers than compute nodes"
            );
            // Each I/O-server node gets a dedicated data disk (PVFS-style
            // deployment over a subset of the compute nodes).
            let backends = (0..config.pfs_servers)
                .map(|i| {
                    let disk = Disk::new(spec.node_disk.clone(), spec.seed ^ (0x9F50 + i as u64));
                    LocalFs::new(
                        LocalFsParams::ext4(spec.node_ram),
                        Box::new(Jbod::new(disk)),
                    )
                })
                .collect();
            Some(PfsSystem::new(
                PfsParams {
                    stripe: config.pfs_stripe,
                    replicas: config.pfs_replicas.max(1),
                    ..PfsParams::default()
                },
                (0..config.pfs_servers).collect(),
                backends,
            ))
        } else {
            None
        };
        ClusterMachine {
            spec: spec.clone(),
            config: config.clone(),
            net,
            server,
            local,
            clients,
            pfs,
            mounts: FxHashMap::default(),
            faults: FaultSchedule::none(),
            fault_cursor: 0,
            fault_log: Vec::new(),
            io_errors: 0,
        }
    }

    /// Checks a fault schedule against this machine's configuration:
    /// disk faults must target a member the device layout actually has,
    /// and PFS server faults must target a deployed server. (The NFS
    /// export always exists, so `ServerStall` is always applicable.)
    /// Faults a layout supports structurally but a volume rejects at
    /// apply time — e.g. `DiskFail` on the JBOD's only member — stay
    /// log-and-continue, preserving exploratory campaigns.
    fn validate_faults(&self, schedule: &FaultSchedule) -> Result<(), ConfigError> {
        let members = match self.config.devices {
            DeviceLayout::Jbod => 1,
            DeviceLayout::Raid1 => 2,
            DeviceLayout::Raid5 { disks, .. } | DeviceLayout::Raid0 { disks, .. } => disks,
        };
        for e in schedule.events() {
            match e.fault {
                Fault::DiskFail { disk }
                | Fault::DiskReplace { disk }
                | Fault::DiskSlow { disk, .. }
                | Fault::DiskRecover { disk } => {
                    if disk >= members {
                        return Err(ConfigError::FaultDiskOutOfRange { disk, members });
                    }
                }
                Fault::PfsServerFail { server }
                | Fault::PfsServerRecover { server }
                | Fault::PfsServerSlow { server, .. } => {
                    if server >= self.config.pfs_servers {
                        return Err(ConfigError::FaultPfsServerOutOfRange {
                            server,
                            servers: self.config.pfs_servers,
                        });
                    }
                }
                Fault::ServerStall { .. } | Fault::NetDegrade { .. } | Fault::NetHeal { .. } => {}
            }
        }
        Ok(())
    }

    /// Installs a fault schedule, validating it against the configuration
    /// first: disk faults must target a member the device layout has, and
    /// PFS server faults a deployed server. Events are applied lazily:
    /// each simulated operation first applies every event due by its start
    /// instant, so a schedule installed before the run plays out
    /// deterministically as the workload advances the clock.
    pub fn install_faults(&mut self, schedule: FaultSchedule) -> Result<(), ConfigError> {
        self.validate_faults(&schedule)?;
        self.faults = schedule;
        self.fault_cursor = 0;
        // Tell the server volume when the next fault is due: any transfer
        // whose completion bound crosses that horizon must stay on the
        // event-granular path so the fault lands mid-transfer exactly as it
        // would have pre-optimization.
        let horizon = self.faults.next_at(0);
        self.server.fs_mut().volume_mut().set_fault_horizon(horizon);
        Ok(())
    }

    /// The applied-fault / surfaced-error trace: `(instant, description)`.
    pub fn fault_log(&self) -> &[(Time, String)] {
        &self.fault_log
    }

    /// I/O operations that surfaced an error (NFS major timeouts).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Total RPC retransmissions across every NFS mount and the PFS
    /// clients' dead-server detection.
    pub fn client_retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retries()).sum::<u64>()
            + self.pfs.as_ref().map_or(0, |p| p.retries())
    }

    /// PFS spans served by a surviving replica after a server failure.
    pub fn pfs_failovers(&self) -> u64 {
        self.pfs.as_ref().map_or(0, |p| p.failovers())
    }

    /// Bytes replayed onto recovered PFS servers.
    pub fn pfs_resync_bytes(&self) -> u64 {
        self.pfs.as_ref().map_or(0, |p| p.resync_bytes())
    }

    /// Rebuild progress of the I/O node's volume, if one ran.
    pub fn rebuild_report(&self) -> Option<RebuildReport> {
        self.server.fs().volume().rebuild_report()
    }

    /// Runs any in-progress rebuild on the I/O node's volume to completion
    /// in the background (no foreground competition); returns the instant
    /// the array is whole again.
    pub fn finish_rebuild(&mut self, now: Time) -> Time {
        self.server.fs_mut().volume_mut().finish_rebuild(now)
    }

    /// Applies every scheduled fault due by `now`. Events act at the next
    /// operation boundary at or after their nominal instant, which keeps
    /// all device timelines submitted in nondecreasing order. Public so an
    /// evaluation can settle faults that fall after the last I/O op.
    pub fn apply_faults_up_to(&mut self, now: Time) {
        if self.faults.is_empty() {
            return;
        }
        let mut cursor = self.fault_cursor;
        let due: Vec<FaultEvent> = self.faults.due(&mut cursor, now).to_vec();
        self.fault_cursor = cursor;
        if due.is_empty() {
            return;
        }
        for e in due {
            self.apply_fault(now, &e);
        }
        // Advance the bulk fast-path horizon to the next pending fault.
        let horizon = self.faults.next_at(self.fault_cursor);
        self.server.fs_mut().volume_mut().set_fault_horizon(horizon);
    }

    /// `(fast path runs, granular fallbacks)` of the I/O node's volume.
    pub fn server_bulk_stats(&self) -> (u64, u64) {
        self.server.fs().volume().bulk_run_stats()
    }

    fn log_volume_result(&mut self, now: Time, what: String, r: Result<(), VolumeError>) {
        match r {
            Ok(()) => self.fault_log.push((now, what)),
            Err(e) => self.fault_log.push((now, format!("{what}: ignored ({e})"))),
        }
    }

    fn apply_fault(&mut self, now: Time, event: &FaultEvent) {
        simcore::obs::emit(|| simcore::obs::ObsEvent::FaultApplied {
            kind: match event.fault {
                Fault::DiskFail { .. } => "disk_fail",
                Fault::DiskReplace { .. } => "disk_replace",
                Fault::DiskSlow { .. } => "disk_slow",
                Fault::DiskRecover { .. } => "disk_recover",
                Fault::ServerStall { .. } => "nfs_server_stall",
                Fault::NetDegrade { .. } => "net_degrade",
                Fault::NetHeal { .. } => "net_heal",
                Fault::PfsServerFail { .. } => "pfs_server_fail",
                Fault::PfsServerRecover { .. } => "pfs_server_recover",
                Fault::PfsServerSlow { .. } => "pfs_server_slow",
            },
            at: now,
        });
        let seed = self.spec.seed;
        match event.fault {
            Fault::DiskFail { disk } => {
                let r = self.server.fs_mut().volume_mut().fail_disk(disk);
                self.log_volume_result(now, format!("disk {disk} failed"), r);
            }
            Fault::DiskReplace { disk } => {
                let r = self.server.fs_mut().volume_mut().replace_disk(now, disk);
                self.log_volume_result(now, format!("disk {disk} replaced; rebuild started"), r);
            }
            Fault::DiskSlow { disk, factor } => {
                let r = self
                    .server
                    .fs_mut()
                    .volume_mut()
                    .set_disk_slowdown(disk, factor);
                self.log_volume_result(now, format!("disk {disk} slowed {factor}x"), r);
            }
            Fault::DiskRecover { disk } => {
                let r = self
                    .server
                    .fs_mut()
                    .volume_mut()
                    .set_disk_slowdown(disk, 1.0);
                self.log_volume_result(now, format!("disk {disk} recovered"), r);
            }
            Fault::ServerStall { duration } => {
                self.server.stall(now, duration);
                self.fault_log.push((
                    now,
                    format!("nfs server stalled for {:.3}s", duration.as_secs_f64()),
                ));
            }
            Fault::PfsServerFail { server } => {
                let pfs = self
                    .pfs
                    .as_mut()
                    .expect("PFS faults are validated at install time");
                pfs.fail_server(server);
                self.fault_log
                    .push((now, format!("pfs server {server} failed")));
            }
            Fault::PfsServerRecover { server } => {
                let net = &mut self.net;
                let pfs = self
                    .pfs
                    .as_mut()
                    .expect("PFS faults are validated at install time");
                let (done, bytes) = pfs.recover_server(net, now, server);
                self.fault_log.push((
                    now,
                    format!(
                        "pfs server {server} recovered; resynced {bytes} B by {:.3}s",
                        done.as_secs_f64()
                    ),
                ));
            }
            Fault::PfsServerSlow { server, factor } => {
                let pfs = self
                    .pfs
                    .as_mut()
                    .expect("PFS faults are validated at install time");
                pfs.set_server_slow(server, factor);
                self.fault_log
                    .push((now, format!("pfs server {server} slowed {factor}x")));
            }
            Fault::NetDegrade {
                class,
                drop,
                duplicate,
            } => {
                let tc = traffic_class(class);
                self.net.set_degradation(tc, drop, duplicate, seed ^ 0xDE64);
                self.fault_log.push((
                    now,
                    format!("{tc:?} network degraded: drop {drop}, duplicate {duplicate}"),
                ));
            }
            Fault::NetHeal { class } => {
                let tc = traffic_class(class);
                self.net.clear_degradation(tc);
                self.fault_log.push((now, format!("{tc:?} network healed")));
            }
        }
    }

    /// Records a surfaced I/O error and returns the instant the caller's
    /// clock resumes (failed operations cost their timeout budget).
    fn note_error(&mut self, e: NfsError) -> Time {
        self.io_errors += 1;
        self.fault_log.push((e.at(), e.to_string()));
        e.at()
    }

    /// Same, for a degraded-mode PFS failure (every replica holder down).
    fn note_pfs_error(&mut self, e: PfsError) -> Time {
        self.io_errors += 1;
        self.fault_log.push((e.at(), e.to_string()));
        e.at()
    }

    fn pfs_mut(&mut self) -> &mut PfsSystem {
        self.pfs
            .as_mut()
            .expect("Mount::Pfs used but IoConfig::pfs_servers is 0")
    }

    /// The parallel filesystem, when deployed.
    pub fn pfs(&self) -> Option<&PfsSystem> {
        self.pfs.as_ref()
    }

    /// The cluster's hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The active I/O configuration.
    pub fn config(&self) -> &IoConfig {
        &self.config
    }

    /// Routes `file` to a mount; unregistered files use NFS.
    pub fn mount(&mut self, file: FileId, mount: Mount) {
        self.mounts.insert(file, mount);
    }

    fn mount_of(&self, file: FileId) -> Mount {
        self.mounts.get(&file).copied().unwrap_or(Mount::Nfs)
    }

    /// The NFS server (for meters / direct characterization).
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// Mutable access to the NFS server.
    pub fn server_mut(&mut self) -> &mut NfsServer {
        &mut self.server
    }

    /// A compute node's local filesystem.
    pub fn local_fs(&self, node: NodeId) -> &LocalFs {
        &self.local[node]
    }

    /// A node's NFS client (for diagnostics).
    pub fn client(&self, node: NodeId) -> &NfsClient {
        &self.clients[node]
    }

    /// The network (for meters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Pre-populates a file with `size` valid bytes on its mount (the
    /// "existing input file" case for read benchmarks).
    pub fn preallocate(&mut self, file: FileId, size: u64) {
        match self.mount_of(file) {
            Mount::Nfs | Mount::NfsDirect | Mount::ServerLocal => {
                self.server.fs_mut().preallocate(file, size)
            }
            Mount::Pfs => self.pfs_mut().preallocate(file, size),
            Mount::Local => {
                for fs in &mut self.local {
                    fs.preallocate(file, size);
                }
            }
        }
    }
}

impl Machine for ClusterMachine {
    fn nodes(&self) -> usize {
        self.spec.total_nodes()
    }

    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        self.apply_faults_up_to(now);
        self.net.send(now, from, to, bytes, TrafficClass::Mpi)
    }

    fn io_open(&mut self, now: Time, node: NodeId, file: FileId, create: bool) -> Time {
        self.apply_faults_up_to(now);
        match self.mount_of(file) {
            Mount::Nfs | Mount::NfsDirect => {
                match self.clients[node].open(&mut self.net, &mut self.server, now, file, create) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.open(net, node, now, file, create) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => {
                if create && self.local[node].file_size(file) == 0 {
                    self.local[node].create(now, file)
                } else {
                    self.local[node].open(now, file)
                }
            }
            Mount::ServerLocal => {
                let fs = self.server.fs_mut();
                if create && fs.file_size(file) == 0 {
                    fs.create(now, file)
                } else {
                    fs.open(now, file)
                }
            }
        }
    }

    fn io_close(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.apply_faults_up_to(now);
        match self.mount_of(file) {
            Mount::Nfs => {
                match self.clients[node].close(&mut self.net, &mut self.server, now, file) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::NfsDirect => {
                // ROMIO fsyncs on close; no client cache to flush.
                match self.clients[node].fsync(&mut self.net, &mut self.server, now, file) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.close(net, node, now, file) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => self.local[node].close(now, file),
            Mount::ServerLocal => self.server.fs_mut().close(now, file),
        }
    }

    fn io_read(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        // A zero-length transfer is a well-defined no-op, filtered here so
        // degenerate op programs cannot reach the byte-moving layers —
        // `PfsSystem::{write,read}` assert `len > 0` as an internal
        // invariant (see the panic audit there).
        if len == 0 {
            return now;
        }
        self.apply_faults_up_to(now);
        match self.mount_of(file) {
            Mount::Nfs => {
                match self.clients[node].read(
                    &mut self.net,
                    &mut self.server,
                    now,
                    file,
                    offset,
                    len,
                ) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            // A ROMIO mount pays lock/revalidation round trips, then uses
            // the normal cached read path (NFS clients cache read data
            // even under the MPI-IO discipline).
            Mount::NfsDirect => {
                let t = self.clients[node].lock_roundtrips(&mut self.net, &mut self.server, now);
                match self.clients[node].read(&mut self.net, &mut self.server, t, file, offset, len)
                {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.read(net, node, now, file, offset, len) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => self.local[node].read(now, file, offset, len),
            Mount::ServerLocal => self.server.fs_mut().read(now, file, offset, len),
        }
    }

    fn io_write(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        // Zero-length writes are no-ops, same as `io_read`.
        if len == 0 {
            return now;
        }
        self.apply_faults_up_to(now);
        match self.mount_of(file) {
            Mount::Nfs => {
                match self.clients[node].write(
                    &mut self.net,
                    &mut self.server,
                    now,
                    file,
                    offset,
                    len,
                ) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::NfsDirect => {
                let t = self.clients[node].lock_roundtrips(&mut self.net, &mut self.server, now);
                match self.clients[node].write_direct(
                    &mut self.net,
                    &mut self.server,
                    t,
                    file,
                    offset,
                    len,
                ) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.write(net, node, now, file, offset, len) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => self.local[node].write(now, file, offset, len),
            Mount::ServerLocal => self.server.fs_mut().write(now, file, offset, len),
        }
    }

    fn io_sync(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.apply_faults_up_to(now);
        match self.mount_of(file) {
            Mount::Nfs | Mount::NfsDirect => {
                match self.clients[node].fsync(&mut self.net, &mut self.server, now, file) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.sync(net, node, now, file) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => self.local[node].fsync(now, file),
            Mount::ServerLocal => self.server.fs_mut().fsync(now, file),
        }
    }

    fn io_meta(
        &mut self,
        now: Time,
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        self.apply_faults_up_to(now);
        // Metadata routes by the *directory's* mount: an mdtest cell
        // registers its working directory once and every verb inside it
        // follows, target files included.
        let end = match self.mount_of(dir) {
            Mount::Nfs | Mount::NfsDirect => {
                match self.clients[node].meta_verb(
                    &mut self.net,
                    &mut self.server,
                    now,
                    verb,
                    dir,
                    target,
                ) {
                    Ok(t) => t,
                    Err(e) => self.note_error(e),
                }
            }
            Mount::Pfs => {
                let net = &mut self.net;
                let pfs = self.pfs.as_mut().expect("PFS not deployed");
                match pfs.meta_verb(net, node, now, verb, dir, target) {
                    Ok(t) => t,
                    Err(e) => self.note_pfs_error(e),
                }
            }
            Mount::Local => match self.local[node].meta((), now, verb, dir, target) {
                Ok(t) => t,
                Err(never) => match never {},
            },
            Mount::ServerLocal => match self.server.fs_mut().meta((), now, verb, dir, target) {
                Ok(t) => t,
                Err(never) => match never {},
            },
        };
        simcore::obs::emit(|| simcore::obs::ObsEvent::MetaOp {
            op: verb.label(),
            start: now,
            end,
        });
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{aohyper_configs, IoConfigBuilder};
    use crate::presets;
    use simcore::{Bandwidth, MIB};

    const F: FileId = FileId(100);

    fn machine() -> ClusterMachine {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration")
    }

    #[test]
    fn nfs_roundtrip_through_machine() {
        let mut m = machine();
        m.mount(F, Mount::Nfs);
        let t = m.io_open(Time::ZERO, 0, F, true);
        let t = m.io_write(t, 0, F, 0, 4 * MIB);
        let t = m.io_close(t, 0, F);
        assert!(t > Time::ZERO);
        assert_eq!(m.server().fs().file_size(F), 4 * MIB);
    }

    #[test]
    fn zero_length_io_is_a_noop_on_every_mount() {
        // Degenerate programs must not cost time, move bytes, or panic
        // (the PFS layer asserts len > 0 as an internal invariant).
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        for mount in [
            Mount::Nfs,
            Mount::NfsDirect,
            Mount::Local,
            Mount::ServerLocal,
            Mount::Pfs,
        ] {
            m.mount(F, mount);
            let t = m.io_open(Time::ZERO, 0, F, true);
            assert_eq!(m.io_write(t, 0, F, 0, 0), t, "{mount:?} write");
            assert_eq!(m.io_read(t, 0, F, 0, 0), t, "{mount:?} read");
        }
    }

    #[test]
    fn local_mount_stays_on_node() {
        let mut m = machine();
        m.mount(F, Mount::Local);
        let t = m.io_open(Time::ZERO, 2, F, true);
        let t = m.io_write(t, 2, F, 0, MIB);
        m.io_sync(t, 2, F);
        assert_eq!(m.local_fs(2).file_size(F), MIB);
        assert_eq!(m.local_fs(0).file_size(F), 0);
        assert_eq!(m.server().fs().file_size(F), 0);
    }

    #[test]
    fn server_local_mount_hits_io_node_directly() {
        let mut m = machine();
        m.mount(F, Mount::ServerLocal);
        let t = m.io_open(Time::ZERO, 0, F, true);
        let t = m.io_write(t, 0, F, 0, MIB);
        let before_msgs = m.network().fabric(TrafficClass::Storage).meter().messages;
        assert_eq!(
            before_msgs, 0,
            "server-local I/O must not touch the network"
        );
        m.io_sync(t, 0, F);
        assert_eq!(m.server().fs().file_size(F), MIB);
    }

    #[test]
    fn different_layouts_build_different_volumes() {
        let spec = presets::aohyper();
        for config in aohyper_configs() {
            let m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
            assert_eq!(m.server().fs().volume_kind(), config.devices.label());
        }
    }

    #[test]
    fn raid5_server_is_faster_than_jbod_server_for_streaming_writes() {
        let spec = presets::aohyper();
        let mut rates = Vec::new();
        for config in [
            IoConfigBuilder::new(DeviceLayout::Jbod)
                .write_cache_mib(0)
                .build(),
            IoConfigBuilder::new(DeviceLayout::raid5_paper()).build(),
        ] {
            let mut m =
                ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
            m.mount(F, Mount::ServerLocal);
            let mut t = m.io_open(Time::ZERO, 0, F, true);
            let start = t;
            let total = 6u64 * 1024 * MIB / 1024; // 6 GiB: beyond server RAM
            let mut off = 0;
            while off < total {
                t = m.io_write(t, 0, F, off, 4 * MIB);
                off += 4 * MIB;
            }
            t = m.io_sync(t, 0, F);
            rates.push(Bandwidth::measured(total, t - start).as_mib_per_sec());
        }
        assert!(
            rates[1] > rates[0] * 2.0,
            "RAID 5 {} vs JBOD {}",
            rates[1],
            rates[0]
        );
    }

    #[test]
    fn preallocate_routes_by_mount() {
        let mut m = machine();
        m.mount(F, Mount::Nfs);
        m.preallocate(F, 2 * MIB);
        assert_eq!(m.server().fs().file_size(F), 2 * MIB);

        let g = FileId(200);
        m.mount(g, Mount::Local);
        m.preallocate(g, MIB);
        assert_eq!(m.local_fs(0).file_size(g), MIB);
        assert_eq!(m.local_fs(3).file_size(g), MIB);
    }

    #[test]
    fn default_mount_is_nfs() {
        let mut m = machine();
        let t = m.io_open(Time::ZERO, 1, FileId(777), true);
        let t = m.io_write(t, 1, FileId(777), 0, MIB);
        // Write-behind: the server sees the data once the client flushes.
        m.io_close(t, 1, FileId(777));
        assert_eq!(m.server().fs().file_size(FileId(777)), MIB);
    }

    #[test]
    fn pfs_mount_routes_to_parallel_fs() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.mount(F, Mount::Pfs);
        let t = m.io_open(Time::ZERO, 3, F, true);
        let t = m.io_write(t, 3, F, 0, 4 * MIB);
        let t = m.io_sync(t, 3, F);
        let t2 = m.io_read(t, 3, F, 0, 4 * MIB);
        assert!(t2 > t);
        assert_eq!(m.pfs().unwrap().servers(), 2);
        assert_eq!(m.pfs().unwrap().meter().writes.bytes(), 4 * MIB);
        // The NFS server never saw the file.
        assert_eq!(m.server().fs().file_size(F), 0);
    }

    #[test]
    #[should_panic(expected = "PFS not deployed")]
    fn pfs_mount_without_deployment_panics() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.mount(F, Mount::Pfs);
        m.io_open(Time::ZERO, 0, F, true);
    }

    #[test]
    fn try_new_rejects_invalid_configs_with_typed_errors() {
        let spec = presets::test_cluster();
        let bad_raid5 = IoConfigBuilder::new(DeviceLayout::Raid5 {
            disks: 2,
            stripe: 256 * 1024,
        })
        .build();
        assert_eq!(
            ClusterMachine::try_new(&spec, &bad_raid5).err(),
            Some(crate::config::ConfigError::TooFewDisks {
                layout: "RAID 5",
                need: 3,
                got: 2
            })
        );
        let bad_stripe = IoConfigBuilder::new(DeviceLayout::Raid0 {
            disks: 2,
            stripe: 0,
        })
        .build();
        assert!(matches!(
            ClusterMachine::try_new(&spec, &bad_stripe),
            Err(crate::config::ConfigError::ZeroStripe { .. })
        ));
        let bad_pfs = IoConfigBuilder::new(DeviceLayout::Jbod)
            .pfs(spec.compute_nodes + 1)
            .build();
        assert!(matches!(
            ClusterMachine::try_new(&spec, &bad_pfs),
            Err(crate::config::ConfigError::TooManyPfsServers { .. })
        ));
        assert!(ClusterMachine::try_new(
            &spec,
            &IoConfigBuilder::new(DeviceLayout::raid5_paper()).build()
        )
        .is_ok());
    }

    /// Streams `total` bytes to the server volume and returns MiB/s.
    fn stream_rate(m: &mut ClusterMachine, total: u64) -> f64 {
        m.mount(F, Mount::ServerLocal);
        let mut t = m.io_open(Time::ZERO, 0, F, true);
        let start = t;
        let mut off = 0;
        while off < total {
            t = m.io_write(t, 0, F, off, 4 * MIB);
            off += 4 * MIB;
        }
        t = m.io_sync(t, 0, F);
        Bandwidth::measured(total, t - start).as_mib_per_sec()
    }

    /// Streams `total` bytes of cold reads from the server volume; MiB/s.
    fn read_rate(m: &mut ClusterMachine, total: u64) -> f64 {
        m.mount(F, Mount::ServerLocal);
        m.preallocate(F, total);
        let mut t = m.io_open(Time::ZERO, 0, F, false);
        let start = t;
        let mut off = 0;
        while off < total {
            t = m.io_read(t, 0, F, off, 4 * MIB);
            off += 4 * MIB;
        }
        Bandwidth::measured(total, t - start).as_mib_per_sec()
    }

    #[test]
    fn injected_disk_failure_degrades_the_raid5_server() {
        let spec = presets::aohyper();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .write_cache_mib(0)
            .build();
        // Cold reads: a degraded array reconstructs the dead member's chunks
        // from all survivors, so read bandwidth drops (writes merely skip
        // the dead member and cost the same).
        let total = 1024 * MIB;

        let mut healthy =
            ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        let healthy_rate = read_rate(&mut healthy, total);
        assert!(healthy.fault_log().is_empty());

        let mut degraded =
            ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        degraded
            .install_faults(FaultSchedule::new(vec![FaultEvent {
                at: Time::ZERO,
                fault: Fault::DiskFail { disk: 2 },
            }]))
            .expect("valid fault schedule");
        let degraded_rate = read_rate(&mut degraded, total);
        assert_eq!(degraded.fault_log().len(), 1);
        assert!(
            degraded_rate < healthy_rate * 0.95,
            "degraded {degraded_rate} must trail healthy {healthy_rate}"
        );
    }

    #[test]
    fn replace_after_failure_triggers_rebuild_through_machine() {
        let spec = presets::aohyper();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .write_cache_mib(0)
            .build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.install_faults(FaultSchedule::new(vec![
            FaultEvent {
                at: Time::from_millis(1),
                fault: Fault::DiskFail { disk: 0 },
            },
            FaultEvent {
                at: Time::from_secs(2),
                fault: Fault::DiskReplace { disk: 0 },
            },
        ]))
        .expect("valid fault schedule");
        let rate = stream_rate(&mut m, 1024 * MIB);
        assert!(rate > 0.0);
        let report = m.rebuild_report().expect("rebuild must have started");
        assert!(report.bytes_total > 0);
        let done = m.finish_rebuild(Time::from_secs(1_000));
        let report = m.rebuild_report().expect("report persists");
        assert!(report.finished.is_some(), "resilver must complete");
        assert_eq!(report.bytes_done, report.bytes_total);
        assert!(done >= Time::from_secs(2));
    }

    #[test]
    fn unsupported_faults_are_logged_not_fatal() {
        let mut m = machine(); // JBOD server
        m.install_faults(FaultSchedule::new(vec![FaultEvent {
            at: Time::ZERO,
            fault: Fault::DiskFail { disk: 0 },
        }]))
        .expect("in-range member of the single-disk JBOD");
        m.mount(F, Mount::Nfs);
        let t = m.io_open(Time::ZERO, 0, F, true);
        assert!(t > Time::ZERO);
        assert_eq!(m.fault_log().len(), 1);
        assert!(
            m.fault_log()[0].1.contains("ignored"),
            "{:?}",
            m.fault_log()
        );
        assert_eq!(m.io_errors(), 0);
    }

    #[test]
    fn long_server_stall_surfaces_as_counted_io_error() {
        let mut m = machine();
        m.mount(F, Mount::Nfs);
        m.preallocate(F, 8 * MIB);
        // 10 min outage: beyond the Linux-TCP retransmission budget
        // (60 s + 120 s + 240 s of timeouts), so the soft mount errors out.
        m.install_faults(FaultSchedule::new(vec![FaultEvent {
            at: Time::ZERO,
            fault: Fault::ServerStall {
                duration: Time::from_secs(600),
            },
        }]))
        .expect("valid fault schedule");
        let t = m.io_read(Time::from_millis(1), 0, F, 0, MIB);
        assert_eq!(m.io_errors(), 1, "log: {:?}", m.fault_log());
        assert!(m.client_retries() >= 2);
        // The failed call consumed its timeout budget but not the outage.
        assert!(t > Time::from_secs(60) && t < Time::from_secs(600));
        // After the outage the same file is readable again.
        let t2 = m.io_read(Time::from_secs(601), 0, F, 0, MIB);
        assert!(t2 > Time::from_secs(601));
        assert_eq!(m.io_errors(), 1);
    }

    /// Streams writes op by op and returns every per-op completion instant
    /// (so a single diverging grant is caught, not just the total).
    fn stream_trace(m: &mut ClusterMachine, total: u64) -> Vec<Time> {
        m.mount(F, Mount::ServerLocal);
        let mut t = m.io_open(Time::ZERO, 0, F, true);
        let mut trace = vec![t];
        let mut off = 0;
        while off < total {
            t = m.io_write(t, 0, F, off, 4 * MIB);
            trace.push(t);
            off += 4 * MIB;
        }
        trace.push(m.io_sync(t, 0, F));
        trace
    }

    #[test]
    fn bulk_fast_path_is_timing_identical_across_a_fault_window() {
        let spec = presets::aohyper();
        let config = IoConfigBuilder::new(DeviceLayout::raid5_paper())
            .write_cache_mib(0)
            .build();
        let faults = || {
            FaultSchedule::new(vec![
                FaultEvent {
                    at: Time::from_secs(2),
                    fault: Fault::DiskSlow {
                        disk: 1,
                        factor: 3.0,
                    },
                },
                FaultEvent {
                    at: Time::from_secs(6),
                    fault: Fault::DiskRecover { disk: 1 },
                },
            ])
        };
        let total = 1024 * MIB;

        let mut fast = ClusterMachine::try_new(&spec, &config).expect("valid config");
        fast.install_faults(faults()).expect("valid fault schedule");
        let fast_trace = stream_trace(&mut fast, total);

        let mut gran = ClusterMachine::try_new(&spec, &config).expect("valid config");
        gran.install_faults(faults()).expect("valid fault schedule");
        gran.server_mut()
            .fs_mut()
            .volume_mut()
            .set_bulk_enabled(false);
        let gran_trace = stream_trace(&mut gran, total);

        assert_eq!(fast_trace, gran_trace, "fast path changed visible timing");
        assert_eq!(fast.fault_log().len(), 2);
        assert_eq!(fast.fault_log(), gran.fault_log());

        let (hits, misses) = fast.server_bulk_stats();
        assert!(hits > 0, "healthy stretch never took the fast path");
        assert!(
            misses > 0,
            "runs near the fault window must fall back to the granular path"
        );
        assert_eq!(gran.server_bulk_stats().0, 0);
    }

    #[test]
    fn install_faults_rejects_out_of_range_disk_member() {
        let mut m = machine(); // JBOD server: exactly one member
        let err = m
            .install_faults(FaultSchedule::new(vec![FaultEvent {
                at: Time::ZERO,
                fault: Fault::DiskFail { disk: 1 },
            }]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::config::ConfigError::FaultDiskOutOfRange {
                disk: 1,
                members: 1
            }
        );
        // The rejected schedule was not installed.
        m.mount(F, Mount::Nfs);
        m.io_open(Time::ZERO, 0, F, true);
        assert!(m.fault_log().is_empty());
    }

    #[test]
    fn install_faults_rejects_pfs_faults_without_a_deployment() {
        let mut m = machine(); // pfs_servers == 0
        let err = m
            .install_faults(FaultSchedule::new(vec![FaultEvent {
                at: Time::ZERO,
                fault: Fault::PfsServerFail { server: 0 },
            }]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::config::ConfigError::FaultPfsServerOutOfRange {
                server: 0,
                servers: 0
            }
        );

        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        let err = m
            .install_faults(FaultSchedule::new(vec![FaultEvent {
                at: Time::ZERO,
                fault: Fault::PfsServerSlow {
                    server: 2,
                    factor: 4.0,
                },
            }]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::config::ConfigError::FaultPfsServerOutOfRange {
                server: 2,
                servers: 2
            }
        ));
    }

    #[test]
    fn install_faults_accepts_pfs_faults_at_time_zero() {
        // Regression: validation is against the *configuration* (deployed
        // server count), not runtime activation state, so a schedule that
        // kills a PFS server at t=0 — before any operation has touched the
        // deployment — must install and then apply on the first op.
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod)
            .pfs(2)
            .pfs_replicas(2)
            .build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.install_faults(FaultSchedule::new(vec![FaultEvent {
            at: Time::ZERO,
            fault: Fault::PfsServerFail { server: 1 },
        }]))
        .expect("t=0 PFS fault on a deployed PFS must install");
        assert!(m.fault_log().is_empty(), "faults apply lazily, not eagerly");
        m.mount(F, Mount::Pfs);
        let t = m.io_open(Time::ZERO, 0, F, true);
        assert!(t > Time::ZERO);
        assert_eq!(m.fault_log().len(), 1, "log: {:?}", m.fault_log());
        assert!(m.fault_log()[0].1.contains("pfs server 1 failed"));
    }

    #[test]
    fn install_faults_reports_the_first_offending_event_in_schedule_order() {
        // Pin the typed-error ordering: with several invalid events in one
        // schedule, the earliest event in schedule order wins — here the
        // out-of-range disk at t=0 masks the out-of-range PFS server at
        // t=1, and swapping instants flips the error.
        let mut m = machine(); // JBOD (1 disk member), no PFS
        let bad_disk = |at| FaultEvent {
            at,
            fault: Fault::DiskFail { disk: 9 },
        };
        let bad_pfs = |at| FaultEvent {
            at,
            fault: Fault::PfsServerFail { server: 0 },
        };
        let err = m
            .install_faults(FaultSchedule::new(vec![
                bad_disk(Time::ZERO),
                bad_pfs(Time::from_secs(1)),
            ]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::config::ConfigError::FaultDiskOutOfRange {
                disk: 9,
                members: 1
            }
        );
        let err = m
            .install_faults(FaultSchedule::new(vec![
                bad_pfs(Time::ZERO),
                bad_disk(Time::from_secs(1)),
            ]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::config::ConfigError::FaultPfsServerOutOfRange {
                server: 0,
                servers: 0
            }
        );
    }

    #[test]
    fn metadata_routes_by_directory_mount() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        let (nfs_dir, pfs_dir, local_dir) = (FileId(500), FileId(510), FileId(520));
        m.mount(nfs_dir, Mount::Nfs);
        m.mount(pfs_dir, Mount::Pfs);
        m.mount(local_dir, Mount::Local);
        // The target file is unregistered; the *directory* decides.
        let t = m.io_meta(Time::ZERO, 0, MetaVerb::Create, nfs_dir, FileId(501));
        assert!(t > Time::ZERO);
        assert_eq!(m.client(0).meter().meta_ops, 1);
        let t = m.io_meta(t, 0, MetaVerb::Create, pfs_dir, FileId(511));
        assert!(t > Time::ZERO);
        assert_eq!(m.pfs().unwrap().meter().meta_ops, 1);
        let before = m.network().fabric(TrafficClass::Storage).meter().messages;
        let t2 = m.io_meta(t, 1, MetaVerb::Create, local_dir, FileId(521));
        assert!(t2 > t);
        assert_eq!(
            m.network().fabric(TrafficClass::Storage).meter().messages,
            before,
            "local metadata must not touch the network"
        );
        assert_eq!(m.local_fs(1).meter().meta_ops, 1);
        assert_eq!(m.io_errors(), 0);
    }

    #[test]
    fn pfs_server_failure_fails_over_and_resyncs_through_machine() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod)
            .pfs(2)
            .pfs_replicas(2)
            .build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.install_faults(FaultSchedule::new(vec![
            FaultEvent {
                at: Time::from_micros(1),
                fault: Fault::PfsServerFail { server: 1 },
            },
            FaultEvent {
                at: Time::from_secs(30),
                fault: Fault::PfsServerRecover { server: 1 },
            },
        ]))
        .expect("valid fault schedule");
        m.mount(F, Mount::Pfs);
        let t = m.io_open(Time::ZERO, 3, F, true);
        // The write hits both servers; server 1 is dead, so its replica
        // spans burn the detection budget and are owed for resync. Every
        // byte still lands on the surviving holder.
        let t = m.io_write(t, 3, F, 0, 4 * MIB);
        assert_eq!(m.pfs().unwrap().meter().writes.bytes(), 4 * MIB);
        assert_eq!(
            m.io_errors(),
            0,
            "degraded, not failed: {:?}",
            m.fault_log()
        );
        assert!(m.client_retries() > 0, "detection retransmissions count");
        // Reads in the outage are served by the survivor (failover).
        let t2 = m.io_read(t, 3, F, 0, 4 * MIB);
        assert!(t2 > t);
        assert!(m.pfs_failovers() > 0, "log: {:?}", m.fault_log());
        // Settle the scheduled recovery: the missed writes are replayed.
        m.apply_faults_up_to(Time::from_secs(31));
        assert!(m.pfs_resync_bytes() > 0, "log: {:?}", m.fault_log());
        assert_eq!(m.pfs().unwrap().resyncs(), 1);
        // Post-recovery the filesystem serves reads again, fault-free.
        let errors = m.io_errors();
        let t3 = m.io_read(Time::from_secs(40), 3, F, 0, 4 * MIB);
        assert!(t3 > Time::from_secs(40));
        assert_eq!(m.io_errors(), errors);
    }

    #[test]
    fn pfs_outage_without_replicas_surfaces_counted_errors() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).pfs(2).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.install_faults(FaultSchedule::new(vec![FaultEvent {
            at: Time::from_micros(1),
            fault: Fault::PfsServerFail { server: 1 },
        }]))
        .expect("valid fault schedule");
        m.mount(F, Mount::Pfs);
        m.preallocate(F, 4 * MIB);
        let t = m.io_open(Time::ZERO, 3, F, false);
        // Unreplicated: spans on the dead server are unavailable; the
        // operation surfaces as a counted, typed error, not a panic.
        let t2 = m.io_read(t.max(Time::from_millis(1)), 3, F, 0, 4 * MIB);
        assert!(t2 > t);
        assert_eq!(m.io_errors(), 1, "log: {:?}", m.fault_log());
        assert!(
            m.fault_log().iter().any(|(_, l)| l.contains("unavailable")),
            "log: {:?}",
            m.fault_log()
        );
    }

    #[test]
    fn network_degradation_slows_mpi_traffic() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        let clean = m.mpi_send(Time::ZERO, 0, 1, 4 * MIB) - Time::ZERO;
        let mut m = ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        m.install_faults(FaultSchedule::new(vec![FaultEvent {
            at: Time::ZERO,
            fault: Fault::NetDegrade {
                class: simcore::NetClass::Mpi,
                drop: 1.0,
                duplicate: 0.0,
            },
        }]))
        .expect("valid fault schedule");
        let lossy = m.mpi_send(Time::ZERO, 0, 1, 4 * MIB) - Time::ZERO;
        assert!(
            lossy.as_secs_f64() > clean.as_secs_f64() * 1.5,
            "lossy {lossy:?} vs clean {clean:?}"
        );
    }

    #[test]
    fn shared_network_couples_mpi_and_storage() {
        let spec = presets::test_cluster();
        let shared = IoConfigBuilder::new(DeviceLayout::Jbod)
            .network(NetworkLayout::Shared)
            .build();
        let m = ClusterMachine::try_new(&spec, &shared).expect("valid cluster configuration");
        assert!(!m.network().is_split());
        let split = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let m = ClusterMachine::try_new(&spec, &split).expect("valid cluster configuration");
        assert!(m.network().is_split());
    }
}
