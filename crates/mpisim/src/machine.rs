//! The machine abstraction the runtime executes against.

use fs::{FileId, MetaVerb};
use netsim::NodeId;
use simcore::Time;

/// Everything the MPI runtime needs from the underlying cluster: message
/// transport and per-node file I/O. The `cluster` crate provides the real
/// implementation (routing file ids to local mounts or NFS); tests use
/// synthetic machines.
///
/// All methods take and return absolute simulation times; the runtime
/// guarantees nondecreasing invocation times, which keeps the timeline
/// resources inside implementations exact.
pub trait Machine {
    /// Number of nodes.
    fn nodes(&self) -> usize;

    /// Delivers `bytes` from `from` to `to` over the MPI network; returns
    /// the delivery instant at the receiver.
    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time;

    /// Opens (or creates) `file` from `node`; returns completion.
    fn io_open(&mut self, now: Time, node: NodeId, file: FileId, create: bool) -> Time;

    /// Closes `file` from `node`; returns completion (an NFS mount flushes
    /// here — close-to-open semantics).
    fn io_close(&mut self, now: Time, node: NodeId, file: FileId) -> Time;

    /// Reads from `file`; returns when the data is available on `node`.
    fn io_read(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time;

    /// Writes to `file`; returns when the writer may continue on `node`.
    fn io_write(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time;

    /// Forces `file` durable; returns the durable instant.
    fn io_sync(&mut self, now: Time, node: NodeId, file: FileId) -> Time;

    /// Performs an mdtest-class metadata verb on `target` inside `dir`
    /// from `node`; returns completion. Machines without a dedicated
    /// metadata path (synthetic test machines) default to the cost of a
    /// non-creating open.
    fn io_meta(
        &mut self,
        now: Time,
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        let _ = (verb, dir);
        self.io_open(now, node, target, false)
    }

    /// Whether op costs are *rank-invariant*: independent of other
    /// ranks' activity, of the node and of the file offset. The runtime
    /// does not consult it. It stays on the trait only because perfbench's
    /// `TimedMachine` forwards it, and it goes when that wrapper does.
    fn rank_invariant(&self) -> bool {
        false
    }

    /// Equivalence class of `node`: two nodes in one class promise
    /// identical op costs. Like [`Machine::rank_invariant`], the runtime
    /// does not consult it, and it goes with perfbench's `TimedMachine`.
    fn node_class(&self, node: NodeId) -> u64 {
        let _ = node;
        0
    }
}

/// A synthetic machine with fixed costs, for runtime unit tests.
#[derive(Clone, Debug)]
pub struct FixedMachine {
    /// Node count.
    pub node_count: usize,
    /// Cost of delivering any message.
    pub msg_cost: Time,
    /// Cost per byte of I/O (as a rate denominator in ns/byte).
    pub io_ns_per_byte: u64,
    /// Fixed per-I/O-op cost.
    pub io_fixed: Time,
}

impl FixedMachine {
    /// A machine with easy-to-reason-about costs.
    pub fn new(node_count: usize) -> FixedMachine {
        FixedMachine {
            node_count,
            msg_cost: Time::from_micros(100),
            io_ns_per_byte: 10, // 100 MB/s
            io_fixed: Time::from_micros(50),
        }
    }

    fn io_cost(&self, len: u64) -> Time {
        self.io_fixed + Time::from_nanos(len * self.io_ns_per_byte)
    }
}

impl Machine for FixedMachine {
    fn nodes(&self) -> usize {
        self.node_count
    }

    fn mpi_send(&mut self, now: Time, _from: NodeId, _to: NodeId, _bytes: u64) -> Time {
        now + self.msg_cost
    }

    fn io_open(&mut self, now: Time, _node: NodeId, _file: FileId, _create: bool) -> Time {
        now + self.io_fixed
    }

    fn io_close(&mut self, now: Time, _node: NodeId, _file: FileId) -> Time {
        now + self.io_fixed
    }

    fn io_read(&mut self, now: Time, _node: NodeId, _file: FileId, _offset: u64, len: u64) -> Time {
        now + self.io_cost(len)
    }

    fn io_write(
        &mut self,
        now: Time,
        _node: NodeId,
        _file: FileId,
        _offset: u64,
        len: u64,
    ) -> Time {
        now + self.io_cost(len)
    }

    fn io_sync(&mut self, now: Time, _node: NodeId, _file: FileId) -> Time {
        now + self.io_fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_machine_costs() {
        let mut m = FixedMachine::new(4);
        assert_eq!(m.nodes(), 4);
        let t = m.mpi_send(Time::ZERO, 0, 1, 1000);
        assert_eq!(t, Time::from_micros(100));
        let t = m.io_write(Time::ZERO, 0, FileId(1), 0, 1000);
        assert_eq!(t, Time::from_micros(50) + Time::from_micros(10));
    }
}
