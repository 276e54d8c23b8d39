//! An IOR-like MPI-IO benchmark.
//!
//! IOR writes (then reads) a shared file: each of N ranks owns a contiguous
//! *block* and moves it in *transfer*-sized units through the I/O library.
//! The paper configures it with "32GB size of file on RAID configurations
//! and 12 GB on JBOD, from 1MB to 1024MB block size and transfer block size
//! of 256KB ... launched with 8 processes" to characterize the library
//! level (Figs. 6/14).

use crate::scenario::Scenario;
use cluster::Mount;
use fs::FileId;
use mpisim::{ChainStream, GenStream, MpiOp, VecStream};

/// Direction of one IOR pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IorOp {
    /// Write pass.
    Write,
    /// Read pass.
    Read,
}

/// An IOR run description.
#[derive(Clone, Debug)]
pub struct Ior {
    /// Number of ranks.
    pub ranks: usize,
    /// Target file.
    pub file: FileId,
    /// Contiguous bytes owned by each rank.
    pub block: u64,
    /// Transfer unit.
    pub transfer: u64,
    /// Whether to use collective (`_at_all`) operations.
    pub collective: bool,
    /// Direction.
    pub op: IorOp,
    /// Mount under test.
    pub mount: Mount,
}

impl Ior {
    /// An independent-I/O IOR over NFS with the paper's 256 KiB transfers.
    pub fn new(ranks: usize, file: FileId, block: u64, op: IorOp) -> Ior {
        assert!(ranks > 0 && block > 0);
        Ior {
            ranks,
            file,
            block,
            transfer: 256 * 1024,
            collective: false,
            op,
            mount: Mount::NfsDirect,
        }
    }

    /// Switches to collective operations.
    pub fn collective(mut self) -> Self {
        self.collective = true;
        self
    }

    /// Selects the mount under test.
    pub fn on(mut self, mount: Mount) -> Self {
        self.mount = mount;
        self
    }

    /// Total file size (`ranks × block`).
    pub fn file_size(&self) -> u64 {
        self.ranks as u64 * self.block
    }

    /// Transfers per rank.
    pub fn transfers_per_rank(&self) -> u64 {
        self.block.div_ceil(self.transfer)
    }

    /// Builds the scenario.
    pub fn scenario(&self) -> Scenario {
        let is_write = self.op == IorOp::Write;
        let mut programs: Vec<Box<dyn mpisim::OpStream>> = Vec::with_capacity(self.ranks);
        for r in 0..self.ranks {
            let base = r as u64 * self.block;
            let file = self.file;
            let transfer = self.transfer;
            let block = self.block;
            let collective = self.collective;
            let n = self.transfers_per_rank() as usize;
            let head = VecStream::new(vec![MpiOp::FileOpen {
                file,
                create: is_write,
            }]);
            let body = GenStream::new(n, move |i| {
                let offset = base + i as u64 * transfer;
                let len = transfer.min(block - i as u64 * transfer);
                match (is_write, collective) {
                    (true, false) => MpiOp::WriteAt { file, offset, len },
                    (true, true) => MpiOp::WriteAtAll { file, offset, len },
                    (false, false) => MpiOp::ReadAt { file, offset, len },
                    (false, true) => MpiOp::ReadAtAll { file, offset, len },
                }
            });
            let tail_ops = if is_write {
                vec![MpiOp::FileSync { file }, MpiOp::FileClose { file }]
            } else {
                vec![MpiOp::FileClose { file }]
            };
            let tail = VecStream::new(tail_ops);
            programs.push(Box::new(ChainStream::new(vec![
                Box::new(head),
                Box::new(body),
                Box::new(tail),
            ])));
        }
        Scenario {
            name: format!(
                "IOR {:?} {} ranks, block {}, xfer {}{}",
                self.op,
                self.ranks,
                simcore::fmt_bytes(self.block),
                simcore::fmt_bytes(self.transfer),
                if self.collective { ", collective" } else { "" }
            ),
            programs,
            mounts: vec![(self.file, self.mount)],
            prealloc: if is_write {
                Vec::new()
            } else {
                vec![(self.file, self.file_size())]
            },
        }
    }
}

/// The paper's block-size sweep: 1 MiB to 1024 MiB in powers of two.
pub fn paper_block_sweep() -> Vec<u64> {
    let mut v = Vec::new();
    let mut b = 1024 * 1024u64;
    while b <= 1024 * 1024 * 1024 {
        v.push(b);
        b *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::OpStream;
    use simcore::MIB;

    fn drain(s: &mut Box<dyn OpStream>) -> Vec<MpiOp> {
        let mut v = Vec::new();
        while let Some(op) = s.next_op() {
            v.push(op);
        }
        v
    }

    #[test]
    fn block_sweep_spans_1m_to_1g() {
        let s = paper_block_sweep();
        assert_eq!(s.first(), Some(&MIB));
        assert_eq!(s.last(), Some(&(1024 * MIB)));
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn ranks_own_disjoint_contiguous_blocks() {
        let ior = Ior::new(4, FileId(9), 4 * MIB, IorOp::Write);
        let mut sc = ior.scenario();
        assert_eq!(sc.ranks(), 4);
        for (r, program) in sc.programs.iter_mut().enumerate() {
            let ops = drain(program);
            let writes: Vec<(u64, u64)> = ops
                .iter()
                .filter_map(|op| match op {
                    MpiOp::WriteAt { offset, len, .. } => Some((*offset, *len)),
                    _ => None,
                })
                .collect();
            assert_eq!(writes.len(), 16, "4 MiB / 256 KiB transfers");
            assert_eq!(writes[0].0, r as u64 * 4 * MIB);
            let total: u64 = writes.iter().map(|(_, l)| l).sum();
            assert_eq!(total, 4 * MIB);
        }
    }

    #[test]
    fn collective_variant_uses_all_ops() {
        let ior = Ior::new(2, FileId(9), MIB, IorOp::Write).collective();
        let mut sc = ior.scenario();
        let ops = drain(&mut sc.programs[0]);
        assert!(ops.iter().any(|op| matches!(op, MpiOp::WriteAtAll { .. })));
        assert!(!ops.iter().any(|op| matches!(op, MpiOp::WriteAt { .. })));
    }

    #[test]
    fn read_run_preallocates_whole_file() {
        let ior = Ior::new(8, FileId(9), 2 * MIB, IorOp::Read);
        let sc = ior.scenario();
        assert_eq!(sc.prealloc, vec![(FileId(9), 16 * MIB)]);
        let mut sc = Ior::new(8, FileId(9), 2 * MIB, IorOp::Read).scenario();
        let ops = drain(&mut sc.programs[7]);
        assert!(ops.iter().any(|op| matches!(op, MpiOp::ReadAt { .. })));
        // Read pass does not fsync.
        assert!(!ops.iter().any(|op| matches!(op, MpiOp::FileSync { .. })));
    }

    #[test]
    fn last_transfer_handles_non_multiple_blocks() {
        let ior = Ior::new(1, FileId(9), MIB + 100 * 1024, IorOp::Write);
        let mut sc = ior.scenario();
        let ops = drain(&mut sc.programs[0]);
        let lens: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                MpiOp::WriteAt { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        assert_eq!(lens.iter().sum::<u64>(), MIB + 100 * 1024);
        assert_eq!(*lens.last().unwrap(), 100 * 1024);
    }
}
