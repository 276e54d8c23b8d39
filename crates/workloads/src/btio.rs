//! Synthetic NAS BT-IO.
//!
//! BT solves a block-tridiagonal system with a diagonal multi-partitioning:
//! with `P = ncells²` processes each rank owns `ncells` Cartesian cells.
//! Every 5 time steps the whole solution (5 doubles per mesh point) is
//! dumped; after all steps the dumps are read back for verification.
//!
//! Two I/O subtypes (paper §III-A.2):
//!
//! * **full** — MPI-IO with collective buffering: the dump is rearranged so
//!   each rank contributes one contiguous chunk of `dump_size / P` bytes
//!   (class C, 16 procs: 10.1 MiB — paper Table II's "10 MB"; 64 procs:
//!   2.53 MiB — Table V's "2.54 MB").
//! * **simple** — MPI-IO without collective buffering: each rank writes its
//!   x-lines individually. A line holds `5 × 8 × col_dim` bytes where
//!   `col_dim` is the x-extent of the owning cell column; class C/16p gives
//!   the paper's 1600/1640-byte operations, 6561 per rank per dump
//!   (4,199,040 writes overall), class C/64p gives 800/840 bytes.
//!
//! The communication skeleton issues 24 face exchanges per time step —
//! 120 messages between consecutive dumps, matching the paper's trace
//! description of Fig. 8 — plus per-step computation.

use crate::scenario::Scenario;
use cluster::Mount;
use fs::FileId;
use mpisim::{ChunkedStream, MpiOp};
use simcore::Time;

/// NAS problem classes (mesh edge size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BtClass {
    /// 24³ mesh (mini, for tests).
    S,
    /// 64³ mesh.
    A,
    /// 102³ mesh.
    B,
    /// 162³ mesh (the paper's experiments).
    C,
    /// 408³ mesh.
    D,
}

impl BtClass {
    /// Mesh edge length.
    pub fn size(self) -> u64 {
        match self {
            BtClass::S => 24,
            BtClass::A => 64,
            BtClass::B => 102,
            BtClass::C => 162,
            BtClass::D => 408,
        }
    }

    /// Label ("C").
    pub fn label(self) -> &'static str {
        match self {
            BtClass::S => "S",
            BtClass::A => "A",
            BtClass::B => "B",
            BtClass::C => "C",
            BtClass::D => "D",
        }
    }
}

/// The I/O subtype.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BtSubtype {
    /// Collective buffering (`MPI_File_write_at_all`).
    Full,
    /// Independent small strided operations.
    Simple,
}

/// A BT-IO instance.
#[derive(Clone, Debug)]
pub struct BtIo {
    /// Problem class.
    pub class: BtClass,
    /// Number of processes (must be a perfect square).
    pub procs: usize,
    /// I/O subtype.
    pub subtype: BtSubtype,
    /// Output file.
    pub file: FileId,
    /// Mount the file lives on.
    pub mount: Mount,
    /// Number of solution dumps (the benchmark's 200 steps / 5 = 40).
    pub dumps: usize,
    /// Time steps between dumps.
    pub steps_per_dump: usize,
    /// Per-rank compute throughput used to derive per-step compute time.
    pub gflops_per_rank: f64,
    /// Whether the verification read phase runs.
    pub read_phase: bool,
}

impl BtIo {
    /// The paper's configuration for a class/process count.
    pub fn new(class: BtClass, procs: usize, subtype: BtSubtype) -> BtIo {
        let ncells = (procs as f64).sqrt() as usize;
        assert_eq!(ncells * ncells, procs, "BT needs a square process count");
        BtIo {
            class,
            procs,
            subtype,
            file: FileId(0xB710),
            mount: Mount::NfsDirect,
            dumps: 40,
            steps_per_dump: 5,
            gflops_per_rank: 1.0,
            read_phase: true,
        }
    }

    /// Shrinks the run (fewer dumps) for tests.
    pub fn with_dumps(mut self, dumps: usize) -> Self {
        self.dumps = dumps;
        self
    }

    /// Selects the mount.
    pub fn on(mut self, mount: Mount) -> Self {
        self.mount = mount;
        self
    }

    /// Sets per-rank compute speed.
    pub fn gflops(mut self, g: f64) -> Self {
        self.gflops_per_rank = g;
        self
    }

    /// √P: cells per dimension and per rank.
    pub fn ncells(&self) -> u64 {
        (self.procs as f64).sqrt() as u64
    }

    /// x-extents of the cell columns (larger columns first).
    pub fn col_dims(&self) -> Vec<u64> {
        let size = self.class.size();
        let n = self.ncells();
        let base = size / n;
        let extra = size % n;
        (0..n)
            .map(|c| if c < extra { base + 1 } else { base })
            .collect()
    }

    /// Bytes of one x-line in column `c` (5 doubles per point).
    pub fn line_bytes(&self, c: usize) -> u64 {
        5 * 8 * self.col_dims()[c]
    }

    /// Lines per column (one per (y,z) pair).
    pub fn lines_per_col(&self) -> u64 {
        let s = self.class.size();
        s * s
    }

    /// Total lines per dump.
    pub fn lines_per_dump(&self) -> u64 {
        self.lines_per_col() * self.ncells()
    }

    /// Bytes of one complete dump (`40 × size³`).
    pub fn dump_bytes(&self) -> u64 {
        let s = self.class.size();
        5 * 8 * s * s * s
    }

    /// Per-rank contiguous chunk in the *full* subtype.
    pub fn full_chunk(&self, rank: usize) -> (u64, u64) {
        let d = self.dump_bytes();
        let p = self.procs as u64;
        let base = d / p;
        let rem = d % p;
        let r = rank as u64;
        // First `rem` ranks get one extra byte; offsets stay contiguous.
        let offset = r * base + r.min(rem);
        let len = base + if r < rem { 1 } else { 0 };
        (offset, len)
    }

    /// Byte offset of line `l` (global index) within a dump, and its size.
    pub fn line_location(&self, l: u64) -> (u64, u64) {
        let lpc = self.lines_per_col();
        let c = (l / lpc) as usize;
        let j = l % lpc;
        let dims = self.col_dims();
        let mut base = 0u64;
        for (i, &d) in dims.iter().enumerate() {
            if i == c {
                break;
            }
            base += lpc * 5 * 8 * d;
        }
        let sz = 5 * 8 * dims[c];
        (base + j * sz, sz)
    }

    /// Per-step compute time derived from the mesh size and rank speed.
    pub fn step_compute(&self) -> Time {
        let s = self.class.size() as f64;
        let flops = 3000.0 * s * s * s / self.procs as f64;
        Time::from_secs_f64(flops / (self.gflops_per_rank * 1e9))
    }

    /// Face-exchange message size (one cell face of 5 doubles per point).
    pub fn face_bytes(&self) -> u64 {
        let d = self.class.size() / self.ncells();
        5 * 8 * d * d / 5 // one component's face — keeps it under the eager limit
    }

    /// Writes per rank per dump in the simple subtype (paper Table II: 6561
    /// for class C / 16 procs).
    pub fn simple_ops_per_rank_per_dump(&self, rank: usize) -> u64 {
        let total = self.lines_per_dump();
        let p = self.procs as u64;
        total / p + if (rank as u64) < total % p { 1 } else { 0 }
    }

    /// The communication+compute ops of one time step for `rank`: BT's
    /// solver sweeps post nonblocking receives, issue the face sends, and
    /// complete them with `MPI_Waitall` — the "120 messages sent and their
    /// respective Wait and Wait All" visible in the paper's Fig. 8 traces.
    fn step_ops(&self, rank: usize, step_id: usize, out: &mut Vec<MpiOp>) {
        out.push(MpiOp::Compute(self.step_compute()));
        let p = self.procs;
        if p < 2 {
            return;
        }
        let face = self.face_bytes();
        // Three solver sweeps of 8 exchanges each (= 24 messages/step).
        for sweep in 0..3usize {
            for m in 0..8usize {
                let idx = step_id * 24 + sweep * 8 + m;
                let k = 1 + idx % (p - 1);
                let dst = (rank + k) % p;
                let src = (rank + p - k % p) % p;
                let tag = idx as u32;
                out.push(MpiOp::Irecv { src, tag });
                out.push(MpiOp::Isend {
                    dst,
                    bytes: face,
                    tag,
                });
            }
            out.push(MpiOp::WaitAll);
        }
    }

    /// The I/O ops of dump `d` for `rank` (write or read direction).
    fn dump_io_ops(&self, rank: usize, d: usize, write: bool, out: &mut Vec<MpiOp>) {
        let file = self.file;
        let dump_base = d as u64 * self.dump_bytes();
        match self.subtype {
            BtSubtype::Full => {
                let (off, len) = self.full_chunk(rank);
                let offset = dump_base + off;
                out.push(if write {
                    MpiOp::WriteAtAll { file, offset, len }
                } else {
                    MpiOp::ReadAtAll { file, offset, len }
                });
            }
            BtSubtype::Simple => {
                let p = self.procs as u64;
                let total = self.lines_per_dump();
                let mut l = rank as u64;
                out.reserve(total.saturating_sub(l).div_ceil(p) as usize);
                while l < total {
                    let (off, len) = self.line_location(l);
                    let offset = dump_base + off;
                    out.push(if write {
                        MpiOp::WriteAt { file, offset, len }
                    } else {
                        MpiOp::ReadAt { file, offset, len }
                    });
                    l += p;
                }
            }
        }
    }

    /// Builds the scenario: open → (compute/comm, dump)×`dumps` → barrier →
    /// close/reopen → read-back → close.
    pub fn scenario(&self) -> Scenario {
        let mut programs: Vec<Box<dyn mpisim::OpStream>> = Vec::with_capacity(self.procs);
        for rank in 0..self.procs {
            let this = self.clone();
            // Chunks: 0 = open; 1..=dumps = solve+write; dumps+1 = fence;
            // dumps+2..=2*dumps+1 = read-back; 2*dumps+2 = close.
            let dumps = self.dumps;
            let read_phase = self.read_phase;
            let chunks = if read_phase { 2 * dumps + 3 } else { dumps + 2 };
            let gen = move |chunk: usize| -> Vec<MpiOp> {
                let file = this.file;
                let mut out = Vec::new();
                if chunk == 0 {
                    out.push(MpiOp::FileOpen { file, create: true });
                    out.push(MpiOp::Marker(0)); // write phase marker
                } else if chunk <= dumps {
                    let d = chunk - 1;
                    for s in 0..this.steps_per_dump {
                        this.step_ops(rank, d * this.steps_per_dump + s, &mut out);
                    }
                    this.dump_io_ops(rank, d, true, &mut out);
                } else if chunk == dumps + 1 {
                    out.push(MpiOp::Barrier);
                    out.push(MpiOp::FileClose { file });
                    if read_phase {
                        out.push(MpiOp::FileOpen {
                            file,
                            create: false,
                        });
                        out.push(MpiOp::Marker(1)); // read phase marker
                    }
                } else if chunk <= 2 * dumps + 1 {
                    let d = chunk - dumps - 2;
                    this.dump_io_ops(rank, d, false, &mut out);
                } else {
                    out.push(MpiOp::FileClose { file });
                }
                out
            };
            programs.push(Box::new(ChunkedStream::new(chunks, gen)));
        }
        Scenario {
            name: format!(
                "NAS BT-IO class {} {:?} {} procs",
                self.class.label(),
                self.subtype,
                self.procs
            ),
            programs,
            mounts: vec![(self.file, self.mount)],
            prealloc: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_c_16_matches_paper_table_2() {
        let bt = BtIo::new(BtClass::C, 16, BtSubtype::Full);
        // 10 MB collective chunks.
        let (_, len) = bt.full_chunk(0);
        assert_eq!(len, 10_628_820);
        // 640 writes across all ranks (40 per rank).
        assert_eq!(bt.dumps * 16, 640);

        let bt = BtIo::new(BtClass::C, 16, BtSubtype::Simple);
        // 6561 writes per rank per dump → 4,199,040 total writes.
        assert_eq!(bt.simple_ops_per_rank_per_dump(0), 6561);
        let total: u64 = (0..16)
            .map(|r| bt.simple_ops_per_rank_per_dump(r) * bt.dumps as u64)
            .sum();
        assert_eq!(total, 4_199_040);
        // Line sizes 1600 and 1640 bytes.
        let dims = bt.col_dims();
        assert_eq!(dims, vec![41, 41, 40, 40]);
        assert_eq!(bt.line_bytes(0), 1640);
        assert_eq!(bt.line_bytes(3), 1600);
    }

    #[test]
    fn class_c_64_matches_paper_table_5() {
        let bt = BtIo::new(BtClass::C, 64, BtSubtype::Full);
        let (_, len) = bt.full_chunk(0);
        assert_eq!(len, 2_657_205); // "2.54 MB"
        let bt = BtIo::new(BtClass::C, 64, BtSubtype::Simple);
        let dims = bt.col_dims();
        assert_eq!(dims.iter().sum::<u64>(), 162);
        assert_eq!(bt.line_bytes(0), 840); // 21-point columns
        assert_eq!(bt.line_bytes(7), 800); // 20-point columns
                                           // Ranks get 3280 or 3281 lines per dump.
        let ops0 = bt.simple_ops_per_rank_per_dump(0);
        let ops63 = bt.simple_ops_per_rank_per_dump(63);
        assert_eq!(ops0, 3281);
        assert_eq!(ops63, 3280);
    }

    #[test]
    fn dump_bytes_is_40_cubed_rule() {
        let bt = BtIo::new(BtClass::C, 16, BtSubtype::Full);
        assert_eq!(bt.dump_bytes(), 40 * 162 * 162 * 162);
    }

    #[test]
    fn full_chunks_partition_the_dump() {
        let bt = BtIo::new(BtClass::C, 16, BtSubtype::Full);
        let mut covered = 0u64;
        let mut expected_off = 0u64;
        for r in 0..16 {
            let (off, len) = bt.full_chunk(r);
            assert_eq!(off, expected_off, "chunks must be contiguous");
            expected_off += len;
            covered += len;
        }
        assert_eq!(covered, bt.dump_bytes());
    }

    #[test]
    fn simple_lines_partition_the_dump() {
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Simple);
        let mut bytes = 0u64;
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..bt.lines_per_dump() {
            let (off, sz) = bt.line_location(l);
            assert!(seen.insert(off), "line offsets must be unique");
            bytes += sz;
        }
        assert_eq!(bytes, bt.dump_bytes());
    }

    #[test]
    fn face_messages_stay_eager() {
        let bt = BtIo::new(BtClass::C, 16, BtSubtype::Full);
        assert!(bt.face_bytes() < 64 * 1024, "face {}", bt.face_bytes());
    }

    #[test]
    fn program_has_120_messages_per_write_phase_at_16_procs() {
        let bt = BtIo::new(BtClass::S, 16, BtSubtype::Full).with_dumps(1);
        let mut sc = bt.scenario();
        let mut sends = 0;
        let mut waits = 0;
        let mut writes = 0;
        while let Some(op) = sc.programs[0].next_op() {
            match op {
                MpiOp::Isend { .. } => sends += 1,
                MpiOp::WaitAll => waits += 1,
                MpiOp::WriteAtAll { .. } => writes += 1,
                _ => {}
            }
        }
        assert_eq!(sends, 120, "120 messages before each write (paper Fig. 8)");
        assert_eq!(waits, 15, "three WaitAlls per step, five steps per dump");
        assert_eq!(writes, 1);
    }

    #[test]
    fn scenario_op_counts_match_geometry() {
        let bt = BtIo::new(BtClass::S, 4, BtSubtype::Simple).with_dumps(2);
        let per_dump = bt.simple_ops_per_rank_per_dump(0);
        let mut sc = bt.scenario();
        let mut writes = 0u64;
        let mut reads = 0u64;
        let mut opens = 0;
        while let Some(op) = sc.programs[0].next_op() {
            match op {
                MpiOp::WriteAt { .. } => writes += 1,
                MpiOp::ReadAt { .. } => reads += 1,
                MpiOp::FileOpen { .. } => opens += 1,
                _ => {}
            }
        }
        assert_eq!(writes, per_dump * 2);
        assert_eq!(reads, per_dump * 2);
        assert_eq!(opens, 2, "write-phase open + read-phase reopen");
    }

    #[test]
    #[should_panic(expected = "square process count")]
    fn non_square_process_count_rejected() {
        BtIo::new(BtClass::C, 10, BtSubtype::Full);
    }

    #[test]
    fn step_compute_scales_with_procs() {
        let t16 = BtIo::new(BtClass::C, 16, BtSubtype::Full).step_compute();
        let t64 = BtIo::new(BtClass::C, 64, BtSubtype::Full).step_compute();
        assert!(t16 > t64 * 3);
    }
}
