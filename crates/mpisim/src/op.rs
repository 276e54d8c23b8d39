//! MPI operation programs.

use fs::{FileId, MetaVerb};
use simcore::obs::TraceKind;
use simcore::Time;

/// A rank index within `MPI_COMM_WORLD`.
pub type Rank = usize;

/// One MPI (or MPI-IO) primitive executed by a rank.
///
/// The set corresponds to what the paper's extended PAS2P tracing captures:
/// computation, communication and "all I/O primitives of the MPI-2
/// standard" relevant to the studied benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiOp {
    /// Local computation for the given duration.
    Compute(Time),
    /// Point-to-point send to `dst` with a matching tag.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Message payload size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Blocking receive from `src` with a matching tag.
    Recv {
        /// Source rank.
        src: Rank,
        /// Match tag.
        tag: u32,
    },
    /// Nonblocking send (`MPI_Isend`): never blocks; completion is awaited
    /// by the next [`MpiOp::WaitAll`].
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Message payload size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Nonblocking receive (`MPI_Irecv`): posts the receive and continues;
    /// completion is awaited by the next [`MpiOp::WaitAll`].
    Irecv {
        /// Source rank.
        src: Rank,
        /// Match tag.
        tag: u32,
    },
    /// Completes every outstanding nonblocking operation of this rank
    /// (`MPI_Waitall` over all requests, as BT's solver issues it).
    WaitAll,
    /// Synchronize all ranks.
    Barrier,
    /// Broadcast `bytes` from `root` to all ranks (binomial tree).
    Bcast {
        /// Source rank.
        root: Rank,
        /// Payload size.
        bytes: u64,
    },
    /// All-reduce `bytes` across all ranks (reduce-to-root + broadcast).
    Allreduce {
        /// Per-rank contribution size.
        bytes: u64,
    },
    /// Open (optionally create) a file.
    FileOpen {
        /// Target file.
        file: FileId,
        /// Whether the file is created/truncated.
        create: bool,
    },
    /// Close a file.
    FileClose {
        /// Target file.
        file: FileId,
    },
    /// Independent write at an explicit offset (`MPI_File_write_at`).
    WriteAt {
        /// Target file.
        file: FileId,
        /// File offset in bytes.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Independent read at an explicit offset (`MPI_File_read_at`).
    ReadAt {
        /// Target file.
        file: FileId,
        /// File offset in bytes.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Collective write with collective buffering
    /// (`MPI_File_write_at_all`); every world rank must call it.
    WriteAtAll {
        /// Target file.
        file: FileId,
        /// This rank's file offset.
        offset: u64,
        /// This rank's contribution length.
        len: u64,
    },
    /// Collective read (`MPI_File_read_at_all`).
    ReadAtAll {
        /// Target file.
        file: FileId,
        /// This rank's file offset.
        offset: u64,
        /// This rank's length.
        len: u64,
    },
    /// Flush a file to stable storage (`MPI_File_sync`).
    FileSync {
        /// Target file.
        file: FileId,
    },
    /// An mdtest-class metadata operation (create/stat/unlink/mkdir/
    /// readdir) against a directory's namespace entry.
    Meta {
        /// The metadata verb.
        verb: MetaVerb,
        /// Containing directory (routes the op to the directory's mount).
        dir: FileId,
        /// File the verb acts on (the directory itself for mkdir/readdir).
        file: FileId,
    },
    /// A named section marker recorded in the trace (used by workloads to
    /// label phases like MADbench2's S/W/C functions). No simulated cost.
    Marker(u32),
}

impl MpiOp {
    /// How the primitive is traced, or `None` for [`MpiOp::Irecv`]: a
    /// posted receive is reported by the [`MpiOp::WaitAll`] completing it.
    pub(crate) fn trace_kind(self) -> Option<TraceKind> {
        Some(match self {
            MpiOp::Compute(_) => TraceKind::Compute,
            MpiOp::Send { dst, bytes, .. } | MpiOp::Isend { dst, bytes, .. } => TraceKind::Send {
                dst: dst as u32,
                bytes,
            },
            MpiOp::Recv { src, .. } => TraceKind::Recv { src: src as u32 },
            MpiOp::Irecv { .. } => return None,
            MpiOp::WaitAll => TraceKind::Wait,
            MpiOp::Barrier => TraceKind::Barrier,
            MpiOp::Bcast { root, bytes } => TraceKind::Bcast {
                root: root as u32,
                bytes,
            },
            MpiOp::Allreduce { bytes } => TraceKind::Allreduce { bytes },
            MpiOp::FileOpen { file, create } => TraceKind::Open {
                file: file.0,
                create,
            },
            MpiOp::FileClose { file } => TraceKind::Close { file: file.0 },
            MpiOp::FileSync { file } => TraceKind::Sync { file: file.0 },
            MpiOp::WriteAt { file, offset, len } | MpiOp::WriteAtAll { file, offset, len } => {
                TraceKind::Write {
                    file: file.0,
                    offset,
                    len,
                    collective: matches!(self, MpiOp::WriteAtAll { .. }),
                }
            }
            MpiOp::ReadAt { file, offset, len } | MpiOp::ReadAtAll { file, offset, len } => {
                TraceKind::Read {
                    file: file.0,
                    offset,
                    len,
                    collective: matches!(self, MpiOp::ReadAtAll { .. }),
                }
            }
            MpiOp::Meta { verb, dir, file } => TraceKind::Meta {
                verb,
                dir: dir.0,
                file: file.0,
            },
            MpiOp::Marker(id) => TraceKind::Marker(id),
        })
    }
}

/// A symmetry fingerprint asserted by a workload generator over a rank
/// program (see [`SignedStream`]).
///
/// Two programs carrying the same signature promise to be *identical
/// modulo rank-indexed offsets*: the same sequence of op kinds, the same
/// durations, files and lengths, with only `offset` fields (and `Meta`
/// targets) allowed to differ per rank. The signature further promises
/// that the program contains only *collapse-safe* ops — no point-to-point
/// messaging, no collectives other than `Barrier`, nothing whose cost
/// couples ranks outside a barrier. The collapsed executor trusts this
/// assertion and panics if stepping ever contradicts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamSignature {
    /// Fingerprint of the rank-independent program shape.
    pub fingerprint: u64,
    /// Number of operations in the program.
    pub ops: u64,
}

impl StreamSignature {
    /// Builds a signature from a textual description of the program shape
    /// (generator name plus every rank-independent parameter) and the op
    /// count. The description must *not* include rank-indexed values.
    pub fn from_shape(shape: &str, ops: u64) -> StreamSignature {
        // FNV-1a: stable, dependency-free, collision-safe enough for the
        // handful of distinct program shapes alive in one run.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in shape.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StreamSignature {
            fingerprint: h,
            ops,
        }
    }
}

/// A lazily generated stream of operations for one rank.
///
/// Implemented by workload generators so multi-million-op programs never
/// materialize in memory.
pub trait OpStream {
    /// The next operation, or `None` when the rank's program ends.
    fn next_op(&mut self) -> Option<MpiOp>;

    /// The program's symmetry signature, if the generator can assert one
    /// (see [`StreamSignature`]). `None` — the default — means the runtime
    /// must execute this rank granularly.
    fn signature(&self) -> Option<StreamSignature> {
        None
    }
}

/// An [`OpStream`] wrapper carrying a [`StreamSignature`] asserted by the
/// workload generator that built it.
pub struct SignedStream {
    inner: Box<dyn OpStream>,
    sig: StreamSignature,
}

impl SignedStream {
    /// Attaches `sig` to `inner`. The caller vouches for the signature's
    /// contract; the collapsed executor panics on any violation it can
    /// observe.
    pub fn new(inner: Box<dyn OpStream>, sig: StreamSignature) -> SignedStream {
        SignedStream { inner, sig }
    }
}

impl OpStream for SignedStream {
    fn next_op(&mut self) -> Option<MpiOp> {
        self.inner.next_op()
    }

    fn signature(&self) -> Option<StreamSignature> {
        Some(self.sig)
    }
}

/// An [`OpStream`] over a pre-built vector.
pub struct VecStream {
    ops: std::vec::IntoIter<MpiOp>,
}

impl VecStream {
    /// Wraps `ops` as a stream.
    pub fn new(ops: Vec<MpiOp>) -> VecStream {
        VecStream {
            ops: ops.into_iter(),
        }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<MpiOp> {
        self.ops.next()
    }
}

impl From<Vec<MpiOp>> for VecStream {
    fn from(ops: Vec<MpiOp>) -> Self {
        VecStream::new(ops)
    }
}

/// An [`OpStream`] produced by a closure from the op index.
pub struct GenStream<F> {
    len: usize,
    pos: usize,
    gen: F,
}

impl<F: FnMut(usize) -> MpiOp> GenStream<F> {
    /// A stream of `len` operations generated by `gen(index)`.
    pub fn new(len: usize, gen: F) -> GenStream<F> {
        GenStream { len, pos: 0, gen }
    }
}

impl<F: FnMut(usize) -> MpiOp> OpStream for GenStream<F> {
    fn next_op(&mut self) -> Option<MpiOp> {
        if self.pos >= self.len {
            return None;
        }
        let op = (self.gen)(self.pos);
        self.pos += 1;
        Some(op)
    }
}

/// Concatenates several op streams into one.
pub struct ChainStream {
    parts: Vec<Box<dyn OpStream>>,
    idx: usize,
}

impl ChainStream {
    /// A stream yielding all of `parts` in order.
    pub fn new(parts: Vec<Box<dyn OpStream>>) -> ChainStream {
        ChainStream { parts, idx: 0 }
    }
}

impl OpStream for ChainStream {
    fn next_op(&mut self) -> Option<MpiOp> {
        while self.idx < self.parts.len() {
            if let Some(op) = self.parts[self.idx].next_op() {
                return Some(op);
            }
            self.idx += 1;
        }
        None
    }
}

/// An [`OpStream`] that materializes one *chunk* of operations at a time.
///
/// Workloads with millions of operations (BT-IO *simple*) generate each
/// phase (a few thousand ops) on demand via `gen(chunk_index)` instead of
/// building the whole program; memory stays bounded by the largest chunk.
pub struct ChunkedStream<F> {
    chunks: usize,
    next_chunk: usize,
    cur: std::vec::IntoIter<MpiOp>,
    gen: F,
}

impl<F: FnMut(usize) -> Vec<MpiOp>> ChunkedStream<F> {
    /// A stream over `chunks` chunks produced by `gen(index)`.
    pub fn new(chunks: usize, gen: F) -> ChunkedStream<F> {
        ChunkedStream {
            chunks,
            next_chunk: 0,
            cur: Vec::new().into_iter(),
            gen,
        }
    }
}

impl<F: FnMut(usize) -> Vec<MpiOp>> OpStream for ChunkedStream<F> {
    fn next_op(&mut self) -> Option<MpiOp> {
        loop {
            if let Some(op) = self.cur.next() {
                return Some(op);
            }
            if self.next_chunk >= self.chunks {
                return None;
            }
            let chunk = (self.gen)(self.next_chunk);
            self.next_chunk += 1;
            self.cur = chunk.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = VecStream::new(vec![MpiOp::Barrier, MpiOp::Marker(7)]);
        assert_eq!(s.next_op(), Some(MpiOp::Barrier));
        assert_eq!(s.next_op(), Some(MpiOp::Marker(7)));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn gen_stream_generates_lazily() {
        let mut s = GenStream::new(3, |i| MpiOp::Compute(Time::from_nanos(i as u64)));
        assert_eq!(s.next_op(), Some(MpiOp::Compute(Time::from_nanos(0))));
        assert_eq!(s.next_op(), Some(MpiOp::Compute(Time::from_nanos(1))));
        assert_eq!(s.next_op(), Some(MpiOp::Compute(Time::from_nanos(2))));
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn chunked_stream_concatenates_chunks() {
        let mut s = ChunkedStream::new(3, |c| {
            if c == 1 {
                vec![] // empty chunks are skipped transparently
            } else {
                vec![MpiOp::Marker(c as u32), MpiOp::Barrier]
            }
        });
        assert_eq!(s.next_op(), Some(MpiOp::Marker(0)));
        assert_eq!(s.next_op(), Some(MpiOp::Barrier));
        assert_eq!(s.next_op(), Some(MpiOp::Marker(2)));
        assert_eq!(s.next_op(), Some(MpiOp::Barrier));
        assert_eq!(s.next_op(), None);
    }
}
