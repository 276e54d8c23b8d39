//! RPC trains (DESIGN §5e.6): the memory an [`NfsClient`] keeps of a run
//! of RPCs while it watches for a steady state, and what it needs to jump
//! whole periods of one at once.
//!
//! [`NfsClient`]: crate::NfsClient

use crate::file::FileId;
use crate::local::{Frontier, LocalFs, ReadTrace, VolumeFront};
use netsim::Sent;
use simcore::Time;
use storage::TimedRead;

/// The longest steady-state period, in RPCs, an RPC train detects, and
/// how many RPCs it remembers.
const MAX_PERIOD: usize = 64;

/// Slots of the table of where each state signature was last seen.
const SEEN: usize = 64;

/// The fewest RPCs a jump skips: a shorter one costs more than it saves.
pub(crate) const MIN_JUMP: u64 = 8;

/// RPCs a run is watched for a steady state after it starts or jumps: a
/// run that finds none by then rarely finds one later (RAID 5 reads, whose
/// period exceeds `MAX_PERIOD`), and its RPCs run without the watching.
pub(crate) const WATCH: u64 = 4 * MAX_PERIOD as u64;

/// The shortest READ run a train watches, in windows of RPCs (the larger
/// of the in-flight window and the daemon pool): a READ run issues its
/// first window at once, settles only once that window has turned over,
/// and a shorter one would not jump far enough to pay for the watching.
/// A WRITE run may find the window full from the run before it, so one
/// with room for a jump after a few RPCs is watched.
pub(crate) const MIN_TRAIN: u64 = 4;

/// Periods a train checks at once.
const ANCHORS: usize = 4;

/// Which way a run of RPCs moves data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dir {
    /// WRITE RPCs of `wsize` bytes.
    Write,
    /// READ RPCs of `rsize` bytes.
    Read,
}

/// The instants of one RPC's last attempt.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Rpc {
    /// When the client issued it (after the in-flight window let it).
    pub(crate) issue: Time,
    /// When the request reached the server.
    pub(crate) arrive: Time,
    /// When the server sent the reply.
    pub(crate) ready: Time,
    /// When the reply reached the client.
    pub(crate) reply: Time,
}

/// One RPC as a train remembers it: its instants and, for a READ, what the
/// server's filesystem did.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Record {
    /// The RPC.
    pub(crate) rpc: Rpc,
    /// READ only: the server's filesystem read.
    pub(crate) served: ReadTrace,
}

impl Record {
    /// A digest of this RPC's own spacings and server outcome, which repeat
    /// whenever the state before it repeats.
    pub(crate) fn moves(&self) -> u64 {
        let since = |a: Time, b: Time| a.as_nanos().wrapping_sub(b.as_nanos());
        let (r, s) = (&self.rpc, &self.served);
        hash([
            since(r.arrive, r.issue),
            since(r.ready, r.arrive),
            since(r.reply, r.ready),
            s.miss,
            s.vol.map_or(0, |v| since(v.grant.ack, v.arrival)),
        ])
    }

    /// The same RPC `by` later.
    pub(crate) fn shift(&mut self, by: Time) {
        let r = &mut self.rpc;
        for t in [&mut r.issue, &mut r.arrive, &mut r.ready, &mut r.reply] {
            *t += by;
        }
        let served = &mut self.served;
        served.at += by;
        served.done += by;
        if let Some(v) = &mut served.vol {
            v.arrival += by;
            v.grant.start += by;
            v.grant.ack += by;
            v.grant.durable += by;
        }
    }
}

/// The state after one RPC of a run, as an RPC train compares it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Snap {
    /// The RPC's index in the run.
    pub(crate) at: u64,
    /// Its issue instant.
    pub(crate) issue: Time,
    /// File offset of the next RPC.
    pub(crate) pos: u64,
    /// Every instant the next RPC reads, relative to `issue`.
    pub(crate) rel: Vec<u64>,
    /// READ only: the server's page cache ahead of `pos`.
    pub(crate) front: Frontier,
    /// READ only, after an RPC that read the volume: where the volume's
    /// next read starts, with its state there in `vol_rel`.
    pub(crate) vol: Option<VolumeFront>,
    /// The volume's read-train state at `vol`, relative to `issue`.
    pub(crate) vol_rel: Vec<u64>,
}

impl Snap {
    /// The state `periods` periods of `period` and `stride` later, the
    /// frontier moving along when the period read the volume.
    pub(crate) fn shift(&mut self, period: Time, stride: u64, periods: u64, fill: bool) {
        let advance = stride * periods;
        self.issue += period * periods;
        self.pos += advance;
        if fill {
            self.front.cover += advance;
            if let Some(v) = &mut self.vol {
                v.voff += advance;
            }
        }
    }
}

/// A snapshot awaiting the RPC one period after it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Anchor {
    /// Whether the slot holds one.
    pub(crate) live: bool,
    /// The RPC one period after it.
    pub(crate) due: u64,
    /// The snapshot.
    pub(crate) snap: Snap,
}

/// An RPC train's memory of a run: its latest RPCs, where each state
/// signature was last seen, the snapshots awaiting confirmation, and
/// scratch space. A mount keeps it from one watched run to the next.
#[derive(Debug, Default)]
pub(crate) struct Train {
    /// RPC `i` of the run sits at `i % MAX_PERIOD`; of a jump's RPCs, only
    /// the last period is written.
    pub(crate) rpcs: Vec<Record>,
    /// Where each state signature was last seen, `(signature, i)`, in the
    /// slot its top bits name.
    pub(crate) seen: Vec<(u64, u64)>,
    /// The same for each RPC's own spacings, [`Record::moves`].
    pub(crate) moves: Vec<(u64, u64)>,
    /// READ only: the server cache's frontier after the latest RPC, once
    /// looked up.
    pub(crate) front: Option<Frontier>,
    /// RPCs of the run so far.
    pub(crate) count: u64,
    /// The first RPC after the run's start or its last jump.
    pub(crate) since: u64,
    /// Clean RPCs in a row, ending with the latest.
    pub(crate) clean: u64,
    /// Snapshots awaiting confirmation.
    pub(crate) anchors: Vec<Anchor>,
    /// The snapshot after the latest RPC, when one was taken.
    pub(crate) cur: Snap,
    /// The period's messages, requests and replies in turn.
    pub(crate) sends: Vec<Sent>,
    /// How long each of the period's server reads took.
    pub(crate) took: Vec<Time>,
    /// The period's volume reads.
    pub(crate) reads: Vec<TimedRead>,
    /// A copy of the last period while a jump rewrites the ring.
    pub(crate) spare: Vec<Record>,
}

impl Train {
    /// The memory of a run that starts now, reusing `old`'s space if any.
    pub(crate) fn start(old: Option<Box<Train>>) -> Box<Train> {
        let mut tr = old.unwrap_or_default();
        tr.seen.clear();
        tr.seen.resize(SEEN, (0, u64::MAX));
        tr.moves.clear();
        tr.moves.resize(SEEN, (0, u64::MAX));
        tr.anchors.resize_with(ANCHORS, Anchor::default);
        for a in &mut tr.anchors {
            a.live = false;
        }
        tr.front = None;
        (tr.count, tr.since, tr.clean) = (0, 0, 0);
        tr
    }

    /// Records the next RPC of the run; returns its index.
    pub(crate) fn push(&mut self, rec: Record, clean: bool) -> u64 {
        let k = self.count;
        self.put(k, rec);
        self.count += 1;
        self.clean = if clean { self.clean + 1 } else { 0 };
        k
    }

    /// Stores RPC `i`; the ring grows to its size only as runs need it.
    pub(crate) fn put(&mut self, i: u64, rec: Record) {
        if self.rpcs.len() < MAX_PERIOD {
            let len = (i + 1).min(MAX_PERIOD as u64) as usize;
            if self.rpcs.len() < len {
                self.rpcs.resize(len, Record::default());
            }
        }
        self.rpcs[slot(i)] = rec;
    }

    /// The RPCs of the period of `m` ending with RPC `k`, oldest first.
    pub(crate) fn period(&self, k: u64, m: usize) -> impl Iterator<Item = &Record> + '_ {
        (0..m as u64)
            .rev()
            .map(move |back| &self.rpcs[slot(k - back)])
    }

    /// Notes that the state after RPC `k` has signature `sig`; returns how
    /// many RPCs back it was seen last, if within the run and a period.
    pub(crate) fn lookup(&mut self, k: u64, sig: u64) -> Option<usize> {
        let (last, at) = std::mem::replace(&mut self.seen[seen_slot(sig)], (sig, k));
        (last == sig && at < k && k - at <= MAX_PERIOD as u64).then(|| (k - at) as usize)
    }

    /// READ: the frontier of `fs`'s page cache at `pos` of `file` after
    /// the latest RPC, looked up once.
    pub(crate) fn frontier(&mut self, dir: Dir, fs: &LocalFs, file: FileId, pos: u64) -> Frontier {
        match dir {
            Dir::Write => Frontier::default(),
            Dir::Read => *self.front.get_or_insert_with(|| fs.frontier(file, pos)),
        }
    }

    /// Whether RPC `k`'s spacings, `moves`, repeat an RPC's within a period
    /// back: only then may the state after it repeat one.
    pub(crate) fn moved(&mut self, k: u64, moves: u64) -> bool {
        let (last, at) = std::mem::replace(&mut self.moves[seen_slot(moves)], (moves, k));
        last == moves && at < k && k - at <= MAX_PERIOD as u64
    }

    /// The anchor due at RPC `k`.
    pub(crate) fn due(&self, k: u64) -> Option<usize> {
        self.anchors.iter().position(|a| a.live && a.due == k)
    }

    /// Whether the state after RPC `k`, whose signature was seen `m` RPCs
    /// back, is worth a snapshot to compare with the one `m` RPCs on: each
    /// RPC of the period since clean, a slot free and none due then. A
    /// period that read the volume is anchored right after a volume read;
    /// one that hit throughout only if `ahead`, the RPCs the cached run
    /// ahead holds, make a jump worth it.
    pub(crate) fn worth(&self, k: u64, m: usize, ahead: u64) -> bool {
        self.clean >= m as u64
            && self.anchors.iter().any(|a| !a.live)
            && self
                .anchors
                .iter()
                .all(|a| !a.live || a.due != k + m as u64)
            && (self.rpcs[slot(k)].served.vol.is_some()
                || self.period(k, m).all(|r| r.served.miss == 0) && ahead >= MIN_JUMP + m as u64)
    }

    /// Keeps `snap` until RPC `due`, if a slot is free.
    pub(crate) fn anchor(&mut self, due: u64, snap: &mut Snap) {
        if let Some(a) = self.anchors.iter_mut().find(|a| !a.live) {
            a.live = true;
            a.due = due;
            std::mem::swap(&mut a.snap, snap);
        }
    }

    /// Whether the snapshot `tr.cur` after RPC `k` repeats the anchored one
    /// a period `m` before it, every RPC in between clean, for DESIGN
    /// §5e.6's translation; if so, whether that period read the volume. A
    /// READ period either hit throughout, leaving the server cache's
    /// frontier in place, or moved the frontier with the reader and read the
    /// volume there: then both snapshots follow a volume read, the volume's
    /// states match, and no cached byte lay where the period filled.
    pub(crate) fn repeats(&self, a: &Snap, m: usize, dir: Dir) -> Option<bool> {
        let cur = &self.cur;
        if self.clean < m as u64 || a.rel != cur.rel || a.issue > cur.issue {
            return None;
        }
        let (f, c) = (a.front, cur.front);
        match dir {
            Dir::Write => Some(false),
            Dir::Read if f.cover == c.cover => Some(false),
            Dir::Read => (a.vol.is_some()
                && cur.vol.is_some()
                && f.cover - a.pos == c.cover - cur.pos
                && f.next >= c.cover
                && a.vol_rel == cur.vol_rel)
                .then_some(true),
        }
    }

    /// Records the `n` periods of the `m` RPCs ending with RPC `k` that a
    /// jump applied (the j-th repeats them `j × period` later), drops the
    /// snapshots awaiting a period, and anchors the state after the jump,
    /// `cur` moved along with its signature `sig`, for the next period.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn skip(
        &mut self,
        k: u64,
        m: usize,
        n: u64,
        period: Time,
        stride: u64,
        fill: bool,
        sig: u64,
    ) {
        // Only the last period jumped is written: the ones before it stay
        // unread, as every later jump repeats RPCs run since an anchor
        // taken after this one.
        let mut last = std::mem::take(&mut self.spare);
        last.clear();
        last.extend(self.period(k, m).copied());
        let total = m as u64 * n;
        for (i, mut rec) in (k + 1 + total - m as u64..).zip(last.iter().copied()) {
            rec.shift(period * n);
            self.put(i, rec);
        }
        self.spare = last;
        self.count += total;
        self.clean += total;
        for a in &mut self.anchors {
            a.live = false;
        }
        self.seen[seen_slot(sig)] = (sig, self.count - 1);
        self.front = None;
        self.since = self.count;
        let mut cur = std::mem::take(&mut self.cur);
        cur.at += total;
        cur.shift(period, stride, n, fill);
        self.anchor(cur.at + m as u64, &mut cur);
        self.cur = cur;
    }
}

/// The ring slot of RPC `i`.
fn slot(i: u64) -> usize {
    (i % MAX_PERIOD as u64) as usize
}

/// The slot of signature `sig` in [`Train::seen`]: its top bits.
fn seen_slot(sig: u64) -> usize {
    (sig >> (64 - SEEN.trailing_zeros())) as usize
}

/// A hash of some words, its top bits well mixed.
pub(crate) fn hash(words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words.into_iter().fold(0, |h: u64, w| {
        h.rotate_left(23) ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    (h ^ (h >> 32)).wrapping_mul(0x517c_c1b7_2722_0a95)
}
