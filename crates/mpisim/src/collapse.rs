//! Collapsed execution of symmetric rank cohorts.
//!
//! Thousand-rank I/O benchmarks are dominated by *symmetric* per-rank
//! work: every rank runs the same program modulo rank-indexed file
//! offsets. The granular runtime steps each rank individually, so a
//! 1024-rank IOR sweep costs 1024× the work of a 1-rank sweep even though
//! 1023 of the timelines are byte-identical. This module detects such
//! cohorts and executes *one representative per cohort*, broadcasting its
//! timing to every member.
//!
//! Safety is gated, never assumed:
//!
//! - the machine must declare [`Machine::rank_invariant`] costs;
//! - every program must carry a [`StreamSignature`] asserting symmetry;
//! - placement must be one rank per node (shared nodes couple timelines
//!   through per-node machine state).
//!
//! Host-side chaos injection is not a gate: none of its sites is reachable
//! inside a run, so an installed plan cannot break a cohort's symmetry.
//!
//! Whenever any gate fails, [`plan`] returns `None` and the caller falls
//! back to full granular execution. When a signature turns out to *lie*
//! (a non-collapsible op, or members diverging from the representative),
//! the executor panics rather than silently producing wrong results.

use crate::machine::Machine;
use crate::op::{MpiOp, OpStream, Rank, StreamSignature};
use crate::runtime::{RankStats, RunStats, RuntimeParams};
use netsim::NodeId;
use simcore::obs::{ObsEvent, ObsSink};
use simcore::{Abort, Time, Watchdog};
use std::collections::HashSet;

/// Decides whether a run may execute collapsed. Returns the cohorts
/// (each a list of ranks sharing one signature and node class, lowest
/// rank first — the representative), or `None` when any symmetry gate
/// fails and the run must execute granularly.
pub(crate) fn plan(
    machine: &dyn Machine,
    placement: &[NodeId],
    signatures: &[Option<StreamSignature>],
) -> Option<Vec<Vec<Rank>>> {
    if placement.is_empty() || !machine.rank_invariant() {
        return None;
    }
    // Two ranks on one node contend through that node's private machine
    // state; collapse cannot reproduce that coupling.
    let mut nodes = HashSet::with_capacity(placement.len());
    if !placement.iter().all(|&n| nodes.insert(n)) {
        return None;
    }
    let mut groups: Vec<((StreamSignature, u64), Vec<Rank>)> = Vec::new();
    for (rank, sig) in signatures.iter().enumerate() {
        let key = ((*sig)?, machine.node_class(placement[rank]));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(rank),
            None => groups.push((key, vec![rank])),
        }
    }
    // All-singleton cohorts would just re-implement granular execution.
    if groups.iter().all(|(_, members)| members.len() < 2) {
        return None;
    }
    Some(groups.into_iter().map(|(_, members)| members).collect())
}

struct CohortExec {
    /// Member ranks; `ranks[0]` is the representative.
    ranks: Vec<Rank>,
    rep: Box<dyn OpStream>,
    /// Streams of `ranks[1..]`, stepped in lockstep for verification and
    /// event emission; empty when nobody observes the run (the
    /// O(1)-per-member fast path).
    members: Vec<Box<dyn OpStream>>,
    node: NodeId,
    t: Time,
    stats: RankStats,
    barrier_start: Option<Time>,
    done: bool,
}

/// Executes the planned `cohorts`. Must only be called with the output of
/// [`plan`] for the same machine/placement/programs. `sink` is `None`
/// when nobody observes the run; members are then never stepped.
pub(crate) fn run(
    params: &RuntimeParams,
    machine: &mut dyn Machine,
    placement: &[NodeId],
    programs: Vec<Box<dyn OpStream>>,
    cohorts: Vec<Vec<Rank>>,
    mut sink: Option<&mut dyn ObsSink>,
    mut watchdog: Option<Watchdog>,
) -> Result<RunStats, Abort> {
    let world = programs.len();
    let mut slots: Vec<Option<Box<dyn OpStream>>> = programs.into_iter().map(Some).collect();
    let mut execs: Vec<CohortExec> = cohorts
        .into_iter()
        .map(|ranks| {
            let take = |slots: &mut Vec<Option<Box<dyn OpStream>>>, r: Rank| -> Box<dyn OpStream> {
                slots[r].take().expect("each rank in exactly one cohort")
            };
            let rep = take(&mut slots, ranks[0]);
            let members = if sink.is_some() {
                ranks[1..].iter().map(|&r| take(&mut slots, r)).collect()
            } else {
                Vec::new()
            };
            CohortExec {
                node: placement[ranks[0]],
                ranks,
                rep,
                members,
                t: Time::ZERO,
                stats: RankStats::default(),
                barrier_start: None,
                done: false,
            }
        })
        .collect();

    loop {
        for c in execs.iter_mut() {
            if !c.done && c.barrier_start.is_none() {
                step_cohort(machine, &mut sink, &mut watchdog, c)?;
            }
        }
        if execs.iter().all(|c| c.done) {
            break;
        }
        // Every unfinished cohort is parked at a barrier now. If any other
        // cohort already ended, that barrier can never release — the same
        // condition the granular runtime reports as a deadlock.
        assert!(
            !execs.iter().any(|c| c.done),
            "rank never finished: deadlock in the program (blocked on a barrier)"
        );
        let hops = (world.max(2) as f64).log2().ceil() as u64;
        let latest = execs.iter().map(|c| c.t).max().expect("nonempty run");
        let release = latest + params.barrier_hop * hops;
        for c in execs.iter_mut() {
            let start = c.barrier_start.take().expect("all cohorts parked");
            c.stats.comm_time += release - start;
            c.t = release;
            if let Some(sink) = sink.as_deref_mut() {
                for &r in &c.ranks {
                    emit(sink, r, start, release, MpiOp::Barrier);
                }
            }
        }
    }

    let mut stats = RunStats {
        wall_time: Time::ZERO,
        per_rank: Vec::new(),
        collapsed: true,
    };
    let mut per: Vec<Option<RankStats>> = Vec::new();
    per.resize_with(world, || None);
    for c in execs.iter_mut() {
        c.stats.end = c.t;
        stats.wall_time = stats.wall_time.max(c.t);
        for &r in &c.ranks[1..] {
            per[r] = Some(c.stats.clone());
        }
        per[c.ranks[0]] = Some(std::mem::take(&mut c.stats));
    }
    stats.per_rank = per
        .into_iter()
        .map(|s| s.expect("every rank in exactly one cohort"))
        .collect();
    Ok(stats)
}

/// Runs one cohort's representative until it parks at a barrier or ends,
/// mirroring the granular executor's per-op arithmetic exactly.
fn step_cohort(
    machine: &mut dyn Machine,
    sink: &mut Option<&mut dyn ObsSink>,
    watchdog: &mut Option<Watchdog>,
    c: &mut CohortExec,
) -> Result<(), Abort> {
    loop {
        if let Some(w) = watchdog.as_mut() {
            w.observe(c.t)?;
        }
        let op = match c.rep.next_op() {
            Some(op) => op,
            None => {
                for m in &mut c.members {
                    let mop = m.next_op();
                    assert!(
                        mop.is_none(),
                        "collapsed cohort signature violated: member program \
                         outlives its representative (next op {mop:?})"
                    );
                }
                c.done = true;
                return Ok(());
            }
        };
        let start = c.t;
        match op {
            MpiOp::Compute(d) => {
                c.t += d;
                c.stats.compute_time += d;
            }
            MpiOp::Marker(_) => {}
            MpiOp::Barrier => {
                c.barrier_start = Some(start);
                // Consume the members' matching barriers so lockstep
                // verification stays aligned across the release.
                for m in &mut c.members {
                    let mop = m.next_op();
                    assert!(
                        matches!(mop, Some(MpiOp::Barrier)),
                        "collapsed cohort signature violated: representative \
                         at Barrier, member at {mop:?}"
                    );
                }
                return Ok(());
            }
            MpiOp::FileOpen { file, create } => {
                let end = machine.io_open(start, c.node, file, create);
                c.stats.meta_time += end - start;
                c.t = end;
            }
            MpiOp::FileClose { file } => {
                let end = machine.io_close(start, c.node, file);
                c.stats.meta_time += end - start;
                c.t = end;
            }
            MpiOp::FileSync { file } => {
                let end = machine.io_sync(start, c.node, file);
                c.stats.meta_time += end - start;
                c.t = end;
            }
            MpiOp::Meta { verb, dir, file } => {
                let end = machine.io_meta(start, c.node, verb, dir, file);
                c.stats.meta_time += end - start;
                c.stats.meta_ops += 1;
                c.t = end;
            }
            MpiOp::WriteAt { file, offset, len } => {
                let end = machine.io_write(start, c.node, file, offset, len);
                c.stats.io_time += end - start;
                c.stats.bytes_written += len;
                c.stats.io_ops += 1;
                c.t = end;
            }
            MpiOp::ReadAt { file, offset, len } => {
                let end = machine.io_read(start, c.node, file, offset, len);
                c.stats.io_time += end - start;
                c.stats.bytes_read += len;
                c.stats.io_ops += 1;
                c.t = end;
            }
            other => panic!("collapsed cohort signature violated: non-collapsible op {other:?}"),
        }
        if let Some(sink) = sink.as_deref_mut() {
            let end = c.t;
            emit(sink, c.ranks[0], start, end, op);
            for (m, &r) in c.members.iter_mut().zip(&c.ranks[1..]) {
                let mop = verify_member(op, m.next_op(), c.ranks[0], r);
                emit(sink, r, start, end, mop);
            }
        }
    }
}

/// Verifies a member's op against the representative's: equal modulo
/// rank-indexed offsets and metadata targets. Returns the member's own op,
/// so members trace their true offsets with the representative's timing.
fn verify_member(rep: MpiOp, member: Option<MpiOp>, rep_rank: Rank, member_rank: Rank) -> MpiOp {
    match member {
        Some(m) if shape(m) == shape(rep) => m,
        m => panic!(
            "collapsed cohort signature violated: representative rank {rep_rank} \
             ran {rep:?} while member rank {member_rank} ran {m:?}"
        ),
    }
}

/// `op` with its rank-indexed fields cleared.
fn shape(op: MpiOp) -> MpiOp {
    match op {
        MpiOp::WriteAt { file, len, .. } => MpiOp::WriteAt {
            file,
            len,
            offset: 0,
        },
        MpiOp::ReadAt { file, len, .. } => MpiOp::ReadAt {
            file,
            len,
            offset: 0,
        },
        MpiOp::Meta { verb, dir, .. } => MpiOp::Meta {
            verb,
            dir,
            file: dir,
        },
        other => other,
    }
}

/// Reports `op`'s completion on `rank` as one event, to the run's sink
/// and to the thread's observer.
fn emit(sink: &mut dyn ObsSink, rank: Rank, start: Time, end: Time, op: MpiOp) {
    let kind = op.trace_kind().expect("collapsible ops are traced");
    let ev = ObsEvent::MpiOp {
        rank: rank as u32,
        start,
        end,
        kind,
    };
    sink.event(&ev);
    simcore::obs::emit(|| ev);
}
