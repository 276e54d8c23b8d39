//! Property tests of the MPI runtime: random well-formed programs always
//! terminate with consistent accounting.

use mpisim::machine::FixedMachine;
use mpisim::{MpiOp, Runtime, VecStream};
use proptest::prelude::*;
use simcore::obs::NoSink;
use simcore::Time;

/// Generates a random well-formed multi-rank program: compute bursts,
/// matched ring exchanges (blocking and nonblocking), barriers, collectives
/// and file I/O, arranged so no deadlock is possible.
fn random_programs(world: usize, rounds: &[u8]) -> Vec<Vec<MpiOp>> {
    let mut programs: Vec<Vec<MpiOp>> = (0..world).map(|_| Vec::new()).collect();
    for (round, &kind) in rounds.iter().enumerate() {
        let tag = round as u32;
        match kind % 6 {
            0 => {
                for ops in programs.iter_mut() {
                    ops.push(MpiOp::Compute(Time::from_micros(50 + round as u64)));
                }
            }
            1 => {
                // Ring exchange: everyone sends right, receives from left.
                for (r, ops) in programs.iter_mut().enumerate() {
                    let right = (r + 1) % world;
                    let left = (r + world - 1) % world;
                    ops.push(MpiOp::Send {
                        dst: right,
                        bytes: 1000,
                        tag,
                    });
                    ops.push(MpiOp::Recv { src: left, tag });
                }
            }
            2 => {
                for ops in programs.iter_mut() {
                    ops.push(MpiOp::Barrier);
                }
            }
            3 => {
                for ops in programs.iter_mut() {
                    ops.push(MpiOp::Allreduce { bytes: 64 });
                }
            }
            4 => {
                // Nonblocking ring exchange completed by WaitAll.
                for (r, ops) in programs.iter_mut().enumerate() {
                    let right = (r + 1) % world;
                    let left = (r + world - 1) % world;
                    ops.push(MpiOp::Irecv { src: left, tag });
                    ops.push(MpiOp::Isend {
                        dst: right,
                        bytes: 2000,
                        tag,
                    });
                    ops.push(MpiOp::WaitAll);
                }
            }
            _ => {
                for (r, ops) in programs.iter_mut().enumerate() {
                    let file = fs::FileId(9);
                    ops.push(MpiOp::WriteAt {
                        file,
                        offset: (round * world + r) as u64 * 4096,
                        len: 4096,
                    });
                }
            }
        }
    }
    programs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any well-formed program terminates; wall time covers every rank;
    /// per-rank time categories never exceed the rank's end time.
    #[test]
    fn random_programs_terminate_with_consistent_accounting(
        world in 2usize..6,
        rounds in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let placement: Vec<usize> = (0..world).map(|r| r % 3).collect();
        let mut machine = FixedMachine::new(3);
        let mut sink = NoSink;
        let programs = random_programs(world, &rounds)
            .into_iter()
            .map(|ops| Box::new(VecStream::new(ops)) as Box<dyn mpisim::OpStream>)
            .collect();
        let stats = Runtime::default().run(&mut machine, &placement, programs, &mut sink);
        prop_assert_eq!(stats.per_rank.len(), world);
        for (r, rs) in stats.per_rank.iter().enumerate() {
            prop_assert!(rs.end <= stats.wall_time);
            let accounted = rs.io_time + rs.comm_time + rs.compute_time + rs.meta_time;
            prop_assert!(
                accounted <= rs.end + Time::from_micros(1),
                "rank {} accounted {:?} beyond end {:?}",
                r,
                accounted,
                rs.end
            );
        }
    }

    /// Determinism: identical programs and placements give identical stats.
    #[test]
    fn runs_are_deterministic(
        world in 2usize..5,
        rounds in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let run = || {
            let placement: Vec<usize> = (0..world).collect();
            let mut machine = FixedMachine::new(world);
            let mut sink = NoSink;
            let programs = random_programs(world, &rounds)
                .into_iter()
                .map(|ops| Box::new(VecStream::new(ops)) as Box<dyn mpisim::OpStream>)
                .collect();
            let stats = Runtime::default().run(&mut machine, &placement, programs, &mut sink);
            (
                stats.wall_time,
                stats
                    .per_rank
                    .iter()
                    .map(|r| (r.end, r.comm_time, r.io_time))
                    .collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
