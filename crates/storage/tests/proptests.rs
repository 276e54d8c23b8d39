//! Property tests of RAID geometry, device timing, and degraded-mode
//! invariants.

use proptest::prelude::*;
use simcore::{SplitMix64, Time, KIB};
use storage::raid::raid5_locate;
use storage::{BlockReq, Disk, DiskParams, Jbod, Raid1, Raid5, Volume, VolumeError};

fn raid5_members(n_disks: usize) -> Vec<Disk> {
    (0..n_disks)
        .map(|i| Disk::new(DiskParams::sata_7200(230, 75), i as u64 + 1))
        .collect()
}

proptest! {
    /// RAID 5 mapping is injective: distinct logical chunks never collide
    /// on (disk, disk_offset).
    #[test]
    fn raid5_mapping_is_injective(
        n_disks in 3usize..9,
        stripe_kib in 1u64..512,
        chunks in 1u64..200,
    ) {
        let stripe = stripe_kib * KIB;
        let mut seen = std::collections::HashSet::new();
        for i in 0..chunks {
            let c = raid5_locate(i * stripe, stripe, n_disks);
            prop_assert!(c.disk < n_disks);
            prop_assert!(c.parity_disk < n_disks);
            prop_assert_ne!(c.disk, c.parity_disk, "data on the parity disk");
            prop_assert!(seen.insert((c.disk, c.disk_offset)), "collision at chunk {}", i);
        }
    }

    /// Every row has exactly one parity disk, and each disk carries parity
    /// for a fair share of rows (rotation).
    #[test]
    fn raid5_parity_rotates(n_disks in 3usize..9) {
        let stripe = 256 * KIB;
        let row_width = (n_disks as u64 - 1) * stripe;
        let rows = n_disks as u64 * 6;
        let mut counts = vec![0u64; n_disks];
        for r in 0..rows {
            let c = raid5_locate(r * row_width, stripe, n_disks);
            counts[c.parity_disk] += 1;
        }
        for (d, &count) in counts.iter().enumerate() {
            prop_assert_eq!(count, 6, "disk {} carries {} parity rows", d, count);
        }
    }

    /// Volume grants are causally sane for any op mix: service starts at or
    /// after submission and acknowledgments never precede starts.
    #[test]
    fn raid5_grants_are_causal(ops in proptest::collection::vec(
        (any::<bool>(), 0u64..10_000u64, 1u64..64u64), 1..60
    )) {
        let disks: Vec<Disk> = (0..5)
            .map(|i| Disk::new(DiskParams::sata_7200(230, 75), i + 1))
            .collect();
        let mut raid = Raid5::new(disks, 256 * KIB, true);
        let mut now = Time::ZERO;
        for (is_write, block, len_kib) in ops {
            let req = if is_write {
                BlockReq::write(block * 256 * KIB, len_kib * KIB)
            } else {
                BlockReq::read(block * 256 * KIB, len_kib * KIB)
            };
            let g = raid.submit(now, req);
            prop_assert!(g.start >= now || g.start >= Time::ZERO);
            prop_assert!(g.ack >= g.start);
            prop_assert!(g.durable >= g.ack || g.durable == g.ack);
            // Advance time to keep submissions nondecreasing.
            now = now.max(g.ack);
        }
    }

    /// Disk service time is monotone in request size for a fixed position.
    #[test]
    fn disk_transfer_monotone_in_size(len_kib in 1u64..10_000) {
        let mut d1 = Disk::new(DiskParams::sata_7200(230, 75), 1);
        let mut d2 = Disk::new(DiskParams::sata_7200(230, 75), 1);
        // Same seed → same positioning draw; larger request cannot be faster.
        let g1 = d1.submit(Time::ZERO, BlockReq::read(0, len_kib * KIB));
        let g2 = d2.submit(Time::ZERO, BlockReq::read(0, (len_kib + 1) * KIB));
        prop_assert!(g2.ack >= g1.ack);
    }

    /// A failed RAID 5 member never serves another command, and a
    /// row-spanning degraded read reconstructs from every survivor.
    #[test]
    fn raid5_degraded_reads_touch_exactly_the_survivors(
        n_disks in 3usize..8,
        failed_pick in 0usize..8,
        rows in 1u64..6,
    ) {
        let failed = failed_pick % n_disks;
        let stripe = 64 * KIB;
        let mut raid = Raid5::new(raid5_members(n_disks), stripe, true);
        let row_width = (n_disks as u64 - 1) * stripe;
        let g = raid.submit(Time::ZERO, BlockReq::read(0, rows * row_width));
        let now = g.ack;
        raid.fail_disk(failed).unwrap();
        // A second failure would lose data: typed error, not a panic.
        let second = (failed + 1) % n_disks;
        prop_assert_eq!(
            raid.fail_disk(second),
            Err(VolumeError::AlreadyDegraded { failed })
        );
        let before = raid.member_ios();
        let g = raid.submit(now, BlockReq::read(0, rows * row_width));
        prop_assert!(g.ack >= now);
        let after = raid.member_ios();
        prop_assert_eq!(after[failed], before[failed], "dead member must not serve");
        for d in (0..n_disks).filter(|&d| d != failed) {
            prop_assert!(after[d] > before[d], "survivor {} idle in degraded read", d);
        }
    }

    /// Degraded RAID 5 writes skip the dead member (its chunks are covered
    /// by the surviving data + parity) and still acknowledge causally.
    #[test]
    fn raid5_degraded_writes_skip_the_dead_member(
        n_disks in 3usize..8,
        failed_pick in 0usize..8,
        rows in 1u64..6,
    ) {
        let failed = failed_pick % n_disks;
        let stripe = 64 * KIB;
        let mut raid = Raid5::new(raid5_members(n_disks), stripe, true);
        let row_width = (n_disks as u64 - 1) * stripe;
        raid.fail_disk(failed).unwrap();
        let before = raid.member_ios();
        let g = raid.submit(Time::ZERO, BlockReq::write(0, rows * row_width));
        prop_assert!(g.ack >= Time::ZERO);
        prop_assert!(g.durable >= g.ack);
        let after = raid.member_ios();
        prop_assert_eq!(after[failed], before[failed], "dead member must not be written");
        let touched = (0..n_disks).filter(|&d| after[d] > before[d]).count();
        prop_assert!(touched > 0, "write must reach the survivors");
        prop_assert!(touched < n_disks);
    }

    /// A degraded mirror routes every command to the survivor.
    #[test]
    fn raid1_degraded_routes_everything_to_the_survivor(
        failed in 0usize..2,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..1000u64, 1u64..64u64), 1..30
        ),
    ) {
        let mut raid = Raid1::new(
            Disk::new(DiskParams::sata_7200(230, 75), 1),
            Disk::new(DiskParams::sata_7200(230, 75), 2),
        );
        raid.fail_disk(failed).unwrap();
        let before = raid.member_ios();
        let n_ops = ops.len() as u64;
        let mut now = Time::ZERO;
        for (is_write, block, len_kib) in ops {
            let req = if is_write {
                BlockReq::write(block * 4 * KIB, len_kib * KIB)
            } else {
                BlockReq::read(block * 4 * KIB, len_kib * KIB)
            };
            now = raid.submit(now, req).ack;
        }
        let after = raid.member_ios();
        prop_assert_eq!(after[failed], before[failed], "dead mirror must not serve");
        prop_assert!(after[1 - failed] >= before[1 - failed] + n_ops);
    }

    /// A replacement rebuild covers exactly the written extent (one stripe
    /// chunk per addressed row, bitmap-assisted) and always finishes.
    #[test]
    fn raid5_rebuild_covers_the_addressed_extent(
        n_disks in 3usize..7,
        failed_pick in 0usize..7,
        rows in 1u64..8,
    ) {
        let failed = failed_pick % n_disks;
        let stripe = 64 * KIB;
        let mut raid = Raid5::new(raid5_members(n_disks), stripe, true);
        let row_width = (n_disks as u64 - 1) * stripe;
        let g = raid.submit(Time::ZERO, BlockReq::write(0, rows * row_width));
        let now = g.durable.max(g.ack);
        raid.fail_disk(failed).unwrap();
        raid.replace_disk(now, failed).unwrap();
        let whole = raid.finish_rebuild(now);
        prop_assert!(whole >= now);
        let report = raid.rebuild_report().expect("rebuild ran");
        prop_assert_eq!(report.finished, Some(whole));
        prop_assert_eq!(report.bytes_done, report.bytes_total);
        prop_assert_eq!(report.bytes_total, rows * stripe, "one chunk per addressed row");
        // The array is whole again: a fresh failure is accepted.
        prop_assert_eq!(raid.fail_disk(failed), Ok(()));
    }

    /// The bulk fast path is grant-, meter- and IO-count-identical to the
    /// granular chunk loop for arbitrary aligned RAID 5 write runs,
    /// including runs with a partial tail chunk.
    #[test]
    fn raid5_bulk_runs_match_the_granular_loop(
        n_disks in 3usize..8,
        rows_per_chunk in 1u64..4,
        chunks in 2u64..12,
        tail_rows in 0u64..3,
        start_row in 0u64..32,
    ) {
        let stripe = 64 * KIB;
        let row_width = (n_disks as u64 - 1) * stripe;
        let chunk = rows_per_chunk * row_width;
        let len = chunks * chunk + tail_rows.min(rows_per_chunk - 1) * row_width;
        let req = BlockReq::write(start_row * row_width, len);

        let mut bulk = Raid5::new(raid5_members(n_disks), stripe, true);
        let mut gran = Raid5::new(raid5_members(n_disks), stripe, true);
        gran.set_bulk_enabled(false);

        let a = bulk.submit_run(Time::ZERO, req, chunk);
        let b = gran.submit_run(Time::ZERO, req, chunk);
        prop_assert_eq!(a, b, "closed-form grant diverged from the chunk loop");
        prop_assert_eq!(bulk.flush(a.ack), gran.flush(b.ack));
        prop_assert_eq!(bulk.member_ios().to_vec(), gran.member_ios().to_vec());
        prop_assert_eq!(
            format!("{:?}", bulk.meter()),
            format!("{:?}", gran.meter()),
            "meter state diverged"
        );
        prop_assert!(bulk.bulk_run_stats().0 >= 1, "eligible run missed the fast path");
        prop_assert_eq!(gran.bulk_run_stats().0, 0);
    }

    /// Chunked runs through a JBOD are equivalent under the fast path for
    /// arbitrary op mixes, offsets and chunk sizes — eligible or not.
    #[test]
    fn jbod_chunked_runs_are_equivalent_for_arbitrary_mixes(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..4000u64, 1u64..96u64, 1u64..16u64), 1..16
        ),
    ) {
        let mut bulk = Jbod::new(Disk::new(DiskParams::sata_7200(230, 75), 9));
        let mut gran = Jbod::new(Disk::new(DiskParams::sata_7200(230, 75), 9));
        gran.set_bulk_enabled(false);
        let mut now = Time::ZERO;
        for (is_write, block, len_kib, chunk_kib) in ops {
            let off = block * 16 * KIB;
            let len = len_kib * KIB + 17;
            let req = if is_write {
                BlockReq::write(off, len)
            } else {
                BlockReq::read(off, len)
            };
            let a = bulk.submit_run(now, req, chunk_kib * 8 * KIB);
            let b = gran.submit_run(now, req, chunk_kib * 8 * KIB);
            prop_assert_eq!(a, b);
            now = now.max(a.ack);
        }
        // The meter debug state covers the byte, op and summed-latency
        // counters and the member IO count, exactly.
        prop_assert_eq!(format!("{:?}", bulk.meter()), format!("{:?}", gran.meter()));
    }

    /// A transfer whose conservative completion bound overlaps a pending
    /// fault window always takes the event-granular path — and its timings
    /// match the pre-fast-path engine exactly either way.
    #[test]
    fn fault_window_overlap_forces_the_granular_path(
        n_disks in 3usize..6,
        chunks in 2u64..10,
        horizon_ms in 0u64..2000,
    ) {
        let stripe = 64 * KIB;
        let row_width = (n_disks as u64 - 1) * stripe;
        let mut v = Raid5::new(raid5_members(n_disks), stripe, true);
        let mut reference = Raid5::new(raid5_members(n_disks), stripe, true);
        reference.set_bulk_enabled(false);
        v.set_fault_horizon(Some(Time::from_millis(horizon_ms)));

        let req = BlockReq::write(0, chunks * row_width);
        let a = v.submit_run(Time::ZERO, req, row_width);
        let b = reference.submit_run(Time::ZERO, req, row_width);
        prop_assert_eq!(a, b, "horizon gating must not change timing");
        if Time::from_millis(horizon_ms) <= a.ack {
            // The fault fires inside the transfer: the closed form is
            // forbidden, every command must be individually schedulable.
            prop_assert_eq!(v.bulk_run_stats(), (0, 1));
        }
    }

    /// Identical request sequences produce identical timelines.
    #[test]
    fn disk_is_deterministic(seed in any::<u64>(), n in 1usize..50) {
        let run = |seed: u64| {
            let mut d = Disk::new(DiskParams::sata_7200(230, 75), seed);
            let mut rng = SplitMix64::new(seed ^ 0xabc);
            let mut now = Time::ZERO;
            for _ in 0..n {
                let off = rng.next_below(1000) * KIB * 1024;
                now = d.submit(now, BlockReq::read(off, 64 * KIB)).ack;
            }
            now
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
