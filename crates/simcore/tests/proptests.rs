//! Property tests of the simulation kernel invariants.

use proptest::prelude::*;
use simcore::chaos::{ChaosProfile, HostFaultPlan};
use simcore::{Bandwidth, EventQueue, FifoResource, MultiResource, SplitMix64, Time};

/// Every named chaos profile.
const PROFILES: [&str; 5] = ["store", "panic", "memo", "trace", "mixed"];

/// Largest byte count whose product with 10⁹ fits in a u64: the edge of
/// `time_for`'s u64 path.
const U64_SAFE_BYTES: u64 = 18_446_744_073;

/// `Bandwidth::time_for` computed wholly in u128, the reference for its
/// u64 fast path.
fn time_for_u128(bps: u64, bytes: u64) -> Time {
    if bytes == 0 {
        return Time::ZERO;
    }
    if bps == 0 {
        return Time::MAX;
    }
    let ns = (bytes as u128 * 1_000_000_000).div_ceil(bps as u128);
    Time(ns.min(u64::MAX as u128) as u64)
}

/// Byte counts anywhere in u64, packed around the u64-path boundary and
/// near `u64::MAX`.
fn transfer_bytes() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..1 << 24,
        U64_SAFE_BYTES - 1000..=U64_SAFE_BYTES + 1000,
        u64::MAX - 1000..=u64::MAX,
    ]
}

/// Rates anywhere in u64, from a byte per second to `u64::MAX`.
fn transfer_rates() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        1u64..1000,
        1_000_000u64..10_000_000_000,
        u64::MAX - 1000..=u64::MAX,
    ]
}

/// Bytes a replay token is made of, so drawn strings are often nearly
/// valid and reach deep into the parser.
const TOKEN_BYTES: &[u8] = b"ckptserpanicmemotrace@:,0123456789failtornenospc -+x";

proptest! {
    /// Events always pop in nondecreasing time order, regardless of the
    /// schedule order.
    #[test]
    fn event_queue_orders_any_schedule(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_nanos(t), i);
        }
        let mut last = Time::ZERO;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Same-timestamp events preserve insertion order (stability).
    #[test]
    fn event_queue_is_stable(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Time::from_secs(1), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// A FIFO resource never overlaps grants and never loses busy time.
    #[test]
    fn fifo_resource_grants_never_overlap(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..100)
    ) {
        let mut r = FifoResource::new();
        let mut arrivals: Vec<u64> = jobs.iter().map(|&(a, _)| a).collect();
        arrivals.sort_unstable();
        let mut prev_end = Time::ZERO;
        let mut total_service = Time::ZERO;
        for (i, &arrival) in arrivals.iter().enumerate() {
            let service = Time::from_nanos(jobs[i].1);
            let g = r.submit(Time::from_nanos(arrival), service);
            prop_assert!(g.start >= prev_end, "grant overlaps predecessor");
            prop_assert_eq!(g.end - g.start, service);
            prop_assert!(g.start >= Time::from_nanos(arrival));
            prev_end = g.end;
            total_service += service;
        }
        prop_assert_eq!(r.busy_time(), total_service);
    }

    /// The sorted-ring daemon pool grants exactly what a scan of `k`
    /// servers for the earliest free one (the pool it replaced) grants, for
    /// arrivals in any order, zero and equal service times included.
    #[test]
    fn daemon_pool_matches_an_earliest_free_scan(
        k in 1usize..=16,
        jobs in proptest::collection::vec(
            (0u64..2_000, prop_oneof![Just(0u64), Just(50), 1u64..400]),
            1..200,
        )
    ) {
        let mut pool = MultiResource::new(k);
        let mut servers = vec![FifoResource::new(); k];
        for &(arrival, service) in &jobs {
            let (arrival, service) = (Time::from_nanos(arrival), Time::from_nanos(service));
            let idx = servers
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.free_at())
                .map(|(i, _)| i)
                .expect("pool is non-empty");
            let want = servers[idx].submit(arrival, service);
            prop_assert_eq!(pool.submit(arrival, service), want);
            let mut free: Vec<Time> = servers.iter().map(|s| s.free_at()).collect();
            free.sort_unstable();
            prop_assert!(pool.free_instants().eq(free));
        }
    }

    /// `time_for` and `measured` are mutually consistent within rounding.
    #[test]
    fn bandwidth_roundtrip(bps in 1u64..10_000_000_000u64, bytes in 1u64..1_000_000_000u64) {
        let bw = Bandwidth::from_bytes_per_sec(bps);
        let t = bw.time_for(bytes);
        prop_assume!(t > Time::ZERO && t < Time::from_secs(1_000_000));
        let back = Bandwidth::measured(bytes, t);
        let rel = (back.bytes_per_sec() as f64 - bps as f64).abs() / bps as f64;
        prop_assert!(rel < 0.01, "bps {} back {} rel {}", bps, back.bytes_per_sec(), rel);
    }

    /// `time_for` equals the all-u128 computation for every byte count and
    /// rate, on both sides of the u64 path's boundary.
    #[test]
    fn time_for_matches_the_u128_reference(bytes in transfer_bytes(), bps in transfer_rates()) {
        prop_assert_eq!(Bandwidth::from_bytes_per_sec(bps).time_for(bytes), time_for_u128(bps, bytes));
    }

    /// The RNG's bounded generation respects its bound for any bound.
    #[test]
    fn rng_bounded(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Shuffle is always a permutation.
    #[test]
    fn rng_shuffle_permutes(seed in any::<u64>(), n in 0usize..200) {
        let mut rng = SplitMix64::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Replay-token parsing never panics on arbitrary input: raw bytes,
    /// strings over the token alphabet, and valid tokens with bytes
    /// overwritten. It returns a plan or an error message.
    #[test]
    fn host_fault_plan_parse_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        picks in proptest::collection::vec(any::<usize>(), 0..48),
        seed in any::<u64>(),
        profile in 0usize..PROFILES.len(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let _ = HostFaultPlan::parse(&String::from_utf8_lossy(&raw));
        let alphabet: Vec<u8> = picks.iter().map(|&i| TOKEN_BYTES[i % TOKEN_BYTES.len()]).collect();
        let _ = HostFaultPlan::parse(&String::from_utf8_lossy(&alphabet));
        let profile = ChaosProfile::named(PROFILES[profile]).unwrap();
        let mut token = HostFaultPlan::random(seed, &profile).token().into_bytes();
        for (at, byte) in edits {
            let at = at % token.len();
            token[at] = byte;
        }
        let _ = HostFaultPlan::parse(&String::from_utf8_lossy(&token));
    }

    /// Every plan a named profile draws round-trips through its token.
    #[test]
    fn host_fault_plan_tokens_round_trip(seed in any::<u64>(), profile in 0usize..PROFILES.len()) {
        let profile = ChaosProfile::named(PROFILES[profile]).unwrap();
        let plan = HostFaultPlan::random(seed, &profile);
        prop_assert_eq!(HostFaultPlan::parse(&plan.token()), Ok(plan));
    }
}
