//! Timeline resources: exact FIFO queueing without callbacks.
//!
//! A [`FifoResource`] models a single server (a disk arm, a network link, an
//! NFS daemon thread). A request arriving at `t` with service time `s`
//! starts at `max(t, free_at)`, completes at `start + s`, and pushes
//! `free_at` to the completion time. Requests are served FIFO *in
//! submission order*, whatever their arrival instants: a later submission
//! never overtakes an earlier one. Submissions need not arrive in
//! nondecreasing time, and often do not — a `Machine` call computes its
//! whole RPC train eagerly, so a later rank's call may submit earlier
//! arrivals to the shared server links and daemon pool. Such a request
//! queues behind everything submitted before it.
//!
//! [`MultiResource`] generalizes this to `k` identical servers (e.g. an NFS
//! server's worker-thread pool): each request is placed on the server that
//! frees up earliest.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Outcome of submitting a request to a resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When the request actually began service (≥ arrival).
    pub start: Time,
    /// When the request completed.
    pub end: Time,
}

impl Grant {
    /// Time spent waiting in queue before service began.
    pub fn queue_delay(&self, arrival: Time) -> Time {
        self.start.saturating_sub(arrival)
    }

    /// Total latency from arrival to completion.
    pub fn latency(&self, arrival: Time) -> Time {
        self.end.saturating_sub(arrival)
    }
}

/// A single-server FIFO resource with utilization accounting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FifoResource {
    free_at: Time,
    busy: Time,
    requests: u64,
}

impl FifoResource {
    /// A resource that is free immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a request arriving at `arrival` needing `service` time.
    pub fn submit(&mut self, arrival: Time, service: Time) -> Grant {
        let start = arrival.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        self.requests += 1;
        Grant { start, end }
    }

    /// Submits `count` back-to-back requests, all arriving at `arrival`,
    /// each needing `service` time. Exactly equivalent to `count` calls to
    /// [`FifoResource::submit`] (the first starts at `max(arrival, free_at)`
    /// and every later one starts when its predecessor completes), but in
    /// O(1): the bulk-transfer fast path uses this to collapse a chunked
    /// sequential run into closed form. Returns the grant envelope — start
    /// of the first request, end of the last. `count == 0` is a no-op grant
    /// at the would-be start instant.
    pub fn submit_run(&mut self, arrival: Time, service: Time, count: u64) -> Grant {
        let start = arrival.max(self.free_at);
        if count == 0 {
            return Grant { start, end: start };
        }
        let end = start + service * count;
        self.free_at = end;
        self.busy += service * count;
        self.requests += count;
        Grant { start, end }
    }

    /// When the resource next becomes idle.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Moves the timeline `by` later and adds `busy` and `requests` to the
    /// statistics, as a run of requests whose effect is known in closed
    /// form would (a steady NFS RPC train, which moves every timeline it
    /// crosses by the same amount).
    pub fn shift(&mut self, by: Time, busy: Time, requests: u64) {
        self.free_at += by;
        self.busy = self.busy.saturating_add(busy);
        self.requests += requests;
    }

    /// Total time the resource spent serving requests.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Fraction of `horizon` the resource was busy (clamped to 1.0).
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Forgets all state (timeline and statistics).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// `k` identical FIFO servers fed from a common queue.
///
/// Requests go to the server that becomes free earliest, matching the
/// behaviour of a thread pool draining a shared run queue. The servers are
/// identical, so the pool is just their free instants: a ring sorted
/// earliest first. A request takes the head and puts its completion back
/// at the tail when it is the latest (requests that arrive in order), and
/// in order otherwise.
#[derive(Clone, Debug)]
pub struct MultiResource {
    free: VecDeque<Time>,
}

impl MultiResource {
    /// Creates a pool of `k` servers (`k ≥ 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a resource pool needs at least one server");
        MultiResource {
            free: VecDeque::from(vec![Time::ZERO; k]),
        }
    }

    /// Submits a request to the earliest-free server.
    pub fn submit(&mut self, arrival: Time, service: Time) -> Grant {
        let first = self.free.pop_front().expect("pool is non-empty");
        let start = arrival.max(first);
        let end = start + service;
        if self.free.back().is_none_or(|&last| last <= end) {
            self.free.push_back(end);
        } else {
            let at = self.free.partition_point(|&f| f <= end);
            self.free.insert(at, end);
        }
        Grant { start, end }
    }

    /// Every server's free instant, earliest first.
    pub fn free_instants(&self) -> impl Iterator<Item = Time> + '_ {
        self.free.iter().copied()
    }

    /// Moves every server's free instant `by` later.
    pub fn shift(&mut self, by: Time) {
        for f in &mut self.free {
            *f += by;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> Time {
        Time::from_secs(x)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        let g = r.submit(s(5), s(2));
        assert_eq!(g.start, s(5));
        assert_eq!(g.end, s(7));
        assert_eq!(g.queue_delay(s(5)), Time::ZERO);
        assert_eq!(g.latency(s(5)), s(2));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(10));
        let g = r.submit(s(2), s(3));
        assert_eq!(g.start, s(10));
        assert_eq!(g.end, s(13));
        assert_eq!(g.queue_delay(s(2)), s(8));
        let g2 = r.submit(s(2), s(1));
        assert_eq!(g2.start, s(13));
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(2));
        r.submit(s(4), s(2));
        assert!((r.utilization(s(8)) - 0.5).abs() < 1e-12);
        assert_eq!(r.requests(), 2);
        assert_eq!(r.busy_time(), s(4));
        assert_eq!(r.utilization(Time::ZERO), 0.0);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(100));
        assert_eq!(r.utilization(s(10)), 1.0);
    }

    #[test]
    fn reset_clears_timeline() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(100));
        r.reset();
        let g = r.submit(s(1), s(1));
        assert_eq!(g.start, s(1));
        assert_eq!(r.requests(), 1);
    }

    #[test]
    fn submit_run_matches_repeated_submit() {
        let mut bulk = FifoResource::new();
        let mut loop_r = FifoResource::new();
        bulk.submit(s(0), s(3));
        loop_r.submit(s(0), s(3));
        let g = bulk.submit_run(s(1), s(2), 5);
        let mut first = None;
        let mut last = None;
        for _ in 0..5 {
            let g = loop_r.submit(s(1), s(2));
            first.get_or_insert(g.start);
            last = Some(g.end);
        }
        assert_eq!(g.start, first.unwrap());
        assert_eq!(g.end, last.unwrap());
        assert_eq!(bulk.free_at(), loop_r.free_at());
        assert_eq!(bulk.busy_time(), loop_r.busy_time());
        assert_eq!(bulk.requests(), loop_r.requests());
    }

    #[test]
    fn submit_run_of_zero_requests_changes_nothing() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(4));
        let g = r.submit_run(s(1), s(9), 0);
        assert_eq!(g.start, s(4));
        assert_eq!(g.end, s(4));
        assert_eq!(r.requests(), 1);
        assert_eq!(r.free_at(), s(4));
    }

    #[test]
    fn multi_resource_runs_k_in_parallel() {
        let mut pool = MultiResource::new(2);
        let a = pool.submit(s(0), s(10));
        let b = pool.submit(s(0), s(10));
        let c = pool.submit(s(0), s(10));
        assert_eq!(a.start, s(0));
        assert_eq!(b.start, s(0));
        // Third request waits for the first free server.
        assert_eq!(c.start, s(10));
        assert!(pool.free_instants().eq([s(10), s(20)]));
    }

    #[test]
    fn multi_resource_picks_earliest_free_server() {
        let mut pool = MultiResource::new(2);
        pool.submit(s(0), s(10)); // server 0 busy until 10
        pool.submit(s(0), s(2)); // server 1 busy until 2
        let g = pool.submit(s(3), s(1));
        assert_eq!(g.start, s(3)); // server 1 free at 2 < arrival 3
        assert!(pool.free_instants().eq([s(4), s(10)]));
    }

    #[test]
    fn out_of_order_completions_keep_the_ring_sorted() {
        let mut pool = MultiResource::new(3);
        pool.submit(s(0), s(10));
        pool.submit(s(0), s(5));
        pool.submit(s(0), s(1)); // ends at 1, before both others
        assert!(pool.free_instants().eq([s(1), s(5), s(10)]));
        let g = pool.submit(s(0), s(1));
        assert_eq!(g.start, s(1));
        assert!(pool.free_instants().eq([s(2), s(5), s(10)]));
        pool.shift(s(3));
        assert!(pool.free_instants().eq([s(5), s(8), s(13)]));
    }

    #[test]
    fn shift_moves_the_timeline_and_adds_statistics() {
        let mut r = FifoResource::new();
        r.submit(s(0), s(2));
        r.shift(s(5), s(4), 2);
        assert_eq!(r.free_at(), s(7));
        assert_eq!(r.busy_time(), s(6));
        assert_eq!(r.requests(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_is_rejected() {
        MultiResource::new(0);
    }
}
