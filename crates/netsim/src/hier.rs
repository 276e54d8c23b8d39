//! Hierarchical (rack / leaf-spine) fabric with closed-form fast paths.
//!
//! Thousand-node clusters are cabled as racks of hosts under leaf
//! switches joined by a spine. The switching core is non-blocking — only
//! the per-host edge links (NIC TX/RX) ever queue — so the core
//! contributes pure additive hop latency and the edge links are the only
//! stateful resources. That makes the whole fabric resolve with the same
//! closed-form frame pipeline as [`crate::Fabric::send`], with the same
//! discipline: a *fault horizon* guards the closed forms, and any send
//! whose conservative completion bound crosses the horizon falls back to
//! the granular per-frame loop that applies per-frame bandwidth by frame
//! start time.

use crate::fabric::{pipeline, FabricParams, NetMeter, NodeId};
use simcore::{FifoResource, Time};

/// Shape of the rack hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierTopology {
    /// Number of racks.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
}

impl HierTopology {
    /// Total number of hosts.
    pub fn nodes(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    /// Rack containing `node`.
    pub fn rack_of(&self, node: NodeId) -> usize {
        node / self.hosts_per_rack
    }
}

/// Parameters of a leaf-spine fabric: the edge-link/frame parameters of a
/// flat fabric plus the switching-core hop latencies.
#[derive(Clone, Copy, Debug)]
pub struct HierParams {
    /// Edge-link characteristics (bandwidth, latency, frames, overhead).
    pub fabric: FabricParams,
    /// Extra one-way latency per leaf-switch traversal.
    pub leaf_hop: Time,
    /// Extra one-way latency for crossing the spine.
    pub spine_hop: Time,
}

impl HierParams {
    /// Gigabit Ethernet edges under a leaf-spine core with microsecond-
    /// scale cut-through switches.
    pub fn leaf_spine_gigabit() -> HierParams {
        HierParams {
            fabric: FabricParams::gigabit_ethernet(),
            leaf_hop: Time::from_micros(5),
            spine_hop: Time::from_micros(15),
        }
    }
}

/// A rack/leaf-spine fabric.
///
/// Same-rack messages traverse one leaf; cross-rack messages traverse
/// leaf → spine → leaf. Messages serialize frame by frame on the sender's
/// TX link and the receiver's RX link exactly as on [`crate::Fabric`];
/// uncontended subtrees resolve via closed forms, and scheduled rack
/// degradation (a fault horizon) forces the granular frame loop for any
/// send that might straddle it.
pub struct HierFabric {
    params: HierParams,
    topo: HierTopology,
    tx: Vec<FifoResource>,
    rx: Vec<FifoResource>,
    meter: NetMeter,
    /// First instant at which degraded service applies ([`Time::MAX`] when
    /// no degradation is scheduled). Frames whose wire transmission starts
    /// at or after the horizon serialize `slowdown`× slower.
    horizon: Time,
    slowdown: u64,
}

impl HierFabric {
    /// A fabric over `topo` with the given parameters.
    pub fn new(topo: HierTopology, params: HierParams) -> HierFabric {
        let n = topo.nodes();
        HierFabric {
            params,
            topo,
            tx: vec![FifoResource::new(); n],
            rx: vec![FifoResource::new(); n],
            meter: NetMeter::default(),
            horizon: Time::MAX,
            slowdown: 1,
        }
    }

    /// Number of hosts.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// The topology.
    pub fn topology(&self) -> HierTopology {
        self.topo
    }

    /// Fabric parameters.
    pub fn params(&self) -> &HierParams {
        &self.params
    }

    /// Traffic statistics.
    pub fn meter(&self) -> &NetMeter {
        &self.meter
    }

    /// Schedules fabric-wide degradation: frames starting at or after `at`
    /// serialize `slowdown`× slower (cable faults, oversubscribed
    /// failover paths). The fault horizon gates every closed form.
    pub fn degrade_at(&mut self, at: Time, slowdown: u64) {
        assert!(slowdown >= 1, "slowdown is a multiplier");
        self.horizon = at;
        self.slowdown = slowdown;
    }

    /// Additive core latency of the path `from` → `to`.
    fn hop_latency(&self, from: NodeId, to: NodeId) -> Time {
        let link = self.params.fabric.link.latency;
        if self.topo.rack_of(from) == self.topo.rack_of(to) {
            link + self.params.leaf_hop
        } else {
            link + self.params.leaf_hop * 2 + self.params.spine_hop
        }
    }

    /// Serialization time of `len` payload bytes on an edge link for a
    /// frame whose wire transmission starts at `start`.
    fn frame_service(&self, start: Time, len: u64) -> Time {
        let base = self.params.fabric.link.bandwidth.time_for(len);
        if start >= self.horizon {
            base * self.slowdown
        } else {
            base
        }
    }

    /// Granular reference path: one submit per frame, each frame priced by
    /// its own wire start time — exact across the fault horizon.
    fn send_granular(&mut self, t0: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        let frame = self.params.fabric.max_frame;
        let mut remaining = bytes;
        let mut t = t0;
        let mut last_rx_end;
        loop {
            let len = remaining.min(frame);
            let start = t.max(self.tx[from].free_at());
            let service = self.frame_service(start, len.max(1).min(remaining.max(1)));
            let txg = self.tx[from].submit(t, service);
            let rxg = self.rx[to].submit(txg.end, service);
            last_rx_end = rxg.end;
            t = txg.end;
            if remaining <= frame {
                break;
            }
            remaining -= len;
        }
        last_rx_end
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// delivery instant at the receiver.
    pub fn send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let p = self.params.fabric;
        let delivered = if from == to {
            now + p.per_msg_overhead + p.loopback_bw.time_for(bytes)
        } else {
            let t0 = now + p.per_msg_overhead;
            let bw = p.link.bandwidth;
            // Conservative bound on every frame's wire start: the last TX
            // start cannot exceed queue drain plus one whole transfer (one
            // extra frame pads integer rounding).
            let clean = self.horizon == Time::MAX || {
                let drained = t0.max(self.tx[from].free_at()).max(self.rx[to].free_at());
                drained + bw.time_for(bytes.max(1)) + bw.time_for(p.max_frame) < self.horizon
            };
            let last_rx_end = if clean || t0 >= self.horizon {
                // Entirely below the fault horizon (clean) or entirely above
                // it (degraded): the closed form at one service rate.
                let slow = if clean { 1 } else { self.slowdown };
                pipeline(
                    &mut self.tx[from],
                    &mut self.rx[to],
                    t0,
                    bytes,
                    p.max_frame,
                    |l| bw.time_for(l) * slow,
                )
            } else {
                // Might straddle the horizon: event-level frame loop.
                self.send_granular(t0, from, to, bytes)
            };
            last_rx_end + self.hop_latency(from, to)
        };
        self.meter.messages += 1;
        self.meter.transfers.record(bytes, delivered - now);
        simcore::obs::emit(|| simcore::obs::ObsEvent::NetSend {
            from,
            to,
            bytes,
            start: now,
            end: delivered,
        });
        delivered
    }

    /// Closed-form *duration* of an uncontended transfer (idle edge links,
    /// below the fault horizon): pure — no fabric state is touched. This
    /// is what rank-invariant machine models price node-symmetric
    /// transport with.
    pub fn uncontended_delivery(&self, from: NodeId, to: NodeId, bytes: u64) -> Time {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let p = self.params.fabric;
        if from == to {
            return p.per_msg_overhead + p.loopback_bw.time_for(bytes);
        }
        let mut tx = FifoResource::new();
        let mut rx = FifoResource::new();
        let bw = p.link.bandwidth;
        let last = pipeline(
            &mut tx,
            &mut rx,
            p.per_msg_overhead,
            bytes,
            p.max_frame,
            |l| bw.time_for(l),
        );
        last + self.hop_latency(from, to)
    }

    /// Delivery instant for a send issued at `now` *if* the involved edge
    /// links are quiescent and the transfer completes clear of the fault
    /// horizon; `None` when either link is busy or the horizon is in
    /// reach, in which case the caller must pay a real [`HierFabric::send`].
    /// Does not mutate the fabric.
    pub fn quote(&self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Option<Time> {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let delivered = now + self.uncontended_delivery(from, to, bytes);
        if from == to {
            return Some(delivered);
        }
        if self.tx[from].free_at() > now || self.rx[to].free_at() > now {
            return None;
        }
        if self.horizon != Time::MAX {
            let p = self.params.fabric;
            let bw = p.link.bandwidth;
            let bound =
                now + p.per_msg_overhead + bw.time_for(bytes.max(1)) + bw.time_for(p.max_frame);
            if bound >= self.horizon {
                return None;
            }
        }
        Some(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Bandwidth, SplitMix64, MIB};

    fn topo() -> HierTopology {
        HierTopology {
            racks: 4,
            hosts_per_rack: 4,
        }
    }

    fn fabric() -> HierFabric {
        HierFabric::new(topo(), HierParams::leaf_spine_gigabit())
    }

    /// The per-frame reference loop, kept verbatim as ground truth for
    /// the equivalence test: one submit per frame, per-frame service
    /// priced by wire start time against the fault horizon.
    fn reference_send(f: &mut HierFabric, now: Time, from: usize, to: usize, bytes: u64) -> Time {
        let p = f.params.fabric;
        if from == to {
            let delivered = now + p.per_msg_overhead + p.loopback_bw.time_for(bytes);
            f.meter.messages += 1;
            f.meter.transfers.record(bytes, delivered - now);
            return delivered;
        }
        let mut remaining = bytes;
        let mut t = now + p.per_msg_overhead;
        let mut last_rx_end;
        loop {
            let len = remaining.min(p.max_frame);
            let start = t.max(f.tx[from].free_at());
            let service = f.frame_service(start, len.max(1).min(remaining.max(1)));
            let txg = f.tx[from].submit(t, service);
            let rxg = f.rx[to].submit(txg.end, service);
            last_rx_end = rxg.end;
            t = txg.end;
            if remaining <= p.max_frame {
                break;
            }
            remaining -= len;
        }
        let delivered = last_rx_end + f.hop_latency(from, to);
        f.meter.messages += 1;
        f.meter.transfers.record(bytes, delivered - now);
        delivered
    }

    #[test]
    fn closed_form_send_matches_the_frame_loop() {
        let params = HierParams::leaf_spine_gigabit();
        let frame = params.fabric.max_frame;
        let mut fast = HierFabric::new(topo(), params);
        let mut slow = HierFabric::new(topo(), params);
        // A fault horizon mid-run exercises all three paths: clean closed
        // form, degraded closed form, and the granular straddling loop.
        let horizon = Time::from_millis(400);
        fast.degrade_at(horizon, 3);
        slow.degrade_at(horizon, 3);
        let mut rng = SplitMix64::new(0x41e7);
        let mut now = Time::ZERO;
        for i in 0..300u64 {
            let from = rng.next_below(15) as usize;
            let to = 15usize;
            // Sizes straddle every regime: sub-frame, exact multiples,
            // multi-frame with tails, zero, and the occasional huge one.
            let bytes = match i % 5 {
                0 => rng.next_below(frame),
                1 => frame * (1 + rng.next_below(4)),
                2 => frame * (2 + rng.next_below(64)) + 1 + rng.next_below(1000),
                3 => 0,
                _ => rng.next_below(64 * MIB),
            };
            let a = fast.send(now, from, to, bytes);
            let b = reference_send(&mut slow, now, from, to, bytes);
            assert_eq!(a, b, "delivery diverged at message {i} ({bytes} bytes)");
            now += Time::from_micros(rng.next_below(5000));
        }
        assert_eq!(fast.meter().messages, slow.meter().messages);
        assert_eq!(fast.meter().transfers, slow.meter().transfers);
    }

    #[test]
    fn quote_matches_send_on_a_quiescent_fabric() {
        let mut rng = SplitMix64::new(0x9007e);
        for i in 0..50u64 {
            let mut f = fabric();
            let from = rng.next_below(16) as usize;
            let to = (from + 1 + rng.next_below(15) as usize) % 16;
            let bytes = rng.next_below(8 * MIB);
            let now = Time::from_micros(rng.next_below(10_000));
            let quoted = f.quote(now, from, to, bytes).expect("idle fabric quotes");
            let sent = f.send(now, from, to, bytes);
            assert_eq!(quoted, sent, "quote diverged at case {i}");
            // The links are busy now: the same quote must be refused.
            assert_eq!(f.quote(now, from, to, bytes), None);
        }
    }

    #[test]
    fn same_rack_is_faster_than_cross_rack() {
        let mut f = fabric();
        let local = f.send(Time::ZERO, 0, 1, 4096); // rack 0 → rack 0
        let mut g = fabric();
        let remote = g.send(Time::ZERO, 0, 5, 4096); // rack 0 → rack 1
        assert!(
            remote
                > local
                    + HierParams::leaf_spine_gigabit().leaf_hop
                    + HierParams::leaf_spine_gigabit().spine_hop
                    - Time::from_nanos(1),
            "cross-rack {remote:?} vs same-rack {local:?}"
        );
    }

    #[test]
    fn degradation_slows_sends_after_the_horizon() {
        let mut f = fabric();
        let clean = f.send(Time::ZERO, 0, 5, 4 * MIB);
        let mut g = fabric();
        g.degrade_at(Time::ZERO, 4);
        let degraded = g.send(Time::ZERO, 0, 5, 4 * MIB);
        let (c, d) = (clean.as_secs_f64(), degraded.as_secs_f64());
        assert!(d > c * 3.0, "degraded {d} vs clean {c}");
    }

    #[test]
    fn large_transfer_achieves_wire_speed() {
        let mut f = fabric();
        let bytes = 256 * MIB;
        let t = f.send(Time::ZERO, 0, 5, bytes);
        let rate = Bandwidth::measured(bytes, t).as_mib_per_sec();
        let wire = HierParams::leaf_spine_gigabit()
            .fabric
            .link
            .bandwidth
            .as_mib_per_sec();
        assert!(
            rate > wire * 0.9 && rate <= wire * 1.01,
            "rate {rate} vs wire {wire}"
        );
    }

    #[test]
    fn loopback_is_fast_and_uncontended_delivery_is_pure() {
        let mut f = fabric();
        let d1 = f.uncontended_delivery(0, 9, MIB);
        f.send(Time::ZERO, 0, 9, 64 * MIB); // congest the pair
        let d2 = f.uncontended_delivery(0, 9, MIB);
        assert_eq!(d1, d2, "uncontended_delivery must ignore fabric state");
        let t = f.send(Time::from_secs(100), 3, 3, 16 * MIB) - Time::from_secs(100);
        let rate = Bandwidth::measured(16 * MIB, t).as_mib_per_sec();
        assert!(rate > 1000.0, "loopback rate {rate}");
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn unknown_endpoint_panics() {
        fabric().send(Time::ZERO, 0, 99, 10);
    }
}
