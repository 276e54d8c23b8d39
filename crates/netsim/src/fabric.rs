//! Switched full-duplex fabric with frame-level interleaving.

use serde::{Deserialize, Serialize};
use simcore::stats::TransferMeter;
use simcore::{Bandwidth, FifoResource, SplitMix64, Time};

/// Index of a node on the fabric.
pub type NodeId = usize;

/// Physical parameters of one link.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkParams {
    /// Usable link bandwidth (payload rate after protocol framing).
    pub bandwidth: Bandwidth,
    /// One-way propagation + switching latency.
    pub latency: Time,
}

impl LinkParams {
    /// Gigabit Ethernet with TCP/IP framing: ~112 MiB/s payload, 80 µs of
    /// one-way latency, the fabric of both clusters in the paper.
    pub fn gigabit_ethernet() -> LinkParams {
        LinkParams {
            bandwidth: Bandwidth::from_bytes_per_sec(117_500_000),
            latency: Time::from_micros(80),
        }
    }
}

/// Parameters of a switched fabric.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FabricParams {
    /// Per-node link characteristics.
    pub link: LinkParams,
    /// Fragmentation unit: concurrent flows interleave at this granularity.
    pub max_frame: u64,
    /// Per-message software overhead (protocol stack traversal).
    pub per_msg_overhead: Time,
    /// Bandwidth for node-local (loopback) transfers.
    pub loopback_bw: Bandwidth,
}

impl FabricParams {
    /// A Gigabit Ethernet fabric with 64 KiB frames.
    pub fn gigabit_ethernet() -> FabricParams {
        FabricParams {
            link: LinkParams::gigabit_ethernet(),
            max_frame: 64 * 1024,
            per_msg_overhead: Time::from_micros(20),
            loopback_bw: Bandwidth::from_mib_per_sec(2500),
        }
    }
}

/// Aggregate traffic statistics of a fabric.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetMeter {
    /// All transfers (bytes and in-flight time per message).
    pub transfers: TransferMeter,
    /// Number of messages sent.
    pub messages: u64,
}

/// One message a fabric carried: the payload of its `NetSend` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
    /// Message size.
    pub bytes: u64,
    /// Instant the send was issued.
    pub start: Time,
    /// Delivery instant at the receiver.
    pub end: Time,
}

impl Sent {
    /// Emits this message's `NetSend` event moved `by` later: what the same
    /// send would report `by` later in a repeating round (see
    /// [`Fabric::repeat_sends`]).
    pub fn emit_shifted(&self, by: Time) {
        simcore::obs::emit(|| simcore::obs::ObsEvent::NetSend {
            from: self.from,
            to: self.to,
            bytes: self.bytes,
            start: self.start + by,
            end: self.end + by,
        });
    }
}

/// A non-blocking switch with one full-duplex link per node.
///
/// A message from `a` to `b` serializes on `a`'s TX link and `b`'s RX link
/// frame by frame (TX of frame *k+1* overlaps RX of frame *k*, so long
/// transfers run at wire speed); delivery is when the last frame clears the
/// RX link plus propagation latency. Messages on a common link are served
/// FIFO, so concurrent workloads interleave at message/RPC granularity —
/// the resolution the cluster I/O models need.
#[derive(Debug)]
pub struct Fabric {
    params: FabricParams,
    tx: Vec<FifoResource>,
    rx: Vec<FifoResource>,
    meter: NetMeter,
}

impl Fabric {
    /// A fabric connecting `nodes` endpoints.
    pub fn new(nodes: usize, params: FabricParams) -> Fabric {
        Fabric {
            params,
            tx: vec![FifoResource::new(); nodes],
            rx: vec![FifoResource::new(); nodes],
            meter: NetMeter::default(),
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Fabric parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Traffic statistics.
    pub fn meter(&self) -> &NetMeter {
        &self.meter
    }

    /// When `node`'s TX and RX links next become idle.
    pub fn links(&self, node: NodeId) -> [Time; 2] {
        [self.tx[node].free_at(), self.rx[node].free_at()]
    }

    /// Repeats the round of messages `sends` `times` more times, the k-th
    /// repetition `k × period` later than `sends`: the link state and meter
    /// that `times` more rounds of [`Fabric::send`] calls would leave, at
    /// O(messages) cost. The caller emits the rounds' `NetSend` events
    /// ([`Sent::emit_shifted`]), interleaved with its own.
    ///
    /// Exact in the steady state the caller must have established: the
    /// round `sends` moved every link it crossed exactly `period` later than
    /// the round before it, and the caller's own state did the same, so
    /// every later round is this one shifted (the NFS RPC trains of DESIGN
    /// §5e.6). A link that several messages of the round cross moves once
    /// and gains every message's busy time.
    pub fn repeat_sends(&mut self, sends: &[Sent], period: Time, times: u64) {
        let shift = period * times;
        let bw = self.params.link.bandwidth;
        for (i, s) in sends.iter().enumerate() {
            if s.from != s.to {
                let (busy, frames) = frame_cost(s.bytes, self.params.max_frame, |l| bw.time_for(l));
                let busy = busy.saturating_mul(times);
                let earlier = &sends[..i];
                let moved = |seen: bool| if seen { Time::ZERO } else { shift };
                let tx = moved(earlier.iter().any(|p| p.from != p.to && p.from == s.from));
                let rx = moved(earlier.iter().any(|p| p.from != p.to && p.to == s.to));
                self.tx[s.from].shift(tx, busy, frames * times);
                self.rx[s.to].shift(rx, busy, frames * times);
            }
            self.meter.messages += times;
            self.meter
                .transfers
                .record_n(s.bytes, s.end - s.start, times);
        }
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// delivery instant at the receiver.
    pub fn send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let delivered = if from == to {
            // Loopback: memory copy, no link involvement.
            now + self.params.per_msg_overhead + self.params.loopback_bw.time_for(bytes)
        } else {
            let bw = self.params.link.bandwidth;
            let last_rx_end = pipeline(
                &mut self.tx[from],
                &mut self.rx[to],
                now + self.params.per_msg_overhead,
                bytes,
                self.params.max_frame,
                |l| bw.time_for(l),
            );
            last_rx_end + self.params.link.latency
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
}

/// The closed-form frame pipeline of one message from a TX to an RX link,
/// starting at `t0`; returns the last RX end. `svc(len)` prices one frame
/// of `len` bytes.
///
/// A single frame crosses both links (zero-byte messages still cross the
/// wire). For F = ⌈bytes/frame⌉ ≥ 2 frames, the first and last go down
/// individually and the F−2 full middle frames as closed-form runs. The
/// per-frame RX chain collapses exactly: RX of frame 0 ends no earlier than
/// TX of frame 1 (equal service), so every middle frame finds the RX link
/// busy and queues directly behind its predecessor.
fn pipeline(
    tx: &mut FifoResource,
    rx: &mut FifoResource,
    t0: Time,
    bytes: u64,
    frame: u64,
    svc: impl Fn(u64) -> Time,
) -> Time {
    if bytes <= frame {
        let service = svc(bytes.max(1));
        let txg = tx.submit(t0, service);
        rx.submit(txg.end, service).end
    } else {
        let full = svc(frame);
        let tail = bytes - (bytes - 1) / frame * frame; // in (0, frame]
        let middle = (bytes - 1) / frame - 1;
        let txg0 = tx.submit(t0, full);
        let rxg0 = rx.submit(txg0.end, full);
        let tx_mid = tx.submit_run(txg0.end, full, middle);
        let rx_mid = rx.submit_run(txg0.end + full, full, middle);
        debug_assert_eq!(rx_mid.end, rxg0.end + full * middle);
        let last = svc(tail);
        let txl = tx.submit(tx_mid.end, last);
        rx.submit(txl.end, last).end
    }
}

/// The busy time and frame count one message of `bytes` puts on each link
/// it crosses: what [`pipeline`] submits to its TX and to its RX link.
fn frame_cost(bytes: u64, frame: u64, svc: impl Fn(u64) -> Time) -> (Time, u64) {
    if bytes <= frame {
        (svc(bytes.max(1)), 1)
    } else {
        let full = (bytes - 1) / frame;
        let tail = bytes - full * frame;
        (
            svc(frame).saturating_mul(full).saturating_add(svc(tail)),
            full + 1,
        )
    }
}

/// How a message should be routed across the cluster's networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// MPI point-to-point / collective traffic.
    Mpi,
    /// Storage traffic (NFS RPCs, parallel-FS transfers).
    Storage,
}

/// Sender-observed retransmission delay after a lost message (a fast
/// retransmit at transport level, not a full RTO).
const RETRANS_DELAY: Time = Time::from_millis(1);

/// Loss/duplication state of one traffic class (fault injection).
#[derive(Clone, Debug)]
struct Degradation {
    /// Probability the first copy of a message is lost in flight.
    drop: f64,
    /// Probability a message is transmitted twice.
    duplicate: f64,
    /// Deterministic per-class stream deciding each message's fate.
    rng: SplitMix64,
}

/// One or two fabrics plus the routing policy between traffic classes.
pub struct Network {
    fabrics: Vec<Fabric>,
    /// `route[class]` is the fabric index for that class.
    route_mpi: usize,
    route_storage: usize,
    degrade_mpi: Option<Degradation>,
    degrade_storage: Option<Degradation>,
}

impl Network {
    /// A single fabric carrying both classes (the "shared" layout).
    pub fn shared(nodes: usize, params: FabricParams) -> Network {
        Network {
            fabrics: vec![Fabric::new(nodes, params)],
            route_mpi: 0,
            route_storage: 0,
            degrade_mpi: None,
            degrade_storage: None,
        }
    }

    /// Two fabrics: communication and data networks (the paper's clusters).
    pub fn split(nodes: usize, params: FabricParams) -> Network {
        Network {
            fabrics: vec![Fabric::new(nodes, params), Fabric::new(nodes, params)],
            route_mpi: 0,
            route_storage: 1,
            degrade_mpi: None,
            degrade_storage: None,
        }
    }

    /// Starts dropping and/or duplicating `class` messages with the given
    /// probabilities, decided by a deterministic stream seeded with `seed`.
    /// Probabilities are clamped to `[0, 1]`.
    pub fn set_degradation(&mut self, class: TrafficClass, drop: f64, duplicate: f64, seed: u64) {
        let state = Some(Degradation {
            drop: drop.clamp(0.0, 1.0),
            duplicate: duplicate.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed),
        });
        match class {
            TrafficClass::Mpi => self.degrade_mpi = state,
            TrafficClass::Storage => self.degrade_storage = state,
        }
    }

    /// Returns `class` to lossless service.
    pub fn clear_degradation(&mut self, class: TrafficClass) {
        match class {
            TrafficClass::Mpi => self.degrade_mpi = None,
            TrafficClass::Storage => self.degrade_storage = None,
        }
    }

    /// Whether `class` currently drops or duplicates messages.
    pub fn is_degraded(&self, class: TrafficClass) -> bool {
        match class {
            TrafficClass::Mpi => self.degrade_mpi.is_some(),
            TrafficClass::Storage => self.degrade_storage.is_some(),
        }
    }

    /// Whether storage traffic has a dedicated fabric.
    pub fn is_split(&self) -> bool {
        self.route_mpi != self.route_storage
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.fabrics[0].nodes()
    }

    /// Sends a message of the given class; returns delivery time.
    ///
    /// Under degradation a dropped message burns the wire for the doomed
    /// copy, waits a fast-retransmit delay at the sender, then goes again
    /// (loss applies at most once per message, as transport retransmissions
    /// rarely lose twice in a row at these rates); a duplicated message
    /// sends a second bandwidth-consuming copy but delivery is the first.
    pub fn send(
        &mut self,
        now: Time,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: TrafficClass,
    ) -> Time {
        let idx = self.route(class);
        let (dropped, duplicated) = match match class {
            TrafficClass::Mpi => &mut self.degrade_mpi,
            TrafficClass::Storage => &mut self.degrade_storage,
        } {
            Some(d) => (
                d.drop > 0.0 && d.rng.next_f64() < d.drop,
                d.duplicate > 0.0 && d.rng.next_f64() < d.duplicate,
            ),
            None => (false, false),
        };
        let fabric = &mut self.fabrics[idx];
        let mut t = now;
        if dropped {
            let doomed = fabric.send(t, from, to, bytes);
            t = doomed + RETRANS_DELAY;
        }
        let delivered = fabric.send(t, from, to, bytes);
        if duplicated {
            fabric.send(t, from, to, bytes);
        }
        delivered
    }

    /// The fabric serving a class (for meters).
    pub fn fabric(&self, class: TrafficClass) -> &Fabric {
        &self.fabrics[self.route(class)]
    }

    fn route(&self, class: TrafficClass) -> usize {
        match class {
            TrafficClass::Mpi => self.route_mpi,
            TrafficClass::Storage => self.route_storage,
        }
    }

    /// [`Fabric::repeat_sends`] on the fabric serving `class`, which must
    /// not be degraded: loss and duplication draw from a random stream per
    /// message, so no round repeats another.
    pub fn repeat_sends(&mut self, class: TrafficClass, sends: &[Sent], period: Time, times: u64) {
        assert!(!self.is_degraded(class), "a degraded class never repeats");
        let idx = self.route(class);
        self.fabrics[idx].repeat_sends(sends, period, times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MIB;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, FabricParams::gigabit_ethernet())
    }

    #[test]
    fn small_message_cost_is_latency_dominated() {
        let mut f = fabric(4);
        let t = f.send(Time::ZERO, 0, 1, 1);
        let us = t.as_micros_f64();
        // overhead 20 + latency 80 + negligible serialization.
        assert!(us > 99.0 && us < 140.0, "1-byte latency = {us}us");
    }

    #[test]
    fn large_transfer_achieves_wire_speed() {
        let mut f = fabric(2);
        let bytes = 512 * MIB;
        let t = f.send(Time::ZERO, 0, 1, bytes);
        let rate = Bandwidth::measured(bytes, t).as_mib_per_sec();
        let wire = FabricParams::gigabit_ethernet()
            .link
            .bandwidth
            .as_mib_per_sec();
        assert!(
            rate > wire * 0.9 && rate <= wire * 1.01,
            "rate {rate} vs wire {wire}"
        );
    }

    #[test]
    fn two_senders_share_receiver_link() {
        let mut f = fabric(3);
        let bytes = 64 * MIB;
        // Interleave the two flows frame by frame as concurrent senders do.
        let t1 = f.send(Time::ZERO, 0, 2, bytes);
        let t2 = f.send(Time::ZERO, 1, 2, bytes);
        let finish = t1.max(t2);
        let agg = Bandwidth::measured(2 * bytes, finish).as_mib_per_sec();
        let wire = FabricParams::gigabit_ethernet()
            .link
            .bandwidth
            .as_mib_per_sec();
        // Aggregate into one receiver cannot exceed its RX link.
        assert!(agg <= wire * 1.02, "aggregate {agg} vs wire {wire}");
        // And both flows finish roughly together (they shared the RX link).
        assert!(finish.as_secs_f64() > (bytes * 2) as f64 / (wire * MIB as f64) * 0.9);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = fabric(4);
        let bytes = 64 * MIB;
        let t1 = f.send(Time::ZERO, 0, 1, bytes);
        let t2 = f.send(Time::ZERO, 2, 3, bytes);
        // A non-blocking switch carries disjoint pairs in parallel.
        let each = Bandwidth::measured(bytes, t1.max(t2)).as_mib_per_sec();
        assert!(each > 100.0, "disjoint flows at {each} MiB/s each");
    }

    #[test]
    fn loopback_is_fast() {
        let mut f = fabric(2);
        let t = f.send(Time::ZERO, 1, 1, 16 * MIB);
        let rate = Bandwidth::measured(16 * MIB, t).as_mib_per_sec();
        assert!(rate > 1000.0, "loopback rate {rate}");
    }

    #[test]
    fn zero_byte_message_still_has_latency() {
        let mut f = fabric(2);
        let t = f.send(Time::ZERO, 0, 1, 0);
        assert!(t > Time::from_micros(90));
    }

    #[test]
    fn meter_counts_messages_and_bytes() {
        let mut f = fabric(2);
        f.send(Time::ZERO, 0, 1, 1000);
        f.send(Time::from_secs(1), 1, 0, 2000);
        assert_eq!(f.meter().messages, 2);
        assert_eq!(f.meter().transfers.bytes(), 3000);
    }

    #[test]
    fn split_network_isolates_storage_from_mpi() {
        let bytes = 64 * MIB;
        // Shared: storage and MPI fight over node 0's TX link.
        let mut shared = Network::shared(3, FabricParams::gigabit_ethernet());
        let s1 = shared.send(Time::ZERO, 0, 1, bytes, TrafficClass::Mpi);
        let s2 = shared.send(Time::ZERO, 0, 2, bytes, TrafficClass::Storage);
        let shared_finish = s1.max(s2);

        let mut split = Network::split(3, FabricParams::gigabit_ethernet());
        let p1 = split.send(Time::ZERO, 0, 1, bytes, TrafficClass::Mpi);
        let p2 = split.send(Time::ZERO, 0, 2, bytes, TrafficClass::Storage);
        let split_finish = p1.max(p2);

        assert!(
            shared_finish.as_secs_f64() > split_finish.as_secs_f64() * 1.7,
            "shared {shared_finish:?} vs split {split_finish:?}"
        );
        assert!(split.is_split());
        assert!(!shared.is_split());
    }

    /// The pre-closed-form frame loop, kept verbatim as the reference
    /// implementation for the equivalence test below.
    fn reference_send(f: &mut Fabric, now: Time, from: usize, to: usize, bytes: u64) -> Time {
        let params = f.params;
        let bw = params.link.bandwidth;
        let mut remaining = bytes;
        let mut t = now + params.per_msg_overhead;
        let mut last_rx_end;
        loop {
            let frame = remaining.min(params.max_frame);
            let service = bw.time_for(frame.max(1).min(remaining.max(1)));
            let txg = f.tx[from].submit(t, service);
            let rxg = f.rx[to].submit(txg.end, service);
            last_rx_end = rxg.end;
            t = txg.end;
            if remaining <= params.max_frame {
                break;
            }
            remaining -= frame;
        }
        f.meter.messages += 1;
        f.meter
            .transfers
            .record(bytes, last_rx_end + params.link.latency - now);
        last_rx_end + params.link.latency
    }

    #[test]
    fn closed_form_send_matches_the_frame_loop() {
        let params = FabricParams::gigabit_ethernet();
        let mut fast = Fabric::new(4, params);
        let mut slow = Fabric::new(4, params);
        let mut rng = SplitMix64::new(0xfab);
        let mut now = Time::ZERO;
        for i in 0..200u64 {
            let from = (rng.next_below(3)) as usize;
            let to = 3usize;
            // Sizes straddle every regime: sub-frame, exact multiples,
            // multi-frame with tails, and the occasional huge transfer.
            let bytes = match i % 5 {
                0 => rng.next_below(params.max_frame),
                1 => params.max_frame * (1 + rng.next_below(4)),
                2 => params.max_frame * (2 + rng.next_below(64)) + 1 + rng.next_below(1000),
                3 => 0,
                _ => rng.next_below(256 * MIB),
            };
            let a = fast.send(now, from, to, bytes);
            let b = reference_send(&mut slow, now, from, to, bytes);
            assert_eq!(a, b, "delivery diverged at message {i} ({bytes} bytes)");
            now += Time::from_micros(rng.next_below(500));
        }
        assert_eq!(fast.meter().messages, slow.meter().messages);
        assert_eq!(fast.meter().transfers, slow.meter().transfers);
    }

    /// Rounds of a request and its reply, each round `period` after the
    /// last, repeated in closed form equal the same rounds sent one by one.
    #[test]
    fn repeated_rounds_match_granular_sends() {
        let params = FabricParams::gigabit_ethernet();
        let period = Time::from_millis(2);
        let round = |f: &mut Fabric, t: Time| {
            let arrive = f.send(t, 0, 1, 32 * 1024 + 136);
            let reply = f.send(arrive, 1, 0, 112);
            let big = f.send(t, 2, 3, 3 * params.max_frame + 5);
            // A second request on the first one's links: they move once.
            let again = f.send(t, 0, 1, 4096);
            [
                Sent {
                    from: 0,
                    to: 1,
                    bytes: 32 * 1024 + 136,
                    start: t,
                    end: arrive,
                },
                Sent {
                    from: 1,
                    to: 0,
                    bytes: 112,
                    start: arrive,
                    end: reply,
                },
                Sent {
                    from: 2,
                    to: 3,
                    bytes: 3 * params.max_frame + 5,
                    start: t,
                    end: big,
                },
                Sent {
                    from: 0,
                    to: 1,
                    bytes: 4096,
                    start: t,
                    end: again,
                },
            ]
        };
        let mut fast = Fabric::new(4, params);
        let mut slow = Fabric::new(4, params);
        let mut last = round(&mut fast, Time::ZERO);
        round(&mut slow, Time::ZERO);
        for k in 1..=50u64 {
            let sent = round(&mut slow, period * k);
            if k == 1 {
                last = round(&mut fast, period);
                assert_eq!(sent, last);
            }
        }
        fast.repeat_sends(&last, period, 49);
        for node in 0..4 {
            assert_eq!(fast.links(node), slow.links(node));
            assert_eq!(fast.tx[node].busy_time(), slow.tx[node].busy_time());
            assert_eq!(fast.rx[node].requests(), slow.rx[node].requests());
        }
        assert_eq!(fast.meter().messages, slow.meter().messages);
        assert_eq!(fast.meter().transfers, slow.meter().transfers);
    }

    #[test]
    fn send_is_deterministic() {
        let run = || {
            let mut f = fabric(4);
            let mut t = Time::ZERO;
            for i in 0..20u64 {
                t = f.send(t, (i % 3) as usize, 3, i * 1000 + 1);
            }
            t
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn unknown_endpoint_panics() {
        fabric(2).send(Time::ZERO, 0, 5, 10);
    }

    #[test]
    fn shared_and_split_expose_same_fabric_for_mpi() {
        let shared = Network::shared(4, FabricParams::gigabit_ethernet());
        assert_eq!(shared.nodes(), 4);
        // In a shared network both classes report the same meter object.
        let mut shared = shared;
        shared.send(Time::ZERO, 0, 1, 100, TrafficClass::Mpi);
        shared.send(Time::ZERO, 0, 1, 100, TrafficClass::Storage);
        assert_eq!(shared.fabric(TrafficClass::Mpi).meter().messages, 2);

        let mut split = Network::split(4, FabricParams::gigabit_ethernet());
        split.send(Time::ZERO, 0, 1, 100, TrafficClass::Mpi);
        split.send(Time::ZERO, 0, 1, 100, TrafficClass::Storage);
        assert_eq!(split.fabric(TrafficClass::Mpi).meter().messages, 1);
        assert_eq!(split.fabric(TrafficClass::Storage).meter().messages, 1);
    }

    #[test]
    fn pipelined_frames_overlap_tx_and_rx() {
        // A transfer of N frames should take ~N+1 frame times end to end,
        // not 2N (TX of frame k+1 overlaps RX of frame k).
        let mut f = fabric(2);
        let params = FabricParams::gigabit_ethernet();
        let frames = 64u64;
        let bytes = frames * params.max_frame;
        let t = f.send(Time::ZERO, 0, 1, bytes);
        let frame_time = params.link.bandwidth.time_for(params.max_frame);
        let serialized_upper = frame_time * (frames + 2);
        assert!(
            t < serialized_upper,
            "transfer {t:?} not pipelined (bound {serialized_upper:?})"
        );
        assert!(t > frame_time * frames, "faster than the wire");
    }

    #[test]
    fn later_messages_queue_behind_earlier_ones_on_a_link() {
        let mut f = fabric(2);
        let t1 = f.send(Time::ZERO, 0, 1, 10 * MIB);
        let t2 = f.send(Time::ZERO, 0, 1, 1);
        assert!(t2 > t1, "small message must wait behind the bulk transfer");
    }

    #[test]
    fn dropped_messages_pay_wire_plus_retransmit() {
        let mut clean = Network::shared(2, FabricParams::gigabit_ethernet());
        let baseline = clean.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);

        let mut lossy = Network::shared(2, FabricParams::gigabit_ethernet());
        lossy.set_degradation(TrafficClass::Storage, 1.0, 0.0, 7);
        assert!(lossy.is_degraded(TrafficClass::Storage));
        let t = lossy.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);
        // Lost copy + retransmit delay + second full copy.
        assert!(
            t.as_secs_f64() > baseline.as_secs_f64() * 1.8,
            "dropped delivery {t:?} vs baseline {baseline:?}"
        );
        // Both copies crossed the wire.
        assert_eq!(lossy.fabric(TrafficClass::Storage).meter().messages, 2);
    }

    #[test]
    fn duplicates_burn_bandwidth_without_delaying_delivery() {
        let mut clean = Network::shared(2, FabricParams::gigabit_ethernet());
        let baseline = clean.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);

        let mut dupey = Network::shared(2, FabricParams::gigabit_ethernet());
        dupey.set_degradation(TrafficClass::Storage, 0.0, 1.0, 7);
        let t = dupey.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);
        assert_eq!(t, baseline, "the first copy still delivers on time");
        assert_eq!(dupey.fabric(TrafficClass::Storage).meter().messages, 2);
        // The duplicate occupies the link, delaying the NEXT message.
        let next = dupey.send(t, 0, 1, MIB, TrafficClass::Storage);
        let clean_next = clean.send(baseline, 0, 1, MIB, TrafficClass::Storage);
        assert!(next > clean_next, "duplicate must congest the link");
    }

    #[test]
    fn degradation_is_per_class_and_clearable() {
        let mut net = Network::split(2, FabricParams::gigabit_ethernet());
        net.set_degradation(TrafficClass::Storage, 1.0, 0.0, 3);
        assert!(net.is_degraded(TrafficClass::Storage));
        assert!(!net.is_degraded(TrafficClass::Mpi));
        net.send(Time::ZERO, 0, 1, 1000, TrafficClass::Mpi);
        assert_eq!(net.fabric(TrafficClass::Mpi).meter().messages, 1);
        net.clear_degradation(TrafficClass::Storage);
        assert!(!net.is_degraded(TrafficClass::Storage));
        net.send(Time::ZERO, 0, 1, 1000, TrafficClass::Storage);
        assert_eq!(net.fabric(TrafficClass::Storage).meter().messages, 1);
    }

    #[test]
    fn degraded_sends_are_deterministic() {
        let run = || {
            let mut net = Network::shared(3, FabricParams::gigabit_ethernet());
            net.set_degradation(TrafficClass::Storage, 0.3, 0.2, 99);
            let mut t = Time::ZERO;
            for i in 0..50u64 {
                t = net.send(t, (i % 2) as usize, 2, 64 * 1024, TrafficClass::Storage);
            }
            t
        };
        assert_eq!(run(), run());
    }
}
