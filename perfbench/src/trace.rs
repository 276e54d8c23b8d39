//! Host-time spans recorded around the calls into each layer.
//!
//! A [`Tracer`] keeps spans (id, parent, name, start and end in ns since
//! the tracer was made) in memory; they are written out only when the run
//! ends. Calls across the `Machine` boundary run millions of times per
//! evaluation, so they are stored as aggregates under their enclosing span
//! (parent, kind, calls, total ns) rather than as spans of their own. A
//! span's self time is its duration minus its child spans and aggregates.

use cluster::ClusterMachine;
use fs::{FileId, MetaVerb};
use mpisim::Machine;
use netsim::NodeId;
use serde_json::{Map, Number, Value};
use simcore::Time;
use std::time::Instant;

/// The kinds of `Machine` call the timing wrapper tells apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `mpi_send`: MPI messages over the fabric (`netsim`).
    MpiSend,
    /// `io_write`.
    IoWrite,
    /// `io_read`.
    IoRead,
    /// `io_open`, `io_close`, `io_sync` and `io_meta`.
    IoOther,
}

impl CallKind {
    /// Every kind, in report order.
    pub const ALL: [CallKind; 4] = [
        CallKind::MpiSend,
        CallKind::IoWrite,
        CallKind::IoRead,
        CallKind::IoOther,
    ];

    /// Name used in metrics and trace files.
    pub fn label(self) -> &'static str {
        match self {
            CallKind::MpiSend => "netsim.mpi_send",
            CallKind::IoWrite => "cluster.io_write",
            CallKind::IoRead => "cluster.io_read",
            CallKind::IoOther => "cluster.io_other",
        }
    }
}

/// Calls and host ns per [`CallKind`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallCounts {
    /// Calls per kind, indexed like [`CallKind::ALL`].
    pub calls: [u64; 4],
    /// Host nanoseconds per kind.
    pub ns: [u64; 4],
}

impl CallCounts {
    /// Host nanoseconds across every kind.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// A `Machine` that forwards every call to a [`ClusterMachine`] and sums
/// the host time each kind of call takes. It forwards `rank_invariant`
/// and `node_class` as well, so the runtime makes the same collapse
/// decisions it makes on the bare machine.
pub struct TimedMachine<'a> {
    inner: &'a mut ClusterMachine,
    /// What has been measured so far.
    pub counts: CallCounts,
}

impl<'a> TimedMachine<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut ClusterMachine) -> TimedMachine<'a> {
        TimedMachine {
            inner,
            counts: CallCounts::default(),
        }
    }

    fn timed<R>(&mut self, kind: CallKind, call: impl FnOnce(&mut ClusterMachine) -> R) -> R {
        let start = Instant::now();
        let r = call(self.inner);
        let k = kind as usize;
        self.counts.calls[k] += 1;
        self.counts.ns[k] += start.elapsed().as_nanos() as u64;
        r
    }
}

impl Machine for TimedMachine<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        self.timed(CallKind::MpiSend, |m| m.mpi_send(now, from, to, bytes))
    }

    fn io_open(&mut self, now: Time, node: NodeId, file: FileId, create: bool) -> Time {
        self.timed(CallKind::IoOther, |m| m.io_open(now, node, file, create))
    }

    fn io_close(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.timed(CallKind::IoOther, |m| m.io_close(now, node, file))
    }

    fn io_read(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        self.timed(CallKind::IoRead, |m| {
            m.io_read(now, node, file, offset, len)
        })
    }

    fn io_write(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        self.timed(CallKind::IoWrite, |m| {
            m.io_write(now, node, file, offset, len)
        })
    }

    fn io_sync(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.timed(CallKind::IoOther, |m| m.io_sync(now, node, file))
    }

    fn io_meta(
        &mut self,
        now: Time,
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        self.timed(CallKind::IoOther, |m| {
            m.io_meta(now, node, verb, dir, target)
        })
    }

    fn rank_invariant(&self) -> bool {
        self.inner.rank_invariant()
    }

    fn node_class(&self, node: NodeId) -> u64 {
        self.inner.node_class(node)
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer or phase name, e.g. `mpisim.run`.
    pub name: String,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `Machine` calls aggregated under one span.
#[derive(Clone, Copy, Debug)]
pub struct CallAggregate {
    /// The span the calls ran under.
    pub parent: usize,
    /// Which calls.
    pub kind: CallKind,
    /// How many.
    pub calls: u64,
    /// Their summed host time.
    pub ns: u64,
}

/// In-memory span recorder (ids are indices into [`Tracer::spans`]).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: Vec<CallAggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` must not unwind: callers catch panics inside it.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Like [`Tracer::span`], but a panic in `f` is caught and returned as
    /// its message; spans `f` left open are closed at the moment of the
    /// panic.
    pub fn catch<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> Result<R, String> {
        self.span(name, |tr| {
            let depth = tr.open.len();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tr)));
            if r.is_err() {
                let now = tr.now_ns();
                for id in tr.open.drain(depth..) {
                    tr.spans[id].end_ns = now;
                }
            }
            r.map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string())
            })
        })
    }

    /// Records `counts` as aggregates under the innermost open span.
    pub fn add_calls(&mut self, counts: &CallCounts) {
        let parent = *self.open.last().expect("calls are recorded inside a span");
        for kind in CallKind::ALL {
            let k = kind as usize;
            if counts.calls[k] > 0 {
                self.calls.push(CallAggregate {
                    parent,
                    kind,
                    calls: counts.calls[k],
                    ns: counts.ns[k],
                });
            }
        }
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every call aggregate, in record order.
    pub fn calls(&self) -> &[CallAggregate] {
        &self.calls
    }

    /// Self time of every span: its duration minus its children and the
    /// calls aggregated under it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut inner = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                inner[p] += s.ns();
            }
        }
        for c in &self.calls {
            inner[c.parent] += c.ns;
        }
        self.spans
            .iter()
            .zip(inner)
            .map(|(s, inner)| s.ns().saturating_sub(inner))
            .collect()
    }

    /// The trace as JSON: `spans` (with self time) and `calls`.
    pub fn to_json(&self) -> Value {
        let n = |x: u64| Value::Number(Number::PosInt(x));
        let spans = self
            .spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let mut o = Map::new();
                o.insert("id", n(id as u64));
                o.insert("parent", s.parent.map_or(Value::Null, |p| n(p as u64)));
                o.insert("name", Value::String(s.name.clone()));
                o.insert("start_ns", n(s.start_ns));
                o.insert("end_ns", n(s.end_ns));
                o.insert("self_ns", n(self_ns));
                Value::Object(o)
            })
            .collect();
        let calls = self
            .calls
            .iter()
            .map(|c| {
                let mut o = Map::new();
                o.insert("parent", n(c.parent as u64));
                o.insert("kind", Value::String(c.kind.label().to_string()));
                o.insert("calls", n(c.calls));
                o.insert("ns", n(c.ns));
                Value::Object(o)
            })
            .collect();
        let mut o = Map::new();
        o.insert("spans", Value::Array(spans));
        o.insert("calls", Value::Array(calls));
        Value::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_calls() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.add_calls(&CallCounts {
                calls: [3, 0, 0, 0],
                ns: [1_000, 0, 0, 0],
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].ns() >= spans[1].ns() + 1_000);
        assert_eq!(tr.self_ns()[0], spans[0].ns() - spans[1].ns() - 1_000);
        assert_eq!(tr.self_ns()[1], spans[1].ns());
        assert_eq!(tr.calls().len(), 1, "zero-call kinds are not recorded");
        let json = tr.to_json();
        assert_eq!(json["calls"][0]["kind"], "netsim.mpi_send");
        assert_eq!(json["spans"][1]["parent"].as_u64(), Some(0));
    }

    #[test]
    fn catch_closes_spans_a_panic_left_open() {
        let mut tr = Tracer::new();
        let r = tr.catch("item", |tr| {
            tr.span("inner", |_| -> () { panic!("boom") });
        });
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(tr.spans().len(), 2);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        // The stack is balanced again: the next span is a root.
        tr.span("next", |_| {});
        assert_eq!(tr.spans()[2].parent, None);
    }

    #[test]
    fn timed_machine_forwards_and_counts() {
        let spec = cluster::presets::test_cluster();
        let config = cluster::IoConfigBuilder::new(cluster::DeviceLayout::Jbod).build();
        let mut bare = ClusterMachine::try_new(&spec, &config).expect("valid configuration");
        let mut inner = ClusterMachine::try_new(&spec, &config).expect("valid configuration");
        let mut timed = TimedMachine::new(&mut inner);
        let f = FileId(7);
        let a = bare.io_open(Time::ZERO, 0, f, true);
        assert_eq!(timed.io_open(Time::ZERO, 0, f, true), a);
        let b = bare.io_write(a, 0, f, 0, 4096);
        assert_eq!(timed.io_write(a, 0, f, 0, 4096), b);
        let c = bare.mpi_send(b, 0, 1, 100);
        assert_eq!(timed.mpi_send(b, 0, 1, 100), c);
        assert_eq!(timed.rank_invariant(), bare.rank_invariant());
        assert_eq!(timed.nodes(), bare.nodes());
        assert_eq!(timed.counts.calls, [1, 1, 0, 1]);
    }
}
