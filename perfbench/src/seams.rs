//! Outside-in instruments at the seams the engine already exposes.
//!
//! * [`TimedWorkload`] wraps the `Box<dyn Workload>` handed to
//!   `Engine::new`;
//! * [`TimedProtocol`] wraps the protocol handed to `Engine::run`;
//! * [`EventCounter`] is a `MetricSink` pushed onto `eng.obs.extras`;
//! * [`LatencyLog`] is a `MetricSink` that counts every commit and ack
//!   latency at 1 µs resolution, so percentiles are exact rather than
//!   read off the engine's log-bucketed histogram.
//!
//! The two wrappers share one per-thread tracer: a call pushes a frame,
//! and on return its time minus the time of the seams nested inside it is
//! added to the seam's self time. Nested calls are therefore never counted
//! twice, and the self times of all seams add up to at most the wall time
//! of `Engine::run`; the remainder is the engine's own time.

use crate::alloc;
use lion_common::{Time, TxnId, TxnRequest, Workload};
use lion_engine::{ByteClass, Engine, FaultNotice, MetricEvent, MetricSink, Protocol, TickKind};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The places host time and allocations are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// Inside `Engine::run` but in none of the wrapped calls.
    Engine = 0,
    /// `Workload::next_txn`.
    NextTxn,
    /// `Protocol::on_submit`.
    OnSubmit,
    /// `Protocol::on_wake`.
    OnWake,
    /// `Protocol::on_batch`.
    OnBatch,
    /// `Protocol::on_tick(Planner)`.
    TickPlanner,
    /// `Protocol::on_tick(Monitor)`.
    TickMonitor,
    /// `Protocol::on_fault`.
    OnFault,
}

/// Number of [`Seam`]s.
pub const SEAMS: usize = 8;

impl Seam {
    /// Every seam, in index order.
    pub const ALL: [Seam; SEAMS] = [
        Seam::Engine,
        Seam::NextTxn,
        Seam::OnSubmit,
        Seam::OnWake,
        Seam::OnBatch,
        Seam::TickPlanner,
        Seam::TickMonitor,
        Seam::OnFault,
    ];

    /// Metric-name stem of the seam.
    pub fn label(self) -> &'static str {
        match self {
            Seam::Engine => "engine.self",
            Seam::NextTxn => "workloads.next_txn",
            Seam::OnSubmit => "proto.on_submit",
            Seam::OnWake => "proto.on_wake",
            Seam::OnBatch => "proto.on_batch",
            Seam::TickPlanner => "proto.on_tick.planner",
            Seam::TickMonitor => "proto.on_tick.monitor",
            Seam::OnFault => "proto.on_fault",
        }
    }
}

/// Deepest nesting of wrapped calls the tracer records.
const MAX_DEPTH: usize = 8;

#[derive(Clone, Copy)]
struct Frame {
    seam: usize,
    start_ns: u64,
    child_ns: u64,
}

/// Calls and self time per seam, accumulated by the wrappers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeamTimes {
    /// Calls per seam (`Seam::Engine` stays 0).
    pub calls: [u64; SEAMS],
    /// Self time per seam, ns.
    pub self_ns: [u64; SEAMS],
}

struct Tracer {
    base: Instant,
    depth: usize,
    frames: [Frame; MAX_DEPTH],
    times: SeamTimes,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Clears the tracer before a traced run.
pub fn reset() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            base: Instant::now(),
            depth: 0,
            frames: [Frame {
                seam: 0,
                start_ns: 0,
                child_ns: 0,
            }; MAX_DEPTH],
            times: SeamTimes::default(),
        });
    });
    alloc::set_seam(Seam::Engine as usize);
}

/// What the wrappers recorded since [`reset`].
pub fn times() -> SeamTimes {
    TRACER.with(|t| t.borrow().as_ref().map(|t| t.times).unwrap_or_default())
}

fn enter(seam: Seam) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer reset before a traced run");
        assert!(t.depth < MAX_DEPTH, "seams nested deeper than {MAX_DEPTH}");
        t.frames[t.depth] = Frame {
            seam: seam as usize,
            start_ns: t.base.elapsed().as_nanos() as u64,
            child_ns: 0,
        };
        t.depth += 1;
    });
    alloc::set_seam(seam as usize);
}

fn exit() {
    let parent = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer reset before a traced run");
        let now = t.base.elapsed().as_nanos() as u64;
        t.depth -= 1;
        let f = t.frames[t.depth];
        let total = now - f.start_ns;
        t.times.calls[f.seam] += 1;
        t.times.self_ns[f.seam] += total.saturating_sub(f.child_ns);
        if t.depth > 0 {
            t.frames[t.depth - 1].child_ns += total;
            t.frames[t.depth - 1].seam
        } else {
            Seam::Engine as usize
        }
    });
    alloc::set_seam(parent);
}

#[inline]
fn timed<R>(seam: Seam, f: impl FnOnce() -> R) -> R {
    enter(seam);
    let r = f();
    exit();
    r
}

/// Times `Workload::next_txn`.
pub struct TimedWorkload(pub Box<dyn Workload>);

impl Workload for TimedWorkload {
    fn next_txn(&mut self, now: Time) -> TxnRequest {
        timed(Seam::NextTxn, || self.0.next_txn(now))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Times every `Protocol` callback.
pub struct TimedProtocol<'a, P: Protocol>(pub &'a mut P);

impl<P: Protocol> Protocol for TimedProtocol<'_, P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn batch_mode(&self) -> bool {
        self.0.batch_mode()
    }

    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
        timed(Seam::OnSubmit, || self.0.on_submit(eng, txn))
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32) {
        timed(Seam::OnWake, || self.0.on_wake(eng, txn, tag))
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        let seam = match kind {
            TickKind::Planner => Seam::TickPlanner,
            TickKind::Monitor => Seam::TickMonitor,
        };
        timed(seam, || self.0.on_tick(eng, kind))
    }

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        timed(Seam::OnBatch, || self.0.on_batch(eng, batch))
    }

    fn on_fault(&mut self, eng: &mut Engine, notice: &FaultNotice) {
        timed(Seam::OnFault, || self.0.on_fault(eng, notice))
    }
}

/// Counts of the metric events a run emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Every event.
    pub events: u64,
    /// Remaster hand-offs refused because one was already in flight.
    pub remaster_conflicts: u64,
    /// Network bytes by class: message, replication, migration.
    pub bytes: [u64; 3],
}

/// A `MetricSink` that only counts. Shares its counts through an `Rc`, so
/// the caller reads them after the engine (which owns the sink) is done.
pub struct EventCounter(pub Rc<RefCell<EventCounts>>);

impl MetricSink for EventCounter {
    fn on_event(&mut self, ev: &MetricEvent) {
        let mut c = self.0.borrow_mut();
        c.events += 1;
        match ev {
            MetricEvent::RemasterConflict { .. } => c.remaster_conflicts += 1,
            MetricEvent::Bytes { class, bytes, .. } => {
                let i = match class {
                    ByteClass::Message => 0,
                    ByteClass::Replication => 1,
                    ByteClass::Migration => 2,
                };
                c.bytes[i] += bytes;
            }
            _ => {}
        }
    }
}

/// Latency counts at 1 µs resolution: `counts[v]` samples of `v` µs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyCounts {
    counts: Vec<u32>,
    total: u64,
}

impl LatencyCounts {
    /// Records one sample. The table grows (outside the allocation
    /// counts) to the largest latency seen.
    pub fn record(&mut self, us: Time) {
        let v = usize::try_from(us).expect("latency fits in memory");
        if v >= self.counts.len() {
            alloc::untracked(|| self.counts.resize((v + 1).next_power_of_two(), 0));
        }
        self.counts[v] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatencyCounts) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile, read as grouped data with a 1 µs class:
    /// `L + (q·n − below) / at`, where `L` is the nearest-rank sample (the
    /// rank rule of the engine's own histogram), `below` counts the samples
    /// under `L` and `at` those equal to it. Simulated latencies pile up on
    /// identical values; this places the quantile inside such a pile
    /// instead of on its integer edge. Returns `(L, quantile)`, or
    /// `(0, 0.0)` when empty.
    pub fn quantile(&self, q: f64) -> (u64, f64) {
        if self.total == 0 {
            return (0, 0.0);
        }
        let pos = q * self.total as f64;
        let rank = (pos.ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                return (v as u64, v as f64 + (pos - below as f64) / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} samples", self.total)
    }
}

/// Every commit and ack latency of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Latencies {
    /// Submission → commit.
    pub commit: LatencyCounts,
    /// Submission → client-visible ack.
    pub ack: LatencyCounts,
}

/// A `MetricSink` that counts every commit and ack latency.
pub struct LatencyLog(pub Rc<RefCell<Latencies>>);

impl MetricSink for LatencyLog {
    fn on_event(&mut self, ev: &MetricEvent) {
        match ev {
            MetricEvent::Commit { latency_us, .. } => {
                self.0.borrow_mut().commit.record(*latency_us)
            }
            MetricEvent::Ack { latency_us, .. } => self.0.borrow_mut().ack.record(*latency_us),
            _ => {}
        }
    }
}
