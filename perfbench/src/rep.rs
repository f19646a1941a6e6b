//! One repetition: build a workload's engine, run it to its horizon, and
//! collect the report, the host timings and the output checks.

use crate::alloc::AllocCounts;
use crate::calib::REF_NS;
use crate::seams::{
    self, EventCounter, EventCounts, Latencies, LatencyLog, SeamTimes, TimedProtocol, TimedWorkload,
};
use crate::workloads::{Kind, Spec};
use lion_baselines::{two_pc, TwoPc};
use lion_common::{PartitionId, Workload};
use lion_core::Lion;
use lion_engine::{Engine, Protocol, RunReport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The public counters a protocol keeps about its own decisions:
/// plans applied, predicted transactions injected, failover replans.
pub trait CoreCounters {
    /// The three counters, in that order.
    fn core_counters(&self) -> [u64; 3];
}

impl CoreCounters for Lion {
    fn core_counters(&self) -> [u64; 3] {
        [
            self.plans_applied,
            self.predicted_injected,
            self.failover_replans,
        ]
    }
}

impl CoreCounters for TwoPc {
    fn core_counters(&self) -> [u64; 3] {
        [0; 3]
    }
}

/// Set-up wall times, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Building the transaction generator.
    pub workload_s: f64,
    /// Building the protocol.
    pub protocol_s: f64,
    /// `Engine::new` (cluster, tables, replicas, FEL).
    pub engine_new_s: f64,
    /// The calibration kernel's time per iteration next to this sample,
    /// ns (0 until read).
    pub calib_ns: f64,
}

impl Setup {
    /// The whole set-up, at the reference host speed (see [`crate::calib`]).
    pub fn total_s(&self) -> f64 {
        (self.workload_s + self.protocol_s + self.engine_new_s) * REF_NS / self.calib_ns
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The engine's own report.
    pub report: RunReport,
    /// Wall time of `Engine::run`, seconds.
    pub run_s: f64,
    /// Set-up wall times, and the calibration reading after this
    /// repetition.
    pub setup: Setup,
    /// Every commit and ack latency.
    pub latencies: Latencies,
    /// Commit latency p50 and p99, µs (see [`crate::seams::LatencyCounts::quantile`]).
    pub commit_p: [f64; 2],
    /// Ack latency p99, µs.
    pub ack_p99: f64,
    /// Allocations during `Engine::run`.
    pub alloc: AllocCounts,
    /// Per-seam calls and self time (traced repetitions only).
    pub seams: Option<SeamTimes>,
    /// Metric-event counts (traced repetitions only).
    pub events: Option<EventCounts>,
    /// The protocol's [`CoreCounters`].
    pub core: [u64; 3],
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Rep {
    /// Simulated commits per host wall-second of `Engine::run`.
    pub fn raw_commits_per_s(&self) -> f64 {
        self.report.commits as f64 / self.run_s
    }

    /// Engine events per host wall-second of `Engine::run`.
    pub fn raw_events_per_s(&self) -> f64 {
        self.report.events as f64 / self.run_s
    }

    /// [`Rep::raw_commits_per_s`] at the reference host speed (see
    /// [`crate::calib`]).
    pub fn host_commits_per_s(&self) -> f64 {
        self.raw_commits_per_s() * self.setup.calib_ns / REF_NS
    }

    /// [`Rep::raw_events_per_s`] at the reference host speed.
    pub fn host_events_per_s(&self) -> f64 {
        self.raw_events_per_s() * self.setup.calib_ns / REF_NS
    }
}

/// Runs one repetition of `spec`, traced or not.
pub fn run(spec: &Spec, traced: bool) -> Rep {
    match spec.kind {
        Kind::YcsbSteady => run_with(spec, traced, Lion::standard),
        Kind::Tpcc2pc => run_with(spec, traced, two_pc),
        Kind::HotspotCrash => run_with(spec, traced, Lion::full),
    }
}

/// Times the set-up alone (no run).
pub fn setup_only(spec: &Spec) -> Setup {
    match spec.kind {
        Kind::YcsbSteady => build(spec, false, Lion::standard).2,
        Kind::Tpcc2pc => build(spec, false, two_pc).2,
        Kind::HotspotCrash => build(spec, false, Lion::full).2,
    }
}

fn build<P>(spec: &Spec, traced: bool, make: fn() -> P) -> (Engine, P, Setup) {
    let t0 = Instant::now();
    let mut workload: Box<dyn Workload> = spec.workload();
    if traced {
        workload = Box::new(TimedWorkload(workload));
    }
    let t1 = Instant::now();
    let proto = make();
    let t2 = Instant::now();
    let eng = Engine::new(spec.engine_config(), workload);
    let t3 = Instant::now();
    let setup = Setup {
        workload_s: (t1 - t0).as_secs_f64(),
        protocol_s: (t2 - t1).as_secs_f64(),
        engine_new_s: (t3 - t2).as_secs_f64(),
        calib_ns: 0.0,
    };
    (eng, proto, setup)
}

fn run_with<P: Protocol + CoreCounters>(spec: &Spec, traced: bool, make: fn() -> P) -> Rep {
    let (mut eng, mut proto, setup) = build(spec, traced, make);
    let lat = Rc::new(RefCell::new(Latencies::default()));
    let counts = Rc::new(RefCell::new(EventCounts::default()));
    eng.obs.extras.push(Box::new(LatencyLog(lat.clone())));
    if traced {
        eng.obs.extras.push(Box::new(EventCounter(counts.clone())));
        seams::reset();
    }

    let before = AllocCounts::now();
    let t0 = Instant::now();
    let report = if traced {
        eng.run(&mut TimedProtocol(&mut proto), spec.horizon)
    } else {
        eng.run(&mut proto, spec.horizon)
    };
    let run_s = t0.elapsed().as_secs_f64();
    let alloc = AllocCounts::now().since(&before);

    let mut failures = Vec::new();
    let latencies = lat.borrow().clone();
    let (p50_rank, p50) = latencies.commit.quantile(0.50);
    let (p99_rank, p99) = latencies.commit.quantile(0.99);
    let ack_p99 = latencies.ack.quantile(0.99).1;
    let ranks = [p50_rank, p99_rank];
    let samples = latencies.commit.total();
    check_outputs(spec, &eng, &report, samples, ranks, &mut failures);

    let seams = traced.then(seams::times);
    if let Some(t) = &seams {
        let wrapped: u64 = t.self_ns.iter().sum();
        if wrapped as f64 > run_s * 1e9 {
            failures.push(format!(
                "wrapped self time {wrapped} ns exceeds Engine::run wall time {:.0} ns",
                run_s * 1e9
            ));
        }
    }
    Rep {
        latencies,
        commit_p: [p50, p99],
        ack_p99,
        alloc,
        seams,
        events: traced.then(|| *counts.borrow()),
        core: proto.core_counters(),
        report,
        run_s,
        setup,
        failures,
    }
}

/// Checks one run's outputs against what the engine must produce.
fn check_outputs(
    spec: &Spec,
    eng: &Engine,
    r: &RunReport,
    commit_samples: u64,
    ranks: [u64; 2],
    failures: &mut Vec<String>,
) {
    if r.commits == 0 {
        failures.push("no commits".into());
    }
    if commit_samples != r.commits {
        failures.push(format!(
            "latency sink saw {commit_samples} commits, the report {}",
            r.commits
        ));
    }
    // The engine's histogram answers with the low edge of the bucket that
    // holds the nearest-rank sample (buckets are at most 1/32 wide).
    for (exact, bucket) in ranks.into_iter().zip([r.latency_p[1], r.latency_p[3]]) {
        if bucket > exact || exact > bucket + bucket / 32 + 1 {
            failures.push(format!(
                "exact commit latency {exact} us outside the histogram's bucket at {bucket} us"
            ));
        }
    }
    if spec.kind != Kind::HotspotCrash {
        return;
    }
    let rf = spec.sim().replication_factor;
    let short = (0..eng.cluster.placement.n_partitions() as u32)
        .filter(|&p| eng.cluster.placement.replica_count(PartitionId(p)) < rf)
        .count();
    let expect = [
        ("acked_then_lost == 0", r.acked_then_lost == 0),
        ("fenced_acks == 0", r.fenced_acks == 0),
        ("exactly one crash", r.crashes == 1),
        ("failovers > 0", r.failovers > 0),
        ("every partition back at its replication factor", short == 0),
    ];
    for (what, ok) in expect {
        if !ok {
            failures.push(format!("{what} does not hold ({short} partitions short)"));
        }
    }
}
