//! Repeats a workload for a time budget, cross-checks the repetitions and
//! folds them into the named metrics.

use crate::calib::{self, Kernel};
use crate::rep::{self, Rep, Setup};
use crate::seams::{Latencies, Seam, SEAMS};
use crate::workloads::Spec;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up samples a run takes at least, timing set-up alone (between
/// repetitions, in step with the time spent) where the repetitions do not
/// give that many.
const MIN_SETUPS: usize = 21;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Independent input instances a run pools: a run with seed `n` simulates
/// the generator seeds `n·INSTANCES + i`, `i < INSTANCES`, and reports the
/// simulated metrics over all of them, so one unlucky adaptation episode
/// moves them less.
pub const INSTANCES: usize = 3;

/// The input instances of one run seed.
fn instances(spec: &Spec) -> Vec<Spec> {
    (0..INSTANCES as u64)
        .map(|i| Spec {
            seed: spec.seed.wrapping_mul(INSTANCES as u64).wrapping_add(i),
            ..spec.clone()
        })
        .collect()
}

/// What a benchmark run collected.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions started.
    pub attempted: u64,
    /// Repetitions that panicked or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The first successful repetition of each instance, in instance
    /// order; every later one must reproduce it.
    pub reference: Vec<Rep>,
    /// Successful measured untraced repetitions.
    pub plain: Vec<Rep>,
    /// Successful traced repetitions.
    pub traced: Vec<Rep>,
    /// Set-up samples (every measured repetition's, plus set-up-only ones).
    pub setups: Vec<Setup>,
}

/// The outputs two runs of one seed must agree on exactly.
fn fingerprint(r: &Rep) -> (u64, u64, u64, [u64; 3]) {
    let [p50, p99] = r.commit_p;
    (
        r.report.digest(),
        r.report.events,
        r.report.commits,
        [p50.to_bits(), p99.to_bits(), r.ack_p99.to_bits()],
    )
}

/// Repeats `spec`'s instances in turn until `budget` is spent and each has
/// run at least once (with `trace`: once untraced, then once traced).
///
/// A first, unmeasured repetition warms the process up: its one-time lazy
/// set-up and its first touch of fresh heap pages land there. Its outputs
/// are checked and become instance 0's reference, but it adds no timing,
/// set-up or allocation sample.
pub fn run(spec: &Spec, budget: Duration, trace: bool) -> Outcome {
    let specs = instances(spec);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut refs: Vec<Option<Rep>> = vec![None; INSTANCES];
    // Allocation counts may include one-time lazy set-up in the warm-up, so
    // they are compared against each instance's first measured run.
    let mut alloc_refs: Vec<Option<u64>> = vec![None; INSTANCES];
    let mut slot = 0usize; // measured repetitions scheduled so far
    let mut kernel = Kernel::new();
    let mut last_run_s = 0.0;
    loop {
        let warmup = out.attempted == 0;
        let (inst, traced) = match (warmup, trace) {
            (true, _) => (0, false),
            (false, false) => (slot % INSTANCES, false),
            (false, true) => ((slot / 2) % INSTANCES, slot % 2 == 1),
        };
        if !warmup {
            slot += 1;
        }
        out.attempted += 1;
        let before = kernel.ns_per_iter(calib::iters_for(last_run_s));
        let mut rep = match catch_unwind(AssertUnwindSafe(|| rep::run(&specs[inst], traced))) {
            Ok(rep) => rep,
            Err(_) => {
                out.failed += 1;
                out.failures.push("repetition panicked".into());
                if warmup || start.elapsed() >= budget {
                    break;
                }
                continue;
            }
        };
        last_run_s = rep.run_s;
        let after = kernel.ns_per_iter(calib::iters_for(rep.run_s));
        rep.setup.calib_ns = (before + after) / 2.0;
        let mut failures = rep.failures.clone();
        if let Some(first) = &refs[inst] {
            if fingerprint(first) != fingerprint(&rep) {
                failures.push(format!(
                    "outputs differ across runs of seed {}{}: {:?} vs {:?}",
                    specs[inst].seed,
                    if traced { " (traced vs untraced)" } else { "" },
                    fingerprint(first),
                    fingerprint(&rep)
                ));
            }
        }
        let allocs = rep.alloc.total_count();
        if let Some(first) = alloc_refs[inst].filter(|&a| !warmup && a != allocs) {
            failures.push(format!(
                "allocation count differs across runs of seed {}: {first} vs {allocs}",
                specs[inst].seed
            ));
        }
        if failures.is_empty() {
            if refs[inst].is_none() {
                refs[inst] = Some(rep.clone());
            }
            if !warmup {
                alloc_refs[inst].get_or_insert(allocs);
                out.setups.push(rep.setup);
                if traced {
                    out.traced.push(rep);
                } else {
                    out.plain.push(rep);
                }
            }
        } else {
            out.failed += 1;
            out.failures.extend(failures);
        }
        if warmup && refs[0].is_none() {
            break; // the reference run failed: nothing to compare against
        }
        // Spread the set-up samples over the run, so a slow stretch of the
        // host does not hold all of them.
        let due = MIN_SETUPS as f64 * start.elapsed().as_secs_f64() / budget.as_secs_f64();
        while (out.setups.len() as f64) < due.min(MIN_SETUPS as f64) {
            out.setups.push(calibrated_setup(spec, &mut kernel));
        }
        let covered = refs.iter().all(Option::is_some)
            && out.plain.len() >= INSTANCES
            && (!trace || out.traced.len() >= INSTANCES);
        if (covered || out.failed > 0) && start.elapsed() >= budget {
            break;
        }
    }
    out.reference = refs.into_iter().flatten().collect();
    while out.setups.len() < MIN_SETUPS {
        out.setups.push(calibrated_setup(spec, &mut kernel));
    }
    out
}

fn calibrated_setup(spec: &Spec, kernel: &mut Kernel) -> Setup {
    let setup = rep::setup_only(spec);
    Setup {
        calib_ns: kernel.ns_per_iter(calib::iters_for(0.0)),
        ..setup
    }
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn med<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Commit latency samples behind the end-to-end percentiles.
pub fn commit_samples(out: &Outcome) -> u64 {
    out.reference
        .iter()
        .map(|r| r.latencies.commit.total())
        .sum()
}

/// The metrics a user of the simulator sees: host rates and set-up from
/// the untraced repetitions, simulated outcomes pooled over the instances.
pub fn end_to_end(out: &Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    let refs = &out.reference;
    if refs.len() < INSTANCES || out.plain.is_empty() {
        return Vec::new();
    }
    let sum = |f: &dyn Fn(&Rep) -> f64| refs.iter().map(f).sum::<f64>();
    let commits = sum(&|r| r.report.commits as f64);
    let per_commit = |f: &dyn Fn(&Rep) -> f64| sum(&|r| f(r) * r.report.commits as f64) / commits;
    let mut lat = Latencies::default();
    for r in refs {
        lat.commit.merge(&r.latencies.commit);
        lat.ack.merge(&r.latencies.ack);
    }
    let aborts = sum(&|r| r.report.aborts as f64);
    let virtual_s = sum(&|r| r.report.duration_us as f64 / 1e6);
    vec![
        metric(
            "host_commits_per_s",
            "1/s",
            med(&out.plain, Rep::host_commits_per_s),
        ),
        metric(
            "host_events_per_s",
            "1/s",
            med(&out.plain, Rep::host_events_per_s),
        ),
        metric("setup_s", "s", med(&out.setups, Setup::total_s)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("sim_tps", "1/s", commits / virtual_s),
        metric("sim_commit_p50_us", "us", lat.commit.quantile(0.50).1),
        metric("sim_commit_p99_us", "us", lat.commit.quantile(0.99).1),
        metric("sim_ack_p99_us", "us", lat.ack.quantile(0.99).1),
        metric(
            "distributed_frac",
            "ratio",
            per_commit(&|r| r.report.class_fractions[2]),
        ),
        metric("abort_rate", "ratio", aborts / (commits + aborts)),
        metric(
            "bytes_per_txn",
            "B",
            per_commit(&|r| r.report.bytes_per_txn),
        ),
    ]
}

/// The per-layer metrics, from traced repetitions (and the untraced ones,
/// for the tracing overhead).
pub fn per_layer(out: &Outcome) -> Vec<Metric> {
    // Counts come from instance 0's traced run; times are medians over
    // every traced run.
    let (Some(t), Some(_)) = (out.traced.first(), out.plain.first()) else {
        return Vec::new();
    };
    let traced = &out.traced;
    let seams = |r: &Rep| r.seams.expect("traced repetition");
    let rep = &t.report;
    let commits = rep.commits as f64;
    let calls = seams(t).calls;
    let mut m = Vec::new();
    for seam in Seam::ALL.into_iter().skip(1) {
        let i = seam as usize;
        let stem = seam.label();
        let per_call = |r: &Rep| ratio(seams(r).self_ns[i] as f64, calls[i] as f64);
        m.push(metric(format!("{stem}.calls"), "count", calls[i] as f64));
        if seam == Seam::TickPlanner {
            let ms = med(traced, per_call) / 1e6;
            m.push(metric(format!("{stem}.ms_per_call"), "ms", ms));
        } else {
            m.push(metric(
                format!("{stem}.ns_per_call"),
                "ns",
                med(traced, per_call),
            ));
        }
        let share = |r: &Rep| seams(r).self_ns[i] as f64 / (r.run_s * 1e9);
        m.push(metric(format!("{stem}.share"), "ratio", med(traced, share)));
    }
    let engine_ns = |r: &Rep| r.run_s * 1e9 - seams(r).self_ns.iter().sum::<u64>() as f64;
    m.push(metric(
        "engine.self.share",
        "ratio",
        med(traced, |r| engine_ns(r) / (r.run_s * 1e9)),
    ));
    m.push(metric(
        "engine.self.ns_per_event",
        "ns",
        med(traced, |r| engine_ns(r) / r.report.events as f64),
    ));
    m.push(metric(
        "setup.engine_new_s",
        "s",
        med(&out.setups, |s| s.engine_new_s),
    ));
    m.push(metric(
        "setup.workload_build_s",
        "s",
        med(&out.setups, |s| s.workload_s),
    ));
    m.push(metric(
        "setup.protocol_build_s",
        "s",
        med(&out.setups, |s| s.protocol_s),
    ));

    m.push(metric(
        "alloc.per_commit",
        "count",
        ratio(t.alloc.total_count() as f64, commits),
    ));
    m.push(metric(
        "alloc.bytes_per_commit",
        "B",
        ratio(t.alloc.total_bytes() as f64, commits),
    ));
    let per_call = alloc_per_call(t);
    for seam in Seam::ALL {
        let what = if seam == Seam::Engine {
            "per_event"
        } else {
            "per_call"
        };
        let name = format!("alloc.{}.{what}", seam.label());
        m.push(metric(name, "count", per_call[seam as usize]));
    }

    let ev = t.events.expect("traced repetition");
    m.push(metric(
        "engine.events_per_commit",
        "count",
        ratio(rep.events as f64, commits),
    ));
    m.push(metric(
        "obs.events_per_commit",
        "count",
        ratio(ev.events as f64, commits),
    ));
    let attempts = (rep.commits + rep.aborts) as f64;
    m.push(metric(
        "storage.occ.useful_ratio",
        "ratio",
        ratio(commits, attempts),
    ));
    for (class, bytes) in ["message", "replication", "migration"].iter().zip(ev.bytes) {
        let name = format!("cluster.bytes_per_commit.{class}");
        m.push(metric(name, "B", ratio(bytes as f64, commits)));
    }
    let counts: [(&str, u64); 13] = [
        ("provision.remasters", rep.remasters),
        ("provision.remaster_conflicts", ev.remaster_conflicts),
        ("provision.replica_adds", rep.replica_adds),
        ("provision.migrations", rep.migrations),
        ("core.plans_applied", t.core[0]),
        ("core.predicted_injected", t.core[1]),
        ("core.failover_replans", t.core[2]),
        ("durability.epochs_sealed", rep.epochs_sealed),
        ("durability.epochs_aborted", rep.epochs_aborted),
        ("durability.retried_acks", rep.epoch_retried_acks),
        ("faults.failovers", rep.failovers),
        ("faults.replayed_entries", rep.replayed_entries),
        ("sim.commit_samples", commit_samples(out)),
    ];
    for (name, v) in counts {
        m.push(metric(name, "count", v as f64));
    }
    m.push(metric(
        "faults.recovery_ms_max",
        "ms",
        rep.max_recovery_latency_us as f64 / 1e3,
    ));
    m.push(metric(
        "faults.unavailability_ms",
        "ms",
        rep.unavailability_us as f64 / 1e3,
    ));
    let overhead = ratio(
        med(traced, Rep::host_commits_per_s),
        med(&out.plain, Rep::host_commits_per_s),
    );
    m.push(metric("trace.overhead", "ratio", overhead));
    m.push(metric(
        "host.calib_ns_per_iter",
        "ns",
        med(&out.plain, |r| r.setup.calib_ns),
    ));
    m
}

/// Allocations per call of each seam (per event for the engine's own
/// share), from a traced repetition.
fn alloc_per_call(rep: &Rep) -> [f64; SEAMS] {
    let calls = rep.seams.map(|s| s.calls).unwrap_or_default();
    std::array::from_fn(|i| {
        let n = if i == 0 { rep.report.events } else { calls[i] };
        if n == 0 {
            0.0
        } else {
            rep.alloc.count[i] as f64 / n as f64
        }
    })
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && finite && !metrics.is_empty();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
