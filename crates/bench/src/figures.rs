//! One experiment per paper table/figure (§VI). Each function assembles the
//! sweep, runs it on the pool, and renders the same rows/series the paper
//! plots.

use crate::harness::{
    base_sim, run_all, run_job, tpcc_spec, ycsb_sched_spec, ycsb_spec, Job, ProtoKind, Scale,
    WorkloadSpec,
};
use lion_core::LionConfig;
use lion_engine::RunReport;
use lion_workloads::Schedule;
use std::fmt::Write as _;

/// Cross-partition sweep points (% of cross-partition transactions).
const CROSS_POINTS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

fn kilo(v: f64) -> String {
    format!("{:>8.1}", v / 1000.0)
}

/// Renders a protocols × sweep matrix of throughputs (k txn/s).
fn matrix(title: &str, cols: &[String], rows: &[(&str, Vec<&RunReport>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title}");
    let _ = write!(out, "{:<10}", "protocol");
    for c in cols {
        let _ = write!(out, "{c:>9}");
    }
    let _ = writeln!(out, "   (throughput, k txn/s)");
    for (name, reports) in rows {
        let _ = write!(out, "{name:<10}");
        for r in reports {
            let _ = write!(out, " {}", kilo(r.throughput_tps));
        }
        let _ = writeln!(out);
    }
    out
}

fn sweep_jobs(
    protos: &[ProtoKind],
    mk_workload: impl Fn(f64, u64) -> WorkloadSpec,
    nodes: usize,
    horizon: u64,
) -> (Vec<Job>, Vec<String>) {
    let mut jobs = Vec::new();
    let cols: Vec<String> = CROSS_POINTS
        .iter()
        .map(|c| format!("{:.0}%", c * 100.0))
        .collect();
    for proto in protos {
        for (i, &cross) in CROSS_POINTS.iter().enumerate() {
            jobs.push(Job::new(
                format!("{}/{}", proto.label(), cols[i]),
                *proto,
                base_sim(nodes),
                mk_workload(cross, 1000 + i as u64),
                horizon,
            ));
        }
    }
    (jobs, cols)
}

fn render_sweep(
    title: &str,
    protos: &[ProtoKind],
    cols: Vec<String>,
    reports: &[RunReport],
) -> String {
    let per = cols.len();
    let rows: Vec<(&str, Vec<&RunReport>)> = protos
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            (
                p.label(),
                reports[pi * per..(pi + 1) * per].iter().collect(),
            )
        })
        .collect();
    matrix(title, &cols, &rows)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table I: the qualitative comparison matrix (static content).
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table I: comparison of Lion with existing approaches"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:<9} {:<11} {:<10} {:<12}",
        "system", "key design", "adaptive", "mig.-free", "balanced", "constraints"
    );
    for (sys, design, ad, mf, lb, cons) in [
        (
            "2PC",
            "distributed transactions",
            "n/a",
            "n/a",
            "n/a",
            "none",
        ),
        ("Schism", "offline repartitioning", "no", "no", "yes", "n/a"),
        ("Leap", "aggressive migration", "yes", "no", "no", "n/a"),
        ("Clay", "periodical migration", "yes", "no", "yes", "n/a"),
        (
            "Hermes",
            "deterministic migration",
            "yes",
            "no",
            "yes",
            "in batches",
        ),
        ("Star", "full replication", "no", "yes", "no", "in batches"),
        ("Lion", "adaptive replication", "yes", "yes", "yes", "none"),
    ] {
        let _ = writeln!(
            out,
            "{sys:<10} {design:<26} {ad:<9} {mf:<11} {lb:<10} {cons:<12}"
        );
    }
    out
}

/// Table II: the ablation variant settings, straight from the configs.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table II: ablation variants");
    let _ = writeln!(
        out,
        "{:<10} {:<22} {:<11} {:<6}",
        "variant", "partitioning", "prediction", "batch"
    );
    let _ = writeln!(out, "{:<10} {:<22} {:<11} {:<6}", "2PC", "-", "-", "-");
    for cfg in LionConfig::all_variants() {
        let part = match cfg.partitioning {
            lion_core::Partitioning::Rearrange => "replica rearrangement",
            lion_core::Partitioning::Schism => "Schism",
        };
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:<11} {:<6}",
            cfg.name,
            part,
            if cfg.prediction { "yes" } else { "-" },
            if cfg.batch { "yes" } else { "-" }
        );
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 6: ablation, uniform YCSB, cross-partition sweep
// ---------------------------------------------------------------------

/// Fig. 6: throughput of every ablation variant vs cross-partition ratio.
pub fn fig6(scale: Scale) -> String {
    let protos = ProtoKind::ablation_set();
    let (jobs, cols) = sweep_jobs(&protos, |c, s| ycsb_spec(4, c, 0.0, s), 4, scale.steady_us);
    let reports = run_all(jobs);
    render_sweep("Fig. 6: ablation (uniform YCSB)", &protos, cols, &reports)
}

// ---------------------------------------------------------------------
// Fig. 7 / Fig. 9: cross-partition sweeps, skewed YCSB + TPC-C
// ---------------------------------------------------------------------

/// Fig. 7: standard-execution protocols, skewed workloads.
pub fn fig7(scale: Scale) -> String {
    let protos = ProtoKind::standard_set();
    let (jobs_a, cols) = sweep_jobs(&protos, |c, s| ycsb_spec(4, c, 0.8, s), 4, scale.steady_us);
    let (jobs_b, _) = sweep_jobs(&protos, |c, _| tpcc_spec(4, c, 0.8), 4, scale.steady_us);
    let ra = run_all(jobs_a);
    let rb = run_all(jobs_b);
    let mut out = render_sweep(
        "Fig. 7a: skewed YCSB (standard)",
        &protos,
        cols.clone(),
        &ra,
    );
    out.push_str(&render_sweep(
        "Fig. 7b: skewed TPC-C (standard)",
        &protos,
        cols,
        &rb,
    ));
    out
}

/// Fig. 9: batch-execution protocols, skewed workloads.
pub fn fig9(scale: Scale) -> String {
    let protos = ProtoKind::batch_set();
    let (jobs_a, cols) = sweep_jobs(&protos, |c, s| ycsb_spec(4, c, 0.8, s), 4, scale.steady_us);
    let (jobs_b, _) = sweep_jobs(&protos, |c, _| tpcc_spec(4, c, 0.8), 4, scale.steady_us);
    let ra = run_all(jobs_a);
    let rb = run_all(jobs_b);
    let mut out = render_sweep("Fig. 9a: skewed YCSB (batch)", &protos, cols.clone(), &ra);
    out.push_str(&render_sweep(
        "Fig. 9b: skewed TPC-C (batch)",
        &protos,
        cols,
        &rb,
    ));
    out
}

// ---------------------------------------------------------------------
// Fig. 8 / Fig. 10: dynamic workloads (throughput over time)
// ---------------------------------------------------------------------

fn timeline(title: &str, protos: &[ProtoKind], reports: &[RunReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} (k txn/s per second)");
    let secs = reports
        .iter()
        .map(|r| r.throughput_series.len())
        .max()
        .unwrap_or(0);
    let _ = write!(out, "{:<10}", "t(s)");
    for s in 0..secs {
        let _ = write!(out, "{s:>7}");
    }
    let _ = writeln!(out);
    for (p, r) in protos.iter().zip(reports) {
        let _ = write!(out, "{:<10}", p.label());
        for s in 0..secs {
            let v = r.throughput_series.get(s).copied().unwrap_or(0.0);
            let _ = write!(out, "{:>7.0}", v / 1000.0);
        }
        let _ = writeln!(out);
    }
    out
}

fn dynamic_jobs(protos: &[ProtoKind], schedule: Schedule, horizon: u64) -> Vec<Job> {
    protos
        .iter()
        .map(|p| {
            Job::new(
                p.label(),
                *p,
                base_sim(4),
                ycsb_sched_spec(4, schedule.clone(), 77),
                horizon,
            )
        })
        .collect()
}

/// Fig. 8: dynamic workloads, standard protocols.
pub fn fig8(scale: Scale) -> String {
    let protos = ProtoKind::standard_set();
    let period = scale.period_us;
    let horizon = period * 4;
    let a = run_all(dynamic_jobs(
        &protos,
        Schedule::interval_shift(period, 3, 9, 0.5),
        horizon,
    ));
    let b = run_all(dynamic_jobs(
        &protos,
        Schedule::position_shift(period, 0.8, 16),
        horizon,
    ));
    let mut out = timeline(
        &format!(
            "Fig. 8a: varying hotspot interval (period {}s)",
            period / 1_000_000
        ),
        &protos,
        &a,
    );
    out.push_str(&timeline(
        &format!(
            "Fig. 8b: varying hotspot position A-D (period {}s)",
            period / 1_000_000
        ),
        &protos,
        &b,
    ));
    out
}

/// Fig. 10: dynamic workloads, batch protocols.
pub fn fig10(scale: Scale) -> String {
    let protos = ProtoKind::batch_set();
    let period = scale.period_us;
    let horizon = period * 4;
    let a = run_all(dynamic_jobs(
        &protos,
        Schedule::interval_shift(period, 3, 9, 0.5),
        horizon,
    ));
    let b = run_all(dynamic_jobs(
        &protos,
        Schedule::position_shift(period, 0.8, 16),
        horizon,
    ));
    let mut out = timeline(
        &format!(
            "Fig. 10a: varying hotspot interval, batch (period {}s)",
            period / 1_000_000
        ),
        &protos,
        &a,
    );
    out.push_str(&timeline(
        &format!(
            "Fig. 10b: varying hotspot position A-D, batch (period {}s)",
            period / 1_000_000
        ),
        &protos,
        &b,
    ));
    out
}

// ---------------------------------------------------------------------
// Fig. 11: scalability
// ---------------------------------------------------------------------

/// Fig. 11: throughput vs node count (100% cross, uniform).
pub fn fig11(scale: Scale) -> String {
    let sizes = [4usize, 6, 8, 10];
    let mut out = String::new();
    for (title, protos) in [
        (
            "Fig. 11a: scalability (standard)",
            ProtoKind::standard_set(),
        ),
        ("Fig. 11b: scalability (batch)", ProtoKind::batch_set()),
    ] {
        let mut jobs = Vec::new();
        for proto in &protos {
            for &n in &sizes {
                jobs.push(Job::new(
                    format!("{}/{}", proto.label(), n),
                    *proto,
                    base_sim(n),
                    ycsb_spec(n as u32, 1.0, 0.0, 42),
                    scale.steady_us,
                ));
            }
        }
        let reports = run_all(jobs);
        let cols: Vec<String> = sizes.iter().map(|n| format!("{n} nodes")).collect();
        let rows: Vec<(&str, Vec<&RunReport>)> = protos
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                (
                    p.label(),
                    reports[pi * sizes.len()..(pi + 1) * sizes.len()]
                        .iter()
                        .collect(),
                )
            })
            .collect();
        out.push_str(&matrix(title, &cols, &rows));
        // scalability factor: T(10)/T(4)
        for (name, rs) in &rows {
            let f = rs.last().expect("sizes").throughput_tps
                / rs.first().expect("sizes").throughput_tps.max(1.0);
            let _ = writeln!(out, "   {name:<10} speedup 4→10 nodes: {f:.2}x");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 12: migration/remastering analysis (adaptation timeline)
// ---------------------------------------------------------------------

/// Fig. 12: Lion's adaptation timeline — throughput and network bytes per
/// transaction around a predicted workload switch.
pub fn fig12(scale: Scale) -> String {
    let period = scale.period_us * 2;
    let sched = Schedule::Cycle(vec![
        lion_workloads::PhaseCfg {
            duration_us: period,
            cross_ratio: 0.8,
            skew_factor: 0.0,
            offset: 0,
        },
        lion_workloads::PhaseCfg {
            duration_us: period,
            cross_ratio: 0.8,
            skew_factor: 0.0,
            offset: 9,
        },
    ]);
    let job = Job::new(
        "Lion",
        ProtoKind::LionStd,
        base_sim(4),
        ycsb_sched_spec(4, sched, 78),
        period * 2,
    );
    let r = run_job(&job);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 12: adaptation analysis (workload switch at t={}s)",
        period / 1_000_000
    );
    let _ = writeln!(out, "{:<6} {:>12} {:>14}", "t(s)", "ktxn/s", "bytes/txn");
    for (s, (tput, bpt)) in r
        .throughput_series
        .iter()
        .zip(&r.bytes_per_txn_series)
        .enumerate()
    {
        let _ = writeln!(out, "{:<6} {:>12.1} {:>14.0}", s, tput / 1000.0, bpt);
    }
    let _ = writeln!(
        out,
        "total remasters: {}  replica adds: {}",
        r.remasters, r.replica_adds
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 13: prediction + batch-optimization analysis
// ---------------------------------------------------------------------

/// Fig. 13a: adaptation with and without the predictor.
pub fn fig13a(scale: Scale) -> String {
    let period = scale.period_us;
    let sched = Schedule::interval_shift(period, 3, 9, 1.0);
    let jobs = vec![
        Job::new(
            "Baseline",
            ProtoKind::LionR,
            base_sim(4),
            ycsb_sched_spec(4, sched.clone(), 79),
            period * 6,
        ),
        Job::new(
            "With Predictor",
            ProtoKind::LionRW,
            base_sim(4),
            ycsb_sched_spec(4, sched, 79),
            period * 6,
        ),
    ];
    let reports = run_all(jobs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 13a: impact of pre-replication (k txn/s per second)"
    );
    let secs = reports[0]
        .throughput_series
        .len()
        .max(reports[1].throughput_series.len());
    let _ = write!(out, "{:<16}", "t(s)");
    for s in 0..secs {
        let _ = write!(out, "{s:>6}");
    }
    let _ = writeln!(out);
    for r in &reports {
        let _ = write!(out, "{:<16}", r.protocol);
        for s in 0..secs {
            let v = r.throughput_series.get(s).copied().unwrap_or(0.0);
            let _ = write!(out, "{:>6.0}", v / 1000.0);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "total commits: baseline {} vs with-predictor {}",
        reports[0].commits, reports[1].commits
    );
    out
}

/// Fig. 13b: throughput vs remastering duration, non-batch vs batch.
pub fn fig13b(scale: Scale) -> String {
    let delays = [500u64, 1_500, 2_000, 3_000, 3_500];
    let mut jobs = Vec::new();
    for proto in [ProtoKind::LionStd, ProtoKind::LionFull] {
        for &d in &delays {
            jobs.push(Job::new(
                format!("{}/{}", proto.label(), d),
                proto,
                base_sim(4).with_remaster_delay(d),
                ycsb_spec(4, 0.8, 0.5, 80),
                scale.steady_us,
            ));
        }
    }
    let reports = run_all(jobs);
    let cols: Vec<String> = delays.iter().map(|d| format!("{d}us")).collect();
    let rows = vec![
        ("Non-batch", reports[..delays.len()].iter().collect()),
        ("Batch", reports[delays.len()..].iter().collect()),
    ];
    matrix("Fig. 13b: impact of remastering duration", &cols, &rows)
}

// ---------------------------------------------------------------------
// Fig. 14: latency + phase breakdown
// ---------------------------------------------------------------------

/// Fig. 14: latency percentiles (a) and normalized phase breakdown (b) for
/// the batch protocols.
pub fn fig14(scale: Scale) -> String {
    let protos = ProtoKind::batch_set();
    let jobs: Vec<Job> = protos
        .iter()
        .map(|p| {
            Job::new(
                p.label(),
                *p,
                base_sim(4),
                ycsb_spec(4, 0.5, 0.0, 81),
                scale.steady_us,
            )
        })
        .collect();
    let reports = run_all(jobs);
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 14a: latency percentiles (us)");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>10}",
        "protocol", "p10", "p50", "p95", "p50/floor"
    );
    for r in &reports {
        // p50 as a multiple of the network latency floor (the cheapest
        // possible cross-node commit round trip) — a topology-independent
        // view of protocol overhead.
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>9.1}x",
            r.protocol, r.latency_p[0], r.latency_p[1], r.latency_p[2], r.p50_floor_x
        );
    }
    let _ = writeln!(out, "\n== Fig. 14b: normalized runtime breakdown");
    for r in &reports {
        let _ = writeln!(out, "{}", r.phase_row());
    }
    out
}

// ---------------------------------------------------------------------
// Fig. F1: throughput under node failure (fault-injection subsystem)
// ---------------------------------------------------------------------

/// Fig. F1: goodput under a node crash + recovery, Lion vs the baselines.
///
/// A deterministic [`lion_engine::FaultPlan`] crashes N1 one third into the
/// run and restarts it at two thirds. Lion's adaptively provisioned
/// secondaries double as warm standbys, so its partitions fail over by
/// promotion (priced like remastering); systems are compared on goodput
/// dip/ramp, per-partition recovery latency, and total unavailability.
pub fn fig_f1(scale: Scale) -> String {
    use lion_common::NodeId;
    let horizon = scale.steady_us * 3;
    let crash_at = horizon / 3;
    let recover_at = 2 * horizon / 3;
    let faults = lion_engine::FaultPlan::single_failure(crash_at, NodeId(1), recover_at);
    let protos = [
        ProtoKind::LionStd,
        ProtoKind::TwoPc,
        ProtoKind::Star,
        ProtoKind::Calvin,
        ProtoKind::Hermes,
    ];
    let jobs: Vec<Job> = protos
        .iter()
        .map(|p| {
            Job::new(
                p.label(),
                *p,
                base_sim(4),
                ycsb_spec(4, 0.5, 0.0, 90),
                horizon,
            )
            .with_faults(faults.clone())
        })
        .collect();
    let reports = run_all(jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. F1: throughput under node failure (crash N1 at t={}s, recover at t={}s)",
        crash_at / 1_000_000,
        recover_at / 1_000_000
    );
    out.push_str(&timeline("Fig. F1a: goodput timeline", &protos, &reports));
    let _ = writeln!(out, "\n== Fig. F1b: recovery analysis");
    for r in &reports {
        let _ = writeln!(out, "{}", r.failover_row());
    }
    let _ = writeln!(
        out,
        "\n== Fig. F1c: goodput ramp (time to 80% of pre-crash goodput)"
    );
    for r in &reports {
        let ramp = r
            .recovery_ramp_us(crash_at, crash_at, 0.8)
            .map(|us| format!("{:.1} ms", us as f64 / 1000.0))
            .unwrap_or_else(|| "never".into());
        let _ = writeln!(out, "{:<10} {}", r.protocol, ramp);
    }
    out
}

// ---------------------------------------------------------------------
// Fig. F2: the locality-vs-availability frontier (failure domains)
// ---------------------------------------------------------------------

/// Fig. F2: LocalityFirst vs RackSafe placement under a single-zone loss.
///
/// A 4-node cluster is split into two racks (Z0 = {N0,N1}, Z1 = {N2,N3})
/// with a cross-zone latency surcharge; a deterministic
/// [`lion_engine::FaultPlan`] kills rack Z1 one third into the run and
/// restores it at two thirds. Each protocol runs twice — locality-first
/// placement (the paper's Algorithm 1) and rack-safe anti-affinity
/// (`min_zones = 2`) — and the matrix reports what rack-safety costs in
/// throughput against what it buys in availability: under LocalityFirst,
/// partitions whose replicas were rack-local stall for the whole outage
/// (`stalled > 0`); under RackSafe every partition keeps a live replica and
/// fails over (`stalled = 0`).
pub fn fig_f2(scale: Scale) -> String {
    use lion_common::{PlacementPolicy, ZoneId};
    let horizon = scale.steady_us * 3;
    let crash_at = horizon / 3;
    let heal_at = 2 * horizon / 3;
    let faults = lion_engine::FaultPlan::zone_failure(crash_at, ZoneId(1), heal_at);
    let protos = [
        ProtoKind::LionStd,
        ProtoKind::TwoPc,
        ProtoKind::Star,
        ProtoKind::Calvin,
    ];
    let policies = [
        ("LocalityFirst", PlacementPolicy::LocalityFirst),
        ("RackSafe(2)", PlacementPolicy::RackSafe { min_zones: 2 }),
    ];
    // Two arms per (protocol, policy): a fault-free steady-state run that
    // isolates the pure locality cost of rack-safe placement (cross-zone
    // prepare replication), and the zone-outage run that shows what that
    // cost buys. Job order: [steady, outage] per policy per protocol.
    let mut jobs = Vec::new();
    for proto in &protos {
        for (pname, policy) in &policies {
            let mut sim = base_sim(4).with_zones(2).with_placement(*policy);
            sim.net.cross_zone_extra_us = 60; // aggregation-layer hop
            jobs.push(Job::new(
                format!("{}/{}/steady", proto.label(), pname),
                *proto,
                sim.clone(),
                ycsb_spec(4, 0.5, 0.0, 91),
                scale.steady_us,
            ));
            jobs.push(
                Job::new(
                    format!("{}/{}/outage", proto.label(), pname),
                    *proto,
                    sim,
                    ycsb_spec(4, 0.5, 0.0, 91),
                    horizon,
                )
                .with_faults(faults.clone()),
            );
        }
    }
    let reports = run_all(jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. F2: failure domains — rack Z1 = {{N2,N3}} lost at t={}s, restored at t={}s",
        crash_at / 1_000_000,
        heal_at / 1_000_000
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>9} {:>8} {:>9} {:>8} {:>10} {:>12}",
        "protocol", "placement", "steady", "cost", "outage", "stalled", "failovers", "unavail(ms)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>9} {:>8} {:>9}",
        "", "", "(ktxn/s)", "", "(ktxn/s)"
    );
    for (pi, proto) in protos.iter().enumerate() {
        let base = pi * 4;
        let lf_steady = &reports[base];
        for (qi, (pname, _)) in policies.iter().enumerate() {
            let steady = &reports[base + qi * 2];
            let outage = &reports[base + qi * 2 + 1];
            // Locality cost of this policy in failure-free steady state,
            // relative to LocalityFirst (0% for the LocalityFirst row).
            let cost = (steady.throughput_tps / lf_steady.throughput_tps.max(1.0) - 1.0) * 100.0;
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>9.1} {:>+7.1}% {:>9.1} {:>8} {:>10} {:>12.1}",
                proto.label(),
                pname,
                steady.throughput_tps / 1000.0,
                cost,
                outage.throughput_tps / 1000.0,
                outage.stalled_partitions,
                outage.failovers,
                outage.unavailability_us as f64 / 1000.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(`cost` = steady-state throughput of this placement vs LocalityFirst: what\n\
         anti-affinity spends on cross-rack replication. `stalled` = partitions whose\n\
         every replica sat in the dead rack — they blocked until the heal. RackSafe\n\
         keeps stalled at 0: the availability its locality cost buys.)"
    );
    out
}

// ---------------------------------------------------------------------
// Fig. E: epoch group commit — ack latency vs epoch length
// ---------------------------------------------------------------------

/// Fig. E: client-visible ack latency vs epoch-commit length, steady state
/// and under the figf1 crash script.
///
/// Column `0us` is ack-at-commit (the legacy, optimistic ack): lowest
/// latency, but the crash arm shows a non-zero `acked_then_lost` — commits
/// reported to clients whose log entries died with the primary's epoch
/// buffer. Every epoch-commit column trades p50 ack latency (epoch
/// residency + replication transit) for `acked_then_lost = 0`: an ack only
/// escapes behind its epoch's replication, and a crash retries the parked,
/// never-acked transactions instead.
pub fn fig_e(scale: Scale) -> String {
    use lion_common::NodeId;
    const EPOCHS_US: [u64; 5] = [0, 1_000, 5_000, 10_000, 20_000];
    let protos = [
        ProtoKind::LionStd,
        ProtoKind::TwoPc,
        ProtoKind::Star,
        ProtoKind::Calvin,
    ];
    let horizon = scale.steady_us * 3;
    let crash_at = horizon / 3;
    let recover_at = 2 * horizon / 3;
    let faults = lion_engine::FaultPlan::single_failure(crash_at, NodeId(1), recover_at);
    // Two arms per (protocol, epoch length): [steady, crash].
    let mut jobs = Vec::new();
    for proto in &protos {
        for &e in &EPOCHS_US {
            jobs.push(
                Job::new(
                    format!("{}/{}us/steady", proto.label(), e),
                    *proto,
                    base_sim(4),
                    ycsb_spec(4, 0.5, 0.0, 92),
                    scale.steady_us,
                )
                .with_epoch_commit(e),
            );
            jobs.push(
                Job::new(
                    format!("{}/{}us/crash", proto.label(), e),
                    *proto,
                    base_sim(4),
                    ycsb_spec(4, 0.5, 0.0, 92),
                    horizon,
                )
                .with_faults(faults.clone())
                .with_epoch_commit(e),
            );
        }
    }
    let reports = run_all(jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. E: epoch group commit — ack latency vs epoch length (0us = ack at commit)"
    );
    let cols: Vec<String> = EPOCHS_US.iter().map(|e| format!("{e}us")).collect();
    let per = 2 * EPOCHS_US.len();
    let _ = writeln!(out, "-- Fig. Ea: steady-state ack latency p50 (us)");
    let _ = write!(out, "{:<10}", "protocol");
    for c in &cols {
        let _ = write!(out, "{c:>9}");
    }
    let _ = writeln!(out);
    for (pi, p) in protos.iter().enumerate() {
        let _ = write!(out, "{:<10}", p.label());
        for ei in 0..EPOCHS_US.len() {
            let r = &reports[pi * per + 2 * ei];
            let _ = write!(out, " {:>8}", r.ack_latency_p[0]);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "-- Fig. Eb: steady-state throughput (k txn/s)");
    let _ = write!(out, "{:<10}", "protocol");
    for c in &cols {
        let _ = write!(out, "{c:>9}");
    }
    let _ = writeln!(out);
    for (pi, p) in protos.iter().enumerate() {
        let _ = write!(out, "{:<10}", p.label());
        for ei in 0..EPOCHS_US.len() {
            let r = &reports[pi * per + 2 * ei];
            let _ = write!(out, " {:>8.1}", r.throughput_tps / 1000.0);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "-- Fig. Ec: crash arm (N1 down at t={}s, back at t={}s) — the durability hole",
        crash_at / 1_000_000,
        recover_at / 1_000_000
    );
    for (pi, _) in protos.iter().enumerate() {
        for (ei, col) in cols.iter().enumerate() {
            let r = &reports[pi * per + 2 * ei + 1];
            let _ = writeln!(out, "{col:>8}  {}", r.ack_row());
        }
    }
    let _ = writeln!(
        out,
        "\n(`acked_then_lost` > 0 only ever appears in the 0us ack-at-commit rows: acks\n\
         that escaped before replication and died with the crashed primary. Under epoch\n\
         commit the same crashes abort the open epochs — `retried_acks` — and the\n\
         counter stays 0: no acked commit is ever lost.)"
    );
    out
}

// ---------------------------------------------------------------------
// Fig. SB: honest split-brain — availability vs divergent-work cost
// ---------------------------------------------------------------------

/// Fig. SB: what quorum fencing costs and buys under an honest network
/// partition, Lion vs 2PC/Star/Calvin.
///
/// A 4-node cluster with `rf = 3` (round-robin: partition `p_i`'s replica
/// set is `{N_i, N_{i+1}, N_{i+2}}`) loses `{N2, N3}` to a network cut one
/// third into the run and heals at two thirds. Three arms per protocol:
///
/// * **crash-approx** — the cut nodes crash at the cut and recover at the
///   heal; every transaction they were serving is aborted, their goodput
///   is zero for the window.
/// * **quorum-fence** — honest split-brain with epoch group commit and
///   round-trip-priced retries: both sides stay live, but a commit whose
///   writes touch a partition served from the non-quorum side parks its
///   ack behind the quorum fence; the heal aborts those divergent epochs
///   and the clients resubmit. `acked_then_lost` stays 0.
/// * **optimistic** — honest split-brain with ack-at-commit: the minority
///   side acks immediately, and the heal audit counts every ack whose
///   timeline lost (`acked_then_lost > 0`).
pub fn fig_sb(scale: Scale) -> String {
    use lion_common::NodeId;
    let horizon = scale.steady_us * 3;
    let cut_at = horizon / 3;
    let heal_at = 2 * horizon / 3;
    let cut = [NodeId(2), NodeId(3)];
    let split = lion_engine::FaultPlan::new()
        .partition_at(cut_at, cut.to_vec())
        .heal_at(heal_at);
    // Same-time events keep insertion order: both crashes, then both
    // recoveries.
    let mut crash_approx = lion_engine::FaultPlan::new();
    for n in cut {
        crash_approx = crash_approx.crash_at(cut_at, n).recover_at(heal_at, n);
    }
    const EPOCH_US: u64 = 5_000;
    let protos = [
        ProtoKind::LionStd,
        ProtoKind::TwoPc,
        ProtoKind::Star,
        ProtoKind::Calvin,
    ];
    let sim = {
        let mut s = base_sim(4);
        s.replication_factor = 3;
        s.max_replicas = 4;
        s
    };
    // Three arms per protocol: [crash-approx, quorum-fence, optimistic].
    let mut jobs = Vec::new();
    for proto in &protos {
        jobs.push(
            Job::new(
                format!("{}/crash-approx", proto.label()),
                *proto,
                sim.clone(),
                ycsb_spec(4, 0.5, 0.0, 93),
                horizon,
            )
            .with_faults(crash_approx.clone())
            .with_epoch_commit(EPOCH_US),
        );
        jobs.push(
            Job::new(
                format!("{}/quorum-fence", proto.label()),
                *proto,
                sim.clone(),
                ycsb_spec(4, 0.5, 0.0, 93),
                horizon,
            )
            .with_faults(split.clone())
            .with_epoch_commit(EPOCH_US)
            .with_retry_round_trip(),
        );
        jobs.push(
            Job::new(
                format!("{}/optimistic", proto.label()),
                *proto,
                sim.clone(),
                ycsb_spec(4, 0.5, 0.0, 93),
                horizon,
            )
            .with_faults(split.clone()),
        );
    }
    let reports = run_all(jobs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. SB: honest split-brain — {{N2,N3}} cut off at t={}s, healed at t={}s (rf=3)",
        cut_at / 1_000_000,
        heal_at / 1_000_000
    );
    let _ = writeln!(
        out,
        "{:<10} {:<13} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9} {:>11}",
        "protocol",
        "arm",
        "goodput",
        "minority",
        "fenced",
        "divergent",
        "retried",
        "lost",
        "unavail(ms)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<13} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9}",
        "", "", "(ktxn/s)", "commits", "acks", "epochs", "acks", "acks"
    );
    for (pi, proto) in protos.iter().enumerate() {
        for (ai, arm) in ["crash-approx", "quorum-fence", "optimistic"]
            .iter()
            .enumerate()
        {
            let r = &reports[pi * 3 + ai];
            let _ = writeln!(
                out,
                "{:<10} {:<13} {:>9.1} {:>9} {:>7} {:>8} {:>9} {:>9} {:>11.1}",
                proto.label(),
                arm,
                r.throughput_tps / 1000.0,
                r.minority_commits,
                r.fenced_acks,
                r.divergent_epochs_aborted,
                r.epoch_retried_acks,
                r.acked_then_lost,
                r.unavailability_us as f64 / 1000.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(`minority commits` = work the non-quorum side kept serving through the cut —\n\
         zero under crash-approx, which kills that side outright. `fenced acks` parked\n\
         behind the quorum fence and `divergent epochs` were aborted at heal; their\n\
         clients resubmitted (`retried acks`), so `lost` stays 0 for quorum-fence. The\n\
         optimistic arm releases minority acks at commit and pays for it at heal with\n\
         `lost` > 0 — acks whose timeline did not survive.)"
    );
    out
}

/// Runs every experiment in sequence.
pub fn all(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&table1());
    out.push('\n');
    out.push_str(&table2());
    out.push('\n');
    for (name, s) in [
        ("fig6", fig6(scale)),
        ("fig7", fig7(scale)),
        ("fig8", fig8(scale)),
        ("fig9", fig9(scale)),
        ("fig10", fig10(scale)),
        ("fig11", fig11(scale)),
        ("fig12", fig12(scale)),
        ("fig13a", fig13a(scale)),
        ("fig13b", fig13b(scale)),
        ("fig14", fig14(scale)),
        ("figf1", fig_f1(scale)),
        ("figf2", fig_f2(scale)),
        ("fige", fig_e(scale)),
        ("figsb", fig_sb(scale)),
    ] {
        let _ = name;
        out.push_str(&s);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("Lion") && t1.contains("adaptive replication"));
        let t2 = table2();
        assert!(t2.contains("Lion(RW)"));
        assert!(t2.contains("Schism"));
    }
}
