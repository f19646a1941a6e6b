//! End-to-end failure-domain scenarios: a whole rack dies on one
//! virtual-clock tick, and the two placement policies split exactly as the
//! design predicts — LocalityFirst leaves rack-local partitions with zero
//! live replicas (they stall for the whole outage), RackSafe keeps every
//! partition promotable (zero stalls, every orphan fails over).

use lion::common::{PlacementPolicy, ZoneId};
use lion::prelude::*;

const CRASH_AT: Time = 2 * SECOND;
const HEAL_AT: Time = 4 * SECOND;
const HORIZON: Time = 6 * SECOND;
const DEAD_ZONE: ZoneId = ZoneId(1); // rack {N2, N3}

/// 4 nodes in 2 contiguous racks: Z0 = {N0, N1}, Z1 = {N2, N3}, with a
/// cross-rack latency surcharge so zone identity is visible on the wire.
fn sim(placement: PlacementPolicy) -> SimConfig {
    let mut s = SimConfig {
        nodes: 4,
        partitions_per_node: 4,
        keys_per_partition: 2_048,
        value_size: 32,
        clients_per_node: 8,
        zones: 2,
        placement,
        ..Default::default()
    };
    s.net.cross_zone_extra_us = 60;
    s
}

fn run_zone_loss(placement: PlacementPolicy) -> (Engine, RunReport) {
    let cfg = EngineConfig {
        sim: sim(placement),
        plan_interval_us: 500_000,
        faults: FaultPlan::zone_failure(CRASH_AT, DEAD_ZONE, HEAL_AT),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(42),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, HORIZON);
    (eng, report)
}

/// After the heal every partition is back at its replication factor: each
/// replica the outage dropped was copied again before the horizon.
fn assert_back_at_rf(eng: &Engine) {
    let rf = eng.config().sim.replication_factor;
    let below: Vec<PartitionId> = (0..eng.cluster.n_partitions())
        .map(|i| PartitionId(i as u32))
        .filter(|&p| eng.cluster.placement.replica_count(p) < rf)
        .collect();
    assert!(below.is_empty(), "below rf {below:?}");
}

/// The figf2 acceptance condition, rack-safe side: a single-zone crash
/// leaves every partition with a live replica — zero stalled partitions,
/// every orphaned primary promoted onto the surviving rack.
#[test]
fn rack_safe_zone_loss_leaves_every_partition_promotable() {
    let (eng, report) = run_zone_loss(PlacementPolicy::RackSafe { min_zones: 2 });
    assert_eq!(report.zone_crashes, 1);
    assert_eq!(report.crashes, 2, "both rack members died");
    assert_eq!(
        report.stalled_partitions, 0,
        "rack-safe placement must leave no partition without a live replica"
    );
    assert!(
        report.failovers >= 8,
        "every partition primaried in the dead rack promotes (got {})",
        report.failovers
    );
    // Every promotion landed on the surviving rack, with full log
    // continuity (no committed write lost).
    for f in &eng.metrics.failover_log {
        assert_eq!(eng.cluster.zone(f.to), ZoneId(0), "{}", f.part);
        assert_eq!(f.promoted_head, f.dead_head, "{}", f.part);
    }
    // Every unavailability window closed by promotion, not by the heal:
    // recovery is bounded by detection + hand-off + lag, far below the
    // 2-second outage.
    for w in &eng.metrics.unavailability {
        let until = w.until.expect("window closed");
        assert!(
            until < HEAL_AT,
            "{} waited for the heal instead of failing over",
            w.part
        );
    }
    assert!(report.commits > 1_000, "commits {}", report.commits);
    assert_back_at_rf(&eng);
    eng.cluster.check_invariants().unwrap();
}

/// …and the locality-first side: the same outage demonstrably stalls the
/// partitions whose replicas were rack-local, until the rack returns.
#[test]
fn locality_first_zone_loss_stalls_rack_local_partitions() {
    let (eng, report) = run_zone_loss(PlacementPolicy::LocalityFirst);
    assert_eq!(report.zone_crashes, 1);
    assert!(
        report.stalled_partitions > 0,
        "locality-first placement must leave rack-local partitions stranded"
    );
    // Stalled partitions could only resume once the rack healed: at least
    // one unavailability window spans (essentially) the whole outage.
    let outage = (HEAL_AT - CRASH_AT) as u128;
    let longest = eng
        .metrics
        .unavailability
        .iter()
        .map(|w| (w.until.unwrap_or(HORIZON).saturating_sub(w.from)) as u128)
        .max()
        .expect("windows recorded");
    assert!(
        longest >= outage,
        "no stall spanned the outage (longest {longest}us vs {outage}us)"
    );
    assert!(report.commits > 500, "survivors keep committing");
    assert_back_at_rf(&eng);
    eng.cluster.check_invariants().unwrap();
}

/// The correlated crash is atomic on the virtual clock: every member of the
/// rack dies at the same instant — including a failover target selected
/// moments earlier, whose promotion is re-planned (PR 1's cascade path).
#[test]
fn zone_crash_is_atomic_on_one_tick() {
    let (eng, report) = run_zone_loss(PlacementPolicy::RackSafe { min_zones: 2 });
    assert!(!eng.metrics.failover_log.is_empty());
    for f in &eng.metrics.failover_log {
        assert_eq!(
            f.crashed_at, CRASH_AT,
            "{}: crash must be simultaneous for the whole rack",
            f.part
        );
    }
    // Both members were down together (they both rejoined after the heal).
    assert_eq!(report.crashes, 2);
    assert_eq!(eng.metrics.node_recoveries, 2);
    assert!(eng.cluster.is_up(NodeId(2)) && eng.cluster.is_up(NodeId(3)));
}

/// Same seed ⇒ same correlated-failure timeline, both policies.
#[test]
fn zone_loss_runs_are_deterministic() {
    for policy in [
        PlacementPolicy::LocalityFirst,
        PlacementPolicy::RackSafe { min_zones: 2 },
    ] {
        let (_, a) = run_zone_loss(policy);
        let (_, b) = run_zone_loss(policy);
        assert_eq!(a.digest(), b.digest(), "{policy:?} diverged under one seed");
    }
}

/// The crash approximation of a zone partition: each rack member crashes at
/// the cut and recovers at the heal, one node at a time rather than as a
/// correlated `ZoneCrash`.
#[test]
fn zone_partition_isolates_and_heals_like_a_rack_loss() {
    let cfg = EngineConfig {
        sim: sim(PlacementPolicy::RackSafe { min_zones: 2 }),
        plan_interval_us: 500_000,
        faults: FaultPlan::new()
            .crash_at(CRASH_AT, NodeId(2))
            .crash_at(CRASH_AT, NodeId(3))
            .recover_at(HEAL_AT, NodeId(2))
            .recover_at(HEAL_AT, NodeId(3)),
        ..Default::default()
    };
    let workload = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(4, 4, 2_048)
            .with_mix(0.5, 0.0)
            .with_seed(43),
    ));
    let mut eng = Engine::new(cfg, workload);
    let mut lion = Lion::standard();
    let report = eng.run(&mut lion, HORIZON);
    assert_eq!(report.crashes, 2, "both rack members isolated");
    assert_eq!(report.stalled_partitions, 0);
    assert!(report.failovers > 0);
    assert!(eng.cluster.is_up(NodeId(2)) && eng.cluster.is_up(NodeId(3)));
    assert!(report.commits > 1_000);
    eng.cluster.check_invariants().unwrap();
}
