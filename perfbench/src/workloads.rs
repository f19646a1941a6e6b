//! The benchmark's workloads. All three run on `harness::base_sim(4)`:
//! 4 nodes × 8 partitions × 4,000 keys, 64 B values, replication factor 2,
//! 24 closed-loop clients per node (batches of 256 in batch mode).

use lion_bench::harness::{base_sim, ycsb_sched_spec, ycsb_spec, WorkloadSpec};
use lion_common::{NodeId, SimConfig, Time, Workload};
use lion_engine::{DurabilityConfig, EngineConfig, FaultPlan};
use lion_workloads::{Schedule, TpccConfig};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// Seed kept out of tuning, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 1009;

/// Hotspot period of `hotspot-crash` (fig13a's schedule, compressed).
const HOTSPOT_PERIOD_US: Time = 2_000_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB, 50% cross, skew 0.7, Lion standard, ack at commit, no faults.
    YcsbSteady,
    /// TPC-C, 10% remote, 2PC.
    Tpcc2pc,
    /// YCSB on a shifting hotspot, full Lion, 1 ms epoch group commit, and
    /// node 1 down for the middle third of the run.
    HotspotCrash,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::YcsbSteady, Kind::Tpcc2pc, Kind::HotspotCrash];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::YcsbSteady => "ycsb-steady",
            Kind::Tpcc2pc => "tpcc-2pc",
            Kind::HotspotCrash => "hotspot-crash",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Virtual run length. `hotspot-crash` needs two hotspot shifts and a
    /// whole crash → failover → recover cycle; TPC-C's inserts grow memory
    /// with every virtual second, so it runs shortest.
    fn default_horizon(self) -> Time {
        match self {
            Kind::YcsbSteady => 2_000_000,
            Kind::Tpcc2pc => 500_000,
            Kind::HotspotCrash => 9 * HOTSPOT_PERIOD_US / 4,
        }
    }
}

/// One workload instance: the generated inputs of one seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Virtual run length, µs.
    pub horizon: Time,
}

impl Spec {
    /// The workload at its default horizon.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Spec {
            kind,
            seed,
            horizon: kind.default_horizon(),
        }
    }

    /// Overrides the virtual run length (the fault times scale with it).
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = horizon;
        self
    }

    /// Cluster configuration; the seed also drives the engine's RNG.
    pub fn sim(&self) -> SimConfig {
        let mut sim = base_sim(4);
        sim.seed = self.seed ^ 0xD1CE_5EED;
        sim
    }

    fn workload_spec(&self) -> WorkloadSpec {
        match self.kind {
            Kind::YcsbSteady => ycsb_spec(4, 0.5, 0.7, self.seed),
            // `harness::tpcc_spec(4, 0.1, 0.0)`, with the seed set.
            Kind::Tpcc2pc => WorkloadSpec::Tpcc(TpccConfig {
                seed: self.seed,
                ..TpccConfig::for_cluster(4, 8).with_mix(0.1, 0.0)
            }),
            Kind::HotspotCrash => ycsb_sched_spec(
                4,
                Schedule::interval_shift(HOTSPOT_PERIOD_US, 3, 9, 1.0),
                self.seed,
            ),
        }
    }

    /// A fresh transaction generator.
    pub fn workload(&self) -> Box<dyn Workload> {
        self.workload_spec().build()
    }

    /// Engine configuration, with the fault plan and durability mode.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig {
            sim: self.sim(),
            plan_interval_us: 500_000,
            ..EngineConfig::default()
        };
        if self.kind == Kind::HotspotCrash {
            cfg.faults =
                FaultPlan::single_failure(self.horizon / 3, NodeId(1), 2 * self.horizon / 3);
            cfg.durability = DurabilityConfig::epoch(1_000);
        }
        cfg
    }
}
