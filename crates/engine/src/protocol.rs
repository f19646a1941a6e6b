//! The protocol trait: the state-machine interface every transaction
//! processing scheme implements on top of the engine.

use crate::engine::Engine;
use lion_common::TxnId;
use lion_faults::FaultNotice;

/// Periodic engine ticks delivered to the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    /// Planner interval: workload analysis + replica rearrangement (§III).
    Planner,
    /// Monitoring interval (1 s): load sampling (Clay's detector, Fig. 8
    /// timelines).
    Monitor,
}

/// A transaction-processing protocol driven by engine events.
///
/// Protocols are *state machines*: [`Protocol::on_submit`] starts a
/// transaction, and every asynchronous primitive the protocol invokes on the
/// engine (CPU slice, network round, remaster wait, …) later calls
/// [`Protocol::on_wake`] with the protocol-chosen `tag` to continue it.
pub trait Protocol {
    /// Protocol name for reports (matches the paper's legend names).
    fn name(&self) -> &'static str;

    /// True for batch-execution protocols (Star, Calvin, Hermes, Aria,
    /// Lotus, Lion-batch): the engine arms whole batches instead of running
    /// closed-loop clients.
    fn batch_mode(&self) -> bool {
        false
    }

    /// True when the protocol keeps both sides of a network partition
    /// correct: it anchors transactions to their home side and honours the
    /// quorum fence. The engine rejects a fault plan containing a
    /// `Partition` or `ZonePartition` for a protocol that returns false.
    fn supports_split_brain(&self) -> bool {
        true
    }

    /// A new transaction was submitted (standard mode) or resubmitted after
    /// an abort.
    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId);

    /// An asynchronous step completed; `tag` is whatever the protocol passed
    /// when scheduling it.
    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32);

    /// A periodic tick fired.
    fn on_tick(&mut self, _eng: &mut Engine, _kind: TickKind) {}

    /// A batch was armed (batch mode only): all transactions are live in the
    /// engine; the protocol must drive each to `commit` or `defer`.
    fn on_batch(&mut self, _eng: &mut Engine, _batch: &[TxnId]) {}

    /// A fault event changed the topology (node crash/recovery, failover
    /// completion). The engine has already handled the mechanics — aborting
    /// in-flight transactions, scheduling promotions — before this fires;
    /// protocols use the hook to adapt routing or re-plan placement. The
    /// default ignores it, which is the honest behaviour for the baselines:
    /// they keep routing by the (updated) placement map and simply eat the
    /// disruption.
    fn on_fault(&mut self, _eng: &mut Engine, _notice: &FaultNotice) {}
}
