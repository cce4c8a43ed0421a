//! The structure a [`crate::PimService`] fronts.
//!
//! The service tier schedules requests; it does not care whether the
//! thing executing them is one PIM machine or a sharded cluster of them.
//! [`Backend`] is that seam: everything the scheduler needs — the typed
//! mixed-stream execute contract, the machine round clock, probe spans,
//! durability hooks and a telemetry registry. `pim_core::PimSkipList`
//! and `pim-cluster` implement it.

use pim_core::{Op, PimResult, PimSkipList, Reply};
use pim_runtime::Telemetry;

/// What the request scheduler requires of the structure it fronts.
///
/// The contract mirrors `pim_core::PimSkipList`'s public surface
/// one-to-one (the provided lane methods are the only addition), so the
/// determinism guarantees of the service — same config, same arrival
/// sequence → byte-identical completions — hold for any implementor
/// whose `execute_ops` is itself deterministic.
pub trait Backend {
    /// Execute a typed mixed op stream and answer positionally — the
    /// `pim_core::op` contract ([`pim_core::PimSkipList::execute`]).
    ///
    /// Panics if the machine exhausts fault-recovery retries; on a
    /// fault-free machine it never panics.
    fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply>;

    /// Machine rounds executed so far (the machine clock behind
    /// [`crate::Completion::latency_rounds`]). For a cluster this is the
    /// sum over shards — still monotone, still deterministic.
    fn rounds(&self) -> u64;

    /// Open a probe span attributing subsequent machine cost to `name`.
    fn span_enter(&mut self, name: &'static str);

    /// Close the innermost open probe span.
    fn span_exit(&mut self);

    /// No effect; kept until ROADMAP item 0b removes the benchmark's
    /// callers.
    fn set_pipeline(&mut self, _pipeline: bool) {}

    /// No effect; kept until ROADMAP item 0b removes the benchmark's
    /// callers.
    fn set_push_pull(&mut self, _on: bool) {}

    /// Is a durable journal attached?
    fn is_durable(&self) -> bool;

    /// Durable stream position reached (`None` when not durable).
    fn durable_seq(&self) -> Option<u64>;

    /// Durable stream position fsync has covered (`None` when not
    /// durable).
    fn durable_synced_seq(&self) -> Option<u64>;

    /// Force a covering WAL fsync (no-op when not durable).
    fn durable_sync(&mut self) -> PimResult<()>;

    /// The telemetry registry, when lit (the service registers its own
    /// series and emits lifecycle events into it).
    fn telemetry_mut(&mut self) -> Option<&mut Telemetry>;

    /// The paper-recommended dispatch batch size (`P log² P`; summed
    /// over shards for a cluster).
    fn recommended_batch(&self) -> usize;

    /// Number of lanes (a cluster: one per shard). No caller; kept until
    /// ROADMAP item 0d removes the benchmark's forwards.
    fn lanes(&self) -> usize {
        1
    }

    /// The lane `op` routes to (`< lanes()`). No caller; kept until
    /// ROADMAP item 0d removes the benchmark's forwards.
    fn lane(&self, op: &Op) -> usize {
        let _ = op;
        0
    }
}

impl Backend for PimSkipList {
    fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.execute(ops)
    }

    fn rounds(&self) -> u64 {
        self.metrics().rounds
    }

    fn span_enter(&mut self, name: &'static str) {
        PimSkipList::span_enter(self, name);
    }

    fn span_exit(&mut self) {
        PimSkipList::span_exit(self);
    }

    fn is_durable(&self) -> bool {
        PimSkipList::is_durable(self)
    }

    fn durable_seq(&self) -> Option<u64> {
        PimSkipList::durable_seq(self)
    }

    fn durable_synced_seq(&self) -> Option<u64> {
        PimSkipList::durable_synced_seq(self)
    }

    fn durable_sync(&mut self) -> PimResult<()> {
        PimSkipList::durable_sync(self)
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        PimSkipList::telemetry_mut(self)
    }

    fn recommended_batch(&self) -> usize {
        self.config().batch_large()
    }
}
