//! [`pim_service::Backend`] for the cluster: `PimService<PimCluster>`
//! gives the scheduling tier (admission, batching, dispatch, completion
//! accounting) a sharded structure with no service code changes.

use pim_core::{Op, PimResult, Reply};
use pim_runtime::Telemetry;
use pim_service::Backend;

use crate::cluster::PimCluster;

impl Backend for PimCluster {
    fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.execute(ops)
    }

    fn rounds(&self) -> u64 {
        PimCluster::rounds(self)
    }

    fn span_enter(&mut self, name: &'static str) {
        PimCluster::span_enter(self, name);
    }

    fn span_exit(&mut self) {
        PimCluster::span_exit(self);
    }

    fn is_durable(&self) -> bool {
        PimCluster::is_durable(self)
    }

    fn durable_seq(&self) -> Option<u64> {
        PimCluster::durable_seq(self)
    }

    fn durable_synced_seq(&self) -> Option<u64> {
        PimCluster::durable_synced_seq(self)
    }

    fn durable_sync(&mut self) -> PimResult<()> {
        PimCluster::durable_sync(self)
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        PimCluster::telemetry_mut(self)
    }

    /// `P log² P` per machine, and the cluster dispatches to `S`
    /// machines at once.
    fn recommended_batch(&self) -> usize {
        self.config().core.batch_large() * self.shard_count()
    }

    fn lanes(&self) -> usize {
        self.shard_count()
    }

    /// The owning shard (for a `Range`, the shard owning its lower
    /// bound — where dispatch starts the clipping walk).
    fn lane(&self, op: &Op) -> usize {
        self.lane_of(op)
    }
}
