//! Measurement plumbing: metric diffs around one batch.

use pim_core::{Config, Key, PimSkipList, Value};
use pim_runtime::Metrics;
use pim_workloads::PointGen;

/// The model costs of one batch operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCosts {
    /// Batch size the costs were measured at.
    pub batch: usize,
    /// Bulk-synchronous rounds.
    pub rounds: u64,
    /// IO time (`Σ h_i`).
    pub io_time: u64,
    /// PIM time (max local work per round, summed).
    pub pim_time: u64,
    /// Total network messages.
    pub total_messages: u64,
    /// Total PIM work.
    pub total_pim_work: u64,
    /// CPU work.
    pub cpu_work: u64,
    /// CPU depth.
    pub cpu_depth: u64,
    /// Shared-memory high-water mark (words).
    pub shared_mem_peak: u64,
}

impl BatchCosts {
    /// Diff two metric snapshots around a batch of the given size.
    pub fn from_diff(batch: usize, before: Metrics, after: Metrics) -> Self {
        let d = after - before;
        BatchCosts {
            batch,
            rounds: d.rounds,
            io_time: d.io_time,
            pim_time: d.pim_time,
            total_messages: d.total_messages,
            total_pim_work: d.total_pim_work,
            cpu_work: d.cpu_work,
            cpu_depth: d.cpu_depth,
            shared_mem_peak: d.shared_mem_peak,
        }
    }

    /// Costs of one phase from a span's exclusive stats (see
    /// [`pim_runtime::ProbeReport`]): the same §2.1 columns every table
    /// prints, but attributed to a single instrumented phase instead of
    /// diffed around the whole batch.
    pub fn from_span_stats(batch: usize, stats: &Metrics) -> Self {
        BatchCosts {
            batch,
            rounds: stats.rounds,
            io_time: stats.io_time,
            pim_time: stats.pim_time,
            total_messages: stats.total_messages,
            total_pim_work: stats.total_pim_work,
            cpu_work: stats.cpu_work,
            cpu_depth: stats.cpu_depth,
            shared_mem_peak: stats.shared_mem_peak,
        }
    }

    /// CPU work per operation.
    pub fn cpu_work_per_op(&self) -> f64 {
        self.cpu_work as f64 / self.batch.max(1) as f64
    }

    /// IO-balance ratio `io_time / (I/P)` (1.0 = perfectly balanced).
    pub fn io_balance(&self, p: u32) -> f64 {
        if self.total_messages == 0 {
            return 1.0;
        }
        self.io_time as f64 / (self.total_messages as f64 / f64::from(p))
    }
}

/// Measure one batch operation on a skip list: runs `op`, returns costs.
pub fn measure_batch<R>(
    list: &mut PimSkipList,
    batch: usize,
    op: impl FnOnce(&mut PimSkipList) -> R,
) -> (R, BatchCosts) {
    let before = list.metrics();
    let r = op(list);
    let after = list.metrics();
    (r, BatchCosts::from_diff(batch, before, after))
}

/// Build a skip list on `p` modules holding `n` distinct uniform keys.
/// Returns the structure and its (sorted) resident keys.
pub fn build_loaded_list(p: u32, n: usize, seed: u64) -> (PimSkipList, Vec<Key>) {
    build_loaded_list_with(Config::new(p, n as u64, seed), n, seed)
}

/// Build with an explicit config (ablations).
pub fn build_loaded_list_with(cfg: Config, n: usize, seed: u64) -> (PimSkipList, Vec<Key>) {
    let mut list = PimSkipList::new(cfg);
    let mut gen = PointGen::new(seed ^ 0x10AD, 0, (n as i64) * 64);
    let mut keys = gen.distinct_uniform(n);
    let pairs: Vec<(Key, Value)> = keys.iter().map(|&k| (k, k as u64)).collect();
    // Load in large batches regardless of P (loading speed is not under
    // measurement; minimum batch sizes only matter for the measured ops).
    for chunk in pairs.chunks(4096) {
        list.batch_upsert(chunk);
    }
    keys.sort_unstable();
    (list, keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_measure_roundtrip() {
        let (mut list, keys) = build_loaded_list(8, 500, 1);
        assert_eq!(list.len(), 500);
        let batch: Vec<i64> = keys.iter().copied().take(64).collect();
        let (res, costs) = measure_batch(&mut list, batch.len(), |l| l.batch_get(&batch));
        assert!(res.iter().all(|v| v.is_some()));
        assert!(costs.rounds >= 1);
        assert!(costs.io_time > 0);
        assert!(costs.io_balance(8) >= 1.0);
    }

    #[test]
    fn costs_per_op_math() {
        let c = BatchCosts {
            batch: 100,
            cpu_work: 250,
            ..Default::default()
        };
        assert!((c.cpu_work_per_op() - 2.5).abs() < 1e-9);
        assert_eq!(c.io_balance(4), 1.0);
    }
}
