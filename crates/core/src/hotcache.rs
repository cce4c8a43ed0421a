//! The CPU-side hot-node cache of push-pull batch search.
//!
//! The pivoted search of §4.2 is PIM-balanced, but every descent below a
//! hint still pays one round per inter-module hop — under `h_low = log P`
//! that is the whole lower part, and the per-batch round count is
//! dominated by this tail. PIM-tree (the same authors' follow-up) removes
//! it by **pulling** hot nodes to the CPU side: the driver keeps a
//! bounded cache of lower-part node snapshots, resolves the cached prefix
//! of every hinted descent locally (charged as §2.1 CPU work), and ships
//! only the residual wave — a fully cached wave sends nothing and costs
//! **zero rounds**.
//!
//! Determinism contract: admission and eviction are functions of the op
//! stream alone. Accesses are counted per batch ([`HotNodeCache::note`]),
//! periodically halved ([`DECAY_PERIOD`]), and the top-`capacity` handles
//! by `(count desc, handle bits asc)` are admitted; the pull wave is sent
//! in sorted handle order. No wall clock, no randomness.
//!
//! Coherence rule: snapshots are only trusted while nothing structural
//! moved. The driver bumps [`crate::list::PimSkipList`]'s `write_epoch`
//! at the *start* of every mutating phase (upsert link, delete mark, bulk
//! load, recovery) — so a faulted, half-applied mutation invalidates the
//! cache even before any commit — and the refresh additionally compares
//! the machine's `module_crashes` counter, so a crash-wiped module can
//! never be read through a stale snapshot. Invalidation drops the
//! snapshots but keeps the counts: a stable hot set re-pulls in one round.

use std::collections::HashMap;

use pim_primitives::accounting::{log2c, CpuCost};
use pim_primitives::sort::sort_cost;
use pim_runtime::Handle;

use crate::config::Key;
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::sched::Lane;
use crate::tasks::{Reply, Task};

/// Words charged to CPU shared memory per cached record (handle, key,
/// right, right_key, down, level).
pub(crate) const RECORD_WORDS: u64 = 6;

/// Access counts are halved (zeros dropped) every this-many refreshes.
/// Longer than one batch on purpose: nodes a few levels below `h_low` are
/// touched less than once per batch under uniform load, and must still
/// out-rank one-shot leaves to keep the cache covering whole levels.
pub(crate) const DECAY_PERIOD: u64 = 8;

/// Snapshot of one lower-part node's search-relevant fields. Values are
/// deliberately absent — `Update`/`FetchAdd` never invalidate the cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec {
    pub key: Key,
    pub right: Handle,
    pub right_key: Key,
    pub down: Handle,
    pub level: u8,
}

/// The bounded CPU-side cache (see module docs). Lives behind
/// `Option<Box<_>>` on the driver so the feature off costs one branch.
#[derive(Debug, Default)]
pub(crate) struct HotNodeCache {
    /// `write_epoch` value the snapshots were pulled under.
    pub(crate) epoch: u64,
    /// `module_crashes` value the snapshots were pulled under.
    pub(crate) crashes_seen: u64,
    /// Refresh counter driving the periodic decay.
    pub(crate) refreshes: u64,
    /// Maximum resident records ([`crate::Config::push_pull_capacity`]).
    pub(crate) capacity: usize,
    /// Shared-memory words currently charged for the resident records.
    pub(crate) charged_words: u64,
    /// Resident snapshots, keyed by handle bits.
    pub(crate) records: HashMap<u64, NodeRec>,
    /// Per-handle access counts since the last decay.
    pub(crate) counts: HashMap<u64, u32>,
}

impl HotNodeCache {
    pub(crate) fn new(capacity: usize) -> Self {
        HotNodeCache {
            capacity,
            ..HotNodeCache::default()
        }
    }

    /// Count one access to a node (search-path touch or cache miss); the
    /// admission pass ranks on these. Both arenas are cacheable: the
    /// replicated upper part is identical on every module, so snapshots of
    /// it are as valid as lower-part ones — and caching it is what lets
    /// `Hint::Root` descents resolve on the CPU at all.
    #[inline]
    pub(crate) fn note(&mut self, h: Handle) {
        debug_assert!(h.is_some(), "noted handles are live nodes");
        *self.counts.entry(h.to_bits()).or_insert(0) += 1;
    }

    /// Resident records (tests and bench instrumentation).
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

/// Refresh the hot-node cache for the batch about to search: decay,
/// invalidate, admit, evict, and pull missing admitted snapshots in one
/// unicast wave. No-op (one branch) when push-pull is off.
pub(crate) async fn hot_refresh(lane: Lane<'_>) -> PimResult<()> {
    let Some(mut hot) = lane.with(|s| s.hot.take()) else {
        return Ok(());
    };
    let out = lane
        .spanned("search/pull", hot_refresh_inner(lane, &mut hot))
        .await;
    lane.with(|s| s.hot = Some(hot));
    out
}

async fn hot_refresh_inner(lane: Lane<'_>, hot: &mut HotNodeCache) -> PimResult<()> {
    let (admitted, rank, pulls) = lane.with(|s| s.hot_admit(hot));
    let mut out = Ok(());
    if pulls > 0 {
        for r in lane.wave().await {
            match r {
                Reply::NodeRec {
                    node,
                    key,
                    right,
                    right_key,
                    down,
                    level,
                } => {
                    hot.records.insert(
                        node.to_bits(),
                        NodeRec {
                            key,
                            right,
                            right_key,
                            down,
                            level,
                        },
                    );
                }
                // Best-effort: a dangling or deleted target simply stays
                // uncached; its count decays away.
                Reply::Faulted { .. } => {}
                other => {
                    out = Err(PimError::protocol("search/pull", other));
                    break;
                }
            }
        }
    }
    lane.with(|s| {
        s.scratch.give_pull_list(admitted);
        s.scratch.give_count_rank(rank);

        // The cache lives in CPU shared memory: charge the delta.
        let now = RECORD_WORDS * hot.records.len() as u64;
        if now > hot.charged_words {
            s.sys.shared_mem().alloc(now - hot.charged_words);
        } else if now < hot.charged_words {
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(hot.charged_words - now);
        }
        hot.charged_words = now;
    });
    out
}

impl PimSkipList {
    /// Decay, invalidate, rank and admit, then send one `PullNode` per
    /// admitted node without a snapshot; returns the leased admission
    /// buffers and the number of pulls sent.
    fn hot_admit(&mut self, hot: &mut HotNodeCache) -> (Vec<u64>, Vec<(u32, u64)>, u64) {
        hot.refreshes = hot.refreshes.wrapping_add(1);
        if hot.refreshes.is_multiple_of(DECAY_PERIOD) {
            hot.counts.retain(|_, c| {
                *c >>= 1;
                *c > 0
            });
        }
        // Staleness: any structural mutation or module crash since the
        // snapshots were pulled drops them (counts survive — the hot set
        // re-pulls below).
        let crashes = self.sys.metrics().module_crashes;
        if hot.epoch != self.write_epoch || hot.crashes_seen != crashes {
            hot.records.clear();
            hot.epoch = self.write_epoch;
            hot.crashes_seen = crashes;
        }

        // Deterministic admission: top-`capacity` by (count desc, bits
        // asc), then the admitted set sorted by bits for binary-search
        // eviction and a stable pull order.
        let mut rank = self.scratch.take_count_rank();
        rank.extend(hot.counts.iter().map(|(&bits, &c)| (c, bits)));
        let n = rank.len() as u64;
        rank.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        rank.truncate(hot.capacity);
        let mut admitted = self.scratch.take_pull_list();
        admitted.extend(rank.iter().map(|&(_, bits)| bits));
        admitted.sort_unstable();
        sort_cost(n.max(1))
            .beside(CpuCost::new(n.max(1), log2c(n.max(1))))
            .charge(self.sys.metrics_mut());

        hot.records
            .retain(|bits, _| admitted.binary_search(bits).is_ok());

        let mut pulls = 0u64;
        let p = self.cfg.p;
        for &bits in admitted.iter() {
            if !hot.records.contains_key(&bits) {
                let h = Handle::from_bits(bits);
                // Replicated nodes resolve on any module; spread the pulls
                // deterministically by slot.
                let target = h.resolver(h.slot() % p);
                self.sys.send(target, Task::PullNode { at: h });
                pulls += 1;
            }
        }
        (admitted, rank, pulls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates_and_decay_halves() {
        let mut hot = HotNodeCache::new(4);
        let h = Handle::local(0, 7);
        hot.note(h);
        hot.note(h);
        hot.note(h);
        assert_eq!(hot.counts[&h.to_bits()], 3);
        hot.counts.retain(|_, c| {
            *c >>= 1;
            *c > 0
        });
        assert_eq!(hot.counts[&h.to_bits()], 1);
        hot.counts.retain(|_, c| {
            *c >>= 1;
            *c > 0
        });
        assert!(hot.counts.is_empty(), "decayed-to-zero entries drop");
    }
}
