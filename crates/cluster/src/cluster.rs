//! The cluster itself: `S` independent machines behind the
//! single-machine execute contract.
//!
//! See the crate docs for the routing determinism contract; this module
//! is its implementation. The shape of one [`PimCluster::try_execute`]
//! call over several shards is the oracle's, lifted one level: split the
//! stream into maximal coalescible runs with the *same* [`run_end`] the
//! single machine uses, then commit each run by fanning its ops out to
//! the owning shards (in parallel, through the deterministic pool —
//! thread count changes wall-clock only) and merging the per-shard
//! replies back into stream positions.

use std::path::Path;

use pim_core::op::run_end;
use pim_core::{
    DurabilityPolicy, Key, Op, OpKind, PimError, PimResult, PimSkipList, RangeFunc, RangeResult,
    RecoveryReport, Reply, Value,
};
use pim_runtime::{pool, Telemetry, TelemetrySnapshot};

use crate::router;
use crate::ClusterConfig;

/// One shard: a full PIM machine serving the inclusive key range
/// `[lo, hi]`.
struct Shard {
    lo: Key,
    hi: Key,
    list: PimSkipList,
}

/// A sharded cluster of [`PimSkipList`] machines with the single-machine
/// [`execute`](PimCluster::execute) contract. See the crate docs.
pub struct PimCluster {
    cfg: ClusterConfig,
    /// Sorted by `lo`; ranges are contiguous and cover all of `i64`.
    shards: Vec<Shard>,
    /// Cluster-level registry for front-end series/events (the service
    /// tier writes here through [`PimCluster::telemetry_mut`]); shard
    /// machine series live in per-shard labeled registries and are folded
    /// in by [`PimCluster::telemetry_snapshot`]. `Some` once telemetry
    /// is lit.
    telem: Option<Telemetry>,
}

/// What [`PimCluster::recover_from_dir`] rebuilt: one
/// [`RecoveryReport`] per shard, in shard (= key) order.
#[derive(Debug, Clone)]
pub struct ClusterRecoveryReport {
    /// Shard `i`'s machine recovery report at index `i`.
    pub shards: Vec<RecoveryReport>,
}

impl ClusterRecoveryReport {
    /// Total WAL ops replayed across all shards.
    pub fn ops_replayed(&self) -> u64 {
        self.shards.iter().map(|r| r.ops_replayed).sum()
    }
}

fn shard_dirname(i: usize) -> String {
    format!("shard-{i}")
}

impl PimCluster {
    /// A fresh empty cluster: `cfg.shards` machines, each built from
    /// `cfg.core` verbatim, owning the uniform key-range cuts of the
    /// router (see the crate docs).
    pub fn new(cfg: ClusterConfig) -> Self {
        let lists = (0..cfg.shards.max(1))
            .map(|_| PimSkipList::new(cfg.core.clone()))
            .collect();
        Self::with_lists(cfg, lists)
    }

    /// Place `lists[i]` on the `i`-th uniform key range of `cfg.shards`.
    fn with_lists(cfg: ClusterConfig, lists: Vec<PimSkipList>) -> Self {
        let los = router::uniform_lower_bounds(cfg.shards);
        debug_assert_eq!(los.len(), lists.len());
        let shards = lists
            .into_iter()
            .enumerate()
            .map(|(k, list)| Shard {
                lo: los[k],
                hi: los.get(k + 1).map_or(Key::MAX, |&next| next - 1),
                list,
            })
            .collect();
        PimCluster {
            cfg,
            shards,
            telem: None,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total resident keys across shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.list.len()).sum()
    }

    /// Is the cluster empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total machine rounds executed across shards.
    pub fn rounds(&self) -> u64 {
        self.shards.iter().map(|s| s.list.metrics().rounds).sum()
    }

    /// Every resident `(key, value)` pair in ascending key order (shard
    /// ranges are contiguous, so shard order *is* key order).
    pub fn collect_items(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for s in &self.shards {
            out.extend(s.list.collect_items());
        }
        out
    }

    /// Open a named span on every shard's metrics timeline (the service
    /// tier brackets its phases with these).
    pub fn span_enter(&mut self, name: &'static str) {
        for s in &mut self.shards {
            s.list.span_enter(name);
        }
    }

    /// Close the span opened by [`PimCluster::span_enter`].
    pub fn span_exit(&mut self) {
        for s in &mut self.shards {
            s.list.span_exit();
        }
    }

    // ---- execute ----------------------------------------------------

    /// Execute an interleaved stream of typed operations — the
    /// single-machine [`PimSkipList::execute`] contract, served by the
    /// cluster. Panics on the error; see [`PimCluster::try_execute`].
    pub fn execute(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.try_execute(ops)
            .unwrap_or_else(|e| panic!("execute: {e}"))
    }

    /// Fault-tolerant [`PimCluster::execute`]. Over several shards the
    /// stream splits into maximal coalescible runs ([`run_end`]) and runs
    /// commit in stream order; an error aborts the stream at the failing
    /// run's boundary — earlier runs are committed on their shards —
    /// exactly the oracle's abort contract.
    pub fn try_execute(&mut self, ops: &[Op]) -> PimResult<Vec<Reply>> {
        // One shard: hand the whole stream to the machine verbatim — the
        // same spans, WAL frames and scratch reuse — which is what makes
        // S = 1 byte-identical to a single machine, rounds included.
        if let [s] = self.shards.as_mut_slice() {
            return s.list.try_execute(ops);
        }
        let mut replies = Vec::with_capacity(ops.len());
        let mut start = 0;
        while start < ops.len() {
            let end = run_end(ops, start);
            self.commit_run(&ops[start..end], &mut replies)?;
            start = end;
        }
        Ok(replies)
    }

    fn commit_run(&mut self, run: &[Op], replies: &mut Vec<Reply>) -> PimResult<()> {
        match run[0].kind() {
            OpKind::Get | OpKind::Update | OpKind::Upsert | OpKind::Delete => {
                self.commit_point(run, replies)
            }
            OpKind::Successor => self.commit_directional(run, replies, 1),
            OpKind::Predecessor => self.commit_directional(run, replies, -1),
            OpKind::Range => self.commit_range(run, replies),
        }
    }

    /// Index of the shard owning `key`.
    fn owner(&self, key: Key) -> usize {
        self.shards.partition_point(|s| s.lo <= key) - 1
    }

    /// The shard index `op` routes to first — the owning shard for a
    /// point op, the shard owning `lo` for a `Range` (where the clipping
    /// walk starts). The cluster's [`pim_service::Backend::lane`].
    pub fn lane_of(&self, op: &Op) -> usize {
        self.owner(op.bounds().0)
    }

    /// Run every non-empty per-shard sub-batch through its machine in
    /// parallel. Results come back in shard order; `weight` gates the
    /// pool's parallel threshold (sequential fallback is bit-identical).
    fn fan_out(&mut self, sub: Vec<Vec<Op>>, weight: usize) -> PimResult<Vec<Vec<Reply>>> {
        pool::par_zip_map_mut(&mut self.shards, sub, weight, |_, shard, ops: Vec<Op>| {
            if ops.is_empty() {
                Ok(Vec::new())
            } else {
                shard.list.try_execute(&ops)
            }
        })
        .into_iter()
        .collect()
    }

    /// Get/Update/Upsert/Delete: each op belongs to exactly one shard;
    /// fan out, then merge positionally (shard replies are in that
    /// shard's submission order, so one cursor per shard replays the
    /// original interleave).
    fn commit_point(&mut self, run: &[Op], replies: &mut Vec<Reply>) -> PimResult<()> {
        let mut sub: Vec<Vec<Op>> = vec![Vec::new(); self.shards.len()];
        let mut route = Vec::with_capacity(run.len());
        for op in run {
            let s = self.owner(op.key().expect("point op has a key"));
            sub[s].push(*op);
            route.push(s);
        }
        let outs = self.fan_out(sub, run.len())?;
        let mut cursors: Vec<std::vec::IntoIter<Reply>> =
            outs.into_iter().map(Vec::into_iter).collect();
        for s in route {
            replies.push(cursors[s].next().expect("per-shard reply count"));
        }
        Ok(())
    }

    /// Successor (`dir = 1`) / Predecessor (`dir = -1`): start each query
    /// at the shard owning its key; a shard with no answer means the
    /// answer (if any) is the adjacent shard's nearest entry, so
    /// unresolved queries fall back one shard in `dir` per wave —
    /// re-asking with the ORIGINAL key, which is correct because every
    /// key in the fallback shard already lies beyond it. At most `S`
    /// waves; queries that walk off the end resolve to `Entry(None)`.
    fn commit_directional(
        &mut self,
        run: &[Op],
        replies: &mut Vec<Reply>,
        dir: isize,
    ) -> PimResult<()> {
        let base = replies.len();
        replies.extend(std::iter::repeat_with(|| Reply::Entry(None)).take(run.len()));
        // (run position, shard to ask next)
        let mut pending: Vec<(usize, usize)> = run
            .iter()
            .enumerate()
            .map(|(i, op)| (i, self.owner(op.key().expect("directional op has a key"))))
            .collect();
        while !pending.is_empty() {
            let mut sub: Vec<Vec<Op>> = vec![Vec::new(); self.shards.len()];
            let mut asked: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            for &(pos, s) in &pending {
                sub[s].push(run[pos]);
                asked[s].push(pos);
            }
            let outs = self.fan_out(sub, pending.len())?;
            pending.clear();
            for (s, (positions, out)) in asked.into_iter().zip(outs).enumerate() {
                for (pos, reply) in positions.into_iter().zip(out) {
                    match reply {
                        Reply::Entry(Some(e)) => replies[base + pos] = Reply::Entry(Some(e)),
                        Reply::Entry(None) => {
                            let next = s as isize + dir;
                            if (0..self.shards.len() as isize).contains(&next) {
                                pending.push((pos, next as usize));
                            }
                        }
                        other => {
                            return Err(PimError::Protocol {
                                op: "cluster_directional",
                                detail: format!("{other:?}"),
                            })
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Range: validate the whole run first with the oracle's exact
    /// errors (same check order, same messages — reply identity covers
    /// error bytes too), then clip each range to the shards it overlaps,
    /// fan the sub-ranges out, and fold each op's per-shard
    /// [`RangeResult`]s left-to-right from the reduction identities.
    /// Shard order is key order, so concatenated items stay sorted, and
    /// `count`/`sum`/`min`/`max` folds are associative — the merged
    /// result is the single machine's.
    fn commit_range(&mut self, run: &[Op], replies: &mut Vec<Reply>) -> PimResult<()> {
        let func = match run[0] {
            Op::Range { func, .. } => func,
            _ => unreachable!("run starts with a Range"),
        };
        for op in run {
            let (lo, hi) = op.bounds();
            if lo > hi {
                return Err(PimError::InvalidArgument {
                    op: "batch_range",
                    reason: format!("inverted range [{lo}, {hi}]"),
                });
            }
        }
        let mutating = matches!(func, RangeFunc::FetchAdd(_) | RangeFunc::AddInPlace(_));
        if mutating && self.cfg.core.h_low == 0 {
            return Err(PimError::InvalidArgument {
                op: "batch_range",
                reason: "mutating range functions require a distributed lower part (h_low > 0)"
                    .into(),
            });
        }
        let mut sub: Vec<Vec<Op>> = vec![Vec::new(); self.shards.len()];
        // route[i]: which shards op i was clipped onto, in key order.
        let mut route: Vec<Vec<usize>> = vec![Vec::new(); run.len()];
        for (i, op) in run.iter().enumerate() {
            let (lo, hi) = op.bounds();
            let mut s = self.owner(lo);
            while s < self.shards.len() && self.shards[s].lo <= hi {
                sub[s].push(Op::Range {
                    lo: lo.max(self.shards[s].lo),
                    hi: hi.min(self.shards[s].hi),
                    func,
                });
                route[i].push(s);
                s += 1;
            }
        }
        let outs = self.fan_out(sub, run.len())?;
        let mut cursors: Vec<std::vec::IntoIter<Reply>> =
            outs.into_iter().map(Vec::into_iter).collect();
        for shards_of_op in route {
            let mut acc = RangeResult::empty();
            for s in shards_of_op {
                match cursors[s].next().expect("per-shard reply count") {
                    Reply::Range(part) => {
                        acc.items.extend_from_slice(&part.items);
                        acc.count += part.count;
                        // The machine's reductions wrap (u64 value sums);
                        // the merged result must wrap identically.
                        acc.sum = acc.sum.wrapping_add(part.sum);
                        acc.min = acc.min.min(part.min);
                        acc.max = acc.max.max(part.max);
                    }
                    other => {
                        return Err(PimError::Protocol {
                            op: "cluster_range",
                            detail: format!("{other:?}"),
                        })
                    }
                }
            }
            replies.push(Reply::Range(acc));
        }
        Ok(())
    }

    // ---- durability -------------------------------------------------

    /// Turn on durable persistence: shard `i` persists independently
    /// into `dir/shard-{i}` through its own WAL + snapshot machinery.
    pub fn enable_durability(
        &mut self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<()> {
        let dir = dir.as_ref();
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.list
                .enable_durability(dir.join(shard_dirname(i)), policy)?;
        }
        Ok(())
    }

    /// Is durable persistence enabled?
    pub fn is_durable(&self) -> bool {
        self.shards[0].list.is_durable()
    }

    /// Total next op-stream index across shards (`None` when not
    /// durable) — a cluster-level progress counter, not a single stream
    /// position.
    pub fn durable_seq(&self) -> Option<u64> {
        self.shards.iter().map(|s| s.list.durable_seq()).sum()
    }

    /// Total ops covered by the last fsync across shards (`None` when
    /// not durable).
    pub fn durable_synced_seq(&self) -> Option<u64> {
        self.shards
            .iter()
            .map(|s| s.list.durable_synced_seq())
            .sum()
    }

    /// Fsync pending WAL frames on every shard now (no-op without
    /// durability).
    pub fn durable_sync(&mut self) -> PimResult<()> {
        for s in &mut self.shards {
            s.list.durable_sync()?;
        }
        Ok(())
    }

    /// Rebuild a whole cluster of `cfg.shards` shards from its durable
    /// directory: shard `i` recovers from `dir/shard-{i}` and serves the
    /// `i`-th uniform key range. A directory whose `shard-*` entries are
    /// not exactly `shard-0 … shard-{S-1}` is refused with
    /// [`PimError::InvalidArgument`] before any shard is read.
    pub fn recover_from_dir(
        cfg: ClusterConfig,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<(PimCluster, ClusterRecoveryReport)> {
        let dir = dir.as_ref();
        let shards = cfg.shards.max(1) as usize;
        let entries = std::fs::read_dir(dir).map_err(|e| PimError::Io {
            op: "cluster_recover",
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let mut found: Vec<String> = entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with("shard-"))
            .collect();
        found.sort_unstable();
        let mut want: Vec<String> = (0..shards).map(shard_dirname).collect();
        want.sort_unstable();
        if found != want {
            return Err(PimError::InvalidArgument {
                op: "cluster_recover",
                reason: format!(
                    "{} holds shard directories {found:?}, want shard-0 … shard-{}",
                    dir.display(),
                    shards - 1
                ),
            });
        }
        let mut lists = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for i in 0..shards {
            let (list, report) = PimSkipList::recover_from_dir(
                cfg.core.clone(),
                dir.join(shard_dirname(i)),
                policy,
            )?;
            lists.push(list);
            reports.push(report);
        }
        Ok((
            Self::with_lists(cfg, lists),
            ClusterRecoveryReport { shards: reports },
        ))
    }

    // ---- telemetry --------------------------------------------------

    /// Light telemetry on every shard (shard `i`'s series carry a
    /// `shard="{i}"` base label) plus a cluster-level registry for
    /// front-end series. Idempotent.
    pub fn enable_telemetry(&mut self) {
        if self.telem.is_none() {
            self.telem = Some(Telemetry::new());
        }
        for (i, s) in self.shards.iter_mut().enumerate() {
            let label = i.to_string();
            s.list.enable_telemetry_with_labels(&[("shard", &label)]);
        }
    }

    /// Is telemetry enabled?
    pub fn telemetry_enabled(&self) -> bool {
        self.telem.is_some()
    }

    /// The cluster-level registry, for layered front-ends (the service
    /// tier registers its series and emits lifecycle events here).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telem.as_mut()
    }

    /// One merged render-ready snapshot: every shard's labeled machine
    /// series plus the cluster-level registry (`None` when dark).
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        let telem = self.telem.as_ref()?;
        let mut parts: Vec<TelemetrySnapshot> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.list.telemetry_snapshot())
            .collect();
        parts.push(telem.snapshot());
        Some(TelemetrySnapshot::merged(parts))
    }
}
