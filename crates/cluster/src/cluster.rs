//! The cluster itself: `S` independent machines behind the
//! single-machine execute contract.
//!
//! See the crate docs for the routing determinism contract and the shard
//! identity rules; this module is their implementation. The shape of one
//! [`PimCluster::try_execute`] call over several shards is the oracle's,
//! lifted one level: split the stream into maximal coalescible runs with
//! the *same* [`run_end`] the single machine uses, then commit each run by
//! fanning
//! its ops out to the owning shards (in parallel, through the
//! deterministic pool — thread count changes wall-clock only) and merging
//! the per-shard replies back into stream positions.

use std::path::{Path, PathBuf};

use pim_core::op::run_end;
use pim_core::{
    DurabilityPolicy, Key, Op, OpKind, PimError, PimResult, PimSkipList, RangeFunc, RangeResult,
    RecoveryReport, Reply, Value,
};
use pim_runtime::{pool, Telemetry, TelemetrySnapshot};

use crate::manifest::{self, ShardRecord};
use crate::router::{self, ShardId};
use crate::ClusterConfig;

/// One shard: a full PIM machine serving the inclusive key range
/// `[lo, hi]`.
struct Shard {
    id: ShardId,
    lo: Key,
    hi: Key,
    /// A crashed-and-not-yet-rebuilt shard stays in the table (its range
    /// still routes to it) but refuses ops with
    /// [`PimError::ShardDown`] until [`PimCluster::rebuild_shard`].
    alive: bool,
    list: PimSkipList,
}

/// A sharded cluster of [`PimSkipList`] machines with the single-machine
/// [`execute`](PimCluster::execute) contract. See the crate docs.
pub struct PimCluster {
    cfg: ClusterConfig,
    /// Sorted by `lo`; ranges are contiguous and cover all of `i64`.
    shards: Vec<Shard>,
    /// Next shard id to mint (ids are never reused).
    next_id: ShardId,
    durable: Option<(PathBuf, DurabilityPolicy)>,
    /// Cluster-level registry for front-end series/events (the service
    /// tier writes here through [`PimCluster::telemetry_mut`]); shard
    /// machine series live in per-shard labeled registries and are folded
    /// in by [`PimCluster::telemetry_snapshot`].
    telem: Option<Telemetry>,
    shard_telemetry: bool,
}

/// Per-shard view in [`ClusterStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Stable shard id.
    pub id: ShardId,
    /// First key the shard owns.
    pub lo: Key,
    /// Last key the shard owns (inclusive).
    pub hi: Key,
    /// Serving, or crashed awaiting rebuild?
    pub alive: bool,
    /// Resident keys.
    pub len: u64,
    /// Machine rounds executed so far.
    pub rounds: u64,
}

/// Point-in-time cluster shape, for operators and the bench reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// One entry per shard, in key order.
    pub shards: Vec<ShardInfo>,
}

/// What [`PimCluster::recover_from_dir`] rebuilt: one
/// [`RecoveryReport`] per shard, in manifest (= key) order.
#[derive(Debug, Clone)]
pub struct ClusterRecoveryReport {
    /// `(shard id, that machine's recovery report)`.
    pub shards: Vec<(ShardId, RecoveryReport)>,
}

impl ClusterRecoveryReport {
    /// Total WAL ops replayed across all shards.
    pub fn ops_replayed(&self) -> u64 {
        self.shards.iter().map(|(_, r)| r.ops_replayed).sum()
    }
}

fn shard_dirname(id: ShardId) -> String {
    format!("shard-{id}")
}

impl PimCluster {
    /// A fresh empty cluster: `cfg.shards` machines, each built from
    /// `cfg.core` verbatim, owning the uniform key-range cuts of the
    /// router (see the crate docs).
    pub fn new(cfg: ClusterConfig) -> Self {
        let los = router::uniform_lower_bounds(cfg.shards);
        let shards = los
            .iter()
            .enumerate()
            .map(|(k, &lo)| Shard {
                id: k as ShardId,
                lo,
                hi: los.get(k + 1).map_or(Key::MAX, |&next| next - 1),
                alive: true,
                list: PimSkipList::new(cfg.core.clone()),
            })
            .collect::<Vec<_>>();
        let next_id = shards.len() as ShardId;
        PimCluster {
            cfg,
            shards,
            next_id,
            durable: None,
            telem: None,
            shard_telemetry: false,
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

    /// Per-shard shape for operators and reports.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardInfo {
                    id: s.id,
                    lo: s.lo,
                    hi: s.hi,
                    alive: s.alive,
                    len: s.list.len(),
                    rounds: s.list.metrics().rounds,
                })
                .collect(),
        }
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
    /// cluster. Panics on the (routing-impossible) error; see
    /// [`PimCluster::try_execute`].
    pub fn execute(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.try_execute(ops)
            .unwrap_or_else(|e| panic!("execute: {e}"))
    }

    /// Fault-tolerant [`PimCluster::execute`]. Over several shards the
    /// stream splits into maximal coalescible runs ([`run_end`]) and runs
    /// commit in stream order; an error aborts the stream at the failing run's boundary —
    /// earlier runs are committed on their shards — exactly the oracle's
    /// abort contract, with [`PimError::ShardDown`] as the one new
    /// failure: a run that routes an op to a crashed shard refuses
    /// *before* any shard commits it, and shards the run does not touch
    /// keep serving later streams.
    pub fn try_execute(&mut self, ops: &[Op]) -> PimResult<Vec<Reply>> {
        // One shard: hand the whole stream to the machine verbatim — the
        // same spans, WAL frames and scratch reuse — which is what makes
        // S = 1 byte-identical to a single machine, rounds included.
        if let [s] = self.shards.as_mut_slice() {
            return if s.alive || ops.is_empty() {
                s.list.try_execute(ops)
            } else {
                Err(PimError::ShardDown { shard: s.id })
            };
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
    /// walk starts). The service tier uses this as the admission lane.
    pub fn lane_of(&self, op: &Op) -> usize {
        self.owner(op.bounds().0)
    }

    /// Refuse the run if any shard it routes ops to is down; checked
    /// before fan-out so a `ShardDown` run commits nowhere.
    fn check_alive(&self, sub: &[Vec<Op>]) -> PimResult<()> {
        for (s, ops) in self.shards.iter().zip(sub) {
            if !ops.is_empty() && !s.alive {
                return Err(PimError::ShardDown { shard: s.id });
            }
        }
        Ok(())
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
        self.check_alive(&sub)?;
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
            self.check_alive(&sub)?;
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
        self.check_alive(&sub)?;
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

    /// Turn on durable persistence: the cluster directory gets the
    /// checksummed `CLUSTER` manifest (the authority on which shards
    /// exist) and each shard persists independently into
    /// `dir/shard-{id}` through its own WAL + snapshot machinery.
    pub fn enable_durability(
        &mut self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<()> {
        if self.durable.is_some() {
            return Err(PimError::InvalidArgument {
                op: "enable_durability",
                reason: "durability is already enabled".into(),
            });
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| PimError::Io {
            op: "cluster_mkdir",
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        self.write_manifest(dir)?;
        for s in &mut self.shards {
            s.list
                .enable_durability(dir.join(shard_dirname(s.id)), policy)?;
        }
        self.durable = Some((dir.to_path_buf(), policy));
        Ok(())
    }

    fn write_manifest(&self, dir: &Path) -> PimResult<()> {
        let records: Vec<ShardRecord> = self
            .shards
            .iter()
            .map(|s| ShardRecord {
                id: s.id,
                lo: s.lo,
                hi: s.hi,
            })
            .collect();
        manifest::write(dir, &records)
    }

    /// Is durable persistence enabled?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Total next op-stream index across shards (`None` when not
    /// durable) — a cluster-level progress counter, not a single stream
    /// position.
    pub fn durable_seq(&self) -> Option<u64> {
        self.durable.as_ref()?;
        Some(
            self.shards
                .iter()
                .filter_map(|s| s.list.durable_seq())
                .sum(),
        )
    }

    /// Total ops covered by the last fsync across shards (`None` when
    /// not durable).
    pub fn durable_synced_seq(&self) -> Option<u64> {
        self.durable.as_ref()?;
        Some(
            self.shards
                .iter()
                .filter_map(|s| s.list.durable_synced_seq())
                .sum(),
        )
    }

    /// Fsync pending WAL frames on every shard now (no-op without
    /// durability).
    pub fn durable_sync(&mut self) -> PimResult<()> {
        for s in &mut self.shards {
            s.list.durable_sync()?;
        }
        Ok(())
    }

    /// Rebuild a whole cluster from its durable directory: the manifest
    /// names the live shards and their ranges (authoritative after any
    /// sequence of splits), and each machine recovers from its own
    /// `shard-{id}` directory.
    pub fn recover_from_dir(
        mut cfg: ClusterConfig,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<(PimCluster, ClusterRecoveryReport)> {
        let dir = dir.as_ref();
        let records = manifest::read(dir)?;
        let mut shards = Vec::with_capacity(records.len());
        let mut reports = Vec::with_capacity(records.len());
        for r in &records {
            let (list, report) = PimSkipList::recover_from_dir(
                cfg.core.clone(),
                dir.join(shard_dirname(r.id)),
                policy,
            )?;
            shards.push(Shard {
                id: r.id,
                lo: r.lo,
                hi: r.hi,
                alive: true,
                list,
            });
            reports.push((r.id, report));
        }
        let next_id = shards.iter().map(|s| s.id + 1).max().unwrap_or(0);
        cfg.shards = shards.len() as u32;
        Ok((
            PimCluster {
                cfg,
                shards,
                next_id,
                durable: Some((dir.to_path_buf(), policy)),
                telem: None,
                shard_telemetry: false,
            },
            ClusterRecoveryReport { shards: reports },
        ))
    }

    // ---- crash / rebuild / split -----------------------------------

    /// Simulate shard `idx` (by table position, see
    /// [`PimCluster::stats`]) crashing: its DRAM contents vanish, its
    /// open WAL writer drops, its durable directory stays. The shard
    /// refuses ops ([`PimError::ShardDown`]) until
    /// [`PimCluster::rebuild_shard`]; other shards keep serving streams
    /// that do not touch it. Refused on a non-durable cluster — the
    /// shard's data would be unrecoverable.
    pub fn kill_shard(&mut self, idx: usize) -> PimResult<()> {
        self.shard_index(idx, "kill_shard")?;
        if self.durable.is_none() {
            return Err(PimError::InvalidArgument {
                op: "kill_shard",
                reason: "killing a shard of a non-durable cluster would lose data".into(),
            });
        }
        let s = &mut self.shards[idx];
        s.alive = false;
        s.list = PimSkipList::new(self.cfg.core.clone());
        Ok(())
    }

    /// Rebuild the crashed shard `idx` from its durable directory and
    /// put it back in service; returns the machine's recovery report.
    pub fn rebuild_shard(&mut self, idx: usize) -> PimResult<RecoveryReport> {
        self.shard_index(idx, "rebuild_shard")?;
        let Some((dir, policy)) = self.durable.clone() else {
            return Err(PimError::InvalidArgument {
                op: "rebuild_shard",
                reason: "cluster is not durable".into(),
            });
        };
        if self.shards[idx].alive {
            return Err(PimError::InvalidArgument {
                op: "rebuild_shard",
                reason: format!("shard {} is alive", self.shards[idx].id),
            });
        }
        let (mut list, report) = PimSkipList::recover_from_dir(
            self.cfg.core.clone(),
            dir.join(shard_dirname(self.shards[idx].id)),
            policy,
        )?;
        if self.shard_telemetry {
            let label = self.shards[idx].id.to_string();
            list.enable_telemetry_with_labels(&[("shard", &label)]);
        }
        self.shards[idx].list = list;
        self.shards[idx].alive = true;
        Ok(report)
    }

    /// Offline shard split: cut shard `idx`'s range at its midpoint and
    /// migrate its contents into two fresh machines. The parent id is
    /// retired; the children get newly minted ids (and, when durable,
    /// fresh `shard-{id}` directories seeded with an initial snapshot —
    /// the parent's directory is deleted and the manifest rewritten, so
    /// recovery sees exactly the post-split cluster). Returns the two
    /// new ids.
    pub fn split_shard(&mut self, idx: usize) -> PimResult<(ShardId, ShardId)> {
        self.shard_index(idx, "split_shard")?;
        let (old_id, lo, hi, alive) = {
            let s = &self.shards[idx];
            (s.id, s.lo, s.hi, s.alive)
        };
        if !alive {
            return Err(PimError::ShardDown { shard: old_id });
        }
        if lo >= hi {
            return Err(PimError::InvalidArgument {
                op: "split_shard",
                reason: format!("shard {old_id} range [{lo}, {hi}] is too narrow to split"),
            });
        }
        let mid = (i128::from(lo) + (i128::from(hi) - i128::from(lo)) / 2) as Key;
        let items = self.shards[idx].list.collect_items();
        let cut = items.partition_point(|&(k, _)| k <= mid);
        let (left_id, right_id) = (self.next_id, self.next_id + 1);
        self.next_id += 2;

        let mut left = PimSkipList::new(self.cfg.core.clone());
        left.load(&items[..cut]);
        let mut right = PimSkipList::new(self.cfg.core.clone());
        right.load(&items[cut..]);
        if self.shard_telemetry {
            let label = left_id.to_string();
            left.enable_telemetry_with_labels(&[("shard", &label)]);
            let label = right_id.to_string();
            right.enable_telemetry_with_labels(&[("shard", &label)]);
        }

        if let Some((dir, policy)) = self.durable.clone() {
            // Children first (their initial snapshots land on disk), then
            // retire the parent's directory and republish the manifest —
            // a crash between the steps leaves either the old or the new
            // cluster fully recoverable, never a half state.
            left.enable_durability(dir.join(shard_dirname(left_id)), policy)?;
            right.enable_durability(dir.join(shard_dirname(right_id)), policy)?;
        }

        self.shards[idx] = Shard {
            id: left_id,
            lo,
            hi: mid,
            alive: true,
            list: left,
        };
        self.shards.insert(
            idx + 1,
            Shard {
                id: right_id,
                lo: mid + 1,
                hi,
                alive: true,
                list: right,
            },
        );
        self.cfg.shards = self.shards.len() as u32;

        if let Some((dir, _)) = self.durable.clone() {
            let old = dir.join(shard_dirname(old_id));
            std::fs::remove_dir_all(&old).map_err(|e| PimError::Io {
                op: "split_retire",
                path: old.display().to_string(),
                detail: e.to_string(),
            })?;
            self.write_manifest(&dir)?;
        }
        Ok((left_id, right_id))
    }

    fn shard_index(&self, idx: usize, op: &'static str) -> PimResult<()> {
        if idx >= self.shards.len() {
            return Err(PimError::InvalidArgument {
                op,
                reason: format!("shard index {idx} out of range ({})", self.shards.len()),
            });
        }
        Ok(())
    }

    // ---- telemetry --------------------------------------------------

    /// Light telemetry on every shard (each machine's series carry a
    /// `shard="{id}"` base label) plus a cluster-level registry for
    /// front-end series. Idempotent.
    pub fn enable_telemetry(&mut self) {
        self.shard_telemetry = true;
        if self.telem.is_none() {
            self.telem = Some(Telemetry::new());
        }
        for s in &mut self.shards {
            let label = s.id.to_string();
            s.list.enable_telemetry_with_labels(&[("shard", &label)]);
        }
    }

    /// Is telemetry enabled?
    pub fn telemetry_enabled(&self) -> bool {
        self.shard_telemetry
    }

    /// The cluster-level registry, for layered front-ends (the service
    /// tier registers its series and emits lifecycle events here).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telem.as_mut()
    }

    /// One merged render-ready snapshot: every live shard's labeled
    /// machine series plus the cluster-level registry (`None` when
    /// dark). A crashed shard contributes nothing until rebuilt.
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        if !self.shard_telemetry {
            return None;
        }
        let mut parts: Vec<TelemetrySnapshot> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.list.telemetry_snapshot())
            .collect();
        if let Some(t) = &self.telem {
            parts.push(t.snapshot());
        }
        Some(TelemetrySnapshot::merged(parts))
    }
}
