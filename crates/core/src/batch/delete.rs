//! Batched Delete (§4.4).
//!
//! Deletion shortcuts to the leaf through the per-module hash index (an
//! `O(log P)` speedup over Insert-in-reverse, as the paper notes), marks
//! the leaf and its up-chain, and then faces the real problem: up to
//! `P log² P` *consecutive* nodes may need to leave one horizontal list.
//! Independent parallel splices would race on shared neighbours, so the
//! marked nodes (plus one unmarked boundary node on each side) are copied
//! into CPU shared memory, spliced there with parallel randomized **list
//! contraction** [9, 28], and the surviving boundary links are written
//! back with two `RemoteWrite`s per run.
//!
//! Upper-part (replicated) nodes never enter the contraction: their whole
//! neighbourhood is replicated, so a single `UnlinkUpper` broadcast lets
//! every module splice its own copies locally, in identical order.
//!
//! Among a span's co-scheduled jobs (`crate::sched`) the marks are one wave
//! beside the others. The links then wait only for the earlier Successors
//! and Predecessors the removal answers, found from each leaf's key, its
//! right neighbour's and its module-local left leaf's (a lower bound on its
//! left neighbour's), so the rule costs no message. An unlinked node keeps
//! its own pointers until it is freed, so any other earlier search on it or
//! past it ends where it would have ended. The later jobs start once the
//! links are written and never reach a removed node; the frees and the
//! journal commit wait until every earlier job has finished, so every later
//! allocation comes after them.

use std::collections::HashMap;

use pim_primitives::list_contraction::{contract_in, ContractScratch, LinkedLists, NONE};
use pim_primitives::semisort::{dedup_by_key_into, dedup_cost};
use pim_runtime::{Handle, Metrics};

use crate::config::{Key, POS_INF};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::op::{Hold, Op, Probe, Reply as OpReply};
use crate::recover::write_wave;
use crate::sched::Lane;
use crate::tasks::{Reply, Task};

/// A marked node's snapshot, as reported by the modules.
#[derive(Debug, Clone, Copy)]
struct MarkedRec {
    node: Handle,
    left: Handle,
    right: Handle,
    right_key: Key,
}

/// What one Delete batch's mark wave found: per unique key whether it was
/// resident, the removed leaves, the marked lower-part nodes per level, and
/// the replicated slots to unlink.
struct Marks {
    found: Vec<bool>,
    /// Per removed leaf: a lower bound on its left neighbour's key, its key
    /// and its right neighbour's key (see [`Probe::Removed`]).
    removed: Vec<(Key, Key, Key)>,
    by_level: HashMap<u8, Vec<MarkedRec>>,
    upper_slots: Vec<u32>,
    /// Replicas to unlink per level: a tower's replicated nodes arrive
    /// bottom-up from `h_low`.
    unlinked_at: [u32; u8::MAX as usize + 1],
}

impl Marks {
    /// The levels with marked lower-part nodes, bottom-up.
    fn levels(&self) -> Vec<u8> {
        let mut levels: Vec<u8> = self.by_level.keys().copied().collect();
        levels.sort_unstable();
        levels
    }
}

/// Working storage for [`PimSkipList::splice_level`], reused (cleared)
/// across the levels of one delete batch.
#[derive(Debug, Default)]
struct SpliceBufs {
    idx_of: HashMap<u64, usize>,
    handles: Vec<Handle>,
    key_of: Vec<Key>,
    lists: LinkedLists,
    boundary_left: Vec<usize>,
    boundary_right: Vec<usize>,
    removed: Vec<bool>,
    contract: ContractScratch,
}

impl PimSkipList {
    /// Batched Delete: removes each key, returning per-key whether it was
    /// present. Duplicates within the batch are deduplicated.
    pub fn batch_delete(&mut self, keys: &[Key]) -> Vec<bool> {
        self.try_batch(
            "Delete",
            keys,
            |key| Op::Delete { key },
            |r| match r {
                OpReply::Deleted(found) => Some(*found),
                _ => None,
            },
        )
        .unwrap_or_else(|e| panic!("batch_delete: {e}"))
    }

    /// Absorb the mark wave's replies for `n` unique keys. The marked set
    /// is only coherent if no message was lost and no module crashed since
    /// `before`: a missing tower-node `Marked` is indistinguishable from a
    /// short tower, so any fault signal ends the attempt before the splice
    /// consumes the data.
    fn mark_absorb(&mut self, n: usize, replies: Vec<Reply>, before: &Metrics) -> PimResult<Marks> {
        let mut marks = Marks {
            found: self.scratch.take_flags(),
            removed: Vec::new(),
            by_level: HashMap::new(),
            upper_slots: self.scratch.take_slots(),
            unlinked_at: [0; u8::MAX as usize + 1],
        };
        marks.found.resize(n, false);
        let h_low = usize::from(self.cfg.h_low);
        let (mut answered, mut faulted) = (0usize, 0usize);
        for r in replies {
            match r {
                Reply::Marked {
                    op,
                    node,
                    level,
                    key,
                    left,
                    left_bound,
                    right,
                    right_key,
                    upper_slots,
                    ..
                } => {
                    if level == 0 {
                        marks.found[op as usize] = true;
                        marks.removed.push((left_bound, key, right_key));
                        answered += 1;
                    }
                    for count in &mut marks.unlinked_at[h_low..h_low + upper_slots.len()] {
                        *count += 1;
                    }
                    marks.upper_slots.extend(upper_slots);
                    if !node.is_replicated() {
                        marks.by_level.entry(level).or_default().push(MarkedRec {
                            node,
                            left,
                            right,
                            right_key,
                        });
                    }
                }
                Reply::DeleteMissing { .. } => answered += 1,
                Reply::Faulted { .. } => faulted += 1,
                other => {
                    self.give_marks(marks);
                    return Err(PimError::protocol("batch_delete", other));
                }
            }
        }
        // Each key answers once on a healthy machine.
        if faulted > 0 || answered < n || self.damage_since(before) {
            self.give_marks(marks);
            return Err(PimError::incomplete("batch_delete", faulted + n - answered));
        }
        Ok(marks)
    }

    fn give_marks(&mut self, marks: Marks) {
        self.scratch.give_flags(marks.found);
        self.scratch.give_slots(marks.upper_slots);
    }

    /// Contract the marked nodes per level in shared memory (CPU-side list
    /// contraction) and send the surviving boundary links. Returns the
    /// staged words, to free once the links are written.
    fn contract_marked(&mut self, marks: &Marks) -> u64 {
        let words = 4 * marks.by_level.values().map(Vec::len).sum::<usize>() as u64;
        self.sys.shared_mem().alloc(words);
        let mut bufs = SpliceBufs::default();
        self.spanned("delete/contract", |s| {
            for level in &marks.levels() {
                s.splice_level(&marks.by_level[level], &mut bufs);
            }
        });
        words
    }

    /// Free the marked lower nodes and unlink the upper replicas.
    fn send_frees(&mut self, marks: &Marks) {
        // Level order: deterministic message order keeps `nth`-counted
        // drop faults replayable.
        for level in &marks.levels() {
            for rec in &marks.by_level[level] {
                self.sys
                    .send(rec.node.module(), Task::FreeNode { node: rec.node });
            }
        }
        if !marks.upper_slots.is_empty() {
            let slots = marks.upper_slots.clone();
            self.sys.broadcast(move |_| Task::UnlinkUpper {
                slots: slots.clone(),
            });
            for &slot in &marks.upper_slots {
                self.shadow.free(slot);
            }
            for level in self.cfg.h_low..=self.cfg.max_level {
                self.start
                    .unlink(level, marks.unlinked_at[usize::from(level)]);
            }
        }
    }

    /// Commit the removals to the length and the journal.
    fn commit_removals(&mut self, uniq: &[Key], marks: &Marks) {
        self.len -= marks.found.iter().filter(|&&f| f).count() as u64;
        for (&k, &f) in uniq.iter().zip(&marks.found) {
            if f {
                self.journal.remove(&k);
            }
        }
    }

    /// Contract one level's marked nodes in shared memory and write the
    /// surviving boundary links back. `bufs` is recycled working storage.
    fn splice_level(&mut self, records: &[MarkedRec], bufs: &mut SpliceBufs) {
        // Local mirror: marked nodes + boundary nodes.
        let SpliceBufs {
            idx_of,
            handles,
            key_of, // POS_INF when unknown
            lists,
            boundary_left,
            boundary_right,
            removed,
            contract,
        } = bufs;
        idx_of.clear();
        handles.clear();
        key_of.clear();
        boundary_left.clear();
        boundary_right.clear();
        let intern = |h: Handle,
                      idx_of: &mut HashMap<u64, usize>,
                      handles: &mut Vec<Handle>,
                      key_of: &mut Vec<Key>|
         -> usize {
            *idx_of.entry(h.to_bits()).or_insert_with(|| {
                handles.push(h);
                key_of.push(POS_INF);
                handles.len() - 1
            })
        };

        // First pass: intern all marked nodes.
        for rec in records {
            intern(rec.node, idx_of, handles, key_of);
        }
        let marked_count = handles.len();

        // Second pass: links + boundary nodes.
        lists.prev.clear();
        lists.next.clear();
        lists.prev.resize(marked_count, NONE);
        lists.next.resize(marked_count, NONE);
        for rec in records {
            let me = idx_of[&rec.node.to_bits()];
            // Left neighbour.
            debug_assert!(rec.left.is_some(), "every level has a −∞ sentinel");
            let lbits = rec.left.to_bits();
            let l = match idx_of.get(&lbits) {
                Some(&i) if i < marked_count => i,
                _ => {
                    let i = intern(rec.left, idx_of, handles, key_of);
                    if i >= lists.prev.len() {
                        lists.prev.resize(i + 1, NONE);
                        lists.next.resize(i + 1, NONE);
                    }
                    boundary_left.push(i);
                    i
                }
            };
            lists.prev[me] = l;
            lists.next[l] = me;
            // Right neighbour (may be the end of the list).
            if rec.right.is_some() {
                let rbits = rec.right.to_bits();
                let r = match idx_of.get(&rbits) {
                    Some(&i) if i < marked_count => i,
                    _ => {
                        let i = intern(rec.right, idx_of, handles, key_of);
                        if i >= lists.prev.len() {
                            lists.prev.resize(i + 1, NONE);
                            lists.next.resize(i + 1, NONE);
                        }
                        key_of[i] = rec.right_key;
                        boundary_right.push(i);
                        i
                    }
                };
                key_of[r] = rec.right_key;
                lists.next[me] = r;
                lists.prev[r] = me;
            } else {
                lists.next[me] = NONE;
            }
        }

        let n = handles.len();
        removed.clear();
        removed.extend((0..n).map(|i| i < marked_count));
        contract_in(lists, removed, &mut self.rng, contract).charge(self.sys.metrics_mut());

        // Write back the boundary links.
        for &l in boundary_left.iter() {
            let r = lists.next[l];
            let (to, to_key) = if r == NONE {
                (Handle::NULL, POS_INF)
            } else {
                (handles[r], key_of[r])
            };
            self.send_write(
                handles[l],
                Task::WriteRight {
                    node: handles[l],
                    to,
                    to_key,
                },
            );
        }
        for &r in boundary_right.iter() {
            let l = lists.prev[r];
            debug_assert!(l != NONE, "right boundary lost its left link");
            self.send_write(
                handles[r],
                Task::WriteLeft {
                    node: handles[r],
                    to: handles[l],
                },
            );
        }
    }
}

/// One fault-observable attempt of [`PimSkipList::batch_delete`], as the
/// job whose run holds `keys`. The marks (§4.4's hash shortcut) are one
/// wave that shares rounds with the span's other jobs. A batch that marked
/// nothing is done there; one that marked splices (see [`splice`]).
/// Commits to the journal only when every stage completed.
pub(crate) async fn delete_attempt(lane: Lane<'_>, keys: &[Key]) -> PimResult<Vec<bool>> {
    lane.spanned("delete", async {
        let staged = keys.len() as u64 * 2;
        let uniq = lane.with(|s| {
            s.sys.shared_mem().alloc(staged);
            let mut uniq = s.scratch.take_uniq_keys();
            let mut tags = s.scratch.take_dedup_tags();
            dedup_by_key_into(keys, |&k| k as u64, &mut tags, &mut uniq);
            s.scratch.give_dedup_tags(tags);
            dedup_cost(keys.len(), uniq.len()).charge(s.sys.metrics_mut());
            uniq
        });
        let out = delete_resolve(lane, keys, &uniq).await;
        lane.with(|s| {
            s.scratch.give_uniq_keys(uniq);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
        });
        out
    })
    .await
}

/// Mark `uniq`, then splice out what was marked.
async fn delete_resolve(lane: Lane<'_>, keys: &[Key], uniq: &[Key]) -> PimResult<Vec<bool>> {
    let before = lane.with(|s| s.sys.metrics());
    let replies = lane
        .spanned("delete/mark", async {
            lane.with(|s| {
                for (op, &key) in uniq.iter().enumerate() {
                    let m = s.module_of(key, 0);
                    s.sys.send(m, Task::DeleteKey { op: op as u32, key });
                }
            });
            lane.wave().await
        })
        .await;
    let marks = lane.with(|s| s.mark_absorb(uniq.len(), replies, &before))?;
    // No key was resident: nothing changed, so nothing is spliced.
    let spliced = if marks.found.contains(&true) {
        splice(lane, uniq, &marks).await
    } else {
        Ok(())
    };
    lane.with(|s| {
        let out = spliced.map(|()| {
            let by_key: HashMap<Key, bool> = uniq
                .iter()
                .copied()
                .zip(marks.found.iter().copied())
                .collect();
            keys.iter().map(|k| by_key[k]).collect()
        });
        s.give_marks(marks);
        out
    })
}

/// Splice the marked nodes out and commit the removals. The links wait
/// only for the earlier reads whose answer the removal changes
/// ([`Probe::Removed`]): an unlinked node keeps its own pointers until it
/// is freed, so an earlier search on it or past it ends where it would have
/// ended. Then the contraction priorities wait for
/// every earlier job's last draw and are drawn, the links go out as one
/// wave, and the later jobs may start ([`Lane::publish`]): none of them
/// reaches a removed node. The frees and the commit wait until every
/// earlier job has finished, so every later allocation comes after them. A
/// tower reaching the replicated part waits for that before its links:
/// `UnlinkUpper` frees replicated slots. When every earlier job has
/// finished by the links, the frees ride in their wave, recorded as a lone
/// phase ([`Lane::recorded`]): a one-job span sends what it always sent.
async fn splice(lane: Lane<'_>, uniq: &[Key], marks: &Marks) -> PimResult<()> {
    if marks.upper_slots.is_empty() {
        lane.after(Probe::Removed(&marks.removed)).await;
    } else {
        lane.settled().await;
    }
    lane.draws_settled().await;
    let alone = lane.is_settled();
    let unlink = async {
        let words = lane.with(|s| s.contract_marked(marks));
        lane.drawn();
        let linked = lane
            .spanned("delete/unlink", async {
                if alone {
                    lane.with(|s| s.send_frees(marks));
                }
                write_wave(lane, "batch_delete").await
            })
            .await;
        lane.with(|s| s.sys.shared_mem().free(words));
        linked?;
        if !alone {
            lane.publish(Hold::NONE);
            lane.settled().await;
            lane.with(|s| s.send_frees(marks));
            write_wave(lane, "batch_delete").await?;
        }
        lane.with(|s| s.commit_removals(uniq, marks));
        Ok(())
    };
    if alone {
        lane.recorded("delete", unlink).await
    } else {
        unlink.await
    }
}

#[cfg(test)]
mod tests {
    use pim_runtime::Rng;

    use crate::config::{Config, Key, Value};
    use crate::list::PimSkipList;

    /// Mean PIM time of four full uniform Delete batches on `n` bulk-loaded
    /// keys `4·i`, and of the Upsert batches that put each batch's keys
    /// back; the structure is validated after every batch.
    fn full_batch_pim(p: u32, n: usize) -> (u64, u64) {
        let mut list = PimSkipList::new(Config::new(p, n as u64, 42));
        let pairs: Vec<(Key, Value)> = (0..n as i64).map(|i| (4 * i, i as u64)).collect();
        list.bulk_load(&pairs);
        let batch = list.cfg.batch_large();
        let mut rng = Rng::new(7);
        let (mut delete, mut upsert) = (0, 0);
        for _ in 0..4 {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < batch {
                picked.extend((picked.len()..batch).map(|_| rng.below(n as u64) as usize));
                picked.sort_unstable();
                picked.dedup();
            }
            let back: Vec<(Key, Value)> = picked.iter().map(|&i| pairs[i]).collect();
            let keys: Vec<Key> = back.iter().map(|&(k, _)| k).collect();

            let before = list.metrics().pim_time;
            assert!(list.batch_delete(&keys).iter().all(|&found| found));
            delete += list.metrics().pim_time - before;
            list.validate().expect("valid after the delete");

            let before = list.metrics().pim_time;
            list.batch_upsert(&back);
            upsert += list.metrics().pim_time - before;
            list.validate().expect("valid after the upsert");
        }
        assert_eq!(list.len(), n as u64);
        (delete / 4, upsert / 4)
    }

    #[test]
    fn delete_pim_time_does_not_grow_with_n() {
        // Table 1 prices a full Delete batch at O(log² P) PIM time. Each
        // removed leaf redirects the shortcuts naming it from its inverse,
        // with no replica descent, so nothing grows with n: Delete 300 /
        // 319 / 313 / 292 at P = 16 and 654 / 693 / 684 / 688 at P = 64 for
        // n = 2^14 … 2^17, Upsert 2808–3016 at P = 64. While every leaf
        // insert and removal descended from the descent start: 783 / 804 /
        // 786 / 822 and 1379 / 1513 / 1531 / 1560, Upsert 3951–4326.
        for p in [16u32, 64] {
            let costs: Vec<(u64, u64)> = (14..=17)
                .map(|log_n| full_batch_pim(p, 1 << log_n))
                .collect();
            let (first, last) = (costs[0].0 as f64, costs[3].0 as f64);
            assert!(
                last <= 1.10 * first,
                "P={p}: Delete PIM time grew with n: {costs:?}"
            );
            if p == 64 {
                // Delete: half of what the descents cost at n = 2^17.
                assert!(
                    costs
                        .iter()
                        .all(|&(delete, upsert)| delete <= 780 && upsert <= 3300),
                    "P={p}: (Delete, Upsert) PIM time per batch {costs:?}"
                );
            }
        }
    }
}
