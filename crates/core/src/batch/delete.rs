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

use std::collections::HashMap;

use pim_primitives::list_contraction::{contract_in, ContractScratch, LinkedLists, NONE};
use pim_primitives::semisort::{dedup_by_key_into, dedup_cost};
use pim_runtime::Handle;

use crate::config::{Key, POS_INF};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::tasks::{Reply, Task};

/// A marked node's snapshot, as reported by the modules.
#[derive(Debug, Clone, Copy)]
struct MarkedRec {
    node: Handle,
    left: Handle,
    right: Handle,
    right_key: Key,
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
        self.try_batch_delete(keys)
            .unwrap_or_else(|e| panic!("batch_delete: {e}"))
    }

    /// One fault-observable attempt of [`PimSkipList::batch_delete`].
    /// Commits removals to the journal only when every stage completed.
    pub(crate) fn delete_attempt(&mut self, keys: &[Key]) -> PimResult<Vec<bool>> {
        self.spanned("delete", |s| {
            let staged = keys.len() as u64 * 2;
            s.sys.shared_mem().alloc(staged);
            let mut extra = 0u64;
            let out = s.delete_attempt_inner(keys, &mut extra);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged + extra);
            out
        })
    }

    fn delete_attempt_inner(
        &mut self,
        keys: &[Key],
        extra_staged: &mut u64,
    ) -> PimResult<Vec<bool>> {
        let mut uniq = self.scratch.take_uniq_keys();
        let mut tags = self.scratch.take_dedup_tags();
        dedup_by_key_into(keys, |&k| k as u64, &mut tags, &mut uniq);
        self.scratch.give_dedup_tags(tags);
        dedup_cost(keys.len(), uniq.len()).charge(self.sys.metrics_mut());
        let mut found = self.scratch.take_flags();
        let mut answered = self.scratch.take_flags2();
        let out = self.delete_resolve(keys, &uniq, &mut found, &mut answered, extra_staged);
        self.scratch.give_flags2(answered);
        self.scratch.give_flags(found);
        self.scratch.give_uniq_keys(uniq);
        out
    }

    fn delete_resolve(
        &mut self,
        keys: &[Key],
        uniq: &[Key],
        found: &mut Vec<bool>,
        answered: &mut Vec<bool>,
        extra_staged: &mut u64,
    ) -> PimResult<Vec<bool>> {
        let before = self.sys.metrics();

        // Structural writes begin with the marks: invalidate push-pull
        // snapshots up front (coherence rule, see `crate::hotcache`).
        self.bump_write_epoch();

        // ---- Stage 1: mark leaves + towers via the hash shortcut ----
        let replies = self.spanned("delete/mark", |s| {
            for (op, &key) in uniq.iter().enumerate() {
                let m = s.module_of(key, 0);
                s.sys.send(m, Task::DeleteKey { op: op as u32, key });
            }
            s.sys.run_to_quiescence()
        });

        found.resize(uniq.len(), false);
        answered.resize(uniq.len(), false);
        let mut faulted = 0usize;
        let mut marked_by_level: HashMap<u8, Vec<MarkedRec>> = HashMap::new();
        let mut upper_slots = self.scratch.take_slots();
        // Replicas to unlink per level: a tower's replicated nodes arrive
        // bottom-up from `h_low`.
        let h_low = usize::from(self.cfg.h_low);
        let mut unlinked_at = [0u32; u8::MAX as usize + 1];
        let mut marked_words = 0u64;
        for r in replies {
            match r {
                Reply::Marked {
                    op,
                    node,
                    level,
                    key: _,
                    left,
                    right,
                    right_key,
                    upper_slots: ups,
                    value: _,
                } => {
                    if level == 0 {
                        found[op as usize] = true;
                        answered[op as usize] = true;
                    }
                    for count in &mut unlinked_at[h_low..h_low + ups.len()] {
                        *count += 1;
                    }
                    upper_slots.extend(ups);
                    if !node.is_replicated() {
                        marked_by_level.entry(level).or_default().push(MarkedRec {
                            node,
                            left,
                            right,
                            right_key,
                        });
                        marked_words += 4;
                    }
                }
                Reply::DeleteMissing { op } => {
                    found[op as usize] = false;
                    answered[op as usize] = true;
                }
                Reply::Faulted { .. } => faulted += 1,
                other => {
                    self.scratch.give_slots(upper_slots);
                    return Err(PimError::protocol("batch_delete", other));
                }
            }
        }
        self.sys.shared_mem().alloc(marked_words);
        *extra_staged = marked_words;
        // The marked set is only coherent if no message was lost and no
        // module crashed during the marking waves: a missing tower-node
        // `Marked` is indistinguishable from a short tower, so any fault
        // signal aborts the attempt before the splice consumes the data.
        let missing = answered.iter().filter(|&&a| !a).count();
        if faulted > 0 || missing > 0 || self.damage_since(&before) {
            self.scratch.give_slots(upper_slots);
            return Err(PimError::incomplete("batch_delete", faulted + missing));
        }

        // ---- Stage 2: CPU-side list contraction per level, then splice ----
        let mut levels: Vec<u8> = marked_by_level.keys().copied().collect();
        levels.sort_unstable();
        let mut bufs = SpliceBufs::default();
        self.spanned("delete/contract", |s| {
            for &level in &levels {
                let records = &marked_by_level[&level];
                s.splice_level(records, &mut bufs);
            }
        });

        // ---- Free marked lower nodes; unlink upper replicas ----
        // (level order: deterministic message order keeps `nth`-counted
        // drop faults replayable)
        let unlinked = self.spanned("delete/unlink", |s| {
            for &level in &levels {
                for rec in &marked_by_level[&level] {
                    s.sys
                        .send(rec.node.module(), Task::FreeNode { node: rec.node });
                }
            }
            if !upper_slots.is_empty() {
                let slots = upper_slots.clone();
                s.sys.broadcast(move |_| Task::UnlinkUpper {
                    slots: slots.clone(),
                });
                for &slot in &upper_slots {
                    s.shadow.free(slot);
                }
                for level in s.cfg.h_low..=s.cfg.max_level {
                    s.start.unlink(level, unlinked_at[usize::from(level)]);
                }
            }
            s.quiesce_writes("batch_delete")
        });
        self.scratch.give_slots(upper_slots);
        unlinked?;

        self.len -= found.iter().filter(|&&f| f).count() as u64;
        // Commit removals to the journal.
        for (&k, &f) in uniq.iter().zip(found.iter()) {
            if f {
                self.journal.remove(k);
            }
        }

        // ---- Map back to input order ----
        let by_key: HashMap<Key, bool> = uniq
            .iter()
            .zip(found.iter())
            .map(|(&k, &f)| (k, f))
            .collect();
        Ok(keys.iter().map(|k| by_key[k]).collect())
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
