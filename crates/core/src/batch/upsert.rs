//! Batched Upsert (§4.3).
//!
//! Upsert = Update where the key exists, Insert otherwise. The insert
//! pipeline follows the paper's stages, with the search moved ahead of the
//! allocation (nothing is linked before Algorithm 1, so the search sees the
//! same structure either way, and the rounds are the same):
//!
//! 1. run the batched Update shortcut; survivors form the insert set;
//! 2. toss tower heights on the CPU side (secret coins);
//! 3. batched Predecessor with per-level reports (§4.2 machinery), which
//!    also yields each key's **anchor**: the lowest replicated node of its
//!    search path that the CPU holds;
//! 4. **allocation round** — lower-part nodes go to `hash(key, level)`
//!    modules (which also enter them into the local index and local leaf
//!    list, descending the replica from the anchor rather than from the
//!    top), upper-part nodes are broadcast into the replicated arena at
//!    CPU-shadow-chosen slots;
//! 5. **wiring round** — vertical pointers and the leaf's up-chain
//!    (Insert steps 4–5);
//! 6. **Algorithm 1** — construct the horizontal pointers, chaining runs
//!    of new nodes that share a `(pred, succ)` segment (Fig. 4);
//! 7. compute the `next_leaf` shortcuts of any new upper-part leaves, each
//!    module walking its local list from the shortcut of the new leaf's
//!    level-`h_low` predecessor (known from the search, or the previous
//!    new upper leaf).

use pim_primitives::semisort::{dedup_by_key_into, dedup_cost};
use pim_primitives::sort::par_sort_by_key;
use pim_runtime::Handle;

use crate::batch::search::SearchRequest;
use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::tasks::{Reply, Task};

/// Outcome of one upsert, in input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertOutcome {
    /// The key existed; its value was updated in place.
    Updated,
    /// The key was inserted.
    Inserted,
}

/// Flattened per-insert towers: tower `j` occupies
/// `handles[offsets[j]..offsets[j + 1]]`, indexed by level. Two buffers
/// per batch (recyclable through [`crate::scratch::Scratch`]) instead of
/// one heap `Vec` per inserted key.
#[derive(Debug, Default)]
pub(crate) struct Towers {
    pub(crate) handles: Vec<Handle>,
    pub(crate) offsets: Vec<u32>,
}

impl Towers {
    /// Size each tower from its height and null-fill the handle slots.
    fn reset(&mut self, tops: &[u8]) {
        self.handles.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for &top in tops {
            let end = self.handles.len() + top as usize + 1;
            self.handles.resize(end, Handle::NULL);
            self.offsets.push(end as u32);
        }
    }

    /// Tower `j`'s handles, indexed by level.
    pub(crate) fn get(&self, j: usize) -> &[Handle] {
        &self.handles[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    fn get_mut(&mut self, j: usize) -> &mut [Handle] {
        &mut self.handles[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// Append every tower of `other`, keeping their order.
    pub(crate) fn append(&mut self, other: &Towers) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let base = self.handles.len() as u32;
        self.handles.extend_from_slice(&other.handles);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|&end| base + end));
    }
}

impl PimSkipList {
    /// Batched Upsert. Duplicate keys within the batch are deduplicated
    /// first-wins; returns the per-pair outcome (duplicates report the
    /// outcome of their key's canonical occurrence).
    pub fn batch_upsert(&mut self, pairs: &[(Key, Value)]) -> Vec<UpsertOutcome> {
        self.try_batch_upsert(pairs)
            .unwrap_or_else(|e| panic!("batch_upsert: {e}"))
    }

    /// One fault-observable attempt of [`PimSkipList::batch_upsert`] (the
    /// recovery loop lives in [`PimSkipList::try_batch_upsert`]). Commits
    /// the batch to the journal only when every stage completed.
    pub(crate) fn upsert_attempt(
        &mut self,
        pairs: &[(Key, Value)],
    ) -> PimResult<Vec<UpsertOutcome>> {
        self.spanned("upsert", |s| {
            let staged = pairs.len() as u64 * 2;
            s.sys.shared_mem().alloc(staged);
            let out = s.upsert_attempt_inner(pairs);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
            out
        })
    }

    fn upsert_attempt_inner(&mut self, pairs: &[(Key, Value)]) -> PimResult<Vec<UpsertOutcome>> {
        let mut uniq = self.scratch.take_uniq_pairs();
        // A pipelined-staged dedup (see `crate::pipeline`) is the same
        // bytes as the inline one; the cost is charged either way.
        if !self.staged_uniq_pairs(crate::op::OpKind::Upsert, &mut uniq) {
            let mut tags = self.scratch.take_dedup_tags();
            dedup_by_key_into(pairs, |&(k, _)| k as u64, &mut tags, &mut uniq);
            self.scratch.give_dedup_tags(tags);
        }
        dedup_cost(pairs.len(), uniq.len()).charge(self.sys.metrics_mut());
        let out = self.upsert_resolve(pairs, &uniq);
        self.scratch.give_uniq_pairs(uniq);
        out
    }

    fn upsert_resolve(
        &mut self,
        pairs: &[(Key, Value)],
        uniq: &[(Key, Value)],
    ) -> PimResult<Vec<UpsertOutcome>> {
        // ---- Update pass (§4.1 shortcut) ----
        let replies = self.spanned("upsert/update_pass", |s| {
            for (op, &(key, value)) in uniq.iter().enumerate() {
                let m = s.module_of(key, 0);
                s.sys.send(
                    m,
                    Task::Update {
                        op: op as u32,
                        key,
                        value,
                    },
                );
            }
            s.sys.run_to_quiescence()
        });
        let mut updated = self.scratch.take_flags();
        updated.resize(uniq.len(), false);
        let mut answered = 0usize;
        let mut faulted = 0usize;
        for r in replies {
            match r {
                Reply::Updated { op, found } => {
                    updated[op as usize] = found;
                    answered += 1;
                }
                Reply::Faulted { .. } => faulted += 1,
                other => {
                    self.scratch.give_flags(updated);
                    return Err(PimError::protocol("batch_upsert", other));
                }
            }
        }
        // Every update task answers exactly once on a healthy machine; a
        // shortfall means a dropped task/reply or a crash-wiped inbox, and
        // a `found = false` derived from silence must never reach the
        // insert path (it would duplicate the key).
        if faulted > 0 || answered < uniq.len() {
            self.scratch.give_flags(updated);
            return Err(PimError::incomplete(
                "batch_upsert",
                faulted + (uniq.len() - answered),
            ));
        }

        // ---- Insert set, sorted by key ----
        let mut inserts = self.scratch.take_inserts();
        inserts.extend(
            uniq.iter()
                .zip(&updated)
                .filter(|(_, &u)| !u)
                .map(|(&kv, _)| kv),
        );
        par_sort_by_key(&mut inserts, |&(k, _)| k).charge(self.sys.metrics_mut());

        let inserted = if inserts.is_empty() {
            Ok(())
        } else {
            self.insert_sorted(&inserts)
        };
        self.scratch.give_inserts(inserts);
        if let Err(e) = inserted {
            self.scratch.give_flags(updated);
            return Err(e);
        }

        // The inserts are journaled by `insert_sorted`; commit the updates.
        for (&(k, v), &u) in uniq.iter().zip(&updated) {
            if u {
                self.journal.record_update(k, v);
            }
        }

        // ---- Map outcomes back ----
        let outcome_by_key: std::collections::HashMap<Key, UpsertOutcome> = uniq
            .iter()
            .zip(&updated)
            .map(|(&(k, _), &u)| {
                (
                    k,
                    if u {
                        UpsertOutcome::Updated
                    } else {
                        UpsertOutcome::Inserted
                    },
                )
            })
            .collect();
        self.scratch.give_flags(updated);
        Ok(pairs.iter().map(|(k, _)| outcome_by_key[k]).collect())
    }

    /// Allocate and vertically wire the towers for a sorted batch of new
    /// keys (Insert steps 1–5): lower-part nodes go to their hashed
    /// modules (entering local index + local leaf list on arrival, leaf `j`
    /// descending from `anchors[j]`, or from the descent start past the
    /// end of `anchors`), upper-part nodes are broadcast into shadow-chosen
    /// replicated slots. Fills `towers` with the `tower[j][level]` handles.
    pub(crate) fn allocate_towers(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchors: &[Handle],
        towers: &mut Towers,
    ) -> PimResult<()> {
        self.spanned("alloc", |s| {
            s.allocate_towers_inner(inserts, tops, anchors, towers)
        })
    }

    fn allocate_towers_inner(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchors: &[Handle],
        towers: &mut Towers,
    ) -> PimResult<()> {
        let h_low = self.cfg.h_low;
        towers.reset(&tops[..inserts.len()]);
        for (j, &(key, value)) in inserts.iter().enumerate() {
            let top = tops[j];
            if h_low > 0 {
                for level in 0..=top.min(h_low - 1) {
                    let m = self.module_of(key, level);
                    let from = match anchors.get(j) {
                        Some(&anchor) if level == 0 => anchor,
                        _ => Handle::NULL,
                    };
                    self.sys.send(
                        m,
                        Task::AllocLower {
                            op: j as u32,
                            key,
                            value,
                            level,
                            from,
                        },
                    );
                }
            }
            if top >= h_low {
                for level in h_low..=top {
                    let slot = self.shadow.alloc();
                    towers.get_mut(j)[level as usize] = Handle::replicated(slot);
                    self.sys.broadcast(|_| Task::AllocUpper {
                        slot,
                        key,
                        level,
                        value,
                    });
                }
            }
        }
        let replies = self.sys.run_to_quiescence();
        let mut faulted = 0usize;
        for r in replies {
            match r {
                Reply::Alloced { op, level, node } => {
                    towers.get_mut(op as usize)[level as usize] = node;
                }
                Reply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol("alloc", other)),
            }
        }
        let missing = towers.handles.iter().filter(|h| h.is_null()).count();
        if faulted > 0 || missing > 0 {
            return Err(PimError::incomplete("alloc", faulted + missing));
        }

        // ---- Vertical wiring + leaf chains (Insert steps 4–5) ----
        for j in 0..inserts.len() {
            let t = towers.get(j);
            for (l, &h) in t.iter().enumerate() {
                let up = t.get(l + 1).copied().unwrap_or(Handle::NULL);
                let down = if l > 0 { t[l - 1] } else { Handle::NULL };
                if up.is_some() || down.is_some() {
                    self.send_write(h, Task::WireVertical { node: h, up, down });
                }
            }
            if t.len() > 1 {
                // The chain is a real message payload, not staging — each
                // receiving leaf owns its copy.
                let (leaf, chain) = (t[0], t[1..].to_vec());
                self.send_write(leaf, Task::SetLeafChain { leaf, chain });
            }
        }
        self.quiesce_writes("wire")
    }

    /// Compute the `next_leaf` shortcut of every new upper-part leaf
    /// (broadcast; must run after horizontal linking). `pred(j)` is tower
    /// `j`'s level-`h_low` predecessor before the batch. Each module walks
    /// its local list from the shortcut of the new leaf's predecessor after
    /// linking: `pred(j)`, or the previous new upper leaf if that one shares
    /// `pred(j)` — its `FixNextLeaf` sits just before in every inbox.
    pub(crate) fn fix_new_next_leaves(
        &mut self,
        towers: &Towers,
        tops: &[u8],
        pred: impl Fn(usize) -> Handle,
    ) -> PimResult<()> {
        let h_low = self.cfg.h_low;
        if h_low == 0 {
            return Ok(());
        }
        self.spanned("next_leaf", |s| {
            let mut fixed_any = false;
            // (pred, handle) of the previous new upper leaf.
            let mut last = (Handle::NULL, Handle::NULL);
            for (j, &top) in tops.iter().enumerate() {
                if top >= h_low {
                    let leaf = towers.get(j)[h_low as usize];
                    let pred = pred(j);
                    let from = if pred == last.0 { last.1 } else { pred };
                    last = (pred, leaf);
                    let slot = leaf.slot();
                    s.sys.broadcast(|_| Task::FixNextLeaf { slot, from });
                    fixed_any = true;
                }
            }
            if fixed_any {
                s.quiesce_writes("fix_next_leaf")?;
            }
            Ok(())
        })
    }

    /// Insert a sorted, deduplicated, non-resident batch of pairs.
    /// Leasing shell around [`PimSkipList::insert_towers`]: heights and
    /// tower storage come from scratch and go back on every exit path.
    fn insert_sorted(&mut self, inserts: &[(Key, Value)]) -> PimResult<()> {
        // ---- Heights (CPU-side secret coins, drawn in key order) ----
        let mut tops = self.scratch.take_tops();
        tops.extend((0..inserts.len()).map(|_| self.rng.skiplist_height(self.cfg.max_level - 1)));
        let mut towers = Towers {
            handles: self.scratch.take_tower_handles(),
            offsets: self.scratch.take_tower_offsets(),
        };
        let mut anchors = self.scratch.take_anchors();
        let out = self.insert_towers(inserts, &tops, &mut anchors, &mut towers);
        self.scratch.give_anchors(anchors);
        self.scratch.give_tower_handles(towers.handles);
        self.scratch.give_tower_offsets(towers.offsets);
        self.scratch.give_tops(tops);
        out
    }

    fn insert_towers(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchors: &mut Vec<Handle>,
        towers: &mut Towers,
    ) -> PimResult<()> {
        // ---- Batched Predecessor with per-level reports (§4.2) ----
        let mut reqs = self.scratch.take_reqs();
        reqs.extend(
            inserts
                .iter()
                .enumerate()
                .map(|(j, &(key, _))| SearchRequest {
                    op: j as u32,
                    key,
                    top: tops[j],
                }),
        );
        let results = self.pivoted_search(&reqs, Some(anchors));
        self.scratch.give_reqs(reqs);
        let results = results?;

        // Structural writes begin here: invalidate push-pull snapshots
        // before the first node lands, so even a faulted half-applied
        // batch can never be searched through the cache.
        self.bump_write_epoch();

        // ---- Allocation + vertical wiring rounds (Insert steps 1–5) ----
        self.allocate_towers(inserts, tops, anchors, towers)?;

        // ---- Algorithm 1: horizontal pointer construction ----
        self.spanned("link", |s| {
            s.link_horizontal(inserts, tops, towers, &results)
        })?;

        // ---- next_leaf of new upper-part leaves (their towers reach h_low,
        // so the search reported their level-h_low predecessors) ----
        let h_low = self.cfg.h_low;
        self.fix_new_next_leaves(towers, tops, |j| {
            results
                .pred_at(j as u32, h_low)
                .map_or(Handle::NULL, |(pred, _, _)| pred)
        })?;

        // Commit: the batch is structurally complete — journal each new
        // tower so recovery can re-materialise it handle for handle.
        for (j, &(key, value)) in inserts.iter().enumerate() {
            self.journal.record_insert(key, value, towers.get(j));
        }
        self.len += inserts.len() as u64;
        Ok(())
    }

    /// Algorithm 1 (Fig. 4): construct the horizontal pointers of every
    /// new tower, chaining runs of new nodes that share a `(pred, succ)`
    /// segment, then quiesce the writes.
    fn link_horizontal(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        towers: &Towers,
        results: &crate::batch::search::SearchResults,
    ) -> PimResult<()> {
        struct Entry {
            cur: Handle,
            key: Key,
            pred: Handle,
            succ: Handle,
            succ_key: Key,
        }
        // A[level] staging, reused (cleared) across levels.
        let mut a: Vec<Entry> = Vec::new();
        let max_top = tops.iter().copied().max().unwrap_or(0);
        for level in 0..=max_top {
            // A[level]: new nodes at this level in ascending key order.
            a.clear();
            for (j, &(key, _)) in inserts.iter().enumerate() {
                if tops[j] < level {
                    continue;
                }
                let (pred, succ, succ_key) =
                    results
                        .pred_at(j as u32, level)
                        .ok_or(PimError::Incomplete {
                            op: "batch_upsert",
                            missing: 1,
                        })?;
                a.push(Entry {
                    cur: towers.get(j)[level as usize],
                    key,
                    pred,
                    succ,
                    succ_key,
                });
            }
            for j in 0..a.len() {
                let right_end = j + 1 == a.len() || a[j].succ != a[j + 1].succ;
                if right_end {
                    self.send_write(
                        a[j].cur,
                        Task::WriteRight {
                            node: a[j].cur,
                            to: a[j].succ,
                            to_key: a[j].succ_key,
                        },
                    );
                    if a[j].succ.is_some() {
                        self.send_write(
                            a[j].succ,
                            Task::WriteLeft {
                                node: a[j].succ,
                                to: a[j].cur,
                            },
                        );
                    }
                } else {
                    self.send_write(
                        a[j].cur,
                        Task::WriteRight {
                            node: a[j].cur,
                            to: a[j + 1].cur,
                            to_key: a[j + 1].key,
                        },
                    );
                    self.send_write(
                        a[j + 1].cur,
                        Task::WriteLeft {
                            node: a[j + 1].cur,
                            to: a[j].cur,
                        },
                    );
                }
                let left_end = j == 0 || a[j].pred != a[j - 1].pred;
                if left_end {
                    self.send_write(
                        a[j].pred,
                        Task::WriteRight {
                            node: a[j].pred,
                            to: a[j].cur,
                            to_key: a[j].key,
                        },
                    );
                    self.send_write(
                        a[j].cur,
                        Task::WriteLeft {
                            node: a[j].cur,
                            to: a[j].pred,
                        },
                    );
                }
            }
            self.start.link(level, a.len() as u32);
            self.sys.metrics_mut().charge_cpu(
                a.len() as u64,
                pim_runtime::ceil_log2(a.len().max(1) as u64).into(),
            );
        }
        self.quiesce_writes("link")
    }
}
