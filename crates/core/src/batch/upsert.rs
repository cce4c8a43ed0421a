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
//!    also returns each key's exact **anchor**: its level-`h_low`
//!    predecessor, where its search stepped into the lower part;
//! 4. **allocation round** — lower-part nodes go to `hash(key, level)`
//!    modules, which also enter a leaf into the local index and the local
//!    leaf list one descent step from its anchor; upper-part nodes only
//!    draw their replicated slots from the CPU shadow allocator;
//! 5. **wiring round** — the lower-part nodes' vertical pointers and the
//!    leaf's up-chain (Insert steps 4–5);
//! 6. **link round** — Algorithm 1 constructs the lower levels' horizontal
//!    pointers, chaining runs of new nodes that share a `(pred, succ)`
//!    segment (Fig. 4). Each upper-part node is one `LinkUpper` broadcast
//!    that every module applies locally, the mirror image of Delete's
//!    `UnlinkUpper`: allocate the replica, splice it in after its
//!    predecessor (the search's, or the previous new node at that level
//!    when they share it — the same chaining), point the node below up at
//!    it, and for an upper leaf compute its `next_leaf` shortcut from the
//!    predecessor's. The broadcasts go out level by level in key order, so
//!    each one finds its predecessor and the node below already in place.

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

    /// Number of towers.
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
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
        let mut tags = self.scratch.take_dedup_tags();
        dedup_by_key_into(pairs, |&(k, _)| k as u64, &mut tags, &mut uniq);
        self.scratch.give_dedup_tags(tags);
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
    /// descending from `anchor(j)`), upper-part nodes draw shadow-chosen
    /// replicated slots, which their `LinkUpper` fills in the link round.
    /// Fills `towers` with the `tower[j][level]` handles.
    pub(crate) fn allocate_towers(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchor: impl Fn(usize) -> Handle,
        towers: &mut Towers,
    ) -> PimResult<()> {
        self.spanned("alloc", |s| {
            s.allocate_towers_inner(inserts, tops, anchor, towers)
        })
    }

    fn allocate_towers_inner(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchor: impl Fn(usize) -> Handle,
        towers: &mut Towers,
    ) -> PimResult<()> {
        let h_low = self.cfg.h_low;
        towers.reset(&tops[..inserts.len()]);
        for (j, &(key, value)) in inserts.iter().enumerate() {
            let top = tops[j];
            if h_low > 0 {
                for level in 0..=top.min(h_low - 1) {
                    let m = self.module_of(key, level);
                    let from = if level == 0 { anchor(j) } else { Handle::NULL };
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
                    towers.get_mut(j)[level as usize] = Handle::replicated(self.shadow.alloc());
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

        // ---- Vertical wiring + leaf chains (Insert steps 4–5) of the
        // lower-part nodes; `LinkUpper` wires the replicas ----
        for j in 0..inserts.len() {
            let t = towers.get(j);
            for (l, &h) in t.iter().enumerate() {
                let up = t.get(l + 1).copied().unwrap_or(Handle::NULL);
                let down = if l > 0 { t[l - 1] } else { Handle::NULL };
                if !h.is_replicated() && (up.is_some() || down.is_some()) {
                    self.sys
                        .send(h.module(), Task::WireVertical { node: h, up, down });
                }
            }
        }
        self.send_leaf_chains(towers, false);
        self.quiesce_writes("wire")
    }

    /// Record each tower's chain in its leaf (Insert step 5), for the
    /// leaves that are (`replicated`) or are not replicated. A replicated
    /// leaf — the `h_low = 0` ablation — exists only once its `LinkUpper`
    /// ran, so its chain rides behind it in the link round.
    pub(crate) fn send_leaf_chains(&mut self, towers: &Towers, replicated: bool) {
        for j in 0..towers.len() {
            let t = towers.get(j);
            if t.len() > 1 && t[0].is_replicated() == replicated {
                // The chain is a real message payload, not staging — each
                // receiving leaf owns its copy.
                let (leaf, chain) = (t[0], t[1..].to_vec());
                self.send_write(leaf, Task::SetLeafChain { leaf, chain });
            }
        }
    }

    /// Broadcast the `LinkUpper` of `tower`'s replicated node at `level`
    /// for the pair `(key, value)`, to be spliced in after `pred`.
    pub(crate) fn send_link_upper(
        &mut self,
        tower: &[Handle],
        (key, value): (Key, Value),
        level: u8,
        pred: Handle,
    ) {
        let l = usize::from(level);
        let slot = tower[l].slot();
        let down = if l > 0 { tower[l - 1] } else { Handle::NULL };
        self.sys.broadcast(|_| Task::LinkUpper {
            slot,
            key,
            level,
            value,
            pred,
            down,
        });
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
        let out = self.insert_towers(inserts, &tops, &mut towers);
        self.scratch.give_tower_handles(towers.handles);
        self.scratch.give_tower_offsets(towers.offsets);
        self.scratch.give_tops(tops);
        out
    }

    fn insert_towers(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
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
        let results = self.pivoted_search(&reqs);
        self.scratch.give_reqs(reqs);
        let results = results?;

        // Structural writes begin here: invalidate push-pull snapshots
        // before the first node lands, so even a faulted half-applied
        // batch can never be searched through the cache.
        self.bump_write_epoch();

        // ---- Allocation + vertical wiring rounds (Insert steps 1–5); each
        // new leaf starts from its search's anchor ----
        let anchor = |j: usize| {
            results
                .done
                .get(&(j as u32))
                .map_or(Handle::NULL, |d| d.anchor)
        };
        self.allocate_towers(inserts, tops, anchor, towers)?;

        // ---- Horizontal pointers: Algorithm 1 below h_low, LinkUpper
        // above ----
        self.spanned("link", |s| {
            s.link_horizontal(inserts, tops, towers, &results)
        })?;

        // Commit: the batch is structurally complete — journal each new
        // tower so recovery can re-materialise it handle for handle.
        for (j, &(key, value)) in inserts.iter().enumerate() {
            self.journal.record_insert(key, value, towers.get(j));
        }
        self.len += inserts.len() as u64;
        Ok(())
    }

    /// Construct the horizontal pointers of every new tower, then quiesce
    /// the writes. Lower levels run Algorithm 1 (Fig. 4), chaining runs of
    /// new nodes that share a `(pred, succ)` segment; an upper-level node
    /// is spliced in locally by its `LinkUpper`, behind the previous new
    /// node when the two share a predecessor — the same chaining.
    fn link_horizontal(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        towers: &Towers,
        results: &crate::batch::search::SearchResults,
    ) -> PimResult<()> {
        struct Entry {
            j: usize,
            cur: Handle,
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
            for (j, &top) in tops.iter().enumerate() {
                if top < level {
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
                    j,
                    cur: towers.get(j)[level as usize],
                    pred,
                    succ,
                    succ_key,
                });
            }
            for i in 0..a.len() {
                let left_end = i == 0 || a[i].pred != a[i - 1].pred;
                if level >= self.cfg.h_low {
                    let pred = if left_end { a[i].pred } else { a[i - 1].cur };
                    self.send_link_upper(towers.get(a[i].j), inserts[a[i].j], level, pred);
                    continue;
                }
                let (cur, key) = (a[i].cur, inserts[a[i].j].0);
                let right_end = i + 1 == a.len() || a[i].succ != a[i + 1].succ;
                if right_end {
                    self.send_write(
                        cur,
                        Task::WriteRight {
                            node: cur,
                            to: a[i].succ,
                            to_key: a[i].succ_key,
                        },
                    );
                    if a[i].succ.is_some() {
                        self.send_write(
                            a[i].succ,
                            Task::WriteLeft {
                                node: a[i].succ,
                                to: cur,
                            },
                        );
                    }
                } else {
                    let next = a[i + 1].cur;
                    self.send_write(
                        cur,
                        Task::WriteRight {
                            node: cur,
                            to: next,
                            to_key: inserts[a[i + 1].j].0,
                        },
                    );
                    self.send_write(
                        next,
                        Task::WriteLeft {
                            node: next,
                            to: cur,
                        },
                    );
                }
                if left_end {
                    self.send_write(
                        a[i].pred,
                        Task::WriteRight {
                            node: a[i].pred,
                            to: cur,
                            to_key: key,
                        },
                    );
                    self.send_write(
                        cur,
                        Task::WriteLeft {
                            node: cur,
                            to: a[i].pred,
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
        self.send_leaf_chains(towers, true);
        self.quiesce_writes("link")
    }
}
