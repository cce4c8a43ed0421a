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
//!    predecessor, where its search stepped into the lower part. In a span,
//!    2–3 wait only for every earlier job's last draw, and 4–6 for every
//!    earlier job to finish ([`Lane::settled`]). When every tower stays
//!    below `h_low`, the later jobs may start once the search has dealt its
//!    stage-2 wave, the insert's last draw, except those that touch its
//!    *gap* ([`Lane::publish`]): from its first key's anchor to its
//!    last key's anchor's right key. Stages 4–6 create and rewire nodes
//!    strictly inside the gap only, and write just the anchor's `right` and
//!    the right key's `left`, so a later job outside it reads nothing they
//!    change. They draw nothing, and allocate after every earlier Delete's
//!    frees and before every later one's;
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

use crate::batch::search::{pivoted_search, LastDraw, SearchRequest, SearchResults};
use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::op::{Op, Reply as OpReply};
use crate::recover::write_wave;
use crate::sched::Lane;
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
}

impl PimSkipList {
    /// Batched Upsert. Duplicate keys within the batch are deduplicated
    /// first-wins; returns the per-pair outcome (duplicates report the
    /// outcome of their key's canonical occurrence).
    pub fn batch_upsert(&mut self, pairs: &[(Key, Value)]) -> Vec<UpsertOutcome> {
        let op = |(key, value)| Op::Upsert { key, value };
        self.try_batch("Upsert", pairs, op, |r| match r {
            OpReply::Upserted(outcome) => Some(*outcome),
            _ => None,
        })
        .unwrap_or_else(|e| panic!("batch_upsert: {e}"))
    }

    /// Absorb the update pass's replies into one found-flag per unique
    /// key, leased from scratch.
    fn update_pass_absorb(
        &mut self,
        uniq: &[(Key, Value)],
        replies: Vec<Reply>,
    ) -> PimResult<Vec<bool>> {
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
        Ok(updated)
    }

    /// Commit the update pass's writes to the journal (the inserts are
    /// journaled by `insert_towers`) and map the outcomes back to `pairs`.
    fn upsert_outcomes(
        &mut self,
        pairs: &[(Key, Value)],
        uniq: &[(Key, Value)],
        updated: Vec<bool>,
    ) -> Vec<UpsertOutcome> {
        for (&(k, v), &u) in uniq.iter().zip(&updated) {
            if let (true, Some(value)) = (u, self.journal.get_mut(&k)) {
                *value = v;
            }
        }
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
        pairs.iter().map(|(k, _)| outcome_by_key[k]).collect()
    }

    /// Send the allocation round of `allocate_towers`: lower-part nodes
    /// to their hashed modules, leaf `j` descending from `anchor(j)`;
    /// upper-part nodes draw their replicated slots from the shadow
    /// allocator. Sizes `towers` and fills in the replicated handles.
    fn send_allocs(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        anchor: impl Fn(usize) -> Handle,
        towers: &mut Towers,
    ) {
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
    }

    /// Absorb the allocation round's replies into `towers`, then send the
    /// wiring round: the lower-part nodes' vertical pointers and the
    /// leaves' chains (Insert steps 4–5); `LinkUpper` wires the replicas.
    fn send_wiring(&mut self, replies: Vec<Reply>, towers: &mut Towers) -> PimResult<()> {
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
        for j in 0..towers.len() {
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
        Ok(())
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

    /// Send the horizontal pointers of every new tower (the link round).
    /// Lower levels run Algorithm 1 (Fig. 4), chaining runs of new nodes
    /// that share a `(pred, succ)` segment; an upper-level node is spliced
    /// in locally by its `LinkUpper`, behind the previous new node when the
    /// two share a predecessor — the same chaining.
    fn send_links(
        &mut self,
        inserts: &[(Key, Value)],
        tops: &[u8],
        towers: &Towers,
        results: &SearchResults,
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
        Ok(())
    }
}

/// Allocate and vertically wire the towers for a sorted batch of new keys
/// (Insert steps 1–5), as two waves on `lane`: lower-part nodes go to
/// their hashed modules (entering local index + local leaf list on
/// arrival, leaf `j` descending from `anchor(j)`), upper-part nodes draw
/// shadow-chosen replicated slots, which their `LinkUpper` fills in the
/// link round. Fills `towers` with the `tower[j][level]` handles. A lone
/// job's waves end at quiescence, so `bulk_load` drives this through
/// [`PimSkipList::run_one`].
pub(crate) async fn allocate_towers(
    lane: Lane<'_>,
    inserts: &[(Key, Value)],
    tops: &[u8],
    anchor: impl Fn(usize) -> Handle,
    towers: &mut Towers,
) -> PimResult<()> {
    lane.spanned("alloc", async {
        lane.with(|s| s.send_allocs(inserts, tops, anchor, towers));
        let replies = lane.wave().await;
        lane.with(|s| s.send_wiring(replies, towers))?;
        write_wave(lane, "wire").await
    })
    .await
}

/// One fault-observable attempt of [`PimSkipList::batch_upsert`], as a job.
/// The update pass (§4.1 shortcut) is one wave that shares rounds with the
/// span's other jobs. If it leaves keys that are not resident, the job's
/// coins wait for every earlier job's last draw ([`Lane::draws_settled`]),
/// and its search shares rounds with the earlier jobs as they drain; its
/// allocation, wiring and link wait until every earlier job has finished
/// ([`Lane::settled`]). The later jobs wait for it, or, when every tower
/// stays below `h_low`, only those that touch its gap, from its stage-2
/// deal on (see [`insert`]). The tower coins and the insert's deals are
/// drawn where one-run-at-a-time execution draws them. Commits to the
/// journal only when every stage completed.
pub(crate) async fn upsert_attempt(
    lane: Lane<'_>,
    pairs: &[(Key, Value)],
) -> PimResult<Vec<UpsertOutcome>> {
    lane.spanned("upsert", async {
        let staged = pairs.len() as u64 * 2;
        let uniq = lane.with(|s| {
            s.sys.shared_mem().alloc(staged);
            let mut uniq = s.scratch.take_uniq_pairs();
            let mut tags = s.scratch.take_dedup_tags();
            dedup_by_key_into(pairs, |&(k, _)| k as u64, &mut tags, &mut uniq);
            s.scratch.give_dedup_tags(tags);
            dedup_cost(pairs.len(), uniq.len()).charge(s.sys.metrics_mut());
            uniq
        });
        let out = upsert_resolve(lane, pairs, &uniq).await;
        lane.with(|s| {
            s.scratch.give_uniq_pairs(uniq);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
        });
        out
    })
    .await
}

async fn upsert_resolve(
    lane: Lane<'_>,
    pairs: &[(Key, Value)],
    uniq: &[(Key, Value)],
) -> PimResult<Vec<UpsertOutcome>> {
    let replies = lane
        .spanned("upsert/update_pass", async {
            lane.with(|s| {
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
            });
            lane.wave().await
        })
        .await;
    let updated = lane.with(|s| s.update_pass_absorb(uniq, replies))?;

    // ---- Insert set, sorted by key ----
    let inserts = lane.with(|s| {
        let mut inserts = s.scratch.take_inserts();
        inserts.extend(
            uniq.iter()
                .zip(&updated)
                .filter(|(_, &u)| !u)
                .map(|(&kv, _)| kv),
        );
        par_sort_by_key(&mut inserts, |&(k, _)| k).charge(s.sys.metrics_mut());
        inserts
    });
    let inserted = if inserts.is_empty() {
        Ok(())
    } else {
        insert(lane, &inserts).await
    };
    lane.with(|s| {
        s.scratch.give_inserts(inserts);
        match inserted {
            Ok(()) => Ok(s.upsert_outcomes(pairs, uniq, updated)),
            Err(e) => {
                s.scratch.give_flags(updated);
                Err(e)
            }
        }
    })
}

/// Insert a sorted, deduplicated, non-resident batch of pairs (see
/// [`upsert_attempt`]). When every tower stays below `h_low`, its search
/// releases the later jobs outside its gap at its stage-2 deal
/// ([`LastDraw::Release`]). Allocation, wiring and link then wait for every
/// earlier job and go out as waves on this job's lane, recorded as a lone
/// phase when no later job shares them ([`Lane::recorded`]).
async fn insert(lane: Lane<'_>, inserts: &[(Key, Value)]) -> PimResult<()> {
    lane.draws_settled().await;
    // ---- Heights (CPU-side secret coins, drawn in key order) ----
    let (tops, reqs, mut towers, last_draw) = lane.with(|s| {
        let mut tops = s.scratch.take_tops();
        tops.extend((0..inserts.len()).map(|_| s.rng.skiplist_height(s.cfg.max_level - 1)));
        let mut reqs = s.scratch.take_reqs();
        reqs.extend(
            inserts
                .iter()
                .zip(&tops)
                .enumerate()
                .map(|(j, (&(key, _), &top))| SearchRequest {
                    op: j as u32,
                    key,
                    top,
                }),
        );
        let towers = Towers {
            handles: s.scratch.take_tower_handles(),
            offsets: s.scratch.take_tower_offsets(),
        };
        let last_draw = if tops.iter().all(|&top| top < s.cfg.h_low) {
            LastDraw::Release
        } else {
            LastDraw::Drawn
        };
        (tops, reqs, towers, last_draw)
    });
    // ---- Batched Predecessor with per-level reports (§4.2) ----
    let out = match pivoted_search(lane, &reqs, last_draw).await {
        Ok(found) => {
            lane.settled().await;
            let link = insert_towers(lane, inserts, &tops, &found, &mut towers);
            if last_draw == LastDraw::Drawn || lane.is_alone() {
                lane.recorded("upsert", link).await
            } else {
                link.await
            }
        }
        Err(e) => Err(e),
    };
    lane.with(|s| {
        s.scratch.give_reqs(reqs);
        s.scratch.give_tower_handles(towers.handles);
        s.scratch.give_tower_offsets(towers.offsets);
        s.scratch.give_tops(tops);
    });
    out
}

/// Allocate, wire and link the towers of a sorted, deduplicated,
/// non-resident batch of pairs whose heights and search are done, then
/// commit them.
async fn insert_towers(
    lane: Lane<'_>,
    inserts: &[(Key, Value)],
    tops: &[u8],
    results: &SearchResults,
    towers: &mut Towers,
) -> PimResult<()> {
    // ---- Allocation + vertical wiring rounds (Insert steps 1–5); each
    // new leaf starts from its search's anchor ----
    let anchor = |j: usize| {
        results
            .done
            .get(&(j as u32))
            .map_or(Handle::NULL, |d| d.anchor)
    };
    allocate_towers(lane, inserts, tops, anchor, towers).await?;

    // ---- Horizontal pointers: Algorithm 1 below h_low, LinkUpper
    // above ----
    lane.spanned("link", async {
        lane.with(|s| s.send_links(inserts, tops, towers, results))?;
        write_wave(lane, "link").await
    })
    .await?;

    // Commit: the batch is structurally complete — journal each new pair.
    lane.with(|s| {
        s.journal.extend(inserts.iter().copied());
        s.len += inserts.len() as u64;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::{Config, Key, Value};
    use crate::list::PimSkipList;
    use crate::op::{Op, Reply};
    use crate::UpsertOutcome;

    #[test]
    fn an_insert_releases_the_later_jobs_at_its_last_draw() {
        // At P = 4 with h_low = 8, an insert of 24 fresh keys below one
        // upper leaf: its pivots form one group too large for a wave, so
        // its search deals several stage-1 waves after phase 0 before its
        // stage-2 deal. The later jobs — a Successor and a 16-key insert in
        // other gaps — start at that last deal: were the first insert
        // released earlier, the second would toss its coins between the
        // first one's deals, and its towers would differ from one run at a
        // time.
        let (p, n) = (4u32, 4096i64);
        let cfg = Config::new(p, n as u64, 0xC01E).with_h_low(8);
        let pairs: Vec<(Key, Value)> = (0..n).map(|i| (16 * i, i as u64)).collect();
        let load = || {
            let mut list = PimSkipList::new(cfg.clone());
            list.bulk_load(&pairs);
            list
        };
        let (mut list, mut one_by_one) = (load(), load());
        let upper = list.upper_leaf_keys();
        let fresh = |gap: usize, count: i64| -> Vec<Op> {
            (0..count)
                .map(|i| Op::Upsert {
                    key: upper[gap] + 16 * i + 5,
                    value: i as u64,
                })
                .collect()
        };
        assert!(upper[1] + 16 * 24 < upper[2] && upper[5] + 16 * 16 < upper[6]);
        let ops: Vec<Op> = fresh(1, 24)
            .into_iter()
            .chain([Op::Successor { key: upper[3] + 1 }])
            .chain(fresh(5, 16))
            .collect();
        let (l0, o0) = (list.metrics(), one_by_one.metrics());
        let replies = list.execute(&ops);
        let mut want = Vec::new();
        for run in [&ops[..24], &ops[24..25], &ops[25..]] {
            want.extend(one_by_one.execute(run));
        }
        assert_eq!(replies, want);
        let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
        assert_eq!((l.cpu_work, l.cpu_depth), (o.cpu_work, o.cpu_depth));
        let upper_after = list.upper_leaf_keys();
        assert!(
            ops[..24]
                .iter()
                .all(|op| !upper_after.contains(&op.bounds().0)),
            "the first insert's towers stay below h_low, so it releases"
        );
        assert_eq!(upper_after, one_by_one.upper_leaf_keys());
        assert_eq!(list.collect_items(), one_by_one.collect_items());
        list.validate().expect("valid after the span");
    }

    #[test]
    fn a_delete_beside_an_insert_keeps_their_modules_leaf_list() {
        // A fresh key x and a resident key d in the next gap, d the first
        // key after x on x's module: d is x's right neighbour in that
        // module's local leaf list. The insert releases the Delete at its
        // stage-2 deal, so d's marks take d out of the list, and redirect
        // the shortcuts naming it, before x's allocation enters x: the
        // other order from one run at a time. Contents, shortcuts and their
        // inverses must come out the same (`validate`, invariant 6).
        let (p, n) = (8u32, 2048i64);
        let pairs: Vec<(Key, Value)> = (0..n).map(|i| (4 * i, i as u64)).collect();
        let load = || {
            let mut list = PimSkipList::new(Config::new(p, n as u64, 0x1EAF));
            list.bulk_load(&pairs);
            list
        };
        let (mut list, mut one_by_one) = (load(), load());
        let upper = list.upper_leaf_keys();
        let (x, d) = upper
            .windows(3)
            .find_map(|w| {
                let x = w[0] + 2;
                let m = list.module_of(x, 0);
                let d = (x + 2..4 * n)
                    .step_by(4)
                    .find(|&k| list.module_of(k, 0) == m)?;
                (w[1] < d && d < w[2]).then_some((x, d))
            })
            .expect("a resident key in the next gap on x's module");
        let ops = [Op::Upsert { key: x, value: 7 }, Op::Delete { key: d }];
        let (l0, o0) = (list.metrics(), one_by_one.metrics());
        let replies = list.execute(&ops);
        let want: Vec<Reply> = ops
            .iter()
            .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
            .collect();
        assert_eq!(
            want,
            [
                Reply::Upserted(UpsertOutcome::Inserted),
                Reply::Deleted(true)
            ]
        );
        assert_eq!(replies, want);
        assert!(
            !list.upper_leaf_keys().contains(&x),
            "x's tower stays below h_low, so the insert released the Delete"
        );
        let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
        // The Delete alone is its mark round and its link round.
        assert!(
            l.rounds + 2 <= o.rounds,
            "the Delete marked and linked beside the insert: {} rounds against {}",
            l.rounds,
            o.rounds
        );
        assert_eq!(list.collect_items(), one_by_one.collect_items());
        list.validate().expect("valid after the span");
    }
}
