//! Batched Get and Update (§4.1).
//!
//! Both operations shortcut the skip-list structure entirely: the hash
//! `(key, 0) → module` locates the module that must own the leaf, and the
//! module's local de-amortized table resolves it in O(1) whp. A parallel
//! semisort first removes duplicates — that is the entire defence against
//! the duplicate-flood adversary, and with distinct keys Lemma 2.1 gives
//! `O(log P)` IO/PIM time per batch of `P log P`.
//!
//! The public entry points are infallible wrappers around fault-observable
//! *attempts*: the `try_*` retry loops (see `crate::recover`) re-issue an
//! attempt after recovering from injected message loss or module crashes.

use std::collections::HashMap;

use pim_primitives::semisort::{dedup_by_key_into, dedup_cost};

use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::op::{Op, Reply as OpReply};
use crate::sched::Lane;
use crate::tasks::{Reply, Task};

impl PimSkipList {
    /// Batched Get: the value of each key, in input order (`None` for
    /// absent keys, which are ignored structurally as the paper specifies).
    pub fn batch_get(&mut self, keys: &[Key]) -> Vec<Option<Value>> {
        self.try_batch(
            "Get",
            keys,
            |key| Op::Get { key },
            |r| match r {
                OpReply::Value(v) => Some(*v),
                _ => None,
            },
        )
        .unwrap_or_else(|e| panic!("batch_get: {e}"))
    }

    /// Batched Update: write each pair's value if the key is resident;
    /// returns per-pair whether the key was found. Duplicate keys within
    /// the batch are resolved first-wins (one canonical representative per
    /// key, as the semisort-dedup of §4.1 prescribes).
    pub fn batch_update(&mut self, pairs: &[(Key, Value)]) -> Vec<bool> {
        let op = |(key, value)| Op::Update { key, value };
        self.try_batch("Update", pairs, op, |r| match r {
            OpReply::Updated(found) => Some(*found),
            _ => None,
        })
        .unwrap_or_else(|e| panic!("batch_update: {e}"))
    }

    fn get_absorb(
        &mut self,
        keys: &[Key],
        uniq: &[Key],
        replies: Vec<Reply>,
    ) -> PimResult<Vec<Option<Value>>> {
        let mut faulted = 0usize;
        let mut by_key: HashMap<Key, Option<Value>> = HashMap::with_capacity(uniq.len());
        for r in replies {
            match r {
                Reply::GotValue { op, value } => {
                    let k = *uniq
                        .get(op as usize)
                        .ok_or_else(|| PimError::protocol("batch_get", op))?;
                    by_key.insert(k, value);
                }
                Reply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol("batch_get", other)),
            }
        }
        self.sys.metrics_mut().charge_cpu(
            keys.len() as u64,
            pim_runtime::ceil_log2(keys.len().max(1) as u64).into(),
        );
        if faulted > 0 || by_key.len() < uniq.len() {
            return Err(PimError::incomplete(
                "batch_get",
                faulted + (uniq.len() - by_key.len()),
            ));
        }
        Ok(keys.iter().map(|k| by_key[k]).collect())
    }

    fn update_absorb(
        &mut self,
        pairs: &[(Key, Value)],
        uniq: &[(Key, Value)],
        replies: Vec<Reply>,
    ) -> PimResult<Vec<bool>> {
        let mut faulted = 0usize;
        let mut by_key: HashMap<Key, bool> = HashMap::with_capacity(uniq.len());
        for r in replies {
            match r {
                Reply::Updated { op, found } => {
                    let k = uniq
                        .get(op as usize)
                        .ok_or_else(|| PimError::protocol("batch_update", op))?
                        .0;
                    by_key.insert(k, found);
                }
                Reply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol("batch_update", other)),
            }
        }
        self.sys.metrics_mut().charge_cpu(
            pairs.len() as u64,
            pim_runtime::ceil_log2(pairs.len().max(1) as u64).into(),
        );
        if faulted > 0 || by_key.len() < uniq.len() {
            return Err(PimError::incomplete(
                "batch_update",
                faulted + (uniq.len() - by_key.len()),
            ));
        }
        // Commit to the journal: these writes are now part of the logical
        // contents and any subsequent recovery must reproduce them.
        for &(k, v) in uniq {
            if let (true, Some(value)) = (by_key[&k], self.journal.get_mut(&k)) {
                *value = v;
            }
        }
        Ok(pairs.iter().map(|(k, _)| by_key[k]).collect())
    }
}

/// One fault-observable attempt of [`PimSkipList::batch_get`]: semisort
/// dedup, one lookup wave to the keys' hash-owning modules.
pub(crate) async fn get_attempt(lane: Lane<'_>, keys: &[Key]) -> PimResult<Vec<Option<Value>>> {
    lane.drawn();
    lane.spanned("get", async {
        let staged = keys.len() as u64 * 2;
        let uniq = lane.with(|s| {
            s.sys.shared_mem().alloc(staged);
            let mut uniq = s.scratch.take_uniq_keys();
            s.spanned("get/dedup", |s| {
                let mut tags = s.scratch.take_dedup_tags();
                dedup_by_key_into(keys, |&k| k as u64, &mut tags, &mut uniq);
                s.scratch.give_dedup_tags(tags);
                dedup_cost(keys.len(), uniq.len()).charge(s.sys.metrics_mut());
            });
            uniq
        });
        let replies = lane
            .spanned("get/lookup", async {
                lane.with(|s| {
                    for (op, &key) in uniq.iter().enumerate() {
                        let m = s.module_of(key, 0);
                        s.sys.send(m, Task::Get { op: op as u32, key });
                    }
                });
                lane.wave().await
            })
            .await;
        lane.with(|s| {
            let out = s.get_absorb(keys, &uniq, replies);
            s.scratch.give_uniq_keys(uniq);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
            out
        })
    })
    .await
}

/// One fault-observable attempt of [`PimSkipList::batch_update`]. Journals
/// applied updates on success so a later crash recovery replays them.
pub(crate) async fn update_attempt(lane: Lane<'_>, pairs: &[(Key, Value)]) -> PimResult<Vec<bool>> {
    lane.drawn();
    lane.spanned("update", async {
        let staged = pairs.len() as u64 * 2;
        let uniq = lane.with(|s| {
            s.sys.shared_mem().alloc(staged);
            let mut uniq = s.scratch.take_uniq_pairs();
            s.spanned("update/dedup", |s| {
                let mut tags = s.scratch.take_dedup_tags();
                dedup_by_key_into(pairs, |&(k, _)| k as u64, &mut tags, &mut uniq);
                s.scratch.give_dedup_tags(tags);
                dedup_cost(pairs.len(), uniq.len()).charge(s.sys.metrics_mut());
            });
            uniq
        });
        let replies = lane
            .spanned("update/lookup", async {
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
        lane.with(|s| {
            let out = s.update_absorb(pairs, &uniq, replies);
            s.scratch.give_uniq_pairs(uniq);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
            out
        })
    })
    .await
}

impl PimSkipList {
    /// Dereference a batch of node handles (e.g. the pointers carried by
    /// [`crate::Reply::Entry`] answers from [`PimSkipList::batch_successor`]):
    /// one message to each owning module, `(key, value)` back — `O(1)`
    /// messages and PIM work per handle, PIM-balanced whenever the handles
    /// are (they were placed by the secret hash).
    /// Handles must be non-null and live (e.g. just returned by a search
    /// in the same quiescent period); dereferencing a stale or null handle
    /// panics, as any wild `RemoteRead` on the machine would.
    pub fn batch_read(&mut self, handles: &[pim_runtime::Handle]) -> Vec<(Key, Value)> {
        self.try_batch_read(handles)
            .unwrap_or_else(|e| panic!("batch_read: {e}"))
    }

    /// Fault-tolerant handle dereference; see [`PimSkipList::batch_read`].
    /// Idempotent, so it never tears the machine: a retry follows per-module
    /// repair only.
    pub(crate) fn try_batch_read(
        &mut self,
        handles: &[pim_runtime::Handle],
    ) -> PimResult<Vec<(Key, Value)>> {
        if handles.is_empty() {
            return Ok(Vec::new());
        }
        self.retry("batch_read", handles.len(), |s| {
            (s.read_attempt(handles), false)
        })
    }

    /// One fault-observable attempt of [`PimSkipList::batch_read`].
    pub(crate) fn read_attempt(
        &mut self,
        handles: &[pim_runtime::Handle],
    ) -> PimResult<Vec<(Key, Value)>> {
        self.spanned("read", |s| {
            let mut deal = s.deal();
            for (op, &h) in handles.iter().enumerate() {
                assert!(h.is_some(), "batch_read: null handle at position {op}");
                let target = if h.is_replicated() {
                    deal.next()
                } else {
                    h.module()
                };
                s.sys.send(
                    target,
                    Task::ReadNode {
                        op: op as u32,
                        node: h,
                    },
                );
            }
            let replies = s.sys.run_to_quiescence();
            let mut out = vec![None; handles.len()];
            let mut faulted = 0usize;
            for r in replies {
                match r {
                    Reply::NodeValue { op, key, value } => {
                        let slot = out
                            .get_mut(op as usize)
                            .ok_or_else(|| PimError::protocol("batch_read", op))?;
                        *slot = Some((key, value));
                    }
                    Reply::Faulted { .. } => faulted += 1,
                    other => return Err(PimError::protocol("batch_read", other)),
                }
            }
            if faulted > 0 || out.iter().any(Option::is_none) {
                let missing = out.iter().filter(|o| o.is_none()).count();
                return Err(PimError::incomplete("batch_read", faulted + missing));
            }
            Ok(out.into_iter().map(Option::unwrap).collect())
        })
    }
}
