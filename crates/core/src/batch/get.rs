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
use crate::tasks::{Reply, Task};

impl PimSkipList {
    /// Batched Get: the value of each key, in input order (`None` for
    /// absent keys, which are ignored structurally as the paper specifies).
    pub fn batch_get(&mut self, keys: &[Key]) -> Vec<Option<Value>> {
        self.try_batch_get(keys)
            .unwrap_or_else(|e| panic!("batch_get: {e}"))
    }

    /// One fault-observable attempt of [`PimSkipList::batch_get`].
    pub(crate) fn get_attempt(&mut self, keys: &[Key]) -> PimResult<Vec<Option<Value>>> {
        self.spanned("get", |s| {
            let staged = keys.len() as u64 * 2;
            s.sys.shared_mem().alloc(staged);
            let out = s.get_attempt_inner(keys);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
            out
        })
    }

    fn get_attempt_inner(&mut self, keys: &[Key]) -> PimResult<Vec<Option<Value>>> {
        let mut uniq = self.scratch.take_uniq_keys();
        self.spanned("get/dedup", |s| {
            // A pipelined-staged dedup (see `crate::pipeline`) is the same
            // bytes as the inline one; the cost is charged either way, at
            // this same span point.
            if !s.staged_uniq_keys(crate::op::OpKind::Get, &mut uniq) {
                let mut tags = s.scratch.take_dedup_tags();
                dedup_by_key_into(keys, |&k| k as u64, &mut tags, &mut uniq);
                s.scratch.give_dedup_tags(tags);
            }
            dedup_cost(keys.len(), uniq.len()).charge(s.sys.metrics_mut());
        });
        let out = self.get_resolve(keys, &uniq);
        self.scratch.give_uniq_keys(uniq);
        out
    }

    fn get_resolve(&mut self, keys: &[Key], uniq: &[Key]) -> PimResult<Vec<Option<Value>>> {
        let replies = self.spanned("get/lookup", |s| {
            for (op, &key) in uniq.iter().enumerate() {
                let m = s.module_of(key, 0);
                s.sys.send(m, Task::Get { op: op as u32, key });
            }
            s.sys.run_to_quiescence()
        });

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

    /// Batched Update: write each pair's value if the key is resident;
    /// returns per-pair whether the key was found. Duplicate keys within
    /// the batch are resolved first-wins (one canonical representative per
    /// key, as the semisort-dedup of §4.1 prescribes).
    pub fn batch_update(&mut self, pairs: &[(Key, Value)]) -> Vec<bool> {
        self.try_batch_update(pairs)
            .unwrap_or_else(|e| panic!("batch_update: {e}"))
    }

    /// One fault-observable attempt of [`PimSkipList::batch_update`].
    /// Journals applied updates on success so a later crash recovery
    /// replays them.
    pub(crate) fn update_attempt(&mut self, pairs: &[(Key, Value)]) -> PimResult<Vec<bool>> {
        self.spanned("update", |s| {
            let staged = pairs.len() as u64 * 2;
            s.sys.shared_mem().alloc(staged);
            let out = s.update_attempt_inner(pairs);
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(staged);
            out
        })
    }

    fn update_attempt_inner(&mut self, pairs: &[(Key, Value)]) -> PimResult<Vec<bool>> {
        let mut uniq = self.scratch.take_uniq_pairs();
        self.spanned("update/dedup", |s| {
            if !s.staged_uniq_pairs(crate::op::OpKind::Update, &mut uniq) {
                let mut tags = s.scratch.take_dedup_tags();
                dedup_by_key_into(pairs, |&(k, _)| k as u64, &mut tags, &mut uniq);
                s.scratch.give_dedup_tags(tags);
            }
            dedup_cost(pairs.len(), uniq.len()).charge(s.sys.metrics_mut());
        });
        let out = self.update_resolve(pairs, &uniq);
        self.scratch.give_uniq_pairs(uniq);
        out
    }

    fn update_resolve(
        &mut self,
        pairs: &[(Key, Value)],
        uniq: &[(Key, Value)],
    ) -> PimResult<Vec<bool>> {
        let replies = self.spanned("update/lookup", |s| {
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
            if by_key[&k] {
                self.journal.record_update(k, v);
            }
        }
        Ok(pairs.iter().map(|(k, _)| by_key[k]).collect())
    }
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
    /// Idempotent, so lost messages or module crashes are retried through
    /// the read-side recovery loop like every other read.
    pub(crate) fn try_batch_read(
        &mut self,
        handles: &[pim_runtime::Handle],
    ) -> PimResult<Vec<(Key, Value)>> {
        if handles.is_empty() {
            return Ok(Vec::new());
        }
        self.retry_read("batch_read", handles.len(), |s| s.read_attempt(handles))
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
