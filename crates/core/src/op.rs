//! The unified typed operation API: [`Op`], [`Reply`], and
//! [`PimSkipList::execute`].
//!
//! The paper's interface is a family of *homogeneous* batch operations
//! (one `batch_get`, one `batch_upsert`, …). Real front-ends — the
//! `pim-service` request scheduler above this crate — see an open stream
//! of *mixed* point and range requests. This module is the bridge: a
//! single entry point that accepts an interleaved `&[Op]`, splits it into
//! maximal *model-legal runs* (consecutive operations of the same type,
//! ranges additionally sharing their [`RangeFunc`]), executes each run
//! through the paper's batch algorithms **in arrival order**, and returns
//! one [`Reply`] per operation, in input order.
//!
//! Ordering semantics: runs execute in input order, so an `Op::Get` never
//! observes the effect of a *later* `Op::Upsert` in the same stream, and
//! always observes every earlier one. Within a run the usual batch
//! semantics apply (semisort dedup, first-wins for duplicate keys).
//!
//! Fault surface: [`PimSkipList::try_execute`] is where the bounded
//! retry/recovery loops of [`crate::recover`] are invoked — the per-op
//! `batch_*` entry points go through crate-private shims that build a
//! homogeneous `&[Op]` and call `try_execute`, so the fault/retry
//! behaviour is defined exactly once. On a durable structure every
//! committed run is one WAL frame, and a crash-recovered structure equals
//! a fresh one replaying the WAL (the chaos suite proves it).

use pim_runtime::Handle;

use crate::batch::UpsertOutcome;
use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::range::RangeResult;
use crate::tasks::RangeFunc;

/// One typed request against the structure — the service-layer currency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read: the value of `key`, if resident.
    Get {
        /// Key to fetch.
        key: Key,
    },
    /// In-place write: set `key`'s value if resident (never inserts).
    Update {
        /// Key to update.
        key: Key,
        /// New value.
        value: Value,
    },
    /// Insert-or-update.
    Upsert {
        /// Key to upsert.
        key: Key,
        /// Value to store.
        value: Value,
    },
    /// Remove `key` if resident.
    Delete {
        /// Key to delete.
        key: Key,
    },
    /// Largest resident key `≤ key`.
    Predecessor {
        /// Query key.
        key: Key,
    },
    /// Smallest resident key `≥ key`.
    Successor {
        /// Query key.
        key: Key,
    },
    /// Apply `func` to every resident pair in `[lo, hi]` (inclusive).
    Range {
        /// Inclusive lower bound.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Function to apply.
        func: RangeFunc,
    },
}

/// The operation families of [`Op`] (used for grouping and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// [`Op::Get`].
    Get,
    /// [`Op::Update`].
    Update,
    /// [`Op::Upsert`].
    Upsert,
    /// [`Op::Delete`].
    Delete,
    /// [`Op::Predecessor`].
    Predecessor,
    /// [`Op::Successor`].
    Successor,
    /// [`Op::Range`].
    Range,
}

impl Op {
    /// The operation's family.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Get { .. } => OpKind::Get,
            Op::Update { .. } => OpKind::Update,
            Op::Upsert { .. } => OpKind::Upsert,
            Op::Delete { .. } => OpKind::Delete,
            Op::Predecessor { .. } => OpKind::Predecessor,
            Op::Successor { .. } => OpKind::Successor,
            Op::Range { .. } => OpKind::Range,
        }
    }

    /// Does this operation mutate the structure? (`Update` rewrites a
    /// value in place; `Range` mutates only for `FetchAdd`/`AddInPlace`.)
    pub fn is_write(&self) -> bool {
        match self {
            Op::Get { .. } | Op::Predecessor { .. } | Op::Successor { .. } => false,
            Op::Update { .. } | Op::Upsert { .. } | Op::Delete { .. } => true,
            Op::Range { func, .. } => {
                matches!(func, RangeFunc::FetchAdd(_) | RangeFunc::AddInPlace(_))
            }
        }
    }

    /// The point key the operation addresses (`None` for [`Op::Range`],
    /// which addresses an interval — see [`Op::bounds`]).
    pub fn key(&self) -> Option<Key> {
        match *self {
            Op::Get { key }
            | Op::Update { key, .. }
            | Op::Upsert { key, .. }
            | Op::Delete { key }
            | Op::Predecessor { key }
            | Op::Successor { key } => Some(key),
            Op::Range { .. } => None,
        }
    }

    /// The inclusive key interval the operation addresses: `(k, k)` for
    /// point operations, `(lo, hi)` for ranges. Routers (the cluster
    /// tier) partition on this.
    pub fn bounds(&self) -> (Key, Key) {
        match *self {
            Op::Range { lo, hi, .. } => (lo, hi),
            _ => {
                let k = self.key().expect("point op has a key");
                (k, k)
            }
        }
    }

    /// Can `self` and `other` ride in the same model-legal batch? Same
    /// family, and for ranges the same function (the model's batches apply
    /// one function to every range).
    pub fn coalesces_with(&self, other: &Op) -> bool {
        match (self, other) {
            (Op::Range { func: a, .. }, Op::Range { func: b, .. }) => a == b,
            _ => self.kind() == other.kind(),
        }
    }
}

/// One typed answer, positionally matching the submitted [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Answer to [`Op::Get`]: the value, if the key was resident.
    Value(Option<Value>),
    /// Answer to [`Op::Update`]: whether the key was resident.
    Updated(bool),
    /// Answer to [`Op::Upsert`].
    Upserted(UpsertOutcome),
    /// Answer to [`Op::Delete`]: whether the key was resident.
    Deleted(bool),
    /// Answer to [`Op::Predecessor`]/[`Op::Successor`]: the matching
    /// resident entry's key and node handle (`None` past the ends). The
    /// handle can be dereferenced with [`PimSkipList::batch_read`] while
    /// the structure is quiescent.
    Entry(Option<(Key, Handle)>),
    /// Answer to [`Op::Range`].
    Range(RangeResult),
}

impl Reply {
    /// The value carried by a [`Reply::Value`] (`None` otherwise).
    pub fn as_value(&self) -> Option<Option<Value>> {
        match self {
            Reply::Value(v) => Some(*v),
            _ => None,
        }
    }

    /// The entry carried by a [`Reply::Entry`] (`None` otherwise).
    pub fn as_entry(&self) -> Option<Option<(Key, Handle)>> {
        match self {
            Reply::Entry(e) => Some(*e),
            _ => None,
        }
    }
}

impl PimSkipList {
    /// Execute an interleaved stream of typed operations, returning one
    /// [`Reply`] per operation in input order — the single public entry
    /// point the batch family is defined over.
    ///
    /// The stream is split into maximal coalescible runs (see
    /// [`Op::coalesces_with`]) and each run executes through the paper's
    /// batch algorithm for its family, in input order; replies land at
    /// their operation's input position.
    ///
    /// ```
    /// use pim_core::{Config, Op, PimSkipList, Reply, UpsertOutcome};
    ///
    /// let mut list = PimSkipList::new(Config::new(4, 1 << 10, 42));
    /// let replies = list.execute(&[
    ///     Op::Upsert { key: 10, value: 100 },
    ///     Op::Upsert { key: 20, value: 200 },
    ///     Op::Get { key: 10 },
    ///     Op::Delete { key: 20 },
    ///     Op::Get { key: 20 },
    /// ]);
    /// assert_eq!(replies[0], Reply::Upserted(UpsertOutcome::Inserted));
    /// assert_eq!(replies[2], Reply::Value(Some(100)));
    /// assert_eq!(replies[3], Reply::Deleted(true));
    /// assert_eq!(replies[4], Reply::Value(None));
    /// ```
    pub fn execute(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.try_execute(ops)
            .unwrap_or_else(|e| panic!("execute: {e}"))
    }

    /// Fault-tolerant [`PimSkipList::execute`]: the one place the bounded
    /// retry/recovery loops of [`crate::recover`] are engaged. Runs retry
    /// independently; an error aborts the stream at the failing run (every
    /// earlier run is committed, nothing of the failing or later runs is).
    pub fn try_execute(&mut self, ops: &[Op]) -> PimResult<Vec<Reply>> {
        let mut replies = Vec::with_capacity(ops.len());
        // Lemma 4.2 instrumentation spans one *search* batch; a mixed
        // stream may hold several, so phase records accumulate across the
        // runs instead of each search clobbering the last.
        let mut phases: Vec<u32> = Vec::new();
        let mut result = Ok(());
        let mut start = 0;
        while start < ops.len() && result.is_ok() {
            let end = run_end(ops, start);
            result = self.commit_run(&ops[start..end], &mut replies, &mut phases);
            start = end;
        }
        self.last_phase_contention = phases;
        result.map(|()| replies)
    }

    /// Commit one coalescible run: execute it with its family's retry
    /// discipline, then append to the WAL and telemetry in that order.
    fn commit_run(
        &mut self,
        run: &[Op],
        replies: &mut Vec<Reply>,
        phases: &mut Vec<u32>,
    ) -> PimResult<()> {
        self.last_phase_contention.clear();
        let before = if self.telemetry.is_some() {
            Some(self.sys.metrics())
        } else {
            None
        };
        let out = self.execute_run(run)?;
        debug_assert_eq!(out.len(), run.len());
        if self.durable.is_some() {
            // WAL frame = committed run: replay splits the stream into
            // the same runs, so frame-by-frame recovery is the original
            // execution (see `crate::durable`).
            self.durable_record_run(run)?;
        }
        if let (Some(t), Some(before)) = (self.telemetry.as_deref_mut(), before) {
            t.after_run(run[0].kind(), run.len() as u64, self.sys.metrics() - before);
        }
        phases.append(&mut self.last_phase_contention);
        replies.extend(out);
        Ok(())
    }

    /// Execute one coalescible run through its family's batch algorithm,
    /// with the family's retry discipline (idempotent reads re-issue after
    /// per-module recovery; structural writes restore from the journal).
    fn execute_run(&mut self, run: &[Op]) -> PimResult<Vec<Reply>> {
        // The run's keys/pairs/ranges are staged in leased scratch buffers
        // (returned before the `?` propagates), so a service front-end
        // executing batches continuously reuses staging capacity instead
        // of allocating it per dispatch.
        match run[0].kind() {
            OpKind::Get => {
                let mut keys = self.scratch.take_keys();
                keys.extend(run.iter().map(op_key));
                let out = self.retry_read("batch_get", keys.len(), |s| s.get_attempt(&keys));
                self.scratch.give_keys(keys);
                Ok(out?.into_iter().map(Reply::Value).collect())
            }
            OpKind::Update => {
                let mut pairs = self.scratch.take_pairs();
                pairs.extend(run.iter().map(op_pair));
                let out =
                    self.retry_read("batch_update", pairs.len(), |s| s.update_attempt(&pairs));
                self.scratch.give_pairs(pairs);
                Ok(out?.into_iter().map(Reply::Updated).collect())
            }
            OpKind::Upsert => {
                let mut pairs = self.scratch.take_pairs();
                pairs.extend(run.iter().map(op_pair));
                let out = self
                    .retry_structural("batch_upsert", pairs.len(), |s| s.upsert_attempt(&pairs));
                self.scratch.give_pairs(pairs);
                Ok(out?.into_iter().map(Reply::Upserted).collect())
            }
            OpKind::Delete => {
                let mut keys = self.scratch.take_keys();
                keys.extend(run.iter().map(op_key));
                let out =
                    self.retry_structural("batch_delete", keys.len(), |s| s.delete_attempt(&keys));
                self.scratch.give_keys(keys);
                Ok(out?.into_iter().map(Reply::Deleted).collect())
            }
            OpKind::Predecessor => {
                let mut keys = self.scratch.take_keys();
                keys.extend(run.iter().map(op_key));
                let out = self.retry_read("batch_predecessor", keys.len(), |s| {
                    s.predecessor_attempt(&keys)
                });
                self.scratch.give_keys(keys);
                Ok(out?.into_iter().map(Reply::Entry).collect())
            }
            OpKind::Successor => {
                let mut keys = self.scratch.take_keys();
                keys.extend(run.iter().map(op_key));
                let out = self.retry_read("batch_successor", keys.len(), |s| {
                    s.successor_attempt(&keys)
                });
                self.scratch.give_keys(keys);
                Ok(out?.into_iter().map(Reply::Entry).collect())
            }
            OpKind::Range => {
                let func = match run[0] {
                    Op::Range { func, .. } => func,
                    _ => unreachable!("run starts with a Range"),
                };
                let mut ranges = self.scratch.take_ranges();
                for op in run {
                    let Op::Range { lo, hi, .. } = *op else {
                        unreachable!("mixed run");
                    };
                    if lo > hi {
                        self.scratch.give_ranges(ranges);
                        return Err(PimError::InvalidArgument {
                            op: "batch_range",
                            reason: format!("inverted range [{lo}, {hi}]"),
                        });
                    }
                    ranges.push((lo, hi));
                }
                let mutating = matches!(func, RangeFunc::FetchAdd(_) | RangeFunc::AddInPlace(_));
                if mutating && self.cfg.h_low == 0 {
                    self.scratch.give_ranges(ranges);
                    return Err(PimError::InvalidArgument {
                        op: "batch_range",
                        reason:
                            "mutating range functions require a distributed lower part (h_low > 0)"
                                .into(),
                    });
                }
                let out = if mutating {
                    self.retry_structural("batch_range", ranges.len(), |s| {
                        s.batch_range_attempt(&ranges, func)
                    })
                } else {
                    self.retry_read("batch_range", ranges.len(), |s| {
                        s.batch_range_attempt(&ranges, func)
                    })
                };
                self.scratch.give_ranges(ranges);
                Ok(out?.into_iter().map(Reply::Range).collect())
            }
        }
    }
}

/// End (exclusive) of the maximal coalescible run starting at `start`.
/// Public so layered executors (the cluster router) split a stream into
/// *exactly* the runs this machine would — reply identity across tiers
/// depends on the two split points never drifting apart.
pub fn run_end(ops: &[Op], start: usize) -> usize {
    let mut end = start + 1;
    while end < ops.len() && ops[end].coalesces_with(&ops[start]) {
        end += 1;
    }
    end
}

fn op_key(op: &Op) -> Key {
    match *op {
        Op::Get { key } | Op::Delete { key } | Op::Predecessor { key } | Op::Successor { key } => {
            key
        }
        _ => unreachable!("key-only extraction on {op:?}"),
    }
}

fn op_pair(op: &Op) -> (Key, Value) {
    match *op {
        Op::Update { key, value } | Op::Upsert { key, value } => (key, value),
        _ => unreachable!("pair extraction on {op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    #[test]
    fn kinds_and_write_classification() {
        assert_eq!(Op::Get { key: 1 }.kind(), OpKind::Get);
        assert!(!Op::Get { key: 1 }.is_write());
        assert!(Op::Update { key: 1, value: 2 }.is_write());
        assert!(Op::Upsert { key: 1, value: 2 }.is_write());
        assert!(Op::Delete { key: 1 }.is_write());
        assert!(!Op::Predecessor { key: 1 }.is_write());
        assert!(!Op::Successor { key: 1 }.is_write());
        assert!(!Op::Range {
            lo: 0,
            hi: 9,
            func: RangeFunc::Sum
        }
        .is_write());
        assert!(Op::Range {
            lo: 0,
            hi: 9,
            func: RangeFunc::AddInPlace(1)
        }
        .is_write());
    }

    #[test]
    fn ranges_coalesce_only_on_equal_func() {
        let a = Op::Range {
            lo: 0,
            hi: 5,
            func: RangeFunc::FetchAdd(1),
        };
        let b = Op::Range {
            lo: 2,
            hi: 9,
            func: RangeFunc::FetchAdd(1),
        };
        let c = Op::Range {
            lo: 2,
            hi: 9,
            func: RangeFunc::FetchAdd(2),
        };
        assert!(a.coalesces_with(&b));
        assert!(!a.coalesces_with(&c));
        assert!(!a.coalesces_with(&Op::Get { key: 1 }));
        assert!(Op::Get { key: 1 }.coalesces_with(&Op::Get { key: 2 }));
        assert!(!Op::Get { key: 1 }.coalesces_with(&Op::Delete { key: 1 }));
    }

    #[test]
    fn mixed_stream_respects_arrival_order() {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 7));
        let replies = list.execute(&[
            Op::Upsert { key: 5, value: 50 },
            Op::Get { key: 5 },
            Op::Update { key: 5, value: 51 },
            Op::Get { key: 5 },
            Op::Delete { key: 5 },
            Op::Get { key: 5 },
            Op::Successor { key: 1 },
        ]);
        assert_eq!(replies[0], Reply::Upserted(UpsertOutcome::Inserted));
        assert_eq!(replies[1], Reply::Value(Some(50)));
        assert_eq!(replies[2], Reply::Updated(true));
        assert_eq!(replies[3], Reply::Value(Some(51)));
        assert_eq!(replies[4], Reply::Deleted(true));
        assert_eq!(replies[5], Reply::Value(None));
        assert_eq!(replies[6], Reply::Entry(None));
    }

    #[test]
    fn range_runs_split_by_func() {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 8));
        list.batch_upsert(&[(1, 10), (2, 20), (3, 30)]);
        let replies = list.execute(&[
            Op::Range {
                lo: 1,
                hi: 3,
                func: RangeFunc::Sum,
            },
            Op::Range {
                lo: 1,
                hi: 2,
                func: RangeFunc::Count,
            },
        ]);
        let Reply::Range(sum) = &replies[0] else {
            panic!("expected range reply");
        };
        assert_eq!(sum.sum, 60);
        let Reply::Range(count) = &replies[1] else {
            panic!("expected range reply");
        };
        assert_eq!(count.count, 2);
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let mut list = PimSkipList::new(Config::new(4, 64, 9));
        let before = list.metrics();
        assert!(list.execute(&[]).is_empty());
        assert_eq!(list.metrics(), before);
    }
}
