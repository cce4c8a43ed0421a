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
//! through the paper's batch algorithms with the replies of **arrival
//! order**, and returns one [`Reply`] per operation, in input order.
//!
//! Ordering semantics: every reply is the one the runs give executed one
//! at a time in input order, so an `Op::Get` never observes the effect of
//! a *later* `Op::Upsert` in the same stream, and always observes every
//! earlier one. Within a run the usual batch semantics apply (semisort
//! dedup, first-wins for duplicate keys). The runs of one call share the
//! machine's rounds as co-scheduled jobs (`crate::sched`), one *span*; only
//! an invalid run, or contention tracking, cuts the stream into several.
//! Which job waits for which is one function, `conflicts`, over each
//! unfinished job's footprint: its run, and the later jobs it holds back.
//! An Upsert, a Delete and a mutating Range start out holding all of them.
//! A Delete's links wait, on the same table, for the earlier reads its
//! removal answers; it then publishes that it holds none. An insert whose
//! towers stay below `h_low` publishes its key gap at its last draw.
//! Besides, coins wait for every earlier job's last draw, and an
//! insert's allocation, wiring and link, a Delete's frees and a mutating
//! Range wait until every earlier job has finished. So the replies, the
//! tower coins, the contraction priorities and the handles are unchanged.
//! `docs/MODEL.md` ("Co-scheduled runs") tabulates the rules per family.
//!
//! Fault surface: [`PimSkipList::try_execute`] drives every span through
//! the one retry loop of [`crate::recover`] — the per-op `batch_*` entry
//! points go through crate-private shims that build a homogeneous `&[Op]`
//! and call `try_execute`, so the fault/retry behaviour is defined exactly
//! once. A retry drives again, co-scheduled, only the jobs not yet done.
//! An error keeps every run before the failing one and nothing after it,
//! even where a later co-scheduled Update or Upsert already wrote. On a
//! durable structure every committed span — one `execute` call, unless it
//! was cut — is one WAL frame, and a crash-recovered structure equals a
//! fresh one replaying the WAL (the chaos suite proves it).

use std::ops::Range;

use pim_runtime::Handle;

use crate::batch::delete::delete_attempt;
use crate::batch::get::{get_attempt, update_attempt};
use crate::batch::search::{predecessor_attempt, successor_attempt};
use crate::batch::upsert::upsert_attempt;
use crate::batch::UpsertOutcome;
use crate::config::{Key, Value, NEG_INF, POS_INF};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::range::tree::batch_range_attempt;
use crate::range::RangeResult;
use crate::sched::{self, Job, Lane, Shared, State};
use crate::tasks::RangeFunc;

/// A span's job: its run, and the run's replies once done.
pub(crate) type SpanJob = Job<PimResult<Vec<Reply>>>;

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
    /// batch algorithm for its family, with the replies of input order
    /// (see [`PimSkipList::try_execute`] for which runs share rounds);
    /// replies land at their operation's input position.
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

    /// Fault-tolerant [`PimSkipList::execute`]: each span runs through the
    /// bounded retry loop of [`crate::recover`]. An error
    /// aborts the stream at the failing run (every earlier run is
    /// committed, nothing of the failing or later runs is).
    ///
    /// The stream executes as one *span*, cut only before and after an
    /// invalid run (which fails alone) and, with contention tracking, after
    /// every run. Each run of a span is one job of `crate::sched`, the jobs
    /// share the machine's rounds, and each family waits for what the table
    /// of `docs/MODEL.md` ("Co-scheduled runs") lists: a job starts once no
    /// earlier unfinished job's footprint conflicts with its run (`conflicts`).
    /// Each job charges exactly the CPU work, depth and staging it charges
    /// alone and draws its deals in the same number, so every insert, Delete
    /// and mutating Range starts from the same random stream as under
    /// one-run-at-a-time execution.
    pub fn try_execute(&mut self, ops: &[Op]) -> PimResult<Vec<Reply>> {
        let mut replies = Vec::with_capacity(ops.len());
        // Lemma 4.2 instrumentation spans one *search* batch; a mixed
        // stream may hold several, so phase records accumulate across the
        // runs instead of each search clobbering the last.
        let mut phases: Vec<u32> = Vec::new();
        let mut result = Ok(());
        let mut start = 0;
        while start < ops.len() && result.is_ok() {
            let end = self.span_end(ops, start);
            result = self.commit_span(&ops[start..end], &mut replies, &mut phases);
            start = end;
        }
        self.last_phase_contention = phases;
        result.map(|()| replies)
    }

    /// One typed batch family through [`PimSkipList::try_execute`]: each
    /// item becomes one `op`, and `unpack` takes its reply apart. A reply
    /// of another kind is a driver bug, and panics naming `family`.
    pub(crate) fn try_batch<I: Copy, T>(
        &mut self,
        family: &'static str,
        items: &[I],
        op: impl Fn(I) -> Op,
        unpack: impl Fn(&Reply) -> Option<T>,
    ) -> PimResult<Vec<T>> {
        let ops: Vec<Op> = items.iter().map(|&item| op(item)).collect();
        let replies = self.try_execute(&ops)?;
        Ok(replies
            .into_iter()
            .map(|r| unpack(&r).unwrap_or_else(|| unreachable!("{family} run answered {r:?}")))
            .collect())
    }

    /// End (exclusive) of the span starting at `start`: the rest of the
    /// stream, up to the run of its first invalid op; an invalid run is a
    /// span of its own. With contention tracking, whose CPU-side state
    /// every search shares, a span is one run.
    fn span_end(&self, ops: &[Op], start: usize) -> usize {
        let first = run_end(ops, start);
        if self.cfg.track_contention {
            return first;
        }
        let Some(bad) = ops[start..]
            .iter()
            .position(|op| self.check_op(op).is_err())
        else {
            return ops.len();
        };
        // Runs are maximal blocks of coalescing ops: the bad op's run starts
        // after the last op before it that does not coalesce with it.
        let bad = start + bad;
        (start..bad)
            .rev()
            .find(|&i| !ops[i].coalesces_with(&ops[bad]))
            .map_or(first, |i| i + 1)
    }

    /// Commit one span: execute it, then append its committed runs to the
    /// WAL (one frame) and telemetry, in that order.
    fn commit_span(
        &mut self,
        span: &[Op],
        replies: &mut Vec<Reply>,
        phases: &mut Vec<u32>,
    ) -> PimResult<()> {
        self.last_phase_contention.clear();
        let before = self.telemetry.is_some().then(|| self.sys.metrics());
        let first = replies.len();
        let result = self.execute_span(span, replies);
        // One reply per op: the runs that committed are the span's prefix.
        let committed = &span[..replies.len() - first];
        if !committed.is_empty() {
            if self.durable.is_some() {
                // WAL frame = committed span: replay cuts the frame into the
                // same span, so frame-by-frame recovery is the original
                // execution (see `crate::durable`).
                self.durable_record_span(committed)?;
            }
            if let (Some(t), Some(before)) = (self.telemetry.as_deref_mut(), before) {
                let mut runs = 0;
                let mut start = 0;
                while start < committed.len() {
                    let end = run_end(committed, start);
                    t.after_run(committed[start].kind(), (end - start) as u64);
                    runs += 1;
                    start = end;
                }
                t.after_span(runs, self.sys.metrics() - before);
            }
        }
        phases.append(&mut self.last_phase_contention);
        result
    }

    /// Execute one span, pushing the replies of its runs in run order; on
    /// an error, `out` holds the replies of the runs before the failing
    /// one. If the span's retries fail, every Update and Upsert job from
    /// the failing run on that started is undone: it may already have
    /// written, which one-run-at-a-time execution never does.
    fn execute_span(&mut self, span: &[Op], out: &mut Vec<Reply>) -> PimResult<()> {
        span.iter().try_for_each(|op| self.check_op(op))?;
        // One job per run (unmetered bookkeeping, like the service tier's
        // planning). A structural run starts holding every later job back
        // (see `Hold::All`), and retries through the whole-machine restore.
        let mut jobs = self.scratch.take_jobs();
        let mut start = 0;
        while start < span.len() {
            let end = run_end(span, start);
            let op = &span[start];
            let structural = op.is_write() && op.kind() != OpKind::Update;
            let hold = if structural { Hold::All } else { Hold::NONE };
            jobs.push(Job::new(start..end, hold));
            start = end;
        }
        // Each started Update or Upsert job's keys with the values the
        // journal held when it started (unmetered, like the journal itself).
        let mut undo = self.scratch.take_undo();
        let first = out.len();
        let result = self.retry("execute", span.len(), |s| {
            s.drive_span(span, &mut jobs, &mut undo)
        });
        // The runs before the first unfinished one commit.
        for job in &mut jobs {
            let State::Done(Ok(replies)) = &mut job.state else {
                break;
            };
            out.append(replies);
        }
        let result = result.or_else(|e| {
            // Latest first, so each key gets back the value the earliest
            // undone job found; the rebuild then drops every undone write.
            let cut = out.len() - first;
            let mut undone = false;
            for &(_, key, value) in undo.iter().rev().filter(|u| u.0 >= cut) {
                if let Some(journaled) = self.journal.get_mut(&key) {
                    *journaled = value;
                }
                undone = true;
            }
            if undone {
                self.restore_all()?;
            }
            Err(e)
        });
        self.scratch.give_jobs(jobs);
        self.scratch.give_undo(undo);
        result
    }

    /// One attempt of a span: drive its jobs that are not done, sharing
    /// rounds. Returns whether every job finished `Ok`, and whether the
    /// machine may be torn: a structural job started and did not finish
    /// `Ok` (a Delete's marks took index entries out, an insert or a
    /// mutating Range left links half-spliced or values half-added).
    fn drive_span(
        &mut self,
        span: &[Op],
        jobs: &mut [SpanJob],
        undo: &mut Vec<(usize, Key, Value)>,
    ) -> (PimResult<()>, bool) {
        // The phases of several jobs interleave, so they are one probe span.
        let several = jobs.len() > 1;
        if several {
            self.sys.span_enter("span");
        }
        self.sys.set_spans_muted(several);
        let staged = self.sys.shared_mem_in_use();
        // The jobs borrow the structure through `list`.
        let list = Shared::new(self, span);
        let finished = sched::drive(
            &list,
            jobs,
            |lane, run| {
                if matches!(span[run.start].kind(), OpKind::Update | OpKind::Upsert) {
                    lane.with(|s| {
                        for (key, _) in span[run.clone()].iter().map(op_pair) {
                            if let Some(&value) = s.journal.get(&key) {
                                undo.push((run.start, key, value));
                            }
                        }
                    });
                }
                run_job(lane, span, run)
            },
            Some(&|out: &PimResult<Vec<Reply>>| out.is_err()),
        );
        self.sys.set_spans_muted(false);
        if !finished {
            // The dropped jobs never reach their own frees.
            self.sys.purge_pending();
            let leaked = self.sys.shared_mem_in_use() - staged;
            self.sys.shared_mem().free(leaked);
        }
        if several {
            self.sys.span_exit();
        }
        let torn = jobs.iter().any(|job| {
            job.hold == Hold::All && matches!(job.state, State::Started | State::Done(Err(_)))
        });
        // Job errors are all transient, so one stands for any unfinished job.
        let result = match jobs
            .iter()
            .all(|job| matches!(job.state, State::Done(Ok(_))))
        {
            true => Ok(()),
            false => Err(PimError::incomplete("execute", span.len())),
        };
        (result, torn)
    }

    /// Refuse an op its batch algorithm cannot take: an inverted range, or
    /// a mutating range without a distributed lower part.
    fn check_op(&self, op: &Op) -> PimResult<()> {
        let Op::Range { lo, hi, .. } = *op else {
            return Ok(());
        };
        let reason = if lo > hi {
            format!("inverted range [{lo}, {hi}]")
        } else if op.is_write() && self.cfg.h_low == 0 {
            "mutating range functions require a distributed lower part (h_low > 0)".into()
        } else {
            return Ok(());
        };
        Err(PimError::InvalidArgument {
            op: "batch_range",
            reason,
        })
    }
}

/// One attempt of the coalescible run `span[run]`, as a job: its family's
/// batch algorithm. The run's keys/pairs/ranges are staged in leased
/// scratch buffers, so a service front-end executing batches continuously
/// reuses staging capacity instead of allocating it per dispatch.
async fn run_job(lane: Lane<'_>, span: &[Op], run: Range<usize>) -> PimResult<Vec<Reply>> {
    let run = &span[run];
    match run[0].kind() {
        OpKind::Get | OpKind::Successor | OpKind::Predecessor | OpKind::Delete => {
            let keys = lane.with(|s| {
                let mut keys = s.scratch.take_keys();
                keys.extend(run.iter().map(op_key));
                keys
            });
            let out = match run[0].kind() {
                OpKind::Get => get_attempt(lane, &keys)
                    .await
                    .map(|v| v.into_iter().map(Reply::Value).collect()),
                OpKind::Successor => successor_attempt(lane, &keys)
                    .await
                    .map(|v| v.into_iter().map(Reply::Entry).collect()),
                OpKind::Delete => delete_attempt(lane, &keys)
                    .await
                    .map(|v| v.into_iter().map(Reply::Deleted).collect()),
                _ => predecessor_attempt(lane, &keys)
                    .await
                    .map(|v| v.into_iter().map(Reply::Entry).collect()),
            };
            lane.with(|s| s.scratch.give_keys(keys));
            out
        }
        OpKind::Update | OpKind::Upsert => {
            let pairs = lane.with(|s| {
                let mut pairs = s.scratch.take_pairs();
                pairs.extend(run.iter().map(op_pair));
                pairs
            });
            let out = if run[0].kind() == OpKind::Update {
                update_attempt(lane, &pairs)
                    .await
                    .map(|v| v.into_iter().map(Reply::Updated).collect())
            } else {
                upsert_attempt(lane, &pairs)
                    .await
                    .map(|v| v.into_iter().map(Reply::Upserted).collect())
            };
            lane.with(|s| s.scratch.give_pairs(pairs));
            out
        }
        OpKind::Range => {
            let Op::Range { func, .. } = run[0] else {
                unreachable!("run starts with a Range");
            };
            let ranges = lane.with(|s| {
                let mut ranges = s.scratch.take_ranges();
                ranges.extend(run.iter().map(|op| op.bounds()));
                ranges
            });
            let out = lane
                .spanned("range_tree", async {
                    if run[0].is_write() {
                        // Its rounds are its own: every earlier job has
                        // finished, and it holds every later one back.
                        lane.settled().await;
                        let add = batch_range_attempt(lane, &ranges, func);
                        lane.recorded("range_tree", add).await
                    } else {
                        batch_range_attempt(lane, &ranges, func).await
                    }
                })
                .await;
            lane.with(|s| s.scratch.give_ranges(ranges));
            Ok(out?.into_iter().map(Reply::Range).collect())
        }
    }
}

/// The later jobs an unfinished job of a span holds back, whatever their
/// runs' conflicts with its own (see [`conflicts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    /// All of them. A structural job (an Upsert, a Delete, a mutating
    /// Range: it can change the structure's shape or draw coins) starts so.
    All,
    /// Those with an op whose [`Op::bounds`] meet this inclusive key
    /// interval; an empty one holds none.
    Keys(Key, Key),
}

impl Hold {
    /// None: what a job that is not structural holds, and what a Delete
    /// publishes once its links are written.
    pub(crate) const NONE: Hold = Hold::Keys(POS_INF, NEG_INF);
}

/// An unfinished job's entry in its drive's table (see `crate::sched`):
/// its run, and the later jobs it still holds back.
#[derive(Debug, Clone)]
pub(crate) struct Footprint {
    pub run: Range<usize>,
    pub hold: Hold,
}

/// What [`conflicts`] tests against an earlier job's footprint.
#[derive(Clone, Copy)]
pub(crate) enum Probe<'a> {
    /// A later job's run: may it start?
    Run(&'a [Op]),
    /// A Delete's removed leaves, each `(lb, key, right)`: a lower bound on
    /// the key of the leaf's left neighbour, its key and its right
    /// neighbour's. May it write its links?
    Removed(&'a [(Key, Key, Key)]),
}

/// Must `later` wait for `earlier`, an unfinished job of `span`? The one
/// conflict rule of a span's schedule:
/// - a job that holds every later job back blocks every probe;
/// - a run waits when an op of it meets the keys `earlier` holds, or when
///   either run writes a key (an Update, an Upsert's update pass, a
///   Delete's marks) that an op of the other addresses: a Get, Update,
///   Upsert or Delete of that key, or a Range containing it. Reads never
///   conflict with each other;
/// - a removal waits for an earlier Successor of `k` it answers
///   (`lb < k ≤ key`) and an earlier Predecessor of `k` it answers
///   (`key ≤ k < right`). The other ops that read `key` held the Delete
///   back from starting.
pub(crate) fn conflicts(span: &[Op], earlier: &Footprint, later: Probe<'_>) -> bool {
    let ops = &span[earlier.run.clone()];
    match (earlier.hold, later) {
        (Hold::All, _) => true,
        (Hold::Keys(lo, hi), Probe::Run(run)) => {
            let written = |op: &Op| match *op {
                Op::Update { key, .. } | Op::Upsert { key, .. } | Op::Delete { key } => Some(key),
                _ => None,
            };
            let addresses = |op: &Op, key: Key| match *op {
                Op::Get { key: k }
                | Op::Update { key: k, .. }
                | Op::Upsert { key: k, .. }
                | Op::Delete { key: k } => k == key,
                Op::Range { lo, hi, .. } => (lo..=hi).contains(&key),
                Op::Predecessor { .. } | Op::Successor { .. } => false,
            };
            let key_conflict = |a: &Op, b: &Op| {
                written(a).is_some_and(|key| addresses(b, key))
                    || written(b).is_some_and(|key| addresses(a, key))
            };
            (lo <= hi
                && run.iter().any(|op| {
                    let (a, b) = op.bounds();
                    a <= hi && lo <= b
                }))
                || ((written(&ops[0]).is_some() || written(&run[0]).is_some())
                    && ops.iter().any(|a| run.iter().any(|b| key_conflict(a, b))))
        }
        (_, Probe::Removed(removed)) => {
            matches!(ops[0], Op::Successor { .. } | Op::Predecessor { .. })
                && ops.iter().any(|op| {
                    removed.iter().any(|&(lb, key, right)| match *op {
                        Op::Successor { key: k } => lb < k && k <= key,
                        Op::Predecessor { key: k } => key <= k && k < right,
                        _ => false,
                    })
                })
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
    fn a_co_scheduled_span_is_one_probe_span() {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 9));
        list.batch_upsert(&[(1, 10), (5, 50)]);
        list.enable_probe();
        let replies = list.execute(&[
            Op::Get { key: 1 },
            Op::Successor { key: 2 },
            Op::Get { key: 5 },
        ]);
        let report = list.take_probe().expect("probe was enabled");
        assert_eq!(replies[0], Reply::Value(Some(10)));
        assert_eq!(replies[1].as_entry().flatten().map(|e| e.0), Some(5));
        assert_eq!(replies[2], Reply::Value(Some(50)));
        assert_eq!(report.spans_named("span").len(), 1);
        assert!(report.spans_named("get").is_empty());
        assert!(report.spans_named("search").is_empty());
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let mut list = PimSkipList::new(Config::new(4, 64, 9));
        let before = list.metrics();
        assert!(list.execute(&[]).is_empty());
        assert_eq!(list.metrics(), before);
    }
}
