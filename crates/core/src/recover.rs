//! Driver-side crash recovery: one retry loop, one whole-machine rebuild.
//!
//! The fault model (see [`pim_runtime::FaultPlan`]) lets the machine lose
//! messages, stall modules, slow them down, or crash them cold. The driver
//! defends in three layers:
//!
//! 1. **Attempts** — every batch operation is written as a fault-observable
//!    *attempt* (`get_attempt`, `upsert_attempt`, …) that detects loss via
//!    completeness counting and [`crate::tasks::Reply::Faulted`] replies,
//!    commits to the journal ([`PimSkipList`]'s `journal` field) only on
//!    full success, and reports [`PimError::Incomplete`] otherwise. A
//!    module never applies half a splice to a damaged replica: a
//!    `LinkUpper` or `UnlinkUpper` splice whose slot or neighbours are not
//!    what the driver expects answers `Faulted` instead.
//! 2. **One retry loop** — [`PimSkipList::retry`] re-issues the failed
//!    attempts of every `try_*` entry point ([`crate::Config::max_retries`]).
//!    Between attempts it repairs the machine one way: when a module
//!    crashed, or an attempt that may tear the machine failed or saw damage,
//!    [`PimSkipList::restore_all`] rebuilds every module from the journal.
//! 3. **Plain wrappers** — the classic infallible API (`batch_get`, …)
//!    simply unwraps the `try_*` result: on a fault-free machine no error
//!    can occur, and the wrappers add *zero* metered cost, keeping
//!    execution bit-identical to the pre-fault-layer simulator.
//!
//! Recovery accounting: rounds spent on rebuilds are recorded in
//! [`pim_runtime::Metrics::recovery_rounds`], re-issued batch slots in
//! [`pim_runtime::Metrics::retries_issued`].

use pim_runtime::Metrics;

use crate::arena::{ShadowAllocator, ShadowStart};
use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::module::SkipModule;
use crate::sched::Lane;
use crate::tasks::Reply as ModuleReply;

/// Wait for the writes `lane` sent, and check them as
/// [`PimSkipList::quiesce_writes`] does, as the phase `op`.
pub(crate) async fn write_wave(lane: Lane<'_>, op: &'static str) -> PimResult<()> {
    let before = lane.with(|s| s.sys.metrics());
    let replies = lane.wave().await;
    lane.with(|s| s.writes_landed(op, replies, &before))
}

impl PimSkipList {
    /// Did the machine record new message loss or module crashes since the
    /// snapshot `before`? (Stalls and slowdowns delay and inflate costs but
    /// lose nothing, so they do not count as damage.)
    pub(crate) fn damage_since(&self, before: &Metrics) -> bool {
        let now = self.sys.metrics();
        now.messages_dropped > before.messages_dropped || now.module_crashes > before.module_crashes
    }

    /// Run queued write-style traffic to quiescence. Healthy write tasks
    /// reply nothing, so any reply at all is a fault signal: `Faulted`
    /// means a write addressed a damaged node, anything else is a protocol
    /// violation. A write lost in these rounds is silent, so the machine's
    /// loss counters end the attempt too: the phases that follow (the link
    /// round's `LinkUpper` splices, the next chunk of a streamed build)
    /// walk through the nodes just written and must never meet a
    /// half-wired one.
    pub(crate) fn quiesce_writes(&mut self, op: &'static str) -> PimResult<()> {
        let before = self.sys.metrics();
        let replies = self.sys.run_to_quiescence();
        self.writes_landed(op, replies, &before)
    }

    /// Check the `replies` of write-style traffic that ran since `before`
    /// (see [`PimSkipList::quiesce_writes`]).
    pub(crate) fn writes_landed(
        &self,
        op: &'static str,
        replies: Vec<ModuleReply>,
        before: &Metrics,
    ) -> PimResult<()> {
        let mut faulted = 0usize;
        for r in replies {
            match r {
                ModuleReply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol(op, other)),
            }
        }
        if faulted > 0 || self.damage_since(before) {
            return Err(PimError::incomplete(op, faulted.max(1)));
        }
        Ok(())
    }

    /// The one retry loop of every fault-tolerant entry point. `attempt`
    /// returns its result and whether, had it failed or seen damage, it may
    /// have torn the machine (links half-spliced, index entries taken out,
    /// values half-added). The whole machine is restored from the journal
    /// when a module crashed during the attempt (a cold module lost its
    /// shard), or when a tearing attempt failed or saw damage. A failure
    /// with damage or a transient error is retried (see
    /// [`crate::Config::max_retries`]); a machine a failed restore left
    /// half-built is restored first.
    pub(crate) fn retry<T>(
        &mut self,
        op: &'static str,
        batch_size: usize,
        mut attempt: impl FnMut(&mut Self) -> (PimResult<T>, bool),
    ) -> PimResult<T> {
        if self.torn {
            self.restore_all()?;
        }
        let attempts = self.cfg.max_retries + 2;
        for _ in 0..attempts {
            let before = self.sys.metrics();
            let (result, tears) = attempt(self);
            let damaged = self.damage_since(&before);
            let crashed = !self.sys.drain_crashed().is_empty();
            if crashed || (tears && (damaged || result.is_err())) {
                self.restore_all()?;
            }
            match result {
                Ok(out) => return Ok(out),
                Err(e) if !damaged && !e.is_transient() => return Err(e),
                Err(_) => self.sys.metrics_mut().retries_issued += batch_size as u64,
            }
        }
        Err(PimError::RetriesExhausted { op, attempts })
    }

    /// Fault-tolerant bulk construction; see [`PimSkipList::bulk_load`].
    /// Argument errors and exhausted retries come back as typed
    /// [`PimError`]s instead of panics.
    pub fn try_bulk_load(&mut self, pairs: &[(Key, Value)]) -> PimResult<()> {
        // The journal holds the contents even while a torn machine holds none.
        if !self.journal.is_empty() {
            return Err(PimError::InvalidArgument {
                op: "bulk_load",
                reason: "bulk_load requires an empty structure".into(),
            });
        }
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(PimError::InvalidArgument {
                op: "bulk_load",
                reason: "bulk_load requires strictly ascending keys".into(),
            });
        }
        // Failed attempts never commit: restoring from the journal reverts
        // every partial effect, and a committed attempt survives it.
        self.retry("bulk_load", pairs.len(), |s| {
            (s.bulk_load_attempt(pairs), true)
        })?;
        // A bulk load is not an `Op` and cannot be WAL-replayed, so a
        // durable structure snapshots right at the boundary; recovery then
        // re-runs the identical bulk load, which also restores tier-1
        // bit-identity (see `crate::durable`).
        if self.durable.is_some() {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Rebuild the whole machine from the journal: cold-reset every module,
    /// purge in-flight traffic, and bulk-load the journal's pairs in key
    /// order (which re-towers every key: handles change). Bounded by
    /// [`crate::Config::max_retries`] against faults hitting the rebuild
    /// itself; a machine it leaves half-built stays torn until the next
    /// [`PimSkipList::retry`] restores it.
    pub(crate) fn restore_all(&mut self) -> PimResult<()> {
        self.torn = true;
        self.spanned("recover/restore", |s| {
            // The build borrows the structure, so the journal steps out of
            // it meanwhile; no build reads it.
            let journal = std::mem::take(&mut s.journal);
            let max_retries = s.cfg.max_retries;
            for _ in 0..=max_retries {
                let before = s.sys.metrics();
                s.reset_machine();
                s.sys.metrics_mut().retries_issued += journal.len() as u64;
                let result = s.build(journal.iter().map(|(&k, &v)| (k, v)));
                let rounds = s.sys.metrics().rounds - before.rounds;
                s.sys.metrics_mut().recovery_rounds += rounds;
                let crashed = s.sys.drain_crashed();
                if result.is_ok() && crashed.is_empty() && !s.damage_since(&before) {
                    s.len = journal.len() as u64;
                    s.torn = false;
                    break;
                }
            }
            s.journal = journal;
            if s.torn {
                return Err(PimError::RetriesExhausted {
                    op: "restore_all",
                    attempts: max_retries + 1,
                });
            }
            Ok(())
        })
    }

    /// Cold-reset the machine to its just-constructed state: fresh modules
    /// (sentinel towers re-materialised), no in-flight tasks, a fresh
    /// shadow allocator holding only the sentinel slots, the descent start
    /// back at `h_low`, zero length. The journal and the driver RNG are
    /// *not* reset: the journal is the recovery source, and the RNG stream
    /// continuing keeps the whole execution a deterministic function of
    /// (seed, fault plan).
    fn reset_machine(&mut self) {
        let params = self.module_params();
        self.sys.purge_pending();
        for id in 0..self.cfg.p {
            *self.sys.module_mut(id) = SkipModule::new(id, params.clone());
        }
        let mut shadow = ShadowAllocator::new();
        for _ in 0..=self.cfg.max_level {
            shadow.alloc();
        }
        self.shadow = shadow;
        self.start = ShadowStart::new(self.cfg.h_low, self.cfg.max_level);
        self.len = 0;
    }
}
