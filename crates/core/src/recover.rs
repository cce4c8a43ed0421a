//! Driver-side crash recovery: retry wrappers, shard rebuild, full restore.
//!
//! The fault model (see [`pim_runtime::FaultPlan`]) lets the machine lose
//! messages, stall modules, slow them down, or crash them cold. The driver
//! defends in three layers:
//!
//! 1. **Attempts** — every batch operation is written as a fault-observable
//!    *attempt* (`get_attempt`, `upsert_attempt`, …) that detects loss via
//!    completeness counting and [`crate::tasks::Reply::Faulted`] replies,
//!    commits to the [`crate::journal::Journal`] only on full success, and
//!    reports [`PimError::Incomplete`] otherwise. A module never applies
//!    half a splice to a damaged replica: a `LinkUpper` or `UnlinkUpper`
//!    splice whose slot or neighbours are not what the driver expects
//!    answers `Faulted` instead.
//! 2. **One retry loop** — [`PimSkipList::retry`] re-issues the failed
//!    attempts of every `try_*` entry point ([`crate::Config::max_retries`]),
//!    repairing the machine between attempts: crashed modules get their
//!    shard rebuilt ([`PimSkipList::recover_module`]); a possibly torn
//!    machine is rebuilt wholesale ([`PimSkipList::restore_all`]).
//! 3. **Plain wrappers** — the classic infallible API (`batch_get`, …)
//!    simply unwraps the `try_*` result: on a fault-free machine no error
//!    can occur, and the wrappers add *zero* metered cost, keeping
//!    execution bit-identical to the pre-fault-layer simulator.
//!
//! Recovery accounting: rounds spent on re-installs and rebuilds are
//! recorded in [`pim_runtime::Metrics::recovery_rounds`], re-issued batch
//! slots in [`pim_runtime::Metrics::retries_issued`].

use pim_runtime::{Handle, Metrics, ModuleId};

use crate::arena::{ShadowAllocator, ShadowStart};
use crate::config::{Key, Value, NEG_INF};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::module::SkipModule;
use crate::node::Node;
use crate::sched::Lane;
use crate::tasks::{Reply as ModuleReply, Task};

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
    /// values half-added): then the whole machine is restored from the
    /// journal; otherwise crashed modules are rebuilt one by one. A failure
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
            if tears && (damaged || result.is_err()) {
                self.sys.drain_crashed();
                self.restore_all()?;
            } else {
                self.repair_crashed()?;
            }
            match result {
                Ok(out) => return Ok(out),
                Err(e) if !damaged && !e.is_transient() => return Err(e),
                Err(_) => self.sys.metrics_mut().retries_issued += batch_size as u64,
            }
        }
        Err(PimError::RetriesExhausted { op, attempts })
    }

    /// Rebuild every module that crashed since the last drain.
    fn repair_crashed(&mut self) -> PimResult<()> {
        let mut crashed = self.sys.drain_crashed();
        crashed.sort_unstable();
        crashed.dedup();
        crashed.iter().try_for_each(|&m| self.recover_module(m))
    }

    /// Fault-tolerant bulk construction; see [`PimSkipList::bulk_load`].
    /// Argument errors and exhausted retries come back as typed
    /// [`PimError`]s instead of panics.
    pub fn try_bulk_load(&mut self, pairs: &[(Key, Value)]) -> PimResult<()> {
        // The journal holds the contents even while a torn machine holds none.
        if self.journal.len() > 0 {
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

    /// Rebuild one crashed module's shard in place: re-install its
    /// upper-part replicas (sentinel tower included) and its lower-part
    /// nodes from the journal's tower records — handle for handle, so every
    /// pointer held by healthy modules keeps resolving — then have the
    /// module rebuild its derived views (hash index, local leaf list,
    /// `next_leaf` shortcuts). Falls back to [`PimSkipList::restore_all`]
    /// when the recovery traffic is itself hit by faults, or under the
    /// `h_low = 0` ablation (where there is no per-module shard).
    pub(crate) fn recover_module(&mut self, module: ModuleId) -> PimResult<()> {
        if self.cfg.h_low == 0 {
            return self.restore_all();
        }
        self.spanned("recover/module", |s| {
            let before = s.sys.metrics();
            let acknowledged = s.recover_module_attempt(module);
            let rounds = s.sys.metrics().rounds - before.rounds;
            s.sys.metrics_mut().recovery_rounds += rounds;
            let crashed = s.sys.drain_crashed();
            if acknowledged && crashed.is_empty() && !s.damage_since(&before) {
                Ok(())
            } else {
                s.restore_all()
            }
        })
    }

    /// One shot of per-module recovery; returns whether the module
    /// acknowledged with [`Reply::Recovered`]. All installs and the final
    /// `RecoverLocal` ride in one inbox in order, so the rebuild of the
    /// derived views always sees the complete image — unless a fault
    /// removes part of it, which the caller detects via the metrics delta.
    fn recover_module_attempt(&mut self, module: ModuleId) -> bool {
        self.send_module_image(module);
        self.sys.send(module, Task::RecoverLocal);
        let replies = self.sys.run_to_quiescence();
        replies
            .iter()
            .any(|r| matches!(r, ModuleReply::Recovered { module: m } if *m == module))
    }

    /// Reconstruct every node image the crashed module must hold, from the
    /// journal alone, and send the installs. Per level, the live keys with
    /// towers reaching that level form the level's list in key order; the
    /// sentinel replica heads it. Replicas carry the insert-time value
    /// (updates never rewrite replicas), leaves the current one.
    fn send_module_image(&mut self, module: ModuleId) {
        let entries = self.journal.entries_sorted();
        let max_level = usize::from(self.cfg.max_level);
        self.sys.metrics_mut().charge_cpu(
            entries.len() as u64 + 1,
            pim_runtime::ceil_log2(entries.len().max(1) as u64).into(),
        );

        for level in 0..=max_level {
            let at_level: Vec<usize> = (0..entries.len())
                .filter(|&i| entries[i].1.tower.len() > level)
                .collect();

            // Sentinel replica (slot = level by convention), wired to the
            // level's first node.
            let mut s = Node::new(NEG_INF, 0, level as u8);
            if level < max_level {
                s.up = Handle::replicated(level as u32 + 1);
            }
            if level > 0 {
                s.down = Handle::replicated(level as u32 - 1);
            }
            if let Some(&first) = at_level.first() {
                s.right = entries[first].1.tower[level];
                s.right_key = entries[first].0;
            }
            self.sys.send(
                module,
                Task::InstallUpper {
                    slot: level as u32,
                    node: Box::new(s),
                },
            );

            for (pos, &i) in at_level.iter().enumerate() {
                let (key, e) = &entries[i];
                let h = e.tower[level];
                if !h.is_replicated() && h.module() != module {
                    continue; // a healthy module's node — leave it be
                }
                let value = if level == 0 {
                    e.value
                } else {
                    e.inserted_value
                };
                let mut n = Node::new(*key, value, level as u8);
                n.left = if pos == 0 {
                    Handle::replicated(level as u32)
                } else {
                    entries[at_level[pos - 1]].1.tower[level]
                };
                if let Some(&next) = at_level.get(pos + 1) {
                    n.right = entries[next].1.tower[level];
                    n.right_key = entries[next].0;
                }
                n.up = e.tower.get(level + 1).copied().unwrap_or(Handle::NULL);
                n.down = if level > 0 {
                    e.tower[level - 1]
                } else {
                    Handle::NULL
                };
                let node = Box::new(n);
                let task = if h.is_replicated() {
                    Task::InstallUpper {
                        slot: h.slot(),
                        node,
                    }
                } else {
                    let chain = if level == 0 {
                        e.tower[1..].into()
                    } else {
                        Box::default()
                    };
                    Task::InstallLower {
                        slot: h.slot(),
                        node,
                        chain,
                    }
                };
                self.sys.send(module, task);
            }
        }
    }

    /// Rebuild the whole machine from the journal: cold-reset every module,
    /// purge in-flight traffic, and bulk-load the journal's `(key, value)`
    /// snapshot (which re-towers every key — handles change, and the
    /// journal is re-written accordingly by the bulk-load attempt). Bounded
    /// by [`crate::Config::max_retries`] against faults hitting the rebuild
    /// itself; a machine it leaves half-built stays torn until the next
    /// [`PimSkipList::retry`] restores it.
    pub(crate) fn restore_all(&mut self) -> PimResult<()> {
        self.torn = true;
        self.spanned("recover/restore", |s| {
            let snapshot = s.journal.items_sorted();
            let max_retries = s.cfg.max_retries;
            for _ in 0..=max_retries {
                let before = s.sys.metrics();
                s.reset_machine();
                s.sys.metrics_mut().retries_issued += snapshot.len() as u64;
                let result = s.bulk_load_attempt(&snapshot);
                let rounds = s.sys.metrics().rounds - before.rounds;
                s.sys.metrics_mut().recovery_rounds += rounds;
                let crashed = s.sys.drain_crashed();
                if result.is_ok() && crashed.is_empty() && !s.damage_since(&before) {
                    s.torn = false;
                    return Ok(());
                }
            }
            Err(PimError::RetriesExhausted {
                op: "restore_all",
                attempts: max_retries + 1,
            })
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
