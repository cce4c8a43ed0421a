//! The PIM machine: `P` modules + bulk-synchronous network + metrics.
//!
//! [`PimSystem`] drives the network in rounds (§2.1): between barriers, a set
//! of parallel messages — each a constant number of words — moves between the
//! CPU side and the PIM side. Message accounting per round and module:
//!
//! * every task *delivered* to a module this round counts as one message
//!   into it;
//! * every [`reply`](crate::module::ModuleCtx::reply) counts as one message
//!   out of it;
//! * every cross-module [`send`](crate::module::ModuleCtx::send) counts as
//!   one message out of the sender this round (PIM → CPU leg) and one
//!   message into the receiver next round (CPU → PIM leg), exactly the
//!   model's "offload via shared memory" route.
//!
//! The round's `h` is the max per-module total; IO time is `Σ h` (see
//! [`Metrics`]). Modules execute their queues in parallel on the
//! [`crate::pool`] executor (workers claim contiguous module ranges; the
//! per-module outputs are merged back in module-id order) — the simulation
//! stays deterministic because messages are only visible at the next
//! barrier and per-receiver delivery order is fixed (CPU sends first, then
//! forwarded sends in sender-id order). `PIM_THREADS` changes only the
//! wall-clock time of a round, never its metrics, replies or traces.

use crate::buffers::RouteBuffer;
use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRecord};
use crate::handle::ModuleId;
use crate::metrics::{Metrics, SharedMem};
use crate::module::{ModuleCtx, PimModule};
use crate::span::{Probe, ProbeReport};
use crate::trace::{RoundTrace, Trace};

/// The simulated PIM machine.
pub struct PimSystem<M: PimModule> {
    modules: Vec<M>,
    /// Tasks queued for delivery at the next round, per receiving module.
    inboxes: Vec<Vec<M::Task>>,
    /// Last round's drained inboxes, capacity retained: swapped with
    /// `inboxes` at every round start so delivery buffers are recycled
    /// instead of rebuilt (the steady-state allocation contract — see
    /// `docs/MODEL.md` and [`crate::buffers`]).
    spare_inboxes: Vec<Vec<M::Task>>,
    /// Persistent per-module round outputs: drained at the barrier,
    /// capacity retained across rounds.
    outs: Vec<RoundOut<M::Task, M::Reply>>,
    /// Two-pass bucketed routing scratch (counts retained across rounds).
    route: RouteBuffer,
    metrics: Metrics,
    shared_mem: SharedMem,
    trace: Option<Trace>,
    /// Span-attribution probe, if enabled (`None` costs one branch per
    /// span call and nothing per round).
    probe: Option<Probe>,
    /// Installed fault schedule, if any (`None` is the fault-free machine,
    /// with zero per-round overhead).
    injector: Option<FaultInjector>,
    /// Modules that crashed since the last [`PimSystem::drain_crashed`].
    crashed: Vec<ModuleId>,
}

/// Per-module output of one round. One lives per module for the lifetime
/// of the machine; the executor writes it in place (index-ordered, so no
/// merge step exists) and the barrier drains it back to empty.
struct RoundOut<T, R> {
    sends: Vec<(ModuleId, T)>,
    replies: Vec<R>,
    work: u64,
    delivered: u64,
}

impl<T, R> RoundOut<T, R> {
    fn new() -> Self {
        RoundOut {
            sends: Vec::new(),
            replies: Vec::new(),
            work: 0,
            delivered: 0,
        }
    }
}

/// State carried from the route-commit point to the execute-commit point
/// of one round (see [`PimSystem::run_round`]). Both fault vectors are
/// empty on the fault-free machine, so carrying the stage allocates
/// nothing in steady state.
struct RoundStage {
    round: u64,
    round_faults: Vec<(ModuleId, FaultKind)>,
    post_faults: Vec<(ModuleId, FaultKind)>,
    delivered_total: usize,
}

impl<M: PimModule> PimSystem<M> {
    /// Build a machine of `p` modules, constructing each from its id.
    pub fn new(p: u32, mut make: impl FnMut(ModuleId) -> M) -> Self {
        assert!(p > 0, "a PIM machine needs at least one module");
        let modules: Vec<M> = (0..p).map(&mut make).collect();
        PimSystem {
            inboxes: (0..p).map(|_| Vec::new()).collect(),
            spare_inboxes: (0..p).map(|_| Vec::new()).collect(),
            outs: (0..p).map(|_| RoundOut::new()).collect(),
            route: RouteBuffer::new(),
            modules,
            metrics: Metrics::new(),
            shared_mem: SharedMem::new(),
            trace: None,
            probe: None,
            injector: None,
            crashed: Vec::new(),
        }
    }

    /// Install a fault schedule; rounds from now on apply its events as
    /// they come due (round indices in the plan are absolute, i.e.
    /// compared against `metrics().rounds`). An empty plan removes the
    /// injector entirely, restoring the exact fault-free execution.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// Modules that crashed since the last call (driver-side recovery
    /// polls this at its barriers), in crash order.
    pub fn drain_crashed(&mut self) -> Vec<ModuleId> {
        std::mem::take(&mut self.crashed)
    }

    /// Drop every queued task (used by whole-structure recovery: after
    /// rebuilding all modules from the journal, in-flight traffic that
    /// addressed the old state must not be delivered).
    pub fn purge_pending(&mut self) {
        for q in &mut self.inboxes {
            q.clear();
        }
    }

    /// Start recording one [`RoundTrace`] per round (experiment
    /// instrumentation; adds O(P) bookkeeping per round).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::default());
        }
    }

    /// Like [`PimSystem::enable_tracing`] but keeping only the `cap`
    /// most-recent rounds (ring buffer); evictions are counted in
    /// [`Trace::dropped_rounds`] so exports can state truncation.
    pub fn enable_tracing_with_cap(&mut self, cap: usize) {
        if self.trace.is_none() {
            self.trace = Some(Trace::with_cap(cap));
        }
    }

    /// Stop tracing and take what was recorded (oldest round first).
    pub fn take_trace(&mut self) -> Trace {
        let mut t = self.trace.take().unwrap_or_default();
        t.finalize();
        t
    }

    /// Start span-based cost attribution (see [`crate::span`]). Costs
    /// accrued from now on are attributed to the innermost open span;
    /// until one is opened they land in the implicit root span.
    pub fn enable_probe(&mut self) {
        if self.probe.is_none() {
            self.probe = Some(Probe::new(self.p(), self.metrics));
        }
    }

    /// Whether a probe is currently recording.
    pub fn probe_enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// Open a span; costs accrue to it until [`PimSystem::span_exit`].
    /// A no-op (one branch) when no probe is enabled.
    pub fn span_enter(&mut self, name: &'static str) {
        let now = self.metrics;
        if let Some(p) = self.probe.as_mut() {
            p.enter(name, now);
        }
    }

    /// Close the innermost open span. A no-op when no probe is enabled
    /// (and at the root span).
    pub fn span_exit(&mut self) {
        let now = self.metrics;
        if let Some(p) = self.probe.as_mut() {
            p.exit(now);
        }
    }

    /// Open a span and return an RAII guard that closes it on drop; the
    /// guard derefs to the system so the bracketed code reads naturally:
    ///
    /// ```ignore
    /// let mut sys = sys.span("upsert/link");
    /// sys.run_to_quiescence();
    /// ```
    pub fn span(&mut self, name: &'static str) -> SpanGuard<'_, M> {
        self.span_enter(name);
        SpanGuard { sys: self }
    }

    /// Stop probing and harvest the report (spans + per-module lanes).
    /// Returns `None` when no probe was enabled.
    pub fn take_probe(&mut self) -> Option<ProbeReport> {
        let now = self.metrics;
        self.probe.take().map(|p| p.finish(now))
    }

    /// Number of PIM modules, `P`.
    #[inline]
    pub fn p(&self) -> u32 {
        self.modules.len() as u32
    }

    /// `ceil(log2 P)`, clamped to at least 1 — the ubiquitous batch/bound
    /// parameter.
    #[inline]
    pub fn log_p(&self) -> u32 {
        self.p().max(2).ilog2() + u32::from(!self.p().max(2).is_power_of_two())
    }

    /// CPU-side `TaskSend`: queue `task` for module `to`, delivered at the
    /// next round. Counts one CPU→PIM message.
    pub fn send(&mut self, to: ModuleId, task: M::Task) {
        self.inboxes[to as usize].push(task);
    }

    /// Broadcast one task to every module (`P` messages, `h` contribution 1
    /// per module — the replication write pattern of the upper part).
    pub fn broadcast(&mut self, mut make: impl FnMut(ModuleId) -> M::Task) {
        for id in 0..self.p() {
            self.send(id, make(id));
        }
    }

    /// Are any tasks queued for the next round?
    pub fn has_pending(&self) -> bool {
        self.inboxes.iter().any(|q| !q.is_empty())
    }

    /// Execute one bulk-synchronous round; returns the replies that reached
    /// CPU shared memory, in deterministic (module-id, issue) order.
    ///
    /// A round is three phases with two commit points:
    ///
    /// 1. **route-commit** ([`Self::route_commit`]) — the queued inboxes
    ///    become this round's deliveries and the pre-delivery faults
    ///    strike. After this point the round's inputs are frozen.
    /// 2. **execute** ([`Self::execute_modules`]) — the parallel module
    ///    sweep. Nothing CPU-visible changes until the barrier.
    /// 3. **execute-commit** ([`Self::execute_commit`]) — the barrier:
    ///    outputs are merged, costs recorded, cross sends routed into the
    ///    next round's inboxes.
    pub fn run_round(&mut self) -> Vec<M::Reply> {
        let stage = self.route_commit();
        self.execute_modules(stage.round, stage.delivered_total);
        self.execute_commit(stage)
    }

    /// Phase 1 — the **route-commit point**: swap in the queued inboxes
    /// (recycling last round's drained buffers) and apply the pre-delivery
    /// faults (crash, stall, task drop). Post-execution fault kinds are
    /// deferred to the execute-commit point.
    fn route_commit(&mut self) -> RoundStage {
        let round = self.metrics.rounds;
        // Recycle, don't rebuild: this round's deliveries move into the
        // spare set (drained in place below), and last round's drained
        // buffers — empty, capacity retained — become the next round's
        // inboxes. In steady state no round allocates delivery storage.
        std::mem::swap(&mut self.inboxes, &mut self.spare_inboxes);
        debug_assert!(self.inboxes.iter().all(Vec::is_empty));
        let inboxes = &mut self.spare_inboxes;

        // Apply this round's scheduled faults. Pre-delivery kinds (crash,
        // stall, task drop) strike now; post-execution kinds (slow, reply
        // drop) are deferred past the parallel section. See `crate::fault`
        // for the exact semantics of each kind.
        let round_faults = match self.injector.as_mut() {
            Some(injector) => injector.take_round(round),
            None => Vec::new(),
        };
        let mut post_faults: Vec<(ModuleId, FaultKind)> = Vec::new();
        for &(m, kind) in &round_faults {
            let mi = m as usize;
            self.metrics.faults_injected += 1;
            match kind {
                FaultKind::Crash => {
                    self.modules[mi].on_crash();
                    let lost = inboxes[mi].len() as u64;
                    inboxes[mi].clear();
                    self.metrics.messages_dropped += lost;
                    self.metrics.module_crashes += 1;
                    self.crashed.push(m);
                }
                FaultKind::Stall => {
                    // Defer the whole inbox to the next round; the
                    // next-round inbox is still empty at this point, so the
                    // carried-over tasks stay ahead of new traffic (the
                    // swap also keeps both buffers' capacity pooled).
                    std::mem::swap(&mut self.inboxes[mi], &mut inboxes[mi]);
                    self.metrics.stalled_module_rounds += 1;
                }
                FaultKind::DropTask { nth } => {
                    // O(1) removal: the chosen slot is backfilled with the
                    // *last* queued task, then the queue shrinks by one.
                    // Deterministic (a pure function of `nth` and the queue
                    // length); the backfilled task executes at the dropped
                    // task's position, everything before it keeps its
                    // order. `drop_task_backfills_from_the_end` pins these
                    // semantics.
                    if !inboxes[mi].is_empty() {
                        let idx = (nth % inboxes[mi].len() as u64) as usize;
                        inboxes[mi].swap_remove(idx);
                        self.metrics.messages_dropped += 1;
                    }
                }
                FaultKind::Slow { .. } | FaultKind::DropReply { .. } => {
                    post_faults.push((m, kind));
                }
            }
        }

        RoundStage {
            round,
            round_faults,
            post_faults,
            delivered_total: inboxes.iter().map(Vec::len).sum(),
        }
    }

    /// Phase 2 — the parallel module sweep. Reads only the frozen
    /// deliveries (in `spare_inboxes` since the route-commit swap) and
    /// writes only the per-module `RoundOut` slots; nothing CPU-visible
    /// changes until the execute-commit barrier.
    ///
    /// The weight hint is the number of delivered tasks: control rounds
    /// (a handful of messages) stay on the calling thread, while
    /// data-proportional rounds fan out across the pool's workers.
    /// Inboxes are drained in place (capacity retained for the next
    /// swap) and each module's persistent `RoundOut` is written in its
    /// own indexed slot, so the executor's index-ordered merge is free.
    fn execute_modules(&mut self, round: u64, delivered_total: usize) {
        crate::pool::par_zip2_for_each_mut(
            &mut self.modules,
            &mut self.spare_inboxes,
            &mut self.outs,
            delivered_total,
            |id, module, inbox, out| {
                debug_assert!(out.sends.is_empty() && out.replies.is_empty());
                out.work = 0;
                out.delivered = inbox.len() as u64;
                for task in inbox.drain(..) {
                    let mut ctx = ModuleCtx::new(
                        id as ModuleId,
                        round,
                        &mut out.sends,
                        &mut out.replies,
                        &mut out.work,
                    );
                    module.execute(task, &mut ctx);
                }
            },
        );
    }

    /// Phase 3 — the **execute-commit point** (the barrier): inflate slow
    /// faults, merge outputs, record trace/probe/metrics, drop faulted
    /// replies, and route cross sends into the next round's inboxes.
    fn execute_commit(&mut self, stage: RoundStage) -> Vec<M::Reply> {
        let RoundStage {
            round,
            round_faults,
            post_faults,
            delivered_total: _,
        } = stage;
        let outs = &mut self.outs;

        // A slow module's local work is inflated before the barrier maxima
        // are taken (the round waits for its slowest core).
        for &(m, kind) in &post_faults {
            if let FaultKind::Slow { factor } = kind {
                let out = &mut outs[m as usize];
                out.work = out.work.saturating_mul(factor.max(1));
            }
        }

        // Barrier: merge outputs, compute the h-relation and work maxima.
        let mut h = 0u64;
        let mut max_work = 0u64;
        let mut messages = 0u64;
        let mut work_total = 0u64;
        // The replies leave the machine (the caller owns them), so this is
        // the one unavoidable allocation per round — sized exactly once.
        let mut replies_all =
            Vec::with_capacity(outs.iter().map(|o| o.replies.len()).sum::<usize>());
        let mut per_module = self.trace.is_some().then(|| Vec::with_capacity(outs.len()));
        let mut lane_rows = self.probe.is_some().then(|| Vec::with_capacity(outs.len()));

        // Per-module message count this round: delivered (in) + replies (out)
        // + cross sends (out). `delivered` already includes both CPU sends
        // and last round's forwarded sends.
        for out in &*outs {
            let msgs = out.delivered + out.replies.len() as u64 + out.sends.len() as u64;
            h = h.max(msgs);
            messages += msgs;
            max_work = max_work.max(out.work);
            work_total += out.work;
            if let Some(pm) = per_module.as_mut() {
                pm.push(msgs);
            }
            if let Some(lr) = lane_rows.as_mut() {
                lr.push((msgs, out.work));
            }
        }
        if let (Some(trace), Some(per_module_messages)) = (self.trace.as_mut(), per_module) {
            trace.record(RoundTrace {
                round,
                h,
                max_work,
                messages,
                work: work_total,
                per_module_messages,
                faults: round_faults
                    .iter()
                    .map(|&(module, kind)| FaultRecord { module, kind })
                    .collect(),
            });
        }
        if let (Some(probe), Some(rows)) = (self.probe.as_mut(), lane_rows) {
            probe.observe_round(&rows);
        }

        // Reply drops happen on the PIM→CPU leg: the reply was transmitted
        // (and charged above), then lost before reaching shared memory.
        for &(m, kind) in &post_faults {
            if let FaultKind::DropReply { nth } = kind {
                let replies = &mut outs[m as usize].replies;
                if !replies.is_empty() {
                    let idx = (nth % replies.len() as u64) as usize;
                    replies.remove(idx);
                    self.metrics.messages_dropped += 1;
                }
            }
        }

        // Two-pass bucketed routing (see [`RouteBuffer`]): tally every
        // destination, reserve each next-round inbox exactly once, then
        // drain the outboxes in module-id order. Delivery order is
        // unchanged from the old push-per-task loop; reallocation inside
        // the fill loop is impossible.
        self.route.begin(self.inboxes.len());
        for out in &*outs {
            for &(to, _) in &out.sends {
                self.route.count(to as usize);
            }
        }
        self.route.reserve_into(&mut self.inboxes);
        for out in outs.iter_mut() {
            for (to, task) in out.sends.drain(..) {
                self.inboxes[to as usize].push(task);
            }
            replies_all.append(&mut out.replies);
        }

        self.metrics.record_round(h, max_work, messages, work_total);
        self.metrics.observe_shared_mem(self.shared_mem.peak());
        replies_all
    }

    /// Run rounds until no tasks remain; returns all replies in order.
    pub fn run_to_quiescence(&mut self) -> Vec<M::Reply> {
        let mut replies = Vec::new();
        while self.has_pending() {
            replies.extend(self.run_round());
        }
        replies
    }

    /// Read access to a module's local state (CPU-side inspection for tests
    /// and invariant checks — not part of the model's data path).
    pub fn module(&self, id: ModuleId) -> &M {
        &self.modules[id as usize]
    }

    /// Mutable access to a module (setup / test instrumentation only).
    pub fn module_mut(&mut self, id: ModuleId) -> &mut M {
        &mut self.modules[id as usize]
    }

    /// Iterate all modules.
    pub fn modules(&self) -> impl Iterator<Item = &M> {
        self.modules.iter()
    }

    /// Local memory in words per module (Theorem 3.1's measurement).
    pub fn local_words_per_module(&self) -> Vec<u64> {
        self.modules.iter().map(|m| m.local_words()).collect()
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Mutable metrics (CPU-side cost charging).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The CPU shared-memory tracker.
    pub fn shared_mem(&mut self) -> &mut SharedMem {
        &mut self.shared_mem
    }

    /// Fold the shared-memory peak into the metrics now (also done at each
    /// round barrier).
    pub fn sample_shared_mem(&mut self) {
        self.metrics.observe_shared_mem(self.shared_mem.peak());
    }
}

/// RAII guard for one open span: created by [`PimSystem::span`], closes
/// the span when dropped. Derefs to the system, so bracketed code uses it
/// exactly like the machine itself.
pub struct SpanGuard<'a, M: PimModule> {
    sys: &'a mut PimSystem<M>,
}

impl<M: PimModule> std::ops::Deref for SpanGuard<'_, M> {
    type Target = PimSystem<M>;

    fn deref(&self) -> &PimSystem<M> {
        self.sys
    }
}

impl<M: PimModule> std::ops::DerefMut for SpanGuard<'_, M> {
    fn deref_mut(&mut self) -> &mut PimSystem<M> {
        self.sys
    }
}

impl<M: PimModule> Drop for SpanGuard<'_, M> {
    fn drop(&mut self) {
        self.sys.span_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module that counts, echoes, and forwards.
    struct Echo {
        hits: u64,
    }

    enum EchoTask {
        Ping(u64),
        Forward { hops: u32, payload: u64 },
    }

    impl PimModule for Echo {
        type Task = EchoTask;
        type Reply = (ModuleId, u64);

        fn execute(&mut self, task: EchoTask, ctx: &mut ModuleCtx<'_, EchoTask, Self::Reply>) {
            ctx.work(1);
            self.hits += 1;
            match task {
                EchoTask::Ping(x) => ctx.reply((ctx.me(), x)),
                EchoTask::Forward { hops, payload } => {
                    if hops == 0 {
                        ctx.reply((ctx.me(), payload));
                    } else {
                        let next = (ctx.me() + 1) % 4;
                        ctx.send(
                            next,
                            EchoTask::Forward {
                                hops: hops - 1,
                                payload,
                            },
                        );
                    }
                }
            }
        }

        fn local_words(&self) -> u64 {
            self.hits
        }
    }

    fn machine() -> PimSystem<Echo> {
        PimSystem::new(4, |_| Echo { hits: 0 })
    }

    #[test]
    fn ping_replies_and_counts_messages() {
        let mut sys = machine();
        sys.send(2, EchoTask::Ping(7));
        let replies = sys.run_round();
        assert_eq!(replies, vec![(2, 7)]);
        let m = sys.metrics();
        assert_eq!(m.rounds, 1);
        // Module 2: 1 delivered + 1 reply = h of 2.
        assert_eq!(m.io_time, 2);
        assert_eq!(m.total_messages, 2);
        assert_eq!(m.pim_time, 1);
    }

    #[test]
    fn forwarding_takes_one_round_per_hop() {
        let mut sys = machine();
        sys.send(
            0,
            EchoTask::Forward {
                hops: 3,
                payload: 99,
            },
        );
        let replies = sys.run_to_quiescence();
        assert_eq!(replies, vec![(3, 99)]);
        assert_eq!(sys.metrics().rounds, 4);
        // Each hop round: 1 in + 1 out = 2; final round: 1 in + 1 reply = 2.
        assert_eq!(sys.metrics().io_time, 8);
    }

    #[test]
    fn h_is_max_not_total() {
        let mut sys = machine();
        // 8 pings to module 0, 1 ping to each other module.
        for _ in 0..8 {
            sys.send(0, EchoTask::Ping(1));
        }
        for id in 1..4 {
            sys.send(id, EchoTask::Ping(1));
        }
        sys.run_round();
        let m = sys.metrics();
        // Module 0: 8 in + 8 replies = 16.
        assert_eq!(m.io_time, 16);
        assert_eq!(m.total_messages, 22);
        assert_eq!(m.pim_time, 8);
        assert_eq!(m.total_pim_work, 11);
    }

    #[test]
    fn broadcast_reaches_all_modules_with_h_one() {
        let mut sys = machine();
        sys.broadcast(|id| EchoTask::Ping(u64::from(id)));
        let mut replies = sys.run_round();
        replies.sort_unstable();
        assert_eq!(replies, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        // Each module: 1 in + 1 reply.
        assert_eq!(sys.metrics().io_time, 2);
    }

    #[test]
    fn determinism_under_parallel_execution() {
        let run = || {
            let mut sys = machine();
            for i in 0..64u64 {
                sys.send(
                    (i % 4) as ModuleId,
                    EchoTask::Forward {
                        hops: (i % 5) as u32,
                        payload: i,
                    },
                );
            }
            let replies = sys.run_to_quiescence();
            (replies, sys.metrics())
        };
        let (r1, m1) = run();
        let (r2, m2) = run();
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn local_words_reporting() {
        let mut sys = machine();
        sys.send(1, EchoTask::Ping(0));
        sys.send(1, EchoTask::Ping(0));
        sys.send(3, EchoTask::Ping(0));
        sys.run_round();
        assert_eq!(sys.local_words_per_module(), vec![0, 2, 0, 1]);
    }

    #[test]
    fn empty_round_is_free_of_io() {
        let mut sys = machine();
        let replies = sys.run_round();
        assert!(replies.is_empty());
        assert_eq!(sys.metrics().io_time, 0);
        assert_eq!(sys.metrics().rounds, 1);
    }

    #[test]
    #[should_panic]
    fn zero_modules_rejected() {
        let _ = PimSystem::new(0, |_| Echo { hits: 0 });
    }

    /// A module whose "local memory" is its hit counter; crashes zero it.
    struct Crashy {
        hits: u64,
    }

    impl PimModule for Crashy {
        type Task = u64;
        type Reply = u64;

        fn execute(&mut self, task: u64, ctx: &mut ModuleCtx<'_, u64, u64>) {
            ctx.work(task);
            self.hits += 1;
            ctx.reply(self.hits)
        }

        fn on_crash(&mut self) {
            self.hits = 0;
        }
    }

    #[test]
    fn stall_defers_the_inbox_one_round() {
        let mut sys = machine();
        sys.set_fault_plan(FaultPlan::new().at(0, 1, FaultKind::Stall));
        sys.send(1, EchoTask::Ping(5));
        assert!(sys.run_round().is_empty(), "stalled round yields nothing");
        assert!(sys.has_pending(), "the task must carry over");
        assert_eq!(sys.run_round(), vec![(1, 5)]);
        let m = sys.metrics();
        assert_eq!(m.stalled_module_rounds, 1);
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.messages_dropped, 0);
        // Round 0 carried no delivered messages for module 1.
        assert_eq!(m.io_time, 2);
    }

    #[test]
    fn drop_task_loses_exactly_one_delivery() {
        let mut sys = machine();
        sys.set_fault_plan(FaultPlan::new().at(0, 2, FaultKind::DropTask { nth: 7 }));
        sys.send(2, EchoTask::Ping(1));
        sys.send(2, EchoTask::Ping(2));
        let mut replies = sys.run_round();
        replies.sort_unstable();
        assert_eq!(replies.len(), 1);
        assert_eq!(sys.metrics().messages_dropped, 1);
    }

    #[test]
    fn drop_task_backfills_from_the_end() {
        // The documented DropTask semantics: the chosen slot is backfilled
        // with the last queued task (O(1) swap-to-end + truncate), so the
        // survivor from the end executes at the dropped slot's position.
        let mut sys = machine();
        // len 4, nth 1 → drop index 1; task 3 backfills slot 1.
        sys.set_fault_plan(FaultPlan::new().at(0, 2, FaultKind::DropTask { nth: 1 }));
        for payload in 0..4 {
            sys.send(2, EchoTask::Ping(payload));
        }
        let replies = sys.run_round();
        assert_eq!(replies, vec![(2, 0), (2, 3), (2, 2)]);
        assert_eq!(sys.metrics().messages_dropped, 1);
    }

    #[test]
    fn warm_engine_replays_identically_to_cold() {
        // Buffer recycling must be observation-free: a second pass of the
        // same traffic through a *warm* machine (pools at their high-water
        // marks) produces byte-identical replies, metrics deltas and
        // traces to the first (cold) pass.
        let stream = |sys: &mut PimSystem<Echo>| {
            sys.enable_tracing();
            for i in 0..48u64 {
                sys.send(
                    (i % 4) as ModuleId,
                    EchoTask::Forward {
                        hops: (i % 4) as u32,
                        payload: i,
                    },
                );
            }
            let replies = sys.run_to_quiescence();
            (replies, sys.take_trace().rounds)
        };
        let mut sys = machine();
        let before_cold = sys.metrics();
        let (cold_replies, cold_trace) = stream(&mut sys);
        let cold_metrics = sys.metrics() - before_cold;
        let before_warm = sys.metrics();
        let (warm_replies, warm_trace) = stream(&mut sys);
        let warm_metrics = sys.metrics() - before_warm;
        assert_eq!(cold_replies, warm_replies);
        assert_eq!(cold_metrics, warm_metrics);
        let strip_round = |rs: Vec<RoundTrace>| -> Vec<RoundTrace> {
            rs.into_iter()
                .map(|mut r| {
                    r.round = 0;
                    r
                })
                .collect()
        };
        assert_eq!(strip_round(cold_trace), strip_round(warm_trace));
    }

    #[test]
    fn drop_reply_is_charged_then_lost() {
        let mut sys = machine();
        sys.set_fault_plan(FaultPlan::new().at(0, 2, FaultKind::DropReply { nth: 0 }));
        sys.send(2, EchoTask::Ping(1));
        let replies = sys.run_round();
        assert!(replies.is_empty());
        let m = sys.metrics();
        // Delivered + transmitted reply both counted, then the reply died.
        assert_eq!(m.io_time, 2);
        assert_eq!(m.messages_dropped, 1);
    }

    #[test]
    fn crash_wipes_state_and_inbox() {
        let mut sys = PimSystem::new(2, |_| Crashy { hits: 0 });
        sys.send(0, 1);
        sys.send(0, 1);
        sys.run_round();
        assert_eq!(sys.module(0).hits, 2);

        sys.set_fault_plan(FaultPlan::new().at(1, 0, FaultKind::Crash));
        sys.send(0, 1);
        sys.send(1, 1);
        let replies = sys.run_round();
        // Module 0's delivery died with it; module 1 replied normally.
        assert_eq!(replies, vec![1]);
        assert_eq!(sys.module(0).hits, 0, "crash must wipe local state");
        assert_eq!(sys.drain_crashed(), vec![0]);
        assert!(sys.drain_crashed().is_empty());
        let m = sys.metrics();
        assert_eq!(m.module_crashes, 1);
        assert_eq!(m.messages_dropped, 1);
    }

    #[test]
    fn slow_module_inflates_pim_time_only() {
        let healthy = {
            let mut sys = PimSystem::new(2, |_| Crashy { hits: 0 });
            sys.send(0, 10);
            sys.run_round();
            sys.metrics()
        };
        let mut sys = PimSystem::new(2, |_| Crashy { hits: 0 });
        sys.set_fault_plan(FaultPlan::new().at(0, 0, FaultKind::Slow { factor: 3 }));
        sys.send(0, 10);
        sys.run_round();
        let m = sys.metrics();
        assert_eq!(m.pim_time, 3 * healthy.pim_time);
        assert_eq!(m.io_time, healthy.io_time);
        assert_eq!(m.rounds, healthy.rounds);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let run = |with_empty_plan: bool| {
            let mut sys = machine();
            if with_empty_plan {
                sys.set_fault_plan(FaultPlan::new());
            }
            sys.enable_tracing();
            for i in 0..32u64 {
                sys.send(
                    (i % 4) as ModuleId,
                    EchoTask::Forward {
                        hops: (i % 3) as u32,
                        payload: i,
                    },
                );
            }
            let replies = sys.run_to_quiescence();
            (replies, sys.metrics(), sys.take_trace().rounds)
        };
        let (r1, m1, t1) = run(false);
        let (r2, m2, t2) = run(true);
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn same_plan_replays_identically() {
        let run = || {
            let mut sys = PimSystem::new(4, |_| Crashy { hits: 0 });
            sys.set_fault_plan(FaultPlan::random(99, 4, 6, 10));
            sys.enable_tracing();
            for round in 0..6u64 {
                for m in 0..4u32 {
                    sys.send(m, round + u64::from(m));
                }
                sys.run_round();
            }
            (sys.metrics(), sys.take_trace().rounds)
        };
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert!(m1.faults_injected > 0, "the random plan must have fired");
    }

    #[test]
    fn purge_pending_clears_queues() {
        let mut sys = machine();
        sys.send(0, EchoTask::Ping(1));
        sys.send(3, EchoTask::Ping(2));
        assert!(sys.has_pending());
        sys.purge_pending();
        assert!(!sys.has_pending());
    }

    #[test]
    fn no_probe_is_bit_identical_to_probe_free_machine() {
        let run = |with_probe: bool| {
            let mut sys = machine();
            if with_probe {
                sys.enable_probe();
            }
            sys.enable_tracing();
            for i in 0..32u64 {
                sys.send(
                    (i % 4) as ModuleId,
                    EchoTask::Forward {
                        hops: (i % 3) as u32,
                        payload: i,
                    },
                );
            }
            let replies = sys.run_to_quiescence();
            (replies, sys.metrics(), sys.take_trace().rounds)
        };
        // Probe enabled but no spans opened: results, metrics and trace
        // must be bit-identical (the probe only *reads* the metrics).
        let (r1, m1, t1) = run(false);
        let (r2, m2, t2) = run(true);
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn span_calls_without_probe_are_no_ops() {
        let mut sys = machine();
        sys.span_enter("phantom");
        sys.send(0, EchoTask::Ping(1));
        {
            let mut guarded = sys.span("also-phantom");
            guarded.run_round();
        }
        sys.span_exit();
        assert!(sys.take_probe().is_none());
        assert_eq!(sys.metrics().rounds, 1);
    }

    #[test]
    fn probe_attributes_rounds_to_spans_and_conserves_totals() {
        let mut sys = machine();
        sys.enable_probe();
        let before = sys.metrics();

        sys.send(0, EchoTask::Ping(1));
        sys.run_round(); // unattributed → root

        sys.span_enter("op");
        sys.send(1, EchoTask::Ping(2));
        sys.run_round();
        {
            let mut inner = sys.span("op/phase");
            inner.send(
                2,
                EchoTask::Forward {
                    hops: 1,
                    payload: 3,
                },
            );
            inner.run_to_quiescence();
        }
        sys.span_exit();

        let report = sys.take_probe().expect("probe was enabled");
        let after = sys.metrics();
        let delta = after - before;

        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["run", "op", "op/phase"]);
        assert_eq!(report.spans[0].stats.rounds, 1);
        assert_eq!(report.spans[1].stats.rounds, 1);
        assert_eq!(report.spans[2].stats.rounds, 2);

        // Conservation: every additive counter sums back to the delta.
        let total = report.total();
        assert_eq!(total.rounds, delta.rounds);
        assert_eq!(total.io_time, delta.io_time);
        assert_eq!(total.pim_time, delta.pim_time);
        assert_eq!(total.total_messages, delta.total_messages);
        assert_eq!(total.total_pim_work, delta.total_pim_work);
        assert_eq!(total.cpu_work, delta.cpu_work);
        assert_eq!(total.cpu_depth, delta.cpu_depth);

        // Lanes saw every round for every module.
        assert_eq!(report.lanes.p(), 4);
        assert_eq!(report.lanes.messages[0].count(), after.rounds);
    }

    #[test]
    fn capped_tracing_drops_oldest_rounds() {
        let mut sys = machine();
        sys.enable_tracing_with_cap(2);
        for _ in 0..5 {
            sys.send(0, EchoTask::Ping(1));
            sys.run_round();
        }
        let trace = sys.take_trace();
        assert_eq!(trace.rounds.len(), 2);
        assert_eq!(trace.dropped_rounds(), 3);
        let kept: Vec<u64> = trace.rounds.iter().map(|r| r.round).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn log_p_rounding() {
        assert_eq!(PimSystem::new(1, |_| Echo { hits: 0 }).log_p(), 1);
        assert_eq!(PimSystem::new(2, |_| Echo { hits: 0 }).log_p(), 1);
        assert_eq!(PimSystem::new(4, |_| Echo { hits: 0 }).log_p(), 2);
        assert_eq!(PimSystem::new(5, |_| Echo { hits: 0 }).log_p(), 3);
        assert_eq!(PimSystem::new(8, |_| Echo { hits: 0 }).log_p(), 3);
        assert_eq!(PimSystem::new(9, |_| Echo { hits: 0 }).log_p(), 4);
    }
}
