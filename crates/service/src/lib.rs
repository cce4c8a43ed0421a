//! `pim-service` — a deterministic request-scheduling front-end for the
//! PIM skip list.
//!
//! The paper's data structure consumes *homogeneous batches*; real clients
//! produce an *open stream* of mixed point and range requests. This crate
//! is the bridge: a [`PimService`] accepts typed [`Op`] requests one at a
//! time (each stamped with a request id and an arrival tick), coalesces
//! them under a policy ([`ServiceConfig`]: max batch size, max linger,
//! bounded queue with backpressure), and periodically dispatches the
//! queue's head through the structure's mixed-stream entry point
//! ([`pim_core::PimSkipList::execute`]). Replies are routed back to their
//! request ids as [`Completion`]s carrying per-request latency in both
//! *ticks* (service clock, arrival → reply) and *rounds* (machine clock).
//!
//! # Ordering semantics
//!
//! Dispatch preserves the **read/write epoch order** of arrivals: the
//! batch is split at every boundary between mutating and non-mutating
//! operations (see [`Op::is_write`]), epochs execute in arrival order, and
//! only *within a read epoch* are operations re-grouped by kind (reads
//! commute, so grouping them widens the model-legal runs the structure
//! can batch). A `Get` therefore never observes an `Upsert` that arrived
//! after it, and always observes every earlier one. Write epochs run in
//! strict arrival order — mutations on the same key do not commute.
//!
//! # Determinism
//!
//! The service owns no clock but its tick counter and no randomness at
//! all: the same `ServiceConfig`, the same arrival sequence (ops + the
//! tick pattern of `submit`/`tick` calls) produce byte-identical
//! completions, metrics, and traces — at any `PIM_THREADS`, because the
//! underlying executor is deterministic by construction.
//!
//! ```
//! use pim_core::{Config, Op, PimSkipList, Reply};
//! use pim_service::{PimService, ServiceConfig};
//!
//! let list = PimSkipList::new(Config::new(4, 1 << 10, 42));
//! let mut svc = PimService::new(list, ServiceConfig::new(4).with_max_linger(2));
//! svc.submit(Op::Upsert { key: 7, value: 70 }).unwrap();
//! svc.submit(Op::Get { key: 7 }).unwrap();
//! let mut done = Vec::new();
//! while done.len() < 2 {
//!     done.extend(svc.tick());
//! }
//! assert_eq!(done[1].reply, Reply::Value(Some(70)));
//! assert!(done[1].latency_ticks <= 2);
//! ```

#![warn(missing_docs)]

pub mod backend;

pub use backend::Backend;

use pim_core::{Op, OpKind, PimSkipList, Reply};
use pim_runtime::telemetry::{CounterId, GaugeId, HistId};
use pim_runtime::Histogram;

/// When a [`Completion`] is released relative to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckPolicy {
    /// Release as soon as the batch executes (default). Fast, but under a
    /// durable list with a lazy fsync policy an acknowledged op may still
    /// be lost by a crash.
    #[default]
    AfterExecute,
    /// Hold completions until a WAL fsync covers their batch: an
    /// acknowledged op survives any crash. The service drives the sync
    /// from its tick clock (every [`ServiceConfig::sync_every`] ticks), so
    /// the extra latency is deterministic and shows up in
    /// [`ServiceStats::latency_ticks`]. With a non-durable list (or a
    /// durable one on [`pim_core::FsyncPolicy::EveryFrame`]) this degrades
    /// gracefully to same-tick release.
    AfterFsync,
}

/// Coalescing policy of a [`PimService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dispatch as soon as this many requests are queued (and never put
    /// more than this many in one batch). The paper's preferred batch
    /// size is [`pim_core::Config::batch_large`] — see
    /// [`ServiceConfig::for_list`].
    pub max_batch: usize,
    /// Dispatch when the *oldest* queued request has waited this many
    /// ticks, even if the batch is not full. `0` dispatches every tick.
    pub max_linger: u64,
    /// Bound on the number of queued requests; beyond it
    /// [`PimService::submit`] refuses (backpressure). Defaults to
    /// `4 × max_batch`.
    pub max_queue: usize,
    /// Completion-release policy relative to durability.
    pub ack: AckPolicy,
    /// Under [`AckPolicy::AfterFsync`]: fsync the WAL every this many
    /// ticks while acks are pending (the every-T-ticks group-commit
    /// cadence; clamped to at least 1). Ignored otherwise.
    pub sync_every: u64,
    /// Per-lane admission bound for multi-lane backends (a cluster: one
    /// lane per shard). A submit whose lane already holds this many
    /// queued requests is refused with [`Rejected::LaneFull`] even when
    /// the global queue has room — backpressure lands on the hot shard
    /// while cold shards keep accepting. `None` (default) disables lane
    /// accounting; single-lane backends are never lane-refused.
    pub max_lane_queue: Option<usize>,
}

impl ServiceConfig {
    /// A policy dispatching at `max_batch` requests, lingering at most 8
    /// ticks, with a `4 × max_batch` queue bound.
    pub fn new(max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        ServiceConfig {
            max_batch,
            max_linger: 8,
            max_queue: 4 * max_batch,
            ack: AckPolicy::AfterExecute,
            sync_every: 1,
            max_lane_queue: None,
        }
    }

    /// The paper-recommended policy derived from a core [`pim_core::Config`]:
    /// batches of [`pim_core::Config::batch_large`] (`P log² P`). The
    /// service wraps the structure's own configuration rather than
    /// duplicating its parameters; build the `Config` with
    /// [`pim_core::Config::from_env`] to honour `PIM_*` overrides.
    pub fn for_config(core: &pim_core::Config) -> Self {
        ServiceConfig::new(core.batch_large())
    }

    /// [`ServiceConfig::for_config`] for an already-built backend
    /// (batches of [`Backend::recommended_batch`]).
    pub fn for_backend<B: Backend>(backend: &B) -> Self {
        ServiceConfig::new(backend.recommended_batch())
    }

    /// The paper-recommended policy for `list`: batches of
    /// [`pim_core::Config::batch_large`] (`P log² P`).
    pub fn for_list(list: &PimSkipList) -> Self {
        Self::for_config(list.config())
    }

    /// Override the linger bound.
    pub fn with_max_linger(mut self, ticks: u64) -> Self {
        self.max_linger = ticks;
        self
    }

    /// Override the queue bound (clamped to at least `max_batch`).
    pub fn with_max_queue(mut self, cap: usize) -> Self {
        self.max_queue = cap.max(self.max_batch);
        self
    }

    /// Hold completions until a WAL fsync covers them, syncing every
    /// `sync_every` ticks (see [`AckPolicy::AfterFsync`]).
    pub fn with_ack_after_fsync(mut self, sync_every: u64) -> Self {
        self.ack = AckPolicy::AfterFsync;
        self.sync_every = sync_every.max(1);
        self
    }

    /// Bound each backend lane's share of the queue (see
    /// [`ServiceConfig::max_lane_queue`]; clamped to at least 1).
    pub fn with_max_lane_queue(mut self, cap: usize) -> Self {
        self.max_lane_queue = Some(cap.max(1));
        self
    }
}

/// Identifier assigned by [`PimService::submit`], echoed on the matching
/// [`Completion`]. Sequential from 0.
pub type RequestId = u64;

/// Why [`PimService::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The queue is at [`ServiceConfig::max_queue`]; retry after a tick
    /// has drained a batch.
    QueueFull,
    /// The request's backend lane (its shard) is at
    /// [`ServiceConfig::max_lane_queue`]; other lanes may still have
    /// room. Retry after a tick, or route load away from the hot shard.
    LaneFull {
        /// The saturated lane index ([`Backend::lane`] of the refused op).
        lane: usize,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "service queue full (backpressure)"),
            Rejected::LaneFull { lane } => {
                write!(f, "service lane {lane} full (per-shard backpressure)")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The id [`PimService::submit`] assigned.
    pub id: RequestId,
    /// The typed answer.
    pub reply: Reply,
    /// Tick the request was submitted on.
    pub arrival: u64,
    /// Tick the request's batch dispatched. Under [`AckPolicy::AfterExecute`]
    /// this is also the completion tick; under [`AckPolicy::AfterFsync`]
    /// release may come later, once a WAL fsync covers the batch.
    pub dispatched: u64,
    /// Service-clock latency, arrival → acknowledgement, in ticks (under
    /// [`AckPolicy::AfterFsync`] this includes the wait for the covering
    /// fsync — the durability premium, visible in
    /// [`ServiceStats::latency_ticks`]).
    pub latency_ticks: u64,
    /// Machine-clock latency: rounds the machine ran between this
    /// request's arrival and its reply (includes rounds spent on batches
    /// dispatched ahead of it).
    pub latency_rounds: u64,
}

/// Streaming service statistics (deterministic; all integer-exact except
/// histogram quantiles, which are deterministic bucket upper bounds).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests accepted by [`PimService::submit`].
    pub submitted: u64,
    /// Requests refused with [`Rejected::QueueFull`].
    pub rejected: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Per-completion latency in ticks.
    pub latency_ticks: Histogram,
    /// Per-completion latency in machine rounds.
    pub latency_rounds: Histogram,
    /// Queue depth sampled at the start of every tick.
    pub queue_depth: Histogram,
    /// Requests per dispatched batch.
    pub batch_occupancy: Histogram,
    /// WAL fsyncs this service triggered ([`AckPolicy::AfterFsync`] only).
    pub fsyncs: u64,
}

/// Pre-resolved registry handles for the service's series (all `Copy`,
/// resolved once the fronted list's telemetry is lit — see
/// [`PimService::sync_telemetry`]).
#[derive(Debug, Clone, Copy)]
struct ServiceTelem {
    queue_depth: GaugeId,
    rejected: CounterId,
    fsyncs: CounterId,
    occupancy: HistId,
    latency_ticks: HistId,
    latency_rounds: HistId,
    ack_hold: HistId,
}

/// A pending request in the FIFO queue.
#[derive(Debug, Clone)]
struct Pending {
    id: RequestId,
    op: Op,
    arrival: u64,
    rounds_at_arrival: u64,
    /// Backend lane the op routes to (0 unless lane accounting is on).
    lane: usize,
}

/// The batch-coalescing request scheduler, generic over the structure it
/// fronts — a single [`PimSkipList`] machine (the default) or any other
/// [`Backend`] such as a `pim-cluster` of shards. Owns the backend;
/// reclaim it with [`PimService::into_list`].
pub struct PimService<B: Backend = PimSkipList> {
    list: B,
    cfg: ServiceConfig,
    queue: std::collections::VecDeque<Pending>,
    now: u64,
    next_id: RequestId,
    stats: ServiceStats,
    // Recycled dispatch staging: drained and refilled every batch, so a
    // steady-state service allocates only the `Completion` vector it hands
    // back (the service-side half of the steady-state allocation contract
    // in `docs/MODEL.md`).
    pend: Vec<Pending>,
    order: Vec<usize>,
    ops: Vec<Op>,
    slots: Vec<Option<Reply>>,
    // Completions executed but awaiting a covering WAL fsync, with the
    // durable stream position each needs synced (AfterFsync only; FIFO, so
    // release order is arrival order).
    held: std::collections::VecDeque<(u64, Completion)>,
    // Registry handles, resolved lazily once the list's telemetry is lit
    // (`None` while dark — the hot path then pays one `is_none` branch).
    telem: Option<ServiceTelem>,
    // Queued requests per backend lane (sized `lanes()`; all zeros and
    // untouched unless `max_lane_queue` is set).
    lane_depth: Vec<usize>,
}

impl<B: Backend> PimService<B> {
    /// Front `list` with the given coalescing policy.
    pub fn new(list: B, cfg: ServiceConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            cfg.max_queue >= cfg.max_batch,
            "max_queue must admit at least one full batch"
        );
        let lane_depth = vec![0; list.lanes().max(1)];
        PimService {
            list,
            cfg,
            queue: std::collections::VecDeque::new(),
            now: 0,
            next_id: 0,
            stats: ServiceStats::default(),
            pend: Vec::new(),
            order: Vec::new(),
            ops: Vec::new(),
            slots: Vec::new(),
            held: std::collections::VecDeque::new(),
            telem: None,
            lane_depth,
        }
    }

    /// Resolve the service's registry handles if the fronted list's
    /// telemetry is lit (idempotent; no-op while dark). Called from
    /// `submit`/`tick`, so enabling telemetry on the list at any point —
    /// before or after construction of the service — just works.
    fn sync_telemetry(&mut self) {
        if self.telem.is_some() {
            return;
        }
        let Some(reg) = self.list.telemetry_mut() else {
            return;
        };
        self.telem = Some(ServiceTelem {
            queue_depth: reg.gauge("pim_service_queue_depth", &[]),
            rejected: reg.counter("pim_service_rejected_total", &[]),
            fsyncs: reg.counter("pim_service_fsyncs_total", &[]),
            occupancy: reg.histogram("pim_service_batch_occupancy", &[]),
            latency_ticks: reg.histogram("pim_service_latency_ticks", &[]),
            latency_rounds: reg.histogram("pim_service_latency_rounds", &[]),
            ack_hold: reg.histogram("pim_service_ack_hold_ticks", &[]),
        });
    }

    /// The current service tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The coalescing policy.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Streaming statistics so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The fronted backend (read-only; mutate only through the service
    /// while requests are in flight, or ordering guarantees are void).
    pub fn list(&self) -> &B {
        &self.list
    }

    /// Mutable access to the fronted structure — for instrumentation
    /// (`enable_probe`, `enable_tracing`, `set_fault_plan`), not for
    /// concurrent mutation.
    pub fn list_mut(&mut self) -> &mut B {
        &mut self.list
    }

    /// Tear down the service (dropping any still-queued requests) and
    /// return the backend.
    pub fn into_list(self) -> B {
        self.list
    }

    /// Enqueue one request at the current tick. Refuses with
    /// [`Rejected::QueueFull`] when the queue is at
    /// [`ServiceConfig::max_queue`].
    pub fn submit(&mut self, op: Op) -> Result<RequestId, Rejected> {
        self.sync_telemetry();
        if self.queue.len() >= self.cfg.max_queue {
            self.stats.rejected += 1;
            if let (Some(th), Some(reg)) = (self.telem, self.list.telemetry_mut()) {
                reg.add(th.rejected, 1);
            }
            return Err(Rejected::QueueFull);
        }
        let lane = match self.cfg.max_lane_queue {
            Some(cap) => {
                let lane = self.list.lane(&op).min(self.lane_depth.len() - 1);
                if self.lane_depth[lane] >= cap {
                    self.stats.rejected += 1;
                    if let (Some(th), Some(reg)) = (self.telem, self.list.telemetry_mut()) {
                        reg.add(th.rejected, 1);
                    }
                    return Err(Rejected::LaneFull { lane });
                }
                self.lane_depth[lane] += 1;
                lane
            }
            None => 0,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        let rounds_at_arrival = self.list.rounds();
        if self.telem.is_some() {
            if let Some(reg) = self.list.telemetry_mut() {
                reg.emit("admit", self.now, rounds_at_arrival, &[("id", id)]);
            }
        }
        self.queue.push_back(Pending {
            id,
            op,
            arrival: self.now,
            rounds_at_arrival,
            lane,
        });
        Ok(id)
    }

    /// Advance the service clock one tick and dispatch every batch the
    /// policy calls for: while the queue holds a full
    /// [`ServiceConfig::max_batch`], or its oldest request has lingered
    /// [`ServiceConfig::max_linger`] ticks, the head of the queue goes to
    /// the machine. Returns the completions, in arrival order.
    ///
    /// Panics if the machine exhausts its fault-recovery retries (see
    /// [`pim_core::PimSkipList::try_execute`]); on a fault-free machine it
    /// never panics.
    pub fn tick(&mut self) -> Vec<Completion> {
        self.now += 1;
        self.sync_telemetry();
        self.stats.queue_depth.record(self.queue.len() as u64);
        if let (Some(th), Some(reg)) = (self.telem, self.list.telemetry_mut()) {
            reg.set(th.queue_depth, self.queue.len() as u64);
        }
        let mut out = Vec::new();
        while self.should_dispatch() {
            out.extend(self.dispatch());
        }
        if self.cfg.ack == AckPolicy::AfterFsync {
            if !self.held.is_empty() && self.now.is_multiple_of(self.cfg.sync_every.max(1)) {
                self.list
                    .durable_sync()
                    .unwrap_or_else(|e| panic!("wal fsync: {e}"));
                self.stats.fsyncs += 1;
                self.note_fsync();
            }
            out.extend(self.release_ready());
        }
        out
    }

    /// Dispatch everything still queued, ignoring batch-size and linger
    /// thresholds, and force a covering fsync for any held acks
    /// (end-of-run drain). Does not advance the tick.
    pub fn flush(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.dispatch());
        }
        if !self.held.is_empty() {
            self.list
                .durable_sync()
                .unwrap_or_else(|e| panic!("wal fsync: {e}"));
            self.stats.fsyncs += 1;
            self.note_fsync();
            out.extend(self.release_ready());
        }
        out
    }

    /// Publish one service-driven fsync into the registry + event log.
    fn note_fsync(&mut self) {
        let synced = self.list.durable_synced_seq().unwrap_or(0);
        let round = self.list.rounds();
        if let (Some(th), Some(reg)) = (self.telem, self.list.telemetry_mut()) {
            reg.add(th.fsyncs, 1);
            reg.emit("fsync", self.now, round, &[("synced_seq", synced)]);
        }
    }

    /// Completions executed but not yet acknowledged (awaiting a covering
    /// WAL fsync; always 0 under [`AckPolicy::AfterExecute`]).
    pub fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Release every held completion the durable layer has synced past.
    fn release_ready(&mut self) -> Vec<Completion> {
        let synced = self.list.durable_synced_seq().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        while let Some(&(need, _)) = self.held.front() {
            if need > synced {
                break;
            }
            let (_, c) = self.held.pop_front().expect("front exists");
            out.push(self.record(c));
        }
        out
    }

    /// Stamp a *held* completion's acknowledgement latency at its release
    /// tick and fold it into the streaming stats.
    fn record(&mut self, mut c: Completion) -> Completion {
        c.latency_ticks = self.now.saturating_sub(c.arrival);
        self.stats.completed += 1;
        self.stats.latency_ticks.record(c.latency_ticks);
        self.stats.latency_rounds.record(c.latency_rounds);
        let held_ticks = self.now.saturating_sub(c.dispatched);
        let round = self.list.rounds();
        if let (Some(th), Some(reg)) = (self.telem, self.list.telemetry_mut()) {
            reg.observe(th.latency_ticks, c.latency_ticks);
            reg.observe(th.latency_rounds, c.latency_rounds);
            reg.observe(th.ack_hold, held_ticks);
            reg.emit(
                "ack",
                self.now,
                round,
                &[
                    ("id", c.id),
                    ("held_ticks", held_ticks),
                    ("latency_ticks", c.latency_ticks),
                    ("latency_rounds", c.latency_rounds),
                ],
            );
        }
        c
    }

    fn should_dispatch(&self) -> bool {
        match self.queue.front() {
            None => false,
            Some(oldest) => {
                self.queue.len() >= self.cfg.max_batch
                    || self.now.saturating_sub(oldest.arrival) >= self.cfg.max_linger
            }
        }
    }

    /// Take the head of the queue (at most one `max_batch`), execute it,
    /// and route replies. The three phases are bracketed with probe spans
    /// (`service/coalesce`, `service/dispatch`, `service/reply`) so span
    /// reports attribute machine cost to the layer that caused it.
    fn dispatch(&mut self) -> Vec<Completion> {
        let n = self.queue.len().min(self.cfg.max_batch);
        self.pend.clear();
        self.pend.extend(self.queue.drain(..n));
        if self.cfg.max_lane_queue.is_some() {
            for p in &self.pend {
                self.lane_depth[p.lane] -= 1;
            }
        }
        let batch = self.stats.batches;
        self.stats.batches += 1;
        self.stats.batch_occupancy.record(n as u64);

        self.list.span_enter("service/coalesce");
        plan_order_into(&self.pend, &mut self.order);
        self.ops.clear();
        self.ops.extend(self.order.iter().map(|&i| self.pend[i].op));
        self.list.span_exit();
        let rounds_before = self.list.rounds();
        if let Some(th) = self.telem {
            if let Some(reg) = self.list.telemetry_mut() {
                reg.observe(th.occupancy, n as u64);
                for (pos, &i) in self.order.iter().enumerate() {
                    reg.emit(
                        "coalesce",
                        self.now,
                        rounds_before,
                        &[
                            ("id", self.pend[i].id),
                            ("batch", batch),
                            ("pos", pos as u64),
                        ],
                    );
                }
            }
        }

        self.list.span_enter("service/dispatch");
        let replies = self.list.execute_ops(&self.ops);
        self.list.span_exit();

        self.list.span_enter("service/reply");
        let rounds_now = self.list.rounds();
        if self.telem.is_some() {
            if let Some(reg) = self.list.telemetry_mut() {
                reg.emit(
                    "execute",
                    self.now,
                    rounds_now,
                    &[
                        ("batch", batch),
                        ("n", n as u64),
                        ("rounds", rounds_now - rounds_before),
                    ],
                );
            }
        }
        self.slots.clear();
        self.slots.resize(n, None);
        for (&i, reply) in self.order.iter().zip(replies) {
            self.slots[i] = Some(reply);
        }
        let hold = self.cfg.ack == AckPolicy::AfterFsync && self.list.is_durable();
        // Everything this batch committed is durable once the WAL reaches
        // this stream position.
        let need = self.list.durable_seq().unwrap_or(0);
        let th = self.telem;
        let now = self.now;
        let mut out = Vec::with_capacity(if hold { 0 } else { n });
        for (p, reply) in self.pend.drain(..).zip(self.slots.drain(..)) {
            let latency_ticks = self.now.saturating_sub(p.arrival);
            let latency_rounds = rounds_now.saturating_sub(p.rounds_at_arrival);
            let c = Completion {
                id: p.id,
                reply: reply.expect("every dispatched op answered"),
                arrival: p.arrival,
                dispatched: self.now,
                latency_ticks,
                latency_rounds,
            };
            if hold {
                self.held.push_back((need, c));
            } else {
                self.stats.completed += 1;
                self.stats.latency_ticks.record(latency_ticks);
                self.stats.latency_rounds.record(latency_rounds);
                if let Some(th) = th {
                    if let Some(reg) = self.list.telemetry_mut() {
                        reg.observe(th.latency_ticks, latency_ticks);
                        reg.observe(th.latency_rounds, latency_rounds);
                        reg.emit(
                            "reply",
                            now,
                            rounds_now,
                            &[
                                ("id", c.id),
                                ("latency_ticks", latency_ticks),
                                ("latency_rounds", latency_rounds),
                            ],
                        );
                    }
                }
                out.push(c);
            }
        }
        self.list.span_exit();
        if hold {
            // A list fsyncing eagerly (EveryFrame / a tripped EveryOps
            // threshold) may already cover this batch — release same-tick.
            out.extend(self.release_ready());
        }
        out
    }
}

/// The dispatch permutation, written into `order`: positions of `pend` in
/// execution order. Read/write epochs stay in arrival order; within a read
/// epoch, operations are stably grouped by kind (reads commute, and
/// grouping widens the coalescible runs `execute` can batch).
fn plan_order_into(pend: &[Pending], order: &mut Vec<usize>) {
    order.clear();
    let mut i = 0;
    while i < pend.len() {
        let write = pend[i].op.is_write();
        let mut j = i + 1;
        while j < pend.len() && pend[j].op.is_write() == write {
            j += 1;
        }
        let start = order.len();
        order.extend(i..j);
        if !write {
            order[start..].sort_by_key(|&k| read_group(pend[k].op.kind()));
        }
        i = j;
    }
}

/// Grouping rank of a read-only operation kind (stable sort key; ties
/// keep arrival order, and `execute` further splits range runs by
/// function).
fn read_group(kind: OpKind) -> u8 {
    match kind {
        OpKind::Get => 0,
        OpKind::Predecessor => 1,
        OpKind::Successor => 2,
        OpKind::Range => 3,
        // Writes never reach here (epochs are class-pure), but the match
        // must be total.
        OpKind::Update => 4,
        OpKind::Upsert => 5,
        OpKind::Delete => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::Config;

    fn small_list(seed: u64) -> PimSkipList {
        PimSkipList::new(Config::new(4, 1 << 10, seed))
    }

    #[test]
    fn batch_threshold_triggers_dispatch() {
        let mut svc = PimService::new(small_list(1), ServiceConfig::new(4).with_max_linger(100));
        for k in 0..3 {
            svc.submit(Op::Upsert { key: k, value: 1 }).unwrap();
        }
        assert!(svc.tick().is_empty(), "3 < max_batch and linger not hit");
        svc.submit(Op::Upsert { key: 9, value: 1 }).unwrap();
        let done = svc.tick();
        assert_eq!(done.len(), 4);
        assert_eq!(svc.queue_len(), 0);
        assert_eq!(svc.stats().batches, 1);
    }

    #[test]
    fn linger_bounds_queue_wait() {
        let mut svc = PimService::new(small_list(2), ServiceConfig::new(64).with_max_linger(3));
        svc.submit(Op::Upsert { key: 1, value: 10 }).unwrap();
        assert!(svc.tick().is_empty()); // waited 1
        assert!(svc.tick().is_empty()); // waited 2
        let done = svc.tick(); // waited 3 == max_linger
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency_ticks, 3);
    }

    #[test]
    fn replies_route_by_request_id_in_arrival_order() {
        let mut svc = PimService::new(small_list(3), ServiceConfig::new(8).with_max_linger(0));
        let a = svc.submit(Op::Upsert { key: 1, value: 11 }).unwrap();
        let b = svc.submit(Op::Upsert { key: 2, value: 22 }).unwrap();
        let c = svc.submit(Op::Get { key: 1 }).unwrap();
        let d = svc.submit(Op::Get { key: 2 }).unwrap();
        let done = svc.tick();
        assert_eq!(
            done.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![a, b, c, d]
        );
        assert_eq!(done[2].reply, Reply::Value(Some(11)));
        assert_eq!(done[3].reply, Reply::Value(Some(22)));
    }

    #[test]
    fn read_never_observes_later_write() {
        // Get{5} arrives BEFORE Upsert{5}: must answer None even though
        // both dispatch in the same batch.
        let mut svc = PimService::new(small_list(4), ServiceConfig::new(8).with_max_linger(0));
        svc.submit(Op::Get { key: 5 }).unwrap();
        svc.submit(Op::Upsert { key: 5, value: 50 }).unwrap();
        svc.submit(Op::Get { key: 5 }).unwrap();
        let done = svc.tick();
        assert_eq!(
            done[0].reply,
            Reply::Value(None),
            "earlier Get sees no later Upsert"
        );
        assert_eq!(
            done[2].reply,
            Reply::Value(Some(50)),
            "later Get sees earlier Upsert"
        );
    }

    #[test]
    fn reads_regroup_within_epoch_for_coalescing() {
        // G S G S → plan groups the Gets then the Successors (2 runs
        // instead of 4), with replies still landing at arrival positions.
        let mut svc = PimService::new(small_list(5), ServiceConfig::new(8).with_max_linger(0));
        svc.submit(Op::Upsert { key: 10, value: 1 }).unwrap();
        svc.tick();
        svc.submit(Op::Get { key: 10 }).unwrap();
        svc.submit(Op::Successor { key: 0 }).unwrap();
        svc.submit(Op::Get { key: 11 }).unwrap();
        svc.submit(Op::Successor { key: 11 }).unwrap();
        let done = svc.flush();
        assert_eq!(done[0].reply, Reply::Value(Some(1)));
        assert_eq!(done[1].reply.as_entry().unwrap().unwrap().0, 10);
        assert_eq!(done[2].reply, Reply::Value(None));
        assert!(done[3].reply.as_entry().unwrap().is_none());
    }

    #[test]
    fn backpressure_rejects_past_queue_bound() {
        let cfg = ServiceConfig::new(2).with_max_queue(2).with_max_linger(100);
        let mut svc = PimService::new(small_list(6), cfg);
        svc.submit(Op::Get { key: 1 }).unwrap();
        svc.submit(Op::Get { key: 2 }).unwrap();
        assert_eq!(svc.submit(Op::Get { key: 3 }), Err(Rejected::QueueFull));
        assert_eq!(svc.stats().rejected, 1);
        svc.tick(); // drains the full batch
        assert!(svc.submit(Op::Get { key: 3 }).is_ok());
    }

    #[test]
    fn flush_drains_everything() {
        let mut svc = PimService::new(small_list(7), ServiceConfig::new(64).with_max_linger(100));
        for k in 0..5 {
            svc.submit(Op::Upsert {
                key: k,
                value: k as u64,
            })
            .unwrap();
        }
        let done = svc.flush();
        assert_eq!(done.len(), 5);
        assert_eq!(svc.queue_len(), 0);
        assert_eq!(svc.into_list().len(), 5);
    }

    #[test]
    fn latency_rounds_counts_machine_rounds_since_arrival() {
        let mut svc = PimService::new(small_list(8), ServiceConfig::new(1).with_max_linger(0));
        svc.submit(Op::Upsert { key: 1, value: 1 }).unwrap();
        let done = svc.tick();
        assert_eq!(done.len(), 1);
        assert!(done[0].latency_rounds > 0, "an upsert runs machine rounds");
        assert_eq!(
            done[0].latency_rounds,
            svc.list().metrics().rounds,
            "first request arrived at round 0"
        );
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pim-service-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn ack_after_fsync_holds_until_covering_sync() {
        use pim_core::{DurabilityPolicy, FsyncPolicy};
        let dir = durable_dir("holds");
        let mut list = small_list(20);
        // The list itself never fsyncs — the service clock drives it.
        list.enable_durability(
            &dir,
            DurabilityPolicy::default().with_fsync(FsyncPolicy::Manual),
        )
        .unwrap();
        let cfg = ServiceConfig::new(1)
            .with_max_linger(0)
            .with_ack_after_fsync(4);
        let mut svc = PimService::new(list, cfg);
        svc.submit(Op::Upsert { key: 1, value: 1 }).unwrap();
        // Tick 1: dispatched (executed) but unacknowledged — sync due at 4.
        assert!(svc.tick().is_empty());
        assert_eq!(svc.held_len(), 1);
        assert!(svc.tick().is_empty()); // tick 2
        assert!(svc.tick().is_empty()); // tick 3
        let done = svc.tick(); // tick 4: fsync covers the batch
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].dispatched, 1);
        assert_eq!(done[0].latency_ticks, 4, "durability premium visible");
        assert_eq!(svc.stats().fsyncs, 1);
        assert_eq!(svc.stats().latency_ticks.max(), 4);
        assert_eq!(svc.list().durable_synced_seq(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ack_after_fsync_with_eager_wal_releases_same_tick() {
        use pim_core::DurabilityPolicy;
        let dir = durable_dir("eager");
        let mut list = small_list(21);
        // EveryFrame: the WAL is already synced when dispatch returns.
        list.enable_durability(&dir, DurabilityPolicy::default())
            .unwrap();
        let cfg = ServiceConfig::new(1)
            .with_max_linger(0)
            .with_ack_after_fsync(8);
        let mut svc = PimService::new(list, cfg);
        svc.submit(Op::Upsert { key: 1, value: 1 }).unwrap();
        let done = svc.tick();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency_ticks, 1, "no extra wait");
        assert_eq!(svc.stats().fsyncs, 0, "service never had to sync");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ack_after_fsync_without_durability_degenerates() {
        let cfg = ServiceConfig::new(1)
            .with_max_linger(0)
            .with_ack_after_fsync(16);
        let mut svc = PimService::new(small_list(22), cfg);
        svc.submit(Op::Get { key: 1 }).unwrap();
        let done = svc.tick();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency_ticks, 1);
        assert_eq!(svc.held_len(), 0);
    }

    #[test]
    fn flush_forces_covering_sync_for_held_acks() {
        use pim_core::{DurabilityPolicy, FsyncPolicy};
        let dir = durable_dir("flushsync");
        let mut list = small_list(23);
        list.enable_durability(
            &dir,
            DurabilityPolicy::default().with_fsync(FsyncPolicy::Manual),
        )
        .unwrap();
        let cfg = ServiceConfig::new(2)
            .with_max_linger(0)
            .with_ack_after_fsync(1000);
        let mut svc = PimService::new(list, cfg);
        for k in 0..5 {
            svc.submit(Op::Upsert { key: k, value: 9 }).unwrap();
        }
        let done = svc.flush();
        assert_eq!(done.len(), 5, "flush releases every held ack");
        assert_eq!(svc.held_len(), 0);
        assert_eq!(svc.stats().fsyncs, 1);
        let list = svc.into_list();
        assert_eq!(list.durable_synced_seq(), list.durable_seq());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_traces_the_request_lifecycle() {
        let mut list = small_list(30);
        list.enable_telemetry();
        let mut svc = PimService::new(list, ServiceConfig::new(2).with_max_linger(0));
        svc.submit(Op::Upsert { key: 1, value: 10 }).unwrap();
        svc.submit(Op::Get { key: 1 }).unwrap();
        let done = svc.tick();
        assert_eq!(done.len(), 2);
        let reg = svc.list_mut().take_telemetry().unwrap();
        let kinds: Vec<&str> = reg.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec!["admit", "admit", "coalesce", "coalesce", "execute", "reply", "reply"]
        );
        // Request 0 is traceable end to end by id.
        let for_id0: Vec<&str> = reg
            .events()
            .filter(|e| e.field("id") == Some(0))
            .map(|e| e.kind)
            .collect();
        assert_eq!(for_id0, vec!["admit", "coalesce", "reply"]);
        let exec = reg.events().nth(4).unwrap();
        assert_eq!(exec.field("n"), Some(2));
        assert!(exec.field("rounds").unwrap() > 0);
        // The registry aggregates match the streaming stats.
        let snap = reg.snapshot().render_prometheus();
        assert!(snap.contains("pim_ops_total{op=\"get\"} 1"));
        assert!(snap.contains("pim_ops_total{op=\"upsert\"} 1"));
        assert!(snap.contains("pim_service_latency_ticks_count 2"));
    }

    #[test]
    fn telemetry_ack_events_carry_the_durability_premium() {
        use pim_core::{DurabilityPolicy, FsyncPolicy};
        let dir = durable_dir("telem-ack");
        let mut list = small_list(31);
        list.enable_durability(
            &dir,
            DurabilityPolicy::default().with_fsync(FsyncPolicy::Manual),
        )
        .unwrap();
        list.enable_telemetry();
        let cfg = ServiceConfig::new(1)
            .with_max_linger(0)
            .with_ack_after_fsync(4);
        let mut svc = PimService::new(list, cfg);
        svc.submit(Op::Upsert { key: 1, value: 1 }).unwrap();
        let mut done = Vec::new();
        for _ in 0..4 {
            done.extend(svc.tick());
        }
        assert_eq!(done.len(), 1);
        let mut list = svc.into_list();
        let snap = list.telemetry_snapshot().unwrap().render_prometheus();
        assert!(snap.contains("pim_service_fsyncs_total 1"));
        assert!(
            snap.contains("pim_wal_fsyncs_total 1"),
            "durable totals folded in"
        );
        assert!(snap.contains("pim_wal_frames_total 1"));
        let reg = list.take_telemetry().unwrap();
        let ack = reg.events().find(|e| e.kind == "ack").unwrap();
        assert_eq!(ack.field("id"), Some(0));
        assert_eq!(
            ack.field("held_ticks"),
            Some(3),
            "dispatched at 1, acked at 4"
        );
        assert_eq!(ack.field("latency_ticks"), Some(4));
        assert!(reg.events().any(|e| e.kind == "fsync"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_dark_service_behaves_identically() {
        let run = |lit: bool| -> (Vec<Completion>, pim_runtime::Metrics) {
            let mut list = small_list(32);
            if lit {
                list.enable_telemetry();
            }
            let mut svc = PimService::new(
                list,
                ServiceConfig::new(2).with_max_linger(1).with_max_queue(16),
            );
            for k in 0..10 {
                svc.submit(Op::Upsert {
                    key: k,
                    value: k as u64,
                })
                .unwrap();
            }
            let mut done = svc.tick();
            done.extend(svc.flush());
            (done, svc.into_list().metrics())
        };
        assert_eq!(run(false), run(true));
    }

    /// A two-lane backend (keys route by parity) for exercising per-lane
    /// backpressure without pulling the cluster crate into the dev-deps.
    struct TwoLane(PimSkipList);

    impl Backend for TwoLane {
        fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply> {
            self.0.execute(ops)
        }
        fn rounds(&self) -> u64 {
            self.0.metrics().rounds
        }
        fn span_enter(&mut self, name: &'static str) {
            self.0.span_enter(name);
        }
        fn span_exit(&mut self) {
            self.0.span_exit();
        }
        fn is_durable(&self) -> bool {
            self.0.is_durable()
        }
        fn durable_seq(&self) -> Option<u64> {
            self.0.durable_seq()
        }
        fn durable_synced_seq(&self) -> Option<u64> {
            self.0.durable_synced_seq()
        }
        fn durable_sync(&mut self) -> pim_core::PimResult<()> {
            self.0.durable_sync()
        }
        fn telemetry_mut(&mut self) -> Option<&mut pim_runtime::Telemetry> {
            self.0.telemetry_mut()
        }
        fn recommended_batch(&self) -> usize {
            self.0.config().batch_large()
        }
        fn lanes(&self) -> usize {
            2
        }
        fn lane(&self, op: &Op) -> usize {
            (op.key().unwrap_or(0).rem_euclid(2)) as usize
        }
    }

    #[test]
    fn lane_backpressure_refuses_only_the_hot_lane() {
        let cfg = ServiceConfig::new(64)
            .with_max_linger(100)
            .with_max_queue(64)
            .with_max_lane_queue(2);
        let mut svc = PimService::new(TwoLane(small_list(40)), cfg);
        // Saturate lane 0 (even keys); lane 1 must keep accepting.
        svc.submit(Op::Get { key: 0 }).unwrap();
        svc.submit(Op::Get { key: 2 }).unwrap();
        assert_eq!(
            svc.submit(Op::Get { key: 4 }),
            Err(Rejected::LaneFull { lane: 0 })
        );
        svc.submit(Op::Get { key: 1 }).unwrap();
        svc.submit(Op::Get { key: 3 }).unwrap();
        assert_eq!(
            svc.submit(Op::Get { key: 5 }),
            Err(Rejected::LaneFull { lane: 1 })
        );
        assert_eq!(svc.stats().rejected, 2);
        // Draining the queue frees both lanes.
        let done = svc.flush();
        assert_eq!(done.len(), 4);
        assert!(svc.submit(Op::Get { key: 4 }).is_ok());
        assert!(svc.submit(Op::Get { key: 5 }).is_ok());
    }

    #[test]
    fn stats_histograms_accumulate() {
        let mut svc = PimService::new(small_list(9), ServiceConfig::new(2).with_max_linger(0));
        for k in 0..6 {
            svc.submit(Op::Upsert { key: k, value: 1 }).unwrap();
        }
        let done = svc.tick();
        assert_eq!(done.len(), 6);
        let s = svc.stats();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 6);
        assert_eq!(s.batches, 3);
        assert_eq!(s.batch_occupancy.max(), 2);
        assert_eq!(s.latency_ticks.count(), 6);
        assert_eq!(s.latency_rounds.count(), 6);
    }
}
