//! The skip list's telemetry publisher.
//!
//! [`CoreTelemetry`] owns a [`pim_runtime::Telemetry`] registry plus the
//! pre-registered handles the execute path publishes into, so the hot
//! path never does a name lookup: [`PimSkipList::try_execute`] calls
//! [`CoreTelemetry::after_run`] once per committed coalescible run and
//! [`CoreTelemetry::after_span`] once per committed span with the
//! machine-metrics *delta* of that span (its runs shared the rounds), and
//! everything else is `O(1)` handle updates. Like every observer in this codebase it lives behind
//! an `Option<Box<_>>` on the structure — dark runs pay one `is_some`
//! branch per run, and the machine's own accounting (replies, `Metrics`,
//! traces) is untouched either way.

use pim_runtime::telemetry::{CounterId, HistId, Telemetry};
use pim_runtime::Metrics;

use crate::durable::DurableStats;
use crate::list::PimSkipList;
use crate::op::OpKind;

/// Registry plus pre-registered handles for the core execute path.
pub(crate) struct CoreTelemetry {
    pub(crate) reg: Telemetry,
    /// Per-family committed-op counters, indexed by `OpKind as usize`.
    ops: [CounterId; 7],
    runs: CounterId,
    run_len: HistId,
    span_runs: HistId,
    rounds: CounterId,
    io_time: CounterId,
    pim_time: CounterId,
    messages: CounterId,
    pim_work: CounterId,
    cpu_work: CounterId,
    wal_frames: CounterId,
    wal_bytes: CounterId,
    fsyncs: CounterId,
    snapshots: CounterId,
    compacted: CounterId,
}

const OP_LABELS: [&str; 7] = [
    "get",
    "update",
    "upsert",
    "delete",
    "predecessor",
    "successor",
    "range",
];

fn op_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Get => 0,
        OpKind::Update => 1,
        OpKind::Upsert => 2,
        OpKind::Delete => 3,
        OpKind::Predecessor => 4,
        OpKind::Successor => 5,
        OpKind::Range => 6,
    }
}

impl CoreTelemetry {
    pub(crate) fn new() -> Self {
        Self::new_labeled(&[])
    }

    /// A registry whose every series carries `base` labels (the cluster
    /// tier stamps `shard="i"` so per-shard registries stay apart after a
    /// [`pim_runtime::TelemetrySnapshot::merged`]).
    pub(crate) fn new_labeled(base: &[(&str, &str)]) -> Self {
        let mut reg = Telemetry::new().with_base_labels(base);
        let ops = OP_LABELS.map(|l| reg.counter("pim_ops_total", &[("op", l)]));
        CoreTelemetry {
            runs: reg.counter("pim_runs_total", &[]),
            run_len: reg.histogram("pim_run_len", &[]),
            span_runs: reg.histogram("pim_span_runs", &[]),
            rounds: reg.counter("pim_rounds_total", &[]),
            io_time: reg.counter("pim_io_time_total", &[]),
            pim_time: reg.counter("pim_time_total", &[]),
            messages: reg.counter("pim_messages_total", &[]),
            pim_work: reg.counter("pim_work_total", &[]),
            cpu_work: reg.counter("pim_cpu_work_total", &[]),
            wal_frames: reg.counter("pim_wal_frames_total", &[]),
            wal_bytes: reg.counter("pim_wal_bytes_total", &[]),
            fsyncs: reg.counter("pim_wal_fsyncs_total", &[]),
            snapshots: reg.counter("pim_snapshots_total", &[]),
            compacted: reg.counter("pim_compacted_segments_total", &[]),
            ops,
            reg,
        }
    }

    /// Publish one committed run: its family and length.
    pub(crate) fn after_run(&mut self, kind: OpKind, len: u64) {
        self.reg.add(self.ops[op_index(kind)], len);
        self.reg.add(self.runs, 1);
        self.reg.observe(self.run_len, len);
    }

    /// Publish one committed span: how many runs shared its rounds, and
    /// the machine cost it accrued (`delta` = metrics after − metrics
    /// before; co-scheduled runs share rounds, so cost is per span).
    pub(crate) fn after_span(&mut self, runs: u64, delta: Metrics) {
        self.reg.observe(self.span_runs, runs);
        self.reg.add(self.rounds, delta.rounds);
        self.reg.add(self.io_time, delta.io_time);
        self.reg.add(self.pim_time, delta.pim_time);
        self.reg.add(self.messages, delta.total_messages);
        self.reg.add(self.pim_work, delta.total_pim_work);
        self.reg.add(self.cpu_work, delta.cpu_work);
    }

    /// Publish the durable layer's running totals (absolute, via
    /// [`Telemetry::store`] — the layer keeps its own counts).
    pub(crate) fn publish_durable(&mut self, s: DurableStats) {
        self.reg.store(self.wal_frames, s.wal_frames);
        self.reg.store(self.wal_bytes, s.wal_bytes);
        self.reg.store(self.fsyncs, s.fsyncs);
        self.reg.store(self.snapshots, s.snapshots);
        self.reg.store(self.compacted, s.compacted_segments);
    }
}

impl PimSkipList {
    /// Turn on telemetry: from now on every committed run publishes
    /// per-op counters, run-length distribution, and machine-cost deltas
    /// into a [`Telemetry`] registry (and the durable layer's I/O
    /// counters are folded in at snapshot time). Idempotent. Dark
    /// structures pay one branch per run and behave bit-identically.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(CoreTelemetry::new()));
        }
    }

    /// [`PimSkipList::enable_telemetry`], but every series this machine
    /// publishes carries the given base labels (the cluster tier passes
    /// `shard="i"`). Idempotent; a registry already lit keeps its labels.
    pub fn enable_telemetry_with_labels(&mut self, base: &[(&str, &str)]) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(CoreTelemetry::new_labeled(base)));
        }
    }

    /// Is telemetry enabled?
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Mutable access to the registry, for layered front-ends (the
    /// service tier) that register their own series and emit lifecycle
    /// events into the same registry (`None` when dark).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut().map(|t| &mut t.reg)
    }

    /// Freeze the registry into a render-ready
    /// [`pim_runtime::TelemetrySnapshot`], folding in the durable
    /// layer's current I/O totals (`None` when dark).
    pub fn telemetry_snapshot(&mut self) -> Option<pim_runtime::TelemetrySnapshot> {
        let stats = self.durable_stats();
        let t = self.telemetry.as_deref_mut()?;
        if let Some(s) = stats {
            t.publish_durable(s);
        }
        Some(t.reg.snapshot())
    }

    /// Detach and return the registry (telemetry goes dark again;
    /// `None` if it never was lit). Folds in durable totals first.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        let stats = self.durable_stats();
        let mut t = self.telemetry.take()?;
        if let Some(s) = stats {
            t.publish_durable(s);
        }
        Some(t.reg)
    }
}
