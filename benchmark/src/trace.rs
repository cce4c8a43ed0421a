//! The traced run's wall-clock spans, recorded from the benchmark's side of
//! each layer boundary: kept in memory, written as JSONL when the run ends.
//!
//! [`TimedBackend`] sits between `PimService` and the structure, so the
//! time a tick spends in `execute_ops` and `durable_sync` is known without
//! touching the program.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use pim_cluster::PimCluster;
use pim_core::prelude::*;
use pim_runtime::Metrics;
use pim_service::Backend;

/// What the benchmark needs of a structure beyond [`Backend`].
pub trait Machine: Backend {
    /// Accumulated model costs (a cluster reports rounds only: its
    /// variant run is compared on time).
    fn model(&self) -> Metrics;
    fn light_telemetry(&mut self);
    fn make_durable(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()>;
}

impl Machine for PimSkipList {
    fn model(&self) -> Metrics {
        self.metrics()
    }

    fn light_telemetry(&mut self) {
        self.enable_telemetry();
    }

    fn make_durable(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()> {
        self.enable_durability(dir, policy)
    }
}

impl Machine for PimCluster {
    fn model(&self) -> Metrics {
        Metrics {
            rounds: self.rounds(),
            ..Metrics::default()
        }
    }

    fn light_telemetry(&mut self) {
        self.enable_telemetry();
    }

    fn make_durable(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()> {
        self.enable_durability(dir, policy)
    }
}

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    cycle: u64,
}

#[derive(Default)]
struct Spans {
    recs: Vec<SpanRec>,
    open: Vec<u32>,
    cycle: u64,
}

/// Span recorder. Dark (`on == false`) it records nothing and a span costs
/// one branch.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Spans>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a>(Option<&'a Tracer>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.0 {
            let now = t.t0.elapsed().as_nanos() as u64;
            let mut s = t.spans.borrow_mut();
            let id = s.open.pop().expect("span guard without an open span");
            s.recs[id as usize].end_ns = now;
        }
    }
}

/// Per-name totals of a recorded run.
pub struct SpanTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Rc<Self> {
        Rc::new(Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::default(),
        })
    }

    /// Cycle id stamped on spans opened from now on.
    pub fn set_cycle(&self, cycle: u64) {
        if self.on {
            self.spans.borrow_mut().cycle = cycle;
        }
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard(None);
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut s = self.spans.borrow_mut();
        let id = s.recs.len() as u32;
        let (parent, cycle) = (s.open.last().copied(), s.cycle);
        s.recs.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            cycle,
        });
        s.open.push(id);
        SpanGuard(Some(self))
    }

    /// Totals by span name, in first-appearance order.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let s = self.spans.borrow();
        let mut child_ns = vec![0u64; s.recs.len()];
        for r in &s.recs {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: Vec<SpanTotal> = Vec::new();
        for (r, child) in s.recs.iter().zip(child_ns) {
            let dur = r.end_ns - r.start_ns;
            let slot = match out.iter().position(|t| t.name == r.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SpanTotal {
                        name: r.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            slot.count += 1;
            slot.total_ns += dur;
            slot.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Self time of the spans named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals()
            .iter()
            .find(|t| t.name == name)
            .map_or(0, |t| t.self_ns)
    }

    /// One JSON object per span: id, name, start/end in ns since the
    /// tracer was made, parent id (or null), cycle id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in self.spans.borrow().recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cycle\":{}}}",
                r.name, r.start_ns, r.end_ns, r.cycle
            )?;
        }
        f.flush()
    }
}

/// A [`Backend`] that times what passes through it.
pub struct TimedBackend<B> {
    pub inner: B,
    tracer: Rc<Tracer>,
    pub execute_ns: u64,
    /// Ops `execute_ops` received.
    pub ops: u64,
    pub sync_ns: Vec<u64>,
    /// Coalescible runs in the slices `execute_ops` received.
    pub runs: u64,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, tracer: Rc<Tracer>) -> Self {
        TimedBackend {
            inner,
            tracer,
            execute_ns: 0,
            ops: 0,
            sync_ns: Vec::new(),
            runs: 0,
        }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.ops += ops.len() as u64;
        let mut start = 0;
        while start < ops.len() {
            start = pim_core::op::run_end(ops, start);
            self.runs += 1;
        }
        let _span = self.tracer.span("backend.execute");
        let t = Instant::now();
        let replies = self.inner.execute_ops(ops);
        self.execute_ns += t.elapsed().as_nanos() as u64;
        replies
    }

    fn durable_sync(&mut self) -> PimResult<()> {
        let _span = self.tracer.span("backend.sync");
        let t = Instant::now();
        let out = self.inner.durable_sync();
        self.sync_ns.push(t.elapsed().as_nanos() as u64);
        out
    }

    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    fn span_enter(&mut self, name: &'static str) {
        self.inner.span_enter(name);
    }

    fn span_exit(&mut self) {
        self.inner.span_exit();
    }

    fn set_pipeline(&mut self, pipeline: bool) {
        self.inner.set_pipeline(pipeline);
    }

    fn set_push_pull(&mut self, on: bool) {
        self.inner.set_push_pull(on);
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }

    fn durable_synced_seq(&self) -> Option<u64> {
        self.inner.durable_synced_seq()
    }

    fn telemetry_mut(&mut self) -> Option<&mut pim_runtime::Telemetry> {
        self.inner.telemetry_mut()
    }

    fn recommended_batch(&self) -> usize {
        self.inner.recommended_batch()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn lane(&self, op: &Op) -> usize {
        self.inner.lane(op)
    }
}

impl<B: Machine> Machine for TimedBackend<B> {
    fn model(&self) -> Metrics {
        self.inner.model()
    }

    fn light_telemetry(&mut self) {
        self.inner.light_telemetry();
    }

    fn make_durable(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()> {
        self.inner.make_durable(dir, policy)
    }
}
