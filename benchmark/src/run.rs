//! Building the structure and driving one workload against it: closed
//! loop, one client thread. Only calls into the system are inside the
//! timed window; generation and reply checking are outside it.

use std::collections::VecDeque;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use pim_cluster::{ClusterConfig, PimCluster};
use pim_core::prelude::*;
use pim_runtime::Metrics;
use pim_service::{Completion, PimService, ServiceConfig, ServiceStats};

use crate::gen::{Stream, Workload, BATCH, N, P, STRUCT_SEED};
use crate::oracle::{flipped, Oracle};
use crate::stats::{median, peak_rss_mb, weighted_quantile};
use crate::trace::{Machine, Tracer};

/// Ticks per group commit of the `service` workload. A tick submits half a
/// batch, so a batch dispatches every second tick and a group is three
/// dispatches: a request waits for one, two or three of them, in equal
/// shares, which puts the median inside the two-dispatch mode and p90
/// inside the three-dispatch mode. (With a group of four ticks the modes
/// are two, 50/50, and the median sits on the edge between them.)
pub const GROUP_TICKS: u64 = 6;
/// Automatic snapshot cadence of the durable `service` stack, in ops.
const SNAPSHOT_EVERY: u64 = 200_000;
/// Equal parts the measured phase is cut into; each wall-clock number is
/// the median of the per-segment values.
pub const SEGMENTS: usize = 5;

/// Which non-default paths a built structure has on.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub push_pull: bool,
    pub pipeline: bool,
    pub telemetry: bool,
    pub durable: bool,
}

impl Variant {
    /// The path a user gets: both accelerators dark; `service` is the
    /// production stack (durable, telemetry lit), the others a bare list.
    pub fn shipped(workload: Workload) -> Self {
        let stack = workload == Workload::Service;
        Variant {
            push_pull: false,
            pipeline: false,
            telemetry: stack,
            durable: stack,
        }
    }

    fn config(&self) -> Config {
        Config::new(P, N, STRUCT_SEED)
            .with_push_pull(self.push_pull)
            .with_pipeline(self.pipeline)
    }

    fn finish<B: Machine>(&self, mut machine: B, dir: &Path) -> B {
        if self.telemetry {
            machine.light_telemetry();
        }
        if self.durable {
            std::fs::remove_dir_all(dir).ok();
            machine
                .make_durable(dir, durability())
                .unwrap_or_else(|e| panic!("enable_durability in {}: {e}", dir.display()));
        }
        machine
    }

    /// One machine, loaded with `bulk_load`.
    pub fn build_list(&self, pairs: &[(Key, Value)], dir: &Path) -> PimSkipList {
        let mut list = PimSkipList::new(self.config());
        assert_eq!(
            list.config().batch_large(),
            BATCH,
            "BATCH is batch_large at P"
        );
        list.bulk_load(pairs);
        self.finish(list, dir)
    }

    /// Two shards behind the router, loaded through `execute` (the cluster
    /// has no bulk path).
    pub fn build_cluster(&self, pairs: &[(Key, Value)], dir: &Path) -> PimCluster {
        let mut cluster = PimCluster::new(ClusterConfig::new(self.config(), 2));
        for chunk in pairs.chunks(BATCH) {
            let ops: Vec<Op> = chunk
                .iter()
                .map(|&(key, value)| Op::Upsert { key, value })
                .collect();
            cluster.execute(&ops);
        }
        self.finish(cluster, dir)
    }
}

pub fn durability() -> DurabilityPolicy {
    DurabilityPolicy::default()
        .with_fsync(FsyncPolicy::Manual)
        .with_snapshot_every(SNAPSHOT_EVERY)
}

/// Cycles (`service`: ticks) in the measured phase of a run of `seconds`
/// nominal seconds. A fixed count, not a deadline: every run of a seed does
/// identical work whatever the host's speed, so the model costs repeat bit
/// for bit and two commits are compared on the same ops. The rates are
/// what each workload did per second, pool at its default of two threads,
/// on the 2-vCPU host the benchmark was defined on.
pub fn measured_cycles(workload: Workload, seconds: f64) -> u64 {
    let per_second = match workload {
        Workload::Point => 1500.0,
        Workload::Search => 75.0,
        Workload::Churn => 80.0,
        Workload::Service => 95.0,
    };
    whole_segments(workload, (per_second * seconds) as u64)
}

/// `cycles` rounded down to [`SEGMENTS`] equal segments, each of whole
/// commit groups on `service` (so everything submitted in a segment is
/// acknowledged in it), and at least one such unit per segment.
pub fn whole_segments(workload: Workload, cycles: u64) -> u64 {
    let unit = SEGMENTS as u64
        * match workload {
            Workload::Service => GROUP_TICKS,
            _ => 1,
        };
    (cycles / unit).max(1) * unit
}

/// Untimed cycles before the window, so buffers, towers of fresh keys and
/// the churn history are in steady state when timing starts.
fn warm_cycles(workload: Workload) -> u64 {
    match workload {
        Workload::Point => 64,
        Workload::Search | Workload::Churn => 4,
        Workload::Service => 2 * GROUP_TICKS,
    }
}

/// One cycle (`service`: one tick) of the measured phase.
pub struct Step {
    /// Time inside calls into the system.
    pub busy_ns: u64,
    pub ops: u32,
}

/// `weight` latency samples of `ns` each, belonging to step `step`.
pub struct Lat {
    pub step: u32,
    pub ns: u64,
    pub weight: u64,
}

#[derive(Default)]
pub struct Outcome {
    pub steps: Vec<Step>,
    pub lat: Vec<Lat>,
    /// Ops whose reply was checked (warm-up included).
    pub attempted: u64,
    /// Oracle mismatches, refused submits and requests never answered.
    pub failed: u64,
    /// Model costs of the measured phase.
    pub model: Metrics,
    /// `VmHWM` when the measured phase ended.
    pub peak_rss_mb: f64,
    pub gen_ns: u64,
    pub verify_ns: u64,
    /// `service` only: time in `submit`, scheduler stats.
    pub submit_ns: u64,
    pub service: Option<ServiceStats>,
    /// Ops generated per family, warm-up included (see `gen::kind_index`).
    pub kinds: [u64; 7],
}

impl Outcome {
    pub fn ops(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.ops)).sum()
    }

    pub fn busy_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.busy_ns).sum()
    }
}

/// `service` bookkeeping: what is in flight and the busy clock, which
/// advances only inside `submit` and `tick`.
#[derive(Default)]
struct InFlight {
    /// Submitted, not yet acknowledged: the op and its submit step
    /// (`None` during warm-up).
    pending: VecDeque<(Op, Option<u32>)>,
    next_id: u64,
    busy_ns: u64,
    /// Busy clock when each measured step began submitting.
    step_start: Vec<u64>,
}

enum Target<B: Machine> {
    /// `point`, `search`, `churn`: a cycle is one or two `execute_ops` calls.
    Direct(B),
    /// `service`: each tick submits half a batch one request at a time,
    /// then calls `tick()`; a latency sample is one request, submit →
    /// acknowledged completion, on the busy clock.
    Service(Box<PimService<B>>, InFlight),
}

/// One workload's stream being driven against one machine. The measured
/// phase can be advanced in pieces, so two sessions over the same stream
/// can be interleaved (see `layers.rs`).
pub struct Session<B: Machine> {
    stream: Stream,
    oracle: Oracle,
    tracer: Rc<Tracer>,
    target: Target<B>,
    out: Outcome,
    model_before: Metrics,
    /// `--self-test`: corrupt the next reply before it is checked.
    corrupt_next: bool,
    a: Vec<Op>,
    b: Vec<Op>,
}

impl<B: Machine> Session<B> {
    /// Wrap `machine`, run the warm-up and open the measured phase.
    pub fn start(workload: Workload, machine: B, seed: u64, tracer: &Rc<Tracer>) -> Self {
        let target = match workload {
            Workload::Service => {
                let cfg = ServiceConfig::new(BATCH).with_ack_after_fsync(GROUP_TICKS);
                Target::Service(Box::new(PimService::new(machine, cfg)), InFlight::default())
            }
            _ => Target::Direct(machine),
        };
        let mut session = Session {
            stream: Stream::new(workload, seed),
            oracle: Oracle::new(workload),
            tracer: tracer.clone(),
            target,
            out: Outcome::default(),
            model_before: Metrics::default(),
            corrupt_next: false,
            a: Vec::new(),
            b: Vec::new(),
        };
        for _ in 0..warm_cycles(workload) {
            session.cycle(false);
        }
        session.model_before = session.machine().model();
        session
    }

    fn machine(&self) -> &B {
        match &self.target {
            Target::Direct(machine) => machine,
            Target::Service(svc, _) => svc.list(),
        }
    }

    pub fn corrupt_next_reply(&mut self) {
        self.corrupt_next = true;
    }

    /// Run `cycles` more measured cycles (`service`: a multiple of
    /// [`GROUP_TICKS`]); returns the time they spent inside the system.
    pub fn advance(&mut self, cycles: u64) -> u64 {
        let from = self.out.steps.len();
        for _ in 0..cycles {
            self.cycle(true);
        }
        self.out.steps[from..].iter().map(|s| s.busy_ns).sum()
    }

    fn cycle(&mut self, measured: bool) {
        let step = measured.then_some(self.out.steps.len() as u32);
        self.tracer.set_cycle(self.out.steps.len() as u64);
        let t = Instant::now();
        {
            let _span = self.tracer.span("gen");
            self.stream.cycle(&mut self.a, &mut self.b);
        }
        let gen_ns = t.elapsed().as_nanos() as u64;
        let ops = (self.a.len() + self.b.len()) as u32;

        let (busy_ns, verify_ns) = match &mut self.target {
            Target::Direct(machine) => {
                let t = Instant::now();
                let mut first = machine.execute_ops(&self.a);
                // `point` cycles have no second batch.
                let second = if self.b.is_empty() {
                    Vec::new()
                } else {
                    machine.execute_ops(&self.b)
                };
                let busy_ns = t.elapsed().as_nanos() as u64;

                let t = Instant::now();
                let _span = self.tracer.span("verify");
                if std::mem::take(&mut self.corrupt_next) {
                    first[0] = flipped(&first[0]);
                }
                self.out.failed += self.oracle.check_all(&self.a, &first)
                    + self.oracle.check_all(&self.b, &second);
                self.out.attempted += u64::from(ops);
                if let Some(step) = step {
                    self.out.lat.push(Lat {
                        step,
                        ns: busy_ns,
                        weight: 1,
                    });
                }
                (busy_ns, t.elapsed().as_nanos() as u64)
            }
            Target::Service(svc, fly) => {
                if step.is_some() {
                    fly.step_start.push(fly.busy_ns);
                }
                let t = Instant::now();
                {
                    let _span = self.tracer.span("submit");
                    for &op in &self.a {
                        match svc.submit(op) {
                            Ok(_) => fly.pending.push_back((op, step)),
                            Err(_) => {
                                self.out.failed += 1;
                                self.out.attempted += 1;
                            }
                        }
                    }
                }
                let submit_ns = t.elapsed().as_nanos() as u64;
                let done = {
                    let _span = self.tracer.span("tick");
                    svc.tick()
                };
                let busy_ns = t.elapsed().as_nanos() as u64;
                fly.busy_ns += busy_ns;
                if measured {
                    self.out.submit_ns += submit_ns;
                }

                let t = Instant::now();
                let _span = self.tracer.span("verify");
                settle(
                    fly,
                    done,
                    &mut self.corrupt_next,
                    &mut self.oracle,
                    &mut self.out,
                );
                (busy_ns, t.elapsed().as_nanos() as u64)
            }
        };
        if measured {
            self.out.gen_ns += gen_ns;
            self.out.verify_ns += verify_ns;
            self.out.steps.push(Step { busy_ns, ops });
        }
    }

    /// Close the measured phase; hands back the machine and the oracle
    /// that mirrors its contents.
    pub fn finish(mut self) -> (Outcome, B, Oracle) {
        let machine = match self.target {
            Target::Direct(machine) => machine,
            Target::Service(mut svc, mut fly) => {
                // Nothing is left to flush when the phase ends on a group edge.
                let rest = svc.flush();
                settle(
                    &mut fly,
                    rest,
                    &mut self.corrupt_next,
                    &mut self.oracle,
                    &mut self.out,
                );
                self.out.failed += fly.pending.len() as u64;
                self.out.attempted += fly.pending.len() as u64;
                self.out.service = Some(svc.stats().clone());
                svc.into_list()
            }
        };
        self.out.model = machine.model() - self.model_before;
        self.out.peak_rss_mb = peak_rss_mb();
        self.out.kinds = self.stream.kinds;
        (self.out, machine, self.oracle)
    }
}

/// Check a tick's completions, one dispatched batch at a time (the oracle
/// follows the structure's per-run semantics, so it needs the batch edges),
/// and turn them into latency samples.
fn settle(
    fly: &mut InFlight,
    mut done: Vec<Completion>,
    corrupt_next: &mut bool,
    oracle: &mut Oracle,
    out: &mut Outcome,
) {
    if let Some(c) = done.first_mut() {
        if std::mem::take(corrupt_next) {
            c.reply = flipped(&c.reply);
        }
    }
    // A dispatch takes at most `BATCH` requests off the queue's head.
    for same_tick in done.chunk_by(|a, b| a.dispatched == b.dispatched) {
        for batch in same_tick.chunks(BATCH) {
            let (mut ops, mut replies) = (Vec::new(), Vec::new());
            for c in batch {
                let Some((op, step)) = fly.pending.pop_front() else {
                    out.failed += 1;
                    continue;
                };
                out.failed += u64::from(c.id != fly.next_id);
                fly.next_id += 1;
                ops.push(op);
                replies.push(c.reply.clone());
                let Some(step) = step else { continue };
                let ns = fly.busy_ns - fly.step_start[step as usize];
                match out.lat.last_mut() {
                    Some(last) if last.step == step && last.ns == ns => last.weight += 1,
                    _ => out.lat.push(Lat {
                        step,
                        ns,
                        weight: 1,
                    }),
                }
            }
            out.attempted += batch.len() as u64;
            out.failed += oracle.check_all(&ops, &replies);
        }
    }
}

/// Wall-clock numbers of a run: the measured phase is cut into
/// [`SEGMENTS`] equal segments and each number is the median of the
/// per-segment values, so a burst of host noise that hits a minority of
/// the segments does not move it. Nothing is left out: an automatic
/// snapshot or any other periodic cost inside the program is in every
/// segment it falls into.
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Over the whole phase, not per segment: a segment has too few
    /// samples beyond its own p99.
    pub p99_ms: f64,
    /// Latency samples in the thinnest segment.
    pub samples: u64,
    /// Throughput of every segment, in run order.
    pub segment_ops_per_s: Vec<f64>,
    pub segment_p90_ms: Vec<f64>,
}

pub fn summarize(out: &Outcome) -> Summary {
    let count = SEGMENTS.min(out.steps.len()).max(1);
    let mut samples = u64::MAX;
    let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..count {
        let steps = out.steps.len() * k / count..out.steps.len() * (k + 1) / count;
        let busy: u64 = out.steps[steps.clone()].iter().map(|s| s.busy_ns).sum();
        let ops: u64 = out.steps[steps.clone()]
            .iter()
            .map(|s| u64::from(s.ops))
            .sum();
        rate.push(ops as f64 / (busy.max(1) as f64 / 1e9));
        let mut lat: Vec<(u64, u64)> = out
            .lat
            .iter()
            .filter(|l| steps.contains(&(l.step as usize)))
            .map(|l| (l.ns, l.weight))
            .collect();
        samples = samples.min(lat.iter().map(|l| l.1).sum());
        p50.push(weighted_quantile(&mut lat, 0.5) as f64 / 1e6);
        p90.push(weighted_quantile(&mut lat, 0.9) as f64 / 1e6);
    }
    let mut all: Vec<(u64, u64)> = out.lat.iter().map(|l| (l.ns, l.weight)).collect();
    Summary {
        ops_per_s: median(&rate),
        p50_ms: median(&p50),
        p90_ms: median(&p90),
        p99_ms: weighted_quantile(&mut all, 0.99) as f64 / 1e6,
        samples,
        segment_ops_per_s: rate,
        segment_p90_ms: p90,
    }
}
