//! SVC: the service-layer benchmark — sustained throughput and latency
//! percentiles of the `pim-service` request scheduler under open-loop
//! arrivals.
//!
//! Closed-loop batch benchmarks (Table 1) measure the data structure;
//! this experiment measures the *system*: a deterministic Poisson/Zipf
//! arrival schedule (see [`pim_workloads::arrival`]) is fed through a
//! [`PimService`] at a sweep of coalescing policies (max batch ×
//! max linger), and each point reports sustained throughput in both
//! clocks — ops per machine round (deterministic) and ops per wall-clock
//! second (the only thread-count-sensitive column) — plus p50/p95/p99/p999
//! request latency in service ticks and machine rounds, queue depth, and
//! backpressure rejections.
//!
//! `--out DIR` additionally runs one instrumented session (probe + round
//! trace + telemetry) and writes four files; see [`service_trace_export`].
//! The tier-1 `tests/tests/determinism.rs` compares every sweep point
//! (all but ops/sec) and the four files at 1 and 8 pool threads.

use std::time::Instant;

use pim_core::{Op, RangeFunc};
use pim_service::{PimService, ServiceConfig};
use pim_workloads::{ArrivalEvent, ArrivalGen, ArrivalOp, OpMix};

use crate::measure::{build_loaded_list, BatchCosts};

/// Map a workload-level arrival onto the structure's typed operation
/// (1:1; range arrivals become `Sum` aggregates).
pub fn to_op(a: ArrivalOp) -> Op {
    match a {
        ArrivalOp::Get(key) => Op::Get { key },
        ArrivalOp::Update(key, value) => Op::Update { key, value },
        ArrivalOp::Upsert(key, value) => Op::Upsert { key, value },
        ArrivalOp::Delete(key) => Op::Delete { key },
        ArrivalOp::Predecessor(key) => Op::Predecessor { key },
        ArrivalOp::Successor(key) => Op::Successor { key },
        ArrivalOp::RangeSum(lo, hi) => Op::Range {
            lo,
            hi,
            func: RangeFunc::Sum,
        },
    }
}

/// One measured policy point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePoint {
    /// Policy: dispatch threshold / batch cap.
    pub max_batch: usize,
    /// Policy: linger bound in ticks.
    pub max_linger: u64,
    /// Requests completed (submitted minus rejected).
    pub completed: u64,
    /// Requests refused by backpressure.
    pub rejected: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Machine rounds consumed by the run.
    pub rounds: u64,
    /// Completed ops per machine round (deterministic throughput).
    pub ops_per_round: f64,
    /// Completed ops per wall-clock second (thread-count sensitive).
    pub ops_per_sec: f64,
    /// p50/p95/p99/p999 request latency in service ticks.
    pub latency_ticks: [u64; 4],
    /// p50/p95/p99/p999 request latency in machine rounds (p999 exposes
    /// the one-in-a-thousand straggler a coalescing policy parks behind a
    /// full queue — invisible at p99 on these sweep sizes).
    pub latency_rounds: [u64; 4],
    /// Largest queue depth observed at a tick boundary.
    pub max_queue_depth: u64,
    /// Mean requests per dispatched batch.
    pub mean_occupancy: f64,
}

/// Drive one service run: `schedule` through a fresh loaded list under
/// the given policy. Returns the measured point.
pub fn run_service_point(
    p: u32,
    n: usize,
    seed: u64,
    schedule: &[ArrivalEvent],
    max_batch: usize,
    max_linger: u64,
) -> ServicePoint {
    let (list, _keys) = build_loaded_list(p, n, seed);
    let rounds_before = list.metrics().rounds;
    let cfg = ServiceConfig::new(max_batch).with_max_linger(max_linger);
    let mut svc = PimService::new(list, cfg);

    let t = Instant::now();
    let mut i = 0;
    let last_tick = schedule.last().map_or(0, |e| e.tick);
    for tick in 0..=last_tick {
        while i < schedule.len() && schedule[i].tick == tick {
            // Backpressure rejections are part of the measurement.
            let _ = svc.submit(to_op(schedule[i].op));
            i += 1;
        }
        std::hint::black_box(svc.tick());
    }
    std::hint::black_box(svc.flush());
    let secs = t.elapsed().as_secs_f64();

    let stats = svc.stats().clone();
    let list = svc.into_list();
    let rounds = list.metrics().rounds - rounds_before;
    ServicePoint {
        max_batch,
        max_linger,
        completed: stats.completed,
        rejected: stats.rejected,
        batches: stats.batches,
        rounds,
        ops_per_round: stats.completed as f64 / rounds.max(1) as f64,
        ops_per_sec: stats.completed as f64 / secs.max(1e-12),
        latency_ticks: [
            stats.latency_ticks.p50(),
            stats.latency_ticks.p95(),
            stats.latency_ticks.p99(),
            stats.latency_ticks.p999(),
        ],
        latency_rounds: [
            stats.latency_rounds.p50(),
            stats.latency_rounds.p95(),
            stats.latency_rounds.p99(),
            stats.latency_rounds.p999(),
        ],
        max_queue_depth: stats.queue_depth.max(),
        mean_occupancy: stats.batch_occupancy.mean(),
    }
}

/// The deterministic arrival schedule every sweep point replays: Zipf(0.8)
/// keys over the resident set, [`OpMix::mixed`] op types, Poisson arrivals
/// at `rate` per tick.
pub fn service_schedule(n: usize, seed: u64, rate: f64, ticks: u64) -> Vec<ArrivalEvent> {
    // The same derivation as build_loaded_list's resident keys (they are
    // independent of P), without paying for a build.
    let mut gen = pim_workloads::PointGen::new(seed ^ 0x10AD, 0, (n as i64) * 64);
    let mut resident = gen.distinct_uniform(n);
    resident.sort_unstable();
    ArrivalGen::new(seed ^ 0x5E12_71CE, resident, 0.8, rate, OpMix::mixed())
        .with_range_span((n as i64) * 4)
        .schedule(ticks)
}

/// The machine, arrival schedule and coalescing-policy grid of the SVC
/// sweep.
#[derive(Debug, Clone)]
pub struct ServiceSweep {
    /// Modules.
    pub p: u32,
    /// Resident keys.
    pub n: usize,
    /// Ticks of arrivals.
    pub ticks: u64,
    /// Mean arrivals per tick.
    pub rate: f64,
    /// The schedule every point replays.
    pub schedule: Vec<ArrivalEvent>,
    /// `(max_batch, max_linger)` of each point, in table order.
    pub policies: Vec<(usize, u64)>,
}

impl ServiceSweep {
    /// The sweep `experiments service` runs; `quick` shrinks sizes to CI
    /// scale.
    pub fn new(quick: bool, seed: u64) -> Self {
        let (p, n, ticks) = if quick {
            (16, 4_000, 24)
        } else {
            (32, 16_000, 48)
        };
        let lg = u64::from(pim_runtime::ceil_log2(u64::from(p)));
        let small = (u64::from(p) * lg) as usize;
        let large = (u64::from(p) * lg * lg) as usize;
        let rate = large as f64; // ~one large batch arriving per tick
        let policies = [small, large, 2 * large]
            .into_iter()
            .flat_map(|b| [1u64, 4, 16].map(|l| (b, l)))
            .collect();
        ServiceSweep {
            p,
            n,
            ticks,
            rate,
            schedule: service_schedule(n, seed, rate, ticks),
            policies,
        }
    }
}

/// SVC: run the policy sweep and print the table. `quick` shrinks sizes to
/// CI scale.
pub fn run_service(quick: bool, seed: u64) {
    let ServiceSweep {
        p,
        n,
        ticks,
        rate,
        schedule,
        policies,
    } = ServiceSweep::new(quick, seed);

    println!(
        "== Service layer: open-loop mixed stream (P = {p}, n = {n}, λ = {rate:.0}/tick, {} arrivals over {ticks} ticks) ==",
        schedule.len()
    );
    println!(
        "{:>6} {:>7} {:>9} {:>7} {:>8} {:>8} {:>10} {:>12} {:>22} {:>25} {:>7} {:>7}",
        "batch",
        "linger",
        "completed",
        "reject",
        "batches",
        "rounds",
        "ops/round",
        "ops/sec",
        "lat ticks 50/95/99/999",
        "lat rounds 50/95/99/999",
        "maxQ",
        "occ"
    );
    for (max_batch, max_linger) in policies {
        let pt = run_service_point(p, n, seed, &schedule, max_batch, max_linger);
        println!(
            "{:>6} {:>7} {:>9} {:>7} {:>8} {:>8} {:>10.2} {:>12.0} {:>7}/{:>4}/{:>4}/{:>4} {:>10}/{:>4}/{:>4}/{:>4} {:>7} {:>7.1}",
            pt.max_batch,
            pt.max_linger,
            pt.completed,
            pt.rejected,
            pt.batches,
            pt.rounds,
            pt.ops_per_round,
            pt.ops_per_sec,
            pt.latency_ticks[0],
            pt.latency_ticks[1],
            pt.latency_ticks[2],
            pt.latency_ticks[3],
            pt.latency_rounds[0],
            pt.latency_rounds[1],
            pt.latency_rounds[2],
            pt.latency_rounds[3],
            pt.max_queue_depth,
            pt.mean_occupancy,
        );
    }
    println!("(ops/round and both latency columns are deterministic; ops/sec is the wall clock)");
}

/// SVC-TRACE: one instrumented service session — probe + round trace +
/// telemetry on, the mixed schedule through the service — exported as
/// `DIR/trace.jsonl` (spans, rounds and request-lifecycle events) and
/// `DIR/metrics.prom` (Prometheus text exposition). Every byte of both
/// files is thread-count invariant; the tier-1 `tests/tests/determinism.rs`
/// compares them at 1 and 8 pool threads.
pub fn service_trace_export(out_dir: &str, p: u32, n: usize, seed: u64) -> std::io::Result<()> {
    let (mut list, _keys) = build_loaded_list(p, n, seed);
    list.enable_tracing_with_cap(1 << 16);
    list.enable_probe();
    list.enable_telemetry();

    let lg = u64::from(pim_runtime::ceil_log2(u64::from(p)));
    let large = (u64::from(p) * lg * lg) as usize;
    let schedule = service_schedule(n, seed, large as f64, 8);
    let cfg = ServiceConfig::new(large).with_max_linger(2);
    let mut svc = PimService::new(list, cfg);
    let mut i = 0;
    let last_tick = schedule.last().map_or(0, |e| e.tick);
    for tick in 0..=last_tick {
        while i < schedule.len() && schedule[i].tick == tick {
            let _ = svc.submit(to_op(schedule[i].op));
            i += 1;
        }
        svc.tick();
    }
    svc.flush();

    let mut list = svc.into_list();
    let report = list.take_probe().expect("probe was enabled");
    let snapshot = list.telemetry_snapshot().expect("telemetry was enabled");
    let telemetry = list.take_telemetry().expect("telemetry was enabled");
    let trace = list.take_trace();
    let bundle = pim_runtime::ExportBundle {
        p,
        trace: &trace,
        report: Some(&report),
        events: Some(&telemetry),
    };
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        format!("{out_dir}/trace.jsonl"),
        pim_runtime::rounds_jsonl(&bundle),
    )?;
    std::fs::write(
        format!("{out_dir}/metrics.prom"),
        snapshot.render_prometheus(),
    )?;

    println!("== Service trace: per-phase cost breakdown (P = {p}, n = {n}) ==");
    println!(
        "{:<40} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "phase", "calls", "rounds", "IO", "PIM", "msgs", "CPUw", "sharedM"
    );
    for (path, _depth, count, stats) in report.by_path() {
        let c = BatchCosts::from_span_stats(count as usize, &stats);
        println!(
            "{:<40} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            path,
            count,
            c.rounds,
            c.io_time,
            c.pim_time,
            c.total_messages,
            c.cpu_work,
            c.shared_mem_peak,
        );
    }
    println!("wrote {out_dir}/trace.jsonl and {out_dir}/metrics.prom");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_point_are_deterministic() {
        let sched = service_schedule(300, 7, 16.0, 6);
        assert_eq!(sched, service_schedule(300, 7, 16.0, 6));
        let a = run_service_point(4, 300, 7, &sched, 16, 2);
        let b = run_service_point(4, 300, 7, &sched, 16, 2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.latency_ticks, b.latency_ticks);
        assert_eq!(a.latency_rounds, b.latency_rounds);
        assert!(a.completed > 0);
        assert!(a.ops_per_round > 0.0);
    }

    #[test]
    fn bigger_batches_spend_fewer_rounds() {
        // The paper's economy of scale: the same arrival stream coalesced
        // into larger batches amortises the O(log)-round critical path
        // over more operations.
        let sched = service_schedule(600, 11, 48.0, 8);
        let small = run_service_point(8, 600, 11, &sched, 24, 4);
        let large = run_service_point(8, 600, 11, &sched, 192, 4);
        assert!(
            large.ops_per_round > small.ops_per_round,
            "large {} vs small {}",
            large.ops_per_round,
            small.ops_per_round
        );
    }
}
