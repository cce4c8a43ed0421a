//! The `--trace 1` run: per-layer numbers, none of them bounded.
//!
//! Wall numbers are taken from the benchmark's side of each layer (spans,
//! [`TimedBackend`], micro-kernels over the lower crates' public
//! functions); model numbers come from the public probe span table and
//! repeat exactly. Every session here runs the same fixed cycles (a
//! quarter of the end-to-end phase) of the same stream. A ratio between
//! two configurations is the median over [`SEGMENTS`] interleaved pieces:
//! both sessions are built first, then take turns piece by piece
//! (alternating which goes first), so a slow spell of the host hits both
//! sides of a ratio alike.

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use pim_core::prelude::*;
use pim_hashtable::deamortized::DeamortizedMap;
use pim_primitives::{prefix, semisort, sort};
use pim_runtime::{ModuleCtx, PimModule, PimSystem, ProbeReport};

use crate::gen::{kind_index, resident_pairs, skew_batches, SplitMix64, Workload, BATCH, N, P};
use crate::oracle::Oracle;
use crate::run::{
    durability, measured_cycles, summarize, whole_segments, Outcome, Session, Variant, SEGMENTS,
};
use crate::stats::median;
use crate::trace::{Machine, TimedBackend, Tracer};

/// Warm recoveries timed after the cold one; `durable.recover_s` is
/// their median.
const RECOVERIES: usize = 3;

/// The per-layer values measured so far, by name. `main` prints them in
/// the order and with the units `BENCHMARK.json` gives; a layer the
/// workload leaves idle reads 0.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn count(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Model costs summed over the probe spans whose path (its segments)
/// satisfies `pick`. Span stats are exclusive, so any subset adds up.
fn span_cost(report: &ProbeReport, pick: impl Fn(&[&str]) -> bool) -> pim_runtime::Metrics {
    let mut sum = pim_runtime::Metrics::default();
    for (path, _, _, m) in report.by_path() {
        let segments: Vec<&str> = path.split(" > ").collect();
        if pick(&segments) {
            sum.rounds += m.rounds;
            sum.io_time += m.io_time;
            sum.pim_time += m.pim_time;
            sum.cpu_work += m.cpu_work;
        }
    }
    sum
}

/// Two finished sessions over the same cycles, and per interleaved piece
/// the time `other` spent inside the system over the time `base` did.
struct Pair<A, B> {
    other_over_base: Vec<f64>,
    base: (Outcome, A, Oracle),
    other: (Outcome, B, Oracle),
}

/// Drive `base` and `other` through the same `cycles` of the same stream,
/// taking turns piece by piece; their checked and failed ops go to `layers`.
fn paired<A: Machine, B: Machine>(
    layers: &mut Layers,
    workload: Workload,
    seed: u64,
    cycles: u64,
    base: A,
    other: B,
    other_tracer: &Rc<Tracer>,
) -> Pair<A, B> {
    let mut base = Session::start(workload, base, seed, &Tracer::new(false));
    let mut other = Session::start(workload, other, seed, other_tracer);
    let piece = cycles / SEGMENTS as u64;
    let other_over_base = (0..SEGMENTS)
        .map(|turn| {
            let (base_ns, other_ns) = if turn % 2 == 0 {
                let base_ns = base.advance(piece);
                (base_ns, other.advance(piece))
            } else {
                let other_ns = other.advance(piece);
                (base.advance(piece), other_ns)
            };
            other_ns as f64 / base_ns.max(1) as f64
        })
        .collect();
    let (base, other) = (base.finish(), other.finish());
    layers.count(&base.0);
    layers.count(&other.0);
    Pair {
        other_over_base,
        base,
        other,
    }
}

pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out_dir: &Path,
) -> Layers {
    let mut layers = Layers::default();
    let pairs = resident_pairs();
    let shipped = Variant::shipped(workload);
    let cycles = whole_segments(workload, measured_cycles(workload, seconds) / 4);
    let (base_dir, other_dir) = (dir.join("base"), dir.join("other"));
    // `name` = median of the per-piece ratios (inverted where the shipped
    // side is the "on" side), printed with the pieces it is the median of.
    let set_ratio = |layers: &mut Layers, name: &'static str, ratios: &[f64], invert: bool| {
        let ratios: Vec<f64> = ratios
            .iter()
            .map(|&r| if invert { 1.0 / r } else { r })
            .collect();
        println!("{name} pieces {ratios:.3?}");
        layers.set(name, median(&ratios));
    };

    // The shipped path untraced (the base of every ratio, and the wall
    // clock of this run) against itself traced: probe lit, spans
    // recorded, backend timed.
    let tracer = Tracer::new(true);
    let mut traced_list = shipped.build_list(&pairs, &other_dir);
    traced_list.enable_probe();
    let pair = paired(
        &mut layers,
        workload,
        seed,
        cycles,
        shipped.build_list(&pairs, &base_dir),
        TimedBackend::new(traced_list, tracer.clone()),
        &tracer,
    );
    let (base, mut base_list, mut oracle) = pair.base;
    let (traced, mut backend, _) = pair.other;
    // Traced ÷ untraced `ops_per_s` = untraced ÷ traced time.
    set_ratio(
        &mut layers,
        "trace_overhead_ratio",
        &pair.other_over_base,
        true,
    );
    let wall = summarize(&base);
    println!(
        "segment ops_per_s {:.0?}  p90 ms {:.3?}  ({} latency samples in the thinnest segment)",
        wall.segment_ops_per_s, wall.segment_p90_ms, wall.samples
    );
    layers.set("ops_per_s", wall.ops_per_s);
    layers.set("latency_ms_p50", wall.p50_ms);
    layers.set("latency_ms_p90", wall.p90_ms);
    layers.set("latency_ms_p99", wall.p99_ms);
    layers.set("gen.ns_per_op", per(base.gen_ns, base.ops()));
    layers.set("verify.ns_per_op", per(base.verify_ns, base.ops()));

    // Skew independence of batch search, on the base machine as it stands.
    let rounds: Vec<u64> = skew_batches(seed)
        .iter()
        .map(|ops| {
            let before = base_list.model().rounds;
            let replies = base_list.execute(ops);
            layers.failed += oracle.check_all(ops, &replies);
            layers.attempted += ops.len() as u64;
            base_list.model().rounds - before
        })
        .collect();
    layers.set(
        "core.search.skew_rounds_ratio",
        per(rounds[1] + rounds[2], 2 * rounds[0]),
    );
    drop(base_list);

    let report = backend.inner.take_probe().expect("probe was enabled");
    core_metrics(&mut layers, &traced, &backend, &report);
    let stats = traced.service.clone().unwrap_or_default();
    layers.set(
        "service.submit_ns_per_op",
        per(traced.submit_ns, traced.ops()),
    );
    layers.set(
        "service.self_ms_per_kop",
        per(tracer.self_ns("tick"), backend.ops) * 1e3 / 1e6,
    );
    layers.set("service.batch_occupancy_mean", stats.batch_occupancy.mean());
    layers.set(
        "service.latency_ticks_p50",
        stats.latency_ticks.p50() as f64,
    );
    layers.set(
        "service.latency_rounds_p50",
        stats.latency_rounds.p50() as f64,
    );
    layers.set("service.rejected", stats.rejected as f64);
    let durable = backend.inner.durable_stats().unwrap_or_default();
    layers.set(
        "durable.wal_bytes_per_op",
        per(durable.wal_bytes, backend.ops),
    );
    layers.set(
        "durable.wal_frames_per_kop",
        per(durable.wal_frames * 1000, backend.ops),
    );
    layers.set(
        "durable.fsyncs_per_kop",
        per(durable.fsyncs * 1000, backend.ops),
    );
    let syncs: Vec<f64> = backend.sync_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    layers.set("durable.fsync_ms_p50", median(&syncs));
    if shipped.durable {
        recovery(&mut layers, backend.inner, &other_dir, &tracer);
    } else {
        for name in [
            "durable.recover_cold_s",
            "durable.recover_s",
            "durable.snapshot_ms",
            "durable.snapshot_load_keys_per_s",
            "durable.replay_ops_per_s",
        ] {
            layers.set(name, 0.0);
        }
    }

    // One non-default path at a time against a fresh base.
    let hot = paired(
        &mut layers,
        workload,
        seed,
        cycles,
        shipped.build_list(&pairs, &base_dir),
        Variant {
            push_pull: true,
            ..shipped
        }
        .build_list(&pairs, &other_dir),
        &Tracer::new(false),
    );
    let on = &hot.other.0;
    layers.set(
        "hotcache.on.rounds_per_kop",
        per(on.model.rounds * 1000, on.ops()),
    );
    layers.set(
        "hotcache.on.cpu_work_per_op",
        per(on.model.cpu_work, on.ops()),
    );
    set_ratio(
        &mut layers,
        "hotcache.on_over_off_time_ratio",
        &hot.other_over_base,
        false,
    );
    // The next pair builds in the same directories.
    drop(hot);

    // `service` ships lit and durable, the others dark: toggle, then
    // orient both ratios as on ÷ off.
    let toggles: [(&'static str, Variant, bool); 3] = [
        (
            "pipeline.on_over_off_time_ratio",
            Variant {
                pipeline: true,
                ..shipped
            },
            false,
        ),
        (
            "telemetry.lit_over_dark_time_ratio",
            Variant {
                telemetry: !shipped.telemetry,
                ..shipped
            },
            shipped.telemetry,
        ),
        (
            "durable.append_overhead_ratio",
            Variant {
                durable: !shipped.durable,
                ..shipped
            },
            shipped.durable,
        ),
    ];
    for (name, variant, shipped_is_on) in toggles {
        let pair = paired(
            &mut layers,
            workload,
            seed,
            cycles,
            shipped.build_list(&pairs, &base_dir),
            variant.build_list(&pairs, &other_dir),
            &Tracer::new(false),
        );
        set_ratio(&mut layers, name, &pair.other_over_base, shipped_is_on);
    }
    let sharded = paired(
        &mut layers,
        workload,
        seed,
        cycles,
        shipped.build_list(&pairs, &base_dir),
        shipped.build_cluster(&pairs, &other_dir),
        &Tracer::new(false),
    );
    set_ratio(
        &mut layers,
        "cluster.s2_over_single_time_ratio",
        &sharded.other_over_base,
        false,
    );
    drop(sharded);
    std::fs::remove_dir_all(dir).ok();

    micro_kernels(&mut layers, seed);

    print_spans(&tracer);
    std::fs::create_dir_all(out_dir).ok();
    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    layers
}

/// `core.*` and `runtime.*_balance` from the traced run's probe report.
fn core_metrics(
    layers: &mut Layers,
    traced: &Outcome,
    backend: &TimedBackend<PimSkipList>,
    report: &ProbeReport,
) {
    let kind = |k: OpKind| traced.kinds[kind_index(k)];
    let has = |segments: &[&str], name: &str| segments.contains(&name);
    let searching = |s: &[&str]| s.iter().any(|seg| seg.starts_with("search"));

    let get = span_cost(report, |s| has(s, "get"));
    layers.set("core.get.io_per_op", per(get.io_time, kind(OpKind::Get)));
    layers.set("core.get.pim_per_op", per(get.pim_time, kind(OpKind::Get)));

    let search = span_cost(report, |s| has(s, "successor") || has(s, "predecessor"));
    let searches = kind(OpKind::Successor) + kind(OpKind::Predecessor);
    layers.set(
        "core.search.rounds_per_kop",
        per(search.rounds * 1000, searches),
    );
    layers.set("core.search.io_per_op", per(search.io_time, searches));
    layers.set("core.search.pim_per_op", per(search.pim_time, searches));
    layers.set(
        "core.search.cpu_work_per_op",
        per(search.cpu_work, searches),
    );

    let upserts = kind(OpKind::Upsert);
    let in_upsert = |s: &[&str], name: &str| has(s, "upsert") && has(s, name);
    layers.set(
        "core.upsert.search.rounds_per_kop",
        per(
            span_cost(report, |s| has(s, "upsert") && searching(s)).rounds * 1000,
            upserts,
        ),
    );
    layers.set(
        "core.upsert.alloc.io_per_op",
        per(
            span_cost(report, |s| in_upsert(s, "alloc")).io_time,
            upserts,
        ),
    );
    layers.set(
        "core.upsert.link.rounds_per_kop",
        per(
            span_cost(report, |s| in_upsert(s, "link")).rounds * 1000,
            upserts,
        ),
    );

    let deletes = kind(OpKind::Delete);
    layers.set(
        "core.delete.mark.io_per_op",
        per(
            span_cost(report, |s| has(s, "delete/mark")).io_time,
            deletes,
        ),
    );
    layers.set(
        "core.delete.contract.cpu_work_per_op",
        per(
            span_cost(report, |s| has(s, "delete/contract")).cpu_work,
            deletes,
        ),
    );
    layers.set(
        "core.delete.unlink.io_per_op",
        per(
            span_cost(report, |s| has(s, "delete/unlink")).io_time,
            deletes,
        ),
    );

    layers.set(
        "core.execute_ms_per_kop",
        per(backend.execute_ns, backend.ops) * 1e3 / 1e6,
    );
    layers.set("core.runs_per_kop", per(backend.runs * 1000, backend.ops));
    layers.set("runtime.io_balance", traced.model.pim_balance_io(P));
    layers.set("runtime.pim_balance", traced.model.pim_balance_work(P));
}

/// Recovery of the durable `service` stack, from the directory the traced
/// stream left behind: the newest automatic snapshot plus the ops logged
/// since (a fixed count for a given `--seconds`, printed below).
fn recovery(layers: &mut Layers, list: PimSkipList, dir: &Path, tracer: &Tracer) {
    let cfg = list.config().clone();
    let want = list.collect_items();
    drop(list);
    let recover = |name: &'static str| {
        let _span = tracer.span(name);
        let t = Instant::now();
        let (list, report) = PimSkipList::recover_from_dir(cfg.clone(), dir, durability())
            .unwrap_or_else(|e| panic!("recover_from_dir: {e}"));
        (list, report, t.elapsed().as_secs_f64())
    };
    let (cold, _, cold_s) = recover("recover");
    layers.attempted += 1;
    layers.failed += u64::from(cold.collect_items() != want);
    drop(cold);
    layers.set("durable.recover_cold_s", cold_s);
    let mut warm_runs = Vec::new();
    let (mut warm, mut report, first_s) = recover("recover");
    warm_runs.push(first_s);
    while warm_runs.len() < RECOVERIES {
        drop(warm);
        let (list, again, s) = recover("recover");
        (warm, report) = (list, again);
        warm_runs.push(s);
    }
    let warm_s = median(&warm_runs);
    println!(
        "recoveries: cold {cold_s:.3} s, warm {warm_runs:.3?} s, {} ops replayed",
        report.ops_replayed
    );
    layers.set("durable.recover_s", warm_s);

    let t = Instant::now();
    {
        let _span = tracer.span("snapshot");
        warm.snapshot_now()
            .unwrap_or_else(|e| panic!("snapshot_now: {e}"));
    }
    layers.set("durable.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(warm);
    let (loaded, _, load_s) = recover("recover");
    layers.set(
        "durable.snapshot_load_keys_per_s",
        loaded.len() as f64 / load_s,
    );
    layers.set(
        "durable.replay_ops_per_s",
        report.ops_replayed as f64 / (warm_s - load_s).max(1e-9),
    );
    drop(loaded);
    std::fs::remove_dir_all(dir).ok();
}

/// A module that forwards a task `hops` times round the ring, then replies.
struct Echo;

impl PimModule for Echo {
    type Task = u32;
    type Reply = u32;

    fn execute(&mut self, hops: u32, ctx: &mut ModuleCtx<'_, u32, u32>) {
        ctx.work(1);
        if hops == 0 {
            ctx.reply(0);
        } else {
            ctx.send((ctx.me() + 1) % P, hops - 1);
        }
    }
}

/// Wall-clock cost of the lower crates' public entry points at the sizes
/// the workloads use them: one batch, one module's share of the keys.
fn micro_kernels(layers: &mut Layers, seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x4B45_524E);
    let mut sys = PimSystem::new(P, |_| Echo);

    const ROUNDS: u64 = 2000;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        sys.broadcast(|_| 0);
        std::hint::black_box(sys.run_round());
    }
    layers.set(
        "runtime.round_us_empty",
        t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
    );

    let before = sys.metrics().total_messages;
    let t = Instant::now();
    for _ in 0..4 {
        for module in 0..P {
            for _ in 0..BATCH {
                sys.send(module, 1);
            }
        }
        std::hint::black_box(sys.run_to_quiescence());
    }
    let ns = t.elapsed().as_nanos() as u64;
    layers.set(
        "runtime.route_ns_per_msg",
        per(ns, sys.metrics().total_messages - before),
    );

    const REPS: u64 = 300;
    let keys: Vec<u64> = (0..BATCH).map(|_| rng.next()).collect();
    let half: Vec<u64> = keys.iter().map(|k| k % (BATCH as u64 / 2)).collect();
    let per_elem = |ns: u128| ns as f64 / (REPS * BATCH as u64) as f64;
    let mut buf = keys.clone();
    let t = Instant::now();
    for _ in 0..REPS {
        buf.copy_from_slice(&keys);
        sort::par_sort(std::hint::black_box(&mut buf));
    }
    layers.set(
        "primitives.sort_ns_per_key",
        per_elem(t.elapsed().as_nanos()),
    );
    let (mut tags, mut uniq) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for _ in 0..REPS {
        semisort::dedup_by_key_into(std::hint::black_box(&half), |&k| k, &mut tags, &mut uniq);
    }
    layers.set(
        "primitives.dedup_ns_per_key",
        per_elem(t.elapsed().as_nanos()),
    );
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(prefix::exclusive_scan(std::hint::black_box(&half)));
    }
    layers.set(
        "primitives.scan_ns_per_elem",
        per_elem(t.elapsed().as_nanos()),
    );

    let share = (N / u64::from(P)) as usize;
    let resident: Vec<i64> = (0..share).map(|_| rng.next() as i64 >> 1).collect();
    let mut map = DeamortizedMap::new(share, seed);
    for &k in &resident {
        map.insert(k, 1);
    }
    const PASSES: u64 = 100;
    let per_op = |ns: u128| ns as f64 / (PASSES * share as u64) as f64;
    let t = Instant::now();
    for _ in 0..PASSES {
        for &k in &resident {
            std::hint::black_box(map.get(k));
        }
    }
    layers.set("hashtable.get_ns", per_op(t.elapsed().as_nanos()));
    let fresh: Vec<i64> = resident.iter().map(|k| !k).collect();
    let (mut insert_ns, mut remove_ns) = (0, 0);
    for _ in 0..PASSES {
        let t = Instant::now();
        for &k in &fresh {
            std::hint::black_box(map.insert(k, 2));
        }
        insert_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for &k in &fresh {
            std::hint::black_box(map.remove(k));
        }
        remove_ns += t.elapsed().as_nanos();
    }
    layers.set("hashtable.insert_ns", per_op(insert_ns));
    layers.set("hashtable.remove_ns", per_op(remove_ns));
}

/// The traced run's span table: self time is a span's time minus its
/// children's.
fn print_spans(tracer: &Tracer) {
    println!(
        "{:<18} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for t in tracer.totals() {
        println!(
            "{:<18} {:>8} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
