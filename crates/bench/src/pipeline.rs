//! Inter-batch round pipelining benchmark and the CI speedup gate.
//!
//! The pipelined op driver (`PIM_PIPELINE`, see `docs/MODEL.md`) overlaps
//! the CPU-side preprocessing of run *k+1* with the module rounds of run
//! *k*. This module measures the one observable that overlap is allowed
//! to change — elapsed time — and it measures it on streams built to
//! *have* overlap: alternating same-kind chunks, so each `execute` call
//! crosses many coalescible-run boundaries (a homogeneous batch is a
//! single run and pipelines nothing).
//!
//! The sweep times every episode at `pipelined ∈ {off, on}` ×
//! `PIM_THREADS ∈ {1, 2, 4, 8}` and emits a deterministic-schema JSON
//! report (`pim-pipeline-bench/1`, conventionally `BENCH_PR8.json`) with
//! the shared provenance header ([`crate::provenance`]). Every sweep also
//! byte-compares the replies of each configuration against the
//! 1-thread-unpipelined reference in-process — a report produced from a
//! diverging engine is a panic, not a number.
//!
//! [`speedup_gate`] is the CI teeth: it *fails* unless the pipelined
//! engine at ≥ 2 threads beats the unpipelined 1-thread throughput on the
//! gate ops ([`GATE_OPS`]). Speedup evidence is only meaningful on a
//! multi-core host, so the gate reads whichever report was produced on
//! one — the current run when CI has cores, else the recorded multi-core
//! baseline (`ci/bench-baseline-mc.json`) — and errors loudly when
//! neither qualifies rather than passing vacuously.

use std::time::Instant;

use pim_core::{Key, Op, Reply};
use pim_runtime::export::{num, str as jstr, Json};
use pim_runtime::pool::{self, ExecConfig};
use pim_workloads::PointGen;

use crate::measure::build_loaded_list;

/// Schema tag written into every report.
pub const SCHEMA: &str = "pim-pipeline-bench/1";

/// Thread ladder every run sweeps. Fixed (not host-derived) so the report
/// schema is identical on every machine.
pub const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Episodes the speedup gate requires multi-core evidence for.
pub const GATE_OPS: [&str; 2] = ["Get", "Upsert"];

/// All episodes the sweep times, in report order.
pub const OPS: [&str; 2] = ["Get", "Upsert"];

/// Sizing and repetition knobs for one run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Modules.
    pub p: u32,
    /// Resident keys.
    pub n: usize,
    /// Same-kind chunks per episode stream (each episode alternates two
    /// kinds, so the stream splits into `2 × chunks` coalescible runs).
    pub chunks: usize,
    /// Minimum timed episodes per point.
    pub reps: usize,
    /// Minimum accumulated timed seconds per point.
    pub min_secs: f64,
    /// Workload seed.
    pub seed: u64,
}

impl PipelineParams {
    /// CI-sized run (`--quick`).
    pub fn quick(seed: u64) -> Self {
        PipelineParams {
            p: 16,
            n: 4_000,
            chunks: 8,
            reps: 3,
            min_secs: 0.05,
            seed,
        }
    }

    /// Full-sized run.
    pub fn full(seed: u64) -> Self {
        PipelineParams {
            p: 32,
            n: 16_000,
            chunks: 16,
            reps: 5,
            min_secs: 0.2,
            seed,
        }
    }
}

/// One timed point: an episode at one (pipeline, threads) configuration.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Episode name (one of [`OPS`]).
    pub op: &'static str,
    /// Whether the pipelined op driver was enabled.
    pub pipeline: bool,
    /// Worker threads the pool was configured with.
    pub threads: usize,
    /// Timed episodes per second (best of three trials).
    pub episodes_per_sec: f64,
}

/// One episode: a mixed op stream whose run structure feeds the pipeline.
struct Episode {
    op: &'static str,
    ops: Vec<Op>,
    runs: usize,
}

/// Count maximal coalescible runs, exactly as `execute` splits them.
fn count_runs(ops: &[Op]) -> usize {
    let mut runs = 0;
    let mut start = 0;
    while start < ops.len() {
        let mut end = start + 1;
        while end < ops.len() && ops[end].coalesces_with(&ops[start]) {
            end += 1;
        }
        runs += 1;
        start = end;
    }
    runs
}

/// Build the episode streams. Every episode leaves the resident set
/// unchanged, so repeated executions do identical model work:
///
/// * `Get`: alternating Get / in-place-Update chunks over resident keys —
///   the read-dominated shape `pim-service` produces when it regroups a
///   read epoch by kind.
/// * `Upsert`: alternating fresh-Upsert / Delete-of-the-same chunks — the
///   write-side shape, exercising pair staging and restoring the list.
fn build_episodes(params: &PipelineParams, keys: &[Key]) -> Vec<Episode> {
    let lg = u64::from(pim_runtime::ceil_log2(u64::from(params.p)));
    let chunk = (u64::from(params.p) * lg) as usize;
    let mut gen = PointGen::new(params.seed ^ 0x919E, 0, (params.n as i64) * 64);

    let mut get_ops = Vec::with_capacity(2 * params.chunks * chunk);
    for _ in 0..params.chunks {
        for k in gen.from_existing(keys, chunk) {
            get_ops.push(Op::Get { key: k });
        }
        for k in gen.from_existing(keys, chunk) {
            get_ops.push(Op::Update { key: k, value: 1 });
        }
    }

    let fresh: Vec<Key> = gen
        .distinct_uniform(params.chunks * chunk)
        .into_iter()
        .map(|k| k + (params.n as i64) * 128)
        .collect();
    let mut upsert_ops = Vec::with_capacity(2 * params.chunks * chunk);
    for c in fresh.chunks(chunk) {
        for &k in c {
            upsert_ops.push(Op::Upsert {
                key: k,
                value: k as u64,
            });
        }
        for &k in c {
            upsert_ops.push(Op::Delete { key: k });
        }
    }

    [("Get", get_ops), ("Upsert", upsert_ops)]
        .into_iter()
        .map(|(op, ops)| {
            let runs = count_runs(&ops);
            Episode { op, ops, runs }
        })
        .collect()
}

/// Calibration busy-loop: a fixed amount of scalar integer work, timed.
/// Returns its throughput in Mop/s, recorded as `calibration_mops` so a
/// reader can tell a slow host from a slow run. It must not depend on the
/// thread ladder or on any simulator state — it is a pure single-core
/// speed probe.
fn calibrate() -> f64 {
    const ITERS: u64 = 40_000_000;
    let start = Instant::now();
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ITERS {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    ITERS as f64 / secs / 1e6
}

/// Run the full sweep: every episode at `pipelined ∈ {off, on}` × every
/// thread count. Panics if any configuration's replies diverge from the
/// 1-thread-unpipelined reference (the in-episode byte-identity check).
/// Leaves the global pool configured with the last ladder entry.
pub fn run_sweep(
    params: &PipelineParams,
) -> (Vec<(&'static str, usize, usize)>, Vec<PipelinePoint>) {
    let mut points = Vec::new();
    let mut shapes: Vec<(&'static str, usize, usize)> = Vec::new();
    let mut reference: Vec<(&'static str, Vec<Reply>)> = Vec::new();
    for pipeline in [false, true] {
        for &threads in &THREAD_LADDER {
            pool::configure(ExecConfig::with_threads(threads));
            let (mut list, keys) = build_loaded_list(params.p, params.n, params.seed);
            list.set_pipeline(pipeline);
            let episodes = build_episodes(params, &keys);
            for ep in &episodes {
                // Warmup doubles as the sanity check: replies must be
                // byte-identical to the unpipelined 1-thread reference.
                let replies = list.execute(&ep.ops);
                match reference.iter().find(|(op, _)| *op == ep.op) {
                    None => {
                        shapes.push((ep.op, ep.ops.len(), ep.runs));
                        reference.push((ep.op, replies));
                    }
                    Some((_, want)) => assert_eq!(
                        &replies, want,
                        "{}: pipelined={pipeline} threads={threads} diverged from reference",
                        ep.op
                    ),
                }
                let mut best = 0.0f64;
                for _ in 0..3 {
                    let mut total = 0.0f64;
                    let mut count = 0usize;
                    while count < params.reps || total < params.min_secs {
                        let t = Instant::now();
                        std::hint::black_box(list.execute(&ep.ops));
                        total += t.elapsed().as_secs_f64();
                        count += 1;
                    }
                    best = best.max(count as f64 / total);
                }
                points.push(PipelinePoint {
                    op: ep.op,
                    pipeline,
                    threads,
                    episodes_per_sec: best,
                });
            }
        }
    }
    (shapes, points)
}

/// Assemble the `pim-pipeline-bench/1` report. Key order and structure
/// are fixed; only measured values vary run to run. `host_cpus` is a
/// parameter (not re-probed) so the gate's unit tests can fabricate
/// single- and multi-core reports.
pub fn report_json(
    params: &PipelineParams,
    quick: bool,
    host_cpus: u64,
    calibration_mops: f64,
    shapes: &[(&'static str, usize, usize)],
    points: &[PipelinePoint],
) -> Json {
    let mut ops_arr = Vec::new();
    for op in OPS {
        let (batch, runs) = shapes
            .iter()
            .find(|(o, _, _)| *o == op)
            .map_or((0, 0), |&(_, b, r)| (b, r));
        let points_arr: Vec<Json> = points
            .iter()
            .filter(|pt| pt.op == op)
            .map(|pt| {
                Json::Obj(vec![
                    ("pipeline".into(), Json::Bool(pt.pipeline)),
                    ("threads".into(), num(pt.threads as u64)),
                    ("episodes_per_sec".into(), Json::Num(pt.episodes_per_sec)),
                ])
            })
            .collect();
        ops_arr.push(Json::Obj(vec![
            ("op".into(), jstr(op)),
            ("batch".into(), num(batch as u64)),
            ("runs".into(), num(runs as u64)),
            ("points".into(), Json::Arr(points_arr)),
        ]));
    }
    crate::report::document(
        SCHEMA,
        vec![
            ("quick".into(), Json::Bool(quick)),
            ("p".into(), num(u64::from(params.p))),
            ("n".into(), num(params.n as u64)),
            ("chunks".into(), num(params.chunks as u64)),
            ("reps".into(), num(params.reps as u64)),
            ("seed".into(), num(params.seed)),
            ("host_cpus".into(), num(host_cpus)),
            ("calibration_mops".into(), Json::Num(calibration_mops)),
            ("ops".into(), Json::Arr(ops_arr)),
        ],
    )
}

/// Run the whole harness and write the report to `out_path`. Prints a
/// human-readable table (episodes/sec, pipelined vs not) to stdout.
pub fn run_pipeline(quick: bool, out_path: &str, seed: u64) -> std::io::Result<()> {
    let params = if quick {
        PipelineParams::quick(seed)
    } else {
        PipelineParams::full(seed)
    };
    println!(
        "== Pipeline sweep: mixed-run episodes × pipelined ∈ {{off, on}} × PIM_THREADS ∈ {:?} (P = {}, n = {}) ==",
        THREAD_LADDER, params.p, params.n
    );
    let calibration_mops = calibrate();
    let (shapes, points) = run_sweep(&params);
    pool::configure(ExecConfig::from_env());

    println!(
        "{:<8} {:>9} {:>6} {:>8} {:>14} {:>12}",
        "op", "pipeline", "runs", "threads", "episodes/sec", "vs off@same"
    );
    for (op, _, runs) in &shapes {
        for pt in points.iter().filter(|pt| pt.op == *op) {
            let off = points
                .iter()
                .find(|q| q.op == *op && !q.pipeline && q.threads == pt.threads)
                .map_or(0.0, |q| q.episodes_per_sec);
            println!(
                "{:<8} {:>9} {:>6} {:>8} {:>14.2} {:>11.2}x",
                pt.op,
                if pt.pipeline { "on" } else { "off" },
                runs,
                pt.threads,
                pt.episodes_per_sec,
                if off > 0.0 {
                    pt.episodes_per_sec / off
                } else {
                    0.0
                }
            );
        }
    }
    println!("(replies byte-compared against the unpipelined 1-thread reference in-process)");

    let host_cpus = std::thread::available_parallelism().map_or(1, |c| c.get() as u64);
    let report = report_json(
        &params,
        quick,
        host_cpus,
        calibration_mops,
        &shapes,
        &points,
    );
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(out_path, report.to_json() + "\n")?;
    println!("wrote {out_path}");
    Ok(())
}

/// One speedup-gate verdict row.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Episode name.
    pub op: String,
    /// Unpipelined 1-thread throughput (the bar to beat).
    pub base_1t: f64,
    /// Best pipelined throughput over threads ≥ 2.
    pub best_pipelined: f64,
    /// Thread count of the best pipelined point.
    pub best_threads: u64,
    /// `best_pipelined / base_1t`.
    pub speedup: f64,
    /// Whether the bar was missed.
    pub failed: bool,
}

fn doc_points(doc: &Json) -> Result<Vec<(String, bool, u64, f64)>, String> {
    crate::report::expect_schema(doc, SCHEMA)?;
    let mut out = Vec::new();
    for op in doc
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("missing ops array")?
    {
        let name = op
            .get("op")
            .and_then(Json::as_str)
            .ok_or("op entry missing name")?;
        for pt in op
            .get("points")
            .and_then(Json::as_array)
            .ok_or("op entry missing points array")?
        {
            let pipeline = pt
                .get("pipeline")
                .and_then(Json::as_bool)
                .ok_or("point missing pipeline flag")?;
            let threads = pt
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("point missing thread count")?;
            let eps = pt
                .get("episodes_per_sec")
                .and_then(Json::as_f64)
                .ok_or("point missing episodes_per_sec")?;
            out.push((name.to_string(), pipeline, threads, eps));
        }
    }
    Ok(out)
}

fn doc_host_cpus(doc: &Json) -> Result<u64, String> {
    doc.get("host_cpus")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing host_cpus".into())
}

/// Pick the speedup evidence and judge it. All comparisons are *within*
/// one report (same host, same calibration), so no normalisation is
/// needed; the only cross-report decision is which report constitutes
/// evidence: the current run when its host had ≥ 2 CPUs, else the
/// recorded multi-core baseline, else a loud error — single-core hosts
/// cannot demonstrate (or honestly refute) overlap speedup, and the gate
/// must never pass vacuously.
///
/// Returns the verdict rows plus a description of the evidence used.
pub fn speedup_gate_compare(
    current: &Json,
    baseline: &Json,
) -> Result<(Vec<SpeedupRow>, &'static str), String> {
    let cur_cpus = doc_host_cpus(current).map_err(|e| format!("current: {e}"))?;
    let base_cpus = doc_host_cpus(baseline).map_err(|e| format!("baseline: {e}"))?;
    let (doc, which) = if cur_cpus >= 2 {
        (current, "current report")
    } else if base_cpus >= 2 {
        (baseline, "recorded multi-core baseline")
    } else {
        return Err(format!(
            "no multi-core evidence: current host_cpus = {cur_cpus}, baseline host_cpus = \
             {base_cpus}; rerun on a multi-core machine or regenerate the recorded baseline \
             (see ci/README.md)"
        ));
    };
    let points = doc_points(doc).map_err(|e| format!("{which}: {e}"))?;
    let mut rows = Vec::new();
    for op in GATE_OPS {
        let base_1t = points
            .iter()
            .find(|(o, pipeline, threads, _)| o == op && !pipeline && *threads == 1)
            .map(|&(_, _, _, v)| v)
            .ok_or_else(|| format!("{which} is missing {op} unpipelined @ 1 thread"))?;
        let (best_threads, best_pipelined) = points
            .iter()
            .filter(|(o, pipeline, threads, _)| o == op && *pipeline && *threads >= 2)
            .map(|&(_, _, t, v)| (t, v))
            .fold(
                (0u64, f64::NEG_INFINITY),
                |acc, p| {
                    if p.1 > acc.1 {
                        p
                    } else {
                        acc
                    }
                },
            );
        if best_threads == 0 {
            return Err(format!(
                "{which} has no pipelined ≥ 2-thread points for {op}"
            ));
        }
        rows.push(SpeedupRow {
            op: op.to_string(),
            base_1t,
            best_pipelined,
            best_threads,
            speedup: if base_1t > 0.0 {
                best_pipelined / base_1t
            } else {
                f64::INFINITY
            },
            failed: best_pipelined <= base_1t,
        });
    }
    Ok((rows, which))
}

/// CLI entry for `speedup-gate`: load both reports, judge
/// the speedup evidence, print the table, and return whether the gate
/// passed. Errors (including the no-multi-core-evidence case) are gate
/// failures.
pub fn speedup_gate(current_path: &str, baseline_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        pim_runtime::export::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let current = load(current_path)?;
    let baseline = load(baseline_path)?;
    let (rows, which) = speedup_gate_compare(&current, &baseline)?;
    println!("== speedup gate: {current_path} vs {baseline_path} (evidence: {which}) ==");
    println!(
        "{:<8} {:>16} {:>22} {:>9} {:>6}",
        "op", "off @ 1 thread", "best on @ ≥2 threads", "speedup", "gate"
    );
    let mut pass = true;
    for r in &rows {
        println!(
            "{:<8} {:>16.2} {:>15.2} @ {:>2}t {:>9.2} {:>6}",
            r.op,
            r.base_1t,
            r.best_pipelined,
            r.best_threads,
            r.speedup,
            if r.failed { "FAIL" } else { "ok" }
        );
        pass &= !r.failed;
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fabricate a report whose unpipelined points run at `base_eps` and
    /// whose pipelined points all run at `base_eps * pipe_factor`.
    fn synthetic_report(host_cpus: u64, base_eps: f64, pipe_factor: f64) -> Json {
        let params = PipelineParams::quick(1);
        let shapes: Vec<(&'static str, usize, usize)> =
            OPS.iter().map(|&op| (op, 1024, 16)).collect();
        let mut points = Vec::new();
        for &op in &OPS {
            for pipeline in [false, true] {
                for &threads in &THREAD_LADDER {
                    let eps = if pipeline {
                        base_eps * pipe_factor
                    } else {
                        base_eps
                    };
                    points.push(PipelinePoint {
                        op,
                        pipeline,
                        threads,
                        episodes_per_sec: eps,
                    });
                }
            }
        }
        report_json(&params, true, host_cpus, 1000.0, &shapes, &points)
    }

    #[test]
    fn gate_passes_when_pipelined_multicore_beats_scalar_baseline() {
        // Pipelined @ ≥2 threads is 2×·log2(threads) the scalar rate.
        let current = synthetic_report(8, 100.0, 2.0);
        let baseline = synthetic_report(8, 100.0, 2.0);
        let (rows, which) = speedup_gate_compare(&current, &baseline).unwrap();
        assert_eq!(which, "current report");
        assert_eq!(rows.len(), GATE_OPS.len());
        assert!(rows.iter().all(|r| !r.failed), "rows: {rows:?}");
        assert!(rows.iter().all(|r| r.speedup > 1.0 && r.best_threads >= 2));
    }

    #[test]
    fn gate_fails_when_pipelining_buys_nothing() {
        // Pipelined points exactly match the scalar rate: no speedup.
        let flat = synthetic_report(8, 100.0, 0.5);
        let (rows, _) = speedup_gate_compare(&flat, &flat).unwrap();
        assert!(
            rows.iter().all(|r| r.failed),
            "a flat profile must fail the gate: {rows:?}"
        );
    }

    #[test]
    fn gate_prefers_current_evidence_but_falls_back_to_baseline() {
        // Single-core current run: the recorded multi-core baseline is the
        // evidence, and its (good) numbers pass the gate.
        let current = synthetic_report(1, 100.0, 2.0);
        let baseline = synthetic_report(4, 100.0, 2.0);
        let (rows, which) = speedup_gate_compare(&current, &baseline).unwrap();
        assert_eq!(which, "recorded multi-core baseline");
        assert!(rows.iter().all(|r| !r.failed));
    }

    #[test]
    fn gate_errors_loudly_without_multicore_evidence() {
        // Both reports from single-core hosts: error, never a vacuous pass.
        let single = synthetic_report(1, 100.0, 2.0);
        let err = speedup_gate_compare(&single, &single).unwrap_err();
        assert!(err.contains("no multi-core evidence"), "got: {err}");
    }

    #[test]
    fn gate_rejects_wrong_schema_and_missing_points() {
        let good = synthetic_report(8, 100.0, 2.0);
        let bad = Json::Obj(vec![
            ("schema".into(), jstr("something-else")),
            ("host_cpus".into(), num(8)),
        ]);
        assert!(speedup_gate_compare(&bad, &good).is_err());
        // Strip the ops array: structurally valid schema, no evidence rows.
        let hollow = Json::Obj(vec![
            ("schema".into(), jstr(SCHEMA)),
            ("host_cpus".into(), num(8)),
            ("ops".into(), Json::Arr(Vec::new())),
        ]);
        let err = speedup_gate_compare(&hollow, &good).unwrap_err();
        assert!(err.contains("missing"), "got: {err}");
    }

    #[test]
    fn report_schema_is_deterministic() {
        let strip = |j: &Json| -> String {
            fn zero(j: &Json) -> Json {
                match j {
                    Json::Num(_) => Json::Num(0.0),
                    Json::Arr(a) => Json::Arr(a.iter().map(zero).collect()),
                    Json::Obj(f) => {
                        Json::Obj(f.iter().map(|(k, v)| (k.clone(), zero(v))).collect())
                    }
                    other => other.clone(),
                }
            }
            zero(j).to_json()
        };
        assert_eq!(
            strip(&synthetic_report(1, 1.0, 1.0)),
            strip(&synthetic_report(8, 9.0, 3.0))
        );
    }

    #[test]
    fn sweep_smoke() {
        // Tiny run: every (op, pipeline, threads) point produces a
        // positive rate, and the in-episode reply comparison holds.
        let params = PipelineParams {
            p: 4,
            n: 300,
            chunks: 2,
            reps: 1,
            min_secs: 0.0,
            seed: 3,
        };
        let (shapes, points) = run_sweep(&params);
        pool::configure(ExecConfig::from_env());
        let report = report_json(&params, true, 1, calibrate(), &shapes, &points);
        let mops = report.get("calibration_mops").and_then(Json::as_f64);
        assert!(mops.is_some_and(|m| m > 0.0), "calibration_mops: {mops:?}");
        assert_eq!(points.len(), OPS.len() * 2 * THREAD_LADDER.len());
        assert!(points.iter().all(|pt| pt.episodes_per_sec > 0.0));
        // Alternating chunks really do split into many runs.
        assert!(shapes
            .iter()
            .all(|&(_, batch, runs)| runs >= 4 && batch > 0));
    }
}
