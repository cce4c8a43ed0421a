//! The executor determinism contract, end to end.
//!
//! `pim-pool` promises that the worker-thread count changes wall-clock
//! time and nothing else: every model metric, every reply, and every
//! exported trace byte must be identical at `PIM_THREADS=1` and
//! `PIM_THREADS=8`. CI enforces this on the `experiments` binary's
//! output; this test enforces it in-process on a mixed
//! upsert/delete/get/successor/range workload, including the serialised
//! trace artifacts.

use std::sync::Mutex;

use pim_core::{Config, PimSkipList, RangeFunc};
use pim_runtime::pool::{self, ExecConfig};
use pim_workloads::PointGen;

/// The pool configuration is process-global; serialise the tests in this
/// binary so one test's ladder never races another's.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Everything observable a run produces, other than elapsed time.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    gets: Vec<Option<u64>>,
    successors: Vec<Option<(i64, pim_runtime::Handle)>>,
    range_counts: Vec<u64>,
    final_len: u64,
    metrics: pim_runtime::Metrics,
    rounds_jsonl: String,
    probe_table: String,
}

/// One fixed mixed workload, run under whatever pool config is active.
fn run_workload(p: u32, seed: u64) -> RunArtifacts {
    let mut list = PimSkipList::new(Config::new(p, 1 << 12, seed));
    let mut gen = PointGen::new(seed ^ 0xDE7, 0, 1 << 18);

    // Load, then instrument so the artifacts cover the measured phases.
    let resident = gen.distinct_uniform(3_000);
    let pairs: Vec<(i64, u64)> = resident.iter().map(|&k| (k, k as u64)).collect();
    list.batch_upsert(&pairs);
    list.enable_tracing_with_cap(1 << 16);
    list.enable_probe();

    // Mixed batches: fresh upserts, deletes of residents, point and
    // search queries (some hitting, some missing), tree + broadcast
    // ranges.
    let fresh: Vec<(i64, u64)> = gen
        .distinct_uniform(600)
        .into_iter()
        .map(|k| (k + (1 << 19), k as u64))
        .collect();
    list.batch_upsert(&fresh);
    let dead = gen.distinct_from_existing(&resident, 500);
    list.batch_delete(&dead);
    let gets = list.batch_get(&gen.from_existing(&resident, 400));
    let successors = list.batch_successor(&gen.uniform(400));
    let ranges: Vec<(i64, i64)> = (0..64)
        .map(|i| {
            let lo = i * (1 << 12);
            (lo, lo + (1 << 11))
        })
        .collect();
    let range_counts: Vec<u64> = list
        .batch_range(&ranges, RangeFunc::Count)
        .into_iter()
        .map(|r| r.count)
        .collect();

    let report = list.take_probe().expect("probe enabled");
    let trace = list.take_trace();
    let bundle = pim_runtime::ExportBundle {
        p,
        trace: &trace,
        report: Some(&report),
        events: None,
    };
    let probe_table: String = report
        .by_path()
        .into_iter()
        .map(|(path, depth, count, stats)| format!("{path} {depth} {count} {stats:?}\n"))
        .collect();
    RunArtifacts {
        gets,
        successors,
        range_counts,
        final_len: list.len(),
        metrics: list.metrics(),
        rounds_jsonl: pim_runtime::rounds_jsonl(&bundle),
        probe_table,
    }
}

fn artifacts_at(threads: usize, p: u32, seed: u64) -> RunArtifacts {
    pool::configure(ExecConfig {
        threads,
        // Zero thresholds force real forking even on these test-sized
        // batches — otherwise the sequential cutoff would make the
        // comparison vacuous.
        par_threshold: 0,
        sort_threshold: 0,
    });
    let out = run_workload(p, seed);
    pool::configure(ExecConfig::from_env());
    out
}

#[test]
fn one_thread_and_eight_threads_are_bit_identical() {
    let _guard = POOL_LOCK.lock().unwrap();
    for (p, seed) in [(8u32, 11u64), (32, 42)] {
        let base = artifacts_at(1, p, seed);
        let wide = artifacts_at(8, p, seed);
        // Replies and structure first (small, readable failures)…
        assert_eq!(wide.gets, base.gets, "P={p}");
        assert_eq!(wide.successors, base.successors, "P={p}");
        assert_eq!(wide.range_counts, base.range_counts, "P={p}");
        assert_eq!(wide.final_len, base.final_len, "P={p}");
        assert_eq!(wide.metrics, base.metrics, "P={p}");
        assert_eq!(wide.probe_table, base.probe_table, "P={p}");
        // …then the serialised artifacts byte for byte.
        assert_eq!(wide.rounds_jsonl, base.rounds_jsonl, "P={p}");
        // Sanity: the workload actually produced traffic worth comparing.
        assert!(base.metrics.rounds > 0 && base.metrics.io_time > 0);
        assert!(!base.rounds_jsonl.is_empty());
    }
}

#[test]
fn every_ladder_step_matches_one_thread() {
    let _guard = POOL_LOCK.lock().unwrap();
    let base = artifacts_at(1, 16, 7);
    for threads in [2usize, 3, 4, 6, 8] {
        let other = artifacts_at(threads, 16, 7);
        assert_eq!(other, base, "threads = {threads}");
    }
}

/// Full `P log² P` batches — hundreds of pivots in many groups, the shape
/// stage 1 of the pivoted search is built for: Successor, Predecessor,
/// then an Upsert of fresh keys searched in `PredLevels` mode.
#[allow(clippy::type_complexity)]
fn run_full_batches(
    p: u32,
) -> (
    Vec<Option<(i64, pim_runtime::Handle)>>,
    Vec<Option<(i64, pim_runtime::Handle)>>,
    Vec<(i64, u64)>,
    pim_runtime::Metrics,
) {
    let n = 1usize << 13;
    let mut list = PimSkipList::new(Config::new(p, n as u64, 5));
    let pairs: Vec<(i64, u64)> = (0..n as i64).map(|i| (4 * i, i as u64)).collect();
    list.bulk_load(&pairs);
    let batch = list.config().batch_large();
    let mut gen = PointGen::new(0xBA7C, -64, 4 * n as i64 + 64);
    let successors = list.batch_successor(&gen.uniform(batch));
    let predecessors = list.batch_predecessor(&gen.uniform(batch));
    let fresh: Vec<(i64, u64)> = gen
        .distinct_uniform(batch)
        .into_iter()
        .map(|k| (k | 1, 7))
        .collect();
    list.batch_upsert(&fresh);
    list.validate().expect("valid after the upsert");
    (
        successors,
        predecessors,
        list.collect_items(),
        list.metrics(),
    )
}

#[test]
fn full_size_batches_match_across_threads() {
    let _guard = POOL_LOCK.lock().unwrap();
    let at = |threads: usize| {
        pool::configure(ExecConfig {
            threads,
            par_threshold: 0,
            sort_threshold: 0,
        });
        let out = run_full_batches(16);
        pool::configure(ExecConfig::from_env());
        out
    };
    let base = at(1);
    for threads in [2usize, 8] {
        assert_eq!(at(threads), base, "threads = {threads}");
    }
}
