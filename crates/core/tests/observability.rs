//! Observability suite: the span/export layer's three contracts.
//!
//! * **Zero overhead when off** — running with the probe and/or round
//!   trace enabled is bit-identical (metrics and contents) to running
//!   without them: observation never perturbs the simulation.
//! * **Conservation** — the exclusive per-span stats sum to the whole
//!   run's metrics delta for every additive §2.1 counter: no cost is
//!   double-counted or lost by the attribution.
//! * **Faithful exports** — a chaos run's JSONL log carries the injected
//!   [`pim_runtime::FaultRecord`]s on exactly the faulted rounds, and the
//!   recovery spans own exactly the rounds billed to
//!   `Metrics::recovery_rounds`.

use pim_core::prelude::*;
use pim_core::FaultPlan;
use pim_runtime::export::parse;
use pim_runtime::{rounds_jsonl, ExportBundle, Metrics};

/// A workload touching every instrumented operation family.
fn workload(list: &mut PimSkipList) {
    let base: Vec<(i64, u64)> = (0..400).map(|i| (i * 3, i as u64)).collect();
    list.bulk_load(&base);
    let ups: Vec<(i64, u64)> = (0..80).map(|i| (i * 3 + 1, 7)).collect();
    list.batch_upsert(&ups);
    let gets: Vec<i64> = (0..60).map(|i| i * 5).collect();
    list.batch_get(&gets);
    list.batch_update(&[(3, 9), (6, 10)]);
    let dels: Vec<i64> = (0..40).map(|i| i * 6).collect();
    list.batch_delete(&dels);
    list.batch_range(&[(0, 300), (100, 500)], RangeFunc::Sum);
    list.batch_successor(&[5, 11, 250]);
    list.range_broadcast(0, 600, RangeFunc::Count);
}

/// Every additive counter of [`Metrics`] (all but `shared_mem_peak`,
/// which is a high-water mark).
fn additive(m: &Metrics) -> [u64; 13] {
    [
        m.rounds,
        m.io_time,
        m.pim_time,
        m.total_messages,
        m.total_pim_work,
        m.cpu_work,
        m.cpu_depth,
        m.faults_injected,
        m.messages_dropped,
        m.module_crashes,
        m.stalled_module_rounds,
        m.retries_issued,
        m.recovery_rounds,
    ]
}

#[test]
fn observation_is_bit_identical_to_running_dark() {
    let run = |probe: bool, trace: bool| {
        let mut list = PimSkipList::new(Config::new(8, 1 << 10, 21));
        if probe {
            list.enable_probe();
        }
        if trace {
            list.enable_tracing();
        }
        workload(&mut list);
        (list.metrics(), list.collect_items())
    };
    let dark = run(false, false);
    assert_eq!(dark, run(true, false), "probe on must not perturb the run");
    assert_eq!(dark, run(false, true), "trace on must not perturb the run");
    assert_eq!(dark, run(true, true), "both on must not perturb the run");
}

#[test]
fn telemetry_is_bit_identical_to_running_dark() {
    let run = |telemetry: bool| {
        let mut list = PimSkipList::new(Config::new(8, 1 << 10, 25));
        if telemetry {
            list.enable_telemetry();
        }
        list.enable_tracing();
        workload(&mut list);
        let metrics = list.metrics();
        let items = list.collect_items();
        let trace = list.take_trace();
        let bundle = ExportBundle {
            p: 8,
            trace: &trace,
            report: None,
            events: None,
        };
        (metrics, items, rounds_jsonl(&bundle))
    };
    let dark = run(false);
    let lit = run(true);
    assert_eq!(
        dark, lit,
        "telemetry on must not perturb metrics, contents, or the round trace"
    );
}

#[test]
fn telemetry_counters_reconcile_with_the_machine_metrics() {
    let mut list = PimSkipList::new(Config::new(8, 1 << 10, 26));
    // Bulk construction predates telemetry: only the unified execute path
    // (every typed batch shims over it) publishes per-run deltas.
    let base: Vec<(i64, u64)> = (0..400).map(|i| (i * 3, i as u64)).collect();
    list.bulk_load(&base);
    list.enable_telemetry();
    let before = list.metrics();
    let ups: Vec<(i64, u64)> = (0..80).map(|i| (i * 3 + 1, 7)).collect();
    list.batch_upsert(&ups);
    let gets: Vec<i64> = (0..60).map(|i| i * 5).collect();
    list.batch_get(&gets);
    list.batch_update(&[(3, 9), (6, 10)]);
    let dels: Vec<i64> = (0..40).map(|i| i * 6).collect();
    list.batch_delete(&dels);
    list.batch_range(&[(0, 300), (100, 500)], RangeFunc::Sum);
    list.batch_successor(&[5, 11, 250]);
    let after = list.metrics();
    let delta = after - before;
    let snap = list.telemetry_snapshot().expect("telemetry was enabled");

    assert_eq!(snap.counter("pim_rounds_total", &[]), Some(delta.rounds));
    assert_eq!(snap.counter("pim_io_time_total", &[]), Some(delta.io_time));
    assert_eq!(snap.counter("pim_time_total", &[]), Some(delta.pim_time));
    assert_eq!(
        snap.counter("pim_messages_total", &[]),
        Some(delta.total_messages)
    );
    assert_eq!(
        snap.counter("pim_work_total", &[]),
        Some(delta.total_pim_work)
    );
    assert_eq!(
        snap.counter("pim_cpu_work_total", &[]),
        Some(delta.cpu_work)
    );

    // Per-op counters: the workload issues known batch sizes per family.
    assert_eq!(snap.counter("pim_ops_total", &[("op", "get")]), Some(60));
    assert_eq!(snap.counter("pim_ops_total", &[("op", "update")]), Some(2));
    assert_eq!(snap.counter("pim_ops_total", &[("op", "upsert")]), Some(80));
    assert_eq!(snap.counter("pim_ops_total", &[("op", "delete")]), Some(40));
    assert_eq!(snap.counter("pim_ops_total", &[("op", "range")]), Some(2));
    assert_eq!(
        snap.counter("pim_ops_total", &[("op", "successor")]),
        Some(3)
    );

    // The run-length histogram saw one observation per instrumented run.
    let run_len = snap.histogram("pim_run_len", &[]).expect("run_len exists");
    let runs = snap.counter("pim_runs_total", &[]).expect("runs exists");
    assert_eq!(run_len.count(), runs);
    assert!(runs >= 6, "each batch_* family is at least one run");
    // 60 + 2 + 80 + 40 + 2 + 3 ops flowed through the instrumented runs.
    assert_eq!(run_len.sum(), 187);
}

#[test]
fn span_stats_sum_to_whole_run_metrics() {
    let mut list = PimSkipList::new(Config::new(8, 1 << 10, 22));
    let before = list.metrics();
    list.enable_probe();
    workload(&mut list);
    let after = list.metrics();
    let report = list.take_probe().expect("probe was enabled");

    assert!(report.spans.len() > 10, "the workload must open real spans");
    let delta = after - before;
    assert_eq!(
        additive(&report.total()),
        additive(&delta),
        "exclusive span stats must sum to the run's metrics delta"
    );
    // The high-water mark is attributed as a max, never exceeding the run's.
    for s in &report.spans {
        assert!(s.stats.shared_mem_peak <= after.shared_mem_peak);
    }
}

#[test]
fn every_operation_family_gets_a_phase_in_the_export() {
    let mut list = PimSkipList::new(Config::new(8, 1 << 10, 23));
    list.enable_tracing();
    list.enable_probe();
    workload(&mut list);
    let report = list.take_probe().expect("probe was enabled");
    let trace = list.take_trace();

    for name in [
        "get",
        "update",
        "upsert",
        "delete",
        "bulk_load",
        "search",
        "range_tree",
        "range_broadcast",
        "successor",
    ] {
        assert!(
            !report.spans_named(name).is_empty(),
            "no span named {name:?} in the report"
        );
    }

    let bundle = ExportBundle {
        p: 8,
        trace: &trace,
        report: Some(&report),
        events: None,
    };
    let jsonl = rounds_jsonl(&bundle);
    let header = parse(jsonl.lines().next().unwrap()).unwrap();
    let spans = header.get("spans").unwrap().as_array().unwrap();
    for name in ["get", "upsert", "delete", "range_tree"] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(|n| n.as_str()) == Some(name)),
            "exported span table must carry {name:?}"
        );
    }
    for line in jsonl.lines().skip(1) {
        parse(line).expect("every round line parses");
    }
}

#[test]
fn lone_phases_inside_a_co_scheduled_span_keep_their_phase_spans() {
    // One `execute` call is one probe span, and the phases its jobs run
    // side by side are muted. The phases that run alone — an insert's
    // allocation and link, a Delete's splice, a mutating range — are
    // recorded under their family's name, so `pim-trace phases` still
    // attributes them.
    let mut list = PimSkipList::new(Config::new(8, 1 << 10, 27));
    list.bulk_load(&(0..200).map(|i| (i * 3, i as u64)).collect::<Vec<_>>());
    list.enable_probe();
    let before = list.metrics();
    list.execute(&[
        Op::Get { key: 3 },
        Op::Upsert { key: 4, value: 1 },
        Op::Delete { key: 6 },
        Op::Successor { key: 10 },
        Op::Delete { key: 7 },
        Op::Range {
            lo: 0,
            hi: 90,
            func: RangeFunc::FetchAdd(1),
        },
        Op::Get { key: 9 },
    ]);
    let delta = list.metrics() - before;
    let report = list.take_probe().expect("probe was enabled");
    for name in [
        "span",
        "upsert",
        "alloc",
        "link",
        "delete",
        "delete/contract",
        "delete/unlink",
        "range_tree",
    ] {
        assert_eq!(report.spans_named(name).len(), 1, "spans named {name:?}");
    }
    // The shared waves, and the absent Delete (it never runs alone), stay
    // in the span.
    for name in ["get", "successor", "delete/mark"] {
        assert!(report.spans_named(name).is_empty(), "a span named {name:?}");
    }
    assert_eq!(additive(&report.total()), additive(&delta));
}

#[test]
fn chaos_export_carries_fault_records_and_recovery_spans_balance() {
    let mut list = PimSkipList::new(Config::new(4, 1 << 10, 24).with_max_retries(50));
    // The storm must outlast the bulk load (19 chunks, ~75 rounds per
    // attempt): a restore before the first commit rebuilds nothing and
    // bills no recovery round.
    list.set_fault_plan(FaultPlan::random(0xFACE, 4, 800, 25));
    list.enable_tracing();
    let before = list.metrics();
    list.enable_probe();

    let base: Vec<(i64, u64)> = (0..300).map(|i| (i * 4, i as u64)).collect();
    list.try_bulk_load(&base).expect("bulk load under storm");
    for wave in 0..4i64 {
        let ups: Vec<Op> = (0..40)
            .map(|i| Op::Upsert {
                key: wave * 100 + i * 2 + 1,
                value: (wave * 1000 + i) as u64,
            })
            .collect();
        list.try_execute(&ups).expect("upsert under storm");
        let dels: Vec<Op> = (0..25)
            .map(|i| Op::Delete {
                key: wave * 24 + i * 4,
            })
            .collect();
        list.try_execute(&dels).expect("delete under storm");
        let gets: Vec<Op> = (0..50)
            .map(|i| Op::Get {
                key: wave * 7 + i * 5,
            })
            .collect();
        list.try_execute(&gets).expect("get under storm");
    }

    let after = list.metrics();
    assert!(after.faults_injected > 0, "the storm must strike");
    let report = list.take_probe().expect("probe was enabled");
    let trace = list.take_trace();

    // Every recorded round's fault records survive the JSONL round trip.
    let faulted_rounds = trace.rounds.iter().filter(|r| !r.faults.is_empty()).count();
    assert!(faulted_rounds > 0, "faults must land on recorded rounds");
    let bundle = ExportBundle {
        p: 4,
        trace: &trace,
        report: Some(&report),
        events: None,
    };
    let jsonl = rounds_jsonl(&bundle);
    for (line, rt) in jsonl.lines().skip(1).zip(&trace.rounds) {
        let v = parse(line).unwrap();
        assert_eq!(v.get("round").unwrap().as_u64(), Some(rt.round));
        let faults = v.get("faults").unwrap().as_array().unwrap();
        assert_eq!(
            faults.len(),
            rt.faults.len(),
            "round {} must export its fault records",
            rt.round
        );
        for (fj, fr) in faults.iter().zip(&rt.faults) {
            assert_eq!(
                fj.get("module").unwrap().as_u64(),
                Some(u64::from(fr.module))
            );
        }
    }
    // The recovery spans own exactly the recovery-attributed rounds.
    let delta = after - before;
    assert!(delta.recovery_rounds > 0, "the storm must trigger recovery");
    let recovered: u64 = report
        .spans
        .iter()
        .filter(|s| s.name == "recover/restore")
        .map(|s| s.stats.recovery_rounds)
        .sum();
    assert_eq!(
        recovered, delta.recovery_rounds,
        "recovery spans must carry every recovery-billed round"
    );
}
