//! Property-based contract of the unified entry point: executing a mixed
//! [`Op`] stream through [`PimSkipList::execute`] is the same computation
//! as splitting the stream into maximal coalescible runs and calling each
//! run's typed `batch_*` — same replies, same contents, same CPU work and
//! depth, and the same random stream afterwards — while the runs share
//! rounds, Deletes and mutating ranges included, at no more rounds, IO or
//! PIM time; and span attribution stays conservative over mixed streams.

use proptest::prelude::*;

use pim_core::{Config, Op, PimSkipList, RangeFunc, Reply};
use pim_runtime::Metrics;

fn key_strategy() -> impl Strategy<Value = i64> {
    // Small domain: collisions, duplicate keys, overlapping ranges.
    -40i64..200
}

fn hot_key_strategy() -> impl Strategy<Value = i64> {
    // A handful of keys: Updates meet Gets, Updates and Ranges of theirs.
    0i64..8
}

/// Reads and value writes on hot keys, a structural op now and then.
fn hot_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (hot_key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Upsert { key, value }),
        1 => hot_key_strategy().prop_map(|key| Op::Delete { key }),
        4 => hot_key_strategy().prop_map(|key| Op::Get { key }),
        4 => (hot_key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Update { key, value }),
        2 => hot_key_strategy().prop_map(|key| Op::Successor { key }),
        1 => hot_key_strategy().prop_map(|key| Op::Predecessor { key }),
        2 => (hot_key_strategy(), hot_key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Sum }),
        1 => (hot_key_strategy(), hot_key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Read }),
    ]
}

/// Deletes beside reads and value writes of their keys, and mutating
/// ranges over them.
fn delete_op_strategy() -> impl Strategy<Value = Op> {
    let key = || 0i64..16;
    let bounds = move || (key(), key()).prop_map(|(a, b)| (a.min(b), a.max(b)));
    prop_oneof![
        3 => key().prop_map(|key| Op::Delete { key }),
        2 => (key(), any::<u64>()).prop_map(|(key, value)| Op::Upsert { key, value }),
        2 => key().prop_map(|key| Op::Get { key }),
        2 => (key(), any::<u64>()).prop_map(|(key, value)| Op::Update { key, value }),
        2 => key().prop_map(|key| Op::Successor { key }),
        1 => key().prop_map(|key| Op::Predecessor { key }),
        1 => bounds().prop_map(|(lo, hi)| Op::Range { lo, hi, func: RangeFunc::Sum }),
        1 => (bounds(), 1u64..4)
            .prop_map(|((lo, hi), d)| Op::Range { lo, hi, func: RangeFunc::FetchAdd(d) }),
        1 => (bounds(), 1u64..4)
            .prop_map(|((lo, hi), d)| Op::Range { lo, hi, func: RangeFunc::AddInPlace(d) }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Upsert { key, value }),
        2 => key_strategy().prop_map(|key| Op::Delete { key }),
        2 => key_strategy().prop_map(|key| Op::Get { key }),
        1 => (key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Update { key, value }),
        1 => key_strategy().prop_map(|key| Op::Successor { key }),
        1 => key_strategy().prop_map(|key| Op::Predecessor { key }),
        1 => (key_strategy(), key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Sum }),
        1 => (key_strategy(), key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Read }),
    ]
}

/// Split `ops` into maximal coalescible runs, exactly as `execute` does.
fn runs(ops: &[Op]) -> Vec<&[Op]> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < ops.len() {
        let mut end = start + 1;
        while end < ops.len() && ops[end].coalesces_with(&ops[start]) {
            end += 1;
        }
        out.push(&ops[start..end]);
        start = end;
    }
    out
}

/// Execute one homogeneous run through its family's typed batch API.
fn run_via_typed_batch(list: &mut PimSkipList, run: &[Op]) -> Vec<Reply> {
    match run[0] {
        Op::Get { .. } => {
            let keys: Vec<i64> = run
                .iter()
                .map(|o| match *o {
                    Op::Get { key } => key,
                    _ => unreachable!(),
                })
                .collect();
            list.batch_get(&keys)
                .into_iter()
                .map(Reply::Value)
                .collect()
        }
        Op::Update { .. } => {
            let pairs: Vec<(i64, u64)> = run
                .iter()
                .map(|o| match *o {
                    Op::Update { key, value } => (key, value),
                    _ => unreachable!(),
                })
                .collect();
            list.batch_update(&pairs)
                .into_iter()
                .map(Reply::Updated)
                .collect()
        }
        Op::Upsert { .. } => {
            let pairs: Vec<(i64, u64)> = run
                .iter()
                .map(|o| match *o {
                    Op::Upsert { key, value } => (key, value),
                    _ => unreachable!(),
                })
                .collect();
            list.batch_upsert(&pairs)
                .into_iter()
                .map(Reply::Upserted)
                .collect()
        }
        Op::Delete { .. } => {
            let keys: Vec<i64> = run
                .iter()
                .map(|o| match *o {
                    Op::Delete { key } => key,
                    _ => unreachable!(),
                })
                .collect();
            list.batch_delete(&keys)
                .into_iter()
                .map(Reply::Deleted)
                .collect()
        }
        Op::Predecessor { .. } => {
            let keys: Vec<i64> = run
                .iter()
                .map(|o| match *o {
                    Op::Predecessor { key } => key,
                    _ => unreachable!(),
                })
                .collect();
            list.batch_predecessor(&keys)
                .into_iter()
                .map(Reply::Entry)
                .collect()
        }
        Op::Successor { .. } => {
            let keys: Vec<i64> = run
                .iter()
                .map(|o| match *o {
                    Op::Successor { key } => key,
                    _ => unreachable!(),
                })
                .collect();
            list.batch_successor(&keys)
                .into_iter()
                .map(Reply::Entry)
                .collect()
        }
        Op::Range { func, .. } => {
            let ranges: Vec<(i64, i64)> = run
                .iter()
                .map(|o| match *o {
                    Op::Range { lo, hi, .. } => (lo, hi),
                    _ => unreachable!(),
                })
                .collect();
            list.batch_range(&ranges, func)
                .into_iter()
                .map(Reply::Range)
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn mixed_execute_equals_per_type_batch_sequence(
        seed in 0u64..1_000_000,
        p in 1u32..9,
        preload in prop::collection::vec((hot_key_strategy(), any::<u64>()), 0..8),
        ops in prop::collection::vec(hot_op_strategy(), 1..60),
    ) {
        let mut mixed = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut typed = PimSkipList::new(Config::new(p, 1 << 10, seed));
        mixed.batch_upsert(&preload);
        typed.batch_upsert(&preload);

        let before = mixed.metrics();
        let mixed_replies = mixed.execute(&ops);
        let mut typed_replies = Vec::with_capacity(ops.len());
        for run in runs(&ops) {
            typed_replies.extend(run_via_typed_batch(&mut typed, run));
        }

        // Replies carry node handles: equal handles mean equal towers.
        prop_assert_eq!(&mixed_replies, &typed_replies,
            "mixed execute and per-type batches must answer identically");
        prop_assert_eq!(mixed.collect_items(), typed.collect_items(),
            "final contents must match");
        if let Err(e) = mixed.validate() {
            return Err(TestCaseError::fail(format!("invariant violated: {e}")));
        }
        // Co-scheduled runs share rounds; each still does its own CPU work.
        let (m, t) = (mixed.metrics() - before, typed.metrics() - before);
        prop_assert_eq!((m.cpu_work, m.cpu_depth), (t.cpu_work, t.cpu_depth),
            "co-scheduling must not change CPU work or depth");
        // And it is no worse on any other axis.
        prop_assert!(m.rounds <= t.rounds && m.io_time <= t.io_time && m.pim_time <= t.pim_time,
            "the span must dominate the per-type batches: {:?} against {:?}",
            (m.rounds, m.io_time, m.pim_time), (t.rounds, t.io_time, t.pim_time));

        // The random stream sits at the same position: fresh towers get the
        // same coins, and the batch costs the same.
        let fresh: Vec<(i64, u64)> = (0..64).map(|i| (1_000 + 3 * i, 1)).collect();
        let (m0, t0) = (mixed.metrics(), typed.metrics());
        mixed.batch_upsert(&fresh);
        typed.batch_upsert(&fresh);
        prop_assert_eq!(mixed.upper_leaf_keys(), typed.upper_leaf_keys(),
            "tower coins must not move");
        // (`M` is a high-water mark over the whole history, where
        // co-scheduled runs staged side by side.)
        let cost = |d: Metrics| Metrics { shared_mem_peak: 0, ..d };
        prop_assert_eq!(cost(mixed.metrics() - m0), cost(typed.metrics() - t0),
            "a structural batch after the stream must cost the same");
    }

    #[test]
    fn deletes_and_mutating_ranges_in_a_span_equal_per_type_batches(
        seed in 0u64..1_000_000,
        p in 2u32..9,
        preload in prop::collection::vec((0i64..16, any::<u64>()), 0..16),
        ops in prop::collection::vec(delete_op_strategy(), 1..60),
    ) {
        let mut mixed = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut typed = PimSkipList::new(Config::new(p, 1 << 10, seed));
        mixed.batch_upsert(&preload);
        typed.batch_upsert(&preload);

        let before = mixed.metrics();
        let mixed_replies = mixed.execute(&ops);
        let typed_replies: Vec<Reply> = runs(&ops)
            .into_iter()
            .flat_map(|run| run_via_typed_batch(&mut typed, run))
            .collect();
        prop_assert_eq!(&mixed_replies, &typed_replies);
        prop_assert_eq!(mixed.collect_items(), typed.collect_items());
        if let Err(e) = mixed.validate() {
            return Err(TestCaseError::fail(format!("invariant violated: {e}")));
        }
        let (m, t) = (mixed.metrics() - before, typed.metrics() - before);
        prop_assert_eq!((m.cpu_work, m.cpu_depth), (t.cpu_work, t.cpu_depth));
        prop_assert!(m.rounds <= t.rounds && m.io_time <= t.io_time && m.pim_time <= t.pim_time,
            "the span must dominate the per-type batches: {:?} against {:?}",
            (m.rounds, m.io_time, m.pim_time), (t.rounds, t.io_time, t.pim_time));

        // Same random stream afterwards: same coins, same batch cost.
        let fresh: Vec<(i64, u64)> = (0..64).map(|i| (1_000 + 3 * i, 1)).collect();
        let (m0, t0) = (mixed.metrics(), typed.metrics());
        mixed.batch_upsert(&fresh);
        typed.batch_upsert(&fresh);
        prop_assert_eq!(mixed.upper_leaf_keys(), typed.upper_leaf_keys());
        let cost = |d: Metrics| Metrics { shared_mem_peak: 0, ..d };
        prop_assert_eq!(cost(mixed.metrics() - m0), cost(typed.metrics() - t0));
    }

    #[test]
    fn telemetry_never_perturbs_mixed_streams(
        seed in 0u64..1_000_000,
        p in 1u32..9,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut dark = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut lit = PimSkipList::new(Config::new(p, 1 << 10, seed));
        lit.enable_telemetry();
        let start = lit.metrics();

        let dark_replies = dark.execute(&ops);
        let lit_replies = lit.execute(&ops);

        prop_assert_eq!(&dark_replies, &lit_replies,
            "telemetry must not change any reply");
        prop_assert_eq!(dark.collect_items(), lit.collect_items(),
            "telemetry must not change the contents");
        prop_assert_eq!(dark.metrics(), lit.metrics(),
            "telemetry must not change the machine work");

        // The registry accounted for exactly the stream it watched: per-op
        // counters sum to the op count, per-run deltas to the metrics.
        let delta = lit.metrics() - start;
        let snap = lit.telemetry_snapshot().expect("telemetry was enabled");
        let issued: u64 = ["get", "update", "upsert", "delete",
                           "predecessor", "successor", "range"]
            .iter()
            .filter_map(|op| snap.counter("pim_ops_total", &[("op", op)]))
            .sum();
        prop_assert_eq!(issued, ops.len() as u64,
            "per-op counters must sum to the stream length");
        prop_assert_eq!(snap.counter("pim_rounds_total", &[]), Some(delta.rounds));
        prop_assert_eq!(snap.counter("pim_messages_total", &[]),
            Some(delta.total_messages));
    }

    #[test]
    fn execute_span_sums_conserve_over_mixed_streams(
        seed in 0u64..100_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, seed));
        let before = list.metrics();
        list.enable_probe();
        list.execute(&ops);
        let after = list.metrics();
        let report = list.take_probe().expect("probe was enabled");
        let delta = after - before;
        let total = report.total();
        prop_assert_eq!(total.rounds, delta.rounds);
        prop_assert_eq!(total.io_time, delta.io_time);
        prop_assert_eq!(total.pim_time, delta.pim_time);
        prop_assert_eq!(total.cpu_work, delta.cpu_work);
        prop_assert_eq!(total.total_messages, delta.total_messages);
    }
}
