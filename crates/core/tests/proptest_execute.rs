//! Property-based contract of the unified entry point: executing a mixed
//! [`Op`] stream through [`PimSkipList::execute`] is *exactly* the same
//! computation as splitting the stream into maximal coalescible runs and
//! calling each run's typed `batch_*` — same replies, same contents, same
//! machine metrics — and span attribution stays conservative over mixed
//! streams.

use proptest::prelude::*;

use pim_core::{Config, Op, PimSkipList, RangeFunc, Reply};

fn key_strategy() -> impl Strategy<Value = i64> {
    // Small domain: collisions, duplicate keys, overlapping ranges.
    -40i64..200
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
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut mixed = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut typed = PimSkipList::new(Config::new(p, 1 << 10, seed));

        let mixed_replies = mixed.execute(&ops);
        let mut typed_replies = Vec::with_capacity(ops.len());
        for run in runs(&ops) {
            typed_replies.extend(run_via_typed_batch(&mut typed, run));
        }

        prop_assert_eq!(&mixed_replies, &typed_replies,
            "mixed execute and per-type batches must answer identically");
        prop_assert_eq!(mixed.collect_items(), typed.collect_items(),
            "final contents must match");
        prop_assert_eq!(mixed.metrics(), typed.metrics(),
            "the two paths must do bit-identical machine work");
        if let Err(e) = mixed.validate() {
            return Err(TestCaseError::fail(format!("invariant violated: {e}")));
        }
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
