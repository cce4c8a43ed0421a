//! Property-based contract of push-pull batch search.
//!
//! * **Off is free**: `with_push_pull(false)` is byte-identical to a
//!   structure that never had the feature — same replies, same contents,
//!   same machine `Metrics`, same serialised trace artifacts.
//! * **On is safe**: `with_push_pull(true)` changes metrics and traces
//!   (fewer rounds, CPU-resolved descents) but never a reply and never
//!   the stored contents, over arbitrary mixed op streams.
//! * **Warm caches cut rounds**: repeated search batches over a stable
//!   structure converge to strictly fewer rounds per batch than baseline.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pim_core::prelude::*;
use pim_core::FaultPlan;

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
        2 => key_strategy().prop_map(|key| Op::Successor { key }),
        2 => key_strategy().prop_map(|key| Op::Predecessor { key }),
        1 => (key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Update { key, value }),
        1 => (key_strategy(), key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Sum }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn push_pull_off_is_byte_identical_to_baseline(
        seed in 0u64..1_000_000,
        p in 1u32..9,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        // `with_push_pull(false)` must be indistinguishable from a build
        // without the feature: the dark path is one `is_some` branch.
        let mut base = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut off = PimSkipList::new(Config::new(p, 1 << 10, seed).with_push_pull(false));
        base.enable_tracing();
        off.enable_tracing();

        let base_replies = base.execute(&ops);
        let off_replies = off.execute(&ops);

        prop_assert_eq!(&base_replies, &off_replies,
            "push-pull off must not change any reply");
        prop_assert_eq!(base.collect_items(), off.collect_items(),
            "push-pull off must not change the contents");
        prop_assert_eq!(base.metrics(), off.metrics(),
            "push-pull off must not change the machine work");

        let (base_trace, off_trace) = (base.take_trace(), off.take_trace());
        let base_bundle = pim_runtime::ExportBundle { p, trace: &base_trace, report: None };
        let off_bundle = pim_runtime::ExportBundle { p, trace: &off_trace, report: None };
        prop_assert_eq!(
            pim_runtime::chrome_trace(&base_bundle),
            pim_runtime::chrome_trace(&off_bundle),
            "serialised chrome traces must match byte for byte");
        prop_assert_eq!(
            pim_runtime::rounds_jsonl(&base_bundle),
            pim_runtime::rounds_jsonl(&off_bundle),
            "serialised round logs must match byte for byte");
    }

    #[test]
    fn push_pull_on_preserves_replies_and_contents(
        seed in 0u64..1_000_000,
        p in 1u32..9,
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut base = PimSkipList::new(Config::new(p, 1 << 10, seed));
        let mut pp = PimSkipList::new(Config::new(p, 1 << 10, seed).with_push_pull(true));

        let base_replies = base.execute(&ops);
        let pp_replies = pp.execute(&ops);

        prop_assert_eq!(&base_replies, &pp_replies,
            "push-pull must not change any reply");
        prop_assert_eq!(base.collect_items(), pp.collect_items(),
            "push-pull must not change the contents");
        if let Err(e) = pp.validate() {
            return Err(TestCaseError::fail(format!("invariant violated: {e}")));
        }
    }

    #[test]
    fn push_pull_toggle_mid_stream_preserves_replies(
        seed in 0u64..1_000_000,
        ops_a in prop::collection::vec(op_strategy(), 1..40),
        ops_b in prop::collection::vec(op_strategy(), 1..40),
    ) {
        // Runtime toggling (the cluster tier forwards `set_push_pull` this
        // way): on for a prefix, off for the rest — replies and contents
        // still match the baseline throughout.
        let mut base = PimSkipList::new(Config::new(4, 1 << 10, seed));
        let mut toggled = PimSkipList::new(Config::new(4, 1 << 10, seed).with_push_pull(true));

        prop_assert_eq!(base.execute(&ops_a), toggled.execute(&ops_a));
        toggled.set_push_pull(false);
        prop_assert!(!toggled.push_pull_enabled());
        prop_assert_eq!(base.execute(&ops_b), toggled.execute(&ops_b));
        prop_assert_eq!(base.collect_items(), toggled.collect_items());
    }

    /// Chaos: module crashes mid-batch with the cache warm. The
    /// `module_crashes` staleness guard plus the epoch bump at mutation
    /// start mean recovery retries can never read a wiped module through
    /// a stale snapshot — every reply still matches a fault-free
    /// `BTreeMap` oracle and the final structure validates. The retry
    /// budget (8) strictly exceeds the scheduled events (≤6), so any
    /// error `try_execute` returns is a real bug.
    #[test]
    fn push_pull_survives_mid_batch_crashes(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        p in 2u32..5,
        events in 0usize..7,
        rounds in prop::collection::vec(
            (
                prop::collection::vec((key_strategy(), any::<u64>()), 1..24),
                prop::collection::vec(key_strategy(), 1..24),
                prop::collection::vec(key_strategy(), 1..24),
            ),
            1..6,
        ),
    ) {
        let mut list = PimSkipList::new(
            Config::new(p, 1 << 10, seed)
                .with_max_retries(8)
                .with_push_pull(true),
        );
        list.set_fault_plan(FaultPlan::random(fault_seed, p, 300, events));
        let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();

        for (pairs, dels, succs) in &rounds {
            let upserts: Vec<Op> = pairs.iter().map(|&(key, value)| Op::Upsert { key, value }).collect();
            list.try_execute(&upserts).expect("upsert under faults");
            let mut seen = std::collections::HashSet::new();
            for &(k, v) in pairs {
                if seen.insert(k) {
                    oracle.insert(k, v);
                }
            }

            // Successor batches both exercise and re-warm the cache.
            let queries: Vec<Op> = succs.iter().map(|&key| Op::Successor { key }).collect();
            let res = list.try_execute(&queries).expect("successor under faults");
            for (i, k) in succs.iter().enumerate() {
                let want = oracle.range(*k..).next().map(|(&sk, _)| sk);
                prop_assert_eq!(
                    res[i].as_entry().flatten().map(|(sk, _)| sk),
                    want,
                    "successor({}) drifted under faults",
                    k
                );
            }

            let deletes: Vec<Op> = dels.iter().map(|&key| Op::Delete { key }).collect();
            list.try_execute(&deletes).expect("delete under faults");
            for k in dels {
                oracle.remove(k);
            }
        }

        prop_assert_eq!(
            list.collect_items(),
            oracle.into_iter().collect::<Vec<_>>(),
            "final contents must equal the fault-free oracle"
        );
        if let Err(e) = list.validate() {
            return Err(TestCaseError::fail(format!("validate failed: {e}")));
        }
    }
}

#[test]
fn warm_push_pull_cuts_search_rounds() {
    // Repeated Successor batches over a stable structure: once the cache
    // is warm, the per-batch round count must drop well below baseline —
    // the tentpole's ≥2× target, asserted here at a smoke-test scale.
    let n: i64 = 4_000;
    let pairs: Vec<(i64, u64)> = (0..n).map(|k| (k * 7, k as u64)).collect();
    let batch: Vec<i64> = (0..256).map(|i| (i * 97) % (n * 7)).collect();

    let rounds_per_batch = |push_pull: bool| -> (u64, u64) {
        let mut list = PimSkipList::new(Config::new(16, 1 << 13, 42).with_push_pull(push_pull));
        list.load(&pairs);
        // Warm-up batches (admission needs observed access counts).
        for _ in 0..10 {
            list.batch_successor(&batch);
        }
        let before = list.metrics();
        for _ in 0..4 {
            list.batch_successor(&batch);
        }
        let d = list.metrics() - before;
        (d.rounds / 4, list.hot_cache_len() as u64)
    };

    let (base_rounds, _) = rounds_per_batch(false);
    let (pp_rounds, cache_len) = rounds_per_batch(true);
    assert!(cache_len > 0, "warm cache must hold records");
    assert!(
        pp_rounds * 2 <= base_rounds,
        "warm push-pull must at least halve rounds/batch: baseline {base_rounds}, push-pull {pp_rounds}"
    );
}
