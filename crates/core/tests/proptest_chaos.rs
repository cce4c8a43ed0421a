//! Property-based chaos testing: arbitrary fault plans against arbitrary
//! batch programs.
//!
//! For every generated `(program, fault plan)` pair, the faulted run must
//! end with the exact contents of a fault-free `BTreeMap` oracle and a
//! passing structural validation. The retry budget is kept strictly above
//! the number of scheduled fault events, so `RetriesExhausted` is
//! unreachable by construction (each scheduled round can damage at most
//! one attempt) and *any* error `try_execute` returns is a real bug.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pim_core::prelude::*;
use pim_core::FaultPlan;

/// One homogeneous batch of a generated program.
#[derive(Debug, Clone)]
enum Batch {
    Upsert(Vec<(i64, u64)>),
    Delete(Vec<i64>),
    Update(Vec<(i64, u64)>),
    Get(Vec<i64>),
}

fn key_strategy() -> impl Strategy<Value = i64> {
    -30i64..150
}

fn batch_strategy() -> impl Strategy<Value = Batch> {
    prop_oneof![
        3 => prop::collection::vec((key_strategy(), any::<u64>()), 1..30).prop_map(Batch::Upsert),
        2 => prop::collection::vec(key_strategy(), 1..30).prop_map(Batch::Delete),
        1 => prop::collection::vec((key_strategy(), any::<u64>()), 1..20).prop_map(Batch::Update),
        1 => prop::collection::vec(key_strategy(), 1..30).prop_map(Batch::Get),
    ]
}

impl Batch {
    /// The batch as the run `try_execute` commits.
    fn ops(&self) -> Vec<Op> {
        match self {
            Batch::Upsert(pairs) => pairs
                .iter()
                .map(|&(key, value)| Op::Upsert { key, value })
                .collect(),
            Batch::Delete(keys) => keys.iter().map(|&key| Op::Delete { key }).collect(),
            Batch::Update(pairs) => pairs
                .iter()
                .map(|&(key, value)| Op::Update { key, value })
                .collect(),
            Batch::Get(keys) => keys.iter().map(|&key| Op::Get { key }).collect(),
        }
    }
}

fn apply_upsert_first_wins(oracle: &mut BTreeMap<i64, u64>, pairs: &[(i64, u64)]) {
    let mut seen = std::collections::HashSet::new();
    for &(k, v) in pairs {
        if seen.insert(k) {
            oracle.insert(k, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn faulted_programs_match_fault_free_oracle(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        p in 2u32..5,
        events in 0usize..7,
        program in prop::collection::vec(batch_strategy(), 1..10),
    ) {
        // max_retries = 8 > max events = 6: exhaustion is impossible.
        let mut list = PimSkipList::new(Config::new(p, 1 << 10, seed).with_max_retries(8));
        list.set_fault_plan(FaultPlan::random(fault_seed, p, 300, events));
        let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();

        for batch in &program {
            let res = list.try_execute(&batch.ops()).expect("batch under faults");
            match batch {
                Batch::Upsert(pairs) => apply_upsert_first_wins(&mut oracle, pairs),
                Batch::Delete(keys) => {
                    let mut removed = std::collections::HashSet::new();
                    for (i, k) in keys.iter().enumerate() {
                        let expect = oracle.contains_key(k) || removed.contains(k);
                        prop_assert_eq!(&res[i], &Reply::Deleted(expect), "delete({}) mismatch", k);
                        if oracle.remove(k).is_some() {
                            removed.insert(*k);
                        }
                    }
                }
                Batch::Update(pairs) => {
                    // Duplicates resolve first-wins (semisort dedup), and
                    // updates never change membership.
                    let mut seen = std::collections::HashSet::new();
                    for (i, &(k, v)) in pairs.iter().enumerate() {
                        let found = oracle.contains_key(&k);
                        prop_assert_eq!(&res[i], &Reply::Updated(found), "update({}) verdict", k);
                        if seen.insert(k) {
                            if let Some(slot) = oracle.get_mut(&k) {
                                *slot = v;
                            }
                        }
                    }
                }
                Batch::Get(keys) => {
                    for (i, k) in keys.iter().enumerate() {
                        let want = Reply::Value(oracle.get(k).copied());
                        prop_assert_eq!(&res[i], &want, "get({})", k);
                    }
                }
            }
        }

        prop_assert_eq!(
            list.collect_items(),
            oracle.into_iter().collect::<Vec<_>>(),
            "final contents must equal the fault-free oracle"
        );
        if let Err(e) = list.validate() {
            prop_assert!(false, "validate failed after faulted program: {}", e);
        }
    }
}
