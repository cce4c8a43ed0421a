//! Cross-crate end-to-end tests: all structures answer identically on the
//! same workloads, metrics behave, and results are reproducible.

use pim_baseline::{FineGrainedSkipList, RangePartitionedList};
use pim_core::prelude::*;
use pim_workloads::{value_for, PointGen};

#[test]
fn all_structures_agree_on_gets() {
    let p = 16u32;
    let n = 3000usize;
    let mut gen = PointGen::new(1, 0, n as i64 * 16);
    let keys = gen.distinct_uniform(n);
    let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, value_for(k))).collect();

    let mut ours = PimSkipList::new(Config::new(p, n as u64, 2));
    ours.load(&pairs);
    let mut rp = RangePartitionedList::new(p, 0, n as i64 * 16, 2);
    rp.batch_upsert(&pairs);
    let mut fine = FineGrainedSkipList::new(p, n as u64, 2);
    fine.batch_upsert(&pairs);

    let queries: Vec<i64> = gen.uniform(2000);
    let a = ours.batch_get(&queries);
    let b = rp.batch_get(&queries);
    let c = fine.batch_get(&queries);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn all_structures_agree_on_successors() {
    let p = 8u32;
    let n = 1500usize;
    let mut gen = PointGen::new(3, 0, n as i64 * 8);
    let keys = gen.distinct_uniform(n);
    let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, value_for(k))).collect();

    let mut ours = PimSkipList::new(Config::new(p, n as u64, 4));
    ours.load(&pairs);
    let mut rp = RangePartitionedList::new(p, 0, n as i64 * 8, 4);
    rp.batch_upsert(&pairs);

    let queries: Vec<i64> = gen.uniform(800);
    let a: Vec<Option<i64>> = ours
        .batch_successor(&queries)
        .into_iter()
        .map(|s| s.map(|(k, _)| k))
        .collect();
    let b: Vec<Option<i64>> = rp
        .batch_successor(&queries)
        .into_iter()
        .map(|s| s.map(|(k, _)| k))
        .collect();
    assert_eq!(a, b);
}

#[test]
fn range_results_agree_between_flavours_and_baseline() {
    let p = 8u32;
    let n = 2000usize;
    let mut gen = PointGen::new(5, 0, n as i64 * 8);
    let keys = gen.distinct_uniform(n);
    let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, value_for(k))).collect();

    let mut ours = PimSkipList::new(Config::new(p, n as u64, 6));
    ours.load(&pairs);
    let mut rp = RangePartitionedList::new(p, 0, n as i64 * 8, 6);
    rp.batch_upsert(&pairs);

    let mut sorted = keys;
    sorted.sort_unstable();
    for (i, window) in [(100usize, 400usize), (0, 50), (1500, 1999)]
        .iter()
        .enumerate()
    {
        let (lo, hi) = (sorted[window.0], sorted[window.1]);
        let bcast = ours.range_broadcast(lo, hi, RangeFunc::Read);
        let tree = ours.batch_range(&[(lo, hi)], RangeFunc::Read);
        let base = rp.range(lo, hi);
        assert_eq!(bcast.items, base, "broadcast vs baseline, window {i}");
        assert_eq!(tree[0].items, base, "tree vs baseline, window {i}");
    }
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut list = PimSkipList::new(Config::new(8, 1 << 10, 99));
        let mut gen = PointGen::new(7, 0, 100_000);
        let keys = gen.distinct_uniform(500);
        let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, value_for(k))).collect();
        list.batch_upsert(&pairs);
        list.batch_delete(&keys[..100]);
        list.batch_successor(&gen.uniform(300));
        (list.collect_items(), list.metrics())
    };
    let (items1, m1) = run();
    let (items2, m2) = run();
    assert_eq!(items1, items2);
    assert_eq!(m1, m2, "metrics must be bit-identical across runs");
}

#[test]
fn different_seeds_same_answers_different_placement() {
    let build = |seed| {
        let mut list = PimSkipList::new(Config::new(8, 1 << 10, seed));
        let pairs: Vec<(i64, u64)> = (0..400).map(|i| (i * 3, i as u64)).collect();
        list.batch_upsert(&pairs);
        list
    };
    let mut a = build(1);
    let mut b = build(2);
    assert_eq!(a.collect_items(), b.collect_items());
    let queries: Vec<i64> = (0..1200).step_by(5).collect();
    let ra: Vec<Option<i64>> = a
        .batch_successor(&queries)
        .into_iter()
        .map(|s| s.map(|(k, _)| k))
        .collect();
    let rb: Vec<Option<i64>> = b
        .batch_successor(&queries)
        .into_iter()
        .map(|s| s.map(|(k, _)| k))
        .collect();
    assert_eq!(ra, rb);
    // Placement differs: space distributions are not identical.
    assert_ne!(
        a.space_per_module(),
        b.space_per_module(),
        "different seeds should place nodes differently"
    );
}

#[test]
fn mixed_structure_lifecycle_under_workload_generators() {
    let p = 16u32;
    let mut list = PimSkipList::new(Config::new(p, 1 << 12, 11));
    let mut gen = PointGen::new(12, 0, 1 << 18);
    let mut resident: std::collections::BTreeMap<i64, u64> = Default::default();

    for round in 0..6 {
        let fresh = gen.distinct_uniform(500);
        let pairs: Vec<(i64, u64)> = fresh.iter().map(|&k| (k, round as u64)).collect();
        list.batch_upsert(&pairs);
        let mut seen = std::collections::HashSet::new();
        for &(k, v) in &pairs {
            if seen.insert(k) {
                resident.insert(k, v);
            }
        }
        if !resident.is_empty() {
            let existing: Vec<i64> = resident.keys().copied().collect();
            let dels = gen.distinct_from_existing(&existing, existing.len() / 4);
            list.batch_delete(&dels);
            for d in dels {
                resident.remove(&d);
            }
        }
        list.validate().expect("invariants");
        let items = list.collect_items();
        let expect: Vec<(i64, u64)> = resident.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(items, expect, "round {round}");
    }
}
