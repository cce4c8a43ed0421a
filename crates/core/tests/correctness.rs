//! Differential correctness tests: the PIM skip list vs. a BTreeMap oracle,
//! with full structural validation after every batch.

use std::collections::BTreeMap;

use pim_core::{Config, PimSkipList, RangeFunc, UpsertOutcome};

fn cfg(p: u32) -> Config {
    Config::new(p, 1 << 12, 0xC0FFEE)
}

fn check(list: &PimSkipList, oracle: &BTreeMap<i64, u64>) {
    list.validate()
        .unwrap_or_else(|e| panic!("invariant violated: {e}"));
    let items = list.collect_items();
    let expect: Vec<(i64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(items, expect, "contents diverge from oracle");
    assert_eq!(list.len(), oracle.len() as u64);
}

#[test]
fn upsert_then_get_small() {
    let mut list = PimSkipList::new(cfg(4));
    let mut oracle = BTreeMap::new();
    let pairs: Vec<(i64, u64)> = (0..50).map(|i| (i * 7 % 101, (i * 13) as u64)).collect();
    list.batch_upsert(&pairs);
    for &(k, v) in &pairs {
        oracle.insert(k, v); // later pairs with same key: first wins in list
    }
    // Replay first-wins for duplicate keys.
    let mut first_wins = BTreeMap::new();
    for &(k, v) in &pairs {
        first_wins.entry(k).or_insert(v);
    }
    check(&list, &first_wins);
    let keys: Vec<i64> = (0..120).collect();
    let got = list.batch_get(&keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(got[i], first_wins.get(k).copied(), "get({k})");
    }
}

#[test]
fn upsert_updates_existing_keys() {
    let mut list = PimSkipList::new(cfg(4));
    let r1 = list.batch_upsert(&[(1, 10), (2, 20)]);
    assert_eq!(r1, vec![UpsertOutcome::Inserted, UpsertOutcome::Inserted]);
    let r2 = list.batch_upsert(&[(1, 11), (3, 30)]);
    assert_eq!(r2, vec![UpsertOutcome::Updated, UpsertOutcome::Inserted]);
    assert_eq!(list.collect_items(), vec![(1, 11), (2, 20), (3, 30)]);
    list.validate().unwrap();
}

#[test]
fn interleaved_batches_match_oracle() {
    let mut list = PimSkipList::new(cfg(8));
    let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();
    let mut state = 12345u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for round in 0..12 {
        // Upsert a batch.
        let ups: Vec<(i64, u64)> = (0..64)
            .map(|_| ((next() % 500) as i64, next() % 1000))
            .collect();
        list.batch_upsert(&ups);
        // Mirror the structure's first-wins dedup within the batch.
        let mut seen = std::collections::HashSet::new();
        for &(k, v) in &ups {
            if seen.insert(k) {
                oracle.insert(k, v);
            }
        }
        // Delete a batch.
        let dels: Vec<i64> = (0..32).map(|_| (next() % 500) as i64).collect();
        let res = list.batch_delete(&dels);
        let mut seen_d = std::collections::HashSet::new();
        for (i, &k) in dels.iter().enumerate() {
            let was_there = oracle.remove(&k).is_some() || {
                // duplicate in batch: report of canonical occurrence
                !seen_d.insert(k) && res[i]
            };
            let _ = was_there;
        }
        check(&list, &oracle);
        let _ = round;
    }
}

#[test]
fn delete_everything_and_reinsert() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (0..200).map(|i| (i, i as u64 * 2)).collect();
    list.batch_upsert(&pairs);
    list.validate().unwrap();
    let keys: Vec<i64> = (0..200).collect();
    let res = list.batch_delete(&keys);
    assert!(res.iter().all(|&f| f));
    assert_eq!(list.len(), 0);
    assert!(list.collect_items().is_empty());
    list.validate().unwrap();
    // Reinsert into the emptied structure (exercises slot reuse).
    list.batch_upsert(&pairs);
    assert_eq!(list.collect_items(), pairs);
    list.validate().unwrap();
}

#[test]
fn delete_contiguous_run() {
    // A contiguous run of deletions forces long marked runs through the
    // list contraction (the hard case of §4.4).
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (0..512).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    let run: Vec<i64> = (100..400).collect();
    let res = list.batch_delete(&run);
    assert!(res.iter().all(|&f| f));
    let mut oracle: BTreeMap<i64, u64> = pairs.iter().copied().collect();
    for k in run {
        oracle.remove(&k);
    }
    check(&list, &oracle);
}

#[test]
fn delete_missing_keys_reports_false() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(5, 1), (10, 2)]);
    let res = list.batch_delete(&[5, 6, 10, 11]);
    assert_eq!(res, vec![true, false, true, false]);
    assert_eq!(list.len(), 0);
    list.validate().unwrap();
}

#[test]
fn successor_and_predecessor_match_oracle() {
    let mut list = PimSkipList::new(cfg(8));
    let keys: Vec<i64> = (0..300).map(|i| i * 10).collect();
    let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, k as u64)).collect();
    list.batch_upsert(&pairs);
    let oracle: BTreeMap<i64, u64> = pairs.iter().copied().collect();

    let queries: Vec<i64> = (0..3100).step_by(7).map(|q| q - 50).collect();
    let succ = list.batch_successor(&queries);
    let pred = list.batch_predecessor(&queries);
    for (i, &q) in queries.iter().enumerate() {
        let expect_s = oracle.range(q..).next().map(|(&k, _)| k);
        assert_eq!(succ[i].map(|(k, _)| k), expect_s, "successor({q})");
        let expect_p = oracle.range(..=q).next_back().map(|(&k, _)| k);
        assert_eq!(pred[i].map(|(k, _)| k), expect_p, "predecessor({q})");
    }
    list.validate().unwrap();
}

#[test]
fn search_batches_at_the_edges_of_the_key_space() {
    // A search for a key at or below the smallest resident key never leaves
    // the replicated sentinel tower: stage 1 answers it in phase 0 and it
    // has no lower-part path. `log P = 3`, so the batch sizes below cover
    // one pivot, two, `log P` and `log P + 1`.
    let (min, max) = (100i64, 5_000i64);
    let resident: Vec<(i64, u64)> = (min..=max).step_by(10).map(|k| (k, k as u64)).collect();
    let batches: Vec<Vec<i64>> = vec![
        vec![min],
        vec![min - 5],
        vec![max],
        vec![max + 5],
        vec![min - 1, min],
        vec![min, max + 1],
        vec![min - 20, min - 10, min],
        vec![min - 3, min, min + 1, max + 7],
        (min - 12..min + 12).chain(max - 12..max + 12).collect(),
        (min - 40..=max + 40).step_by(13).collect(),
    ];
    for config in [cfg(8), cfg(8).with_h_low(0)] {
        for oracle in [BTreeMap::new(), resident.iter().copied().collect()] {
            let oracle: BTreeMap<i64, u64> = oracle;
            let mut list = PimSkipList::new(config.clone());
            list.batch_upsert(&oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
            for queries in &batches {
                let context = format!(
                    "h_low {} n {} queries {queries:?}",
                    config.h_low,
                    oracle.len()
                );
                let succ = list.batch_successor(queries);
                let pred = list.batch_predecessor(queries);
                for (i, &q) in queries.iter().enumerate() {
                    let want = oracle.range(q..).next().map(|(&k, _)| k);
                    assert_eq!(succ[i].map(|(k, _)| k), want, "successor({q}): {context}");
                    let want = oracle.range(..=q).next_back().map(|(&k, _)| k);
                    assert_eq!(pred[i].map(|(k, _)| k), want, "predecessor({q}): {context}");
                }
            }
            list.validate().unwrap();
        }
    }
}

#[test]
fn successor_with_adversarial_same_successor_batch() {
    let mut list = PimSkipList::new(cfg(8));
    // Two resident keys with a huge gap.
    list.batch_upsert(&[(0, 1), (1_000_000, 2)]);
    // Every query lands in the gap: all share the successor 1_000_000.
    let queries: Vec<i64> = (1..2000).map(|i| i * 17 % 999_983 + 1).collect();
    let succ = list.batch_successor(&queries);
    assert!(succ.iter().all(|s| s.map(|(k, _)| k) == Some(1_000_000)));
    list.validate().unwrap();
}

#[test]
fn update_only_touches_existing() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(1, 10), (2, 20)]);
    let res = list.batch_update(&[(1, 11), (3, 33)]);
    assert_eq!(res, vec![true, false]);
    assert_eq!(list.collect_items(), vec![(1, 11), (2, 20)]);
    assert_eq!(list.len(), 2);
    list.validate().unwrap();
}

#[test]
fn duplicate_flood_get_batch() {
    let mut list = PimSkipList::new(cfg(8));
    list.batch_upsert(&[(42, 420)]);
    let keys = vec![42i64; 5000];
    let got = list.batch_get(&keys);
    assert!(got.iter().all(|&v| v == Some(420)));
}

#[test]
fn range_broadcast_read_matches_oracle() {
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (0..400).map(|i| (i * 3, i as u64)).collect();
    list.batch_upsert(&pairs);
    let oracle: BTreeMap<i64, u64> = pairs.iter().copied().collect();

    for (lo, hi) in [(0, 1199), (100, 500), (301, 301), (500, 100), (1300, 2000)] {
        if lo > hi {
            continue;
        }
        let r = list.range_broadcast(lo, hi, RangeFunc::Read);
        let expect: Vec<(i64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(r.items, expect, "range [{lo}, {hi}]");
        assert_eq!(r.count, expect.len() as u64);
    }
}

#[test]
fn range_broadcast_count_and_sum() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (1..=100).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    let r = list.range_broadcast(1, 100, RangeFunc::Count);
    assert_eq!(r.count, 100);
    let r = list.range_broadcast(10, 20, RangeFunc::Sum);
    assert_eq!(r.count, 11);
    assert_eq!(r.sum, (10..=20).sum::<u64>());
}

#[test]
fn range_broadcast_fetch_add() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(1, 100), (2, 200), (3, 300)]);
    let r = list.range_broadcast(1, 2, RangeFunc::FetchAdd(5));
    assert_eq!(r.items, vec![(1, 100), (2, 200)]); // old values
    assert_eq!(list.collect_items(), vec![(1, 105), (2, 205), (3, 300)]);
    list.validate().unwrap();
}

#[test]
fn batch_range_tree_read_matches_oracle() {
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (0..500).map(|i| (i * 2, i as u64)).collect();
    list.batch_upsert(&pairs);
    let oracle: BTreeMap<i64, u64> = pairs.iter().copied().collect();

    let ranges = vec![
        (0i64, 99i64),
        (50, 149),
        (900, 999),
        (300, 300),
        (998, 1200),
    ];
    let results = list.batch_range(&ranges, RangeFunc::Read);
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        let expect: Vec<(i64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(results[i].items, expect, "tree range [{lo}, {hi}]");
        assert_eq!(results[i].count, expect.len() as u64);
    }
    list.validate().unwrap();
}

#[test]
fn batch_range_tree_count_overlapping() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (0..100).map(|i| (i, 1)).collect();
    list.batch_upsert(&pairs);
    let ranges = vec![(0i64, 49i64), (25, 74), (0, 99)];
    let results = list.batch_range(&ranges, RangeFunc::Count);
    assert_eq!(results[0].count, 50);
    assert_eq!(results[1].count, 50);
    assert_eq!(results[2].count, 100);
}

#[test]
fn batch_range_tree_add_in_place_with_overlap() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
    // Keys 2..3 are covered by both ranges → +2 each; 1 and 4 by one → +1.
    let ranges = vec![(1i64, 3i64), (2, 4)];
    list.batch_range(&ranges, RangeFunc::AddInPlace(1));
    assert_eq!(list.collect_items(), vec![(1, 1), (2, 2), (3, 2), (4, 1)]);
    list.validate().unwrap();
}

#[test]
fn batch_range_tree_fetch_add_returns_old_values() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(10, 100), (20, 200), (30, 300)]);
    let results = list.batch_range(&[(10, 20)], RangeFunc::FetchAdd(7));
    assert_eq!(results[0].items, vec![(10, 100), (20, 200)]);
    assert_eq!(list.collect_items(), vec![(10, 107), (20, 207), (30, 300)]);
    list.validate().unwrap();
}

#[test]
fn empty_structure_operations() {
    let mut list = PimSkipList::new(cfg(4));
    assert_eq!(list.batch_get(&[1, 2]), vec![None, None]);
    assert_eq!(list.batch_delete(&[1]), vec![false]);
    assert_eq!(list.batch_successor(&[5]), vec![None]);
    assert_eq!(list.batch_predecessor(&[5]), vec![None]);
    let r = list.range_broadcast(0, 100, RangeFunc::Read);
    assert!(r.items.is_empty());
    let rt = list.batch_range(&[(0, 100)], RangeFunc::Read);
    assert!(rt[0].items.is_empty());
    list.validate().unwrap();
}

#[test]
fn singleton_convenience_api() {
    let mut list = PimSkipList::new(cfg(4));
    list.upsert(7, 70);
    assert_eq!(list.get(7), Some(70));
    assert_eq!(list.get(8), None);
    assert!(list.delete(7));
    assert!(!list.delete(7));
    assert!(list.is_empty());
    list.validate().unwrap();
}

#[test]
fn negative_keys_work() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (-50..50).map(|i| (i, (i + 50) as u64)).collect();
    list.batch_upsert(&pairs);
    assert_eq!(list.collect_items(), pairs);
    let s = list.batch_successor(&[-100]);
    assert_eq!(s[0].map(|(k, _)| k), Some(-50));
    let p = list.batch_predecessor(&[-51]);
    assert_eq!(p[0], None);
    list.validate().unwrap();
}

#[test]
fn non_power_of_two_modules() {
    let mut list = PimSkipList::new(cfg(6));
    let pairs: Vec<(i64, u64)> = (0..150).map(|i| (i * 5, i as u64)).collect();
    list.batch_upsert(&pairs);
    assert_eq!(list.collect_items(), pairs);
    let res = list.batch_delete(&(0..75).map(|i| i * 10).collect::<Vec<_>>());
    assert!(res.iter().all(|&f| f));
    list.validate().unwrap();
}

#[test]
fn single_module_degenerate_machine() {
    let mut list = PimSkipList::new(cfg(1));
    let pairs: Vec<(i64, u64)> = (0..64).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    assert_eq!(list.collect_items(), pairs);
    assert_eq!(list.batch_get(&[10]), vec![Some(10)]);
    list.validate().unwrap();
}

#[test]
fn metrics_accumulate_across_batches() {
    let mut list = PimSkipList::new(cfg(8));
    let m0 = list.metrics();
    list.batch_upsert(&(0..100).map(|i| (i, 0)).collect::<Vec<_>>());
    let m1 = list.metrics();
    assert!(m1.rounds > m0.rounds);
    assert!(m1.io_time > m0.io_time);
    assert!(m1.total_pim_work > 0);
    assert!(m1.cpu_work > 0);
    assert!(m1.shared_mem_peak > 0);
}

#[test]
fn batch_read_dereferences_successor_handles() {
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (0..200).map(|i| (i * 10, i as u64 + 1000)).collect();
    list.batch_upsert(&pairs);
    let queries: Vec<i64> = (0..50).map(|i| i * 40 + 1).collect();
    let succ = list.batch_successor(&queries);
    let handles: Vec<_> = succ.iter().flatten().map(|&(_, h)| h).collect();
    let read = list.batch_read(&handles);
    let mut idx = 0;
    for (i, s) in succ.iter().enumerate() {
        if let Some((k, _)) = s {
            let (rk, rv) = read[idx];
            idx += 1;
            assert_eq!(rk, *k, "query {i}");
            assert_eq!(rv, (*k / 10) as u64 + 1000);
        }
    }
}

#[test]
fn export_goes_through_the_network() {
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (-20i64..50).map(|i| (i * 3, i.unsigned_abs())).collect();
    list.batch_upsert(&pairs);
    let m0 = list.metrics();
    let exported = list.export();
    let d = list.metrics() - m0;
    assert_eq!(exported, list.collect_items());
    assert!(d.total_messages > 0, "export must use the data path");
}

#[test]
fn tracing_captures_round_profile() {
    let mut list = PimSkipList::new(cfg(8));
    list.batch_upsert(&(0..100).map(|i| (i, 0)).collect::<Vec<_>>());
    list.enable_tracing();
    list.batch_successor(&(0..50).collect::<Vec<_>>());
    let trace = list.take_trace();
    assert!(!trace.rounds.is_empty());
    assert!(trace.max_h() > 0);
    // The per-round records must sum to the profile the metrics saw.
    for r in &trace.rounds {
        assert_eq!(r.h, *r.per_module_messages.iter().max().unwrap());
        assert_eq!(r.messages, r.per_module_messages.iter().sum::<u64>());
    }
    // Tracing is off after take.
    list.batch_get(&[1]);
    assert!(list.take_trace().rounds.is_empty());
}

#[test]
fn upsert_batch_of_all_existing_keys() {
    let mut list = PimSkipList::new(cfg(8));
    let pairs: Vec<(i64, u64)> = (0..100).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    // Second batch: pure updates (no insert pipeline at all).
    let pairs2: Vec<(i64, u64)> = (0..100).map(|i| (i, i as u64 + 1)).collect();
    let outcomes = list.batch_upsert(&pairs2);
    assert!(outcomes.iter().all(|o| *o == UpsertOutcome::Updated));
    assert_eq!(list.len(), 100);
    assert_eq!(list.collect_items(), pairs2);
    list.validate().unwrap();
}

#[test]
fn tree_range_outside_all_keys() {
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(100, 1), (200, 2)]);
    let res = list.batch_range(&[(0, 50), (300, 400), (150, 160)], RangeFunc::Read);
    assert!(res.iter().all(|r| r.items.is_empty() && r.count == 0));
    list.validate().unwrap();
}

#[test]
fn tree_range_covering_everything() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (0..300).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    let res = list.batch_range(&[(i64::MIN + 1, i64::MAX)], RangeFunc::Read);
    assert_eq!(res[0].items, pairs);
}

#[test]
fn delete_first_and_last_keys() {
    let mut list = PimSkipList::new(cfg(4));
    let pairs: Vec<(i64, u64)> = (0..50).map(|i| (i, i as u64)).collect();
    list.batch_upsert(&pairs);
    assert_eq!(list.batch_delete(&[0, 49]), vec![true, true]);
    assert_eq!(
        list.batch_successor(&[i64::MIN + 1])[0].map(|(k, _)| k),
        Some(1)
    );
    assert_eq!(
        list.batch_predecessor(&[i64::MAX])[0].map(|(k, _)| k),
        Some(48)
    );
    list.validate().unwrap();
}

#[test]
#[should_panic(expected = "h_low > 0")]
fn broadcast_range_rejected_under_full_replication() {
    let mut list = PimSkipList::new(Config::new(4, 64, 1).with_h_low(0));
    list.batch_upsert(&[(1, 1)]);
    let _ = list.range_broadcast(0, 10, RangeFunc::Read);
}

#[test]
fn min_batch_sizes_are_honored_as_recommendations_not_requirements() {
    // The paper's batch sizes are minimums for the *bounds*; the code must
    // stay correct for any batch size, including size 1 and odd sizes.
    let mut list = PimSkipList::new(cfg(8));
    for size in [1usize, 2, 3, 7, 13] {
        let pairs: Vec<(i64, u64)> = (0..size as i64)
            .map(|i| (i + 1000 * size as i64, 1))
            .collect();
        list.batch_upsert(&pairs);
        list.validate().unwrap();
    }
}

#[test]
fn extreme_keys_are_first_class() {
    // i64::MAX is a legal key (only i64::MIN is reserved for the sentinel).
    let mut list = PimSkipList::new(cfg(4));
    list.batch_upsert(&[(i64::MAX, 7), (i64::MIN + 1, 8), (0, 9)]);
    list.validate().unwrap();
    assert_eq!(list.get(i64::MAX), Some(7));
    assert_eq!(list.get(i64::MIN + 1), Some(8));
    // Successor of MAX is MAX itself; successor past it doesn't exist...
    assert_eq!(
        list.batch_successor(&[i64::MAX])[0].map(|(k, _)| k),
        Some(i64::MAX)
    );
    // ...and predecessor of MAX is MAX itself.
    assert_eq!(
        list.batch_predecessor(&[i64::MAX])[0].map(|(k, _)| k),
        Some(i64::MAX)
    );
    assert_eq!(
        list.batch_predecessor(&[i64::MIN + 1])[0].map(|(k, _)| k),
        Some(i64::MIN + 1)
    );
    assert!(list.delete(i64::MAX));
    assert_eq!(
        list.batch_predecessor(&[i64::MAX])[0].map(|(k, _)| k),
        Some(0)
    );
    list.validate().unwrap();
}
