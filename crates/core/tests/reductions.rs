//! Reduction range functions (Count/Sum/Min/Max) in both execution
//! flavours, vs a BTreeMap oracle.

use std::collections::BTreeMap;

use pim_core::{Config, PimSkipList, RangeFunc};

fn setup() -> (PimSkipList, BTreeMap<i64, u64>) {
    let mut list = PimSkipList::new(Config::new(8, 1 << 11, 77));
    let pairs: Vec<(i64, u64)> = (0..300)
        .map(|i| (i * 5, ((i * 2654435761i64) % 1000).unsigned_abs()))
        .collect();
    list.batch_upsert(&pairs);
    (list, pairs.into_iter().collect())
}

fn oracle_agg(oracle: &BTreeMap<i64, u64>, lo: i64, hi: i64) -> (u64, u64, u64, u64) {
    let vals: Vec<u64> = oracle.range(lo..=hi).map(|(_, &v)| v).collect();
    (
        vals.len() as u64,
        vals.iter().sum(),
        vals.iter().copied().min().unwrap_or(u64::MAX),
        vals.iter().copied().max().unwrap_or(0),
    )
}

#[test]
fn broadcast_min_max_match_oracle() {
    let (mut list, oracle) = setup();
    for (lo, hi) in [(0i64, 1495i64), (100, 600), (777, 777), (2000, 3000)] {
        let (cnt, sum, min, max) = oracle_agg(&oracle, lo, hi);
        let rmin = list.range_broadcast(lo, hi, RangeFunc::Min);
        assert_eq!(rmin.min, min, "min [{lo},{hi}]");
        assert_eq!(rmin.count, cnt);
        let rmax = list.range_broadcast(lo, hi, RangeFunc::Max);
        assert_eq!(rmax.max, max, "max [{lo},{hi}]");
        let rsum = list.range_broadcast(lo, hi, RangeFunc::Sum);
        assert_eq!(rsum.sum, sum, "sum [{lo},{hi}]");
    }
}

#[test]
fn tree_min_max_match_oracle() {
    let (mut list, oracle) = setup();
    let ranges = vec![(0i64, 500i64), (250, 1000), (600, 600), (1400, 1495)];
    let rmin = list.batch_range(&ranges, RangeFunc::Min);
    let rmax = list.batch_range(&ranges, RangeFunc::Max);
    let rsum = list.batch_range(&ranges, RangeFunc::Sum);
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        let (cnt, sum, min, max) = oracle_agg(&oracle, lo, hi);
        assert_eq!(rmin[i].min, min, "tree min [{lo},{hi}]");
        assert_eq!(rmax[i].max, max, "tree max [{lo},{hi}]");
        assert_eq!(rsum[i].sum, sum, "tree sum [{lo},{hi}]");
        assert_eq!(rsum[i].count, cnt, "tree count [{lo},{hi}]");
    }
}

#[test]
fn empty_range_reduction_identities() {
    let (mut list, _) = setup();
    let r = list.range_broadcast(1, 2, RangeFunc::Min);
    assert_eq!(r.count, 0);
    assert_eq!(r.min, u64::MAX);
    assert_eq!(r.max, 0);
    let rt = list.batch_range(&[(1, 2)], RangeFunc::Max);
    assert_eq!(rt[0].count, 0);
    assert_eq!(rt[0].max, 0);
}

#[test]
fn overlapping_tree_reductions_count_per_op() {
    let (mut list, oracle) = setup();
    // Identical overlapping ranges must each get the full reduction.
    let ranges = vec![(0i64, 700i64); 3];
    let res = list.batch_range(&ranges, RangeFunc::Sum);
    let (cnt, sum, _, _) = oracle_agg(&oracle, 0, 700);
    for r in res {
        assert_eq!(r.count, cnt);
        assert_eq!(r.sum, sum);
    }
}

#[test]
fn tree_reductions_run_one_descent_and_agree_with_count_and_read() {
    let (mut list, _) = setup();
    // Overlapping, nested, touching, identical and empty ranges.
    let ranges = vec![
        (0i64, 500i64),
        (250, 1000),
        (300, 400),
        (1001, 1200),
        (1201, 1495),
        (300, 400),
        (1496, 2000),
    ];
    let counts = list.batch_range(&ranges, RangeFunc::Count);
    let reads = list.batch_range(&ranges, RangeFunc::Read);
    for func in [RangeFunc::Sum, RangeFunc::Min, RangeFunc::Max] {
        list.enable_probe();
        let before = list.metrics().rounds;
        let got = list.batch_range(&ranges, func);
        let rounds = list.metrics().rounds - before;
        let report = list.take_probe().expect("probe was enabled");
        assert!(
            report.spans_named("range_tree/count").is_empty(),
            "{func:?} ran a counting descent"
        );
        let execute = report.spans_named("range_tree/execute")[0];
        let search = report.spans_named("search")[0];
        assert_eq!(
            rounds,
            report.inclusive(search).rounds + report.inclusive(execute).rounds,
            "{func:?}: rounds outside the search and the one descent"
        );
        for (i, r) in got.iter().enumerate() {
            let values = reads[i].items.iter().map(|&(_, v)| v);
            assert_eq!(r.count, counts[i].count, "{func:?} count {:?}", ranges[i]);
            assert_eq!(r.count, reads[i].items.len() as u64);
            assert_eq!(r.sum, values.clone().sum::<u64>(), "{func:?} sum");
            assert_eq!(r.min, values.clone().min().unwrap_or(u64::MAX));
            assert_eq!(r.max, values.max().unwrap_or(0), "{func:?} max");
        }
    }
    // `Count` is answered by the counting descent alone.
    list.enable_probe();
    list.batch_range(&ranges, RangeFunc::Count);
    let report = list.take_probe().expect("probe was enabled");
    assert_eq!(report.spans_named("range_tree/count").len(), 1);
}

#[test]
fn wide_ranges_fan_out_from_the_replicated_part() {
    // A subrange that runs past its left end's lower-part entry must start
    // at the root and fan out through the replicated part: from the entry it
    // would crawl the top lower-part level one hop per round (2923 rounds
    // for the single range at P = 16). The caps are the rounds of the same
    // `Count` batch with the one-global-segment search this replaced; `Sum`
    // ran a second descent there (63–83 rounds) and must now cost what
    // `Count` does.
    let n = 1i64 << 15;
    let pairs: Vec<(i64, u64)> = (0..n).map(|i| (4 * i, i as u64)).collect();
    let one = [(1_000i64, 100_000i64)];
    let sparse = [(1_000i64, 30_000i64), (40_000, 80_000), (90_000, 130_000)];
    let touching = [(1_000i64, 30_000i64), (30_001, 80_000), (80_001, 130_000)];
    for (p, caps) in [(16u32, [37u64, 44, 44]), (64, [43, 54, 53])] {
        let mut list = PimSkipList::new(Config::new(p, n as u64, 42));
        list.bulk_load(&pairs);
        for (ranges, cap) in [&one[..], &sparse[..], &touching[..]].into_iter().zip(caps) {
            for func in [RangeFunc::Count, RangeFunc::Sum] {
                let before = list.metrics().rounds;
                let got = list.batch_range(ranges, func);
                let rounds = list.metrics().rounds - before;
                assert!(
                    rounds <= cap,
                    "P={p} {func:?} {ranges:?}: {rounds} rounds > {cap}"
                );
                for (r, &(lo, hi)) in got.iter().zip(ranges) {
                    // Resident keys are the multiples of 4 in [0, 4n).
                    let keys = hi.min(4 * n - 4).div_euclid(4) - (lo + 3).div_euclid(4) + 1;
                    assert_eq!(r.count, keys as u64, "P={p} {func:?} [{lo}, {hi}]");
                }
            }
        }
    }
}

#[test]
fn range_auto_matches_both_strategies() {
    let (mut list, oracle) = setup();
    // Small range (tree regime) and large range (broadcast regime).
    for (lo, hi) in [(100i64, 130i64), (0, 1495)] {
        let auto = list.range_auto(lo, hi, RangeFunc::Read);
        let expect: Vec<(i64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(auto.items, expect, "range_auto [{lo},{hi}]");
        let auto_sum = list.range_auto(lo, hi, RangeFunc::Sum);
        assert_eq!(auto_sum.sum, expect.iter().map(|&(_, v)| v).sum::<u64>());
        let auto_cnt = list.range_auto(lo, hi, RangeFunc::Count);
        assert_eq!(auto_cnt.count, expect.len() as u64);
    }
}
