//! Empirical checks of the paper's bounds — the theorem suite as tests.
//!
//! Each test measures model metrics on the simulator and asserts the
//! paper's *shape*: constants in front of the bound must stay within a
//! generous factor as `P` (or `n`, or `K`) sweeps.

use pim_bench::experiments::{
    contention_experiment, dense_contention_experiment, full_batch_allowance, lower_part_phases,
    phase0_load_bound, stage2_contention_experiment, table1_rows,
};
use pim_bench::measure::measure_batch;
use pim_bench::{build_loaded_list, BatchCosts};
use pim_core::prelude::*;
use pim_runtime::balls;
use pim_workloads::{rotating_hotspot, same_successor_flood, zipf_scatter_batches};

fn lg(p: u32) -> f64 {
    f64::from(pim_runtime::ceil_log2(u64::from(p)))
}

#[test]
fn table1_get_io_scales_as_log_p() {
    // IO time of a P log P Get batch is O(log P) whp: the measured
    // constant io/log P must not grow with P.
    let mut constants = Vec::new();
    for p in [8u32, 32, 128] {
        let rows = table1_rows(p, 6000, 21);
        let get = rows.iter().find(|r| r.op == "Get").unwrap();
        constants.push(get.costs.io_time as f64 / lg(p));
    }
    let (first, last) = (constants[0], constants[2]);
    assert!(last < first * 4.0, "Get IO constant grew: {constants:?}");
}

#[test]
fn table1_successor_io_scales_as_log3_p() {
    let mut constants = Vec::new();
    for p in [8u32, 32, 128] {
        let rows = table1_rows(p, 6000, 22);
        let s = rows.iter().find(|r| r.op == "Successor").unwrap();
        constants.push(s.costs.io_time as f64 / lg(p).powi(3));
    }
    assert!(
        constants[2] < constants[0] * 4.0,
        "Successor IO constant grew: {constants:?}"
    );
}

#[test]
fn table1_upsert_io_scales_as_log3_p() {
    // IO time of a P log² P Upsert batch (all inserts) is O(log³ P) whp:
    // the measured constant io/log³ P must not grow with P.
    let mut constants = Vec::new();
    for p in [8u32, 32, 128] {
        let rows = table1_rows(p, 6000, 36);
        let u = rows.iter().find(|r| r.op == "Upsert").unwrap();
        constants.push(u.costs.io_time as f64 / lg(p).powi(3));
    }
    assert!(
        constants[2] < constants[0] * 4.0,
        "Upsert IO constant grew: {constants:?}"
    );
}

#[test]
fn table1_delete_io_scales_as_log2_p() {
    let mut constants = Vec::new();
    for p in [8u32, 32, 128] {
        let rows = table1_rows(p, 6000, 23);
        let d = rows.iter().find(|r| r.op == "Delete").unwrap();
        constants.push(d.costs.io_time as f64 / lg(p).powi(2));
    }
    assert!(
        constants[2] < constants[0] * 4.0,
        "Delete IO constant grew: {constants:?}"
    );
}

#[test]
fn successor_io_is_independent_of_n() {
    // Table 1's headline: network costs are independent of n.
    let p = 32u32;
    let lgp = pim_runtime::ceil_log2(u64::from(p)) as usize;
    let batch = p as usize * lgp * lgp;
    let mut ios = Vec::new();
    for n in [2_000usize, 16_000, 64_000] {
        let (mut list, _) = build_loaded_list(p, n, 24);
        let queries: Vec<i64> = (0..batch as i64)
            .map(|i| i * 997 % (n as i64 * 64))
            .collect();
        let before = list.metrics();
        list.batch_successor(&queries);
        let costs = BatchCosts::from_diff(batch, before, list.metrics());
        ios.push(costs.io_time as f64);
    }
    assert!(
        ios[2] < ios[0] * 2.0,
        "Successor IO must not scale with n: {ios:?}"
    );
}

#[test]
fn theorem31_space_per_module_is_theta_n_over_p() {
    let mut ratios = Vec::new();
    for (p, n) in [(8u32, 4_000usize), (32, 16_000), (64, 32_000)] {
        let (list, _) = build_loaded_list(p, n, 25);
        let words = list.space_per_module();
        let max = *words.iter().max().unwrap() as f64;
        ratios.push(max / (n as f64 / f64::from(p)));
    }
    // Constant words-per-key across machine shapes (within 2x).
    let lo = ratios.iter().cloned().fold(f64::MAX, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(hi / lo < 2.0, "space constant drifts: {ratios:?}");
}

#[test]
fn lemma21_imbalance_shrinks_with_batch_factor() {
    let p = 256;
    let s1 = balls::lemma21_trial(
        u64::from(pim_runtime::ceil_log2(p as u64)) * p as u64,
        p,
        26,
    );
    let s64 = balls::lemma21_trial(
        64 * u64::from(pim_runtime::ceil_log2(p as u64)) * p as u64,
        p,
        26,
    );
    assert!(s64.max_over_mean < s1.max_over_mean);
    assert!(
        s64.max_over_mean < 1.35,
        "large-T imbalance {}",
        s64.max_over_mean
    );
}

#[test]
fn lemma22_capped_weights_stay_balanced() {
    let p = 128;
    let weights: Vec<u64> = (0..8192u64).map(|i| (i % 200) + 1).collect();
    let capped = balls::cap_weights(&weights, p);
    let s = balls::lemma22_trial(&capped, p, 27);
    assert!(s.max_over_mean < 2.0, "imbalance {}", s.max_over_mean);
}

#[test]
fn lemma42_contention_is_at_most_three_per_phase() {
    for p in [8u32, 16, 64] {
        let phases = contention_experiment(p, 28);
        // Phase 0 touches replicas only; what it loads is a module.
        assert_eq!(
            phases[0],
            phase0_load_bound(p),
            "P={p}: pivots phase 0 dealt to its busiest module"
        );
        let stage1 = lower_part_phases(&phases);
        assert!(
            stage1.iter().all(|&c| c <= 3),
            "P={p}: stage-1 contention {stage1:?} exceeds Lemma 4.2's bound"
        );
    }
}

#[test]
fn lemma42_groups_that_skip_the_recursion_stay_within_the_allowance() {
    // A pivot group of at most `A` pivots descends in one wave, and a
    // deferred one puts at most `A` searches below its entry in stage 2:
    // no lower-part node sees more than `A` accesses in any wave.
    for p in [8u32, 16, 64] {
        let a = full_batch_allowance(p);
        let dense = dense_contention_experiment(p, 28);
        let stage1 = lower_part_phases(&dense);
        assert!(
            stage1.iter().all(|&c| c <= a),
            "P={p}: dense stage-1 contention {stage1:?} past A = {a}"
        );
        let (uniform, paired) = stage2_contention_experiment(p, 28);
        assert!(
            uniform <= a && paired <= a,
            "P={p}: stage-2 contention {uniform} (uniform) / {paired} (paired) past A = {a}"
        );
    }
}

#[test]
fn successor_cost_does_not_grow_with_skew() {
    // §4.2's pivot divide-and-conquer keeps a Successor batch's cost
    // independent of skew: popular keys dedup, a shared successor becomes
    // shared-leaf copies, and a hot window is dealt like any other batch.
    // Four batches of 256 per row at P = 16, n = 4000; every row's mean
    // rounds and IO per batch stay within 1.25× of the uniform row's.
    let (p, n, batch, reps, seed) = (16u32, 4_000usize, 256usize, 4usize, 0x5EED_2021u64);
    let (_, keys) = build_loaded_list(p, n, seed);
    let (gap_lo, gap_hi) = keys
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|&(lo, hi)| hi - lo)
        .expect("resident keys");
    let flood = (0..reps as u64)
        .map(|i| same_successor_flood(seed ^ (0xF100D + i), gap_lo, gap_hi, batch))
        .collect();
    let rows: [(&str, Vec<Vec<Key>>); 5] = [
        (
            "uniform",
            zipf_scatter_batches(seed ^ 0x51EF, &keys, 0.0, batch, reps),
        ),
        (
            "zipf-0.99",
            zipf_scatter_batches(seed ^ 0x51F1, &keys, 0.99, batch, reps),
        ),
        (
            "zipf-1.50",
            zipf_scatter_batches(seed ^ 0x51F3, &keys, 1.5, batch, reps),
        ),
        ("same-successor", flood),
        (
            "rotating-hotspot",
            rotating_hotspot(seed ^ 0x407, &keys, batch, batch, reps, 2),
        ),
    ];
    let means = rows.map(|(name, batches)| {
        let (mut list, _) = build_loaded_list(p, n, seed);
        let (mut rounds, mut io) = (0, 0);
        for b in &batches {
            let (_, c) = measure_batch(&mut list, b.len(), |l| l.batch_successor(b));
            rounds += c.rounds;
            io += c.io_time;
        }
        (name, rounds as f64 / reps as f64, io as f64 / reps as f64)
    });
    let (_, uniform_rounds, uniform_io) = means[0];
    for (name, rounds, io) in means {
        assert!(
            rounds <= 1.25 * uniform_rounds && io <= 1.25 * uniform_io,
            "{name}: {rounds} rounds / {io} IO per batch, uniform {uniform_rounds} / {uniform_io}"
        );
    }
}

#[test]
fn theorem51_broadcast_is_constant_rounds_and_balanced() {
    let p = 32u32;
    let (mut list, keys) = build_loaded_list(p, 16_000, 30);
    let k = 8_000;
    let start = (keys.len() - k) / 2;
    let before = list.metrics();
    let r = list.range_broadcast(keys[start], keys[start + k - 1], RangeFunc::Read);
    let costs = BatchCosts::from_diff(k, before, list.metrics());
    assert_eq!(r.items.len(), k);
    assert!(costs.rounds <= 3, "{} rounds", costs.rounds);
    // PIM time Θ(K/P): within a small factor of K/P.
    let kp = k as f64 / f64::from(p);
    assert!(
        costs.pim_time as f64 / kp < 4.0,
        "broadcast PIM time {} vs K/P {kp}",
        costs.pim_time
    );
}

#[test]
fn theorem52_tree_ranges_scale_with_kappa_over_p() {
    let p = 32u32;
    let (mut list, keys) = build_loaded_list(p, 32_000, 31);
    let lgp = pim_runtime::ceil_log2(u64::from(p)) as usize;
    let batch = p as usize * lgp * lgp;
    let mut per_covered = Vec::new();
    for per in [4usize, 16] {
        let ranges: Vec<(i64, i64)> = (0..batch)
            .map(|i| {
                let s = (i * 131) % (keys.len() - per);
                (keys[s], keys[s + per - 1])
            })
            .collect();
        let before = list.metrics();
        let res = list.batch_range(&ranges, RangeFunc::Read);
        let costs = BatchCosts::from_diff(batch, before, list.metrics());
        let covered: u64 = res.iter().map(|r| r.count).sum();
        per_covered.push(costs.io_time as f64 / covered as f64);
    }
    // Larger κ amortises the log³P term: per-covered-pair IO must fall.
    assert!(
        per_covered[1] < per_covered[0],
        "tree-range IO per pair should amortise: {per_covered:?}"
    );
}

#[test]
fn path_split_lower_is_n_independent_and_tracks_log_p() {
    use pim_bench::experiments::path_split_experiment;
    // n sweep at fixed P: lower-part visits must stay flat.
    let (_, low_small, _) = path_split_experiment(16, 2_000, 33);
    let (_, low_big, _) = path_split_experiment(16, 64_000, 33);
    assert!(
        low_big < low_small * 2.0 + 2.0,
        "lower path grew with n: {low_small} -> {low_big}"
    );
    // P sweep at fixed n: lower-part visits must grow.
    let (_, low_p4, _) = path_split_experiment(4, 16_000, 34);
    let (_, low_p64, _) = path_split_experiment(64, 16_000, 34);
    assert!(
        low_p64 > low_p4 * 1.5,
        "lower path should track log P: {low_p4} vs {low_p64}"
    );
    // Upper-part visits must grow with n (the O(log n) part).
    let (up_small, _, _) = path_split_experiment(16, 2_000, 35);
    let (up_big, _, _) = path_split_experiment(16, 64_000, 35);
    assert!(up_big > up_small, "upper path should track log n");
}

/// The `service` benchmark's request shape at `P = 16`: Zipf(0.99) keys,
/// 50 % Get / 15 % Update / 15 % Upsert / 5 % Delete / 10 % Successor /
/// 5 % Range Sum, dispatched `P log² P` at a time in the service's order
/// (read/write epochs in arrival order, reads grouped by kind within an
/// epoch). Each dispatch is one span whose runs, Deletes included, share
/// rounds; coins wait for every earlier job's last draw, a Delete's links
/// wait only for the earlier reads its removal answers, and an insert whose
/// towers stay below h_low holds back only the later runs inside its gap:
/// ≥ 1.25× fewer than one `execute` call per run (2,844 rounds against
/// 10,675; 3,592 while every insert held back every later run), at the
/// same replies and exactly the same CPU work and depth.
#[test]
fn service_runs_between_structural_writes_share_rounds() {
    use pim_core::op::run_end;
    use pim_workloads::arrival::{ArrivalGen, OpMix};

    let (p, n, seed) = (16u32, 4000usize, 33u64);
    let (mut spans, keys) = build_loaded_list(p, n, seed);
    let (mut alone, _) = build_loaded_list(p, n, seed);
    let mix = OpMix {
        get: 50,
        update: 15,
        upsert: 15,
        delete: 5,
        predecessor: 0,
        successor: 10,
        range: 5,
    };
    // Popularity rank decorrelated from key order.
    let mut resident = keys;
    resident.sort_by_key(|&k| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let batch = spans.config().batch_large();
    let ops: Vec<Op> = ArrivalGen::new(seed, resident, 0.99, 1.0, mix)
        .schedule(30 * batch as u64)
        .into_iter()
        .map(|e| pim_bench::service::to_op(e.op))
        .take(20 * batch)
        .collect();

    let (s0, a0) = (spans.metrics(), alone.metrics());
    for chunk in ops.chunks(batch) {
        let mut planned = Vec::with_capacity(chunk.len());
        for epoch in chunk.chunk_by(|a, b| a.is_write() == b.is_write()) {
            let start = planned.len();
            planned.extend_from_slice(epoch);
            if !epoch[0].is_write() {
                planned[start..].sort_by_key(Op::kind);
            }
        }
        let got = spans.execute(&planned);
        let mut want = Vec::with_capacity(planned.len());
        let mut start = 0;
        while start < planned.len() {
            let end = run_end(&planned, start);
            want.extend(alone.execute(&planned[start..end]));
            start = end;
        }
        assert_eq!(got, want);
    }
    let (s, a) = (spans.metrics() - s0, alone.metrics() - a0);
    assert_eq!((s.cpu_work, s.cpu_depth), (a.cpu_work, a.cpu_depth));
    assert!(
        a.rounds * 4 >= s.rounds * 5,
        "{} rounds co-scheduled against {} one run at a time",
        s.rounds,
        a.rounds
    );
    assert!(
        s.io_time <= a.io_time && s.pim_time <= a.pim_time,
        "{s:?} {a:?}"
    );
    spans.validate().expect("valid after the stream");
}

#[test]
fn overwriting_upserts_share_rounds_and_inserting_ones_run_alone() {
    // Sixteen 1-key Successor runs, each followed by a 1-key Upsert run, at
    // P = 16. An Upsert whose key is resident is one update-pass round that
    // rides beside the searches, so the stream costs one Successor batch
    // plus one round per Upsert run. An Upsert of a fresh key draws its
    // coins once the Successor before it made its last draw, and its
    // search shares rounds with that Successor as it drains; its
    // allocation, wiring and link wait until every earlier run finished.
    // When its tower stays below h_low, the later runs outside its gap
    // start once its search has dealt its last wave, so the next pair's
    // Successor and update pass ride beside it too (50 rounds against 288
    // one run at a time; 185 while no later run started before an insert
    // ended, 272 while the whole insert ran alone).
    let (p, n, seed, runs) = (16u32, 4000usize, 0x000E_5E47_u64, 16usize);
    let (_, keys) = build_loaded_list(p, n, seed);
    let stream = |upsert_key: &dyn Fn(usize) -> Key| -> Vec<Op> {
        (0..runs)
            .flat_map(|i| {
                [
                    Op::Successor {
                        key: keys[(i * 251) % n] + 1,
                    },
                    Op::Upsert {
                        key: upsert_key(i),
                        value: i as u64,
                    },
                ]
            })
            .collect()
    };

    let overwrite = stream(&|i| keys[(i * 397 + 11) % n]);
    let (mut alone, _) = build_loaded_list(p, n, seed);
    let successor = overwrite
        .iter()
        .step_by(2)
        .map(|op| {
            let before = alone.metrics().rounds;
            alone.execute(std::slice::from_ref(op));
            alone.metrics().rounds - before
        })
        .max()
        .expect("successor runs");
    let (mut list, _) = build_loaded_list(p, n, seed);
    let before = list.metrics().rounds;
    let replies = list.execute(&overwrite);
    let rounds = list.metrics().rounds - before;
    assert!(replies
        .iter()
        .skip(1)
        .step_by(2)
        .all(|r| *r == Reply::Upserted(UpsertOutcome::Updated)));
    assert!(
        rounds <= successor + runs as u64 + 2,
        "{rounds} rounds for {runs} overwrite pairs, one Successor batch takes {successor}"
    );

    let fresh = stream(&|i| {
        let key = keys[(i * 397 + 11) % n] + 2;
        assert!(keys.binary_search(&key).is_err(), "{key} is resident");
        key
    });
    let (mut list, _) = build_loaded_list(p, n, seed);
    let (mut one_by_one, _) = build_loaded_list(p, n, seed);
    let (l0, o0) = (list.metrics(), one_by_one.metrics());
    let replies = list.execute(&fresh);
    let want: Vec<Reply> = fresh
        .iter()
        .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
        .collect();
    assert_eq!(replies, want, "inserts draw the same coins");
    let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
    assert_eq!((l.cpu_work, l.cpu_depth), (o.cpu_work, o.cpu_depth));
    assert!(
        4 * l.rounds <= o.rounds,
        "{} rounds co-scheduled against {} one run at a time: the inserts overlap",
        l.rounds,
        o.rounds
    );
    assert_eq!(list.upper_leaf_keys(), one_by_one.upper_leaf_keys());
    list.validate().expect("valid after the stream");
}

/// `n` keys `4i` bulk-loaded at `P = p` with structure seed `seed`.
fn bulk_loaded(p: u32, n: i64, seed: u64) -> PimSkipList {
    let mut list = PimSkipList::new(Config::new(p, n as u64, seed));
    let pairs: Vec<(Key, Value)> = (0..n).map(|i| (4 * i, i as u64)).collect();
    list.bulk_load(&pairs);
    list
}

#[test]
fn later_runs_outside_an_inserts_gap_share_its_rounds() {
    // At P = 16 on 8192 bulk-loaded keys 4i, sixteen groups: a 1-key
    // Upsert of a fresh key 4i + 2, then 1-key Get, Update, overwrite-Upsert,
    // resident-Delete and Successor runs on keys between upper leaves far
    // from every insert's gap. An insert whose tower stays below h_low lets
    // them start once its search has dealt its stage-2 wave, so they and
    // the next group's update pass, coins and search share its search and
    // link rounds: 104 rounds against 336 one run at a time, where it took
    // 218 while every later run waited for the insert to finish.
    let (p, n, groups, seed) = (16u32, 8192i64, 16usize, 0x6A95_u64);
    let (mut list, mut one_by_one) = (bulk_loaded(p, n, seed), bulk_loaded(p, n, seed));
    let upper = list.upper_leaf_keys();
    let mut ops = Vec::new();
    for g in 0..groups {
        // Insert g goes into gap 8 + 25g; its later runs take every other
        // key strictly inside gaps 18 + 25g … 22 + 25g.
        let gap = 8 + 25 * g;
        let x = upper[gap] + 2;
        let (lo, hi) = (upper[gap + 10], upper[gap + 15]);
        let inner: Vec<Key> = (lo + 4..hi)
            .step_by(4)
            .filter(|k| upper.binary_search(k).is_err())
            .step_by(2)
            .take(5)
            .collect();
        assert_eq!(
            inner.len(),
            5,
            "five keys inside gaps {}..{}",
            gap + 10,
            gap + 15
        );
        let v = g as u64;
        ops.extend([
            Op::Upsert { key: x, value: v },
            Op::Get { key: inner[0] },
            Op::Update {
                key: inner[1],
                value: v,
            },
            Op::Upsert {
                key: inner[2],
                value: v,
            },
            Op::Delete { key: inner[3] },
            Op::Successor { key: inner[4] + 1 },
        ]);
    }
    let (l0, o0) = (list.metrics(), one_by_one.metrics());
    let replies = list.execute(&ops);
    let want: Vec<Reply> = ops
        .iter()
        .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
        .collect();
    for group in want.chunks(6) {
        assert_eq!(
            group[..5],
            [
                Reply::Upserted(UpsertOutcome::Inserted),
                group[1].clone(),
                Reply::Updated(true),
                Reply::Upserted(UpsertOutcome::Updated),
                Reply::Deleted(true),
            ]
        );
    }
    assert_eq!(replies, want, "co-scheduled = one run at a time");
    assert_eq!(list.collect_items(), one_by_one.collect_items());
    assert_eq!(list.upper_leaf_keys(), one_by_one.upper_leaf_keys());
    let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
    assert_eq!((l.cpu_work, l.cpu_depth), (o.cpu_work, o.cpu_depth));
    assert!(
        l.io_time <= o.io_time && l.pim_time <= o.pim_time,
        "{l:?} {o:?}"
    );
    assert!(
        3 * l.rounds <= o.rounds,
        "{} rounds co-scheduled against {} one run at a time",
        l.rounds,
        o.rounds
    );
    list.validate().expect("valid after the stream");
}

#[test]
fn runs_inside_an_inserts_gap_see_it() {
    // At P = 16 on 8192 bulk-loaded keys 4i, 64 groups: a 1-key Upsert of
    // a fresh key x = 4i + 2, then runs that its gap holds: Successor(x − 1)
    // and Predecessor(x + 1), both answered by x, Range Sum [x − 1, x + 1],
    // Delete of x's right neighbour x + 2, a fresh Upsert(x + 1) and
    // Get(x). Each must wait until the insert has finished, or it misses x
    // (or, for the Delete and the Upsert, races its links).
    let (p, n, seed) = (16u32, 8192i64, 0x1_75E1_u64);
    let (mut list, mut one_by_one) = (bulk_loaded(p, n, seed), bulk_loaded(p, n, seed));
    let xs: Vec<Key> = (0..64).map(|g| 4 * (64 * g + 17) + 2).collect();
    let ops: Vec<Op> = xs
        .iter()
        .flat_map(|&x| {
            [
                Op::Upsert { key: x, value: 9 },
                Op::Successor { key: x - 1 },
                Op::Predecessor { key: x + 1 },
                Op::Range {
                    lo: x - 1,
                    hi: x + 1,
                    func: RangeFunc::Sum,
                },
                Op::Delete { key: x + 2 },
                Op::Upsert {
                    key: x + 1,
                    value: 8,
                },
                Op::Get { key: x },
            ]
        })
        .collect();
    let replies = list.execute(&ops);
    let want: Vec<Reply> = ops
        .iter()
        .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
        .collect();
    for (group, &x) in want.chunks(7).zip(&xs) {
        assert_eq!(group[1].as_entry().flatten().map(|e| e.0), Some(x));
        assert_eq!(group[2].as_entry().flatten().map(|e| e.0), Some(x));
        let Reply::Range(sum) = &group[3] else {
            panic!("expected a range reply");
        };
        assert_eq!(sum.sum, 9);
        assert_eq!(
            group[4..],
            [
                Reply::Deleted(true),
                Reply::Upserted(UpsertOutcome::Inserted),
                Reply::Value(Some(9)),
            ]
        );
    }
    assert_eq!(replies, want, "co-scheduled = one run at a time");
    assert_eq!(list.collect_items(), one_by_one.collect_items());
    list.validate().expect("valid after the stream");
}

#[test]
fn inserts_draw_their_coins_after_every_earlier_last_draw() {
    // At P = 16, eight groups of three runs: a Range Sum run of three wide
    // ranges (several subranges, so it searches before it deals its
    // descents), a 1-key Successor run and a 4-key Upsert run of fresh
    // keys outside every range. Each Upsert waits for the Successor's and
    // the Range's last deal before it tosses its coins, then searches
    // beside them as they drain. The coins, hence the towers and the CPU
    // work of the links, are those of one run at a time; the rounds are
    // fewer (257 against 456). Calling `Lane::drawn` at the start of every
    // job, or before the Range's search, moves the coins and fails this.
    use pim_core::op::run_end;

    let (p, n, seed, groups) = (16u32, 4000usize, 0x00FE_4CE5_u64, 8usize);
    let (_, keys) = build_loaded_list(p, n, seed);
    // The ranges lie in the lowest quarter of the keys, the inserts in the
    // upper half.
    let fresh = |i: usize| {
        let above = keys[n / 2 + (i * 37) % (n / 2)] + 1;
        (above..)
            .find(|k| keys.binary_search(k).is_err())
            .expect("a free key")
    };
    let mut ops = Vec::new();
    for r in 0..groups {
        for j in 0..3 {
            let lo = keys[(r * 97 + j * 151) % (n / 4)];
            ops.push(Op::Range {
                lo,
                hi: lo + 1500,
                func: RangeFunc::Sum,
            });
        }
        ops.push(Op::Successor {
            key: keys[(r * 251) % n] + 1,
        });
        ops.extend((0..4).map(|j| Op::Upsert {
            key: fresh(4 * r + j),
            value: r as u64,
        }));
    }
    let (mut list, _) = build_loaded_list(p, n, seed);
    let (mut one_by_one, _) = build_loaded_list(p, n, seed);
    let (l0, o0) = (list.metrics(), one_by_one.metrics());
    let replies = list.execute(&ops);
    let mut want = Vec::with_capacity(ops.len());
    let mut start = 0;
    while start < ops.len() {
        let end = run_end(&ops, start);
        want.extend(one_by_one.execute(&ops[start..end]));
        start = end;
    }
    assert_eq!(replies, want);
    let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
    assert_eq!((l.cpu_work, l.cpu_depth), (o.cpu_work, o.cpu_depth));
    assert_eq!(list.upper_leaf_keys(), one_by_one.upper_leaf_keys());
    assert!(
        l.rounds < o.rounds,
        "{} rounds co-scheduled against {} one run at a time",
        l.rounds,
        o.rounds
    );
    list.validate().expect("valid after the stream");
}

#[test]
fn reads_answered_by_a_deleted_key_see_it() {
    // 64 groups at P = 16 on 8192 bulk-loaded keys 4i, each a 1-key
    // Successor(d − 3) or Predecessor(d + 2) run, both answered by d, then
    // Delete(d), then Get(d). Each Delete splices beside the earlier jobs:
    // its links must wait for the read its removal answers, still searching
    // when the Delete's marks came back, or that read would step past d.
    // No d has a replicated tower, so no Delete waits for every earlier job.
    let (p, n) = (16u32, 8192i64);
    let load = || {
        let mut list = PimSkipList::new(Config::new(p, n as u64, 0x5EE_D0E5));
        let pairs: Vec<(Key, Value)> = (0..n).map(|i| (4 * i, i as u64)).collect();
        list.bulk_load(&pairs);
        list
    };
    let (mut list, mut one_by_one) = (load(), load());
    let upper = list.upper_leaf_keys();
    let ds: Vec<Key> = (0..n)
        .map(|i| 4 * ((i * 509 + 7) % n))
        .filter(|d| !upper.contains(d))
        .take(64)
        .collect();
    let ops: Vec<Op> = ds
        .iter()
        .enumerate()
        .flat_map(|(i, &d)| {
            let read = if i % 2 == 0 {
                Op::Successor { key: d - 3 }
            } else {
                Op::Predecessor { key: d + 2 }
            };
            [read, Op::Delete { key: d }, Op::Get { key: d }]
        })
        .collect();
    let replies = list.execute(&ops);
    let want: Vec<Reply> = ops
        .iter()
        .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
        .collect();
    for (group, &d) in want.chunks(3).zip(&ds) {
        assert_eq!(group[0].as_entry().flatten().map(|e| e.0), Some(d));
        assert_eq!(group[1..], [Reply::Deleted(true), Reply::Value(None)]);
    }
    assert_eq!(replies, want, "co-scheduled = one run at a time");
    assert_eq!(list.collect_items(), one_by_one.collect_items());
    list.validate().expect("valid after the stream");
}

#[test]
fn deletes_share_their_span() {
    // Sixteen 1-key Successor runs, each followed by a 1-key Delete run, at
    // P = 16 on 8192 bulk-loaded keys. No later job starts before every
    // earlier Delete finished or released it, so the Successors start one
    // round apart. A
    // Delete of an absent key is one mark wave beside them: the stream costs
    // the longest Successor run plus one round per Delete run (29 rounds
    // against 162 one run at a time). A Delete of a resident key splices
    // beside the earlier Successors, none of which its removal answers: its
    // mark wave, its link wave and its release cost about three rounds per
    // Delete run, and its frees wait off the critical path (51 rounds
    // against 184; 162 while every splice waited for every earlier run).
    let (p, n, runs) = (16u32, 8192i64, 16i64);
    let load = || {
        let mut list = PimSkipList::new(Config::new(p, n as u64, 0x0DE1_E7E5));
        let pairs: Vec<(Key, Value)> = (0..n).map(|i| (4 * i, i as u64)).collect();
        list.bulk_load(&pairs);
        list
    };
    let successors: Vec<Key> = (0..runs).map(|i| 4 * ((i * 509) % n) + 1).collect();
    let mut alone = load();
    let successor = successors
        .iter()
        .map(|&key| {
            let before = alone.metrics().rounds;
            alone.execute(&[Op::Successor { key }]);
            alone.metrics().rounds - before
        })
        .max()
        .expect("successor runs");

    for (offset, resident) in [(2, false), (0, true)] {
        let ops: Vec<Op> = (0..runs)
            .flat_map(|i| {
                [
                    Op::Successor {
                        key: successors[i as usize],
                    },
                    Op::Delete {
                        key: 4 * ((i * 397 + 11) % n) + offset,
                    },
                ]
            })
            .collect();
        let (mut list, mut one_by_one) = (load(), load());
        let (l0, o0) = (list.metrics(), one_by_one.metrics());
        let replies = list.execute(&ops);
        let want: Vec<Reply> = ops
            .iter()
            .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
            .collect();
        assert_eq!(replies, want, "contraction draws the same priorities");
        assert!(replies
            .iter()
            .skip(1)
            .step_by(2)
            .all(|r| *r == Reply::Deleted(resident)));
        let (l, o) = (list.metrics() - l0, one_by_one.metrics() - o0);
        assert_eq!((l.cpu_work, l.cpu_depth), (o.cpu_work, o.cpu_depth));
        assert!(
            l.io_time <= o.io_time && l.pim_time <= o.pim_time,
            "{l:?} {o:?}"
        );
        assert_eq!(list.upper_leaf_keys(), one_by_one.upper_leaf_keys());
        list.validate().expect("valid after the stream");
        if resident {
            assert!(
                l.rounds <= successor + 3 * runs as u64 + 2,
                "{} rounds for {runs} resident pairs ({} one run at a time), one \
                 Successor run takes {successor}",
                l.rounds,
                o.rounds
            );
        } else {
            assert!(
                l.rounds <= successor + runs as u64 + 2,
                "{} rounds for {runs} absent pairs, one Successor run takes {successor}",
                l.rounds
            );
        }
    }
}
