//! The experiment runners — one per paper artifact (see DESIGN.md's
//! experiment index). Each prints a table of *model metrics* and returns
//! the raw rows so tests can assert the paper's shapes.

use pim_baseline::{FineGrainedSkipList, RangePartitionedList};
use pim_core::{Config, PimSkipList, RangeFunc};
use pim_runtime::balls;
use pim_workloads::adversary::two_pivot_groups;
use pim_workloads::{same_successor_flood, single_range_flood, PointGen};

use crate::measure::{build_loaded_list, build_loaded_list_with, measure_batch, BatchCosts};

fn logp(p: u32) -> u64 {
    u64::from(pim_runtime::ceil_log2(u64::from(p)))
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Operation name.
    pub op: &'static str,
    /// Modules.
    pub p: u32,
    /// Measured costs.
    pub costs: BatchCosts,
    /// The paper's bound for IO time, evaluated at this `P` (up to the
    /// constant): `log P`, `log² P` or `log³ P`.
    pub io_bound: u64,
    /// The paper's bound for PIM time at this `P` and `n`.
    pub pim_bound: u64,
}

impl Table1Row {
    /// Measured IO time divided by its bound — flat across `P` if the
    /// bound's shape holds.
    pub fn io_constant(&self) -> f64 {
        self.costs.io_time as f64 / self.io_bound.max(1) as f64
    }

    /// Measured PIM time divided by its bound.
    pub fn pim_constant(&self) -> f64 {
        self.costs.pim_time as f64 / self.pim_bound.max(1) as f64
    }
}

/// T1-GET/T1-SUCC/T1-UPS/T1-DEL: measure every Table 1 row for one `P`.
pub fn table1_rows(p: u32, n: usize, seed: u64) -> Vec<Table1Row> {
    let (mut list, keys) = build_loaded_list(p, n, seed);
    let lg = logp(p);
    let ln = u64::from(pim_runtime::ceil_log2(n as u64));
    let small = (u64::from(p) * lg) as usize;
    let large = (u64::from(p) * lg * lg) as usize;
    let mut gen = PointGen::new(seed ^ 0xE1, 0, (n as i64) * 64);
    let mut rows = Vec::new();

    // Get: batch P log P of resident keys.
    let batch = gen.from_existing(&keys, small);
    let (_, costs) = measure_batch(&mut list, small, |l| l.batch_get(&batch));
    rows.push(Table1Row {
        op: "Get",
        p,
        costs,
        io_bound: lg,
        pim_bound: lg,
    });

    // Update.
    let pairs: Vec<(i64, u64)> = gen
        .from_existing(&keys, small)
        .into_iter()
        .map(|k| (k, 1))
        .collect();
    let (_, costs) = measure_batch(&mut list, small, |l| l.batch_update(&pairs));
    rows.push(Table1Row {
        op: "Update",
        p,
        costs,
        io_bound: lg,
        pim_bound: lg,
    });

    // Successor: batch P log² P uniform keys.
    let batch = gen.uniform(large);
    let (_, costs) = measure_batch(&mut list, large, |l| l.batch_successor(&batch));
    rows.push(Table1Row {
        op: "Successor",
        p,
        costs,
        io_bound: lg * lg * lg,
        pim_bound: lg * lg * ln,
    });

    // Predecessor (same bounds).
    let batch = gen.uniform(large);
    let (_, costs) = measure_batch(&mut list, large, |l| l.batch_predecessor(&batch));
    rows.push(Table1Row {
        op: "Predecessor",
        p,
        costs,
        io_bound: lg * lg * lg,
        pim_bound: lg * lg * ln,
    });

    // Upsert: batch P log² P fresh keys (all inserts — the expensive path).
    let fresh: Vec<(i64, u64)> = gen
        .distinct_uniform(large)
        .into_iter()
        .map(|k| (k + (n as i64) * 128, k as u64))
        .collect();
    let (_, costs) = measure_batch(&mut list, large, |l| l.batch_upsert(&fresh));
    rows.push(Table1Row {
        op: "Upsert",
        p,
        costs,
        io_bound: lg * lg * lg,
        pim_bound: lg * lg * ln,
    });

    // Delete: batch P log² P resident keys.
    let batch = gen.distinct_from_existing(&keys, large.min(keys.len()));
    let (_, costs) = measure_batch(&mut list, batch.len(), |l| l.batch_delete(&batch));
    rows.push(Table1Row {
        op: "Delete",
        p,
        costs,
        io_bound: lg * lg,
        pim_bound: lg * lg,
    });

    rows
}

/// Print the Table 1 reproduction across a `P` sweep.
pub fn print_table1(ps: &[u32], n: usize, seed: u64) {
    println!("== Table 1: batch point-operation costs (n = {n}) ==");
    println!(
        "{:<12} {:>5} {:>7} {:>9} {:>9} {:>10} {:>9} {:>8} {:>9} {:>8} {:>8}",
        "op",
        "P",
        "batch",
        "IO",
        "PIM",
        "CPUw/op",
        "CPUdepth",
        "rounds",
        "sharedM",
        "IO/bnd",
        "PIM/bnd"
    );
    for &p in ps {
        for row in table1_rows(p, n, seed) {
            println!(
                "{:<12} {:>5} {:>7} {:>9} {:>9} {:>10.2} {:>9} {:>8} {:>9} {:>8.2} {:>8.2}",
                row.op,
                row.p,
                row.costs.batch,
                row.costs.io_time,
                row.costs.pim_time,
                row.costs.cpu_work_per_op(),
                row.costs.cpu_depth,
                row.costs.rounds,
                row.costs.shared_mem_peak,
                row.io_constant(),
                row.pim_constant(),
            );
        }
    }
    println!("(IO/bnd and PIM/bnd are measured cost divided by the paper's bound — flat columns mean the shape holds)");
}

/// THM31: space per module.
pub fn space_experiment(ps: &[u32], ns: &[usize], seed: u64) {
    println!("== Theorem 3.1: O(n) total space, O(n/P) whp per module ==");
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "P", "n", "total", "max/module", "n/P", "max/(n/P)"
    );
    for &p in ps {
        for &n in ns {
            let (list, _) = build_loaded_list(p, n, seed);
            let words = list.space_per_module();
            let total: u64 = words.iter().sum();
            let max = words.iter().copied().max().unwrap_or(0);
            let per = n as f64 / f64::from(p);
            println!(
                "{:>5} {:>9} {:>12} {:>12} {:>12.0} {:>9.2}",
                p,
                n,
                total,
                max,
                per,
                max as f64 / per
            );
        }
    }
}

/// LEM21 + LEM22: balls-in-bins imbalance factors.
pub fn balls_experiment(ps: &[u32], seed: u64) {
    println!("== Lemma 2.1: T = c·P·log P uniform balls → Θ(T/P) per bin whp ==");
    println!("{:>6} {:>6} {:>10} {:>10}", "P", "c", "T", "max/mean");
    for &p in ps {
        for c in [1u64, 4, 16, 64] {
            let t = c * u64::from(p) * logp(p);
            let s = balls::lemma21_trial(t, p as usize, seed);
            println!("{:>6} {:>6} {:>10} {:>10.3}", p, c, t, s.max_over_mean);
        }
    }
    println!("== Lemma 2.2: weighted balls capped at W/(P log P) → O(W/P) whp ==");
    println!(
        "{:>6} {:>12} {:>10} {:>10}",
        "P", "distribution", "balls", "max/mean"
    );
    for &p in ps {
        let base: Vec<u64> = (0..20_000u64).map(|i| 1 + (i % 64)).collect();
        let capped = balls::cap_weights(&base, p as usize);
        let s = balls::lemma22_trial(&capped, p as usize, seed);
        println!(
            "{:>6} {:>12} {:>10} {:>10.3}",
            p,
            "mod-64",
            capped.len(),
            s.max_over_mean
        );
        let heavy: Vec<u64> = (0..256u64).map(|i| (i + 1) * 97).collect();
        let capped = balls::cap_weights(&heavy, p as usize);
        let s = balls::lemma22_trial(&capped, p as usize, seed ^ 1);
        println!(
            "{:>6} {:>12} {:>10} {:>10.3}",
            p,
            "linear-heavy",
            capped.len(),
            s.max_over_mean
        );
    }
}

/// LEM42: per-wave contention of the pivoted search under the
/// same-successor adversary, as [`PimSkipList::last_phase_contention`]
/// reports it: entry 0 is phase 0's module load (pivots served by the
/// busiest module, Lemma 2.2), the middle entries are the per-node maxima
/// over lower-part nodes of stage-1 phases 1.. (Lemma 4.2), the last entry
/// is stage 2's.
pub fn contention_experiment(p: u32, seed: u64) -> Vec<u32> {
    let cfg = Config::new(p, 1 << 14, seed).with_contention_tracking();
    let mut list = PimSkipList::new(cfg);
    // Sparse resident keys with a huge gap.
    let pairs: Vec<(i64, u64)> = (0..64).map(|i| (i * 10_000_000, i as u64)).collect();
    list.batch_upsert(&pairs);

    // Adversary: distinct keys, all inside one gap → one shared successor.
    let batch = list.config().batch_large();
    let queries = same_successor_flood(seed, 10_000_001, 19_999_999, batch);
    list.batch_successor(&queries);
    list.last_phase_contention.clone()
}

/// Resident keys of the dense LEM42 layouts.
const CONTENTION_N: usize = 1 << 14;

/// Resident keys `4·i`, `i ∈ 0..2^14`, bulk-loaded, contention counted.
fn contention_tracked_list(p: u32, seed: u64) -> PimSkipList {
    let cfg = Config::new(p, CONTENTION_N as u64, seed).with_contention_tracking();
    let mut list = PimSkipList::new(cfg);
    let pairs: Vec<(i64, u64)> = (0..CONTENTION_N as i64)
        .map(|i| (4 * i, i as u64))
        .collect();
    list.bulk_load(&pairs);
    list
}

/// LEM42 on a batch the lemma's argument does not cover: `P log² P`
/// consecutive resident keys, whose pivots fall into few large groups with
/// long shared path prefixes. Same layout as [`contention_experiment`].
pub fn dense_contention_experiment(p: u32, seed: u64) -> Vec<u32> {
    let mut list = contention_tracked_list(p, seed);
    let batch = list.config().batch_large() as i64;
    let queries: Vec<i64> = (0..batch).map(|i| 4 * (i + 1_000)).collect();
    list.batch_successor(&queries);
    list.last_phase_contention.clone()
}

/// The pivoted search's per-wave allowance `A` for a `P log² P` batch of
/// unique keys ([`Config::search_allowance`]): what a pivot group that
/// skips the recursion may put on one lower-part node.
pub fn full_batch_allowance(p: u32) -> u32 {
    let cfg = Config::new(p, CONTENTION_N as u64, 0);
    cfg.search_allowance(cfg.batch_large()) as u32
}

/// LEM42 on the batches whose pivot groups skip the recursion: stage-2
/// contention (the last entry of
/// [`PimSkipList::last_phase_contention`]) of a uniform `P log² P` batch
/// and of a batch whose every group holds exactly two pivots — always
/// deferred, at most `3⌈log P⌉ − 1` searches below one entry. Same layout
/// as [`dense_contention_experiment`].
pub fn stage2_contention_experiment(p: u32, seed: u64) -> (u32, u32) {
    let mut list = contention_tracked_list(p, seed);
    let batch = list.config().batch_large();
    let uniform = PointGen::new(seed ^ 5, 0, 4 * CONTENTION_N as i64).distinct_uniform(batch);
    let paired = two_pivot_groups(&list.upper_leaf_keys(), logp(p) as usize);
    let mut stage2 = |queries: &[i64]| {
        list.batch_successor(queries);
        list.last_phase_contention.last().copied().unwrap_or(0)
    };
    (stage2(&uniform), stage2(&paired))
}

/// Phase 0's load on a `P log² P` batch: its `m = P log P + 1` pivots
/// (every `log P`-th key and the last) are dealt round-robin from one
/// random module, so the busiest serves exactly `⌈m/P⌉` of them.
pub fn phase0_load_bound(p: u32) -> u32 {
    let m = p * logp(p) as u32 + 1;
    m.div_ceil(p)
}

/// The stage-1 phases from 1 on (phase 0 and stage 2 cut off).
pub fn lower_part_phases(phases: &[u32]) -> &[u32] {
    &phases[1..phases.len() - 1]
}

/// Print LEM42.
pub fn print_contention(ps: &[u32], seed: u64) {
    println!("== Lemma 4.2: ≤3 accesses per lower-part node per stage-1 phase ==");
    println!(
        "{:>6} {:>13} {:>14} {:>8} {:>14} {:>16} {:>15} {:>10}",
        "P",
        "phase-0 load",
        "flood stage-1",
        "stage-2",
        "dense stage-1",
        "uniform stage-2",
        "paired stage-2",
        "A"
    );
    for &p in ps {
        let flood = contention_experiment(p, seed);
        let dense = dense_contention_experiment(p, seed);
        let (uniform, paired) = stage2_contention_experiment(p, seed);
        let max = |phases: &[u32]| lower_part_phases(phases).iter().copied().max().unwrap_or(0);
        println!(
            "{:>6} {:>13} {:>14} {:>8} {:>14} {:>16} {:>15} {:>10}",
            p,
            flood[0],
            max(&flood),
            flood.last().copied().unwrap_or(0),
            max(&dense),
            uniform,
            paired,
            full_batch_allowance(p)
        );
    }
    println!("(phase-0 load is ⌈m/P⌉ exactly: the pivots are dealt round-robin. flood: one");
    println!(" shared successor, the lemma's adversary; dense: consecutive resident keys,");
    println!(" beyond the lemma's ≤ 3 — groups of at most A descend in one wave; uniform and");
    println!(" paired (two pivots per group): stage 2 with the deferred groups' pivots in it.");
    println!(" A = max(3⌈log P⌉ − 1, ⌈b/P⌉) for a batch of b unique keys, log² P when full)");
}

/// A structure of 64 keys spaced `10⁷` apart and a same-successor flood
/// of `P log² P` distinct keys (drawn with `seed ^ salt`) in the gap
/// above its second key (FIG3, HPROF).
fn flood_setup(p: u32, seed: u64, salt: u64) -> (PimSkipList, Vec<i64>) {
    let mut list = PimSkipList::new(Config::new(p, 1 << 14, seed));
    let pairs: Vec<(i64, u64)> = (0..64).map(|i| (i * 10_000_000, i as u64)).collect();
    list.batch_upsert(&pairs);
    let lg = logp(p);
    let batch = (u64::from(p) * lg * lg) as usize;
    let queries = same_successor_flood(seed ^ salt, 10_000_001, 19_999_999, batch);
    (list, queries)
}

/// FIG3: pivot batch Successor under the same-successor flood.
pub fn adversarial_experiment(p: u32, seed: u64) -> BatchCosts {
    let (mut list, queries) = flood_setup(p, seed, 7);
    let (_, costs) = measure_batch(&mut list, queries.len(), |l| l.batch_successor(&queries));
    costs
}

/// Print FIG3.
pub fn print_adversarial(ps: &[u32], seed: u64) {
    println!("== Figure 3 / §4.2: pivot D&C under the same-successor adversary ==");
    println!("{:>6} {:>8} {:>12} {:>12}", "P", "batch", "IO", "rounds");
    for &p in ps {
        let c = adversarial_experiment(p, seed);
        println!("{:>6} {:>8} {:>12} {:>12}", p, c.batch, c.io_time, c.rounds);
    }
}

/// THM51: broadcast range costs across a K sweep.
pub fn range_broadcast_experiment(
    p: u32,
    n: usize,
    ks: &[usize],
    seed: u64,
) -> Vec<(usize, BatchCosts)> {
    let (mut list, keys) = build_loaded_list(p, n, seed);
    ks.iter()
        .map(|&k| {
            let start = (keys.len() - k) / 2;
            let (lo, hi) = (keys[start], keys[start + k - 1]);
            let (r, costs) =
                measure_batch(&mut list, k, |l| l.range_broadcast(lo, hi, RangeFunc::Read));
            assert_eq!(r.items.len(), k);
            (k, costs)
        })
        .collect()
}

/// THM52: tree-structure batched ranges across a κ sweep.
pub fn range_tree_experiment(
    p: u32,
    n: usize,
    kappas: &[usize],
    seed: u64,
) -> Vec<(usize, BatchCosts)> {
    let (mut list, keys) = build_loaded_list(p, n, seed);
    let lg = logp(p) as usize;
    let batch = (p as usize) * lg * lg;
    kappas
        .iter()
        .map(|&kappa| {
            let per = (kappa / batch).max(1);
            let ranges: Vec<(i64, i64)> = (0..batch)
                .map(|i| {
                    let start = (i * 131) % (keys.len() - per);
                    (keys[start], keys[start + per - 1])
                })
                .collect();
            let (res, costs) = measure_batch(&mut list, batch, |l| {
                l.batch_range(&ranges, RangeFunc::Read)
            });
            let covered: u64 = res.iter().map(|r| r.count).sum();
            assert!(covered > 0);
            (kappa, costs)
        })
        .collect()
}

/// Print THM51 + THM52.
pub fn print_ranges(p: u32, n: usize, seed: u64) {
    println!("== Theorem 5.1: broadcast range (P = {p}, n = {n}) ==");
    println!(
        "{:>9} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "K", "rounds", "IO", "PIM", "PIM/(K/P)", "IO/(K/P)"
    );
    let ks = [
        (p as usize) * 8,
        (p as usize) * 32,
        (p as usize) * 128,
        n / 4,
    ];
    for (k, c) in range_broadcast_experiment(p, n, &ks, seed) {
        let kp = k as f64 / f64::from(p);
        println!(
            "{:>9} {:>8} {:>10} {:>10} {:>12.2} {:>10.2}",
            k,
            c.rounds,
            c.io_time,
            c.pim_time,
            c.pim_time as f64 / kp,
            c.io_time as f64 / kp
        );
    }

    println!("== Theorem 5.2: tree-structure batched ranges (P = {p}, n = {n}) ==");
    println!(
        "{:>9} {:>8} {:>10} {:>10} {:>12} {:>10} {:>9}",
        "kappa", "rounds", "IO", "PIM", "PIM/(k/P)", "IO/(k/P)", "sharedM"
    );
    let lg = logp(p) as usize;
    let kappas = [
        (p as usize) * lg * lg,
        (p as usize) * lg * lg * 4,
        (p as usize) * lg * lg * 16,
    ];
    for (kappa, c) in range_tree_experiment(p, n, &kappas, seed) {
        let kp = kappa as f64 / f64::from(p);
        println!(
            "{:>9} {:>8} {:>10} {:>10} {:>12.2} {:>10.2} {:>9}",
            kappa,
            c.rounds,
            c.io_time,
            c.pim_time,
            c.pim_time as f64 / kp,
            c.io_time as f64 / kp,
            c.shared_mem_peak
        );
    }
}

/// One comparison row of the baseline showdown.
#[derive(Debug, Clone)]
pub struct ShowdownRow {
    /// Structure name.
    pub structure: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Measured costs.
    pub costs: BatchCosts,
    /// IO-balance ratio (1 = perfect, P = fully serialised).
    pub io_balance: f64,
}

/// CMP-RANGEPART + CMP-FINEGRAIN: the three structures under uniform,
/// Zipf and single-range adversarial point-query workloads.
pub fn baseline_showdown(p: u32, n: usize, seed: u64) -> Vec<ShowdownRow> {
    let mut gen = PointGen::new(seed ^ 0x5D, 0, (n as i64) * 16);
    let keys = gen.distinct_uniform(n);
    let pairs: Vec<(i64, u64)> = keys.iter().map(|&k| (k, k as u64)).collect();
    let lg = logp(p);
    let batch = (u64::from(p) * lg * lg) as usize;

    // Workloads over resident keys.
    let uniform = gen.from_existing(&keys, batch);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let hot: Vec<i64> = sorted.iter().copied().step_by(16).collect();
    let zipf = gen.zipf_over(&hot, 0.99, batch);
    // Adversarial: confined to the key-range of one partition of the
    // range-partitioned baseline.
    let domain_hi = (n as i64) * 16;
    let part_width = domain_hi / p as i64;
    let flood = single_range_flood(seed ^ 0xF1, 0, part_width - 1, batch);

    let workloads: Vec<(&'static str, &Vec<i64>)> = vec![
        ("uniform", &uniform),
        ("zipf-0.99", &zipf),
        ("one-range", &flood),
    ];
    let mut rows = Vec::new();

    // PIM-balanced structure.
    let mut ours = PimSkipList::new(Config::new(p, n as u64, seed));
    ours.load(&pairs);
    for (name, w) in &workloads {
        let (_, costs) = measure_batch(&mut ours, batch, |l| l.batch_get(w));
        rows.push(ShowdownRow {
            structure: "pim-balanced",
            workload: name,
            io_balance: costs.io_balance(p),
            costs,
        });
    }

    // Range-partitioned baseline.
    let mut rp = RangePartitionedList::new(p, 0, domain_hi, seed);
    rp.batch_upsert(&pairs);
    for (name, w) in &workloads {
        let before = rp.metrics();
        rp.batch_get(w);
        let costs = BatchCosts::from_diff(batch, before, rp.metrics());
        rows.push(ShowdownRow {
            structure: "range-part",
            workload: name,
            io_balance: costs.io_balance(p),
            costs,
        });
    }

    // Fine-grained baseline — measured on Successor (its weakness is
    // multi-hop searches; Get is hash-shortcut for everyone).
    let mut fine = FineGrainedSkipList::new(p, n as u64, seed);
    fine.batch_upsert(&pairs);
    for (name, w) in &workloads {
        let before = fine.metrics();
        fine.batch_successor(w);
        let costs = BatchCosts::from_diff(batch, before, fine.metrics());
        rows.push(ShowdownRow {
            structure: "fine-grained*",
            workload: name,
            io_balance: costs.io_balance(p),
            costs,
        });
    }
    // Ours on Successor for the fine-grained comparison.
    for (name, w) in &workloads {
        let (_, costs) = measure_batch(&mut ours, batch, |l| l.batch_successor(w));
        rows.push(ShowdownRow {
            structure: "pim-bal (succ)",
            workload: name,
            io_balance: costs.io_balance(p),
            costs,
        });
    }
    rows
}

/// Print the baseline showdown.
pub fn print_baselines(p: u32, n: usize, seed: u64) {
    println!("== §2.2/§3.1 comparison: structures under uniform / skewed / adversarial batches ==");
    println!("   (P = {p}, n = {n}; * = fine-grained measured on Successor, multi-hop searches)");
    println!(
        "{:<15} {:<10} {:>10} {:>10} {:>12} {:>10}",
        "structure", "workload", "IO", "PIM", "messages", "IO-balance"
    );
    for row in baseline_showdown(p, n, seed) {
        println!(
            "{:<15} {:<10} {:>10} {:>10} {:>12} {:>10.2}",
            row.structure,
            row.workload,
            row.costs.io_time,
            row.costs.pim_time,
            row.costs.total_messages,
            row.io_balance
        );
    }
    println!("(IO-balance 1 = perfect; ≈P = serialised on one module)");
}

/// ABL-HLOW: sweep the lower-part height.
pub fn ablation_rows(p: u32, n: usize, seed: u64) -> Vec<(u8, u64, BatchCosts)> {
    let lg = logp(p) as u8;
    let heights: Vec<u8> = (0..=(2 * lg)).collect();
    let batch = (u64::from(p) * u64::from(lg) * u64::from(lg)) as usize;
    heights
        .into_iter()
        .map(|h| {
            let cfg = Config::new(p, n as u64, seed).with_h_low(h);
            let (mut list, keys) = build_loaded_list_with(cfg, n, seed);
            let max_words = list.space_per_module().into_iter().max().unwrap_or(0);
            let mut gen = PointGen::new(seed ^ 0xAA, 0, (n as i64) * 64);
            let queries = gen.from_existing(&keys, batch);
            let (_, costs) = measure_batch(&mut list, batch, |l| l.batch_successor(&queries));
            (h, max_words, costs)
        })
        .collect()
}

/// Print ABL-HLOW.
pub fn print_ablation(p: u32, n: usize, seed: u64) {
    println!("== Ablation §3.1: lower-part height h_low (P = {p}, n = {n}; paper picks h_low = log P = {}) ==", logp(p));
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>8}",
        "h_low", "max words/mod", "succ IO", "succ PIM", "rounds"
    );
    for (h, words, costs) in ablation_rows(p, n, seed) {
        println!(
            "{:>6} {:>14} {:>12} {:>12} {:>8}",
            h, words, costs.io_time, costs.pim_time, costs.rounds
        );
    }
    println!("(h_low = 0: full replication — no search IO but Θ(n) space per module;");
    println!(" h_low ≫ log P: fine-grained — low space but IO grows with every extra hop)");
}

/// FIG3 companion: the round-by-round `h` profile of pivot batch
/// Successor under the same-successor adversary (uses runtime tracing).
pub fn print_hprofile(p: u32, seed: u64) {
    let (mut list, queries) = flood_setup(p, seed, 3);
    println!(
        "== h-profile per round (P = {p}, batch = {}, same-successor adversary) ==",
        queries.len()
    );
    list.enable_tracing();
    list.batch_successor(&queries);
    let t = list.take_trace();
    println!(
        "-- pivot D&C: {} rounds, max h = {} --",
        t.rounds.len(),
        t.max_h()
    );
    print!("{}", t.h_profile());
}

/// §3.1 path-split claim: "for a search path in this skip list, O(log n)
/// nodes will fall into the upper part and only O(log P) nodes will fall
/// into the lower part whp". Measured by running single-key searches with
/// contention tracking on and classifying the touched handles by arena.
/// Returns (mean upper visits, mean lower visits, max lower visits).
pub fn path_split_experiment(p: u32, n: usize, seed: u64) -> (f64, f64, u64) {
    let cfg = Config::new(p, n as u64, seed);
    let (mut list, keys) = crate::measure::build_loaded_list_with(cfg, n, seed);
    // Module-side counting only: the driver's per-phase drain (Lemma 4.2
    // instrumentation) stays off, so the counts survive the batch call
    // and classify the whole root-to-leaf path.
    list.set_module_contention_tracking(true);
    let mut gen = PointGen::new(seed ^ 0x9A, 0, (n as i64) * 64);
    let queries = gen.from_existing(&keys, 64);
    let (mut up_total, mut low_total, mut low_max) = (0u64, 0u64, 0u64);
    for q in &queries {
        // Drain any prior counts, then run one search.
        for m in 0..p {
            list.drain_contention(m);
        }
        list.batch_successor(&[*q]);
        let (mut up, mut low) = (0u64, 0u64);
        for m in 0..p {
            for (bits, c) in list.drain_contention(m) {
                if pim_runtime::Handle::from_bits(bits).is_replicated() {
                    up += u64::from(c);
                } else {
                    low += u64::from(c);
                }
            }
        }
        up_total += up;
        low_total += low;
        low_max = low_max.max(low);
    }
    (
        up_total as f64 / queries.len() as f64,
        low_total as f64 / queries.len() as f64,
        low_max,
    )
}

/// Print the §3.1 path-split sweep.
pub fn print_path_split(seed: u64) {
    println!("== §3.1: search-path split — O(log n) upper nodes, O(log P) lower nodes ==");
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "P", "n", "upper/query", "lower/query", "max lower", "log n", "log P"
    );
    for (p, n) in [
        (16u32, 2_000usize),
        (16, 16_000),
        (16, 64_000),
        (4, 16_000),
        (64, 16_000),
    ] {
        let (up, low, low_max) = path_split_experiment(p, n, seed);
        println!(
            "{:>6} {:>9} {:>12.1} {:>12.1} {:>10} {:>10} {:>10}",
            p,
            n,
            up,
            low,
            low_max,
            pim_runtime::ceil_log2(n as u64),
            logp(p)
        );
    }
    println!("(upper visits track log n; lower visits track log P and are n-independent)");
}

/// OBS: one fully instrumented session — probe and round trace on, a
/// representative batch of every operation family (Get, Update, Upsert,
/// Delete, tree range, broadcast range) — returning the pieces an
/// [`pim_runtime::ExportBundle`] needs. The load phase runs *before* the
/// probe is enabled so the export covers only the measured operations.
pub fn trace_export_session(
    p: u32,
    n: usize,
    seed: u64,
) -> (pim_runtime::Trace, pim_runtime::ProbeReport) {
    let (mut list, keys) = build_loaded_list(p, n, seed);
    list.enable_tracing_with_cap(1 << 16);
    list.enable_probe();

    let lg = logp(p);
    let small = (u64::from(p) * lg) as usize;
    let large = (u64::from(p) * lg * lg) as usize;
    let mut gen = PointGen::new(seed ^ 0x0B5, 0, (n as i64) * 64);

    let batch = gen.from_existing(&keys, small);
    list.batch_get(&batch);
    let pairs: Vec<(i64, u64)> = gen
        .from_existing(&keys, small)
        .into_iter()
        .map(|k| (k, 1))
        .collect();
    list.batch_update(&pairs);
    let fresh: Vec<(i64, u64)> = gen
        .distinct_uniform(large)
        .into_iter()
        .map(|k| (k + (n as i64) * 128, k as u64))
        .collect();
    list.batch_upsert(&fresh);
    let batch = gen.distinct_from_existing(&keys, large.min(keys.len()));
    list.batch_delete(&batch);
    let span = (n as i64) * 64 / 8;
    list.batch_range(&[(0, span), (span / 2, span * 2)], RangeFunc::Sum);
    list.range_broadcast(0, span, RangeFunc::Count);

    let report = list.take_probe().expect("probe was enabled");
    let trace = list.take_trace();
    (trace, report)
}

/// OBS: run [`trace_export_session`], write its JSONL trace to
/// `out_dir/trace.jsonl`, and print the per-phase cost breakdown (the
/// same §2.1 columns as Table 1, via [`BatchCosts::from_span_stats`]).
pub fn trace_export(out_dir: &str, p: u32, n: usize, seed: u64) -> std::io::Result<()> {
    let (trace, report) = trace_export_session(p, n, seed);
    let bundle = pim_runtime::ExportBundle {
        p,
        trace: &trace,
        report: Some(&report),
        events: None,
    };
    std::fs::create_dir_all(out_dir)?;
    let trace_path = format!("{out_dir}/trace.jsonl");
    std::fs::write(&trace_path, pim_runtime::rounds_jsonl(&bundle))?;

    println!("== Observability: per-phase cost breakdown (P = {p}, n = {n}) ==");
    println!(
        "{:<40} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "phase", "calls", "rounds", "IO", "PIM", "msgs", "CPUw", "sharedM"
    );
    for (path, _depth, count, stats) in report.by_path() {
        let c = BatchCosts::from_span_stats(count as usize, &stats);
        println!(
            "{:<40} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            path,
            count,
            c.rounds,
            c.io_time,
            c.pim_time,
            c.total_messages,
            c.cpu_work,
            c.shared_mem_peak
        );
    }
    println!("(exclusive stats: nested phases own their share; load phase ran before the probe)");
    println!("wrote {trace_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_have_sane_shapes() {
        let rows = table1_rows(8, 2000, 3);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.costs.io_time > 0, "{} has zero IO", r.op);
            assert!(r.costs.rounds > 0);
        }
    }

    #[test]
    fn contention_stage1_bounded_by_three() {
        let phases = contention_experiment(16, 5);
        assert!(phases.len() >= 3, "phase 0, phase 1, stage 2: {phases:?}");
        assert!(
            phases[0] <= phase0_load_bound(16),
            "Lemma 2.2 violated: phase 0 module load {}",
            phases[0]
        );
        let stage1 = lower_part_phases(&phases);
        assert!(
            stage1.iter().all(|&c| c <= 3),
            "Lemma 4.2 violated: stage-1 contention {stage1:?}"
        );
    }

    #[test]
    fn showdown_serialises_range_partitioning() {
        let rows = baseline_showdown(16, 4000, 11);
        let rp_flood = rows
            .iter()
            .find(|r| r.structure == "range-part" && r.workload == "one-range")
            .unwrap();
        let ours_flood = rows
            .iter()
            .find(|r| r.structure == "pim-balanced" && r.workload == "one-range")
            .unwrap();
        assert!(
            rp_flood.io_balance > 10.0,
            "rp balance {}",
            rp_flood.io_balance
        );
        assert!(
            ours_flood.io_balance < 6.0,
            "ours balance {}",
            ours_flood.io_balance
        );
    }

    #[test]
    fn ablation_space_decreases_with_h_low() {
        let rows = ablation_rows(8, 2000, 13);
        let first = rows.first().unwrap().1; // h_low = 0: full replication
        let last = rows.last().unwrap().1; // deep distribution
        assert!(
            first > last,
            "replication space should shrink: {first} vs {last}"
        );
    }
}
