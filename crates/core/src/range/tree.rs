//! Batched range operations by tree structure (§5.2).
//!
//! Pipeline, following the paper's four steps:
//!
//! 1. **Subrange split** — overlapping batch ranges are cut at all range
//!    endpoints into disjoint ascending *atomic subranges* (at most `2·B`
//!    of them), each tagged with its coverage multiplicity; a CPU sweep
//!    computes both.
//! 2. **Pivot stage** — the pivoted search machinery of §4.2 runs over the
//!    subrange left ends; each subrange inherits a start-node hint (the
//!    LCA of its bracketing pivots' recorded paths).
//! 3. **Search-area descent** — from each hint a `RangeDescend` task fans
//!    down the search area in parallel (a counting pass first where
//!    subrange sizes must be known before any values move; `Sum`/`Min`/
//!    `Max` skip it, their one descent reports the count too).
//! 4. **Grouped execution** — subranges are packed into groups of
//!    `Θ(P log² P)` covered pairs (splitting nothing: oversized subranges
//!    form singleton groups, processed alone); each group's pairs are
//!    fetched to shared memory, the batch's function is applied per
//!    covering operation on the CPU side, and updates are written back
//!    with `RemoteWrite`s.
//!
//! *Documented substitution:* per-leaf indices are assigned by CPU-side
//! sorting of each group (the paper computes them with in-structure
//! leaf-to-root/root-to-leaf prefix-sum passes). The IO/PIM costs are
//! unchanged — the descent already visits exactly the search area — and
//! the CPU-side sort is the same work the paper's own step 4 performs
//! when it applies functions on the CPU side.

use std::collections::HashMap;

use pim_primitives::paths::Hint;
use pim_primitives::prefix::group_by_budget;
use pim_primitives::sort::{par_sort, par_sort_by_key};
use pim_runtime::Handle;

use crate::batch::search::{pivoted_search, LastDraw, SearchRequest};
use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::range::broadcast::RangeResult;
use crate::sched::Lane;
use crate::tasks::{RangeFunc, Reply, Task};

/// One atomic subrange after the overlap split.
#[derive(Debug, Clone, Copy)]
struct Subrange {
    lo: Key,
    hi: Key,
    /// Number of batch operations covering this subrange.
    multiplicity: u32,
}

impl PimSkipList {
    /// Execute a batch of range operations `[(lo, hi)]` (inclusive ends),
    /// all applying the same `func` (the model's same-type batch), via the
    /// tree structure (§5.2). Returns one [`RangeResult`] per input range.
    pub fn batch_range(&mut self, ranges: &[(Key, Key)], func: RangeFunc) -> Vec<RangeResult> {
        for &(lo, hi) in ranges {
            assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        }
        assert!(
            self.cfg.h_low > 0
                || matches!(func, RangeFunc::Read | RangeFunc::Count | RangeFunc::Sum | RangeFunc::Min | RangeFunc::Max),
            "mutating range functions require a distributed lower part              (h_low > 0): under full replication a single-module write              would diverge the replicas"
        );
        self.try_batch_range(ranges, func)
            .unwrap_or_else(|e| panic!("batch_range: {e}"))
    }

    /// Fault-tolerant batched range operation; see
    /// [`PimSkipList::batch_range`]. A thin shim over
    /// [`PimSkipList::try_execute`] (where validation and the retry
    /// discipline live): read-only functions are restored only after
    /// a crash; mutating ones restore from the journal on any damaged
    /// attempt so a partial pass is never applied twice.
    pub(crate) fn try_batch_range(
        &mut self,
        ranges: &[(Key, Key)],
        func: RangeFunc,
    ) -> PimResult<Vec<RangeResult>> {
        let ops: Vec<crate::Op> = ranges
            .iter()
            .map(|&(lo, hi)| crate::Op::Range { lo, hi, func })
            .collect();
        let replies = self.try_execute(&ops)?;
        Ok(replies
            .into_iter()
            .map(|r| match r {
                crate::Reply::Range(res) => res,
                other => unreachable!("Range run answered {other:?}"),
            })
            .collect())
    }
}

/// One fault-observable attempt of [`PimSkipList::batch_range`] (its
/// caller opens the `range_tree` probe span). In a span, a mutating batch
/// is a job whose rounds are its own: it starts once every earlier job has
/// finished and holds every later one back until it finishes, so the
/// span's per-round damage check covers its rounds.
pub(crate) async fn batch_range_attempt(
    lane: Lane<'_>,
    ranges: &[(Key, Key)],
    func: RangeFunc,
) -> PimResult<Vec<RangeResult>> {
    let staged = ranges.len() as u64 * 4;
    lane.with(|s| s.sys.shared_mem().alloc(staged));
    let out = batch_range_attempt_inner(lane, ranges, func).await;
    lane.with(|s| {
        s.sys.sample_shared_mem();
        s.sys.shared_mem().free(staged);
    });
    out
}

async fn batch_range_attempt_inner(
    lane: Lane<'_>,
    ranges: &[(Key, Key)],
    func: RangeFunc,
) -> PimResult<Vec<RangeResult>> {
    // ---- Step 1: split into disjoint atomic subranges (CPU sweep) ----
    let (before, (subranges, op_spans)) = lane.with(|s| {
        let before = s.sys.metrics();
        let split = s.spanned("range_tree/split", |s| {
            let mut cuts = s.scratch.take_cuts();
            let mut delta = s.scratch.take_range_delta();
            let mut cell_to_sub = s.scratch.take_cell_to_sub();
            let split = split_ranges(ranges, &mut cuts, &mut delta, &mut cell_to_sub);
            s.scratch.give_cell_to_sub(cell_to_sub);
            s.scratch.give_range_delta(delta);
            s.scratch.give_cuts(cuts);
            s.sys.metrics_mut().charge_cpu(
                (ranges.len() as u64 * 2) * pim_runtime::ceil_log2(ranges.len() as u64) as u64,
                pim_runtime::ceil_log2(ranges.len() as u64).into(),
            );
            split
        });
        (before, split)
    });

    // ---- Step 2: pivoted search over subrange left ends → hints. A lone
    // subrange is its group's last pivot, whose hint is always `Root`: it
    // skips the search and descends from the replicas. ----
    let hints = if subranges.len() > 1 {
        let reqs = lane.with(|s| {
            let mut reqs = s.scratch.take_reqs();
            reqs.extend(subranges.iter().enumerate().map(|(i, s)| SearchRequest {
                op: i as u32,
                key: s.lo,
                top: 0,
            }));
            reqs
        });
        let search = pivoted_search(lane, &reqs, LastDraw::Later).await;
        lane.with(|s| s.scratch.give_reqs(reqs));
        search?.hints
    } else {
        HashMap::new()
    };

    let starts: Vec<(Handle, Option<u32>)> = lane.with(|s| {
        let mut deal = s.deal();
        (0..subranges.len())
            .map(|i| match hints.get(&(i as u32)) {
                Some(Hint::Start(h)) | Some(Hint::SharedLeaf(h)) => (*h, None),
                _ => (s.descent_start(0), Some(deal.next())),
            })
            .collect()
    });
    lane.drawn();

    // ---- Step 3: counting descent, where sizes are needed before any
    // value moves: `Count` (it is the result), `Read`/`FetchAdd` (group
    // budgets) and `AddInPlace` (the reported count). The other
    // reductions' own descent already carries the count. ----
    let counts: Vec<u64> = if matches!(func, RangeFunc::Sum | RangeFunc::Min | RangeFunc::Max) {
        Vec::new()
    } else {
        lane.spanned(
            "range_tree/count",
            descend_aggregate(lane, &subranges, &starts, RangeFunc::Count),
        )
        .await
        .into_iter()
        .map(|r| r.count)
        .collect()
    };
    let count_results = |counts: &[u64]| -> Vec<RangeResult> {
        counts
            .iter()
            .map(|&c| RangeResult {
                count: c,
                ..RangeResult::empty()
            })
            .collect()
    };

    // ---- Step 4: execute ----
    let results = lane
        .spanned("range_tree/execute", async {
            match func {
                RangeFunc::Count => count_results(&counts),
                RangeFunc::Sum | RangeFunc::Min | RangeFunc::Max => {
                    descend_aggregate(lane, &subranges, &starts, func).await
                }
                RangeFunc::AddInPlace(d) => {
                    // One pass per subrange with the multiplicity folded in.
                    lane.with(|s| {
                        for (i, sub) in subranges.iter().enumerate() {
                            let (at, module) = starts[i];
                            let target = module.unwrap_or_else(|| at.module());
                            s.sys.send(
                                target,
                                Task::RangeDescend {
                                    op: i as u32,
                                    at,
                                    lo: sub.lo,
                                    hi: sub.hi,
                                    func: RangeFunc::AddInPlace(
                                        d.wrapping_mul(u64::from(sub.multiplicity)),
                                    ),
                                },
                            );
                        }
                    });
                    lane.wave().await;
                    count_results(&counts)
                }
                RangeFunc::Read | RangeFunc::FetchAdd(_) => {
                    grouped_fetch(lane, &subranges, &starts, &counts, func).await
                }
            }
        })
        .await;

    lane.with(|s| {
        // A silently lost descent or write (no reply to count) shows up
        // only in the machine's loss counters: refuse to report results
        // from a damaged pass, and never journal one.
        if s.damage_since(&before) {
            return Err(PimError::incomplete("batch_range", 1));
        }
        // Commit mutations to the journal (per atomic subrange, with the
        // coverage multiplicity folded in, matching the module-side adds).
        if let RangeFunc::FetchAdd(d) | RangeFunc::AddInPlace(d) = func {
            for sub in &subranges {
                s.journal_add(sub.lo, sub.hi, d.wrapping_mul(u64::from(sub.multiplicity)));
            }
        }
        Ok(())
    })?;

    // ---- Map atomic subranges back to the input operations ----
    Ok(op_spans
        .iter()
        .map(|&(s_lo, s_hi)| {
            let mut r = RangeResult::empty();
            for sub in &results[s_lo..s_hi] {
                r.count += sub.count;
                r.sum = r.sum.wrapping_add(sub.sum);
                r.min = r.min.min(sub.min);
                r.max = r.max.max(sub.max);
                r.items.extend_from_slice(&sub.items);
            }
            r
        })
        .collect())
}

/// One `RangeDescend(func)` per subrange, aggregated per subrange (a
/// `Faulted` reply means the descent hit crash-damaged state; the
/// caller's damage check triggers the retry).
async fn descend_aggregate(
    lane: Lane<'_>,
    subranges: &[Subrange],
    starts: &[(Handle, Option<u32>)],
    func: RangeFunc,
) -> Vec<RangeResult> {
    debug_assert!(!func.returns_items());
    lane.with(|s| {
        for (i, sub) in subranges.iter().enumerate() {
            let (at, module) = starts[i];
            let target = module.unwrap_or_else(|| at.module());
            s.sys.send(
                target,
                Task::RangeDescend {
                    op: i as u32,
                    at,
                    lo: sub.lo,
                    hi: sub.hi,
                    func,
                },
            );
        }
    });
    let mut agg = vec![RangeResult::empty(); subranges.len()];
    for r in lane.wave().await {
        match r {
            Reply::RangeAgg {
                op,
                count,
                sum,
                min,
                max,
            } => {
                let a = &mut agg[op as usize];
                a.count += count;
                a.sum = a.sum.wrapping_add(sum);
                a.min = a.min.min(min);
                a.max = a.max.max(max);
            }
            Reply::Faulted { .. } => {}
            other => unreachable!("unexpected reply in counting descent: {other:?}"),
        }
    }
    agg
}

/// Item-returning execution in shared-memory-sized groups.
async fn grouped_fetch(
    lane: Lane<'_>,
    subranges: &[Subrange],
    starts: &[(Handle, Option<u32>)],
    counts: &[u64],
    func: RangeFunc,
) -> Vec<RangeResult> {
    let groups = lane.with(|s| {
        let budget =
            (u64::from(s.cfg.p) * u64::from(s.cfg.log_p()) * u64::from(s.cfg.log_p())).max(1);
        let (groups, gcost) = group_by_budget(counts, budget);
        gcost.charge(s.sys.metrics_mut());
        groups
    });

    let mut results: Vec<RangeResult> = vec![RangeResult::empty(); subranges.len()];
    for group in groups {
        let group_words: u64 = counts[group.clone()].iter().sum::<u64>() * 3;
        lane.with(|s| {
            s.sys.shared_mem().alloc(group_words);
            for i in group.clone() {
                if counts[i] == 0 {
                    continue;
                }
                let (at, module) = starts[i];
                let target = module.unwrap_or_else(|| at.module());
                s.sys.send(
                    target,
                    Task::RangeDescend {
                        op: i as u32,
                        at,
                        lo: subranges[i].lo,
                        hi: subranges[i].hi,
                        func: RangeFunc::Read,
                    },
                );
            }
        });
        let replies = lane.wave().await;
        lane.with(|s| {
            let mut fetched: HashMap<u32, Vec<(Key, Value, Handle)>> = HashMap::new();
            for r in replies {
                match r {
                    Reply::RangeItem {
                        op,
                        node,
                        key,
                        value,
                    } => fetched.entry(op).or_default().push((key, value, node)),
                    Reply::Faulted { .. } => {}
                    other => unreachable!("unexpected reply in grouped fetch: {other:?}"),
                }
            }
            for (op, mut items) in fetched {
                par_sort_by_key(&mut items, |&(k, _, _)| k).charge(s.sys.metrics_mut());
                let sub = &subranges[op as usize];
                if let RangeFunc::FetchAdd(d) = func {
                    // Apply the function once per covering operation on
                    // the CPU side; returned values are pre-batch.
                    let add = d.wrapping_mul(u64::from(sub.multiplicity));
                    for &(_, old, node) in &items {
                        s.send_write(
                            node,
                            Task::WriteValue {
                                node,
                                value: old.wrapping_add(add),
                            },
                        );
                    }
                }
                let r = &mut results[op as usize];
                r.count = items.len() as u64;
                r.items = items.into_iter().map(|(k, v, _)| (k, v)).collect();
            }
        });
        lane.wave().await;
        lane.with(|s| {
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(group_words);
        });
    }
    results
}

/// Cut overlapping ranges into disjoint atomic subranges; returns the
/// subranges (ascending) and, per input op, the half-open span of subrange
/// indices it covers. `cuts`, `delta`, and `cell_to_sub` are
/// caller-provided staging (recycled across batches via
/// [`crate::scratch::Scratch`]); any contents are discarded.
fn split_ranges(
    ranges: &[(Key, Key)],
    cuts: &mut Vec<Key>,
    delta: &mut Vec<i64>,
    cell_to_sub: &mut Vec<usize>,
) -> (Vec<Subrange>, Vec<(usize, usize)>) {
    // Cut points: every lo and every hi+1.
    cuts.clear();
    cuts.reserve(ranges.len() * 2);
    for &(lo, hi) in ranges {
        cuts.push(lo);
        cuts.push(hi.saturating_add(1));
    }
    par_sort(cuts);
    cuts.dedup();

    // Coverage sweep over cut cells.
    delta.clear();
    delta.resize(cuts.len() + 1, 0i64);
    for &(lo, hi) in ranges {
        let a = cuts.partition_point(|&c| c < lo);
        let b = cuts.partition_point(|&c| c < hi.saturating_add(1));
        delta[a] += 1;
        delta[b] -= 1;
    }
    let mut subranges = Vec::new();
    cell_to_sub.clear();
    cell_to_sub.resize(cuts.len(), usize::MAX);
    let mut cover = 0i64;
    for i in 0..cuts.len() {
        cover += delta[i];
        if cover > 0 && i < cuts.len() {
            let hi_excl = if i + 1 < cuts.len() {
                cuts[i + 1]
            } else {
                // The last cut is always some hi+1 with coverage 0 after
                // it, so this branch is unreachable; keep it defensive.
                Key::MAX
            };
            cell_to_sub[i] = subranges.len();
            subranges.push(Subrange {
                lo: cuts[i],
                hi: hi_excl - 1,
                multiplicity: cover as u32,
            });
        }
    }

    // Per op: contiguous span of subranges.
    let spans = ranges
        .iter()
        .map(|&(lo, hi)| {
            let a = cuts.partition_point(|&c| c < lo);
            let b = cuts.partition_point(|&c| c < hi.saturating_add(1));
            // Every cell in [a, b) is covered (by this op at least).
            debug_assert!((a..b).all(|i| cell_to_sub[i] != usize::MAX));
            (cell_to_sub[a], cell_to_sub[b - 1] + 1)
        })
        .collect();
    (subranges, spans)
}

impl PimSkipList {
    /// Single-range convenience with automatic strategy choice (§5.2 notes
    /// "we could apply the algorithm from §5.1 to all large ranges"): a
    /// cheap counting descent sizes the range, then broadcast execution is
    /// used for ranges covering `Ω(P log P)` pairs (Theorem 5.1's regime)
    /// and tree execution for small ones (where broadcasting would waste
    /// `P` messages on mostly-empty modules).
    pub fn range_auto(&mut self, lo: Key, hi: Key, func: RangeFunc) -> RangeResult {
        assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        let threshold = u64::from(self.cfg.p) * u64::from(self.cfg.log_p());
        // Size probe: one tree Count (O(K/P + log) — cheaper than a wrong
        // choice for either regime).
        let count = self.batch_range(&[(lo, hi)], RangeFunc::Count)[0].count;
        if matches!(func, RangeFunc::Count) {
            return RangeResult {
                count,
                ..RangeResult::empty()
            };
        }
        if count >= threshold && self.cfg.h_low > 0 {
            self.range_broadcast(lo, hi, func)
        } else {
            self.batch_range(&[(lo, hi)], func)
                .pop()
                .expect("one result per range")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_ranges_t(ranges: &[(Key, Key)]) -> (Vec<Subrange>, Vec<(usize, usize)>) {
        split_ranges(ranges, &mut Vec::new(), &mut Vec::new(), &mut Vec::new())
    }

    #[test]
    fn split_disjoint_ranges_passthrough() {
        let (subs, spans) = split_ranges_t(&[(0, 5), (10, 15)]);
        assert_eq!(subs.len(), 2);
        assert_eq!((subs[0].lo, subs[0].hi, subs[0].multiplicity), (0, 5, 1));
        assert_eq!((subs[1].lo, subs[1].hi, subs[1].multiplicity), (10, 15, 1));
        assert_eq!(spans, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn split_overlapping_ranges() {
        let (subs, spans) = split_ranges_t(&[(0, 10), (5, 15)]);
        let triples: Vec<(Key, Key, u32)> =
            subs.iter().map(|s| (s.lo, s.hi, s.multiplicity)).collect();
        assert_eq!(triples, vec![(0, 4, 1), (5, 10, 2), (11, 15, 1)]);
        assert_eq!(spans, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn split_nested_ranges() {
        let (subs, spans) = split_ranges_t(&[(0, 100), (40, 60)]);
        let triples: Vec<(Key, Key, u32)> =
            subs.iter().map(|s| (s.lo, s.hi, s.multiplicity)).collect();
        assert_eq!(triples, vec![(0, 39, 1), (40, 60, 2), (61, 100, 1)]);
        assert_eq!(spans, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn split_identical_ranges() {
        let (subs, spans) = split_ranges_t(&[(3, 9), (3, 9), (3, 9)]);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].multiplicity, 3);
        assert_eq!(spans, vec![(0, 1); 3]);
    }

    #[test]
    fn split_touching_ranges() {
        let (subs, spans) = split_ranges_t(&[(0, 4), (5, 9)]);
        assert_eq!(subs.len(), 2);
        assert_eq!(spans, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn a_lone_subrange_descends_without_a_search() {
        let mut list = PimSkipList::new(crate::Config::new(8, 1 << 10, 3));
        let pairs: Vec<(Key, Value)> = (0..500).map(|i| (i * 2, i as u64)).collect();
        list.bulk_load(&pairs);
        list.enable_probe();
        let one = list.batch_range(&[(100, 131)], RangeFunc::Sum);
        let two = list.batch_range(&[(100, 131), (600, 607)], RangeFunc::Sum);
        let report = list.take_probe().expect("probe was enabled");
        assert_eq!(one[0].count, 16);
        assert_eq!(one[0].sum, (50..66).sum::<u64>());
        assert_eq!((two[0].count, two[0].sum), (one[0].count, one[0].sum));
        assert_eq!(two[1].count, 4);
        assert_eq!(report.spans_named("range_tree").len(), 2);
        assert_eq!(
            report.spans_named("search").len(),
            1,
            "only the pair searches"
        );
    }

    #[test]
    fn split_single_key_range() {
        let (subs, _) = split_ranges_t(&[(7, 7)]);
        assert_eq!(subs.len(), 1);
        assert_eq!((subs[0].lo, subs[0].hi), (7, 7));
    }
}
