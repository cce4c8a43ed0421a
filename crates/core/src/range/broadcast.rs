//! Range operations by broadcasting (§5.1).
//!
//! The operation is broadcast to all `P` modules (an `h = 1` relation);
//! each module finds the *local successor* of `LKey` — upper-part search to
//! the rightmost upper leaf `≤ LKey`, one `next_leaf` hop, then a short
//! local-list walk (`O(log P)` whp, Theorem 5.1) — and streams its local
//! pairs in `[LKey, RKey]` through the function. With `K` covered pairs,
//! Lemma 2.1 puts `Θ(K/P)` of them in every module whp: PIM time
//! `O(K/P + log n)`, IO `O(1)` out plus `O(K/P)` returns, `O(1)` rounds.

use pim_primitives::sort::par_sort_by_key;

use crate::config::{Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::tasks::{RangeFunc, Reply, Task};

/// Result of one range operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeResult {
    /// `(key, value)` pairs in ascending key order (populated by
    /// item-returning functions; for `FetchAdd` the values are the old
    /// ones).
    pub items: Vec<(Key, Value)>,
    /// Number of pairs the function touched.
    pub count: u64,
    /// Sum of touched values (populated by the reductions).
    pub sum: u64,
    /// Minimum touched value (`u64::MAX` when the range was empty).
    pub min: Value,
    /// Maximum touched value (`0` when the range was empty).
    pub max: Value,
}

impl RangeResult {
    /// An empty result with reduction identities.
    pub fn empty() -> Self {
        RangeResult {
            items: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl PimSkipList {
    /// Execute one range operation by broadcast (§5.1). Requires a
    /// distributed lower part (`h_low > 0`).
    pub fn range_broadcast(&mut self, lo: Key, hi: Key, func: RangeFunc) -> RangeResult {
        assert!(
            self.cfg.h_low > 0,
            "broadcast ranges need local leaf lists (h_low > 0)"
        );
        self.try_range_broadcast(lo, hi, func)
            .unwrap_or_else(|e| panic!("range_broadcast: {e}"))
    }

    /// Fault-tolerant broadcast range operation; see
    /// [`PimSkipList::range_broadcast`]. Every attempt that failed or saw
    /// damage restores the machine from the journal before the retry, so a
    /// partial `FetchAdd` / `AddInPlace` is never applied twice.
    pub fn try_range_broadcast(
        &mut self,
        lo: Key,
        hi: Key,
        func: RangeFunc,
    ) -> PimResult<RangeResult> {
        if self.cfg.h_low == 0 {
            return Err(PimError::InvalidArgument {
                op: "range_broadcast",
                reason: "broadcast ranges need local leaf lists (h_low > 0)".into(),
            });
        }
        let p = self.cfg.p as usize;
        self.retry("range_broadcast", p, |s| {
            (s.range_broadcast_attempt(lo, hi, func), true)
        })
    }

    /// One fault-observable attempt of [`PimSkipList::range_broadcast`].
    fn range_broadcast_attempt(
        &mut self,
        lo: Key,
        hi: Key,
        func: RangeFunc,
    ) -> PimResult<RangeResult> {
        self.spanned("range_broadcast", |s| {
            s.range_broadcast_attempt_inner(lo, hi, func)
        })
    }

    fn range_broadcast_attempt_inner(
        &mut self,
        lo: Key,
        hi: Key,
        func: RangeFunc,
    ) -> PimResult<RangeResult> {
        let before = self.sys.metrics();
        let replies = self.spanned("range_broadcast/scan", |s| {
            s.sys.broadcast(|_| Task::RangeBroadcast {
                op: 0,
                lo,
                hi,
                func,
            });
            s.sys.run_to_quiescence()
        });

        let mut out = RangeResult::empty();
        let mut agg_replies = 0u32;
        let mut faulted = 0usize;
        for r in replies {
            match r {
                Reply::RangeItem { key, value, .. } => {
                    out.items.push((key, value));
                }
                Reply::RangeAgg {
                    count,
                    sum,
                    min,
                    max,
                    ..
                } => {
                    agg_replies += 1;
                    out.count += count;
                    out.sum = out.sum.wrapping_add(sum);
                    out.min = out.min.min(min);
                    out.max = out.max.max(max);
                }
                Reply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol("range_broadcast", other)),
            }
        }
        // Non-item functions get exactly one aggregate reply per module —
        // a direct completeness count. Item streams have no such invariant;
        // the metrics delta below covers silently lost items instead.
        if faulted > 0 || (!func.returns_items() && agg_replies < self.cfg.p) {
            let missing = (self.cfg.p - agg_replies.min(self.cfg.p)) as usize;
            return Err(PimError::incomplete("range_broadcast", faulted + missing));
        }
        if self.damage_since(&before) {
            return Err(PimError::incomplete("range_broadcast", 1));
        }
        // Commit mutations to the journal only now, on an undamaged pass.
        match func {
            RangeFunc::FetchAdd(d) | RangeFunc::AddInPlace(d) => {
                self.journal_add(lo, hi, d);
            }
            _ => {}
        }
        if func.returns_items() {
            // The paper indexes results inside the structure; we instead
            // sort the returned pairs on the CPU side (documented
            // substitution — same `O(K log K)` work the CPU-side variant
            // of §5.2 step 4 performs).
            self.spanned("range_broadcast/sort", |s| {
                let staged = out.items.len() as u64 * 2;
                s.sys.shared_mem().alloc(staged);
                par_sort_by_key(&mut out.items, |&(k, _)| k).charge(s.sys.metrics_mut());
                out.count = out.items.len() as u64;
                s.sys.sample_shared_mem();
                s.sys.shared_mem().free(staged);
            });
        }
        Ok(out)
    }
}
