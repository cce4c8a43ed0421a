//! Batched Predecessor/Successor — the pivot divide-and-conquer of §4.2.
//!
//! A naïve batch of searches serialises under the same-successor adversary:
//! all `P log² P` search paths converge on one leaf and its ancestors
//! become contention points. The paper's fix:
//!
//! * **Stage 1** — sort the batch, pick every `log P`-th key as a *pivot*
//!   (plus both extremes), and resolve the pivots group by group:
//!   * *Phase 0* (one round): the pivots are dealt round-robin over the
//!     modules from one random offset ([`PimSkipList::deal`]); each walks
//!     that module's replica of the upper part from the descent start (the
//!     highest linked −∞ sentinel, [`PimSkipList::descent_start`]) and reports
//!     its **lower-part entry** — the first non-replicated node on its
//!     path ([`Reply::LowerEntry`]). A search that ends inside the
//!     replicated part (the −∞ sentinel tower: any key at or below the
//!     smallest resident key; everything under `h_low = 0`) is answered
//!     there and has an empty lower-part path.
//!   * Search paths form a tree (§3.2), so a path below entry `e` stays in
//!     `e`'s subtree and pivots with different entries are node-disjoint
//!     in the lower part: they can all descend in the same phase. Pivots
//!     are ascending and a subtree covers a key interval, so the pivots
//!     sharing an entry are a run — a *group*.
//!   * **A group recurses only when it exceeds one wave's allowance.** The
//!     recursion exists to keep a lower-part node at `O(log P)` accesses
//!     when many searches share a subtree. The allowance of a batch of `b`
//!     unique requests is `A = max(3⌈log P⌉ − 1, ⌈b/P⌉)`
//!     ([`crate::Config::search_allowance`]): the floor is stage 2's bound
//!     under a group of two pivots, and `⌈b/P⌉` is the share every module
//!     serves per wave anyway (`A = log² P` for a full batch). Groups are
//!     node-disjoint below their entries, so a group `[l..=r]` of
//!     `g = r − l + 1` pivots takes the first of three tiers that keeps
//!     every node of every wave within `A`:
//!     * *Deferred* — at most `A` searches can reach its entry (its pivots
//!       and every request strictly between its neighbour pivots,
//!       `pivots[r+1] − pivots[l−1] − 1`; one or two pivots always fit).
//!       Its pivots descend from the entry in the stage-2 wave, record no
//!       path, and nobody waits for them.
//!     * *One wave* — `g ≤ A`: all `g` pivots descend from the entry in
//!       phase 1 and record their paths; there are no median phases.
//!     * *Recursion* — the rest (in practice the adversarial floods):
//!       phase 1 runs the group's two ends from its entry, recording their
//!       lower-part paths; each later phase runs the median of every open
//!       segment, starting from the **LCA** of the segment endpoints'
//!       recorded paths (start-node hints). Lemma 4.2 holds per group: no
//!       lower-part node is accessed more than 3 times per phase.
//!
//!   That is phase 0 alone when every group is deferred, one more phase
//!   when the largest group fits one wave, and `2 + ⌈log₂ g⌉` phases for
//!   a largest group of `g > A` pivots. The worst case, all `m` pivots in
//!   one group, is the one-segment recursion of the paper
//!   (`1 + ⌈log₂ m⌉` phases) plus the one-round phase 0.
//! * **Stage 2** — run the deferred pivots and all remaining queries. A
//!   query's hint comes from its two bracketing pivots: both in one
//!   deferred group → that group's entry; both with recorded paths → the
//!   LCA of the paths; anything else (two groups, one of them deferred) →
//!   the nearer pivot's **finger**, else the root. Contention is `O(log P)`
//!   per node (segment width; at most `A` under a deferred group's entry),
//!   PIM-balanced by Lemma 2.2.
//!   * Fingers are the upper-part half of the paper's LCA. Each bracket is
//!     split at its midpoint, and on its phase-0 walk a pivot marks
//!     ([`Fingers`]) the lowest replicated node of its path, at most the
//!     descent start, that every key of the half-bracket after it (*right
//!     finger*: right key `≥` the half's last key) or before it (*left
//!     finger*: key `<` the half's first key) also descends from. That
//!     node is on each such key's own search path, so the walk from it is a
//!     suffix of the root descent; it is still dealt like one, so rounds,
//!     the deal and the replies are unchanged. A pivot answered inside the
//!     replicated part marks none.
//!
//! For insert support ([`SearchMode::PredLevels`]) every pivot reports its
//! upper-part predecessors in phase 0, and a hinted search only descends
//! below its hint; the per-level predecessors *above* the LCA are stitched
//! from the segment's left endpoint — valid because search paths that
//! share an LCA coincide above it (the search-path tree of §3.2). Below a
//! deferred group's entry the same holds one level up: the bracket shares its
//! left pivot's upper-part leaf, so that pivot's phase-0 reports are the
//! bracket's path above the entry. A half-bracket that starts at a finger
//! takes the levels above it from the finger's pivot — the right one for a
//! right half.
//!
//! Every search also returns its *anchor*: the level-`h_low` node its walk
//! descends from into the lower part, where a new leaf for the key starts
//! its local-list descent (`DoneRec::anchor`). A walk from a replicated
//! start records it in passing ([`Walk::Descend`]); phase 0 returns each
//! pivot's in [`Reply::LowerEntry`]; a walk from a lower-part hint carries
//! the anchor of the pivot it stitches from, which shares its upper leaf.
//!
//! The tree-structure range operations (§5.2) start each subrange's descent
//! at its left end's hint ([`SearchResults::hints`]), which must cover every
//! key up to the next request's. A group's last pivot is followed by keys
//! below other entries, so it publishes `Root`: from its entry a wide range
//! would crawl the top lower-part level one hop per round instead of fanning
//! out from the replicated part.

use std::collections::HashMap;
use std::ops::Range;

use pim_primitives::accounting::{log2c, CpuCost};
use pim_primitives::paths::Hint;
use pim_primitives::sort::par_sort;
use pim_runtime::Handle;

use crate::config::{Key, NEG_INF};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::op::{Hold, Op, Reply as OpReply};
use crate::sched::Lane;
use crate::tasks::{Fingers, Reply, SearchMode, Task, Walk};

/// One deduplicated search request (`op` unique, keys ascending).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SearchRequest {
    /// Caller-chosen unique id.
    pub op: u32,
    /// Search key.
    pub key: Key,
    /// Report per-level predecessors for levels `1..=top` (0 = point mode).
    pub top: u8,
}

/// Terminal (level-0) search report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DoneRec {
    pub pred: Handle,
    pub pred_key: Key,
    pub succ: Handle,
    pub succ_key: Key,
    /// The key's level-`h_low` predecessor (see [`Walk::Descend`]).
    pub anchor: Handle,
}

/// Per-level predecessor report (insert support); the level is the map key
/// in [`SearchResults::preds`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredRec {
    pub pred: Handle,
    pub succ: Handle,
    pub succ_key: Key,
}

/// Collected results of a pivoted batch search.
#[derive(Default)]
pub(crate) struct SearchResults {
    pub done: HashMap<u32, DoneRec>,
    /// Per-`(op, level)` predecessor reports — one flat map instead of one
    /// heap `Vec` per op, so a search allocates O(1) containers however
    /// many towers it serves.
    pub preds: HashMap<(u32, u8), PredRec>,
    /// Per op, a node from which every key from the op's up to the next
    /// request's is a bounded walk away — the descent start of the
    /// tree-structure range operations (§5.2). It is the hint the op was
    /// searched with, except for the last pivot of a group: its lower-part
    /// entry does not cover the keys that follow, so it is put back to
    /// `Root`. (Between phases 0 and 1 of stage 1 this is the entry table.)
    pub hints: HashMap<u32, Hint>,
    /// Per pivot op, the [`Fingers`] its phase-0 walk marked: the stage-2
    /// starts of the half-brackets beside it, and its anchor. A pivot
    /// answered inside the replicated part has none.
    pub fingers: HashMap<u32, Fingers>,
}

impl SearchResults {
    /// The hull of the gaps of the first and last of `reqs`, both pivots,
    /// from their phase-0 walks ([`Fingers::gap`]); unbounded on a side
    /// whose pivot was answered inside the replicated part.
    fn hull(&self, reqs: &[SearchRequest]) -> Hold {
        let gap = |r: &SearchRequest| self.fingers.get(&r.op).copied().unwrap_or_default().gap;
        Hold::Keys(gap(&reqs[0]).0, gap(&reqs[reqs.len() - 1]).1)
    }

    /// The predecessor record for `op` at `level` (level 0 via `done`).
    pub fn pred_at(&self, op: u32, level: u8) -> Option<(Handle, Handle, Key)> {
        if level == 0 {
            return self.done.get(&op).map(|d| (d.pred, d.succ, d.succ_key));
        }
        self.preds
            .get(&(op, level))
            .map(|p| (p.pred, p.succ, p.succ_key))
    }
}

/// Compute the start hint and the shared path-prefix *length* (up to and
/// including the LCA) for a key bracketed by the owners of `a` and `b`.
/// Allocation-free: the prefix itself is materialised only for pivots that
/// record paths ([`PimSkipList::run_wave`] slices it out of the source
/// op's recorded path).
fn hint_and_prefix(a: &[Handle], b: &[Handle]) -> (Hint, usize, CpuCost) {
    let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let cost = CpuCost::new(
        (common as u64).max(1),
        log2c(a.len().max(b.len()).max(1) as u64),
    );
    if common == 0 {
        (Hint::Root, 0, cost)
    } else if common == a.len() && common == b.len() {
        (Hint::SharedLeaf(a[common - 1]), common, cost)
    } else {
        (Hint::Start(a[common - 1]), common, cost)
    }
}

/// A wave item: request index, its start hint, and the length of the path
/// prefix (shared with `stitch_from`'s recorded path) to prepend when
/// reconstructing its full lower-part path.
///
/// `pub(crate)` so [`crate::scratch::Scratch`] can pool wave-item buffers
/// across batches; the fields stay module-private.
#[derive(Debug)]
pub(crate) struct WaveItem {
    idx: usize,
    hint: Hint,
    prefix_len: usize,
    /// Stitch per-level predecessors above the hint from this op; also the
    /// owner of the shared path prefix, and of the anchor below a
    /// lower-part hint.
    stitch_from: Option<u32>,
    /// Phase 0: the pivot's bracket `(lo, hi)` its fingers must cover.
    bracket: (Key, Key),
    /// Stage 2: the replicated node a `Root` item starts from instead of
    /// the descent start — its nearer pivot's finger (`NULL`: none).
    finger: Handle,
}

impl WaveItem {
    fn new(idx: usize, hint: Hint) -> Self {
        WaveItem {
            idx,
            hint,
            prefix_len: 0,
            stitch_from: None,
            bracket: (NEG_INF, NEG_INF),
            finger: Handle::NULL,
        }
    }
}

/// The requests strictly between the pivots at indices `l < r`, split at
/// the midpoint: the left half starts from `l`'s right finger, the right
/// half from `r`'s left finger.
fn halves(l: usize, r: usize) -> (Range<usize>, Range<usize>) {
    let mid = (l + r) / 2 + 1;
    (l + 1..mid, mid..r)
}

/// What a wave does with the search paths of its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wave {
    /// Stage 1, phase 0: walk the replicated part only. The first
    /// non-replicated handle — the lower-part entry — becomes the op's
    /// hint, `Start(entry)`; a search answered inside the replicated part
    /// keeps `Root` and an empty recorded path.
    Entry,
    /// Stage 1 from phase 1 on: record lower-part paths.
    Pivots,
    /// Stage 2: nothing is recorded; `last_draw` as in [`pivoted_search`].
    Rest { last_draw: LastDraw },
}

/// What a search tells its job's lane once stage 2 has dealt — the
/// search's last draw (see [`pivoted_search`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LastDraw {
    /// Nothing: the job draws again after the search.
    Later,
    /// The job is drawn ([`Lane::drawn`]).
    Drawn,
    /// The job is drawn and lets the later jobs start outside the hull of
    /// its first and last keys' gaps ([`Lane::publish`]): an insert whose
    /// towers all stay below `h_low`.
    Release,
}

#[cfg(test)]
impl PimSkipList {
    /// [`pivoted_search`] run alone, as one job of its own.
    pub(crate) fn pivoted_search(&mut self, reqs: &[SearchRequest]) -> PimResult<SearchResults> {
        self.run_one(async |lane| pivoted_search(lane, reqs, LastDraw::Later).await)
    }
}

/// Run the full pivoted batch search. `reqs` must be ascending in key and
/// unique; pivots record predecessors up to the batch's highest `top` so
/// later stitching is always possible. Every terminal record carries the
/// request's exact anchor, its level-`h_low` predecessor.
///
/// Fails with [`PimError::Incomplete`] when injected faults lose search
/// traffic (missing terminal records, missing pivot paths, `Faulted`
/// replies); on a fault-free machine the result is always `Ok`. Once stage
/// 2 has dealt, the job's lane hears `last_draw`. The gap of a key is that
/// of the pivot whose phase-0 walk it follows ([`Fingers::gap`]); the first
/// and last keys are pivots.
pub(crate) async fn pivoted_search(
    lane: Lane<'_>,
    reqs: &[SearchRequest],
    last_draw: LastDraw,
) -> PimResult<SearchResults> {
    lane.spanned("search", async {
        // The CPU-side staging vectors (pivot indices, wave items, segment
        // lists) come from [`crate::scratch::Scratch`] and go back whether
        // the search returns `Ok` or a fault-path `Err`, so a service
        // front-end searching continuously allocates none of them in
        // steady state.
        let mut bufs = lane.with(|s| SearchBufs {
            pivots: s.scratch.take_pivots(),
            items: s.scratch.take_wave_items(),
            segments: s.scratch.take_segments(),
            next_segments: s.scratch.take_segments2(),
            deferred: s.scratch.take_deferred(),
        });
        let mut staged_words = 0u64;
        let out = pivoted_search_core(lane, reqs, last_draw, &mut staged_words, &mut bufs).await;
        lane.with(|s| {
            s.scratch.give_deferred(bufs.deferred);
            s.scratch.give_segments2(bufs.next_segments);
            s.scratch.give_segments(bufs.segments);
            s.scratch.give_wave_items(bufs.items);
            s.scratch.give_pivots(bufs.pivots);
            if staged_words > 0 {
                s.sys.sample_shared_mem();
                s.sys.shared_mem().free(staged_words);
            }
        });
        out
    })
    .await
}

/// The leased staging of one pivoted search.
struct SearchBufs {
    pivots: Vec<usize>,
    items: Vec<WaveItem>,
    segments: Vec<(usize, usize)>,
    next_segments: Vec<(usize, usize)>,
    /// Per pivot: the entry of its deferred group, `None` for a pivot that
    /// stage 1 resolves (or phase 0 answered).
    deferred: Vec<Option<Handle>>,
}

async fn pivoted_search_core(
    lane: Lane<'_>,
    reqs: &[SearchRequest],
    last_draw: LastDraw,
    staged_words: &mut u64,
    bufs: &mut SearchBufs,
) -> PimResult<SearchResults> {
    let SearchBufs {
        pivots,
        items,
        segments,
        next_segments,
        deferred,
    } = bufs;
    let mut results = SearchResults::default();
    let b = reqs.len();
    let (log_p, allowance) = lane.with(|s| {
        s.last_phase_contention.clear();
        (s.cfg.log_p(), s.cfg.search_allowance(b))
    });
    if b == 0 {
        return Ok(results);
    }
    debug_assert!(reqs.windows(2).all(|w| w[0].key < w[1].key));
    let max_top = reqs.iter().map(|r| r.top).max().unwrap_or(0);

    *staged_words = 2 * b as u64;
    let staged = *staged_words;
    lane.with(|s| s.sys.shared_mem().alloc(staged));

    // Pivot selection: every log P-th element plus the extremes.
    let step = log_p.max(1) as usize;
    pivots.extend((0..b).step_by(step));
    if *pivots.last().expect("non-empty") != b - 1 {
        pivots.push(b - 1);
    }
    let m = pivots.len();
    deferred.resize(m, None);

    let mut paths: HashMap<u32, Vec<Handle>> = HashMap::new();

    lane.spanned("search/stage1", async {
        // ---- Phase 0: every pivot walks the replicated part, from the
        // descent start on a random module, up to its lower-part entry
        // node, marking the fingers of the half-brackets beside it (an
        // empty half's bound is the pivot's own key). ----
        for (j, &idx) in pivots.iter().enumerate() {
            let before = j
                .checked_sub(1)
                .map_or(idx..idx, |i| halves(pivots[i], idx).1);
            let after = pivots
                .get(j + 1)
                .map_or(idx + 1..idx + 1, |&r| halves(idx, r).0);
            items.push(WaveItem {
                bracket: (reqs[before.start].key, reqs[after.end - 1].key),
                ..WaveItem::new(idx, Hint::Root)
            });
            results.hints.insert(reqs[idx].op, Hint::Root);
        }
        results.fingers.reserve(m);
        // The entries come back as the pivots' hints; one word each is
        // charged to shared memory for the wave that fills them in.
        lane.with(|s| s.sys.shared_mem().alloc(m as u64));
        let wave = run_wave(
            lane,
            items,
            reqs,
            Some(max_top),
            Wave::Entry,
            &mut results,
            &mut paths,
        )
        .await;
        lane.with(|s| {
            s.sys.sample_shared_mem();
            s.sys.shared_mem().free(m as u64);
        });
        *staged_words += wave?;
        lane.with(|s| s.record_phase_contention(true));

        // ---- Phase 1: pivots are ascending, so a group is a maximal run
        // of equal entry, and it takes the first tier that keeps every
        // lower-part node within the allowance `A`: deferred to stage 2
        // when at most `A` searches can reach its entry, all its pivots
        // from the entry in this one wave when it holds at most `A`, else
        // its two ends from the entry and the rest a segment for the
        // medians. A pivot without an entry was answered inside the
        // replicated part and keeps its empty path. ----
        items.clear();
        let entry_of = |hints: &HashMap<u32, Hint>, j: usize| match hints.get(&reqs[pivots[j]].op) {
            Some(&Hint::Start(entry)) => Some(entry),
            _ => None,
        };
        let from_entry = |j: usize, entry: Handle| WaveItem::new(pivots[j], Hint::Start(entry));
        let mut l = 0;
        while l < m {
            let Some(entry) = entry_of(&results.hints, l) else {
                if !results.done.contains_key(&reqs[pivots[l]].op) {
                    return Err(PimError::incomplete("search", 1));
                }
                l += 1;
                continue;
            };
            let mut r = l;
            while r + 1 < m && entry_of(&results.hints, r + 1) == Some(entry) {
                r += 1;
            }
            // Range start (§5.2): every key up to pivot `r`'s hangs below
            // the entry, so an earlier pivot may descend from it. The keys
            // after `r` hang below later entries — one serial lower-part
            // hop each from here — so a group's last pivot goes back to
            // `Root` and fans out from the replicas.
            results.hints.insert(reqs[pivots[r]].op, Hint::Root);
            // The searches that can reach the entry: the group's pivots and
            // every request strictly between its neighbour pivots.
            let first = if l == 0 { 0 } else { pivots[l - 1] + 1 };
            let end = pivots.get(r + 1).copied().unwrap_or(b);
            if end - first <= allowance {
                deferred[l..=r].fill(Some(entry));
            } else if r - l < allowance {
                items.extend((l..=r).map(|j| from_entry(j, entry)));
            } else {
                // More than `A ≥ 2` pivots: the segment has a median.
                items.push(from_entry(l, entry));
                items.push(from_entry(r, entry));
                segments.push((l, r));
            }
            l = r + 1;
        }
        if items.is_empty() {
            // Every group is deferred: stage 1 was phase 0.
            return Ok(());
        }
        *staged_words += run_wave(
            lane,
            items,
            reqs,
            Some(max_top),
            Wave::Pivots,
            &mut results,
            &mut paths,
        )
        .await?;
        lane.with(|s| s.record_phase_contention(false));

        // ---- Later phases: the median of every open segment, from the
        // LCA of the segment ends' recorded paths. ----
        while segments.iter().any(|&(l, r)| r - l > 1) {
            items.clear();
            next_segments.clear();
            let mut hint_cost = CpuCost::ZERO;
            for &(l, r) in segments.iter() {
                if r - l <= 1 {
                    continue;
                }
                let med = (l + r) / 2;
                let (op_l, op_r) = (reqs[pivots[l]].op, reqs[pivots[r]].op);
                let (path_l, path_r) = (
                    paths.get(&op_l).ok_or(PimError::Incomplete {
                        op: "search",
                        missing: 1,
                    })?,
                    paths.get(&op_r).ok_or(PimError::Incomplete {
                        op: "search",
                        missing: 1,
                    })?,
                );
                let (hint, prefix_len, cost) = hint_and_prefix(path_l, path_r);
                hint_cost = hint_cost.beside(cost);
                items.push(WaveItem {
                    prefix_len,
                    stitch_from: Some(op_l),
                    ..WaveItem::new(pivots[med], hint)
                });
                results.hints.insert(reqs[pivots[med]].op, hint);
                next_segments.push((l, med));
                next_segments.push((med, r));
            }
            lane.with(|s| hint_cost.charge(s.sys.metrics_mut()));
            *staged_words += run_wave(
                lane,
                items,
                reqs,
                Some(max_top),
                Wave::Pivots,
                &mut results,
                &mut paths,
            )
            .await?;
            lane.with(|s| s.record_phase_contention(false));
            std::mem::swap(&mut *segments, &mut *next_segments);
        }
        Ok(())
    })
    .await?;

    // ---- Stage 2: the deferred pivots from their entries, everything
    // else hinted by its bracketing pivots. ----
    lane.spanned("search/stage2", async {
        items.clear();
        let mut hint_cost = CpuCost::ZERO;
        for pos in 0..m {
            if let Some(entry) = deferred[pos] {
                items.push(WaveItem::new(pivots[pos], Hint::Start(entry)));
            }
            let Some(&next) = pivots.get(pos + 1) else {
                break;
            };
            let (op_l, op_r) = (reqs[pivots[pos]].op, reqs[next].op);
            let recorded = paths.get(&op_l).zip(paths.get(&op_r));
            let (hint, prefix_len, cost) = match (deferred[pos], deferred[pos + 1], recorded) {
                // One deferred group: the bracket hangs below its entry,
                // and above it `op_l`'s phase-0 reports are the path.
                (Some(entry), Some(other), _) if entry == other => {
                    (Hint::Start(entry), 0, CpuCost::new(1, 1))
                }
                (None, None, Some((path_l, path_r))) => hint_and_prefix(path_l, path_r),
                // Two groups, at least one of them without paths.
                _ => (Hint::Root, 0, CpuCost::new(1, 1)),
            };
            let (left, right) = halves(pivots[pos], next);
            let fingers_of = |op| results.fingers.get(&op).copied().unwrap_or_default();
            let sides = [
                (left, op_l, fingers_of(op_l).right),
                (right, op_r, fingers_of(op_r).left),
            ];
            for (half, pivot_op, finger) in sides {
                // Without a lower-part hint a half starts at its nearer
                // pivot's finger — on the path of every key of the half —
                // and takes the levels above it from that pivot. Below one,
                // it takes them (and its anchor) from `op_l`.
                let (src, finger) = if hint == Hint::Root {
                    (pivot_op, finger)
                } else {
                    (op_l, Handle::NULL)
                };
                for (idx, req) in half.clone().zip(&reqs[half]) {
                    hint_cost = hint_cost.beside(cost);
                    items.push(WaveItem {
                        prefix_len,
                        stitch_from: Some(src),
                        finger,
                        ..WaveItem::new(idx, hint)
                    });
                    results.hints.insert(req.op, hint);
                }
            }
        }
        lane.with(|s| hint_cost.charge(s.sys.metrics_mut()));
        *staged_words += run_wave(
            lane,
            items,
            reqs,
            None,
            Wave::Rest { last_draw },
            &mut results,
            &mut paths,
        )
        .await?;
        lane.with(|s| s.record_phase_contention(false));
        Ok(())
    })
    .await?;

    // Completeness: every request must have reached level 0.
    let missing = reqs
        .iter()
        .filter(|r| !results.done.contains_key(&r.op))
        .count();
    if missing > 0 {
        return Err(PimError::incomplete("search", missing));
    }
    Ok(results)
}

/// Issue one wave of searches, absorb replies, reconstruct paths, and
/// stitch missing per-level predecessors. Returns the staged words added
/// (path storage).
async fn run_wave(
    lane: Lane<'_>,
    items: &[WaveItem],
    reqs: &[SearchRequest],
    forced_top: Option<u8>,
    wave: Wave,
    results: &mut SearchResults,
    paths: &mut HashMap<u32, Vec<Handle>>,
) -> PimResult<u64> {
    let mut copies = lane.with(|s| s.scratch.take_copies());
    let w = WaveArgs {
        items,
        reqs,
        forced_top,
        wave,
    };
    let out = match lane.with(|s| s.wave_send(&w, results, paths, &mut copies)) {
        Ok(()) => {
            match wave {
                Wave::Rest {
                    last_draw: LastDraw::Drawn,
                } => lane.drawn(),
                Wave::Rest {
                    last_draw: LastDraw::Release,
                } => lane.publish(results.hull(reqs)),
                _ => {}
            }
            let replies = lane.wave().await;
            lane.with(|s| s.wave_absorb(&w, replies, results, paths, &copies))
        }
        Err(e) => Err(e),
    };
    lane.with(|s| s.scratch.give_copies(copies));
    out
}

/// What one wave searches (see [`run_wave`]).
struct WaveArgs<'w> {
    items: &'w [WaveItem],
    reqs: &'w [SearchRequest],
    forced_top: Option<u8>,
    wave: Wave,
}

impl PimSkipList {
    /// The send half of [`run_wave`]: deal the wave and issue one `Search`
    /// task per item.
    fn wave_send(
        &mut self,
        w: &WaveArgs<'_>,
        results: &mut SearchResults,
        paths: &mut HashMap<u32, Vec<Handle>>,
        copies: &mut Vec<(u32, u32, u8)>, // (dst op, src op, dst's top level)
    ) -> PimResult<()> {
        let &WaveArgs {
            items,
            reqs,
            forced_top,
            wave,
        } = w;
        let record = !matches!(wave, Wave::Rest { .. });
        let entry_only = wave == Wave::Entry;
        let mut deal = self.deal();
        for item in items {
            let req = reqs[item.idx];
            let top = forced_top.unwrap_or(req.top).min(self.cfg.max_level);
            let mode = mode_for(top);
            // A walk from a replicated start finds its own anchor; one from
            // a lower-part hint shares its source's (or its own phase-0
            // one): the hint hangs below a single upper leaf.
            let mut anchor = Handle::NULL;
            // `dealt` is the module a replicated start is shipped to.
            let (at, dealt) = match item.hint {
                Hint::SharedLeaf(_) => {
                    let src = item.stitch_from.expect("shared leaf has a source");
                    copies.push((req.op, src, top));
                    continue;
                }
                Hint::Root => {
                    if record {
                        paths.insert(req.op, Vec::new());
                    }
                    let start = if item.finger.is_some() {
                        item.finger
                    } else {
                        self.descent_start(top)
                    };
                    (start, deal.next())
                }
                Hint::Start(h) => {
                    debug_assert!(!h.is_replicated(), "recorded paths hold lower-part nodes");
                    if record {
                        // Materialise the shared prefix from the source
                        // op's recorded path (one allocation, pivots only);
                        // a group end starts at its entry with none.
                        let prefix = match item.stitch_from {
                            Some(src) => paths.get(&src).ok_or(PimError::Incomplete {
                                op: "search",
                                missing: 1,
                            })?[..item.prefix_len]
                                .to_vec(),
                            None => Vec::new(),
                        };
                        paths.insert(req.op, prefix);
                    }
                    let src = item.stitch_from.unwrap_or(req.op);
                    anchor = results.fingers.get(&src).map_or(Handle::NULL, |f| f.anchor);
                    (h, h.module())
                }
            };
            let target = at.resolver(dealt);
            let walk = if entry_only {
                Walk::Entry {
                    bracket: item.bracket,
                }
            } else {
                Walk::Descend { anchor }
            };
            self.sys.send(
                target,
                Task::Search {
                    op: req.op,
                    key: req.key,
                    at,
                    mode,
                    record,
                    walk,
                },
            );
        }
        Ok(())
    }

    /// The absorb half of [`run_wave`]: fold the wave's replies into the
    /// results, resolve shared-leaf copies and stitch per-level
    /// predecessors above each hint.
    fn wave_absorb(
        &mut self,
        w: &WaveArgs<'_>,
        replies: Vec<Reply>,
        results: &mut SearchResults,
        paths: &mut HashMap<u32, Vec<Handle>>,
        copies: &[(u32, u32, u8)],
    ) -> PimResult<u64> {
        let &WaveArgs {
            items,
            reqs,
            forced_top,
            wave,
        } = w;
        let record = !matches!(wave, Wave::Rest { .. });
        let entry_only = wave == Wave::Entry;
        let mut path_words = 0u64;
        let mut faulted = 0usize;
        for r in replies {
            match r {
                Reply::SearchDone {
                    op,
                    pred,
                    pred_key,
                    succ,
                    succ_key,
                    anchor,
                } => {
                    results.done.insert(
                        op,
                        DoneRec {
                            pred,
                            pred_key,
                            succ,
                            succ_key,
                            anchor,
                        },
                    );
                }
                Reply::PredAt {
                    op,
                    level,
                    pred,
                    succ,
                    succ_key,
                } => {
                    results.preds.insert(
                        (op, level),
                        PredRec {
                            pred,
                            succ,
                            succ_key,
                        },
                    );
                }
                Reply::PathNode { op, node } => {
                    if record {
                        paths.entry(op).or_default().push(node);
                        path_words += 1;
                    }
                }
                Reply::LowerEntry { op, node, fingers } if entry_only => {
                    results.hints.insert(op, Hint::Start(node));
                    results.fingers.insert(op, fingers);
                }
                Reply::Faulted { .. } => faulted += 1,
                other => return Err(PimError::protocol("search", other)),
            }
        }
        if faulted > 0 {
            return Err(PimError::incomplete("search", faulted));
        }

        // Resolve SharedLeaf copies (results and paths identical to src).
        let max_level = self.cfg.max_level;
        for &(dst, src, top) in copies.iter() {
            let d = *results.done.get(&src).ok_or(PimError::Incomplete {
                op: "search",
                missing: 1,
            })?;
            results.done.insert(dst, d);
            for level in 1..=top {
                if let Some(&p) = results.preds.get(&(src, level)) {
                    results.preds.insert((dst, level), p);
                }
            }
            if record {
                if let Some(p) = paths.get(&src).cloned() {
                    paths.insert(dst, p);
                }
            }
        }

        // Stitch per-level predecessors above each hint from the source op
        // (paths coincide above the LCA).
        for item in items {
            let Some(src) = item.stitch_from else {
                continue;
            };
            let req = reqs[item.idx];
            let top = forced_top.unwrap_or(req.top).min(max_level);
            for level in 1..=top {
                if results.preds.contains_key(&(req.op, level)) {
                    continue;
                }
                if let Some(&p) = results.preds.get(&(src, level)) {
                    results.preds.insert((req.op, level), p);
                }
            }
        }

        self.sys.shared_mem().alloc(path_words);
        Ok(path_words)
    }

    /// Close one search wave of the Lemma 4.2 instrument. Phase 0 touches
    /// replicas only, and the busiest replica is the start of the busiest
    /// module — the number of pivots that module served (Lemma 2.2); every
    /// later wave records its busiest lower-part node (Lemma 4.2).
    fn record_phase_contention(&mut self, entry_phase: bool) {
        if self.cfg.track_contention {
            let (replica, lower) = self.take_max_contention();
            self.last_phase_contention
                .push(if entry_phase { replica } else { lower });
        }
    }

    /// Batched Successor: for each key, the smallest resident key `≥` it
    /// (with its handle), or `None` past the end. Duplicates are deduped
    /// before searching (the adversary countermeasure of §4.1 applied to
    /// queries), results fanned back out.
    pub fn batch_successor(&mut self, keys: &[Key]) -> Vec<Option<(Key, Handle)>> {
        self.try_batch(
            "Successor",
            keys,
            |key| Op::Successor { key },
            OpReply::as_entry,
        )
        .unwrap_or_else(|e| panic!("batch_successor: {e}"))
    }

    /// Batched Predecessor: for each key, the largest resident key `≤` it,
    /// or `None` before the beginning.
    pub fn batch_predecessor(&mut self, keys: &[Key]) -> Vec<Option<(Key, Handle)>> {
        let op = |key| Op::Predecessor { key };
        self.try_batch("Predecessor", keys, op, OpReply::as_entry)
            .unwrap_or_else(|e| panic!("batch_predecessor: {e}"))
    }
}

/// One fault-observable attempt of [`PimSkipList::batch_successor`].
pub(crate) async fn successor_attempt(
    lane: Lane<'_>,
    keys: &[Key],
) -> PimResult<Vec<Option<(Key, Handle)>>> {
    let results = lane
        .spanned("successor", point_search_unique(lane, keys))
        .await?;
    Ok(keys
        .iter()
        .map(|k| {
            let d = &results[k];
            // Null-handle check, not sentinel-key check: a resident
            // `i64::MAX` key is a legitimate successor.
            if d.succ.is_null() {
                None
            } else {
                Some((d.succ_key, d.succ))
            }
        })
        .collect())
}

/// One fault-observable attempt of [`PimSkipList::batch_predecessor`].
pub(crate) async fn predecessor_attempt(
    lane: Lane<'_>,
    keys: &[Key],
) -> PimResult<Vec<Option<(Key, Handle)>>> {
    let results = lane
        .spanned("predecessor", point_search_unique(lane, keys))
        .await?;
    Ok(keys
        .iter()
        .map(|k| {
            let d = &results[k];
            // `succ_key == k` only counts when a successor node exists: a
            // query at `POS_INF` must not mistake the null-successor
            // sentinel key for a resident key.
            if d.succ.is_some() && d.succ_key == *k {
                Some((d.succ_key, d.succ))
            } else if d.pred_key == NEG_INF {
                None
            } else {
                Some((d.pred_key, d.pred))
            }
        })
        .collect())
}

/// Sort + dedup the keys, run the pivoted search in point mode, and return
/// per-key terminal records.
async fn point_search_unique(lane: Lane<'_>, keys: &[Key]) -> PimResult<HashMap<Key, DoneRec>> {
    let (uniq, reqs) = lane.with(|s| {
        let mut uniq = s.scratch.take_sorted_keys();
        uniq.extend_from_slice(keys);
        par_sort(&mut uniq).charge(s.sys.metrics_mut());
        uniq.dedup();
        let mut reqs = s.scratch.take_reqs();
        reqs.extend(uniq.iter().enumerate().map(|(i, &key)| SearchRequest {
            op: i as u32,
            key,
            top: 0,
        }));
        (uniq, reqs)
    });
    let results = pivoted_search(lane, &reqs, LastDraw::Drawn).await;
    lane.with(|s| {
        s.scratch.give_reqs(reqs);
        // `pivoted_search` checked completeness: indexing is safe.
        let out = results.map(|results| {
            uniq.iter()
                .enumerate()
                .map(|(i, &k)| (k, results.done[&(i as u32)]))
                .collect()
        });
        s.scratch.give_sorted_keys(uniq);
        out
    })
}

fn mode_for(top: u8) -> SearchMode {
    if top == 0 {
        SearchMode::Point
    } else {
        SearchMode::PredLevels { top }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use pim_runtime::{ceil_log2, Metrics, Rng};
    use pim_workloads::adversary::{pivot_groups, two_pivot_groups};

    use super::*;
    use crate::config::{Config, Value};

    /// Resident keys `4·i`, `i ∈ 0..n`, streamed in with `bulk_load`.
    fn loaded(cfg: Config, n: usize) -> PimSkipList {
        let mut list = PimSkipList::new(cfg.with_contention_tracking());
        let pairs: Vec<(Key, Value)> = (0..n as i64).map(|i| (4 * i, i as u64)).collect();
        list.bulk_load(&pairs);
        list
    }

    fn uniform_keys(seed: u64, span: u64, count: usize) -> Vec<Key> {
        let mut rng = Rng::new(seed);
        let mut keys: Vec<Key> = (0..count).map(|_| rng.below(span) as Key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The stage-1 tier of a pivot group (module doc).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Tier {
        Deferred,
        OneWave,
        Recursion,
    }

    /// The request indices a batch of `b` picks as pivots.
    fn pivot_indices(list: &PimSkipList, b: usize) -> Vec<usize> {
        let mut pivots: Vec<usize> = (0..b).step_by(list.cfg.log_p() as usize).collect();
        if pivots.last() != Some(&(b - 1)) {
            pivots.push(b - 1);
        }
        pivots
    }

    /// The pivot groups of `keys` (ascending, unique), left to right, as
    /// `(pivots, tier)`: the first non-replicated node on each pivot's
    /// search path is found by CPU inspection, independently of the
    /// machine, and the tier follows from the allowance. A pivot answered
    /// inside the replicated part is a deferred group of one.
    fn groups(list: &PimSkipList, keys: &[Key]) -> Vec<(usize, Tier)> {
        let entry = |key: Key| {
            let mut at = list.descent_start(0);
            while at.is_replicated() {
                let n = list.inspect(at);
                if n.right_key < key {
                    at = n.right;
                } else if n.level == 0 {
                    return None;
                } else {
                    at = n.down;
                }
            }
            Some(at)
        };
        let pivots = pivot_indices(list, keys.len());
        let entries: Vec<Option<Handle>> = pivots.iter().map(|&i| entry(keys[i])).collect();
        let allowance = list.cfg.search_allowance(keys.len());
        let mut l = 0;
        entries
            .chunk_by(|a, b| a.is_some() && a == b)
            .map(|group| {
                let (g, r) = (group.len(), l + group.len() - 1);
                let first = if l == 0 { 0 } else { pivots[l - 1] + 1 };
                let end = pivots.get(r + 1).copied().unwrap_or(keys.len());
                l = r + 1;
                let tier = if group[0].is_none() || end - first <= allowance {
                    Tier::Deferred
                } else if g <= allowance {
                    Tier::OneWave
                } else {
                    Tier::Recursion
                };
                (g, tier)
            })
            .collect()
    }

    fn largest_group(groups: &[(usize, Tier)]) -> usize {
        groups.iter().map(|&(g, _)| g).max().unwrap_or(0)
    }

    /// The highest tier any of `groups` takes.
    fn top_tier(groups: &[(usize, Tier)]) -> Tier {
        groups
            .iter()
            .map(|&(_, tier)| tier)
            .max()
            .unwrap_or(Tier::Deferred)
    }

    /// The stage-1 waves the tiers of `groups` predict: phase 0, phase 1 if
    /// any group descends in stage 1, and the median phases of the largest
    /// recursing group.
    fn predicted_waves(groups: &[(usize, Tier)]) -> usize {
        let largest = |tier| groups.iter().filter(|g| g.1 == tier).map(|g| g.0).max();
        match (largest(Tier::OneWave), largest(Tier::Recursion)) {
            (_, Some(g)) => 2 + ceil_log2(g as u64 - 1) as usize,
            (Some(_), None) => 2,
            (None, None) => 1,
        }
    }

    /// Rounds of one Successor batch and its stage-1 wave count; replies
    /// are checked against the `4·i` resident set.
    fn successor_rounds_and_waves(list: &mut PimSkipList, keys: &[Key], n: usize) -> (u64, usize) {
        let before = list.metrics().rounds;
        let got = list.batch_successor(keys);
        let rounds = list.metrics().rounds - before;
        for (k, g) in keys.iter().zip(&got) {
            let want = (k + 3).div_euclid(4) * 4;
            let want = (want < 4 * n as Key).then_some(want);
            assert_eq!(g.map(|(key, _)| key), want, "successor({k})");
        }
        // One entry per stage-1 wave, then stage 2.
        (rounds, list.last_phase_contention.len() - 1)
    }

    #[test]
    fn uniform_and_dense_batches_against_the_one_segment_recursion() {
        // (P, log₂ n, rounds the one-global-segment recursion took on the
        // uniform batch and on the dense batch — measured at the parent of
        // the change that introduced phase 0). The uniform batch takes at
        // most half. At P = 64, n ≤ 2^15 it is dense against the upper
        // part (n/P is below the pivot count): groups of 6–9 pivots, which
        // took five waves and 117 / 123 rounds while every group of three
        // or more recursed, and fit one wave now.
        for (p, log_n, old_uniform, old_dense) in [
            (16u32, 14u32, 124u64, 100u64),
            (16, 15, 102, 100),
            (16, 16, 92, 99),
            (16, 17, 104, 100),
            (64, 14, 222, 197),
            (64, 15, 232, 197),
            (64, 16, 223, 197),
            (64, 17, 224, 197),
        ] {
            let n = 1usize << log_n;
            let context = format!("P={p} n=2^{log_n}");
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let batch = list.cfg.batch_large();

            let keys = uniform_keys(7, 4 * n as u64, batch);
            let uniform = groups(&list, &keys);
            let (rounds, waves) = successor_rounds_and_waves(&mut list, &keys, n);
            assert_eq!(
                waves,
                predicted_waves(&uniform),
                "{context}: largest group {}",
                largest_group(&uniform)
            );
            assert!(
                rounds <= old_uniform / 2,
                "{context}: {rounds} rounds > half of {old_uniform}"
            );
            if (p, log_n) == (64, 17) {
                assert!(rounds <= 80, "{context}: {rounds} rounds");
            }

            // Consecutive resident keys: few, large groups.
            let dense: Vec<Key> = (0..batch as i64).map(|i| 4 * (i + 5_000)).collect();
            let want = predicted_waves(&groups(&list, &dense));
            let (rounds, waves) = successor_rounds_and_waves(&mut list, &dense, n);
            assert_eq!(waves, want, "{context}: dense batch");
            assert!(
                rounds <= old_dense + 1,
                "{context}: dense batch took {rounds} rounds, {old_dense} before"
            );
        }
    }

    /// Exclusive costs of the `search/stage1` and `search/stage2` spans of
    /// one probed Successor batch (replies checked), and the batch's rounds
    /// and stage-1 waves.
    fn probed_stages(list: &mut PimSkipList, keys: &[Key], n: usize) -> ([Metrics; 2], u64, usize) {
        list.enable_probe();
        let (rounds, waves) = successor_rounds_and_waves(list, keys, n);
        let report = list.take_probe().expect("probe was enabled");
        let stage = |name| {
            let spans = report.spans_named(name);
            assert_eq!(spans.len(), 1, "one search per batch");
            report.spans[spans[0] as usize].stats
        };
        (
            [stage("search/stage1"), stage("search/stage2")],
            rounds,
            waves,
        )
    }

    #[test]
    fn uniform_batches_run_the_recursion_only_for_groups_that_need_it() {
        let (p, n) = (64u32, 1usize << 17);
        let mut list = loaded(Config::new(p, n as u64, 42), n);
        let batch = list.cfg.batch_large();
        let m = batch.div_ceil(list.cfg.log_p() as usize) + 1;
        // Fresh structure: the streamed build peaked below one batch.
        assert!(list.metrics().shared_mem_peak <= 2 * batch as u64);
        let mut threes = 0;
        for seed in 1..=8u64 {
            let keys = uniform_keys(seed, 4 * n as u64, batch);
            let groups = groups(&list, &keys);
            let (largest, tier) = (largest_group(&groups), top_tier(&groups));
            let ([stage1, stage2], rounds, waves) = probed_stages(&mut list, &keys, n);
            let context = format!("seed {seed}, largest group {largest}, {tier:?}");
            assert_eq!(waves, predicted_waves(&groups), "{context}");
            if tier == Tier::Deferred {
                assert_eq!(stage1.rounds, 1, "{context}");
            }
            // Stage 2 starts every request without a lower-part hint at its
            // nearer pivot's finger: 886–943 PIM time on these seeds, 1324
            // on seed 1 while those requests descended from the top sentinel.
            assert!(
                stage2.pim_time <= 1000,
                "{context}: stage-2 PIM {}",
                stage2.pim_time
            );
            if largest == 3 {
                // A group of three puts at most 4⌈log P⌉ − 1 = 23 searches
                // under its entry, inside `A = 36`. 58–73 rounds while it
                // recursed, 30–32 for a batch of groups of one or two.
                threes += 1;
                assert_eq!(tier, Tier::Deferred, "{context}");
                assert!(rounds <= 45, "{context}: {rounds} rounds");
            }
            // `M`: the staged batch, the entry table, and lower-part paths
            // (well under 32 nodes) of the pivots that descend in stage 1.
            let recording: usize = groups
                .iter()
                .filter(|g| g.1 != Tier::Deferred)
                .map(|g| g.0)
                .sum();
            let bound = (2 * batch + m + 32 * recording) as u64;
            let peak = list.metrics().shared_mem_peak;
            assert!(peak <= bound, "{context}: M = {peak} > {bound}");
        }
        assert!(threes > 0, "no seed's largest group holds three pivots");
    }

    #[test]
    fn groups_of_two_pivots_descend_in_stage_two_alone() {
        for (p, log_n) in [(8u32, 12u32), (16, 13), (64, 14)] {
            let n = 1usize << log_n;
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let lg = list.cfg.log_p() as usize;
            let keys = two_pivot_groups(&list.upper_leaf_keys(), lg);
            let groups = groups(&list, &keys);
            assert!(
                groups.len() >= 8 && groups.iter().all(|&g| g == (2, Tier::Deferred)),
                "P={p}: {groups:?}"
            );
            let m = 2 * groups.len() as u64;

            let ([stage1, _], _, waves) = probed_stages(&mut list, &keys, n);
            // Phase 0 and nothing else: a task out and an entry back per
            // pivot, no `PathNode`.
            assert_eq!(waves, 1, "P={p}");
            assert_eq!((stage1.rounds, stage1.total_messages), (1, 2 * m), "P={p}");
            // Under one entry: its two pivots, the bracket between them and
            // the brackets on either side.
            let stage2 = *list.last_phase_contention.last().expect("stage 2");
            assert!(
                (stage2 as usize) < 3 * lg,
                "P={p}: stage-2 contention {stage2} > 3·{lg} − 1"
            );
        }
    }

    #[test]
    fn groups_past_the_deferral_allowance_descend_in_one_wave() {
        for (p, log_n) in [(8u32, 12u32), (16, 13), (64, 14)] {
            let n = 1usize << log_n;
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let lg = list.cfg.log_p() as usize;
            // Groups of three below at most P/2 leaves: fewer than
            // P·(3⌈log P⌉ − 1) keys, so `A` is its floor `3⌈log P⌉ − 1`,
            // below the 3⌈log P⌉ to 4⌈log P⌉ − 1 searches that can reach
            // each entry, and above the group's three pivots.
            let leaves = list.upper_leaf_keys();
            let keys = pivot_groups(&leaves[..=p as usize / 2], lg, 3);
            let allowance = list.cfg.search_allowance(keys.len());
            assert_eq!(allowance, 3 * lg - 1, "P={p}");
            let groups = groups(&list, &keys);
            assert!(
                groups.len() >= 4 && groups.iter().all(|&g| g == (3, Tier::OneWave)),
                "P={p}: {groups:?}"
            );

            let (_, waves) = successor_rounds_and_waves(&mut list, &keys, n);
            // Phase 0, then every pivot from its entry: no median phase.
            assert_eq!(waves, 2, "P={p}");
            let phases = &list.last_phase_contention;
            assert!(
                phases[1..].iter().all(|&c| c as usize <= allowance),
                "P={p}: contention {phases:?} past A = {allowance}"
            );
        }
    }

    #[test]
    fn one_successor_costs_pim_time_logarithmic_in_n() {
        // One replica walk over the linked levels, then `h_low` hops below
        // the entry. Measured worst of 32 keys: 38, 41, 42, 43 units at
        // n = 2^14 … 2^17; a descent from the top of the −∞ tower, two
        // levels taller per doubling of `expected_n` whatever is linked,
        // took 66, 71, 74, 76.
        for log_n in 14u32..=17 {
            let n = 1usize << log_n;
            let mut list = loaded(Config::new(64, n as u64, 42), n);
            for key in uniform_keys(3, 4 * n as u64, 32) {
                let before = list.metrics().pim_time;
                list.batch_successor(&[key]);
                let pim = list.metrics().pim_time - before;
                assert!(
                    pim <= 3 * u64::from(log_n),
                    "n=2^{log_n}: Successor({key}) took PIM time {pim}"
                );
            }
        }
    }

    #[test]
    fn one_group_costs_the_one_segment_recursion_plus_one_round() {
        // With the whole structure below the replicated part every pivot
        // enters at the same node: the worst case.
        let (p, n) = (16u32, 1usize << 12);
        let mut list = loaded(Config::new(p, n as u64, 42).with_h_low(12), n);
        let batch = list.cfg.batch_large();
        let keys: Vec<Key> = (0..batch as i64).map(|i| 4 * (i + 1_000)).collect();
        let m = batch.div_ceil(list.cfg.log_p() as usize) + 1;
        assert_eq!(largest_group(&groups(&list, &keys)), m);
        let (rounds, waves) = successor_rounds_and_waves(&mut list, &keys, n);
        assert_eq!(waves, 2 + ceil_log2(m as u64 - 1) as usize);
        // 161 with the one global segment.
        assert!(rounds <= 162, "{rounds} rounds");
    }

    #[test]
    fn fresh_upserts_below_deferred_pivots_stitch_from_phase_zero() {
        // Every group is deferred, so no pivot records a path: a new tower
        // taller than `h_low` gets its upper-part predecessors from its
        // left pivot's phase-0 reports (or its own, if it is a pivot).
        let (p, n) = (16u32, 1usize << 14);
        let mut list = loaded(Config::new(p, n as u64, 42), n);
        let fresh: Vec<(Key, Value)> = uniform_keys(5, n as u64, list.cfg.batch_large())
            .into_iter()
            .map(|i| (4 * i + 1, 7))
            .collect();
        let keys: Vec<Key> = fresh.iter().map(|&(k, _)| k).collect();
        assert_eq!(top_tier(&groups(&list, &keys)), Tier::Deferred);
        let before = list.upper_leaf_keys().len();
        list.batch_upsert(&fresh);
        assert!(
            list.upper_leaf_keys().len() > before,
            "no fresh tower reached the upper part"
        );
        list.validate().expect("valid after the upsert");
        let mut want: Vec<(Key, Value)> = (0..n as i64).map(|i| (4 * i, i as u64)).collect();
        want.extend(&fresh);
        want.sort_unstable();
        assert_eq!(list.collect_items(), want);
    }

    #[test]
    fn fresh_upserts_on_top_of_a_grouped_search_stay_valid() {
        let (p, n) = (16u32, 1usize << 14);
        let mut list = loaded(Config::new(p, n as u64, 42), n);
        let fresh: Vec<(Key, Value)> = uniform_keys(9, n as u64, list.cfg.batch_large())
            .into_iter()
            .map(|i| (4 * i + 1, 7))
            .collect();
        list.batch_upsert(&fresh);
        list.validate().expect("valid after the upsert");
        let mut want: Vec<(Key, Value)> = (0..n as i64).map(|i| (4 * i, i as u64)).collect();
        want.extend(&fresh);
        want.sort_unstable();
        assert_eq!(list.collect_items(), want);
    }

    /// Search requests for `keys` (ascending, unique), op = index.
    fn requests(keys: &[Key], top: u8) -> Vec<SearchRequest> {
        keys.iter()
            .enumerate()
            .map(|(i, &key)| SearchRequest {
                op: i as u32,
                key,
                top,
            })
            .collect()
    }

    /// The node a search for `key` descends from at each level `0..=top`
    /// (index = level), by CPU inspection from the descent start.
    fn descents(list: &PimSkipList, key: Key, top: u8) -> Vec<Handle> {
        let mut out = vec![Handle::NULL; usize::from(top) + 1];
        let mut at = list.descent_start(top);
        loop {
            let n = list.inspect(at);
            if n.right_key < key {
                at = n.right;
                continue;
            }
            if n.level <= top {
                out[usize::from(n.level)] = at;
            }
            if n.level == 0 {
                return out;
            }
            at = n.down;
        }
    }

    /// Resident keys `4·i`, `i ∈ 0..n`, as [`loaded`] stores them.
    fn oracle(n: usize) -> BTreeMap<Key, Value> {
        (0..n as i64).map(|i| (4 * i, i as u64)).collect()
    }

    /// Stage-2 PIM time of one probed Successor and one Predecessor batch
    /// of `keys`, every reply checked against `oracle`.
    fn checked_stage2_pim(
        list: &mut PimSkipList,
        keys: &[Key],
        oracle: &BTreeMap<Key, Value>,
    ) -> u64 {
        list.enable_probe();
        let succ = list.batch_successor(keys);
        let pred = list.batch_predecessor(keys);
        let report = list.take_probe().expect("probe was enabled");
        for (k, (s, p)) in keys.iter().zip(succ.iter().zip(&pred)) {
            let want_s = oracle.range(k..).next().map(|(&key, _)| key);
            let want_p = oracle.range(..=k).next_back().map(|(&key, _)| key);
            assert_eq!(s.map(|(key, _)| key), want_s, "successor({k})");
            assert_eq!(p.map(|(key, _)| key), want_p, "predecessor({k})");
            for &(key, h) in s.iter().chain(p) {
                assert_eq!(list.inspect(h).key, key, "handle of {key}");
            }
        }
        report
            .spans_named("search/stage2")
            .iter()
            .map(|&id| report.spans[id as usize].stats.pim_time)
            .sum()
    }

    #[test]
    fn every_finger_lies_on_the_search_path_of_every_key_of_its_half() {
        let (p, n) = (16u32, 1usize << 14);
        let mut list = loaded(Config::new(p, n as u64, 42), n);
        let keys = uniform_keys(3, 4 * n as u64, list.cfg.batch_large());
        let results = list
            .pivoted_search(&requests(&keys, 0))
            .expect("fault-free");
        let h_low = list.cfg.h_low;
        let mut checked = 0;
        for w in pivot_indices(&list, keys.len()).windows(2) {
            let (left, right) = halves(w[0], w[1]);
            let fingers = |j: usize| results.fingers[&(j as u32)];
            for (half, finger) in [(left, fingers(w[0]).right), (right, fingers(w[1]).left)] {
                if finger.is_null() {
                    // A tower at the start level splits the half: the root.
                    continue;
                }
                let level = list.inspect(finger).level;
                assert!(finger.is_replicated() && level >= h_low, "{finger:?}");
                for idx in half {
                    assert_eq!(
                        descents(&list, keys[idx], level)[usize::from(level)],
                        finger
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > keys.len() / 2, "{checked} of {} keys", keys.len());
    }

    /// Search `keys` (ascending, unique) and check that every request's
    /// anchor is its key's level-`h_low` predecessor, found by a CPU walk.
    /// Every seventh request reports its levels up to `h_low`, as an insert
    /// of a tower that tall would. Returns the structure's group tiers.
    fn assert_exact_anchors(list: &mut PimSkipList, keys: &[Key], context: &str) -> Tier {
        let h_low = list.cfg.h_low;
        let mut reqs = requests(keys, 0);
        for req in reqs.iter_mut().step_by(7) {
            req.top = h_low;
        }
        let tier = top_tier(&groups(list, keys));
        let results = list.pivoted_search(&reqs).expect("fault-free");
        for (i, &key) in keys.iter().enumerate() {
            let want = descents(list, key, h_low)[usize::from(h_low)];
            assert_eq!(
                results.done[&(i as u32)].anchor,
                want,
                "{context}: anchor of key {key}"
            );
        }
        tier
    }

    #[test]
    fn every_anchor_is_its_keys_level_h_low_predecessor() {
        // A new leaf enters its local leaf list one descent step from its
        // key's anchor, so the anchor must be exact whatever start the
        // search took: a replicated one (the walk records it), a phase-0
        // entry (the pivot's own) or a lower-part hint (its pivot's).
        let n = 1usize << 14;
        for p in [16u32, 64] {
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let batch = list.cfg.batch_large();
            let uniform = uniform_keys(5, 4 * n as u64, batch);
            assert_exact_anchors(&mut list, &uniform, &format!("P={p} uniform"));
            for b in [3, 8, 64] {
                let sparse = uniform_keys(b as u64, 4 * n as u64, b);
                assert_exact_anchors(&mut list, &sparse, &format!("P={p} sparse b={b}"));
            }
            // Below the smallest resident key: answered on the −∞ tower.
            let low: Vec<Key> = (-40..=0)
                .step_by(2)
                .chain((1..24).map(|i| 97 * i))
                .collect();
            assert_exact_anchors(&mut list, &low, &format!("P={p} below"));

            // Every pivot enters the lower part at one node: a flood that
            // runs the recursion, every hint a lower-part one.
            let mut flood = loaded(Config::new(p, 4096, 42).with_h_low(12), 4096);
            let keys: Vec<Key> = (0..batch as i64).map(|i| 4 * i + 1).collect();
            let tier = assert_exact_anchors(&mut flood, &keys, &format!("P={p} flood"));
            assert_eq!(tier, Tier::Recursion, "P={p}");

            let mut empty = PimSkipList::new(Config::new(p, n as u64, 42));
            assert_exact_anchors(&mut empty, &uniform, &format!("P={p} empty"));
        }
    }

    #[test]
    fn sparse_batches_pay_no_more_stage_two_pim_than_root_descents() {
        // (P, b, stage-2 PIM of a Successor and a Predecessor batch over
        // seeds 1–4 while every request without a lower-part hint started
        // at the top sentinel). Keys spread over the whole span put the
        // pivots far apart, so the fingers sit high: a finger walk longer
        // than the root's would show here first.
        let n = 1usize << 15;
        let oracle = oracle(n);
        for (p, pinned) in [
            (16u32, [(3usize, 254u64), (8, 365), (64, 1210)]),
            (64, [(3, 254), (8, 345), (64, 715)]),
        ] {
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            for (b, root) in pinned {
                let pim: u64 = (1..=4)
                    .map(|seed| {
                        let keys = uniform_keys(seed, 4 * n as u64, b);
                        checked_stage2_pim(&mut list, &keys, &oracle)
                    })
                    .sum();
                assert!(pim <= root, "P={p}, b={b}: stage-2 PIM {pim} > {root}");
            }
        }
    }

    #[test]
    fn pivots_on_the_minus_infinity_tower_and_lone_pivots_start_at_the_root() {
        let (p, n) = (16u32, 1usize << 12);
        let mut list = loaded(Config::new(p, n as u64, 42), n);
        let oracle = oracle(n);
        // A pivot at or below the smallest resident key (0) is answered on
        // the −∞ tower in phase 0 and marks no fingers, so its half-brackets
        // descend from the root; the pivots above it mark theirs.
        let keys: Vec<Key> = (-40..=0)
            .step_by(2)
            .chain((1..24).map(|i| 97 * i))
            .collect();
        let results = list
            .pivoted_search(&requests(&keys, 0))
            .expect("fault-free");
        for &j in &pivot_indices(&list, keys.len()) {
            assert_eq!(
                results.fingers.contains_key(&(j as u32)),
                keys[j] > 0,
                "pivot {}",
                keys[j]
            );
        }
        for (i, k) in keys.iter().enumerate() {
            let d = results.done[&(i as u32)];
            assert_eq!(
                d.succ_key,
                *oracle.range(k..).next().expect("resident").0,
                "{k}"
            );
        }
        // Batches of one or two requests have no bracket at all.
        for keys in [vec![-5], vec![0], vec![17], vec![17, 4001], vec![-3, 9_000]] {
            checked_stage2_pim(&mut list, &keys, &oracle);
        }
    }

    #[test]
    fn upper_levels_above_a_finger_are_stitched_from_the_nearer_pivot() {
        // Every request reports two levels above `h_low`, higher than most
        // fingers of a full batch: the levels above each finger come from
        // the pivot whose finger it is — the right one in a right half.
        for p in [8u32, 64] {
            let n = 1usize << 14;
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let top = list.cfg.h_low + 2;
            let keys = uniform_keys(5, 4 * n as u64, list.cfg.batch_large());
            let results = list
                .pivoted_search(&requests(&keys, top))
                .expect("fault-free");
            for (i, &k) in keys.iter().enumerate() {
                for (level, &want) in descents(&list, k, top).iter().enumerate() {
                    let node = list.inspect(want);
                    assert_eq!(
                        results.pred_at(i as u32, level as u8),
                        Some((want, node.right, node.right_key)),
                        "P={p}: key {k}, level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_upper_towers_in_right_half_brackets_stay_valid() {
        for p in [8u32, 64] {
            let n = 1usize << 14;
            let mut list = loaded(Config::new(p, n as u64, 42), n);
            let fresh: Vec<(Key, Value)> = uniform_keys(11, n as u64, list.cfg.batch_large())
                .into_iter()
                .map(|i| (4 * i + 1, 7))
                .collect();
            let before = list.upper_leaf_keys();
            list.batch_upsert(&fresh);
            list.validate().expect("valid after the upsert");
            // The fresh towers past `h_low` that sat in a right half-bracket,
            // whose upper levels were stitched from the right pivot.
            let after = list.upper_leaf_keys();
            let tall = |k: &Key| after.binary_search(k).is_ok() && before.binary_search(k).is_err();
            let right_tall = pivot_indices(&list, fresh.len())
                .windows(2)
                .flat_map(|w| halves(w[0], w[1]).1)
                .filter(|&i| tall(&fresh[i].0))
                .count();
            assert!(
                right_tall > 0,
                "P={p}: no fresh upper tower in a right half"
            );
            let mut want: Vec<(Key, Value)> = oracle(n).into_iter().collect();
            want.extend(&fresh);
            want.sort_unstable();
            assert_eq!(list.collect_items(), want, "P={p}");
        }
    }
}
