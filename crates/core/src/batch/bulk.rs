//! Bulk construction from sorted input, streamed in `P log² P` chunks.
//!
//! The model's algorithm-design section (§2.1) stipulates that "the input
//! starts evenly divided among the PIM modules"; building the initial
//! structure therefore should not pay per-key search costs. [`bulk_load`]
//! constructs the skip list from a sorted key sequence with **no searches
//! at all**: towers are allocated exactly as in batched Upsert, but the
//! horizontal pointers are degenerate Algorithm-1 segments — at every
//! level the new nodes extend one run that starts at the −∞ sentinel —
//! so the CPU can emit every link directly: a pair of remote writes per
//! lower-part node, and per upper-part node the same `LinkUpper` broadcast
//! Upsert sends, each spliced in behind its predecessor in the run.
//!
//! The CPU side owns only `M = Θ(P log² P)` words of shared memory, so the
//! input is consumed in chunks of [`Config::batch_large`] pairs, each
//! chunk a complete mini-build: toss its tower coins, allocate and wire
//! its towers, link them (a new upper leaf's `next_leaf` shortcut comes
//! with its `LinkUpper`). Two things make the chunks compose into the
//! structure a single pass would give:
//!
//! * **The tail carry.** Per level the build keeps the handle of the last
//!   node linked so far (the level's −∞ sentinel until a tower reaches
//!   it). A chunk's first node at that level is linked behind the tail
//!   and its last node becomes the new tail. A fresh node's `right` is
//!   already null with key +∞, so the tail is a valid list end after
//!   every chunk and needs no terminating write.
//! * **Allocation follows linking.** A module enters each new leaf into
//!   its local leaf list on arrival, starting from the level-`h_low` tail:
//!   with every earlier chunk fully linked and none of this one, the tail
//!   is the exact level-`h_low` predecessor — the anchor — of every key of
//!   the chunk. That is one descent step plus a walk over this chunk's own
//!   arrivals; allocating everything before any link exists (the former
//!   one-shot build) made it a scan of the module's whole leaf list —
//!   quadratic PIM time in `n`.
//!
//! Coins, per-module arrival order and shadow slots are drawn in input
//! order whatever the chunking, so the handles do not depend on it.
//!
//! [`bulk_load`]: crate::PimSkipList::bulk_load
//! [`Config::batch_large`]: crate::Config::batch_large

use pim_runtime::Handle;

use crate::batch::upsert::{allocate_towers, Towers};
use crate::config::{Key, Value};
use crate::error::PimResult;
use crate::list::PimSkipList;
use crate::tasks::Task;

impl PimSkipList {
    /// Build the whole structure from a strictly ascending pair sequence.
    /// Panics if the structure is non-empty or the input unsorted.
    ///
    /// Compared to [`PimSkipList::load`] (repeated batched upserts), this
    /// skips the batched-Predecessor stage entirely: `O(1)` messages per
    /// node instead of `O(log P)`, and `O(1)` rounds per chunk instead of
    /// `O(log P)` per batch.
    pub fn bulk_load(&mut self, pairs: &[(Key, Value)]) {
        assert!(self.is_empty(), "bulk_load requires an empty structure");
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly ascending keys"
        );
        self.try_bulk_load(pairs)
            .unwrap_or_else(|e| panic!("bulk_load: {e}"))
    }

    /// One fault-observable attempt of [`PimSkipList::bulk_load`]: build,
    /// then commit the pairs to the journal and the length. A fault in any
    /// chunk commits nothing, and the retry loop's `restore_all` reverts to
    /// the state before the attempt.
    ///
    /// The journal's map is made before the build: `BTreeMap::from_iter`
    /// stages a copy of every pair, and staged while the machine is still
    /// empty, that copy does not add to the build's peak.
    pub(crate) fn bulk_load_attempt(&mut self, pairs: &[(Key, Value)]) -> PimResult<()> {
        let journal = pairs.iter().copied().collect();
        self.build(pairs.iter().copied())?;
        self.journal = journal;
        self.len = pairs.len() as u64;
        Ok(())
    }

    /// Build the ascending `pairs` into the empty machine, chunk by chunk,
    /// leaving the journal and `len` untouched. Also the workhorse of crash
    /// recovery: `restore_all` resets the machine and builds the journal's
    /// contents through this path.
    pub(crate) fn build(&mut self, mut pairs: impl Iterator<Item = (Key, Value)>) -> PimResult<()> {
        debug_assert!(self.is_empty(), "build on a non-empty structure");
        let size = self.cfg.batch_large().max(1);
        let mut chunk = Vec::new();
        // tails[level]: the last node linked at `level` so far.
        let mut tails: Vec<Handle> = Vec::new();
        let mut tops: Vec<u8> = Vec::new();
        let mut towers = Towers::default();
        loop {
            chunk.clear();
            chunk.extend(pairs.by_ref().take(size));
            if chunk.is_empty() {
                return Ok(());
            }
            self.spanned("bulk_load", |s| {
                let staged = chunk.len() as u64 * 2;
                s.sys.shared_mem().alloc(staged);
                let out = s.bulk_load_chunk(&chunk, &mut tops, &mut towers, &mut tails);
                s.sys.sample_shared_mem();
                s.sys.shared_mem().free(staged);
                out
            })?;
        }
    }

    /// Build one chunk behind `tails` and advance them.
    fn bulk_load_chunk(
        &mut self,
        chunk: &[(Key, Value)],
        tops: &mut Vec<u8>,
        towers: &mut Towers,
        tails: &mut Vec<Handle>,
    ) -> PimResult<()> {
        // Heights + allocation + vertical wiring (shared with Upsert). Every
        // key of the chunk follows the level-h_low tail, so the tail is
        // their anchor.
        tops.clear();
        tops.extend((0..chunk.len()).map(|_| self.rng.skiplist_height(self.cfg.max_level - 1)));
        let h_low = self.cfg.h_low;
        let upper_tail = tails
            .get(usize::from(h_low))
            .copied()
            .unwrap_or(Handle::replicated(u32::from(h_low)));
        let tops = &tops[..];
        self.run_one(async |lane| {
            allocate_towers(lane, chunk, tops, |_| upper_tail, towers).await
        })?;

        // Horizontal links, level by level: the chunk's nodes at a level,
        // in key order, extend the chain that ends at the level's tail.
        let max_top = tops.iter().copied().max().unwrap_or(0);
        self.spanned("link", |s| -> PimResult<()> {
            for level in 0..=max_top {
                if tails.len() <= usize::from(level) {
                    // Replicated slot = level by construction.
                    tails.push(Handle::replicated(u32::from(level)));
                }
                let mut prev = tails[usize::from(level)];
                let mut linked = 0u64;
                for (j, &pair) in chunk.iter().enumerate() {
                    if tops[j] < level {
                        continue;
                    }
                    let cur = towers.get(j)[usize::from(level)];
                    if level >= h_low {
                        s.send_link_upper(towers.get(j), pair, level, prev);
                    } else {
                        s.send_write(
                            prev,
                            Task::WriteRight {
                                node: prev,
                                to: cur,
                                to_key: pair.0,
                            },
                        );
                        s.send_write(
                            cur,
                            Task::WriteLeft {
                                node: cur,
                                to: prev,
                            },
                        );
                    }
                    prev = cur;
                    linked += 1;
                }
                tails[usize::from(level)] = prev;
                s.start.link(level, linked as u32);
                s.sys.metrics_mut().charge_cpu(linked, 1);
            }
            s.send_leaf_chains(towers, true);
            s.quiesce_writes("bulk_load")
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::list::PimSkipList;

    #[test]
    fn bulk_load_builds_valid_structure() {
        let mut list = PimSkipList::new(Config::new(8, 1 << 12, 5));
        let pairs: Vec<(i64, u64)> = (0..2000).map(|i| (i * 3, i as u64)).collect();
        list.bulk_load(&pairs);
        assert_eq!(list.len(), 2000);
        list.validate().unwrap();
        assert_eq!(list.collect_items(), pairs);
    }

    #[test]
    fn bulk_load_then_mutate() {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 6));
        let pairs: Vec<(i64, u64)> = (0..500).map(|i| (i * 2, i as u64)).collect();
        list.bulk_load(&pairs);
        // Interleave new odd keys, delete some evens.
        let odds: Vec<(i64, u64)> = (0..100).map(|i| (i * 2 + 1, 7)).collect();
        list.batch_upsert(&odds);
        let res = list.batch_delete(&[0, 2, 4]);
        assert_eq!(res, vec![true, true, true]);
        list.validate().unwrap();
        assert_eq!(list.len(), 500 + 100 - 3);
        assert_eq!(list.batch_get(&[1, 3, 0]), vec![Some(7), Some(7), None]);
    }

    #[test]
    fn bulk_load_is_cheaper_than_upsert_loading() {
        let pairs: Vec<(i64, u64)> = (0..4000).map(|i| (i, i as u64)).collect();
        let mut bulk = PimSkipList::new(Config::new(16, 1 << 12, 7));
        bulk.bulk_load(&pairs);
        let bulk_io = bulk.metrics().io_time;

        let mut incr = PimSkipList::new(Config::new(16, 1 << 12, 7));
        incr.load(&pairs);
        let incr_io = incr.metrics().io_time;

        assert_eq!(bulk.collect_items(), incr.collect_items());
        assert!(
            (bulk_io as f64) < incr_io as f64 * 0.8,
            "bulk load should save IO: {bulk_io} vs {incr_io}"
        );
    }

    fn evens(n: usize) -> Vec<(i64, u64)> {
        (0..n as i64).map(|i| (i * 2, i as u64)).collect()
    }

    #[test]
    fn shared_memory_is_bounded_by_one_chunk() {
        let mut list = PimSkipList::new(Config::new(16, 1 << 12, 12));
        let chunk = list.config().batch_large();
        list.bulk_load(&evens(8 * chunk + 17));
        assert!(
            list.metrics().shared_mem_peak <= 2 * chunk as u64,
            "M = {} words for chunks of {chunk} pairs",
            list.metrics().shared_mem_peak
        );
    }

    #[test]
    fn build_pim_time_is_linear_in_n() {
        let pim_time = |n: usize| {
            let mut list = PimSkipList::new(Config::new(16, 1 << 14, 13));
            list.bulk_load(&evens(n));
            list.metrics().pim_time as f64
        };
        let ratio = pim_time(16_000) / pim_time(8_000);
        assert!(ratio <= 2.5, "doubling n multiplied PIM time by {ratio:.2}");
    }

    #[test]
    fn chunk_edge_sizes_build_valid_mutable_structures() {
        let chunk = Config::new(8, 1 << 10, 14).batch_large();
        for n in [chunk - 1, chunk, chunk + 1, 3 * chunk] {
            let mut list = PimSkipList::new(Config::new(8, 1 << 10, 14));
            let pairs = evens(n);
            list.bulk_load(&pairs);
            list.validate().unwrap();
            assert_eq!(list.collect_items(), pairs, "n = {n}");

            // Odd keys interleave with the whole key range, chunk seams
            // included; then every fourth original key goes.
            let odds: Vec<(i64, u64)> = (0..n as i64).map(|i| (i * 2 + 1, 7)).collect();
            list.batch_upsert(&odds);
            let gone: Vec<i64> = (0..n as i64).step_by(4).map(|i| i * 2).collect();
            assert!(list.batch_delete(&gone).iter().all(|&found| found));
            list.validate().unwrap();
            assert_eq!(list.len() as usize, 2 * n - gone.len(), "n = {n}");
            let succ = list.batch_successor(&[0, 2, 2 * n as i64 - 1, 2 * n as i64]);
            let keys: Vec<Option<i64>> = succ.iter().map(|e| e.map(|(k, _)| k)).collect();
            assert_eq!(
                keys,
                [Some(1), Some(2), Some(2 * n as i64 - 1), None],
                "n = {n}"
            );
        }
    }

    #[test]
    fn bulk_load_empty_is_noop() {
        let mut list = PimSkipList::new(Config::new(4, 64, 8));
        list.bulk_load(&[]);
        assert!(list.is_empty());
        list.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "requires an empty structure")]
    fn bulk_load_rejects_nonempty() {
        let mut list = PimSkipList::new(Config::new(4, 64, 9));
        list.upsert(1, 1);
        list.bulk_load(&[(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_rejects_unsorted() {
        let mut list = PimSkipList::new(Config::new(4, 64, 10));
        list.bulk_load(&[(2, 2), (1, 1)]);
    }

    #[test]
    fn bulk_load_single_pair() {
        let mut list = PimSkipList::new(Config::new(4, 64, 11));
        list.bulk_load(&[(42, 420)]);
        assert_eq!(list.get(42), Some(420));
        list.validate().unwrap();
    }
}
