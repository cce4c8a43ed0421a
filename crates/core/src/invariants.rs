//! Structural invariant checking (Fig. 2 / §3.2).
//!
//! [`PimSkipList::validate`] walks the whole machine by CPU-side
//! inspection (no network traffic, test machinery only) and verifies every
//! property the algorithms rely on:
//!
//! 1. the level-0 chain is strictly ascending with correct `right_key`
//!    caches and mirrored `left` pointers, and matches `len()`;
//! 2. every level's chain is a subsequence of the level below, towers are
//!    vertically consistent (`up`/`down`, contiguous levels, same key);
//! 3. the replicated arena is bit-identical across modules in all
//!    *structural* fields (per-module fields — `next_leaf`, local list
//!    links of the −∞ leaf — are exempt by design);
//! 4. nodes live where the hash says: lower node `(key, level)` in module
//!    `hash(key, level)`; levels `≥ h_low` replicated;
//! 5. each module's local leaf list is exactly its owned leaves in
//!    ascending order, with consistent `local_left` mirrors and a correct
//!    tail;
//! 6. every `next_leaf` shortcut of every upper-leaf replica equals the
//!    first local leaf with key `≥` the replica's key, and every local
//!    leaf's own `next_leaf` — the inverse — names the rightmost upper leaf
//!    whose shortcut it is (`NULL` when there is none);
//! 7. each module's index maps exactly its owned leaf keys to their
//!    handles;
//! 8. every leaf's recorded chain matches its actual tower;
//! 9. every module's descent start, and the driver's shadow of it, is the
//!    highest −∞ sentinel with a linked `right` (at least `h_low`);
//! 10. no operation's staging outlives it: between operations no shared
//!     memory is in use.

use pim_runtime::Handle;

use crate::config::{NEG_INF, POS_INF};
use crate::list::PimSkipList;

macro_rules! ensure {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            return Err(format!($($msg)*));
        }
    };
}

impl PimSkipList {
    /// Validate all structural invariants; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.check_horizontal()?;
        self.check_vertical()?;
        self.check_replicas()?;
        self.check_start()?;
        self.check_placement()?;
        if self.cfg.h_low > 0 {
            self.check_local_lists()?;
            self.check_next_leaf()?;
        }
        self.check_index()?;
        self.check_journal()?;
        self.check_staging()?;
        Ok(())
    }

    /// Every batch frees the shared-memory words it staged, on every path
    /// (a co-scheduled job dropped mid-wave included), so `M` measured by
    /// a later batch is that batch's own.
    fn check_staging(&self) -> Result<(), String> {
        let in_use = self.sys.shared_mem_in_use();
        ensure!(
            in_use == 0,
            "{in_use} shared-memory words in use between operations"
        );
        Ok(())
    }

    /// The recovery journal must mirror the logical contents exactly —
    /// anything else means a batch committed without journaling (or vice
    /// versa), which would silently corrupt the next crash recovery.
    fn check_journal(&self) -> Result<(), String> {
        ensure!(
            self.journal.len() as u64 == self.len(),
            "journal holds {} keys but len() = {}",
            self.journal.len(),
            self.len()
        );
        let journaled = self.journal.items_sorted();
        let actual = self.collect_items();
        ensure!(
            journaled == actual,
            "journal snapshot diverges from leaf chain"
        );
        Ok(())
    }

    fn check_horizontal(&self) -> Result<(), String> {
        let mut keys_below: Option<Vec<i64>> = None;
        for level in 0..=self.cfg.max_level {
            // The −∞ node at `level` heads the chain (replicated slot =
            // level, fixed convention).
            let mut cur = Handle::replicated(u32::from(level));
            let mut keys = Vec::new();
            let mut prev_handle = Handle::NULL;
            let mut prev_key = NEG_INF;
            loop {
                let n = self.inspect(cur);
                ensure!(
                    n.level == level,
                    "level-{level} chain reached a level-{} node",
                    n.level
                );
                ensure!(!n.deleted, "level-{level} chain contains tombstone {cur:?}");
                if prev_handle.is_some() {
                    ensure!(
                        n.key > prev_key,
                        "level-{level} chain not ascending at key {}",
                        n.key
                    );
                    ensure!(
                        n.left == prev_handle,
                        "left pointer mismatch at level {level} key {}",
                        n.key
                    );
                }
                if n.key != NEG_INF {
                    keys.push(n.key);
                }
                let expected_rk = if n.right.is_some() {
                    self.inspect(n.right).key
                } else {
                    POS_INF
                };
                ensure!(
                    n.right_key == expected_rk,
                    "stale right_key at level {level} key {}: {} vs {}",
                    n.key,
                    n.right_key,
                    expected_rk
                );
                prev_handle = cur;
                prev_key = n.key;
                if n.right.is_null() {
                    break;
                }
                cur = n.right;
            }
            if level == 0 {
                ensure!(
                    keys.len() as u64 == self.len(),
                    "len() = {} but the leaf chain has {} keys",
                    self.len(),
                    keys.len()
                );
            }
            if let Some(below) = &keys_below {
                // keys at this level ⊆ keys below.
                let mut it = below.iter();
                for k in &keys {
                    ensure!(
                        it.any(|b| b == k),
                        "key {k} at level {level} missing from level {}",
                        level - 1
                    );
                }
            }
            keys_below = Some(keys);
        }
        Ok(())
    }

    fn check_vertical(&self) -> Result<(), String> {
        // Walk the leaf chain; follow each tower upward.
        let mut cur = self.inf_leaf();
        loop {
            let leaf = self.inspect(cur);
            let mut below = cur;
            let mut chain_seen = Vec::new();
            let mut up = leaf.up;
            while up.is_some() {
                let n = self.inspect(up);
                ensure!(
                    n.key == leaf.key,
                    "tower of {} contains key {}",
                    leaf.key,
                    n.key
                );
                ensure!(
                    n.down == below,
                    "down pointer broken in tower of {} at level {}",
                    leaf.key,
                    n.level
                );
                ensure!(
                    n.level == self.inspect(below).level + 1,
                    "tower of {} skips a level at {}",
                    leaf.key,
                    n.level
                );
                chain_seen.push(up);
                below = up;
                up = n.up;
            }
            if leaf.key != NEG_INF {
                ensure!(
                    *leaf.chain == *chain_seen,
                    "leaf {} chain record {:?} != actual tower {:?}",
                    leaf.key,
                    leaf.chain,
                    chain_seen
                );
            }
            if leaf.right.is_null() {
                break;
            }
            cur = leaf.right;
        }
        Ok(())
    }

    fn check_replicas(&self) -> Result<(), String> {
        let reference = &self.sys.module(0).upper;
        for m in 1..self.p() {
            let module = self.sys.module(m);
            let mut count = 0usize;
            for (slot, n) in module.upper.iter() {
                count += 1;
                let Some(r) = reference.get_opt(slot) else {
                    return Err(format!("module {m} has extra replica at slot {slot}"));
                };
                let structural_equal = r.key == n.key
                    && r.value == n.value
                    && r.level == n.level
                    && r.left == n.left
                    && r.right == n.right
                    && r.up == n.up
                    && r.down == n.down
                    && r.right_key == n.right_key
                    && r.deleted == n.deleted
                    && r.chain == n.chain;
                ensure!(
                    structural_equal,
                    "replica divergence at slot {slot} between modules 0 and {m}"
                );
            }
            ensure!(
                count == reference.len(),
                "module {m} holds {count} replicas, module 0 holds {}",
                reference.len()
            );
        }
        Ok(())
    }

    fn check_start(&self) -> Result<(), String> {
        let shadow = self.descent_start(0);
        for m in 0..self.p() {
            let expect = (self.cfg.h_low + 1..=self.cfg.max_level)
                .rev()
                .map(|level| Handle::replicated(u32::from(level)))
                .find(|&sentinel| self.inspect_at(m, sentinel).right.is_some())
                .unwrap_or(Handle::replicated(u32::from(self.cfg.h_low)));
            let start = self.sys.module(m).start();
            ensure!(
                start == expect,
                "module {m}: descent start {start:?}, highest linked sentinel {expect:?}"
            );
            ensure!(
                shadow == expect,
                "shadow descent start {shadow:?}, module {m} starts at {expect:?}"
            );
        }
        Ok(())
    }

    fn check_placement(&self) -> Result<(), String> {
        let mut cur = self.inf_leaf();
        loop {
            let leaf = self.inspect(cur);
            if leaf.key != NEG_INF {
                // Leaf placement.
                if self.cfg.h_low > 0 {
                    ensure!(
                        !cur.is_replicated(),
                        "leaf {} replicated despite h_low > 0",
                        leaf.key
                    );
                    ensure!(
                        cur.module() == self.module_of(leaf.key, 0),
                        "leaf {} on module {} but hashes to {}",
                        leaf.key,
                        cur.module(),
                        self.module_of(leaf.key, 0)
                    );
                }
                // Tower placement.
                for &h in &leaf.chain {
                    let n = self.inspect(h);
                    if n.level >= self.cfg.h_low {
                        ensure!(
                            h.is_replicated(),
                            "upper-part node of {} at level {} not replicated",
                            leaf.key,
                            n.level
                        );
                    } else {
                        ensure!(
                            h.module() == self.module_of(leaf.key, n.level),
                            "tower node of {} at level {} misplaced",
                            leaf.key,
                            n.level
                        );
                    }
                }
            }
            if leaf.right.is_null() {
                break;
            }
            cur = leaf.right;
        }
        Ok(())
    }

    fn check_local_lists(&self) -> Result<(), String> {
        for m in 0..self.p() {
            // Owned leaves, from the lower arena.
            let mut owned: Vec<(i64, Handle)> = self
                .sys
                .module(m)
                .lower
                .iter()
                .filter(|(_, n)| n.level == 0 && !n.deleted)
                .map(|(s, n)| (n.key, Handle::local(m, s)))
                .collect();
            owned.sort_unstable();
            // Walk the local list.
            let mut walked = Vec::new();
            let mut prev = self.inf_leaf();
            let mut cur = self.inspect_at(m, self.inf_leaf()).local_right;
            while cur.is_some() {
                let n = self.inspect_at(m, cur);
                ensure!(
                    n.local_left == prev,
                    "module {m}: local_left mismatch at key {}",
                    n.key
                );
                walked.push((n.key, cur));
                prev = cur;
                cur = n.local_right;
            }
            ensure!(
                walked == owned,
                "module {m}: local leaf list {:?} != owned leaves {:?}",
                walked.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                owned.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            );
            let tail = self.sys.module(m).leaf_tail;
            let expect_tail = walked.last().map(|&(_, h)| h).unwrap_or(self.inf_leaf());
            ensure!(
                tail == expect_tail,
                "module {m}: stale leaf_tail {tail:?}, expected {expect_tail:?}"
            );
        }
        Ok(())
    }

    fn check_next_leaf(&self) -> Result<(), String> {
        for m in 0..self.p() {
            // All upper-leaf replicas (level == h_low).
            let module = self.sys.module(m);
            let owned: Vec<(i64, Handle)> = {
                let mut v: Vec<(i64, Handle)> = module
                    .lower
                    .iter()
                    .filter(|(_, n)| n.level == 0 && !n.deleted)
                    .map(|(s, n)| (n.key, Handle::local(m, s)))
                    .collect();
                v.sort_unstable();
                v
            };
            // Per owned leaf, the rightmost upper leaf shortcutting to it.
            let mut inverse: Vec<Option<(i64, Handle)>> = vec![None; owned.len()];
            for (slot, n) in module.upper.iter() {
                if n.level != self.cfg.h_low {
                    continue;
                }
                let i = owned.partition_point(|&(k, _)| k < n.key);
                let expect = owned.get(i).map_or(Handle::NULL, |&(_, h)| h);
                ensure!(
                    n.next_leaf == expect,
                    "module {m}: next_leaf of upper leaf {} (slot {slot}) is {:?}, expected {expect:?}",
                    n.key,
                    n.next_leaf
                );
                if let Some(inv) = inverse.get_mut(i) {
                    if inv.is_none_or(|(k, _)| k < n.key) {
                        *inv = Some((n.key, Handle::replicated(slot)));
                    }
                }
            }
            for (&(key, leaf), inv) in owned.iter().zip(&inverse) {
                let expect = inv.map_or(Handle::NULL, |(_, h)| h);
                let got = self.inspect_at(m, leaf).next_leaf;
                ensure!(
                    got == expect,
                    "module {m}: inverse shortcut of leaf {key} is {got:?}, expected {expect:?}"
                );
            }
        }
        Ok(())
    }

    fn check_index(&self) -> Result<(), String> {
        for m in 0..self.p() {
            let owned: Vec<(i64, Handle)> = self
                .sys
                .module(m)
                .lower
                .iter()
                .filter(|(_, n)| n.level == 0 && !n.deleted)
                .map(|(s, n)| (n.key, Handle::local(m, s)))
                .collect();
            // The index is mutable-API only; clone it for inspection.
            let mut index = self.sys.module(m).index.clone();
            ensure!(
                if self.cfg.h_low > 0 {
                    index.len() == owned.len()
                } else {
                    true
                },
                "module {m}: index holds {} keys, owns {}",
                index.len(),
                owned.len()
            );
            for &(k, h) in &owned {
                ensure!(
                    index.get(k) == Some(h.to_bits()),
                    "module {m}: index lookup of {k} failed"
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use pim_runtime::Handle;

    use crate::config::{Config, POS_INF};
    use crate::list::PimSkipList;

    fn build() -> PimSkipList {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 31));
        let pairs: Vec<(i64, u64)> = (0..200).map(|i| (i * 4, i as u64)).collect();
        list.batch_upsert(&pairs);
        list.validate().expect("fresh structure valid");
        list
    }

    /// Find some lower-part leaf handle for corruption tests.
    fn some_leaf(list: &PimSkipList) -> Handle {
        for m in 0..list.p() {
            if let Some((slot, _)) = list
                .sys
                .module(m)
                .lower
                .iter()
                .find(|(_, n)| n.level == 0 && !n.deleted)
            {
                return Handle::local(m, slot);
            }
        }
        panic!("no leaf found");
    }

    #[test]
    fn detects_stale_right_key_cache() {
        let mut list = build();
        let leaf = some_leaf(&list);
        let m = leaf.module();
        list.sys.module_mut(m).node_mut(leaf).right_key = POS_INF - 1;
        let err = list.validate().unwrap_err();
        assert!(err.contains("right_key"), "got: {err}");
    }

    #[test]
    fn detects_broken_left_mirror() {
        let mut list = build();
        let leaf = some_leaf(&list);
        let m = leaf.module();
        list.sys.module_mut(m).node_mut(leaf).left = Handle::NULL;
        let err = list.validate().unwrap_err();
        assert!(
            err.contains("left pointer") || err.contains("local_left"),
            "got: {err}"
        );
    }

    #[test]
    fn detects_replica_divergence() {
        let mut list = build();
        // Corrupt module 2's copy of the descent start.
        let start = list.descent_start(0);
        list.sys.module_mut(2).node_mut(start).right_key = 12345;
        let err = list.validate().unwrap_err();
        assert!(
            err.contains("divergence") || err.contains("right_key"),
            "got: {err}"
        );
    }

    #[test]
    fn detects_len_drift() {
        let mut list = build();
        list.len += 1;
        let err = list.validate().unwrap_err();
        assert!(err.contains("len()"), "got: {err}");
    }

    #[test]
    fn detects_local_list_corruption() {
        let mut list = build();
        let leaf = some_leaf(&list);
        let m = leaf.module();
        list.sys.module_mut(m).node_mut(leaf).local_right = leaf; // self-loop... would hang; use NULL instead
        list.sys.module_mut(m).node_mut(leaf).local_right = Handle::NULL;
        let err = list.validate().unwrap_err();
        assert!(
            err.contains("local leaf list")
                || err.contains("local_left")
                || err.contains("leaf_tail"),
            "got: {err}"
        );
    }

    #[test]
    fn detects_index_corruption() {
        let mut list = build();
        let leaf = some_leaf(&list);
        let key = list.inspect(leaf).key;
        let m = leaf.module();
        list.sys.module_mut(m).index.remove(key);
        let err = list.validate().unwrap_err();
        assert!(err.contains("index"), "got: {err}");
    }

    #[test]
    fn detects_tombstone_in_chain() {
        let mut list = build();
        let leaf = some_leaf(&list);
        let m = leaf.module();
        list.sys.module_mut(m).node_mut(leaf).deleted = true;
        let err = list.validate().unwrap_err();
        assert!(
            err.contains("tombstone") || err.contains("local leaf list") || err.contains("index"),
            "got: {err}"
        );
    }
}
