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
//!    *structural* fields, a replicated leaf's chain included (the
//!    per-module `local_ref` — an upper leaf's `next_leaf`, a leaf's record
//!    index — is exempt by design, as is the −∞ leaf's `local_right`, kept
//!    as `SkipModule::leaf_head`);
//! 4. nodes live where the hash says: lower node `(key, level)` in module
//!    `hash(key, level)`; levels `≥ h_low` replicated;
//! 5. each module's local leaf list is exactly its owned leaves in
//!    ascending order, with consistent `local_left` mirrors and a correct
//!    tail;
//! 6. every `next_leaf` shortcut of every upper-leaf replica equals the
//!    first local leaf with key `≥` the replica's key, and every local
//!    leaf's inverse names the rightmost upper leaf whose shortcut it is
//!    (`NULL` when there is none);
//! 7. each module's index maps exactly its owned leaf keys to their
//!    handles;
//! 8. every leaf's recorded chain matches its actual tower;
//! 9. every module's descent start, and the driver's shadow of it, is the
//!    highest −∞ sentinel with a linked `right` (at least `h_low`);
//! 10. no operation's staging outlives it: between operations no shared
//!     memory is in use;
//! 11. every leaf but the −∞ one names a leaf record of its own in its
//!     module's table, and the table holds no other record.

use pim_runtime::Handle;

use crate::config::{Value, NEG_INF, POS_INF};
use crate::list::PimSkipList;
use crate::module::SkipModule;
use crate::node::Node;

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
        self.check_records()?;
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
        let actual = self.collect_items();
        ensure!(
            self.journal.iter().map(|(&k, &v)| (k, v)).eq(actual),
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
                let chain = self.chain_of(cur);
                ensure!(
                    *chain == *chain_seen,
                    "leaf {} chain record {:?} != actual tower {:?}",
                    leaf.key,
                    chain,
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
        let first = self.sys.module(0);
        let reference = &first.upper;
        // A replicated leaf (`h_low = 0`) keeps its value and chain in a
        // record of each module.
        fn record<'a>(m: &'a SkipModule, n: &Node) -> Option<(Value, &'a [Handle])> {
            let record = (n.level == 0).then(|| m.leaves.get_opt(n.local_ref));
            record.flatten().map(|r| (r.value, &*r.chain))
        }
        for m in 1..self.p() {
            let module = self.sys.module(m);
            let mut count = 0usize;
            for (slot, n) in module.upper.iter() {
                count += 1;
                let Some(r) = reference.get_opt(slot) else {
                    return Err(format!("module {m} has extra replica at slot {slot}"));
                };
                let structural_equal = r.key == n.key
                    && r.level == n.level
                    && r.left == n.left
                    && r.right == n.right
                    && r.up == n.up
                    && r.down == n.down
                    && r.right_key == n.right_key
                    && r.deleted == n.deleted
                    && record(first, r) == record(module, n);
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
                for &h in self.chain_of(cur) {
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
            let module = self.sys.module(m);
            let mut walked = Vec::new();
            let mut prev = self.inf_leaf();
            let mut cur = module.local_right(prev);
            while cur.is_some() {
                let key = self.inspect_at(m, cur).key;
                ensure!(
                    walked.len() < owned.len(),
                    "module {m}: local leaf list runs past its {} owned leaves at key {key}",
                    owned.len()
                );
                ensure!(
                    module.local_left(cur) == prev,
                    "module {m}: local_left mismatch at key {key}"
                );
                walked.push((key, cur));
                prev = cur;
                cur = module.local_right(cur);
            }
            ensure!(
                walked == owned,
                "module {m}: local leaf list {:?} != owned leaves {:?}",
                walked.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                owned.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            );
            let tail = module.local_tail();
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
                    module.shortcut(slot) == expect,
                    "module {m}: next_leaf of upper leaf {} (slot {slot}) is {:?}, expected {expect:?}",
                    n.key,
                    module.shortcut(slot)
                );
                if let Some(inv) = inverse.get_mut(i) {
                    if inv.is_none_or(|(k, _)| k < n.key) {
                        *inv = Some((n.key, Handle::replicated(slot)));
                    }
                }
            }
            for (&(key, leaf), inv) in owned.iter().zip(&inverse) {
                let expect = inv.map_or(Handle::NULL, |(_, h)| h);
                let got = module.inverse(leaf);
                ensure!(
                    got == expect,
                    "module {m}: inverse shortcut of leaf {key} is {got:?}, expected {expect:?}"
                );
            }
        }
        Ok(())
    }

    fn check_records(&self) -> Result<(), String> {
        for m in 0..self.p() {
            let module = self.sys.module(m);
            let leaves = module.lower.iter().chain(module.upper.iter());
            let mut named = Vec::new();
            for (slot, n) in leaves.filter(|(_, n)| n.level == 0 && n.key != NEG_INF) {
                let record = module.leaves.get_opt(n.local_ref);
                ensure!(
                    record.is_some_and(|r| r.slot == slot),
                    "module {m}: leaf {} names record {}, which is not its own",
                    n.key,
                    n.local_ref
                );
                named.push(n.local_ref);
            }
            named.sort_unstable();
            let held: Vec<u32> = module.leaves.iter().map(|(r, _)| r).collect();
            ensure!(
                named == held,
                "module {m}: {} leaves name leaf records {:?}, the table holds {:?}",
                named.len(),
                named,
                held
            );
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
    use crate::node::{LeafRecord, NIL};

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
        let r = list.sys.module(m).node(leaf).local_ref;
        list.sys.module_mut(m).leaves.get_mut(r).local_right = NIL;
        let err = list.validate().unwrap_err();
        assert!(
            err.contains("local leaf list")
                || err.contains("local_left")
                || err.contains("leaf_tail"),
            "got: {err}"
        );
    }

    #[test]
    fn detects_local_left_mismatch() {
        let mut list = build();
        // The second leaf of module 0's list claims to come first.
        let second = list
            .sys
            .module(0)
            .leaves
            .get(list.sys.module(0).leaf_head)
            .local_right;
        list.sys.module_mut(0).leaves.get_mut(second).local_left = NIL;
        let err = list.validate().unwrap_err();
        assert!(err.contains("local_left mismatch"), "got: {err}");
    }

    #[test]
    fn detects_a_cleared_inverse() {
        let mut list = build();
        let (m, r) = (0..list.p())
            .find_map(|m| {
                let mut records = list.sys.module(m).leaves.iter();
                records.find(|(_, r)| r.inverse != NIL).map(|(r, _)| (m, r))
            })
            .expect("some leaf is a shortcut's target");
        list.sys.module_mut(m).leaves.get_mut(r).inverse = NIL;
        let err = list.validate().unwrap_err();
        assert!(err.contains("inverse shortcut"), "got: {err}");
    }

    #[test]
    fn detects_a_stale_chain_record() {
        let mut list = build();
        let (m, r) = (0..list.p())
            .find_map(|m| {
                let mut records = list.sys.module(m).leaves.iter();
                records
                    .find(|(_, r)| !r.chain.is_empty())
                    .map(|(r, _)| (m, r))
            })
            .expect("some leaf has a tower");
        list.sys.module_mut(m).leaves.get_mut(r).chain = Box::default();
        let err = list.validate().unwrap_err();
        assert!(err.contains("chain record"), "got: {err}");
    }

    #[test]
    fn detects_an_orphan_leaf_record() {
        let mut list = build();
        list.sys.module_mut(1).leaves.alloc(LeafRecord::new(0, 0));
        let err = list.validate().unwrap_err();
        assert!(err.contains("leaf records"), "got: {err}");
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
