//! Skip-list nodes and their pointer structure (§3.2, Fig. 2).
//!
//! Each node carries the four classic pointers (`left`, `right`, `up`,
//! `down`) plus the paper's three range-query pointers: `local_left` /
//! `local_right` chaining the leaves *within one module* into the local
//! leaf list, and `next_leaf` pointing from an upper-part leaf into the
//! local leaf list (dashed pointers of Fig. 2). A lower-part leaf reuses its
//! own `next_leaf` for the inverse of those shortcuts.
//!
//! Two implementation-level fields:
//!
//! * `right_key` caches the right neighbour's key so a search can decide
//!   "move right vs. move down" without a network hop to the neighbour —
//!   the standard distributed-skip-list device; it is maintained by every
//!   pointer write and keeps the per-lower-node cost at the paper's `O(1)`
//!   messages.
//! * `chain` stores, in each leaf, the handles of all tower nodes above it
//!   (the paper's step 5 of Insert: "record addresses of all lower-part new
//!   nodes in its up chain, and the existence of an upper-part node"; we
//!   keep the upper handles too instead of a boolean — same O(height)
//!   words, and it lets Delete unlink replicas without a search).

use pim_runtime::Handle;

use crate::config::{Key, Value, POS_INF};

// A field that grows the node is a reviewed diff: at the benchmark's
// `P = 64`, `n = 2^17` there are ~520k nodes, so 8 B more is +4 MiB.
const _: () = assert!(std::mem::size_of::<Node>() <= 104);

/// One skip-list node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's key (`NEG_INF` for sentinels).
    pub key: Key,
    /// The stored value (meaningful at level 0).
    pub value: Value,
    /// This node's level (0 = leaf).
    pub level: u8,
    /// Left neighbour at this level.
    pub left: Handle,
    /// Right neighbour at this level.
    pub right: Handle,
    /// Same-tower node one level up (null at tower top).
    pub up: Handle,
    /// Same-tower node one level down (null at leaves).
    pub down: Handle,
    /// Cached key of `right` (`POS_INF` when `right` is null).
    pub right_key: Key,
    /// Previous leaf in this module's local leaf list (leaves only).
    pub local_left: Handle,
    /// Next leaf in this module's local leaf list (leaves only).
    pub local_right: Handle,
    /// Two per-module roles. On an upper-part leaf: the first leaf with key
    /// `≥` this key in the *owning module's* local leaf list — the one
    /// per-module field of a replicated node (each replica indexes its own
    /// module's list). On a lower-part leaf, which never needs that
    /// shortcut: its inverse, the rightmost upper leaf whose shortcut in
    /// this module is this leaf (`NULL`: none), so a removal redirects the
    /// shortcuts without searching for them.
    pub next_leaf: Handle,
    /// Leaves only: handles of the tower nodes above this leaf, bottom-up
    /// (levels `1..=tower_top`). Written once, whole, so a boxed slice:
    /// no spare capacity and no `Vec` capacity word.
    pub chain: Box<[Handle]>,
    /// Tombstone set by Delete before splicing.
    pub deleted: bool,
}

impl Node {
    /// A fresh unlinked node.
    pub fn new(key: Key, value: Value, level: u8) -> Self {
        Node {
            key,
            value,
            level,
            left: Handle::NULL,
            right: Handle::NULL,
            up: Handle::NULL,
            down: Handle::NULL,
            right_key: POS_INF,
            local_left: Handle::NULL,
            local_right: Handle::NULL,
            next_leaf: Handle::NULL,
            chain: Box::default(),
            deleted: false,
        }
    }

    /// Words of local memory this node occupies (constant plus the leaf
    /// chain), for Theorem 3.1 space accounting.
    pub fn words(&self) -> u64 {
        12 + self.chain.len() as u64
    }

    /// Is this a leaf?
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_unlinked() {
        let n = Node::new(5, 50, 2);
        assert_eq!(n.key, 5);
        assert_eq!(n.level, 2);
        assert!(n.left.is_null() && n.right.is_null());
        assert!(n.up.is_null() && n.down.is_null());
        assert_eq!(n.right_key, POS_INF);
        assert!(!n.is_leaf());
        assert!(!n.deleted);
    }

    #[test]
    fn words_count_chain() {
        let mut n = Node::new(1, 1, 0);
        let w0 = n.words();
        n.chain = vec![Handle::local(0, 1), Handle::replicated(2)].into_boxed_slice();
        assert_eq!(n.words(), w0 + 2);
        assert!(n.is_leaf());
    }
}
