//! Skip-list nodes and their pointer structure (§3.2, Fig. 2).
//!
//! Each node carries the four classic pointers (`left`, `right`, `up`,
//! `down`). The paper's three range-query pointers are per module:
//! `local_left` / `local_right` chain the leaves *within one module* into
//! the local leaf list, and `next_leaf` points from an upper-part leaf into
//! that list (dashed pointers of Fig. 2). Only some roles use them, so a
//! [`Node`] holds what every level uses plus one module-local `u32`,
//! [`Node::local_ref`], whose meaning depends on the node's role:
//!
//! | role                               | `local_ref`                       | leaf record                                                  |
//! |------------------------------------|-----------------------------------|--------------------------------------------------------------|
//! | lower-part leaf (level 0)          | its record                        | `slot`, `value`, `local_left`, `local_right`, inverse, chain |
//! | lower-part tower node (`1..h_low`) | [`NIL`]                           | —                                                            |
//! | upper-part leaf (level `h_low`)    | `next_leaf`: its target's record  | —                                                            |
//! | upper-part tower node (`> h_low`)  | [`NIL`]                           | —                                                            |
//! | the −∞ leaf (replicated slot 0)    | [`NIL`]                           | — (`local_right`: `SkipModule::leaf_head`)                   |
//!
//! Every role uses the rest: `key`, `right_key`, `left`, `right`, `up`,
//! `down`, `level` and `deleted`. Only a leaf has a value, so the value
//! lives in its record, not in the node. A shortcut names a leaf of the
//! replica's own module, or nothing ([`NIL`]). The leaf records live in a
//! per-module arena beside the node arenas (`SkipModule::leaves`). Under
//! the `h_low = 0` ablation every leaf is a replica and there is no local
//! leaf list; each module then keeps a record per replicated leaf that only
//! its value and chain use.
//!
//! A record also holds what the paper does not have: the *inverse* of the
//! shortcuts, the rightmost upper leaf whose shortcut in this module is the
//! leaf, so a removal redirects the shortcuts without searching for them.
//!
//! Two implementation-level fields:
//!
//! * `right_key` caches the right neighbour's key so a search can decide
//!   "move right vs. move down" without a network hop to the neighbour —
//!   the standard distributed-skip-list device; it is maintained by every
//!   pointer write and keeps the per-lower-node cost at the paper's `O(1)`
//!   messages.
//! * `chain` stores, in each leaf's record, the handles of all tower nodes
//!   above it (the paper's step 5 of Insert: "record addresses of all
//!   lower-part new nodes in its up chain, and the existence of an
//!   upper-part node"; we keep the upper handles too instead of a boolean —
//!   same O(height) words, and it lets Delete unlink replicas without a
//!   search).
//!
//! The model words do not follow the host layout: a node is
//! [`Node::WORDS`] words (its value word included) and a leaf adds its
//! chain, wherever the fields sit.

use pim_runtime::Handle;

use crate::config::{Key, Value, POS_INF};

/// The empty module-local reference: no record, no shortcut, no link.
pub const NIL: u32 = u32::MAX;

// A field that grows a node or a leaf record is a reviewed diff: at the
// benchmark's `P = 64`, `n = 2^17` there are ~520k nodes and 131k leaf
// records, so 8 B more per node is +4 MiB. An arena slot is an
// `Option<Node>`, which the `deleted` flag's niche keeps at a node's size.
const _: () = assert!(std::mem::size_of::<Node>() <= 56);
const _: () = assert!(std::mem::size_of::<Option<Node>>() == std::mem::size_of::<Node>());
const _: () = assert!(std::mem::size_of::<LeafRecord>() <= 40);

/// One skip-list node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The node's key (`NEG_INF` for sentinels).
    pub key: Key,
    /// Cached key of `right` (`POS_INF` when `right` is null).
    pub right_key: Key,
    /// Left neighbour at this level.
    pub left: Handle,
    /// Right neighbour at this level.
    pub right: Handle,
    /// Same-tower node one level up (null at tower top).
    pub up: Handle,
    /// Same-tower node one level down (null at leaves).
    pub down: Handle,
    /// The one per-module field (see the table in the module doc): a leaf's
    /// record index, or an upper-part leaf replica's `next_leaf` shortcut —
    /// the record of the first leaf with key `≥` this key in the owning
    /// module's local leaf list. [`NIL`] when unused or empty.
    pub local_ref: u32,
    /// This node's level (0 = leaf).
    pub level: u8,
    /// Tombstone set by Delete before splicing.
    pub deleted: bool,
}

impl Node {
    /// Words of local memory a node occupies for Theorem 3.1 space
    /// accounting: key, value, level, the four pointers, `right_key`, the
    /// three range-query pointers and the tombstone. A leaf adds its chain
    /// ([`LeafRecord::words`]).
    pub const WORDS: u64 = 12;

    /// A fresh unlinked node.
    pub fn new(key: Key, level: u8) -> Self {
        Node {
            key,
            right_key: POS_INF,
            left: Handle::NULL,
            right: Handle::NULL,
            up: Handle::NULL,
            down: Handle::NULL,
            local_ref: NIL,
            level,
            deleted: false,
        }
    }

    /// Is this a leaf?
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

/// The per-module part of a leaf (see the module doc): its value, its
/// links in the module's local leaf list, the inverse of the upper leaves'
/// shortcuts, and its tower chain. The local leaf list links records, not
/// nodes, and each record names its leaf, so a walk along the list chases
/// records and reads a leaf's node only for its key.
#[derive(Debug)]
pub struct LeafRecord {
    /// The leaf's slot in its arena: the local arena, or the replicated one
    /// under `h_low = 0`.
    pub slot: u32,
    /// The stored value.
    pub value: Value,
    /// Record of the previous leaf in the local leaf list ([`NIL`]: the −∞
    /// leaf heads the list before it).
    pub local_left: u32,
    /// Record of the next leaf in the local leaf list ([`NIL`]: this leaf
    /// is the tail).
    pub local_right: u32,
    /// Replicated slot of the rightmost upper leaf whose shortcut in this
    /// module is this leaf ([`NIL`]: none).
    pub inverse: u32,
    /// Handles of the tower nodes above this leaf, bottom-up (levels
    /// `1..=tower_top`). Written once, whole, so a boxed slice: no spare
    /// capacity and no `Vec` capacity word.
    pub chain: Box<[Handle]>,
}

impl LeafRecord {
    /// The record of the leaf at `slot` holding `value`, outside any list,
    /// with no chain yet.
    pub fn new(slot: u32, value: Value) -> Self {
        LeafRecord {
            slot,
            value,
            local_left: NIL,
            local_right: NIL,
            inverse: NIL,
            chain: Box::default(),
        }
    }

    /// Model words the record adds to its leaf's [`Node::WORDS`]: the
    /// chain (the value and the three links are counted with the node).
    pub fn words(&self) -> u64 {
        self.chain.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_unlinked() {
        let n = Node::new(5, 2);
        assert_eq!(n.key, 5);
        assert_eq!(n.level, 2);
        assert!(n.left.is_null() && n.right.is_null());
        assert!(n.up.is_null() && n.down.is_null());
        assert_eq!(n.right_key, POS_INF);
        assert_eq!(n.local_ref, NIL);
        assert!(!n.is_leaf());
        assert!(!n.deleted);
    }

    #[test]
    fn words_count_chain() {
        let mut r = LeafRecord::new(7, 70);
        assert_eq!(r.words(), 0);
        assert_eq!(r.value, 70);
        assert_eq!((r.local_left, r.local_right, r.inverse), (NIL, NIL, NIL));
        r.chain = vec![Handle::local(0, 1), Handle::replicated(2)].into();
        assert_eq!(r.words(), 2);
    }
}
