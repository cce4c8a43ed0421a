//! The `TaskSend` protocol of the PIM skip list.
//!
//! Every variant corresponds to a constant-size message of the model
//! (function id + arguments; the few `Vec` payloads are CPU-side broadcast
//! batches whose length is already charged as separate messages by the
//! driver). Tasks are executed by [`crate::module::SkipModule`]; replies
//! land in CPU shared memory.

use pim_runtime::Handle;

use crate::config::{Key, Value, NEG_INF, POS_INF};

/// Operation id used by [`Reply::Faulted`] when the failed task carried no
/// batch-local id (pure write tasks such as `WriteRight` or `FreeNode`).
pub const NO_OP: u32 = u32::MAX;

/// What a search should report back (§4.2 vs. §4.3 usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Point query: report the level-0 predecessor and successor only.
    Point,
    /// Insert support: additionally report the per-level predecessor and
    /// its right neighbour for every level `1..=top` (level 0 arrives via
    /// [`Reply::SearchDone`]).
    PredLevels {
        /// Top tower level of the key being inserted.
        top: u8,
    },
}

/// Where a search stops, and what it carries besides its key (§4.2). One
/// field serves both kinds: a phase-0 walk never leaves the replicated
/// part, so it is never forwarded with an anchor, and no other walk reads a
/// bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Stage-1 phase 0: walk the replicated part only and answer
    /// [`Reply::LowerEntry`] at the first non-replicated handle instead of
    /// forwarding the search there.
    Entry {
        /// The pivot's bracket `(lo, hi)` — the first key of the
        /// half-bracket before it and the last of the one after it — that
        /// its [`Fingers`] must cover.
        bracket: (Key, Key),
    },
    /// Every other search: descend to level 0 and answer
    /// [`Reply::SearchDone`].
    Descend {
        /// The search's anchor so far: the level-`h_low` node its walk
        /// descends from. The driver supplies it for a walk that starts
        /// below that level (`NULL` otherwise); a walk that passes the
        /// level records it there.
        anchor: Handle,
    },
}

/// The function applied by a `RangeOperation` (§5).
///
/// `Read`/`FetchAdd` return one message per pair (the paper's "values can
/// be returned in `O(K/P)` whp IO time"); `Count`/`Sum` are the associative
/// reductions the paper notes can be folded inside the PIM modules;
/// `AddInPlace` writes without returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeFunc {
    /// Return every `(key, value)` in range.
    Read,
    /// Count pairs in range (reduced per module/fragment).
    Count,
    /// Sum values in range (reduced per module/fragment).
    Sum,
    /// Minimum value in range (reduced per module/fragment).
    Min,
    /// Maximum value in range (reduced per module/fragment).
    Max,
    /// Atomically add `delta` to each value, returning the old values.
    FetchAdd(u64),
    /// Add `delta` to each value, returning nothing.
    AddInPlace(u64),
}

impl RangeFunc {
    /// Does this function return one message per visited pair?
    pub fn returns_items(self) -> bool {
        matches!(self, RangeFunc::Read | RangeFunc::FetchAdd(_))
    }
}

/// Tasks executed on PIM modules.
#[derive(Debug, Clone)]
pub enum Task {
    // ----- §4.1: hash-shortcut point operations -----
    /// Look `key` up in the module's local index.
    Get {
        /// Batch-local operation id.
        op: u32,
        /// Key to fetch.
        key: Key,
    },
    /// Update `key` in place if present.
    Update {
        /// Batch-local operation id.
        op: u32,
        /// Key to update.
        key: Key,
        /// New value.
        value: Value,
    },

    /// Dereference a node pointer: return its `(key, value)` (the model's
    /// "tasks specify a shared-memory address to write back the task's
    /// return value" — used to read through handles returned by
    /// Successor/Predecessor).
    ReadNode {
        /// Batch-local operation id.
        op: u32,
        /// The node to read (resolvable at the receiver).
        node: Handle,
    },

    // ----- §4.2: search -----
    /// Continue a skip-list search from `at` (resolvable at the receiver).
    Search {
        /// Batch-local operation id.
        op: u32,
        /// Search key.
        key: Key,
        /// Node to continue from.
        at: Handle,
        /// What to report.
        mode: SearchMode,
        /// Stream every lower-part node the walk visits back to shared
        /// memory as a [`Reply::PathNode`] (pivot path recording, §4.2
        /// stage 1).
        record: bool,
        /// Where the walk stops and what it carries.
        walk: Walk,
    },

    // ----- §4.3: batched Upsert -----
    /// Allocate a lower-part node for `key` at `level` in this module. A
    /// leaf also enters the local index and the local leaf list; the module
    /// finds its place by descending the replica from `from`.
    AllocLower {
        /// Batch-local operation id.
        op: u32,
        /// Key of the new tower.
        key: Key,
        /// Value (kept in the leaf's record; unused above level 0).
        value: Value,
        /// Node level.
        level: u8,
        /// Leaves only: the key's anchor, its level-`h_low` predecessor
        /// (one descent step), or `NULL` for the descent start. Any
        /// replicated node on the key's search path at or above `h_low`
        /// serves. A module that does not hold it answers
        /// [`Reply::Faulted`].
        from: Handle,
    },
    /// Set a lower-part node's vertical pointers.
    WireVertical {
        /// Target node (local to the receiver).
        node: Handle,
        /// Upward pointer value.
        up: Handle,
        /// Downward pointer value.
        down: Handle,
    },
    /// Broadcast: materialise an upper-part node at `slot` and splice it in
    /// locally — the mirror image of [`Task::UnlinkUpper`]. Each module
    /// links it after `pred` (`pred.right`, its cached key and
    /// `right.left`), points `down.up` at it when `down` is replicated,
    /// re-aims its descent start, and for an upper-part leaf computes the
    /// per-module `next_leaf` by walking its local leaf list from `pred`'s
    /// shortcut. A level-0 node (the `h_low = 0` ablation) also enters the
    /// index of the module its key hashes to. A module whose slot is taken
    /// or that lacks `pred`, `pred.right` or a replicated `down` answers
    /// [`Reply::Faulted`] and changes nothing.
    LinkUpper {
        /// Replicated-arena slot chosen by the CPU shadow allocator.
        slot: u32,
        /// Key of the new tower.
        key: Key,
        /// Node level.
        level: u8,
        /// Value (kept in each module's record of a level-0 node, the
        /// `h_low = 0` ablation; unused above level 0).
        value: Value,
        /// The node's left neighbour after linking: its level predecessor
        /// before the batch, or the previous new node at this level when
        /// they share it (that node's `LinkUpper` came just before in the
        /// same inbox).
        pred: Handle,
        /// The tower's node one level down (`NULL` at level 0).
        down: Handle,
    },
    /// Record a leaf's tower chain (Insert step 5).
    SetLeafChain {
        /// The leaf.
        leaf: Handle,
        /// Handles of levels `1..=top`, bottom-up.
        chain: Vec<Handle>,
    },
    /// `RemoteWrite(node.right, to)` — with the cached key maintained.
    WriteRight {
        /// Node whose `right` is written.
        node: Handle,
        /// New right neighbour.
        to: Handle,
        /// `to`'s key (cache maintenance).
        to_key: Key,
    },
    /// `RemoteWrite(node.left, to)`.
    WriteLeft {
        /// Node whose `left` is written.
        node: Handle,
        /// New left neighbour.
        to: Handle,
    },
    /// `RemoteWrite(node.value, value)` — CPU-side write-back of range
    /// updates (§5.2 step 4).
    WriteValue {
        /// Target leaf.
        node: Handle,
        /// New value.
        value: Value,
    },

    // ----- §4.4: batched Delete -----
    /// Delete `key` from this module via the local index; marks the leaf,
    /// unlinks it from the local leaf list, and fans out `MarkNode`s.
    DeleteKey {
        /// Batch-local operation id.
        op: u32,
        /// Key to delete.
        key: Key,
    },
    /// Mark one lower-part tower node deleted and report its links.
    MarkNode {
        /// Batch-local operation id.
        op: u32,
        /// The node to mark.
        node: Handle,
    },
    /// Broadcast: splice the given replicated slots out of the upper part
    /// and free them (in the given order, identically on every module).
    UnlinkUpper {
        /// Slots to unlink, CPU-ordered.
        slots: Vec<u32>,
    },
    /// Free a spliced-out lower-part node.
    FreeNode {
        /// The node to free.
        node: Handle,
    },

    // ----- §5: range operations -----
    /// Broadcast flavour (§5.1): apply `func` to this module's local pairs
    /// within `[lo, hi]`.
    RangeBroadcast {
        /// Batch-local operation id.
        op: u32,
        /// Inclusive lower bound.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Function to apply.
        func: RangeFunc,
    },
    /// Tree flavour (§5.2): fan down the search area from `at`, covering
    /// keys in `[lo, hi]` (both already clipped to this subtree).
    RangeDescend {
        /// Batch-local (sub)operation id.
        op: u32,
        /// Node to continue from.
        at: Handle,
        /// Inclusive lower bound.
        lo: Key,
        /// Inclusive upper bound (already min-ed with the subtree's span).
        hi: Key,
        /// Function to apply at leaves.
        func: RangeFunc,
    },
}

/// The replicated nodes a phase-0 walk marks (§4.2), at levels `h_low` up
/// to the descent start. Two are stage-2 starts: the lowest nodes of the
/// path that also lie on the search path of every key of the half-bracket
/// beside the pivot (`NULL` where no node qualifies; such keys start at the
/// root). The third is the pivot's anchor, which also gives the pivot's
/// *gap*: the key interval of the lower part below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingers {
    /// For the keys in `[lo, pivot)`: the lowest node with key `< lo`.
    pub left: Handle,
    /// For the keys in `(pivot, hi]`: the lowest node with right key `≥ hi`.
    pub right: Handle,
    /// The lowest node of all, the level-`h_low` node the walk descends
    /// from: the pivot's anchor, shared by every key that follows the pivot
    /// below a lower-part hint.
    pub anchor: Handle,
    /// The anchor's key and its right key: a tower below `h_low` for a key
    /// of this interval creates and rewires nodes strictly inside it, and
    /// writes only the `right` of the anchor's tower and the `left` of the
    /// right one. The whole key space where the walk marked no anchor.
    pub gap: (Key, Key),
}

impl Default for Fingers {
    fn default() -> Self {
        Fingers {
            left: Handle::NULL,
            right: Handle::NULL,
            anchor: Handle::NULL,
            gap: (NEG_INF, POS_INF),
        }
    }
}

impl Fingers {
    /// Mark the walk's descend step at `at` (`key < pivot ≤ right_key`)
    /// against the bracket `(lo, hi)`: a key in `[lo, pivot)` or
    /// `(pivot, hi]` that the node's interval also holds descends here too.
    /// Walks run top-down, so the last node marked is the lowest.
    pub(crate) fn mark(&mut self, at: Handle, key: Key, right_key: Key, (lo, hi): (Key, Key)) {
        if key < lo {
            self.left = at;
        }
        if right_key >= hi {
            self.right = at;
        }
    }
}

// Every message of every round moves a `Task` through the engine's inboxes
// and outboxes, so a variant that grows it past 48 bytes is a reviewed diff.
const _: () = assert!(std::mem::size_of::<Task>() <= 48);

/// Replies returned to CPU shared memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A dereferenced node.
    NodeValue {
        /// Operation id.
        op: u32,
        /// The node's key.
        key: Key,
        /// The node's value.
        value: Value,
    },
    /// Get result.
    GotValue {
        /// Operation id.
        op: u32,
        /// The value, if the key was present.
        value: Option<Value>,
    },
    /// Update result.
    Updated {
        /// Operation id.
        op: u32,
        /// Whether the key was present.
        found: bool,
    },
    /// One visited lower-part node on a recorded search path (in visit
    /// order; one message per node, §4.2 stage 1).
    PathNode {
        /// Operation id.
        op: u32,
        /// The visited node.
        node: Handle,
    },
    /// The node at which a [`Walk::Entry`] search leaves the replicated
    /// part (§4.2 stage 1, phase 0): pivots with different entries have
    /// node-disjoint lower-part paths.
    LowerEntry {
        /// Operation id.
        op: u32,
        /// First non-replicated node on the search path.
        node: Handle,
        /// Stage-2 starts for the half-brackets beside the pivot, and the
        /// pivot's anchor and gap.
        fingers: Fingers,
    },
    /// Per-level predecessor for an insert search.
    PredAt {
        /// Operation id.
        op: u32,
        /// Level this report is for.
        level: u8,
        /// Rightmost node with key `< search key` at `level`.
        pred: Handle,
        /// `pred`'s right neighbour at search time.
        succ: Handle,
        /// `succ`'s key (cache maintenance for Algorithm 1's writes).
        succ_key: Key,
    },
    /// Terminal search report (level 0).
    SearchDone {
        /// Operation id.
        op: u32,
        /// Level-0 predecessor (key `<` search key).
        pred: Handle,
        /// Its key.
        pred_key: Key,
        /// Level-0 successor (key `≥` search key; null at list end).
        succ: Handle,
        /// Its key (`POS_INF` when null).
        succ_key: Key,
        /// The search's anchor: the level-`h_low` node its walk descended
        /// from, where a new leaf for the key starts its local-list
        /// descent (see [`Walk::Descend`]).
        anchor: Handle,
    },
    /// A lower-part node was allocated.
    Alloced {
        /// Operation id.
        op: u32,
        /// Node level.
        level: u8,
        /// The new node's handle.
        node: Handle,
    },
    /// A `DeleteKey` hit a missing key.
    DeleteMissing {
        /// Operation id.
        op: u32,
    },
    /// A node was marked deleted (leaf or tower node).
    Marked {
        /// Operation id.
        op: u32,
        /// The marked node.
        node: Handle,
        /// Its level.
        level: u8,
        /// Its key.
        key: Key,
        /// Left neighbour at marking time.
        left: Handle,
        /// For lower-part leaves: the key of the leaf left of it in its
        /// module's local leaf list, a lower bound on its left neighbour's
        /// key (`NEG_INF` otherwise).
        left_bound: Key,
        /// Right neighbour at marking time.
        right: Handle,
        /// Cached right key at marking time.
        right_key: Key,
        /// For leaves: replicated slots of the tower's upper nodes (empty
        /// otherwise) — batched by the CPU into one `UnlinkUpper`.
        upper_slots: Vec<u32>,
    },
    /// One `(key, value)` produced by a range function.
    RangeItem {
        /// Operation id.
        op: u32,
        /// The leaf holding the pair (for CPU-side write-back).
        node: Handle,
        /// Pair key.
        key: Key,
        /// Pair value (old value for `FetchAdd`).
        value: Value,
    },
    /// An aggregated range fragment (Count/Sum/Min/Max).
    RangeAgg {
        /// Operation id.
        op: u32,
        /// Pairs visited by this fragment.
        count: u64,
        /// Sum of values visited by this fragment.
        sum: u64,
        /// Minimum value visited (`u64::MAX` when none).
        min: Value,
        /// Maximum value visited (`0` when none).
        max: Value,
    },
    /// The module could not execute a task because local state it needed is
    /// missing (e.g. a dangling handle after a crash wiped the module).
    /// The driver treats this as a recoverable loss, never an answer.
    Faulted {
        /// The failed task's operation id, or [`NO_OP`] for pure writes.
        op: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_func_return_classification() {
        assert!(RangeFunc::Read.returns_items());
        assert!(RangeFunc::FetchAdd(1).returns_items());
        assert!(!RangeFunc::Count.returns_items());
        assert!(!RangeFunc::Sum.returns_items());
        assert!(!RangeFunc::AddInPlace(2).returns_items());
    }
}
