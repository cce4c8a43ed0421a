//! The per-module state and task handlers of the PIM skip list.
//!
//! A [`SkipModule`] is one PIM module's view of the structure (§3.1):
//!
//! * a **replicated arena** holding the upper part *and* the −∞ sentinel
//!   tower (identical slots on every module; the paper replicates the −∞
//!   tower's upper nodes and we extend the replication to the whole
//!   sentinel tower — O(log n) nodes — so every module has a local list
//!   head, see Fig. 2 where −∞ is drawn white/replicated at every level).
//!   The tower is built to the level cap, far above any linked level, so
//!   each replica caches its **descent start** — the highest sentinel with
//!   a linked `right` — and walks begin there;
//! * a **local arena** holding the lower-part nodes hashed to this module
//!   by `(key, level)`;
//! * the **local index** (de-amortized cuckoo map, §4.1) mapping keys of
//!   locally-owned leaves to their handles;
//! * the **leaf records** ([`LeafRecord`]), one per local leaf, in an arena
//!   of their own: the leaf's slot and value, its `local_left`/
//!   `local_right` links, the inverse of the shortcuts below, and its tower
//!   chain;
//! * the **local leaf list** (records linked through their
//!   `local_left`/`local_right`, headed by [`SkipModule::leaf_head`], +
//!   per-replica `next_leaf` shortcuts to records, held in the upper
//!   leaves' [`Node::local_ref`]), maintained on every leaf
//!   allocation/removal. Each local leaf's record holds the shortcut's
//!   inverse: the rightmost upper leaf whose shortcut names it. Upkeep
//!   never descends from the descent start: an insert starts at its key's
//!   anchor, the level-`h_low` predecessor its search found (one descent
//!   step), a remove walks left from the inverse, and a new upper leaf
//!   walks the local list from its predecessor's shortcut. Each is `O(1)`
//!   expected.
//!
//! Upper-part nodes enter and leave the replicated arena by local splices
//! that every module applies identically, one broadcast each way:
//! [`Task::LinkUpper`] splices one new node in after its predecessor,
//! [`Task::UnlinkUpper`] splices a batch out.

use std::collections::HashMap;

use pim_runtime::hashfn::hash2;
use pim_runtime::{Handle, ModuleCtx, ModuleId, PimModule};

use pim_hashtable::DeamortizedMap;

use crate::arena::Arena;
use crate::config::{Key, Value, NEG_INF, POS_INF};
use crate::node::{LeafRecord, Node, NIL};
use crate::tasks::{Fingers, RangeFunc, Reply, SearchMode, Task, Walk, NO_OP};

/// Per-fragment aggregation state of the reduction range functions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Agg {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Agg {
    fn new() -> Self {
        Agg {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn absorb(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn any(&self) -> bool {
        self.count > 0
    }
}

/// Construction parameters shared by all modules of one structure.
#[derive(Debug, Clone)]
pub struct ModuleParams {
    /// Number of PIM modules, `P`.
    pub p: u32,
    /// Lower-part height: levels `0..h_low` are distributed.
    pub h_low: u8,
    /// Topmost level (the tower cap).
    pub max_level: u8,
    /// The structure's secret seed: each module derives its index's hash
    /// functions from it and its id (§2 assumes hash functions the
    /// adversary does not know).
    pub seed: u64,
    /// Record per-node access counts during Search tasks (Lemma 4.2).
    pub track_contention: bool,
}

/// One PIM module of the skip list.
pub struct SkipModule {
    id: ModuleId,
    params: ModuleParams,
    /// Replicated arena (upper part + −∞ tower).
    pub upper: Arena,
    /// Local arena (lower-part nodes owned by this module).
    pub lower: Arena,
    /// Leaf records: one per leaf this module holds besides the −∞ leaf,
    /// named by the leaf's [`Node::local_ref`] (a lower-part leaf, or every
    /// replicated leaf under `h_low = 0`).
    pub(crate) leaves: Arena<LeafRecord>,
    /// Local key → leaf-handle index.
    pub index: DeamortizedMap,
    /// Level of the descent start: the highest −∞ sentinel whose `right`
    /// is linked, never below `h_low`. Every level above it is empty, so a
    /// walk that starts here visits what a walk from the tower's top would,
    /// minus one hop per empty level. Kept by [`Self::retarget_start`].
    start_level: u8,
    /// The −∞ leaf (replicated) heading this module's local leaf list.
    pub inf_leaf: Handle,
    /// Record of the first leaf of this module's local leaf list — the −∞
    /// leaf's `local_right`, the one per-module link of a replicated leaf
    /// ([`NIL`] when empty).
    pub(crate) leaf_head: u32,
    /// Record of the last leaf of this module's local leaf list ([`NIL`]:
    /// the −∞ leaf, when empty).
    pub(crate) leaf_tail: u32,
    /// Lemma 4.2 instrumentation: per-node access counts of Search tasks
    /// since the last [`SkipModule::take_contention`].
    pub contention: HashMap<u64, u32>,
}

impl SkipModule {
    /// A module with the −∞ sentinel tower materialised in the replicated
    /// arena at slots `0..=max_level` (slot = level, fixed convention).
    pub fn new(id: ModuleId, params: ModuleParams) -> Self {
        let mut upper = Arena::new();
        let max = params.max_level;
        for level in 0..=max {
            let mut n = Node::new(crate::config::NEG_INF, level);
            if level < max {
                n.up = Handle::replicated(u32::from(level) + 1);
            }
            if level > 0 {
                n.down = Handle::replicated(u32::from(level) - 1);
            }
            upper.insert_at(u32::from(level), n);
        }
        let inf_leaf = Handle::replicated(0);
        let index = DeamortizedMap::new(64, hash2(params.seed, 0x1d, u64::from(id)));
        SkipModule {
            id,
            start_level: params.h_low,
            params,
            upper,
            lower: Arena::new(),
            leaves: Arena::new(),
            index,
            inf_leaf,
            leaf_head: NIL,
            leaf_tail: NIL,
            contention: HashMap::new(),
        }
    }

    /// Where this replica's descents start (see `start_level`).
    pub fn start(&self) -> Handle {
        Handle::replicated(u32::from(self.start_level))
    }

    /// Re-aim the descent start after the `right` pointer of the replica
    /// at `slot` was written (a no-op unless `slot` is a −∞ sentinel —
    /// slot = level for those). Raising is one comparison; lowering walks
    /// down while the levels are empty, and that walk is the returned work.
    fn retarget_start(&mut self, slot: u32) -> u64 {
        if slot > u32::from(self.params.max_level) {
            return 0;
        }
        let level = slot as u8;
        if level > self.start_level {
            if self.upper.get(slot).right.is_some() {
                self.start_level = level;
            }
            return 0;
        }
        let mut work = 0;
        while self.start_level > self.params.h_low
            && self.upper.get(u32::from(self.start_level)).right.is_null()
        {
            self.start_level -= 1;
            work += 1;
        }
        work
    }

    /// Can this module resolve `h` in its own memory?
    #[inline]
    pub fn resolvable(&self, h: Handle) -> bool {
        h.is_replicated() || h.module() == self.id
    }

    /// Does this replica hold the replicated node `h`? A module restarted
    /// cold holds only the −∞ tower, so a handle the CPU found before the
    /// crash may name nothing here.
    fn holds_replica(&self, h: Handle) -> bool {
        h.is_replicated() && self.upper.contains(h.slot())
    }

    /// Read a node (must be resolvable).
    pub fn node(&self, h: Handle) -> &Node {
        debug_assert!(
            self.resolvable(h),
            "module {} cannot resolve {h:?}",
            self.id
        );
        if h.is_replicated() {
            self.upper.get(h.slot())
        } else {
            self.lower.get(h.slot())
        }
    }

    /// Write access to a node (must be resolvable).
    pub fn node_mut(&mut self, h: Handle) -> &mut Node {
        debug_assert!(
            self.resolvable(h),
            "module {} cannot resolve {h:?}",
            self.id
        );
        if h.is_replicated() {
            self.upper.get_mut(h.slot())
        } else {
            self.lower.get_mut(h.slot())
        }
    }

    /// Fault-tolerant node read: `None` for unresolvable or dangling
    /// handles instead of panicking. Task handlers reached from the CPU
    /// driver use this so a post-crash dangling handle yields a
    /// [`Reply::Faulted`] the driver can recover from, not an abort.
    pub fn try_node(&self, h: Handle) -> Option<&Node> {
        if !self.resolvable(h) {
            return None;
        }
        if h.is_replicated() {
            self.upper.get_opt(h.slot())
        } else {
            self.lower.get_opt(h.slot())
        }
    }

    /// Fault-tolerant node write access; see [`SkipModule::try_node`].
    pub fn try_node_mut(&mut self, h: Handle) -> Option<&mut Node> {
        if !self.resolvable(h) {
            return None;
        }
        if h.is_replicated() {
            self.upper.get_mut_opt(h.slot())
        } else {
            self.lower.get_mut_opt(h.slot())
        }
    }

    /// The record of `leaf`, a leaf other than the −∞ leaf.
    pub(crate) fn record(&self, leaf: Handle) -> &LeafRecord {
        self.leaves.get(self.node(leaf).local_ref)
    }

    /// Write access to the record of `leaf`; see [`Self::record`].
    fn record_mut(&mut self, leaf: Handle) -> &mut LeafRecord {
        let record = self.node(leaf).local_ref;
        self.leaves.get_mut(record)
    }

    /// The record index of `leaf`, or `None` when it is unresolvable,
    /// dangling or not a leaf (an upper leaf's `local_ref` is a shortcut).
    fn try_record_index(&self, leaf: Handle) -> Option<u32> {
        let n = self.try_node(leaf)?;
        n.is_leaf().then_some(n.local_ref)
    }

    /// Fault-tolerant record read: `None` when `leaf` is unresolvable,
    /// dangling or not a leaf with a record (see [`Self::try_node`]).
    fn try_record(&self, leaf: Handle) -> Option<&LeafRecord> {
        self.leaves.get_opt(self.try_record_index(leaf)?)
    }

    /// Fault-tolerant record write access; see [`Self::try_record`].
    fn try_record_mut(&mut self, leaf: Handle) -> Option<&mut LeafRecord> {
        let record = self.try_record_index(leaf)?;
        self.leaves.get_mut_opt(record)
    }

    /// The local leaf whose record is `record` (`NULL` for [`NIL`]).
    fn leaf_of(&self, record: u32) -> Handle {
        if record == NIL {
            Handle::NULL
        } else {
            Handle::local(self.id, self.leaves.get(record).slot)
        }
    }

    /// The leaf after `leaf` (a local leaf or the −∞ leaf) in this module's
    /// local leaf list (`NULL`: none).
    pub(crate) fn local_right(&self, leaf: Handle) -> Handle {
        if leaf == self.inf_leaf {
            self.leaf_of(self.leaf_head)
        } else {
            self.leaf_of(self.record(leaf).local_right)
        }
    }

    /// The leaf before the local leaf `leaf` in this module's local leaf
    /// list (the −∞ leaf heads it).
    pub(crate) fn local_left(&self, leaf: Handle) -> Handle {
        match self.record(leaf).local_left {
            NIL => self.inf_leaf,
            record => self.leaf_of(record),
        }
    }

    /// The last leaf of this module's local leaf list (the −∞ leaf when it
    /// is empty).
    pub(crate) fn local_tail(&self) -> Handle {
        match self.leaf_tail {
            NIL => self.inf_leaf,
            record => self.leaf_of(record),
        }
    }

    /// The inverse shortcut of the local leaf `leaf`: the rightmost upper
    /// leaf whose shortcut in this module is `leaf` (`NULL`: none).
    pub(crate) fn inverse(&self, leaf: Handle) -> Handle {
        match self.record(leaf).inverse {
            NIL => Handle::NULL,
            slot => Handle::replicated(slot),
        }
    }

    /// This replica's `next_leaf` shortcut of the upper leaf at replicated
    /// `slot`: the first local leaf with key `≥` its key (`NULL`: none).
    pub(crate) fn shortcut(&self, slot: u32) -> Handle {
        self.leaf_of(self.upper.get(slot).local_ref)
    }

    /// Give the leaf `leaf`, just placed, a record holding `value` (the −∞
    /// leaf and the other levels keep [`NIL`]).
    fn attach_record(&mut self, leaf: Handle, value: Value) {
        let n = self.node(leaf);
        if n.level == 0 && n.key != NEG_INF {
            let record = self.leaves.alloc(LeafRecord::new(leaf.slot(), value));
            self.node_mut(leaf).local_ref = record;
        }
    }

    /// Free the record of a node leaving this module, if it is a leaf that
    /// has one.
    fn drop_record(&mut self, node: &Node) {
        if node.level == 0 && node.local_ref != NIL {
            self.leaves.free(node.local_ref);
        }
    }

    #[inline]
    fn touch(&mut self, h: Handle) {
        if self.params.track_contention {
            *self.contention.entry(h.to_bits()).or_insert(0) += 1;
        }
    }

    /// Drain the contention counters (driver-side instrumentation; not a
    /// model operation).
    pub fn take_contention(&mut self) -> HashMap<u64, u32> {
        std::mem::take(&mut self.contention)
    }

    /// Toggle per-node access counting at runtime (probe instrumentation;
    /// see [`crate::PimSkipList::set_module_contention_tracking`]).
    pub fn set_contention_tracking(&mut self, on: bool) {
        self.params.track_contention = on;
    }

    // ------------------------------------------------------------------
    // Local upper-part navigation (all replicated, zero messages)
    // ------------------------------------------------------------------

    /// Descend the local replica from `from` to the rightmost node at
    /// `target_level` with key `< k`. `from` is a replicated node on the
    /// search path of `k` at or above `target_level`, or `NULL` for the
    /// descent start. Returns the node and the nodes visited (the work).
    fn upper_descend_from(&self, from: Handle, k: Key, target_level: u8) -> (Handle, u64) {
        let mut cur = if from.is_some() { from } else { self.start() };
        let mut work = 0u64;
        loop {
            work += 1;
            let n = self.upper.get(cur.slot());
            // `right_key < k` implies a right neighbour exists: the null
            // sentinel is `POS_INF`.
            if n.right_key < k {
                cur = n.right;
                debug_assert!(cur.is_replicated(), "upper walk left the replica");
            } else if n.level > target_level {
                cur = n.down;
            } else {
                return (cur, work);
            }
        }
    }

    /// First leaf of this module's local list with key `≥ k`, walking the
    /// list from the shortcut of `upper_leaf` (key `< k`). Returns
    /// `(leaf, predecessor_in_local_list, work)` as records, [`NIL`] for
    /// no leaf and for the −∞ leaf as the predecessor. The walk chases
    /// records; each one's node is read only for its key.
    fn local_walk(&self, upper_leaf: Handle, k: Key) -> (u32, u32, u64) {
        let mut work = 0u64;
        let mut prev = None;
        let mut cur = self.upper.get(upper_leaf.slot()).local_ref;
        while cur != NIL {
            work += 1;
            let r = self.leaves.get(cur);
            if self.lower.get(r.slot).key >= k {
                break;
            }
            prev = Some(cur);
            cur = r.local_right;
        }
        // No local leaf in (upper_leaf.key, k): the local predecessor is
        // whatever precedes `cur` (or the tail when the walk exhausted the
        // list).
        let prev = prev.unwrap_or_else(|| match cur {
            NIL => self.leaf_tail,
            cur => self.leaves.get(cur).local_left,
        });
        (cur, prev, work)
    }

    /// First leaf of this module's local list with key `≥ k`, via the
    /// upper-part `next_leaf` shortcut (§5.1 steps 1–3), descending from
    /// `from` (see [`Self::upper_descend_from`]). Returns
    /// `(anchor, leaf, predecessor_in_local_list, work)` as
    /// [`Self::local_walk`] does, the anchor being the rightmost upper leaf
    /// with key `< k`.
    fn local_successor(&self, from: Handle, k: Key) -> (Handle, u32, u32, u64) {
        let (anchor, descent) = self.upper_descend_from(from, k, self.params.h_low);
        let (succ, prev, walk) = self.local_walk(anchor, k);
        (anchor, succ, prev, descent + walk)
    }

    /// Insert a freshly allocated local leaf into the local leaf list,
    /// descending from `from` (see [`Self::upper_descend_from`]), and
    /// maintain the `next_leaf` shortcuts and their inverses (returns work
    /// done).
    fn local_leaf_insert(&mut self, leaf: Handle, from: Handle) -> u64 {
        let (k, record) = {
            let n = self.lower.get(leaf.slot());
            (n.key, n.local_ref)
        };
        let (anchor, succ, prev, mut work) = self.local_successor(from, k);
        // Splice between prev and succ.
        match prev {
            NIL => self.leaf_head = record,
            prev => self.leaves.get_mut(prev).local_right = record,
        }
        match succ {
            NIL => self.leaf_tail = record,
            succ => self.leaves.get_mut(succ).local_left = record,
        }
        let r = self.leaves.get_mut(record);
        (r.local_left, r.local_right) = (prev, succ);
        // next_leaf fixups: upper leaves U with key ≤ k whose shortcut was
        // `succ` now shortcut to the new leaf. Walk left from the anchor,
        // the rightmost upper leaf with key < k: one with key == k cannot
        // exist yet (the key is new).
        let mut u = anchor;
        loop {
            work += 1;
            let un = self.upper.get_mut(u.slot());
            if un.local_ref != succ {
                break;
            }
            un.local_ref = record;
            let left = un.left;
            if left.is_null() {
                break;
            }
            u = left;
        }
        // A redirected run ends at the anchor, so the anchor is the new
        // leaf's inverse; `succ` keeps its own only if its run reached past
        // `k`.
        if self.upper.get(anchor.slot()).local_ref == record {
            self.leaves.get_mut(record).inverse = anchor.slot();
            if succ != NIL {
                let s = self.leaves.get_mut(succ);
                if s.inverse == anchor.slot() {
                    s.inverse = NIL;
                }
            }
        }
        work
    }

    /// Remove a (marked) local leaf from the local leaf list, fixing
    /// `next_leaf` shortcuts and inverses; returns work done and the key of
    /// its local left leaf.
    fn local_leaf_remove(&mut self, leaf: Handle) -> (u64, Key) {
        debug_assert!(!leaf.is_replicated(), "the −∞ head is never removed");
        let record = self.lower.get(leaf.slot()).local_ref;
        let (prev, next, inverse) = {
            let r = self.leaves.get(record);
            (r.local_left, r.local_right, r.inverse)
        };
        match prev {
            NIL => self.leaf_head = next,
            prev => self.leaves.get_mut(prev).local_right = next,
        }
        match next {
            NIL => self.leaf_tail = prev,
            next => self.leaves.get_mut(next).local_left = prev,
        }
        // Upper leaves shortcutting to this leaf — a run ending at its
        // inverse — now shortcut to `next`, which inherits the inverse if
        // it had none (its own run lies further right).
        let mut work = 0u64;
        let mut u = match inverse {
            NIL => Handle::NULL,
            slot => Handle::replicated(slot),
        };
        while u.is_some() {
            work += 1;
            let un = self.upper.get_mut(u.slot());
            if un.local_ref != record {
                break;
            }
            un.local_ref = next;
            u = un.left;
        }
        if inverse != NIL && next != NIL {
            let n = self.leaves.get_mut(next);
            if n.inverse == NIL {
                n.inverse = inverse;
            }
        }
        let left_key = match prev {
            NIL => NEG_INF,
            prev => self.lower.get(self.leaves.get(prev).slot).key,
        };
        (work, left_key)
    }

    /// Compute `next_leaf` of a new upper leaf replica in this module,
    /// walking the local list from the shortcut of `from`: an upper leaf
    /// left of it whose shortcut is already current. The new leaf becomes
    /// its target's inverse if it lies right of the current one. Returns
    /// the work done.
    fn fix_next_leaf(&mut self, slot: u32, from: Handle) -> u64 {
        let k = self.upper.get(slot).key;
        let (succ, _prev, work) = self.local_walk(from, k);
        self.upper.get_mut(slot).local_ref = succ;
        if succ != NIL {
            self.claim_inverse(succ, slot, k);
        }
        work + 1
    }

    /// Make the upper leaf at `slot`, key `k`, the inverse of the leaf with
    /// record `record` (whose shortcut it now is) if it lies right of the
    /// current inverse.
    fn claim_inverse(&mut self, record: u32, slot: u32, k: Key) {
        let inverse = self.leaves.get(record).inverse;
        if inverse == NIL || self.upper.get(inverse).key < k {
            self.leaves.get_mut(record).inverse = slot;
        }
    }

    // ------------------------------------------------------------------
    // Search (§4.2)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn do_search(
        &mut self,
        op: u32,
        key: Key,
        mut at: Handle,
        mode: SearchMode,
        record: bool,
        walk: Walk,
        ctx: &mut ModuleCtx<'_, Task, Reply>,
    ) {
        let mut fingers = Fingers::default();
        let (bracket, mut anchor) = match walk {
            Walk::Entry { bracket } => (Some(bracket), Handle::NULL),
            Walk::Descend { anchor } => (None, anchor),
        };
        loop {
            if bracket.is_some() && !at.is_replicated() {
                ctx.reply(Reply::LowerEntry {
                    op,
                    node: at,
                    fingers: Fingers { anchor, ..fingers },
                });
                return;
            }
            if !self.resolvable(at) {
                // Only a descending walk leaves the replicated part.
                ctx.send(
                    at.module(),
                    Task::Search {
                        op,
                        key,
                        at,
                        mode,
                        record,
                        walk: Walk::Descend { anchor },
                    },
                );
                return;
            }
            ctx.work(1);
            self.touch(at);
            if record && !at.is_replicated() {
                ctx.reply(Reply::PathNode { op, node: at });
            }
            let Some(n) = self.try_node(at) else {
                // Dangling handle (crashed peer's node referenced through a
                // stale pointer): surface the loss, the driver recovers.
                ctx.reply(Reply::Faulted { op });
                return;
            };
            let (at_key, right, right_key, down, level) =
                (n.key, n.right, n.right_key, n.down, n.level);
            if right_key < key {
                at = right;
                continue;
            }
            // Descend (or finish): `at` is the predecessor at `level`.
            if level == self.params.h_low {
                anchor = at;
                fingers.gap = (at_key, right_key);
            }
            if let Some(bracket) = bracket {
                if (self.params.h_low..=self.start_level).contains(&level) {
                    fingers.mark(at, at_key, right_key, bracket);
                }
            }
            if let SearchMode::PredLevels { top } = mode {
                if level >= 1 && level <= top {
                    ctx.reply(Reply::PredAt {
                        op,
                        level,
                        pred: at,
                        succ: right,
                        succ_key: right_key,
                    });
                }
            }
            if level == 0 {
                ctx.reply(Reply::SearchDone {
                    op,
                    pred: at,
                    pred_key: at_key,
                    succ: right,
                    succ_key: right_key,
                    anchor,
                });
                return;
            }
            debug_assert!(down.is_some(), "non-leaf without down pointer");
            at = down;
        }
    }

    // ------------------------------------------------------------------
    // Range descent (§5.2)
    // ------------------------------------------------------------------

    fn apply_func(
        &mut self,
        op: u32,
        leaf: Handle,
        func: RangeFunc,
        agg: &mut Agg,
        ctx: &mut ModuleCtx<'_, Task, Reply>,
    ) {
        let (key, old) = (self.node(leaf).key, self.record(leaf).value);
        match func {
            RangeFunc::Read => ctx.reply(Reply::RangeItem {
                op,
                node: leaf,
                key,
                value: old,
            }),
            RangeFunc::Count | RangeFunc::Sum | RangeFunc::Min | RangeFunc::Max => {
                agg.absorb(old);
            }
            RangeFunc::FetchAdd(d) => {
                self.record_mut(leaf).value = old.wrapping_add(d);
                ctx.reply(Reply::RangeItem {
                    op,
                    node: leaf,
                    key,
                    value: old,
                });
            }
            RangeFunc::AddInPlace(d) => {
                self.record_mut(leaf).value = old.wrapping_add(d);
            }
        }
    }

    fn do_range_descend(
        &mut self,
        op: u32,
        at: Handle,
        lo: Key,
        hi: Key,
        func: RangeFunc,
        ctx: &mut ModuleCtx<'_, Task, Reply>,
    ) {
        // Fragments still to process locally; remote ones are forwarded.
        let mut agg = Agg::new();
        let mut stack: Vec<(Handle, Key)> = vec![(at, hi)];
        while let Some((mut cur, hi_frag)) = stack.pop() {
            loop {
                if !self.resolvable(cur) {
                    ctx.send(
                        cur.module(),
                        Task::RangeDescend {
                            op,
                            at: cur,
                            lo,
                            hi: hi_frag,
                            func,
                        },
                    );
                    break;
                }
                ctx.work(1);
                let Some(n) = self.try_node(cur) else {
                    ctx.reply(Reply::Faulted { op });
                    return;
                };
                let (key, right, right_key, down, level) =
                    (n.key, n.right, n.right_key, n.down, n.level);
                debug_assert!(key <= hi_frag);
                if level == 0 {
                    if key >= lo {
                        self.apply_func(op, cur, func, &mut agg, ctx);
                    }
                } else if right_key > lo {
                    // The child fragment [key, right_key) intersects the
                    // range: descend, clipped to the fragment.
                    let child_hi = if right_key == POS_INF {
                        hi_frag
                    } else {
                        hi_frag.min(right_key - 1)
                    };
                    stack.push((down, child_hi));
                }
                // Continue walking right at this level within the fragment.
                if right.is_some() && right_key <= hi_frag {
                    cur = right;
                } else {
                    break;
                }
            }
        }
        if !func.returns_items() && agg.any() {
            ctx.reply(Reply::RangeAgg {
                op,
                count: agg.count,
                sum: agg.sum,
                min: agg.min,
                max: agg.max,
            });
        }
    }

    fn do_range_broadcast(
        &mut self,
        op: u32,
        lo: Key,
        hi: Key,
        func: RangeFunc,
        ctx: &mut ModuleCtx<'_, Task, Reply>,
    ) {
        assert!(
            self.params.h_low > 0,
            "broadcast ranges need a distributed lower part (h_low > 0)"
        );
        let (_anchor, mut cur, _prev, work) = self.local_successor(Handle::NULL, lo);
        ctx.work(work);
        let mut agg = Agg::new();
        while cur != NIL {
            ctx.work(1);
            let (slot, next) = {
                let r = self.leaves.get(cur);
                (r.slot, r.local_right)
            };
            if self.lower.get(slot).key > hi {
                break;
            }
            self.apply_func(op, Handle::local(self.id, slot), func, &mut agg, ctx);
            cur = next;
        }
        if !func.returns_items() {
            // Always reply so the CPU can count completion across modules.
            ctx.reply(Reply::RangeAgg {
                op,
                count: agg.count,
                sum: agg.sum,
                min: agg.min,
                max: agg.max,
            });
        }
    }

    // ------------------------------------------------------------------
    // Delete support (§4.4)
    // ------------------------------------------------------------------

    fn do_delete_key(&mut self, op: u32, key: Key, ctx: &mut ModuleCtx<'_, Task, Reply>) {
        ctx.work(1);
        let Some(bits) = self.index.remove(key) else {
            ctx.reply(Reply::DeleteMissing { op });
            return;
        };
        ctx.work(self.index.last_op_work);
        let leaf = Handle::from_bits(bits);
        debug_assert!(self.resolvable(leaf));
        // Mark + gather the leaf record.
        let Some(n) = self.try_node_mut(leaf) else {
            // Index pointed at a vacated slot — only possible after fault
            // damage; report it instead of tearing the simulation down.
            ctx.reply(Reply::Faulted { op });
            return;
        };
        debug_assert!(!n.deleted, "double delete of key {key}");
        n.deleted = true;
        let record = n.local_ref;
        let chain = self.leaves.get(record).chain.clone();
        let mut upper_slots = Vec::new();
        let left_bound = if leaf.is_replicated() {
            // h_low = 0 ablation: the leaf itself is a replica — no local
            // leaf list to maintain; all replicas unlink via UnlinkUpper.
            upper_slots.push(leaf.slot());
            NEG_INF
        } else {
            let (work, local_left) = self.local_leaf_remove(leaf);
            ctx.work(work);
            local_left
        };
        for h in &*chain {
            if h.is_replicated() {
                upper_slots.push(h.slot());
            } else {
                ctx.send(h.module(), Task::MarkNode { op, node: *h });
            }
        }
        let n = self.node(leaf);
        ctx.reply(Reply::Marked {
            op,
            node: leaf,
            level: 0,
            key,
            left: n.left,
            left_bound,
            right: n.right,
            right_key: n.right_key,
            upper_slots,
        });
    }

    fn do_mark_node(&mut self, op: u32, node: Handle, ctx: &mut ModuleCtx<'_, Task, Reply>) {
        ctx.work(1);
        let Some(n) = self.try_node_mut(node) else {
            ctx.reply(Reply::Faulted { op });
            return;
        };
        debug_assert!(!n.deleted, "double mark");
        n.deleted = true;
        let (level, key, left, right, right_key) = (n.level, n.key, n.left, n.right, n.right_key);
        ctx.reply(Reply::Marked {
            op,
            node,
            level,
            key,
            left,
            left_bound: NEG_INF,
            right,
            right_key,
            upper_slots: Vec::new(),
        });
    }

    fn do_unlink_upper(&mut self, slots: &[u32], ctx: &mut ModuleCtx<'_, Task, Reply>) {
        for &slot in slots {
            ctx.work(1);
            let Some(n) = self.upper.get_opt(slot) else {
                // Slot already vacant: a crash or a dropped earlier
                // broadcast left this replica behind. Report, don't splice.
                ctx.reply(Reply::Faulted { op: NO_OP });
                continue;
            };
            let (left, right, right_key) = (n.left, n.right, n.right_key);
            // Only an upper leaf (level `h_low > 0`) holds a shortcut.
            let upper_leaf = n.level == self.params.h_low && self.params.h_low > 0;
            let target = if upper_leaf { n.local_ref } else { NIL };
            debug_assert!(left.is_replicated(), "upper node with non-replicated left");
            // Check both neighbours before mutating anything so a damaged
            // replica never applies half a splice.
            if self.upper.get_opt(left.slot()).is_none()
                || (right.is_some() && self.upper.get_opt(right.slot()).is_none())
            {
                ctx.reply(Reply::Faulted { op: NO_OP });
                continue;
            }
            // An upper leaf that is its target's inverse hands that role to
            // `left` if `left` shortcuts to the same leaf, else drops it.
            if target != NIL {
                ctx.work(1);
                let heir = if self.upper.get(left.slot()).local_ref == target {
                    left.slot()
                } else {
                    NIL
                };
                if let Some(t) = self.leaves.get_mut_opt(target) {
                    if t.inverse == slot {
                        t.inverse = heir;
                    }
                }
            }
            {
                let l = self.upper.get_mut(left.slot());
                l.right = right;
                l.right_key = right_key;
            }
            if right.is_some() {
                self.upper.get_mut(right.slot()).left = left;
            }
            let gone = self.upper.vacate(slot);
            self.drop_record(&gone);
            ctx.work(self.retarget_start(left.slot()));
        }
    }

    /// Materialise the replica `node` at `slot` and splice it in after
    /// `pred` (see [`Task::LinkUpper`]); `value` is kept only if it is a
    /// leaf. Every handle is checked before anything is written, so a
    /// damaged replica never applies half a splice.
    fn do_link_upper(
        &mut self,
        slot: u32,
        mut node: Node,
        value: Value,
        pred: Handle,
        down: Handle,
        ctx: &mut ModuleCtx<'_, Task, Reply>,
    ) {
        ctx.work(1);
        let right = if self.holds_replica(pred) {
            self.upper.get(pred.slot()).right
        } else {
            Handle::NULL
        };
        if self.upper.contains(slot)
            || !self.holds_replica(pred)
            || (right.is_some() && !self.holds_replica(right))
            || (down.is_replicated() && !self.holds_replica(down))
        {
            // A crash or a dropped earlier broadcast left this replica
            // behind: report rather than clobber or dangle.
            ctx.reply(Reply::Faulted { op: NO_OP });
            return;
        }
        let (key, level) = (node.key, node.level);
        let me = Handle::replicated(slot);
        let p = self.upper.get_mut(pred.slot());
        (node.left, node.right, node.right_key, node.down) = (pred, right, p.right_key, down);
        (p.right, p.right_key) = (me, key);
        self.upper.insert_at(slot, node);
        // h_low = 0 ablation: a replicated leaf keeps its value and chain in
        // a record of every module.
        self.attach_record(me, value);
        if right.is_some() {
            self.upper.get_mut(right.slot()).left = me;
        }
        if down.is_replicated() {
            self.upper.get_mut(down.slot()).up = me;
        }
        ctx.work(self.retarget_start(pred.slot()));
        let h_low = self.params.h_low;
        if level == h_low && h_low > 0 {
            ctx.work(self.fix_next_leaf(slot, pred));
        }
        // h_low = 0 ablation: replicated leaves are indexed by the module
        // the key hashes to (point ops only; documented).
        if level == 0
            && pim_runtime::hashfn::module_of(self.params.seed, key, 0, self.params.p) == self.id
        {
            self.index.insert(key, me.to_bits());
            ctx.work(self.index.last_op_work);
        }
    }
}

impl PimModule for SkipModule {
    type Task = Task;
    type Reply = Reply;

    fn execute(&mut self, task: Task, ctx: &mut ModuleCtx<'_, Task, Reply>) {
        match task {
            Task::Get { op, key } => {
                let bits = self.index.get(key);
                ctx.work(1 + self.index.last_op_work);
                match bits {
                    None => ctx.reply(Reply::GotValue { op, value: None }),
                    Some(bits) => match self.try_record(Handle::from_bits(bits)) {
                        Some(r) => {
                            let value = Some(r.value);
                            ctx.reply(Reply::GotValue { op, value });
                        }
                        None => ctx.reply(Reply::Faulted { op }),
                    },
                }
            }
            Task::Update { op, key, value } => {
                let bits = self.index.get(key);
                ctx.work(1 + self.index.last_op_work);
                match bits {
                    None => ctx.reply(Reply::Updated { op, found: false }),
                    Some(bits) => match self.try_record_mut(Handle::from_bits(bits)) {
                        Some(r) => {
                            r.value = value;
                            ctx.reply(Reply::Updated { op, found: true });
                        }
                        None => ctx.reply(Reply::Faulted { op }),
                    },
                }
            }
            Task::ReadNode { op, node } => {
                ctx.work(1);
                match self.try_record(node) {
                    Some(r) => {
                        let (key, value) = (self.node(node).key, r.value);
                        ctx.reply(Reply::NodeValue { op, key, value });
                    }
                    None => ctx.reply(Reply::Faulted { op }),
                }
            }
            Task::Search {
                op,
                key,
                at,
                mode,
                record,
                walk,
            } => self.do_search(op, key, at, mode, record, walk, ctx),
            Task::AllocLower {
                op,
                key,
                value,
                level,
                from,
            } => {
                ctx.work(1);
                if from.is_some() && !self.holds_replica(from) {
                    ctx.reply(Reply::Faulted { op });
                    return;
                }
                let slot = self.lower.alloc(Node::new(key, level));
                let handle = Handle::local(self.id, slot);
                if level == 0 {
                    self.attach_record(handle, value);
                    self.index.insert(key, handle.to_bits());
                    ctx.work(self.index.last_op_work);
                    ctx.work(self.local_leaf_insert(handle, from));
                }
                ctx.reply(Reply::Alloced {
                    op,
                    level,
                    node: handle,
                });
            }
            Task::LinkUpper {
                slot,
                key,
                level,
                value,
                pred,
                down,
            } => self.do_link_upper(slot, Node::new(key, level), value, pred, down, ctx),
            Task::WireVertical { node, up, down } => {
                ctx.work(1);
                match self.try_node_mut(node) {
                    Some(n) => {
                        if up.is_some() {
                            n.up = up;
                        }
                        if down.is_some() {
                            n.down = down;
                        }
                    }
                    None => ctx.reply(Reply::Faulted { op: NO_OP }),
                }
            }
            Task::SetLeafChain { leaf, chain } => {
                ctx.work(1);
                match self.try_record_mut(leaf) {
                    // Exact-size `Vec`: boxing it does not reallocate.
                    Some(r) => r.chain = chain.into_boxed_slice(),
                    None => ctx.reply(Reply::Faulted { op: NO_OP }),
                }
            }
            Task::WriteRight { node, to, to_key } => {
                ctx.work(1);
                match self.try_node_mut(node) {
                    Some(n) => {
                        n.right = to;
                        n.right_key = to_key;
                        if node.is_replicated() {
                            ctx.work(self.retarget_start(node.slot()));
                        }
                    }
                    None => ctx.reply(Reply::Faulted { op: NO_OP }),
                }
            }
            Task::WriteLeft { node, to } => {
                ctx.work(1);
                match self.try_node_mut(node) {
                    Some(n) => n.left = to,
                    None => ctx.reply(Reply::Faulted { op: NO_OP }),
                }
            }
            Task::WriteValue { node, value } => {
                ctx.work(1);
                match self.try_record_mut(node) {
                    Some(r) => r.value = value,
                    None => ctx.reply(Reply::Faulted { op: NO_OP }),
                }
            }
            Task::DeleteKey { op, key } => self.do_delete_key(op, key, ctx),
            Task::MarkNode { op, node } => self.do_mark_node(op, node, ctx),
            Task::UnlinkUpper { slots } => self.do_unlink_upper(&slots, ctx),
            Task::FreeNode { node } => {
                ctx.work(1);
                debug_assert!(
                    !node.is_replicated(),
                    "upper nodes are freed via UnlinkUpper"
                );
                debug_assert_eq!(node.module(), self.id);
                if self.lower.contains(node.slot()) {
                    let gone = self.lower.free(node.slot());
                    self.drop_record(&gone);
                } else {
                    ctx.reply(Reply::Faulted { op: NO_OP });
                }
            }
            Task::RangeBroadcast { op, lo, hi, func } => {
                self.do_range_broadcast(op, lo, hi, func, ctx)
            }
            Task::RangeDescend {
                op,
                at,
                lo,
                hi,
                func,
            } => self.do_range_descend(op, at, lo, hi, func, ctx),
        }
    }

    fn local_words(&self) -> u64 {
        let chains: u64 = self.leaves.iter().map(|(_, r)| r.words()).sum();
        self.upper.words() + self.lower.words() + chains + self.index.words()
    }

    fn on_crash(&mut self) {
        // Local memory is volatile: restart cold, exactly as constructed
        // (sentinel tower re-materialised, everything else gone).
        *self = SkipModule::new(self.id, self.params.clone());
    }
}

#[cfg(test)]
mod tests {
    use pim_runtime::PimSystem;

    use super::*;

    const H_LOW: u8 = 2;

    fn params(seed: u64) -> ModuleParams {
        ModuleParams {
            p: 2,
            h_low: H_LOW,
            max_level: 8,
            seed,
            track_contention: false,
        }
    }

    fn machine() -> PimSystem<SkipModule> {
        PimSystem::new(2, |id| SkipModule::new(id, params(1)))
    }

    #[test]
    fn the_index_hashes_with_the_structure_seed() {
        // Where each key sits, in storage order.
        let placement = |seed: u64| -> Vec<i64> {
            let mut m = SkipModule::new(1, params(seed));
            for k in 0..40 {
                m.index.insert(k, 0);
            }
            m.index.iter().map(|(k, _)| k).collect()
        };
        assert_eq!(placement(1), placement(1));
        assert_ne!(placement(1), placement(2));
    }

    /// Broadcast one `LinkUpper` and run it; the replies.
    fn link(
        sys: &mut PimSystem<SkipModule>,
        slot: u32,
        level: u8,
        pred: Handle,
        down: Handle,
    ) -> Vec<Reply> {
        let key = i64::from(slot);
        sys.broadcast(|_| Task::LinkUpper {
            slot,
            key,
            level,
            value: 0,
            pred,
            down,
        });
        sys.run_to_quiescence()
    }

    #[test]
    fn link_upper_reports_a_damaged_replica_instead_of_splicing() {
        let mut sys = machine();
        let sentinel = Handle::replicated(u32::from(H_LOW));
        assert!(link(&mut sys, 20, H_LOW, sentinel, Handle::NULL).is_empty());
        // A node whose right neighbour is gone.
        let mut torn = Node::new(30, H_LOW);
        (torn.left, torn.right, torn.right_key) =
            (Handle::replicated(20), Handle::replicated(98), 40);
        for m in 0..2 {
            sys.module_mut(m).upper.insert_at(22, torn);
        }

        let faulted = vec![Reply::Faulted { op: NO_OP }; 2];
        for (what, slot, level, pred, down) in [
            ("occupied slot", 20, H_LOW, sentinel, Handle::NULL),
            (
                "missing pred",
                24,
                H_LOW,
                Handle::replicated(99),
                Handle::NULL,
            ),
            (
                "missing pred.right",
                24,
                H_LOW,
                Handle::replicated(22),
                Handle::NULL,
            ),
            (
                "missing down",
                24,
                H_LOW + 1,
                Handle::replicated(u32::from(H_LOW + 1)),
                Handle::replicated(97),
            ),
        ] {
            assert_eq!(link(&mut sys, slot, level, pred, down), faulted, "{what}");
        }
        for m in 0..2 {
            let module = sys.module(m);
            assert!(!module.upper.contains(24), "module {m}");
            let n = module.node(sentinel);
            assert_eq!(
                (n.right, n.right_key),
                (Handle::replicated(20), 20),
                "module {m}"
            );
            assert_eq!(
                module.node(Handle::replicated(22)).right,
                Handle::replicated(98)
            );
            assert_eq!(
                module.start(),
                sentinel,
                "module {m}: nothing linked above h_low"
            );
        }
    }

    #[test]
    fn churn_leaves_every_replicated_free_list_empty() {
        use crate::config::Config;
        use crate::list::PimSkipList;

        let mut list = PimSkipList::new(Config::new(16, 4096, 44));
        let pairs: Vec<(Key, u64)> = (0..2048).map(|i| (4 * i, 0)).collect();
        list.bulk_load(&pairs);
        // Each batch inserts 64 keys in the gaps and deletes the 64 the
        // batch before inserted, so the size stays put and every tower that
        // reached the replicas is unlinked again.
        let fresh = |b: i64| -> Vec<(Key, u64)> {
            (0..64)
                .map(|i| (4 * ((b * 64 + i) % 2048) + 1 + b % 2, 0))
                .collect()
        };
        for b in 0..200i64 {
            list.batch_upsert(&fresh(b));
            if b >= 1 {
                let old: Vec<Key> = fresh(b - 1).iter().map(|&(k, _)| k).collect();
                list.batch_delete(&old);
            }
        }
        list.validate().unwrap();
        for m in list.sys.modules() {
            assert_eq!(m.upper.free_len(), 0, "module {:?}", m.id);
        }
    }

    #[test]
    fn churn_keeps_leaf_records_dense() {
        use crate::config::Config;
        use crate::list::PimSkipList;

        let local_leaves = |m: &SkipModule| m.lower.iter().filter(|(_, n)| n.is_leaf()).count();
        let mut list = PimSkipList::new(Config::new(16, 4096, 46));
        let pairs: Vec<(Key, u64)> = (0..2048).map(|i| (4 * i, 0)).collect();
        list.bulk_load(&pairs);
        // As in the test above: 64 fresh keys a batch, and the 64 the batch
        // before inserted deleted again. A module's leaf count peaks right
        // after an Upsert batch.
        let fresh = |b: i64| -> Vec<(Key, u64)> {
            (0..64)
                .map(|i| (4 * ((b * 64 + i) % 2048) + 1 + b % 2, 0))
                .collect()
        };
        let mut peak = vec![0usize; 16];
        for b in 0..200i64 {
            list.batch_upsert(&fresh(b));
            for (m, peak) in list.sys.modules().zip(&mut peak) {
                *peak = (*peak).max(local_leaves(m));
            }
            if b >= 1 {
                let old: Vec<Key> = fresh(b - 1).iter().map(|&(k, _)| k).collect();
                list.batch_delete(&old);
            }
        }
        list.validate().unwrap();
        for (m, &peak) in list.sys.modules().zip(&peak) {
            assert_eq!(m.leaves.len(), local_leaves(m), "module {:?}", m.id);
            // A freed record is reused, so the table never outgrows the
            // most leaves the module held at once.
            assert!(
                m.leaves.slots() <= 2 * peak,
                "module {:?}: {} record slots for at most {peak} leaves",
                m.id,
                m.leaves.slots()
            );
        }
    }
}
