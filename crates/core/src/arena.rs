//! Slotted node arenas — a PIM module's local memory.
//!
//! Each module owns two node arenas: a *local* arena for the lower-part
//! nodes hashed to it, and a *replicated* arena whose slot assignment is
//! kept identical across all modules (the paper's "replicas are stored
//! across all PIM modules at the same local memory address", §3.1). Its
//! leaf records ([`crate::node::LeafRecord`]) sit in a third arena of the
//! same kind.
//!
//! Replication determinism: all replicated-arena allocations and frees are
//! driven by CPU broadcasts that carry the slot explicitly
//! ([`Arena::insert_at`]), chosen by a CPU-side shadow allocator that runs
//! the same free-list policy — so replicas never diverge.

use pim_runtime::Handle;

use crate::node::Node;

/// Slots per arena segment.
const SEGMENT: usize = 1024;

/// A slotted arena with free-list reuse, stored in fixed segments of
/// [`SEGMENT`] slots. A segment is allocated once at its full capacity and
/// never moves, so growth never copies the items already placed and leaves
/// no freed block behind; only the slots up to the highest one placed are
/// ever written.
#[derive(Debug)]
pub struct Arena<T = Node> {
    segments: Vec<Vec<Option<T>>>,
    /// Materialized slots: every slot below this exists, vacant or not.
    slots: usize,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            segments: Vec::new(),
            slots: 0,
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    fn slot(&self, slot: u32) -> Option<&Option<T>> {
        let i = slot as usize;
        self.segments.get(i / SEGMENT)?.get(i % SEGMENT)
    }

    fn slot_mut(&mut self, slot: u32) -> Option<&mut Option<T>> {
        let i = slot as usize;
        self.segments.get_mut(i / SEGMENT)?.get_mut(i % SEGMENT)
    }

    /// The slot `slot`, materializing it (and every slot below it) vacant
    /// if it does not exist yet.
    fn materialize(&mut self, slot: u32) -> &mut Option<T> {
        let want = slot as usize + 1;
        while self.slots < want {
            if self.slots.is_multiple_of(SEGMENT) {
                self.segments.push(Vec::with_capacity(SEGMENT));
            }
            let seg = self
                .segments
                .last_mut()
                .expect("a segment was just ensured");
            let add = (SEGMENT - seg.len()).min(want - self.slots);
            seg.resize_with(seg.len() + add, || None);
            self.slots += add;
        }
        self.slot_mut(slot).expect("materialized above")
    }

    /// Allocate a slot for `item`, reusing freed slots first.
    pub fn alloc(&mut self, item: T) -> u32 {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => u32::try_from(self.slots).expect("arena holds < 2^32 slots"),
        };
        let s = self.materialize(slot);
        debug_assert!(s.is_none());
        *s = Some(item);
        slot
    }

    /// Place `item` at an externally chosen `slot` (replicated arenas; the
    /// slot comes from the CPU-side shadow allocator). The slot must be
    /// vacant.
    pub fn insert_at(&mut self, slot: u32, item: T) {
        let s = self.materialize(slot);
        assert!(
            s.is_none(),
            "replicated slot {slot} already occupied — replica divergence"
        );
        *s = Some(item);
        self.live += 1;
    }

    /// Empty a slot without queuing it for reuse, returning its occupant
    /// (panics if already vacant). Replicated arenas free this way: their
    /// slots are chosen by the CPU-side [`ShadowAllocator`], so a
    /// module-side free list would only grow.
    pub fn vacate(&mut self, slot: u32) -> T {
        let taken = self.slot_mut(slot).and_then(Option::take);
        let Some(item) = taken else {
            panic!("double free of slot {slot}");
        };
        self.live -= 1;
        item
    }

    /// Free a slot for reuse by [`Arena::alloc`], returning its occupant
    /// (panics if already vacant).
    pub fn free(&mut self, slot: u32) -> T {
        let item = self.vacate(slot);
        self.free.push(slot);
        item
    }

    /// Slots queued for reuse by [`Arena::alloc`].
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Materialized slots, vacant or not: the high-water mark of the
    /// arena's slot directory.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Shared-slot read.
    pub fn get(&self, slot: u32) -> &T {
        self.get_opt(slot)
            .unwrap_or_else(|| panic!("dangling handle: slot {slot}"))
    }

    /// Shared-slot write access.
    pub fn get_mut(&mut self, slot: u32) -> &mut T {
        self.get_mut_opt(slot)
            .unwrap_or_else(|| panic!("dangling handle: slot {slot}"))
    }

    /// Fault-tolerant read: `None` instead of panicking on a vacant slot
    /// (dangling handles are expected after a crash, until the machine is
    /// restored; the module answers `Faulted` instead of aborting).
    pub fn get_opt(&self, slot: u32) -> Option<&T> {
        self.slot(slot)?.as_ref()
    }

    /// Fault-tolerant write access; see [`Arena::get_opt`].
    pub fn get_mut_opt(&mut self, slot: u32) -> Option<&mut T> {
        self.slot_mut(slot)?.as_mut()
    }

    /// Does `slot` currently hold an item?
    pub fn contains(&self, slot: u32) -> bool {
        self.get_opt(slot).is_some()
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate `(slot, item)` over live items.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.segments
            .iter()
            .flatten()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (i as u32, n)))
    }
}

impl Arena<Node> {
    /// Occupied local-memory words (live nodes + slot directory overhead;
    /// the leaves' chains are counted with their records). The directory
    /// counts materialized slots, not segment capacity, so the segmented
    /// layout moves no model word.
    pub fn words(&self) -> u64 {
        Node::WORDS * self.live as u64 + self.slots as u64
    }
}

/// The CPU-side shadow of every module's replicated arena allocator.
///
/// Runs the same slot policy as [`Arena::alloc`] so the CPU can name the
/// slot in the broadcast that performs the allocation.
#[derive(Debug, Clone, Default)]
pub struct ShadowAllocator {
    next: u32,
    free: Vec<u32>,
}

impl ShadowAllocator {
    /// An empty shadow.
    pub fn new() -> Self {
        ShadowAllocator::default()
    }

    /// Reserve the next slot (mirrors the modules' upcoming `insert_at`).
    pub fn alloc(&mut self) -> u32 {
        if let Some(s) = self.free.pop() {
            s
        } else {
            let s = self.next;
            self.next += 1;
            s
        }
    }

    /// Record a broadcast free.
    pub fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Build a replicated handle for a shadow-allocated slot.
    pub fn handle(slot: u32) -> Handle {
        Handle::replicated(slot)
    }
}

/// The CPU-side shadow of every replica's descent start (see
/// [`crate::module::SkipModule::start`]): the highest replicated level
/// that holds a linked tower, never below `h_low`.
///
/// The driver sees the links it sends but not what an `UnlinkUpper`
/// leaves behind, so it counts the towers linked at each replicated level
/// and reads the start off the counts. Unmetered bookkeeping, like
/// [`ShadowAllocator`].
#[derive(Debug, Clone)]
pub struct ShadowStart {
    /// Towers linked per level (index = level; kept for `≥ h_low` only).
    linked: Vec<u32>,
    h_low: u8,
    level: u8,
}

impl ShadowStart {
    /// The shadow of an empty structure: the start is the `h_low` sentinel.
    pub fn new(h_low: u8, max_level: u8) -> Self {
        ShadowStart {
            linked: vec![0; usize::from(max_level) + 1],
            h_low,
            level: h_low,
        }
    }

    /// Record `count` nodes linked into the list at `level`.
    pub fn link(&mut self, level: u8, count: u32) {
        if level >= self.h_low && count > 0 {
            self.linked[usize::from(level)] += count;
            self.level = self.level.max(level);
        }
    }

    /// Record `count` nodes unlinked from the list at `level`.
    pub fn unlink(&mut self, level: u8, count: u32) {
        if level >= self.h_low {
            self.linked[usize::from(level)] -= count;
            while self.level > self.h_low && self.linked[usize::from(self.level)] == 0 {
                self.level -= 1;
            }
        }
    }

    /// The start level.
    pub fn level(&self) -> u8 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(k: i64) -> Node {
        Node::new(k, 0)
    }

    #[test]
    fn alloc_get_free_cycle() {
        let mut a = Arena::new();
        let s1 = a.alloc(node(1));
        let s2 = a.alloc(node(2));
        assert_ne!(s1, s2);
        assert_eq!(a.get(s1).key, 1);
        assert_eq!(a.len(), 2);
        a.free(s1);
        assert_eq!(a.len(), 1);
        assert!(!a.contains(s1));
        // Freed slot is reused.
        let s3 = a.alloc(node(3));
        assert_eq!(s3, s1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = Arena::new();
        let s = a.alloc(node(1));
        a.free(s);
        a.free(s);
    }

    #[test]
    #[should_panic(expected = "dangling handle")]
    fn dangling_read_panics() {
        let mut a = Arena::new();
        let s = a.alloc(node(1));
        a.free(s);
        let _ = a.get(s);
    }

    #[test]
    fn insert_at_grows_and_rejects_collision() {
        let mut a = Arena::new();
        a.insert_at(5, node(10));
        assert_eq!(a.get(5).key, 10);
        assert_eq!(a.len(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.insert_at(5, node(11));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn shadow_matches_arena_policy() {
        let mut shadow = ShadowAllocator::new();
        let mut arena = Arena::new();
        // Mirror a sequence of allocs and frees.
        let s0 = shadow.alloc();
        arena.insert_at(s0, node(0));
        let s1 = shadow.alloc();
        arena.insert_at(s1, node(1));
        shadow.free(s0);
        arena.vacate(s0);
        let s2 = shadow.alloc();
        arena.insert_at(s2, node(2));
        assert_eq!(s2, s0, "shadow must reuse the freed slot like the arena");
        assert_eq!(arena.get(s2).key, 2);
    }

    #[test]
    fn shadow_start_follows_the_tallest_linked_tower() {
        let mut start = ShadowStart::new(2, 9);
        assert_eq!(start.level(), 2);
        start.link(1, 5); // lower part: not tracked
        assert_eq!(start.level(), 2);
        for level in 2..=6 {
            start.link(level, 1);
        }
        start.link(2, 3);
        assert_eq!(start.level(), 6);
        // Unlinking bottom-up, as `UnlinkUpper` does: the start only falls
        // once its own level empties, and then past every empty level.
        for level in 2..=5 {
            start.unlink(level, 1);
            assert_eq!(start.level(), 6);
        }
        start.unlink(6, 1);
        assert_eq!(start.level(), 2);
        start.unlink(2, 3);
        assert_eq!(start.level(), 2, "never below h_low");
    }

    #[test]
    fn words_reflect_live_nodes() {
        let mut a = Arena::new();
        let w_empty = a.words();
        let s = a.alloc(node(1));
        assert!(a.words() > w_empty);
        a.free(s);
        // Slot directory remains, nodes gone.
        assert_eq!(a.words(), a.slots as u64);
    }

    #[test]
    fn get_opt_is_total() {
        let mut a = Arena::new();
        let s = a.alloc(node(7));
        assert_eq!(a.get_opt(s).map(|n| n.key), Some(7));
        assert!(a.get_opt(s + 10).is_none());
        a.free(s);
        assert!(a.get_opt(s).is_none());
        assert!(a.get_mut_opt(s).is_none());
    }

    #[test]
    fn iter_skips_freed() {
        let mut a = Arena::new();
        let s1 = a.alloc(node(1));
        let _s2 = a.alloc(node(2));
        a.free(s1);
        let keys: Vec<i64> = a.iter().map(|(_, n)| n.key).collect();
        assert_eq!(keys, vec![2]);
    }

    #[test]
    fn segments_grow_without_moving_nodes() {
        let mut a = Arena::new();
        let n = 3 * SEGMENT + 5;
        for k in 0..n {
            assert_eq!(a.alloc(node(k as i64)), k as u32);
        }
        let first: *const Node = a.get(0);
        a.insert_at((5 * SEGMENT) as u32, node(-1));
        assert!(std::ptr::eq(first, a.get(0)), "growth moved a node");
        assert_eq!(a.slots, 5 * SEGMENT + 1);
        assert_eq!(a.segments.len(), 6);
        assert!(a.segments.iter().all(|s| s.capacity() == SEGMENT));
        assert!(!a.contains((5 * SEGMENT - 1) as u32));
        assert!(a.get_opt((5 * SEGMENT + 1) as u32).is_none());
        assert_eq!(a.len(), n + 1);
        assert_eq!(a.iter().count(), n + 1);
        assert_eq!(
            a.iter().last().map(|(s, nd)| (s, nd.key)),
            Some(((5 * SEGMENT) as u32, -1))
        );
    }

    #[test]
    fn insert_at_vacate_cycles_keep_the_free_list_empty() {
        let mut shadow = ShadowAllocator::new();
        let mut a = Arena::new();
        let mut held = Vec::new();
        for round in 0..200i64 {
            for k in 0..8 {
                let s = shadow.alloc();
                a.insert_at(s, node(round * 8 + k));
                held.push(s);
            }
            for s in held.drain(..6) {
                shadow.free(s);
                a.vacate(s);
            }
        }
        assert_eq!(
            a.free_len(),
            0,
            "a replicated arena queues no slot for reuse"
        );
        assert_eq!(a.len(), 400);
        // The shadow reuses what was vacated, so the arena stays compact.
        assert!(a.slots <= 408, "{} slots for 400 live nodes", a.slots);
    }
}
