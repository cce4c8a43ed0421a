//! Slotted node arenas — a PIM module's local memory.
//!
//! Each module owns two arenas: a *local* arena for the lower-part nodes
//! hashed to it, and a *replicated* arena whose slot assignment is kept
//! identical across all modules (the paper's "replicas are stored across
//! all PIM modules at the same local memory address", §3.1).
//!
//! Replication determinism: all replicated-arena allocations and frees are
//! driven by CPU broadcasts that carry the slot explicitly
//! ([`Arena::insert_at`]), chosen by a CPU-side shadow allocator that runs
//! the same free-list policy — so replicas never diverge.

use pim_runtime::Handle;

use crate::node::Node;

/// A slotted arena with free-list reuse.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    slots: Vec<Option<Node>>,
    free: Vec<u32>,
    live: usize,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Allocate a slot for `node`, reusing freed slots first.
    pub fn alloc(&mut self, node: Node) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(node);
            slot
        } else {
            self.slots.push(Some(node));
            (self.slots.len() - 1) as u32
        }
    }

    /// Place `node` at an externally chosen `slot` (replicated arenas; the
    /// slot comes from the CPU-side shadow allocator). The slot must be
    /// vacant.
    pub fn insert_at(&mut self, slot: u32, node: Node) {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        assert!(
            self.slots[idx].is_none(),
            "replicated slot {slot} already occupied — replica divergence"
        );
        self.slots[idx] = Some(node);
        self.live += 1;
    }

    /// Place `node` at `slot` unconditionally, replacing any occupant
    /// (crash recovery: a wiped module re-materialises its sentinel towers
    /// on restart, so installs must overwrite as well as insert).
    pub fn install(&mut self, slot: u32, node: Node) {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            self.live += 1;
            self.free.retain(|&s| s != slot);
        }
        self.slots[idx] = Some(node);
    }

    /// Free a slot (panics if already vacant).
    pub fn free(&mut self, slot: u32) {
        let taken = self.slots[slot as usize].take();
        assert!(taken.is_some(), "double free of slot {slot}");
        self.live -= 1;
        self.free.push(slot);
    }

    /// Shared-slot read.
    pub fn get(&self, slot: u32) -> &Node {
        self.slots[slot as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("dangling handle: slot {slot}"))
    }

    /// Shared-slot write access.
    pub fn get_mut(&mut self, slot: u32) -> &mut Node {
        self.slots[slot as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("dangling handle: slot {slot}"))
    }

    /// Fault-tolerant read: `None` instead of panicking on a vacant slot
    /// (dangling handles are expected while a crashed module is being
    /// recovered; the module answers `Faulted` instead of aborting).
    pub fn get_opt(&self, slot: u32) -> Option<&Node> {
        self.slots.get(slot as usize).and_then(|s| s.as_ref())
    }

    /// Fault-tolerant write access; see [`Arena::get_opt`].
    pub fn get_mut_opt(&mut self, slot: u32) -> Option<&mut Node> {
        self.slots.get_mut(slot as usize).and_then(|s| s.as_mut())
    }

    /// Does `slot` currently hold a node?
    pub fn contains(&self, slot: u32) -> bool {
        (slot as usize) < self.slots.len() && self.slots[slot as usize].is_some()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate `(slot, node)` over live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (i as u32, n)))
    }

    /// Occupied local-memory words (live nodes + slot directory overhead).
    pub fn words(&self) -> u64 {
        let node_words: u64 = self.iter().map(|(_, n)| n.words()).sum();
        node_words + self.slots.len() as u64
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
        Node::new(k, 0, 0)
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
        arena.free(s0);
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
        assert_eq!(a.words(), a.slots.len() as u64);
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
    fn install_overwrites_and_inserts() {
        let mut a = Arena::new();
        a.install(3, node(1));
        assert_eq!(a.len(), 1);
        a.install(3, node(2));
        assert_eq!(a.len(), 1, "overwrite must not double-count");
        assert_eq!(a.get(3).key, 2);
        // Installing into a freed slot must remove it from the free list so
        // a later alloc cannot clobber the installed node.
        let s = a.alloc(node(9));
        a.free(s);
        a.install(s, node(10));
        let s2 = a.alloc(node(11));
        assert_ne!(s2, s);
        assert_eq!(a.get(s).key, 10);
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
}
