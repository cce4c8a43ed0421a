//! CPU-side operation journal — the recovery layer's source of truth.
//!
//! The PIM modules' local memories are volatile under the fault model: an
//! injected crash wipes a module cold. The driver therefore keeps a journal
//! of the structure's *logical* contents in host DRAM, updated only when a
//! batch completes undamaged. Recovery rebuilds module state from it:
//!
//! * [`crate::list::PimSkipList::recover_module`] re-materialises one
//!   module's node images (upper-part replicas at their exact slots, local
//!   nodes at their exact slots) so every handle held by other modules
//!   keeps resolving — which requires the journal to remember each key's
//!   tower handles;
//! * [`crate::list::PimSkipList::restore_all`] rebuilds the whole machine
//!   by bulk-loading the journal's `(key, value)` snapshot.
//!
//! Host DRAM is not PIM-module memory and journal maintenance is ordinary
//! CPU bookkeeping, so it is deliberately *unmetered*: with no fault plan
//! installed, metrics stay bit-identical to a build without the journal.
//!
//! One subtlety: upper-part replicas keep the value a key was *inserted*
//! with (later updates only touch the leaf), and the replica invariant
//! check compares values across modules. The journal therefore records both
//! the current value (what queries must see) and the insert-time value
//! (what a rebuilt replica must carry to match its healthy donors).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pim_runtime::Handle;

use crate::config::{Key, Value};

/// How many tower levels a [`Tower`] stores inline. Heights are geometric
/// (`P(height > 4) = 2⁻⁴`), so ~94% of towers never touch the heap — which
/// keeps steady-state journal maintenance out of the allocator (the
/// journal half of the allocation contract in `docs/MODEL.md`).
const TOWER_INLINE: usize = 4;

/// A tower's handles, bottom-up: `tower[0]` is the leaf, `tower[j]` the
/// level-`j` node. Short towers live inline; tall ones spill to the heap.
/// Derefs to `[Handle]`, so reads look like the plain `Vec` it replaced.
#[derive(Debug, Clone)]
pub(crate) enum Tower {
    Inline {
        len: u8,
        slots: [Handle; TOWER_INLINE],
    },
    Heap(Vec<Handle>),
}

impl From<&[Handle]> for Tower {
    fn from(t: &[Handle]) -> Self {
        if t.len() <= TOWER_INLINE {
            let mut slots = [Handle::NULL; TOWER_INLINE];
            slots[..t.len()].copy_from_slice(t);
            Tower::Inline {
                len: t.len() as u8,
                slots,
            }
        } else {
            Tower::Heap(t.to_vec())
        }
    }
}

impl std::ops::Deref for Tower {
    type Target = [Handle];

    fn deref(&self) -> &[Handle] {
        match self {
            Tower::Inline { len, slots } => &slots[..*len as usize],
            Tower::Heap(v) => v,
        }
    }
}

/// Per-key journal record.
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    /// Current logical value (reflects updates, fetch-adds, range adds).
    pub value: Value,
    /// Value at insert time — what every upper-part replica of this tower
    /// stores (updates never rewrite replicas).
    pub inserted_value: Value,
    /// The tower's handles (see [`Tower`]).
    pub tower: Tower,
}

/// The driver's journal of live keys: entries stored densely, in no
/// particular order, with a key → position index beside them. A hashed
/// table of whole entries held every entry at ~50 % load; a dense `Vec`
/// holds each once and only the 4-byte positions are hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    entries: Vec<(Key, JournalEntry)>,
    slot: HashMap<Key, u32>,
}

// A field that grows the journal's record is a reviewed diff, not a silent
// +8 MiB at the benchmark's `n = 2^17`.
const _: () = assert!(std::mem::size_of::<(Key, JournalEntry)>() <= 64);

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    /// Make room for `additional` more keys, so a build that journals them
    /// all at once never rehashes with the old table still live.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.slot.reserve(additional);
    }

    /// Record a committed insert (also used when a rebuild re-towers a key:
    /// the rebuilt replicas carry the then-current value uniformly, so
    /// `inserted_value` resets alongside).
    pub fn record_insert(&mut self, key: Key, value: Value, tower: &[Handle]) {
        let entry = JournalEntry {
            value,
            inserted_value: value,
            tower: Tower::from(tower),
        };
        match self.slot.entry(key) {
            Entry::Occupied(at) => self.entries[*at.get() as usize].1 = entry,
            Entry::Vacant(at) => {
                at.insert(u32::try_from(self.entries.len()).expect("journal holds < 2^32 keys"));
                self.entries.push((key, entry));
            }
        }
    }

    /// Record a committed in-place update (leaf only; replicas untouched).
    pub fn record_update(&mut self, key: Key, value: Value) {
        if let Some(&i) = self.slot.get(&key) {
            self.entries[i as usize].1.value = value;
        }
    }

    /// The current value of `key`, if it is live.
    pub fn value(&self, key: Key) -> Option<Value> {
        let i = *self.slot.get(&key)?;
        Some(self.entries[i as usize].1.value)
    }

    /// Record a committed delete. The last entry moves into the hole.
    pub fn remove(&mut self, key: Key) {
        let Some(i) = self.slot.remove(&key) else {
            return;
        };
        self.entries.swap_remove(i as usize);
        if let Some(&(moved, _)) = self.entries.get(i as usize) {
            self.slot.insert(moved, i);
        }
    }

    /// Record a committed range add: every live key in `[lo, hi]` gained
    /// `delta` (wrapping, matching the module-side arithmetic).
    pub fn add_in_range(&mut self, lo: Key, hi: Key, delta: Value) {
        for (k, e) in self.entries.iter_mut() {
            if (lo..=hi).contains(k) {
                e.value = e.value.wrapping_add(delta);
            }
        }
    }

    /// Live keys recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot `(key, current value)`, ascending by key — the
    /// `restore_all` bulk-load input.
    pub fn items_sorted(&self) -> Vec<(Key, Value)> {
        let mut v: Vec<(Key, Value)> = self.entries.iter().map(|(k, e)| (*k, e.value)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Snapshot full entries, ascending by key — the `recover_module`
    /// image-reconstruction input.
    pub fn entries_sorted(&self) -> Vec<(Key, JournalEntry)> {
        let mut v = self.entries.clone();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_lifecycle() {
        let mut j = Journal::new();
        j.record_insert(5, 50, &[Handle::local(1, 0)]);
        j.record_insert(2, 20, &[Handle::local(0, 3), Handle::replicated(9)]);
        assert_eq!(j.len(), 2);
        j.record_update(5, 55);
        j.record_update(99, 1); // absent: no-op
        assert_eq!(j.items_sorted(), vec![(2, 20), (5, 55)]);
        j.add_in_range(0, 4, 10);
        assert_eq!(j.items_sorted(), vec![(2, 30), (5, 55)]);
        let entries = j.entries_sorted();
        assert_eq!(entries[0].1.inserted_value, 20, "insert-time value kept");
        assert_eq!(entries[0].1.tower.len(), 2);
        j.remove(2);
        assert_eq!(j.items_sorted(), vec![(5, 55)]);
        j.remove(2); // absent: no-op
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn remove_moves_the_last_entry_into_the_hole() {
        let mut j = Journal::new();
        j.reserve(4);
        for k in [7, 3, 9, 1] {
            j.record_insert(k, k as Value * 10, &[Handle::local(0, k as u32)]);
        }
        j.remove(7);
        j.record_update(1, 11);
        j.record_insert(3, 33, &[Handle::local(1, 3)]);
        assert_eq!(j.len(), 3);
        assert_eq!(j.items_sorted(), vec![(1, 11), (3, 33), (9, 90)]);
        assert_eq!(j.value(7), None);
        assert_eq!(j.value(1), Some(11));
        assert_eq!(j.entries_sorted()[1].1.tower[0], Handle::local(1, 3));
        for k in [1, 3, 9] {
            j.remove(k);
        }
        assert_eq!(j.len(), 0);
    }
}
