//! Bucketed cuckoo hash table with bounded-displacement inserts.
//!
//! Building block of the de-amortized table of [`crate::deamortized`]. Two
//! tables, seeded independently; each bucket holds up to [`BUCKET`] entries.
//! An insert tries both buckets, then performs at most [`MAX_KICKS`]
//! displacement steps; on failure the entry goes to the caller (who stashes
//! it / triggers an incremental rebuild). With load kept below ~80% by the
//! de-amortized wrapper, displacement chains are O(1) whp — matching the
//! `O(1)` whp per-operation budget the paper assumes of its per-module maps
//! ([16], §4.1).

use pim_runtime::hashfn::hash2;

/// Entries per bucket.
pub const BUCKET: usize = 4;
/// Displacement budget per insert (keeps the worst case O(1), as the
/// de-amortization requires).
pub const MAX_KICKS: usize = 24;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    key: i64,
    value: u64,
}

// 16 B a slot: occupancy lives in the tables' bitmasks, not in an
// `Option` tag that would pad each slot to 24 B. No key can mark a vacant
// slot, since every `i64` (`i64::MIN` included) is a valid key.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// A fixed-capacity two-table bucketed cuckoo hash.
#[derive(Debug, Clone)]
pub struct CuckooTable {
    seed0: u64,
    seed1: u64,
    buckets: usize,
    /// A slot's entry is meaningful only while its `occupied` bit is set.
    slots: [Vec<Entry>; 2],
    /// One bit per slot of the matching table, 64 slots a word.
    occupied: [Vec<u64>; 2],
    len: usize,
    /// Work performed by the last operation, in probes/moves (for PIM-time
    /// accounting by the module that owns the table).
    pub last_op_work: u64,
}

impl CuckooTable {
    /// A table of `2 * buckets * BUCKET` slots (buckets rounded to a power
    /// of two, at least 2).
    pub fn with_buckets(buckets: usize, seed: u64) -> Self {
        let buckets = buckets.next_power_of_two().max(2);
        let n = buckets * BUCKET;
        let words = n.div_ceil(64);
        CuckooTable {
            seed0: hash2(seed, 0xC0, 1),
            seed1: hash2(seed, 0xC1, 2),
            buckets,
            slots: [vec![Entry::default(); n], vec![Entry::default(); n]],
            occupied: [vec![0; words], vec![0; words]],
            len: 0,
            last_op_work: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, table: usize, key: i64) -> usize {
        let seed = if table == 0 { self.seed0 } else { self.seed1 };
        (hash2(seed, key as u64, table as u64) & (self.buckets as u64 - 1)) as usize
    }

    #[inline]
    fn range(&self, table: usize, key: i64) -> std::ops::Range<usize> {
        let b = self.bucket_of(table, key);
        b * BUCKET..(b + 1) * BUCKET
    }

    #[inline]
    fn is_full(&self, table: usize, i: usize) -> bool {
        self.occupied[table][i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn set_full(&mut self, table: usize, i: usize, full: bool) {
        let bit = 1 << (i % 64);
        let word = &mut self.occupied[table][i / 64];
        if full {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The slot of `key` in `table`, if it is stored there.
    #[inline]
    fn find(&self, table: usize, key: i64) -> Option<usize> {
        self.range(table, key)
            .find(|&i| self.is_full(table, i) && self.slots[table][i].key == key)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        2 * self.buckets * BUCKET
    }

    /// Load factor in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Look up `key`: O(1) worst case (two buckets).
    pub fn get(&mut self, key: i64) -> Option<u64> {
        self.last_op_work = 2;
        (0..2).find_map(|t| self.find(t, key).map(|i| self.slots[t][i].value))
    }

    /// Update an existing key in place; returns whether it was present.
    pub fn update(&mut self, key: i64, value: u64) -> bool {
        self.last_op_work = 2;
        for t in 0..2 {
            if let Some(i) = self.find(t, key) {
                self.slots[t][i].value = value;
                return true;
            }
        }
        false
    }

    /// Remove `key`; returns its value if present. O(1) worst case.
    pub fn remove(&mut self, key: i64) -> Option<u64> {
        self.last_op_work = 2;
        for t in 0..2 {
            if let Some(i) = self.find(t, key) {
                self.set_full(t, i, false);
                self.len -= 1;
                return Some(self.slots[t][i].value);
            }
        }
        None
    }

    /// Insert `(key, value)`. If `key` exists its value is replaced and
    /// `Ok(Some(old))` is returned. On success without a prior mapping,
    /// `Ok(None)`. If the displacement budget is exhausted the *displaced*
    /// entry is handed back as `Err((k, v))` for the caller to stash.
    pub fn insert(&mut self, key: i64, value: u64) -> Result<Option<u64>, (i64, u64)> {
        self.last_op_work = 2;
        // Replace in place if present.
        for t in 0..2 {
            if let Some(i) = self.find(t, key) {
                let old = std::mem::replace(&mut self.slots[t][i].value, value);
                return Ok(Some(old));
            }
        }
        // Try an empty slot in either bucket.
        let mut cur = Entry { key, value };
        for _kick in 0..MAX_KICKS {
            self.last_op_work += 1;
            for t in 0..2 {
                for i in self.range(t, cur.key) {
                    if !self.is_full(t, i) {
                        self.slots[t][i] = cur;
                        self.set_full(t, i, true);
                        self.len += 1;
                        return Ok(None);
                    }
                }
            }
            // Both buckets full: displace a pseudo-random victim from the
            // first-table bucket and retry with it.
            let r = self.range(0, cur.key);
            let vi = r.start
                + (hash2(self.seed0 ^ self.seed1, cur.key as u64, self.last_op_work) as usize
                    % BUCKET);
            debug_assert!(self.is_full(0, vi), "bucket was full");
            cur = std::mem::replace(&mut self.slots[0][vi], cur);
        }
        Err((cur.key, cur.value))
    }

    /// The stored pairs in slot order: the first table's slots, then the
    /// second's. Where a key sits shows the table's hash functions.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        (0..2).flat_map(move |t| {
            (self.slots[t].iter().enumerate())
                .filter(move |&(i, _)| self.is_full(t, i))
                .map(|(_, e)| (e.key, e.value))
        })
    }

    /// Take out all stored pairs, in slot order (rebuild support).
    pub fn drain_all(&mut self) -> Vec<(i64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        self.occupied.iter_mut().for_each(|o| o.fill(0));
        self.len = 0;
        out
    }

    /// Words of memory held (slots + header), for space accounting.
    pub fn words(&self) -> u64 {
        (self.capacity() as u64) * 2 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = CuckooTable::with_buckets(16, 1);
        for k in 0..50i64 {
            assert_eq!(t.insert(k, (k * 10) as u64), Ok(None));
        }
        for k in 0..50i64 {
            assert_eq!(t.get(k), Some((k * 10) as u64));
        }
        assert_eq!(t.get(999), None);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut t = CuckooTable::with_buckets(4, 2);
        assert_eq!(t.insert(7, 1), Ok(None));
        assert_eq!(t.insert(7, 2), Ok(Some(1)));
        assert_eq!(t.get(7), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_then_absent() {
        let mut t = CuckooTable::with_buckets(4, 3);
        t.insert(5, 50).unwrap();
        assert_eq!(t.remove(5), Some(50));
        assert_eq!(t.remove(5), None);
        assert_eq!(t.get(5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_in_place() {
        let mut t = CuckooTable::with_buckets(4, 4);
        assert!(!t.update(1, 10));
        t.insert(1, 10).unwrap();
        assert!(t.update(1, 20));
        assert_eq!(t.get(1), Some(20));
    }

    #[test]
    fn fill_to_moderate_load_without_failure() {
        let mut t = CuckooTable::with_buckets(256, 5);
        let target = (t.capacity() as f64 * 0.75) as i64;
        for k in 0..target {
            assert!(t.insert(k, k as u64).is_ok(), "failed at {k}");
        }
        for k in 0..target {
            assert_eq!(t.get(k), Some(k as u64));
        }
    }

    #[test]
    fn overfull_table_hands_back_displaced_entry() {
        let mut t = CuckooTable::with_buckets(2, 6);
        let mut stash = Vec::new();
        for k in 0..200i64 {
            if let Err(kv) = t.insert(k, k as u64) {
                stash.push(kv);
            }
        }
        assert!(!stash.is_empty());
        // Every key is either in the table or the stash exactly once.
        let mut found = 0;
        for k in 0..200i64 {
            if t.get(k).is_some() || stash.iter().any(|&(sk, _)| sk == k) {
                found += 1;
            }
        }
        assert_eq!(found, 200);
    }

    #[test]
    fn drain_returns_everything() {
        let mut t = CuckooTable::with_buckets(16, 7);
        for k in 0..30i64 {
            t.insert(k, k as u64).unwrap();
        }
        let mut all = t.drain_all();
        all.sort_unstable();
        assert_eq!(all, (0..30i64).map(|k| (k, k as u64)).collect::<Vec<_>>());
        assert!(t.is_empty());
    }

    #[test]
    fn negative_keys_supported() {
        let mut t = CuckooTable::with_buckets(8, 8);
        t.insert(i64::MIN, 1).unwrap();
        t.insert(-5, 2).unwrap();
        assert_eq!(t.get(i64::MIN), Some(1));
        assert_eq!(t.get(-5), Some(2));
    }

    #[test]
    fn last_op_work_is_bounded() {
        let mut t = CuckooTable::with_buckets(2, 9);
        for k in 0..100i64 {
            let _ = t.insert(k, 0);
            assert!(t.last_op_work <= (MAX_KICKS as u64) + 3);
        }
    }
}
