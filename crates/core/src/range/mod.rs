//! Range operations (§5): broadcast and tree-structure execution.

pub mod broadcast;
pub mod tree;

pub use broadcast::RangeResult;

use crate::config::{Key, Value};
use crate::list::PimSkipList;

impl PimSkipList {
    /// Commit a range add to the journal: every live key in `[lo, hi]`
    /// gained `delta` (wrapping, matching the module-side arithmetic).
    pub(crate) fn journal_add(&mut self, lo: Key, hi: Key, delta: Value) {
        if lo <= hi {
            for (_, value) in self.journal.range_mut(lo..=hi) {
                *value = value.wrapping_add(delta);
            }
        }
    }
}
