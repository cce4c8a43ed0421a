//! Reusable staging buffers for the batch hot path.
//!
//! Every batch operation stages CPU-side vectors — the typed-op splitter
//! collects a run's keys/pairs/ranges, point searches sort-dedup a key
//! buffer and build their request list, deletes accumulate upper-slot
//! marks. Allocating those afresh per batch is invisible to the model's
//! metrics but dominates the simulator's wall clock once `pim-service`
//! executes batches continuously. [`Scratch`] keeps one drained buffer of
//! each shape on the structure, so repeated [`crate::PimSkipList::execute`]
//! calls reuse capacity across batches (the core-side half of the
//! steady-state allocation contract in `docs/MODEL.md`; the runtime-side
//! half is [`pim_runtime::buffers`]).
//!
//! Discipline: a buffer is *leased* with `take_*` (leaving an empty stand-in
//! via `mem::take`) and *returned* with `give_*`, which clears it and
//! shelves its capacity. A nested lease of the same buffer is safe — the
//! inner caller simply gets a cold (empty, capacity-0) vector — so the
//! pattern cannot deadlock or double-free; it only ever trades a missed
//! reuse for correctness. Leases never cross a batch boundary, and the
//! buffers hold no live data between batches, so recycling is
//! observation-free: replies, metrics and traces are byte-identical to the
//! allocate-per-batch engine.

use pim_runtime::Handle;

use crate::batch::search::SearchRequest;
use crate::config::{Key, Value};
use crate::op::{Footprint, SpanJob};

macro_rules! lease {
    ($take:ident, $give:ident, $field:ident, $t:ty) => {
        /// Lease the buffer (always comes back empty; capacity reused).
        pub(crate) fn $take(&mut self) -> Vec<$t> {
            std::mem::take(&mut self.$field)
        }

        /// Return a leased buffer: cleared here, capacity shelved.
        pub(crate) fn $give(&mut self, mut buf: Vec<$t>) {
            buf.clear();
            self.$field = buf;
        }
    };
}

/// Reusable per-structure staging storage (see module docs).
#[derive(Default)]
pub(crate) struct Scratch {
    /// Key staging: op-run collection, sort-dedup inputs.
    keys: Vec<Key>,
    /// Pair staging: update/upsert run collection.
    pairs: Vec<(Key, Value)>,
    /// Range staging: range-run collection.
    ranges: Vec<(Key, Key)>,
    /// Sorted unique keys for point searches.
    sorted_keys: Vec<Key>,
    /// Pivoted-search request list.
    reqs: Vec<SearchRequest>,
    /// Delete-side upper-slot mark set.
    slots: Vec<u32>,
    /// Range-split cut points.
    cuts: Vec<Key>,
    /// Upsert insert set (distinct from `pairs`, which the op-splitter
    /// holds leased while the upsert runs).
    inserts: Vec<(Key, Value)>,
    /// Per-key flags: Upsert's updated keys, Delete's found ones.
    flags: Vec<bool>,
    /// `(key, index)` staging for the in-place batch dedup.
    dedup_tags: Vec<(u64, u32)>,
    /// Dedup survivors, key batches (distinct from `keys`, which the
    /// op-splitter holds leased while the attempt runs).
    uniq_keys: Vec<Key>,
    /// Dedup survivors, pair batches (distinct from `pairs`, same reason).
    uniq_pairs: Vec<(Key, Value)>,
    /// Insert tower heights.
    tops: Vec<u8>,
    /// Flattened insert-tower handles (see `batch::upsert::Towers`).
    tower_handles: Vec<Handle>,
    /// Per-insert offsets into `tower_handles`.
    tower_offsets: Vec<u32>,
    /// Pivoted-search wavefront staging (see `batch::search`).
    wave_items: Vec<crate::batch::search::WaveItem>,
    /// Upper-level pivot indices for pivoted searches.
    pivots: Vec<usize>,
    /// Wavefront `(start, end)` segment lists (two generations).
    segments: Vec<(usize, usize)>,
    /// Second segment buffer (next wavefront generation).
    segments2: Vec<(usize, usize)>,
    /// Per-pivot entry of a group deferred to stage 2 (see `batch::search`).
    deferred: Vec<Option<Handle>>,
    /// `(dst op, src op, dst's top level)` copy list for wave stitching.
    copies: Vec<(u32, u32, u8)>,
    /// Range-split coverage sweep deltas.
    range_delta: Vec<i64>,
    /// Range-split cut-cell → subrange index map.
    cell_to_sub: Vec<usize>,
    /// A span's Update undo records (see `op::execute_span`).
    undo: Vec<(usize, Key, Value)>,
    /// A span's job table (see `op::execute_span`).
    jobs: Vec<SpanJob>,
    /// The footprints of a drive's unfinished jobs (see `sched::drive`).
    open: Vec<Option<Footprint>>,
}

impl Scratch {
    lease!(take_keys, give_keys, keys, Key);
    lease!(take_pairs, give_pairs, pairs, (Key, Value));
    lease!(take_ranges, give_ranges, ranges, (Key, Key));
    lease!(take_sorted_keys, give_sorted_keys, sorted_keys, Key);
    lease!(take_reqs, give_reqs, reqs, SearchRequest);
    lease!(take_slots, give_slots, slots, u32);
    lease!(take_cuts, give_cuts, cuts, Key);
    lease!(take_inserts, give_inserts, inserts, (Key, Value));
    lease!(take_flags, give_flags, flags, bool);
    lease!(take_dedup_tags, give_dedup_tags, dedup_tags, (u64, u32));
    lease!(take_uniq_keys, give_uniq_keys, uniq_keys, Key);
    lease!(take_uniq_pairs, give_uniq_pairs, uniq_pairs, (Key, Value));
    lease!(take_tops, give_tops, tops, u8);
    lease!(
        take_tower_handles,
        give_tower_handles,
        tower_handles,
        Handle
    );
    lease!(take_tower_offsets, give_tower_offsets, tower_offsets, u32);
    lease!(
        take_wave_items,
        give_wave_items,
        wave_items,
        crate::batch::search::WaveItem
    );
    lease!(take_pivots, give_pivots, pivots, usize);
    lease!(take_segments, give_segments, segments, (usize, usize));
    lease!(take_segments2, give_segments2, segments2, (usize, usize));
    lease!(take_deferred, give_deferred, deferred, Option<Handle>);
    lease!(take_copies, give_copies, copies, (u32, u32, u8));
    lease!(take_range_delta, give_range_delta, range_delta, i64);
    lease!(take_cell_to_sub, give_cell_to_sub, cell_to_sub, usize);
    lease!(take_undo, give_undo, undo, (usize, Key, Value));
    lease!(take_jobs, give_jobs, jobs, SpanJob);
    lease!(take_open, give_open, open, Option<Footprint>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_round_trip_recycles_capacity() {
        let mut s = Scratch::default();
        let mut keys = s.take_keys();
        keys.extend([3, 1, 2]);
        let cap = keys.capacity();
        s.give_keys(keys);
        let again = s.take_keys();
        assert!(again.is_empty(), "leased buffers always start empty");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn nested_lease_degrades_to_cold_buffer() {
        let mut s = Scratch::default();
        let outer = s.take_slots();
        let inner = s.take_slots();
        assert!(inner.is_empty() && inner.capacity() == 0);
        s.give_slots(outer);
        s.give_slots(inner);
    }
}
