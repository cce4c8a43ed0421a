//! Recycled buffer storage for the round engine's hot path.
//!
//! The model charges nothing for CPU-side orchestration, but the
//! *simulator's* wall clock does: rebuilding every per-module inbox `Vec`
//! each round and routing sends one `push` at a time made the allocator
//! the dominant per-round cost (the lesson of the UPMEM benchmarking
//! literature — real PIM throughput is bounded by CPU-side orchestration
//! overhead, not by the PIM cores). This module provides the two pieces
//! the engine uses to be allocation-free in steady state:
//!
//! * [`BufferPool`] — a stack of drained `Vec`s whose *capacity* is
//!   recycled. Buffers are taken, filled, drained in place, and returned;
//!   after warm-up no round allocates.
//! * [`RouteBuffer`] — two-pass bucketed routing: pass one counts the
//!   tasks headed to each destination module, then every destination inbox
//!   reserves exactly once, then pass two fills. No inbox ever reallocates
//!   mid-route, so routing cost is exactly one write per task.
//!
//! Neither structure touches model metrics: recycling changes *where the
//! bytes live*, never what the simulated machine observes. The
//! steady-state allocation contract is documented in `docs/MODEL.md` and
//! enforced by the `alloc-regression` CI gate.

/// A pool of empty `Vec<T>`s retaining their capacity.
///
/// `take` pops a drained buffer (or mints a fresh one on a cold pool);
/// `put` clears a used buffer and shelves it. The pool never shrinks on
/// its own — steady-state capacity converges to the high-water mark of
/// the workload, which is precisely the point.
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool { free: Vec::new() }
    }
}

impl<T> BufferPool<T> {
    /// An empty (cold) pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a recycled buffer, or allocate a fresh empty one when the pool
    /// is cold. The returned buffer is always empty.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool. It is cleared here (dropping its
    /// elements, keeping its capacity); zero-capacity buffers are not
    /// worth shelving and are dropped.
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently shelved (test/diagnostic visibility).
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Is the pool cold?
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Two-pass bucketed routing: count per-destination tasks, reserve each
/// destination exactly once, then fill.
///
/// The round engine's outboxes are written in module-index order by the
/// executor (`pim-pool` writes each module's [`RoundOut`] into its own
/// indexed slot, so the "merge" is free); this buffer then turns those
/// outboxes into next-round inboxes without a single reallocation:
///
/// 1. [`RouteBuffer::begin`] resets the per-destination counters,
/// 2. [`RouteBuffer::count`] tallies every `(destination, task)` pair,
/// 3. [`RouteBuffer::reserve_into`] grows each inbox once, exactly,
/// 4. the caller drains the outboxes into the reserved inboxes.
///
/// The counter vector itself is retained across rounds, so steady-state
/// routing performs zero allocations.
///
/// [`RoundOut`]: crate::system::PimSystem
#[derive(Debug, Default)]
pub struct RouteBuffer {
    counts: Vec<usize>,
}

impl RouteBuffer {
    /// An empty routing buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for a round over `p` destinations (retains capacity).
    pub fn begin(&mut self, p: usize) {
        self.counts.clear();
        self.counts.resize(p, 0);
    }

    /// Pass one: tally one task headed for `to`.
    #[inline]
    pub fn count(&mut self, to: usize) {
        self.counts[to] += 1;
    }

    /// Tasks tallied for `to` so far this round.
    pub fn tally(&self, to: usize) -> usize {
        self.counts[to]
    }

    /// Pass two setup: reserve exactly the tallied headroom in every
    /// destination queue. After this, pushing the tallied tasks cannot
    /// reallocate.
    pub fn reserve_into<T>(&self, queues: &mut [Vec<T>]) {
        debug_assert_eq!(queues.len(), self.counts.len());
        for (q, &extra) in queues.iter_mut().zip(&self.counts) {
            if extra > 0 {
                q.reserve(extra);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_capacity() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let mut a = pool.take();
        assert_eq!(a.capacity(), 0, "cold pool mints fresh buffers");
        a.extend(0..100);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.len(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back empty");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_drops_zero_capacity_buffers() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        pool.put(Vec::new());
        assert!(pool.is_empty());
    }

    #[test]
    fn route_counts_and_reserves_exactly() {
        let mut route = RouteBuffer::new();
        route.begin(3);
        for to in [0usize, 2, 2, 2, 0] {
            route.count(to);
        }
        assert_eq!(route.tally(0), 2);
        assert_eq!(route.tally(1), 0);
        assert_eq!(route.tally(2), 3);
        let mut queues: Vec<Vec<u32>> = vec![Vec::new(); 3];
        route.reserve_into(&mut queues);
        assert!(queues[0].capacity() >= 2);
        assert_eq!(queues[1].capacity(), 0, "untouched queues stay unallocated");
        assert!(queues[2].capacity() >= 3);
        // Filling within the tally cannot move the buffer.
        let base = queues[2].as_ptr();
        queues[2].extend([1, 2, 3]);
        assert_eq!(queues[2].as_ptr(), base);
    }

    #[test]
    fn route_begin_resets_between_rounds() {
        let mut route = RouteBuffer::new();
        route.begin(2);
        route.count(1);
        route.begin(2);
        assert_eq!(route.tally(1), 0);
    }
}
