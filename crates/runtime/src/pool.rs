//! `pim-pool` — the hand-rolled deterministic parallel executor.
//!
//! Everything CPU-side that *executes* in parallel (the per-round module
//! sweep in [`crate::system::PimSystem`], the sorts and scans in
//! `pim-primitives`) routes through this module. The design contract,
//! which the CI determinism job enforces byte-for-byte:
//!
//! > **Thread count changes wall-clock time and nothing else.** Model
//! > metrics, replies, traces and span stats are bit-identical for every
//! > `PIM_THREADS` value; `PIM_THREADS=1` is bit-identical to the old
//! > sequential path.
//!
//! How that is achieved:
//!
//! * **Scoped workers.** Each parallel region spawns its workers with
//!   [`std::thread::scope`] — no global queues, no `'static` bounds, no
//!   unsafe. A region is a pure fork/join bracket.
//! * **Chunked range scheduling.** Work is split into contiguous index
//!   chunks; workers claim chunks dynamically (an atomic cursor or a
//!   popped queue). *Which worker* runs a chunk is racy; *what the chunk
//!   computes* is not.
//! * **Per-worker outboxes, merged in index order.** Workers collect
//!   `(chunk start, results)` locally; the caller sorts the outboxes by
//!   start index after the join, so the merged output order equals the
//!   sequential iteration order no matter how chunks were interleaved.
//! * **Stable sorts only.** The parallel sort is a bottom-up stable merge
//!   sort, and the sequential fallback is `slice::sort_by` (also stable).
//!   A stable sort's output permutation is *canonical* — fully determined
//!   by the input — so any chunking produces the same bytes.
//! * **Panic propagation.** A panic in any worker is re-raised in the
//!   caller after all workers have been joined (no detached threads, no
//!   deadlock), exactly like a panic in the sequential loop.
//!
//! The executor is configured by [`ExecConfig`]: explicitly via
//! [`configure`], or from the `PIM_THREADS` environment variable on first
//! use (default: all available cores). Small regions stay sequential —
//! below [`ExecConfig::par_threshold`] units of work the fork/join bracket
//! costs more than it buys — and the threshold depends only on input
//! sizes, never on timing, so it cannot break determinism.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Executor configuration: worker count and sequential cutoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads per parallel region (including the calling thread).
    /// `1` disables forking entirely — the exact old sequential path.
    pub threads: usize,
    /// Minimum work units (caller-supplied hint, usually item or task
    /// counts) before a region forks; smaller regions run inline.
    pub par_threshold: usize,
    /// Minimum slice length before a sort forks.
    pub sort_threshold: usize,
}

impl ExecConfig {
    /// Threshold defaults chosen so that polylog-sized control rounds stay
    /// inline and only data-proportional sweeps fork.
    const DEFAULT_PAR_THRESHOLD: usize = 512;
    const DEFAULT_SORT_THRESHOLD: usize = 8 * 1024;

    /// Config with an explicit thread count and default cutoffs.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            par_threshold: Self::DEFAULT_PAR_THRESHOLD,
            sort_threshold: Self::DEFAULT_SORT_THRESHOLD,
        }
    }

    /// The strictly sequential config (`threads = 1`).
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Read `PIM_THREADS` (falling back to the machine's available
    /// parallelism, then to 1). `PIM_THREADS=0` also means "all cores".
    pub fn from_env() -> Self {
        Self::from_settings(&crate::envcfg::EnvSettings::from_env())
    }

    /// Build from pre-parsed [`crate::envcfg::EnvSettings`] (absent/zero/
    /// garbage thread counts fall back to the machine's available
    /// parallelism, then to 1).
    pub fn from_settings(settings: &crate::envcfg::EnvSettings) -> Self {
        let threads = settings.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Self::with_threads(threads)
    }
}

/// Global config, `None` until first use ([`current`] then seeds it from
/// the environment). A `Mutex` rather than atomics: it is read once per
/// parallel region, which is noise next to a fork/join bracket.
static CONFIG: Mutex<Option<ExecConfig>> = Mutex::new(None);

/// Install an executor config process-wide (benchmark thread sweeps, tests).
pub fn configure(cfg: ExecConfig) {
    *CONFIG.lock().expect("pool config poisoned") = Some(ExecConfig {
        threads: cfg.threads.max(1),
        ..cfg
    });
}

/// The active config (seeded from `PIM_THREADS` on first call).
pub fn current() -> ExecConfig {
    let mut guard = CONFIG.lock().expect("pool config poisoned");
    *guard.get_or_insert_with(ExecConfig::from_env)
}

/// Number of worker threads parallel regions will use.
pub fn current_num_threads() -> usize {
    current().threads
}

// ---------------------------------------------------------------------------
// The fork/join bracket.
// ---------------------------------------------------------------------------

/// Run `body(worker_index)` on `threads` workers: the calling thread is
/// worker 0, the rest are scoped spawns. All workers are joined before
/// returning; the first worker panic is re-raised here afterwards.
fn fork_join(threads: usize, body: impl Fn(usize) + Sync) {
    if threads <= 1 {
        body(0);
        return;
    }
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || body(w))).collect();
        // The caller participates; if it panics, `scope` still joins the
        // spawned workers before unwinding further.
        body(0);
        let mut panic_payload = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic_payload.get_or_insert(p);
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
    });
}

/// Chunk size for `n` items on `threads` workers: ~4 chunks per worker so
/// a straggler chunk cannot idle the rest of the pool, floored so tiny
/// chunks don't drown in claim traffic. Only load balance depends on this
/// — outputs are merged by index, so any chunking yields the same bytes.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(16)
}

/// Collected `(start index, results)` segments → one `Vec` in index order.
fn merge_outboxes<R>(mut segments: Vec<(usize, Vec<R>)>, n: usize) -> Vec<R> {
    segments.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, seg) in segments {
        out.extend(seg);
    }
    debug_assert_eq!(out.len(), n);
    out
}

// ---------------------------------------------------------------------------
// Parallel maps.
// ---------------------------------------------------------------------------

/// Map `f` over `0..n`, returning results in index order. `weight` is the
/// caller's estimate of total work units (use `n` when in doubt); regions
/// below the threshold run inline.
pub fn par_map_indexed<R, F>(n: usize, weight: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(&current(), n, weight, f)
}

/// [`par_map_indexed`] with an explicit config (benchmarks, tests).
pub fn par_map_indexed_with<R, F>(cfg: &ExecConfig, n: usize, weight: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = cfg.threads.min(n);
    if threads <= 1 || weight < cfg.par_threshold {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    let outboxes: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    fork_join(threads, |_| {
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, AtomicOrdering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            local.push((start, (start..end).map(&f).collect()));
        }
        outboxes.lock().expect("pool outbox poisoned").extend(local);
    });
    merge_outboxes(outboxes.into_inner().expect("pool outbox poisoned"), n)
}

/// Zip a mutable slice with owned per-item inputs and map in parallel:
/// `out[i] = f(i, &mut items[i], inputs[i])`, results in index order.
///
/// This is the round engine's shape: `items` are the `P` modules, `inputs`
/// their inboxes, `f` one module's task sweep ("chunked module-range
/// scheduling" — workers claim contiguous module ranges).
pub fn par_zip_map_mut<T, I, R, F>(items: &mut [T], inputs: Vec<I>, weight: usize, f: F) -> Vec<R>
where
    T: Send,
    I: Send,
    R: Send,
    F: Fn(usize, &mut T, I) -> R + Sync,
{
    par_zip_map_mut_with(&current(), items, inputs, weight, f)
}

/// [`par_zip_map_mut`] with an explicit config (benchmarks, tests).
pub fn par_zip_map_mut_with<T, I, R, F>(
    cfg: &ExecConfig,
    items: &mut [T],
    inputs: Vec<I>,
    weight: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    I: Send,
    R: Send,
    F: Fn(usize, &mut T, I) -> R + Sync,
{
    assert_eq!(items.len(), inputs.len(), "zip length mismatch");
    let n = items.len();
    let threads = cfg.threads.min(n);
    if threads <= 1 || weight < cfg.par_threshold {
        return items
            .iter_mut()
            .zip(inputs)
            .enumerate()
            .map(|(i, (t, inp))| f(i, t, inp))
            .collect();
    }
    // Pre-split into (start, module range, input range) work units; the
    // borrow checker sees disjoint `&mut` chunks, so no unsafe is needed.
    let chunk = chunk_size(n, threads);
    let mut units: Vec<(usize, &mut [T], Vec<I>)> = Vec::with_capacity(n.div_ceil(chunk));
    {
        let mut rest = items;
        let mut inputs = inputs.into_iter();
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            units.push((base, head, inputs.by_ref().take(take).collect()));
            rest = tail;
            base += take;
        }
    }
    let queue = Mutex::new(units);
    let outboxes: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    fork_join(threads, |_| {
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let unit = queue.lock().expect("pool queue poisoned").pop();
            let Some((base, ts, is)) = unit else { break };
            let rs: Vec<R> = ts
                .iter_mut()
                .zip(is)
                .enumerate()
                .map(|(j, (t, inp))| f(base + j, t, inp))
                .collect();
            local.push((base, rs));
        }
        outboxes.lock().expect("pool outbox poisoned").extend(local);
    });
    merge_outboxes(outboxes.into_inner().expect("pool outbox poisoned"), n)
}

/// Zip a mutable slice with two mutable companion slices and sweep in
/// parallel: `f(i, &mut items[i], &mut a[i], &mut b[i])`.
///
/// This is the *recycled* round-engine shape: `items` are the `P` modules,
/// `a` their inboxes (drained in place, capacity retained), `b` their
/// persistent per-module outboxes. Because every output is written into
/// its own indexed slot of `b`, the index-ordered "merge" of worker
/// results is free — there are no per-worker outboxes to collect, sort or
/// concatenate, so the parallel bracket allocates only its work-unit list.
/// The sequential path (threads ≤ 1 or weight below the threshold)
/// allocates nothing at all.
pub fn par_zip2_for_each_mut<T, A, B, F>(
    items: &mut [T],
    a: &mut [A],
    b: &mut [B],
    weight: usize,
    f: F,
) where
    T: Send,
    A: Send,
    B: Send,
    F: Fn(usize, &mut T, &mut A, &mut B) + Sync,
{
    par_zip2_for_each_mut_with(&current(), items, a, b, weight, f)
}

/// [`par_zip2_for_each_mut`] with an explicit config (benchmarks, tests).
pub fn par_zip2_for_each_mut_with<T, A, B, F>(
    cfg: &ExecConfig,
    items: &mut [T],
    a: &mut [A],
    b: &mut [B],
    weight: usize,
    f: F,
) where
    T: Send,
    A: Send,
    B: Send,
    F: Fn(usize, &mut T, &mut A, &mut B) + Sync,
{
    assert_eq!(items.len(), a.len(), "zip length mismatch");
    assert_eq!(items.len(), b.len(), "zip length mismatch");
    let n = items.len();
    let threads = cfg.threads.min(n);
    if threads <= 1 || weight < cfg.par_threshold {
        for (i, ((t, ai), bi)) in items
            .iter_mut()
            .zip(a.iter_mut())
            .zip(b.iter_mut())
            .enumerate()
        {
            f(i, t, ai, bi);
        }
        return;
    }
    // Pre-split all three slices into matching disjoint chunks; the borrow
    // checker sees disjoint `&mut` regions, so no unsafe is needed.
    type Unit<'u, T, A, B> = (usize, &'u mut [T], &'u mut [A], &'u mut [B]);
    let chunk = chunk_size(n, threads);
    let mut units: Vec<Unit<T, A, B>> = Vec::with_capacity(n.div_ceil(chunk));
    {
        let (mut rt, mut ra, mut rb) = (items, a, b);
        let mut base = 0usize;
        while !rt.is_empty() {
            let take = chunk.min(rt.len());
            let (ht, tt) = rt.split_at_mut(take);
            let (ha, ta) = ra.split_at_mut(take);
            let (hb, tb) = rb.split_at_mut(take);
            units.push((base, ht, ha, hb));
            (rt, ra, rb) = (tt, ta, tb);
            base += take;
        }
    }
    let queue = Mutex::new(units);
    fork_join(threads, |_| loop {
        let unit = queue.lock().expect("pool queue poisoned").pop();
        let Some((base, ts, asl, bsl)) = unit else {
            break;
        };
        for (j, ((t, ai), bi)) in ts
            .iter_mut()
            .zip(asl.iter_mut())
            .zip(bsl.iter_mut())
            .enumerate()
        {
            f(base + j, t, ai, bi);
        }
    });
}

/// Apply `f(i, &mut items[i])` to every element in parallel.
pub fn par_for_each_mut<T, F>(items: &mut [T], weight: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let cfg = current();
    let n = items.len();
    let threads = cfg.threads.min(n);
    if threads <= 1 || weight < cfg.par_threshold {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = chunk_size(n, threads);
    let units: Vec<(usize, &mut [T])> = split_indexed(items, chunk);
    let queue = Mutex::new(units);
    fork_join(threads, |_| loop {
        let unit = queue.lock().expect("pool queue poisoned").pop();
        let Some((base, ts)) = unit else { break };
        for (j, t) in ts.iter_mut().enumerate() {
            f(base + j, t);
        }
    });
}

/// Apply `f(chunk_index, chunk)` to fixed-size chunks of `items` in
/// parallel. The chunking is the *caller's* (e.g. a scan's block size) —
/// it must not be derived from the thread count if block identities leak
/// into outputs.
pub fn par_chunks_mut<T, F>(items: &mut [T], chunk: usize, weight: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_with(&current(), items, chunk, weight, f)
}

/// [`par_chunks_mut`] with an explicit config (benchmarks, tests).
pub fn par_chunks_mut_with<T, F>(
    cfg: &ExecConfig,
    items: &mut [T],
    chunk: usize,
    weight: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = items.len().div_ceil(chunk);
    let threads = cfg.threads.min(n_chunks);
    if threads <= 1 || weight < cfg.par_threshold {
        for (ci, c) in items.chunks_mut(chunk).enumerate() {
            f(ci, c);
        }
        return;
    }
    let units: Vec<(usize, &mut [T])> = items.chunks_mut(chunk).enumerate().collect();
    let queue = Mutex::new(units);
    fork_join(threads, |_| loop {
        let unit = queue.lock().expect("pool queue poisoned").pop();
        let Some((ci, c)) = unit else { break };
        f(ci, c);
    });
}

/// Split a slice into `(start index, chunk)` units.
fn split_indexed<T>(items: &mut [T], chunk: usize) -> Vec<(usize, &mut [T])> {
    let mut units = Vec::with_capacity(items.len().div_ceil(chunk.max(1)));
    let mut rest = items;
    let mut base = 0usize;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        units.push((base, head));
        rest = tail;
        base += take;
    }
    units
}

// ---------------------------------------------------------------------------
// Parallel stable merge sort.
// ---------------------------------------------------------------------------

/// Sort by a comparator — **stable** at every thread count, so the output
/// permutation is canonical and byte-identical across `PIM_THREADS`
/// settings. `T: Copy` lets the merge layers ping-pong through a plain
/// auxiliary buffer without unsafe; every type sorted on the simulator's
/// hot paths (keys, key/value pairs) is `Copy`.
pub fn par_sort_by<T, F>(v: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    par_sort_by_with(&current(), v, cmp)
}

/// [`par_sort_by`] with an explicit config (benchmarks, tests).
pub fn par_sort_by_with<T, F>(cfg: &ExecConfig, v: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    if cfg.threads <= 1 || n < cfg.sort_threshold {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }
    let threads = cfg.threads;
    // Initial runs: ~2 per worker, so run sorting saturates the pool and
    // the merge tree still has parallel layers.
    let width = n.div_ceil(threads * 2).max(1);
    par_chunks_mut_with(cfg, v, width, n, |_, run| run.sort_by(|a, b| cmp(a, b)));

    // Bottom-up merge, ping-ponging between `v` and an aux buffer. Pair
    // regions are disjoint, so each merge layer is an independent-unit
    // parallel sweep.
    let mut aux: Vec<T> = v.to_vec();
    let mut in_v = true;
    let mut width = width;
    while width < n {
        if in_v {
            merge_layer(&*v, &mut aux, width, threads, &cmp);
        } else {
            merge_layer(&aux, v, width, threads, &cmp);
        }
        in_v = !in_v;
        width *= 2;
    }
    if !in_v {
        v.copy_from_slice(&aux);
    }
}

/// Merge adjacent sorted runs of length `width` from `src` into `dst`.
fn merge_layer<T, F>(src: &[T], dst: &mut [T], width: usize, threads: usize, cmp: &F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let units: Vec<(usize, &mut [T])> = split_indexed(dst, 2 * width);
    let queue = Mutex::new(units);
    fork_join(threads, |_| loop {
        let unit = queue.lock().expect("pool queue poisoned").pop();
        let Some((base, region)) = unit else { break };
        let mid = width.min(region.len());
        let (left, right) = (
            &src[base..base + mid],
            &src[base + mid..base + region.len()],
        );
        let (mut i, mut j) = (0usize, 0usize);
        for slot in region.iter_mut() {
            // `<=` keeps the left (earlier) element on ties — stability.
            *slot = if j >= right.len()
                || (i < left.len() && cmp(&left[i], &right[j]) != Ordering::Greater)
            {
                i += 1;
                left[i - 1]
            } else {
                j += 1;
                right[j - 1]
            };
        }
    });
}

/// Stable parallel sort of an `Ord` slice.
pub fn par_sort<T: Copy + Ord + Send + Sync>(v: &mut [T]) {
    par_sort_by(v, T::cmp)
}

/// Stable parallel sort by an extracted key.
pub fn par_sort_by_key<T, K, F>(v: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    par_sort_by(v, |a, b| key(a).cmp(&key(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercise the parallel paths regardless of the host's core count or
    /// the ambient global config: thresholds at zero force forking.
    fn cfg(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            par_threshold: 0,
            sort_threshold: 0,
        }
    }

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        let expect: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 17] {
            let got = par_map_indexed_with(&cfg(threads), 1000, 1000, |i| (i as u64) * (i as u64));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn zip_map_mut_updates_in_place_and_orders_results() {
        for threads in [1, 4, 9] {
            let mut items: Vec<u64> = vec![0; 500];
            let inputs: Vec<u64> = (0..500u64).collect();
            let out = par_zip_map_mut_with(&cfg(threads), &mut items, inputs, 500, |i, t, inp| {
                *t = inp + 1;
                (i as u64) * 2
            });
            assert_eq!(
                items,
                (1..=500u64).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            assert_eq!(out, (0..500u64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zip2_for_each_matches_sequential_for_every_thread_count() {
        for threads in [1, 3, 8] {
            let mut items: Vec<u64> = vec![0; 333];
            let mut a: Vec<u64> = (0..333u64).collect();
            let mut b: Vec<u64> = vec![0; 333];
            par_zip2_for_each_mut_with(
                &cfg(threads),
                &mut items,
                &mut a,
                &mut b,
                333,
                |i, t, ai, bi| {
                    *t = *ai * 2;
                    *bi = i as u64 + *ai;
                },
            );
            assert_eq!(items, (0..333u64).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(b, (0..333u64).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(a, (0..333u64).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn sort_is_stable_and_matches_std_across_thread_counts() {
        // Key with distinguishable ties: stability is observable.
        let items: Vec<(u8, u32)> = (0..10_000u32).map(|i| ((i % 7) as u8, i)).collect();
        let mut expect = items.clone();
        expect.sort_by_key(|&(k, _)| k);
        for threads in [1, 2, 5, 8] {
            let mut got = items.clone();
            par_sort_by_with(&cfg(threads), &mut got, |a, b| a.0.cmp(&b.0));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn sort_handles_tiny_and_ragged_lengths() {
        for n in [0usize, 1, 2, 3, 15, 16, 17, 1023] {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            par_sort_by_with(&cfg(4), &mut v, u64::cmp);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            par_map_indexed_with(&cfg(4), 256, 256, |i| {
                if i == 137 {
                    panic!("worker {i} died");
                }
                i
            })
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn caller_thread_panic_propagates_too() {
        // Worker 0 is the calling thread; chunk claiming means any worker
        // may hit the poisoned index, including the caller.
        let result = std::panic::catch_unwind(|| {
            par_for_each_mut(&mut [0u8; 4], usize::MAX, |_, _| panic!("boom"))
        });
        assert!(result.is_err());
    }

    #[test]
    fn sequential_cutoff_stays_inline() {
        // weight below the threshold: must not fork (observable via the
        // thread id seen by `f` — all on the caller).
        let caller = std::thread::current().id();
        let cfg = ExecConfig {
            threads: 8,
            par_threshold: 1_000_000,
            sort_threshold: 0,
        };
        let ids = par_map_indexed_with(&cfg, 64, 64, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn env_parsing_clamps_to_one() {
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
        assert_eq!(ExecConfig::sequential().threads, 1);
    }

    #[test]
    fn chunk_sizes_cover_the_range() {
        for (n, t) in [(1usize, 1usize), (7, 8), (1000, 4), (16, 16)] {
            let c = chunk_size(n, t);
            assert!(c >= 1);
            assert!(c * (n.div_ceil(c)) >= n);
        }
    }
}
