//! The host-memory footprint of the structure `bulk_load` builds, asserted.
//!
//! The paper gives each PIM module `Θ(n/P)` words; how many host bytes the
//! simulator spends on each of them is a cost of its own, and the
//! benchmark's gated `peak_rss_mb` is mostly this structure. This binary
//! installs a `#[global_allocator]` that tracks live and peak heap bytes
//! (its own test binary, so no other suite pays for it) and pins the pool
//! to one thread, so the byte counts repeat exactly. It holds one test:
//! the counters are process-wide, and a second test running beside it
//! would add its own bytes.
//!
//! A `realloc` is counted as a fresh block followed by the old one's
//! release, so a growing `Vec` or table shows at its peak with both
//! copies live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use pim_core::{Config, Key, PimSkipList, Value};
use pim_runtime::pool::{self, ExecConfig};

/// Heap bytes currently allocated (statistic only: publishes no data).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

/// Forwards to [`System`], tracking the bytes of every block it hands out.
struct TrackingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Start a new peak window at the current live bytes.
fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

const P: u32 = 16;
const N: usize = 1 << 14;
/// Keys a churn batch deletes, and inserts: `N / 16`, so each batch
/// replaces a sixteenth of the structure (4 × `batch_large` at `P = 16`).
const CHURN: usize = N / 16;

/// Heap bytes per key after `bulk_load`: the measured 437.5 (6.8 MiB at
/// `n = 2^14`) plus 10 %. A 64-byte node that also held the leaf's value
/// read 459.4 (the index here ends at 50 % load under both growth
/// factors); the journal of 64-byte entries with tower handles and a
/// hashed index read 542.2 before it became a key → value map; the
/// 104-byte node that carried every leaf field read 692.0; the layout
/// before the segmented arena, boxed leaf chains, 16-byte index slots and
/// the dense journal read 891.5.
const BYTES_PER_KEY: f64 = 482.0;

/// `bulk_load`'s heap peak over the bytes it leaves live: the measured
/// 1.0072 (51,576 bytes of build buffers). While the journal map was
/// collected after the build, the 262,144 bytes of 16-byte pairs it
/// stages read 1.035. Before the map, the build kept a second copy of
/// every tower for the journal, 584 kB, and read 1.066 (1.052 over the
/// 104-byte node). An unreserved journal added a rehash with the old
/// table live (1.076 over the 104-byte node), and the hashed journal
/// before the dense one read 1.113.
const PEAK_OVER_LIVE: f64 = 1.01;

/// splitmix64: the churn's key stream, independent of the structure's
/// coins.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn bulk_load_footprint_and_churn_growth_stay_pinned() {
    pool::configure(ExecConfig::with_threads(1));
    // The benchmark's key layout: `4·(i − n/2)`, three absent keys per gap.
    let half = (N / 2) as Key;
    let pairs: Vec<(Key, Value)> = (0..N as Key)
        .map(|i| (4 * (i - half), i as Value))
        .collect();

    let before = live();
    let mut list = PimSkipList::new(Config::new(P, N as u64, 42));
    reset_peak();
    list.bulk_load(&pairs);
    let peak = PEAK.load(Relaxed) - before;
    let built = live() - before;

    let per_key = built as f64 / N as f64;
    assert!(
        per_key <= BYTES_PER_KEY,
        "{per_key:.1} heap bytes per key after bulk_load (P = {P}, n = {N}), \
         pinned at {BYTES_PER_KEY}"
    );
    assert!(
        peak as f64 <= PEAK_OVER_LIVE * built as f64,
        "bulk_load peaked at {peak} heap bytes for a structure of {built} \
         ({:.3}×, at most {PEAK_OVER_LIVE}×)",
        peak as f64 / built as f64
    );

    // Stationary churn: each batch deletes `CHURN` live keys, then inserts
    // as many absent ones, so the key count never moves. Ten batches warm
    // the round engine's and the batches' recycled buffers first.
    let mut keys: Vec<Key> = pairs.iter().map(|&(k, _)| k).collect();
    // Membership of every key in `[-2n, 2n)`, indexed by `key + 2n`.
    let mut present = vec![false; 4 * N];
    for &k in &keys {
        present[(k + 4 * half) as usize] = true;
    }
    let mut rng = 0x5EED_0044u64;
    let mut batch = |list: &mut PimSkipList, keys: &mut Vec<Key>| {
        let gone: Vec<Key> = (0..CHURN)
            .map(|_| keys.swap_remove((mix(&mut rng) % keys.len() as u64) as usize))
            .collect();
        for &k in &gone {
            present[(k + 4 * half) as usize] = false;
        }
        assert!(list.batch_delete(&gone).iter().all(|&hit| hit));
        let mut fresh = Vec::with_capacity(CHURN);
        while fresh.len() < CHURN {
            let i = (mix(&mut rng) % (4 * N as u64)) as usize;
            if !present[i] {
                present[i] = true;
                fresh.push((i as Key - 4 * half, 7));
            }
        }
        list.batch_upsert(&fresh);
        keys.extend(fresh.iter().map(|&(k, _)| k));
    };
    for _ in 0..10 {
        batch(&mut list, &mut keys);
    }
    let warm = live();
    for _ in 0..100 {
        batch(&mut list, &mut keys);
    }
    assert_eq!(list.len(), N as u64);
    let grown = live() as f64 / warm as f64;
    assert!(
        grown <= 1.05,
        "100 stationary churn batches grew live heap bytes {grown:.4}× \
         ({warm} → {}), at most 1.05×",
        live()
    );
    list.validate().unwrap();
}
