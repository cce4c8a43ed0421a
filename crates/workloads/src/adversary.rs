//! Adversarial batch generators (§3.3, §4.2).
//!
//! The paper's central robustness claim is PIM-balance under
//! *adversary-controlled* batches. Three canonical attacks appear in the
//! text:
//!
//! * **duplicate flood** (§3.3): "multiple Get (or Update) operations with
//!   the same key can cause contention on the PIM module holding the key";
//! * **same-successor flood** (§3.3, §4.2): "the adversary can request a
//!   batch of `P log² P` different keys all with the same successor,
//!   causing lower-part nodes to become contention points ... completely
//!   eliminating parallelism" for the naïve algorithm;
//! * **single-range flood** (§2.2): against range partitioning, "all keys
//!   fall within the range hosted by a single PIM-module", serialising the
//!   baseline.

use rand::{Rng, SeedableRng};

use crate::point::Key;

/// A batch consisting of one key repeated `count` times (duplicate flood).
pub fn duplicate_flood(key: Key, count: usize) -> Vec<Key> {
    vec![key; count]
}

/// `count` *distinct* keys that all share one successor: the keys are drawn
/// from the open interval `(gap_lo, gap_hi)` which the caller guarantees to
/// contain no resident key, so every query's successor is the resident key
/// at/above `gap_hi`. Requires the gap to be wider than `count`.
pub fn same_successor_flood(seed: u64, gap_lo: Key, gap_hi: Key, count: usize) -> Vec<Key> {
    assert!(gap_hi - gap_lo > count as i64 + 1, "gap too narrow");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = rng.gen_range(gap_lo + 1..gap_hi);
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// `count` keys confined to `[lo, hi]` (single-range flood against range
/// partitioning; duplicates allowed).
pub fn single_range_flood(seed: u64, lo: Key, hi: Key, count: usize) -> Vec<Key> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// An arithmetic run of `count` consecutive keys starting at `start`
/// (contiguous-delete / contiguous-insert adversary: stresses Algorithm 1's
/// segment chaining and Delete's list contraction with one long run).
pub fn contiguous_run(start: Key, count: usize) -> Vec<Key> {
    (0..count as i64).map(|i| start + i).collect()
}

/// A batch whose every pivot group (§4.2, grouped by lower-part entry) holds
/// exactly `g` pivots. `leaf_keys` are the keys of the structure's
/// upper-part leaves in order: a key `k` enters the lower part below leaf
/// `a` iff `a < k ≤ next`, so `g·log P` consecutive keys go below every leaf
/// that has room for them and the pivots — every `log P`-th key of the
/// batch — fall `g` to a leaf. The last leaf used gets `(g − 1)·log P + 1`
/// keys: the batch's last key is a pivot as well.
pub fn pivot_groups(leaf_keys: &[Key], log_p: usize, g: usize) -> Vec<Key> {
    let per_leaf = g * log_p;
    let mut keys: Vec<Key> = leaf_keys
        .windows(2)
        .filter(|w| w[1] - w[0] >= per_leaf as Key)
        .flat_map(|w| (w[0] + 1..).take(per_leaf))
        .collect();
    keys.truncate(keys.len().saturating_sub(log_p - 1));
    keys
}

/// [`pivot_groups`] with two pivots per group: the largest group whose
/// searches always fit the stage-2 allowance `3⌈log P⌉ − 1`.
pub fn two_pivot_groups(leaf_keys: &[Key], log_p: usize) -> Vec<Key> {
    pivot_groups(leaf_keys, log_p, 2)
}

/// `batches` query batches whose hot set *moves*: every `period` batches
/// the window of `hot` consecutive resident keys jumps to a new spot in
/// the key order (golden-ratio stride, so successive windows are far
/// apart and the sequence never revisits a window for small counts).
/// Within a window, keys are drawn uniformly from the window's `hot`
/// keys. This is the anti-caching adversary: any popularity cache keyed
/// to one hot set must hold *several disjoint working sets at once* —
/// or re-admit under churn — to stay effective across rotations.
pub fn rotating_hotspot(
    seed: u64,
    resident: &[Key],
    hot: usize,
    batch: usize,
    batches: usize,
    period: usize,
) -> Vec<Vec<Key>> {
    assert!(hot >= 1 && hot <= resident.len());
    assert!(period >= 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let span = (resident.len() - hot + 1) as u64;
    (0..batches)
        .map(|b| {
            let window = (b / period) as u64;
            // Multiply-high, not mod: the high bits of `w·φ⁻¹·2⁶⁴` follow
            // the golden-ratio low-discrepancy sequence on [0, 1), while
            // `mod span` would collapse to an arithmetic progression with
            // stride `φ⁻¹·2⁶⁴ mod span` — possibly tiny.
            let frac = window.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let start = ((u128::from(frac) * u128::from(span)) >> 64) as usize;
            (0..batch)
                .map(|_| resident[start + rng.gen_range(0..hot)])
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_flood_is_constant() {
        let b = duplicate_flood(42, 10);
        assert_eq!(b.len(), 10);
        assert!(b.iter().all(|&k| k == 42));
    }

    #[test]
    fn same_successor_flood_distinct_in_gap() {
        let b = same_successor_flood(1, 1000, 100_000, 5000);
        assert_eq!(b.len(), 5000);
        let set: std::collections::HashSet<_> = b.iter().collect();
        assert_eq!(set.len(), 5000);
        assert!(b.iter().all(|&k| k > 1000 && k < 100_000));
    }

    #[test]
    #[should_panic]
    fn same_successor_flood_rejects_narrow_gap() {
        let _ = same_successor_flood(1, 0, 10, 100);
    }

    #[test]
    fn single_range_flood_confined() {
        let b = single_range_flood(2, 50, 60, 1000);
        assert!(b.iter().all(|&k| (50..=60).contains(&k)));
    }

    #[test]
    fn pivot_groups_put_g_pivots_below_every_roomy_leaf() {
        // Leaves 0, 100, 105, 300: the gap 100..105 is too narrow for 3·4.
        let keys = pivot_groups(&[0, 100, 105, 300], 4, 3);
        assert_eq!(keys.len(), 2 * 12 - 3);
        assert_eq!(&keys[..12], &(1..=12).collect::<Vec<_>>()[..]);
        assert_eq!(&keys[12..], &(106..=114).collect::<Vec<_>>()[..]);
        // Pivots (every 4th key and the last) fall three to a leaf.
        assert_eq!((keys.len() - 1) % 4, 0);
        assert_eq!(
            two_pivot_groups(&[0, 100, 300], 4),
            pivot_groups(&[0, 100, 300], 4, 2)
        );
    }

    #[test]
    fn contiguous_run_is_consecutive() {
        assert_eq!(contiguous_run(5, 4), vec![5, 6, 7, 8]);
    }

    #[test]
    fn rotating_hotspot_rotates_between_periods_only() {
        let resident: Vec<Key> = (0..1000).map(|k| k * 2).collect();
        let batches = rotating_hotspot(3, &resident, 50, 40, 6, 2);
        assert_eq!(batches.len(), 6);
        let window = |b: &[Key]| {
            let lo = *b.iter().min().unwrap();
            let hi = *b.iter().max().unwrap();
            assert!(hi - lo < 100, "batch spills outside one hot window");
            lo
        };
        // Batches within one period share a window; the next period's
        // window is somewhere else entirely.
        let w: Vec<Key> = batches.iter().map(|b| window(b)).collect();
        assert!((w[0] - w[1]).abs() < 100 && (w[2] - w[3]).abs() < 100);
        assert!((w[0] - w[2]).abs() > 100, "window never moved");
        assert_eq!(
            batches,
            rotating_hotspot(3, &resident, 50, 40, 6, 2),
            "pure function of the seed"
        );
        assert!(batches
            .iter()
            .flatten()
            .all(|k| resident.binary_search(k).is_ok()));
    }
}
