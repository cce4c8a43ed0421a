//! Deterministic key-range routing.
//!
//! The key domain is the full `i64` line. A cluster of `S` shards cuts
//! it into `S` near-equal contiguous ranges: shard `k` starts at
//! `i64::MIN + floor(2^64 * k / S)` (exact in `i128`), and owns keys up
//! to the next shard's start (the last shard runs to `i64::MAX`). The
//! cuts depend only on `S`, never on the data, so two clusters built
//! with the same `S` route identically — the determinism the oracle
//! equivalence suite leans on.

use pim_core::Key;

/// Lower bounds of the `S` uniform key ranges: element `k` is the first
/// key shard `k` owns. `bounds[0]` is always `i64::MIN`.
pub(crate) fn uniform_lower_bounds(shards: u32) -> Vec<Key> {
    let s = i128::from(shards.max(1));
    (0..i128::from(shards.max(1)))
        .map(|k| (i128::from(i64::MIN) + ((1i128 << 64) * k) / s) as i64)
        .collect()
}

/// Index of the shard owning `key` among shards with the given sorted
/// lower bounds (`los[0] == i64::MIN`, so every key has an owner).
/// `PimCluster` inlines the same `partition_point` over its shard table;
/// this free-standing form pins the routing rule for the boundary tests
/// below.
#[cfg(test)]
pub(crate) fn owner(los: &[Key], key: Key) -> usize {
    debug_assert!(!los.is_empty() && los[0] == i64::MIN);
    los.partition_point(|&lo| lo <= key) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_owns_everything() {
        let los = uniform_lower_bounds(1);
        assert_eq!(los, vec![i64::MIN]);
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(owner(&los, k), 0);
        }
    }

    #[test]
    fn uniform_cuts_are_sorted_balanced_and_exhaustive() {
        for s in [2u32, 3, 4, 7, 8, 16] {
            let los = uniform_lower_bounds(s);
            assert_eq!(los.len(), s as usize);
            assert_eq!(los[0], i64::MIN);
            assert!(los.windows(2).all(|w| w[0] < w[1]), "S={s} sorted");
            // Near-equal widths: every cut within 1 of 2^64 / S.
            let widths: Vec<u128> = los
                .windows(2)
                .map(|w| (w[1] as i128 - w[0] as i128) as u128)
                .chain(std::iter::once(
                    (i64::MAX as i128 - *los.last().unwrap() as i128 + 1) as u128,
                ))
                .collect();
            let ideal = (1u128 << 64) / u128::from(s);
            for w in widths {
                assert!(w.abs_diff(ideal) <= 1, "S={s}: width {w} vs ideal {ideal}");
            }
        }
    }

    #[test]
    fn owner_respects_boundaries_exactly() {
        let los = uniform_lower_bounds(4);
        // A boundary key belongs to the shard it starts.
        for (k, &lo) in los.iter().enumerate() {
            assert_eq!(owner(&los, lo), k);
            if lo != i64::MIN {
                assert_eq!(owner(&los, lo - 1), k - 1);
            }
        }
        assert_eq!(owner(&los, 0), 2, "zero starts the third quarter");
        assert_eq!(owner(&los, -1), 1, "minus one ends the second");
        assert_eq!(owner(&los, i64::MAX), 3);
    }
}
