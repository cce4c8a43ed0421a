//! Seeded hashing used to place lower-part nodes on PIM modules.
//!
//! The paper distributes each lower-part node to a module chosen "by a hash
//! function on the (key, level) pairs" (§3.1). The adversary controls the
//! batches but, per the model (§2.1), "cannot depend on the outcome of random
//! choices made by the algorithm" — which we realise by seeding the hash with
//! a secret drawn when the structure is created.
//!
//! The mixer is the finalizer of SplitMix64 (Steele et al.), a full-avalanche
//! 64-bit permutation; composing it over seed and inputs gives a fast keyed
//! hash adequate for load-balancing (this is a simulator, not a HashDoS
//! boundary).

/// SplitMix64 finalizer: a bijective full-avalanche mix of a 64-bit word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed hash of a single word.
#[inline]
pub fn hash1(seed: u64, a: u64) -> u64 {
    mix64(seed ^ mix64(a))
}

/// Keyed hash of a pair of words (e.g. `(key, level)`).
#[inline]
pub fn hash2(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a).wrapping_add(mix64(b.wrapping_add(0xD6E8_FEB8_6659_FD93))))
}

/// The module that hosts the lower-part node `(key, level)`.
#[inline]
pub fn module_of(seed: u64, key: i64, level: u8, p: u32) -> u32 {
    debug_assert!(p > 0);
    (hash2(seed, key as u64, level as u64) % p as u64) as u32
}

/// A stateful keyed hasher for building per-module indexes.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHash {
    seed: u64,
}

impl KeyedHash {
    /// Create a hasher with the given secret seed.
    pub fn new(seed: u64) -> Self {
        KeyedHash { seed }
    }

    /// Hash one word.
    #[inline]
    pub fn hash(&self, a: u64) -> u64 {
        hash1(self.seed, a)
    }

    /// Reduce a hash to a bucket in `0..buckets`.
    #[inline]
    pub fn bucket(&self, a: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        (hash1(self.seed, a) % buckets as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_sample() {
        // A bijection cannot collide; spot-check a window.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn hash2_depends_on_both_inputs_and_order() {
        let s = 42;
        assert_ne!(hash2(s, 1, 2), hash2(s, 2, 1));
        assert_ne!(hash2(s, 1, 2), hash2(s, 1, 3));
        assert_ne!(hash2(s, 1, 2), hash2(s, 4, 2));
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let p = 64;
        let a: Vec<u32> = (0..256).map(|k| module_of(1, k, 0, p)).collect();
        let b: Vec<u32> = (0..256).map(|k| module_of(2, k, 0, p)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn module_of_is_in_range_and_roughly_uniform() {
        let p = 16u32;
        let mut counts = vec![0usize; p as usize];
        for key in 0..16_000i64 {
            let m = module_of(7, key, 3, p);
            assert!(m < p);
            counts[m as usize] += 1;
        }
        let expect = 16_000 / p as usize;
        for &c in &counts {
            assert!(
                c > expect / 2 && c < expect * 2,
                "placement far from uniform: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn keyed_hash_bucket_in_range() {
        let h = KeyedHash::new(123);
        for a in 0..1000 {
            assert!(h.bucket(a, 7) < 7);
        }
    }

    #[test]
    fn levels_spread_same_key() {
        // The same key at different levels should usually land on different
        // modules — that is what spreads a tower across the machine.
        let p = 64;
        let placements: std::collections::HashSet<u32> =
            (0u8..16).map(|l| module_of(9, 12345, l, p)).collect();
        assert!(placements.len() > 4);
    }
}
