//! Configuration of the PIM skip list.

use pim_runtime::ceil_log2;

/// Keys are signed 64-bit integers; `i64::MIN` is reserved for the −∞
/// sentinel tower.
pub type Key = i64;
/// Values are single words, matching the model's constant-size messages.
pub type Value = u64;

/// The −∞ sentinel key.
pub const NEG_INF: Key = i64::MIN;
/// Conceptual +∞ (used for `right_key` of list tails).
pub const POS_INF: Key = i64::MAX;

/// Construction parameters of a [`crate::list::PimSkipList`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of PIM modules, `P`.
    pub p: u32,
    /// Secret seed for hashing and tower coin tosses (the adversary never
    /// sees it, per the model's batch constraints).
    pub seed: u64,
    /// Height of the lower (distributed) part: levels `0..h_low` are hashed
    /// to modules; levels `≥ h_low` are replicated. The paper sets
    /// `h_low = log P` (§3.1), which is the default.
    pub h_low: u8,
    /// Total number of levels (`0..=max_level`); towers are capped here.
    /// Sized `h_low + 2·log2(expected_n) + 8` by default so the cap is
    /// irrelevant whp; descents start at the highest *linked* level, so
    /// the levels nothing reaches cost no PIM time.
    pub max_level: u8,
    /// Record per-node access counts during searches (Lemma 4.2
    /// instrumentation; off by default — it is test/experiment machinery,
    /// not part of the data structure).
    pub track_contention: bool,
    /// Retry budget of a fault-tolerant call (an `execute` span,
    /// `bulk_load`, `range_broadcast`, `batch_read`) that injected faults
    /// fail. Its first attempt does not count: the call gives up with
    /// [`crate::error::PimError::RetriesExhausted`] after `max_retries + 2`
    /// attempts, and a whole-machine restore after `max_retries + 1`
    /// rebuilds. Irrelevant on a fault-free machine. Default 3.
    pub max_retries: u32,
}

impl Config {
    /// The paper's defaults for `p` modules and about `expected_n` keys.
    pub fn new(p: u32, expected_n: u64, seed: u64) -> Self {
        let h_low = ceil_log2(u64::from(p)) as u8;
        let max_level = (h_low as u32 + 2 * ceil_log2(expected_n.max(16)) + 8).min(63) as u8;
        Config {
            p,
            seed,
            h_low,
            max_level,
            track_contention: false,
            max_retries: 3,
        }
    }

    /// Override the recovery retry budget (chaos testing).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Override the lower-part height (the `ABL-HLOW` ablation experiment).
    pub fn with_h_low(mut self, h_low: u8) -> Self {
        assert!(h_low < self.max_level, "need at least one upper level");
        self.h_low = h_low;
        self
    }

    /// Enable Lemma 4.2 contention instrumentation.
    pub fn with_contention_tracking(mut self) -> Self {
        self.track_contention = true;
        self
    }

    /// No effect; kept until ROADMAP item 0b removes the benchmark's
    /// callers.
    pub fn with_pipeline(self, _pipeline: bool) -> Self {
        self
    }

    /// No effect; kept until ROADMAP item 0b removes the benchmark's
    /// callers.
    pub fn with_push_pull(self, _push_pull: bool) -> Self {
        self
    }

    /// `ceil(log2 P)` as used in batch-size recommendations.
    pub fn log_p(&self) -> u32 {
        ceil_log2(u64::from(self.p))
    }

    /// The paper's minimum batch size for Get/Update: `P log P`.
    pub fn batch_small(&self) -> usize {
        (self.p * self.log_p()) as usize
    }

    /// The paper's batch size for Successor/Upsert/Delete/ranges:
    /// `P log² P`.
    pub fn batch_large(&self) -> usize {
        (self.p * self.log_p() * self.log_p()) as usize
    }

    /// The pivoted search's allowance `A = max(3⌈log P⌉ − 1, ⌈b/P⌉)` for a
    /// batch of `b` unique requests: the most searches one lower-part node
    /// may see in one wave. The floor is stage 2's bound under a group of
    /// two pivots; `⌈b/P⌉` is the share every module serves per wave
    /// anyway. It decides which pivot groups skip the recursion
    /// ([`crate::batch::search`]); a full batch gets `A = log² P` from
    /// `P = 8` on.
    pub fn search_allowance(&self, b: usize) -> usize {
        let step = self.log_p().max(1) as usize;
        (3 * step - 1).max(b.div_ceil(self.p as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::new(16, 1 << 20, 42);
        assert_eq!(c.h_low, 4);
        assert!(c.max_level > c.h_low + 40);
        assert_eq!(c.log_p(), 4);
        assert_eq!(c.batch_small(), 64);
        assert_eq!(c.batch_large(), 256);
    }

    #[test]
    fn non_power_of_two_p() {
        let c = Config::new(12, 1024, 1);
        assert_eq!(c.h_low, 4); // ceil(log2 12) = 4
        assert_eq!(c.batch_small(), 48);
    }

    #[test]
    fn h_low_override() {
        let c = Config::new(16, 1024, 1).with_h_low(0);
        assert_eq!(c.h_low, 0);
    }

    #[test]
    #[should_panic]
    fn h_low_must_leave_upper_levels() {
        let c = Config::new(4, 64, 1);
        let _ = c.clone().with_h_low(c.max_level);
    }
}
