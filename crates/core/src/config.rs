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
    /// How many times a batch operation is re-issued (with recovery in
    /// between) when an injected fault loses messages or crashes a module,
    /// before the driver gives up with
    /// [`crate::error::PimError::RetriesExhausted`]. Irrelevant on a
    /// fault-free machine. Default 3.
    pub max_retries: u32,
    /// Push-pull batch search (PIM-tree, same authors): keep a bounded
    /// CPU-side **hot-node cache** of lower-part nodes, resolve the
    /// cached prefix of every hinted search descent locally in a
    /// pre-pass, and ship only the residual waves to modules — a fully
    /// cached wave sends nothing and costs **zero rounds**. Admission
    /// and eviction are deterministic (per-batch access counts, halved
    /// each batch; ties broken by handle bits), coherence is by
    /// write-epoch invalidation (any Upsert/Delete/bulk-load/recovery
    /// commit drops the cached snapshots; counts survive), and every
    /// CPU-resolved step is charged as §2.1 CPU work. Dark by default;
    /// seeded from `PIM_PUSH_PULL` by [`Config::new`]. **Off is
    /// byte-identical to a build without the feature** (replies,
    /// metrics, traces, WAL frames — the CI `skew` job diffs them); on
    /// changes metrics/traces (fewer rounds) but never replies or
    /// contents.
    pub push_pull: bool,
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
            push_pull: push_pull_from_env(),
        }
    }

    /// [`Config::new`], then apply every `PIM_*` environment override in
    /// one place: `PIM_PUSH_PULL` (push-pull batch search) here, with
    /// `PIM_THREADS` and `PIM_SHARDS` read by the executor and cluster
    /// tiers from the same parsed [`pim_runtime::EnvSettings`]. This is
    /// the supported way to build an environment-driven config; layered
    /// configs (`ServiceConfig`, `ClusterConfig`) wrap the result rather
    /// than re-parsing variables themselves.
    pub fn from_env(p: u32, expected_n: u64, seed: u64) -> Self {
        Self::new(p, expected_n, seed).with_settings(&pim_runtime::EnvSettings::from_env())
    }

    /// Apply pre-parsed [`pim_runtime::EnvSettings`] (unit-testable
    /// counterpart of [`Config::from_env`]; settings that do not concern
    /// the core config — threads, shards — are ignored here and consumed
    /// by their own tiers).
    pub fn with_settings(mut self, settings: &pim_runtime::EnvSettings) -> Self {
        if let Some(push_pull) = settings.push_pull {
            self.push_pull = push_pull;
        }
        self
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

    /// Explicitly set push-pull batch search (see [`Config::push_pull`]),
    /// overriding whatever `PIM_PUSH_PULL` seeded.
    pub fn with_push_pull(mut self, push_pull: bool) -> Self {
        self.push_pull = push_pull;
        self
    }

    /// Hot-node cache capacity (records) used when [`Config::push_pull`]
    /// is on: enough to hold every node — upper and lower part — that a
    /// `P log² P` batch's search paths touch (≈ `batch · log n` before
    /// sharing, far less after), so a repeated workload converges to
    /// CPU-only descents instead of thrashing at the admission boundary.
    /// Config-derived constant — no wall-clock, no feedback — so
    /// admission stays a deterministic function of the op stream.
    pub fn push_pull_capacity(&self) -> usize {
        (16 * self.batch_large()).max(4096)
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

/// `PIM_PUSH_PULL=1` (or `true`) turns push-pull batch search on
/// everywhere a `Config` is built with [`Config::new`]; anything else —
/// including the variable being absent — leaves it dark. Parsing lives in
/// [`pim_runtime::EnvSettings`], the one `PIM_*` parser.
fn push_pull_from_env() -> bool {
    pim_runtime::EnvSettings::from_env()
        .push_pull
        .unwrap_or(false)
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

    #[test]
    fn settings_override_push_pull_only_when_present() {
        use pim_runtime::EnvSettings;
        let base = Config::new(4, 64, 1).with_push_pull(false);
        let on = base.clone().with_settings(&EnvSettings {
            push_pull: Some(true),
            ..EnvSettings::default()
        });
        assert!(on.push_pull);
        let untouched = base.clone().with_settings(&EnvSettings::default());
        assert!(!untouched.push_pull);
        // Threads/shards are other tiers' business; the core config
        // ignores them.
        let other = base.with_settings(&EnvSettings {
            threads: Some(8),
            shards: Some(4),
            push_pull: None,
        });
        assert!(!other.push_pull);
        assert_eq!(other.p, 4);
    }

    #[test]
    fn push_pull_capacity_covers_a_large_batch() {
        let c = Config::new(16, 1 << 20, 42);
        assert!(c.push_pull_capacity() >= 8 * c.batch_large());
        assert!(Config::new(2, 64, 1).push_pull_capacity() >= 1024);
    }
}
