//! # pim-baseline — the comparators the paper argues against
//!
//! Three baselines ground the experimental comparisons:
//!
//! * [`range_partitioned`] — coarse partitioning by key range (Choe et
//!   al. [11], Liu et al. [19]): one message per point op and contiguous
//!   ranges, but a single-partition adversary serialises it (§2.2);
//! * [`fine_grained`] — every node hashed individually (Ziegler et al.
//!   [34]): skew-proof but `O(log n)` messages per search (§3.1);
//! * the **naïve batch search** (pivot-free, the §4.2 strawman) has been
//!   retired from `pim-core`; the FIG3 experiment (`pim-bench`,
//!   `experiments adversarial`) measures the pivot D&C alone on the
//!   same-successor flood.
#![warn(missing_docs)]

pub mod fine_grained;
pub mod local_skiplist;
pub mod range_partitioned;

pub use fine_grained::FineGrainedSkipList;
pub use local_skiplist::LocalSkipList;
pub use range_partitioned::RangePartitionedList;
