//! # pim-core — the PIM-balanced batch-parallel skip list
//!
//! This crate is the reproduction of the primary contribution of *"The
//! Processing-in-Memory Model"* (Kang, Gibbons, Blelloch, Dhulipala, Gu,
//! McGuffey — SPAA 2021): an ordered search structure for the PIM model
//! whose batch operations are **PIM-balanced** — `O(W/P)` PIM time and
//! `O(I/P)` IO time — under *adversary-controlled* batches, with all
//! network costs independent of `n` and of query/update skew.
//!
//! Design (§3, Fig. 2): the skip list is cut horizontally at height
//! `h_low = log P`. The **upper part** is replicated in every PIM module
//! (searches start locally anywhere); the **lower part** is distributed by
//! a secret hash of `(key, level)` (uniform load). Leaves additionally
//! carry per-module *local leaf lists* and upper-part leaves carry
//! `next_leaf` shortcuts, enabling broadcast range operations.
//!
//! Supported batch operations (Table 1 / §5):
//!
//! | operation | entry point |
//! |---|---|
//! | Get | [`PimSkipList::batch_get`] |
//! | Update | [`PimSkipList::batch_update`] |
//! | Predecessor | [`PimSkipList::batch_predecessor`] |
//! | Successor | [`PimSkipList::batch_successor`] |
//! | Upsert | [`PimSkipList::batch_upsert`] |
//! | Delete | [`PimSkipList::batch_delete`] |
//! | RangeOperation (broadcast) | [`PimSkipList::range_broadcast`] |
//! | RangeOperation (tree) | [`PimSkipList::batch_range`] |
//! | mixed stream (service layer) | [`PimSkipList::execute`] |
//!
//! Every operation runs on the simulated PIM machine of `pim-runtime` and
//! is fully metered (IO time, PIM time, rounds, CPU work/depth, shared
//! memory), so the paper's Table 1 bounds are directly measurable.
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod config;
pub mod durable;
pub mod error;
pub mod invariants;
pub mod list;
pub mod module;
pub mod node;
pub mod op;
pub mod prelude;
pub mod range;
mod recover;
mod sched;
mod scratch;
pub mod tasks;
mod telem;

pub use batch::UpsertOutcome;
pub use config::{Config, Key, Value, NEG_INF, POS_INF};
pub use durable::{DurabilityPolicy, DurableStats, FsyncPolicy, RecoveryReport};
pub use error::{PimError, PimResult};
pub use list::PimSkipList;
pub use op::{Op, OpKind, Reply};
pub use pim_runtime::{FaultKind, FaultPlan};
pub use range::RangeResult;
pub use tasks::RangeFunc;
