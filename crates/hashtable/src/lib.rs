//! # pim-hashtable — de-amortized cuckoo hashing for PIM modules
//!
//! Each PIM module of the paper's skip list keeps "an additional hash table
//! locally ... to map keys to leaf nodes directly" with `O(1)` whp work per
//! Get, Update, Delete and Insert (§4.1, citing the fully de-amortized
//! cuckoo hashing of Goodrich et al. [16]). This crate provides that
//! substrate:
//!
//! * [`cuckoo::CuckooTable`] — a bucketed two-table cuckoo hash with a hard
//!   displacement budget per insert;
//! * [`deamortized::DeamortizedMap`] — the de-amortized wrapper: a stash
//!   plus incremental (per-operation) migration into the next table
//!   generation, so the work *charged* per operation stays constant across
//!   growth (its module doc names the work that charge leaves out).
//!
//! The `last_op_work` counters are what the owning module charges as
//! PIM time for every table operation.
#![warn(missing_docs)]

pub mod cuckoo;
pub mod deamortized;

pub use cuckoo::CuckooTable;
pub use deamortized::DeamortizedMap;
