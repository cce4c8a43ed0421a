//! # pim-bench — experiment harness regenerating the paper's artifacts
//!
//! The paper's evaluation is Table 1 (asymptotic costs of every batch
//! point operation in five metrics) plus a theorem/lemma per claim. This
//! crate provides:
//!
//! * shared experiment runners ([`experiments`]) used by the
//!   `experiments` binary (model-metric tables, the paper-shape artifacts);
//! * measurement plumbing ([`measure`]) that diffs [`pim_runtime::Metrics`]
//!   snapshots around one batch.
//!
//! Run `cargo run --release -p pim-bench --bin experiments -- all` to
//! regenerate every table and figure; see `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison. Whether a change is *faster* is
//! judged by the repo benchmark (`benchmark/`, `BENCHMARK.json`), not here.

#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod measure;
pub mod provenance;
pub mod recovery;
pub mod report;
pub mod service;
pub mod skew;

pub use measure::{build_loaded_list, BatchCosts};
