//! `pim-cluster` — a key-range cluster of PIM skip-list machines behind
//! the single-machine execute contract.
//!
//! The paper's machine is a single box of `P` modules. This crate puts
//! `S` independent [`pim_core::PimSkipList`] shards, each a full PIM
//! machine, behind a deterministic **key-range router**; the shards are
//! fixed when the cluster is built. The client-facing entry is *exactly*
//! `pim_core::op`'s typed mixed-stream contract — [`PimCluster::execute`]
//! takes the same [`pim_core::Op`] slice and answers positionally with
//! the same [`pim_core::Reply`]s — so everything written against one
//! machine runs unchanged against a cluster, including the `pim-service`
//! scheduling tier (`PimService<PimCluster>` via the
//! [`pim_service::Backend`] impl).
//!
//! # Routing determinism contract
//!
//! * With more than one shard, the op stream is split into maximal
//!   coalescible runs with the very same [`pim_core::op::run_end`] the
//!   single machine uses; runs commit in stream order. A lone shard gets
//!   the whole stream.
//! * Within a run, each op routes by key: point ops to the shard owning
//!   the key, `Range` ops split into per-shard subranges (merged back in
//!   shard = key order), and `Successor`/`Predecessor` fall back to
//!   adjacent shards in deterministic waves when the owner has no
//!   answer.
//! * A cluster of `S = 1` is **byte-identical** to a single machine
//!   (shard 0 runs the base [`pim_core::Config`] verbatim); for `S > 1`
//!   replies are **identical up to machine-local entry handles** (a
//!   [`pim_core::Reply::Entry`] handle names a node *inside one shard*,
//!   so only its key is comparable across shard counts). The tests drive
//!   both equivalences over random mixed streams.
//!
//! A shard is named by its position in the key order: durable state
//! lives under `dir/shard-{i}` and telemetry series carry a
//! `shard="{i}"` label.
//!
//! ```
//! use pim_cluster::{ClusterConfig, PimCluster};
//! use pim_core::prelude::*;
//!
//! let cfg = ClusterConfig::new(Config::new(4, 1 << 10, 42), 4);
//! let mut cluster = PimCluster::new(cfg);
//! let replies = cluster.execute(&[
//!     Op::Upsert { key: -5, value: 50 },
//!     Op::Upsert { key: 7, value: 70 },
//!     Op::Successor { key: -4 },
//! ]);
//! assert_eq!(replies[2].as_entry().unwrap().unwrap().0, 7);
//! ```

#![warn(missing_docs)]

mod backend;
mod cluster;
mod router;

pub use cluster::{ClusterRecoveryReport, PimCluster};

use pim_core::Config;

/// Construction parameters of a [`PimCluster`]: the wrapped per-shard
/// core [`Config`] plus the shard count. No `with_*` setters are
/// re-implemented here — tune the machine through the wrapped
/// [`ClusterConfig::core`] directly.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The machine configuration every shard runs **verbatim** (same
    /// `p`, same seed — shards are independent machines, not partitions
    /// of one machine's modules). Byte-identity of `S = 1` with a single
    /// machine depends on this being unmodified.
    pub core: Config,
    /// Number of shards `S ≥ 1` (clamped to 1).
    pub shards: u32,
}

impl ClusterConfig {
    /// A cluster of `shards` machines, each configured by `core`.
    pub fn new(core: Config, shards: u32) -> Self {
        ClusterConfig {
            core,
            shards: shards.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_wraps_core_and_clamps_shards() {
        let core = Config::new(4, 1 << 10, 7);
        let cfg = ClusterConfig::new(core.clone(), 0);
        assert_eq!(cfg.shards, 1, "shard count clamps to 1");
        assert_eq!(cfg.core.batch_large(), core.batch_large());
        assert_eq!(ClusterConfig::new(core, 8).shards, 8);
    }
}
