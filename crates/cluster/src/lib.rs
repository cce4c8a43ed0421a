//! `pim-cluster` — a sharded key-range cluster of PIM skip-list machines
//! behind the single-machine execute contract.
//!
//! The paper's machine is a single box of `P` modules; the roadmap
//! north-star is "millions of users". This crate is the system tier that
//! closes the gap: `S` independent [`pim_core::PimSkipList`] shards, each
//! a full PIM machine, behind a deterministic **key-range router**. The
//! client-facing entry is *exactly* `pim_core::op`'s typed mixed-stream
//! contract — [`PimCluster::execute`] takes the same [`pim_core::Op`]
//! slice and answers positionally with the same [`pim_core::Reply`]s —
//! so everything written against one machine runs unchanged against a
//! cluster, including the `pim-service` scheduling tier
//! (`PimService<PimCluster>` via the [`pim_service::Backend`] impl).
//!
//! # Routing determinism contract
//!
//! * The op stream is split into maximal coalescible runs with the very
//!   same [`pim_core::op::run_end`] the single machine uses; runs commit
//!   in stream order.
//! * Within a run, each op routes by key: point ops to the shard owning
//!   the key, `Range` ops split into per-shard subranges (merged back in
//!   shard = key order), and `Successor`/`Predecessor` fall back to
//!   adjacent shards in deterministic waves when the owner has no
//!   answer.
//! * A cluster of `S = 1` is **byte-identical** to a single machine
//!   (shard 0 runs the base [`pim_core::Config`] verbatim); for `S > 1`
//!   replies are **identical up to machine-local entry handles** (a
//!   [`pim_core::Reply::Entry`] handle names a node *inside one shard*;
//!   the canonical client-visible encoding in [`wire`] therefore carries
//!   the key, which is shard-independent). The proptest suite drives
//!   both equivalences over random mixed streams.
//!
//! # Shard identity rules
//!
//! Shards have stable numeric ids ([`ShardId`]), minted once and never
//! reused: an offline [`PimCluster::split_shard`] *retires* the parent id
//! and mints two fresh children. Durable state lives under
//! `dir/shard-{id}`, telemetry series carry a `shard="{id}"` label, and
//! the cluster manifest (`CLUSTER`, checksummed) records the live
//! id → key-range map, so recovery after any sequence of splits finds
//! exactly the shards that exist.
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
mod manifest;
mod router;
pub mod wire;

pub use cluster::{ClusterRecoveryReport, ClusterStats, PimCluster, ShardInfo};
pub use router::ShardId;

use pim_core::Config;
use pim_runtime::EnvSettings;

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

    /// [`pim_core::Config::from_env`] for the cluster tier: build the
    /// core config with every `PIM_*` override applied, then read the
    /// shard count from `PIM_SHARDS` (absent/invalid → 1).
    pub fn from_env(p: u32, expected_n: u64, seed: u64) -> Self {
        Self::new(Config::new(p, expected_n, seed), 1).with_settings(&EnvSettings::from_env())
    }

    /// Apply pre-parsed [`EnvSettings`] (the unit-testable counterpart
    /// of [`ClusterConfig::from_env`]).
    pub fn with_settings(mut self, settings: &EnvSettings) -> Self {
        self.core = self.core.with_settings(settings);
        if let Some(shards) = settings.shards {
            self.shards = shards.max(1);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_wraps_core_and_reads_shards_from_settings() {
        let cfg = ClusterConfig::new(Config::new(4, 1 << 10, 7), 0);
        assert_eq!(cfg.shards, 1, "shard count clamps to 1");
        let cfg = cfg.with_settings(&EnvSettings {
            shards: Some(8),
            push_pull: Some(true),
            threads: None,
        });
        assert_eq!(cfg.shards, 8);
        assert!(cfg.core.push_pull, "core overrides flow through the wrap");
    }
}
