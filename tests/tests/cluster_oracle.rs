//! Cross-crate property contract of the sharded router tier: for any
//! shard count `S` and any mixed [`Op`] stream, `PimCluster(S)` is
//! observationally equal to the single-machine oracle — same reply
//! stream through the canonical wire encoding, same final contents, and
//! same error/commit boundary when a run fails. A chaos property kills
//! one shard mid-stream, shows the survivors keep serving and the dead
//! shard's key range refuses with `ShardDown`, then rebuilds the shard
//! from its own journal/WAL and proves nothing was lost.

use proptest::prelude::*;

use pim_cluster::{wire, ClusterConfig, PimCluster};
use pim_core::prelude::*;

fn key_strategy() -> impl Strategy<Value = i64> {
    // Mix a small hot domain (collisions, dense runs) with keys spread
    // across the whole line (every shard of any S ≤ 8 sees traffic).
    prop_oneof![
        3 => -40i64..200,
        2 => any::<i64>().prop_map(|k| k.max(i64::MIN + 1)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Upsert { key, value }),
        2 => key_strategy().prop_map(|key| Op::Delete { key }),
        2 => key_strategy().prop_map(|key| Op::Get { key }),
        1 => (key_strategy(), any::<u64>())
            .prop_map(|(key, value)| Op::Update { key, value }),
        1 => key_strategy().prop_map(|key| Op::Successor { key }),
        1 => key_strategy().prop_map(|key| Op::Predecessor { key }),
        1 => (key_strategy(), key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Read }),
        1 => (key_strategy(), key_strategy())
            .prop_map(|(a, b)| Op::Range { lo: a.min(b), hi: a.max(b), func: RangeFunc::Sum }),
        1 => (key_strategy(), key_strategy(), 1u64..5).prop_map(|(a, b, d)| Op::Range {
            lo: a.min(b),
            hi: a.max(b),
            func: RangeFunc::FetchAdd(d)
        }),
        // Deliberately inverted ranges: the cluster must reproduce the
        // oracle's argument validation byte-for-byte, at the same
        // position in the stream.
        1 => (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Range {
            lo: a.max(b),
            hi: a.min(b).saturating_sub(1),
            func: RangeFunc::Count
        }),
    ]
}

fn cfg() -> Config {
    Config::new(4, 1 << 10, 42)
}

fn fresh_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pim-cluster-prop-{tag}-{}-{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// cluster(S) ≡ single-shard oracle over random mixed op streams,
    /// batch boundary by batch boundary: identical wire-encoded replies
    /// for committed batches, identical errors for refused ones, and
    /// identical final contents.
    #[test]
    fn sharded_cluster_is_reply_identical_to_the_oracle(
        ops in prop::collection::vec(op_strategy(), 1..120),
        batch in 1usize..24,
        shards in 2u32..=8,
    ) {
        let mut oracle = PimCluster::new(ClusterConfig::new(cfg(), 1));
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), shards));
        for chunk in ops.chunks(batch) {
            let want = oracle.try_execute(chunk);
            let got = cluster.try_execute(chunk);
            match (want, got) {
                (Ok(w), Ok(g)) => prop_assert_eq!(
                    wire::encode_replies(&w),
                    wire::encode_replies(&g),
                    "replies drifted at S={}", shards
                ),
                (Err(we), Err(ge)) => prop_assert_eq!(
                    we.to_string(),
                    ge.to_string(),
                    "error text drifted at S={}", shards
                ),
                (w, g) => prop_assert!(
                    false,
                    "outcome kind drifted at S={shards}: oracle {w:?} vs cluster {g:?}"
                ),
            }
        }
        prop_assert_eq!(oracle.collect_items(), cluster.collect_items());
        prop_assert_eq!(oracle.len(), cluster.len());
    }

    /// Chaos: kill one shard mid-stream. Streams that touch its key
    /// range refuse with `ShardDown` (and commit nothing anywhere);
    /// streams confined to the survivors keep serving, oracle-equal.
    /// Rebuilding the shard from its own journal/WAL restores the full
    /// pre-crash contents and the cluster resumes oracle-equal service.
    #[test]
    fn killed_shard_refuses_while_survivors_serve_then_rebuilds(
        before in prop::collection::vec(op_strategy(), 1..60),
        after in prop::collection::vec(op_strategy(), 1..60),
        victim in 0usize..4,
        case in any::<u64>(),
    ) {
        let shards = 4u32;
        let dir = fresh_dir("chaos", case);
        let mut oracle = PimCluster::new(ClusterConfig::new(cfg(), 1));
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), shards));
        cluster
            .enable_durability(&dir, DurabilityPolicy::default())
            .unwrap();

        // Phase 1: both serve the first leg of the stream.
        for chunk in before.chunks(16) {
            let want = oracle.try_execute(chunk).map(|r| wire::encode_replies(&r));
            let got = cluster.try_execute(chunk).map(|r| wire::encode_replies(&r));
            prop_assert_eq!(want.map_err(|e| e.to_string()), got.map_err(|e| e.to_string()));
        }

        // Phase 2: crash one shard. Its range refuses; the rest serve.
        cluster.kill_shard(victim).unwrap();
        let stats = cluster.stats();
        let dead = &stats.shards[victim];
        let frozen = oracle.collect_items();
        let touching = [Op::Get { key: dead.lo }];
        match cluster.try_execute(&touching) {
            Err(PimError::ShardDown { shard }) => prop_assert_eq!(shard, dead.id),
            other => prop_assert!(false, "expected ShardDown, got {other:?}"),
        }
        // A survivor's keys still serve, and serve the pre-crash truth.
        if let Some(survivor) = stats.shards.iter().find(|s| s.alive) {
            let probe_lo = survivor.lo.max(i64::MIN + 1);
            let probe = [Op::Range {
                lo: probe_lo,
                hi: survivor.hi,
                func: RangeFunc::Count,
            }];
            let replies = cluster.try_execute(&probe).unwrap();
            let expect = frozen
                .iter()
                .filter(|(k, _)| *k >= probe_lo && *k <= survivor.hi)
                .count() as u64;
            match &replies[0] {
                Reply::Range(r) => prop_assert_eq!(r.count, expect),
                other => prop_assert!(false, "expected Range reply, got {other:?}"),
            }
        }

        // Phase 3: rebuild from the shard's own journal/WAL — nothing
        // lost, and the second leg of the stream is oracle-equal again.
        cluster.rebuild_shard(victim).unwrap();
        prop_assert_eq!(cluster.collect_items(), frozen);
        for chunk in after.chunks(16) {
            let want = oracle.try_execute(chunk).map(|r| wire::encode_replies(&r));
            let got = cluster.try_execute(chunk).map(|r| wire::encode_replies(&r));
            prop_assert_eq!(want.map_err(|e| e.to_string()), got.map_err(|e| e.to_string()));
        }
        prop_assert_eq!(oracle.collect_items(), cluster.collect_items());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `S = 1` stays byte-identical to the single machine across two
    /// streams (full structural reply equality, contents, and rounds).
    #[test]
    fn s1_is_byte_identical_to_one_machine(
        ops_a in prop::collection::vec(op_strategy(), 1..60),
        ops_b in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut oracle = PimSkipList::new(cfg());
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 1));
        // Full structural equality — handles included, no wire encoding
        // (inverted ranges in the stream refuse identically on each side).
        prop_assert_eq!(oracle.try_execute(&ops_a), cluster.try_execute(&ops_a));
        prop_assert_eq!(oracle.try_execute(&ops_b), cluster.try_execute(&ops_b));
        prop_assert_eq!(cluster.collect_items(), oracle.collect_items());
        prop_assert_eq!(cluster.rounds(), oracle.metrics().rounds);
    }
}
