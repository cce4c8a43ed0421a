//! Cross-crate property contract of the sharded router tier: for any
//! shard count `S` and any mixed [`Op`] stream, `PimCluster(S)` is
//! observationally equal to the single-machine oracle — same reply
//! stream with entry handles masked, same final contents, and same
//! error/commit boundary when a run fails.

use proptest::prelude::*;

use pim_cluster::{ClusterConfig, PimCluster};
use pim_core::prelude::*;
use pim_runtime::Handle;

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

/// The replies with every entry handle set to [`Handle::NULL`]: a handle
/// names a node inside one shard, so only its key compares across `S`.
fn masked(replies: Vec<Reply>) -> Vec<Reply> {
    replies
        .into_iter()
        .map(|r| match r {
            Reply::Entry(Some((key, _))) => Reply::Entry(Some((key, Handle::NULL))),
            other => other,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// cluster(S) ≡ single-shard oracle over random mixed op streams,
    /// batch boundary by batch boundary: identical handle-masked replies
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
                    masked(w),
                    masked(g),
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

    /// `S = 1` stays byte-identical to the single machine across two
    /// streams (full structural reply equality, contents, and rounds).
    #[test]
    fn s1_is_byte_identical_to_one_machine(
        ops_a in prop::collection::vec(op_strategy(), 1..60),
        ops_b in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut oracle = PimSkipList::new(cfg());
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 1));
        // Full structural equality — handles included, nothing masked
        // (inverted ranges in the stream refuse identically on each side).
        prop_assert_eq!(oracle.try_execute(&ops_a), cluster.try_execute(&ops_a));
        prop_assert_eq!(oracle.try_execute(&ops_b), cluster.try_execute(&ops_b));
        prop_assert_eq!(cluster.collect_items(), oracle.collect_items());
        prop_assert_eq!(cluster.rounds(), oracle.metrics().rounds);
    }
}
