//! Cluster ≡ single-machine oracle, deterministically.
//!
//! The property proptest sweeps over in `tests/` rides on the invariants
//! pinned here with fixed seeds: `S = 1` is byte-identical to one
//! machine, `S > 1` is reply-identical up to machine-local entry handles
//! (compared with the handles masked), and a durable cluster recovers
//! to oracle contents.

use pim_cluster::{ClusterConfig, PimCluster};
use pim_core::prelude::*;
use pim_runtime::Handle;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A key from a 512-slot pool spread across the whole `i64` line (so a
/// 2/4/8-shard cluster sees real cross-shard traffic *and* point ops get
/// hits): slot ∈ [-256, 255], stride 2^54.
fn pool_key(r: u64) -> Key {
    (((r % 512) as i64) - 256).wrapping_mul(1 << 54)
}

/// `n` mixed ops covering every family and every range function.
fn random_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut s = seed;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let key = pool_key(lcg(&mut s));
        let value = lcg(&mut s);
        ops.push(match lcg(&mut s) % 10 {
            0..=2 => Op::Upsert { key, value },
            3 => Op::Get { key },
            4 => Op::Update { key, value },
            5 => Op::Delete { key },
            6 => Op::Successor { key },
            7 => Op::Predecessor { key },
            _ => {
                let other = pool_key(lcg(&mut s));
                let (lo, hi) = (key.min(other), key.max(other));
                let func = match i % 7 {
                    0 => RangeFunc::Read,
                    1 => RangeFunc::Count,
                    2 => RangeFunc::Sum,
                    3 => RangeFunc::Min,
                    4 => RangeFunc::Max,
                    5 => RangeFunc::FetchAdd(3),
                    _ => RangeFunc::AddInPlace(7),
                };
                Op::Range { lo, hi, func }
            }
        });
    }
    ops
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

fn cfg() -> Config {
    Config::new(4, 1 << 10, 42)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pim-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn s1_is_byte_identical_to_the_single_machine() {
    let ops = random_ops(0xA11CE, 600);
    let mut oracle = PimSkipList::new(cfg());
    let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 1));
    let want = oracle.execute(&ops);
    let got = cluster.execute(&ops);
    // Full structural equality — handles included, no canonicalization.
    assert_eq!(got, want);
    assert_eq!(cluster.collect_items(), oracle.collect_items());
    assert_eq!(cluster.rounds(), oracle.metrics().rounds);
}

#[test]
fn sharded_replies_match_oracle_with_handles_masked() {
    let ops = random_ops(0xBEEF, 800);
    let mut oracle = PimSkipList::new(cfg());
    let want = masked(oracle.execute(&ops));
    for s in [2u32, 4, 8] {
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), s));
        let got = masked(cluster.execute(&ops));
        assert_eq!(got, want, "S={s} reply stream drifted from the oracle");
        assert_eq!(
            cluster.collect_items(),
            oracle.collect_items(),
            "S={s} contents drifted"
        );
    }
}

#[test]
fn inverted_range_and_h_low_errors_are_oracle_byte_equal() {
    let mut oracle = PimSkipList::new(cfg());
    let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 4));
    let bad = [Op::Range {
        lo: 10,
        hi: -10,
        func: RangeFunc::Count,
    }];
    assert_eq!(
        cluster.try_execute(&bad).unwrap_err(),
        oracle.try_execute(&bad).unwrap_err()
    );

    let flat = cfg().with_h_low(0);
    let mut oracle = PimSkipList::new(flat.clone());
    let mut cluster = PimCluster::new(ClusterConfig::new(flat, 4));
    let mutating = [Op::Range {
        lo: -10,
        hi: 10,
        func: RangeFunc::FetchAdd(1),
    }];
    assert_eq!(
        cluster.try_execute(&mutating).unwrap_err(),
        oracle.try_execute(&mutating).unwrap_err()
    );
}

#[test]
fn durable_cluster_recovers_from_its_shard_dirs() {
    let dir = tmpdir("recover");
    let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 3));
    cluster
        .enable_durability(&dir, DurabilityPolicy::default())
        .unwrap();
    cluster.execute(&random_ops(0xCAFE, 400));
    let want_items = cluster.collect_items();
    drop(cluster);

    let (mut recovered, report) = PimCluster::recover_from_dir(
        ClusterConfig::new(cfg(), 3),
        &dir,
        DurabilityPolicy::default(),
    )
    .unwrap();
    assert_eq!(recovered.collect_items(), want_items);
    assert_eq!(report.shards.len(), 3);
    assert!(report.ops_replayed() > 0);

    // The recovered cluster keeps serving correctly and stays durable.
    assert!(recovered.is_durable());
    let probe = random_ops(0x777, 100);
    let mut oracle = PimSkipList::new(cfg());
    oracle.load(&want_items);
    assert_eq!(
        masked(recovered.execute(&probe)),
        masked(oracle.execute(&probe))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_refuses_a_directory_of_another_shard_count() {
    let dir = tmpdir("shard-set");
    let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 2));
    cluster
        .enable_durability(&dir, DurabilityPolicy::default())
        .unwrap();
    cluster.execute(&random_ops(0xF00D, 100));
    drop(cluster);

    for shards in [1u32, 3] {
        let err = PimCluster::recover_from_dir(
            ClusterConfig::new(cfg(), shards),
            &dir,
            DurabilityPolicy::default(),
        )
        .err()
        .expect("a 2-shard directory is refused at another S");
        assert!(
            matches!(
                err,
                PimError::InvalidArgument {
                    op: "cluster_recover",
                    ..
                }
            ),
            "S={shards}: {err}"
        );
    }
    // A stray shard directory is refused too.
    std::fs::create_dir_all(dir.join("shard-7")).unwrap();
    assert!(PimCluster::recover_from_dir(
        ClusterConfig::new(cfg(), 2),
        &dir,
        DurabilityPolicy::default()
    )
    .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_merges_shard_labeled_series() {
    let mut cluster = PimCluster::new(ClusterConfig::new(cfg(), 2));
    cluster.enable_telemetry();
    cluster.execute(&random_ops(0xABCD, 200));
    let snap = cluster.telemetry_snapshot().expect("telemetry is lit");
    let text = snap.render_prometheus();
    assert!(
        text.contains("shard=\"0\"") && text.contains("shard=\"1\""),
        "every shard publishes under its own label:\n{text}"
    );
}
