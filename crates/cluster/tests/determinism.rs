//! The cluster's thread-count contract, in-process.
//!
//! One fixed open-loop mixed stream goes through a telemetry-lit
//! `PimService<PimCluster>` at `S ∈ {1, 4}` shards and `{1, 8}` pool
//! threads. The replies, entry handles masked, must be equal across all
//! four runs (the router is transparent and the thread count changes
//! wall-clock only). The merged Prometheus rendering and the cluster
//! registry's event log must be byte-equal across thread counts at each
//! `S` (their series carry shard labels, so they differ across `S` by
//! construction).

use std::sync::Mutex;

use pim_cluster::{ClusterConfig, PimCluster};
use pim_core::prelude::*;
use pim_runtime::pool::{self, ExecConfig};
use pim_runtime::{rounds_jsonl, ExportBundle, Handle, Trace};
use pim_service::{PimService, RequestId, ServiceConfig};

/// The pool configuration is process-global; serialise the tests in this
/// binary so one run's thread count never races another's.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A key from a 256-slot pool spread across the whole `i64` line, so a
/// 4-shard cluster sees every shard and ranges that cross shard cuts.
fn pool_key(r: u64) -> Key {
    (((r % 256) as i64) - 128).wrapping_mul(1 << 55)
}

/// The fixed stream: upserts, deletes, gets, successors, predecessors
/// and ranges whose ends are drawn from the whole line.
fn stream(n: usize) -> Vec<Op> {
    let mut s = 0xD37E_2A11u64;
    (0..n)
        .map(|i| {
            let key = pool_key(lcg(&mut s));
            match lcg(&mut s) % 20 {
                0..=6 => Op::Upsert {
                    key,
                    value: lcg(&mut s),
                },
                7 | 8 => Op::Delete { key },
                9..=12 => Op::Get { key },
                13 | 14 => Op::Successor { key },
                15 => Op::Predecessor { key },
                _ => {
                    let other = pool_key(lcg(&mut s));
                    let func = [RangeFunc::Read, RangeFunc::Count, RangeFunc::Sum][i % 3];
                    Op::Range {
                        lo: key.min(other),
                        hi: key.max(other),
                        func,
                    }
                }
            }
        })
        .collect()
}

/// Everything observable a run produces, other than elapsed time.
struct Run {
    replies: Vec<(RequestId, Reply)>,
    prometheus: String,
    events: String,
}

/// Submit the stream open-loop, five ops a tick whatever has completed,
/// then drain; under `threads` workers with zero parallel thresholds, so
/// every fan-out over the shards really forks.
fn run(shards: u32, threads: usize) -> Run {
    pool::configure(ExecConfig {
        threads,
        par_threshold: 0,
        sort_threshold: 0,
    });
    let mut cluster = PimCluster::new(ClusterConfig::new(Config::new(4, 1 << 10, 42), shards));
    cluster.enable_telemetry();
    let mut svc = PimService::new(cluster, ServiceConfig::new(32).with_max_linger(2));
    let mut done = Vec::new();
    for tick in stream(600).chunks(5) {
        for &op in tick {
            svc.submit(op).expect("the queue bound is never reached");
        }
        done.extend(svc.tick());
    }
    done.extend(svc.flush());
    pool::configure(ExecConfig::from_env());

    done.sort_by_key(|c| c.id);
    let replies = done
        .into_iter()
        .map(|c| match c.reply {
            // A handle names a node inside one shard: only the key
            // compares across shard counts.
            Reply::Entry(Some((key, _))) => (c.id, Reply::Entry(Some((key, Handle::NULL)))),
            reply => (c.id, reply),
        })
        .collect();
    let cluster = svc.list_mut();
    let prometheus = cluster
        .telemetry_snapshot()
        .expect("telemetry is lit")
        .render_prometheus();
    let events = rounds_jsonl(&ExportBundle {
        p: 0,
        trace: &Trace::default(),
        report: None,
        events: Some(cluster.telemetry_mut().expect("telemetry is lit")),
    });
    Run {
        replies,
        prometheus,
        events,
    }
}

#[test]
fn replies_and_telemetry_do_not_depend_on_threads_or_shards() {
    let _guard = POOL_LOCK.lock().unwrap();
    let runs = [1u32, 4].map(|shards| (shards, run(shards, 1), run(shards, 8)));
    let oracle = &runs[0].1.replies;
    assert_eq!(oracle.len(), 600, "every request completes");
    assert!(
        oracle
            .iter()
            .any(|(_, r)| matches!(r, Reply::Range(res) if res.count > 1)),
        "the stream holds ranges that span several keys"
    );
    for (shards, base, wide) in &runs {
        assert!(
            base.replies == *oracle,
            "S={shards}: replies differ from S=1"
        );
        assert!(
            wide.replies == base.replies,
            "S={shards}: replies differ at 8 threads"
        );
        assert_eq!(wide.prometheus, base.prometheus, "S={shards}: metrics");
        assert_eq!(wide.events, base.events, "S={shards}: events");
        assert!(!base.events.is_empty() && base.prometheus.contains("shard=\"0\""));
    }
}
