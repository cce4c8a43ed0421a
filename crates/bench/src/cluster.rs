//! CLUSTER: the sharded-router experiment — oracle equivalence and
//! scaling shape of `pim-cluster` across shard counts.
//!
//! For each `S ∈ {1, 2, 4, 8}` the same deterministic mixed op stream
//! (open-loop arrival schedule over a domain-spread resident set, see
//! [`pim_workloads::domain_spread_keys`]) runs against a fresh
//! `PimCluster` *and* against the single-machine oracle, and the two
//! reply streams are **byte-compared** through the canonical wire
//! encoding ([`pim_cluster::wire`]) — the cluster's correctness contract
//! is checked on every bench run, not assumed. Each point then reports
//! total machine rounds, wall-clock throughput, and the shard load
//! spread (max/min resident keys — how well the uniform cuts balanced
//! the workload).
//!
//! With `--out DIR` one telemetry-enabled session per `S ∈ {1, 4}`
//! additionally writes `DIR/metrics-sN.prom`, `DIR/events-sN.jsonl` and
//! `DIR/replies-sN.bin`: the `.bin` files must be byte-identical across
//! `S` (router transparency), and all three must be byte-identical across
//! `PIM_THREADS` (determinism) — the CI `cluster` job diffs both axes.

use std::time::Instant;

use pim_cluster::{wire, ClusterConfig, PimCluster};
use pim_core::{Op, PimSkipList, Reply};
use pim_workloads::{domain_spread_keys, value_for, ArrivalGen, OpMix};

use crate::service::to_op;

/// Shard counts the sweep visits.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// One measured point of the shard sweep.
#[derive(Debug, Clone)]
pub struct ClusterPoint {
    /// Shard count.
    pub shards: u32,
    /// Replies byte-equal to the single-machine oracle (wire encoding)?
    pub oracle_equal: bool,
    /// Ops executed.
    pub ops: u64,
    /// Total machine rounds across shards.
    pub rounds: u64,
    /// Ops per wall-clock second (the only thread/shard-sensitive column).
    pub ops_per_sec: f64,
    /// Resident keys on the fullest shard after the run.
    pub max_shard_len: u64,
    /// Resident keys on the emptiest shard after the run.
    pub min_shard_len: u64,
}

/// The deterministic cluster workload: load `n` domain-spread pairs,
/// then a mixed open-loop stream batched into execute calls.
fn workload(n: usize, seed: u64) -> (Vec<(i64, u64)>, Vec<Vec<Op>>) {
    let resident = domain_spread_keys(seed, n);
    let pairs: Vec<(i64, u64)> = resident.iter().map(|&k| (k, value_for(k))).collect();
    // Rate × ticks sized so the stream is a few times the resident set.
    let mut gen = ArrivalGen::new(seed ^ 0xC1A5, resident, 0.8, 64.0, OpMix::mixed());
    let events = gen.schedule((n as u64) / 16);
    let batch = 512;
    let mut batches = Vec::new();
    let mut cur = Vec::with_capacity(batch);
    for e in events {
        cur.push(to_op(e.op));
        if cur.len() == batch {
            batches.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    (pairs, batches)
}

fn run_stream(
    cluster: &mut PimCluster,
    pairs: &[(i64, u64)],
    batches: &[Vec<Op>],
) -> (Vec<Reply>, f64) {
    let load: Vec<Op> = pairs
        .iter()
        .map(|&(key, value)| Op::Upsert { key, value })
        .collect();
    let start = Instant::now();
    let mut replies = Vec::new();
    replies.extend(cluster.execute(&load));
    for b in batches {
        replies.extend(cluster.execute(b));
    }
    (replies, start.elapsed().as_secs_f64())
}

/// Run the shard sweep; returns the points (every point's
/// `oracle_equal` must hold — the caller turns a miss into a failure).
pub fn sweep(quick: bool, seed: u64) -> Vec<ClusterPoint> {
    let (p, n) = if quick { (16, 2_000) } else { (32, 8_000) };
    let (pairs, batches) = workload(n, seed);
    let total_ops = (pairs.len() + batches.iter().map(Vec::len).sum::<usize>()) as u64;

    // The oracle: one machine, same stream.
    let core = pim_core::Config::new(p, n as u64, seed);
    let mut oracle_cluster = PimCluster::new(ClusterConfig::new(core.clone(), 1));
    let (oracle_replies, _) = run_stream(&mut oracle_cluster, &pairs, &batches);
    let mut oracle = PimSkipList::new(core.clone());
    let mut direct = Vec::new();
    direct.extend(
        oracle.execute(
            &pairs
                .iter()
                .map(|&(key, value)| Op::Upsert { key, value })
                .collect::<Vec<_>>(),
        ),
    );
    for b in &batches {
        direct.extend(oracle.execute(b));
    }
    assert_eq!(
        oracle_replies, direct,
        "S=1 must be byte-identical to the machine, handles included"
    );
    let want = wire::encode_replies(&direct);

    SHARD_COUNTS
        .iter()
        .map(|&s| {
            let mut cluster = PimCluster::new(ClusterConfig::new(core.clone(), s));
            let (replies, secs) = run_stream(&mut cluster, &pairs, &batches);
            let got = wire::encode_replies(&replies);
            let lens: Vec<u64> = cluster.stats().shards.iter().map(|sh| sh.len).collect();
            ClusterPoint {
                shards: s,
                oracle_equal: got == want,
                ops: total_ops,
                rounds: cluster.rounds(),
                ops_per_sec: total_ops as f64 / secs.max(1e-9),
                max_shard_len: lens.iter().copied().max().unwrap_or(0),
                min_shard_len: lens.iter().copied().min().unwrap_or(0),
            }
        })
        .collect()
}

/// Run the experiment and print the table. Fails (exit-worthy error) if
/// any shard count's replies drift from the oracle.
pub fn run_cluster(quick: bool, seed: u64) -> Result<(), String> {
    println!("CLUSTER: sharded router vs single-machine oracle (reply byte-compare)");
    let points = sweep(quick, seed);
    println!(
        "{:>7} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "shards", "oracle", "rounds", "ops/sec", "max shard", "min shard"
    );
    let mut ok = true;
    for pt in &points {
        println!(
            "{:>7} {:>8} {:>10} {:>12.0} {:>12} {:>10}",
            pt.shards,
            if pt.oracle_equal { "EQUAL" } else { "DRIFT" },
            pt.rounds,
            pt.ops_per_sec,
            pt.max_shard_len,
            pt.min_shard_len,
        );
        ok &= pt.oracle_equal;
    }
    println!("(oracle column byte-compares wire-encoded replies; rounds sum over shards)");
    if ok {
        Ok(())
    } else {
        Err("cluster replies drifted from the single-machine oracle".into())
    }
}

/// Deterministic export session for the CI byte-diff: run the telemetry-
/// enabled cluster at `shards` and write `DIR/metrics-s{S}.prom`,
/// `DIR/events-s{S}.jsonl`, `DIR/replies-s{S}.bin`. The replies file is
/// shard-count-independent; all three are thread-count-independent.
pub fn cluster_export(out_dir: &str, quick: bool, seed: u64, shards: u32) -> Result<(), String> {
    let (p, n) = if quick { (16, 2_000) } else { (32, 8_000) };
    let (pairs, batches) = workload(n, seed);
    let core = pim_core::Config::new(p, n as u64, seed);
    let mut cluster = PimCluster::new(ClusterConfig::new(core, shards));
    cluster.enable_telemetry();
    if let Some(t) = cluster.telemetry_mut() {
        t.emit("cluster_start", 0, 0, &[("shards", u64::from(shards))]);
    }
    let (replies, _) = run_stream(&mut cluster, &pairs, &batches);
    let rounds = cluster.rounds();
    if let Some(t) = cluster.telemetry_mut() {
        t.emit("cluster_end", 0, rounds, &[("ops", replies.len() as u64)]);
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let snap = cluster
        .telemetry_snapshot()
        .ok_or("telemetry was not lit")?;
    let base = std::path::Path::new(out_dir);
    std::fs::write(
        base.join(format!("metrics-s{shards}.prom")),
        snap.render_prometheus(),
    )
    .map_err(|e| e.to_string())?;
    let events = cluster
        .telemetry_mut()
        .map(|t| t.events_jsonl())
        .unwrap_or_default();
    std::fs::write(base.join(format!("events-s{shards}.jsonl")), events)
        .map_err(|e| e.to_string())?;
    std::fs::write(
        base.join(format!("replies-s{shards}.bin")),
        wire::encode_replies(&replies),
    )
    .map_err(|e| e.to_string())?;
    println!("cluster export (S={shards}) -> {out_dir}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_matches_oracle_at_every_shard_count() {
        let points = sweep(true, 0xC1A5_7E57);
        assert_eq!(points.len(), SHARD_COUNTS.len());
        for pt in &points {
            assert!(pt.oracle_equal, "S={} drifted", pt.shards);
            assert!(pt.rounds > 0 && pt.ops > 0);
        }
        // The domain-spread resident set actually lands on every shard.
        let wide = points.last().unwrap();
        assert!(wide.min_shard_len > 0, "an S=8 shard ended up empty");
    }
}
